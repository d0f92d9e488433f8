import pytest

# failures inside the shared oracles show their operands, as a test's own asserts do
pytest.register_assert_rewrite("oracles")
