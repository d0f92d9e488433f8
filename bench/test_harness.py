"""Tiny-size smoke tests for the benchmark harness (a few items, no timing)."""

import dataclasses
import os
import sys
from collections import Counter

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import harness  # noqa: E402
from workloads import HIGH_SNR_PROBE, WORKLOADS, tfm  # noqa: E402

# The diagnosed high-SNR exact-search case: near 90 dB the search sphere can
# miss a successive minimum and successive_minima raises AssertionError.
# Whether a given SNR trips it depends on float rounding, so the expected
# outcome comes from calling the library directly.
H_HIGH_SNR = (0.1097, -0.5526, -0.7848, 0.7487)


def _only(workload, items):
    return dataclasses.replace(workload, make_pass=lambda seed, p: list(items))


def test_library_failure_counts_as_failed_item():
    batch = HIGH_SNR_PROBE
    items = [(4, 90.0, H_HIGH_SNR), (4, 85.0, H_HIGH_SNR), (2, 20.0, (1.0, 0.5))]
    expected = Counter()
    for item in items:
        try:
            batch.run(item)
        except Exception as exc:
            expected[type(exc).__name__] += 1
    log = harness.run_passes(_only(batch, items), 0, passes=1)
    assert log.attempted == 3
    assert log.failures == expected
    assert log.wrong == 0


def test_raising_item_is_counted_not_fatal():
    def fails(item):
        raise AssertionError("search sphere missed a successive minimum")

    batch = HIGH_SNR_PROBE
    log = harness.run_passes(_only(dataclasses.replace(batch, run=fails), batch.make_pass(0, 0)[:2]), 0, passes=2)
    assert log.attempted == 4 and log.failures == {"AssertionError": 4} and log.wrong == 0


def test_each_workload_end_to_end_and_traced():
    original = tfm.transform
    for name, workload in WORKLOADS.items():
        tiny = _only(workload, workload.make_pass(7, 0)[:3])
        log = harness.run_passes(tiny, 7, passes=2)
        assert log.attempted == 6 and log.wrong == 0, (name, dict(log.failures))
        assert log.digests[0] == log.digests[1]
        metrics = harness.end_to_end(log, [0.2], 40.0)
        assert metrics["items_per_ref_s"][0] > 0
        plain, traced_log, tracer, layers = harness.traced(tiny, 7, 1e-9)
        assert traced_log.digests == plain.digests
        assert layers["harness.traced_s"][0] > 0
        assert tfm.transform is original  # wrappers removed after the traced run
    assert layers["transform.transform.calls"][0] == 1.0


def test_output_check_failure_is_counted():
    batch = HIGH_SNR_PROBE

    def lying_run(item):
        t, bounds = batch.run(item)
        return dataclasses.replace(t, results=t.results[:1] * len(t.results)), bounds

    lying = dataclasses.replace(batch, run=lying_run)
    log = harness.run_passes(_only(lying, [(3, 30.0, (1.0, -0.4, 0.3))]), 0, passes=1)
    assert log.attempted == 1 and log.wrong == 1
