"""Command-line surface: subcommands, CSV/JSON contracts, exit codes."""

import json
import math
import subprocess
import sys

import pytest

from cfrates.cli import SWEEP_COLUMNS, main


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "cfrates", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


class TestRates:
    def test_reference_channel_table(self, capsys):
        assert main(["rates", "--h", "2.2360679,1", "--snr-db", "15"]) == 0
        out = capsys.readouterr().out
        matrix_rows = [line.replace("[", "").replace("]", "").split() for line in out.splitlines() if line.startswith("  [")]
        assert matrix_rows == [["2", "1"], ["3", "1"]]
        rates = [float(part.split("=")[1]) for line in out.splitlines() for part in line.split() if part.startswith("r_comp=")]
        assert rates == pytest.approx([2.409, 1.372], abs=2e-3)
        ratio = float(out.split("sum/upper = ")[1].split(")")[0])
        assert ratio == pytest.approx(0.998, abs=2e-3)
        assert "pi=(1, 2)" in out and "pi=(2, 1)" in out

    def test_decoupled_identity(self, capsys):
        assert main(["rates", "--h", "1,0", "--snr-db", "20"]) == 0
        out = capsys.readouterr().out
        assert "pi=(1, 2)" in out
        lines = [line for line in out.splitlines() if line.startswith("  [")]
        assert lines == ["  [   1    0 ]", "  [   0    1 ]"]

    def test_effective_channel(self, capsys):
        assert main(["rates", "--eff-g", "1,2", "--eff-b", "1,2", "--snr-db", "20"]) == 0
        out = capsys.readouterr().out
        assert "weights^2: [1.0, 2.0]" in out
        assert "sum/upper" in out

    def test_requires_exactly_one_channel(self):
        proc = run_cli(["rates", "--snr-db", "10"])
        assert proc.returncode == 2
        proc = run_cli(["rates", "--h", "1,1", "--eff-g", "1,1", "--eff-b", "1,1", "--snr-db", "10"])
        assert proc.returncode == 2

    @pytest.mark.parametrize("weights", [[], ["--eff-b", "1"]])
    def test_effective_weights_mismatch_exits_2(self, weights):
        proc = run_cli(["rates", "--eff-g", "1,2", *weights, "--snr-db", "10"])
        assert proc.returncode == 2
        assert "--eff-b must accompany --eff-g" in proc.stderr


class TestReport:
    def test_prints_all_fields(self, capsys):
        assert main(["report", "--k", "3", "--g", "2.0", "--snr-db", "25"]) == 0
        out = capsys.readouterr().out
        for field in ("regime=strong", "r_single", "r_noise", "r_hk", "r_tdma", "r_best", "in_outage"):
            assert field in out


class TestSweep:
    ARGS = [
        "sweep",
        "--k",
        "3",
        "--snr-db",
        "15,25",
        "--g-min",
        "0.5",
        "--g-max",
        "4.0",
        "--points",
        "6",
        "--scale",
        "log",
        "--gap",
        "2",
    ]

    def test_csv_contract(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(self.ARGS + ["--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 1 + 2 * 6
        # round trip every float through 17 significant digits
        for line in lines[1:]:
            cells = line.split(",")
            row = dict(zip(SWEEP_COLUMNS, cells))
            for col in SWEEP_COLUMNS[:-2]:
                value = float(row[col])
                assert format(value, ".17g") == row[col]
            assert row["in_outage"] in ("true", "false")
            assert row["method_used"] in ("exhaustive", "lll")

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--output", str(out1)]) == 0
        assert main(self.ARGS + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_matches_csv(self, tmp_path):
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "rows.json"
        assert main(self.ARGS + ["--output", str(csv_path)]) == 0
        assert main(self.ARGS + ["--format", "json", "--output", str(json_path)]) == 0
        rows = json.loads(json_path.read_text())
        lines = csv_path.read_text().splitlines()[1:]
        assert len(rows) == len(lines)
        for row, line in zip(rows, lines):
            cells = dict(zip(SWEEP_COLUMNS, line.split(",")))
            for col in ("g", "alpha", "r_single", "r_best", "upper_loose"):
                assert float(cells[col]) == pytest.approx(row[col], rel=1e-15)

    def test_single_point_matches_report(self, capsys):
        # two-point sweep endpoints reproduce standalone reports
        assert (
            main(
                [
                    "sweep",
                    "--k",
                    "3",
                    "--snr-db",
                    "25",
                    "--g-min",
                    "2.0",
                    "--g-max",
                    "3.0",
                    "--points",
                    "2",
                    "--output",
                    "-",
                ]
            )
            == 0
        )
        sweep_out = capsys.readouterr().out.splitlines()
        rows = [dict(zip(SWEEP_COLUMNS, line.split(","))) for line in sweep_out[1:]]

        from cfrates.symmetric_ic import SymmetricIcSpec, report

        for row in rows:
            rep = report(SymmetricIcSpec(3, float(row["g"]), 10**2.5), c=2.0)
            assert float(row["r_single"]) == pytest.approx(rep.r_single, rel=1e-15)
            assert float(row["r_best"]) == pytest.approx(rep.r_best, rel=1e-15)

    def test_usage_errors_exit_2(self):
        assert run_cli(["sweep", "--k", "3", "--snr-db", "20", "--g-min", "2", "--g-max", "1", "--points", "5"]).returncode == 2
        assert run_cli(["sweep", "--k", "3", "--snr-db", "20", "--g-min", "1", "--g-max", "2", "--points", "1"]).returncode == 2
        assert run_cli(["sweep", "--k", "1", "--snr-db", "20", "--g-min", "1", "--g-max", "2", "--points", "3"]).returncode == 2

    def test_unwritable_path_exits_1(self):
        proc = run_cli(self.ARGS + ["--output", "/nonexistent-dir/sweep.csv"])
        assert proc.returncode == 1


class TestOutage:
    def test_strong_dump(self, capsys):
        assert main(["outage", "--regime", "strong", "--b", "1", "--snr-db", "40", "--c", "2"]) == 0
        out = capsys.readouterr().out
        assert "regime=strong" in out
        assert "within_bound = true" in out
        measure_line = next(line for line in out.splitlines() if line.startswith("measure"))
        measure = float(measure_line.split()[2])
        assert 0 < measure <= 0.25

    def test_weak_dump(self, capsys):
        assert main(["outage", "--regime", "weak", "--b", "1", "--snr-db", "80", "--c", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "regime=moderately-weak" in out

    def test_bad_b_exits_1(self):
        proc = run_cli(["outage", "--regime", "strong", "--b", "0", "--snr-db", "40", "--c", "2"])
        assert proc.returncode == 1
        assert "error" in proc.stderr


class TestGdof:
    def test_values(self, capsys):
        assert main(["gdof", "--alpha", "0,0.5,1,1.5,2", "--k", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        values = [float(line.split(",")[1]) for line in out]
        assert values == [1.0, 0.5, 1 / 3, 0.75, 1.0]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_cli(["gdof", "--alpha", "1", "--k", "4"])
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1,0.25"

    def test_missing_command_exits_2(self):
        assert run_cli([]).returncode == 2
