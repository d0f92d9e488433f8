"""Command-line surface: subcommands, CSV/JSON contracts, exit codes."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cfrates.cli import SWEEP_COLUMNS, main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(args, timeout=300):
    # pytest's pythonpath and filterwarnings settings do not reach a child process
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
        PYTHONWARNINGS="error::RuntimeWarning",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "cfrates", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
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

    def test_negative_gain_list(self, capsys):
        assert main(["rates", "--h", "-0.5,1", "--snr-db", "30"]) == 0
        assert "gains: [-0.5, 1.0]" in capsys.readouterr().out
        assert main(["rates", "--eff-g", "-.5,1", "--eff-b", "1,2", "--snr-db", "30"]) == 0
        assert "gains: [-0.5, 1.0]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "h,snr_db",
        [("0.1097,-0.5526,-0.7848,0.7487", db) for db in ("85", "90", "120")] + [("1,1", "300")],
        ids=["85", "90", "120", "300"],
    )
    def test_high_snr_never_shows_a_traceback(self, h, snr_db):
        # past about 130 dB the float search may miss a minimum, and at 300 dB
        # the exhaustive search overruns its budget; a failure must be a
        # computation failure (exit 1 with "error:"), not a crash
        proc = run_cli(["rates", f"--h={h}", "--snr-db", snr_db])
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0 or (proc.returncode == 1 and "error:" in proc.stderr)

    def test_150_db_rate_sum_below_capacity(self, capsys):
        # the float Woodbury form printed sum/upper = 1.004380 here
        assert main(["rates", "--h", "0.3,-0.7,1.1", "--snr-db", "150"]) == 0
        line = next(x for x in capsys.readouterr().out.splitlines() if x.startswith("sum rate:"))
        total, upper = map(float, re.match(r"sum rate: (\S+) .* <= sum <= (\S+) ", line).groups())
        assert total <= upper + 1e-9

    @pytest.mark.parametrize(
        "args",
        [["rates", "--h", "1e200,1", "--snr-db", "10"], ["report", "--k", "3", "--g", "1e300", "--snr-db", "20"]],
        ids=["rates", "report"],
    )
    def test_overflowing_gram_fails_fast(self, args):
        # the Gram matrix overflows to NaN, which the lattice search would loop on
        proc = run_cli(args, timeout=30)
        assert proc.returncode == 1
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

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

    # sha256 of the 300-point K=3 log sweep CSV over [snr^-1/4 / 4, 2 sqrt(snr)],
    # the regime-dominance range.  Speedups must leave every 17-digit cell as
    # it is; a change that alters answers on purpose updates these and says
    # which rows changed.  The cells come from float arithmetic that partly
    # runs in numpy's BLAS, so another BLAS kernel may change low digits.
    SWEEP_DIGESTS = {
        25: "0a470df94b3ada6d38b8364b855e4eac6e3571cee947e754d6337efb8c3065ad",
        45: "7c9d8b1b8c955ee60b6e3fa2083b6829706e2cd66cbca225c12580bf604a3594",
    }

    def test_high_snr_sweep_keeps_the_report_checks(self, capsys):
        # each of these three snrs made the whole sweep exit 1 while the float
        # Gram cancelled ("not positive definite", "noise variance cancelled")
        args = ["sweep", "--k", "3", "--snr-db", "80,100,120", "--g-min", "1e-3", "--g-max", "1e6", "--points", "60"]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS) and len(lines) == 1 + 3 * 60
        for line in lines[1:]:
            row = dict(zip(SWEEP_COLUMNS, line.split(",")))
            r_best = float(row["r_best"])
            if row["in_outage"] == "false":
                assert float(row["lower_closed"]) <= r_best + 1e-9, row
            assert r_best <= float(row["upper_loose"]) + 1e-9, row

    @pytest.mark.parametrize("snr_db", [25, 45])
    def test_sweep_digest(self, tmp_path, snr_db):
        snr = 10 ** (snr_db / 10)
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--k", "3", "--snr-db", str(snr_db), "--g-min", repr(snr**-0.25 / 4)]
        args += ["--g-max", repr(2 * math.sqrt(snr)), "--points", "300", "--scale", "log", "--output", str(out)]
        assert main(args) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SWEEP_DIGESTS[snr_db]

    def test_negative_snr_list(self, capsys):
        args = ["sweep", "--k", "3", "--snr-db", "-5,10", "--g-min", "0.5", "--g-max", "1", "--points", "2"]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["-5", "-5", "10", "10"]

    def test_usage_errors_exit_2(self):
        assert run_cli(["sweep", "--k", "3", "--snr-db", "20", "--g-min", "2", "--g-max", "1", "--points", "5"]).returncode == 2
        assert run_cli(["sweep", "--k", "3", "--snr-db", "20", "--g-min", "1", "--g-max", "2", "--points", "1"]).returncode == 2
        assert run_cli(["sweep", "--k", "1", "--snr-db", "20", "--g-min", "1", "--g-max", "2", "--points", "3"]).returncode == 2
        # an infinite end of the grid is a usage error, not a numpy warning and exit 1
        proc = run_cli(["sweep", "--k", "3", "--snr-db", "25", "--g-min", "1", "--g-max", "inf", "--points", "3"])
        assert proc.returncode == 2 and "RuntimeWarning" not in proc.stderr

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

    def test_nan_alpha_is_a_computation_failure(self):
        proc = run_cli(["gdof", "--alpha", "nan", "--k", "3"], timeout=30)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_cli(["gdof", "--alpha", "1", "--k", "4"])
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1,0.25"

    def test_missing_command_exits_2(self):
        assert run_cli([]).returncode == 2
