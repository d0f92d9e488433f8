"""Command-line surface: subcommands, CSV/JSON contracts, exit codes."""

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfrates.cli
from cfrates.cli import SWEEP_COLUMNS, main
from cfrates.transform import ChannelSpec, transform

SRC = str(Path(__file__).resolve().parents[1] / "src")

# A K = 4 channel whose first minimum is about 1e134 times shorter than the others: the walk enters
# about 20 values, though one level's range holds more integers than the default budget
FALLBACK_ARGS = [
    "--eff-g",
    "3.812245313001031e+89,1.127565542431324e+90,2.0273245928995462e+90,-2.2212917830164186e+90",
    "--eff-b",
    "0.00218,0.000325,5.44e+19,1.81e-14",
    "--snr-db",
    "28",
]


def cli_env():
    """The environment of a child process, with pytest's pythonpath and filterwarnings settings, which do not reach it."""
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
        PYTHONWARNINGS="error::RuntimeWarning",
    )


def run_cli(args, timeout=300, code=None):
    """``python -m cfrates args``, or ``python -c code args`` when ``code`` is given."""
    proc = subprocess.run(
        [sys.executable, *(["-m", "cfrates"] if code is None else ["-c", code]), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=cli_env(),
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
        # at 300 dB the second step's range at its radius holds more integers
        # than the budget, so auto falls back to LLL; a failure must be a
        # computation failure (exit 1 with "error:"), not a crash
        proc = run_cli(["rates", f"--h={h}", "--snr-db", snr_db])
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0 or (proc.returncode == 1 and "error:" in proc.stderr)

    @pytest.mark.parametrize("h", ["1e-10", "1e-10,1e-10,1e-10,1e-10"], ids=["K=1", "K=4"])
    def test_capacity_that_rounds_to_0(self, h, capsys):
        # each norm is below snr but rounds to it, so every rate and the capacity read 0.0; sum/upper divided by 0
        assert main(["rates", "--h", h, "--snr-db", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "r_comp=0.000000" in captured.out and "(sum/upper = n/a)" in captured.out

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

    @pytest.mark.parametrize(
        "args, search",
        [(["--h", "1,2.5", "--snr-db", "25", "--method", "lll"], "lll"), (FALLBACK_ARGS, "exhaustive")],
        ids=["lll", "auto-fallback"],
    )
    def test_lll_transform_writes_nothing_to_stderr(self, args, search):
        # sum_rate_bounds warns that an LLL lower bound is not guaranteed; the
        # table says "search: lll".  The second channel's walk answers within
        # the default budget, so its table says "search: exhaustive"
        proc = run_cli(["rates", *args])
        assert proc.returncode == 0 and proc.stderr == ""
        assert f"search: {search}" in proc.stdout

    def test_auto_fallback_writes_nothing_to_stderr(self, monkeypatch, capsys):
        # a 3-node budget cannot finish this K = 4 walk, so auto falls back to LLL (K <= 3 has no budget)
        monkeypatch.setattr(cfrates.cli, "transform", functools.partial(transform, budget=3))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["rates", "--h", "1,0.62,0.34,0.21", "--snr-db", "30"]) == 0
        captured = capsys.readouterr()
        assert "search: lll" in captured.out
        assert caught == [] and captured.err == ""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_1_with_nothing_on_stderr(self, unbuffered):
        # the read end is closed before the child starts, so its first write to stdout, at a print
        # (unbuffered) or at main's flush (buffered), raises BrokenPipeError
        env = cli_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cfrates", "rates", "--h", "1,1,1,1", "--snr-db", "300"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=300,
                env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1 and proc.stderr == ""

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
    # which rows changed.  The cells are CPython float arithmetic (den is a
    # math.fsum, the grid points 10.0 ** y), so they depend on CPython's float
    # operations and the C library's pow, log and sqrt, not on numpy.
    SWEEP_DIGESTS = {
        25: "0105563c2f645813eb73a9a6ec4e025d4981b3116e62b6e670ab95a32141d8b5",
        45: "b2bcf3c493d1808d5c72d24b7ae88bc6e1366590c415fbb8a04a58a7c82260ab",
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

    def test_k_below_2_is_a_usage_error(self, capsys):
        # as for report and sweep: argparse exits 2 before gdof refuses the user count
        with pytest.raises(SystemExit) as exc:
            main(["gdof", "--alpha", "0.5", "--k", "1"])
        assert exc.value.code == 2
        assert "--k must be at least 2" in capsys.readouterr().err

    def test_nan_alpha_is_a_computation_failure(self):
        proc = run_cli(["gdof", "--alpha", "nan", "--k", "3"], timeout=30)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr


class TestSnrDbOverflow:
    """An snr in dB whose linear value overflows is a computation failure (exit 1), not a traceback."""

    @pytest.mark.parametrize(
        "args",
        [
            ["rates", "--h", "1,2", "--snr-db", "4000"],
            ["report", "--k", "3", "--g", "2", "--snr-db", "4000"],
            ["sweep", "--k", "3", "--snr-db", "4000", "--g-min", "1", "--g-max", "2", "--points", "3"],
            ["outage", "--regime", "strong", "--b", "1", "--snr-db", "4000", "--c", "2"],
        ],
        ids=["rates", "report", "sweep", "outage"],
    )
    def test_exits_1_with_one_error_line(self, args, capsys):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: snr of 4000.0 dB overflows floating point"]


class TestFloatRange:
    """Channels whose Gram a float orthogonalization could not handle are answered, each norm exactly rounded.

    Every search and LLL runs on the integer Gram Q, so the -1821 dB channels
    that a float LLL once refused are answered, K = 4 by the exhaustive walk.
    """

    @pytest.mark.parametrize(
        "h, method",
        [
            ((3.9e102, 8.5e102, 1.42e102, -6.42e102), "auto"),
            ((3.9e102, 8.5e102, 1.42e102), "auto"),
            ((3.9e102, 8.5e102), "lll"),
        ],
        ids=["K=4", "K=3", "K=2-lll"],
    )
    def test_is_answered_with_exactly_rounded_norms(self, h, method, capsys):
        snr = 10 ** (-1821 / 10)
        assert main(["rates", "--h", ",".join(map(repr, h)), "--snr-db", "-1821", "--method", method]) == 0
        assert capsys.readouterr().err == ""
        s, g = Fraction(snr), [Fraction(x) for x in h]
        for r in transform(ChannelSpec.plain(h, snr), method).results:
            cross = sum(x * y for x, y in zip(g, r.a))
            assert r.sigma2_eff == float(s * (sum(y * y for y in r.a) - s * cross * cross / (1 + s * sum(x * x for x in g))))

    @pytest.mark.parametrize(
        "channel",
        [["--h", "1,1.1", "--snr-db", "3000"], ["--eff-g", "1e155", "--eff-b", "1e-20", "--snr-db", "0"]],
        ids=["beta-numerator", "subnormal-sigma2"],
    )
    def test_k_le_3_rows_past_the_float_range_stay_finite(self, channel, capsys):
        # snr g^T B a (about 5e315) and snr / sigma2 (1e310) leave the floats; beta and the rate do not
        assert main(["rates", *channel]) == 0
        rows = re.findall(r"beta=(\S+)  sigma2_eff=\S+  r_comp=(\S+)", capsys.readouterr().out)
        assert rows and all(math.isfinite(float(x)) for row in rows for x in row)


    def test_interference_past_the_float_range_exits_1(self, capsys):
        # (K-1) g^2 snr = 2e312: an inf alpha once reported "very-strong" and a 498-bit upper bound, then nan HK gains
        assert main(["report", "--k", "3", "--g", "1e6", "--snr-db", "3000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "g^2 snr overflows" in line


class TestOutageSizeCap:
    def test_oversized_set_exits_1_with_one_error_line(self, capsys):
        # about 4e8 intervals: refused from q_max before any is built
        assert main(["outage", "--regime", "strong", "--b", "1", "--snr-db", "200", "--c", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: the strong outage set at b=1 has up to ")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_cli(["gdof", "--alpha", "1", "--k", "4"])
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1,0.25"

    def test_missing_command_exits_2(self):
        assert run_cli([]).returncode == 2


class TestFoundByFuzzing:
    """Input classes found by fuzzing the command line; each ended in a traceback or a RuntimeWarning."""

    @pytest.mark.parametrize("regime", ["strong", "weak"])
    def test_infinite_snr_outage_exits_1(self, regime, capsys):
        # 10 ** (inf / 10) is inf, not an OverflowError, and floor(q_max) then raised one
        assert main(["outage", "--regime", regime, "--b", "1", "--snr-db", "inf", "--c", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == ["error: need 1 < snr < inf and c > 0"]

    def test_log_grid_end_that_overflows_exits_1(self, capsys):
        # 10 ** log10(max float) overflows; the numpy grid made it inf with a RuntimeWarning
        args = ["sweep", "--k", "3", "--snr-db", "25", "--g-min", "1", "--g-max", repr(sys.float_info.max), "--points", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: the log grid's end ")


# Pools for the fuzz test: values that run, then edge values; the edge dB values
# overflow (10 ** (db / 10) leaves the float range at about 3083 dB).  rates reaches
# K = 4, where the walk's cost still grows about 10x per 10 dB past 160 dB, so its
# dB values that run stop there.  report and sweep search only 2- and 3-dimensional
# effective MACs, by exact reduction at a cost flat in snr and with no M, so theirs
# reach 3000 dB, where only a large gain is refused ((K-1) g^2 snr overflows).
# Outage sets stop at 60 dB: they grow with snr.
NUMBERS = (
    ["0.5", "1", "2", "2.5"],
    ["0", "-0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "1.7976931348623157e308", "x"],
)
DECIBELS = (
    ["0", "15", "25", "40", "60", "100", "160"],
    ["-5000", "-400", "-3", "4000", "5000", "nan", "inf", "-inf", "1e300", "x"],
)
IC_DECIBELS = (DECIBELS[0] + ["200", "300", "1000", "3000"], DECIBELS[1])
OUTAGE_DECIBELS = (["0", "15", "25", "40", "60"], ["-5000", "4000", "nan", "inf", "-inf"])
USERS = (["2", "3", "8"], ["-1", "0", "1", "x"])
POINTS = (["2", "3", "5"], ["-1", "0", "1", "x"])


def _value(pool, edge_share=3):
    """A value from ``pool``: an edge value about one time in ``edge_share``, else one that runs."""
    good, edge = pool
    return st.sampled_from(good * ((edge_share - 1) * len(edge) // len(good) + 1) + edge)


def _values(pool, max_size):
    return st.lists(_value(pool), min_size=1, max_size=max_size).map(",".join)


@st.composite
def cli_argvs(draw):
    """An argv for one of the five subcommands, with values from the pools above.

    Sizes stay small (at most 4 gains, K <= 8, 5 sweep points, outage sets at
    60 dB at most), and now and then an option is dropped or an unknown one
    added, so usage errors are drawn too.
    """
    command = draw(st.sampled_from(["rates", "report", "sweep", "outage", "gdof"]))
    pick = lambda pool, edge_share=3: draw(_value(pool, edge_share))  # noqa: E731
    if command == "rates":
        if draw(st.booleans()):
            opts = [("--h", draw(_values(NUMBERS, 4)))]
        else:
            opts = [("--eff-g", draw(_values(NUMBERS, 4))), ("--eff-b", draw(_values(NUMBERS, 4)))]
        opts += [("--snr-db", pick(DECIBELS)), ("--method", draw(st.sampled_from(["auto", "exhaustive", "lll"])))]
    elif command == "report":
        opts = [("--k", pick(USERS, 8)), ("--g", pick(NUMBERS)), ("--snr-db", pick(IC_DECIBELS)), ("--gap", pick(NUMBERS))]
    elif command == "sweep":
        g_min, g_max = sorted([pick(NUMBERS), pick(NUMBERS)], key=lambda x: (x == "x", float(x) if x != "x" else 0))
        opts = [("--k", pick(USERS, 8)), ("--snr-db", draw(_values(IC_DECIBELS, 2))), ("--g-min", g_min), ("--g-max", g_max)]
        opts += [("--points", pick(POINTS, 8)), ("--gap", pick(NUMBERS))]
        opts += [("--scale", draw(st.sampled_from(["linear", "log"]))), ("--format", draw(st.sampled_from(["csv", "json"])))]
    elif command == "outage":
        opts = [("--regime", draw(st.sampled_from(["strong", "weak"])))]
        opts += [("--b", pick((["1", "2"], ["-1", "0", "x"]), 8))]
        opts += [("--snr-db", pick(OUTAGE_DECIBELS)), ("--c", pick(NUMBERS))]
    else:
        opts = [("--alpha", draw(_values(NUMBERS, 3))), ("--k", pick(USERS, 8))]
    if draw(st.integers(0, 9)) == 0:
        del opts[draw(st.integers(0, len(opts) - 1))]
    if draw(st.integers(0, 19)) == 0:
        opts.append(("--bogus", "1"))
    return [command, *(f"{opt}={value}" for opt, value in opts)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cli_argvs())
def test_exit_code_contract_under_fuzzing(argv):
    """Exit 0, 1 or 2; 1 and 2 print one ``error:`` line; no traceback and no RuntimeWarning."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), argv
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    elif code == 2:
        assert lines[0].startswith("usage: cfrates"), (argv, lines)
        assert [line for line in lines if "error:" in line] == [lines[-1]], (argv, lines)
        assert lines[-1].startswith("cfrates") and out.getvalue() == "", (argv, lines)


class TestNumpyFree:
    """numpy loads only behind the views that return arrays: no subcommand reads one."""

    BLOCKED = "import sys; sys.modules['numpy'] = None; from cfrates.cli import main; raise SystemExit(main(sys.argv[1:]))"

    def test_import_leaves_numpy_out(self):
        proc = run_cli([], code="import sys, cfrates; assert 'numpy' not in sys.modules, 'numpy was imported'")
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["rates", "--h", "2.2360679,1", "--snr-db", "15"],
            ["report", "--k", "3", "--g", "2.0", "--snr-db", "25"],
            ["sweep", "--k", "3", "--snr-db", "25,45", "--g-min", "0.1", "--g-max", "100", "--points", "4"],
            ["outage", "--regime", "strong", "--b", "1", "--snr-db", "40", "--c", "2"],
            ["gdof", "--alpha", "0,0.5,1.5", "--k", "3"],
        ],
        ids=["rates", "report", "sweep", "outage", "gdof"],
    )
    def test_subcommand_runs_with_numpy_blocked(self, args, capsys):
        proc = run_cli(args, code=self.BLOCKED)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert main(args) == 0
        assert proc.stdout == capsys.readouterr().out
