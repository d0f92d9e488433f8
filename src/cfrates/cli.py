"""Command-line front end.

Subcommands: ``rates`` (transform of one MAC), ``report`` (one interference
channel point), ``sweep`` (figure-ready tables over a gain grid), ``outage``
(interval dump of one outage set), ``gdof`` (degrees-of-freedom values).

SNR is taken in dB on this surface and converted to linear internally.  CSV
output uses 17 significant digits so every float round-trips exactly.  Exit
codes: 0 success, 1 computation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import warnings

from .outage import strong_outage_params, strong_outage_set, weak_outage_params, weak_outage_set
from .symmetric_ic import SymmetricIcSpec, gdof, report
from .transform import ChannelSpec, mod_p_lift, pseudo_triangularize, rate_allocation, sum_rate_bounds, transform

SWEEP_COLUMNS = (
    "snr_db",
    "g",
    "alpha",
    "r_single",
    "r_noise",
    "r_hk",
    "r_tdma",
    "r_best",
    "lower_closed",
    "upper_tight",
    "upper_loose",
    "in_outage",
    "method_used",
)


def _db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"snr of {db!r} dB overflows floating point") from None


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


# options whose value is a comma-separated list of numbers
_LIST_OPTIONS = ("--h", "--eff-g", "--eff-b", "--snr-db", "--alpha")


def _attach_negative_lists(argv: list[str]) -> list[str]:
    """Rewrite ``--h -0.5,1`` as ``--h=-0.5,1``.

    argparse takes a value such as ``-0.5,1`` for an option and then reports
    the list option as missing its argument.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _LIST_OPTIONS and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def cmd_rates(args) -> int:
    snr = _db_to_linear(args.snr_db)
    if args.h is not None:
        channel = ChannelSpec.plain(args.h, snr)
    else:
        channel = ChannelSpec.effective(args.eff_g, args.eff_b, snr)

    t = transform(channel, method=args.method)
    with warnings.catch_warnings():  # an LLL transform's bounds warning: "search: lll" below says so
        warnings.simplefilter("ignore", UserWarning)
        bounds = sum_rate_bounds(t)

    print(f"gains: {list(channel.gains)}  weights^2: {list(channel.weights_sq)}")
    print(f"snr: {snr:.6g} ({args.snr_db} dB)   search: {t.method}")
    print("coefficient matrix (rows sorted by computation rate):")
    for r in t.results:
        print("  [" + " ".join(f"{x:4d}" for x in r.a) + " ]")
    print("equations:")
    for m, r in enumerate(t.results, start=1):
        print(
            f"  m={m}  a={list(r.a)}  beta={r.beta:.10g}  sigma2_eff={r.sigma2_eff:.10g}  r_comp={r.r_comp:.6f}"
        )
    ratio = f"{bounds.total / bounds.upper:.6f}" if bounds.upper else "n/a"  # a capacity that rounds to 0
    print(f"sum rate: {bounds.total:.6f}   sandwich: {bounds.lower:.6f} <= sum <= {bounds.upper:.6f}   (sum/upper = {ratio})")
    pts = pseudo_triangularize([r.a for r in t.results])
    print(f"feasible cancellation orders: {len(pts)}")
    for pt in pts:
        alloc = rate_allocation(t, pt)
        lift = mod_p_lift([r.a for r in t.results], pt)
        one_based = tuple(i + 1 for i in pt.pi)
        alloc_text = "  ".join(f"R_{u + 1}<{r:.4f}" for u, r in enumerate(alloc))
        print(f"  pi={one_based}  allocation: {alloc_text}  (mod-p lift: p={lift.p})")
    return 0


def cmd_report(args) -> int:
    spec = SymmetricIcSpec(users=args.k, cross_gain=args.g, snr=_db_to_linear(args.snr_db))
    rep = report(spec, c=args.gap, method=args.method)
    print(f"K={args.k}  g={args.g}  snr_db={args.snr_db}  regime={rep.regime}  alpha={rep.alpha:.6f}")
    print(f"  r_single     = {rep.r_single:.6f}")
    print(f"  r_noise      = {rep.r_noise:.6f}")
    print(f"  r_hk         = {'n/a (inr <= 1)' if rep.r_hk is None else format(rep.r_hk, '.6f')}")
    print(f"  r_tdma       = {rep.r_tdma:.6f}")
    print(f"  r_best       = {rep.r_best:.6f}")
    print(f"  lower_closed = {rep.lower_closed:.6f}   (gap c={args.gap})")
    print(f"  upper_tight  = {rep.upper_tight:.6f}")
    print(f"  upper_loose  = {rep.upper_loose:.6f}")
    print(f"  in_outage    = {rep.in_outage}   method={rep.method}")
    return 0


def _sweep_rows(args) -> list[dict]:
    lo, hi = (args.g_min, args.g_max) if args.scale == "linear" else (math.log10(args.g_min), math.log10(args.g_max))
    step = (hi - lo) / (args.points - 1)  # numpy's linspace on floats, but for a step that underflows
    grid = [lo + i * step for i in range(args.points - 1)] + [hi]
    if args.scale == "log":  # numpy's logspace, with CPython's power
        try:
            grid = [10.0**y for y in grid]
        except OverflowError:
            raise ValueError(f"the log grid's end 10**log10({args.g_max!r}) overflows floating point") from None
    rows = []
    for snr_db in args.snr_db:
        snr = _db_to_linear(snr_db)
        for g in grid:
            spec = SymmetricIcSpec(users=args.k, cross_gain=g, snr=snr)
            rep = report(spec, c=args.gap, method=args.method)
            row = {"snr_db": snr_db, "g": g, **{col: getattr(rep, col) for col in SWEEP_COLUMNS[2:-1]}}
            row.update(r_hk=math.nan if rep.r_hk is None else rep.r_hk, method_used=rep.method)
            rows.append(row)
    return rows


def cmd_sweep(args) -> int:
    rows = _sweep_rows(args)
    if args.format == "csv":
        lines = [",".join(SWEEP_COLUMNS)]
        lines.extend(",".join(_fmt(row[col]) for col in SWEEP_COLUMNS) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(rows, indent=2) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def cmd_outage(args) -> int:
    snr = _db_to_linear(args.snr_db)
    if args.regime == "strong":
        params = strong_outage_params(args.b, snr, args.c)
        interval_set = strong_outage_set(args.b, snr, args.c)
    else:
        params = weak_outage_params(args.b, snr, args.c)
        interval_set = weak_outage_set(args.b, snr, args.c)
    print(
        f"regime={params.regime}  b={params.b}  snr_db={args.snr_db}  c={params.c}"
        f"  delta={params.delta:.10g}  q_max={params.q_max:.10g}  phi={params.phi:.10g}"
    )
    print(f"domain: [{_fmt(interval_set.domain[0])}, {_fmt(interval_set.domain[1])})")
    print(f"intervals: {len(interval_set.intervals)}")
    for lo, hi in interval_set.intervals:
        print(f"  [{_fmt(lo)}, {_fmt(hi)})")
    bound = 2.0 ** (-args.c)
    measure = interval_set.measure
    ok = measure <= bound
    print(f"measure = {_fmt(measure)}   bound 2^-c = {_fmt(bound)}   within_bound = {_fmt(ok)}")
    return 0 if ok else 1


def cmd_gdof(args) -> int:
    for alpha in args.alpha:
        print(f"{_fmt(alpha)},{_fmt(gdof(alpha, args.k))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cfrates", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_rates = sub.add_parser("rates", help="transform of one multiple-access channel")
    p_rates.add_argument("--h", type=_parse_floats, default=None, help="plain gains, comma separated")
    p_rates.add_argument("--eff-g", type=_parse_floats, default=None, help="effective gains")
    p_rates.add_argument("--eff-b", type=_parse_floats, default=None, help="squared effective weights")
    p_rates.add_argument("--snr-db", type=float, required=True)
    p_rates.add_argument("--method", choices=["auto", "exhaustive", "lll"], default="auto")
    p_rates.set_defaults(func=cmd_rates)

    p_report = sub.add_parser("report", help="all rates and bounds at one channel point")
    p_report.add_argument("--k", type=int, required=True, help="number of users")
    p_report.add_argument("--g", type=float, required=True, help="cross gain")
    p_report.add_argument("--snr-db", type=float, required=True)
    p_report.add_argument("--gap", "-c", type=float, default=2.0, help="gap parameter c")
    p_report.add_argument("--method", choices=["auto", "exhaustive", "lll"], default="auto")
    p_report.set_defaults(func=cmd_report)

    p_sweep = sub.add_parser("sweep", help="table of rates and bounds over a gain grid")
    p_sweep.add_argument("--k", type=int, required=True)
    p_sweep.add_argument("--snr-db", type=_parse_floats, required=True, help="comma-separated dB values")
    p_sweep.add_argument("--g-min", type=float, required=True)
    p_sweep.add_argument("--g-max", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--scale", choices=["linear", "log"], default="log")
    p_sweep.add_argument("--gap", "-c", type=float, default=2.0)
    p_sweep.add_argument("--method", choices=["auto", "exhaustive", "lll"], default="auto")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.add_argument("--output", default="-", help="path or - for stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    p_outage = sub.add_parser("outage", help="dump one Diophantine outage set")
    p_outage.add_argument("--regime", choices=["strong", "weak"], required=True)
    p_outage.add_argument("--b", type=int, required=True, help="interval index")
    p_outage.add_argument("--snr-db", type=float, required=True)
    p_outage.add_argument("--c", type=float, required=True, help="gap parameter")
    p_outage.set_defaults(func=cmd_outage)

    p_gdof = sub.add_parser("gdof", help="generalized degrees-of-freedom values")
    p_gdof.add_argument("--alpha", type=_parse_floats, required=True, help="comma-separated levels")
    p_gdof.add_argument("--k", type=int, required=True)
    p_gdof.set_defaults(func=cmd_gdof)

    return parser


def _validate(parser: argparse.ArgumentParser, args) -> None:
    if args.command == "rates":
        if (args.h is None) == (args.eff_g is None):
            parser.error("provide exactly one of --h or --eff-g")
        if args.eff_g is not None and (args.eff_b is None or len(args.eff_b) != len(args.eff_g)):
            parser.error("--eff-b must accompany --eff-g with matching length")
    if args.command == "sweep":
        if args.points < 2:
            parser.error("--points must be at least 2")
        if not 0 < args.g_min < args.g_max < math.inf:
            parser.error("need 0 < g-min < g-max < inf")
    if args.command in ("report", "sweep", "gdof") and args.k < 2:
        parser.error("--k must be at least 2")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_lists(sys.argv[1:] if argv is None else list(argv)))
    _validate(parser, args)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # stdout was closed: say nothing, and let the exit's flush go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
