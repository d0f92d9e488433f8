"""cfrates benchmark: end-to-end and per-layer metrics for two workloads.

Run from the repository root:

    python3 bench/run.py --workload ic_sweep --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs half the
time untraced and the same passes again with per-function spans, and reports
the per-layer metrics and the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, failure kinds, per-pass output digests) goes to
``bench/results/``, and the traced run's spans beside it.

The library is imported from ``src/`` of the checkout, never installed.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy loads: the workloads are single-threaded
# closed loops and the target box has two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7


def _load_library() -> None:
    """Put the checkout's ``src`` first on the path, or exit with an error and no result."""
    if not os.path.isfile(os.path.join(SRC, "cfrates", "__init__.py")):
        sys.exit(f"error: no cfrates sources under {SRC}")
    sys.path[:0] = [SRC, BENCH_DIR]


def _setup_times(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import cfrates and build the first pass."""
    import subprocess
    import time

    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)]
        subprocess.run(probe, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def _environment(seed: int, workload) -> dict:
    import hashlib
    import platform
    import subprocess

    import numpy as np

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "cfrates")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload.name,
        "why": workload.why,
        "inputs": workload.inputs,
        "seed": seed,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ic_sweep", "mac_orders"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _load_library()

    from workloads import HIGH_SNR_PROBE, WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.make_pass(args.seed, 0)
        return 0

    import json
    import resource

    import harness

    setup_s = [] if args.trace else _setup_times(args.workload, args.seed)
    env = _environment(args.seed, workload)
    record = {"environment": env, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        plain, log, tracer, metrics = harness.traced(workload, args.seed, args.seconds)
        probe = harness.run_passes(HIGH_SNR_PROBE, args.seed, passes=1)
        metrics["transform.transform.high_snr_fail_frac"] = (probe.failed / probe.attempted, "ratio")
        record["high_snr_probe"] = {"inputs": HIGH_SNR_PROBE.inputs, "attempted": probe.attempted,
                                    "failures": dict(probe.failures)}
        if log.digests != plain.digests:
            log.failures["check:traced outputs differ from untraced outputs"] += 1
        os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
        spans_path = os.path.join(BENCH_DIR, "results", f"spans-{args.workload}-s{args.seed}.csv.gz")
        tracer.write_spans(spans_path)
        record["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        log = harness.run_passes(workload, args.seed, seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = harness.end_to_end(log, setup_s, peak_rss_mb)
        record["setup_s_samples"] = setup_s

    print(f"workload   {workload.name}: {workload.why}")
    print(f"inputs     {workload.inputs}")
    print(f"environment python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"cpu {env['cpu_model']}, commit {env['git_commit']}, src {env['src_sha256'][:16]}, seed {args.seed}")
    print(f"items      {log.attempted} in {len(log.digests)} passes; failed {log.failed} "
          f"(fail_frac {log.failed / log.attempted:.4f}) {dict(log.failures)}")
    print(f"digest     first pass {log.digests[0]}")
    if "high_snr_probe" in record:
        print(f"probe      {probe.attempted} items at 70-90 dB, not counted above; failed {probe.failed} "
              f"{dict(probe.failures)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:.6g} {unit}")

    record.update({
        "attempted": log.attempted,
        "failed": log.failed,
        "failures": dict(log.failures),
        "pass_digests": log.digests,
        "pass_items_per_cpu_s": log.pass_rates,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
    out = os.path.join(BENCH_DIR, "results", f"{args.workload}-s{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": log.wrong == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
