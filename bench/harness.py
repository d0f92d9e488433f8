"""Closed-loop runner: one client, one thread, each item after the last returns.

``run_passes`` runs whole passes of a workload until a time limit (or for a
given number of passes), clearing both outage-set caches at the start of
each pass so every pass pays what a fresh ``cfrates sweep`` process pays.
An item that raises or fails an output check is counted as failed and timed,
and the run goes on.  ``end_to_end`` and ``traced`` turn passes into the
benchmark's metrics.

Items are timed in CPU seconds of this process (``time.process_time``).  The
loop is single-threaded and does no I/O, so on a dedicated core that equals
wall time; on a shared virtual machine wall time also holds the time the host
gives other guests, which varies by 10% or more from minute to minute.  Wall
time is still recorded per item, and the traced run reports wall over CPU.

CPU time itself runs ~25% faster or slower for minutes at a time on such a
host, as the physical core's speed changes.  So before each pass the run
also times ``reference_s``, a fixed loop that does not touch the library,
and the end-to-end times are scaled to a host on which that loop takes
``REF_NOMINAL_S``: a change to the library moves them, the host's speed
does not.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from tracing import TARGETS, Tracer
from workloads import OUTAGE_CACHES, Workload


REF_NOMINAL_S = 0.006
_REF_GRAM = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])


def reference_s() -> float:
    """CPU seconds of a fixed loop of rational, integer and small-numpy work,
    the kinds of work the library does, without calling the library."""
    start = time.process_time()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
    total = 0
    for i in range(30000):
        total += i * i % 7
    for _ in range(100):
        np.linalg.cholesky(_REF_GRAM)
    return time.process_time() - start


@dataclass
class PassLog:
    item_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)
    item_wall_s: list[float] = field(default_factory=list)
    pass_rates: list[float] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    digests: list[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def attempted(self) -> int:
        return len(self.item_s)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def wrong(self) -> int:
        """Items whose outputs failed a check (exceptions are not counted)."""
        return sum(n for kind, n in self.failures.items() if kind.startswith("check:"))


def run_item(workload: Workload, item, tracer: Tracer | None = None):
    """(CPU seconds, wall seconds, failure kind or None, digest lines) for one item."""
    cpu, wall = time.process_time(), time.perf_counter()
    try:
        out = tracer.item(workload.run, item) if tracer else workload.run(item)
    except Exception as exc:  # a failing item is counted and timed, never fatal
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        return cpu, wall, type(exc).__name__, [f"{item!r},error,{type(exc).__name__}"]
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    try:
        bad = workload.check(item, out)
        lines = workload.lines(item, out)
    except Exception as exc:  # malformed output: a failed check, not a crash
        return cpu, wall, f"check:{type(exc).__name__}: {exc}", [f"{item!r},bad-output"]
    return cpu, wall, (f"check:{bad[0]}" if bad else None), lines


def run_passes(workload: Workload, seed: int, *, seconds: float | None = None, passes: int | None = None,
               tracer: Tracer | None = None) -> PassLog:
    """Run whole passes while fewer than ``seconds`` have elapsed (at least
    one), or exactly ``passes``."""
    log = PassLog()
    start = time.perf_counter()
    p = 0
    while (p < passes) if passes is not None else (p == 0 or time.perf_counter() - start < seconds):
        items = workload.make_pass(seed, p)
        log.ref_s.append(reference_s())
        for cache in OUTAGE_CACHES:
            cache.cache_clear()
        digest = hashlib.sha256()
        busy = 0.0
        for item in items:
            elapsed, wall, failure, lines = run_item(workload, item, tracer)
            log.item_s.append(elapsed)
            log.item_wall_s.append(wall)
            busy += elapsed
            if failure:
                log.failures[failure] += 1
            for line in lines:
                digest.update(line.encode() + b"\n")
        for cache in OUTAGE_CACHES:
            info = cache.cache_info()
            log.cache_hits += info.hits
            log.cache_misses += info.misses
        log.digests.append(digest.hexdigest()[:16])
        log.pass_rates.append(len(items) / busy)
        p += 1
    return log


def end_to_end(log: PassLog, setup_s: list[float], peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    """Throughput is the median over passes, each pass having the same input
    mix, so one slow pass (a rare heavy item, a noisy neighbour) moves it
    little; latency quantiles pool every item of the run.  Both are CPU
    time scaled to the reference host; set-up is wall time."""
    scale = REF_NOMINAL_S / statistics.median(log.ref_s)
    ms = [1e3 * scale * s for s in log.item_s]
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    return {
        "items_per_ref_s": (statistics.median(log.pass_rates) / scale, "1/s"),
        "item_ref_ms_p50": (deciles[4], "ms"),
        "item_ref_ms_p90": (deciles[8], "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced(workload: Workload, seed: int, seconds: float):
    """Untraced passes for half the time, then the same passes traced.

    Returns (untraced log, traced log, tracer, per-layer metrics).  Counts
    and times are per item, so they compare across runs that complete a
    different number of passes.
    """
    plain = run_passes(workload, seed, seconds=seconds / 2)
    with Tracer() as tracer:
        log = run_passes(workload, seed, passes=len(plain.digests), tracer=tracer)
    items = log.attempted
    totals = tracer.layer_totals()
    c = tracer.counters
    lookups = log.cache_hits + log.cache_misses
    untraced_s = sum(plain.item_s) / items
    traced_s = sum(log.item_s) / items
    metrics: dict[str, tuple[float, str]] = {}
    for name in TARGETS:
        row = totals[name]
        metrics[f"{name}.calls"] = (row["calls"] / items, "count/item")
        metrics[f"{name}.self_s"] = (row["self_s"] / items, "s/item")
        metrics[f"{name}.total_s"] = (row["total_s"] / items, "s/item")
    metrics.update({
        "transform.transform.auto_calls": (c["auto_transforms"] / items, "count/item"),
        "transform.transform.lll_fallback_frac": (c["lll_fallbacks"] / max(1, c["auto_transforms"]), "ratio"),
        "transform.pseudo_triangularize.perms_tried": (c["perms_tried"] / items, "count/item"),
        "transform.pseudo_triangularize.orders_per_perm": (c["orders_returned"] / max(1, c["perms_tried"]), "ratio"),
        "outage.set_cache.lookups": (lookups / items, "count/item"),
        "outage.set_cache.hit_frac": (log.cache_hits / max(1, lookups), "ratio"),
        "harness.untraced_s": (untraced_s, "s/item"),
        "harness.traced_s": (traced_s, "s/item"),
        "harness.trace_overhead_s": (traced_s - untraced_s, "s/item"),
        "harness.wall_per_cpu": (sum(plain.item_wall_s) / sum(plain.item_s), "ratio"),
        "harness.reference_ms": (1e3 * statistics.median(plain.ref_s), "ms"),
    })
    return plain, log, tracer, metrics
