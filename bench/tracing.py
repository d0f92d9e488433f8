"""Per-layer spans recorded from outside the library.

Entering a ``Tracer`` wraps each public function named in ``TARGETS`` and
rebinds every ``cfrates`` module global that refers to it, so calls made
inside the library (``lattice.lll_reduce`` inside ``successive_minima``,
``transform.exact_solve_in_span`` inside ``_solve_row``) are seen as well as
calls from the benchmark.  Methods are replaced on their class; leaving the
``with`` block puts every original back.  Spans are
kept in memory as (name id, parent span, start, end) and turned into
per-function call counts, self time and total time at the end.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
import time

TARGETS = (
    "symmetric_ic.report",
    "transform.transform",
    "transform.sum_rate_bounds",
    "transform.pseudo_triangularize",
    "transform.mod_p_lift",
    "transform.rate_allocation",
    "lattice.successive_minima",
    "lattice.lll_reduce",
    "rates.comp_rate",
    "linalg.gram_plain",
    "linalg.gram_effective",
    "linalg.cholesky",
    "linalg.exact_rank",
    "linalg.exact_solve_in_span",
    "linalg.RationalSpan.try_add",
    "linalg.RationalMatrix.matmul",
    "linalg.sylvester_logdet",
    "outage.in_outage",
    "outage.strong_outage_set",
    "outage.weak_outage_set",
)

ITEM = "harness.item"


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name == "cfrates" or name.startswith("cfrates.")]


class Tracer:
    """Span recorder for one traced run; use as a context manager."""

    def __init__(self):
        self.names: list[str] = [ITEM]
        self.spans: list[tuple[int, int, float, float] | None] = []
        self.stack: list[int] = []
        self.counters = {"auto_transforms": 0, "lll_fallbacks": 0, "perms_tried": 0, "orders_returned": 0}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def span(self, name_id: int, fn, args, kwargs):
        spans, stack = self.spans, self.stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name_id, parent, start, end)

    def item(self, fn, arg):
        return self.span(0, fn, (arg,), {})

    def _observe(self, name: str, args, kwargs, result) -> None:
        if name == "transform.transform":
            method = kwargs.get("method", args[1] if len(args) > 1 else "auto")
            if method == "auto":
                self.counters["auto_transforms"] += 1
                self.counters["lll_fallbacks"] += result.method == "lll"
        elif name == "transform.pseudo_triangularize":
            k = len(args[0])
            limit = kwargs.get("enumerate_limit", args[1] if len(args) > 1 else 8)
            self.counters["perms_tried"] += math.factorial(k) if k <= limit else 1
            self.counters["orders_returned"] += len(result)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        observe = name in ("transform.transform", "transform.pseudo_triangularize")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name_id, fn, args, kwargs)
            if observe:
                self._observe(name, args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = _package_modules()
        for target in TARGETS:
            mod_name, _, attr = target.partition(".")
            module = sys.modules[f"cfrates.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(target, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(target, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, self_s and total_s per traced name (ITEM included)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name_id, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for idx, (name_id, parent, start, end) in enumerate(spans):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[idx]
        return out

    def write_spans(self, path) -> None:
        """Spans as gzip CSV: id, parent, name, start_s, end_s."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for idx, (name_id, parent, start, end) in enumerate(self.spans):
                fh.write(f"{idx},{parent},{self.names[name_id]},{start:.9f},{end:.9f}\n")
