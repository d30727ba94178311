"""Spans around calls into pmdm's public functions, recorded from outside.

A traced run replaces module attributes (``pmdm.exact.heaviest_k_section``
and the like) with wrappers that record a span per call: its name, start,
end, and the span that was open when it started.  Spans stay in memory; ``summary`` turns them into per-name call
counts, inclusive time and self time (duration minus the time covered by
direct child spans).  Untraced runs never install a wrapper.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # one list per span: [name, start_ns, end_ns, parent, payload]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._stack.append(index)
        return index

    def end(self, index: int, payload=None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        span[4] = payload
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, measure=None) -> None:
        """Record a ``name`` span around every call of ``module.attr``.

        ``measure(result)`` becomes the span's payload (a count or a flag).
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.begin(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self.end(index, measure(result) if measure and result is not None else None)

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self nanoseconds, payloads,
        and how many calls each parent span name made."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0, "payloads": [], "parents": defaultdict(int)}
        )
        for i, (name, start, end, parent, payload) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["incl_ns"] += end - start
            row["self_ns"] += end - start - child_ns[i]
            if payload is not None:
                row["payloads"].append(payload)
            row["parents"][self.spans[parent][0] if parent >= 0 else None] += 1
        return out


def install(tracer: Tracer, pmdm) -> None:
    """Wrap every public function whose calls the per-layer metrics report.

    Functions imported by name into another module are separate bindings,
    so each is wrapped where its caller looks it up.
    """
    for module in (pmdm.hypergraph, pmdm.exact, pmdm.index):
        tracer.wrap(module, "mismatch_masks", "core.mismatch_masks")
    tracer.wrap(pmdm.heuristic, "count_matches", "core.count_matches")
    for module in (pmdm.exact, pmdm.heuristic):
        tracer.wrap(module, "build_hypergraph", "hypergraph.build", lambda h: len(h.edges))
        tracer.wrap(module, "heaviest_k_section", "hypergraph.section")
    tracer.wrap(pmdm.hypergraph, "heaviest_k_section_branching", "hypergraph.branching")
    tracer.wrap(pmdm.hypergraph, "heaviest_k_section_bruteforce", "hypergraph.bruteforce")
    tracer.wrap(pmdm.hypergraph, "heaviest_2_section", "hypergraph.k2")
    tracer.wrap(pmdm.hypergraph, "heaviest_3_section", "hypergraph.k3")
    tracer.wrap(pmdm.exact, "solve_pmdm", "exact.solve")
    tracer.wrap(pmdm.exact, "solve_mpmdm", "exact.multi")
    # solve_khv returns None when no selection exists; only hits get a payload
    tracer.wrap(pmdm.exact, "solve_khv", "exact.khv", lambda chosen: 1)
    tracer.wrap(pmdm.heuristic, "greedy_pmdm", "heuristic.greedy", lambda r: r.iterations)
    tracer.wrap(pmdm.heuristic, "baseline_pmdm", "heuristic.baseline", lambda r: r.iterations)
    tracer.wrap(pmdm.heuristic, "preprocess", "heuristic.preprocess", lambda r: len(r[1]))
    tracer.wrap(pmdm.index, "small_ell_build", "index.small_ell_build")
    tracer.wrap(pmdm.index, "small_ell_query", "index.small_ell_query")
