"""Spans around calls into the program's modules, recorded from outside it.

`Tracer.install()` replaces public functions of qdirac's modules with
wrappers that record a span per call: its name, start, end, the span open
when it began, and the id of the benchmark operation it belongs to.  A
module's busy time is the sum of its spans' self time, which is a span's
duration minus the time its child spans cover.  `Scalar` arithmetic runs
millions of times per round, so it is counted and timed in aggregate
instead of as spans, and its time is taken out of the enclosing span's
self time like a child's.

Spans stay in memory and are written out by `write()` at the end.  Nothing
is wrapped unless `install()` runs, so untraced runs time the program
exactly as it ships.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

from qdirac import corpus, oracle, parser, quantum, rewrite, term
from qdirac.scalar import Scalar

# (module, attribute, span name) for every wrapped function.  A function
# imported by name into another module is wrapped there as well.
_FUNCTIONS = [
    (parser.Parser, "parse_term", "parser"),
    (parser.Parser, "parse_mixed", "parser"),
    (corpus, "parse_corpus", "parser"),
    (corpus, "build_defs", "parser"),
    (rewrite, "render_nf", "render"),
    (corpus, "render_nf", "render"),
    (rewrite.RewriteTrace, "as_lines", "render"),
    (oracle, "mat_equiv", "oracle"),
    (oracle, "obs_equiv", "oracle"),
    (corpus, "mat_equiv", "oracle"),
    (corpus, "obs_equiv", "oracle"),
    (quantum, "mat_equiv", "oracle"),
    (quantum, "mix_equal", "quantum"),
    (corpus, "mix_equal", "quantum"),
    (quantum, "mea_mix", "quantum"),
    (quantum, "unit_mix", "quantum"),
]
_SCALAR_OPS = ("__add__", "__mul__", "conj", "reciprocal")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []      # (op, name, start, end, parent)
        self.busy: Counter = Counter()    # span name -> self time (s)
        self.counts: Counter = Counter()
        self.scalar_s = 0.0
        self.op = 0
        self._open: list[int] = []        # indices of open spans
        self._covered: list[float] = []   # child time inside each open span
        self._saved: list[tuple] = []

    # -- spans
    def begin(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append(idx)
        self._covered.append(0.0)
        return idx

    def end(self, idx: int, name: str, start: float) -> None:
        stop = perf_counter()
        self._open.pop()
        covered = self._covered.pop()
        parent = self._open[-1] if self._open else -1
        self.spans[idx] = (self.op, name, start, stop, parent)
        self.busy[name] += stop - start - covered
        if self._covered:
            self._covered[-1] += stop - start

    def operation(self, name: str, fn, *args):
        """Run one benchmark operation as a root span with a fresh id."""
        self.op += 1
        return self._call(name, fn, args, {})

    def _call(self, name, fn, args, kwargs):
        idx = self.begin()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx, name, start)

    # -- installation
    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name):
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return self._call(name, fn, args, kwargs)
        return wrapper

    def _normalize_wrapper(self, fn):
        def normalize(rw, t):
            traced = rw.trace is not None
            name = "rewrite.traced" if traced else "rewrite.sparse"
            steps = len(rw.trace.steps) if traced else rw.steps
            try:
                nf = self._call(name, fn, (rw, t), {})
            finally:
                if traced:
                    self.counts["rewrite.trace_steps"] += len(rw.trace.steps) - steps
                else:
                    self.counts["rewrite.sparse_steps"] += rw.steps - steps
            self.counts["rewrite.nf_summands"] += len(nf.summands)
            return nf
        return normalize

    def _scalar_wrapper(self, fn):
        def op(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                spent = perf_counter() - start
                self.scalar_s += spent
                self.counts["scalar.ops"] += 1
                if self._covered:
                    self._covered[-1] += spent
        return op

    def install(self) -> None:
        for owner, attr, name in _FUNCTIONS:
            self._patch(owner, attr, self._span_wrapper(owner.__dict__[attr], name))
        self._patch(rewrite.Rewriter, "normalize",
                    self._normalize_wrapper(rewrite.Rewriter.normalize))
        for attr in _SCALAR_OPS:
            self._patch(Scalar, attr, self._scalar_wrapper(Scalar.__dict__[attr]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results
    def per_layer(self, rounds: int, oracle_skipped: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per timed round."""
        busy, counts = self.busy, self.counts

        def per_round(x):
            return x / rounds if isinstance(x, float) or x % rounds else x // rounds

        return {
            "parser.busy_s": (per_round(busy["parser"]), "s"),
            "parser.calls": (per_round(counts["parser.calls"]), "count"),
            "rewrite.sparse_busy_s": (per_round(busy["rewrite.sparse"]), "s"),
            "rewrite.sparse_steps": (per_round(counts["rewrite.sparse_steps"]), "count"),
            "rewrite.traced_busy_s": (per_round(busy["rewrite.traced"]), "s"),
            "rewrite.trace_steps": (per_round(counts["rewrite.trace_steps"]), "count"),
            "rewrite.nf_summands": (per_round(counts["rewrite.nf_summands"]), "count"),
            "render.busy_s": (per_round(busy["render"]), "s"),
            "oracle.busy_s": (per_round(busy["oracle"]), "s"),
            "oracle.calls": (per_round(counts["oracle.calls"]), "count"),
            "oracle.skipped": (per_round(oracle_skipped), "count"),
            "quantum.busy_s": (per_round(busy["quantum"]), "s"),
            "scalar.busy_s": (per_round(self.scalar_s), "s"),
            "scalar.ops": (per_round(counts["scalar.ops"]), "count"),
            "term.interned": (len(term._intern), "count"),
        }

    def self_times(self) -> dict[str, float]:
        out = dict(self.busy)
        out["scalar"] = self.scalar_s
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (op, name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "op": op, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
