"""The warm in-process loop and the operations it times.

A verdict operation is `corpus.run_assertion`, what `qdirac check` runs per
assertion; a normalize operation maps expression text to what
`qdirac normalize --trace` computes.  Each goes only through the program's
public entry points, looked up on their modules at call time, so that the
spans `tracing.py` installs see them.
"""

from __future__ import annotations

import time

from qdirac import corpus, parser, rewrite
from qdirac.errors import QDiracError

# Every kind but EQ is checked with the oracle on, so that qubit_sweep's one
# MIXEQ gives the oracle and quantum modules some work (see workloads.py).
_ORACLE_ON = corpus.RunConfig(oracle=True)


def run_check(a, defs, cfg):
    """What `qdirac check` does per assertion: parse, normalize, compare, oracle."""
    res = corpus.run_assertion(a, defs, cfg if a.kind == "EQ" else _ORACLE_ON)
    return res.verdict, res


def normalize_traced(src):
    """The traced normal form of src and both renderings `normalize --trace` prints."""
    t = parser.parse(src)
    trace = rewrite.RewriteTrace()
    nf = rewrite.Rewriter(trace=trace).normalize(t)
    return t, nf, trace, rewrite.render_nf(nf), trace.as_lines()


class Loop:
    """Whole rounds of the workload's verdicts, then its traced normalizations.

    Operations are timed with `clock` (a `SpeedClock`).  Only the first
    output of each input is kept for the checks; later ones are compared
    with it.  With a tracer, every timed operation is a root span.
    """

    def __init__(self, w, cfg, clock):
        self.w, self.cfg, self.clock = w, cfg, clock
        self.tracer = None
        self.verdict_ms: list[float] = []
        self.normalize_ms: list[float] = []
        self.verdict_s = self.normalize_s = 0.0
        self.rounds = self.attempted = self.failed = self.oracle_skipped = 0
        self.verdicts: dict = {}      # (file, name) -> (verdict, payload)
        self.normals: dict = {}       # src -> normalize_traced(src), first seen
        self.problems: list[str] = []

    def _call(self, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.operation(name, fn, *args)

    def run_files(self, files, record: bool):
        start = self.clock.mark()
        for fname, text in files:
            parsed = self._call("op.file", corpus.parse_corpus, text)
            defs = self._call("op.file", corpus.build_defs, parsed.defs)
            for a in parsed.assertions:
                t0 = self.clock.mark()
                verdict, payload = self._call("op.verdict", run_check, a, defs, self.cfg)
                ms = self.clock.elapsed(t0) * 1000
                if not record:
                    continue
                self.verdict_ms.append(ms)
                self.attempted += 1
                self.failed += verdict == "error"
                self.oracle_skipped += getattr(payload, "oracle_note", "").startswith("skipped")
                first = self.verdicts.setdefault((fname, a.name), (verdict, payload))
                if first[0] != verdict:
                    self.problems.append(f"{fname}:{a.name}: {verdict} after {first[0]}")
        if record:
            self.verdict_s += self.clock.elapsed(start)

    def run_exprs(self, exprs, record: bool):
        start = self.clock.mark()
        for src in exprs:
            t0 = self.clock.mark()
            try:
                out = self._call("op.normalize", normalize_traced, src)
            except QDiracError as exc:
                out = exc
            ms = self.clock.elapsed(t0) * 1000
            if not record:
                continue
            self.normalize_ms.append(ms)
            self.attempted += 1
            if isinstance(out, QDiracError):
                self.failed += 1
                if self.rounds == 0:
                    print(f"failed: normalize {src!r}: {type(out).__name__}: {out}")
            elif self.normals.setdefault(src, out)[1] != out[1]:
                self.problems.append(f"normalize {src!r}: normal form changed")
        if record:
            self.normalize_s += self.clock.elapsed(start)

    def warm_up(self):
        """One untimed pass so that lazy set-up and caches do not land in round one."""
        self.run_files(self.w.warm_files, record=False)
        self.run_exprs(self.w.warm_exprs, record=False)

    def run(self, seconds: float, tracer=None):
        """Whole rounds within `seconds`: at least one, and another only
        while the longest round so far would still end in time."""
        self.tracer = tracer
        longest = 0.0
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self.run_files(self.w.files, record=True)
            self.run_exprs(self.w.exprs, record=True)
            self.rounds += 1
            now = time.perf_counter()
            longest = max(longest, now - t0)
            if now - start + longest > seconds:
                return
