"""Benchmark harness: symbolic normalization vs dense-matrix evaluation.

Each case is named by the stem of a shipped corpus file.  Both paths take
the same term-level assertions (mixed-state lines are excluded, since
checking them is meaningful only through the symbolic engine): the symbolic
path normalizes both sides, and the dense path is the explicit computation,
`eval_dense` of both sides under each sampled binding.  The reported number
is the median total wall time over a number of repeats.  Dense evaluation is
skipped with an explicit marker once the matrices exceed the dimension
threshold.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from .corpus import build_defs, parse_corpus
from .errors import UnknownCase
from .oracle import DENSE_DIM_LIMIT, envs_for, eval_dense
from .parser import Parser
from .rewrite import Rewriter
from .term import Term


def corpus_dir() -> Path:
    return Path(__file__).resolve().parent.parent.parent / "corpus"


CASES = sorted(path.stem for path in corpus_dir().glob("*.qd"))


@dataclass
class BenchRow:
    case: str
    ms_symbolic: float
    ms_dense: float | None
    dense_note: str = ""

    def dense_cell(self) -> str:
        if self.ms_dense is None:
            return self.dense_note
        return f"{self.ms_dense:.1f}"


@dataclass
class CaseData:
    kind: str
    lhs: Term
    rhs: Term
    hyps: tuple[tuple[str, str], ...]


def load_case(name: str) -> list[CaseData]:
    if name not in CASES:
        raise UnknownCase(f"unknown benchmark case {name!r} "
                          f"(known: {', '.join(CASES)})")
    path = corpus_dir() / f"{name}.qd"
    corpus = parse_corpus(path.read_text(encoding="utf-8"))
    defs = build_defs(corpus.defs)
    out = []
    for a in corpus.assertions:
        if a.kind == "MIXEQ":
            continue
        lhs = Parser(a.lhs, defs).parse_term()
        rhs = Parser(a.rhs, defs).parse_term()
        out.append(CaseData(a.kind, lhs, rhs, a.hypotheses))
    return out


def _run_symbolic(data: list[CaseData]) -> None:
    rw = Rewriter()
    for d in data:
        rw.normalize(d.lhs)
        rw.normalize(d.rhs)


def _run_dense(data: list[CaseData], seed: int) -> None:
    """The explicit computation: both sides' full matrices under each binding."""
    for d in data:
        for env in envs_for((d.lhs, d.rhs), None, seed, d.hyps):
            eval_dense(d.lhs, env)
            eval_dense(d.rhs, env)


def bench_case(name: str, repeat: int = 5, seed: int = 42) -> BenchRow:
    data = load_case(name)
    sym_times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        _run_symbolic(data)
        sym_times.append((time.perf_counter() - t0) * 1000)
    max_dim = max(
        (max(d.lhs.rows, d.lhs.cols, d.rhs.rows, d.rhs.cols) for d in data), default=0
    )
    if max_dim > DENSE_DIM_LIMIT:
        return BenchRow(name, statistics.median(sym_times), None,
                        f"skipped (dim {max_dim})")
    dense_times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        _run_dense(data, seed)
        dense_times.append((time.perf_counter() - t0) * 1000)
    return BenchRow(name, statistics.median(sym_times), statistics.median(dense_times))


def render_table(rows: list[BenchRow]) -> str:
    names = ["approach"] + [r.case for r in rows]
    sym = ["symbolic (ms)"] + [f"{r.ms_symbolic:.1f}" for r in rows]
    dense = ["dense (ms)"] + [r.dense_cell() for r in rows]
    widths = [max(len(a), len(b), len(c)) for a, b, c in zip(names, sym, dense)]
    lines = []
    for cells in (names, sym, dense):
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
    return "\n".join(lines)
