"""Line-oriented assertion files and the runner that checks them.

File format, one statement per line:

    # comment
    DEF name = <term expression>
    HYP norm(a,b)
    NAME: KIND <lhs> == <rhs>

KIND is EQ (normal-form equality), MATEQ (numeric matrix equivalence),
OBS (equality up to one constant global phase) or MIXEQ (mixed-state
equality).  DEF names are usable in later lines; HYP declares a normalization
constraint |a|^2 + |b|^2 = 1 applied to every later assertion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import FuelExhausted, ParseError, QDiracError, show_dim
from .normal_form import NormalForm
from .oracle import (
    DEFAULT_SAMPLES, DEFAULT_SEED, DEFAULT_TOL, DENSE_DIM_LIMIT,
    mat_equiv, obs_equiv,
)
from .parser import Parser
from .quantum import MixedState, Pure, eval_mix, mix_equal, sym_mix_difference
from .rewrite import Rewriter, render_nf
from .scalar import Scalar
from .term import Term, render_head, render_scaled

KINDS = ("EQ", "MATEQ", "OBS", "MIXEQ")
# what a RecursionError from the recursive parser or rewriter is reported as
NESTED_TOO_DEEPLY = "input nested too deeply (Python recursion limit)"


@dataclass
class Assertion:
    name: str
    kind: str
    lhs: str
    rhs: str
    hypotheses: tuple[tuple[str, str], ...]
    line: int


@dataclass
class CorpusFile:
    defs: list[tuple[str, str]]          # (name, source), in file order
    assertions: list[Assertion]


def parse_corpus(text: str) -> CorpusFile:
    defs: list[tuple[str, str]] = []
    assertions: list[Assertion] = []
    hyps: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        # '#' is the tensor operator, so comments are whole-line only
        if not line or line.startswith("#"):
            continue
        if line.startswith("DEF "):
            body = line[4:]
            if "=" not in body:
                raise ParseError("DEF needs 'name = expr'", lineno, 1)
            name, src = body.split("=", 1)
            defs.append((name.strip(), src.strip()))
            continue
        if line.startswith("HYP "):
            body = line[4:].strip()
            if not (body.startswith("norm(") and body.endswith(")")):
                raise ParseError("HYP needs norm(a,b)", lineno, 1)
            names = [n.strip() for n in body[5:-1].split(",")]
            if len(names) != 2:
                raise ParseError("norm takes two atom names", lineno, 1)
            hyps.append((names[0], names[1]))
            continue
        if ":" not in line:
            raise ParseError(f"unrecognized corpus line: {line!r}", lineno, 1)
        name, rest = line.split(":", 1)
        parts = rest.strip().split(None, 1)
        if len(parts) != 2 or parts[0] not in KINDS:
            raise ParseError(f"expected 'NAME: KIND lhs == rhs': {line!r}", lineno, 1)
        kind, body = parts
        if "==" not in body:
            raise ParseError("assertion needs '=='", lineno, 1)
        lhs, rhs = body.split("==", 1)
        name = name.strip()
        if name in seen:
            raise ParseError(f"duplicate assertion name {name!r}", lineno, 1)
        seen.add(name)
        assertions.append(
            Assertion(name, kind, lhs.strip(), rhs.strip(), tuple(hyps), lineno)
        )
    return CorpusFile(defs, assertions)


# A ket literal inside a DEF expands immediately, so defs are plain Terms.
def build_defs(defs: list[tuple[str, str]]) -> dict[str, Term]:
    env: dict[str, Term] = {}
    for name, src in defs:
        env[name] = Parser(src, env).parse_term()
    return env


@dataclass
class RunConfig:
    tol: float = DEFAULT_TOL
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    oracle: bool = True


@dataclass
class AssertionResult:
    name: str
    kind: str
    verdict: str                      # pass | fail | error
    ms_symbolic: float = 0.0
    ms_oracle: float = 0.0
    steps: int = 0
    witness: str = ""
    oracle_note: str = ""

    def as_json_dict(self, timings: bool) -> dict:
        out = {
            "name": self.name,
            "kind": self.kind,
            "verdict": self.verdict,
            "steps": self.steps,
        }
        if self.witness:
            out["witness"] = self.witness
        if self.oracle_note:
            out["oracle"] = self.oracle_note
        if timings:
            out["ms_symbolic"] = round(self.ms_symbolic, 3)
            out["ms_oracle"] = round(self.ms_oracle, 3)
        return out


@dataclass
class RunReport:
    path: str
    results: list[AssertionResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.verdict == "pass" for r in self.results)

    def counts(self) -> tuple[int, int, int]:
        p = sum(1 for r in self.results if r.verdict == "pass")
        f = sum(1 for r in self.results if r.verdict == "fail")
        e = sum(1 for r in self.results if r.verdict == "error")
        return p, f, e


def _sym_obs_equal(a: NormalForm, b: NormalForm) -> bool:
    """b == c * a for one constant c with c * c^* == 1, decided exactly on
    the pairs of scalars NormalForm.proportional walks; no flat sum is built."""
    def ratio_test(sa: Scalar, sb: Scalar):
        # a constant keeps every monomial, so it is the ratio of leading coefficients
        (_, ca), (_, cb) = sa.terms[0], sb.terms[0]
        c = Scalar.from_coeff(cb * ca.inverse())
        return (lambda x, y: y == c * x) if (c * c.conj()).is_one() else None

    return a.proportional(b, ratio_test)


def _basis_text(rbits: tuple[int, ...], cbits: tuple[int, ...]) -> str:
    """The basis matrix |rbits><cbits| as a ket, a bra, their product, or 1."""
    ket = f"|{','.join(map(str, rbits))}>" if rbits else ""
    bra = f"<{','.join(map(str, cbits))}|" if cbits else ""
    return ket + bra or "1"


def _nf_difference(a: NormalForm, b: NormalForm) -> str:
    """Where the unequal a and b differ: their dims if those do, else the
    first basis key whose scalars differ (NormalForm.first_difference), or,
    past the fuel of that walk, only that they differ further on."""
    if a.dims != b.dims:
        return f"normal forms differ in dims: {show_dim(a.dims)} vs {show_dim(b.dims)}"
    try:
        key, sa, sb = a.first_difference(b)
    except FuelExhausted as exc:
        return f"normal forms differ past the first {exc.budget} summands walked"
    return f"normal forms differ at {_basis_text(*key)}: {sa} vs {sb}"


def _branch_text(m: MixedState, i: int, state: Pure | NormalForm | None) -> str:
    """Branch i of m as `[p : op]`, op cut to 120 characters: a pure branch
    whose vector's normal form is known (state, as compared, or kept) as
    c .* density of it, any other branch as written."""
    if i >= len(m.branches):
        return f"no branch {i} (of {len(m.branches)})"
    p, op = m.branches[i]
    kept = state if isinstance(state, Pure) else m.nfs[i]
    if kept is None or kept.nf is None:
        return f"[{p} : {render_head(op, 120)}]"
    text = f"density({render_nf(kept.nf)})"
    text = text if kept.c.is_one() else render_scaled(kept.c, text)
    return f"[{p} : {text if len(text) <= 120 else text[:117] + '...'}]"


def _compared_difference(x: Pure | NormalForm | None, y: Pure | NormalForm | None) -> str:
    """Where a branch's compared states differ: two operators' normal forms
    as an EQ's witness says, two pure states at the first block of their
    vectors that differs, `, block j: u vs v`, compared only while both
    sides' blocks span the same qubits, or at the first block whose spans
    differ, `, block j: 1 qubit vs 20 qubits`; empty if nothing is known."""
    if isinstance(x, NormalForm):
        return f", {_nf_difference(x, y)}"
    if x is None or x.nf.is_zero() or y.nf.is_zero():
        return ""
    for j, (u, v) in enumerate(zip(x.nf.factors(), y.nf.factors())):
        wu, wv = (max(f.dims).bit_length() - 1 for f in (u, v))
        if wu != wv:
            return f", block {j}: {wu} qubit{'s' * (wu > 1)} vs {wv} qubit{'s' * (wv > 1)}"
        if u != v:
            return f", block {j}: {render_nf(u)} vs {render_nf(v)}"
    return ""


def run_assertion(a: Assertion, defs: dict[str, Term], cfg: RunConfig) -> AssertionResult:
    res = AssertionResult(a.name, a.kind, "error")
    rewriter = Rewriter()
    try:
        t0 = time.perf_counter()
        if a.kind == "MIXEQ":
            lhs = eval_mix(Parser(a.lhs, defs).parse_mixed(), a.hypotheses, rewriter)
            rhs = eval_mix(Parser(a.rhs, defs).parse_mixed(), a.hypotheses, rewriter)
            diff = sym_mix_difference(lhs, rhs, a.hypotheses, rewriter)
            sym_ok = diff is None
            if not sym_ok:
                i, x, y = diff
                res.witness = (f"mixed states differ at branch {i}: {_branch_text(lhs, i, x)}"
                               f" vs {_branch_text(rhs, i, y)}{_compared_difference(x, y)}")
        else:
            lhs = Parser(a.lhs, defs).parse_term()
            rhs = Parser(a.rhs, defs).parse_term()
            nf_l = rewriter.normalize(lhs).apply_norm_hypothesis(a.hypotheses)
            nf_r = rewriter.normalize(rhs).apply_norm_hypothesis(a.hypotheses)
            if a.kind == "OBS":
                sym_ok = _sym_obs_equal(nf_l, nf_r)
                if not sym_ok:
                    res.witness = f"normal forms differ: {render_nf(nf_l)} vs {render_nf(nf_r)}"
            else:
                sym_ok = nf_l == nf_r
                if not sym_ok:
                    res.witness = _nf_difference(nf_l, nf_r)
        res.ms_symbolic = (time.perf_counter() - t0) * 1000
        res.steps = rewriter.steps

        oracle_ok = True
        # sides of unequal dims are a symbolic fail the oracle cannot check
        if cfg.oracle and (a.kind == "MIXEQ" or lhs.dims == rhs.dims):
            t1 = time.perf_counter()
            dim = max(*lhs.dims, *rhs.dims)
            if dim > DENSE_DIM_LIMIT:
                res.oracle_note = f"skipped (dim {dim})"
            else:
                opts = dict(samples=cfg.samples, tol=cfg.tol, seed=cfg.seed,
                            norm_pairs=a.hypotheses)
                try:
                    if a.kind == "OBS":
                        obs = obs_equiv(lhs, rhs, **opts)
                        oracle_ok, refutation = obs.equivalent, str(obs)
                    elif a.kind == "MIXEQ":
                        oracle_ok = mix_equal(lhs, rhs, **opts)
                        refutation = "oracle refutes mixed-state equality"
                    else:
                        oracle_ok = mat_equiv(lhs, rhs, **opts)
                        refutation = "oracle refutes matrix equality"
                except OverflowError:  # a constant past float range
                    res.oracle_note = "skipped (a value past float range)"
                else:
                    if oracle_ok != sym_ok:  # reported either way; the verdict stays their conjunction
                        res.oracle_note = "disagrees"
                if not oracle_ok and not res.witness:
                    res.witness = refutation
            res.ms_oracle = (time.perf_counter() - t1) * 1000

        res.verdict = "pass" if (sym_ok and oracle_ok) else "fail"
    except QDiracError as exc:
        res.verdict = "error"
        res.steps = rewriter.steps
        res.witness = f"{type(exc).__name__}: {exc}"
    except RecursionError:
        res.verdict = "error"
        res.witness = f"RecursionError: {NESTED_TOO_DEEPLY}"
    return res


def run_file(path: str, cfg: RunConfig | None = None) -> RunReport:
    cfg = cfg or RunConfig()
    with open(path, encoding="utf-8") as fh:
        corpus = parse_corpus(fh.read())
    defs = build_defs(corpus.defs)
    report = RunReport(path)
    for a in corpus.assertions:
        report.results.append(run_assertion(a, defs, cfg))
    return report
