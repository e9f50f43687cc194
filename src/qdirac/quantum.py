"""Density matrices, super-operators, mixed states and measurement."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from .errors import (
    DimMismatch, NonInvertibleScalar, NotAnOperator, NotAVector, PatternMismatch, show_dim,
)
from .oracle import DEFAULT_SEED, DEFAULT_TOL, mat_equiv
from .rewrite import NormalForm, Rewriter
from .scalar import Scalar
from .term import Term, dag, mea, mul, render, scale

NormPairs = tuple[tuple[str, str], ...]


def density(psi: Term) -> Term:
    if psi.cols != 1:
        raise NotAVector(f"density needs a column vector, got dims {show_dim(psi.dims)}")
    return mul(psi, dag(psi))


def super_(m: Term, rho: Term) -> Term:
    if rho.rows != rho.cols:
        raise DimMismatch((rho.rows, rho.rows), rho.dims, "super operand")
    if m.cols != rho.rows:
        raise DimMismatch((m.rows, rho.rows), rho.dims, "super operand")
    return mul(mul(m, rho), dag(m))


def super_reduce(m: Term, psi: Term, norm_pairs: NormPairs = (),
                 rewriter: Rewriter | None = None) -> NormalForm:
    """Normalize super(m, density(psi)) by reducing the vector side first."""
    if psi.cols != 1:
        raise PatternMismatch(
            f"super_reduce needs a density of a vector, got {show_dim(psi.dims)}")
    if m.cols != psi.rows:
        raise DimMismatch((m.rows, psi.rows), psi.dims, "super_reduce operand")
    rw = rewriter or Rewriter()
    v = rw.normalize(mul(m, psi)).to_term()
    return rw.normalize(mul(v, dag(v))).apply_norm_hypothesis(norm_pairs)


def probability(psi: Term, m_op: Term, norm_pairs: NormPairs = ()) -> Scalar:
    if psi.cols != 1:
        raise NotAVector(f"probability needs a state vector, got {show_dim(psi.dims)}")
    if m_op.rows != m_op.cols or m_op.cols != psi.rows:
        raise DimMismatch((psi.rows, psi.rows), m_op.dims, "measurement operator")
    expr = mul(dag(psi), mul(dag(m_op), mul(m_op, psi)))
    return Rewriter().normalize(expr).as_scalar().apply_norm_hypothesis(norm_pairs)


@dataclass(frozen=True)
class MixedState:
    """Ordered ensemble of (probability, operator) branches.

    Each operator is the branch as written: a leaf's (`[p : op]`, `mix1`) as
    parsed, and after unit_mix or mea_mix the super-operator or projection
    applied to the previous operator, unevaluated, which is what the oracle
    reads.  `nfs` keeps, per branch, the normal form the symbolic engine
    computed for it, hypotheses applied, or None for a leaf branch, which has
    none; the symbolic comparison reads those."""

    branches: tuple[tuple[Scalar, Term], ...]
    nfs: tuple[NormalForm | None, ...] = ()

    def __post_init__(self):
        dims = {op.dims for _, op in self.branches}
        if len(dims) > 1:
            raise DimMismatch(dims.pop(), dims.pop(), "mixed-state branches")
        for _, op in self.branches:
            if op.rows != op.cols:
                raise NotAnOperator(f"branch operator has dims {show_dim(op.dims)}")
        if not self.nfs:
            object.__setattr__(self, "nfs", (None,) * len(self.branches))
        elif len(self.nfs) != len(self.branches):
            raise ValueError("one normal form per branch")

    @property
    def dims(self) -> tuple[int, int]:
        return self.branches[0][1].dims if self.branches else (0, 0)

    def __str__(self):
        return " ; ".join(f"{p} : {render(op)}" for p, op in self.branches)


# A mixed-state expression as parsed: a MixedState leaf (`[...]`, `mix1`),
# ("meamix", n, k, inner) or ("unitmix", u, inner).
MixExpr = Union[MixedState, tuple]


def pure_mix(op: Term) -> MixedState:
    return MixedState(((Scalar.one(), op),))


def eval_mix(expr: MixExpr, norm_pairs: NormPairs = (),
             rewriter: Rewriter | None = None) -> MixedState:
    """Fold a parsed mixed-state expression with mea_mix and unit_mix, every
    stage on one Rewriter, so on one fuel budget and one memo."""
    if isinstance(expr, MixedState):
        return expr
    rw = rewriter or Rewriter()
    if expr[0] == "meamix":
        _, n, k, inner = expr
        return mea_mix(n, k, eval_mix(inner, norm_pairs, rw), norm_pairs=norm_pairs, rewriter=rw)
    _, u, inner = expr
    return unit_mix(u, eval_mix(inner, norm_pairs, rw), norm_pairs=norm_pairs, rewriter=rw)


def _stage_inputs(m: MixedState):
    """Per branch (p, the operator as written, the term the engine continues
    from: the kept normal form's, or a leaf's operator)."""
    for (p, op), nf in zip(m.branches, m.nfs):
        yield p, op, op if nf is None else nf.to_term()


def unit_mix(u: Term, m: MixedState, norm_pairs: NormPairs = (),
             rewriter: Rewriter | None = None) -> MixedState:
    rw = rewriter or Rewriter()
    branches, nfs = [], []
    for p, op, rho in _stage_inputs(m):
        nfs.append(rw.normalize(super_(u, rho)).apply_norm_hypothesis(norm_pairs))
        branches.append((p, super_(u, op)))
    return MixedState(tuple(branches), tuple(nfs))


def mea_mix(n: int, k: int, m: MixedState, norm_pairs: NormPairs = (),
            rewriter: Rewriter | None = None) -> MixedState:
    rw = rewriter or Rewriter()
    branches, nfs = [], []
    for p, op, rho in _stage_inputs(m):
        if op.rows != 2 ** (n + 1):
            raise DimMismatch((2 ** (n + 1), 2 ** (n + 1)), op.dims, "mea_mix branch")
        for proj_name in ("Mea0", "Mea1"):
            proj = mea(proj_name, n, k)
            # projective, so tr(M rho M) = tr(M rho)
            prob_nf = rw.normalize(mul(proj, rho)).apply_norm_hypothesis(norm_pairs)
            branch_p = prob_nf.trace().apply_norm_hypothesis(norm_pairs)
            if branch_p.is_zero():
                continue
            post_nf = rw.normalize(mul(proj, mul(rho, proj)))
            post_nf = post_nf.apply_norm_hypothesis(norm_pairs)
            post = mul(proj, mul(op, proj))
            try:
                inv = branch_p.reciprocal()
                post_nf = post_nf.map_scalars(lambda s: s * inv)
                post = scale(inv, post)
            except NonInvertibleScalar:
                pass  # symbolic trace: leave the branch unnormalized
            branches.append((p * branch_p, post))
            nfs.append(post_nf)
    return MixedState(tuple(branches), tuple(nfs))


def total_mass(m: MixedState, norm_pairs: NormPairs = ()) -> Scalar:
    total = Scalar.zero()
    for p, _ in m.branches:
        total = total + p
    return total.apply_norm_hypothesis(norm_pairs)


def mix_equal(a: MixedState, b: MixedState, samples=None, tol: float = DEFAULT_TOL,
              seed: int = DEFAULT_SEED, norm_pairs: NormPairs = ()) -> bool:
    """Ordered branchwise equality: exact probabilities, and the operators as
    written compared numerically, all under the same sampled bindings."""
    return _first_difference(a, b, norm_pairs, lambda i: True) is None and mat_equiv(
        [op for _, op in a.branches], [op for _, op in b.branches],
        samples=samples, tol=tol, seed=seed, norm_pairs=norm_pairs,
    )


def sym_mix_difference(a: MixedState, b: MixedState, norm_pairs: NormPairs = (),
                       rewriter: Rewriter | None = None) -> int | None:
    """Ordered branchwise comparison, operators compared by normal form: the
    kept one of a computed branch, a leaf's normalized here.  The index of the
    first branch that differs, or None if the states are equal."""
    rw = rewriter or Rewriter()

    def nf(m: MixedState, i: int) -> NormalForm:
        kept = m.nfs[i]
        if kept is None:
            kept = rw.normalize(m.branches[i][1])
        return kept.apply_norm_hypothesis(norm_pairs)

    return _first_difference(a, b, norm_pairs, lambda i: nf(a, i) == nf(b, i))


def _first_difference(a: MixedState, b: MixedState, norm_pairs: NormPairs,
                      ops_equal: Callable[[int], bool]) -> int | None:
    """Pair branches in order; paired branches need a zero probability
    difference under the hypotheses, equal dims and ops_equal(their index).
    The index of the first pair that fails, the shorter length if one state
    runs out first, or None."""
    for i, ((pa, oa), (pb, ob)) in enumerate(zip(a.branches, b.branches)):
        if not ((pa - pb).apply_norm_hypothesis(norm_pairs).is_zero()
                and oa.dims == ob.dims and ops_equal(i)):
            return i
    if len(a.branches) != len(b.branches):
        return min(len(a.branches), len(b.branches))
    return None
