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
from .term import Term, dag, mea, mul, render

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
    """Ordered ensemble of (probability, operator) branches."""

    branches: tuple[tuple[Scalar, Term], ...]

    def __post_init__(self):
        dims = {op.dims for _, op in self.branches}
        if len(dims) > 1:
            raise DimMismatch(dims.pop(), dims.pop(), "mixed-state branches")
        for _, op in self.branches:
            if op.rows != op.cols:
                raise NotAnOperator(f"branch operator has dims {show_dim(op.dims)}")

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


def eval_mix(expr: MixExpr, norm_pairs: NormPairs = ()) -> MixedState:
    """Fold a parsed mixed-state expression with mea_mix and unit_mix."""
    if isinstance(expr, MixedState):
        return expr
    if expr[0] == "meamix":
        _, n, k, inner = expr
        return mea_mix(n, k, eval_mix(inner, norm_pairs), norm_pairs=norm_pairs)
    _, u, inner = expr
    return unit_mix(u, eval_mix(inner, norm_pairs), norm_pairs=norm_pairs)


def unit_mix(u: Term, m: MixedState, norm_pairs: NormPairs = ()) -> MixedState:
    out = []
    for p, op in m.branches:
        nf = Rewriter().normalize(super_(u, op)).apply_norm_hypothesis(norm_pairs)
        out.append((p, nf.to_term()))
    return MixedState(tuple(out))


def mea_mix(n: int, k: int, m: MixedState, norm_pairs: NormPairs = ()) -> MixedState:
    out = []
    for p, rho in m.branches:
        if rho.rows != 2 ** (n + 1):
            raise DimMismatch((2 ** (n + 1), 2 ** (n + 1)), rho.dims, "mea_mix branch")
        for proj_name in ("Mea0", "Mea1"):
            proj = mea(proj_name, n, k)
            # projective, so tr(M rho M) = tr(M rho)
            prob_nf = Rewriter().normalize(mul(proj, rho)).apply_norm_hypothesis(norm_pairs)
            branch_p = prob_nf.trace().apply_norm_hypothesis(norm_pairs)
            if branch_p.is_zero():
                continue
            post_nf = Rewriter().normalize(mul(proj, mul(rho, proj)))
            post_nf = post_nf.apply_norm_hypothesis(norm_pairs)
            try:
                inv = branch_p.reciprocal()
                post_nf = post_nf.map_scalars(lambda s: s * inv)
            except NonInvertibleScalar:
                pass  # symbolic trace: leave the branch unnormalized
            out.append((p * branch_p, post_nf.to_term()))
    return MixedState(tuple(out))


def total_mass(m: MixedState, norm_pairs: NormPairs = ()) -> Scalar:
    total = Scalar.zero()
    for p, _ in m.branches:
        total = total + p
    return total.apply_norm_hypothesis(norm_pairs)


def mix_equal(a: MixedState, b: MixedState, samples=None, tol: float = DEFAULT_TOL,
              seed: int = DEFAULT_SEED, norm_pairs: NormPairs = ()) -> bool:
    """Ordered branchwise equality: exact probabilities, numeric operators."""
    return len(a.branches) == len(b.branches) and _first_difference(
        a, b, norm_pairs,
        lambda x, y: mat_equiv(x, y, samples=samples, tol=tol, seed=seed,
                               norm_pairs=norm_pairs),
    ) is None


def sym_mix_difference(a: MixedState, b: MixedState, norm_pairs: NormPairs = (),
                       rewriter: Rewriter | None = None) -> int | None:
    """Ordered branchwise comparison, operators compared by normal form: the
    index of the first branch that differs, or None if the states are equal."""
    rw = rewriter or Rewriter()

    def nf(t: Term) -> NormalForm:
        return rw.normalize(t).apply_norm_hypothesis(norm_pairs)

    return _first_difference(a, b, norm_pairs, lambda x, y: nf(x) == nf(y))


def _first_difference(a: MixedState, b: MixedState, norm_pairs: NormPairs,
                      ops_equal: Callable[[Term, Term], bool]) -> int | None:
    """Pair branches in order; paired branches need a zero probability
    difference under the hypotheses, equal dims and ops_equal.  The index of
    the first pair that fails, the shorter length if one state runs out
    first, or None."""
    for i, ((pa, oa), (pb, ob)) in enumerate(zip(a.branches, b.branches)):
        if not ((pa - pb).apply_norm_hypothesis(norm_pairs).is_zero()
                and oa.dims == ob.dims and ops_equal(oa, ob)):
            return i
    if len(a.branches) != len(b.branches):
        return min(len(a.branches), len(b.branches))
    return None
