"""Density matrices, super-operators, mixed states and measurement."""

from __future__ import annotations

from typing import Callable, NamedTuple, Union

from .errors import DimMismatch, NonInvertibleScalar, NotAnOperator, NotAVector, show_dim
from .normal_form import NormalForm
from .oracle import DEFAULT_SEED, DEFAULT_TOL, mat_equiv
from .rewrite import Rewriter
from .scalar import Scalar
from .term import MUL, Term, dag, mea, mul, render, scale

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


def probability(psi: Term, m_op: Term, rewriter: Rewriter | None = None) -> Scalar:
    """<psi| M^ M |psi>, the squared norm of M|psi>: the product of its
    normal form's block norms, so a factored vector costs its width.  Not
    reduced under the rewriter's hypotheses: its products may hold a*a^*."""
    if psi.cols != 1:
        raise NotAVector(f"probability needs a state vector, got {show_dim(psi.dims)}")
    if m_op.rows != m_op.cols or m_op.cols != psi.rows:
        raise DimMismatch((psi.rows, psi.rows), m_op.dims, "measurement operator")
    return (rewriter or Rewriter()).normalize(mul(m_op, psi)).norm_squared()


class Pure(NamedTuple):
    """A pure branch c.|psi><psi|: psi as written, and its normal form,
    once computed."""

    c: Scalar
    psi: Term
    nf: NormalForm | None = None


def _leaf_state(op: Term) -> Pure | None:
    """The pure state (1, psi) of a leaf operator written density(psi)."""
    if op.kind == MUL and op.children[0].cols == 1 and op.children[1] is dag(op.children[0]):
        return Pure(Scalar.one(), op.children[0])
    return None


class MixedState:
    """Ordered ensemble of (probability, operator) branches.

    Each operator is the branch as written, which the oracle reads: a leaf's
    (`[p : op]`, `mix1`) as parsed, else c .* (psi * psi^) for a pure branch
    and the super-operator or projection applied to the previous operator,
    unevaluated, for any other.  `nfs` keeps a Pure state for a branch whose
    leaf is written density(psi), kept pure by unitaries and projections,
    and None for any other branch: the symbolic comparison normalizes its
    written operator, whose earlier stages the shared Rewriter has memoized."""

    __slots__ = ("branches", "nfs")

    def __init__(self, branches: tuple[tuple[Scalar, Term], ...],
                 nfs: tuple[Pure | None, ...] = ()):
        dims = {op.dims for _, op in branches}
        if len(dims) > 1:
            raise DimMismatch(dims.pop(), dims.pop(), "mixed-state branches")
        for _, op in branches:
            if op.rows != op.cols:
                raise NotAnOperator(f"branch operator has dims {show_dim(op.dims)}")
        if not nfs:
            nfs = tuple(_leaf_state(op) for _, op in branches)
        elif len(nfs) != len(branches):
            raise ValueError("one normal form per branch")
        self.branches, self.nfs = branches, nfs

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


def eval_mix(expr: MixExpr, rewriter: Rewriter | None = None) -> MixedState:
    """Fold a parsed mixed-state expression with mea_mix and unit_mix, every
    stage on one Rewriter, so on one fuel budget, one memo and its
    hypotheses."""
    if isinstance(expr, MixedState):
        return expr
    rw = rewriter or Rewriter()
    if expr[0] == "meamix":
        _, n, k, inner = expr
        return mea_mix(n, k, eval_mix(inner, rw), rw)
    _, u, inner = expr
    return unit_mix(u, eval_mix(inner, rw), rw)


def _pure(c: Scalar, psi: Term, rw: Rewriter) -> Pure:
    return Pure(c, psi, rw.normalize(psi))


def _written(pure: Pure) -> Term:
    rho = density(pure.psi)
    return rho if pure.c.is_one() else scale(pure.c, rho)


def unit_mix(u: Term, m: MixedState, rewriter: Rewriter | None = None) -> MixedState:
    """U rho U^ per branch; a pure branch c|psi><psi| becomes c|U psi><U psi|."""
    if m.branches and u.cols != m.dims[0]:
        raise DimMismatch((u.rows, m.dims[0]), m.dims, "super operand")
    rw = rewriter or Rewriter()
    branches, nfs = [], []
    for (p, op), rho in zip(m.branches, m.nfs):
        nfs.append(rho and _pure(rho.c, mul(u, rho.psi), rw))
        branches.append((p, _written(nfs[-1]) if rho else super_(u, op)))
    return MixedState(tuple(branches), tuple(nfs))


def mea_mix(n: int, k: int, m: MixedState, rewriter: Rewriter | None = None) -> MixedState:
    """Each branch split by the projections M = Mea0, Mea1 on qubit k into
    branches of probability p, divided by p where it has an inverse.  A pure
    c|psi><psi| becomes (c / p)|M psi><M psi|, p = c <psi|M|psi> reduced
    under the rewriter's hypotheses: no sqrt(p)."""
    rw = rewriter or Rewriter()
    branches, nfs = [], []
    for (p, op), rho in zip(m.branches, m.nfs):
        if op.rows != 2 ** (n + 1):
            raise DimMismatch((2 ** (n + 1), 2 ** (n + 1)), op.dims, "mea_mix branch")
        for proj_name in ("Mea0", "Mea1"):
            proj = mea(proj_name, n, k)
            if rho:
                branch_p = rho.c * probability(rho.psi, proj, rw)
                branch_p = branch_p.apply_norm_hypothesis(rw.hypotheses)
            else:
                post = mul(proj, mul(op, proj))
                branch_p = rw.normalize(post).trace()
            if branch_p.is_zero():
                continue
            try:
                inv = branch_p.reciprocal()
            except NonInvertibleScalar:  # symbolic trace: leave the branch unnormalized
                inv = Scalar.one()
            if rho:
                nfs.append(_pure(rho.c * inv, mul(proj, rho.psi), rw))
                branches.append((p * branch_p, _written(nfs[-1])))
            else:
                nfs.append(None)
                branches.append((p * branch_p, post if inv.is_one() else scale(inv, post)))
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


def sym_mix_difference(a: MixedState, b: MixedState, rewriter: Rewriter | None = None
                       ) -> tuple[int, Pure | NormalForm | None, Pure | NormalForm | None] | None:
    """Ordered branchwise comparison, decided exactly: two pure branches by
    their vectors (_pure_equal), any other pair by the normal forms of the
    written operators (for a pure branch, c .* (psi * psi^) by the cut path),
    on the Rewriter that computed the states, under its hypotheses.  None if
    the states are equal, else (i, x, y): i the index of the first branch
    that differs, and x and y what was compared there, two pure states with
    their normal forms or two operators' normal forms, or None, None where
    nothing was."""
    rw = rewriter or Rewriter()
    compared: dict[int, tuple] = {}

    def vector(s: Pure) -> Pure:
        return s if s.nf is not None else _pure(s.c, s.psi, rw)

    def equal(i: int) -> bool:
        sa, sb = a.nfs[i], b.nfs[i]
        if isinstance(sa, Pure) and isinstance(sb, Pure):
            x, y = compared[i] = vector(sa), vector(sb)
            return _pure_equal(x, y, rw)
        x, y = compared[i] = [rw.normalize(m.branches[i][1]) for m in (a, b)]
        return x == y

    i = _first_difference(a, b, rw.hypotheses, equal)
    return None if i is None else (i, *compared.get(i, (None, None)))


def _pure_equal(a: Pure, b: Pure, rw: Rewriter) -> bool:
    """c_a|x><x| == c_b|y><y|, so y = l.x with c_a == c_b.l.l^*: x and y are
    proportional (NormalForm.proportional), y_j.x_0 == x_j.y_0, and
    c_a.x_0.x_0^* == c_b.y_0.y_0^*, cross-multiplied, so nothing is divided."""
    def zero(s: Scalar) -> bool:
        return s.apply_norm_hypothesis(rw.hypotheses).is_zero()

    def ratio_test(x0: Scalar, y0: Scalar):
        if zero(a.c * x0 * x0.conj() - b.c * y0 * y0.conj()):
            return lambda sx, sy: zero(sy * x0 - sx * y0)
        return None

    return a.nf.proportional(b.nf, ratio_test)


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
