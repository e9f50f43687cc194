"""Law-driven normalization of Dirac terms.

The catalog follows the usual algebra of scaled matrix expressions: inner
products of basis vectors collapse to scalars (L1), associativity of
products and of nested scalings (L2; a sum or tensor product is read as a
chain however it nests, so none is reassociated), scalar/zero/identity
absorption (L3, L5-L10), a scalar distributed over a sum (L4),
distribution (L11/L12), the mixed-product law for tensors (L13, which
splits an I(2^k) block into I(2) slots where it straddles a cut, and
pairs a ket or bra factor with no counterpart across it with I(1)) and
conjugate-transpose pushing (L14-L16); Lsum merges the like summands
c1 .* x + ... + c2 .* x of a sum into (c1 + c2) .* x.  Derived lemmas
speed up the common cases.  B_db and G_db are tables of a gate meeting a
state at either vector end: the four basis matrices (B_db), the Pauli and
Hadamard gates and the two-qubit CX, CZ, XC and SWAP (G_db), against a ket
on their right or a bra on their left, each a one- or two-qubit product of
|0>, |1>, |+> and |-> (or their bras).  D_db writes the dagger of an
identity or zero block, of |+> or |->, or of a table gate in one step, so
U^ meets the tables as U does.  The table entries are computed by the
sparse evaluator the first time a product asks for them, over that fixed
finite domain, not written down by hand and not at import time.  The
sparse evaluator keeps the library's gates and states the same way: the
value of each, and of every subterm under it, is built once per process,
when the first Rewriter is made, and seeds every Rewriter's memos, so a
library term is a memo entry from the start, as a lemma proved once is
reused by every proof.

The traced driver is a deterministic staged pipeline over that one law set,
tried in a fixed order: push daggers to the leaves, reduce the products,
then collect the result into a canonical sum of basis matrices
|rbits><cbits|.  A term's own bits (Term.pushed, Term.shaped) tell a stage
that it has nothing to do there, so no stage walks a term it leaves as it
is.  Dagger pushing and the walk above every product are recursion on one
explicit-stack driver (_drive), so no term is too deep for them; the
reduction below a product recurses.  Reduction stops at the shape the
collector reads: above every product only the laws that drop an operand
(L3, L9, L10) fire, so the sums, scalings and tensor products there are
left for the collector, which multiplies them out by exact arithmetic,
rather than expanded law by law.
An operand of a product is reduced to a fixpoint of the whole law set.
That reduction tries a node's laws before its children's and retries the
node after they change, except that a product chain reduces from its
vector ends, and Lsum runs once per sum, at its top, after its summands.  A
ket takes the gates on its left and a bra the gates on its right, one at a
time; a chain with a ket inside is an outer product, regrouped (L2) into
its ket part times its bra part, each reduced from its vector end; a 1x1
chain keeps the ket-first order.  A product of operators takes its right
operand as its vector end: that operand is reduced, and distributed (L11),
before the left one, so each of its summands, c .* (|r1><c1| # ...), meets
the left operand's gates through L13 or as (left * |r>) * <c|, and the left
operand is never multiplied out on its own.  Beside an operand reduced to
zero, the other operand of a product or tensor product is left for L7 or
L10 to drop, unreduced.  Each Rewriter remembers the fixpoints it
has reached, so a repeated irreducible subterm costs a lookup.  On gate
chains, applied to kets, bras or neither, and on U * k * k^ * U^ the steps
grow with the gates times the size of the answer; on H^n * H^n, whose L13
result is a tensor product of n products H * H, and on the Deutsch-Jozsa
oracle Uf(n) applied to |+>^n # |-> or its bra, whose CX wings meet
two-qubit table states, they grow linearly in n.

When no trace is requested the same normal form is computed directly over
the sparse representation, which skips the intermediate term churn: each
subterm's value is a tensor product of blocks, maps from basis (row bits,
column bits) keys to exact scalars, the keys a normal form's summands keep.
A tensor product keeps its operands' blocks side by side, so a product
state or a ket literal costs its width, not 2^n entries; a product of
aligned tensor products is the tensor product of its per-slot products
(L13); in a chain applied to a ket each gate acts only on the blocks its
slots reach, passing identity blocks through unexpanded, with a product
inside a layer, or the dagger of one, applied gate by gate; a chain led by
a bra is the conjugate transpose of its adjoint, a ket chain (L14); an
operator chain through a ket is the tensor product of its vector ends,
(A * |v>) # (<w| * B); and any other applies its factors, right to left,
to its last operand's map.  The blocks are made canonical by
normal_form.canonical.  The two modes are required to agree exactly, and
the traced mode's last step, collecting the reduced term, runs the same
sparse evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import prod
from typing import Optional

from .errors import FuelExhausted, NotInReducedShape, show_dim
from .normal_form import DEFAULT_FUEL, NormalForm, canonical, inverse, split_at
from .scalar import Scalar
from .term import (
    ADD, DAG, IDENT, KET0, KET1, KRON, MUL, SCALE, ZERO,
    Term, add, add_all, dag, dim_text, gate, identity, ket0, ket1, kron, kron_all,
    library_subterms, mul, mul_all, operands, render, render_head, render_scaled, render_with,
    scale, zero,
)

_ONE = Scalar.one()
_NO_BITS = ((), ())  # the key of a 1x1 map


# --- rewrite trace -----------------------------------------------------


@dataclass(slots=True)
class RewriteStep:
    law: str
    path: bytes               # child indices from the root, each 0 or 1
    before: Term
    after: Term


class RewriteTrace:
    """The steps of a traced normalization.  Their renderings share one memo
    of subterm texts, freed when the call returns, so a subterm that recurs
    across steps is rendered once per call, not once per step."""

    def __init__(self):
        self.steps: list[RewriteStep] = []

    def append(self, law, path, before, after):
        self.steps.append(RewriteStep(law, bytes(path), before, after))

    def as_lines(self) -> list[str]:
        memo: dict = {}
        return [f"{s.law} @ {'.'.join(map(str, s.path)) or 'root'}: "
                f"{render_with(s.before, memo)}  ->  {render_with(s.after, memo)}"
                for s in self.steps]

    def as_dicts(self) -> list[dict]:
        memo: dict = {}
        return [{"law": s.law, "path": list(s.path), "before": render_with(s.before, memo),
                 "after": render_with(s.after, memo)} for s in self.steps]


def _rebuild(t: Term, children) -> Term:
    """t over new children of the same dims, as every law keeps a term's."""
    return Term(t.kind, t.payload, tuple(children), t.rows, t.cols)


def _drive(walk):
    """Run a walk written as a generator on one explicit stack.  The walk
    yields a sub-walk, is sent that sub-walk's value, and returns its own, so
    it reads as recursion and a walk as deep as its term recurses not at all."""
    stack, value = [walk], None
    while True:
        try:
            sub = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value
        else:
            stack.append(sub)
            value = None


def replay(t: Term, trace: RewriteTrace) -> Term:
    """Re-apply a recorded trace; each step must match the current subterm
    and keep its dims.  The walk holds the spine from the root down to the
    last step's subterm and rebuilds only the part of it that the next
    step's path leaves, so nested steps cost their number, not that times
    their depth."""
    spine: list[tuple[Term, int]] = []  # (node, child index) from the root down to t
    for step in [*trace.steps, None]:
        path = step.path if step is not None else b""
        k = 0
        while k < len(spine) and k < len(path) and spine[k][1] == path[k]:
            k += 1
        while len(spine) > k:
            node, i = spine.pop()
            t = _rebuild(node, node.children[:i] + (t,) + node.children[i + 1:])
        if step is None:
            return t
        for i in path[k:]:
            spine.append((t, i))
            t = t.children[i]
        if t is not step.before:
            raise ValueError(f"trace replay mismatch at {list(path)}")
        if step.after.dims != t.dims:
            raise ValueError(f"trace replay changes dims at {list(path)}")
        t = step.after


# --- the law set ------------------------------------------------------

_PLUS = gate("ket_plus")
_MINUS = gate("ket_minus")
# <+| and <->, the daggers of |+> and |-> as L15 and L14 would write them
_BRA_PLUS = add(scale(Scalar.inv_sqrt2(), dag(ket0())), scale(Scalar.inv_sqrt2(), dag(ket1())))
_BRA_MINUS = add(scale(Scalar.inv_sqrt2(), dag(ket0())), scale(-Scalar.inv_sqrt2(), dag(ket1())))
# table states that L4 and L12 leave whole, for G_db and B_db to meet
_PROTECTED = (_PLUS, _MINUS, _BRA_PLUS, _BRA_MINUS)


def _align(fa: list[Term], fb: list[Term]) -> Optional[list]:
    """Pair runs of fa's factors with runs of fb's whose column and row dims
    match, or None unless that cuts both into at least two segments.  A
    factor with a 1-dim on the contracted side (a ket of fa, a bra of fb)
    whose counterpart has none, or that is left over, is paired with I(1)."""
    segments = []
    i = j = 0
    while i < len(fa) or j < len(fb):
        lone_a = i < len(fa) and fa[i].cols == 1
        lone_b = j < len(fb) and fb[j].rows == 1
        if lone_a and not lone_b:
            segments.append(([fa[i]], [identity(1)]))
            i += 1
            continue
        if lone_b and not lone_a:
            segments.append(([identity(1)], [fb[j]]))
            j += 1
            continue
        if i >= len(fa) or j >= len(fb):
            return None
        acc_l, acc_r = [fa[i]], [fb[j]]
        cols_l, rows_r = fa[i].cols, fb[j].rows
        i += 1
        j += 1
        while cols_l != rows_r:
            if cols_l < rows_r:
                if i >= len(fa):
                    return None
                acc_l.append(fa[i])
                cols_l *= fa[i].cols
                i += 1
            else:
                if j >= len(fb):
                    return None
                acc_r.append(fb[j])
                rows_r *= fb[j].rows
                j += 1
        segments.append((acc_l, acc_r))
    return segments if len(segments) >= 2 else None


def _split_identities(factors: list[Term]) -> list[Term]:
    """The factors with each I(2^k), k >= 2, written as k slots of I(2)."""
    out = []
    for f in factors:
        if f.kind == IDENT and f.payload > 2:
            out += [identity(2)] * (f.payload.bit_length() - 1)
        else:
            out.append(f)
    return out


def _try_mult_kron(a: Term, b: Term) -> Optional[Term]:
    """L13: (a1 # ... # an) * (b1 # ... # bm) as the tensor product of the
    per-segment products, splitting identity blocks that straddle a cut.
    Only a KRON operand is cut into factors: a product or sum is one, and
    a sum is left to L11, which distributes it first."""
    if a.kind == ADD or b.kind == ADD:
        return None
    fa = operands(a) if a.kind == KRON else [a]
    fb = operands(b) if b.kind == KRON else [b]
    if len(fa) == 1 and len(fb) == 1:
        return None
    segments = _align(fa, fb) or _align(_split_identities(fa), _split_identities(fb))
    if segments is None:
        return None
    return kron_all([mul(kron_all(l), kron_all(r)) for l, r in segments])


def _collect_like(t: Term):
    """Lsum: the sum t with the like summands c1 .* x, c2 .* x, ... of each
    body x merged into (c1 + c2 + ...) .* x at its first occurrence, and
    dropped if the scalars cancel; None if no body occurs twice.  Bodies are
    interned, so one pass keyed by them finds the like summands."""
    parts = operands(t)
    groups: dict[Term, list[Term]] = {}  # body -> its summands, first seen first
    for p in parts:
        groups.setdefault(p.children[0] if p.kind == SCALE else p, []).append(p)
    if len(groups) == len(parts):
        return None
    out = []
    for body, like in groups.items():
        if len(like) == 1:
            out.append(like[0])
            continue
        c = Scalar.zero()
        for p in like:
            c = c + (p.payload if p.kind == SCALE else Scalar.one())
        if not c.is_zero():
            out.append(body if c.is_one() else scale(c, body))
    return "Lsum", add_all(out) if out else zero(t.rows, t.cols)


def _drop_operand(t: Term):
    """L3, L9 or L10 at the root of a scaling, sum or tensor product, as
    (law, result), or None: a zero or unit scalar, or a zero operand."""
    kind = t.kind
    if kind == SCALE:
        c, x = t.payload, t.children[0]
        if c.is_zero() or x.kind == ZERO:
            return "L3", zero(*t.dims)
        if c.is_one():
            return "L3", x
    elif kind in (ADD, KRON):
        a, b = t.children
        if a.kind == ZERO or b.kind == ZERO:
            if kind == KRON:
                return "L10", zero(*t.dims)
            return "L9", b if a.kind == ZERO else a
    return None


_ABSORBED = (SCALE, ZERO, IDENT)


def _regroup(t: Term) -> Optional[Term]:
    """L2 that brings a product's vector ends outermost, or None.  A bra
    a * (b0 * b1) becomes (a * b0) * b1, unless b0 is a ket (L1's case).  An
    operator chain holding a ket is cut after its first ket into (ket part)
    * (bra part): the ket part nested to the right, the bra part as the bra
    rule leaves it, to the left up to its next ket and to the right from
    there.  A column (a ket or a scalar) is left as it is, and so is a
    product that L5, L7 or L8 simplifies at once."""
    a, b = t.children
    if t.cols == 1 or a.kind in _ABSORBED or b.kind in _ABSORBED:
        return None
    if t.rows == 1:
        if b.kind == MUL and b.children[0].cols > 1:
            return mul(mul(a, b.children[0]), b.children[1])
        return None
    if a.cols == 1 or (a.kind != MUL and b.kind != MUL):
        return None
    chain = operands(t)
    kets = [i for i, f in enumerate(chain) if f.cols == 1]
    if not kets:
        return None
    i = kets[0]
    j = next((k for k in kets if k > i + 1), len(chain))
    bra = chain[i + 1]
    for g in chain[i + 2:j]:
        bra = mul(bra, g)
    if j < len(chain):
        bra = mul(bra, mul_all(chain[j:]))
    return mul(mul_all(chain[:i + 1]), bra)


class Rewriter:
    """Stateful driver: fuel accounting, and either the traced law pipeline
    or the memoized sparse evaluator."""

    def __init__(self, fuel: int = DEFAULT_FUEL, trace: RewriteTrace | None = None):
        self.fuel = fuel
        self.steps = 0
        self.trace = trace
        blocks, folded, columns = _constants()  # the library's entries, free of fuel
        self._sparse_memo: dict[Term, tuple[dict, ...]] = dict(blocks)
        self._folded: dict[Term, dict] = dict(folded)  # term -> its blocks folded into one map
        self._columns: dict[Term, dict] = dict(columns)  # layer factor -> its map by column bits
        self._irreducible: set[Term] = set()  # fixpoints of reduce
        self._irreducible_in_sum: set[Term] = set()  # inner ADD nodes: all laws but Lsum

    # -- bookkeeping
    def _log(self, law: str, path, before: Term, after: Term):
        self.steps += 1
        if self.steps > self.fuel:
            raise self._out_of_fuel(before, f"law {law}")
        if self.trace is not None:
            self.trace.append(law, path, before, after)

    # -- the law set, tried at the root of a node
    def _rewrite_root(self, t: Term):
        kind = t.kind
        if kind == MUL:
            a, b = t.children
            if a.kind == ZERO or b.kind == ZERO:
                return "L7", zero(a.rows, b.cols)
            if a.kind == SCALE:
                return "L5", scale(a.payload, mul(a.children[0], b))
            if b.kind == SCALE:
                return "L5", scale(b.payload, mul(a, b.children[0]))
            if a.kind == IDENT:
                return "L8", b
            if b.kind == IDENT:
                return "L8", a
            if a.kind == DAG and a.children[0].kind in (KET0, KET1):
                bra_bit = 0 if a.children[0].kind == KET0 else 1
                if b.kind in (KET0, KET1):
                    ket_bit = 0 if b.kind == KET0 else 1
                    return "L1", identity(1) if bra_bit == ket_bit else zero(1, 1)
                if b.kind == MUL and b.children[0].kind in (KET0, KET1):
                    ket_bit = 0 if b.children[0].kind == KET0 else 1
                    if bra_bit == ket_bit:
                        return "L1", b.children[1]
                    return "L1", zero(1, b.cols)
            hit = _table_entry(a, b)
            if hit is not None:
                return hit
            # not on a bra or an outer product, which _regroup nests the other way
            if a.kind == MUL and (t.cols == 1 or (a.rows > 1 and a.cols > 1)):
                return "L2", mul(a.children[0], mul(a.children[1], b))
            if a.kind == KRON or b.kind == KRON:
                out = _try_mult_kron(a, b)
                if out is not None:
                    return "L13", out
            # an operator product's right operand is its vector end: distribute it first
            if b.kind == ADD and (a.kind != ADD or (t.rows > 1 and t.cols > 1)):
                return "L11", add(mul(a, b.children[0]), mul(a, b.children[1]))
            if a.kind == ADD:
                return "L11", add(mul(a.children[0], b), mul(a.children[1], b))
            return None
        if kind == SCALE and t.children[0].kind == SCALE:
            x = t.children[0]
            return "L2", scale(t.payload * x.payload, x.children[0])
        dropped = _drop_operand(t)
        if dropped is not None:
            return dropped
        if kind == SCALE:
            c, x = t.payload, t.children[0]
            if x.kind == ADD and x not in _PROTECTED:
                return "L4", add(scale(c, x.children[0]), scale(c, x.children[1]))
            return None
        if kind == KRON:
            a, b = t.children
            if a.kind == SCALE:
                return "L6", scale(a.payload, kron(a.children[0], b))
            if b.kind == SCALE:
                return "L6", scale(b.payload, kron(a, b.children[0]))
            if a.kind == IDENT and a.payload == 1:
                return "L8", b
            if b.kind == IDENT and b.payload == 1:
                return "L8", a
            if a.kind == IDENT and b.kind == IDENT:
                return "L8", identity(a.payload * b.payload)
            if a.kind == ADD and a not in _PROTECTED:
                return "L12", add(kron(a.children[0], b), kron(a.children[1], b))
            if b.kind == ADD and b not in _PROTECTED:
                return "L12", add(kron(a, b.children[0]), kron(a, b.children[1]))
        return None

    def _reduce_open(self, t: Term) -> Term:
        """Reduce t, at the root, to the shape unified_base collects.

        A position is open when no product lies above it: the root, a child
        of an open sum, scaling or tensor product, and the result of a law
        fired at an open product.  A term in shape (Term.shaped, set when it
        was built) comes back from an open position at once, unwalked.  An
        open sum, scaling or tensor product fires only the laws that drop an
        operand (L3, L9, L10), then reduces its children, each at an open
        position; the sums, scalings and tensor products it keeps are
        unified_base's to collect; once a tensor product's operand is zero,
        its other operand is left unwalked for L10 to drop.  An open
        product reduces its operands to a fixpoint (reduce), and the result
        of the first law that fires at its root stands at the open position
        in turn, so a scalar that L5 pulls out stays above the product's
        result.  The walk (_open) runs on _drive, so a long sum costs no
        recursion."""
        return t if t.shaped else _drive(self._open(t, ()))

    def _open(self, t: Term, path: tuple[int, ...]):
        """_reduce_open's walk at path.  Laws fire at the root until t is in
        shape, a product no law rewrites, or a sum, scaling or tensor
        product with no operand to drop; the last has its children walked,
        and if one changes, the rebuilt node is walked again."""
        while True:
            while not t.shaped:
                if t.kind == MUL:
                    new = self.reduce(t, path, _open=True)
                    if new is t:
                        return t  # an irreducible product, which unified_base reports
                else:
                    r = _drop_operand(t)
                    if r is None:
                        break
                    new = r[1]
                    self._log(r[0], path, t, new)
                t = new
            if t.shaped or t.kind not in (SCALE, ADD, KRON):
                return t
            children = []
            for i, c in enumerate(t.children):
                if c.shaped or (i and t.kind == KRON and children[0].kind == ZERO):
                    children.append(c)  # in shape, or dropped by L10 with its zero sibling
                else:
                    children.append((yield self._open(c, path + (i,))))
            if all(d is c for d, c in zip(children, t.children)):
                return t
            t = _rebuild(t, children)

    def reduce(self, t: Term, _path: tuple[int, ...] = (), _in_sum: bool = False,
               _open: bool = False) -> Term:
        """Rewrite t to a fixpoint of the law set.  normalize reduces each
        operand of a product this way; a product at an open position
        (_reduce_open) comes back after the first law fired at its root.

        A product chain is reduced from its vector ends.  A column (a ket,
        or a 1x1 scalar) reduces its right operand first: after L2 a chain
        is g1 * (g2 * (... * k)), so each gate meets a reduced state, not an
        unreduced product whose distribution (L11) would multiply out every
        later gate's summands.  A 1x1 chain keeps that ket-first order.  A
        bra is regrouped the other way, (a * b0) * b1 (_regroup), and
        reduces its left operand first, so it takes the gates on its right
        one at a time, each a (bra, gate) table lookup where both are table
        terms.  An operator chain holding a ket is an outer product: it is
        regrouped into (ket part) * (bra part), and each part is reduced
        from its vector end before they meet.  An operator chain with no
        vector takes its right operand as its vector end.  It reduces that
        operand first when it is a MUL, as a ket does, and otherwise once no
        law fires at the root, so that L13 meets a KRON whole, and then tries
        the root again before it reduces the left operand; L11 distributes
        over the right operand's sum before the left's.  Each summand of the
        right operand is then c .* (|r1><c1| # ...), which L13 aligns with
        the left operand's gates or _regroup cuts into (left * |r>) * <c|, so
        the left gates meet kets through the tables, never multiplied out on
        their own.  Once one operand of a product or tensor product reduces
        to zero, the other is left unreduced for L7 or L10 to drop.  Lsum
        runs at the top of an ADD spine once its summands are reduced,
        never at the spine's inner ADD nodes (_in_sum).  Fixpoints are
        remembered, an inner node's apart, since Lsum may still fire on it
        at a top; a remembered one is returned at once and logs no step, as
        reducing it again would log none."""
        if t in self._irreducible or (_in_sum and t in self._irreducible_in_sum):
            return t
        while True:
            if t.kind == MUL:
                new = _regroup(t)
                if new is not None:
                    self._log("L2", _path, t, new)
                    t = new
                    continue
                a, b = t.children
                # a bra's left part, or an outer product's ket part, first
                if t.cols > 1 and a.kind == MUL and (a.rows == 1 or a.cols == 1):
                    ra = self.reduce(a, _path + (0,))
                    if ra is not a:
                        t = mul(ra, b)
                if t.cols == 1 or b.kind == MUL:
                    rb = self.reduce(b, _path + (1,))
                    if rb is not b:
                        t = mul(t.children[0], rb)
            r = self._rewrite_root(t)
            if r is None:
                if not t.children:
                    break
                if t.kind == MUL and t.rows > 1 and t.cols > 1:  # its right operand, then the root again
                    rb = self.reduce(t.children[1], _path + (1,))
                    if rb is not t.children[1]:
                        t = mul(t.children[0], rb)
                        continue
                is_sum = t.kind == ADD
                changed = False
                new_children = []
                for i, c in enumerate(t.children):
                    if i and not is_sum and new_children[0].kind == ZERO:
                        rc = c  # L7 or L10 drops it with its zero sibling
                    else:
                        rc = self.reduce(c, _path + (i,), is_sum)
                    new_children.append(rc)
                    changed = changed or rc is not c
                if changed:
                    t = _rebuild(t, new_children)
                    continue
                if not is_sum or _in_sum:
                    break
                r = _collect_like(t)
                if r is None:
                    break
            law, new = r
            self._log(law, _path, t, new)
            if _open:
                return new
            t = new
        if _in_sum and t.kind == ADD:
            self._irreducible_in_sum.add(t)
            return t
        # a reduced spine has no like summands, so neither have its suffixes
        spine = t
        while spine.kind == ADD:
            self._irreducible.add(spine)
            spine = spine.children[1]
        self._irreducible.add(spine)
        return t

    # -- dagger pushing (L14-L16), run as a first stage
    def push_daggers(self, t: Term) -> Term:
        """t with every dagger pushed down to a basis ket.  A term whose
        daggers all sit on basis kets (Term.pushed, set when it was built)
        is returned as it is, and such a subterm is output as it is,
        unvisited: no law applies in it, so visiting it would log no step.
        The other nodes are visited depth first, left to right, each
        rewritten at its root before its children are visited (_push, on
        _drive, so a deep term costs no recursion)."""
        return t if t.pushed else _drive(self._push(t, ()))

    def _push(self, t: Term, path: tuple[int, ...]):
        """push_daggers' walk at path."""
        if t.kind == DAG:
            t = self._push_root(t, path)
        children = []
        for i, c in enumerate(t.children):
            children.append(c if c.pushed else (yield self._push(c, path + (i,))))
        return _rebuild(t, children)  # t itself where no child changed, as terms are interned

    def _push_root(self, t: Term, path: tuple[int, ...]) -> Term:
        """Apply L14-L16 and D_db at the root of t until none applies."""
        while t.kind == DAG:
            x = t.children[0]
            if x in _ADJOINT:
                law, new = "D_db", _ADJOINT[x]
            elif x.kind == DAG:
                law, new = "L16", x.children[0]
            elif x.kind == SCALE:
                law, new = "L14", scale(x.payload.conj(), dag(x.children[0]))
            elif x.kind == MUL:
                law, new = "L14", mul(dag(x.children[1]), dag(x.children[0]))
            elif x.kind == ADD:
                law, new = "L15", add(dag(x.children[0]), dag(x.children[1]))
            elif x.kind == KRON:
                law, new = "L15", kron(dag(x.children[0]), dag(x.children[1]))
            elif x.kind == IDENT:
                law, new = "D_db", x
            elif x.kind == ZERO:
                law, new = "D_db", zero(x.cols, x.rows)
            else:
                break  # dagger of a basis ket stays: that is a bra leaf
            self._log(law, path, t, new)
            t = new
        return t

    def normalize(self, t: Term) -> NormalForm:
        """The normal form of t.  Traced, it pushes the daggers, reduces the
        products (_reduce_open) and collects the resulting term (unified_base),
        logging each law instance; the trace ends at a term in the shape the
        collector reads, not at a flat sum, and the collector runs on the fuel
        left.  Untraced, it evaluates t over the sparse representation."""
        if self.trace is None:
            return self._normalize_sparse(t)
        reduced = self._reduce_open(self.push_daggers(t))
        _check_reduced(reduced)
        rw = Rewriter(self.fuel)  # the collector runs on the fuel left of this budget
        rw.steps = self.steps
        return rw._normalize_sparse(reduced)

    # -- direct sparse evaluation (untraced mode)
    def _normalize_sparse(self, t: Term) -> NormalForm:
        """The normal form of t's value.  Where a block's pivot is not
        invertible the blocks are folded into one first, so the result is
        the one the flat map gives."""
        blocks = self._sparse(t)
        return canonical(t.dims, blocks) or canonical(t.dims, (self._fold(blocks, t),))

    def _sparse(self, t: Term) -> tuple[dict, ...]:
        """t's value, memoized: a tuple of blocks, maps from (rbits, cbits)
        keys to nonzero scalars, whose tensor product is t's matrix.  Zero is
        one empty block, and a block of no qubits, a 1x1 value, is the only
        block.  A vector's tensor product keeps its operands' blocks side by
        side (an operator's, whose normal form is one block, is folded), a
        scaling scales the last block, a dagger transposes each and a sum
        folds its operands into one map.  A product of aligned tensor
        products is the tensor product of its per-slot products (L13), and
        an identity operand drops out (L8).  Any other product chain is
        multiplied from its vector ends: a chain that ends in a ket applies
        its factors to the ket's blocks one by one (_apply_layer), one led by
        a bra is the dagger of its adjoint (L14), and an operator chain
        through a ket is cut after its first one, A * |v> * <w| * B =
        (A * |v>) # (<w| * B), both ends' blocks folded into one map.  Any
        other chain's factors take its last operand's map, right to left
        (_apply_factor).  A product is charged as its maps are built.
        A library term's value is in the memo from the start (_constants)."""
        hit = self._sparse_memo.get(t)
        if hit is not None:
            return hit
        kind = t.kind
        if kind == KET0:
            out = ({((0,), ()): _ONE},)
        elif kind == KET1:
            out = ({((1,), ()): _ONE},)
        elif kind == ZERO:
            out = ({},)
        elif kind == IDENT:
            n = t.payload
            self._charge_before(t, n)
            out = ({(bits, bits): _ONE for bits in product((0, 1), repeat=n.bit_length() - 1)},)
        elif kind == SCALE:  # the last block scaled; nothing under a zero scalar is evaluated
            c = t.payload
            if c.is_zero():
                out = ({},)
            else:
                blocks = self._sparse(t.children[0])
                self._charge_before(t, len(blocks[-1]))
                out = blocks[:-1] + ({k: c * s for k, s in blocks[-1].items()},)
        elif kind == DAG:
            blocks = self._sparse(t.children[0])
            self._charge_before(t, sum(map(len, blocks)))
            out = tuple([{(cbits, rbits): s.conj() for (rbits, cbits), s in block.items()}
                         for block in blocks])
        elif kind == ADD:  # merge the whole chain into one map, memoized at the top
            parts = operands(t, self._sparse_memo)
            acc = dict(self._map(parts[0]))
            for part in parts[1:]:
                for k, s in self._map(part).items():
                    cur = acc.get(k)
                    if cur is None and self.steps + len(acc) >= self.fuel:  # charged as it grows
                        raise self._out_of_fuel(t, f"map passing {len(acc)} entries")
                    merged = s if cur is None else cur + s
                    if merged.is_zero():
                        del acc[k]
                    else:
                        acc[k] = merged
            out = (acc,)
        elif kind == KRON:
            blocks = [b for part in operands(t, self._sparse_memo) for b in self._sparse(part)]
            out = _tensor(blocks) if (t.rows == 1) != (t.cols == 1) else (self._fold(blocks, t),)
        else:  # MUL
            a, b = t.children
            aligned = _try_mult_kron(a, b) if a.kind == KRON and b.kind == KRON else None
            if aligned is not None:  # L13: the KRON of the per-segment products
                out = self._sparse(aligned)
            elif a.kind == IDENT or b.kind == IDENT:  # L8, with nothing expanded
                out = self._sparse(b if a.kind == IDENT else a)
            else:
                chain = operands(t, self._sparse_memo)
                if chain[-1].cols == 1:  # a ket's blocks take the factors one by one
                    out = self._apply_layer(chain[:-1], self._sparse(chain[-1]), t)
                elif chain[0].rows == 1:  # a bra chain is the adjoint of a ket chain (L14)
                    out = self._sparse(dag(mul_all([_adjoint(f) for f in reversed(chain)])))
                elif (k := next((i for i, f in enumerate(chain) if f.cols == 1), None)) is not None:
                    # an operator chain through a ket: |v> * <w|, the tensor product of its ends
                    ket = self._sparse(mul_all(chain[:k + 1]))
                    out = (self._fold(ket + self._sparse(mul_all(chain[k + 1:])), t),)
                else:  # the last operand's map takes the factors, right to left
                    acc = self._map(chain[-1])
                    for f in reversed(chain[:-1]):
                        acc = self._apply_factor(f, 0, f.cols.bit_length() - 1, acc, t)
                    out = (acc,)
        if kind != MUL and kind != KRON:  # those are charged as their maps are built
            self.steps += sum(map(len, out))
        if self.steps > self.fuel:  # a product may pass it in a layer's scaling or split
            raise self._out_of_fuel(t, f"map of {sum(map(len, out))} entries")
        self._sparse_memo[t] = out
        return out

    def _map(self, t: Term) -> dict:
        """t's value as one map: its blocks folded, the fold memoized apart
        from the blocks, which stay for the products that can use them."""
        blocks = self._sparse(t)
        if len(blocks) == 1:
            return blocks[0]
        flat = self._folded.get(t)
        if flat is None:
            flat = self._folded[t] = self._fold(blocks, t)
        return flat

    def _fold(self, blocks, node: Term) -> dict:
        """The one map of a tensor product of blocks, folded from the right.
        Fuel is charged for its entries before any is allocated."""
        if len(blocks) == 1:
            return blocks[0]
        size = prod(map(len, blocks))
        self._charge_before(node, size)
        self.steps += size
        out = blocks[-1]
        for left in reversed(blocks[:-1]):
            out = {(ra + rb, ca + cb): sa * sb
                   for (ra, ca), sa in left.items() for (rb, cb), sb in out.items()}
        return out

    def _charge_before(self, t: Term, size: int) -> None:
        """Refuse t's map of `size` entries before it is built, where the
        fuel left cannot pay for it."""
        if self.steps + size > self.fuel:
            raise self._out_of_fuel(t, f"map of {show_dim(size)} entries")

    def _out_of_fuel(self, t: Term, detail: str) -> FuelExhausted:
        """The error naming the node whose evaluation ran out of fuel."""
        dims = f"{show_dim(t.rows)}x{show_dim(t.cols)}"
        return FuelExhausted(self.fuel, f"{t.kind} {dims} ({detail}): {render_head(t, 60)}")

    def _apply_factor(self, f: Term, lo: int, hi: int, vec: dict, node: Term) -> dict:
        """f * vec where f acts on the row bits [lo:hi] of vec's keys and the
        bits around them pass through."""
        by_col = self._columns.get(f)
        if by_col is None:  # kept, since layers and chains repeat their factors
            by_col = self._columns[f] = _by_column(self._map(f))
        budget = self.fuel - self.steps
        out: dict = {}
        for (rb, cb), sb in vec.items():
            hits = by_col.get(rb[lo:hi])
            if hits is None:
                continue
            head, tail = rb[:lo], rb[hi:]
            for ra, sa in hits:
                key = (head + ra + tail, cb)
                prod = sa * sb
                cur = out.get(key)
                if cur is None:
                    if len(out) >= budget:  # charge fuel while the map grows
                        raise self._out_of_fuel(node, f"map passing {len(out)} entries")
                    out[key] = prod
                    continue
                merged = cur + prod
                if merged.is_zero():
                    del out[key]
                else:
                    out[key] = merged
        self.steps += len(out)
        return out

    def _apply_layer(self, factors: list[Term], vec: tuple, node: Term) -> tuple:
        """factors[0] * ... * factors[-1] * vec for the blocks vec of a ket,
        the last factor first.  An identity is skipped, a scaling scales the
        last block and passes its operand on, a tensor product passes on its
        factors, each at its slot offset, and a product not yet evaluated
        passes on its chain at its own offset, its dagger the adjoints of
        that chain reversed (L14).  Any other factor acts on the blocks its
        slots reach (_act).  The work is one explicit stack of (factor, slot
        offset), so a product inside a layer, such as uf(n-1) in Uf(n), or
        its dagger, is applied gate by gate, never built as its whole map."""
        work = [(f, 0) for f in factors]
        while work and vec[0]:
            f, lo = work.pop()
            kind = f.kind
            if kind == IDENT:
                continue
            if kind == SCALE:
                c = f.payload
                if c.is_zero():
                    return ({},)
                vec = vec[:-1] + ({k: c * s for k, s in vec[-1].items()},)
                self.steps += len(vec[-1])
                work.append((f.children[0], lo))
            elif kind == KRON:
                parts = []
                for part in operands(f):
                    if part.kind != IDENT:
                        parts.append((part, lo))
                    lo += part.rows.bit_length() - 1
                work += reversed(parts)
            elif kind == MUL and f not in self._sparse_memo:
                work += [(g, lo) for g in operands(f, self._sparse_memo)]
            elif kind == DAG and (p := f.children[0]).kind == MUL and p not in self._sparse_memo:
                work += [(_adjoint(g), lo) for g in reversed(operands(p, self._sparse_memo))]
            else:
                vec = self._act(f, lo, vec, node)
        return vec

    def _act(self, f: Term, lo: int, vec: tuple, node: Term) -> tuple:
        """f acting on the bits [lo, lo + log2 f.cols) of a ket's blocks vec:
        the blocks those bits reach are folded into one (none, for a ket
        factor between two blocks), f acts on it (_apply_factor), and the
        result is split again at the cuts it was folded from, wherever it
        separates there."""
        hi = lo + f.cols.bit_length() - 1
        i = base = 0  # blocks i..j-1 are reached; block i starts at bit base
        if len(vec) == 1:  # one block, or a 1x1 value, takes every factor
            j, inner = 1, []
        else:
            while i < len(vec):
                end = base + len(next(iter(vec[i]))[0])
                if end > lo:
                    break
                i, base = i + 1, end
            j, start, inner = i, base, []
            while j < len(vec) and start < hi:
                if j > i:
                    inner.append(start)
                start += len(next(iter(vec[j]))[0])
                j += 1
        merged = self._fold(vec[i:j], node) if j > i else {_NO_BITS: _ONE}
        out = self._apply_factor(f, lo - base, hi - base, merged, node)
        if not out:
            return ({},)
        pieces = (out,)
        if inner and f.rows == f.cols:  # the cuts lie inside f's slots, which f keeps
            cuts = [c - base for c in inner]
            entries = [(s, key) for key, s in sorted(out.items())]
            parts = split_at(entries, 0, cuts, inverse(entries[0][0]))
            if len(parts) > 1:
                pieces = tuple({key: s for s, key in part} for part in parts)
                self.steps += sum(map(len, pieces))
        vec = vec[:i] + pieces + vec[j:]
        return _tensor(vec) if _NO_BITS in out and len(vec) > 1 else vec


def _adjoint(f: Term) -> Term:
    """f's adjoint, a tensor product's part by part (L15, L16, D_db)."""
    if f.kind == KRON:
        return kron_all([_adjoint(p) for p in operands(f)])
    if f.kind == DAG:
        return f.children[0]
    return f if f.kind == IDENT else _ADJOINT.get(f) or dag(f)


def _by_column(m: dict) -> dict:
    """A map's entries grouped by column bits: cbits -> [(rbits, scalar)]."""
    out: dict = {}
    for (ra, ca), sa in m.items():
        out.setdefault(ca, []).append((ra, sa))
    return out


# --- the library's memo entries ------------------------------------------

# Each gate and state of the term library, and every subterm under them
# (library_subterms), keyed to what _sparse, _map and _apply_factor memoize
# for it: its blocks, the folded map of each one of more than one block, and
# its map by column bits.  Every Rewriter starts its memos as copies of these
# seeds, so a library term is an ordinary memo entry: a hit costs no fuel, a
# chain's operands stop at it and a layer applies it whole.  The seeds are
# fixed in size by the library and filled once per process, when the first
# Rewriter is made, by a private Rewriter that starts from empty seeds.  The
# values are shared, so no caller may mutate one.
_CONSTANTS: Optional[tuple[dict, dict, dict]] = None


def _constants() -> tuple[dict, dict, dict]:
    global _CONSTANTS
    if _CONSTANTS is None:
        _CONSTANTS = blocks, folded, columns = {}, {}, {}
        rw = Rewriter()
        for t in library_subterms():
            blocks[t] = rw._sparse(t)
            flat = rw._map(t)
            if len(blocks[t]) > 1:
                folded[t] = flat
            columns[t] = _by_column(flat)
    return _CONSTANTS


def _tensor(blocks) -> tuple:
    """A vector's blocks side by side as a value: zero if one is empty, and
    the scalars of blocks of no qubits moved into the last one with qubits."""
    wide, c = [], _ONE
    for block in blocks:
        if not block:
            return ({},)
        s = block.get(_NO_BITS)
        if s is None:
            wide.append(block)
        else:
            c = c * s
    if c is not _ONE:
        wide[-1] = {k: c * s for k, s in wide[-1].items()}
    return tuple(wide)


# --- normal-form collection (the unified_base step) --------------------


def _check_reduced(t: Term) -> None:
    """Raise NotInReducedShape unless t is built by SCALE, ADD and KRON from
    zeros, basis kets and bras, |b><b'| and identities.  A term in shape
    (Term.shaped) passes at once, and the walk skips each subterm in shape,
    so it runs only to name the first dagger or product out of shape."""
    stack, seen = [t], set()
    while stack:
        t = stack.pop()
        if t.shaped or t in seen:
            continue
        seen.add(t)
        if t.kind in (SCALE, ADD, KRON):
            stack.extend(reversed(t.children))
        else:  # a dagger or product; every other leaf is in shape
            what = "irreducible dagger" if t.kind == DAG else "irreducible product"
            raise NotInReducedShape(f"{what}: {render(t)}")


def unified_base(t: Term, fuel: int = DEFAULT_FUEL) -> NormalForm:
    """Collect a fully reduced term into its canonical normal form, on a
    fresh Rewriter with this fuel.  A term in shape (Term.shaped) is
    checked without a walk."""
    _check_reduced(t)
    return Rewriter(fuel)._normalize_sparse(t)


# --- derived tables (G_db, B_db) ---------------------------------------

_SQRT2_SCALAR = Scalar.sqrt2()


def _product_state(summands, side: int) -> Optional[tuple[Scalar, list[str]]]:
    """(c, tokens) with a ket's summands, or a bra's, its bits on `side` of
    the keys, == c .* (t1 # ... # tn), each ti one of "0", "1", "+", "-" for
    |0>, |1>, |+>, |->; decided by comparing amplitudes, never by dividing."""
    if not summands:
        return None
    s0, key = summands[0]
    first = key[side]
    spread = [i for i in range(len(first)) if any(kj[side][i] != first[i] for _, kj in summands)]
    k = len(spread)
    if len(summands) != 1 << k:
        return None
    # The support is every bit combination on the spread positions, and
    # canonical order counts through them in binary: summand j has bits j,
    # so summand 2^(k-1-m) is the one with a 1 at spread[m] only.
    tokens = [str(b) for b in first]
    neg = -s0
    minus_mask = 0
    for m, i in enumerate(spread):
        bit = 1 << (k - 1 - m)
        s = summands[bit][0]
        if s == s0:
            tokens[i] = "+"
        elif s == neg:
            tokens[i] = "-"
            minus_mask |= bit
        else:
            return None
    # every amplitude is s0, negated once per |-> position holding a 1
    for j, (s, _) in enumerate(summands):
        if s != (neg if (j & minus_mask).bit_count() & 1 else s0):
            return None
    c = s0
    for _ in spread:
        c = c * _SQRT2_SCALAR
    return c, tokens


def _block_product_state(nf: NormalForm) -> Optional[tuple[Scalar, list[str]]]:
    """_product_state's (c, tokens) or None, read off a vector normal form's
    blocks, each one qubit, with no flat sum built.  Every block but the last
    leads with 1, so c is the last block's lead times sqrt2 per |+> or |->."""
    side = 1 if nf.dims[0] == 1 else 0
    tokens = []
    c = nf.blocks[-1][0][0]
    for block in nf.blocks:
        (s0, key), *rest = block
        if len(key[side]) != 1:
            return None
        if not rest:
            tokens.append(str(key[side][0]))
            continue
        s1 = rest[0][0]
        if s1 == s0:
            tokens.append("+")
        elif s1 == -s0:
            tokens.append("-")
        else:
            return None
        c = c * _SQRT2_SCALAR
    return c, tokens


_KET_STATES = {"0": ket0(), "1": ket1(), "+": _PLUS, "-": _MINUS}
_BRA_STATES = {"0": dag(ket0()), "1": dag(ket1()), "+": _BRA_PLUS, "-": _BRA_MINUS}
_TABLE_GATES = {gate(name): "G_db" for name in ("X", "Y", "Z", "H", "CX", "CZ", "XC", "SWAP")}
_TABLE_GATES.update({gate(name): "B_db" for name in ("B0", "B1", "B2", "B3")})
# D_db: the dagger of a table state or gate as a table bra, ket or gate, so
# that U^ in U * k * k^ * U^ meets the bra tables; every table gate but B1
# and B2 is self-adjoint
_ADJOINT = {g: g for g in _TABLE_GATES}
_ADJOINT.update({gate("B1"): gate("B2"), gate("B2"): gate("B1"), _PLUS: _BRA_PLUS,
                 _MINUS: _BRA_MINUS, _BRA_PLUS: _PLUS, _BRA_MINUS: _MINUS})


def _one_and_two_qubit(states) -> frozenset:
    return frozenset(states) | {kron(a, b) for a in states for b in states}


_TABLE_KETS = _one_and_two_qubit(_KET_STATES.values())
_TABLE_BRAS = _one_and_two_qubit(_BRA_STATES.values())
# (gate, ket) or (bra, gate) -> entry; the keys are the fixed finite domain
# above, and an entry is computed the first time a product asks for it
_TABLE: dict[tuple[Term, Term], Term] = {}


def _table_entry(a: Term, b: Term) -> Optional[tuple[str, Term]]:
    """("G_db" or "B_db", entry) when a * b is a table gate meeting a table
    ket, or a table bra meeting a table gate; None otherwise.  The entry is
    the sparse evaluator's normal form of a * b, resugared."""
    law = _TABLE_GATES.get(a)
    if law is None or b not in _TABLE_KETS:
        law = _TABLE_GATES.get(b)
        if law is None or a not in _TABLE_BRAS:
            return None
    hit = _TABLE.get((a, b))
    if hit is None:
        hit = _TABLE[(a, b)] = _resugar(Rewriter().normalize(mul(a, b)))
    return law, hit


def _resugar(nf: NormalForm) -> Term:
    """A table entry's term.  A product state is c .* (s1 # ... # sn), each
    si one of |0>, |1>, |+>, |-> or, for a bra, their bras.  Any other state
    is the sum, over its first qubit's basis states b, of its product states
    c_b .* (b # ...), so a sum that L11 distributes again has two summands
    where the flat normal form has up to four; the normal form's own term
    when a part is no product state either."""
    side = 1 if nf.dims[0] == 1 else 0
    states = _BRA_STATES if side else _KET_STATES
    whole = _product_state(nf.summands, side)
    if whole is not None:
        hits = [whole]
    else:
        groups = [[x for x in nf.summands if x[1][side][0] == b] for b in (0, 1)]
        hits = [_product_state(g, side) for g in groups if g]
    if not hits or None in hits:
        return nf.to_term()
    parts = []
    for c, tokens in hits:
        body = kron_all([states[token] for token in tokens])
        parts.append(body if c.is_one() else scale(c, body))
    return add_all(parts)


# --- sugared rendering of normal forms ---------------------------------

@cache
def _known_operator_nfs() -> dict[NormalForm, str]:
    names = ("B0", "B1", "B2", "B3", "X", "Y", "Z", "H", "CX", "CZ", "SWAP", "TOF")
    return {Rewriter().normalize(gate(name)): name for name in names}


def _is_identity(nf: NormalForm) -> bool:
    """Square with exactly the diagonal keys, each with scalar 1; the keys are
    distinct, so counting them suffices."""
    rows, cols = nf.dims
    return rows == cols > 1 and len(nf.summands) == rows and all(
        rbits == cbits and s.is_one() for s, (rbits, cbits) in nf.summands)


def _join_tokens(tokens: list[str], bra: bool) -> str:
    left, right = ("<", "|") if bra else ("|", ">")
    if all(t in ("0", "1") for t in tokens) and len(tokens) > 1:
        return left + ",".join(tokens) + right
    return " # ".join(left + t + right for t in tokens)


def render_nf(nf: NormalForm) -> str:
    rows, cols = nf.dims
    if nf.is_zero():
        return f"O({dim_text(rows)},{dim_text(cols)})"
    if _is_identity(nf):
        return f"I({dim_text(rows)})"
    name = _known_operator_nfs().get(nf)
    if name is not None:
        return name
    if (rows == 1) != (cols == 1):  # a ket or a bra
        if len(nf.blocks) > 1:
            factored = _block_product_state(nf)
        else:
            factored = _product_state(nf.summands, 1 if rows == 1 else 0)
        if factored is not None:
            s, tokens = factored
            body = _join_tokens(tokens, rows == 1)
            if s.is_one():
                return body
            if len(tokens) > 1 and " # " in body:
                body = f"({body})"
            return render_scaled(s, body)
        if prod(map(len, nf.blocks)) > sum(map(len, nf.blocks)):  # fewer summands than the flat sum
            return " # ".join(f"({render_nf(f)})" for f in nf.factors())
    parts = []
    for s, (rbits, cbits) in nf.summands:
        if not rbits and not cbits:
            parts.append(str(s))
            continue
        if cols == 1:
            body = "|" + ",".join(map(str, rbits)) + ">"
        elif rows == 1:
            body = "<" + ",".join(map(str, cbits)) + "|"
        else:  # slot i of |rbits><cbits| is the basis matrix B(2*r_i + c_i)
            k = min(len(rbits), len(cbits))
            body = " # ".join([f"B{2 * b + bp}" for b, bp in zip(rbits, cbits)]
                              + [f"|{b}>" for b in rbits[k:]] + [f"<{b}|" for b in cbits[k:]])
        parts.append(body if s.is_one() else render_scaled(s, body))
    return " + ".join(parts)
