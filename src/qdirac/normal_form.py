"""The canonical normal form of a term's value and the factorization that
makes it canonical.  The rewriter builds normal forms; any other module
reads one through its methods."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from math import prod
from typing import Optional

from .errors import FuelExhausted, NonInvertibleScalar, NotAnOperator, show_dim
from .scalar import Scalar
from .term import Term, add_all, dag, identity, ket0, ket1, kron_all, mul, scale, zero

DEFAULT_FUEL = 10 ** 6

_ONE = Scalar.one()

Block = tuple[tuple[Scalar, tuple[tuple[int, ...], tuple[int, ...]]], ...]


@dataclass(frozen=True)
class NormalForm:
    """Canonical sum of scalar-weighted basis matrices |rbits><cbits|, kept
    as a tensor product of blocks: sorted tuples of summands (scalar,
    (rbits, cbits)), the evaluator's keys, which concatenate left to right
    into the keys of the whole.  A vector (2^n x 1 or 1 x 2^n, n >= 1)
    whose pivot, its first nonzero coefficient in key order, is invertible
    is split into its finest factorization over contiguous qubits, every
    block but the last leading with 1; any other normal form is one block.
    The form depends only on the denotation, so two of one shape are equal
    exactly when their matrices are.  `summands` is the flat sum in key
    order, the row-major order of the entries, built on first use."""

    dims: tuple[int, int]
    blocks: tuple[Block, ...]

    @cached_property
    def summands(self) -> Block:
        if len(self.blocks) == 1:
            return self.blocks[0]
        size = prod(map(len, self.blocks))
        if size > DEFAULT_FUEL:  # refused before it is built, as the evaluator's map would be
            raise FuelExhausted(DEFAULT_FUEL, f"flat normal form {show_dim(self.dims[0])}x"
                                              f"{show_dim(self.dims[1])} ({size} summands)")
        return tuple(self.walk())

    def walk(self):
        """The summands in key order, with no flat sum built: the blocks
        before the last are combined like an odometer's digits, each
        prefix's scalar and key kept, and extended by the last block's."""
        *heads, last = self.blocks
        k = len(heads)
        idx = [0] * k
        prefix = [(_ONE, (), ())]  # prefix[i]: heads[:i] combined at idx
        for i in range(k):
            prefix.append(_extend(prefix[i], heads[i][0]))
        while True:
            s, rbits, cbits = prefix[k]
            for sb, (rb, cb) in last:
                yield s * sb, (rbits + rb, cbits + cb)
            i = k - 1
            while i >= 0 and idx[i] + 1 == len(heads[i]):
                idx[i] = 0
                i -= 1
            if i < 0:
                return
            idx[i] += 1
            for j in range(i, k):
                prefix[j + 1] = _extend(prefix[j], heads[j][idx[j]])

    def is_zero(self) -> bool:
        return not self.blocks[0]

    def factors(self) -> tuple[NormalForm, ...]:
        """Each block as a normal form of its own, of the dims its keys give;
        a one-block normal form is its only factor."""
        if len(self.blocks) == 1:
            return (self,)
        return tuple(NormalForm(tuple(2 ** len(k) for k in b[0][1]), (b,)) for b in self.blocks)

    def norm_squared(self) -> Scalar:
        """The sum of s * s^* over the summands: the product of the blocks'
        own, so a factored vector costs its width."""
        p = _ONE
        for block in self.blocks:
            p = p * sum((s * s.conj() for s, _ in block), Scalar.zero())
        return p

    def first_difference(self, other: NormalForm) -> Optional[tuple[tuple, Scalar, Scalar]]:
        """(key, s, t): the first key, in row-major order, where self's
        scalar s and other's t differ, a missing summand read as 0, or None.
        Both are walked, no flat sum built, for up to DEFAULT_FUEL summands
        in all; past that, FuelExhausted."""
        zero_ = Scalar.zero()
        pairs = zip_longest(self.walk(), other.walk(), fillvalue=(zero_, None))
        for walked, ((sa, ka), (sb, kb)) in enumerate(pairs):
            if 2 * walked >= DEFAULT_FUEL:
                raise FuelExhausted(DEFAULT_FUEL, f"{2 * walked} summands walked")
            if ka != kb:  # the smaller key is a summand the other side lacks
                return (ka, sa, zero_) if kb is None or (ka is not None and ka < kb) \
                    else (kb, zero_, sb)
            if sa != sb:
                return ka, sa, sb
        return None

    def proportional(self, other: NormalForm, ratio_test) -> bool:
        """Whether other is self scaled: the dims and the blocks before the
        last agree, the last blocks have the same keys, and ratio_test(x0,
        y0) on their first scalars gives a test, not None, that each pair of
        scalars passes.  A vector whose pivot holds an atom is one block, so
        where the block counts differ, the flat sums are paired instead,
        walked only up to the first key or pair that fails."""
        blocked = len(self.blocks) == len(other.blocks)
        if self.dims != other.dims or blocked and self.blocks[:-1] != other.blocks[:-1]:
            return False
        xs, ys = (self.blocks[-1], other.blocks[-1]) if blocked else (self.walk(), other.walk())
        test = None
        for (sx, kx), (sy, ky) in zip_longest(xs, ys, fillvalue=(None, None)):
            if kx != ky:
                return False
            test = test or ratio_test(sx, sy)
            if test is None or not test(sx, sy):
                return False
        return True

    def to_term(self) -> Term:
        if not self.summands:
            return zero(*self.dims)
        kets, bras = (ket0(), ket1()), (dag(ket0()), dag(ket1()))
        parts = []
        for s, (rbits, cbits) in self.summands:
            # per-slot |b><b'| first, then the leftover kets, then the leftover bras
            k = min(len(rbits), len(cbits))
            factors = [mul(kets[b], bras[bp]) for b, bp in zip(rbits, cbits)]
            factors += [kets[b] for b in rbits[k:]] + [bras[b] for b in cbits[k:]]
            body = kron_all(factors) if factors else identity(1)
            parts.append(body if s.is_one() else scale(s, body))
        return add_all(parts)

    def trace(self) -> Scalar:
        """Sum of the diagonal summands, those whose row bits equal their column bits."""
        if self.dims[0] != self.dims[1]:
            raise NotAnOperator("trace of a non-operator normal form")
        return sum((s for s, (rbits, cbits) in self.summands if rbits == cbits), Scalar.zero())

    def apply_norm_hypothesis(self, pairs) -> NormalForm:
        """Rewrite every scalar under the hypotheses |a|^2 + |b|^2 = 1; a pair
        fires only where both its atoms occur, and with none the blocks stay."""
        if pairs:
            names = {name for block in self.blocks for s, _ in block for name in s.atoms()[0]}
            pairs = [(a, b) for a, b in pairs if a in names and b in names]
        if not pairs:
            return self
        items = {}
        for s, key in self.summands:
            s = s.apply_norm_hypothesis(pairs)
            if not s.is_zero():
                items[key] = s
        return canonical(self.dims, (items,))


def _extend(prefix: tuple, summand: tuple) -> tuple:
    """A walk prefix (scalar, rbits, cbits) times one block summand."""
    s, rbits, cbits = prefix
    sb, (rb, cb) = summand
    return s * sb, rbits + rb, cbits + cb


def inverse(s: Scalar) -> Optional[Scalar]:
    """s's inverse, or None where Scalar.reciprocal has none (a variable
    atom, or a sum)."""
    try:
        return s.reciprocal()
    except NonInvertibleScalar:
        return None


def _split(entries: list, side: int, cut: int, p_inv: Scalar) -> Optional[tuple[list, list]]:
    """(L, R) with entries == L (x) R, cut after the first `cut` bits of the
    keys' vector side, or None where they do not separate there.  entries
    is a vector block as a list of summands (scalar, key) in key order; L
    leads with 1 and R with the block's pivot, whose inverse p_inv is the
    only scalar divided by.  In key order the block is a matrix of rows,
    one per prefix: each row must have the first row's suffixes, and each
    coefficient M[a+b] must equal L[a] * R[b], with L[a] = M[a+b0] * p_inv
    and R[b] = M[a0+b]."""
    n = len(entries)
    a0, b0 = entries[0][1][side][:cut], entries[0][1][side][cut:]
    width = 1
    while width < n and entries[width][1][side][:cut] == a0:
        width += 1
    if n % width:
        return None
    for start in range(width, n, width):  # each row starts where the first does
        if entries[start][1][side][cut:] != b0:
            return None
    right = [(s, key[side][cut:]) for s, key in entries[:width]]
    left = [(_ONE, a0)]
    for start in range(width, n, width):
        a = entries[start][1][side][:cut]
        la = entries[start][0] * p_inv
        for (s, key), (r, b) in zip(entries[start:start + width], right):
            if key[side][:cut] != a or key[side][cut:] != b or la * r != s:
                return None
        left.append((la, a))
    if side:
        return [(s, ((), a)) for s, a in left], [(s, ((), b)) for s, b in right]
    return [(s, (a, ())) for s, a in left], [(s, (b, ())) for s, b in right]


def split_at(entries: list, side: int, cuts, p_inv: Optional[Scalar]) -> list[list]:
    """A vector block, its summands in key order, split at each of the
    increasing bit positions `cuts` where it separates; p_inv is the
    inverse of its pivot, and with None it is not split at all."""
    if p_inv is None:
        return [entries]
    pieces, done = [], 0
    for cut in cuts:
        parts = _split(entries, side, cut - done, p_inv)
        if parts is not None:
            pieces.append(parts[0])
            entries, done = parts[1], cut
    pieces.append(entries)
    return pieces


def canonical(dims: tuple[int, int], blocks) -> Optional[NormalForm]:
    """The normal form of the tensor product of `blocks`, maps from
    (rbits, cbits) to nonzero scalars, zero being one empty block.  A
    vector is split at every cut where it separates, when its pivot is
    invertible, and every block but the last is scaled to lead with 1.
    None for a vector of several blocks one of whose pivots is not
    invertible: its normal form is its flat map, one block."""
    rows, cols = dims
    if (rows == 1) == (cols == 1) or not blocks[0]:  # an operator, a 1x1 or zero
        (block,) = blocks
        return NormalForm(dims, (tuple([(s, key) for key, s in sorted(block.items())]),))
    side = 1 if rows == 1 else 0  # the half of the keys that holds a vector's bits
    pieces, lead, last = [], _ONE, len(blocks) - 1
    for k, block in enumerate(blocks):
        entries = [(s, key) for key, s in sorted(block.items())]
        p = entries[0][0]
        p_inv = p if p is _ONE else inverse(p)
        if p_inv is None and last:
            return None
        width = len(entries[0][1][side])
        parts = split_at(entries, side, range(1, width), p_inv) if width > 1 else [entries]
        if k < last and p is not _ONE:  # the pivot moves to the last block
            parts[-1] = [(s * p_inv, key) for s, key in parts[-1]]
            lead = lead * p
        pieces += parts
    if lead is not _ONE:
        pieces[-1] = [(s * lead, key) for s, key in pieces[-1]]
    return NormalForm(dims, tuple(map(tuple, pieces)))
