"""Independent dense-matrix evaluators and equivalence predicates.

This module deliberately shares nothing with the rewrite engine beyond the
term module: the Term type and `operands`, which lists the operands of a
chain of sums, products or tensor products.  Terms become plain row-major
complex matrices, and equivalence is decided numerically, entry by entry,
under a few sampled bindings of the free atoms.  Two evaluators produce
those matrices:

- `eval_dense` is the explicit computation, with the straightforward
  O(n^3) kernels: every subterm becomes a full matrix.  It recurses once
  per operand of a chain of sums, products or tensor products, not once
  per link, and folds a product that ends in a vector from that end.  It
  is the baseline `qdirac bench` times against the symbolic engine.
- `Evaluator`, which `mat_equiv` and `obs_equiv` use, makes the same matrices
  with less work: a product applies its left factor to the right factor's
  columns, one through a ket is the outer product of its two vector ends,
  a tensor product acts on them slot by slot, and each small
  subterm is built once per comparison.  The matrices of the library's
  gates and states and their subterms are built once per process by the
  first Evaluator and seed the memo of every later one.

Terms are hash-consed, so one term is one matrix under every binding: a
pair whose two sides are one term is equal unevaluated.  A term's `closed`
bit, set when it is interned, says no atom occurs under it: the atom walk
stops there, closed terms compare under one empty binding, and a closed
subterm's matrix is built once per comparison, not once per binding.
"""

from __future__ import annotations

import cmath
import random
from operator import sub
from typing import NamedTuple, Optional, Sequence

from .errors import DimMismatch
from .term import (
    ADD, DAG, IDENT, KET0, KET1, KRON, MUL, SCALE, ZERO, Term, library_subterms, operands,
)

DEFAULT_TOL = 1e-9
DEFAULT_SAMPLES = 3
DEFAULT_SEED = 42

# Dense evaluation above this dimension is skipped by the corpus runner and
# benchmarks; pure-Python kernels get impractical past a few thousand rows.
DENSE_DIM_LIMIT = 2048


class DenseMatrix:
    """Row-major complex matrix with the handful of ops evaluation needs."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: list[complex]):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dims")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @staticmethod
    def zero(rows: int, cols: int) -> "DenseMatrix":
        return DenseMatrix(rows, cols, [0j] * (rows * cols))

    @staticmethod
    def identity(n: int) -> "DenseMatrix":
        m = DenseMatrix.zero(n, n)
        for i in range(n):
            m.entries[i * n + i] = 1 + 0j
        return m

    def get(self, i: int, j: int) -> complex:
        return self.entries[i * self.cols + j]

    def matmul(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.cols != other.rows:
            raise DimMismatch((self.cols, self.cols), (other.rows, other.cols))
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = [0j] * (n * m)
        for i in range(n):
            row = i * k
            orow = i * m
            for p in range(k):
                v = a[row + p]
                if v == 0:
                    continue
                brow = p * m
                for j in range(m):
                    out[orow + j] += v * b[brow + j]
        return DenseMatrix(n, m, out)

    def add(self, other: "DenseMatrix") -> "DenseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimMismatch((self.rows, self.cols), (other.rows, other.cols))
        return DenseMatrix(
            self.rows, self.cols,
            [x + y for x, y in zip(self.entries, other.entries)],
        )

    def kron(self, other: "DenseMatrix") -> "DenseMatrix":
        r = self.rows * other.rows
        c = self.cols * other.cols
        out = [0j] * (r * c)
        for i1 in range(self.rows):
            for j1 in range(self.cols):
                v = self.entries[i1 * self.cols + j1]
                if v == 0:
                    continue
                for i2 in range(other.rows):
                    base = (i1 * other.rows + i2) * c + j1 * other.cols
                    orow = i2 * other.cols
                    for j2 in range(other.cols):
                        out[base + j2] = v * other.entries[orow + j2]
        return DenseMatrix(r, c, out)

    def dagger(self) -> "DenseMatrix":
        out = [0j] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                out[j * self.rows + i] = self.entries[i * self.cols + j].conjugate()
        return DenseMatrix(self.cols, self.rows, out)

    def scale(self, c: complex) -> "DenseMatrix":
        return DenseMatrix(self.rows, self.cols, [c * x for x in self.entries])

    def approx_eq(self, other: "DenseMatrix", tol: float = DEFAULT_TOL) -> bool:
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return max(map(abs, map(sub, self.entries, other.entries))) <= tol

    def max_abs_index(self) -> tuple[int, int]:
        best, idx = -1.0, 0
        for k, v in enumerate(self.entries):
            a = abs(v)
            if a > best:
                best, idx = a, k
        return divmod(idx, self.cols)


class SampleEnv(NamedTuple):
    """One random binding of every free atom; conjugate atoms pair up."""

    bindings: dict[str, complex]
    seed: int

    @staticmethod
    def sample(variables: set[str], angles: set[str], seed: int,
               norm_pairs: tuple[tuple[str, str], ...] = ()) -> "SampleEnv":
        rng = random.Random(seed)
        bindings: dict[str, complex] = {}
        constrained = {n for pair in norm_pairs for n in pair}
        for name in sorted(variables - constrained):
            bindings[name] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for a, b in norm_pairs:
            va = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            vb = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            norm = (abs(va) ** 2 + abs(vb) ** 2) ** 0.5
            if norm < 1e-6:
                va, vb = 1 + 0j, 0j
                norm = 1.0
            bindings[a] = va / norm
            bindings[b] = vb / norm
        for name in sorted(angles):
            bindings[name] = complex(rng.uniform(0, 2 * cmath.pi), 0.0)
        return SampleEnv(bindings, seed)


def collect_atoms(*terms: Term) -> tuple[set[str], set[str]]:
    """All (variable, phase-angle) atom names under Scale nodes of the terms,
    found in one walk, so a subterm they share is visited once; the walk
    stops at a closed subterm, which holds no atom."""
    variables: set[str] = set()
    angles: set[str] = set()
    stack = list(terms)
    seen = set()
    while stack:
        cur = stack.pop()
        if cur.closed or cur in seen:
            continue
        seen.add(cur)
        if cur.kind == SCALE:
            v, a = cur.payload.atoms()
            variables |= v
            angles |= a
        stack.extend(cur.children)
    return variables, angles


_COMBINE = {MUL: DenseMatrix.matmul, ADD: DenseMatrix.add, KRON: DenseMatrix.kron}


def eval_dense(t: Term, env: SampleEnv | None = None) -> DenseMatrix:
    env = env or SampleEnv({}, 0)
    kind = t.kind
    if kind == KET0:
        return DenseMatrix(2, 1, [1 + 0j, 0j])
    if kind == KET1:
        return DenseMatrix(2, 1, [0j, 1 + 0j])
    if kind == ZERO:
        return DenseMatrix.zero(t.rows, t.cols)
    if kind == IDENT:
        return DenseMatrix.identity(t.payload)
    if kind == SCALE:
        return eval_dense(t.children[0], env).scale(t.payload.evaluate(env.bindings))
    if kind == DAG:
        return eval_dense(t.children[0], env).dagger()
    # a chain, nested either way, recurses once per operand, not per link
    parts = operands(t)
    if kind == MUL and parts[-1].cols == 1:  # from the vector end
        out = eval_dense(parts[-1], env)
        for u in reversed(parts[:-1]):
            out = eval_dense(u, env).matmul(out)
        return out
    combine = _COMBINE[kind]
    out = eval_dense(parts[0], env)
    for u in parts[1:]:
        out = combine(out, eval_dense(u, env))
    return out


def envs_for(terms: Sequence[Term], samples: Optional[int], seed: int,
             norm_pairs: tuple[tuple[str, str], ...]) -> list[SampleEnv]:
    """The bindings a comparison of the terms runs under: one empty binding
    when every term is closed and there are no hypotheses, else `samples`
    seeded ones."""
    if not norm_pairs and all(t.closed for t in terms):
        return [SampleEnv({}, seed)]
    variables, angles = collect_atoms(*terms)
    n = samples if samples is not None else DEFAULT_SAMPLES
    return [
        SampleEnv.sample(variables, angles, seed + k, norm_pairs) for k in range(n)
    ]


# Subterms with at most this many entries are built once per comparison.
SMALL_ENTRIES = 64


def _swap_blocks(x: list[complex], r: int, c: int, m: int) -> list[complex]:
    """x read as an r x c grid of m-entry blocks, written out as the c x r grid."""
    if r == 1 or c == 1:  # one row or one column of blocks: the order stays
        return x
    if m == 1:
        return [v for k in range(c) for v in x[k::c]]
    out: list[complex] = []
    for k in range(c):
        for i in range(r):
            s = (i * c + k) * m
            out += x[s:s + m]
    return out


class Evaluator:
    """The matrices of one comparison's terms under each sampled binding.

    `matrix(t)` builds t.  `act(t, m)` applies t, or its adjoint, to the
    columns of m without building t: a product applies its factors one by
    one and a tensor product acts slot by slot, so no Kronecker product of
    large factors is formed.  The matrix of each subterm with at most
    SMALL_ENTRIES entries is built once: a closed one for the whole
    comparison, and any other once per `bind`.  The closed memo starts as a
    copy of the library's matrices (_library), built once per process.
    """

    def __init__(self):
        self.shared: dict[Term, DenseMatrix] = dict(_library())
        self.local: dict[Term, DenseMatrix] = {}
        self.bindings: dict[str, complex] = {}

    def bind(self, env: SampleEnv) -> None:
        self.bindings = env.bindings
        self.local = {}

    def matrix(self, t: Term) -> DenseMatrix:
        small = t.rows * t.cols <= SMALL_ENTRIES
        if small:
            memo = self.shared if t.closed else self.local
            m = memo.get(t)
            if m is not None:
                return m
        kind = t.kind
        if kind == MUL:  # from the vector end: the first ket, or the last operand
            parts = operands(t)
            k = next((i for i, f in enumerate(parts) if f.cols == 1), len(parts) - 1)
            m = self.matrix(parts[k])
            for f in reversed(parts[:k]):
                m = self.act(f, m)
            if k + 1 < len(parts):  # through a ket: the outer product of the vector ends,
                bra, w = parts[k + 1:], DenseMatrix(1, 1, [1 + 0j])  # the bra's as a column
                if len(bra) == 1 and bra[0].kind == DAG and bra[0].children[0] is t.children[0]:
                    bra, w = (), m  # density(v): v's column, built once
                for f in bra:
                    w = self.act(f, w, adjoint=True)
                w = [y.conjugate() for y in w.entries]
                m = DenseMatrix(m.rows, len(w), [x * y for x in m.entries for y in w])
        elif kind == ADD:
            first, *rest = operands(t)
            m = self.matrix(first)
            for u in rest:
                m = m.add(self.matrix(u))
        elif kind == KRON:
            m = self.matrix(t.children[0]).kron(self.matrix(t.children[1]))
        elif kind == SCALE:
            m = self.matrix(t.children[0]).scale(t.payload.evaluate(self.bindings))
        elif kind == DAG:
            m = self.matrix(t.children[0]).dagger()
        else:  # a leaf
            m = eval_dense(t)
        if small:
            memo[t] = m
        return m

    def act(self, t: Term, m: DenseMatrix, adjoint: bool = False) -> DenseMatrix:
        """t * m, or t^ * m when adjoint is set."""
        if t.rows * t.cols <= SMALL_ENTRIES:
            s = self.matrix(t)
            return (s.dagger() if adjoint else s).matmul(m)
        kind = t.kind
        if kind == MUL:
            factors = operands(t)
            # right to left, or, for the adjoint (f1 * ... * fk)^ = fk^ * ... * f1^
            for f in (factors if adjoint else reversed(factors)):
                m = self.act(f, m, adjoint)
            return m
        if kind == DAG:
            return self.act(t.children[0], m, not adjoint)
        if kind == SCALE:
            c = t.payload.evaluate(self.bindings)
            return self.act(t.children[0], m, adjoint).scale(c.conjugate() if adjoint else c)
        if kind == ADD:
            first, *rest = operands(t)
            out = self.act(first, m, adjoint)
            for u in rest:
                out = out.add(self.act(u, m, adjoint))
            return out
        if kind == IDENT:
            return m
        if kind == ZERO:
            return DenseMatrix.zero(t.cols if adjoint else t.rows, m.cols)
        # KRON: a row of m is an index per slot.  Apply each factor to its
        # slot in turn: move the slot index to the front, act, move it back.
        # One loop, so only the current block and the next are alive.
        w = m.cols
        done, todo = 1, m.rows  # row counts of the slots applied and still to apply
        for f in operands(t):
            f_in, f_out = (f.rows, f.cols) if adjoint else (f.cols, f.rows)
            todo //= f_in
            rest = todo * w
            m = self.act(f, DenseMatrix(f_in, done * rest,
                                        _swap_blocks(m.entries, done, f_in, rest)), adjoint)
            m = DenseMatrix(done * f_out * todo, w, _swap_blocks(m.entries, f_out, done, rest))
            done *= f_out
        return m


# Each gate and state of the term library, and every subterm under them
# (library_subterms), mapped to its matrix: at most SMALL_ENTRIES entries,
# closed.  Every Evaluator's memo of closed matrices starts as a
# copy of it.  Filled once per process, when the first Evaluator is made, by
# a private Evaluator that starts from it empty.  The matrices are shared, so
# no caller may mutate one.
_LIBRARY: Optional[dict[Term, DenseMatrix]] = None


def _library() -> dict[Term, DenseMatrix]:
    global _LIBRARY
    if _LIBRARY is None:
        _LIBRARY = table = {}
        ev = Evaluator()
        for t in library_subterms():
            table[t] = ev.matrix(t)
    return _LIBRARY


def mat_equiv(a: Term | Sequence[Term], b: Term | Sequence[Term],
              samples: Optional[int] = None, tol: float = DEFAULT_TOL,
              seed: int = DEFAULT_SEED,
              norm_pairs: tuple[tuple[str, str], ...] = ()) -> bool:
    """Entrywise numeric equality of a and b, sampled over free atoms.

    a and b may also be sequences of terms of equal length, equal when each
    pair is.  A pair whose sides are one term is equal and left out first;
    the others share one Evaluator and bindings sampled from the atoms of
    them all, so a subterm several pairs hold is built once per binding."""
    if isinstance(a, Term):
        a, b = (a,), (b,)
    if len(a) != len(b):
        raise ValueError(f"comparing {len(a)} terms with {len(b)}")
    for x, y in zip(a, b):
        if x.dims != y.dims:
            raise DimMismatch(x.dims, y.dims)
    pairs = [(x, y) for x, y in zip(a, b) if x is not y]
    if not pairs:
        return True
    ev = Evaluator()
    for env in envs_for([t for pair in pairs for t in pair], samples, seed, norm_pairs):
        ev.bind(env)
        if not all(ev.matrix(x).approx_eq(ev.matrix(y), tol) for x, y in pairs):
            return False
    return True


class ObsResult(NamedTuple):
    equivalent: bool
    phase: complex | None = None
    witness: tuple[int, int, complex, complex] | None = None

    def __str__(self):
        if self.equivalent:
            p = self.phase
            return f"Equivalent(phase={p.real:+.6f}{p.imag:+.6f}i)"
        i, j, x, y = self.witness
        return f"NotEquivalent(entry ({i},{j}): {x:.6g} vs {y:.6g})"


def obs_equiv(a: Term, b: Term, samples: Optional[int] = None,
              tol: float = DEFAULT_TOL, seed: int = DEFAULT_SEED,
              norm_pairs: tuple[tuple[str, str], ...] = ()) -> ObsResult:
    """Equality up to a single global phase of unit modulus; a term is
    equivalent to itself with phase 1, unevaluated."""
    if a.dims != b.dims:
        raise DimMismatch(a.dims, b.dims)
    if a is b:
        return ObsResult(True, phase=1 + 0j)
    phase: complex | None = None
    ev = Evaluator()
    for env in envs_for((a, b), samples, seed, norm_pairs):
        ev.bind(env)
        ma = ev.matrix(a)
        mb = ev.matrix(b)
        i, j = ma.max_abs_index()
        xa, xb = ma.get(i, j), mb.get(i, j)
        if abs(xa) <= tol:
            if mb.approx_eq(DenseMatrix.zero(b.rows, b.cols), tol):
                c = 1 + 0j
            else:
                i, j = mb.max_abs_index()
                return ObsResult(False, witness=(i, j, xa, mb.get(i, j)))
        else:
            c = xb / xa
        if abs(abs(c) - 1) > tol:
            return ObsResult(False, witness=(i, j, xa, xb))
        if not ma.scale(c).approx_eq(mb, tol):
            diffs = [
                (abs(x * c - y), k)
                for k, (x, y) in enumerate(zip(ma.entries, mb.entries))
            ]
            _, k = max(diffs)
            wi, wj = divmod(k, ma.cols)
            return ObsResult(False, witness=(wi, wj, ma.get(wi, wj), mb.get(wi, wj)))
        if phase is None:
            phase = c
        elif abs(phase - c) > 10 * tol:
            return ObsResult(False, witness=(i, j, xa, xb))
    return ObsResult(True, phase=phase if phase is not None else 1 + 0j)
