"""A numpy evaluator for terms, kept apart from the engine under test.

It shares only the parser's term tree, the gate library and
`Scalar.evaluate` with the program.  Products are applied right to left to
a block of columns, and a tensor product acts on a reshaped block one
factor at a time, so identity factors are never built: a 16-qubit GHZ
ladder costs a few vectors of 2^16 entries, not 2^16 x 2^16 matrices.
"""

from __future__ import annotations

import cmath
import random

import numpy as np

from qdirac.parser import parse
from qdirac.term import ADD, DAG, IDENT, KET0, KET1, KRON, MUL, SCALE, ZERO, Term

TOL = 1e-9
_S = 2 ** -0.5


def environments(seed: int, count: int = 2) -> list[dict[str, complex]]:
    """Bindings for the atoms the inputs use: a and b with |a|^2 + |b|^2 = 1
    (so the corpus's norm(a,b) hypothesis holds) and the angle u."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        norm = abs(complex(abs(a), abs(b)))
        out.append({"a": a / norm, "b": b / norm,
                    "u": complex(rng.uniform(0, 2 * cmath.pi), 0)})
    return out


def _spine(t: Term, kind: str) -> list[Term]:
    """The operands of a chain of one binary kind, left to right."""
    out, stack = [], [t]
    while stack:
        cur = stack.pop()
        if cur.kind == kind:
            stack += [cur.children[1], cur.children[0]]
        else:
            out.append(cur)
    return out


def apply(t: Term, m: np.ndarray, env: dict[str, complex]) -> np.ndarray:
    """The matrix of t times m, for m of shape (t.cols, k)."""
    kind = t.kind
    if kind == KET0:
        return np.vstack([m, np.zeros_like(m)])
    if kind == KET1:
        return np.vstack([np.zeros_like(m), m])
    if kind == ZERO:
        return np.zeros((t.rows, m.shape[1]), dtype=complex)
    if kind == IDENT:
        return m
    if kind == SCALE:
        return t.payload.evaluate(env) * apply(t.children[0], m, env)
    if kind == DAG:
        inner = t.children[0]
        return dense(inner, env).conj().T @ m
    if kind == ADD:
        return sum(apply(x, m, env) for x in _spine(t, ADD))
    if kind == MUL:
        for x in reversed(_spine(t, MUL)):
            m = apply(x, m, env)
        return m
    if kind == KRON:
        a, b = t.children
        k = m.shape[1]
        # (A # B) m: apply B to the middle axis of m as (a.cols, b.cols, k),
        # then A to the first.
        x = m.reshape(a.cols, b.cols, k).transpose(1, 0, 2).reshape(b.cols, a.cols * k)
        x = apply(b, x, env).reshape(b.rows, a.cols, k).transpose(1, 0, 2)
        x = apply(a, x.reshape(a.cols, b.rows * k), env)
        return x.reshape(a.rows * b.rows, k)
    raise ValueError(f"unknown node kind {kind}")


def dense(t: Term, env: dict[str, complex]) -> np.ndarray:
    return apply(t, np.eye(t.cols, dtype=complex), env)


def equal(x: np.ndarray, y: np.ndarray) -> bool:
    return x.shape == y.shape and bool(np.allclose(x, y, rtol=0, atol=TOL))


def equal_up_to_phase(x: np.ndarray, y: np.ndarray) -> bool:
    """y = c x for one constant c of modulus 1."""
    if x.shape != y.shape:
        return False
    k = np.unravel_index(np.argmax(np.abs(x)), x.shape)
    if abs(x[k]) <= TOL:
        return equal(y, np.zeros_like(y))
    c = y[k] / x[k]
    return abs(abs(c) - 1) <= TOL and equal(c * x, y)


def holds(kind: str, lhs: Term, rhs: Term, envs) -> bool:
    """Reference verdict of a term-level assertion under every environment."""
    same = equal_up_to_phase if kind == "OBS" else equal
    return all(same(dense(lhs, env), dense(rhs, env)) for env in envs)


def self_test() -> None:
    """Compare the evaluator with hand-written matrices; raise on a mismatch."""
    cases = {
        "X": [[0, 1], [1, 0]],
        "H": [[_S, _S], [_S, -_S]],
        "CX": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        "|+>": [[_S], [_S]],
        "X # H": [[0, 0, _S, _S], [0, 0, _S, -_S], [_S, _S, 0, 0], [_S, -_S, 0, 0]],
        "<1| * (X * |0>)": [[1]],
    }
    for src, want in cases.items():
        got = dense(parse(src), {})
        if not equal(got, np.array(want, dtype=complex)):
            raise AssertionError(f"reference evaluator is wrong on {src}:\n{got}")
