"""Shared random generators and helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from qdirac.scalar import Coefficient, Scalar
from qdirac.term import (
    add, dag, gate, identity, ket0, ket1, kron, kron_all, mul, scale, zero,
)

REPO_DIR = Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO_DIR / "corpus"

_SINGLE_GATES = ("X", "Y", "Z", "H", "B0", "B1", "B2", "B3")
_STATES_1Q = ("|0>", "|1>", "|+>", "|->")


def subterms(roots) -> set:
    """The terms roots and every subterm under them, each once."""
    out, stack = set(), list(roots)
    while stack:
        t = stack.pop()
        if t not in out:
            out.add(t)
            stack.extend(t.children)
    return out


def rand_coeff(rng: random.Random) -> Scalar:
    choice = rng.randrange(6)
    if choice == 0:
        return Scalar.rational(rng.randint(-3, 3) or 1, rng.randint(1, 4))
    if choice == 1:
        return Scalar.i()
    if choice == 2:
        return Scalar.inv_sqrt2()
    if choice == 3:
        return Scalar.sqrt2()
    if choice == 4:
        return Scalar.from_coeff(Coefficient(Fraction(3, 5), Fraction(4, 5)))
    return Scalar.rational(-1)


def rand_scalar(rng: random.Random, closed: bool = True) -> Scalar:
    s = rand_coeff(rng)
    if not closed:
        extra = rng.randrange(4)
        if extra == 0:
            s = s * Scalar.var("a")
        elif extra == 1:
            s = s * Scalar.conj_var("b")
        elif extra == 2:
            s = s * Scalar.phase("u", rng.choice((-1, 1)))
    if rng.random() < 0.3:
        s = s + rand_coeff(rng)
    return s


def _leaf_state(rng: random.Random) -> "Term":
    name = rng.choice(_STATES_1Q)
    if name == "|0>":
        return ket0()
    if name == "|1>":
        return ket1()
    return gate("ket_plus" if name == "|+>" else "ket_minus")


def rand_state(rng: random.Random, qubits: int, depth: int = 2,
               closed: bool = True):
    """A random well-formed column-vector term on the given qubit count."""
    if depth <= 0 or rng.random() < 0.25:
        return kron_all([_leaf_state(rng) for _ in range(qubits)])
    choice = rng.randrange(4)
    if choice == 0:
        a = rand_state(rng, qubits, depth - 1, closed)
        b = rand_state(rng, qubits, depth - 1, closed)
        return add(a, b)
    if choice == 1:
        return scale(rand_scalar(rng, closed), rand_state(rng, qubits, depth - 1, closed))
    if choice == 2 and qubits >= 2:
        split = rng.randint(1, qubits - 1)
        return kron(rand_state(rng, split, depth - 1, closed),
                    rand_state(rng, qubits - split, depth - 1, closed))
    return mul(rand_op(rng, qubits, depth - 1, closed),
               rand_state(rng, qubits, depth - 1, closed))


def rand_op(rng: random.Random, qubits: int, depth: int = 2, closed: bool = True):
    """A random well-formed square-operator term on the given qubit count."""
    if depth <= 0 or rng.random() < 0.25:
        parts = []
        remaining = qubits
        while remaining > 0:
            if remaining >= 2 and rng.random() < 0.3:
                parts.append(gate(rng.choice(("CX", "XC", "SWAP", "CZ"))))
                remaining -= 2
            elif rng.random() < 0.1:
                parts.append(identity(2))
                remaining -= 1
            else:
                parts.append(gate(rng.choice(_SINGLE_GATES)))
                remaining -= 1
        return kron_all(parts)
    choice = rng.randrange(5)
    if choice == 0:
        return add(rand_op(rng, qubits, depth - 1, closed),
                   rand_op(rng, qubits, depth - 1, closed))
    if choice == 1:
        return scale(rand_scalar(rng, closed), rand_op(rng, qubits, depth - 1, closed))
    if choice == 2:
        return mul(rand_op(rng, qubits, depth - 1, closed),
                   rand_op(rng, qubits, depth - 1, closed))
    if choice == 3:
        return dag(rand_op(rng, qubits, depth - 1, closed))
    if qubits >= 2:
        split = rng.randint(1, qubits - 1)
        return kron(rand_op(rng, split, depth - 1, closed),
                    rand_op(rng, qubits - split, depth - 1, closed))
    return rand_op(rng, qubits, depth - 1, closed)


def rand_term(rng: random.Random, max_qubits: int = 3, closed: bool = True):
    """A random vector or operator term, occasionally with zero blocks."""
    qubits = rng.randint(1, max_qubits)
    if rng.random() < 0.07:
        n = 2 ** qubits
        return zero(n, 1) if rng.random() < 0.5 else zero(n, n)
    if rng.random() < 0.5:
        return rand_state(rng, qubits, closed=closed)
    return rand_op(rng, qubits, closed=closed)


def rand_layer(rng: random.Random, qubits: int, closed: bool = True):
    """A tensor layer: I(2^k) blocks with k >= 2, one- and two-qubit gates,
    some factors daggered or scaled, nested either way."""
    parts = []
    remaining = qubits
    while remaining > 0:
        r = rng.random()
        if remaining >= 2 and r < 0.3:
            k = rng.randint(2, remaining)
            parts.append(identity(2 ** k))
            remaining -= k
            continue
        if remaining >= 2 and r < 0.6:
            part = gate(rng.choice(("CX", "XC", "SWAP", "CZ")))
            remaining -= 2
        else:
            part = gate(rng.choice(_SINGLE_GATES))
            remaining -= 1
        r = rng.random()
        if r < 0.15:
            part = dag(part)
        elif r < 0.3:
            part = scale(rand_scalar(rng, closed), part)
        parts.append(part)
    if len(parts) == 1:
        return parts[0]
    if rng.random() < 0.5:
        return kron_all(parts)
    out = parts[0]
    for p in parts[1:]:
        out = kron(out, p)
    return out


def rand_circuit(rng: random.Random, qubits: int, closed: bool = True):
    """Random layers applied to a product or summed ket, or to one another.

    Consecutive layers split the qubits at independent points, so two-qubit
    gates and identity blocks straddle each other's boundaries as often as
    they line up; a whole layer is sometimes daggered or scaled.
    """
    layers = []
    for _ in range(rng.choice((1, 1, 2, 3))):
        layer = rand_layer(rng, qubits, closed)
        r = rng.random()
        if r < 0.1:
            layer = dag(layer)
        elif r < 0.2:
            layer = scale(rand_scalar(rng, closed), layer)
        layers.append(layer)
    if rng.random() < 0.25:
        layers.append(rand_layer(rng, qubits, closed))
    else:
        state = kron_all([_leaf_state(rng) for _ in range(qubits)])
        if rng.random() < 0.4:
            other = kron_all([_leaf_state(rng) for _ in range(qubits)])
            state = add(state, scale(rand_scalar(rng, closed), other))
        layers.append(state)
    if rng.random() < 0.5:
        out = layers[-1]
        for layer in reversed(layers[:-1]):
            out = mul(layer, out)
        return out
    out = layers[0]
    for layer in layers[1:]:
        out = mul(out, layer)
    return out
