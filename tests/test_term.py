"""Term IR: dimension discipline, interning, and the gate library."""

from __future__ import annotations

import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from qdirac.errors import DimMismatch, ParseError, UnknownGate
from qdirac.oracle import DenseMatrix, SampleEnv, eval_dense, mat_equiv
from qdirac.term import (
    ADD, KRON, MUL, SCALE, add, add_all, ce, dag, gate, identity, ket0, ket1, ket_string, kron, kron_n,
    mea, mul, operands, render, render_head, scale, uf, zero,
)
from qdirac.parser import parse, parse_scalar
from qdirac.scalar import Scalar

from conftest import rand_term, subterms

S2 = 1 / math.sqrt(2)

EXPLICIT = {
    "X": [[0, 1], [1, 0]],
    "Y": [[0, -1j], [1j, 0]],
    "Z": [[1, 0], [0, -1]],
    "H": [[S2, S2], [S2, -S2]],
    "B0": [[1, 0], [0, 0]],
    "B1": [[0, 1], [0, 0]],
    "B2": [[0, 0], [1, 0]],
    "B3": [[0, 0], [0, 1]],
    "CX": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    "XC": [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
    "SWAP": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    "CZ": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
}

UNITARIES = ("X", "Y", "Z", "H", "CX", "XC", "SWAP", "CZ", "TOF",
             "not_CX", "CXX", "CIX", "CPS")


def _matrix(t):
    m = eval_dense(t)
    return [[m.get(i, j) for j in range(m.cols)] for i in range(m.rows)]


def test_basic_dims():
    assert ket0().dims == (2, 1)
    assert kron(ket0(), ket0()).dims == (4, 1)
    assert mul(gate("H"), ket0()).dims == (2, 1)
    assert dag(ket0()).dims == (1, 2)
    assert identity(4).dims == (4, 4)
    assert zero(2, 8).dims == (2, 8)


def test_dim_mismatch_at_construction():
    with pytest.raises(DimMismatch):
        mul(ket0(), ket0())
    with pytest.raises(DimMismatch):
        add(ket0(), identity(2))
    with pytest.raises(DimMismatch):
        mul(gate("CX"), ket0())
    # every dim is a power of two
    for bad in (lambda: identity(3), lambda: identity(0), lambda: zero(3, 2), lambda: zero(2, 6)):
        with pytest.raises(DimMismatch, match="power-of-two"):
            bad()


def test_interning_makes_equal_terms_identical():
    a = mul(kron(gate("H"), gate("H")), kron(ket0(), ket1()))
    b = mul(kron(gate("H"), gate("H")), kron(ket0(), ket1()))
    assert a is b


def test_gate_errors():
    with pytest.raises(UnknownGate):
        gate("NOPE")
    # parameters are syntax: the parser builds CE, Mea0/Mea1/Mea, uf and kron_n
    for src, message in (("Mea0(1)", "expected ',', found )"),
                         ("H(1)", "unexpected trailing input '('"),
                         ("CE(1)", "CE takes an angle name"),
                         ("Mea0(1,2,3)", "expected ')', found ,")):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse(src)
    with pytest.raises(ParseError, match="'CE' is not a scalar"):
        parse_scalar("CE")


def test_gates_match_explicit_matrices():
    for name, want in EXPLICIT.items():
        got = _matrix(gate(name))
        for i, row in enumerate(want):
            for j, v in enumerate(row):
                assert abs(got[i][j] - v) <= 1e-12, (name, i, j)


def test_toffoli_matrix():
    got = _matrix(gate("TOF"))
    for i in range(8):
        for j in range(8):
            want = 1 if (i == j and i < 6) or (i, j) in ((6, 7), (7, 6)) else 0
            assert abs(got[i][j] - want) <= 1e-12


def test_library_gates_are_unitary():
    for name in UNITARIES:
        u = gate(name)
        n = u.rows
        assert mat_equiv(mul(dag(u), u), identity(n)), name
    for k in range(4):
        u = gate(f"ORA{k}")
        assert mat_equiv(mul(dag(u), u), identity(u.rows)), f"ORA{k}"


def test_phase_gate_unitary_under_sampling():
    u = ce("u")
    assert mat_equiv(mul(dag(u), u), identity(u.rows), samples=4)


def test_uf_recursion():
    assert uf(0) is identity(2)
    assert uf(1).dims == (4, 4)
    assert uf(2).dims == (8, 8)
    for n in range(4):
        u = uf(n)
        assert mat_equiv(mul(dag(u), u), identity(u.rows)), n


def test_kron_n():
    assert kron_n(0, gate("H")) is identity(1)
    assert kron_n(2, ket0()) is kron(ket0(), ket0())
    assert kron_n(3, gate("H")).dims == (8, 8)


def test_measurement_operators():
    assert mea("Mea0", 2, 0).dims == (8, 8)
    for n in range(4):
        for k in range(n + 1):
            total = mea("Mea", n, k)
            assert mat_equiv(total, identity(2 ** (n + 1))), (n, k)
            m0 = mea("Mea0", n, k)
            assert mat_equiv(mul(m0, m0), m0), (n, k)


def test_bell_states():
    m = eval_dense(gate("bell00"))
    assert abs(m.get(0, 0) - S2) <= 1e-12
    assert abs(m.get(3, 0) - S2) <= 1e-12
    assert abs(m.get(1, 0)) <= 1e-12


def test_ket_string():
    t = ket_string("011")
    assert t is kron(ket0(), kron(ket1(), ket1()))


def test_render_round_readable():
    assert render(kron(ket0(), ket1())) == "|0> # |1>"
    assert render(mul(identity(2), ket0())) == "I(2) * |0>"
    s = scale(Scalar.inv_sqrt2(), add(ket0(), ket1()))
    assert render(s) == "1/2*sqrt2 .* (|0> + |1>)"


def test_render_deep_chains():
    """The renderer is iterative: chains deeper than the recursion limit
    render, nested either way, without brackets."""
    right = add_all([ket0(), ket1()] * 1500)
    assert render(right) == " + ".join(["|0>", "|1>"] * 1500)
    left = ket0()
    for _ in range(5000):
        left = add(left, ket1())
    assert render(left) == " + ".join(["|0>"] + ["|1>"] * 5000)
    assert render(scale(Scalar.i(), dag(left))) == f"i .* ({render(left)})^"


# per chain kind: how two operands join, and operands of other kinds
_CHAINS = {
    ADD: (add, (ket0(), ket1(), zero(2, 1), scale(Scalar.i(), ket0()),
                mul(gate("H"), ket1()))),
    MUL: (mul, (gate("X"), gate("H"), identity(2), dag(gate("Y")),
                scale(Scalar.rational(2), gate("B1")))),
    KRON: (kron, (ket0(), gate("X"), gate("ket_minus"), mul(gate("H"), gate("Z")),
                  identity(4))),
}


def _nest(join, leaves, nesting, rng):
    if len(leaves) == 1:
        return leaves[0]
    cut = {"left": len(leaves) - 1, "right": 1}.get(nesting) or rng.randint(1, len(leaves) - 1)
    return join(_nest(join, leaves[:cut], nesting, rng), _nest(join, leaves[cut:], nesting, rng))


def _reference_operands(t, keep):
    """operands(t, keep), recursively: a chain node below t is walked
    unless it is in keep."""
    def walk(u):
        if u.kind != t.kind or u in keep:
            return [u]
        return walk(u.children[0]) + walk(u.children[1])
    return walk(t.children[0]) + walk(t.children[1])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from((ADD, MUL, KRON)), st.lists(st.integers(0, 4), min_size=2, max_size=12),
       st.sampled_from(("left", "right", "mixed")), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_property_operands_of_a_chain(kind, picks, nesting, seed, with_keep):
    """operands lists a chain's operands left to right however it nests,
    and stops at the chain nodes it is told to keep."""
    rng = random.Random(seed)
    join, others = _CHAINS[kind]
    leaves = [others[i] for i in picks]
    t = _nest(join, leaves, nesting, rng)
    links, stack = [], [t]
    while stack:
        u = stack.pop()
        if u.kind == kind:
            links.append(u)
            stack += u.children
    keep = {u for u in links if with_keep and rng.random() < 0.4}
    assert operands(t, keep) == _reference_operands(t, keep)
    assert operands(t, dict.fromkeys(keep, "")) == operands(t, keep)  # a memo serves as keep
    if not with_keep:
        assert operands(t) == leaves


def test_operands_of_a_node_outside_any_chain_is_the_node():
    for t in (ket0(), dag(ket1()), identity(4), zero(2, 1), scale(Scalar.i(), gate("X")),
              dag(mul(gate("H"), gate("X")))):
        assert operands(t) == [t]


def test_eval_dense_of_a_long_parsed_sum():
    """The parser nests a sum to the left; eval_dense walks it without a
    recursion per summand."""
    m = eval_dense(parse(" + ".join(["|0>", "|1>"] * 1500)))
    assert m.entries == [1500, 1500]


def test_render_dims_past_the_int_string_limit():
    big = kron_n(16, kron_n(1024, identity(2)))
    assert render(zero(big.rows, 1)) == "O(2^16384,1)"
    assert render(identity(2 ** 64)) == f"I({2 ** 64})"


def test_render_head_is_a_cut_render():
    rng = random.Random(17)
    for _ in range(300):
        t = rand_term(rng, closed=False)
        full = render(t)
        assert render_head(t, len(full)) == full
        cut = full if len(full) <= 40 else full[:37] + "..."
        assert render_head(t, 40) == cut
    # deep and widely shared terms cost only the prefix: no recursion limit,
    # no 2^40 leaves
    deep = ket0()
    for _ in range(5000):
        deep = add(deep, ket1())
    assert render_head(deep, 20) == "|0> + |1> + |1> +..."
    wide = ket0()
    for _ in range(40):
        wide = add(wide, wide)
    assert render_head(wide, 11) == "|0> + |0..."


def _walk_finds_an_atom(t) -> bool:
    return any(u.kind == SCALE and u.payload.atoms() != (set(), set()) for u in subterms([t]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_property_closed_bit_matches_an_atom_walk(seed):
    """Term.closed, set at interning from the children's bits and a scaling's
    scalar, holds exactly where a full walk finds no atom, at every subterm
    of a random term with atoms."""
    rng = random.Random(seed)
    t = rand_term(rng, closed=rng.random() < 0.3)
    for sub in subterms([t]):
        assert sub.closed == (not _walk_finds_an_atom(sub)), render(sub)
