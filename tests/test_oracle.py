"""Dense evaluator and the two numeric equivalence predicates."""

from __future__ import annotations

import random

import numpy as np
import pytest

from qdirac.errors import DimMismatch
from qdirac.oracle import (
    DEFAULT_SEED, DenseMatrix, Evaluator, SampleEnv, collect_atoms, envs_for, eval_dense,
    mat_equiv, obs_equiv,
)
from qdirac.parser import parse
from qdirac.rewrite import Rewriter
from qdirac.scalar import Scalar
from qdirac.term import (
    ADD, IDENT, KET0, KET1, KRON, MUL, SCALE, ZERO,
    add, gate, identity, ket0, kron, kron_n, mul, render_head, scale, zero,
)

from conftest import rand_circuit, rand_op, rand_term

TOL = 1e-9


def np_eval(t, env):
    """Independent numpy evaluation used to cross-check eval_dense."""
    kind = t.kind
    if kind == KET0:
        return np.array([[1.0], [0.0]], dtype=complex)
    if kind == KET1:
        return np.array([[0.0], [1.0]], dtype=complex)
    if kind == ZERO:
        return np.zeros((t.rows, t.cols), dtype=complex)
    if kind == IDENT:
        return np.eye(t.payload, dtype=complex)
    if kind == SCALE:
        return t.payload.evaluate(env) * np_eval(t.children[0], env)
    if kind == MUL:
        return np_eval(t.children[0], env) @ np_eval(t.children[1], env)
    if kind == ADD:
        return np_eval(t.children[0], env) + np_eval(t.children[1], env)
    if kind == KRON:
        return np.kron(np_eval(t.children[0], env), np_eval(t.children[1], env))
    return np_eval(t.children[0], env).conj().T


def test_eval_dense_matches_numpy():
    rng = random.Random(21)
    for i in range(200):
        t = rand_term(rng, closed=False)
        variables, angles = collect_atoms(t)
        env = SampleEnv.sample(variables, angles, seed=1000 + i)
        got = eval_dense(t, env)
        want = np_eval(t, env.bindings)
        assert (got.rows, got.cols) == want.shape
        val = np.array(got.entries).reshape(got.rows, got.cols)
        assert np.max(np.abs(val - want)) <= 1e-9, repr(t)


def test_atoms_of_both_sides_in_one_walk(monkeypatch):
    """envs_for reads the atoms of both sides in one walk: the names, so the
    bindings, are those of a walk per side, and a shared subterm is read once."""
    rng = random.Random(24)
    for _ in range(100):
        a, b = rand_term(rng, closed=False), rand_term(rng, closed=False)
        (va, aa), (vb, ab) = collect_atoms(a), collect_atoms(b)
        assert collect_atoms(a, b) == (va | vb, aa | ab)
    reads = []
    atoms = Scalar.atoms
    monkeypatch.setattr(Scalar, "atoms", lambda s: reads.append(s) or atoms(s))
    shared = parse("a .* B1 * e(u) .* B2")  # basis matrices hold no scalars
    envs = envs_for((mul(shared, gate("B0")), mul(gate("B3"), shared)), 3, DEFAULT_SEED, ())
    assert len(reads) == 2 and [sorted(e.bindings) for e in envs] == [["a", "u"]] * 3


def test_basic_evaluations():
    assert eval_dense(ket0()).entries == [1 + 0j, 0j]
    h = eval_dense(gate("H"))
    assert abs(h.get(0, 0) - 0.7071067811865476) < 1e-12
    cx = eval_dense(gate("CX"))
    assert cx.get(2, 3) == 1 and cx.get(3, 2) == 1 and cx.get(2, 2) == 0


def test_mat_equiv_examples():
    assert mat_equiv(mul(gate("X"), gate("X")), identity(2))
    swap_chain = mul(gate("CX"), mul(gate("XC"), gate("CX")))
    assert mat_equiv(gate("SWAP"), swap_chain)
    assert not mat_equiv(gate("X"), gate("Z"))
    with pytest.raises(DimMismatch):
        mat_equiv(gate("X"), gate("CX"))


def test_basis_and_direct_paths_agree():
    """mat_equiv decides as an entrywise comparison of eval_dense's matrices."""
    rng = random.Random(22)
    for _ in range(200):
        q = rng.randint(1, 3)
        a = rand_op(rng, q, closed=False)
        b = rand_op(rng, q, closed=False)
        if rng.random() < 0.3:
            b = a
        explicit = all(eval_dense(a, env).approx_eq(eval_dense(b, env))
                       for env in envs_for((a, b), None, DEFAULT_SEED, ()))
        assert mat_equiv(a, b) == explicit, (repr(a), repr(b))


def _assert_evaluator_matches_eval_dense(t, norm_pairs=()):
    ev = Evaluator()
    for env in envs_for((t, t), None, DEFAULT_SEED, norm_pairs):
        ev.bind(env)
        want = eval_dense(t, env)
        got = ev.matrix(t)
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert got.approx_eq(want, 1e-12), render_head(t, 200)


def test_evaluator_matches_eval_dense():
    rng = random.Random(23)
    for _ in range(200):
        _assert_evaluator_matches_eval_dense(rand_term(rng, closed=False))
    for _ in range(100):
        _assert_evaluator_matches_eval_dense(rand_circuit(rng, rng.randint(1, 5), closed=False))
    # atom-dependent operators too large to be kept, under a dagger and
    # applied to an atom-free ket
    phased = parse("(a .* (kron_n(4, H) * (I(8) # (b .* X + conj(b) .* Z))))^"
                   " * (I(2) # e(u) .* kron_n(3, H))^ * kron_n(4, |+>)")
    _assert_evaluator_matches_eval_dense(phased, norm_pairs=(("a", "b"),))
    # tensor products whose factors change the slot sizes: kets and bras
    widen = parse("(kron_n(3, |+>) # a .* I(4) # <1|)^ * (kron_n(3, |0>) # H # X) * |1,0>")
    _assert_evaluator_matches_eval_dense(widen)
    # a product of 600 gates, nested to the left as the parser nests it
    chain = parse(" * ".join(["H"] * 599 + ["conj(a) .* X"]) + " * |0>")
    _assert_evaluator_matches_eval_dense(chain)


def test_eval_dense_on_long_chains(monkeypatch):
    """eval_dense recurses once per operand of a product, sum or tensor
    product, not once per link, and a product that ends in a vector is
    folded from that end, one matrix-vector product per gate."""
    widths = []
    matmul = DenseMatrix.matmul
    monkeypatch.setattr(DenseMatrix, "matmul",
                        lambda self, other: widths.append(other.cols) or matmul(self, other))
    assert eval_dense(parse(" * ".join(["H"] * 1500) + " * |0>")).approx_eq(eval_dense(ket0()))
    assert widths == [1] * 1500
    assert eval_dense(parse(" * ".join(["X"] * 1500))).approx_eq(DenseMatrix.identity(2))
    assert eval_dense(parse(" # ".join(["|1>"] * 8))).max_abs_index() == (255, 0)


def test_evaluator_on_long_sums():
    """Sums nest to the right in a normal form and to the left from the
    parser; neither costs a recursion per summand."""
    assert mat_equiv(parse(" + ".join(["|1>"] * 1199 + ["a .* |0>"])),
                     parse("1199 .* |1> + a .* |0>"))
    # every entry of this density is 1/32: its normal form has 1024 summands
    branch = Rewriter().normalize(parse("density(kron_n(5, |+>))")).to_term()
    assert branch.dims == (32, 32)
    _assert_evaluator_matches_eval_dense(branch)
    _assert_evaluator_matches_eval_dense(
        mul(scale(Scalar.var("u"), branch), kron_n(5, ket0())))


def test_tensor_products_act_without_large_matrices(monkeypatch):
    sizes = []
    init = DenseMatrix.__init__

    def recording_init(self, rows, cols, entries):
        sizes.append(rows * cols)
        init(self, rows, cols, entries)

    monkeypatch.setattr(DenseMatrix, "__init__", recording_init)
    lhs = mul(kron_n(10, gate("H")), kron_n(10, ket0()))
    assert mat_equiv(lhs, kron_n(10, gate("ket_plus")))
    assert sizes and max(sizes) <= 2 ** 10


def test_obs_equiv_global_phase():
    psi = kron(ket0(), gate("ket_minus"))
    res = obs_equiv(scale(Scalar.rational(-1), psi), psi)
    assert res.equivalent and abs(res.phase - (-1)) <= TOL
    res = obs_equiv(identity(2), scale(Scalar.rational(-1), identity(2)))
    assert res.equivalent and abs(res.phase - (-1)) <= TOL


def test_obs_equiv_rejects_controlled_phase_difference():
    ctrl_i = add(kron(gate("B0"), identity(2)), kron(gate("B3"), identity(2)))
    ctrl_mi = add(kron(gate("B0"), identity(2)),
                  kron(gate("B3"), scale(Scalar.rational(-1), identity(2))))
    res = obs_equiv(ctrl_i, ctrl_mi)
    assert not res.equivalent
    assert res.witness is not None


def test_obs_equiv_non_unit_scale_rejected():
    res = obs_equiv(gate("X"), scale(Scalar.rational(2), gate("X")))
    assert not res.equivalent


def test_identical_sides_are_equal_unevaluated(monkeypatch):
    """One interned term is one matrix under every binding: mat_equiv on
    identical pairs, and obs_equiv on one term, bind no Evaluator, with atoms
    and hypotheses too; a pair that differs among them is still evaluated."""
    binds = []
    bind = Evaluator.bind
    monkeypatch.setattr(Evaluator, "bind", lambda self, env: binds.append(env) or bind(self, env))
    rng = random.Random(26)
    terms = [rand_term(rng, closed=False) for _ in range(30)]
    for t in terms:
        assert mat_equiv(t, t) and mat_equiv(t, t, norm_pairs=(("a", "b"),))
        res = obs_equiv(t, t, norm_pairs=(("a", "b"),))
        assert res.equivalent and res.phase == 1
    assert mat_equiv(terms, terms)
    assert not binds
    x, z = gate("X"), gate("Z")
    assert not mat_equiv([*terms, x], [*terms, z])
    assert len(binds) == 1


def test_obs_equiv_zero_cases():
    assert obs_equiv(zero(2, 1), zero(2, 1)).equivalent
    assert not obs_equiv(zero(2, 1), ket0()).equivalent


def test_sample_env_norm_pairs():
    env = SampleEnv.sample({"a", "b"}, set(), seed=5, norm_pairs=(("a", "b"),))
    va, vb = env.bindings["a"], env.bindings["b"]
    assert abs(abs(va) ** 2 + abs(vb) ** 2 - 1) <= 1e-12


def test_sampling_determinism():
    e1 = SampleEnv.sample({"a"}, {"u"}, seed=9)
    e2 = SampleEnv.sample({"a"}, {"u"}, seed=9)
    assert e1.bindings == e2.bindings


def test_dense_matrix_kron():
    m = DenseMatrix.identity(2).kron(DenseMatrix(2, 1, [1 + 0j, 0j]))
    assert (m.rows, m.cols) == (4, 2)
