"""Dense evaluator and the two numeric equivalence predicates."""

from __future__ import annotations

import random

import numpy as np
import pytest

from qdirac.errors import DimMismatch, NotSquare
from qdirac.oracle import (
    DenseMatrix, SampleEnv, collect_atoms, eval_dense, mat_equiv, obs_equiv,
)
from qdirac.scalar import Scalar
from qdirac.term import (
    ADD, IDENT, KET0, KET1, KRON, MUL, SCALE, ZERO,
    add, dag, gate, identity, ket0, kron, mul, scale, zero,
)

from conftest import rand_op, rand_term

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
        arr = np.array(got.as_lists())
        val = arr[..., 0] + 1j * arr[..., 1]
        assert np.max(np.abs(val - want)) <= 1e-9, repr(t)


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
    rng = random.Random(22)
    for _ in range(200):
        q = rng.randint(1, 3)
        a = rand_op(rng, q, closed=False)
        b = rand_op(rng, q, closed=False)
        if rng.random() < 0.3:
            b = a
        direct = mat_equiv(a, b)
        via_basis = mat_equiv(a, b, basis=True)
        assert direct == via_basis, (repr(a), repr(b))


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


def test_trace_dense():
    assert abs(eval_dense(gate("B0")).trace() - 1) <= TOL
    assert abs(eval_dense(identity(4)).trace() - 4) <= TOL
    rho = mul(gate("ket_plus"), dag(gate("ket_plus")))
    assert abs(eval_dense(rho).trace() - 1) <= TOL
    with pytest.raises(NotSquare):
        eval_dense(ket0()).trace()


def test_dense_matrix_render_and_kron():
    m = DenseMatrix.identity(2).kron(DenseMatrix(2, 1, [1 + 0j, 0j]))
    assert (m.rows, m.cols) == (4, 2)
    text = eval_dense(gate("X")).render()
    assert text.splitlines()[0].split() == ["0", "1"]
