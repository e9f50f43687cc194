"""Exact scalar ring: canonical forms, evaluation, conjugation, hypotheses."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from qdirac.errors import NonInvertibleScalar, UnboundAtom
from qdirac.parser import parse_scalar
from qdirac.scalar import Coefficient, Scalar

from conftest import rand_scalar

TOL = 1e-9


def _envs(names, count=5, seed=7):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append({n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in names})
    return out


def _names(*scalars):
    names = set()
    for s in scalars:
        v, a = s.atoms()
        names |= v | a
    return names


def test_like_term_collection():
    assert Scalar.inv_sqrt2() + Scalar.inv_sqrt2() == Scalar.sqrt2()


def test_sqrt2_square_is_two():
    assert Scalar.sqrt2() * Scalar.sqrt2() == Scalar.rational(2)


def test_inv_sqrt2_sixth_power():
    s = Scalar.one()
    for _ in range(6):
        s = s * Scalar.inv_sqrt2()
    assert s == Scalar.rational(1, 8)


def test_additive_identity_and_cancellation():
    a = Scalar.var("alpha")
    assert a + Scalar.zero() == a
    assert (Scalar.inv_sqrt2() - Scalar.inv_sqrt2()).is_zero()
    assert not a.is_zero()


def test_mixed_radical_sum():
    half = Scalar.rational(1, 2)
    rad = Scalar.inv_sqrt2() * Scalar.inv_sqrt2() * Scalar.sqrt2()  # 1/2 * sqrt2
    assert (half + rad) + (half - rad) == Scalar.one()


def test_ring_axioms_random():
    rng = random.Random(1)
    for _ in range(60):
        x = rand_scalar(rng, closed=False)
        y = rand_scalar(rng, closed=False)
        z = rand_scalar(rng, closed=False)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_eval_is_ring_homomorphism():
    rng = random.Random(2)
    for _ in range(60):
        x = rand_scalar(rng, closed=False)
        y = rand_scalar(rng, closed=False)
        for env in _envs(_names(x, y), count=3):
            lhs = (x * y).evaluate(env)
            rhs = x.evaluate(env) * y.evaluate(env)
            assert abs(lhs - rhs) <= TOL
            lhs = (x + y).evaluate(env)
            rhs = x.evaluate(env) + y.evaluate(env)
            assert abs(lhs - rhs) <= TOL


def test_is_zero_matches_evaluation():
    rng = random.Random(3)
    for _ in range(60):
        x = rand_scalar(rng, closed=False)
        if rng.random() < 0.3:
            x = x - x
        vanishes = all(
            abs(x.evaluate(env)) <= TOL for env in _envs(_names(x), count=5)
        )
        assert x.is_zero() == vanishes


def test_conjugation_involution_and_distribution():
    rng = random.Random(4)
    for _ in range(60):
        x = rand_scalar(rng, closed=False)
        y = rand_scalar(rng, closed=False)
        assert x.conj().conj() == x
        assert (x + y).conj() == x.conj() + y.conj()
        assert (x * y).conj() == x.conj() * y.conj()


def test_conjugation_examples():
    assert Scalar.i().conj() == -Scalar.i()
    assert Scalar.var("a").conj() == Scalar.conj_var("a")
    assert Scalar.phase("u").conj() == Scalar.phase("u", -1)


def test_phase_cancellation_is_formal():
    assert Scalar.phase("u") * Scalar.phase("u", -1) == Scalar.one()
    assert Scalar.phase("u") * Scalar.phase("v", -1) != Scalar.one()
    assert Scalar.phase("u", 2) == Scalar.phase("u") * Scalar.phase("u")


def test_evaluation_values():
    assert abs(Scalar.inv_sqrt2().evaluate() - 0.7071067811865476) < 1e-12
    env = {"a": 0.6 + 0.8j}
    assert Scalar.var("a").evaluate(env) == 0.6 + 0.8j
    assert Scalar.conj_var("a").evaluate(env) == 0.6 - 0.8j
    with pytest.raises(UnboundAtom):
        Scalar.var("missing").evaluate()


def test_norm_hypothesis_rewrite():
    a, b = Scalar.var("a"), Scalar.var("b")
    expr = a * Scalar.conj_var("a") + b * Scalar.conj_var("b")
    assert expr.apply_norm_hypothesis((("a", "b"),)) == Scalar.one()
    half = Scalar.rational(1, 2)
    assert (half * expr).apply_norm_hypothesis((("a", "b"),)) == half
    env = {"a": 0.6 + 0.0j, "b": 0.8j}
    assert abs(expr.evaluate(env) - 1.0) <= TOL


def test_reciprocal():
    q = Scalar.rational(1, 4)
    assert q.reciprocal() == Scalar.rational(4)
    assert Scalar.inv_sqrt2().reciprocal() == Scalar.sqrt2()
    assert Scalar.phase("u").reciprocal() == Scalar.phase("u", -1)
    with pytest.raises(NonInvertibleScalar):
        Scalar.var("a").reciprocal()
    with pytest.raises(NonInvertibleScalar):
        Scalar.zero().reciprocal()


def test_coefficient_canonical_lowest_terms():
    c = Coefficient(2, 0, 0, 0) * Coefficient("1/2", 0, 0, 0)
    assert c == Coefficient(1)
    assert str(Scalar.rational(2, 4)) == "1/2"


def test_rendering():
    assert str(Scalar.zero()) == "0"
    assert str(Scalar.inv_sqrt2()) == "1/2*sqrt2"
    assert str(Scalar.conj_var("a")) == "a^*"
    assert str(Scalar.phase("u", -2)) == "e(-2*u)"
    assert str(Scalar.rational(1, 2) - Scalar.inv_sqrt2() * Scalar.i()) \
        == "1/2 + -1/2*sqrt2*i"


def test_equal_scalars_are_one_object():
    assert Scalar.rational(1, 2) * Scalar.rational(2) is Scalar.one()
    assert Scalar.i() * Scalar.i() is Scalar.rational(-1)
    assert parse_scalar("1/2*sqrt2") is Scalar.inv_sqrt2()
    assert Scalar.inv_sqrt2() - Scalar.inv_sqrt2() is Scalar.zero()


def test_ring_operations_are_memoized(monkeypatch):
    """A repeated sum, product or conjugate does no coefficient arithmetic."""
    calls = []

    def counted(name):
        fn = getattr(Coefficient, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("__add__", "__mul__", "conj"):
        monkeypatch.setattr(Coefficient, name, counted(name))
    x = Scalar.var("memo_x") + Scalar.phase("memo_u")
    y = Scalar.inv_sqrt2() * Scalar.var("memo_x") + Scalar.conj_var("memo_y")
    for op in (lambda: x * y, lambda: x + y, lambda: y.conj()):
        calls.clear()
        first = op()
        assert calls
        calls.clear()
        assert op() is first
        assert not calls


def test_negation_is_memoized(monkeypatch):
    """A repeated negation or difference negates no coefficient again."""
    negations = []
    neg = Coefficient.__neg__

    def counted(c):
        negations.append(c)
        return neg(c)
    monkeypatch.setattr(Coefficient, "__neg__", counted)
    x = Scalar.var("neg_x") + Scalar.inv_sqrt2() * Scalar.phase("neg_u")
    y = Scalar.conj_var("neg_y")
    for op in (lambda: -x, lambda: x - y):
        negations.clear()
        first = op()
        assert negations
        negations.clear()
        assert op() is first
        assert not negations
    assert -(-x) is x


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_property_ring_results_are_interned(seed):
    rng = random.Random(seed)
    x, y = rand_scalar(rng, closed=False), rand_scalar(rng, closed=False)
    assert (x * y) is (y * x)
    assert (x + y) is (y + x)
    assert x.conj().conj() is x


def test_constants_are_known_and_evaluated_once(monkeypatch):
    """`constant` holds exactly where no atom occurs; a constant's value is
    computed from its coefficients once, on its first evaluation, so a
    constant too large for a float is interned all the same, and a rational
    literal is one lookup after its first use."""
    rng = random.Random(31)
    scalars = [rand_scalar(rng, closed=rng.random() < 0.5) for _ in range(200)]
    for s in scalars:
        assert s.constant == (s.atoms() == (set(), set())), s
    evaluations = []
    evaluate = Coefficient.evaluate
    monkeypatch.setattr(Coefficient, "evaluate", lambda c: evaluations.append(c) or evaluate(c))
    fresh = Scalar.rational(1234, 7919) + Scalar.i() * Scalar.sqrt2()
    assert abs(fresh.evaluate() - complex(1234 / 7919, 2 ** 0.5)) <= TOL
    assert fresh.evaluate({"a": 1j}) == fresh.evaluate() and len(evaluations) == 1
    assert Scalar.zero().evaluate() == 0
    assert Scalar.rational(2 ** 1100).constant
    monkeypatch.setattr(Coefficient, "__init__", None)  # no Coefficient is built
    assert Scalar.rational(1234, 7919) is Scalar.rational(1234, 7919)
