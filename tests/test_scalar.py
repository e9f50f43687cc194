"""Exact scalar ring: canonical forms, evaluation, conjugation, hypotheses."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qdirac.errors import NonInvertibleScalar, UnboundAtom
from qdirac.oracle import SampleEnv
from qdirac.parser import parse_scalar
from qdirac.scalar import C_INV_SQRT2, C_ONE, CONJ, FREE, Coefficient, Scalar

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


_NORM_ATOMS = (Scalar.var("a"), Scalar.conj_var("a"), Scalar.var("b"), Scalar.conj_var("b"))
_polynomials = st.lists(st.tuples(
    st.sampled_from((Scalar.one(), Scalar.rational(-2), Scalar.rational(1, 3), Scalar.i(),
                     Scalar.inv_sqrt2())),
    st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4)), max_size=4)


def _polynomial(monomials) -> Scalar:
    """The sum of c * a^i * (a^*)^j * b^k * (b^*)^l over (c, [i, j, k, l])."""
    total = Scalar.zero()
    for c, powers in monomials:
        for atom, k in zip(_NORM_ATOMS, powers):
            for _ in range(k):
                c = c * atom
        total = total + c
    return total


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_polynomials, _polynomials)
def test_property_norm_remainder_is_unique(p_monomials, q_monomials):
    """p and p + q*(a*a^* + b*b^* - 1) reduce to one interned scalar, which
    holds no a*a^* and agrees with both at sampled normalized (a, b)."""
    pairs = (("a", "b"),)
    a, a_conj, b, b_conj = _NORM_ATOMS
    p, q = _polynomial(p_monomials), _polynomial(q_monomials)
    shifted = p + q * (a * a_conj + b * b_conj - Scalar.one())
    r = p.apply_norm_hypothesis(pairs)
    assert shifted.apply_norm_hypothesis(pairs) is r, (p, q)
    assert not any(("a", FREE) in v and ("a", CONJ) in v for (v, _), _ in r.terms), r
    for seed in range(3):
        env = SampleEnv.sample({"a", "b"}, set(), seed, norm_pairs=pairs).bindings
        for s in (p, shifted):
            assert abs(s.evaluate(env) - r.evaluate(env)) <= TOL * 100, (s, r, seed)


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
    monkeypatch.setattr("qdirac.scalar._raw", None)
    assert Scalar.rational(1234, 7919) is Scalar.rational(1234, 7919)


# --- the integer-backed coefficient against a Fraction reference -------------

_REF_SQRT2 = 2.0 ** 0.5


def _ref(c: Coefficient) -> tuple:
    """c as the four Fractions (ar, ai, br, bi) of ar + ai*i + (br + bi*i)*sqrt2."""
    return tuple(Fraction(n, c.d) for n in (c.ar, c.ai, c.br, c.bi))


def _ref_mul(x, y):
    a1r, a1i, b1r, b1i = x
    a2r, a2i, b2r, b2i = y
    return (a1r * a2r - a1i * a2i + 2 * (b1r * b2r - b1i * b2i),
            a1r * a2i + a1i * a2r + 2 * (b1r * b2i + b1i * b2r),
            a1r * b2r - a1i * b2i + b1r * a2r - b1i * a2i,
            a1r * b2i + a1i * b2r + b1r * a2i + b1i * a2r)


def _ref_inverse(x):
    ar, ai, br, bi = x
    dr, di, _, _ = _ref_mul((ar, ai, 0, 0), (ar, ai, 0, 0))
    er, ei, _, _ = _ref_mul((br, bi, 0, 0), (br, bi, 0, 0))
    dr, di = dr - 2 * er, di - 2 * ei
    n = dr * dr + di * di
    return _ref_mul((ar, ai, -br, -bi), (dr / n, -di / n, 0, 0))


def _ref_frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _ref_str(x) -> str:
    def unit(q, name):
        return name if q == 1 else f"-{name}" if q == -1 else f"{_ref_frac_str(q)}*{name}"
    ar, ai, br, bi = x
    parts = [_ref_frac_str(ar)] if ar else []
    parts += [unit(q, name) for q, name in ((ai, "i"), (br, "sqrt2"), (bi, "sqrt2*i")) if q]
    return " + ".join(parts) or "0"


_denominators = st.one_of(st.integers(min_value=1, max_value=12),
                          st.sampled_from((7919, 2 ** 61 - 1, 3 ** 40, 10 ** 30)),
                          st.integers(min_value=1, max_value=10 ** 40))
_rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(min_value=-10 ** 40, max_value=10 ** 40), _denominators),
    st.builds(Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=4)))
_quadruples = st.tuples(_rationals, _rationals, _rationals, _rationals)


def _assert_canonical(c: Coefficient):
    fields = (c.ar, c.ai, c.br, c.bi, c.d)
    assert all(type(n) is int for n in fields), fields
    assert c.d > 0 and gcd(*fields) == 1, fields


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_quadruples, _quadruples, st.integers(min_value=1, max_value=10 ** 6))
def test_property_integer_coefficients_agree_with_fractions(qx, qy, k):
    """The four integer numerators over one denominator give, operation by
    operation, the value the four-Fraction form gives; equal values have
    equal fields and hashes however they were reached, and the text and
    float value are those of the Fraction formulas."""
    x, y = Coefficient(*qx), Coefficient(*qy)
    assert _ref(x) == qx and _ref(y) == qy
    results = [(x + y, tuple(a + b for a, b in zip(qx, qy))),
               (x * y, _ref_mul(qx, qy)),
               (-x, tuple(-a for a in qx)),
               (x.conj(), (qx[0], -qx[1], qx[2], -qx[3]))]
    if any(qx):
        results.append((x.inverse(), _ref_inverse(qx)))
    for c, want in results:
        _assert_canonical(c)
        assert _ref(c) == want, (c, want)
    # one value reached several ways is one set of fields and one hash
    pairs = [(Coefficient(*(f"{q.numerator * k}/{q.denominator * k}" for q in qx)), x),
             ((x + y) + -y, x), (y * x, x * y), (x.conj().conj(), x)]
    if any(qy):
        pairs.append(((x * y) * y.inverse(), x))
    for one, other in pairs:
        assert one == other and hash(one) == hash(other), (one, other)
        assert (one.ar, one.ai, one.br, one.bi, one.d) == \
            (other.ar, other.ai, other.br, other.bi, other.d)
    for c, q in ((x, qx), (x * y, _ref_mul(qx, qy))):
        assert str(c) == _ref_str(q)
        assert repr(c) == f"Coefficient({q[0]}, {q[1]}, {q[2]}, {q[3]})"
        assert c.evaluate() == complex(float(q[0]) + _REF_SQRT2 * float(q[2]),
                                       float(q[1]) + _REF_SQRT2 * float(q[3]))


def test_coefficient_arithmetic_builds_no_fraction(monkeypatch):
    """Coefficient fields are ints, and its ring operations, evaluation and
    text, a new rational literal and a norm remainder create no Fraction."""
    x = Coefficient("3/5", "-4/7", "1/2", "2/9")
    y = Coefficient(Fraction(1, 3), 0, -1, Fraction(5, 11))
    one = Coefficient(1)
    _assert_canonical(x)

    def no_fraction(*args, **kwargs):
        raise AssertionError("a Fraction was built")
    monkeypatch.setattr(Fraction, "__new__", no_fraction)
    with pytest.raises(AssertionError):
        Fraction(1, 2)
    for c in (x + y, x * y, -x, x.conj(), x.inverse(), x * x.inverse()):
        _assert_canonical(c)
        str(c), repr(c), c.evaluate(), hash(c)
    assert x * x.inverse() == one
    assert Scalar.rational(104729, -7907) == -Scalar.rational(104729, 7907)
    a, b = Scalar.var("nofrac_a"), Scalar.var("nofrac_b")
    norm = a * a.conj() + b * b.conj()
    assert (norm * norm).apply_norm_hypothesis((("nofrac_a", "nofrac_b"),)) is Scalar.one()


def test_coefficients_from_fractions_strings_and_ints_agree():
    """Ints are stored as given, over d = 1; Fractions and strings are
    parsed and brought over one denominator.  Equal values give equal int
    fields and hashes whichever way they were written."""
    ways = [Coefficient(3, -2, 0, 4), Coefficient("3", "-2", "0", "4"),
            Coefficient(Fraction(6, 2), Fraction(-2), 0, Fraction(8, 2))]
    ways_half = [C_INV_SQRT2, Coefficient(0, 0, "1/2"), Coefficient(0, 0, Fraction(2, 4)),
                 Coefficient(0, "0", Fraction(1, 2), 0)]
    for group in (ways, ways_half, [Coefficient(True), Coefficient(1), C_ONE]):
        fields = {(c.ar, c.ai, c.br, c.bi, c.d) for c in group}
        assert len(fields) == 1 and len({hash(c) for c in group}) == 1, fields
        assert all(type(x) is int for c in group for x in (c.ar, c.ai, c.br, c.bi, c.d))
        assert len({repr(c) for c in group}) == len({str(c) for c in group}) == 1
    assert (C_INV_SQRT2.ar, C_INV_SQRT2.br, C_INV_SQRT2.d) == (0, 1, 2)
