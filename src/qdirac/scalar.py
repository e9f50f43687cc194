"""Exact complex scalars: polynomials in symbolic atoms over Q(i) adjoined sqrt(2).

A coefficient is (a + b*sqrt2) with a, b Gaussian rationals, so every amplitude
appearing in the gate library (powers of 1/sqrt2, i, -1, ...) has an exact,
canonical representation and zero-testing is decidable.  Symbolic atoms come in
three flavours: free variables, their formal conjugates, and unit-modulus phase
factors e^{i*u} over a free abelian group of angle names.
"""

from __future__ import annotations

import cmath
from math import comb, gcd, lcm
from typing import Mapping

from .errors import NonInvertibleScalar, UnboundAtom

_SQRT2 = 2.0 ** 0.5

FREE = 0
CONJ = 1

# A monomial is (vars, phases): vars a sorted tuple of (name, kind) with
# repetition encoding powers, phases a sorted tuple of (angle, exponent).
Monomial = tuple[tuple[tuple[str, int], ...], tuple[tuple[str, int], ...]]

_EMPTY_MONO: Monomial = ((), ())


class Coefficient:
    """An element (ar + ai*i + (br + bi*i)*sqrt2) / d of Q(i)[sqrt2]: four
    integer numerators over one positive denominator, in lowest terms, so
    equal coefficients have equal fields.  The constructor takes any four
    rationals: ints are stored as they are, over d = 1; any other argument
    (a Fraction, a string such as "1/2") is parsed by fractions.Fraction,
    which is imported only then."""

    __slots__ = ("ar", "ai", "br", "bi", "d", "_hash")

    def __init__(self, ar=0, ai=0, br=0, bi=0):
        qs, d = (ar, ai, br, bi), 1
        if not all(type(q) is int for q in qs):
            from fractions import Fraction
            fs = [Fraction(q) for q in qs]
            d = lcm(*(f.denominator for f in fs))  # in lowest terms, as each f is
            qs = [f.numerator * (d // f.denominator) for f in fs]
        self.ar, self.ai, self.br, self.bi = qs
        self.d = d
        self._hash = None

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Coefficient) and self.d == other.d and self.ar == other.ar \
            and self.ai == other.ai and self.br == other.br and self.bi == other.bi

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ar, self.ai, self.br, self.bi, self.d))
        return self._hash

    def is_zero(self) -> bool:
        return not (self.ar or self.ai or self.br or self.bi)

    def __add__(self, other: "Coefficient") -> "Coefficient":
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _reduced(self.ar + other.ar, self.ai + other.ai,
                            self.br + other.br, self.bi + other.bi, d1)
        return _reduced(self.ar * d2 + other.ar * d1, self.ai * d2 + other.ai * d1,
                        self.br * d2 + other.br * d1, self.bi * d2 + other.bi * d1, d1 * d2)

    def __neg__(self) -> "Coefficient":
        return _raw(-self.ar, -self.ai, -self.br, -self.bi, self.d)

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        # (a1 + b1 s)(a2 + b2 s) = (a1 a2 + 2 b1 b2) + (a1 b2 + b1 a2) s,  s^2 = 2
        a1r, a1i, b1r, b1i = self.ar, self.ai, self.br, self.bi
        a2r, a2i, b2r, b2i = other.ar, other.ai, other.br, other.bi
        return _reduced(a1r * a2r - a1i * a2i + 2 * (b1r * b2r - b1i * b2i),
                        a1r * a2i + a1i * a2r + 2 * (b1r * b2i + b1i * b2r),
                        a1r * b2r - a1i * b2i + b1r * a2r - b1i * a2i,
                        a1r * b2i + a1i * b2r + b1r * a2i + b1i * a2r,
                        self.d * other.d)

    def conj(self) -> "Coefficient":
        return _raw(self.ar, -self.ai, self.br, -self.bi, self.d)

    def inverse(self) -> "Coefficient":
        # d/(a + b s) = d (a - b s) conj(m) / |m|^2 with m = a^2 - 2 b^2, a
        # Gaussian integer, nonzero whenever the coefficient is, as sqrt2 is
        # not in Q(i).
        if self.is_zero():
            raise NonInvertibleScalar("division by zero coefficient")
        ar, ai, br, bi, d = self.ar, self.ai, self.br, self.bi, self.d
        mr = ar * ar - ai * ai - 2 * (br * br - bi * bi)
        mi = 2 * (ar * ai - 2 * br * bi)
        return _reduced(d * (ar * mr + ai * mi), d * (ai * mr - ar * mi),
                        -d * (br * mr + bi * mi), -d * (bi * mr - br * mi), mr * mr + mi * mi)

    def evaluate(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is
        d = self.d
        return complex(self.ar / d + _SQRT2 * (self.br / d), self.ai / d + _SQRT2 * (self.bi / d))

    def __repr__(self):
        d = self.d
        return (f"Coefficient({_frac_str(self.ar, d)}, {_frac_str(self.ai, d)}, "
                f"{_frac_str(self.br, d)}, {_frac_str(self.bi, d)})")

    def __str__(self):
        d = self.d
        parts = []
        if self.ar:
            parts.append(_frac_str(self.ar, d))
        if self.ai:
            parts.append(_unit_str(self.ai, d, "i"))
        if self.br:
            parts.append(_unit_str(self.br, d, "sqrt2"))
        if self.bi:
            parts.append(_unit_str(self.bi, d, "sqrt2*i"))
        if not parts:
            return "0"
        return " + ".join(parts)


def _raw(ar: int, ai: int, br: int, bi: int, d: int) -> Coefficient:
    """The coefficient with these fields, already in lowest terms."""
    c = object.__new__(Coefficient)
    c.ar, c.ai, c.br, c.bi, c.d = ar, ai, br, bi, d
    c._hash = None
    return c


def _reduced(ar: int, ai: int, br: int, bi: int, d: int) -> Coefficient:
    """The coefficient (ar + ai*i + (br + bi*i)*sqrt2) / d, d > 0."""
    g = gcd(ar, ai, br, bi, d)
    if g == 1:
        return _raw(ar, ai, br, bi, d)
    return _raw(ar // g, ai // g, br // g, bi // g, d // g)


def _frac_str(n: int, d: int) -> str:
    """n/d in lowest terms, written as str(Fraction(n, d)) writes it."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def _unit_str(n: int, d: int, unit: str) -> str:
    if n == d:
        return unit
    if n == -d:
        return f"-{unit}"
    return f"{_frac_str(n, d)}*{unit}"


C_ONE = Coefficient(1)
C_I = Coefficient(0, 1)
C_SQRT2 = Coefficient(0, 0, 1)
C_INV_SQRT2 = _raw(0, 0, 1, 0, 2)


def _mul_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    vars1, ph1 = m1
    vars2, ph2 = m2
    variables = tuple(sorted(vars1 + vars2))
    phases: dict[str, int] = {}
    for name, k in ph1 + ph2:
        phases[name] = phases.get(name, 0) + k
    ph = tuple(sorted((n, k) for n, k in phases.items() if k))
    return (variables, ph)


def _conj_monomial(m: Monomial) -> Monomial:
    variables, phases = m
    return (
        tuple(sorted((name, CONJ if kind == FREE else FREE) for name, kind in variables)),
        tuple(sorted((name, -k) for name, k in phases)),
    )


# The interned scalars, keyed by their canonical terms, and the memo of the
# ring operations on them.  Process-wide, as term._intern is: equal scalars
# are one object, so a memo keyed by scalars hashes them by identity.
_intern: dict = {}
_SUM: dict = {}
_PRODUCT: dict = {}
_CONJ: dict = {}
_NEG: dict = {}
_INVERSE: dict = {}
_RATIONAL: dict = {}  # (p, q) -> the scalar p/q, so a parsed literal is one lookup
_REMAINDER: dict = {}  # (scalar, norm pairs) -> its remainder


class Scalar:
    """Canonical finite sum of Coefficient-weighted monomials.  Interned, so
    equal scalars are the same object, and compare and hash as it does.
    Whether it is `constant`, with no atom, is set when it is interned, and
    a constant's complex value is computed once."""

    __slots__ = ("terms", "_text", "constant", "_value")

    def __new__(cls, terms: Mapping[Monomial, Coefficient] | None = None):
        # monomials are distinct, so sorting the pairs never compares coefficients
        key = tuple(sorted((m, c) for m, c in terms.items() if not c.is_zero())) if terms else ()
        self = _intern.get(key)
        if self is None:
            self = _intern[key] = object.__new__(cls)
            self.terms = key  # ((monomial, coefficient), ...), sorted by monomial
            self._text = None
            self.constant = not key or (len(key) == 1 and key[0][0] == _EMPTY_MONO)
            self._value = None  # a constant's complex value, once evaluated
        return self

    # --- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "Scalar":
        return _S_ZERO

    @staticmethod
    def one() -> "Scalar":
        return _S_ONE

    @staticmethod
    def from_coeff(c: Coefficient) -> "Scalar":
        return Scalar({_EMPTY_MONO: c})

    @staticmethod
    def rational(p, q=1) -> "Scalar":
        hit = _RATIONAL.get((p, q))
        if hit is None:
            if not q:
                raise ZeroDivisionError(f"Scalar.rational({p}, 0)")
            sign = 1 if q > 0 else -1
            hit = _RATIONAL[(p, q)] = Scalar.from_coeff(_reduced(sign * p, 0, 0, 0, sign * q))
        return hit

    @staticmethod
    def i() -> "Scalar":
        return Scalar.from_coeff(C_I)

    @staticmethod
    def sqrt2() -> "Scalar":
        return Scalar.from_coeff(C_SQRT2)

    @staticmethod
    def inv_sqrt2() -> "Scalar":
        return Scalar.from_coeff(C_INV_SQRT2)

    @staticmethod
    def var(name: str) -> "Scalar":
        if not name:
            raise ValueError("atom names must be nonempty")
        return Scalar({(((name, FREE),), ()): C_ONE})

    @staticmethod
    def conj_var(name: str) -> "Scalar":
        if not name:
            raise ValueError("atom names must be nonempty")
        return Scalar({(((name, CONJ),), ()): C_ONE})

    @staticmethod
    def phase(name: str, k: int = 1) -> "Scalar":
        """The unit-modulus factor e^{i*k*name}."""
        if not name:
            raise ValueError("angle names must be nonempty")
        if k == 0:
            return _S_ONE
        return Scalar({((), ((name, k),)): C_ONE})

    # --- ring operations ----------------------------------------------
    def __add__(self, other: "Scalar") -> "Scalar":
        key = (self, other)
        hit = _SUM.get(key)
        if hit is None:
            acc = dict(self.terms)
            for mono, coeff in other.terms:
                cur = acc.get(mono)
                acc[mono] = coeff if cur is None else cur + coeff
            hit = _SUM[key] = Scalar(acc)
        return hit

    def __neg__(self) -> "Scalar":
        hit = _NEG.get(self)
        if hit is None:
            hit = _NEG[self] = Scalar({m: -c for m, c in self.terms})
        return hit

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if self is _S_ONE:
            return other
        if other is _S_ONE:
            return self
        key = (self, other)
        hit = _PRODUCT.get(key)
        if hit is None:
            acc: dict[Monomial, Coefficient] = {}
            for m1, c1 in self.terms:
                for m2, c2 in other.terms:
                    mono = _mul_monomials(m1, m2)
                    prod = c1 * c2
                    cur = acc.get(mono)
                    acc[mono] = prod if cur is None else cur + prod
            hit = _PRODUCT[key] = Scalar(acc)
        return hit

    def conj(self) -> "Scalar":
        hit = _CONJ.get(self)
        if hit is None:
            hit = _CONJ[self] = Scalar({_conj_monomial(m): c.conj() for m, c in self.terms})
        return hit

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self is _S_ONE

    def reciprocal(self) -> "Scalar":
        """Exact inverse; defined for nonzero constants and pure phase monomials."""
        hit = _INVERSE.get(self)
        if hit is None:
            if len(self.terms) != 1:
                raise NonInvertibleScalar(f"cannot invert {self}")
            mono, coeff = self.terms[0]
            variables, phases = mono
            if variables:
                raise NonInvertibleScalar(f"cannot invert symbolic scalar {self}")
            inv_mono: Monomial = ((), tuple(sorted((n, -k) for n, k in phases)))
            hit = _INVERSE[self] = Scalar({inv_mono: coeff.inverse()})
        return hit

    # --- atoms and evaluation -----------------------------------------
    def atoms(self) -> tuple[set[str], set[str]]:
        """Names of (variable atoms, phase angle atoms) occurring in the scalar."""
        variables: set[str] = set()
        angles: set[str] = set()
        for (var_part, phase_part), _ in self.terms:
            for name, _kind in var_part:
                variables.add(name)
            for name, _k in phase_part:
                angles.add(name)
        return variables, angles

    def evaluate(self, env: Mapping[str, complex] | None = None) -> complex:
        if self.constant:
            if self._value is None:
                self._value = self.terms[0][1].evaluate() if self.terms else 0j
            return self._value
        env = env or {}
        total = 0j
        for (var_part, phase_part), coeff in self.terms:
            value = coeff.evaluate()
            for name, kind in var_part:
                if name not in env:
                    raise UnboundAtom(name)
                v = complex(env[name])
                value *= v.conjugate() if kind == CONJ else v
            for name, k in phase_part:
                if name not in env:
                    raise UnboundAtom(name)
                value *= cmath.exp(1j * k * float(env[name].real))
            total += value
        return total

    def apply_norm_hypothesis(self, pairs: tuple[tuple[str, str], ...]) -> "Scalar":
        """The remainder modulo a*a^* + b*b^* - 1 for each pair (a, b), no
        two pairs sharing an atom: each monomial m*(a*a^*)^j, m holding no
        a*a^*, becomes m*(1 - b*b^*)^j, so no monomial of the result holds
        a*a^*.  One relation is its own Groebner basis, and relations in
        disjoint atoms have coprime leading terms, so the remainder is
        unique: two scalars are equal under the hypotheses exactly when
        their remainders are, and a sum of remainders is one."""
        hit = _REMAINDER.get((self, pairs)) if pairs else self
        if hit is None:
            hit = self
            for a, b in pairs:
                acc: dict[Monomial, Coefficient] = {}
                for (variables, phases), coeff in hit.terms:
                    conj, free = variables.count((a, CONJ)), variables.count((a, FREE))
                    j = min(conj, free)
                    rest = [v for v in variables if v[0] != a] + [(a, CONJ)] * (conj - j) \
                        + [(a, FREE)] * (free - j)
                    for i in range(j + 1):  # (1 - b*b^*)^j, expanded
                        mono = (tuple(sorted(rest + [(b, CONJ), (b, FREE)] * i)), phases)
                        c = coeff * _raw((-1) ** i * comb(j, i), 0, 0, 0, 1) if j else coeff
                        acc[mono] = acc[mono] + c if mono in acc else c
                hit = Scalar(acc)
            _REMAINDER[(self, pairs)] = hit
        return hit

    # --- rendering ----------------------------------------------------
    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        # kept: a scalar is immutable, and a trace prints it once per step
        if self._text is None:
            self._text = " + ".join(_render_term(m, c) for m, c in self.terms) or "0"
        return self._text


def _render_term(mono: Monomial, coeff: Coefficient) -> str:
    variables, phases = mono
    factors = []
    for name, kind in variables:
        factors.append(name if kind == FREE else f"{name}^*")
    for name, k in phases:
        if k == 1:
            factors.append(f"e({name})")
        elif k == -1:
            factors.append(f"e(-{name})")
        else:
            factors.append(f"e({k}*{name})")
    coeff_str = str(coeff)
    if not factors:
        return coeff_str
    body = "*".join(factors)
    if coeff == C_ONE:
        return body
    if coeff == -C_ONE:
        return f"-{body}"
    if " + " in coeff_str:
        coeff_str = f"({coeff_str})"
    return f"{coeff_str}*{body}"


_S_ZERO = Scalar()
_S_ONE = Scalar({_EMPTY_MONO: C_ONE})
