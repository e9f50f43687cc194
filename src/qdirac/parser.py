"""Tokenizer and precedence-climbing parser for the ASCII surface syntax.

Terms and scalars share one grammar.  Every operand parses to a `Term` or a
`Scalar`, and the operator table is keyed by the operator and by which of
the two its left operand is.  Binding, tightest first: postfix `^` (dagger
of a term; `^*` conjugates a scalar), `*` between scalars, `.*` (scalar
multiple), `#` (tensor), `*` between terms (matrix product), then `+` and
binary `-`.  `.*` nests to the right, every other chain to the left.  So
`a * b .* X` scales by the product `a * b`, and a scalar sum needs
parentheses: `(1 + i) .* X`.  A parenthesised group is read once, and what
it parses to decides which operators may follow it.

Kets take the comma sugar `|0,1,1>` and the `+`/`-` components; `I(n)` and
`O(r,c)` build identity and zero terms.  Scalars use the syntax the
renderer emits: rationals `p/q` with ASCII digits, `i`, `sqrt2`, a prefix
`-`, free atoms, `conj(a)` or `a^*`, and phase factors `e(u)` / `e(-u)` /
`e(k*u)`.  A name that is neither a call, a DEF nor a gate is a free atom,
so it is a scalar.
"""

from __future__ import annotations

import operator
import re
from functools import partial
from typing import Optional

from .errors import ParseError
from .quantum import MixExpr, MixedState, density, pure_mix, super_
from .scalar import Scalar
from .term import (
    Term, add, ce, dag, gate, gate_names, identity, ket_string, kron, kron_n, mea, mul,
    scale, uf, zero,
)


_TOKEN = re.compile(r"\|,*[01+-][01+,-]*>|<,*[01+-][01+,-]*\||[0-9]+|[^\W\d]\w*"
                    r"|\.\*|[()^*+\-#/:;\[\],=]")
_SPACE = re.compile(r"\s*")


def tokenize(src: str) -> list[str]:
    """The token texts of src and "" for the end of input, from one findall
    pass; a token's kind is its first character (`|` ket, `<` bra, digit
    num, letter or `_` name, else op).  What no token matches is skipped, so
    the tokens must cover all but whitespace, and a source that is not ASCII
    is scanned for a name led by a numeral such as '²'."""
    texts = _TOKEN.findall(src)
    if sum(map(len, texts)) != len("".join(src.split())) or not src.isascii():
        _check_tokens(src)
    texts.append("")
    return texts


def _check_tokens(src: str) -> None:
    """Raise the ParseError of the first character that starts no token:
    one that no token matches, or a numeral that starts a name."""
    pos = 0
    for m in _TOKEN.finditer(src):
        pos = _SPACE.match(src, pos).end()
        if pos < m.start() or not (m[0][0].isascii() or _is_name(m[0])):
            break
        pos = m.end()
    else:
        pos = _SPACE.match(src, pos).end()
    if pos < len(src):
        ch = src[pos]
        raise ParseError(f"malformed {'ket' if ch == '|' else 'bra'} literal" if ch in "|<"
                         else f"unexpected character {ch!r}", *_position(src, pos))


def _position(src: str, pos: int) -> tuple[int, int]:
    """The 1-based (line, column) of offset pos in src."""
    return src.count("\n", 0, pos) + 1, pos - src.rfind("\n", 0, pos)


_GATES = frozenset(gate_names())
_MINUS_ONE = Scalar.rational(-1)

# (operator, left operand is a Scalar) -> (left binding power, right binding
# power, right operand is a Scalar, builder).  A right binding power equal to
# the left one nests to the right.
_INFIX = {
    ("+", False): (1, 2, False, add),
    ("-", False): (1, 2, False, lambda a, b: add(a, scale(_MINUS_ONE, b))),
    ("+", True): (1, 2, True, operator.add),
    ("-", True): (1, 2, True, operator.sub),
    ("*", False): (2, 3, False, mul),
    ("#", False): (3, 4, False, kron),
    (".*", True): (4, 4, False, scale),
    ("*", True): (5, 6, True, operator.mul),
}
_NEGATED = 6  # a prefix `-` negates one factor with its postfix `^*`

# name -> (what it builds, argument kinds, builder); a call without argument
# kinds takes no parentheses
_CALLS = {
    "i": (Scalar, (), Scalar.i),
    "sqrt2": (Scalar, (), Scalar.sqrt2),
    "conj": (Scalar, ("atom",), Scalar.conj_var),
    "e": (Scalar, ("phase",), lambda phase: Scalar.phase(*phase)),
    "I": (Term, ("num",), identity),
    "O": (Term, ("num", "num"), zero),
    "density": (Term, ("term",), density),
    "super": (Term, ("term", "term"), super_),
    "uf": (Term, ("num",), uf),
    "Uf": (Term, ("num",), uf),
    "kron_n": (Term, ("num", "term"), kron_n),
    "CE": (Term, ("angle",), ce),
    **{name: (Term, ("num", "num"), partial(mea, name)) for name in ("Mea0", "Mea1", "Mea")},
}

# the mixed-state grammar: an unevaluated expression, see quantum.eval_mix
_MIXES = {
    "meamix": (("num", "num", "mix"), lambda n, k, inner: ("meamix", n, k, inner)),
    "unitmix": (("term", "mix"), lambda u, inner: ("unitmix", u, inner)),
    "mix1": (("term",), pure_mix),
}


def _is_name(text: str) -> bool:
    return text[:1].isalpha() or text[:1] == "_"


class Parser:
    def __init__(self, src: str, defs: Optional[dict[str, Term]] = None):
        self.src = src
        self.tokens = tokenize(src)
        self.pos = 0
        self.defs = defs or {}

    def _error(self, message: str, at: int) -> ParseError:
        """The error at token `at`, whose offset the source is scanned for."""
        starts = [m.start() for m in _TOKEN.finditer(self.src)] + [len(self.src)]
        return ParseError(message, *_position(self.src, starts[at]))

    def expect_op(self, text: str) -> None:
        tok = self.tokens[self.pos]
        if tok != text:
            raise self._error(f"expected {text!r}, found {tok or 'end of input'}", self.pos)
        self.pos += 1

    # -- entry points
    def parse_term(self) -> Term:
        return self._end(self.term())

    def parse_mixed(self) -> MixExpr:
        return self._end(self.mix())

    def _end(self, value):
        tok = self.tokens[self.pos]
        if tok:
            raise self._error(f"unexpected trailing input {tok!r}", self.pos)
        return value

    # -- terms and scalars
    def term(self) -> Term:
        start = self.pos
        t = self.expr(0)
        if isinstance(t, Scalar):
            raise self._not_a_term(start)
        return t

    def expr(self, min_bp: int, scalar: bool = False):
        """The longest operand whose operators bind at least `min_bp`: a Term
        or a Scalar, and only a Scalar when `scalar` is set."""
        start = self.pos
        left = self.primary(scalar)
        tokens = self.tokens
        while True:
            text = tokens[self.pos]
            is_scalar = isinstance(left, Scalar)
            if text == "^" and not is_scalar:  # postfix binds tightest
                self.pos += 1
                left = dag(left)
                continue
            if text == "^" and tokens[self.pos + 1] == "*":  # `a^*` conjugates
                self.pos += 2
                left = left.conj()
                continue
            rule = _INFIX.get((text, is_scalar))
            if rule is None or rule[0] < min_bp or (scalar and not rule[2]):
                break
            _, right_bp, right_scalar, build = rule
            self.pos += 1
            right_start = self.pos
            right = self.expr(right_bp, scalar)
            if isinstance(right, Scalar) != right_scalar:
                # a scalar in a term's place: the right operand, or the left beside a term
                raise self._not_a_term(start if right_scalar else right_start)
            left = build(left, right)
        return left

    def _not_a_term(self, start: int) -> ParseError:
        while self.tokens[start] == "(":
            start += 1
        tok = self.tokens[start]
        if _is_name(tok):
            return self._error(f"unknown name {tok!r}", start)
        return self._error(f"expected an expression, found {tok}", start)

    def primary(self, scalar: bool):
        at = self.pos
        text = self.tokens[at]
        first = text[:1]
        if first.isdigit():
            p = self._num()
            if self.tokens[self.pos] != "/":
                return Scalar.rational(p)
            self.pos += 1
            den = self.pos
            q = self._num()
            if q == 0:
                raise self._error("division by zero", den)
            return Scalar.rational(p, q)
        self.pos += 1  # steps past the end of input only on the way to the error below
        if text == "(":
            inner = self.expr(0, scalar)
            self.expect_op(")")
            return inner
        if text == "-":
            return -self.expr(_NEGATED, True)
        if _is_name(text):
            return self._name(at, scalar)
        if (first == "|" or first == "<") and not scalar:
            t = ket_string(text[1:-1].replace(",", ""))
            return t if first == "|" else dag(t)
        raise self._error(f"expected {'a scalar' if scalar else 'an expression'}, "
                          f"found {text or 'end of input'}", at)

    def _name(self, at: int, scalar: bool):
        name = self.tokens[at]
        call = _CALLS.get(name)
        builds = call[0] if call else Term if name in self.defs or name in _GATES else Scalar
        if scalar and builds is Term:
            raise self._error(f"{name!r} is not a scalar", at)
        if call:
            return call[2](*self._args(name, call[1]))
        if builds is Scalar:
            return Scalar.var(name)  # a free atom
        return self.defs[name] if name in self.defs else gate(name)

    def _args(self, name: str, kinds: tuple[str, ...]) -> list:
        if not kinds:
            return []
        self.expect_op("(")
        args = []
        for kind in kinds:
            if args:
                self.expect_op(",")
            args.append(self._arg(name, kind))
        self.expect_op(")")
        return args

    def _arg(self, name: str, kind: str):
        if kind == "num":
            return self._num()
        if kind == "term":
            return self.term()
        if kind == "mix":
            return self.mix()
        if kind == "phase":  # [-][k*]angle
            k = 1
            if self.tokens[self.pos] == "-":
                self.pos += 1
                k = -1
            if self.tokens[self.pos][:1].isdigit():
                k *= self._num()
                self.expect_op("*")
            return self._arg(name, "angle"), k
        at = self.pos  # an angle or atom name
        self.pos += 1
        if not _is_name(self.tokens[at]):
            raise self._error(f"{name} takes an {kind} name", at)
        return self.tokens[at]

    def _num(self) -> int:
        at = self.pos
        tok = self.tokens[at]
        if not tok[:1].isdigit():
            raise self._error(f"expected a number, found {tok!r}", at)
        self.pos += 1
        try:
            return int(tok)
        except ValueError:  # more digits than Python converts
            raise self._error(f"number of {len(tok)} digits is too long", at) from None

    # -- mixed states
    def mix(self) -> MixExpr:
        at = self.pos
        tok = self.tokens[at]
        self.pos += 1
        if tok == "[":
            branches = [self._branch()]
            while self.tokens[self.pos] == ";":
                self.pos += 1
                branches.append(self._branch())
            self.expect_op("]")
            return MixedState(tuple(branches))
        if tok in _MIXES:
            kinds, build = _MIXES[tok]
            return build(*self._args(tok, kinds))
        raise self._error("expected a mixed state", at)

    def _branch(self) -> tuple[Scalar, Term]:
        p = self.expr(0, True)
        self.expect_op(":")
        return p, self.term()


def parse(src: str, defs: Optional[dict[str, Term]] = None) -> Term:
    return Parser(src, defs).parse_term()


def parse_mixed(src: str, defs: Optional[dict[str, Term]] = None) -> MixExpr:
    return Parser(src, defs).parse_mixed()


def parse_scalar(src: str) -> Scalar:
    p = Parser(src)
    return p._end(p.expr(0, True))
