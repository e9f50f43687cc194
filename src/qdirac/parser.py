"""Tokenizer and recursive-descent parser for the ASCII surface syntax.

Precedence, tightest first: postfix `^` (dagger), `.*` (scalar multiple),
`#` (tensor), `*` (matrix product), `+`/binary `-`.  Kets support the
comma sugar `|0,1,1>` and the `+`/`-` superposition components; `I(n)` and
`O(r,c)` build identity and zero terms.  Scalars use the same syntax the
renderer emits: rationals, `i`, `sqrt2`, free atoms, `conj(a)` or `a^*`,
and phase factors `e(u)` / `e(-u)` / `e(k*u)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ParseError
from .quantum import MixExpr, MixedState, density, pure_mix, super_
from .scalar import Scalar
from .term import (
    Term, add, ce, dag, gate, gate_names, identity, ket_string, kron, kron_n, mea, mul,
    scale, uf, zero,
)

_KET_CHARS = set("01+-,")
_PUNCT2 = (".*",)
_PUNCT1 = "()^*+-#/:;[],="


@dataclass(frozen=True)
class Token:
    kind: str  # "ket", "bra", "num", "ident", "op", "eof"
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_line, start_col = line, col
        if ch == "|":
            j = i + 1
            while j < n and src[j] in _KET_CHARS:
                j += 1
            if j < n and src[j] == ">" and j > i + 1:
                tokens.append(Token("ket", src[i:j + 1], start_line, start_col))
                col += j + 1 - i
                i = j + 1
                continue
            raise ParseError("malformed ket literal", start_line, start_col)
        if ch == "<":
            j = i + 1
            while j < n and src[j] in _KET_CHARS:
                j += 1
            if j < n and src[j] == "|" and j > i + 1:
                tokens.append(Token("bra", src[i:j + 1], start_line, start_col))
                col += j + 1 - i
                i = j + 1
                continue
            raise ParseError("malformed bra literal", start_line, start_col)
        if src.startswith(".*", i):
            tokens.append(Token("op", ".*", start_line, start_col))
            i += 2
            col += 2
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(Token("num", src[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(Token("ident", src[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT1:
            tokens.append(Token("op", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(Token("eof", "", line, col))
    return tokens


_FUNCTIONS = {"density", "super", "uf", "Uf", "kron_n", "I", "O", "CE", "Mea0", "Mea1", "Mea"}


class Parser:
    def __init__(self, src: str, defs: Optional[dict[str, Term]] = None):
        self.tokens = tokenize(src)
        self.pos = 0
        self.defs = defs or {}
        self.gates = set(gate_names())

    # -- token helpers
    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_op(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text == text

    def expect_op(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'}",
                             tok.line, tok.col)
        return self.next()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # -- entry points
    def parse_term(self) -> Term:
        t = self.parse_add()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
        return t

    def parse_mixed(self) -> MixExpr:
        m = self.parse_mix()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
        return m

    # -- term grammar
    def parse_add(self) -> Term:
        t = self.parse_mul()
        while self.at_op("+") or self.at_op("-"):
            op = self.next().text
            rhs = self.parse_mul()
            if op == "-":
                rhs = scale(Scalar.rational(-1), rhs)
            t = add(t, rhs)
        return t

    def parse_mul(self) -> Term:
        t = self.parse_kron()
        while self.at_op("*"):
            self.next()
            t = mul(t, self.parse_kron())
        return t

    def parse_kron(self) -> Term:
        t = self.parse_scaled()
        while self.at_op("#"):
            self.next()
            t = kron(t, self.parse_scaled())
        return t

    def parse_scaled(self) -> Term:
        save = self.pos
        try:
            c = self.parse_scalar_product()
            if self.at_op(".*"):
                self.next()
                return scale(c, self.parse_scaled())
        except ParseError:
            # no term starts with a number or '-', so the scalar's error stands
            first = self.tokens[save]
            if first.kind == "num" or (first.kind == "op" and first.text == "-"):
                raise
        self.pos = save
        return self.parse_postfix()

    def parse_postfix(self) -> Term:
        t = self.parse_atom()
        while self.at_op("^"):
            self.next()
            t = dag(t)
        return t

    def parse_atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            self.next()
            t = self.parse_add()
            self.expect_op(")")
            return t
        if tok.kind == "ket":
            self.next()
            return self._ket(tok)
        if tok.kind == "bra":
            self.next()
            return dag(self._ket(tok))
        if tok.kind == "ident":
            return self.parse_ident_atom()
        raise ParseError(f"expected an expression, found {tok.text or 'end of input'}",
                         tok.line, tok.col)

    def _ket(self, tok: Token) -> Term:
        bits = tok.text[1:-1].replace(",", "")
        if not bits:
            raise ParseError("empty ket literal", tok.line, tok.col)
        try:
            return ket_string(bits)
        except Exception:
            raise ParseError(f"malformed ket components {tok.text!r}", tok.line, tok.col)

    def parse_ident_atom(self) -> Term:
        tok = self.next()
        name = tok.text
        if name == "I":
            self.expect_op("(")
            n = self._num()
            self.expect_op(")")
            return identity(n)
        if name == "O":
            self.expect_op("(")
            r = self._num()
            self.expect_op(",")
            c = self._num()
            self.expect_op(")")
            return zero(r, c)
        if name == "density":
            self.expect_op("(")
            t = self.parse_add()
            self.expect_op(")")
            return density(t)
        if name == "super":
            self.expect_op("(")
            m = self.parse_add()
            self.expect_op(",")
            rho = self.parse_add()
            self.expect_op(")")
            return super_(m, rho)
        if name in ("uf", "Uf"):
            self.expect_op("(")
            n = self._num()
            self.expect_op(")")
            return uf(n)
        if name == "kron_n":
            self.expect_op("(")
            n = self._num()
            self.expect_op(",")
            base = self.parse_add()
            self.expect_op(")")
            return kron_n(n, base)
        if name == "CE":
            self.expect_op("(")
            angle = self.next()
            if angle.kind != "ident":
                raise ParseError("CE takes an angle name", angle.line, angle.col)
            self.expect_op(")")
            return ce(angle.text)
        if name in ("Mea0", "Mea1", "Mea"):
            self.expect_op("(")
            n = self._num()
            self.expect_op(",")
            k = self._num()
            self.expect_op(")")
            return mea(name, n, k)
        if name in self.defs:
            return self.defs[name]
        if name in self.gates:
            return gate(name)
        raise ParseError(f"unknown name {name!r}", tok.line, tok.col)

    def _num(self) -> int:
        tok = self.peek()
        if tok.kind != "num":
            raise ParseError(f"expected a number, found {tok.text!r}", tok.line, tok.col)
        self.next()
        return int(tok.text)

    # -- scalar grammar
    def parse_scalar(self) -> Scalar:
        s = self.parse_scalar_product()
        while self.at_op("+") or self.at_op("-"):
            op = self.next().text
            rhs = self.parse_scalar_product()
            s = s + rhs if op == "+" else s - rhs
        return s

    def parse_scalar_product(self) -> Scalar:
        s = self.parse_scalar_factor()
        while self.at_op("*"):
            self.next()
            s = s * self.parse_scalar_factor()
        return s

    def parse_scalar_factor(self) -> Scalar:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return -self.parse_scalar_factor()
        if tok.kind == "op" and tok.text == "(":
            self.next()
            s = self.parse_scalar()
            self.expect_op(")")
            return s
        if tok.kind == "num":
            self.next()
            p = int(tok.text)
            if self.at_op("/"):
                self.next()
                den = self.peek()
                q = self._num()
                if q == 0:
                    raise ParseError("division by zero", den.line, den.col)
                return Scalar.rational(p, q)
            return Scalar.rational(p)
        if tok.kind == "ident":
            name = tok.text
            if name == "i":
                self.next()
                return Scalar.i()
            if name == "sqrt2":
                self.next()
                return Scalar.sqrt2()
            if name == "conj":
                self.next()
                self.expect_op("(")
                inner = self.next()
                if inner.kind != "ident":
                    raise ParseError("conj takes an atom name", inner.line, inner.col)
                self.expect_op(")")
                return Scalar.conj_var(inner.text)
            if name == "e":
                self.next()
                self.expect_op("(")
                k = 1
                if self.at_op("-"):
                    self.next()
                    k = -1
                if self.peek().kind == "num":
                    k *= self._num()
                    self.expect_op("*")
                angle = self.next()
                if angle.kind != "ident":
                    raise ParseError("e(...) takes an angle name", angle.line, angle.col)
                self.expect_op(")")
                return Scalar.phase(angle.text, k)
            if name in self.gates or name in _FUNCTIONS or name in self.defs:
                raise ParseError(f"{name!r} is not a scalar", tok.line, tok.col)
            self.next()
            # a^* is the conjugate of atom a
            if self.at_op("^") and self.peek(1).kind == "op" and self.peek(1).text == "*":
                self.next()
                self.next()
                return Scalar.conj_var(name)
            return Scalar.var(name)
        raise ParseError(f"expected a scalar, found {tok.text or 'end of input'}",
                         tok.line, tok.col)

    # -- mixed-state grammar: an unevaluated expression, see quantum.eval_mix
    def parse_mix(self) -> MixExpr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "[":
            self.next()
            branches = [self._branch()]
            while self.at_op(";"):
                self.next()
                branches.append(self._branch())
            self.expect_op("]")
            return MixedState(tuple(branches))
        if tok.kind == "ident" and tok.text == "meamix":
            self.next()
            self.expect_op("(")
            n = self._num()
            self.expect_op(",")
            k = self._num()
            self.expect_op(",")
            inner = self.parse_mix()
            self.expect_op(")")
            return ("meamix", n, k, inner)
        if tok.kind == "ident" and tok.text == "unitmix":
            self.next()
            self.expect_op("(")
            u = self.parse_add()
            self.expect_op(",")
            inner = self.parse_mix()
            self.expect_op(")")
            return ("unitmix", u, inner)
        if tok.kind == "ident" and tok.text == "mix1":
            self.next()
            self.expect_op("(")
            op = self.parse_add()
            self.expect_op(")")
            return pure_mix(op)
        raise ParseError("expected a mixed state", tok.line, tok.col)

    def _branch(self) -> tuple[Scalar, Term]:
        p = self.parse_scalar()
        self.expect_op(":")
        op = self.parse_add()
        return p, op


def parse(src: str, defs: Optional[dict[str, Term]] = None) -> Term:
    return Parser(src, defs).parse_term()


def parse_mixed(src: str, defs: Optional[dict[str, Term]] = None) -> MixExpr:
    return Parser(src, defs).parse_mixed()


def parse_scalar(src: str) -> Scalar:
    p = Parser(src)
    s = p.parse_scalar()
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return s
