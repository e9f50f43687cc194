"""Dimension-annotated expression trees for Dirac terms, plus the gate library.

Terms are immutable and hash-consed: structurally equal terms are the same
object, so equality checks used by the rewrite tables are O(1).  Dimension
errors can only arise at construction time; every rewrite therefore maps
well-formed terms to well-formed terms.  Every dim is a power of two, so a
term acts on whole qubit slots.  Each term also carries three bits, set
once when the term is first built, from its children's bits and kinds and,
under a scaling, its scalar, with no walk (see Term): two that the traced
rewriter's stage guards read, and one that tells the dense oracle a term
holds no atom.
"""

from __future__ import annotations

from functools import cache

from .errors import DimMismatch, InvalidQubitIndex, QDiracError, UnknownGate, show_dim
from .scalar import Scalar

KET0 = "ket0"
KET1 = "ket1"
ZERO = "zero"
IDENT = "ident"
SCALE = "scale"
MUL = "mul"
ADD = "add"
KRON = "kron"
DAG = "dag"

_intern: dict = {}


_BASIS = (KET0, KET1)
_ZERO_SCALAR, _ONE_SCALAR = Scalar.zero(), Scalar.one()  # interned, so compared by identity


class Term:
    """A node of an expression tree.  Interned, so structural equality is
    identity: a Term hashes and compares as the object itself does.

    Three bits are set when a term is first interned, from its children's:
    `pushed`, every dagger in it sits on a basis ket, so dagger pushing
    (L14-L16, D_db) leaves it as it is; `shaped`, it is built by SCALE,
    ADD and KRON from zeros, identities, basis kets and bras and |b><b'|,
    the shape the traced collector reads, with no zero or unit scalar and no
    zero operand, so none of L3, L9 and L10 drops an operand in it; and
    `closed`, no atom occurs under it, so it has one matrix under every
    binding (a scaling's scalar is `constant`)."""

    __slots__ = ("kind", "payload", "children", "rows", "cols", "pushed", "shaped", "closed")

    def __new__(cls, kind, payload, children, rows, cols):
        # Children are interned and compare by identity, so the key holds them.
        key = (kind, payload, children)
        cached = _intern.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.kind = kind
        self.payload = payload
        self.children = children
        self.rows = rows
        self.cols = cols
        if kind == MUL:  # only |b><b'| is in shape
            a, b = children
            self.pushed = a.pushed and b.pushed
            self.shaped = b.kind == DAG and a.kind in _BASIS and b.shaped
            self.closed = a.closed and b.closed
        elif kind == SCALE:
            x = children[0]
            self.pushed = x.pushed
            self.shaped = (x.shaped and x.kind != ZERO
                           and payload is not _ZERO_SCALAR and payload is not _ONE_SCALAR)
            self.closed = x.closed and payload.constant
        elif kind == DAG:  # a bra, or a dagger to push
            self.pushed = self.shaped = children[0].kind in _BASIS
            self.closed = children[0].closed
        elif children:  # a sum or tensor product
            a, b = children
            self.pushed = a.pushed and b.pushed
            self.shaped = a.shaped and b.shaped and a.kind != ZERO and b.kind != ZERO
            self.closed = a.closed and b.closed
        else:  # a leaf
            self.pushed = self.shaped = self.closed = True
        _intern[key] = self
        return self

    @property
    def dims(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __repr__(self):
        return f"<{render(self)} : {self.rows}x{self.cols}>"


def ket0() -> Term:
    return Term(KET0, None, (), 2, 1)


def ket1() -> Term:
    return Term(KET1, None, (), 2, 1)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and not n & (n - 1)


def zero(rows: int, cols: int) -> Term:
    if not (_is_power_of_two(rows) and _is_power_of_two(cols)):
        raise DimMismatch("power-of-two dims", (rows, cols), "zero")
    return Term(ZERO, (rows, cols), (), rows, cols)


def identity(n: int) -> Term:
    if not _is_power_of_two(n):
        raise DimMismatch("power-of-two dim", n, "identity")
    return Term(IDENT, n, (), n, n)


def scale(c: Scalar, t: Term) -> Term:
    return Term(SCALE, c, (t,), t.rows, t.cols)


def mul(a: Term, b: Term) -> Term:
    if a.cols != b.rows:
        raise DimMismatch(a.cols, b.rows, "matmul inner dimension")
    return Term(MUL, None, (a, b), a.rows, b.cols)


def add(a: Term, b: Term) -> Term:
    if a.dims != b.dims:
        raise DimMismatch(a.dims, b.dims, "addition")
    return Term(ADD, None, (a, b), a.rows, a.cols)


def kron(a: Term, b: Term) -> Term:
    return Term(KRON, None, (a, b), a.rows * b.rows, a.cols * b.cols)


def dag(t: Term) -> Term:
    return Term(DAG, None, (t,), t.cols, t.rows)


def add_all(terms) -> Term:
    terms = list(terms)
    if not terms:
        raise ValueError("empty sum")
    out = terms[-1]
    for t in reversed(terms[:-1]):
        out = add(t, out)
    return out


def mul_all(terms) -> Term:
    terms = list(terms)
    if not terms:
        raise ValueError("empty product")
    out = terms[-1]
    for t in reversed(terms[:-1]):
        out = mul(t, out)
    return out


def kron_all(terms) -> Term:
    terms = list(terms)
    if not terms:
        raise ValueError("empty tensor product")
    out = terms[-1]
    for t in reversed(terms[:-1]):
        out = kron(t, out)
    return out


def operands(t: Term, keep=()) -> list[Term]:
    """The operands of t's chain of sums, products or tensor products, left
    to right, however the chain nests: the subterms below t that are of
    another kind, or in `keep`.  [t] when t is none of the three.
    Iterative, so a chain of thousands of links costs no recursion."""
    kind = t.kind
    if kind not in _BINARY:
        return [t]
    a, b = t.children
    if a.kind != kind and b.kind != kind:  # the common case needs no walk
        return [a, b]
    out = []
    stack = [b, a]
    while stack:
        c = stack.pop()
        if c.kind == kind and c not in keep:
            stack += (c.children[1], c.children[0])
        else:
            out.append(c)
    return out


# --- rendering ---------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_KRON, _PREC_SCALE, _PREC_ATOM = 0, 1, 2, 3, 4

# The per-kind table of both renderers: each compound kind's precedence
# (every other node is an atom), each binary kind's operator, and the
# texts of the basis kets and bras.
_PREC = {ADD: _PREC_ADD, MUL: _PREC_MUL, KRON: _PREC_KRON, SCALE: _PREC_SCALE}
_BINARY = {MUL: " * ", ADD: " + ", KRON: " # "}
_KETS = {KET0: "|0>", KET1: "|1>"}
_BRAS = {KET0: "<0|", KET1: "<1|"}


def dim_text(d: int) -> str:
    """A dim as the renderers write it: in decimal, unless it has more
    digits than Python converts (the parser refuses such a literal too),
    and then as 2^k, the way show_dim writes it."""
    try:
        return str(d)
    except ValueError:
        return show_dim(d)


def _leaf(t: Term, dim=dim_text) -> str | None:
    """The text of a leaf or a bra, None for any other node."""
    kind = t.kind
    if kind in _KETS:
        return _KETS[kind]
    if kind == IDENT:
        return f"I({dim(t.payload)})"
    if kind == ZERO:
        return f"O({dim(t.rows)},{dim(t.cols)})"
    if kind == DAG:
        return _BRAS.get(t.children[0].kind)
    return None


def render(t: Term) -> str:
    """Canonical ASCII surface syntax; parse(render(t)) reproduces t's meaning."""
    return render_with(t, {})


def render_with(t: Term, memo: dict) -> str:
    """render(t), reading and extending memo, the caller's map from
    subterms to their text unbracketed.

    Iterative, and each node's text is joined from its operands' texts.  The
    operands of a sum, product or tensor product are the subterms below it
    that are not of its kind: its whole chain of that kind, nested either
    way, is written without brackets.  The operands' texts and t's are
    memoized, since a trace step's term is often an earlier step's result,
    but not those of the chain nodes between, so rendering a chain of n
    summands stores no text per suffix."""
    text = memo.get(t) or _leaf(t)
    if text is not None:
        return text
    frames = [_frame(t, memo)]
    while True:
        node, ops, parts, prec = frames[-1]
        for op in ops[len(parts):]:
            text = memo.get(op)
            if text is None:
                if op.children and (op.kind != DAG or op.children[0].kind not in _KETS):
                    frames.append(_frame(op, memo))  # render op first, then come back
                    break
                text = memo[op] = _leaf(op)
            parts.append(f"({text})" if prec and _PREC.get(op.kind, _PREC_ATOM) < prec else text)
        else:
            kind = node.kind
            if kind == SCALE:
                text = render_scaled(node.payload, parts[0])
            elif kind == DAG:
                text = parts[0] + "^"
            else:
                text = _BINARY[kind].join(parts)
            frames.pop()
            memo[node] = text  # where the parent's loop, or a later call, picks it up
            if not frames:
                return text


def _frame(t: Term, memo: dict) -> tuple:
    """(t, its operands, their texts so far, t's precedence) for render_with."""
    ops = operands(t, memo) if t.kind in _BINARY else t.children
    return t, ops, [], _PREC.get(t.kind, _PREC_ATOM)


def render_head(t: Term, limit: int) -> str:
    """render(t) cut to `limit` characters, for messages, so with the dims of
    I and O written as show_dim writes them.  A lazy walk that stops at the
    limit, so a deep or widely shared term costs no more than its prefix."""
    out, size = [], 0
    stack: list = [(t, _PREC_ADD)]
    while stack and size <= limit:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            size += len(item)
            continue
        node, prec = item
        leaf = _leaf(node, show_dim)
        if leaf is not None:
            stack.append(leaf)
            continue
        kind = node.kind
        body_prec = _PREC.get(kind, _PREC_ATOM)
        if kind in _BINARY:
            pieces = [(node.children[0], body_prec), _BINARY[kind], (node.children[1], body_prec)]
        elif kind == SCALE:
            pieces = [render_scaled(node.payload, ""), (node.children[0], _PREC_SCALE)]
        else:  # a dagger
            pieces = [(node.children[0], _PREC_ATOM), "^"]
        if body_prec < prec:
            pieces = ["(", *pieces, ")"]
        stack.extend(reversed(pieces))
    text = "".join(out)
    return text if not stack and len(text) <= limit else text[:limit - 3] + "..."


def render_scaled(c: Scalar, body: str) -> str:
    """`c .* body`, with c parenthesized when it renders as a sum."""
    s = str(c)
    return f"({s}) .* {body}" if " + " in s else f"{s} .* {body}"


# --- gate and state library -------------------------------------------


def _b(j: int, k: int) -> Term:
    lhs = ket0() if j == 0 else ket1()
    rhs = ket0() if k == 0 else ket1()
    return mul(lhs, dag(rhs))


def _scaled_sum(pairs) -> Term:
    return add_all(scale(c, t) if c is not None else t for c, t in pairs)


_HALF = Scalar.rational(1, 2)
_INV_SQRT2 = Scalar.inv_sqrt2()
_NEG_INV_SQRT2 = -Scalar.inv_sqrt2()
_NEG_ONE = Scalar.rational(-1)
_NEG_I = -Scalar.i()
_I = Scalar.i()


def _build_library() -> dict[str, Term]:
    b0, b1, b2, b3 = _b(0, 0), _b(0, 1), _b(1, 0), _b(1, 1)
    i2 = identity(2)
    x = add(b1, b2)
    y = add(scale(_NEG_I, b1), scale(_I, b2))
    z = add(b0, scale(_NEG_ONE, b3))
    h = _scaled_sum(
        [(_INV_SQRT2, b0), (_INV_SQRT2, b1), (_INV_SQRT2, b2), (_NEG_INV_SQRT2, b3)]
    )
    plus = add(scale(_INV_SQRT2, ket0()), scale(_INV_SQRT2, ket1()))
    minus = add(scale(_INV_SQRT2, ket0()), scale(_NEG_INV_SQRT2, ket1()))
    cx = add(kron(b0, i2), kron(b3, x))
    xc = add(kron(x, b3), kron(i2, b0))
    swap = add_all([kron(b0, b0), kron(b1, b2), kron(b2, b1), kron(b3, b3)])
    cz = add(kron(b0, i2), kron(b3, z))
    tof = add(kron(b0, identity(4)), kron(b3, cx))
    not_cx = add(kron(b0, x), kron(b3, i2))
    cxx = add(kron(b0, kron(i2, i2)), kron(b3, kron(x, x)))
    cix = add(kron(b0, kron(i2, i2)), kron(b3, kron(i2, x)))
    bell00 = add(scale(_INV_SQRT2, kron(ket0(), ket0())), scale(_INV_SQRT2, kron(ket1(), ket1())))
    bell01 = add(scale(_INV_SQRT2, kron(ket0(), ket1())), scale(_INV_SQRT2, kron(ket1(), ket0())))
    bell10 = add(
        scale(_INV_SQRT2, kron(ket0(), ket0())), scale(_NEG_INV_SQRT2, kron(ket1(), ket1()))
    )
    bell11 = add(
        scale(_INV_SQRT2, kron(ket0(), ket1())), scale(_NEG_INV_SQRT2, kron(ket1(), ket0()))
    )
    basis_sum = add_all([b0, b1, b2, b3])
    mi = kron(basis_sum, basis_sum)
    cps = kron(add(scale(_HALF, mi), scale(_NEG_ONE, kron(i2, i2))), i2)
    ora0 = add(kron(b0, add(kron(b0, x), kron(b3, i2))), kron(b3, kron(i2, i2)))
    ora1 = add(kron(b0, cx), kron(b3, kron(i2, i2)))
    ora2 = add(kron(b0, kron(i2, i2)), kron(b3, add(kron(b0, x), kron(b3, i2))))
    ora3 = add(kron(b0, kron(i2, i2)), kron(b3, cx))
    return {
        "B0": b0,
        "B1": b1,
        "B2": b2,
        "B3": b3,
        "I2": i2,
        "X": x,
        "Y": y,
        "Z": z,
        "H": h,
        "CX": cx,
        "XC": xc,
        "SWAP": swap,
        "CZ": cz,
        "TOF": tof,
        "not_CX": not_cx,
        "CXX": cxx,
        "CIX": cix,
        "ket_plus": plus,
        "ket_minus": minus,
        "bell00": bell00,
        "bell01": bell01,
        "bell10": bell10,
        "bell11": bell11,
        "MI": mi,
        "CPS": cps,
        "ORA0": ora0,
        "ORA1": ora1,
        "ORA2": ora2,
        "ORA3": ora3,
    }


_LIBRARY = _build_library()


def gate_names() -> list[str]:
    return sorted(_LIBRARY)


def gate(name: str) -> Term:
    """The constant gate or state of the library with this name."""
    if name not in _LIBRARY:
        raise UnknownGate(name)
    return _LIBRARY[name]


@cache
def library_subterms() -> tuple[Term, ...]:
    """The library's gates and states and every subterm under them, each
    once, children before parents, in the order of gate_names().  These are
    the constants the evaluators keep for the whole process: fixed by the
    library, with no atom under any, none of them wider than 8x8."""
    out: dict[Term, None] = {}
    for name in gate_names():
        stack = [(_LIBRARY[name], False)]
        while stack:
            t, children_done = stack.pop()
            if children_done:
                out[t] = None
            elif t not in out:
                stack.append((t, True))
                stack.extend((c, False) for c in reversed(t.children))
    return tuple(out)


def ce(angle: str) -> Term:
    """The controlled phase gate |0><0| # I + |1><1| # e(angle) I."""
    phase = Scalar.phase(angle)
    b0, b3, i2 = _LIBRARY["B0"], _LIBRARY["B3"], _LIBRARY["I2"]
    return add(kron(b0, i2), kron(b3, add(scale(phase, b0), scale(phase, b3))))


def mea(name: str, n: int, k: int) -> Term:
    """The projector Mea0 or Mea1 onto qubit k of n+1 being 0 or 1, or their sum Mea."""
    _check_width(name, n)
    if n < 0 or k < 0 or k > n:
        raise InvalidQubitIndex(f"measurement index k={k} outside 0..{n}")
    proj = _LIBRARY["B0"] if name == "Mea0" else _LIBRARY["B3"]
    if name == "Mea":
        return add(mea("Mea0", n, k), mea("Mea1", n, k))
    return kron(identity(2 ** k), kron(proj, identity(2 ** (n - k))))


def uf(n: int) -> Term:
    """The CX-ladder oracle on n+1 qubits used by the Deutsch-Jozsa family:
    uf(0) = I(2), uf(n) = W * (I(2) # uf(n-1)) * W with W = CX # I(2^(n-1))."""
    if n < 0:
        raise ValueError("uf needs n >= 0")
    _check_width("uf", n)
    out = identity(2)
    for k in range(1, n + 1):
        wing = kron(_LIBRARY["CX"], identity(2 ** (k - 1)))
        out = mul(wing, mul(kron(identity(2), out), wing))
    return out


# A KRON node stores its dims as integers of up to n bits, so building
# kron_n takes memory quadratic in n; kron_n, mea and uf refuse a wider n
# up front.
KRON_N_MAX = 1024


def _check_width(name: str, n: int) -> None:
    if n > KRON_N_MAX:
        raise QDiracError(f"{name} width {n} exceeds the limit of {KRON_N_MAX}")


def kron_n(n: int, base: Term) -> Term:
    if n < 0:
        raise ValueError("kron_n needs n >= 0")
    _check_width("kron_n", n)
    if n == 0:
        return identity(1)
    out = base
    for _ in range(n - 1):
        out = kron(base, out)
    return out


def ket_string(bits: str) -> Term:
    """Tensor of single-qubit states from a comma-free component string."""
    states = {"0": ket0(), "1": ket1(), "+": _LIBRARY["ket_plus"], "-": _LIBRARY["ket_minus"]}
    try:
        return kron_all([states[b] for b in bits])
    except KeyError as exc:
        raise UnknownGate(f"unknown ket component {exc.args[0]!r}") from None
