"""Rewrite engine: passes, pipeline, traces, and normal-form canonicity."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import qdirac.corpus as corpus_module
import qdirac.normal_form as normal_form
import qdirac.rewrite as rewrite_module
from qdirac.cli import EXIT_INPUT, EXIT_OK, main
from qdirac.corpus import build_defs, parse_corpus
from qdirac.errors import FuelExhausted, NotAnOperator, NotInReducedShape
from qdirac.normal_form import NormalForm
from qdirac.oracle import eval_dense, mat_equiv
from qdirac.parser import parse
from qdirac.rewrite import RewriteTrace, Rewriter, render_nf, replay, unified_base
from qdirac.scalar import Scalar
from qdirac.term import (
    ADD, DAG, IDENT, KET0, KET1, KRON, MUL, SCALE, ZERO, add, add_all, dag, gate, identity, ket0,
    ket1, ket_string, kron, kron_all, kron_n, mul, operands, render, scale, uf, zero,
)

from conftest import (
    CORPUS_DIR, REPO_DIR, rand_circuit, rand_op, rand_scalar, rand_state, rand_term, subterms,
)

LAW_IDS = {f"L{i}" for i in range(1, 17)} | {"Lsum", "G_db", "B_db", "D_db"}
PLUS, MINUS = gate("ket_plus"), gate("ket_minus")
BASIS = (KET0, KET1)
BRA_PLUS, BRA_MINUS = rewrite_module._BRA_PLUS, rewrite_module._BRA_MINUS


def nf_of(t) -> NormalForm:
    return Rewriter().normalize(t)


def first_step(t, push=False):
    """The law and result of the first step a traced Rewriter records on t,
    in its dagger-pushing stage if push, else in its reduction."""
    trace = RewriteTrace()
    rw = Rewriter(trace=trace)
    (rw.push_daggers if push else rw.reduce)(t)
    step = trace.steps[0]
    return step.law, step.after


def test_contract_inner():
    assert first_step(mul(dag(ket0()), ket0())) == ("L1", identity(1))
    assert first_step(mul(dag(ket1()), ket0())) == ("L1", zero(1, 1))
    assert first_step(mul(dag(ket0()), mul(ket0(), dag(ket1())))) == ("L1", dag(ket1()))


def test_base_reduce():
    assert first_step(mul(gate("B0"), ket0())) == ("B_db", ket0())
    assert first_step(mul(gate("B1"), ket0())) == ("B_db", zero(2, 1))
    assert first_step(mul(gate("B3"), ket1())) == ("B_db", ket1())
    assert first_step(mul(BRA_MINUS, gate("B3"))) \
        == ("B_db", scale(-Scalar.inv_sqrt2(), dag(ket1())))


def test_gate_reduce():
    assert first_step(mul(gate("X"), ket0())) == ("G_db", ket1())
    assert first_step(mul(gate("H"), gate("ket_plus"))) == ("G_db", ket0())
    assert first_step(mul(identity(2), ket1())) == ("L8", ket1())
    assert first_step(mul(gate("H"), gate("ket_minus"))) == ("G_db", ket1())
    assert first_step(mul(BRA_PLUS, gate("H"))) == ("G_db", dag(ket0()))
    assert first_step(mul(gate("CX"), kron(PLUS, MINUS))) == ("G_db", kron(MINUS, MINUS))
    # a two-qubit result that is no product state is summed over its first qubit
    assert first_step(mul(gate("CZ"), kron(MINUS, MINUS))) == ("G_db", add(
        scale(Scalar.inv_sqrt2(), kron(ket0(), MINUS)),
        scale(-Scalar.inv_sqrt2(), kron(ket1(), PLUS))))


def test_assoc_right():
    a, b, c = gate("X"), gate("Y"), gate("Z")
    assert first_step(mul(mul(a, b), c)) == ("L2", mul(a, mul(b, c)))


def test_mult_kron():
    h, i2, x = gate("H"), identity(2), gate("X")
    lhs = mul(kron(h, kron(i2, i2)), kron(ket0(), kron(ket0(), ket0())))
    assert first_step(lhs) == ("L13", kron(mul(h, ket0()),
                                           kron(mul(i2, ket0()), mul(i2, ket0()))))
    # an identity block that straddles the other side's cut is split into I(2) slots
    straddling = mul(kron(identity(4), x), kron(x, identity(4)))
    assert first_step(straddling) == ("L13", kron(mul(i2, x), kron(mul(i2, i2), mul(x, i2))))
    # no cut lines up even then, so the first step is inside a factor
    trace = RewriteTrace()
    untouched = mul(kron(gate("CX"), x), kron(x, gate("CX")))
    Rewriter(trace=trace).reduce(untouched)
    assert trace.steps[0].path != b""
    # only a tensor product is cut into factors: a sum or a product is one
    outer = parse("(|0,1> + |1,0>) * (<0| # <1|)")
    assert rewrite_module._try_mult_kron(*outer.children) is None
    for t in (outer, parse("1/2 .* (density(bell00))")):
        assert Rewriter(trace=RewriteTrace()).normalize(t) == nf_of(t), render(t)


def test_mult_kron_pairs_lone_vectors_with_one_dim_identities():
    """A ket factor on the left or a bra factor on the right with no
    counterpart across the cut is paired with I(1), so outer products of
    tensor factors reduce traced to the untraced normal form."""
    bra0, bra1 = dag(ket0()), dag(ket1())
    assert first_step(mul(ket0(), kron(bra0, bra1))) \
        == ("L13", kron(mul(ket0(), bra0), mul(identity(1), bra1)))
    for text, nf in [("|0> * (<0| # <1|)", "B0 # <1|"),
                     ("(|0> + |1>) * (<0| # <1|)", "B0 # <1| + B2 # <1|"),
                     ("(|0> # |1>) * <0|", "B0 # |1>"),
                     ("(|0> # H) * X", None), ("(H # |0>) * (<0| # I(2))", None)]:
        t = parse(text)
        traced = Rewriter(trace=RewriteTrace()).normalize(t)
        assert traced == nf_of(t), text
        assert nf is None or render_nf(traced) == nf, text


def test_distribute():
    b1, b3 = gate("B1"), gate("B3")
    assert first_step(mul(add(b1, b3), ket0())) == ("L11", add(mul(b1, ket0()), mul(b3, ket0())))
    bra = dag(ket0())
    assert first_step(mul(bra, add(ket0(), ket1()))) == ("L11", add(mul(bra, ket0()), mul(bra, ket1())))
    assert first_step(kron(add(ket0(), ket1()), ket0())) \
        == ("L12", add(kron(ket0(), ket0()), kron(ket1(), ket0())))


def test_cancel_zero():
    assert first_step(mul(zero(2, 2), gate("H"))) == ("L7", zero(2, 2))
    assert first_step(scale(Scalar.zero(), gate("X"))) == ("L3", zero(2, 2))
    assert first_step(add(gate("X"), zero(2, 2))) == ("L9", gate("X"))
    assert first_step(kron(zero(2, 1), ket0())) == ("L10", zero(4, 1))
    assert first_step(mul(identity(2), gate("H"))) == ("L8", gate("H"))


def test_dagger_push():
    a, b = gate("X"), gate("H")
    assert first_step(dag(mul(a, b)), push=True) == ("L14", mul(dag(b), dag(a)))
    assert first_step(dag(kron(a, b)), push=True) == ("L15", kron(dag(a), dag(b)))
    assert first_step(dag(add(a, b)), push=True) == ("L15", add(dag(a), dag(b)))
    assert first_step(dag(dag(a)), push=True) == ("L16", a)
    c = Scalar.i()
    assert first_step(dag(scale(c, a)), push=True) == ("L14", scale(c.conj(), dag(a)))
    assert first_step(dag(identity(4)), push=True) == ("D_db", identity(4))
    assert first_step(dag(zero(2, 1)), push=True) == ("D_db", zero(1, 2))
    assert first_step(dag(PLUS), push=True) == ("D_db", BRA_PLUS)
    assert first_step(dag(BRA_MINUS), push=True) == ("D_db", MINUS)
    assert first_step(dag(gate("H")), push=True) == ("D_db", gate("H"))
    assert first_step(dag(gate("B1")), push=True) == ("D_db", gate("B2"))
    trace = RewriteTrace()  # a bra is a leaf
    assert Rewriter(trace=trace).push_daggers(dag(ket0())) is dag(ket0())
    assert not trace.steps


def test_every_table_entry_is_the_product_it_replaces():
    """The G_db and B_db domain, every table gate against every one- or
    two-qubit table ket on its right and table bra on its left, enumerated
    whole: each entry has the normal form of the product it replaces and
    the dense oracle's matrix, the table never holds a key outside that
    domain, and each D_db adjoint of a table state or gate is its dagger."""
    products, entries = [], []
    for g, law in rewrite_module._TABLE_GATES.items():
        pairs = [(g, k) for k in rewrite_module._TABLE_KETS if k.rows == g.cols]
        pairs += [(b, g) for b in rewrite_module._TABLE_BRAS if b.cols == g.rows]
        for a, b in pairs:
            hit = rewrite_module._table_entry(a, b)
            assert hit is not None and hit[0] == law, render(mul(a, b))
            assert nf_of(hit[1]) == nf_of(mul(a, b)), render(mul(a, b))
            products.append(mul(a, b))
            entries.append(hit[1])
    assert len(products) == len(rewrite_module._TABLE) == 192
    assert mat_equiv(entries, products)
    adjoint = rewrite_module._ADJOINT
    assert all(nf_of(x) == nf_of(dag(y)) for y, x in adjoint.items())
    assert mat_equiv(list(adjoint.values()), [dag(y) for y in adjoint])


def test_import_builds_no_table_entry():
    """The tables are filled on first use, so importing qdirac computes none."""
    code = "import qdirac, qdirac.rewrite as r; print(len(r._TABLE))"
    env = {**os.environ, "PYTHONPATH": str(REPO_DIR / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "0\n"


def test_dagger_push_visits_each_dagger_free_subterm_once(monkeypatch):
    """A term whose daggers all sit on basis kets (Term.pushed), such as
    every output of push_daggers, is not walked, while a repeated subterm
    that has daggers to push logs its steps at each path."""
    calls = []
    push_root = Rewriter._push_root
    monkeypatch.setattr(Rewriter, "_push_root",
                        lambda self, t, path: calls.append(t) or push_root(self, t, path))
    trace = RewriteTrace()
    nf = Rewriter(trace=trace).normalize(parse("0 .* kron_n(16, kron_n(1024, H))"))
    assert nf.is_zero() and [s.law for s in trace.steps] == ["L3"]
    assert len(calls) <= 5  # the root and H's four bras, not 4 per copy of H
    shared = dag(mul(gate("X"), gate("H")))
    once, twice = RewriteTrace(), RewriteTrace()
    Rewriter(trace=once).push_daggers(shared)
    Rewriter(trace=twice).push_daggers(kron(shared, shared))
    assert [(s.law, s.path) for s in twice.steps] == [
        (s.law, bytes([i]) + s.path) for i in (0, 1) for s in once.steps]


def _in_shape_by_walk(t, known: dict) -> bool:
    """The collected shape, by a walk: SCALE, ADD and KRON over zeros,
    identities, basis kets and bras and |b><b'|, with no operand for L3, L9
    or L10 to drop."""
    if t not in known:
        kind = t.kind
        if kind in (SCALE, ADD, KRON):
            known[t] = (all(_in_shape_by_walk(c, known) for c in t.children)
                        and rewrite_module._drop_operand(t) is None)
        elif kind == MUL:
            a, b = t.children
            known[t] = a.kind in BASIS and b.kind == DAG and b.children[0].kind in BASIS
        elif kind == DAG:
            known[t] = t.children[0].kind in BASIS
        else:
            known[t] = kind in (ZERO, IDENT) + BASIS
    return known[t]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_property_term_bits_match_the_walks_they_replace(seed):
    """Term.pushed holds exactly where push_daggers leaves a term as it is,
    and Term.shaped exactly where the walk over the collected shape holds,
    on every subterm of random terms and circuits, of their daggers, and of
    the terms their traced reduction reaches, most of which are in shape."""
    rng = random.Random(seed)
    terms = [rand_term(rng, closed=False), rand_circuit(rng, rng.randint(1, 3), closed=False)]
    terms += [dag(t) for t in terms]
    for t in terms[:2]:
        trace = RewriteTrace()
        Rewriter(trace=trace).normalize(t)
        terms.append(replay(t, trace))
        terms += [s.after for s in trace.steps]
    known: dict = {}
    for sub in subterms(terms):
        assert sub.pushed == (Rewriter().push_daggers(sub) is sub), render(sub)
        assert sub.shaped == _in_shape_by_walk(sub, known), render(sub)


def test_a_term_in_shape_is_collected_without_a_walk(monkeypatch):
    """A traced normalization of a term already pushed and in shape calls no
    dagger law and asks no operand to be dropped: the bits answer both."""
    counts = {"push": 0, "drop": 0}
    push_root, drop_operand = Rewriter._push_root, rewrite_module._drop_operand

    def counted_push(self, t, path):
        counts["push"] += 1
        return push_root(self, t, path)

    def counted_drop(t):
        counts["drop"] += 1
        return drop_operand(t)
    monkeypatch.setattr(Rewriter, "_push_root", counted_push)
    monkeypatch.setattr(rewrite_module, "_drop_operand", counted_drop)
    t = parse("1/2*sqrt2 .* kron_n(16, |0>) + 1/2*sqrt2 .* kron_n(16, |1>)")
    trace = RewriteTrace()
    nf = Rewriter(trace=trace).normalize(t)
    assert nf == nf_of(t) and not trace.steps
    assert counts == {"push": 0, "drop": 0}


def test_traced_collection_runs_on_the_callers_fuel():
    """The collector of a traced normalize runs on the fuel the reduction
    left, so it stops where the untraced evaluation does, naming the budget
    the caller gave, and a traced call that fits reports only its law steps."""
    t = parse("kron_n(6, |0> + |1>) + I(64) * |1,1,1,1,1,1>")
    for trace in (None, RewriteTrace()):
        with pytest.raises(FuelExhausted, match=r"\(budget 10\)"):
            Rewriter(fuel=10, trace=trace).normalize(t)
    rw = Rewriter(fuel=200, trace=RewriteTrace())
    assert rw.normalize(t) == nf_of(t) and rw.steps == 1


def test_every_law_fires():
    """Each law _rewrite_root or push_daggers can emit fires on some input.
    L4, L6, L8 on a tensor product, L12 and Lsum fire only below a product,
    in the ket it reduces before its own laws."""
    c = Scalar.rational(1, 2)
    h, x = gate("H"), gate("X")
    cases = {
        "L1": mul(dag(ket0()), ket0()),
        "L2": mul(mul(h, x), ket0()),
        "L3": scale(Scalar.one(), ket0()),
        "L4": mul(x, scale(c, add(ket0(), ket1()))),
        "L5": mul(scale(c, h), ket0()),
        "L6": mul(kron(h, x), kron(scale(c, ket0()), ket1())),
        "L7": mul(zero(2, 2), ket0()),
        "L8": mul(h, kron(identity(1), ket0())),
        "L9": add(ket0(), zero(2, 1)),
        "L10": kron(ket0(), zero(2, 1)),
        "L11": mul(add(gate("B1"), gate("B3")), ket0()),
        "L12": mul(kron(h, x), kron(add(ket0(), ket1()), ket0())),
        "L13": mul(kron(h, x), kron(ket0(), ket1())),
        "L14": dag(mul(h, x)),
        "L15": dag(kron(h, x)),
        "L16": dag(dag(h)),
        "G_db": mul(h, ket0()),
        "B_db": mul(gate("B2"), ket0()),
        "D_db": mul(dag(PLUS), h),
        "Lsum": mul(h, add(ket0(), add(ket1(), ket0()))),
    }
    assert set(cases) == LAW_IDS
    for law, t in cases.items():
        trace = RewriteTrace()
        Rewriter(trace=trace).normalize(t)
        assert law in {s.law for s in trace.steps}, law


def test_traced_steps_are_pinned():
    """A scaling or tensor product above every product is left for
    unified_base to collect, so the two last cases take only the steps that
    push the daggers."""
    for text, steps in [("H * X * H", 43), ("H * H * H * H * |0>", 7),
                        ("(H # I(2)) * CX * (H # H) * |0,1>", 9), ("(Y # H # H)^", 5),
                        ("1/2*sqrt2*e(u) .* ((Y # H # H)^)", 5)]:
        rw = Rewriter(trace=RewriteTrace())
        rw.normalize(parse(text))
        assert rw.steps == steps, text


def test_traced_steps_track_the_answer():
    """Traced steps grow with gates times normal-form size, on products of
    operators as on gates applied to a ket or a bra, and on outer products
    U * k * k^ * U^.  On H^n * H^n they grow linearly in n, since its
    I(2^n) is left for unified_base to collect, and so they do on the
    Deutsch-Jozsa oracle applied to |+>^n # |-> or its bra, as its CX wings
    meet two-qubit table states.  Each case's reduction runs on fuel just
    above its bound, so a blow-up stops at once; the collection, which a
    traced normalize charges to the same fuel, is checked on its own."""
    h = gate("H")
    cases = [(parse(" * ".join(["H"] * n) + " * |0>"), 2 * n + 1) for n in range(2, 65)]
    cases += [(parse("<0| * " + " * ".join(["H"] * n)), 2 * n + 1) for n in range(2, 65)]
    cases += [(mul(kron_n(n, h), kron_n(n, h)), 27 * n + 1) for n in range(4, 17)]
    cases += [(mul(kron_n(n, h), kron_n(n, ket0())), 4 * n) for n in range(2, 11)]
    cases += [(parse(" * ".join((["X", "H"] * n)[:n])), 25 * n) for n in range(2, 41)]
    ladder = "(H # I(2)) * CX * (H # H) * CZ"
    for r in range(1, 9):
        chain = " * ".join([ladder] * r)
        cases += [(parse(chain), 400 * 4 * r), (parse(f"{chain} * |0,0>"), 100 * r),
                  (parse(f"<0,0| * {chain}"), 100 * r),
                  (parse(f"super({chain}, density(|0,0>))"), 150 * r)]
    simon = parse_corpus((CORPUS_DIR / "simon.qd").read_text()).assertions[0]
    cases.append((parse(simon.lhs), 700))
    for t, bound in cases:
        rw = Rewriter(fuel=bound + 1, trace=RewriteTrace())
        assert unified_base(rw._reduce_open(rw.push_daggers(t))) == nf_of(t), render(t)[:60]
        assert rw.steps <= bound, (render(t)[:60], rw.steps)
    # Uf(n) fixes |+>^n # |-> and, being self-adjoint, its bra too; the
    # reduced term is that tensor product of table states, which is checked
    # in place of its 2^(n+1)-summand normal form
    for n in range(2, 17):
        for side, (s, last) in [(f"Uf({n}) * (kron_n({n}, |+>) # |->)", (PLUS, MINUS)),
                                (f"(kron_n({n}, <+|) # <-|) * Uf({n})", (BRA_PLUS, BRA_MINUS))]:
            rw = Rewriter(fuel=14 * n + 1, trace=RewriteTrace())
            reduced = rw._reduce_open(rw.push_daggers(parse(side)))
            assert operands(reduced) == [s] * n + [last], side
            assert rw.steps <= 14 * n, (side, rw.steps)


def test_misaligned_operator_products_take_short_derivations():
    """An operator product whose operands' tensor factors do not line up has
    its right operand, its vector end, distributed into basis matrices
    first; each meets the left operand's gates, which are never multiplied
    out on their own.  These took 1329, 1133 and 668 steps when both
    operands were multiplied out and every summand paired with every one."""
    for text in ("(CZ # H) * (Y # SWAP)", "(CX # H) * (X # SWAP)", "(B0 # CX) * (SWAP # H)^"):
        t = parse(text)
        trace = RewriteTrace()
        rw = Rewriter(trace=trace)
        nf = rw.normalize(t)
        assert nf == nf_of(t), text
        assert unified_base(replay(t, trace)) == nf, text
        assert rw.steps <= 250, (text, rw.steps)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_property_traced_operator_products_give_the_untraced_normal_form(seed):
    """A product of random layers with no ket or bra, reduced from its right
    operand, collects to the untraced normal form, and its trace replays."""
    rng = random.Random(seed)
    t = rand_circuit(rng, rng.randint(1, 3), closed=False)
    while t.cols == 1:  # layers applied to a state
        t = rand_circuit(rng, rng.randint(1, 3), closed=False)
    assert t.kind == MUL and t.rows > 1
    trace = RewriteTrace()
    nf = Rewriter(trace=trace).normalize(t)
    assert nf == nf_of(t)
    assert unified_base(replay(t, trace)) == nf


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_property_traced_reduction_stops_at_the_collected_shape(seed):
    """normalize reduces a term to the shape unified_base reads, which
    replaying its trace reaches too, and that collects to the untraced normal
    form.  Above every product only the laws that drop an operand fire, so
    an input already in that shape logs only L3, L9 or L10 steps."""
    t = rand_term(random.Random(seed), closed=False)
    trace = RewriteTrace()
    nf = Rewriter(trace=trace).normalize(t)
    assert nf == nf_of(t)
    reduced = replay(t, trace)
    rewrite_module._check_reduced(reduced)
    assert unified_base(reduced) == nf
    try:
        rewrite_module._check_reduced(t)
    except NotInReducedShape:
        return
    assert {s.law for s in trace.steps} <= {"L3", "L9", "L10"}


def _like_sum(rng: random.Random):
    """A sum of scaled copies of two like-shaped terms, some copies cancelling."""
    q = rng.randint(1, 2)
    make = rand_state if rng.random() < 0.5 else rand_op
    bodies = [make(rng, q, depth=1, closed=False) for _ in range(2)]
    parts = []
    for _ in range(rng.randint(2, 5)):
        body, c = rng.choice(bodies), rand_scalar(rng, closed=False)
        parts.append(rng.choice((body, scale(c, body))))
        if rng.random() < 0.3:
            parts.append(scale(-c, body))
    rng.shuffle(parts)
    if rng.random() < 0.5:
        return add_all(parts)
    out = parts[0]  # nested to the left, as the parser builds a sum
    for p in parts[1:]:
        out = add(out, p)
    return out


def _nest_at_random(rng: random.Random, factors: list):
    """The product of the factors, in order, cut at random points."""
    if len(factors) == 1:
        return factors[0]
    cut = rng.randint(1, len(factors) - 1)
    return mul(_nest_at_random(rng, factors[:cut]), _nest_at_random(rng, factors[cut:]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_property_bra_and_outer_product_chains(seed):
    """A bra chain j^ * V and an outer-product chain U * k * j^ * V, nested
    any way, reduced from their vector ends, reach the untraced normal
    form, and so does their replayed trace."""
    rng = random.Random(seed)
    q = rng.randint(1, 2)

    def ops():
        return [rand_op(rng, q, depth=1, closed=False) for _ in range(rng.randint(1, 2))]
    factors = [dag(rand_state(rng, q, depth=1, closed=False)), *ops()]
    if rng.random() < 0.5:
        factors = [*ops(), rand_state(rng, q, depth=1, closed=False), *factors]
    t = _nest_at_random(rng, factors)
    trace = RewriteTrace()
    nf = Rewriter(trace=trace).normalize(t)
    assert nf == nf_of(t)
    assert unified_base(replay(t, trace)) == nf


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_property_a_chain_through_kets_agrees_with_the_dense_oracle(seed):
    """A chain U * k * j^ * V, or U * k * j^ * W * l * m^ * V, nested any
    way, with scaled, daggered and atom-holding factors, whose ends U and V
    are operators, or a bra and a ket: its normal form is the dense matrix
    and the traced pipeline's.  An operator chain is the tensor product of
    its vector ends; a ket chain such as <a| * U * |b> * <c| * V * |d>,
    whose adjoint may be itself, takes its factors one by one."""
    rng = random.Random(seed)
    q = rng.randint(1, 2)

    def ops():
        out = []
        for _ in range(rng.randint(0, 2)):
            f = rand_op(rng, q, depth=1, closed=False)
            r = rng.random()
            out.append(dag(f) if r < 0.2 else scale(rand_scalar(rng, False), f) if r < 0.4 else f)
        return out

    def outer():
        ket, bra = (rand_state(rng, q, depth=1, closed=False) for _ in range(2))
        if rng.random() < 0.3:
            ket = scale(rand_scalar(rng, False), ket)
        return [ket, dag(bra)]
    head, tail = (rng.choice((rand_op, rand_state))(rng, q, depth=1, closed=False)
                  for _ in range(2))
    factors = [dag(head) if head.cols == 1 else head, *ops(), *outer()]
    if rng.random() < 0.5:
        factors += [*ops(), *outer()]
    factors += [*ops(), tail]
    t = _nest_at_random(rng, factors)
    nf = nf_of(t)
    assert mat_equiv(t, nf.to_term(), samples=3), render(t)
    assert Rewriter(trace=RewriteTrace()).normalize(t) == nf


def test_a_ket_chain_is_charged_once():
    """A ket chain is charged for the entries each factor builds, and its
    value is memoized without charging its last map again."""
    for src, steps in (("H * |0>", 2), ("X * |0>", 1), ("H * X * |0>", 3)):
        rw = Rewriter()
        rw.normalize(parse(src))
        assert rw.steps == steps, src


def test_an_outer_product_chain_costs_the_answer(monkeypatch):
    """The H-layer MIXEQ, U * |0^n><0^n| * U^ against |+^n><+^n|, with no
    oracle: an operator chain holding a ket is the tensor product of its
    vector ends, so its steps stay within 3 * 4^n, the 2^n x 2^n answer,
    where multiplying its operators gave about 6 * 4^n steps.  Its scalar
    products, about 4 * 4^n, stay within 5 * 4^n."""
    Rewriter()  # the library's memo entries, built once per process
    calls = [0]
    mul_scalars = Scalar.__mul__

    def counted(a, b):
        calls[0] += 1
        return mul_scalars(a, b)
    monkeypatch.setattr(Scalar, "__mul__", counted)
    for n in range(4, 9):
        lhs = f"unitmix(kron_n({n}, H), mix1(density(kron_n({n}, |0>))))"
        (a,) = parse_corpus(f"h: MIXEQ {lhs} == mix1(density(kron_n({n}, |+>)))\n").assertions
        calls[0] = 0
        res = corpus_module.run_assertion(a, {}, corpus_module.RunConfig(oracle=False))
        assert res.verdict == "pass", res.witness
        assert res.steps <= 3 * 4 ** n and calls[0] <= 5 * 4 ** n, (n, res.steps, calls[0])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_property_traced_normal_form_is_the_untraced_one(seed):
    rng = random.Random(seed)
    pick = rng.randrange(3)
    if pick == 0:
        t = rand_term(rng, closed=False)
    elif pick == 1:
        t = rand_circuit(rng, rng.randint(1, 3), closed=False)
    else:
        t = _like_sum(rng)
    trace = RewriteTrace()
    rw = Rewriter(trace=trace)
    pushed = rw.push_daggers(t)
    reduced = rw.reduce(pushed)
    assert unified_base(reduced) == nf_of(t)
    assert replay(t, trace) is reduced
    assert {s.law for s in trace.steps} <= LAW_IDS
    # a fresh rewriter, with nothing remembered, finds no law to apply
    fresh = Rewriter(trace=RewriteTrace())
    assert fresh.reduce(reduced) is reduced and not fresh.trace.steps
    # what rw remembers changes nothing: a subterm reduced again takes the
    # steps a fresh rewriter takes
    sub = pushed
    while sub.children and rng.random() < 0.7:
        sub = rng.choice(sub.children)
    fresh, logged = Rewriter(trace=RewriteTrace()), len(trace.steps)
    assert rw.reduce(sub) is fresh.reduce(sub)
    assert len(trace.steps) - logged == len(fresh.trace.steps)


def test_inner_sums_are_remembered_apart():
    """A sum reduced as the inner part of a longer sum is not a fixpoint
    where it stands alone, since Lsum runs only at a sum's top."""
    rw = Rewriter(trace=RewriteTrace())
    pair = add(ket1(), ket1())
    assert rw.reduce(add(ket0(), pair)) is add(ket0(), scale(Scalar.rational(2), ket1()))
    assert rw.reduce(pair) is scale(Scalar.rational(2), ket1())


def test_operate_reduce_ghz():
    circuit = mul(kron(identity(2), gate("CX")),
                  mul(kron(gate("CX"), identity(2)),
                      mul(kron(gate("H"), kron(identity(2), identity(2))),
                          ket_string("000"))))
    nf = Rewriter().normalize(circuit)
    assert len(nf.summands) == 2
    assert render_nf(nf) == "1/2*sqrt2 .* |0,0,0> + 1/2*sqrt2 .* |1,1,1>"


def test_operate_reduce_plus_minus_sugar():
    t = mul(kron(gate("H"), gate("H")), kron(ket0(), ket1()))
    assert render_nf(Rewriter().normalize(t)) == "|+> # |->"
    # a product bra gets the same sugar; a basis bra stays one bracket
    for text, want in [("<+| # <-|", "<+| # <-|"), ("1/2 .* (<0| + <1|)", "1/2*sqrt2 .* <+|"),
                       ("(|0> + |1>)^ # <1|", "sqrt2 .* (<+| # <1|)"), ("<0| # <1|", "<0,1|")]:
        assert render_nf(Rewriter().normalize(parse(text))) == want, text


def test_product_state_render_compares_scalars(monkeypatch):
    calls = {"__mul__": 0, "reciprocal": 0}

    def counted(name):
        fn = getattr(Scalar, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    nfs = {n: nf_of(kron(kron_n(n, gate("ket_plus")), gate("ket_minus")))
           for n in range(6, 10)}
    for name in calls:
        monkeypatch.setattr(Scalar, name, counted(name))
    for n, nf in nfs.items():
        calls.update(dict.fromkeys(calls, 0))
        assert render_nf(nf) == " # ".join(["|+>"] * n + ["|->"])
        assert calls["reciprocal"] == 0
        assert calls["__mul__"] <= n + 1, (n, calls)


def test_normalize_operator_identities():
    assert Rewriter().normalize(mul(gate("X"), gate("X"))) == unified_base(identity(2))
    hxh = mul(gate("H"), mul(gate("X"), gate("H")))
    assert Rewriter().normalize(hxh) == nf_of(gate("Z"))
    assert Rewriter().normalize(mul(gate("CX"), gate("CX"))) == unified_base(identity(4))


def test_normal_form_invariants():
    rng = random.Random(11)
    for _ in range(120):
        nf = nf_of(rand_term(rng, closed=False))
        assert all(not s.is_zero() for s, _ in nf.summands)
        keys = [key for _, key in nf.summands]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        row_bits, col_bits = (d.bit_length() - 1 for d in nf.dims)
        assert all(len(r) == row_bits and len(c) == col_bits for r, c in keys)


def _rand_vector(rng: random.Random):
    """A ket or bra term: a random state, a product of two, a circuit's
    ket, or the dagger of one of those."""
    pick = rng.randrange(3)
    if pick == 0:
        t = rand_state(rng, rng.randint(1, 4), closed=False)
    elif pick == 1:
        t = kron(rand_state(rng, rng.randint(1, 2), depth=1, closed=False),
                 rand_state(rng, rng.randint(1, 3), depth=1, closed=False))
    else:
        t = rand_circuit(rng, rng.randint(1, 4), closed=False)
        while t.cols != 1:
            t = rand_circuit(rng, rng.randint(1, 4), closed=False)
    return dag(t) if rng.random() < 0.3 else t


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_property_vector_normal_form_is_the_finest_factorization(seed):
    """A vector's normal form is a function of its flat sum: the finest
    factorization into blocks over contiguous qubits, every block but the
    last leading with 1, split only where the pivot is invertible; the
    traced and untraced pipelines give it alike."""
    t = _rand_vector(random.Random(seed))
    nf = nf_of(t)
    flat = {key: s for s, key in nf.summands}
    assert normal_form.canonical(nf.dims, (flat,)) == nf
    trace = RewriteTrace()
    rw = Rewriter(trace=trace)
    assert unified_base(rw.reduce(rw.push_daggers(t))) == nf
    assert all(block[0][0].is_one() for block in nf.blocks[:-1])
    side = 1 if nf.dims[0] == 1 else 0
    for block in nf.blocks:
        if not block:
            continue
        p_inv = normal_form.inverse(block[0][0])
        if p_inv is None:
            assert len(nf.blocks) == 1
            continue
        for cut in range(1, len(block[0][1][side])):
            assert normal_form._split(list(block), side, cut, p_inv) is None


def _same_shape(t, rng: random.Random):
    """A random term of t's dims: a ket, a bra or an operator."""
    rows, cols = (d.bit_length() - 1 for d in t.dims)
    if t.rows == 1:
        return dag(rand_state(rng, cols, closed=False))
    return rand_state(rng, rows, closed=False) if t.cols == 1 else rand_op(rng, rows, closed=False)


def _basis_of_shape(t, rng: random.Random):
    """A random basis matrix |r><c| of t's dims."""
    rows, cols = (d.bit_length() - 1 for d in t.dims)

    def ket(n):
        return ket_string("".join(rng.choice("01") for _ in range(n)))

    if t.rows == 1:
        return dag(ket(cols))
    return ket(rows) if t.cols == 1 else mul(ket(rows), dag(ket(cols)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_property_first_difference_is_the_first_differing_key(seed):
    """NormalForm.first_difference walks two normal forms of one shape,
    factored or flat, vectors or operators: None exactly when their flat
    sums are equal, else the first key in row-major order where their
    scalars differ, with both scalars, a summand one lacks read as 0."""
    rng = random.Random(seed)
    t = _rand_vector(rng) if rng.random() < 0.6 else rand_op(rng, rng.randint(1, 3), closed=False)
    pick = rng.randrange(5)
    if pick == 0:
        u = t
    elif pick == 1:  # the same flat sum, written out
        u = nf_of(t).to_term()
    elif pick == 2:  # one block where t may have several
        u = scale(Scalar.var("a"), t)
    elif pick == 3:
        u = add(t, scale(rand_scalar(rng, closed=False), _basis_of_shape(t, rng)))
    else:
        u = _same_shape(t, rng)
    a, b = nf_of(t), nf_of(u)
    zero = Scalar.zero()
    fa, fb = ({key: s for s, key in nf.summands} for nf in (a, b))
    keys = sorted(k for k in fa.keys() | fb.keys() if fa.get(k, zero) != fb.get(k, zero))
    want = (keys[0], fa.get(keys[0], zero), fb.get(keys[0], zero)) if keys else None
    assert a.first_difference(b) == want
    assert (want is None) == (a == b)


def test_vector_normal_form_edge_cases():
    plus = gate("ket_plus")
    # a phase moved between blocks leaves the normal form of |0> # |+>
    u = Scalar.phase("u")
    phased = kron(scale(u, ket0()), scale(Scalar.phase("u", -1), plus))
    assert nf_of(phased) == nf_of(kron(ket0(), plus))
    assert len(nf_of(phased).blocks) == 2
    # a variable pivot keeps the vector one block, and it renders as before
    a = scale(Scalar.var("a"), kron(plus, plus))
    nf = nf_of(a)
    assert len(nf.blocks) == 1 and len(nf.summands) == 4
    assert render_nf(nf) == "a .* (|+> # |+>)"
    # a flat sum that is a product state is split like the product
    flat = nf_of(parse("1/2 .* (|0,0> + |0,1> + |1,0> + |1,1>)"))
    assert flat == nf_of(kron(plus, plus))
    assert [len(b) for b in flat.blocks] == [2, 2]
    assert [s for s, _ in flat.blocks[0]] == [Scalar.one(), Scalar.one()]
    # an entangled state is one block, written as a sum or as a circuit
    assert len(nf_of(parse("1/2*sqrt2 .* |0,0,0> + 1/2*sqrt2 .* |1,1,1>")).blocks) == 1
    assert len(nf_of(_ghz(5)).blocks) == 1
    assert len(nf_of(parse("(CX * (H # I(2)) * |0,0>) # |+>")).blocks) == 2


def test_a_norm_hypothesis_rewrites_only_where_both_atoms_occur():
    """|a|^2 + |b|^2 = 1 rewrites a scalar holding a*a^* and b*b^*, also one
    formed across two blocks that each stay as they are; a normal form
    without both atoms comes back as the same object, never flattened."""
    pairs = (("a", "b"),)
    assert nf_of(parse("(a^* * a + b^* * b) .* |0>")).apply_norm_hypothesis(pairs) \
        == nf_of(ket0())
    two = nf_of(parse("(|0> + (a + b) .* |1>) # (|0> + (a^* + b^*) .* |1>)"))
    assert len(two.blocks) == 2
    assert two.apply_norm_hypothesis(pairs) == nf_of(parse(
        "|0,0> + (a^* + b^*) .* |0,1> + (a + b) .* |1,0> + (1 + a * b^* + a^* * b) .* |1,1>"))
    for src in ("kron_n(21, |+>)", "a .* |0> # |+>"):
        nf = nf_of(parse(src))
        assert nf.apply_norm_hypothesis(pairs) is nf, src


def test_scalar_blocks_and_zero_layer_factors():
    """A 1x1 block left by a bra factor moves its scalar into the last block
    with qubits (_tensor), and a zero-scaled layer factor zeroes the ket."""
    assert render_nf(nf_of(parse("(<0| # I(2)) * (|+> # |0>)"))) == "1/2*sqrt2 .* |0>"
    assert render_nf(nf_of(parse("(0 .* X) * |0>"))) == "O(2,1)"


def test_denotation_preserved():
    rng = random.Random(12)
    for _ in range(150):
        t = rand_term(rng, closed=True)
        nf = nf_of(t)
        assert mat_equiv(t, nf.to_term()), repr(t)


def test_traced_and_untraced_agree_and_replay():
    rng = random.Random(13)
    for _ in range(60):
        t = rand_term(rng, closed=False)
        fast = nf_of(t)
        trace = RewriteTrace()
        rw = Rewriter(trace=trace)
        reduced = rw.reduce(rw.push_daggers(t))
        slow = unified_base(reduced)
        assert fast == slow
        assert all(s.law in LAW_IDS for s in trace.steps)
        assert replay(t, trace) is reduced


def _corpus_sides():
    """(file name, assertion name, side text, term) for every term side of
    every shipped corpus file."""
    for path in sorted(CORPUS_DIR.glob("*.qd")):
        corpus = parse_corpus(path.read_text())
        defs = build_defs(corpus.defs)
        for a in corpus.assertions:
            if a.kind == "MIXEQ":
                continue
            for src in (a.lhs, a.rhs):
                yield path.name, a.name, src, parse(src, defs)


def test_corpus_sides_traced_give_the_untraced_normal_form():
    """Every term side of every shipped corpus file, traced, reaches the
    untraced normal form, and replaying its trace reaches it too.  Their
    steps stay bounded: the super(U, density(k)) sides reduce U * k and
    k^ * U^ from their vector ends, not U^ as a product of operators."""
    sides = steps = 0
    for name, assertion, src, t in _corpus_sides():
        trace = RewriteTrace()
        rw = Rewriter(trace=trace)
        nf = rw.normalize(t)
        assert nf == nf_of(t), (name, assertion, src)
        assert unified_base(replay(t, trace)) == nf, (name, assertion, src)
        sides += 1
        steps += rw.steps
    assert sides >= 100
    assert steps <= 6000, steps


def test_every_traced_corpus_step_is_sound():
    """Each step of each traced corpus side rewrites a subterm to one the
    dense oracle finds equal, so each logged law instance holds on its own,
    not only the normal form the steps end in."""
    steps = 0
    for name, assertion, src, t in _corpus_sides():
        trace = RewriteTrace()
        Rewriter(trace=trace).normalize(t)
        steps += len(trace.steps)
        if not mat_equiv([s.before for s in trace.steps], [s.after for s in trace.steps]):
            bad = next(s for s in trace.steps if not mat_equiv(s.before, s.after))
            pytest.fail(f"{name} {assertion}: unsound {bad.law} step at {list(bad.path)}: "
                        f"{render(bad.before)[:80]}  ->  {render(bad.after)[:80]}")
    assert steps >= 1000, steps


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_property_every_traced_step_is_sound(seed):
    """Each step of the trace of a random term or circuit, atoms included,
    rewrites a subterm to one the dense oracle finds equal."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        t = rand_term(rng, closed=False)
    else:
        t = rand_circuit(rng, rng.randint(1, 3), closed=False)
    trace = RewriteTrace()
    Rewriter(trace=trace).normalize(t)
    for s in trace.steps:
        assert mat_equiv(s.before, s.after), (s.law, list(s.path), render(s.before))


def test_tensor_paths_agree_with_traced_and_dense(monkeypatch):
    """Aligned products (L13) and slot-by-slot layers on kets give the traced
    pipeline's normal form and the dense oracle's matrix."""
    fired = {"L13": 0, "layer": 0}
    try_mult_kron = rewrite_module._try_mult_kron
    apply_layer = Rewriter._apply_layer

    def counted_l13(a, b):
        out = try_mult_kron(a, b)
        fired["L13"] += out is not None
        return out

    def counted_layer(self, layer, vec, node):
        fired["layer"] += 1
        return apply_layer(self, layer, vec, node)
    monkeypatch.setattr(rewrite_module, "_try_mult_kron", counted_l13)
    monkeypatch.setattr(Rewriter, "_apply_layer", counted_layer)
    rng = random.Random(16)
    cases = [rand_circuit(rng, rng.randint(2, 4), closed=i % 2 == 0) for i in range(120)]
    fast = [nf_of(t) for t in cases]
    assert fired["L13"] >= 10 and fired["layer"] >= 10, fired
    monkeypatch.undo()  # the traced pipeline applies L13 through the same function
    for t, nf in zip(cases, fast):
        assert mat_equiv(t, nf.to_term(), samples=3), repr(t)
        trace = RewriteTrace()
        rw = Rewriter(trace=trace)
        reduced = rw.reduce(rw.push_daggers(t))
        assert replay(t, trace) is reduced
        assert unified_base(reduced) == nf, repr(t)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_property_trace_text_is_the_render_of_each_step(seed):
    """as_lines and as_dicts share one memo of subterm texts across the
    steps; each step's text is still the fresh render of its terms."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        t = rand_term(rng, closed=False)
    else:
        t = rand_circuit(rng, rng.randint(1, 3), closed=False)
    trace = RewriteTrace()
    Rewriter(trace=trace).normalize(t)
    lines, dicts = trace.as_lines(), trace.as_dicts()
    assert len(lines) == len(dicts) == len(trace.steps)
    for s, line, d in zip(trace.steps, lines, dicts):
        before, after = render(s.before), render(s.after)
        pos = ".".join(map(str, s.path)) or "root"
        assert line == f"{s.law} @ {pos}: {before}  ->  {after}"
        assert d == {"law": s.law, "path": list(s.path), "before": before, "after": after}


def test_trace_rendering():
    trace = RewriteTrace()
    Rewriter(trace=trace).normalize(mul(gate("X"), ket0()))
    lines = trace.as_lines()
    assert lines and all(re.match(r"^\S+ @ \S+: .+  ->  .+$", ln) for ln in lines)
    dicts = trace.as_dicts()
    assert {"law", "path", "before", "after"} <= set(dicts[0])


def test_unified_base_idempotent():
    rng = random.Random(14)
    for _ in range(60):
        nf = nf_of(rand_term(rng, closed=False))
        assert nf_of(nf.to_term()) == nf


def test_nf_uniqueness_with_atoms():
    rng = random.Random(15)
    for _ in range(120):
        t1 = rand_term(rng, max_qubits=2, closed=False)
        t2 = rand_term(rng, max_qubits=2, closed=False)
        if t1.dims != t2.dims:
            continue
        same_nf = nf_of(t1) == nf_of(t2)
        assert same_nf == mat_equiv(t1, t2, samples=5), (repr(t1), repr(t2))


def test_scalar_coercion():
    nf = Rewriter().normalize(mul(dag(ket0()), ket0()))
    assert nf.trace() == Scalar.one()
    with pytest.raises(NotAnOperator):
        nf_of(ket0()).trace()


def test_fuel_exhaustion():
    big = ket_string("0" * 6)
    layer = kron(gate("H"), kron_all_h(5))
    with pytest.raises(FuelExhausted):
        Rewriter(fuel=1).normalize(mul(layer, big))


def kron_all_h(n):
    out = gate("H")
    for _ in range(n - 1):
        out = kron(out, gate("H"))
    return out


def test_unified_base_rejects_irreducible():
    cases = [
        (mul(gate("H"), ket0()), "irreducible product"),
        (dag(gate("H")), "irreducible dagger"),
        (mul(ket0(), scale(Scalar.var("c"), dag(ket1()))), "irreducible product"),
    ]
    for t, message in cases:
        with pytest.raises(NotInReducedShape, match=message):
            unified_base(t)


def test_unified_base_collects_with_cached_scalars(monkeypatch):
    t = mul(kron_n(3, gate("H")), kron_n(3, gate("H")))
    rw = Rewriter(trace=RewriteTrace())
    reduced = rw.reduce(rw.push_daggers(t))
    expected = nf_of(t)
    calls = [0]
    scalar_mul = Scalar.__mul__

    def counted(a, b):
        calls[0] += 1
        return scalar_mul(a, b)
    monkeypatch.setattr(Scalar, "__mul__", counted)
    assert unified_base(reduced) == expected
    assert calls[0] <= 64, calls


def test_fuel_is_charged_before_allocating():
    plus10 = kron_n(10, gate("ket_plus"))
    cases = [
        (identity(2 ** 16), 1000, 2 ** 20),
        (kron(identity(256), identity(256)), 1000, 2 ** 20),
        # a 2^20-entry outer product: fuel is charged while its map grows
        (mul(plus10, dag(plus10)), 5000, 2 * 2 ** 20),
    ]
    for t, fuel, limit in cases:
        tracemalloc.start()
        try:
            with pytest.raises(FuelExhausted):
                Rewriter(fuel=fuel).normalize(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (t.dims, peak)


def test_scale_dagger_and_sum_are_refused_within_the_fuel():
    """A scaling, a dagger or a sum whose map the fuel left cannot pay for
    is refused before that map is built, so the steps never pass the fuel."""
    for src in ("(kron_n(6, |+>) * kron_n(6, <+|))^",
                "2 .* (kron_n(6, |+>) * kron_n(6, <+|))",
                "kron_n(6, |+>) * kron_n(6, <+|) + kron_n(6, |->) * kron_n(6, <-|)"):
        rw = Rewriter(fuel=5000)
        with pytest.raises(FuelExhausted):
            rw.normalize(parse(src))
        assert rw.steps <= 5000, (src, rw.steps)
    # a sum of a term already paid for grows its map entry by entry
    rw = Rewriter(fuel=6000)
    rw.normalize(parse("kron_n(6, |+>) * kron_n(6, <+|)"))
    with pytest.raises(FuelExhausted, match="map passing"):
        rw.normalize(parse("kron_n(6, |0>) * kron_n(6, <1|) + kron_n(6, |+>) * kron_n(6, <+|)"))
    assert rw.steps <= 6000, rw.steps


def test_fuel_exhausted_names_the_node(capsys):
    plus10 = kron_n(10, gate("ket_plus"))
    with pytest.raises(FuelExhausted) as info:
        Rewriter(fuel=5000).normalize(mul(plus10, dag(plus10)))
    assert info.value.budget == 5000
    where = info.value.where
    assert where.startswith("mul 1024x1024 (map of 1048576 entries): "), where
    head = where.split(": ", 1)[1]
    assert len(head) == 60 and head.endswith("..."), head
    assert head[:-3] == render(plus10)[:57]
    with pytest.raises(FuelExhausted, match=r"at [a-z]+ \d+x\d+ \(law (L\d+|[GBD]_db)\): \S"):
        Rewriter(fuel=3, trace=RewriteTrace()).normalize(mul(gate("H"), gate("H")))
    # the command line prints one line and exits with 2
    assert main(["normalize", "I(1048576)"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == ("error: rewrite fuel exhausted (budget 1000000) at "
                   "ident 1048576x1048576 (map of 1048576 entries): I(1048576)\n")


def test_a_flat_sum_too_long_for_the_fuel_is_refused(capsys):
    """A product of 21 one-qubit blocks is cheap, but its flat sum has 2^21
    summands: building that is refused, as the evaluator would have refused
    their map.  It prints as its 21 blocks instead, no flat sum built, and
    the printed text normalizes back to the same normal form."""
    t = kron_n(21, add(ket0(), scale(Scalar.i(), ket1())))
    nf = nf_of(t)
    assert len(nf.blocks) == 21
    with pytest.raises(FuelExhausted, match=r"flat normal form 2097152x1 \(2097152 summands\)"):
        nf.summands
    text = " # ".join(["(|0> + i .* |1>)"] * 21)
    assert render_nf(nf) == text
    assert main(["normalize", "kron_n(21, |0> + i .* |1>)"]) == EXIT_OK
    assert capsys.readouterr().out == text + "\n"
    assert nf_of(parse(text)) == nf
    # each block prints as a one-block normal form; a scaled last block keeps its scalar
    mixed = nf_of(parse("kron_n(2, <0| + 2 .* <1|) # (<0,0| + <1,1|) # 3 .* <+|"))
    assert render_nf(mixed) == ("(<0| + 2 .* <1|) # (<0| + 2 .* <1|) # (<0,0| + <1,1|) # "
                                "(3 .* <+|)")
    assert nf_of(parse(render_nf(mixed))) == mixed
    # blocks are printed only when they hold fewer summands than the flat sum
    assert render_nf(nf_of(parse("(|0> + i .* |1>) # |+> # |1>"))).count(" + ") == 3


def _ket_text(n: int, value: int) -> str:
    return "|" + ",".join(str((value >> (n - 1 - k)) & 1) for k in range(n)) + ">"


def test_sum_spine_is_linear():
    """A sum is merged into one map, so its steps grow linearly in its length,
    and a long one does not recurse once per summand."""
    steps = {}
    for n in (1000, 2000, 3001):
        # distinct 12-qubit kets: 2654435761 is odd, so this permutes 0..4095
        text = " + ".join(_ket_text(12, (v * 2654435761) % 4096) for v in range(n))
        rw = Rewriter()
        nf = rw.normalize(parse(text))
        assert len(nf.summands) == n
        steps[n] = rw.steps
    assert steps[3001] <= 4 * 3001, steps
    assert steps[3001] - steps[2000] <= 1.2 * (steps[2000] - steps[1000]), steps


def test_a_repeated_layer_factor_is_grouped_by_column_once(monkeypatch):
    """_apply_factor keeps each factor's map by column bits, so a product
    repeating one non-library factor groups it once, however long, whether
    it is applied to a ket or is an operator chain."""
    factor = "(B0 # I(512) + B3 # X # I(256))"
    calls = []
    by_column = rewrite_module._by_column
    Rewriter()  # the library's seeds are filled before counting
    monkeypatch.setattr(rewrite_module, "_by_column", lambda m: calls.append(1) or by_column(m))
    for repeats in (10, 40, 160):
        calls.clear()
        nf = nf_of(parse(" * ".join([factor] * repeats) + " * kron_n(10, |0>)"))
        assert nf == nf_of(parse("kron_n(10, |0>)"))
        assert len(calls) == 1, repeats
        # an operator chain, with no ket, applies its factors the same way
        calls.clear()
        assert nf_of(parse(" * ".join([factor] * repeats))) == nf_of(parse("I(1024)"))
        assert len(calls) == 1, repeats


def test_a_bra_meets_each_dense_layer_as_a_vector(monkeypatch):
    """A chain led by a bra is evaluated as the dagger of its adjoint, a ket
    chain whose blocks take the layers one by one (_apply_layer), so the
    bra meets each n-qubit layer as a vector: the scalar products stay
    within a few times a dense layer's 4^n entries, where multiplying the
    layers together first costs 8^n.  The value is the dense one, with
    conjugate scalars and factors that are not self-adjoint."""
    for src in ("(<0| + i .* <1|) * B1 * (B0 + i .* B2) * Y",
                "(<+| # (2 .* <1|)) * (B1 # (Y + i .* Z)) * CX * (B2 # H)"):
        assert mat_equiv(parse(src), nf_of(parse(src)).to_term()), src
    Rewriter()  # the library's seeds are filled before counting
    calls = []
    mul = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    for n in (6, 7, 8):
        calls.clear()
        layers = parse(f"kron_n({n}, <+|) * kron_n({n}, H) * kron_n({n}, H)")
        assert nf_of(layers) == nf_of(parse(f"kron_n({n}, <+|)"))
        assert len(calls) < 4 * 4 ** n, n


def test_traced_reduce_calls_grow_linearly_in_a_sum_under_a_product(monkeypatch):
    """An inner node of a sum's spine, once reduced, is remembered
    (_irreducible_in_sum), so H * (X * |0> + Z * |1> + ...) reduces each
    summand a bounded number of times, not once per node above it."""
    calls = []
    reduce = Rewriter.reduce
    monkeypatch.setattr(Rewriter, "reduce",
                        lambda self, *a, **k: calls.append(1) or reduce(self, *a, **k))
    counts = {}
    for n in (100, 200, 400):
        calls.clear()
        summands = " + ".join(("X * |0>", "Z * |1>")[i % 2] for i in range(n))
        Rewriter(trace=RewriteTrace()).normalize(parse(f"H * ({summands})"))
        counts[n] = len(calls)
    assert counts[400] - counts[200] == 2 * (counts[200] - counts[100]), counts
    assert counts[400] <= 6 * 400, counts


def _ghz(n: int):
    layers = [kron_all([gate("H")] + ([identity(2 ** (n - 1))] if n > 1 else []))]
    for k in range(n - 1):
        parts = ([identity(2 ** k)] if k else []) + [gate("CX")]
        parts += [identity(2 ** (n - k - 2))] if n - k - 2 else []
        layers.append(kron_all(parts))
    out = ket_string("0" * n)
    for layer in layers:
        out = mul(layer, out)
    return out


def test_traced_sum_above_the_products_is_walked_without_recursion():
    """The positions above every product are walked with an explicit stack,
    so a written-out 3000-summand sum whose first summand, nested deepest, is
    a product is decided, only that product logs a step, and the step
    replays."""
    t = parse(" + ".join(["H * |0>"] + ["|0>"] * 2999))
    trace = RewriteTrace()
    nf = Rewriter(trace=trace).normalize(t)
    assert nf == nf_of(t)
    assert [(s.law, len(s.path)) for s in trace.steps] == [("G_db", 2999)]
    assert unified_base(replay(t, trace)) == nf


def test_daggers_are_pushed_deeper_than_the_recursion_limit():
    """Dagger pushing runs on an explicit stack, so the dagger of a written-
    out 1500-summand sum nests 1499 L15 steps, each one level below the
    last, past the default recursion limit, and the trace replays."""
    t = parse("(" + " + ".join(["|0>", "|1>"] * 750) + ")^")
    trace = RewriteTrace()
    nf = Rewriter(trace=trace).normalize(t)
    assert nf == nf_of(t)
    assert [(s.law, len(s.path)) for s in trace.steps] == [("L15", i) for i in range(1499)]
    assert unified_base(replay(t, trace)) == nf


def test_replay_refuses_a_step_that_changes_dims():
    """Every law keeps a term's dims, so a trace step that changes them is
    refused, even under a tensor product, whose dims no operand constrains."""
    t = kron(ket0(), ket1())
    trace = RewriteTrace()
    trace.append("L8", [1], ket1(), ket_string("01"))
    with pytest.raises(ValueError, match="dims"):
        replay(t, trace)


def test_steps_track_the_answer_not_the_dimension():
    """H^n * H^n, GHZ_n and Deutsch-Jozsa are decided in steps (map entries
    built) proportional to the normal form's summands plus the width."""
    cases = []
    for n in range(4, 13):
        cases.append((n, mul(kron_n(n, gate("H")), kron_n(n, gate("H"))), identity(2 ** n)))
    for n in range(8, 25):
        ends = scale(Scalar.inv_sqrt2(), add(ket_string("0" * n), ket_string("1" * n)))
        cases.append((n, _ghz(n), ends))
    for n in range(6, 11):
        hn1 = kron(kron_n(n, gate("H")), gate("H"))
        zeros_one = kron(kron_n(n, ket0()), ket1())
        plus_minus = kron(kron_n(n, gate("ket_plus")), gate("ket_minus"))
        cases.append((n, mul(hn1, zeros_one), plus_minus))
        cases.append((n, mul(uf(n), plus_minus), plus_minus))
        cases.append((n, mul(hn1, plus_minus), zeros_one))
    for n, lhs, rhs in cases:
        rw = Rewriter()
        nf = rw.normalize(lhs)
        assert nf == nf_of(rhs), render(lhs)
        assert rw.steps <= 16 * (len(nf.summands) + n), (render(lhs)[:60], rw.steps)
    # a product answer costs its width, whatever its flat size (2^65 at n=64);
    # a bra meets Uf(n) as the dagger of the ket chain Uf(n)^ * |+>^n # |->
    for n in (8, 16, 32, 64):
        hn1 = kron(kron_n(n, gate("H")), gate("H"))
        zeros_one = kron(kron_n(n, ket0()), ket1())
        plus_minus = kron(kron_n(n, gate("ket_plus")), gate("ket_minus"))
        bra = parse(f"kron_n({n}, <+|) # <-|")
        for lhs, rhs in [(mul(hn1, zeros_one), plus_minus), (mul(uf(n), plus_minus), plus_minus),
                         (mul(hn1, plus_minus), zeros_one), (plus_minus, plus_minus),
                         (mul(bra, uf(n)), bra), (mul(dag(uf(n)), plus_minus), plus_minus)]:
            rw = Rewriter()
            nf = rw.normalize(lhs)
            assert nf == nf_of(rhs), render(lhs)[:60]
            assert len(nf.blocks) == n + 1
            assert rw.steps <= 32 * (n + 1), (render(lhs)[:60], rw.steps)
    assert render_nf(nf_of(kron(kron_n(64, gate("ket_plus")), gate("ket_minus")))) \
        == " # ".join(["|+>"] * 64 + ["|->"])


def test_zero_normal_form():
    nf = nf_of(mul(zero(2, 2), gate("H")))
    assert nf.is_zero()
    assert render_nf(nf) == "O(2,2)"
    assert nf.to_term() is zero(2, 2)


def test_known_operator_rendering():
    assert render_nf(nf_of(mul(gate("H"), mul(gate("X"), gate("H"))))) == "Z"
    assert render_nf(nf_of(mul(gate("X"), gate("X")))) == "I(2)"
    # every identity normal form is named, whatever its width
    for n in range(1, 11):
        nf = nf_of(parse(f"kron_n({n}, H) * kron_n({n}, H)"))
        assert render_nf(nf) == f"I({2 ** n})"
        assert nf_of(parse(render_nf(nf))) == nf
    # not an identity: a scaled one, one diagonal entry missing, a scalar
    assert render_nf(nf_of(parse("2 .* I(4)"))) \
        == "2 .* B0 # B0 + 2 .* B0 # B3 + 2 .* B3 # B0 + 2 .* B3 # B3"
    assert render_nf(nf_of(parse("I(4) - B3 # B3"))) == "B0 # B0 + B0 # B3 + B3 # B0"
    assert render_nf(nf_of(parse("I(1)"))) == "1"


def test_operator_summands_are_row_major():
    # CX * (H # I(2)) has no name, so it prints as |rbits><cbits| summands,
    # slot i as B(2*r_i + c_i), in the row-major order of its matrix entries
    r = "1/2*sqrt2 .* "
    assert render_nf(nf_of(parse("CX * (H # I(2))"))) == (
        f"{r}B0 # B0 + {r}B1 # B0 + {r}B0 # B3 + {r}B1 # B3 + "
        f"{r}B2 # B1 + -{r}B3 # B1 + {r}B2 # B2 + -{r}B3 # B2"
    )


def test_non_square_operator_normal_forms():
    r = "1/2*sqrt2 .* "
    cases = {
        "H # <1|": f"{r}B0 # <1| + {r}B1 # <1| + {r}B2 # <1| + -{r}B3 # <1|",
        "X # |0> + i .* (B0 # |1>)": "B1 # |0> + i .* B0 # |1> + B2 # |0>",
    }
    for src, text in cases.items():
        nf = nf_of(parse(src))
        assert nf.dims in ((2, 4), (4, 2)), src
        assert render_nf(nf) == text
        assert nf_of(parse(text)) == nf
        assert nf_of(nf.to_term()) == nf
        with pytest.raises(NotAnOperator):
            nf.trace()
