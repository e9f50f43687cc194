"""Rewrite engine: passes, pipeline, traces, and normal-form canonicity."""

from __future__ import annotations

import random
import re
import tracemalloc

import pytest

from qdirac.errors import FuelExhausted, NotInReducedShape
from qdirac.oracle import eval_dense, mat_equiv
from qdirac.rewrite import (
    NormalForm, RewriteTrace, Rewriter, assoc_right, base_reduce, cancel_zero,
    contract_inner, dagger_push, distribute, gate_reduce, mult_kron,
    operate_reduce, render_nf, replay, unified_base,
)
from qdirac.scalar import Scalar
from qdirac.term import (
    ADD, MUL, add, dag, gate, identity, ket0, ket1, ket_string, kron, kron_n,
    mul, scale, zero,
)

from conftest import rand_term

LAW_IDS = {f"L{i}" for i in range(1, 17)} | {"G_db", "B_db", "D_db"}


def nf_of(t) -> NormalForm:
    return Rewriter().normalize(t)


def test_contract_inner():
    assert contract_inner(mul(dag(ket0()), ket0())) is identity(1)
    assert contract_inner(mul(dag(ket1()), ket0())) is zero(1, 1)


def test_base_reduce():
    assert base_reduce(mul(gate("B0"), ket0())) is ket0()
    assert base_reduce(mul(gate("B1"), ket0())) is zero(2, 1)
    assert base_reduce(mul(gate("B3"), ket1())) is ket1()


def test_gate_reduce():
    assert gate_reduce(mul(gate("X"), ket0())) is ket1()
    assert gate_reduce(mul(gate("H"), gate("ket_plus"))) is ket0()
    assert gate_reduce(mul(identity(2), ket1())) is ket1()
    assert gate_reduce(mul(gate("H"), gate("ket_minus"))) is ket1()


def test_assoc_right():
    a, b, c = gate("X"), gate("Y"), gate("Z")
    assert assoc_right(mul(mul(a, b), c)) is mul(a, mul(b, c))
    assert assoc_right(kron(kron(ket0(), ket0()), ket0())) \
        is kron(ket0(), kron(ket0(), ket0()))


def test_mult_kron():
    lhs = mul(kron(gate("H"), kron(identity(2), identity(2))),
              kron(ket0(), kron(ket0(), ket0())))
    out = mult_kron(lhs)
    assert out is kron(mul(gate("H"), ket0()),
                       kron(mul(identity(2), ket0()), mul(identity(2), ket0())))
    untouched = mul(kron(gate("H"), gate("H")), identity(4))
    assert mult_kron(untouched) is untouched


def test_distribute():
    b1, b2 = gate("B1"), gate("B2")
    out = distribute(mul(add(b1, b2), ket0()))
    assert out is add(mul(b1, ket0()), mul(b2, ket0()))
    c = Scalar.rational(1, 2)
    out = distribute(scale(c, add(ket0(), ket1())))
    assert out is add(scale(c, ket0()), scale(c, ket1()))


def test_cancel_zero():
    assert cancel_zero(mul(zero(2, 2), gate("H"))) is zero(2, 2)
    assert cancel_zero(scale(Scalar.zero(), gate("X"))) is zero(2, 2)
    assert cancel_zero(add(gate("X"), zero(2, 2))) is gate("X")
    assert cancel_zero(mul(identity(2), gate("H"))) is gate("H")


def test_dagger_push():
    a, b = gate("X"), gate("H")
    # pushing continues to the leaves, so compare with the pushed expansions
    assert dagger_push(dag(mul(a, b))) is dagger_push(mul(dag(b), dag(a)))
    assert dagger_push(dag(kron(a, b))) is dagger_push(kron(dag(a), dag(b)))
    assert dagger_push(dag(dag(a))) is a
    c = Scalar.i()
    assert dagger_push(dag(scale(c, a))) is dagger_push(scale(c.conj(), dag(a)))
    assert dagger_push(dag(ket0())) is dag(ket0())


def test_operate_reduce_ghz():
    circuit = mul(kron(identity(2), gate("CX")),
                  mul(kron(gate("CX"), identity(2)),
                      mul(kron(gate("H"), kron(identity(2), identity(2))),
                          ket_string("000"))))
    nf = operate_reduce(circuit)
    assert len(nf.summands) == 2
    assert render_nf(nf) == "1/2*sqrt2 .* |0,0,0> + 1/2*sqrt2 .* |1,1,1>"


def test_operate_reduce_plus_minus_sugar():
    t = mul(kron(gate("H"), gate("H")), kron(ket0(), ket1()))
    assert render_nf(operate_reduce(t)) == "|+> # |->"


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
    assert operate_reduce(mul(gate("X"), gate("X"))) == unified_base(identity(2))
    hxh = mul(gate("H"), mul(gate("X"), gate("H")))
    assert operate_reduce(hxh) == nf_of(gate("Z"))
    assert operate_reduce(mul(gate("CX"), gate("CX"))) == unified_base(identity(4))


def test_normal_form_invariants():
    rng = random.Random(11)
    for _ in range(120):
        nf = nf_of(rand_term(rng, closed=False))
        assert all(not s.is_zero() for s, _ in nf.summands)
        factor_lists = [f for _, f in nf.summands]
        assert factor_lists == sorted(factor_lists)
        assert len(set(factor_lists)) == len(factor_lists)


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
    nf = operate_reduce(mul(dag(ket0()), ket0()))
    assert nf.as_scalar() == Scalar.one()
    with pytest.raises(NotInReducedShape):
        nf_of(ket0()).as_scalar()


def test_fuel_exhaustion():
    big = ket_string("0" * 6)
    layer = kron(gate("H"), kron_all_h(5))
    with pytest.raises(FuelExhausted):
        Rewriter(fuel=5).normalize(mul(layer, big))


def kron_all_h(n):
    out = gate("H")
    for _ in range(n - 1):
        out = kron(out, gate("H"))
    return out


def test_unified_base_rejects_irreducible():
    cases = [
        (mul(gate("H"), ket0()), "irreducible product"),
        (dag(gate("H")), "irreducible dagger"),
        (identity(3), "identity of non-power-of-two dim 3"),
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
    for t in (identity(2 ** 16), kron(identity(256), identity(256))):
        tracemalloc.start()
        try:
            with pytest.raises(FuelExhausted):
                Rewriter(fuel=1000).normalize(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak


def test_zero_normal_form():
    nf = nf_of(mul(zero(2, 2), gate("H")))
    assert nf.is_zero()
    assert render_nf(nf) == "O(2,2)"
    assert nf.to_term() is zero(2, 2)


def test_known_operator_rendering():
    assert render_nf(nf_of(mul(gate("H"), mul(gate("X"), gate("H"))))) == "Z"
    assert render_nf(nf_of(mul(gate("X"), gate("X")))) == "I(2)"
