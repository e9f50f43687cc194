"""Rewrite engine: passes, pipeline, traces, and normal-form canonicity."""

from __future__ import annotations

import random
import re
import tracemalloc

import pytest

import qdirac.rewrite as rewrite_module
from qdirac.cli import EXIT_INPUT, main
from qdirac.errors import FuelExhausted, NotInReducedShape
from qdirac.oracle import eval_dense, mat_equiv
from qdirac.parser import parse
from qdirac.rewrite import (
    NormalForm, RewriteTrace, Rewriter, assoc_right, base_reduce, cancel_zero,
    contract_inner, dagger_push, distribute, gate_reduce, mult_kron,
    operate_reduce, render_nf, replay, unified_base,
)
from qdirac.scalar import Scalar
from qdirac.term import (
    ADD, MUL, add, dag, gate, identity, ket0, ket1, ket_string, kron, kron_all, kron_n,
    mul, render, scale, uf, zero,
)

from conftest import rand_circuit, rand_term

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
    untraceable = 0
    for t, nf in zip(cases, fast):
        assert mat_equiv(t, nf.to_term(), samples=3), repr(t)
        trace = RewriteTrace()
        rw = Rewriter(trace=trace)
        reduced = rw.reduce(rw.push_daggers(t))
        assert replay(t, trace) is reduced
        try:
            slow = unified_base(reduced)
        except NotInReducedShape:
            # No law splits I(2^k) for k >= 2, so the traced pipeline cannot
            # multiply a product whose identity block straddles the other
            # side's factors, e.g. (I(4) # X) * (X # I(4)).
            untraceable += 1
            continue
        assert slow == nf, repr(t)
    assert untraceable <= 6, untraceable


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


def test_fuel_exhausted_names_the_node(capsys):
    plus10 = kron_n(10, gate("ket_plus"))
    with pytest.raises(FuelExhausted) as info:
        Rewriter(fuel=5000).normalize(mul(plus10, dag(plus10)))
    assert info.value.budget == 5000
    where = info.value.where
    assert where.startswith("mul 1024x1024 (map passing "), where
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


def test_zero_normal_form():
    nf = nf_of(mul(zero(2, 2), gate("H")))
    assert nf.is_zero()
    assert render_nf(nf) == "O(2,2)"
    assert nf.to_term() is zero(2, 2)


def test_known_operator_rendering():
    assert render_nf(nf_of(mul(gate("H"), mul(gate("X"), gate("H"))))) == "Z"
    assert render_nf(nf_of(mul(gate("X"), gate("X")))) == "I(2)"
