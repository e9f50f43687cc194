"""Density matrices, symbolic trace, probabilities and mixed states."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from qdirac.corpus import RunConfig, build_defs, parse_corpus, run_assertion
from qdirac.errors import DimMismatch, FuelExhausted, NotAnOperator, NotAVector
from qdirac import oracle
from qdirac import quantum as quantum_module
from qdirac.oracle import mat_equiv
from qdirac.parser import Parser
from qdirac.quantum import (
    MixedState, density, eval_mix, mea_mix, mix_equal, probability, pure_mix,
    super_, sym_mix_difference, total_mass, unit_mix,
)
from qdirac.rewrite import Rewriter
from qdirac.scalar import Scalar
from qdirac.term import (
    add, dag, gate, identity, ket0, ket1, ket_string, kron, mea, mul, scale,
)

from conftest import CORPUS_DIR, rand_op, rand_scalar, rand_state

HALF = Scalar.rational(1, 2)
QUARTER = Scalar.rational(1, 4)


def test_density_and_super_shapes():
    rho = density(ket0())
    assert rho.dims == (2, 2)
    assert super_(gate("H"), rho).dims == (2, 2)
    with pytest.raises(NotAVector):
        density(gate("X"))
    with pytest.raises(DimMismatch):
        super_(gate("CX"), rho)


def test_global_phase_vanishes_in_density():
    rng = random.Random(32)
    rw = Rewriter()
    for _ in range(40):
        psi = rand_state(rng, rng.randint(1, 2), closed=True)
        phased = scale(Scalar.phase("u"), psi)
        a = rw.normalize(density(phased))
        b = rw.normalize(density(psi))
        assert a == b, repr(psi)


def test_measurement_projectivity():
    for n in range(3):
        for k in range(n + 1):
            m0 = mea("Mea0", n, k)
            assert Rewriter().normalize(mul(m0, m0)) == Rewriter().normalize(m0), (n, k)


def test_sym_trace_examples():
    assert Rewriter().normalize(gate("B0")).trace() == Scalar.one()
    assert Rewriter().normalize(identity(4)).trace() == Scalar.rational(4)
    assert Rewriter().normalize(gate("X")).trace() == Scalar.zero()
    rho = Rewriter().normalize(density(gate("ket_plus")))
    assert rho.trace() == Scalar.one()
    with pytest.raises(NotAnOperator):
        Rewriter().normalize(ket0()).trace()


def test_probability_examples():
    assert probability(ket0(), gate("B0")) == Scalar.one()
    assert probability(ket0(), gate("B3")) == Scalar.zero()
    assert probability(gate("ket_plus"), gate("B0")) == HALF
    with pytest.raises(NotAVector):
        probability(gate("X"), gate("B0"))
    with pytest.raises(DimMismatch):
        probability(ket0(), gate("CX"))


def test_probability_with_norm_hypothesis():
    a, b = Scalar.var("a"), Scalar.var("b")
    psi = add(scale(a, ket0()), scale(b, ket1()))
    total = probability(psi, gate("B0")) + probability(psi, gate("B3"))
    assert total.apply_norm_hypothesis((("a", "b"),)) == Scalar.one()


def test_mea_mix_on_basis_state():
    m = mea_mix(0, 0, pure_mix(density(ket0())))
    assert len(m.branches) == 1
    p, op = m.branches[0]
    assert p == Scalar.one()
    assert mat_equiv(op, density(ket0()))


def test_mea_mix_on_plus_state():
    m = mea_mix(0, 0, pure_mix(density(gate("ket_plus"))))
    assert [p for p, _ in m.branches] == [HALF, HALF]
    assert mat_equiv(m.branches[0][1], density(ket0()))
    assert mat_equiv(m.branches[1][1], density(ket1()))
    assert total_mass(m) == Scalar.one()


def test_mass_conservation_random():
    rng = random.Random(33)
    for _ in range(30):
        psi = rand_state(rng, 2, closed=True)
        norm_sq = probability(psi, identity(4))
        m = mea_mix(1, rng.randint(0, 1), pure_mix(density(psi)))
        assert total_mass(m) == norm_sq, repr(psi)


def test_unit_mix_preserves_mass_and_evolves_branches():
    m = mea_mix(0, 0, pure_mix(density(gate("ket_plus"))))
    evolved = unit_mix(gate("H"), m)
    assert total_mass(evolved) == Scalar.one()
    assert mat_equiv(evolved.branches[0][1], density(gate("ket_plus")))
    assert mat_equiv(evolved.branches[1][1], density(gate("ket_minus")))


def test_two_measurements_give_quarter_branches():
    psi0 = kron(gate("ket_plus"), kron(gate("ket_plus"), ket0()))
    m = mea_mix(2, 1, mea_mix(2, 0, pure_mix(density(psi0))))
    assert len(m.branches) == 4
    assert all(p == QUARTER for p, _ in m.branches)
    assert total_mass(m) == Scalar.one()


def test_mix_equal_ordered_and_multiset():
    a = mea_mix(0, 0, pure_mix(density(gate("ket_plus"))))
    swapped = MixedState((a.branches[1], a.branches[0]))
    assert mix_equal(a, a)
    assert not mix_equal(a, swapped)
    assert not mix_equal(a, pure_mix(density(ket0())))
    different_p = MixedState(((QUARTER, a.branches[0][1]), a.branches[1]))
    assert not mix_equal(a, different_p)


def test_mixed_state_validation_and_render():
    with pytest.raises(NotAnOperator):
        MixedState(((Scalar.one(), ket0()),))
    with pytest.raises(DimMismatch):
        MixedState(((HALF, identity(2)), (HALF, identity(4))))
    text = str(pure_mix(identity(2)))
    assert text == "1 : I(2)"


def test_false_mixeq_names_the_first_differing_branch():
    """A false MIXEQ fails with a witness naming the first branch that
    differs: a pure branch by c and its vector's normal form, short where
    the density has 1024 summands, and then the first block where the two
    vectors' normal forms differ."""
    src = ("big: MIXEQ unitmix(kron_n(5, H), mix1(density(kron_n(5, |0>))))"
           " == unitmix(kron_n(5, H), mix1(density(kron_n(5, |1>))))\n"
           "short: MIXEQ [1/2 : density(|0>) ; 1/2 : density(|1>)] == [1/2 : density(|0>)]\n")
    results = [run_assertion(a, {}, RunConfig()) for a in parse_corpus(src).assertions]
    assert [r.verdict for r in results] == ["fail", "fail"]
    big, short = (r.witness for r in results)
    prefix = "mixed states differ at branch 0: "
    assert big.startswith(prefix)
    branches, block = big[len(prefix):].split(", block ")
    sides = branches.split(" vs ")
    assert len(sides) == 2 and sides[0] != sides[1]
    assert all(s.startswith("[1 : ") and s.endswith(")]") and len(s) == 42 for s in sides)
    assert block == "0: sqrt2 .* |+> vs sqrt2 .* |->"
    assert short == "mixed states differ at branch 1: [1/2 : |1> * <1|] vs no branch 1 (of 1)"


def test_mea_mix_dim_check():
    with pytest.raises(DimMismatch):
        mea_mix(2, 0, pure_mix(density(ket0())))


def test_symbolic_branch_left_unnormalized():
    a, b = Scalar.var("a"), Scalar.var("b")
    psi = add(scale(a, ket0()), scale(b, ket1()))
    m = mea_mix(0, 0, pure_mix(density(psi)))
    assert len(m.branches) == 2
    p0, op0 = m.branches[0]
    assert p0 == a * Scalar.conj_var("a")
    assert mat_equiv(op0, scale(p0, density(ket0())), norm_pairs=(("a", "b"),))
    assert total_mass(m, norm_pairs=(("a", "b"),)) == Scalar.one()


def test_ghz_measurement_cascade():
    circuit = mul(kron(identity(2), gate("CX")),
                  mul(kron(gate("CX"), identity(2)),
                      mul(kron(gate("H"), kron(identity(2), identity(2))),
                          ket_string("000"))))
    m = mea_mix(2, 0, pure_mix(density(circuit)))
    assert [p for p, _ in m.branches] == [HALF, HALF]
    assert mat_equiv(m.branches[0][1], density(ket_string("000")))
    assert mat_equiv(m.branches[1][1], density(ket_string("111")))


def _h_layer_mixeq(n: int) -> str:
    return (f"unitmix(kron_n({n}, H), mix1(density(kron_n({n}, |0>))))",
            f"mix1(density(kron_n({n}, |+>)))")


def test_branches_keep_written_operator_and_its_normal_form():
    """After unit_mix and mea_mix each branch's operator as written and the
    pure state kept for it, c .* (psi * psi^) with psi its vector's normal
    form, are the same matrix, with atoms and hypotheses too; a leaf branch
    keeps its vector as written, no normal form yet."""
    rng = random.Random(35)
    for case in range(60):
        qubits = 1 + case % 2
        closed = case % 4 < 2
        hyps = (("a", "b"),) if case % 8 >= 4 else ()
        psi = rand_state(rng, qubits, closed=closed)
        leaf = pure_mix(density(psi))
        assert leaf.nfs == (quantum_module.Pure(Scalar.one(), psi),)
        rw = Rewriter(hypotheses=hyps)
        measured = mea_mix(qubits - 1, rng.randrange(qubits), leaf, rw)
        evolved = unit_mix(rand_op(rng, qubits, closed=closed), measured, rw)
        for m in (measured, evolved):
            assert len(m.nfs) == len(m.branches)
            for (_, op), kept in zip(m.branches, m.nfs):
                kept_op = scale(kept.c, density(kept.nf.to_term()))
                assert mat_equiv(op, kept_op, norm_pairs=hyps), (case, repr(op))


def test_oracle_reads_the_written_circuit_not_the_kept_normal_form():
    """A corrupted kept pure state, the one kind of state a branch keeps, is
    flagged by the symbolic comparison, while the oracle, which reads the
    operators as written, still finds the state equal to the true one."""
    evolved = unit_mix(gate("H"), pure_mix(density(ket0())))
    truth = pure_mix(density(gate("ket_plus")))
    assert sym_mix_difference(evolved, truth) is None
    wrong = quantum_module.Pure(Scalar.one(), ket1(), Rewriter().normalize(ket1()))
    corrupt = MixedState(evolved.branches, (wrong,))
    assert sym_mix_difference(corrupt, truth)[0] == 0
    assert mix_equal(corrupt, truth)


def test_mix_equal_builds_linearly_many_full_matrices(monkeypatch):
    """On H^5 applied to a mixed |0..0>, the oracle builds O(n) full
    1024-entry matrices, not one per summand of the normal form."""
    n = 5
    lhs, rhs = (eval_mix(Parser(src, {}).parse_mixed()) for src in _h_layer_mixeq(n))
    sizes = []
    init = oracle.DenseMatrix.__init__

    def recording(self, rows, cols, entries):
        sizes.append(len(entries))
        init(self, rows, cols, entries)

    monkeypatch.setattr(oracle.DenseMatrix, "__init__", recording)
    assert mix_equal(lhs, rhs)
    assert sizes.count(4 ** n) < 6 * n


def test_six_qubit_mixeq_is_oracle_checked():
    lhs, rhs = _h_layer_mixeq(6)
    (a,) = parse_corpus(f"h6: MIXEQ {lhs} == {rhs}\n").assertions
    res = run_assertion(a, {}, RunConfig())
    assert (res.verdict, res.oracle_note, res.witness) == ("pass", "", "")


def test_a_mixed_state_check_runs_on_one_rewriter(monkeypatch):
    """eval_mix, unit_mix and mea_mix normalize every branch on the
    assertion's one Rewriter: none is made per branch, and the check's steps
    count the mixed-state work, on one fuel budget."""
    src = ("m: MIXEQ unitmix(X # I(2), meamix(1, 0, mix1(density(|+> # |0>))))"
           " == [1/2 : density(|1,0>) ; 1/2 : density(|0,0>)]\n")
    (a,) = parse_corpus(src).assertions

    def no_rewriter(*args, **kwargs):
        raise AssertionError("a Rewriter made per branch")
    monkeypatch.setattr(quantum_module, "Rewriter", no_rewriter)
    res = run_assertion(a, {}, RunConfig())
    assert res.verdict == "pass" and res.steps > 0, res
    rw = Rewriter()
    expr = Parser(a.lhs).parse_mixed()
    eval_mix(expr, rewriter=rw)
    assert rw.steps > 0
    with pytest.raises(FuelExhausted):
        eval_mix(expr, rewriter=Rewriter(fuel=rw.steps - 1))


def _stages(rng: random.Random, qubits: int, closed: bool, inner):
    """inner under one to three random unitmix and meamix stages."""
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            inner = ("unitmix", rand_op(rng, qubits, closed=closed), inner)
        else:
            inner = ("meamix", qubits - 1, rng.randrange(qubits), inner)
    return inner


def _with_leaf(expr, leaf):
    """expr with its innermost mixed state replaced by leaf."""
    if isinstance(expr, MixedState):
        return leaf
    return (*expr[:-1], _with_leaf(expr[-1], leaf))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_pure_branches_decide_as_their_density_normal_forms(seed):
    """Random 1-3 qubit states, closed or with atoms under HYP norm(a,b),
    through random unitmix and meamix stages: comparing the pure branches by
    their vectors gives the first differing branch that comparing explicit
    operator normal forms gives (a leaf written 1 .* density(psi) is no pure
    branch), a pure branch against an operator one agrees too, and mix_equal
    agrees with the verdict.  The right side is the left one itself, its
    state under a global phase, rescaled, scaled by the atom a (one block
    where psi's normal form may have several) or replaced, or its last
    unitary swapped or one stage more."""
    rng = random.Random(seed)
    qubits = rng.randint(1, 3)
    closed = rng.random() < 0.5
    hyps = () if closed else (("a", "b"),)
    psi = rand_state(rng, qubits, closed=closed)
    left = _stages(rng, qubits, closed, pure_mix(density(psi)))
    variant = rng.randrange(6)
    if variant == 0:
        right = _with_leaf(left, pure_mix(density(scale(Scalar.phase("u"), psi))))
    elif variant == 1:
        right = _with_leaf(left, pure_mix(density(scale(rand_scalar(rng, closed), psi))))
    elif variant == 5:
        right = _with_leaf(left, pure_mix(density(scale(Scalar.var("a"), psi))))
    elif variant == 2:
        right = _with_leaf(left, pure_mix(density(rand_state(rng, qubits, closed=closed))))
    elif variant == 3:
        right = left
    else:  # one unitary swapped, or one stage more
        right = _stages(rng, qubits, closed, left) if left[0] == "meamix" else (
            "unitmix", rand_op(rng, qubits, closed=closed), left[2])

    def operator_leaf(expr):
        leaf = expr
        while not isinstance(leaf, MixedState):
            leaf = leaf[-1]
        return _with_leaf(expr, pure_mix(scale(Scalar.one(), leaf.branches[0][1])))

    rw = Rewriter(hypotheses=hyps)
    pure_a, pure_b = (eval_mix(e, rw) for e in (left, right))
    op_a, op_b = (eval_mix(operator_leaf(e), rw) for e in (left, right))
    assert all(isinstance(k, quantum_module.Pure) for k in pure_a.nfs + pure_b.nfs)
    assert not any(isinstance(k, quantum_module.Pure) for k in op_a.nfs + op_b.nfs)
    def branch(a, b):  # the index of the first branch that differs, or None
        diff = sym_mix_difference(a, b, rw)
        return diff and diff[0]

    verdict = branch(op_a, op_b)
    assert branch(pure_a, pure_b) == verdict, (seed, variant)
    assert branch(pure_a, op_b) == verdict, (seed, variant)
    assert mix_equal(pure_a, pure_b, norm_pairs=hyps) == (verdict is None), (seed, variant)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_a_branch_keeps_a_pure_state_or_nothing(seed):
    """Through random unitmix and meamix stages, a branch keeps a Pure state
    with its vector's normal form exactly when its leaf is written
    density(psi), and None for an operator leaf: never an operator normal
    form."""
    rng = random.Random(seed)
    qubits = rng.randint(1, 3)
    closed = rng.random() < 0.5
    hyps = () if closed else (("a", "b"),)
    rho = density(rand_state(rng, qubits, closed=closed))
    leaves = ((pure_mix(rho), True), (pure_mix(scale(Scalar.one(), rho)), False),
              (pure_mix(super_(rand_op(rng, qubits, closed=closed), rho)), False))
    for leaf, pure in leaves:
        m = eval_mix(_stages(rng, qubits, closed, leaf), Rewriter(hypotheses=hyps))
        assert len(m.nfs) == len(m.branches), seed
        for kept in m.nfs:
            assert (isinstance(kept, quantum_module.Pure) and kept.nf is not None
                    if pure else kept is None), (seed, kept)


def test_operator_leaf_stages_continue_from_the_written_branch():
    """Two H layers on the operator leaf kron_n(6, B0), no density(psi),
    pass with the oracle off within 3 * 4^6 steps, each stage read from the
    one before as written; an X layer in place of the second fails at
    branch 0, not with an error."""
    leaf = "[1 : kron_n(6, B0)]"
    layer = f"unitmix(kron_n(6, H), {leaf})"
    src = (f"hh: MIXEQ unitmix(kron_n(6, H), {layer}) == {leaf}\n"
           f"xh: MIXEQ unitmix(kron_n(6, X), {layer}) == {leaf}\n")
    hh, xh = (run_assertion(a, {}, RunConfig(oracle=False))
              for a in parse_corpus(src).assertions)
    assert hh.verdict == "pass" and hh.steps <= 3 * 4 ** 6, hh
    assert xh.verdict == "fail", xh
    assert xh.witness.startswith("mixed states differ at branch 0: [1 : "), xh


def test_a_false_operator_branch_names_the_first_key_that_differs():
    """A false MIXEQ on operator branches ends its witness with the first
    basis key where the compared normal forms differ, as an EQ's does."""
    leaf = "[1 : kron_n(6, B0)]"
    src = (f"xh: MIXEQ unitmix(kron_n(6, X), unitmix(kron_n(6, H), {leaf})) == {leaf}\n"
           "x2: MIXEQ unitmix(kron_n(2, X), [1 : kron_n(2, B0)]) == [1 : kron_n(2, B0)]\n")
    xh, x2 = (run_assertion(a, {}, RunConfig(oracle=False))
              for a in parse_corpus(src).assertions)
    assert xh.verdict == x2.verdict == "fail"
    assert xh.witness.endswith(
        "], normal forms differ at |0,0,0,0,0,0><0,0,0,0,0,0|: 1/64 vs 1"), xh.witness
    assert x2.witness.endswith("], normal forms differ at |0,0><0,0|: 0 vs 1"), x2.witness


def test_stages_on_teleport_operator_leaves_pass_with_and_without_the_oracle():
    """Under HYP norm(a,b), teleport's outcome branches rh31 and rh33, each
    4 .* super(...) and so no pure branch, through one and two unitmix and
    meamix stages: the corrections give |0,1> # psi and |1,1> # psi, a
    measurement of a qubit the branch fixes keeps it, and one of psi's
    qubit leaves it unnormalized, its probability a*a^* or b*b^*."""
    defs = build_defs(parse_corpus((CORPUS_DIR / "teleport.qd").read_text()).defs)
    iix, iiz = "I(2) # I(2) # X", "I(2) # I(2) # Z"
    src = "HYP norm(a,b)\n" + "".join(f"{name}: MIXEQ {lhs} == {rhs}\n" for name, lhs, rhs in (
        ("u1", f"unitmix({iix}, [1 : rh31])", "[1 : density(|0,1> # psi)]"),
        ("u2", f"unitmix({iiz}, unitmix({iix}, [1 : rh33]))", "[1 : density(|1,1> # psi)]"),
        ("m1", "meamix(2, 0, [1 : rh31])", "[1 : density(|0,1> # (a .* |1> + b .* |0>))]"),
        ("m2", "meamix(2, 1, meamix(2, 0, [1 : rh31]))", "[1 : rh31]"),
        ("um", f"meamix(2, 1, unitmix({iix}, [1 : rh31]))", "[1 : density(|0,1> # psi)]"),
        ("mu", f"unitmix({iix}, meamix(2, 0, [1 : rh31]))", "[1 : density(|0,1> # psi)]"),
        ("s1", "meamix(2, 2, [1 : rh31])",
         "meamix(2, 2, mix1(density(|0,1> # (a .* |1> + b .* |0>))))"),
        ("s2", f"meamix(2, 2, unitmix({iix}, [1 : rh31]))",
         "meamix(2, 2, mix1(density(|0,1> # psi)))"),
    ))
    for cfg in (RunConfig(), RunConfig(oracle=False)):
        results = [run_assertion(a, defs, cfg) for a in parse_corpus(src).assertions]
        assert all(r.verdict == "pass" and not r.oracle_note for r in results), results


def test_a_swapped_gate_fails_at_its_branch():
    """Measuring CX * (|+> # |0>) gives |0,0> and |1,1>; with CZ in place of
    CX the second branch is |1,0>, so the check fails there, with the oracle
    and without it."""
    rhs = "[1/2 : density(|0,0>) ; 1/2 : density(|1,1>)]"
    src = (f"ok: MIXEQ meamix(1, 0, unitmix(CX, mix1(density(|+> # |0>)))) == {rhs}\n"
           f"swapped: MIXEQ meamix(1, 0, unitmix(CZ, mix1(density(|+> # |0>)))) == {rhs}\n")
    for cfg in (RunConfig(), RunConfig(oracle=False)):
        ok, swapped = (run_assertion(a, {}, cfg) for a in parse_corpus(src).assertions)
        assert ok.verdict == "pass", ok
        assert swapped.verdict == "fail", swapped
        # each pure branch prints c and its vector's normal form, the leaf's
        # as compared, and then the first block where the vectors differ
        assert swapped.witness == (
            "mixed states differ at branch 1: [1/2 : 2 .* density(1/2*sqrt2 .* |1,0>)]"
            " vs [1/2 : density(|1,1>)], block 1: 1/2*sqrt2 .* |0> vs |1>"), swapped


def test_mix_equal_evaluates_the_one_branch_that_differs(monkeypatch):
    """Branches written as one term are equal unevaluated; with CZ swapped
    for CX in the last branch that pair is still evaluated and refuted."""
    binds = []
    bind = oracle.Evaluator.bind
    monkeypatch.setattr(oracle.Evaluator, "bind",
                        lambda self, env: binds.append(env) or bind(self, env))
    ok, swapped = (
        eval_mix(Parser(f"[1/4 : density(|0,0>) ; 1/4 : density(|+> # |1>) ; "
                        f"1/2 : density({g} * (|+> # |0>))]", {}).parse_mixed())
        for g in ("CX", "CZ"))
    assert mix_equal(ok, ok) and not binds
    assert not mix_equal(ok, swapped)
    assert len(binds) == 1


@pytest.mark.parametrize("n", [16, 64])
def test_wide_mixed_states_are_decided_in_steps_linear_in_the_width(n):
    """With the oracle off, the H-layer MIXEQ passes and its false variant
    fails at branch 0, not with an error; at n=16 a second H layer and a
    measurement after the first pass too.  A pure branch is a factored
    vector, so the steps stay within a few per qubit."""
    h, zeros, plus = f"kron_n({n}, H)", f"kron_n({n}, |0>)", f"kron_n({n}, |+>)"
    layer = f"unitmix({h}, mix1(density({zeros})))"
    src = [f"h: MIXEQ {layer} == mix1(density({plus}))",
           f"f: MIXEQ {layer} == mix1(density(kron_n({n - 1}, |+>) # |->))"]
    if n == 16:
        src += [f"t: MIXEQ unitmix({h}, {layer}) == mix1(density({zeros}))",
                f"m: MIXEQ meamix({n - 1}, 0, {layer}) == "
                f"meamix({n - 1}, 0, mix1(density({plus})))"]
    results = [run_assertion(a, {}, RunConfig(oracle=False))
               for a in parse_corpus("\n".join(src) + "\n").assertions]
    verdicts = {r.name: r.verdict for r in results}
    assert verdicts == {name[0]: "fail" if name[0] == "f" else "pass" for name in src}, results
    assert results[1].witness.startswith("mixed states differ at branch 0: [1 : density(|+> # ")
    assert all(r.steps <= 4 * n for r in results), [(r.name, r.steps) for r in results]
