"""Density matrices, symbolic trace, probabilities and mixed states."""

from __future__ import annotations

import random

import pytest

from qdirac.corpus import RunConfig, parse_corpus, run_assertion
from qdirac.errors import DimMismatch, FuelExhausted, NotAnOperator, NotAVector
from qdirac import oracle
from qdirac import quantum as quantum_module
from qdirac.oracle import mat_equiv
from qdirac.parser import Parser
from qdirac.quantum import (
    MixedState, density, eval_mix, mea_mix, mix_equal, probability, pure_mix,
    super_, super_reduce, sym_mix_difference, total_mass, unit_mix,
)
from qdirac.rewrite import Rewriter
from qdirac.scalar import Scalar
from qdirac.term import (
    add, dag, gate, identity, ket0, ket1, ket_string, kron, mea, mul, scale,
)

from conftest import rand_op, rand_state

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


def test_super_reduce_matches_direct_normalization():
    rng = random.Random(31)
    for _ in range(60):
        qubits = rng.randint(1, 2)
        psi = rand_state(rng, qubits, closed=True)
        m = rand_op(rng, qubits, closed=True)
        via_vector = super_reduce(m, psi)
        direct = Rewriter().normalize(super_(m, density(psi)))
        assert via_vector == direct, (repr(m), repr(psi))


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
    differs, its operators cut short, even when they have 1024 summands."""
    src = ("big: MIXEQ unitmix(kron_n(5, H), mix1(density(kron_n(5, |0>))))"
           " == unitmix(kron_n(5, H), mix1(density(kron_n(5, |1>))))\n"
           "short: MIXEQ [1/2 : density(|0>) ; 1/2 : density(|1>)] == [1/2 : density(|0>)]\n")
    results = [run_assertion(a, {}, RunConfig()) for a in parse_corpus(src).assertions]
    assert [r.verdict for r in results] == ["fail", "fail"]
    big, short = (r.witness for r in results)
    prefix = "mixed states differ at branch 0: "
    assert big.startswith(prefix)
    sides = big[len(prefix):].split(" vs ")
    assert len(sides) == 2 and sides[0] != sides[1]
    assert all(s.startswith("[1 : ") and s.endswith("...]") and len(s) == 126 for s in sides)
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
    normal form kept for it are the same matrix, with atoms and hypotheses
    too; a leaf branch keeps no normal form."""
    rng = random.Random(35)
    for case in range(60):
        qubits = 1 + case % 2
        closed = case % 4 < 2
        hyps = (("a", "b"),) if case % 8 >= 4 else ()
        leaf = pure_mix(density(rand_state(rng, qubits, closed=closed)))
        assert leaf.nfs == (None,)
        measured = mea_mix(qubits - 1, rng.randrange(qubits), leaf, hyps)
        evolved = unit_mix(rand_op(rng, qubits, closed=closed), measured, hyps)
        for m in (measured, evolved):
            assert len(m.nfs) == len(m.branches)
            for (_, op), nf in zip(m.branches, m.nfs):
                assert mat_equiv(op, nf.to_term(), norm_pairs=hyps), (case, repr(op))


def test_oracle_reads_the_written_circuit_not_the_kept_normal_form():
    """A corrupted kept normal form is flagged by the symbolic comparison,
    while the oracle, which reads the operators as written, still finds the
    state equal to the true one."""
    evolved = unit_mix(gate("H"), pure_mix(density(ket0())))
    truth = pure_mix(density(gate("ket_plus")))
    assert sym_mix_difference(evolved, truth) is None
    corrupt = MixedState(evolved.branches, (Rewriter().normalize(density(ket1())),))
    assert sym_mix_difference(corrupt, truth) == 0
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
