"""Acceptance gate: law coverage, shipped corpus, speed, properties, CLI.

Tolerances are pinned here on purpose; loosening them or reducing the case
counts weakens the gate and is not allowed.
"""

from __future__ import annotations

import json
import random
import time

from qdirac.bench import bench_case
from qdirac.cli import EXIT_FAIL, EXIT_OK, main
from qdirac.corpus import RunConfig, build_defs, parse_corpus, run_file
from qdirac.oracle import mat_equiv, obs_equiv
from qdirac.parser import Parser, parse
from qdirac.quantum import density, mea_mix, pure_mix, total_mass, unit_mix
from qdirac.rewrite import Rewriter
from qdirac.scalar import Scalar
from qdirac.term import (
    add, dag, gate, identity, kron, ket_string, mul, scale, zero,
)

from conftest import CORPUS_DIR, rand_op, rand_scalar, rand_state, rand_term

TOL = 1e-9
SEED = 42
CORPUS_FILES = [
    "ghz.qd", "bell.qd", "gate_laws.qd", "circuit_identities.qd", "deutsch.qd",
    "teleport.qd", "simon.qd", "grover.qd", "dj_n1.qd", "dj_n2.qd",
    "dj_n3.qd", "dj_n4.qd", "dj_n5.qd", "entangle12.qd",
]


# --- criterion 1: every law holds on random instances -------------------

def _pair(rng, qubits=None):
    q = qubits or rng.randint(1, 2)
    return rand_op(rng, q, depth=1, closed=False), q


def _law_l1(rng):
    b1, b2 = rng.randint(0, 1), rng.randint(0, 1)
    k1, k2 = ket_string(str(b1)), ket_string(str(b2))
    lhs = mul(dag(k1), k2)
    rhs = identity(1) if b1 == b2 else zero(1, 1)
    return lhs, rhs


def _law_l2(rng):
    q = rng.randint(1, 2)
    a, b, c = (rand_op(rng, q, depth=1, closed=False) for _ in range(3))
    which = rng.randrange(3)
    if which == 0:
        return mul(mul(a, b), c), mul(a, mul(b, c))
    if which == 1:
        return add(add(a, b), c), add(a, add(b, c))
    return kron(kron(a, b), c), kron(a, kron(b, c))


def _law_l3(rng):
    a, _ = _pair(rng)
    which = rng.randrange(3)
    if which == 0:
        return scale(Scalar.zero(), a), zero(*a.dims)
    if which == 1:
        return scale(Scalar.one(), a), a
    c, d = rand_scalar(rng, closed=False), rand_scalar(rng, closed=False)
    return scale(c, scale(d, a)), scale(c * d, a)


def _law_l4(rng):
    q = rng.randint(1, 2)
    a = rand_op(rng, q, depth=1, closed=False)
    b = rand_op(rng, q, depth=1, closed=False)
    c = rand_scalar(rng, closed=False)
    return scale(c, add(a, b)), add(scale(c, a), scale(c, b))


def _law_l5(rng):
    a, q = _pair(rng)
    b = rand_op(rng, q, depth=1, closed=False)
    c = rand_scalar(rng, closed=False)
    if rng.random() < 0.5:
        return mul(scale(c, a), b), scale(c, mul(a, b))
    return mul(a, scale(c, b)), scale(c, mul(a, b))


def _law_l6(rng):
    a, _ = _pair(rng, 1)
    b = rand_op(rng, 1, depth=1, closed=False)
    c = rand_scalar(rng, closed=False)
    if rng.random() < 0.5:
        return kron(scale(c, a), b), scale(c, kron(a, b))
    return kron(a, scale(c, b)), scale(c, kron(a, b))


def _law_l7(rng):
    a, q = _pair(rng)
    n = 2 ** q
    if rng.random() < 0.5:
        return mul(zero(n, n), a), zero(n, n)
    return mul(a, zero(n, n)), zero(n, n)


def _law_l8(rng):
    a, q = _pair(rng)
    n = 2 ** q
    which = rng.randrange(3)
    if which == 0:
        return mul(identity(n), a), a
    if which == 1:
        return mul(a, identity(n)), a
    return kron(identity(1), a), a


def _law_l9(rng):
    a, q = _pair(rng)
    n = 2 ** q
    if rng.random() < 0.5:
        return add(a, zero(n, n)), a
    return add(zero(n, n), a), a


def _law_l10(rng):
    a, _ = _pair(rng, 1)
    if rng.random() < 0.5:
        return kron(zero(2, 2), a), zero(4, 4)
    return kron(a, zero(2, 2)), zero(4, 4)


def _law_l11(rng):
    q = rng.randint(1, 2)
    a, b, c = (rand_op(rng, q, depth=1, closed=False) for _ in range(3))
    if rng.random() < 0.5:
        return mul(add(a, b), c), add(mul(a, c), mul(b, c))
    return mul(c, add(a, b)), add(mul(c, a), mul(c, b))


def _law_l12(rng):
    a = rand_op(rng, 1, depth=1, closed=False)
    b = rand_op(rng, 1, depth=1, closed=False)
    c = rand_op(rng, 1, depth=1, closed=False)
    if rng.random() < 0.5:
        return kron(add(a, b), c), add(kron(a, c), kron(b, c))
    return kron(c, add(a, b)), add(kron(c, a), kron(c, b))


def _law_l13(rng):
    a, b, c, d = (rand_op(rng, 1, depth=1, closed=False) for _ in range(4))
    return mul(kron(a, b), kron(c, d)), kron(mul(a, c), mul(b, d))


def _law_l14(rng):
    a, q = _pair(rng)
    if rng.random() < 0.5:
        b = rand_op(rng, q, depth=1, closed=False)
        return dag(mul(a, b)), mul(dag(b), dag(a))
    c = rand_scalar(rng, closed=False)
    return dag(scale(c, a)), scale(c.conj(), dag(a))


def _law_l15(rng):
    if rng.random() < 0.5:
        q = rng.randint(1, 2)
        a = rand_op(rng, q, depth=1, closed=False)
        b = rand_op(rng, q, depth=1, closed=False)
        return dag(add(a, b)), add(dag(a), dag(b))
    a = rand_op(rng, 1, depth=1, closed=False)
    b = rand_op(rng, 1, depth=1, closed=False)
    return dag(kron(a, b)), kron(dag(a), dag(b))


def _law_l16(rng):
    a, _ = _pair(rng)
    return dag(dag(a)), a


LAW_GENERATORS = {
    "L1": _law_l1, "L2": _law_l2, "L3": _law_l3, "L4": _law_l4,
    "L5": _law_l5, "L6": _law_l6, "L7": _law_l7, "L8": _law_l8,
    "L9": _law_l9, "L10": _law_l10, "L11": _law_l11, "L12": _law_l12,
    "L13": _law_l13, "L14": _law_l14, "L15": _law_l15, "L16": _law_l16,
}


def test_all_sixteen_laws_on_random_instances():
    assert len(LAW_GENERATORS) == 16
    start = time.monotonic()
    rw = Rewriter()
    for idx, (law, gen) in enumerate(LAW_GENERATORS.items()):
        rng = random.Random(1000 + idx)
        for k in range(50):
            lhs, rhs = gen(rng)
            assert rw.normalize(lhs) == rw.normalize(rhs), (law, k, repr(lhs))
            assert mat_equiv(lhs, rhs, samples=3, tol=TOL, seed=SEED), (law, k)
    assert time.monotonic() - start < 30.0


# --- criterion 2: shipped corpus passes with the oracle on --------------

def test_corpus_all_pass_with_oracle():
    start = time.monotonic()
    cfg = RunConfig(tol=TOL, seed=SEED, oracle=True)
    for name in CORPUS_FILES:
        t0 = time.monotonic()
        report = run_file(str(CORPUS_DIR / name), cfg)
        elapsed = time.monotonic() - t0
        bad = [(r.name, r.verdict, r.witness) for r in report.results
               if r.verdict != "pass"]
        assert not bad, (name, bad)
        if name == "entangle12.qd":
            assert elapsed < 60.0
    assert time.monotonic() - start < 300.0


def test_teleport_branch_probabilities_exact_quarters():
    src = (CORPUS_DIR / "teleport.qd").read_text()
    corpus = parse_corpus(src)
    defs = build_defs(corpus.defs)
    hyps = (("a", "b"),)
    phi2 = Parser("phi2", defs).parse_term()
    m = mea_mix(2, 1, mea_mix(2, 0, pure_mix(density(phi2)), hyps), hyps)
    assert len(m.branches) == 4
    quarter = Scalar.rational(1, 4)
    assert all(p == quarter for p, _ in m.branches)
    assert total_mass(m, hyps) == Scalar.one()


def test_simon_state_exact_amplitudes():
    circuit = parse(
        "(H # H # I(2) # I(2)) * (I(2) # CX # I(2)) * (CIX # X)"
        " * (H # H # I(2) # I(2))"
    )
    nf = Rewriter().normalize(mul(circuit, ket_string("0000")))
    assert len(nf.summands) == 4
    allowed = (Scalar.rational(1, 2), Scalar.rational(-1, 2))
    for s, _ in nf.summands:
        assert s in allowed


# --- criterion 3: symbolic beats the dense baseline ---------------------

def test_symbolic_faster_than_dense():
    for case in ("deutsch", "teleport", "simon", "grover"):
        row = bench_case(case, repeat=5, seed=SEED)
        assert row.ms_dense is not None, case
        assert row.ms_symbolic < row.ms_dense, (
            case, row.ms_symbolic, row.ms_dense
        )


def test_large_case_dense_is_skipped_but_symbolic_runs():
    row = bench_case("entangle12", repeat=1, seed=SEED)
    assert row.ms_dense is None
    assert row.dense_note == "skipped (dim 4096)"
    assert row.ms_symbolic > 0


# --- criterion 4: property suites ---------------------------------------

def test_property_normalization_preserves_denotation():
    rng = random.Random(101)
    rw = Rewriter()
    for _ in range(200):
        t = rand_term(rng, max_qubits=4, closed=True)
        nf = rw.normalize(t)
        assert mat_equiv(t, nf.to_term(), tol=TOL, seed=SEED), repr(t)


def test_property_normal_form_decides_equality():
    rng = random.Random(102)
    rw = Rewriter()
    checked = 0
    while checked < 200:
        t1 = rand_term(rng, max_qubits=3, closed=True)
        t2 = rand_term(rng, max_qubits=3, closed=True)
        if t1.dims != t2.dims:
            continue
        checked += 1
        same = rw.normalize(t1) == rw.normalize(t2)
        assert same == mat_equiv(t1, t2, tol=TOL, seed=SEED), (repr(t1), repr(t2))


def test_property_observational_equality_is_density_equality():
    rng = random.Random(103)
    for _ in range(200):
        q = rng.randint(1, 2)
        psi = rand_state(rng, q, closed=True)
        if rng.random() < 0.4:
            # same ray: multiply by a unit-modulus constant
            c = rng.choice((
                Scalar.rational(-1), Scalar.i(),
                Scalar.inv_sqrt2() + Scalar.inv_sqrt2() * Scalar.i(),
            ))
            phi = scale(c, psi)
        else:
            phi = rand_state(rng, q, closed=True)
        same_ray = obs_equiv(psi, phi, tol=TOL, seed=SEED).equivalent
        same_density = mat_equiv(density(psi), density(phi), tol=TOL, seed=SEED)
        assert same_ray == same_density, (repr(psi), repr(phi))


def test_property_measurement_and_unitaries_conserve_mass():
    rng = random.Random(104)
    for _ in range(200):
        q = rng.randint(1, 2)
        psi = rand_state(rng, q, closed=True)
        mass = Rewriter().normalize(mul(dag(psi), psi)).trace()
        measured = mea_mix(q - 1, rng.randrange(q), pure_mix(density(psi)))
        assert total_mass(measured) == mass, repr(psi)
        u = gate("H") if q == 1 else gate(rng.choice(("CX", "CZ", "SWAP")))
        evolved = unit_mix(u, measured)
        assert total_mass(evolved) == mass, repr(psi)


def test_phase_distinctions():
    # a global sign is unobservable on its own ...
    res = obs_equiv(identity(2), scale(Scalar.rational(-1), identity(2)),
                    tol=TOL, seed=SEED)
    assert res.equivalent and abs(res.phase - (-1)) <= TOL
    # ... but becomes a relative phase once controlled
    ctrl = lambda u: add(kron(gate("B0"), identity(2)), kron(gate("B3"), u))
    res = obs_equiv(ctrl(identity(2)),
                    ctrl(scale(Scalar.rational(-1), identity(2))),
                    tol=TOL, seed=SEED)
    assert not res.equivalent
    nf_a = Rewriter().normalize(ctrl(identity(2)))
    nf_b = Rewriter().normalize(ctrl(scale(Scalar.rational(-1), identity(2))))
    assert nf_a != nf_b


# --- criterion 5: deterministic CLI, honest failures --------------------

def test_cli_reports_are_byte_identical(capsys):
    args = ["check"] + [str(CORPUS_DIR / n) for n in CORPUS_FILES[:8]] \
        + ["--seed", "42", "--json"]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    for f in doc["files"]:
        assert all(r["verdict"] == "pass" for r in f["results"])


def test_cli_flags_corrupted_corpus(tmp_path, capsys):
    src = (CORPUS_DIR / "ghz.qd").read_text()
    bad = src.replace("|1,1,1>", "|1,1,0>", 1)
    assert bad != src
    p = tmp_path / "corrupted.qd"
    p.write_text(bad)
    assert main(["check", str(p)]) == EXIT_FAIL
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "witness:" in out
