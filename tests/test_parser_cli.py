"""Surface syntax parsing and the command-line front end."""

from __future__ import annotations

import json
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qdirac.corpus as corpus_module
import qdirac.normal_form as normal_form
from qdirac.cli import EXIT_FAIL, EXIT_INPUT, EXIT_OK, main
from qdirac.corpus import KINDS, parse_corpus
from qdirac.errors import DimMismatch, ParseError
from qdirac.parser import parse, parse_mixed, parse_scalar, tokenize
from qdirac.quantum import MixedState, eval_mix
from qdirac.rewrite import Rewriter, render_nf
from qdirac.scalar import Scalar
from qdirac.term import (
    add, ce, dag, gate, identity, ket0, ket1, ket_string, kron, mea, mul, render,
    scale, zero,
)

from conftest import CORPUS_DIR, REPO_DIR, rand_term


def nf(t):
    return Rewriter().normalize(t)


def test_parse_literals_and_sugar():
    assert parse("|0>") is ket0()
    assert parse("|0,1,1>") is ket_string("011")
    assert parse("<1|") is dag(ket1())
    assert parse("I(4)") is identity(4)
    assert parse("O(2,1)") is zero(2, 1)
    assert parse("H") is gate("H")
    assert parse("Mea0(1,0)") is mea("Mea0", 1, 0)
    assert parse("CE(u)") is ce("u")
    assert parse("uf(2)").dims == (8, 8)


def test_parse_precedence():
    assert parse("H # H * |0,0>") is mul(kron(gate("H"), gate("H")), ket_string("00"))
    assert parse("X^ * |0>") is mul(dag(gate("X")), ket0())
    assert parse("(|0> + |1>) # |0>") is kron(add(ket0(), ket1()), ket0())
    assert parse("|0> + |1> + |0>") is add(add(ket0(), ket1()), ket0())


def test_parse_scalar_forms():
    assert parse_scalar("1/2*sqrt2") == Scalar.inv_sqrt2()
    assert parse_scalar("a^*") == Scalar.conj_var("a")
    assert parse_scalar("conj(a)") == Scalar.conj_var("a")
    assert parse_scalar("e(-2*u)") == Scalar.phase("u", -2)
    assert parse_scalar("1/2 + -1/2*sqrt2*i") \
        == Scalar.rational(1, 2) - Scalar.inv_sqrt2() * Scalar.i()


def test_parse_scaled_terms():
    t = parse("1/2*sqrt2 .* (|0> + |1>)")
    assert t is scale(Scalar.inv_sqrt2(), add(ket0(), ket1()))
    assert render_nf(nf(t)) == "|+>"


def test_parse_mixed_states():
    m = eval_mix(parse_mixed("[1/2 : density(|0>) ; 1/2 : density(|1>)]"))
    assert len(m.branches) == 2
    assert m.branches[0][0] == Scalar.rational(1, 2)
    expr = parse_mixed("meamix(0, 0, mix1(density(|+>)))")
    assert not isinstance(expr, MixedState)  # parsing evaluates nothing
    m2 = eval_mix(expr)
    assert [p for p, _ in m2.branches] == [Scalar.rational(1, 2)] * 2


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse("|0> +\n @")
    assert exc.value.line == 2 and exc.value.column == 2
    with pytest.raises(ParseError):
        parse("|0> |1>")
    with pytest.raises(ParseError):
        parse("unknown_gate")
    with pytest.raises(DimMismatch):
        parse("|0> * |0>")


def test_defs_are_visible():
    defs = {"psi": ket_string("01")}
    assert parse("CX * psi", defs) is mul(gate("CX"), ket_string("01"))


def test_round_trip_render_parse():
    cases = [
        kron(ket0(), ket1()),
        mul(kron(gate("H"), gate("H")), ket_string("01")),
        scale(Scalar.inv_sqrt2(), add(ket0(), scale(Scalar.i(), ket1()))),
        dag(mul(gate("CX"), kron(gate("H"), identity(2)))),
        add(gate("B0"), scale(Scalar.phase("u"), gate("B3"))),
        scale(Scalar.one() + Scalar.i(), ket0()),
        parse("(i + 1/2*sqrt2) .* X"),
        kron(scale(Scalar.i() - Scalar.var("a"), ket1()), gate("H")),
    ]
    for t in cases:
        assert nf(parse(render(t))) == nf(t), render(t)
        assert nf(parse(render_nf(nf(t)))) == nf(t), render_nf(nf(t))
    assert render_nf(nf(parse("(1 + i) .* |0>"))) == "(1 + i) .* |0>"
    sym = parse("a .* |0,0> + a .* |0,1> + a .* |1,0> + a .* |1,1>")
    assert render_nf(nf(sym)) == "2*a .* (|+> # |+>)"
    assert nf(parse(render_nf(nf(sym)))) == nf(sym)


def test_cli_normalize(capsys):
    assert main(["normalize", "(H # H) * (|0> # |1>)"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "|+> # |->"
    assert main(["normalize", "H * X * H"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "Z"
    assert main(["normalize", "I(2)"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "I(2)"


def test_cli_normalize_trace_and_json(capsys):
    assert main(["normalize", "X * |0>", "--trace"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "|1>"
    assert len(out) > 1
    assert main(["normalize", "X * |0>", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["normal_form"] == "|1>"
    assert doc["dims"] == [2, 1]
    assert main(["normalize", "H * X * H", "--trace"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()[:-1]
    assert main(["normalize", "H * X * H", "--json", "--trace"]) == EXIT_OK
    trace = json.loads(capsys.readouterr().out)["trace"]
    assert len(trace) == len(lines) > 1
    for step, line in zip(trace, lines):
        assert all(type(i) is int for i in step["path"]), step["path"]
        pos = ".".join(map(str, step["path"])) or "root"
        assert line.startswith(f"{step['law']} @ {pos}: "), (line, step["path"])


def test_cli_normalize_bad_input(capsys):
    assert main(["normalize", "H * (("]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err
    assert main(["normalize", "1/0 .* |0>"]) == EXIT_INPUT
    assert "division by zero" in capsys.readouterr().err
    assert main(["normalize", "-1/0 .* |0>"]) == EXIT_INPUT
    assert "division by zero" in capsys.readouterr().err
    # a ket or bra token is named by its whole literal
    for src, found in (("- |0>", "found |0>"), ("(|0> <1|", "found <1|"),
                       ("|0> |1>", "trailing input '|1>'")):
        assert main(["normalize", src]) == EXIT_INPUT
        assert found in capsys.readouterr().err, src
    # every dim is a power of two, even where the block would cancel
    assert main(["normalize", "I(3) * O(3,3)"]) == EXIT_INPUT
    assert "power-of-two dim" in capsys.readouterr().err
    # numbers are ASCII digits short enough to convert; kron_n, mea and uf
    # are refused above the width limit before any node is built
    for src, found in (("I(\u00b2)", "unexpected character '\u00b2'"),
                       ("kron_n(\u00b3, H)", "unexpected character '\u00b3'"),
                       ("kron_n(300000, H)", "kron_n width 300000 exceeds the limit of 1024"),
                       ("Mea0(20000, 0)", "Mea0 width 20000 exceeds the limit of 1024"),
                       ("Mea1(3000, 2) * kron_n(1001, |0>)", "Mea1 width 3000 exceeds"),
                       ("uf(1025)", "uf width 1025 exceeds the limit of 1024"),
                       ("I(1" + "0" * 4400 + ")", "number of 4401 digits is too long"),
                       # a dim above 2^64 is shown as 2^k, even one whose
                       # decimal digits pass the int-string limit
                       ("kron_n(16, kron_n(1024, H)) * |0>", "expected 2^16384, got 2"),
                       ("Mea(1024, 3)", "at ident 2^1021x2^1021 (map of 2^1021 entries)"),
                       ("I(1" + "0" * 40 + ")", "power-of-two dim, got ~2^132")):
        assert main(["normalize", src]) == EXIT_INPUT, src
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and found in err, err


def test_cli_deep_input_is_an_input_error(tmp_path, capsys):
    """Input deeper than the recursion limit ends in one error line, exit 2."""
    nested = "(" * 2000 + "|0>" + ")" * 2000
    chain = " * ".join(["H"] * 300) + " * |0>"
    long_sum = " + ".join(["|0>"] * 3000)
    assert main(["normalize", nested]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    # the parser reads each group once, so 200 levels are decided; the
    # traced chain is reduced one gate at a time, and the traced sum is
    # already in the shape the collector reads, so both are decided
    for argv, last in ((["normalize", "(" * 200 + "|0>" + ")" * 200], "|0>"),
                       (["normalize", "--trace", chain], "|0>"),
                       (["normalize", "--trace", long_sum], "3000 .* |0>")):
        assert main(argv) == EXIT_OK, argv[-1][:20]
        assert capsys.readouterr().out.splitlines()[-1] == last
    # a product of operators is reduced from its innermost product out, so
    # each gate meets a reduced sum and a 300-gate chain is decided too
    gates = " * ".join(["X", "H"] * 150)
    assert main(["normalize", "--trace", gates]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "B1 + -1 .* B2"
    # check reports such an assertion as an error and goes on
    path = tmp_path / "deep.qd"
    path.write_text(f"deep: EQ {nested} == |0>\nflip: EQ X * |0> == |1>\n")
    assert main(["check", str(path), "--json"]) == EXIT_FAIL
    results = json.loads(capsys.readouterr().out)["files"][0]["results"]
    assert [r["verdict"] for r in results] == ["error", "pass"]
    assert results[0]["witness"].startswith("RecursionError: ")


def test_cli_wide_and_long_inputs_are_decided(capsys):
    """Inputs within the limits exit 0: a KRON spine is evaluated without
    recursion, daggers are pushed without recursion, and a dim too long for
    decimal is written 2^k."""
    long_sum = " + ".join(["|0>", "|1>"] * 300)
    dims = "0 .* kron_n(16, kron_n(1024, H))"
    for argv, last in ((["normalize", dims], "O(2^16384,2^16384)"),
                       (["normalize", "kron_n(1024, |0>)"], "|" + ",".join("0" * 1024) + ">"),
                       (["normalize", "kron_n(1024, X) * kron_n(1024, |0>)"],
                        "|" + ",".join("1" * 1024) + ">"),
                       (["normalize", "--trace", long_sum], "300*sqrt2 .* |+>"),
                       (["normalize", "--trace", "kron_n(700, |0>)"],
                        "|" + ",".join("0" * 700) + ">"),
                       (["normalize", "--trace", dims], "O(2^16384,2^16384)")):
        assert main(argv) == EXIT_OK, argv[-1][:20]
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == last, lines[-1][:40]
    # the traced dims input takes one step, whose text has the 2^k dims too
    assert lines[0].startswith("L3 @ root: 0 .* (") and lines[0].endswith("->  O(2^16384,2^16384)")


def test_cli_check_matches_golden_output(monkeypatch, capsys):
    """`qdirac check corpus/*.qd --json --seed 42`, run from the repository
    root, prints tests/data/check_corpus_seed42.json byte for byte."""
    monkeypatch.chdir(REPO_DIR)
    paths = sorted(f"corpus/{p.name}" for p in CORPUS_DIR.glob("*.qd"))
    assert main(["check", *paths, "--json", "--seed", "42"]) == EXIT_OK
    golden = (REPO_DIR / "tests" / "data" / "check_corpus_seed42.json").read_text()
    assert capsys.readouterr().out == golden


def test_a_constant_past_float_range_skips_the_oracle(tmp_path, capsys):
    """The oracle cannot evaluate 2^1100 as a float, so it is skipped with a
    note and the symbolic verdict stands: exit 0, no traceback."""
    n = 2 ** 1100
    p = tmp_path / "big.qd"
    p.write_text(f"big: MATEQ {n} .* X == X * ({n} .* I(2))\n")
    assert main(["check", str(p)]) == EXIT_OK
    out, err = capsys.readouterr()
    assert "  PASS  big [MATEQ] steps=" in out and err == "", (out, err)
    assert out.splitlines()[1].endswith(" oracle=skipped (a value past float range)"), out


def test_an_oracle_that_disagrees_is_reported(tmp_path, capsys, monkeypatch):
    """A symbolic verdict the oracle contradicts is noted, whichever way
    they differ, in text and JSON; the verdict and exit code keep their
    meaning.  Under the norm hypothesis n1 is a PASS with no note, its
    scalar's remainder being 1; a false EQ whose oracle is made to accept it
    is the symbolic FAIL the oracle contradicts."""
    p = tmp_path / "n1.qd"
    p.write_text("HYP norm(a,b)\n"
                 "n1: EQ (a^* * a + b^* * b) .* ((a^* * a + b^* * b) .* |1>) == |1>\n")
    assert main(["check", str(p)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1] == "  PASS  n1 [EQ] steps=2"
    monkeypatch.setattr(corpus_module, "mat_equiv", lambda *args, **kwargs: True)
    p.write_text("x: EQ X == Z\n")
    assert main(["check", str(p)]) == EXIT_FAIL
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "  FAIL  x [EQ] steps=0 oracle=disagrees", lines
    assert main(["check", str(p), "--json"]) == EXIT_FAIL
    (res,) = json.loads(capsys.readouterr().out)["files"][0]["results"]
    assert (res["verdict"], res["oracle"]) == ("fail", "disagrees")
    assert res["witness"].startswith("normal forms differ at |0><0|: ")
    assert main(["check", str(p), "--oracle", "off", "--json"]) == EXIT_FAIL
    assert "oracle" not in json.loads(capsys.readouterr().out)["files"][0]["results"][0]
    # the other way: a symbolic PASS that the oracle refutes
    monkeypatch.setattr(corpus_module, "mat_equiv", lambda *args, **kwargs: False)
    p.write_text("x: MATEQ X == X\n")
    assert main(["check", str(p), "--json"]) == EXIT_FAIL
    (res,) = json.loads(capsys.readouterr().out)["files"][0]["results"]
    assert (res["verdict"], res["oracle"], res["witness"]) == (
        "fail", "disagrees", "oracle refutes matrix equality")


def test_readme_quick_tour_normalize(capsys):
    """Each `$ qdirac normalize ...` example prints what README shows."""
    lines = (REPO_DIR / "README.md").read_text().splitlines()
    examples = 0
    for i, line in enumerate(lines):
        if not line.startswith("$ qdirac normalize "):
            continue
        expected = []
        for out in lines[i + 1:]:
            if not out or out.startswith(("$", "```")):
                break
            expected.append(out)
        assert main(shlex.split(line)[2:]) == EXIT_OK, line
        assert capsys.readouterr().out.splitlines() == expected, line
        examples += 1
    assert examples == 3


def test_duplicate_assertion_names_rejected(tmp_path, capsys):
    with pytest.raises(ParseError) as exc:
        parse_corpus("a: EQ X == X\nb: EQ Z == Z\na: EQ Y == Y\n")
    assert exc.value.line == 3
    p = tmp_path / "dup.qd"
    p.write_text("a: EQ X == X\na: EQ Y == Y\n")
    assert main(["check", str(p), "--json"]) == EXIT_INPUT
    assert "duplicate assertion name 'a'" in capsys.readouterr().err


def test_norm_pairs_sharing_an_atom_are_refused(tmp_path, capsys):
    """A pair written again, in either order, is the first; a pair sharing
    an atom with another, or repeating one, or not of two atom names, is a
    ParseError at its HYP line, exit 2 with a one-line message."""
    merged = parse_corpus("HYP norm(a,b)\nHYP norm(b,a)\nHYP norm(a,b)\n"
                          "t: EQ (a^* * a) .* |0> == (1 - b^* * b) .* |0>\n")
    assert merged.assertions[0].hypotheses == (("a", "b"),)
    p = tmp_path / "hyp.qd"
    p.write_text("HYP norm(a,b)\nHYP norm(b,a)\nt: EQ (a^* * a) .* |0> == (1 - b^* * b) .* |0>\n")
    assert main(["check", str(p)]) == EXIT_OK
    capsys.readouterr()
    rule = "an atom may occur in one norm pair, once"
    for text, message in [("HYP norm(a,b)\nHYP norm(b,c)\n", f"norm(b,c): {rule}"),
                          ("HYP norm(a,b)\nHYP norm(c,a)\n", f"norm(c,a): {rule}"),
                          ("HYP norm(x,y)\nHYP norm(a,a)\n", f"norm(a,a): {rule}"),
                          ("HYP norm(x,y)\nHYP norm(,b)\n", "norm takes two atom names"),
                          ("HYP norm(x,y)\nHYP norm(a b,c)\n", "norm takes two atom names")]:
        with pytest.raises(ParseError) as exc:
            parse_corpus(text)
        assert exc.value.line == 2 and message in str(exc.value), text
        p.write_text(text + "t: EQ |0> == |0>\n")
        assert main(["check", str(p)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and message in err, err


def test_cli_check_passes(capsys):
    path = str(CORPUS_DIR / "bell.qd")
    assert main(["check", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "failed" in out and " 0 failed, 0 errors" in out


def test_cli_check_json_deterministic(capsys):
    path = str(CORPUS_DIR / "teleport.qd")
    args = ["check", path, "--seed", "42", "--json"]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["seed"] == 42
    assert all(r["verdict"] == "pass" for r in doc["files"][0]["results"])


def test_cli_check_corrupted_fails_with_witness(tmp_path, capsys):
    src = (CORPUS_DIR / "bell.qd").read_text()
    bad = src.replace("|0,0>", "|0,1>", 1)
    assert bad != src
    p = tmp_path / "bad.qd"
    p.write_text(bad)
    assert main(["check", str(p)]) == EXIT_FAIL
    out = capsys.readouterr().out
    assert "FAIL" in out and "witness:" in out


def test_false_eq_names_the_first_differing_summand(tmp_path, capsys):
    """A false EQ or MATEQ names the first basis key whose scalars differ,
    a missing summand as 0, in one short line however many summands the
    sides have; OBS still shows both normal forms."""
    p = tmp_path / "false.qd"
    p.write_text("wide: EQ kron_n(10, |+>) == kron_n(10, |->)\n"
                 "gate: MATEQ H * H == X\n"
                 "obs: OBS |0> == |1>\n")
    assert main(["check", str(p), "--json"]) == EXIT_FAIL
    wide, gate_, obs = json.loads(capsys.readouterr().out)["files"][0]["results"]
    assert wide["witness"] == ("normal forms differ at |" + "0," * 9 + "1>: 1/32 vs -1/32")
    assert len(wide["witness"]) < 200
    assert gate_["witness"] == "normal forms differ at |0><0|: 1 vs 0"
    assert obs["witness"] == "normal forms differ: |0> vs |1>"


def test_false_eq_on_wide_factored_sides_is_a_fail(tmp_path, capsys, monkeypatch):
    """The first differing key is found by walking both sides' factored
    normal forms in key order, never flattened: a 2^21-entry pair fails with
    its witness, and a walk that runs out of fuel still fails."""
    p = tmp_path / "wide.qd"
    p.write_text("w: EQ kron_n(21, |+>) == kron_n(21, |->)\n")
    assert main(["check", "--oracle", "off", str(p)]) == EXIT_FAIL
    out = capsys.readouterr().out
    assert "FAIL  w [EQ]" in out and "ERROR" not in out
    assert "differ at |" + "0," * 20 + "1>: 1/2048*sqrt2 vs -1/2048*sqrt2" in out
    monkeypatch.setattr(normal_form, "DEFAULT_FUEL", 100)
    p.write_text("far: EQ kron_n(8, |+>) == |-> # kron_n(7, |+>)\n")
    assert main(["check", "--oracle", "off", "--json", str(p)]) == EXIT_FAIL
    (res,) = json.loads(capsys.readouterr().out)["files"][0]["results"]
    assert res["verdict"] == "fail"
    assert res["witness"] == "normal forms differ past the first 100 summands walked"


def test_pure_mixeq_of_unequal_block_counts_is_a_fail(tmp_path, capsys):
    """A 20-qubit product state against a one-block state (its pivot holds
    the atom a) is paired by walking both flat sums to the second key, so
    the false MIXEQ fails there, never flattened to 2^20 summands.  Its
    witness names the first block whose spans differ, not the unrelated
    blocks at that index; blocks of equal span are compared as they are."""
    p = tmp_path / "pe.qd"
    p.write_text("pe: MIXEQ mix1(density(kron_n(20, |+>))) == "
                 "mix1(density(a .* kron_n(20, |0>)))\n"
                 "q3: MIXEQ mix1(density(kron_n(3, |+>))) == "
                 "mix1(density(|0> # (|0,0> + |1,1>)))\n")
    assert main(["check", "--oracle", "off", str(p)]) == EXIT_FAIL
    out = capsys.readouterr().out
    assert "FAIL  pe [MIXEQ]" in out and "ERROR" not in out
    assert ", block 0: 1 qubit vs 20 qubits\n" in out
    assert ", block 0: sqrt2 .* |+> vs |0>\n" in out


def test_a_norm_hypothesis_leaves_wide_factored_sides_factored(tmp_path, capsys):
    """A HYP in force reduces each block of a normal form on its own, so a
    2^21-entry product state, with no atom (w) or with the relation in every
    block (n2, in 5 steps at any width), is never flattened; a*a^* alone
    is rewritten too (n3)."""
    p = tmp_path / "hyp.qd"
    p.write_text("HYP norm(a,b)\nw: EQ kron_n(21, |+>) == kron_n(21, |+>)\n"
                 "n2: EQ kron_n(21, |0> + (a^* * a + b^* * b) .* |1>) == kron_n(21, |0> + |1>)\n"
                 "n3: EQ (b^* * b) .* |0> == (1 - a^* * a) .* |0>\n")
    assert main(["check", "--oracle", "off", str(p)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS  w [EQ]" in out and "ERROR" not in out
    assert "  PASS  n2 [EQ] steps=5\n" in out and "  PASS  n3 [EQ]" in out, out


def test_cli_check_symbolic_obs(tmp_path, capsys):
    """OBS holds for one constant ratio of modulus 1, with atoms in the scalars."""
    psi = "(a .* |0> + b .* |1>)"
    phi = "((a + b) .* |0> + e(u) .* |1>)"
    cases = {
        "same": ("a .* |0>", "a .* |0>", "pass"),
        "times_i": (psi, f"i .* {psi}", "pass"),
        "sign": (phi, f"-1 .* {phi}", "pass"),
        "phase_atom": ("|0>", "e(u) .* |0>", "fail"),
        "other_atom": ("a .* |0>", "b .* |0>", "fail"),
        "modulus_2": ("|0>", "2 .* |0>", "fail"),
        "conjugate": ("a .* |0>", "a^* .* |0>", "fail"),
    }
    p = tmp_path / "obs.qd"
    p.write_text("".join(f"{n}: OBS {l} == {r}\n" for n, (l, r, _) in cases.items()))
    main(["check", str(p), "--oracle", "off", "--json"])
    results = json.loads(capsys.readouterr().out)["files"][0]["results"]
    assert {r["name"]: r["verdict"] for r in results} \
        == {n: v for n, (_, _, v) in cases.items()}


def test_obs_on_wide_factored_sides_is_decided(tmp_path, capsys):
    """OBS compares the blocks of factored normal forms, never the flat sum:
    2^21-entry states pass for a ratio of modulus 1 and fail, with the two
    normal forms as the witness, for another state or modulus.  A state that
    is no product of |0>, |1>, |+> and |-> is printed as its blocks."""
    plus, phased = "kron_n(21, |+>)", "kron_n(21, |0> + i .* |1>)"
    cases = {
        "o": (plus, f"-1 .* {plus}", "pass"),
        "i": (plus, f"i .* {plus}", "pass"),
        "minus": (plus, "kron_n(21, |->)", "fail"),
        "two": (plus, f"2 .* {plus}", "fail"),
        "phased_two": (phased, f"2 .* {phased}", "fail"),
    }
    p = tmp_path / "wide_obs.qd"
    p.write_text("".join(f"{n}: OBS {l} == {r}\n" for n, (l, r, _) in cases.items()))
    assert main(["check", str(p), "--oracle", "off", "--json"]) == EXIT_FAIL
    results = json.loads(capsys.readouterr().out)["files"][0]["results"]
    assert {r["name"]: r["verdict"] for r in results} == {n: v for n, (_, _, v) in cases.items()}
    for r in results:
        if r["name"] == "phased_two":
            block = "(|0> + i .* |1>)"
            assert r["witness"] == (f"normal forms differ: {' # '.join([block] * 21)} vs "
                                    f"{' # '.join([block] * 20 + ['(2 .* |0> + 2*i .* |1>)'])}")
        elif r["verdict"] == "fail":
            assert r["witness"].startswith("normal forms differ: |+> # |+> # ")


def test_an_error_reports_the_steps_it_spent(monkeypatch):
    """A fuel error keeps the steps spent before it, not 0."""
    made = []

    def small_fuel(hypotheses=()):
        made.append(Rewriter(fuel=16, hypotheses=hypotheses))
        return made[-1]
    monkeypatch.setattr(corpus_module, "Rewriter", small_fuel)
    (a,) = parse_corpus("h: EQ kron_n(3, H) * kron_n(3, H) == I(8)\n").assertions
    res = corpus_module.run_assertion(a, {}, corpus_module.RunConfig(oracle=False))
    assert res.verdict == "error" and res.witness.startswith("FuelExhausted")
    assert res.steps == made[0].steps > 0


def test_unequal_dims_fail_alike_with_and_without_the_oracle(tmp_path, capsys):
    """Sides of unequal dims are a symbolic fail; the oracle, which cannot
    compare them, leaves that verdict and its witness as they are."""
    p = tmp_path / "dims.qd"
    p.write_text("eq: EQ |0> == I(2)\n"
                 "mateq: MATEQ |0> == I(2)\n"
                 "obs: OBS |0> == I(2)\n"
                 "obs_zero: OBS O(2,1) == O(2,2)\n")
    reports = []
    for oracle in ("on", "off"):
        assert main(["check", str(p), "--oracle", oracle, "--json"]) == EXIT_FAIL
        reports.append(json.loads(capsys.readouterr().out)["files"][0]["results"])
    assert reports[0] == reports[1]
    assert {r["name"]: (r["verdict"], r["witness"]) for r in reports[0]} == {
        "eq": ("fail", "normal forms differ in dims: (2, 1) vs (2, 2)"),
        "mateq": ("fail", "normal forms differ in dims: (2, 1) vs (2, 2)"),
        "obs": ("fail", "normal forms differ: |0> vs I(2)"),
        "obs_zero": ("fail", "normal forms differ: O(2,1) vs O(2,2)"),
    }
    assert not any("oracle" in r for r in reports[0])


def test_cli_check_missing_file(capsys):
    assert main(["check", "/nonexistent/nope.qd"]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_cli_bench_json_and_table(capsys):
    assert main(["bench", "bell", "--repeat", "1", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["case"] == "bell"
    assert doc[0]["ms_symbolic"] >= 0
    assert main(["bench", "bell", "--repeat", "1"]) == EXIT_OK
    assert "bell" in capsys.readouterr().out


def test_cli_bench_unknown_case(capsys):
    assert main(["bench", "no_such_case"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error:" in err and "known: bell, circuit_identities," in err


def test_a_cold_check_loads_only_what_it_runs():
    """A fresh interpreter that imports the CLI, and then checks a file,
    has loaded neither the bench module nor dataclasses, fractions or
    inspect, which the engine does not run."""
    unwanted = ("dataclasses", "fractions", "inspect", "qdirac.bench")
    code = (f"import sys; unwanted = {unwanted!r}; import qdirac.cli; "
            "print([m for m in unwanted if m in sys.modules]); "
            "qdirac.cli.main(['check', 'corpus/bell.qd']); "
            "print([m for m in unwanted if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO_DIR / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO_DIR, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == lines[-1] == "[]", proc.stdout
    assert "4 passed, 0 failed, 0 errors" in proc.stdout


def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "latin1.qd"
    p.write_bytes(b"ok: EQ |0> == |0>\n# caf\xff\n")
    assert main(["check", str(p)]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err
    assert err.startswith(f"error: {p}: not UTF-8 text") and "(line 2, column 6)" in err, err


@pytest.mark.parametrize("argv", [
    ["check", "corpus/bell.qd", "--samples", "0"],
    ["check", "corpus/bell.qd", "--tol", "nan"],
    ["check", "corpus/bell.qd", "--tol=-1e-9"],
    ["check", "corpus/bell.qd", "--tol", "inf"],
    ["bench", "bell", "--repeat", "0"],
])
def test_option_values_out_of_range_are_refused(argv, capsys):
    """As argparse refuses a value that is not a number: exit 2, no work done."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and f"argument {argv[2].partition('=')[0]}: invalid" in err, err


# Token soup over the grammar's alphabet: kets, operators, call names, atoms
# and gates, and numbers 0..20 (large arguments have their own tests).
_SOUP_WORDS = [
    "|0>", "|1>", "|+>", "|->", "|0,1>", "<0|", "<1|",
    "+", "-", "*", "#", ".*", "^", "^*", "(", ")", ",", "/", "[", "]", ":", ";",
    "I", "O", "density", "super", "uf", "kron_n", "CE", "Mea0", "Mea", "conj", "e",
    "meamix", "unitmix", "mix1", "H", "X", "CX", "a", "b", "u", "i", "sqrt2",
]
_SOUP = st.one_of(
    st.sampled_from(_SOUP_WORDS),
    st.integers(min_value=0, max_value=20).map(str),
)
_EXPR = st.lists(_SOUP, min_size=1, max_size=14).map(" ".join)
_ASSERTION = st.tuples(st.sampled_from(KINDS), _EXPR, _EXPR).map(lambda t: "{} {} == {}".format(*t))
# at most one line that may reject the whole file: a DEF, a HYP or bare soup
_PREAMBLE = st.lists(st.one_of(_EXPR.map("DEF p = {}".format), st.just("HYP norm(a,b)"), _EXPR),
                     max_size=1)


# The tokenizer as a scanner of one token at a time: the whitespace before
# a token, then its kind's group, or the end of input.
_ONE_TOKEN = re.compile(r"\s*(?:(\|,*[01+-][01+,-]*>)|(<,*[01+-][01+,-]*\|)|([0-9]+)"
                        r"|([^\W\d]\w*)|(\.\*|[()^*+\-#/:;\[\],=])|(\Z))")


def _scanned_tokens(src):
    """src's token texts and "" for the end of input, scanned one token at a
    time; None at a character that starts no token, or a name that starts
    with no letter or '_'."""
    texts, pos = [], 0
    while True:
        m = _ONE_TOKEN.match(src, pos)
        if m is None or (m.lastindex == 4 and not (m[4][0].isalpha() or m[4][0] == "_")):
            return None
        texts.append(m[m.lastindex])
        if m.lastindex == 6:
            return texts
        pos = m.end()


_ODD = ["$", "²", "é", "é1", "x²", "٣", "\t", "\n", "\r\n", "\x0b", "\x1c", "\u3000", "|0,2>",
        "<0|1", "|,0>", "<,1,|", "|", "<", ">", ".", "!", "_x", "A1", "99999"]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.lists(st.sampled_from(_ODD), max_size=6))
def test_property_tokens_are_those_scanned_one_at_a_time(seed, odd):
    """tokenize, one pass over the source, gives the texts of a scanner that
    matches one token at a time, and raises a ParseError where that scanner
    stops: over rendered random terms, and over token soup with characters
    that start no token."""
    rng = random.Random(seed)
    words = [render(rand_term(rng))] + [rng.choice(_SOUP_WORDS) for _ in range(rng.randint(0, 8))]
    words += odd
    rng.shuffle(words)
    for src in (words[0], rng.choice(["", " ", "\n"]).join(words)):
        expected = _scanned_tokens(src)
        if expected is None:
            with pytest.raises(ParseError):
                tokenize(src)
        else:
            assert tokenize(src) == expected, src


def test_bad_tokens_keep_their_messages_and_positions(tmp_path, capsys):
    """Each error names the character or token it stops at, with the line
    and column the scanner of one token at a time gave."""
    cases = {
        "I(²)": ("unexpected character '²'", 1, 3),
        "|0,2>": ("malformed ket literal", 1, 1),
        "<0|1": ("unexpected trailing input '1'", 1, 4),
        "$": ("unexpected character '$'", 1, 1),
        "x²": ("unknown name 'x²'", 1, 1),
        "|0> + \t§": ("unexpected character '§'", 1, 8),
        "e(-3*)": ("e takes an angle name", 1, 6),
        "H *\n  (|0> +\n  |1,2>)": ("malformed ket literal", 3, 3),
        "kron_n(3, H) * " + "9" * 5000: ("number of 5000 digits is too long", 1, 16),
    }
    for src, (message, line, column) in cases.items():
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert (str(exc.value), exc.value.line, exc.value.column) == (
            f"{message} (line {line}, column {column})", line, column), src
    p = tmp_path / "bad.qd"
    p.write_text("# a file\nDEF psi = H * |0>\nok: EQ psi == |+>\nbad: EQ H * psi == |0,2> + |1>\n")
    assert main(["check", str(p), "--oracle", "off"]) == EXIT_FAIL
    assert ("witness: ParseError: malformed ket literal (line 1, column 1)"
            in capsys.readouterr().out)
    p.write_text("ok: EQ X == X\nDEF psi = H *\t$\n")
    assert main(["check", str(p)]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: unexpected character '$' (line 1, column 5)\n"


def _run_cli(argv) -> tuple[int, str]:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_clean_exit(code: int, err: str) -> None:
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_INPUT)
    if code == EXIT_INPUT:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == "", err


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_EXPR)
def test_fuzz_normalize_exits_cleanly(src):
    """Any expression ends in exit 0 or 2, never a traceback."""
    _assert_clean_exit(*_run_cli(["normalize", src]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_PREAMBLE, st.lists(_ASSERTION, min_size=1, max_size=4))
def test_fuzz_check_exits_cleanly(preamble, assertions):
    """Any .qd text ends in exit 0, 1 or 2, never a traceback."""
    text = "".join(f"{line}\n" for line in preamble)
    text += "".join(f"n{k}: {a}\n" for k, a in enumerate(assertions))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "soup.qd"
        path.write_text(text, encoding="utf-8")
        _assert_clean_exit(*_run_cli(["check", str(path), "--json"]))
