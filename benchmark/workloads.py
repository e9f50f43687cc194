"""Seeded inputs for the three benchmark workloads, written as surface text.

Every input reaches the program as `.qd` text or an expression string, the
same way a user's input does.  The text is written here directly, never
through `qdirac.term.render`, which drops the parentheses of a compound
coefficient such as `(i + 1/2*sqrt2)` (see README.md).

A workload holds:
  files       (name, .qd text) pairs decided in the warm verdict loop
  known       (file, assertion) -> "pass" or "fail", the known answer
  exprs       expression strings normalized with a trace
  cli_files   (name, .qd text) pairs checked by the cold `qdirac check` run
  warm_files, warm_exprs
              what runs once, untimed, before the timed rounds
  answers     (file, assertion) -> (right-hand side, what its closed-form
              answer is), for qubit_sweep
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from qdirac.corpus import build_defs, parse_corpus
from qdirac.parser import Parser


@dataclass
class Workload:
    name: str
    oracle: bool
    files: list[tuple[str, str]]
    known: dict[tuple[str, str], str]
    exprs: list[str]
    cli_files: list[tuple[str, str]]
    warm_files: list[tuple[str, str]]
    warm_exprs: list[str]
    answers: dict = field(default_factory=dict)


def _bits(n: int, value: int) -> str:
    return ",".join(str((value >> (n - 1 - k)) & 1) for k in range(n))


def _ket(n: int, value: int) -> str:
    return f"|{_bits(n, value)}>"


def _inline_defs(src: str, defs: list[tuple[str, str]]) -> str:
    """Replace DEF names by their parenthesized sources, latest DEF first."""
    for name, body in reversed(defs):
        src = re.sub(rf"\b{re.escape(name)}\b", f"({body})", src)
    return src


# --- corpus_check -----------------------------------------------------------

# Non-unit moduli, so a scaled side is false for EQ, MATEQ and OBS alike.
_MUTANT_SCALES = ("2", "3", "1/2", "-2", "3/5", "-1/3", "2*i", "5/4")
_MUTANT_COEFFS = ("1", "-1", "1/2", "i", "1/2*sqrt2", "-1/4*i")


def _basis_text(rows: int, cols: int, rng: random.Random) -> str:
    r, c = rows.bit_length() - 1, cols.bit_length() - 1
    parts = []
    if r:
        parts.append(_ket(r, rng.randrange(2 ** r)))
    if c:
        parts.append(f"<{_bits(c, rng.randrange(2 ** c))}|")
    return " * ".join(parts) or "I(1)"


def _mutate(k: int, rhs: str, dims: tuple[int, int], rng: random.Random) -> str:
    """Mutant k of a right-hand side: scaled for even k, else a basis term added."""
    if k % 2 == 0:
        return f"{rng.choice(_MUTANT_SCALES)} .* ({rhs})"
    return f"({rhs}) + {rng.choice(_MUTANT_COEFFS)} .* ({_basis_text(*dims, rng)})"


def corpus_check(seed: int, corpus_dir: Path) -> Workload:
    """The shipped corpus, each term-level assertion followed by a false mutant."""
    rng = random.Random(seed)
    files, known, exprs = [], {}, []
    for path in sorted(corpus_dir.glob("*.qd")):
        text = path.read_text(encoding="utf-8")
        corpus = parse_corpus(text)
        defs = build_defs(corpus.defs)
        lines = text.splitlines()
        mutants: dict[int, str] = {}
        for a in corpus.assertions:
            known[(path.name, a.name)] = "pass"
            if a.kind == "MIXEQ":
                continue
            dims = Parser(a.rhs, defs).parse_term().dims
            rhs = _mutate(len(exprs), a.rhs, dims, rng)
            mutants[a.line] = f"{a.name}_mut: {a.kind} {a.lhs} == {rhs}"
            known[(path.name, f"{a.name}_mut")] = "fail"
            exprs.append(_inline_defs(rhs, corpus.defs))
        out = []
        for lineno, line in enumerate(lines, start=1):
            out.append(line)
            if lineno in mutants:
                out.append(mutants[lineno])
        files.append((path.name, "\n".join(out) + "\n"))
    rng.shuffle(files)
    return Workload("corpus_check", True, files, known, exprs,
                    cli_files=files, warm_files=files, warm_exprs=exprs)


# --- qubit_sweep ------------------------------------------------------------

H_WIDTHS = range(4, 8)
GHZ_WIDTHS = range(8, 17)
DJ_WIDTHS = range(6, 10)


def _ghz_lhs(n: int) -> str:
    def ident(k: int) -> list[str]:
        return [f"I({2 ** k})"] if k else []

    layers = ["(" + " # ".join(["H"] + ident(n - 1)) + ")"]
    for k in range(n - 1):
        layers.append("(" + " # ".join(ident(k) + ["CX"] + ident(n - k - 2)) + ")")
    return " * ".join(reversed(layers)) + " * " + _ket(n, 0)


def _sweep_cases() -> list[tuple[str, str, str, tuple]]:
    """(name, lhs, rhs, closed-form answer spec) for every sweep assertion."""
    cases = []
    for n in H_WIDTHS:
        cases.append((f"H{n}", f"kron_n({n}, H) * kron_n({n}, H)", f"I({2 ** n})",
                      ("identity", n)))
    for n in GHZ_WIDTHS:
        cases.append((f"GHZ{n}", _ghz_lhs(n),
                      f"1/2*sqrt2 .* {_ket(n, 0)} + 1/2*sqrt2 .* {_ket(n, 2 ** n - 1)}",
                      ("ghz", n)))
    for n in DJ_WIDTHS:
        plus = f"kron_n({n}, |+>) # |->"
        cases.append((f"DJ0_{n}", f"(kron_n({n}, H) # H) * (kron_n({n}, |0>) # |1>)",
                      plus, ("plus_minus", n)))
        cases.append((f"DJ1_{n}", f"Uf({n}) * ({plus})", plus, ("plus_minus", n)))
        cases.append((f"DJ2_{n}", f"(kron_n({n}, H) # H) * ({plus})",
                      f"kron_n({n}, |0>) # |1>", ("zeros_one", n)))
    return cases


# One mixed-state check of the narrowest H width, with the oracle on, so
# that the oracle and quantum modules run in this workload too (a little).
_SWEEP_MIXED = ("mixed4: MIXEQ unitmix(kron_n(4, H), mix1(density(kron_n(4, |0>)))) == "
                "mix1(density(kron_n(4, |+>)))\n")


def _qd(cases) -> str:
    return "".join(f"{name}: EQ {lhs} == {rhs}\n" for name, lhs, rhs, _ in cases)


def qubit_sweep(seed: int) -> Workload:
    """Wide EQ assertions whose answers have 1 to 1024 summands, and one MIXEQ.

    The seed orders the assertions; their text is fixed, so the assertions
    that exhaust the fuel are the same on every seed.
    """
    cases = _sweep_cases()
    random.Random(seed).shuffle(cases)
    narrow = [c for c in cases
              if c[0] in ("H4", "GHZ8") or c[0].endswith(f"_{DJ_WIDTHS[0]}")]
    files = [("sweep.qd", _qd(cases) + _SWEEP_MIXED)]
    known = {(fname, name): "pass" for name, *_ in cases
             for fname in ("sweep.qd", "sweep_narrow.qd")}
    known[("sweep.qd", "mixed4")] = "pass"
    answers = {("sweep.qd", name): (rhs, spec) for name, _, rhs, spec in cases}
    # The answers are traced three times a round: once, they are 25 mostly
    # short samples, too few for steady percentiles on a shared machine.
    return Workload("qubit_sweep", False, files, known,
                    exprs=[rhs for _, _, rhs, _ in cases] * 3,
                    cli_files=[("sweep_narrow.qd", _qd(narrow))],
                    warm_files=[("sweep_narrow.qd", _qd(narrow))],
                    warm_exprs=[rhs for _, _, rhs, _ in narrow],
                    answers=answers)


# --- traced_laws ------------------------------------------------------------

# Gate, ket and coefficient classes; members of one class cost about the
# same to normalize.  The circuits' skeletons (sizes, layouts, classes) come
# from a fixed generator, the same on every seed, and the seed picks only
# the members: drawing the skeletons too made the tail timings of this
# workload differ by 25-40% from seed to seed.
_GATES_1Q = [("X", "Y", "Z"), ("H",), ("I(2)",), ("B0", "B3")]
_GATES_2Q = [("CX", "CZ", "XC"), ("SWAP",)]
_KETS = [("0", "1"), ("+", "-")]
_CLOSED_COEFFS = [("1/2*sqrt2", "-1/2*sqrt2"), ("-1", "i", "-i"), ("3/5", "-4/5"),
                  ("(i + 1/2*sqrt2)", "(1 + 1/2*sqrt2)")]
_ATOM_COEFFS = [("a", "b^*", "e(u)", "e(-u)"), ("(a + b^*)", "(b + a^*)"),
                ("1/2*sqrt2*e(-u)", "1/2*sqrt2*e(u)"), ("a*b^*", "b*a^*")]
SKELETON_SEED = 2020
RANDOM_CIRCUITS = 300
H_TRACED_WIDTHS = range(2, 5)

# Shapes by qubits, layers and what decorates one layer, assigned by
# position so that every shape occurs with and without atoms and a state.
_SHAPES = [(n, depth, decoration) for n in (1, 2, 3) for depth in (1, 2, 3)
           for decoration in ("plain", "dagger", "sum")]


def _layer(n: int, sk: random.Random) -> list:
    slots, k = [], 0
    while k < n:
        if k + 1 < n and sk.random() < 0.3:
            slots.append(sk.choice(_GATES_2Q))
            k += 2
        else:
            slots.append(sk.choice(_GATES_1Q))
            k += 1
    pieces = [p for slot in slots for p in (" # ", slot)][1:]
    return ["(", *pieces, ")"] if len(slots) > 1 else pieces


def _skeleton(k: int, sk: random.Random) -> tuple[list, list | None, int]:
    """Circuit k as pieces: strings, and classes the seed picks a member of."""
    n, depth, decoration = _SHAPES[(k // 4) % len(_SHAPES)]
    factors = [_layer(n, sk) for _ in range(depth)]
    i = sk.randrange(depth)
    if decoration == "dagger":
        factors[i] = factors[i] + ["^"]
    elif decoration == "sum":
        factors[i] = ["(", *factors[i], " + ", *_layer(n, sk), ")"]
    op = [p for f in factors for p in (" * ", *f)][1:]
    if k % 2:
        op = [sk.choice(_ATOM_COEFFS), " .* (", *op, ")"]
    elif k % 8 < 4:
        op = [sk.choice(_CLOSED_COEFFS), " .* (", *op, ")"]
    ket = None
    if (k // 2) % 2 == 0:
        ket = ["|", *[p for _ in range(n) for p in (",", sk.choice(_KETS))][1:], ">"]
    return op, ket, n


def _fill(pieces: list, rng: random.Random) -> str:
    return "".join(p if isinstance(p, str) else rng.choice(p) for p in pieces)


def _law_instance(k: int, op: str, ket: str | None, n: int) -> str:
    """A true assertion pairing circuit k with one law applied to it."""
    name = f"law{k}"
    if ket is not None:
        return (f"{name}: MIXEQ unitmix({op}, mix1(density({ket}))) == "
                f"mix1(density({op} * {ket}))")
    expr = op
    d = 2 ** n
    lhs = (
        f"({expr})^^",                        # L16
        f"1/2 .* (2 .* ({expr}))",            # L2, L3
        f"({expr}) + O({d},{d})",             # L9
        f"I({d}) * ({expr})",                 # L8
        f"({expr}) * I({d})",                 # L8
    )[k % 5]
    return f"{name}: EQ {lhs} == {expr}"


def traced_laws(seed: int, corpus_dir: Path) -> Workload:
    """Traced normalization of corpus sides, H^n*H^n and random circuits."""
    rng = random.Random(seed)
    exprs = []
    for path in sorted(corpus_dir.glob("*.qd")):
        corpus = parse_corpus(path.read_text(encoding="utf-8"))
        for a in corpus.assertions:
            if a.kind != "MIXEQ":
                exprs += [_inline_defs(a.lhs, corpus.defs), _inline_defs(a.rhs, corpus.defs)]
    exprs += [f"kron_n({n}, H) * kron_n({n}, H)" for n in H_TRACED_WIDTHS]
    sk = random.Random(SKELETON_SEED)
    circuits, laws, known = [], [], {}
    for k in range(RANDOM_CIRCUITS):
        op_pieces, ket_pieces, n = _skeleton(k, sk)
        op = _fill(op_pieces, rng)
        ket = None if ket_pieces is None else _fill(ket_pieces, rng)
        circuits.append(op if ket is None else f"{op} * {ket}")
        laws.append(_law_instance(k, op, ket, n))
        known[("laws.qd", f"law{k}")] = "pass"
    exprs += circuits
    rng.shuffle(exprs)
    files = [("laws.qd", "\n".join(laws) + "\n")]
    # The law instances are decided three times a round, as their 0.5 s pass
    # is short beside the traced normalizations.  The traced pipeline keeps
    # no caches, so a full warm-up round (as long as a timed one) would buy
    # nothing; a slice of the circuits loads every path.
    return Workload("traced_laws", True, files * 3, known, exprs,
                    cli_files=files, warm_files=files, warm_exprs=circuits[:50])


def build(name: str, seed: int, corpus_dir: Path) -> Workload:
    if name == "corpus_check":
        return corpus_check(seed, corpus_dir)
    if name == "qubit_sweep":
        return qubit_sweep(seed)
    if name == "traced_laws":
        return traced_laws(seed, corpus_dir)
    raise ValueError(f"unknown workload {name!r}")
