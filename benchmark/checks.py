"""Output checks, run after the timed loop.  Nothing is compared with stored output.

  every workload   each verdict that did not fail equals the known answer;
                   each traced normal form is reproduced by replaying its
                   trace, equals the untraced normal form, and matches the
                   reference evaluator on the input term
  corpus_check,    the reference evaluator agrees with the known answer of
  traced_laws      each term-level assertion: shipped ones and law
                   instances hold, mutants do not
  qubit_sweep      the traced normal form of each right-hand side, as a
                   term, matches the answer computed in closed form with
                   numpy; with the verdicts, which compare it with the
                   left normal form, that checks every answer
"""

from __future__ import annotations

import numpy as np

import reference
from qdirac.corpus import build_defs, parse_corpus
from qdirac.parser import Parser
from qdirac.rewrite import Rewriter, replay, unified_base

REFERENCE_SEED = 2020
_S = 2 ** -0.5


def closed_form(spec) -> np.ndarray:
    kind, n = spec
    if kind == "identity":
        return np.eye(2 ** n, dtype=complex)
    if kind == "ghz":
        v = np.zeros((2 ** n, 1), dtype=complex)
        v[0] = v[-1] = _S
        return v
    if kind == "plus_minus":
        v = np.array([[_S], [-_S]], dtype=complex)
        for _ in range(n):
            v = np.kron(np.array([[_S], [_S]]), v)
        return v
    if kind == "zeros_one":
        v = np.zeros((2 ** (n + 1), 1), dtype=complex)
        v[1] = 1
        return v
    raise ValueError(f"unknown closed form {kind!r}")


def _verdicts(w, loop) -> list[str]:
    out = []
    for key, (verdict, payload) in loop.verdicts.items():
        want = w.known[key]
        if verdict == "error":
            print(f"failed: {key[0]}:{key[1]}: {getattr(payload, 'witness', payload)}")
        elif verdict != want:
            out.append(f"{key[0]}:{key[1]}: verdict {verdict}, known answer {want}")
    return out


def _reference_verdicts(w, envs) -> list[str]:
    out = []
    for fname, text in dict(w.files).items():
        parsed = parse_corpus(text)
        defs = build_defs(parsed.defs)
        for a in parsed.assertions:
            if a.kind == "MIXEQ":
                continue
            lhs = Parser(a.lhs, defs).parse_term()
            rhs = Parser(a.rhs, defs).parse_term()
            want = w.known[(fname, a.name)] == "pass"
            if reference.holds(a.kind, lhs, rhs, envs) != want:
                out.append(f"{fname}:{a.name}: reference evaluator disagrees with "
                           f"the known answer")
    return out


def _sweep_answers(w, loop) -> list[str]:
    out = []
    for key, (rhs, spec) in w.answers.items():
        nf = loop.normals[rhs][1]
        if not reference.equal(reference.dense(nf.to_term(), {}), closed_form(spec)):
            out.append(f"{key[1]}: normal form does not match the closed-form answer")
    return out


def _traced(loop, envs) -> list[str]:
    out = []
    for src, (t, nf, trace, _, _) in loop.normals.items():
        if unified_base(replay(t, trace)) != nf:
            out.append(f"replaying the trace of {src!r} gives another normal form")
        if Rewriter().normalize(t) != nf:
            out.append(f"traced and untraced normal forms of {src!r} differ")
        term = nf.to_term()
        if not all(reference.equal(reference.dense(term, env), reference.dense(t, env))
                   for env in envs):
            out.append(f"normal form of {src!r} does not match the reference evaluator")
    return out


def check(w, loop) -> list[str]:
    """Every problem found in the loop's outputs; empty when all are correct."""
    reference.self_test()
    envs = reference.environments(REFERENCE_SEED)
    problems = _verdicts(w, loop) + _traced(loop, envs)
    if w.answers:
        problems += _sweep_answers(w, loop)
    else:
        problems += _reference_verdicts(w, envs)
    return problems
