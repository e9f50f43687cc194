"""The library's constants: sparse values and dense matrices shared process-wide."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import qdirac.oracle as oracle_module
import qdirac.rewrite as rewrite_module
from qdirac.corpus import run_file
from qdirac.oracle import Evaluator, collect_atoms, mat_equiv
from qdirac.rewrite import RewriteTrace, Rewriter
from qdirac.scalar import Scalar
from qdirac.term import gate, gate_names, identity, kron, library_subterms, mul

from conftest import CORPUS_DIR, REPO_DIR, rand_circuit, subterms


def _snapshot() -> tuple[tuple, dict]:
    """Copies of every value of the three sparse seeds and the dense table,
    compared by value."""
    blocks, folded, columns = rewrite_module._constants()
    sparse = ({t: tuple(dict(b) for b in v) for t, v in blocks.items()},
              {t: dict(flat) for t, flat in folded.items()},
              {t: {c: list(rows) for c, rows in by_col.items()} for t, by_col in columns.items()})
    dense = {t: (m.rows, m.cols, list(m.entries)) for t, m in oracle_module._library().items()}
    return sparse, dense


def test_no_shared_value_is_mutated(monkeypatch):
    """After the corpus is checked, oracle on, and 100 random circuits are
    normalized, traced and untraced, and compared by the oracle, every
    table value equals the one a fresh build gives."""
    for path in sorted(CORPUS_DIR.glob("*.qd")):
        run_file(str(path))
    rng = random.Random(20)
    for _ in range(100):
        t = rand_circuit(rng, rng.randint(1, 3), closed=False)
        nf = Rewriter().normalize(t)
        Rewriter(trace=RewriteTrace()).normalize(t)
        assert mat_equiv(t, nf.to_term())
    used = _snapshot()
    monkeypatch.setattr(rewrite_module, "_CONSTANTS", None)
    monkeypatch.setattr(oracle_module, "_LIBRARY", None)
    assert _snapshot() == used


def test_a_library_value_is_shared_and_free():
    a, b = Rewriter(), Rewriter()
    assert a._sparse(gate("H")) is b._sparse(gate("H"))
    assert a.steps == b.steps == 0
    rw = Rewriter()
    for t in library_subterms():
        rw._map(t)
    assert rw.steps == 0
    assert Evaluator().matrix(gate("CX")) is Evaluator().matrix(gate("CX"))


def test_the_tables_hold_exactly_the_library_subterms():
    """The blocks and by-column seeds and the dense table have one entry per
    subterm of a library gate or state, and the folded seed one per such
    subterm of more than one block, however many and whatever terms were
    evaluated before."""
    Rewriter().normalize(mul(gate("TOF"), gate("TOF")))
    assert mat_equiv(gate("CPS"), mul(gate("CPS"), identity(8)))
    under = subterms(gate(name) for name in gate_names())
    assert len(library_subterms()) == len(under) == 87
    assert set(library_subterms()) == under
    blocks, folded, columns = rewrite_module._constants()
    assert blocks.keys() == columns.keys() == under
    assert folded.keys() == {t for t in under if len(blocks[t]) > 1}
    assert oracle_module._library().keys() == under


def test_atom_walks_stop_at_library_constants(monkeypatch):
    """A library constant holds no atom, so it is closed and no scalar under
    one is asked."""
    calls = []
    atoms = Scalar.atoms

    def counted(s):
        calls.append(s)
        return atoms(s)
    monkeypatch.setattr(Scalar, "atoms", counted)
    assert all(t.closed for t in library_subterms())
    assert kron(gate("H"), gate("CPS")).closed
    assert collect_atoms(kron(gate("H"), gate("CPS"))) == (set(), set())
    assert not calls


def test_import_fills_no_library_table():
    """The tables are filled on first use, so importing qdirac builds none."""
    code = ("import qdirac, qdirac.rewrite as r, qdirac.oracle as o; "
            "print(r._CONSTANTS is None, o._LIBRARY is None)")
    env = {**os.environ, "PYTHONPATH": str(REPO_DIR / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "True True\n"
