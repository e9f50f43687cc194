"""Symbolic rewriting and equivalence checking for Dirac-notation circuits."""

from .errors import (
    DimMismatch, FuelExhausted, InvalidQubitIndex,
    NonInvertibleScalar, NotAnOperator, NotAVector, NotInReducedShape,
    ParseError, QDiracError, UnboundAtom, UnknownCase, UnknownGate,
)
from .scalar import Coefficient, Scalar
from .term import (
    Term, add, ce, dag, gate, gate_names, identity, ket0, ket1, ket_string, kron,
    kron_n, mea, mul, render, scale, uf, zero,
)
from .normal_form import NormalForm
from .rewrite import RewriteTrace, Rewriter, render_nf, replay, unified_base
from .oracle import (
    DenseMatrix, ObsResult, SampleEnv, eval_dense, mat_equiv, obs_equiv,
)
from .quantum import (
    MixedState, Pure, density, eval_mix, mea_mix, mix_equal, probability, pure_mix, super_,
    total_mass, unit_mix,
)
from .parser import parse, parse_mixed, parse_scalar
from .corpus import Assertion, RunConfig, RunReport, parse_corpus, run_file

__version__ = "0.1.0"
