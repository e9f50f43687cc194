"""The benchmark's traced run wraps program functions by name; they must resolve."""

from __future__ import annotations

import sys

from qdirac import quantum

from conftest import REPO_DIR


def test_benchmark_hooks_resolve():
    sys.path.insert(0, str(REPO_DIR / "benchmark"))
    try:
        import tracing
    finally:
        sys.path.remove(str(REPO_DIR / "benchmark"))
    hooks = [(owner, attr) for owner, attr, _ in tracing._FUNCTIONS]
    originals = [owner.__dict__[attr] for owner, attr in hooks]
    tracer = tracing.Tracer()
    tracer.install()  # a renamed or removed hook raises KeyError here
    try:
        assert quantum.mea_mix is not originals[hooks.index((quantum, "mea_mix"))]
    finally:
        tracer.uninstall()
    assert [owner.__dict__[attr] for owner, attr in hooks] == originals
