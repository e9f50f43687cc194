"""Modules use each other's public names only."""

from __future__ import annotations

import ast

from conftest import REPO_DIR


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted((REPO_DIR / "src" / "qdirac").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: from .{node.module} import {a.name}"
                              for a in node.names if a.name.startswith("_")]
    assert not offenders
