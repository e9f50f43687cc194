"""Modules use each other's public names only."""

from __future__ import annotations

import ast

from conftest import REPO_DIR

SRC = REPO_DIR / "src" / "qdirac"


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: from .{node.module} import {a.name}"
                              for a in node.names if a.name.startswith("_")]
    assert not offenders


def test_only_the_normal_form_and_its_builder_read_its_layout():
    """Outside normal_form.py and rewrite.py, a normal form is read through
    its methods: no module reads the attributes blocks, summands or walk."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("normal_form.py", "rewrite.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("blocks", "summands", "walk"):
                offenders.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert not offenders
