"""The docs cite only code that exists.

Every backticked ``path.py`` or ``path.py::symbol`` in the reader-facing
docs must name a file under ``src/repro``, ``tests``, ``benchmarks`` or
``examples`` (a path may be given from any directory level, e.g.
``core/kernel.py``), and a named symbol — ``func``, ``Class`` or
``Class.method``, pytest's ``Class::test`` too — must be defined in that
file.  ROADMAP.md and CHANGES.md are history and name deleted files on
purpose, so they are not checked.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/ARCHITECTURE.md")
CODE_ROOTS = ("src/repro", "tests", "benchmarks", "examples")

_SPAN = re.compile(r"`([^`\n]+)`")
_REFERENCE = re.compile(r"(?<![\w/.*{}-])((?:[\w.-]+/)*[\w-]+\.py)(?![\w*{}])(?:::([\w.:]+))?")


@lru_cache(maxsize=None)
def _code_files() -> tuple[str, ...]:
    return tuple(
        path.relative_to(ROOT).as_posix()
        for root in CODE_ROOTS
        for path in (ROOT / root).rglob("*.py")
    )


@lru_cache(maxsize=None)
def _defined_names(path: str) -> frozenset[str]:
    """Top-level functions, classes and assignments, plus ``Class.member``."""
    names: set[str] = set()
    for node in ast.parse((ROOT / path).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        names.add(f"{node.name}.{member.name}")
                    elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                        names.add(f"{node.name}.{member.target.id}")
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return frozenset(names)


def _references(doc: str):
    for line_no, line in enumerate((ROOT / doc).read_text().splitlines(), 1):
        for span in _SPAN.findall(line):
            for path, symbol in _REFERENCE.findall(span):
                yield line_no, path, symbol.replace("::", ".") if symbol else None


def _unresolved(doc: str) -> list[str]:
    problems = []
    for line_no, path, symbol in _references(doc):
        matches = [f for f in _code_files() if f == path or f.endswith("/" + path)]
        if not matches:
            problems.append(f"{doc}:{line_no}: no file {path}")
        elif symbol and not any(symbol in _defined_names(f) for f in matches):
            problems.append(f"{doc}:{line_no}: {path} defines no {symbol}")
    return problems


@pytest.mark.parametrize("doc", DOCS)
def test_doc_cites_only_existing_code(doc):
    assert _unresolved(doc) == []


def test_the_check_sees_references():
    found = {(path, symbol) for doc in DOCS for _line, path, symbol in _references(doc)}
    assert ("core/kernel.py", None) in found
    assert any(symbol for _path, symbol in found)  # ``path.py::symbol`` is parsed too
