"""Source hygiene: every name a module imports is used in that module,
no module has an assert statement, and every file a module reads or
writes as text names its encoding.

No linter ships with the project, so this parses src/qitbench with ast.
__future__ imports and the package __init__ modules, whose imports are
re-exports, are left out of the import check.  Invariants raise QitError
subclasses: an assert vanishes under python -O and ends in a traceback.
Without encoding=, text is read in the locale's encoding, so a file can
decode on one machine and not on another.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qitbench"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_import():
    source = "from typing import Mapping, Optional\nimport os.path\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == ["line 1: Mapping"]


def assert_lines(source: str) -> list[int]:
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_assert_statements(path):
    assert assert_lines(path.read_text()) == []


def test_the_scan_sees_an_assert():
    source = "def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return 'assert'\n"
    assert assert_lines(source) == [3]


def unencoded_text_io(source: str) -> list[int]:
    """The lines of read_text/write_text method calls and builtin open
    calls without an encoding= keyword; os.open takes no encoding."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        text_io = (isinstance(f, ast.Attribute) and f.attr in ("read_text", "write_text")) or (
            isinstance(f, ast.Name) and f.id == "open"
        )
        if text_io and not any(k.arg == "encoding" for k in node.keywords):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_text_io_names_its_encoding(path):
    assert unencoded_text_io(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_text_io_without_an_encoding():
    source = (
        "import os\n"
        "a = p.read_text()\n"
        "b = p.read_text(encoding='utf-8')\n"
        "p.write_text(a)\n"
        "with open(a) as f:\n"
        "    pass\n"
        "fd = os.open(a, os.O_RDONLY)\n"
        "with open(a, encoding='utf-8') as f:\n"
        "    pass\n"
    )
    assert unencoded_text_io(source) == [2, 4, 5]
