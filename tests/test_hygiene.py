"""Source hygiene: every name a module imports is used in that module,
no module has an assert statement, every file a module reads or writes
as text names its encoding, every module-level function and class is
used somewhere in src/qitbench, unless listed with the reason it is
kept, and no module imports dataclasses.

No linter ships with the project, so this parses src/qitbench with ast.
__future__ imports and the package __init__ modules, whose imports are
re-exports, are left out of the import check.  Invariants raise QitError
subclasses: an assert vanishes under python -O and ends in a traceback.
Without encoding=, text is read in the locale's encoding, so a file can
decode on one machine and not on another.  Records are built without
code generation (see records.py), which every command's import pays
for; importing qitbench.cli must not load dataclasses at all.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import Counter
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


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """module.name of each module-level function and class that no name
    or attribute read in any of the sources refers to, apart from the
    reads in its own body; an import alone is not a use."""

    def reads(tree: ast.AST) -> Counter:
        return Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))
        )

    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((reads(tree) for tree in trees.values()), Counter())
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and everywhere[node.name] == reads(node)[node.name]
    )


# Kept in src/ although nothing there uses them, each with the reason.
# Code only the tests need lives in tests/ (theorems.py, oracles.py,
# helpers.py).
NOT_YET_USED = {
    "schema.eliminator.derive_eliminator":
        "printing the eliminator needs an output flag, a feature of its own",
    "sizes.size_signature_for":
        "ROADMAP item 9 puts the per-arity joins of countable operators here",
}


def test_every_definition_is_used_in_src():
    sources = {
        ".".join(p.relative_to(SRC).with_suffix("").parts): p.read_text(encoding="utf-8")
        for p in ALL_MODULES
    }
    assert unused_definitions(sources) == sorted(NOT_YET_USED)


def test_the_scan_sees_an_unused_definition():
    sources = {
        "a": "def f():\n    return f()\n\n\nclass C:\n    pass\n\n\ndef g(x):\n    return x.h\n",
        "b": "from a import C, f\n\n\ndef h():\n    return C\n",
    }
    assert unused_definitions(sources) == ["a.f", "a.g"]


def dataclass_imports(source: str) -> list[int]:
    """The lines that import the dataclasses module or a name from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "dataclasses" for name in names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_module_imports_dataclasses(path):
    assert dataclass_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_a_dataclasses_import():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "import dataclasses_json\n"
        "from . import dataclasses_like\n"
        "def f():\n"
        "    import dataclasses as dc\n"
    )
    assert dataclass_imports(source) == [1, 2, 6]


def test_importing_the_cli_leaves_dataclasses_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = "import sys, qitbench.cli; print(sorted(m for m in sys.modules if 'dataclass' in m))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
