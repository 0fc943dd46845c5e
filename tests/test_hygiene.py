"""Source hygiene: every name a module imports is used in that module,
no module has an assert statement, every file a module reads or writes
as text names its encoding, every module-level function and class, and
every method of such a class but its dunders, is used somewhere in
src/qitbench, and every record field is read there, unless listed with
the reason it is kept, no nested function calls itself, and no module
imports dataclasses or weakref.

No linter ships with the project, so this parses src/qitbench with ast.
__future__ imports and the package __init__ modules, whose imports are
re-exports, are left out of the import check.  Invariants raise QitError
subclasses: an assert vanishes under python -O and ends in a traceback.
Without encoding=, text is read in the locale's encoding, so a file can
decode on one machine and not on another.  Records are built without
code generation (see records.py), which every command's import pays
for; importing qitbench.cli must not load dataclasses at all.  A size
is its id in its universe's table, so no module keeps a process-wide
weak intern table.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Optional

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
    """module.name of each module-level function and class, and
    module.Class.name of each method of a module-level class but its
    dunders, that no name or attribute read in any of the sources refers
    to, apart from the reads in its own body; an import alone is not a
    use.  The scan knows no types, so a read of any attribute of that
    name uses every method so named."""

    def reads(tree: ast.AST) -> Counter:
        return Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))
        )

    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((reads(tree) for tree in trees.values()), Counter())
    defs = [
        (f"{module}.{node.name}", node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    defs += [
        (f"{name}.{node.name}", node)
        for name, cls in defs
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    return sorted(name for name, node in defs if everywhere[node.name] == reads(node)[node.name])


# Kept in src/ although nothing there uses them, each with the reason.
# Code only the tests need lives in tests/ (theorems.py, oracles.py,
# helpers.py).
NOT_YET_USED = {
    "construction.QwInterface.qwintro":
        "the checked intro, which tests/theorems.py calls and ROADMAP item 14's"
        " fold --compare-construction will call; compare_with_oracle runs its shared step",
    "construction.Stage.class_of_pair":
        "perfbench/tracing.py counts stage pairs with it",
    "quotient.TermUniverse.instance_pairs":
        "perfbench/tracing.py counts instances with it",
    "schema.eliminator.derive_eliminator":
        "printing the eliminator needs an output flag, a feature of its own",
    "sizes.SizeUniverse.le":
        "the order's other half, which tests/test_sizes.py checks",
    "sizes.size_signature_for":
        "ROADMAP item 9 puts the per-arity joins of countable operators here",
    "terms.IndexedSignature":
        "perfbench/test_reference.py imports it; the benchmark's next change drops that import",
}
# quotient.TermUniverse.terms has no reader in src/ either: perfbench/
# tracing.py counts a traced universe's terms with it.  The scan knows no
# types, so TermTable.terms's readers keep it off the list above.


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


def test_the_scan_sees_an_unused_method():
    sources = {
        "a": (
            "class C:\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "    def used(self):\n"
            "        return self.again()\n"
            "    def again(self):\n"
            "        return self.again()\n"
            "    def spare(self):\n"
            "        return self.used()\n"
            "    def __private(self):\n"
            "        return 1\n"
        ),
        "b": "from a import C\n\nprint(len(C()) + C().used())\n",
    }
    assert unused_definitions(sources) == ["a.C.__private", "a.C.spare"]


def record_fields(tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """The fields of each module-level NamedTuple (its annotated names)
    and records.Record class (its _fields), by class name."""
    out = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
        if "NamedTuple" in bases:
            out[node.name] = tuple(
                s.target.id for s in node.body
                if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
            )
        elif "Record" in bases:
            for s in node.body:
                targets = [t.id for t in getattr(s, "targets", ()) if isinstance(t, ast.Name)]
                if targets == ["_fields"]:
                    out[node.name] = tuple(ast.literal_eval(s.value))
    return out


def unread_fields(sources: dict[str, str]) -> list[str]:
    """module.Class.field of each record field that nothing in the
    sources reads: not as an attribute of any object, since the scan
    knows no types, nor in a class pattern, case Cls(a, b) reading
    Cls's first two fields and case Cls(name=x) the field name.  A
    field set only by the record's constructor is dead weight that
    every build of the record pays for."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    fields = {
        (module, cls): names
        for module, tree in trees.items()
        for cls, names in record_fields(tree).items()
    }
    by_class: dict[str, tuple[str, ...]] = {cls: names for (_, cls), names in fields.items()}
    read: set[tuple[Optional[str], str]] = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add((None, n.attr))
            elif isinstance(n, ast.MatchClass):
                cls = n.cls.id if isinstance(n.cls, ast.Name) else n.cls.attr
                read.update((cls, f) for f in by_class.get(cls, ())[: len(n.patterns)])
                read.update((cls, f) for f in n.kwd_attrs)
    return sorted(
        f"{module}.{cls}.{f}"
        for (module, cls), names in fields.items()
        for f in names
        if (None, f) not in read and (cls, f) not in read
    )


# Record fields that nothing in src/ reads, each with the reason it is
# kept.
UNREAD_FIELDS = {
    "algebras.SatReport.checked":
        "how many environments satisfies tried, a count tests/test_algebras.py asserts",
    "quotient.InstancePair.eq_name":
        "TermUniverse.instance_pairs is read by perfbench/tracing.py and the tests, which"
        " pick instances by equation",
}


def test_every_record_field_is_read_in_src():
    sources = {
        ".".join(p.relative_to(SRC).with_suffix("").parts): p.read_text(encoding="utf-8")
        for p in ALL_MODULES
    }
    assert unread_fields(sources) == sorted(UNREAD_FIELDS)


def test_the_scan_sees_an_unread_field():
    sources = {
        "a": (
            "from typing import NamedTuple\n"
            "from .records import Record, tagged\n"
            "@tagged\n"
            "class P(NamedTuple):\n"
            "    x: int\n"
            "    y: int\n"
            "    z: int = 0\n"
            "class R(Record):\n"
            "    _fields = ('u', 'v')\n"
            "class Plain:\n"
            "    w: int\n"
        ),
        "b": (
            "def f(p, r):\n"
            "    r.v = p.z\n"
            "    match p:\n"
            "        case P(a):\n"
            "            return a\n"
            "        case R(u=b):\n"
            "            return b\n"
        ),
    }
    assert unread_fields(sources) == ["a.P.y", "a.R.v"]


def recursive_closures(source: str) -> list[str]:
    """The nested functions that read their own name.  Such a closure
    holds a cell that holds the closure: a reference cycle, which every
    call that builds it leaves to the cyclic collector."""
    found: dict[int, str] = {}
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(outer):
            if node is outer or not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(
                isinstance(n, ast.Name) and n.id == node.name and isinstance(n.ctx, ast.Load)
                for n in ast.walk(node)
            ):
                found[node.lineno] = node.name
    return [f"line {line}: {name}" for line, name in sorted(found.items())]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_recursive_closures(path):
    assert recursive_closures(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_a_recursive_closure():
    source = (
        "def f(n):\n"
        "    def down(k):\n"
        "        return 0 if k == 0 else down(k - 1)\n"
        "    def once(k):\n"
        "        return f(k)\n"
        "    class C:\n"
        "        def m(self):\n"
        "            def again():\n"
        "                return again\n"
        "            return self.m\n"
        "    return down(n) + once(n)\n"
        "\n"
        "def g(k):\n"
        "    return g(k - 1)\n"
    )
    assert recursive_closures(source) == ["line 2: down", "line 8: again"]


def module_imports(source: str, module: str) -> list[int]:
    """The lines that import the module or a name from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == module for name in names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_module_imports_dataclasses(path):
    assert module_imports(path.read_text(encoding="utf-8"), "dataclasses") == []


def test_the_scan_sees_a_dataclasses_import():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "import dataclasses_json\n"
        "from . import dataclasses_like\n"
        "def f():\n"
        "    import dataclasses as dc\n"
    )
    assert module_imports(source, "dataclasses") == [1, 2, 6]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_module_imports_weakref(path):
    assert module_imports(path.read_text(encoding="utf-8"), "weakref") == []


def test_the_scan_sees_a_weakref_import():
    source = (
        "import weakref\n"
        "from weakref import WeakValueDictionary\n"
        "import weakrefs\n"
        "from . import weakref_like\n"
        "class C:\n"
        "    import weakref as wr\n"
    )
    assert module_imports(source, "weakref") == [1, 2, 6]


def test_importing_the_cli_leaves_dataclasses_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = "import sys, qitbench.cli; print(sorted(m for m in sys.modules if 'dataclass' in m))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
