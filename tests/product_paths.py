"""Which functions in src/qitbench a product path enters.

Run from the repository root:

    python3 tests/product_paths.py [--seed 7]

It records, with sys.settrace, every function of src/qitbench that is
entered during two runs:

* product paths: tests/test_cli.py, then one pass of the jobs of each
  benchmark workload (perfbench/workloads.py, at the given seed), each
  run in-process through qitbench.cli.main;
* tier 1: the whole tests/ suite.

It then lists the functions (every def, methods and nested functions
included) that only tier 1 enters, and those that neither enters, each
with its source lines.  The line totals count each source line once, so
a nested function adds nothing to its test-only parent.  pytest does not
collect this file: its name does not start with test_.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qitbench"
for extra in (ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
    if str(extra) not in sys.path:
        sys.path.insert(0, str(extra))


def definitions() -> dict[tuple[str, int], tuple[str, int]]:
    """(module path, first line) -> (qualified name, last line) of every
    def under src/qitbench; a decorated def starts at its first
    decorator, as its code object does."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC.parent))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(rel, first)] = (prefix + child.name, child.end_lineno)
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


class Recorder:
    """The (module path, first line) of every src/qitbench code object
    entered while it is installed."""

    def __init__(self) -> None:
        self.entered: set[tuple[str, int]] = set()
        self._prefix = str(SRC.parent) + "/"

    def _trace(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(self._prefix):
            self.entered.add((code.co_filename[len(self._prefix):], code.co_firstlineno))
        return None  # no line events: only calls are recorded

    @contextlib.contextmanager
    def installed(self):
        sys.settrace(self._trace)
        try:
            yield self
        finally:
            sys.settrace(None)


def run_pytest(args: list[str], trace) -> None:
    """pytest over args, with trace put back in place before each test and
    after the run: an error inside a trace function unsets it, and the
    deep-input tests of tests/test_cli.py run out of recursion depth."""
    import pytest

    class Retrace:
        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_setup(self, item):
            sys.settrace(trace)

    code = pytest.main(["-q", "-p", "no:cacheprovider", *args], plugins=[Retrace()])
    sys.settrace(trace)
    if code != 0:
        raise SystemExit(f"pytest {' '.join(args)} exited {code}")


def run_workloads(seed: int) -> int:
    """One pass of every workload's jobs through cli.main; the jobs run."""
    import workloads
    from qitbench import cli

    def run_cli(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(list(argv))
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
        return rc, out.getvalue()

    ran = 0
    for name in workloads.WORKLOADS:
        for job in workloads.build(name, ROOT, seed, run_cli):
            rc, out = run_cli(job.argv)
            why = job.check(rc, out)
            if why is not None:
                raise SystemExit(f"{' '.join(job.argv)}: {why}")
            ran += 1
    return ran


def report(title: str, keys: set, defs: dict) -> list[str]:
    lines: set[tuple[str, int]] = set()
    rows = []
    for rel, first in sorted(keys):
        name, last = defs[(rel, first)]
        lines.update((rel, n) for n in range(first, last + 1))
        rows.append(f"  {rel}:{first} {name} ({last - first + 1} lines)")
    return [f"{title}: {len(keys)} functions, {len(lines)} lines", *rows]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=7, help="workload seed (default %(default)s)")
    args = p.parse_args(argv)

    defs = definitions()
    product = Recorder()
    with product.installed():
        run_pytest([str(ROOT / "tests" / "test_cli.py")], product._trace)
        jobs = run_workloads(args.seed)
    tier1 = Recorder()
    with tier1.installed():
        run_pytest([str(ROOT / "tests")], tier1._trace)

    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py")
    )
    known = set(defs)
    only_tests = (tier1.entered & known) - product.entered
    never = known - tier1.entered - product.entered
    print(f"src/qitbench: {len(defs)} functions, {src_lines} lines; "
          f"product paths ran tests/test_cli.py and {jobs} workload jobs at seed {args.seed}")
    print("\n".join(report("entered only by tier 1", only_tests, defs)))
    print("\n".join(report("entered by nothing", never, defs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
