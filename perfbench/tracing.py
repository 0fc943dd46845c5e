"""Traced replay: spans around the public library calls a command makes.

The traced run executes the same CLI jobs, with timed wrappers put in
place of the public functions and methods that the CLI calls and that
the library's layers call into one another.  The wrappers live only here
and are taken out when the traced run ends, so the untraced run measures
the program as shipped.  Spans are kept in memory, written out at the
end, and folded into per-layer metrics.

A span's self time is its duration minus the time of the spans nested in
it.  A job's root span is named ``cli.<command>``; its self time is the
CLI's own work (argument parsing, file reading, printing).
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, job id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self.job = -1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = len(self.spans)
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.job]
        self.spans.append(rec)
        self._open.append(sid)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn: Callable, name: str, count: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, result, args)
            return result

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for name, start, end, parent, job in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "job": job}) + "\n")


# --- what each span counts, from the call's result (or its self) ---


def _count_universe(c, uni, args):
    c["terms.universe_terms"] += len(uni.terms)
    c["quotient.instances_kept"] += len(uni.instance_pairs)
    c["quotient.envs_tried"] += len(uni.instance_pairs) + uni.skipped


def _count_classes(c, q, args):
    c["quotient.classes"] += len(q)


def _count_sizes(c, result, args):
    u = args[0]
    c["sizes.members"] += len(u.members)
    c["sizes.ordered_pairs"] += sum(len(b) for b in u.below.values())


def _count_stages(c, appx, args):
    c["construction.stages"] += len(appx.stages)
    c["construction.stage_classes"] += sum(len(st.classes) for st in appx.stages)
    c["construction.stage_pairs"] += sum(len(st.class_of_pair) for st in appx.stages)


def _count_compare(c, cmp, args):
    c["construction.intro_checked"] += cmp.intro_checked


def _count_maps(c, diagram, args):
    c["diagrams.maps"] += len(diagram.maps)


def _count_colimit(c, result, args):
    c["diagrams.colimit_classes"] += len(args[0].classes)


# (module, attribute path, span name, counter).  The first group are the
# names the CLI calls; the second the calls between layers inside the
# library.  Each span name is "<layer>.<call>".
TARGETS = [
    ("qitbench.cli", "parse_decl", "schema.parse", None),
    ("qitbench.cli", "check_decl", "schema.check", None),
    ("qitbench.cli", "elaborate", "schema.elaborate", None),
    ("qitbench.cli", "build_universe", "quotient.build_universe", _count_universe),
    ("qitbench.cli", "close_congruence", "quotient.close_congruence", _count_classes),
    ("qitbench.cli", "decide_eq", "quotient.decide_eq", None),
    ("qitbench.cli", "qwrec", "quotient.qwrec", None),
    ("qitbench.cli", "qwelim", "quotient.qwelim", None),
    ("qitbench.cli", "satisfies", "algebras.satisfies", None),
    ("qitbench.cli", "parse_term", "sexpr.parse_term", None),
    ("qitbench.cli", "show_term", "sexpr.show_term", None),
    ("qitbench.cli", "build_fixed_point", "construction.build_fixed_point", _count_stages),
    ("qitbench.cli", "qw_from_colimit", "construction.qw_from_colimit", None),
    ("qitbench.cli", "compare_with_oracle", "construction.compare_with_oracle", _count_compare),
    ("qitbench.quotient", "enumerate_terms", "terms.enumerate", None),
    ("qitbench.quotient", "satisfies", "algebras.satisfies", None),
    ("qitbench.construction", "qw_from_colimit", "construction.qw_from_colimit", None),
    ("qitbench.sizes", "SizeUniverse.__init__", "sizes.universe", _count_sizes),
    ("qitbench.construction", "Approximation.check_fixed_diag", "construction.check_fixed_diag", None),
    ("qitbench.construction", "Approximation.check_restriction", "construction.check_restriction", None),
    ("qitbench.construction", "Approximation.to_diagram", "construction.to_diagram", _count_maps),
    ("qitbench.diagrams", "Diagram.check", "diagrams.check", None),
    ("qitbench.diagrams", "Colimit.__init__", "diagrams.colim", _count_colimit),
]


@contextmanager
def installed(tracer: Tracer) -> Iterator[list[str]]:
    """Put the wrappers in place; yields the targets that no longer exist
    (a later refactor may remove a call, and its metrics then read 0)."""
    saved = []
    missing = []
    for module, path, name, count in TARGETS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{module}.{path}")
            continue
        saved.append((owner, attr, fn))
        setattr(owner, attr, tracer.wrap(fn, name, count))
    try:
        yield missing
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# --- folding spans into per-layer metrics ---

LAYERS = ("cli", "schema", "terms", "quotient", "algebras", "sizes",
          "construction", "diagrams", "sexpr")

CALL_METRICS = (
    "schema.parse", "schema.check", "schema.elaborate", "terms.enumerate",
    "quotient.build_universe", "quotient.close_congruence", "quotient.qwrec",
    "quotient.qwelim", "quotient.decide_eq", "algebras.satisfies", "sizes.universe",
    "construction.build_fixed_point", "construction.check_restriction",
    "construction.check_fixed_diag", "construction.to_diagram",
    "construction.qw_from_colimit", "construction.compare_with_oracle",
    "diagrams.check", "diagrams.colim", "sexpr.parse_term", "sexpr.show_term",
)

COUNT_METRICS = (
    "terms.universe_terms", "quotient.envs_tried", "quotient.instances_kept",
    "quotient.classes", "sizes.members", "sizes.ordered_pairs", "construction.stages",
    "construction.stage_pairs", "construction.stage_classes", "construction.intro_checked",
    "diagrams.maps", "diagrams.colimit_classes",
)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass times and counts.  A call metric ``<name>_s`` is the
    call's full duration; ``self.<layer>_s`` sums self time by layer;
    ``construction.stage_build_s`` is build_fixed_point's self time, the
    part left after its two checks."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    root_time = covered = 0.0
    for n, (name, start, end, parent, _) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child_time[n]
        layer_self[name.split(".")[0]] += end - start - child_time[n]
        if parent < 0:
            root_time += end - start
            covered += child_time[n]

    out: dict[str, tuple[float, str]] = {}
    for name in CALL_METRICS:
        out[f"{name}_s"] = (total[name] / passes, "s")
    out["construction.stage_build_s"] = (own["construction.build_fixed_point"] / passes, "s")
    for layer in LAYERS:
        out[f"self.{layer}_s"] = (layer_self[layer] / passes, "s")
    c = tracer.counts
    for name in COUNT_METRICS:
        out[name] = (c[name] / passes, "count")
    tried = c["quotient.envs_tried"]
    out["quotient.instance_yield"] = (c["quotient.instances_kept"] / tried if tried else 0.0, "ratio")
    stages = c["construction.stages"]
    out["construction.members_per_stage"] = (c["sizes.members"] / stages if stages else 0.0, "ratio")
    out["trace.coverage"] = (covered / root_time if root_time else 0.0, "ratio")
    out["trace.spans"] = (len(spans) / passes, "count")
    return out
