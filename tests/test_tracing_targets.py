"""The benchmark's traced run wraps library functions by name and counts
from their results; every name it lists must still exist, or its span
would silently read 0, and every counter must still read the result it
gets, or traced runs would fail."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from qitbench.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
BAG = str(ROOT / "fixtures" / "bag.qit")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_target_exists():
    tracing = load_tracing()
    with tracing.installed(tracing.Tracer()) as missing:
        pass
    assert missing == []
    assert len(tracing.TARGETS) > 0


def test_every_traced_counter_reads_a_real_result(capsys):
    # one construct --compare-oracle calls every counted target: the
    # oracle universe and its closure, the size universe, the build,
    # the diagram, the colimit and the comparison
    tracing = load_tracing()
    tracer = tracing.Tracer()
    argv = ["construct", BAG, "--X", "a,b", "-d", "3", "--size-height", "3", "--compare-oracle"]
    with tracing.installed(tracer) as missing:
        assert main(argv) == 0
    assert missing == []
    assert "oracle: bijection over 6 classes" in capsys.readouterr().out
    spans = {span[0] for span in tracer.spans}
    counted = {name for _, _, name, count in tracing.TARGETS if count is not None}
    assert counted <= spans
    assert {name: tracer.counts[name] > 0 for name in tracing.COUNT_METRICS} == dict.fromkeys(
        tracing.COUNT_METRICS, True
    )
    # the build counts the pairs (slice, term) of its stages, which the
    # structured export counts per class
    assert main(argv[:-1] + ["--format", "structured"]) == 0
    exported = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  class ")]
    assert tracer.counts["construction.stage_pairs"] == sum(int(line.split()[-1]) for line in exported)
