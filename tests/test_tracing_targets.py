"""The benchmark's traced run wraps library functions by name; every
name it lists must still exist, or its span would silently read 0."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.installed(tracing.Tracer()) as missing:
        pass
    assert missing == []
    assert len(tracing.TARGETS) > 0
