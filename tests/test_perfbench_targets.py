"""The per-layer tracer in ``perfbench/`` finds every function and memo table
it names; a rename here would otherwise make every traced benchmark run
count failures."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_target():
    import krchar.cli  # noqa: F401  (``import krchar`` does not load it; the worker imports it first)

    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == []
    finally:
        t.uninstall()
