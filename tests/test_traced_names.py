"""The benchmark's traced run wraps package names by where callers look
them up; a refactor that moves or renames one would silently drop that
layer from the trace.  This checks every traced name still exists."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == set()
