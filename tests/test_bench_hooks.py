"""The traced benchmark can still bind every function it wraps.

``bench/run.py --trace 1`` wraps named functions of every layer; a
function that is renamed or removed makes ``install`` fail, and this
test turns that into a suite failure instead of a broken traced run.
"""

from pathlib import Path

from autcert import pipeline

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_trace_hooks_install_and_unpatch(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import spans

    stage_funcs = dict(pipeline._STAGE_FUNCS)
    tracer = spans.Tracer()
    try:
        run.install(tracer, pipeline)
        assert pipeline._STAGE_FUNCS["dynamics"] is not stage_funcs["dynamics"]
    finally:
        tracer.unpatch()
    assert pipeline._STAGE_FUNCS == stage_funcs
