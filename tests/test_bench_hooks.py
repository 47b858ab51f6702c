"""The benchmark can still bind every function it wraps and accept every report.

``bench/run.py --trace 1`` wraps named functions of every layer; a
function that is renamed or removed makes ``install`` fail, and this
test turns that into a suite failure instead of a broken traced run.
The benchmark's per-op check reads the report's fields, so a format
change that it no longer accepts fails here, not as failed ops.
"""

from pathlib import Path

import pytest

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


@pytest.mark.parametrize("op_args", [(), ("nonfg", 80)], ids=["certify_default", "nonfg_deep"])
def test_benchmark_accepts_the_reports_of_its_ops(monkeypatch, op_args):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    op = workloads.Op(*op_args)
    _, report, _ = workloads.execute(pipeline, op)
    assert workloads.check(op, report) is None
