"""Every call the benchmark makes into the package still runs and matches.

``perfbench/workloads.py`` looks each layer it times up by module and name,
reads attributes off what it returns, and checks every pair against the
stored reports in ``perfbench/reference/``.  A package change that breaks
one of those calls makes every benchmark pass fail, so one pass of each
workload runs here, once untraced and once through the tracer, and the
benchmark's own check that each span wraps the function it names.  Nothing is
written, bytecode caches included: the passes keep their results and spans
in memory.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", ["verify-small", "verify-m7", "dual-m7"])
def test_benchmark_pass_reports_no_problem(monkeypatch, workload, traced):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    result = workloads.Pass(workload, 1, 0, tracing.Tracer() if traced else None).run()
    assert len(result["pairs"]) == len(workloads.WORKLOADS[workload].keys())
    assert [(key, problem) for key, _, problem in result["pairs"] if problem] == []


def test_span_targets(monkeypatch):
    """Each span the benchmark opens wraps the package function it names."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest

    selftest.test_span_targets()
