"""Names and figures the benchmark harness in ``hermbench/`` relies on.

The harness wraps package functions by name and checks each operation's
output; a rename, a less accurate solve or a wrong result breaks it, so
all three are guarded here.  The harness modules are loaded by file path,
unchanged.
"""

import importlib.util
from pathlib import Path

import pytest

HERMBENCH = Path(__file__).resolve().parents[1] / "hermbench"


def load_harness_module(name):
    spec = importlib.util.spec_from_file_location(f"hermbench_{name}", HERMBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracing = load_harness_module("tracing")
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, *_ in tracing.TARGETS
        if not hasattr(owner, attr)
    ]
    assert not missing
    # installing wraps every target and uninstalling restores the originals
    originals = [getattr(owner, attr) for owner, attr, *_ in tracing.TARGETS]
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert all(
        getattr(owner, attr) is fn
        for (owner, attr, *_), fn in zip(tracing.TARGETS, originals)
    )


def test_scaled_stationarity_within_harness_tolerance(solve_cache):
    workloads = load_harness_module("workloads")
    result = solve_cache(64)
    _, scaled = workloads.scaled_stationarity(
        result.qp, result.qp_solution.x, result.qp_solution.multipliers
    )
    assert scaled <= workloads.KKT_SCALED_TOL


WORKLOADS = load_harness_module("workloads")


@pytest.mark.parametrize("name", sorted(WORKLOADS.make_workloads(quick=True)))
def test_quick_workload_passes_its_check(name, tmp_path):
    # the harness's own per-operation check: exact contact set, scaled
    # stationarity, CLI exit codes and the reference-table deviation
    workload = WORKLOADS.make_workloads(quick=True)[name]
    ctx = WORKLOADS.Context(tmp_path, *WORKLOADS.load_reference(HERMBENCH.parent))
    problem = workload.build(7)
    failures, info = workload.check(problem, workload.op(problem, ctx), ctx)
    assert not failures
    assert info
