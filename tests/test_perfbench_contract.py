"""The benchmark in ``perfbench/`` is a client of the library: it traces
named functions and methods and calls set-up, solve and per-operation code
through the public modules.  A change that deletes or renames anything the
benchmark uses fails here, on a tiny workload, rather than in a benchmark
run."""
import importlib
import math
from pathlib import Path

from polystress.krylov import SolverConfig
from polystress.mesh import _loop_edges
from polystress.problems import trig_solution

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_uses_only_existing_api(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")

    tracer = workloads.Tracer()
    tracer.install(workloads.TRACE_TARGETS)
    try:
        assert tracer.absent == []
    finally:
        tracer.restore()

    w = workloads.Workload("tiny", 4, 8, "1e-6", setups=1, rhs=1, op=None)
    cfg = workloads.make_config(w, 1)
    run = workloads.Run(w, cfg, 1, SolverConfig(tol=workloads.TOL, maxit=workloads.MAXIT),
                        trig_solution(float(cfg["discretization"]["mu"])))
    # set-up and solves traced as in a traced benchmark run
    tracer.install(workloads.TRACE_TARGETS)
    try:
        with tracer.span("phase.setup"):
            ops = workloads.set_up(cfg, w.dt)
        with tracer.span("phase.rhs"):
            for solver in workloads.RHS_SOLVERS:
                workloads.solve_rhs(run, ops, solver, 0)
    finally:
        tracer.restore()
    metrics = workloads.microtimings(ops, run)
    assert run.errors == [] and run.attempted == len(workloads.RHS_SOLVERS)
    assert all(math.isfinite(v) and v > 0 for v, _ in metrics.values()), metrics

    layers = workloads.layer_metrics(tracer, ops)
    mesh = ops.space.mesh
    edges = {frozenset(edge) for loop in mesh.elements for edge in _loop_edges(loop.tolist())}
    assert layers["mesh.faces"] == (len(edges), "count")
    assert layers["mesh.elements"] == (w.elements, "count")
    assert all(f"krylov.iters.{solver}" in layers for solver in workloads.RHS_SOLVERS)
