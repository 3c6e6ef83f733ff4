"""The benchmark in ``perfbench/`` is a client of the library: it traces
named functions and methods and calls set-up, solve and per-operation code
through the public modules.  A change that deletes or renames anything the
benchmark uses fails here, on a tiny workload, rather than in a benchmark
run."""
import importlib
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from assembly_oracle import _loop_edges
from polystress import krylov
from polystress.assembly import assemble_system, build_system
from polystress.dg_space import build_space
from polystress.krylov import SolverConfig
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


def test_perfbench_solves_unchanged_by_split(monkeypatch):
    """Only scale-900 reaches the split CSR products.  The tiny workload's
    set-up and right-hand-side solves, run serial and then with every CSR
    product split, give the same iteration counts and true residuals.  The
    operators are built under the split too: ``Deflator._avt`` is chosen
    when the deflator is built."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    w = workloads.Workload("tiny", 4, 8, "1e-6", setups=1, rhs=1, op=None)
    cfg = workloads.make_config(w, 1)

    def set_up_and_solve():
        run = workloads.Run(w, cfg, 1, SolverConfig(tol=workloads.TOL, maxit=workloads.MAXIT),
                            trig_solution(float(cfg["discretization"]["mu"])))
        tracer = workloads.Tracer()
        tracer.install(workloads.SOLVER_TARGETS)
        try:
            ops = workloads.set_up(cfg, w.dt)
            for solver in workloads.RHS_SOLVERS:
                workloads.solve_rhs(run, ops, solver, 0)
        finally:
            tracer.restore()
        assert run.errors == [] and run.attempted == len(workloads.RHS_SOLVERS)
        return ops, [(span.name, span.counts) for span in tracer.spans]

    _, serial = set_up_and_solve()
    prefix = "perfbench-split_"
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix=prefix)
    monkeypatch.setattr(krylov, "_pool", pool)
    monkeypatch.setattr(krylov, "SPLIT_NNZ", 0)
    monkeypatch.setattr(krylov.os, "sched_getaffinity", lambda pid: {0, 1})
    try:
        ops, split = set_up_and_solve()
        assert any(t.name.startswith(prefix) for t in threading.enumerate())
    finally:
        pool.shutdown(wait=True)
    assert ops.deflator._avt.__qualname__.startswith("_split_apply.")
    assert len(split) == len(workloads.RHS_SOLVERS)
    assert split == serial   # span names, iterations, failures, true residuals


def test_named_solvers_reach_the_traced_functions(monkeypatch, mesh22):
    """perfbench traces the solves of the tables as spans of the module-level
    ``krylov.cg``, ``krylov.pcg`` and ``krylov.deflated_cg``, and reads
    tables-100 ``true_res_max`` from them.  Every solve of ``make_solver``
    must therefore look these names up when it runs, and hand them the
    ``Operators``' own factorisation: a solver that held a function object
    taken at import would drop its spans without an error."""
    space = build_space(mesh22, 1)
    system = assemble_system(space, 1.0, 10.0)
    ops = krylov.Operators(build_system(system.m, system.a, 1e-6), space)
    config = SolverConfig(tol=1e-8, maxit=100)
    calls = []
    for name in ("cg", "pcg", "deflated_cg"):
        monkeypatch.setattr(krylov, name,
                            lambda *args, name=name: calls.append((name, args)) or (None, None))
    b = np.ones(space.total_dofs)
    factorisation = {"cg": None, "dcg": ops.deflator,
                     "pcg-bj": ops.block_jacobi(krylov.LAYOUT_COMPONENT),
                     "pcg-cbj": ops.block_jacobi(krylov.LAYOUT_COLLECTIVE)}
    traced = {"cg": "cg", "dcg": "deflated_cg", "pcg-bj": "pcg", "pcg-cbj": "pcg"}
    for solver in krylov.SOLVERS:
        calls.clear()
        krylov.make_solver(solver, ops, config)(b)
        (name, args), = calls
        assert name == traced[solver], solver
        assert args[0] is ops.astar and args[1] is b and args[-2:] == (config, None), solver
        if factorisation[solver] is not None:
            assert args[2] is factorisation[solver], solver
