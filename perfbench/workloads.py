"""The three benchmark workloads of polystress and their metrics.

Every workload runs the same skeleton on its own mesh and time step:

1. set-up, repeated ``setups`` times: config -> mesh -> DG space -> M, A ->
   A* = M + dt A -> deflator and both Block-Jacobi preconditioners;
2. right-hand-side solves: fresh seeded right-hand sides, each solved from
   zero by deflated CG and collective Block-Jacobi PCG to ``TOL``;
3. the workload's own operation, repeated until ``seconds`` have passed:
   the paper's two tables through the bench layer (tables-100) or implicit
   Euler steps of a manufactured solution (euler-100).  On scale-900 the
   right-hand-side solves are the operation.

The benchmark is a client of the library: it calls only public functions
of ``mesh``, ``dg_space``, ``assembly``, ``krylov``, ``timestepper`` and
``bench`` and times each call from outside.  End-to-end metrics come from
untraced runs, and their timings are in units of a reference kernel timed
around each sample (``Reference``); ``trace=True`` wraps those functions
with spans (tracer.py), times them plainly and reports per-layer metrics
instead.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse

from polystress import assembly, bench, dg_space, krylov, problems, timestepper
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent

TOL = 1e-8
MAXIT = 60000
DEGREE = 3
MESH_SEED = 1            # the paper's agglomeration seed, fixed for every workload seed
COND_DTS = "1e-8,1e-9,1e-10"
EULER_STEPS = 20
# pcg monitors the preconditioned residual; pcg-cbj lands at 4-6e-8 true
# relative residual for tol = 1e-8, so 10 * tol is the fixed ceiling
TRUE_RES_FACTOR = 10.0
# trig solution, 100 elements, p = 3, 20 steps of dt = 1e-6: 8.2e-3
ENERGY_ERR_MAX = 2e-2
# criterion 3: raw kappa grows 8-12x per decade of dt, the cbj kappa spreads <= 5%
KAPPA_GROWTH = (8.0, 12.0)
CBJ_SPREAD = 0.05
RHS_SOLVERS = ("dcg", "pcg-cbj")
STRESS_COMPONENTS = 4    # DG unknowns per scalar basis function


@dataclass(frozen=True)
class Workload:
    name: str
    nx: int          # Cartesian cells per side before agglomeration
    elements: int    # agglomeration target
    dts: str         # [solve] dts; the first one is the set-up and solve dt
    setups: int      # set-ups per run, setup_s is their median
    rhs: int         # minimum number of right-hand sides per solver
    op: str | None   # "tables", "euler", or None when the solves are the operation

    @property
    def dt(self) -> float:
        return float(self.dts.split(",")[0])

    @property
    def dofs(self) -> int:
        """Size of A*, known before set-up: 4,000 at 100 elements, 36,000 at 900."""
        return STRESS_COMPONENTS * self.elements * (DEGREE + 1) * (DEGREE + 2) // 2


WORKLOADS = {w.name: w for w in (
    Workload("tables-100", 20, 100, "1e-7,1e-8", setups=3, rhs=10, op="tables"),
    Workload("scale-900", 60, 900, "1e-7", setups=2, rhs=1, op=None),
    Workload("euler-100", 20, 100, "1e-6", setups=3, rhs=10, op="euler"),
)}

# (module, attribute, span name, per-call label) wrapped by the traced run
_layout = lambda args, kw: kw.get("layout", args[2] if len(args) > 2 else krylov.LAYOUT_COLLECTIVE)
_pcg_label = lambda args, kw: getattr(kw.get("preconditioner", args[2] if len(args) > 2 else None),
                                      "layout", "custom")
_cond_label = lambda args, kw: "raw" if kw.get("preconditioner") is None else "cbj"
TRACE_TARGETS = [
    ("polystress.mesh", "build_cartesian_mesh", "mesh.build_cartesian_mesh", None),
    ("polystress.mesh", "classify_boundary", "mesh.classify_boundary", None),
    ("polystress.mesh", "agglomerate", "mesh.agglomerate", None),
    ("polystress.dg_space", "build_space", "dg_space.build_space", None),
    ("polystress.dg_space", "l2_project", "dg_space.l2_project", None),
    ("polystress.assembly", "assemble_mass", "assembly.assemble_mass", None),
    ("polystress.assembly", "assemble_stiffness", "assembly.assemble_stiffness", None),
    ("polystress.assembly", "assemble_system", "assembly.assemble_system", None),
    ("polystress.assembly", "build_system", "assembly.build_system", None),
    ("polystress.assembly", "assemble_rhs", "assembly.assemble_rhs", None),
    ("polystress.krylov", "build_deflator", "krylov.build_deflator", None),
    ("polystress.krylov", "build_block_jacobi", "krylov.build_block_jacobi", _layout),
    ("polystress.krylov", "cg", "krylov.cg", None),
    ("polystress.krylov", "pcg", "krylov.pcg", _pcg_label),
    ("polystress.krylov", "deflated_cg", "krylov.deflated_cg", None),
    ("polystress.krylov", "estimate_condition_number", "krylov.estimate_condition_number",
     _cond_label),
    ("polystress.krylov", "BlockJacobi.apply", "krylov.BlockJacobi.apply", None),
    ("polystress.krylov", "Deflator.projection_correction", "krylov.Deflator.projection_correction",
     None),
    ("polystress.timestepper", "implicit_euler_run", "timestepper.implicit_euler_run", None),
    ("polystress.timestepper", "EnergyNorm.error", "timestepper.EnergyNorm.error", None),
    ("polystress.bench", "build_meshes", "bench.build_meshes", None),
    ("polystress.bench", "run_iteration_table", "bench.run_iteration_table", None),
    ("polystress.bench", "run_condition_table", "bench.run_condition_table", None),
]
SOLVER_SPANS = {"dcg": "krylov.deflated_cg", "pcg-cbj": "krylov.pcg[collective]",
                "pcg-bj": "krylov.pcg[component]", "cg": "krylov.cg"}
SOLVER_TARGETS = [t for t in TRACE_TARGETS if t[2] in ("krylov.cg", "krylov.pcg", "krylov.deflated_cg")]

now = time.perf_counter


def make_config(w: Workload, seed: int) -> dict:
    """The workload as a polystress config; the seed keys the right-hand
    sides and the Lanczos start vector, never the mesh."""
    dt = w.dts.split(",")[0]
    return bench.load_config(None, {
        ("mesh", "nx"): w.nx, ("mesh", "ny"): w.nx, ("mesh", "targets"): w.elements,
        ("mesh", "seed"): MESH_SEED, ("discretization", "degree"): DEGREE,
        ("solve", "dts"): w.dts, ("solve", "tol"): TOL, ("solve", "maxit"): MAXIT,
        ("solve", "repetitions"): 1, ("solve", "seed"): seed,
        ("condition", "dts"): COND_DTS, ("condition", "seed"): seed,
        ("time", "dt"): dt, ("time", "t_final"): repr(EULER_STEPS * w.dt),
        ("time", "solver"): "pcg-cbj", ("time", "mms"): "trig",
    })


@dataclass
class Operators:
    space: object
    system: object
    astar: object
    deflator: object
    bj: object
    cbj: object


def set_up(cfg, dt: float) -> Operators:
    """Config -> factorised operators, through the public functions only."""
    (_, mesh), = bench.build_meshes(cfg)
    disc = cfg["discretization"]
    space = dg_space.build_space(mesh, int(disc["degree"]))
    system = assembly.assemble_system(space, float(disc["mu"]), float(disc["alpha"]))
    astar = assembly.build_system(system.m, system.a, dt)
    return Operators(space, system, astar,
                     deflator=krylov.build_deflator(system, dt, astar=astar),
                     bj=krylov.build_block_jacobi(astar, space, krylov.LAYOUT_COMPONENT),
                     cbj=krylov.build_block_jacobi(astar, space, krylov.LAYOUT_COLLECTIVE))


def rhs_vector(seed: int, k: int, n: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))
    return gen.uniform(0.0, 1.0, n)


class Reference:
    """Fixed work that gauges the host's speed while samples are timed: SpMV
    with a banded matrix of the workload's size and a pure-Python loop,
    built from numpy and scipy alone so that no change to polystress
    alters it.

    On a shared 2-core KVM guest (Xeon, Sapphire Rapids) the CPU changes
    speed by up to about 1.8x for seconds to minutes at a time, which moves
    raw timings between runs far beyond any useful bound.  A sample divided
    by the reference time measured before, during and after it cancels that
    to first order.
    """

    HALF_BAND = 30    # 61 diagonals, close to nnz(A*) / n at p = 3
    LOOP = 60000
    PERIOD_S = 0.5    # between probes inside a sample, about 2% of its time
    # seconds of one probe on the host above in a quiet spell (15-17 ms at
    # either size); setup_s is reported as set-up time on a host whose
    # probe takes exactly this long
    NOMINAL_S = 0.015

    def __init__(self, n: int):
        rng = np.random.default_rng(0)
        offsets = range(-self.HALF_BAND, self.HALF_BAND + 1)
        self.matrix = scipy.sparse.diags([rng.random(n - abs(k)) for k in offsets],
                                         list(offsets), format="csr")
        self.x = rng.random(n)
        self.spmvs = max(2, 120000 // n)   # a probe of about 10 ms at either size

    def seconds(self) -> float:
        t0 = now()
        for _ in range(self.spmvs):
            y = self.matrix @ self.x
            float(y @ y)
        acc = 0
        for i in range(self.LOOP):
            acc += i * i
        return now() - t0

    @contextmanager
    def gauge(self, out: dict):
        """Time the block with probes before, after and every PERIOD_S
        during it (from SIGALRM, so they run between the block's bytecodes).
        Sets out["seconds"], the block's time less the probes inside it, and
        out["ref"], that time over the mean probe."""
        probes = [self.seconds()]
        inside = []
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: inside.append(self.seconds()))
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        start = now()
        try:
            yield
        finally:
            elapsed = now() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        probes += inside
        probes.append(self.seconds())
        out["seconds"] = elapsed - sum(inside)
        out["ref"] = out["seconds"] / statistics.mean(probes)


@dataclass
class Run:
    """Accumulated timings, counts and failed checks of one workload run."""

    workload: Workload
    cfg: dict
    seed: int
    solver_config: krylov.SolverConfig
    mms: problems.ManufacturedSolution   # the euler-100 solution, also feeds assemble_rhs timings
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    times: dict = field(default_factory=dict)
    true_res: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    reference: Reference | None = None   # None in traced runs

    def record(self, name: str, seconds: float) -> None:
        self.times.setdefault(name, []).append(seconds)

    @contextmanager
    def sample(self, raw: str, ref: str, per: int = 1):
        """Time the block; record seconds (divided by ``per``) under ``raw``
        and, when there is a reference, the same in reference units under
        ``ref``."""
        if self.reference is None:
            t0 = now()
            yield
            self.record(raw, (now() - t0) / per)
            return
        out = {}
        with self.reference.gauge(out):
            yield
        self.record(raw, out["seconds"] / per)
        self.record(ref, out["ref"] / per)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        self.check(failed == 0, f"{failed} of {attempted} {what} did not converge")


def solve_rhs(run: Run, ops: Operators, solver: str, k: int) -> float:
    """Solve the k-th seeded right-hand side from zero; returns seconds."""
    b = rhs_vector(run.seed, k, ops.astar.shape[0])
    with run.sample(f"rhs_s.{solver}", f"rhs_ref.{solver}"):
        if solver == "dcg":
            _, report = krylov.deflated_cg(ops.astar, b, ops.deflator, run.solver_config)
        else:
            _, report = krylov.pcg(ops.astar, b, ops.cbj, run.solver_config)
    run.count(1, int(not report.converged), f"{solver} solves")
    run.true_res.append(report.true_residual)
    return run.times[f"rhs_s.{solver}"][-1]


def solve_all_rhs(run: Run, ops: Operators, budget: float) -> None:
    """At least ``rhs`` right-hand sides per solver, and more until the
    solver has spent ``budget`` seconds."""
    for solver in RHS_SOLVERS:
        spent, k = 0.0, 0
        while k < run.workload.rhs or spent < budget:
            spent += solve_rhs(run, ops, solver, k)
            k += 1


@contextmanager
def library_solves(run: Run):
    """Add the true residual of every solve the library makes inside the
    block to ``run.true_res``."""
    collector = Tracer()
    collector.install(SOLVER_TARGETS)
    try:
        yield
    finally:
        collector.restore()
    run.true_res.extend(s.counts["true_residual"] for s in collector.spans
                        if "true_residual" in s.counts)


def op_tables(run: Run, ops: Operators) -> None:
    """The paper's iteration table and condition table, as `polystress
    iter-table` and `polystress cond-table` compute them."""
    with library_solves(run), run.sample("op_s", "op_ref"):
        t0 = now()
        tables = bench.run_iteration_table(run.cfg)
        t1 = now()
        cond = bench.run_condition_table(run.cfg)
        t2 = now()
    run.record("table_s", t1 - t0)
    run.record("cond_s", t2 - t1)

    csv = "".join(t.to_csv() for t in tables.values())
    run.info["iter_table_sha256"] = hashlib.sha256(csv.encode()).hexdigest()
    run.info["iter_table"] = {s: t.values[:, 0].tolist() for s, t in tables.items()}
    run.count(sum(t.values.size for t in tables.values()) * int(run.cfg["solve"]["repetitions"]),
              int(sum(t.flags.sum() for t in tables.values())), "iter-table solves")
    run.count(sum(t.values.size for t in cond.values()),
              int(sum(t.flags.sum() for t in cond.values())), "condition estimates")

    raw, cbj = cond["raw"].values[:, 0], cond["cbj"].values[:, 0]
    growth = raw[1:] / raw[:-1]
    spread = (cbj.max() - cbj.min()) / cbj.min()
    lo, hi = KAPPA_GROWTH
    run.check(bool(np.all((growth >= lo) & (growth <= hi))),
              f"raw kappa growth per decade {growth.tolist()} outside [{lo}, {hi}]")
    run.check(spread <= CBJ_SPREAD, f"cbj kappa spread {spread:.3f} > {CBJ_SPREAD}")
    run.info["kappa_raw"], run.info["kappa_cbj"] = raw.tolist(), cbj.tolist()


def op_euler(run: Run, ops: Operators) -> None:
    """Implicit Euler with the trig solution, warm-started pcg-cbj, then (on
    the first repetition) the energy-norm error at the final time."""
    mms = run.mms
    tcfg = timestepper.TimeConfig.from_steps(EULER_STEPS, float(run.cfg["time"]["dt"]))
    alpha = float(run.cfg["discretization"]["alpha"])
    try:
        with run.sample("op_s", "op_ref", per=tcfg.n_steps):
            sigma, reports = timestepper.implicit_euler_run(
                ops.space, mms.data, tcfg, "pcg-cbj", run.solver_config, alpha, system=ops.system)
    except timestepper.TimeStepError as exc:
        run.count(exc.step + 1, 1, "time steps")
        raise
    run.count(len(reports), 0, "time steps")
    run.true_res.extend(r.true_residual for r in reports)
    run.info["iters_per_step"] = [r.iterations for r in reports]

    if "energy_err" in run.info:
        return  # every repetition marches the same steps; check the error once
    t0 = now()
    err = timestepper.EnergyNorm(ops.space, alpha).error(sigma, mms, tcfg.t_final)
    run.record("energy_s", now() - t0)
    run.info["energy_err"] = err
    run.check(err <= ENERGY_ERR_MAX, f"energy_err {err:.3e} > {ENERGY_ERR_MAX}")


OPS = {"tables": op_tables, "euler": op_euler}


def measure(run: Run, ops: Operators, seconds: float) -> None:
    """Right-hand-side solves, then the operation loop for ``seconds``.  On
    scale-900 the solves are the operation and share ``seconds``."""
    w = run.workload
    if w.op is None:
        solve_all_rhs(run, ops, seconds / len(RHS_SOLVERS))
        for kind in ("s", "ref"):
            run.times[f"op_{kind}"] = [sum(statistics.median(run.times[f"rhs_{kind}.{solver}"])
                                           for solver in RHS_SOLVERS)]
        return
    solve_all_rhs(run, ops, 0.0)
    start = now()
    while True:
        OPS[w.op](run, ops)
        if now() - start >= seconds:
            break


def traced_unit(run: Run, ops: Operators, tracer: Tracer | None) -> float:
    """The minimum right-hand-side solves and one operation, under phase
    spans when traced; returns wall seconds."""
    run.info.pop("energy_err", None)  # so that both units evaluate the energy error
    t0 = now()
    with tracer.span("phase.rhs") if tracer else nullcontext():
        solve_all_rhs(run, ops, 0.0)
    if run.workload.op is not None:
        with tracer.span("phase.op") if tracer else nullcontext():
            OPS[run.workload.op](run, ops)
    return now() - t0


def finish_checks(run: Run) -> None:
    if run.true_res:
        worst = max(run.true_res)
        run.check(worst <= TRUE_RES_FACTOR * TOL,
                  f"true_res_max {worst:.3e} > {TRUE_RES_FACTOR} * tol")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def git_commit() -> str | None:
    """HEAD of the enclosing git checkout, read without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(cfg, seed: int) -> dict:
    return {
        "config_hash": bench.config_hash(cfg),
        "seed": seed,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# -- per-layer (traced) metrics ------------------------------------------------

def per_call(fn, min_calls: int = 5, min_seconds: float = 0.2) -> float:
    """Median seconds of one call, over at least min_calls calls and
    min_seconds of calls."""
    times = []
    start = now()
    while len(times) < min_calls or now() - start < min_seconds:
        t0 = now()
        fn()
        times.append(now() - t0)
    return statistics.median(times)


def microtimings(ops: Operators, run: Run) -> dict:
    """Per-operation costs on the workload's own operators, untraced.  SpMV is
    timed as A* @ x and bytes moved are computed from the CSR arrays."""
    n = ops.astar.shape[0]
    x = rhs_vector(run.seed, 1 << 20, n)
    coarse = x[: ops.deflator.coarse_matrix.shape[0]]
    spmv = per_call(lambda: ops.astar @ x, min_calls=20)
    csr_bytes = ops.astar.data.nbytes + ops.astar.indices.nbytes + ops.astar.indptr.nbytes
    dt = run.workload.dt
    mms = run.mms
    return {
        "krylov.spmv_us": (spmv * 1e6, "us"),
        "krylov.spmv_gbs": ((csr_bytes + 2 * x.nbytes) / spmv / 1e9, "GB/s"),
        "krylov.bj_apply_us": (per_call(lambda: ops.bj.apply(x), min_calls=20) * 1e6, "us"),
        "krylov.cbj_apply_us": (per_call(lambda: ops.cbj.apply(x), min_calls=20) * 1e6, "us"),
        "krylov.coarse_solve_us": (per_call(lambda: ops.deflator.coarse_solve(coarse),
                                            min_calls=20) * 1e6, "us"),
        "krylov.projection_us": (per_call(lambda: ops.deflator.projection_correction(x),
                                          min_calls=20) * 1e6, "us"),
        "assembly.rhs_s": (per_call(lambda: assembly.assemble_rhs(
            ops.space, mms.data, dt, x, dt, ops.system), min_calls=3), "s"),
        "assembly.project_s": (per_call(lambda: dg_space.l2_project(
            ops.space, mms.data.sigma0), min_calls=3), "s"),
    }


def layer_metrics(tracer: Tracer, ops: Operators) -> dict:
    setup = tracer.summary(tracer.descendants(tracer.root("phase.setup")))
    rhs = tracer.summary(tracer.descendants(tracer.root("phase.rhs")))
    total = lambda summary, *names: sum(summary.get(nm, {}).get("total_s", 0.0) for nm in names)
    out = {
        "mesh.build_s": (total(setup, "mesh.build_cartesian_mesh", "mesh.classify_boundary"), "s"),
        "mesh.agglomerate_s": (total(setup, "mesh.agglomerate"), "s"),
        "mesh.elements": (ops.space.mesh.n_elements, "count"),
        "mesh.faces": (len(ops.space.mesh.faces), "count"),
        "dg_space.build_s": (total(setup, "dg_space.build_space"), "s"),
        "dg_space.dofs": (ops.space.total_dofs, "count"),
        "assembly.mass_s": (total(setup, "assembly.assemble_mass"), "s"),
        "assembly.stiffness_s": (total(setup, "assembly.assemble_stiffness"), "s"),
        "assembly.system_s": (total(setup, "assembly.build_system"), "s"),
        "assembly.nnz": (ops.astar.nnz, "count"),
        "krylov.deflator_s": (total(setup, "krylov.build_deflator"), "s"),
        "krylov.bj_s.component": (total(setup, "krylov.build_block_jacobi[component]"), "s"),
        "krylov.bj_s.collective": (total(setup, "krylov.build_block_jacobi[collective]"), "s"),
    }
    for solver in RHS_SOLVERS:
        s = rhs.get(SOLVER_SPANS[solver])
        if s is None:
            continue
        out[f"krylov.iters.{solver}"] = (s["iterations"] / s["calls"], "count")
        out[f"krylov.us_per_iter.{solver}"] = (s["total_s"] / s["iterations"] * 1e6, "us")
        out[f"krylov.true_res.{solver}"] = (s["true_residual"], "1")
        out[f"krylov.solve_s.{solver}"] = (s["median_s"], "s")
    return out


def workload_layer_detail(tracer: Tracer) -> dict:
    """Layer figures that only some workloads exercise: reported in the
    trace line, not in the per-layer metric set shared by all workloads."""
    op = tracer.summary(tracer.descendants(tracer.root("phase.op"))) \
        if any(s.name == "phase.op" for s in tracer.spans) else {}
    detail = {}
    for solver, span in SOLVER_SPANS.items():
        s = op.get(span)
        if s and s.get("iterations"):
            detail[f"krylov.iters.{solver}"] = s["iterations"] / s["calls"]
            detail[f"krylov.us_per_iter.{solver}"] = s["total_s"] / s["iterations"] * 1e6
            detail[f"krylov.solve_s.{solver}"] = s["median_s"]
            if "true_residual" in s:
                detail[f"krylov.true_res.{solver}"] = s["true_residual"]
    for kind in ("raw", "cbj"):
        s = op.get(f"krylov.estimate_condition_number[{kind}]")
        if s:
            detail[f"krylov.lanczos_s.{kind}"] = s["total_s"]
            detail[f"krylov.lanczos_iters.{kind}"] = s["iterations"]
    if "bench.run_iteration_table" in op:
        detail["bench.self_s"] = op["bench.run_iteration_table"]["self_s"]
    euler = op.get("timestepper.implicit_euler_run")
    if euler:
        steps = euler["steps"]
        idx = next(i for i, s in enumerate(tracer.spans) if s.name == "timestepper.implicit_euler_run")
        inner = tracer.summary(tracer.descendants(idx))
        solve_s = sum(inner.get(span, {}).get("total_s", 0.0) for span in SOLVER_SPANS.values())
        detail["timestepper.solve_s"] = solve_s / steps
        detail["timestepper.rhs_s"] = inner.get("assembly.assemble_rhs", {}).get("total_s", 0.0) / steps
        detail["timestepper.iters_per_step"] = euler["iterations"] / steps
        detail["timestepper.energy_s"] = op.get("timestepper.EnergyNorm.error", {}).get("total_s")
    return detail


# -- entry point ---------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool):
    w = WORKLOADS[name]
    cfg = make_config(w, seed)
    run = Run(w, cfg, seed, krylov.SolverConfig(tol=TOL, maxit=MAXIT),
              problems.trig_solution(float(cfg["discretization"]["mu"])))
    metrics: dict[str, tuple[float, str]] = {}
    try:
        if not trace:
            run.reference = Reference(w.dofs)
            for _ in range(w.setups):
                ops = None  # release the previous set-up before building the next
                with run.sample("setup_raw_s", "setup_ref"):
                    ops = set_up(cfg, w.dt)
            measure(run, ops, seconds)
            finish_checks(run)
            median = lambda key: statistics.median(run.times[key])
            metrics = {
                "setup_s": (median("setup_ref") * Reference.NOMINAL_S, "s"),
                "op_ref": (median("op_ref"), "ref"),
                "rhs_ref.dcg": (median("rhs_ref.dcg"), "ref"),
                "rhs_ref.pcg-cbj": (median("rhs_ref.pcg-cbj"), "ref"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
                "true_res_max": (max(run.true_res), "1"),
            }
        else:
            tracer = Tracer()
            tracer.install(TRACE_TARGETS)
            with tracer.span("phase.setup"):
                ops = set_up(cfg, w.dt)
            tracer.restore()
            metrics.update(microtimings(ops, run))
            untraced = traced_unit(run, ops, None)
            tracer.install(TRACE_TARGETS)
            traced = traced_unit(run, ops, tracer)
            tracer.restore()
            finish_checks(run)
            metrics.update(layer_metrics(tracer, ops))
            metrics["trace_overhead"] = (traced / untraced, "1")
            run.info["absent"] = tracer.absent
            run.info["layers"] = workload_layer_detail(tracer)
            run.info["spans"] = tracer.summary(tracer.spans)
    except Exception:  # the run must report, not crash, when the library fails
        run.attempted += 1
        run.failed += 1
        run.errors.append(traceback.format_exc())
    return run, metrics


def report_lines(run: Run, metrics: dict, trace: bool) -> list[str]:
    w = run.workload
    lines = [f"# polystress benchmark: workload {w.name} seed {run.seed} "
             f"trace {int(trace)}",
             "env " + json.dumps(environment(run.cfg, run.seed))]
    shown = dict(metrics)
    for key in ("setup_raw_s", "op_s", "rhs_s.dcg", "rhs_s.pcg-cbj", "table_s", "cond_s",
                "energy_s"):
        if key in run.times:
            shown.setdefault(key, (statistics.median(run.times[key]), "s"))
    if "energy_err" in run.info:
        shown["energy_err"] = (run.info["energy_err"], "1")
    shown["fail_frac"] = (run.failed / max(run.attempted, 1), "1")
    for key, (value, unit) in shown.items():
        lines.append(f"{key:28s} {value:14.6g} {unit}")
    info = {k: v for k, v in run.info.items() if k != "spans"}
    info["samples"] = run.times
    lines.append("info " + json.dumps(info, default=float))
    if "spans" in run.info:
        lines.append(f"{'span':48s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s}")
        for name, s in run.info["spans"].items():
            lines.append(f"{name:48s} {s['calls']:7d} {s['total_s']:10.4f} {s['self_s']:10.4f}")
    for err in run.errors:
        lines.append("CHECK FAILED: " + err.rstrip())
    return lines


def main(name: str, seed: int, seconds: float, trace: bool) -> int:
    run, metrics = run_workload(name, seed, seconds, trace)
    correct = not run.errors and all(math.isfinite(v) for v, _ in metrics.values())
    for line in report_lines(run, metrics, trace):
        print(line)
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1
