"""Configuration-driven benchmark harness: iteration tables, condition
tables, convergence studies and implicit Euler runs over families of
polygonal meshes.

Every value is checked when the configuration is loaded, before any mesh
is built.  Right-hand sides are drawn entrywise uniform on [0, 1] from a
counter-based (Philox) generator keyed by (seed, mesh, dt, repetition), so
tables are bit-reproducible for a fixed config and seed and identical
systems are put to every solver.  The raw draw keeps full spectral content
in the right-hand side; filtering it through the singular mass operator
would remove exactly the directions whose dt-dependence the tables measure.

The solves of an iteration table and the estimates of a condition table
run on a thread pool as wide as the process's CPU affinity
(``os.sched_getaffinity``), inline when that is one CPU, so that no thread
starts.  scipy's CSR kernel, about 82% of a CG iteration at 100 elements,
releases the GIL.  A (mesh, dt) cell is one ``krylov.Operators``, shared by
its solvers and estimates: the calling thread builds one cell per thread,
and its factorisations, in sweep order, and releases them before it builds
the next.  From 200 elements the concurrent solves share krylov's one
split-product thread (three threads on two CPUs).  Each solve and estimate
is bitwise the serial one, so the tables do not depend on the CPU count.  A
condition cell holds A*, its collective Block-Jacobi and its deflator, not
an n x n LU of A* (about 35 MB of RSS at 100 elements), unless the raw
estimate's inner solves fail (``krylov.deflated_inverse``, large dt).
"""
from __future__ import annotations

import configparser
import hashlib
import io
import math
import os
import sys
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from pathlib import Path

import numpy as np

from .assembly import assemble_system, build_system, export_matrices
from .dg_space import build_space
from .krylov import (LAYOUT_COLLECTIVE, SOLVERS, Operators, SolverConfig,
                     deflated_inverse, estimate_condition_number, make_solver)
from .mesh import agglomerate, build_cartesian_mesh, classify_boundary, read_mesh
from .problems import NAMED_SOLUTIONS, linear_in_space_solution, zero_data
from .timestepper import EnergyNorm, TimeConfig, implicit_euler_run

class ConfigError(ValueError):
    pass


# Neumann side -> (axis, end) of the mesh bounding box; "none" keeps the
# whole boundary Dirichlet
NEUMANN_SIDES = {"none": None, "right": (0, 1.0), "left": (0, 0.0),
                 "top": (1, 1.0), "bottom": (1, 0.0)}


@dataclass(frozen=True)
class Number:
    """A config number kind: int or float, strictly between low and high
    (so NaN is out of range, and an int above 0 is one >= 1)."""

    type: type
    low: float = -math.inf
    high: float = math.inf


COUNT, POSITIVE, FRACTION = Number(int, 0), Number(float, 0.0), Number(float, 0.0, 1.0)
SEED = Number(int, -1, 2**64)
REPETITIONS = Number(int, 0, 2**20 + 1)  # ``_rhs_generator`` keys a repetition by 20 bits

# Every config key, declared once: (section, key) -> (default, kind).  A
# kind is str; a Number; a tuple of the allowed names (matched
# case-insensitively); SOLVERS for exactly one solver name; or [kind] for a
# comma- (or semicolon-) separated list, which may be empty only when its
# default is.
KEYS = {
    ("mesh", "file"): ("", str),
    ("mesh", "nx"): ("10", COUNT),
    ("mesh", "ny"): ("10", COUNT),
    ("mesh", "targets"): ("", [COUNT]),
    ("mesh", "seed"): ("1", SEED),
    ("mesh", "neumann"): ("right", tuple(NEUMANN_SIDES)),
    ("discretization", "degree"): ("3", COUNT),
    ("discretization", "alpha"): ("10.0", POSITIVE),
    ("discretization", "mu"): ("1.0", POSITIVE),
    ("solve", "dts"): ("1e-6,1e-7,1e-8", [POSITIVE]),
    ("solve", "solvers"): (",".join(SOLVERS), [SOLVERS]),
    ("solve", "tol"): ("1e-8", FRACTION),
    ("solve", "maxit"): ("30000", COUNT),
    ("solve", "repetitions"): ("10", REPETITIONS),
    ("solve", "seed"): ("0", SEED),
    ("condition", "dts"): ("1e-8,1e-9,1e-10", [POSITIVE]),
    ("condition", "tol"): ("1e-3", FRACTION),
    ("condition", "maxit"): ("800", COUNT),
    ("condition", "seed"): ("0", SEED),
    ("convergence", "mode"): ("spatial", ("spatial", "temporal")),
    ("convergence", "mms"): ("trig", tuple(NAMED_SOLUTIONS)),
    ("convergence", "degree"): ("2", COUNT),
    ("convergence", "levels"): ("2,4,8,16", [COUNT]),
    ("convergence", "dt"): ("1e-5", POSITIVE),
    ("convergence", "steps"): ("2", COUNT),
    ("convergence", "dts"): ("0.2,0.1,0.05,0.025", [POSITIVE]),
    ("convergence", "t_final"): ("0.4", POSITIVE),
    ("convergence", "nx"): ("4", COUNT),
    ("convergence", "solver"): ("cg", SOLVERS),
    ("time", "dt"): ("0.01", POSITIVE),
    ("time", "t_final"): ("0.1", POSITIVE),
    ("time", "solver"): ("dcg", SOLVERS),
    ("time", "mms"): ("trig", (*NAMED_SOLUTIONS, "zero")),
    ("output", "path"): ("out", str),
}


def load_config(path=None, overrides=None) -> dict[str, dict[str, str]]:
    """Resolved configuration: defaults, then the key=value sections of the
    file, then command-line overrides ((section, key) -> value), stored as
    strings.  Values are literal (no ``%`` interpolation).  Raises
    ConfigError naming the [section] key of the first bad value, or the
    file and line that configparser cannot read."""
    cfg = {}
    for (sec, key), (default, _) in KEYS.items():
        cfg.setdefault(sec, {})[key] = default
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(str(path))
        except configparser.Error as exc:
            why = {configparser.DuplicateOptionError: "repeated key",
                   configparser.DuplicateSectionError: "repeated section",
                   configparser.MissingSectionHeaderError: "key before any [section]",
                   }.get(type(exc), "not a [section] header or a key = value line")
            line = getattr(exc, "lineno", None) or exc.errors[0][0]
            raise ConfigError(f"{path}, line {line}: {why}") from None
        if not read:
            raise ConfigError(f"cannot read config file: {path}")
        for sec in parser.sections():
            if sec not in cfg:
                raise ConfigError(f"unknown config section [{sec}]")
            for key, text in parser.items(sec):
                if key not in cfg[sec]:
                    raise ConfigError(f"unknown config key {key!r} in [{sec}]")
                cfg[sec][key] = text
    for (sec, key), text in (overrides or {}).items():
        if text is not None:
            cfg[sec][key] = str(text)

    for sec, key in KEYS:
        value(cfg, sec, key)
    return cfg


def config_hash(cfg) -> str:
    """Hash of the experiment-relevant configuration (the output location
    does not change results and is excluded)."""
    lines = [f"{sec}.{key}={cfg[sec][key]}" for sec in sorted(cfg) if sec != "output"
             for key in sorted(cfg[sec])]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


def _parse(kind, text: str, sec: str, key: str):
    text = text.strip()
    if isinstance(kind, tuple):
        if text.lower() not in kind:
            raise ConfigError(f"unknown value {text!r} for [{sec}] {key}; "
                              f"choose from {', '.join(kind)}")
        return text.lower()
    if kind is str:
        return text
    try:
        number = kind.type(text)
    except ValueError:
        what = "an integer" if kind.type is int else "a number"
        raise ConfigError(f"[{sec}] {key}: {text!r} is not {what}") from None
    if not kind.low < number < kind.high:
        bound = f"in ({kind.low:g}, {kind.high:g})" if kind.type is float else (
            f">= {kind.low + 1}" + (f" and < {kind.high}" if kind.high < math.inf else ""))
        raise ConfigError(f"[{sec}] {key}: {text!r} is out of range, must be {bound}")
    return number


def parse(sec: str, key: str, text: str):
    """text as a value of [sec] key, of its kind in KEYS (allowed names
    lower-cased).  Raises ConfigError naming [sec] key when it does not
    parse or is out of range."""
    default, kind = KEYS[(sec, key)]
    if not isinstance(kind, list) and kind is not SOLVERS:
        return _parse(kind, text, sec, key)
    item = kind[0] if isinstance(kind, list) else kind
    items = [_parse(item, tok, sec, key)
             for tok in text.replace(";", ",").split(",") if tok.strip()]
    if not items and default:
        raise ConfigError(f"empty list in [{sec}] {key}")
    if item is SOLVERS:
        for i, name in enumerate(items):
            if name in items[:i]:
                raise ConfigError(f"solver {name!r} repeated in [{sec}] {key}")
    if kind is SOLVERS:
        if len(items) > 1:
            raise ConfigError(f"[{sec}] {key} takes one solver name, got {text!r}")
        return items[0]
    return items


def value(cfg, sec: str, key: str):
    """The [sec] key of cfg, parsed by ``parse``."""
    return parse(sec, key, cfg[sec][key])


def _discretization(cfg) -> tuple[int, float, float]:
    """(degree, alpha, mu) of [discretization]."""
    return tuple(value(cfg, "discretization", key) for key in ("degree", "alpha", "mu"))


def _solver_config(cfg) -> SolverConfig:
    return SolverConfig(tol=value(cfg, "solve", "tol"), maxit=value(cfg, "solve", "maxit"))


def _mms(cfg, sec):
    """The manufactured solution named by [sec] mms, at [discretization] mu."""
    return NAMED_SOLUTIONS[value(cfg, sec, "mms")](_discretization(cfg)[2])


def _classify(mesh, neumann: str):
    """Mark the boundary faces on the named side of the mesh bounding box
    Neumann and all others Dirichlet."""
    side = NEUMANN_SIDES[neumann]
    if side is None:
        return classify_boundary(mesh, lambda p: False)
    axis, end = side
    lo, hi = mesh.vertices[:, axis].min(), mesh.vertices[:, axis].max()
    return classify_boundary(mesh, lambda p: abs((p[axis] - lo) / (hi - lo) - end) < 1e-9)


def _mesh_family(cfg):
    """(label, mesh) of the [mesh] family, one at a time: a Cartesian base
    (or imported file), agglomerated to each target element count in turn;
    an agglomeration that stalls keeps the mesh it reached and warns on
    stderr."""
    path = value(cfg, "mesh", "file")
    if path:
        base = read_mesh(path)
    else:
        base = build_cartesian_mesh(value(cfg, "mesh", "nx"), value(cfg, "mesh", "ny"))
    base = _classify(base, value(cfg, "mesh", "neumann"))
    seed = value(cfg, "mesh", "seed")
    for target in value(cfg, "mesh", "targets") or [None]:
        mesh = base if target is None else agglomerate(base, target, seed)
        if mesh.merge_warning:
            print(f"warning: agglomeration to {target} elements stalled at "
                  f"{mesh.n_elements} elements", file=sys.stderr)
        yield f"{mesh.n_elements}el_h{mesh.mesh_size:.4f}", mesh


def build_meshes(cfg) -> list[tuple[str, object]]:
    """The whole mesh family of ``_mesh_family``."""
    return list(_mesh_family(cfg))


@dataclass
class Table:
    """Row-by-column result table with per-cell flags and a reproducibility
    header."""

    name: str
    row_label: str
    row_values: list[str]
    col_values: list[str]
    values: np.ndarray
    flags: np.ndarray
    fmt: str = "{:.1f}"
    meta: dict = field(default_factory=dict)
    balanced: np.ndarray | None = None

    def header_lines(self) -> list[str]:
        items = " ".join(f"{k}={v}" for k, v in self.meta.items())
        return [f"# polystress {self.name}", f"# {items}"]

    def to_csv(self) -> str:
        out = io.StringIO()
        for line in self.header_lines():
            out.write(line + "\n")
        cols = [self.row_label] + self.col_values + [c + "_flag" for c in self.col_values]
        out.write(",".join(cols) + "\n")
        for i, row in enumerate(self.row_values):
            cells = [self.fmt.format(v) for v in self.values[i]]
            fl = [str(int(v)) for v in self.flags[i]]
            out.write(",".join([row] + cells + fl) + "\n")
        return out.getvalue()

    def to_markdown(self) -> str:
        body = []
        header = [self.row_label] + self.col_values
        for i, row in enumerate(self.row_values):
            cells = []
            for j in range(len(self.col_values)):
                cell = self.fmt.format(self.values[i, j])
                if self.flags[i, j]:
                    cell += "!"
                if self.balanced is not None and self.balanced[i, j]:
                    cell = "*" + cell + "*"
                cells.append(cell)
            body.append([row] + cells)
        widths = [max(len(r[j]) for r in [header] + body) for j in range(len(header))]
        lines = ["| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |",
                 "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
        for r in body:
            lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(r, widths)) + " |")
        note = []
        if self.balanced is not None and self.balanced.any():
            note.append("*cell*: balanced regime (dt within one decade of h^p)")
        if self.flags.any():
            note.append("cell!: flagged (non-converged)")
        return "\n".join(self.header_lines() + lines + note) + "\n"

    def write(self, outdir: Path) -> list[Path]:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        csv_path = outdir / f"{self.name}.csv"
        md_path = outdir / f"{self.name}.md"
        csv_path.write_text(self.to_csv())
        md_path.write_text(self.to_markdown())
        return [csv_path, md_path]


def _balanced_mask(dts, hs, degree) -> np.ndarray:
    """Cells where dt and h^degree agree within one order of magnitude, the
    balanced-error regime highlighted in the result tables."""
    mask = np.zeros((len(dts), len(hs)), dtype=bool)
    for i, dt in enumerate(dts):
        for j, h in enumerate(hs):
            mask[i, j] = abs(math.log10(dt) - degree * math.log10(h)) <= 1.0
    return mask


def _rhs_generator(seed: int, mesh_i: int, dt_i: int, rep: int, n: int) -> np.ndarray:
    key = np.array([seed, (mesh_i << 40) | (dt_i << 20) | rep], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.uniform(0.0, 1.0, n)


def _common_meta(cfg, extra=None) -> dict:
    meta = {
        "config_hash": config_hash(cfg),
        "seed": cfg["solve"]["seed"],
        "tol": cfg["solve"]["tol"],
        "maxit": cfg["solve"]["maxit"],
    }
    meta.update(extra or {})
    return meta


def _cells(cfg, meshes, dts):
    """(i, j, Operators) at every dt_i on every mesh_j of the family, mesh by
    mesh and dt by dt (the sweep order), assembling each mesh once."""
    degree, alpha, mu = _discretization(cfg)
    for j, (_, mesh) in enumerate(meshes):
        space = build_space(mesh, degree)
        system = assemble_system(space, mu, alpha)
        for i, dt in enumerate(dts):
            yield i, j, Operators(build_system(system.m, system.a, dt), space)


def _run_jobs(jobs, workers: int) -> None:
    """Call each job of ``jobs``, a list of (key, callable) in submission
    order, on a pool of ``workers`` threads; with one worker, inline in key
    order, starting no thread.

    If jobs raise, the exception of the one with the smallest key is
    raised, the one a serial run in key order raises: once a job has
    failed, the queued jobs with larger keys are cancelled and those with
    smaller keys still run.  No pool thread outlives the call."""
    if workers == 1:
        for _, job in sorted(jobs, key=lambda item: item[0]):
            job()
        return
    pool = ThreadPoolExecutor(workers, thread_name_prefix="polystress-table")
    failed = None
    try:
        key_of = {pool.submit(job): k for k, job in jobs}
        pending = set(key_of)
        while pending:
            done, pending = wait(pending, return_when=FIRST_EXCEPTION)
            for future in done:
                if (not future.cancelled() and future.exception() is not None
                        and (failed is None or key_of[future] < key_of[failed])):
                    failed = future
            if failed is not None:
                for future in pending:
                    if key_of[future] > key_of[failed]:
                        future.cancel()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    if failed is not None:
        raise failed.exception()


def _run_cells(cells, workers: int, jobs_of) -> None:
    """Run the jobs of ``cells`` on ``_run_jobs``, one batch of ``workers``
    cells at a time: the calling thread builds a batch's (key, job) list,
    ``jobs_of(batch)``, in sweep order, and releases the batch once its jobs
    are done, before it builds the next: at most one cell per worker is held."""
    cells = iter(cells)
    while batch := list(islice(cells, workers)):
        _run_jobs(jobs_of(batch), workers)
        del batch  # else its Operators live on while the next A* is built


def _dt_table(cfg, name, dts, meshes, values, flags, fmt, meta) -> Table:
    """A table with one row per dt and one column per mesh, balanced cells
    marked."""
    degree = _discretization(cfg)[0]
    return Table(
        name=name,
        row_label="dt",
        row_values=[f"{dt:.0e}" for dt in dts],
        col_values=[label for label, _ in meshes],
        values=values,
        flags=flags,
        fmt=fmt,
        meta=meta,
        balanced=_balanced_mask(dts, [m.mesh_size for _, m in meshes], degree),
    )


def run_iteration_table(cfg) -> dict[str, Table]:
    """Mean iteration counts over seeded repetitions, one table per solver.

    Cells that hit the iteration cap are recorded at the cap value and
    flagged, never raised as errors.

    Each solve (mesh, dt, solver, repetition) is one job of ``_run_jobs``,
    with one worker per CPU.  The calling thread builds the solvers of one
    cell per worker, in sweep order, and submits their jobs solver by
    solver, so that the long cg solves of every dt start first.
    """
    dts = value(cfg, "solve", "dts")
    solvers = value(cfg, "solve", "solvers")
    reps = value(cfg, "solve", "repetitions")
    seed = value(cfg, "solve", "seed")
    solver_cfg = _solver_config(cfg)
    meshes = build_meshes(cfg)
    iterations = np.zeros((len(solvers), len(dts), len(meshes), reps), dtype=int)
    unconverged = np.zeros(iterations.shape, dtype=bool)
    workers = len(os.sched_getaffinity(0))

    def solve_one(solve, k, i, j, rep, n):
        _, report = solve(_rhs_generator(seed, j, i, rep, n))
        iterations[k, i, j, rep] = report.iterations
        unconverged[k, i, j, rep] = not report.converged

    def solve_jobs(cells):
        built = [(i, j, ops.astar.shape[0], [make_solver(s, ops, solver_cfg) for s in solvers])
                 for i, j, ops in cells]
        return [((j, i, k, rep), partial(solve_one, solve[k], k, i, j, rep, n))
                for k in range(len(solvers)) for i, j, n, solve in built
                for rep in range(reps)]

    _run_cells(_cells(cfg, meshes, dts), workers, solve_jobs)
    means, flags = iterations.mean(axis=-1), unconverged.sum(axis=-1)
    return {s: _dt_table(cfg, f"iter_{s.replace('-', '_')}", dts, meshes, means[k],
                         flags[k], "{:.1f}",
                         _common_meta(cfg, {"solver": s, "repetitions": reps}))
            for k, s in enumerate(solvers)}


def run_condition_table(cfg) -> dict[str, Table]:
    """Lanczos condition-number estimates of A* and of the collective
    Block-Jacobi preconditioned operator.

    The cbj estimate reads the collective Block-Jacobi of the cell's
    ``Operators``, and the raw estimate's ``deflated_inverse`` reads it and
    the deflator; no n x n LU of A* is built unless an inner solve fails
    (large dt).  The two estimates are two jobs of ``_run_jobs``, one cell
    per worker (``_run_cells``), each writing its own slot, so the tables do
    not depend on the CPU count."""
    dts = value(cfg, "condition", "dts")
    tol, maxit, seed = (value(cfg, "condition", key) for key in ("tol", "maxit", "seed"))
    meshes = build_meshes(cfg)
    kappa = np.zeros((2, len(dts), len(meshes)))
    flags = np.zeros(kappa.shape, dtype=int)

    def estimate_one(k, i, j, astar, **operators):
        estimate = estimate_condition_number(astar, **operators, tol=tol, maxit=maxit,
                                             seed=seed)
        kappa[k, i, j], flags[k, i, j] = estimate.kappa, not estimate.converged

    def estimate_jobs(cells):
        jobs = []
        for i, j, ops in cells:
            cbj = ops.block_jacobi(LAYOUT_COLLECTIVE)
            inverse = deflated_inverse(ops.astar, ops.deflator, cbj)
            jobs += [((j, i, 0), partial(estimate_one, 0, i, j, ops.astar, inverse=inverse)),
                     ((j, i, 1), partial(estimate_one, 1, i, j, ops.astar, preconditioner=cbj))]
        return jobs

    _run_cells(_cells(cfg, meshes, dts), len(os.sched_getaffinity(0)), estimate_jobs)

    meta = _common_meta(cfg, {"estimator": "lanczos", "estimator_tol": tol,
                              "estimator_maxit": maxit, "estimator_seed": seed})
    return {name: _dt_table(cfg, f"cond_{name}", dts, meshes, kappa[k], flags[k],
                            "{:.4e}", meta)
            for k, name in enumerate(("raw", "cbj"))}


def run_convergence(cfg) -> Table:
    """Energy-norm errors of manufactured solutions under mesh or time-step
    refinement, with fitted slopes between consecutive levels."""
    mode = value(cfg, "convergence", "mode")
    degree = value(cfg, "convergence", "degree")
    _, alpha, mu = _discretization(cfg)
    neumann = value(cfg, "mesh", "neumann")
    solver = value(cfg, "convergence", "solver")
    solver_cfg = _solver_config(cfg)

    def space_of(nx):
        return build_space(_classify(build_cartesian_mesh(nx, nx), neumann), degree)

    # runs of (space, time grid, assembled system or None)
    if mode == "spatial":
        mms = _mms(cfg, "convergence")
        tcfg = TimeConfig.from_steps(value(cfg, "convergence", "steps"),
                                     value(cfg, "convergence", "dt"))
        runs = ((space_of(nx), tcfg, None) for nx in value(cfg, "convergence", "levels"))
        x = 0  # slopes against h
    else:
        mms = linear_in_space_solution(mu)
        space = space_of(value(cfg, "convergence", "nx"))
        system = assemble_system(space, mu, alpha)
        t_final = value(cfg, "convergence", "t_final")
        runs = ((space, TimeConfig(dt=dt, t_final=t_final), system)
                for dt in value(cfg, "convergence", "dts"))
        x = 1  # slopes against dt
    rows = []
    for space, tcfg, system in runs:
        sigma, _ = implicit_euler_run(space, mms.data, tcfg, solver, solver_cfg, alpha,
                                      system=system)
        err = EnergyNorm(space, alpha).error(sigma, mms, tcfg.t_final)
        rows.append((space.mesh.mesh_size, tcfg.dt, err))

    values = np.full((len(rows), 4), np.nan)
    values[:, :3] = rows
    for i in range(1, len(rows)):
        (x0, e0), (x1, e1) = values[i - 1, [x, 2]], values[i, [x, 2]]
        if e0 > 0 and e1 > 0 and x0 != x1:
            values[i, 3] = math.log(e0 / e1) / math.log(x0 / x1)

    meta = _common_meta(cfg, {"mode": mode, "degree": degree})
    return Table(
        name=f"convergence_{mode}",
        row_label="level",
        row_values=[str(i) for i in range(len(rows))],
        col_values=["h", "dt", "energy_error", "slope"],
        values=values,
        flags=np.zeros_like(values, dtype=int),
        fmt="{:.6e}",
        meta=meta,
    )


def run_solve(cfg):
    """Implicit Euler run of the [time] problem on the first mesh of the
    family, one log row per step in <output>/solve_log.csv.

    Returns the mesh label, the per-step solver reports and the log path.
    """
    degree, alpha, mu = _discretization(cfg)
    data = zero_data(mu) if value(cfg, "time", "mms") == "zero" else _mms(cfg, "time").data
    tcfg = TimeConfig(dt=value(cfg, "time", "dt"), t_final=value(cfg, "time", "t_final"))
    label, mesh = next(_mesh_family(cfg))
    space = build_space(mesh, degree)
    outdir = Path(cfg["output"]["path"])
    outdir.mkdir(parents=True, exist_ok=True)
    log = outdir / "solve_log.csv"
    _, reports = implicit_euler_run(space, data, tcfg, value(cfg, "time", "solver"),
                                    _solver_config(cfg), alpha, log_path=log)
    return label, reports, log


def run_export(cfg, dt):
    """Write M1, B1, B2, B3, M, A (and A* = M + dt A when dt is given) of the
    first mesh of the family to <output>/matrices in Matrix Market format.

    Returns the mesh label, the directory and the matrix names written.
    """
    label, mesh = next(_mesh_family(cfg))
    degree, alpha, mu = _discretization(cfg)
    system = assemble_system(build_space(mesh, degree), mu, alpha)
    outdir = Path(cfg["output"]["path"]) / "matrices"
    return label, outdir, export_matrices(system, outdir, dt=dt)

