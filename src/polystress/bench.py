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
"""
from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .assembly import assemble_system, build_system, export_matrices
from .dg_space import build_space
from .krylov import (LAYOUT_COLLECTIVE, SOLVERS, SolverConfig,
                     build_block_jacobi, estimate_condition_number,
                     make_solver)
from .mesh import agglomerate, build_cartesian_mesh, classify_boundary, read_mesh
from .problems import NAMED_SOLUTIONS, linear_in_space_solution, zero_data
from .timestepper import EnergyNorm, TimeConfig, implicit_euler_run

DEFAULTS = {
    "mesh": {
        "file": "",
        "nx": "10",
        "ny": "10",
        "targets": "",
        "seed": "1",
        "neumann": "right",
    },
    "discretization": {
        "degree": "3",
        "alpha": "10.0",
        "mu": "1.0",
    },
    "solve": {
        "dts": "1e-6,1e-7,1e-8",
        "solvers": ",".join(SOLVERS),
        "tol": "1e-8",
        "maxit": "30000",
        "repetitions": "10",
        "seed": "0",
    },
    "condition": {
        "dts": "1e-8,1e-9,1e-10",
        "tol": "1e-3",
        "maxit": "800",
        "seed": "0",
    },
    "convergence": {
        "mode": "spatial",
        "mms": "trig",
        "degree": "2",
        "levels": "2,4,8,16",
        "dt": "1e-5",
        "steps": "2",
        "dts": "0.2,0.1,0.05,0.025",
        "t_final": "0.4",
        "nx": "4",
        "solver": "cg",
    },
    "time": {
        "dt": "0.01",
        "t_final": "0.1",
        "solver": "dcg",
        "mms": "trig",
    },
    "output": {
        "path": "out",
    },
}


class ConfigError(ValueError):
    pass


# Neumann side -> (axis, end) of the mesh bounding box; "none" keeps the
# whole boundary Dirichlet
NEUMANN_SIDES = {"none": None, "right": (0, 1.0), "left": (0, 0.0),
                 "top": (1, 1.0), "bottom": (1, 0.0)}
CONVERGENCE_MODES = ("spatial", "temporal")
# (section, key) -> the values it may take, compared after _choice
CHOICES = {
    ("mesh", "neumann"): tuple(NEUMANN_SIDES),
    ("convergence", "mode"): CONVERGENCE_MODES,
    ("convergence", "mms"): tuple(NAMED_SOLUTIONS),
    ("time", "mms"): (*NAMED_SOLUTIONS, "zero"),
}


# numeric keys: (section, key) -> the type of the value, or of every item
# of a comma-separated list key
NUMBERS = {
    ("mesh", "nx"): int, ("mesh", "ny"): int, ("mesh", "seed"): int,
    ("discretization", "degree"): int, ("discretization", "alpha"): float,
    ("discretization", "mu"): float,
    ("solve", "tol"): float, ("solve", "maxit"): int, ("solve", "repetitions"): int,
    ("solve", "seed"): int,
    ("condition", "tol"): float, ("condition", "maxit"): int, ("condition", "seed"): int,
    ("convergence", "degree"): int, ("convergence", "dt"): float,
    ("convergence", "steps"): int, ("convergence", "t_final"): float,
    ("convergence", "nx"): int,
    ("time", "dt"): float, ("time", "t_final"): float,
}
NUMBER_LISTS = {
    ("mesh", "targets"): int, ("solve", "dts"): float, ("condition", "dts"): float,
    ("convergence", "levels"): int, ("convergence", "dts"): float,
}
# keys that name exactly one solver
SINGLE_SOLVER_KEYS = (("time", "solver"), ("convergence", "solver"))


def load_config(path=None, overrides=None) -> dict[str, dict[str, str]]:
    """Resolved configuration: defaults, then the key=value sections of the
    file, then command-line overrides ((section, key) -> value), stored as
    strings.  Raises ConfigError naming the [section] key of the first bad
    value."""
    cfg = {sec: dict(kv) for sec, kv in DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(str(path))
        if not read:
            raise ConfigError(f"cannot read config file: {path}")
        for sec in parser.sections():
            if sec not in cfg:
                raise ConfigError(f"unknown config section [{sec}]")
            for key, value in parser.items(sec):
                if key not in cfg[sec]:
                    raise ConfigError(f"unknown config key {key!r} in [{sec}]")
                cfg[sec][key] = value
    for (sec, key), value in (overrides or {}).items():
        if value is not None:
            cfg[sec][key] = str(value)

    for sec, key in (("solve", "solvers"), *SINGLE_SOLVER_KEYS):
        names = _list(cfg, sec, key)
        for i, name in enumerate(names):
            if name not in SOLVERS:
                raise ConfigError(f"unknown solver {name!r} in [{sec}] {key}; "
                                  f"choose from {', '.join(SOLVERS)}")
            if name in names[:i]:
                raise ConfigError(f"solver {name!r} repeated in [{sec}] {key}")
        if (sec, key) in SINGLE_SOLVER_KEYS and len(names) > 1:
            raise ConfigError(f"[{sec}] {key} takes one solver name, got {cfg[sec][key]!r}")
    for (sec, key), allowed in CHOICES.items():
        if _choice(cfg, sec, key) not in allowed:
            raise ConfigError(f"unknown value {cfg[sec][key]!r} for [{sec}] {key}; "
                              f"choose from {', '.join(allowed)}")
    for sec, key in NUMBERS:
        _number(cfg, sec, key)
    for sec, key in NUMBER_LISTS:
        _items(cfg, sec, key)
    if _number(cfg, "solve", "repetitions") < 1:
        raise ConfigError("[solve] repetitions must be >= 1")
    return cfg


def config_hash(cfg) -> str:
    """Hash of the experiment-relevant configuration (the output location
    does not change results and is excluded)."""
    lines = [f"{sec}.{key}={cfg[sec][key]}" for sec in sorted(cfg) if sec != "output"
             for key in sorted(cfg[sec])]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


def _parse(kind, text: str, sec: str, key: str):
    try:
        return kind(text.strip())
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"[{sec}] {key}: {text.strip()!r} is not {what}") from None


def _number(cfg, sec, key):
    """The numeric [sec] key, of its type in NUMBERS."""
    return _parse(NUMBERS[(sec, key)], cfg[sec][key], sec, key)


def _items(cfg, sec, key) -> list:
    """The comma- (or semicolon-) separated [sec] key, each item of its type
    in NUMBER_LISTS (solver names stay strings)."""
    kind = NUMBER_LISTS.get((sec, key), str)
    return [_parse(kind, tok, sec, key)
            for tok in cfg[sec][key].replace(";", ",").split(",") if tok.strip()]


def _list(cfg, sec, key) -> list:
    """``_items`` of [sec] key, which may not be empty."""
    items = _items(cfg, sec, key)
    if not items:
        raise ConfigError(f"empty list in [{sec}] {key}")
    return items


def _choice(cfg, sec, key) -> str:
    return cfg[sec][key].strip().lower()


def _discretization(cfg) -> tuple[int, float, float]:
    """(degree, alpha, mu) of [discretization]."""
    return tuple(_number(cfg, "discretization", key) for key in ("degree", "alpha", "mu"))


def _solver_config(cfg) -> SolverConfig:
    return SolverConfig(tol=_number(cfg, "solve", "tol"), maxit=_number(cfg, "solve", "maxit"))


def _mms(cfg, sec):
    """The manufactured solution named by [sec] mms, at [discretization] mu."""
    return NAMED_SOLUTIONS[_choice(cfg, sec, "mms")](_discretization(cfg)[2])


def _classify(mesh, neumann: str):
    """Mark the boundary faces on the named side of the mesh bounding box
    Neumann and all others Dirichlet."""
    side = NEUMANN_SIDES[neumann]
    if side is None:
        return classify_boundary(mesh, lambda p: False)
    axis, end = side
    lo, hi = mesh.vertices[:, axis].min(), mesh.vertices[:, axis].max()
    return classify_boundary(mesh, lambda p: abs((p[axis] - lo) / (hi - lo) - end) < 1e-9)


def build_meshes(cfg) -> list[tuple[str, object]]:
    """Mesh family from the [mesh] section: a Cartesian base (or imported
    file), agglomerated to each target element count."""
    sec = cfg["mesh"]
    if sec["file"]:
        base = read_mesh(sec["file"])
    else:
        base = build_cartesian_mesh(_number(cfg, "mesh", "nx"), _number(cfg, "mesh", "ny"))
    base = _classify(base, _choice(cfg, "mesh", "neumann"))
    if sec["targets"].strip():
        meshes = [agglomerate(base, target, _number(cfg, "mesh", "seed"))
                  for target in _list(cfg, "mesh", "targets")]
    else:
        meshes = [base]
    return [(f"{m.n_elements}el_h{m.mesh_size:.4f}", m) for m in meshes]


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
        widths = []
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


def _sweep(cfg, dts, keys, cell):
    """Evaluate cell(i, j, space, astar) -> {key: (value, flag)} at every dt_i
    on every mesh_j of the [mesh] family, assembling each mesh once.

    Returns the mesh family and, per key, the (dt x mesh) values and flags.
    """
    meshes = build_meshes(cfg)
    degree, alpha, mu = _discretization(cfg)
    shape = (len(dts), len(meshes))
    values = {k: np.zeros(shape) for k in keys}
    flags = {k: np.zeros(shape, dtype=int) for k in keys}
    for j, (_, mesh) in enumerate(meshes):
        space = build_space(mesh, degree)
        system = assemble_system(space, mu, alpha)
        for i, dt in enumerate(dts):
            astar = build_system(system.m, system.a, dt)
            for k, (value, flag) in cell(i, j, space, astar).items():
                values[k][i, j] = value
                flags[k][i, j] = flag
    return meshes, values, flags


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
    """
    dts = _list(cfg, "solve", "dts")
    solvers = _list(cfg, "solve", "solvers")
    reps = _number(cfg, "solve", "repetitions")
    seed = _number(cfg, "solve", "seed")
    solver_cfg = _solver_config(cfg)

    def cell(i, j, space, astar):
        solve = {s: make_solver(s, astar, space, solver_cfg) for s in solvers}
        counts = {s: [] for s in solvers}
        failed = dict.fromkeys(solvers, 0)
        for rep in range(reps):
            b = _rhs_generator(seed, j, i, rep, space.total_dofs)
            for s in solvers:
                _, report = solve[s](b)
                counts[s].append(report.iterations)
                failed[s] += not report.converged
        return {s: (float(np.mean(counts[s])), failed[s]) for s in solvers}

    meshes, values, flags = _sweep(cfg, dts, solvers, cell)
    return {s: _dt_table(cfg, f"iter_{s.replace('-', '_')}", dts, meshes, values[s],
                         flags[s], "{:.1f}",
                         _common_meta(cfg, {"solver": s, "repetitions": reps}))
            for s in solvers}


def run_condition_table(cfg) -> dict[str, Table]:
    """Lanczos condition-number estimates of A* and of the collective
    Block-Jacobi preconditioned operator."""
    dts = _list(cfg, "condition", "dts")
    tol, maxit, seed = (_number(cfg, "condition", key) for key in ("tol", "maxit", "seed"))

    def cell(i, j, space, astar):
        raw = estimate_condition_number(astar, tol=tol, maxit=maxit, seed=seed)
        cbj = estimate_condition_number(
            astar, preconditioner=build_block_jacobi(astar, space, LAYOUT_COLLECTIVE),
            tol=tol, maxit=maxit, seed=seed)
        return {"raw": (raw.kappa, int(not raw.converged)),
                "cbj": (cbj.kappa, int(not cbj.converged))}

    meshes, values, flags = _sweep(cfg, dts, ("raw", "cbj"), cell)
    meta = _common_meta(cfg, {"estimator": "lanczos", "estimator_tol": tol,
                              "estimator_maxit": maxit})
    return {k: _dt_table(cfg, f"cond_{k}", dts, meshes, values[k], flags[k],
                         "{:.4e}", meta)
            for k in ("raw", "cbj")}


def run_convergence(cfg) -> Table:
    """Energy-norm errors of manufactured solutions under mesh or time-step
    refinement, with fitted slopes between consecutive levels."""
    sec = cfg["convergence"]
    mode = _choice(cfg, "convergence", "mode")
    degree = _number(cfg, "convergence", "degree")
    _, alpha, mu = _discretization(cfg)
    neumann = _choice(cfg, "mesh", "neumann")
    solver = sec["solver"].strip()
    solver_cfg = _solver_config(cfg)

    rows = []
    if mode == "spatial":
        mms = _mms(cfg, "convergence")
        dt = _number(cfg, "convergence", "dt")
        steps = _number(cfg, "convergence", "steps")
        for nx in _list(cfg, "convergence", "levels"):
            mesh = _classify(build_cartesian_mesh(nx, nx), neumann)
            space = build_space(mesh, degree)
            tcfg = TimeConfig.from_steps(steps, dt)
            sigma, _ = implicit_euler_run(space, mms.data, tcfg, solver,
                                          solver_cfg, alpha)
            err = EnergyNorm(space, alpha).error(sigma, mms, tcfg.t_final)
            rows.append((mesh.mesh_size, dt, err))
        x_of = lambda row: row[0]
    else:
        mms = linear_in_space_solution(mu)
        nx = _number(cfg, "convergence", "nx")
        t_final = _number(cfg, "convergence", "t_final")
        mesh = _classify(build_cartesian_mesh(nx, nx), neumann)
        space = build_space(mesh, degree)
        system = assemble_system(space, mu, alpha)
        norm = EnergyNorm(space, alpha)
        for dt in _list(cfg, "convergence", "dts"):
            tcfg = TimeConfig(dt=dt, t_final=t_final)
            sigma, _ = implicit_euler_run(space, mms.data, tcfg, solver,
                                          solver_cfg, alpha, system=system)
            err = norm.error(sigma, mms, tcfg.t_final)
            rows.append((mesh.mesh_size, dt, err))
        x_of = lambda row: row[1]

    values = np.zeros((len(rows), 4))
    for i, (h, dt, err) in enumerate(rows):
        slope = np.nan
        if i > 0:
            x0, x1 = x_of(rows[i - 1]), x_of(rows[i])
            e0, e1 = rows[i - 1][2], rows[i][2]
            if e0 > 0 and e1 > 0 and x0 != x1:
                slope = math.log(e0 / e1) / math.log(x0 / x1)
        values[i] = (h, dt, err, slope)

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
    sec = cfg["time"]
    degree, alpha, mu = _discretization(cfg)
    data = zero_data(mu) if _choice(cfg, "time", "mms") == "zero" else _mms(cfg, "time").data
    tcfg = TimeConfig(dt=_number(cfg, "time", "dt"), t_final=_number(cfg, "time", "t_final"))
    label, mesh = build_meshes(cfg)[0]
    space = build_space(mesh, degree)
    outdir = Path(cfg["output"]["path"])
    outdir.mkdir(parents=True, exist_ok=True)
    log = outdir / "solve_log.csv"
    _, reports = implicit_euler_run(space, data, tcfg, sec["solver"].strip(),
                                    _solver_config(cfg), alpha, log_path=log)
    return label, reports, log


def run_export(cfg, dt):
    """Write M1, B1, B2, B3, M, A (and A* = M + dt A when dt is given) of the
    first mesh of the family to <output>/matrices in Matrix Market format.

    Returns the mesh label, the directory and the matrix names written.
    """
    label, mesh = build_meshes(cfg)[0]
    degree, alpha, mu = _discretization(cfg)
    system = assemble_system(build_space(mesh, degree), mu, alpha)
    outdir = Path(cfg["output"]["path"]) / "matrices"
    return label, outdir, export_matrices(system, outdir, dt=dt)


def fitted_slope(xs, errs) -> float:
    """Least-squares slope of log(err) against log(x)."""
    lx, le = np.log(np.asarray(xs, dtype=float)), np.log(np.asarray(errs, dtype=float))
    return float(np.polyfit(lx, le, 1)[0])
