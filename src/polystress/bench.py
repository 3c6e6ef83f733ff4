"""Configuration-driven benchmark harness: iteration tables, condition
tables and convergence studies over families of polygonal meshes.

Right-hand sides are drawn entrywise uniform on [0, 1] from a counter-based
(Philox) generator keyed by (seed, mesh, dt, repetition), so tables are
bit-reproducible for a fixed config and seed and identical systems are put
to every solver.  The raw draw keeps full spectral content in the
right-hand side; filtering it through the singular mass operator would
remove exactly the directions whose dt-dependence the tables measure.
"""
from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .assembly import assemble_system, build_system
from .dg_space import build_space
from .krylov import (LAYOUT_COLLECTIVE, LAYOUT_COMPONENT, SolverConfig,
                     build_block_jacobi, build_deflator, cg, deflated_cg,
                     estimate_condition_number, pcg)
from .mesh import agglomerate, build_cartesian_mesh, classify_boundary, read_mesh
from .problems import NAMED_SOLUTIONS, linear_in_space_solution
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
        "solvers": "cg,dcg,pcg-bj,pcg-cbj",
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


def load_config(path=None, overrides=None) -> dict[str, dict[str, str]]:
    """Resolved configuration: defaults, then the key=value sections of the
    file, then command-line overrides ((section, key) -> value)."""
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
    return cfg


def config_hash(cfg) -> str:
    """Hash of the experiment-relevant configuration (the output location
    does not change results and is excluded)."""
    lines = [f"{sec}.{key}={cfg[sec][key]}" for sec in sorted(cfg) if sec != "output"
             for key in sorted(cfg[sec])]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


def _floats(text) -> list[float]:
    vals = [float(tok) for tok in str(text).replace(";", ",").split(",") if tok.strip()]
    if not vals:
        raise ConfigError(f"empty list: {text!r}")
    return vals


def _ints(text) -> list[int]:
    return [int(tok) for tok in str(text).replace(";", ",").split(",") if tok.strip()]


def _names(text) -> list[str]:
    names = [tok.strip() for tok in str(text).split(",") if tok.strip()]
    if not names:
        raise ConfigError(f"empty list: {text!r}")
    return names


NEUMANN_PREDICATES = {
    "none": None,
    "right": lambda tol: (lambda p: p[0] > 1.0 - tol),
    "left": lambda tol: (lambda p: p[0] < tol),
    "top": lambda tol: (lambda p: p[1] > 1.0 - tol),
    "bottom": lambda tol: (lambda p: p[1] < tol),
}


def _classify(mesh, neumann: str):
    if neumann == "none":
        return classify_boundary(mesh, lambda p: False)
    try:
        make = NEUMANN_PREDICATES[neumann]
    except KeyError:
        raise ConfigError(f"unknown neumann side {neumann!r}") from None
    # predicate in coordinates scaled relative to the mesh bounding box
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    pred = make(1e-9)

    def scaled(p):
        q = ((p[0] - lo[0]) / (hi[0] - lo[0]), (p[1] - lo[1]) / (hi[1] - lo[1]))
        return pred(q)

    return classify_boundary(mesh, scaled)


def build_meshes(cfg) -> list[tuple[str, object]]:
    """Mesh family from the [mesh] section: a Cartesian base (or imported
    file), agglomerated to each target element count."""
    sec = cfg["mesh"]
    if sec["file"]:
        base = read_mesh(sec["file"])
    else:
        base = build_cartesian_mesh(int(sec["nx"]), int(sec["ny"]))
    base = _classify(base, sec["neumann"].strip().lower())
    targets = _ints(sec["targets"]) if sec["targets"].strip() else []
    seed = int(sec["seed"])
    meshes = []
    if not targets:
        meshes.append(base)
    else:
        for target in targets:
            meshes.append(agglomerate(base, target, seed))
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


def run_iteration_table(cfg) -> dict[str, Table]:
    """Mean iteration counts over seeded repetitions, one table per solver.

    Cells that hit the iteration cap are recorded at the cap value and
    flagged, never raised as errors.
    """
    sec = cfg["solve"]
    dts = _floats(sec["dts"])
    solvers = _names(sec["solvers"])
    reps = int(sec["repetitions"])
    seed = int(sec["seed"])
    if reps < 1:
        raise ConfigError("repetitions must be >= 1")
    solver_cfg = SolverConfig(tol=float(sec["tol"]), maxit=int(sec["maxit"]))
    degree = int(cfg["discretization"]["degree"])
    alpha = float(cfg["discretization"]["alpha"])
    mu = float(cfg["discretization"]["mu"])

    meshes = build_meshes(cfg)
    hs = [m.mesh_size for _, m in meshes]
    shape = (len(dts), len(meshes))
    values = {s: np.zeros(shape) for s in solvers}
    flags = {s: np.zeros(shape, dtype=int) for s in solvers}

    for j, (label, mesh) in enumerate(meshes):
        space = build_space(mesh, degree)
        system = assemble_system(space, mu, alpha)
        for i, dt in enumerate(dts):
            astar = build_system(system.m, system.a, dt)
            runners = {}
            for s in solvers:
                if s == "cg":
                    runners[s] = lambda b: cg(astar, b, solver_cfg)
                elif s == "dcg":
                    deflator = build_deflator(system, dt, astar=astar)
                    runners[s] = (lambda d: (lambda b: deflated_cg(astar, b, d, solver_cfg)))(deflator)
                elif s in ("pcg-bj", "pcg-cbj"):
                    layout = LAYOUT_COMPONENT if s == "pcg-bj" else LAYOUT_COLLECTIVE
                    bj = build_block_jacobi(astar, space, layout)
                    runners[s] = (lambda m: (lambda b: pcg(astar, b, m, solver_cfg)))(bj)
                else:
                    raise ConfigError(f"unknown solver {s!r}")
            counts = {s: [] for s in solvers}
            for rep in range(reps):
                b = _rhs_generator(seed, j, i, rep, space.total_dofs)
                for s in solvers:
                    _, report = runners[s](b)
                    counts[s].append(report.iterations)
                    if not report.converged:
                        flags[s][i, j] += 1
            for s in solvers:
                values[s][i, j] = float(np.mean(counts[s]))

    balanced = _balanced_mask(dts, hs, degree)
    tables = {}
    for s in solvers:
        tables[s] = Table(
            name=f"iter_{s.replace('-', '_')}",
            row_label="dt",
            row_values=[f"{dt:.0e}" for dt in dts],
            col_values=[label for label, _ in meshes],
            values=values[s],
            flags=flags[s],
            fmt="{:.1f}",
            meta=_common_meta(cfg, {"solver": s, "repetitions": reps}),
            balanced=balanced,
        )
    return tables


def run_condition_table(cfg) -> dict[str, Table]:
    """Lanczos condition-number estimates of A* and of the collective
    Block-Jacobi preconditioned operator."""
    sec = cfg["condition"]
    dts = _floats(sec["dts"])
    tol = float(sec["tol"])
    maxit = int(sec["maxit"])
    seed = int(sec["seed"])
    degree = int(cfg["discretization"]["degree"])
    alpha = float(cfg["discretization"]["alpha"])
    mu = float(cfg["discretization"]["mu"])

    meshes = build_meshes(cfg)
    hs = [m.mesh_size for _, m in meshes]
    shape = (len(dts), len(meshes))
    kappa = {"raw": np.zeros(shape), "cbj": np.zeros(shape)}
    flags = {"raw": np.zeros(shape, dtype=int), "cbj": np.zeros(shape, dtype=int)}

    for j, (label, mesh) in enumerate(meshes):
        space = build_space(mesh, degree)
        system = assemble_system(space, mu, alpha)
        for i, dt in enumerate(dts):
            astar = build_system(system.m, system.a, dt)
            est = estimate_condition_number(astar, tol=tol, maxit=maxit, seed=seed)
            kappa["raw"][i, j] = est.kappa
            flags["raw"][i, j] = 0 if est.converged else 1
            cbj = build_block_jacobi(astar, space, LAYOUT_COLLECTIVE)
            est_p = estimate_condition_number(astar, preconditioner=cbj, tol=tol,
                                              maxit=maxit, seed=seed)
            kappa["cbj"][i, j] = est_p.kappa
            flags["cbj"][i, j] = 0 if est_p.converged else 1

    balanced = _balanced_mask(dts, hs, degree)
    meta = _common_meta(cfg, {"estimator": "lanczos", "estimator_tol": tol,
                              "estimator_maxit": maxit})
    tables = {}
    for kind in ("raw", "cbj"):
        tables[kind] = Table(
            name=f"cond_{kind}",
            row_label="dt",
            row_values=[f"{dt:.0e}" for dt in dts],
            col_values=[label for label, _ in meshes],
            values=kappa[kind],
            flags=flags[kind],
            fmt="{:.4e}",
            meta=meta,
            balanced=balanced,
        )
    return tables


def run_convergence(cfg) -> Table:
    """Energy-norm errors of manufactured solutions under mesh or time-step
    refinement, with fitted slopes between consecutive levels."""
    sec = cfg["convergence"]
    mode = sec["mode"].strip().lower()
    degree = int(sec["degree"])
    alpha = float(cfg["discretization"]["alpha"])
    mu = float(cfg["discretization"]["mu"])
    neumann = cfg["mesh"]["neumann"].strip().lower()
    solver = sec["solver"].strip()
    solver_cfg = SolverConfig(tol=float(cfg["solve"]["tol"]),
                              maxit=int(cfg["solve"]["maxit"]))

    rows = []
    if mode == "spatial":
        mms_name = sec["mms"].strip()
        if mms_name not in NAMED_SOLUTIONS:
            raise ConfigError(f"unknown manufactured solution {mms_name!r}")
        mms = NAMED_SOLUTIONS[mms_name](mu)
        dt = float(sec["dt"])
        steps = int(sec["steps"])
        for nx in _ints(sec["levels"]):
            mesh = _classify(build_cartesian_mesh(nx, nx), neumann)
            space = build_space(mesh, degree)
            tcfg = TimeConfig.from_steps(steps, dt)
            sigma, _ = implicit_euler_run(space, mms.data, tcfg, solver,
                                          solver_cfg, alpha)
            err = EnergyNorm(space, alpha).error(sigma, mms, tcfg.t_final)
            rows.append((mesh.mesh_size, dt, err))
        x_of = lambda row: row[0]
    elif mode == "temporal":
        mms = linear_in_space_solution(mu)
        nx = int(sec["nx"])
        t_final = float(sec["t_final"])
        mesh = _classify(build_cartesian_mesh(nx, nx), neumann)
        space = build_space(mesh, degree)
        system = assemble_system(space, mu, alpha)
        norm = EnergyNorm(space, alpha)
        for dt in _floats(sec["dts"]):
            tcfg = TimeConfig(dt=dt, t_final=t_final)
            sigma, _ = implicit_euler_run(space, mms.data, tcfg, solver,
                                          solver_cfg, alpha, system=system)
            err = norm.error(sigma, mms, tcfg.t_final)
            rows.append((mesh.mesh_size, dt, err))
        x_of = lambda row: row[1]
    else:
        raise ConfigError("convergence mode must be 'spatial' or 'temporal'")

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


def fitted_slope(xs, errs) -> float:
    """Least-squares slope of log(err) against log(x)."""
    lx, le = np.log(np.asarray(xs, dtype=float)), np.log(np.asarray(errs, dtype=float))
    return float(np.polyfit(lx, le, 1)[0])
