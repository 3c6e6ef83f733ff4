"""Command-line harness.

Subcommands: cond-table, iter-table, convergence, solve, export-matrices.
Options override the corresponding config-file keys.  Exit codes: 0 on
success, 1 on configuration errors, 2 when any solve or estimate was
flagged as non-converged, when a time step failed, or when a matrix that
must be SPD (a Block-Jacobi block, the deflation coarse operator) failed
its factorisation; a failure prints a one-line ``error:`` message.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .assembly import assemble_system, export_matrices
from .bench import (ConfigError, Table, build_meshes, config_hash,
                    load_config, run_condition_table, run_convergence,
                    run_iteration_table)
from .dg_space import build_space
from .krylov import SOLVERS, BlockFactorizationError, SolverConfig
from .mesh import MeshError
from .problems import NAMED_SOLUTIONS, zero_data
from .timestepper import TimeConfig, TimeStepError, implicit_euler_run

_OVERRIDES = {
    "mesh_file": ("mesh", "file"),
    "nx": ("mesh", "nx"),
    "ny": ("mesh", "ny"),
    "targets": ("mesh", "targets"),
    "mesh_seed": ("mesh", "seed"),
    "neumann": ("mesh", "neumann"),
    "degree": ("discretization", "degree"),
    "alpha": ("discretization", "alpha"),
    "mu": ("discretization", "mu"),
    "dts": ("solve", "dts"),
    "solvers": ("solve", "solvers"),
    "tol": ("solve", "tol"),
    "maxit": ("solve", "maxit"),
    "repetitions": ("solve", "repetitions"),
    "seed": ("solve", "seed"),
    "cond_dts": ("condition", "dts"),
    "cond_tol": ("condition", "tol"),
    "cond_maxit": ("condition", "maxit"),
    "mode": ("convergence", "mode"),
    "levels": ("convergence", "levels"),
    "mms": ("time", "mms"),
    "dt": ("time", "dt"),
    "t_final": ("time", "t_final"),
    "solver": ("time", "solver"),
    "output": ("output", "path"),
}


def _add_common(parser):
    parser.add_argument("-c", "--config", help="config file (key=value sections)")
    parser.add_argument("--output", help="output directory")
    parser.add_argument("--nx", type=int)
    parser.add_argument("--ny", type=int)
    parser.add_argument("--targets", help="comma-separated agglomeration targets")
    parser.add_argument("--mesh-file", dest="mesh_file")
    parser.add_argument("--mesh-seed", dest="mesh_seed", type=int)
    parser.add_argument("--neumann", choices=["none", "right", "left", "top", "bottom"])
    parser.add_argument("--degree", type=int)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--mu", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polystress",
        description="PolyDG pseudo-stress Stokes benchmarks: dt-robust Krylov solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_iter = sub.add_parser("iter-table", help="mean iteration counts per (dt, mesh, solver)")
    _add_common(p_iter)
    p_iter.add_argument("--dts")
    p_iter.add_argument("--solvers")
    p_iter.add_argument("--tol", type=float)
    p_iter.add_argument("--maxit", type=int)
    p_iter.add_argument("--repetitions", type=int)
    p_iter.add_argument("--seed", type=int)

    p_cond = sub.add_parser("cond-table", help="condition numbers of A* raw and preconditioned")
    _add_common(p_cond)
    p_cond.add_argument("--cond-dts", dest="cond_dts")
    p_cond.add_argument("--cond-tol", dest="cond_tol", type=float)
    p_cond.add_argument("--cond-maxit", dest="cond_maxit", type=int)

    p_conv = sub.add_parser("convergence", help="manufactured-solution energy errors and slopes")
    _add_common(p_conv)
    p_conv.add_argument("--mode", choices=["spatial", "temporal"])
    p_conv.add_argument("--levels")

    p_solve = sub.add_parser("solve", help="implicit Euler run with per-step log")
    _add_common(p_solve)
    p_solve.add_argument("--mms", help="manufactured solution name or 'zero'")
    p_solve.add_argument("--dt", type=float)
    p_solve.add_argument("--t-final", dest="t_final", type=float)
    p_solve.add_argument("--solver", choices=SOLVERS)
    p_solve.add_argument("--tol", type=float)
    p_solve.add_argument("--maxit", type=int)

    p_exp = sub.add_parser("export-matrices", help="write M1,B1,B2,B3,M,A[,A*] in Matrix Market format")
    _add_common(p_exp)
    p_exp.add_argument("--dt", type=float, help="also export A* = M + dt A")

    return parser


def _resolve(args) -> dict:
    overrides = {}
    for attr, dest in _OVERRIDES.items():
        if hasattr(args, attr) and getattr(args, attr) is not None:
            overrides[dest] = getattr(args, attr)
    return load_config(args.config, overrides)


def _emit(tables: list[Table], outdir: Path) -> int:
    flagged = False
    for table in tables:
        paths = table.write(outdir)
        print(f"wrote {paths[0]} and {paths[1]}")
        print(table.to_markdown())
        flagged = flagged or bool(table.flags.any())
    return 2 if flagged else 0


def _cmd_iter(cfg) -> int:
    return _emit(list(run_iteration_table(cfg).values()), Path(cfg["output"]["path"]))


def _cmd_cond(cfg) -> int:
    return _emit(list(run_condition_table(cfg).values()), Path(cfg["output"]["path"]))


def _cmd_convergence(cfg) -> int:
    return _emit([run_convergence(cfg)], Path(cfg["output"]["path"]))


def _cmd_solve(cfg) -> int:
    sec = cfg["time"]
    mu = float(cfg["discretization"]["mu"])
    alpha = float(cfg["discretization"]["alpha"])
    name = sec["mms"].strip()
    if name == "zero":
        data = zero_data(mu)
    elif name in NAMED_SOLUTIONS:
        data = NAMED_SOLUTIONS[name](mu).data
    else:
        raise ConfigError(f"unknown problem {name!r} (try {sorted(NAMED_SOLUTIONS)} or zero)")
    label, mesh = build_meshes(cfg)[0]
    space = build_space(mesh, int(cfg["discretization"]["degree"]))
    tcfg = TimeConfig(dt=float(sec["dt"]), t_final=float(sec["t_final"]))
    solver_cfg = SolverConfig(tol=float(cfg["solve"]["tol"]),
                              maxit=int(cfg["solve"]["maxit"]))
    outdir = Path(cfg["output"]["path"])
    outdir.mkdir(parents=True, exist_ok=True)
    log = outdir / "solve_log.csv"
    _, reports = implicit_euler_run(space, data, tcfg, sec["solver"].strip(),
                                    solver_cfg, alpha, log_path=log)
    iters = [r.iterations for r in reports]
    print(f"# config_hash={config_hash(cfg)} mesh={label} solver={sec['solver']}")
    print(f"completed {tcfg.n_steps} steps; iterations min/mean/max = "
          f"{min(iters)}/{sum(iters) / len(iters):.1f}/{max(iters)}")
    print(f"wrote {log}")
    return 0


def _cmd_export(cfg, dt) -> int:
    label, mesh = build_meshes(cfg)[0]
    space = build_space(mesh, int(cfg["discretization"]["degree"]))
    system = assemble_system(space, float(cfg["discretization"]["mu"]),
                             float(cfg["discretization"]["alpha"]))
    outdir = Path(cfg["output"]["path"]) / "matrices"
    written = export_matrices(system, outdir, dt=dt)
    print(f"# config_hash={config_hash(cfg)} mesh={label}")
    print(f"wrote {', '.join(written)} to {outdir}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        if args.command == "iter-table":
            return _cmd_iter(cfg)
        if args.command == "cond-table":
            return _cmd_cond(cfg)
        if args.command == "convergence":
            return _cmd_convergence(cfg)
        if args.command == "solve":
            return _cmd_solve(cfg)
        if args.command == "export-matrices":
            return _cmd_export(cfg, args.dt)
        raise AssertionError(args.command)
    except (TimeStepError, BlockFactorizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, MeshError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
