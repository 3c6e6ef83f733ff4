"""Command-line harness.

Subcommands: cond-table, iter-table, convergence, solve, export-matrices.
Each option overrides one config-file key (``FLAGS``).  Exit codes: 0 on
success, 1 on configuration errors, 2 when any solve or estimate was
flagged as non-converged, when a time step failed, or when a matrix that
must be SPD (a Block-Jacobi block, the deflation coarse operator) failed
its factorisation; a failure prints a one-line ``error:`` message.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (CONVERGENCE_MODES, NEUMANN_SIDES, ConfigError, config_hash,
                    load_config, run_condition_table, run_convergence,
                    run_export, run_iteration_table, run_solve)
from .krylov import SOLVERS, BlockFactorizationError
from .mesh import MeshError
from .timestepper import TimeStepError

# flag -> (section, key, argparse type, choices) of the config key it sets
FLAGS = {
    "--output": ("output", "path", str, None),
    "--nx": ("mesh", "nx", int, None),
    "--ny": ("mesh", "ny", int, None),
    "--targets": ("mesh", "targets", str, None),
    "--mesh-file": ("mesh", "file", str, None),
    "--mesh-seed": ("mesh", "seed", int, None),
    "--neumann": ("mesh", "neumann", str, tuple(NEUMANN_SIDES)),
    "--degree": ("discretization", "degree", int, None),
    "--alpha": ("discretization", "alpha", float, None),
    "--mu": ("discretization", "mu", float, None),
    "--dts": ("solve", "dts", str, None),
    "--solvers": ("solve", "solvers", str, None),
    "--tol": ("solve", "tol", float, None),
    "--maxit": ("solve", "maxit", int, None),
    "--repetitions": ("solve", "repetitions", int, None),
    "--seed": ("solve", "seed", int, None),
    "--cond-dts": ("condition", "dts", str, None),
    "--cond-tol": ("condition", "tol", float, None),
    "--cond-maxit": ("condition", "maxit", int, None),
    "--mode": ("convergence", "mode", str, CONVERGENCE_MODES),
    "--levels": ("convergence", "levels", str, None),
    "--mms": ("time", "mms", str, None),
    "--dt": ("time", "dt", float, None),
    "--t-final": ("time", "t_final", float, None),
    "--solver": ("time", "solver", str, SOLVERS),
}
_MESH = ("--output", "--nx", "--ny", "--targets", "--mesh-file", "--mesh-seed",
         "--neumann", "--degree", "--alpha", "--mu")


def _tables(tables, cfg) -> int:
    flagged = False
    for table in tables:
        paths = table.write(Path(cfg["output"]["path"]))
        print(f"wrote {paths[0]} and {paths[1]}")
        print(table.to_markdown())
        flagged = flagged or bool(table.flags.any())
    return 2 if flagged else 0


def _solve(cfg, args) -> int:
    label, reports, log = run_solve(cfg)
    iters = [r.iterations for r in reports]
    print(f"# config_hash={config_hash(cfg)} mesh={label} solver={cfg['time']['solver']}")
    print(f"completed {len(reports)} steps; iterations min/mean/max = "
          f"{min(iters)}/{sum(iters) / len(iters):.1f}/{max(iters)}")
    print(f"wrote {log}")
    return 0


def _export(cfg, args) -> int:
    label, outdir, written = run_export(cfg, args.dt)
    print(f"# config_hash={config_hash(cfg)} mesh={label}")
    print(f"wrote {', '.join(written)} to {outdir}")
    return 0


# command -> (help, flags, runner(cfg, args) -> exit code)
COMMANDS = {
    "iter-table": ("mean iteration counts per (dt, mesh, solver)",
                   _MESH + ("--dts", "--solvers", "--tol", "--maxit", "--repetitions", "--seed"),
                   lambda cfg, args: _tables(run_iteration_table(cfg).values(), cfg)),
    "cond-table": ("condition numbers of A* raw and preconditioned",
                   _MESH + ("--cond-dts", "--cond-tol", "--cond-maxit"),
                   lambda cfg, args: _tables(run_condition_table(cfg).values(), cfg)),
    "convergence": ("manufactured-solution energy errors and slopes",
                    _MESH + ("--mode", "--levels"),
                    lambda cfg, args: _tables([run_convergence(cfg)], cfg)),
    "solve": ("implicit Euler run with per-step log ('--mms zero' for no forcing)",
              _MESH + ("--mms", "--dt", "--t-final", "--solver", "--tol", "--maxit"),
              _solve),
    "export-matrices": ("write M1,B1,B2,B3,M,A in Matrix Market format, "
                        "and A* = M + dt A with --dt",
                        _MESH + ("--dt",),
                        _export),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polystress",
        description="PolyDG pseudo-stress Stokes benchmarks: dt-robust Krylov solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("-c", "--config", help="config file (key=value sections)")
        for flag in flags:
            sec, key, type_, choices = FLAGS[flag]
            p.add_argument(flag, type=type_, choices=choices, help=f"sets [{sec}] {key}")
    return parser


def _resolve(args) -> dict:
    overrides = {FLAGS[flag][:2]: getattr(args, flag[2:].replace("-", "_"))
                 for flag in COMMANDS[args.command][1]}
    return load_config(args.config, overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][2](_resolve(args), args)
    except (TimeStepError, BlockFactorizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, MeshError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
