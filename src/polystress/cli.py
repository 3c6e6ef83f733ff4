"""Command-line harness.

Subcommands: cond-table, iter-table, convergence, solve, export-matrices.
Each option overrides one config-file key (``FLAGS``).  Exit codes: 0 on
success, 1 on configuration errors, 2 when any solve or estimate was
flagged as non-converged, when a time step failed (its message names the
solver's stop reason: maxit, breakdown or non_finite), or when a matrix
that must be SPD (a Block-Jacobi block, the deflation coarse operator)
failed its factorisation; a failure prints a one-line ``error:`` message.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (KEYS, ConfigError, Number, config_hash, load_config, parse,
                    run_condition_table, run_convergence, run_export,
                    run_iteration_table, run_solve, value)
from .krylov import BlockFactorizationError
from .mesh import MeshError
from .timestepper import TimeStepError

# flag -> the (section, key) of the config key it sets; its type and allowed
# values are the key's kind in bench.KEYS
FLAGS = {
    "--output": ("output", "path"),
    "--nx": ("mesh", "nx"),
    "--ny": ("mesh", "ny"),
    "--targets": ("mesh", "targets"),
    "--mesh-file": ("mesh", "file"),
    "--mesh-seed": ("mesh", "seed"),
    "--neumann": ("mesh", "neumann"),
    "--degree": ("discretization", "degree"),
    "--alpha": ("discretization", "alpha"),
    "--mu": ("discretization", "mu"),
    "--dts": ("solve", "dts"),
    "--solvers": ("solve", "solvers"),
    "--tol": ("solve", "tol"),
    "--maxit": ("solve", "maxit"),
    "--repetitions": ("solve", "repetitions"),
    "--seed": ("solve", "seed"),
    "--cond-dts": ("condition", "dts"),
    "--cond-tol": ("condition", "tol"),
    "--cond-maxit": ("condition", "maxit"),
    "--mode": ("convergence", "mode"),
    "--levels": ("convergence", "levels"),
    "--mms": ("time", "mms"),
    "--dt": ("time", "dt"),
    "--t-final": ("time", "t_final"),
    "--solver": ("time", "solver"),
}
# convergence builds its own Cartesian meshes from [convergence], so it takes
# only the _COMMON flags of the mesh family and discretisation
_COMMON = ("--output", "--neumann", "--alpha", "--mu")
_MESH = _COMMON + ("--nx", "--ny", "--targets", "--mesh-file", "--mesh-seed", "--degree")


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
    solver = value(cfg, "time", "solver")
    print(f"# config_hash={config_hash(cfg)} mesh={label} solver={solver}")
    print(f"completed {len(reports)} steps; iterations min/mean/max = "
          f"{min(iters)}/{sum(iters) / len(iters):.1f}/{max(iters)}")
    print(f"wrote {log}")
    return 0


def _export(cfg, args) -> int:
    dt = None if args.dt is None else value(cfg, "time", "dt")
    label, outdir, written = run_export(cfg, dt)
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
                    _COMMON + ("--mode", "--levels"),
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
            sec, key = FLAGS[flag]
            kind = KEYS[(sec, key)][1]
            names = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else None
            p.add_argument(flag, metavar=names, help=f"sets [{sec}] {key}")
    return parser


def _resolve(args) -> dict:
    """The config of the file and flags.  A numeric flag is stored as
    str() of its parsed value, other flags as given."""
    overrides = {}
    for flag in COMMANDS[args.command][1]:
        text = getattr(args, flag[2:].replace("-", "_"))
        sec, key = FLAGS[flag]
        if text is not None and isinstance(KEYS[(sec, key)][1], Number):
            text = str(parse(sec, key, text))
        overrides[(sec, key)] = text
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
