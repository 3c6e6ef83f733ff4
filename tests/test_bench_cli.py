import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import polystress.bench as bench
import polystress.cli as cli
import polystress.krylov as krylov
from polystress.bench import (ConfigError, _rhs_generator, build_meshes,
                              config_hash, load_config,
                              run_condition_table, run_convergence,
                              run_iteration_table)
from polystress.cli import main
from polystress.krylov import SOLVERS, CondEstimate, SolverReport
from polystress.mesh import FaceKind, agglomerate

FAST = {
    ("mesh", "nx"): "3", ("mesh", "ny"): "3", ("mesh", "targets"): "",
    ("discretization", "degree"): "1",
    ("solve", "dts"): "1e-4,1e-5", ("solve", "solvers"): "cg,dcg",
    ("solve", "repetitions"): "2", ("solve", "maxit"): "4000",
    ("solve", "tol"): "1e-8", ("solve", "seed"): "0",
}


def test_load_config_defaults_and_overrides(tmp_path):
    cfg = load_config(None, {("mesh", "nx"): "7"})
    assert cfg["mesh"]["nx"] == "7"
    assert cfg["solve"]["tol"] == "1e-8"

    path = tmp_path / "bench.ini"
    path.write_text("[mesh]\nnx = 5\n\n[solve]\ndts = 1e-3\n")
    cfg = load_config(path)
    assert cfg["mesh"]["nx"] == "5"
    assert cfg["solve"]["dts"] == "1e-3"

    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")
    path.write_text("[nope]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[mesh]\nbogus = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_hash_stable():
    a = load_config(None, FAST)
    b = load_config(None, FAST)
    assert config_hash(a) == config_hash(b)
    c = load_config(None, {**FAST, ("solve", "seed"): "1"})
    assert config_hash(a) != config_hash(c)


def test_build_meshes_family():
    cfg = load_config(None, {("mesh", "nx"): "6", ("mesh", "ny"): "6",
                             ("mesh", "targets"): "18,9", ("mesh", "seed"): "2"})
    meshes = build_meshes(cfg)
    assert [m.n_elements for _, m in meshes] == [18, 9]
    assert all(label.startswith(f"{m.n_elements}el_h") for label, m in meshes)
    # right edge stays Neumann through agglomeration
    for _, m in meshes:
        assert any(f["kind"] == FaceKind.NEUMANN for f in m.faces)


def test_build_meshes_neumann_none():
    cfg = load_config(None, {("mesh", "neumann"): "none"})
    (_, mesh), = build_meshes(cfg)
    assert all(f["kind"] != FaceKind.NEUMANN for f in mesh.faces)
    with pytest.raises(ConfigError):
        build_meshes(load_config(None, {("mesh", "neumann"): "rihgt"}))


def test_rhs_generator_deterministic_and_uniform():
    a = _rhs_generator(7, 1, 2, 3, 1000)
    b = _rhs_generator(7, 1, 2, 3, 1000)
    c = _rhs_generator(7, 1, 2, 4, 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0.0 and a.max() <= 1.0
    assert 0.4 < a.mean() < 0.6


def test_iteration_table_deterministic_csv():
    cfg = load_config(None, FAST)
    t1 = run_iteration_table(cfg)
    t2 = run_iteration_table(cfg)
    for solver in ("cg", "dcg"):
        assert t1[solver].to_csv() == t2[solver].to_csv()
    csv = t1["cg"].to_csv()
    assert "config_hash=" in csv and "seed=0" in csv
    header = csv.splitlines()[2].split(",")
    assert header[0] == "dt"


def test_iteration_table_flags_at_cap():
    cfg = load_config(None, {**FAST, ("solve", "maxit"): "3",
                             ("solve", "solvers"): "cg"})
    table = run_iteration_table(cfg)["cg"]
    assert np.all(table.values == 3.0)
    assert np.all(table.flags == 2)  # both repetitions failed
    md = table.to_markdown()
    assert "!" in md


# a two-target family, so that the cells of one batch of workers cross
# meshes; every solver, two dts and three repetitions
POOLED = {
    ("mesh", "nx"): "4", ("mesh", "ny"): "4", ("mesh", "targets"): "8,12",
    ("discretization", "degree"): "1", ("solve", "dts"): "1e-4,1e-5",
    ("solve", "solvers"): ",".join(SOLVERS), ("solve", "repetitions"): "3",
    ("solve", "maxit"): "4000", ("solve", "tol"): "1e-8", ("solve", "seed"): "0",
}


def table_threads():
    return [t for t in threading.enumerate() if t.name.startswith("polystress-table")]


@pytest.fixture
def started_threads(monkeypatch):
    """The names of the threads started while the test runs."""
    names, start = [], threading.Thread.start

    def recording_start(thread):
        names.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return names


@pytest.mark.parametrize("cpus", [2, 8], ids=["two-cpus", "eight-cpus"])
def test_iteration_table_pooled_equals_one_cpu(monkeypatch, started_threads, cpus):
    """The pooled tables are byte for byte the one-CPU ones, also with more
    workers than cores and a short switch interval, where a lost write of
    a result would show."""
    cfg = load_config(None, POOLED)
    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0})
    serial = run_iteration_table(cfg)
    assert started_threads == []
    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = run_iteration_table(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert any(name.startswith("polystress-table") for name in started_threads)
    assert table_threads() == []
    assert len(serial["cg"].col_values) == 2 and list(pooled) == list(SOLVERS)
    for solver in SOLVERS:
        assert pooled[solver].to_csv() == serial[solver].to_csv()
        assert pooled[solver].to_markdown() == serial[solver].to_markdown()


class SolveFailed(RuntimeError):
    pass


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "pooled"])
@pytest.mark.parametrize("failing, raised, most_started", [
    # the first job submitted and the first in serial order: every other
    # job of its batch that has not started is cancelled
    ({("cg", 0, 0)}, ("cg", 0, 0), {1: 1, 2: 4}),
    # cg at dt 1e-5 is submitted before pcg-cbj at dt 1e-4, which comes
    # first in serial order (mesh, dt, solver, repetition); the dcg, pcg-bj
    # and pcg-cbj jobs at dt 1e-5 are cancelled
    ({("cg", 1, 2), ("pcg-cbj", 0, 0)}, ("pcg-cbj", 0, 0), {1: 10, 2: 16}),
], ids=["one-failure", "two-failures"])
def test_iteration_table_raises_first_failure_in_serial_order(
        monkeypatch, cpus, failing, raised, most_started):
    """Solves stubbed to fail at chosen (solver, dt, repetition) cells of
    the first mesh: the table raises the failure a serial run meets first,
    the second mesh is never set up, and no pool thread is left."""
    started, built = [], []

    def fake_solver(name, ops, config):
        built.append((name, ops.space.mesh.n_elements))

        def solve(b, x0=None):
            j, i, rep = b
            started.append((name, i, rep))
            if j == 0 and (name, i, rep) in failing:
                raise SolveFailed(name, i, rep)
            time.sleep(0.05)
            return None, SolverReport(1, 0.0)
        return solve

    monkeypatch.setattr(bench, "make_solver", fake_solver)
    monkeypatch.setattr(bench, "_rhs_generator", lambda seed, j, i, rep, n: (j, i, rep))
    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: cpus)
    with pytest.raises(SolveFailed) as err:
        run_iteration_table(load_config(None, POOLED))
    assert err.value.args == raised
    assert len(started) <= most_started[len(cpus)]
    assert {elements for _, elements in built} == {8}
    assert table_threads() == []


# the two-target family of POOLED, three condition dts: six cells
POOLED_COND = {**POOLED, ("condition", "dts"): "1e-6,1e-8,1e-10"}


@pytest.mark.parametrize("cpus", [2, 8], ids=["two-cpus", "eight-cpus"])
def test_condition_table_pooled_equals_one_cpu(monkeypatch, started_threads, cpus):
    """The pooled condition tables are byte for byte the one-CPU ones, also
    with more workers than cores and a short switch interval."""
    cfg = load_config(None, POOLED_COND)
    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0})
    serial = run_condition_table(cfg)
    assert started_threads == []
    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = run_condition_table(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert any(name.startswith("polystress-table") for name in started_threads)
    assert table_threads() == []
    assert serial["raw"].values.shape == (3, 2) and list(pooled) == ["raw", "cbj"]
    for name in ("raw", "cbj"):
        assert pooled[name].to_csv() == serial[name].to_csv()
        assert pooled[name].to_markdown() == serial[name].to_markdown()


class EstimateFailed(RuntimeError):
    pass


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "pooled"])
@pytest.mark.parametrize("failing, raised", [
    ({("raw", 0, 0)}, ("raw", 0, 0)),
    # the slow cbj estimate at dt 1e-6 fails after the raw one at dt 1e-8,
    # but comes first in serial (mesh, dt, raw-then-cbj) order
    ({("cbj", 0, 0), ("raw", 0, 1)}, ("cbj", 0, 0)),
], ids=["one-failure", "two-failures"])
def test_condition_table_raises_first_failure_in_serial_order(monkeypatch, cpus, failing,
                                                              raised):
    """Estimates stubbed to fail at chosen (column, mesh, dt) cells: the
    table raises the failure a serial run meets first, builds no cell past
    the failing batch and leaves no pool thread."""
    drawn = []

    def cells(cfg, meshes, dts):
        for j in range(len(meshes)):
            for i in range(len(dts)):
                drawn.append((j, i))
                yield i, j, SimpleNamespace(astar=(j, i), deflator=None,
                                            block_jacobi=lambda layout: "cbj")

    def estimate(cell, *, preconditioner=None, inverse=None, **_):
        name = "raw" if preconditioner is None else "cbj"
        time.sleep(0.2 if name == "cbj" else 0.01)
        if (name, *cell) in failing:
            raise EstimateFailed(name, *cell)
        return CondEstimate(1.0, 1.0, 1.0, 1, True)

    monkeypatch.setattr(bench, "_cells", cells)
    monkeypatch.setattr(bench, "deflated_inverse", lambda astar, deflator, cbj: "inverse")
    monkeypatch.setattr(bench, "estimate_condition_number", estimate)
    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: cpus)
    with pytest.raises(EstimateFailed) as err:
        run_condition_table(load_config(None, POOLED_COND))
    assert err.value.args == raised
    assert drawn == [(0, i) for i in range(len(cpus))]
    assert table_threads() == []


def test_condition_table_without_lu_of_astar(monkeypatch):
    """At dt <= 1e-8 the raw column's inverse is the inner A-DEF2 solves:
    ``_spd_lu`` factorises the coarse operators W alone, never an n x n
    matrix, and no public solver (whose true residual perfbench counts) is
    called."""
    factorised = []
    spd_lu = krylov._spd_lu

    def recording_spd_lu(matrix, what):
        factorised.append(matrix.shape[0])
        return spd_lu(matrix, what)

    def no_solver(*args, **kwargs):
        raise AssertionError("the condition table called a public solver")

    monkeypatch.setattr(krylov, "_spd_lu", recording_spd_lu)
    for name in ("cg", "pcg", "deflated_cg"):
        monkeypatch.setattr(krylov, name, no_solver)
    cfg = load_config(None, {("mesh", "nx"): "8", ("mesh", "ny"): "8",
                             ("mesh", "targets"): "16", ("discretization", "degree"): "3",
                             ("condition", "dts"): "1e-8,1e-9,1e-10"})
    tables = run_condition_table(cfg)
    n = 4 * 16 * 10  # four stress components, 16 elements, 10 dofs each at p = 3
    assert factorised == [n // 4] * 3
    assert not tables["raw"].flags.any()


def test_condition_table_small():
    cfg = load_config(None, {
        ("mesh", "nx"): "2", ("mesh", "ny"): "2",
        ("discretization", "degree"): "1",
        ("condition", "dts"): "1e-6,1e-7",
        ("condition", "tol"): "1e-4", ("condition", "seed"): "5",
    })
    tables = run_condition_table(cfg)
    # the estimator's start vector is keyed by [condition] seed, not [solve] seed
    header = tables["raw"].header_lines()[1].split()
    assert "estimator_seed=5" in header and "seed=0" in header
    raw, cbj = tables["raw"].values, tables["cbj"].values
    assert 8.0 <= raw[1, 0] / raw[0, 0] <= 12.0
    assert abs(cbj[1, 0] - cbj[0, 0]) <= 0.05 * cbj[0, 0]
    assert not tables["raw"].flags.any()


def test_condition_table_pinned():
    """Lanczos estimates on an agglomerated mesh, pinned to the digits the
    table prints.  The values were computed with fully reorthogonalised
    Krylov bases, a reference independent of CG's own tridiagonal."""
    cfg = load_config(None, {("mesh", "nx"): "8", ("mesh", "ny"): "8",
                             ("mesh", "targets"): "16", ("discretization", "degree"): "3",
                             ("condition", "dts"): "1e-8,1e-9"})
    tables = run_condition_table(cfg)
    rows = {k: tables[k].to_csv().splitlines()[2:] for k in ("raw", "cbj")}
    assert rows == {
        "raw": ["dt,16el_h0.8004,16el_h0.8004_flag",
                "1e-08,9.8557e+07,0", "1e-09,9.8547e+08,0"],
        "cbj": ["dt,16el_h0.8004,16el_h0.8004_flag",
                "1e-08,3.2682e+03,0", "1e-09,3.2682e+03,0"],
    }


# the tables of test_convergence_tables, byte for byte
SPATIAL_CSV = """\
# polystress convergence_spatial
# config_hash=1cceb3d28cb4 seed=0 tol=1e-8 maxit=20000 mode=spatial degree=1
level,h,dt,energy_error,slope,h_flag,dt_flag,energy_error_flag,slope_flag
0,3.535534e-01,1.000000e-04,1.450288e+00,nan,0,0,0,0
1,1.767767e-01,1.000000e-04,7.707858e-01,9.119370e-01,0,0,0,0
"""
TEMPORAL_CSV = """\
# polystress convergence_temporal
# config_hash=261f49b69a92 seed=0 tol=1e-8 maxit=30000 mode=temporal degree=1
level,h,dt,energy_error,slope,h_flag,dt_flag,energy_error_flag,slope_flag
0,7.071068e-01,2.000000e-01,7.020299e-02,nan,0,0,0,0
1,7.071068e-01,1.000000e-01,3.464493e-02,1.018888e+00,0,0,0,0
"""


def test_convergence_tables():
    cfg = load_config(None, {
        ("convergence", "mode"): "spatial",
        ("convergence", "degree"): "1",
        ("convergence", "levels"): "4,8",
        ("convergence", "dt"): "1e-4",
        ("convergence", "steps"): "1",
        ("solve", "maxit"): "20000",
    })
    table = run_convergence(cfg)
    err, slope = table.values[:, 2], table.values[-1, 3]
    assert err[1] < err[0]
    assert slope >= 0.8
    assert table.to_csv() == SPATIAL_CSV

    cfg = load_config(None, {
        ("convergence", "mode"): "temporal",
        ("convergence", "degree"): "1",
        ("convergence", "nx"): "2",
        ("convergence", "dts"): "0.2,0.1",
        ("convergence", "t_final"): "0.4",
    })
    table = run_convergence(cfg)
    assert table.values[-1, 3] >= 0.9
    assert table.to_csv() == TEMPORAL_CSV


def test_balanced_marking():
    cfg = load_config(None, {**FAST, ("solve", "dts"): "1e-1,1e-6"})
    table = run_iteration_table(cfg)["cg"]
    # h ~ 0.47, p = 1: h^p ~ 0.47 -> dt = 1e-1 is balanced, 1e-6 is not
    assert table.balanced[0, 0] and not table.balanced[1, 0]
    assert "*" in table.to_markdown()


# -- CLI ----------------------------------------------------------------------

def run_cli(args):
    return main(args)


def test_cli_iter_table_roundtrip(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["iter-table", "--nx", "3", "--ny", "3", "--degree", "1",
            "--dts", "1e-4,1e-5", "--solvers", "dcg", "--repetitions", "2",
            "--maxit", "4000", "--seed", "0"]
    assert run_cli(args + ["--output", str(out1)]) == 0
    assert run_cli(args + ["--output", str(out2)]) == 0
    assert (out1 / "iter_dcg.csv").read_bytes() == (out2 / "iter_dcg.csv").read_bytes()
    assert (out1 / "iter_dcg.md").exists()


def test_cli_exit_code_on_flagged(tmp_path):
    code = run_cli(["iter-table", "--nx", "2", "--ny", "2", "--degree", "1",
                    "--dts", "1e-5", "--solvers", "cg", "--repetitions", "1",
                    "--maxit", "2", "--output", str(tmp_path)])
    assert code == 2


def test_cli_warns_on_stalled_agglomeration(tmp_path, capsys):
    """A 6x6 grid stalls at 5 elements on its way to 1: one warning on
    stderr names both counts, and the command still writes its output."""
    args = ["export-matrices", "--nx", "6", "--ny", "6", "--degree", "1",
            "--output", str(tmp_path)]
    assert run_cli(args + ["--targets", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "warning: agglomeration to 1 elements stalled at 5 elements"]
    assert "mesh=5el_h" in captured.out
    assert run_cli(args + ["--targets", "9"]) == 0
    assert capsys.readouterr().err == ""
    # only the first target is built: the stall on the way to 1 is not reached
    assert run_cli(args + ["--targets", "9,1"]) == 0
    assert capsys.readouterr().err == ""


def test_cli_exit_code_on_config_error(tmp_path, capsys):
    assert run_cli(["iter-table", "-c", str(tmp_path / "nope.ini")]) == 1
    assert run_cli(["solve", "--mms", "warp", "--output", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err



@pytest.mark.parametrize("text,says", [
    ("[solve]\ntol = 1e-8\ntol = 1e-9\n", "line 3: repeated key"),
    ("[solve]\ntol = 1e-8\n[solve]\nmaxit = 5\n", "line 3: repeated section"),
    ("tol = 1e-8\n", "line 1: key before any [section]"),
    ("[solve]\ngarbage\n", "line 2: not a [section] header or a key = value line"),
], ids=["repeated-key", "repeated-section", "no-section", "no-equals"])
def test_malformed_config_file_is_one_line_error(tmp_path, capsys, text, says):
    """A file configparser cannot read exits 1 with one stderr line that
    names the file and the line."""
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    assert run_cli(["iter-table", "-c", str(ini)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"configuration error: {ini}, {says}"], err


def test_config_values_are_literal(tmp_path):
    """A % in a value is kept as written: no interpolation."""
    ini = tmp_path / "percent.ini"
    ini.write_text("[output]\npath = out%1\n")
    assert load_config(ini)["output"]["path"] == "out%1"

def test_unknown_solver_rejected_before_meshes(tmp_path, monkeypatch, capsys):
    def fail(cfg):
        raise AssertionError("meshes built before the solver names were checked")

    monkeypatch.setattr(bench, "_mesh_family", fail)
    out = ["--output", str(tmp_path)]
    assert run_cli(["iter-table", "--nx", "60", "--ny", "60", "--targets", "900",
                    "--solvers", "dcg,sor"] + out) == 1
    assert "[solve] solvers" in capsys.readouterr().err
    for sec, key, command in (("time", "solver", "solve"),
                              ("convergence", "solver", "convergence")):
        ini = tmp_path / f"{sec}.ini"
        ini.write_text(f"[{sec}]\n{key} = sor\n")
        assert run_cli([command, "-c", str(ini)] + out) == 1
        assert f"[{sec}] {key}" in capsys.readouterr().err
    # every other checked value is rejected as early, named by its key;
    # only solve takes the "zero" problem
    for command, sec, key, value, says in (
            ("iter-table", "mesh", "neumann", "rihgt", "'rihgt'"),
            ("solve", "time", "mms", "warp", "'warp'"),
            ("convergence", "convergence", "mms", "zero", "'zero'"),
            ("convergence", "convergence", "mode", "both", "'both'"),
            ("iter-table", "solve", "repetitions", "0", ">= 1"),
            ("iter-table", "solve", "solvers", "dcg,cg,dcg", "'dcg' repeated"),
            ("solve", "time", "solver", "", "empty list"),
            ("iter-table", "solve", "dts", ",", "empty list"),
            ("cond-table", "condition", "dts", "", "empty list"),
            # every list key but [mesh] targets, whatever the command
            ("iter-table", "convergence", "levels", "", "empty list"),
            ("solve", "convergence", "dts", ";", "empty list")):
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[{sec}]\n{key} = {value}\n")
        assert run_cli([command, "-c", str(ini)] + out) == 1
        err = capsys.readouterr().err
        assert f"[{sec}] {key}" in err and says in err, err


def test_single_solver_keys_and_numbers_rejected_before_meshes(tmp_path, monkeypatch,
                                                               capsys):
    def fail(cfg):
        raise AssertionError("meshes built before the config was checked")

    monkeypatch.setattr(bench, "_mesh_family", fail)
    out = ["--output", str(tmp_path)]
    for command, sec, key, value, says in (
            ("solve", "time", "solver", "cg,dcg", "one solver name"),
            ("convergence", "convergence", "solver", "cg;pcg-cbj", "one solver name"),
            ("iter-table", "solve", "repetitions", "two", "'two' is not an integer"),
            ("iter-table", "solve", "tol", "tight", "'tight' is not a number"),
            ("cond-table", "condition", "maxit", "1e3", "'1e3' is not an integer"),
            ("iter-table", "mesh", "targets", "100,many", "'many' is not an integer"),
            ("iter-table", "convergence", "levels", "2,x", "'x' is not an integer"),
            ("solve", "time", "dt", "", "'' is not a number"),
            ("convergence", "convergence", "levels", "0", ">= 1"),
            ("cond-table", "condition", "seed", "-1", ">= 0")):
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[{sec}]\n{key} = {value}\n")
        assert run_cli([command, "-c", str(ini)] + out) == 1
        err = capsys.readouterr().err
        assert f"[{sec}] {key}" in err and says in err, err
    # numbers out of the range the library accepts
    for argv, dest, says in (
            (["iter-table", "--degree", "0"], "[discretization] degree", ">= 1"),
            (["iter-table", "--nx", "0"], "[mesh] nx", ">= 1"),
            (["iter-table", "--targets", "0"], "[mesh] targets", ">= 1"),
            (["iter-table", "--tol", "0"], "[solve] tol", "in (0, 1)"),
            (["cond-table", "--cond-tol", "2"], "[condition] tol", "in (0, 1)"),
            (["solve", "--dt", "-0.01"], "[time] dt", "in (0, inf)"),
            (["iter-table", "--seed", "-1"], "[solve] seed", ">= 0"),
            (["iter-table", "--repetitions", str(2**20 + 1)], "[solve] repetitions",
             f"< {2**20 + 1}"),
            (["iter-table", "--seed", str(2**64)], "[solve] seed", f"< {2**64}"),
            (["iter-table", "--mesh-seed", "-1"], "[mesh] seed", ">= 0"),
            (["iter-table", "--alpha", "0"], "[discretization] alpha", "in (0, inf)"),
            (["cond-table", "--alpha", "-5"], "[discretization] alpha", "in (0, inf)")):
        assert run_cli(argv + out) == 1, argv
        err = capsys.readouterr().err
        assert dest in err and "out of range" in err and says in err, err


def test_every_numeric_key_is_typed_once():
    kinds = {k: kind for k, (_, kind) in bench.KEYS.items()}
    numeric = {k for k, kind in kinds.items()
               if isinstance(kind[0] if isinstance(kind, list) else kind, bench.Number)}
    text = {("mesh", "file"), ("mesh", "neumann"), ("solve", "solvers"),
            ("convergence", "mode"), ("convergence", "mms"), ("convergence", "solver"),
            ("time", "solver"), ("time", "mms"), ("output", "path")}
    assert numeric | text == set(kinds) and not numeric & text
    # the flags name keys, and take their type and allowed values from KEYS
    assert all(dest in kinds for dest in cli.FLAGS.values())
    cfg = load_config()
    assert {(sec, key) for sec in cfg for key in cfg[sec]} == set(kinds)
    assert bench.value(cfg, "solve", "maxit") == 30000
    assert bench.value(cfg, "solve", "tol") == 1e-8
    assert bench.value(cfg, "solve", "dts") == [1e-6, 1e-7, 1e-8]
    assert bench.value(cfg, "mesh", "targets") == []


def _metavar(command, dest):
    sub = cli.build_parser()._subparsers._group_actions[0].choices[command]
    return next(a.metavar for a in sub._actions if a.dest == dest)


def test_solver_names_come_from_one_table():
    assert bench.KEYS[("time", "solver")][1] is SOLVERS
    assert bench.KEYS[("convergence", "solver")][1] is SOLVERS
    assert bench.KEYS[("solve", "solvers")][1] == [SOLVERS]
    assert _metavar("solve", "solver") == "{" + ",".join(SOLVERS) + "}"
    assert tuple(load_config()["solve"]["solvers"].split(",")) == SOLVERS
    # choice flags list the allowed names of their key
    assert _metavar("iter-table", "neumann") == "{none,right,left,top,bottom}"
    assert _metavar("convergence", "mode") == "{spatial,temporal}"
    assert _metavar("iter-table", "solvers") is None


def test_bad_flag_values_exit_1_naming_the_key(tmp_path, monkeypatch, capsys):
    def fail(cfg):
        raise AssertionError("meshes built before the flags were checked")

    monkeypatch.setattr(bench, "_mesh_family", fail)
    out = ["--output", str(tmp_path)]
    for argv, dest, says in (
            (["iter-table", "--nx", "abc"], "[mesh] nx", "'abc' is not an integer"),
            (["iter-table", "--tol", "tight"], "[solve] tol", "'tight' is not a number"),
            (["solve", "--solver", "sor"], "[time] solver", "'sor'"),
            (["cond-table", "--neumann", "diagonal"], "[mesh] neumann", "'diagonal'"),
            (["export-matrices", "--dt", "zero"], "[time] dt", "'zero' is not a number")):
        assert run_cli(argv + out) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and dest in err and says in err, err


def test_choice_flags_match_file_values(tmp_path):
    parser = cli.build_parser()
    for command, flag, sec, key, text in (("iter-table", "--neumann", "mesh", "neumann", "TOP"),
                                          ("convergence", "--mode", "convergence", "mode",
                                           "Temporal")):
        ini = tmp_path / "choice.ini"
        ini.write_text(f"[{sec}]\n{key} = {text}\n")
        from_flag = cli._resolve(parser.parse_args([command, flag, text]))
        assert from_flag == load_config(ini)
        assert bench.value(from_flag, sec, key) == text.lower()


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    ini = tmp_path / "bench.ini"
    ini.write_text(block)
    cfg = load_config(ini)
    assert bench.value(cfg, "mesh", "targets") == [100, 50]
    assert bench.value(cfg, "mesh", "neumann") == "right"
    assert bench.value(cfg, "discretization", "alpha") == 10.0


# Every option of every subcommand: the value it is given below, the
# (section, key) it sets, and the config hash when all of them are given.
_COMMON_FLAGS = {
    "--output": ("elsewhere", ("output", "path")),
    "--nx": ("5", ("mesh", "nx")),
    "--ny": ("6", ("mesh", "ny")),
    "--targets": ("8,4", ("mesh", "targets")),
    "--mesh-file": ("grid.txt", ("mesh", "file")),
    "--mesh-seed": ("3", ("mesh", "seed")),
    "--neumann": ("top", ("mesh", "neumann")),
    "--degree": ("2", ("discretization", "degree")),
    "--alpha": ("12.5", ("discretization", "alpha")),
    "--mu": ("2", ("discretization", "mu")),
}
_SOLVE_FLAGS = {
    "--tol": ("1e-8", ("solve", "tol")),
    "--maxit": ("500", ("solve", "maxit")),
}
CLI_SURFACE = {
    "iter-table": ({**_COMMON_FLAGS, **_SOLVE_FLAGS,
                    "--dts": ("1e-5,1e-6", ("solve", "dts")),
                    "--solvers": ("dcg,pcg-cbj", ("solve", "solvers")),
                    "--repetitions": ("2", ("solve", "repetitions")),
                    "--seed": ("4", ("solve", "seed"))},
                   "5d7a19c6c285"),
    "cond-table": ({**_COMMON_FLAGS,
                    "--cond-dts": ("1e-9", ("condition", "dts")),
                    "--cond-tol": ("1e-4", ("condition", "tol")),
                    "--cond-maxit": ("300", ("condition", "maxit"))},
                   "d4b54abf7352"),
    # convergence builds its own meshes at [convergence] degree: no mesh
    # family flags, no --degree
    "convergence": ({**{flag: _COMMON_FLAGS[flag]
                        for flag in ("--output", "--neumann", "--alpha", "--mu")},
                     "--mode": ("temporal", ("convergence", "mode")),
                     "--levels": ("2,4", ("convergence", "levels"))},
                    "3d89ea88a9cd"),
    "solve": ({**_COMMON_FLAGS, **_SOLVE_FLAGS,
               "--mms": ("linear_in_space", ("time", "mms")),
               "--dt": ("0.02", ("time", "dt")),
               "--t-final": ("0.2", ("time", "t_final")),
               "--solver": ("pcg-bj", ("time", "solver"))},
              "59f11f27b852"),
    "export-matrices": ({**_COMMON_FLAGS, "--dt": ("1e-3", ("time", "dt"))},
                        "4b46bdb85459"),
}


@pytest.mark.parametrize("command", sorted(CLI_SURFACE))
def test_cli_surface_pinned(command):
    flags, expected_hash = CLI_SURFACE[command]
    parser = cli.build_parser()
    sub = parser._subparsers._group_actions[0].choices[command]
    options = {s for a in sub._actions for s in a.option_strings}
    assert options == {"-h", "--help", "-c", "--config"} | set(flags)

    defaults = load_config()
    assert config_hash(defaults) == "fbdb51707246"
    for flag, (value, dest) in flags.items():
        cfg = cli._resolve(parser.parse_args([command, flag, value]))
        changed = {(sec, key) for sec in cfg for key in cfg[sec]
                   if cfg[sec][key] != defaults[sec][key]}
        assert changed == {dest}, flag

    argv = [command] + [tok for flag, (value, _) in flags.items() for tok in (flag, value)]
    cfg = cli._resolve(parser.parse_args(argv))
    assert cfg["solve"]["tol"] == ("1e-08" if "--tol" in flags else "1e-8")
    assert config_hash(cfg) == expected_hash


def test_cli_cond_table(tmp_path):
    code = run_cli(["cond-table", "--nx", "2", "--ny", "2", "--degree", "1",
                    "--cond-dts", "1e-6,1e-7", "--cond-tol", "1e-3",
                    "--output", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "cond_raw.csv").exists()
    assert (tmp_path / "cond_cbj.csv").exists()


def test_cli_convergence(tmp_path):
    ini = tmp_path / "convergence.ini"
    ini.write_text("[convergence]\ndegree = 1\n")
    code = run_cli(["convergence", "-c", str(ini), "--mode", "temporal",
                    "--output", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "convergence_temporal.csv").exists()


def test_cli_solve(tmp_path, capsys):
    code = run_cli(["solve", "--nx", "2", "--ny", "2", "--degree", "1",
                    "--mms", "linear_in_space", "--dt", "0.05", "--t-final", "0.2",
                    "--solver", "dcg", "--output", str(tmp_path)])
    assert code == 0
    log = (tmp_path / "solve_log.csv").read_text().splitlines()
    assert log[0] == "step,time,iterations,residual,wall_s,true_residual"
    assert len(log) == 5
    for line in log[1:]:
        assert np.all(np.isfinite([float(v) for v in line.split(",")[4:]]))
    assert "completed 4 steps" in capsys.readouterr().out


def test_cli_solve_agglomerates_only_the_first_target(tmp_path, monkeypatch):
    calls = []

    def counting(mesh, target, seed):
        calls.append(target)
        return agglomerate(mesh, target, seed)

    monkeypatch.setattr(bench, "agglomerate", counting)
    assert run_cli(["solve", "--nx", "4", "--ny", "4", "--targets", "8,4", "--degree", "1",
                    "--dt", "0.05", "--t-final", "0.1", "--output", str(tmp_path)]) == 0
    assert calls == [8]


def test_cli_solve_reports_block_factorization_error(tmp_path, capsys):
    # alpha = 1e-3 is far too small a penalty: the deflation coarse operator
    # is indefinite, so building the dcg stepper fails
    code = run_cli(["solve", "--nx", "4", "--ny", "4", "--targets", "16",
                    "--neumann", "right", "--degree", "2", "--alpha", "1e-3",
                    "--dt", "1e-3", "--t-final", "2e-3", "--solver", "dcg",
                    "--output", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: coarse deflation operator is not positive definite")


def test_cli_solve_names_the_stop_reason(tmp_path, capsys):
    code = run_cli(["solve", "--nx", "2", "--ny", "2", "--degree", "1",
                    "--mms", "linear_in_space", "--dt", "0.05", "--t-final", "0.2",
                    "--solver", "cg", "--tol", "1e-12", "--maxit", "2",
                    "--output", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: linear solver failed to converge at step 1 of 4")
    assert err[0].endswith("stopped on maxit)")


def test_cli_solve_zero_problem(tmp_path):
    assert run_cli(["solve", "--nx", "2", "--ny", "2", "--degree", "1",
                    "--mms", "zero", "--dt", "0.1", "--t-final", "0.2",
                    "--solver", "cg", "--output", str(tmp_path)]) == 0


def test_cli_reads_mesh_file(tmp_path):
    from polystress import build_cartesian_mesh, write_mesh
    mesh_path = tmp_path / "grid.txt"
    write_mesh(build_cartesian_mesh(3, 3), mesh_path)
    code = run_cli(["export-matrices", "--mesh-file", str(mesh_path),
                    "--degree", "1", "--output", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "matrices" / "A.mtx").exists()
    assert run_cli(["export-matrices", "--mesh-file", str(tmp_path / "nope.txt"),
                    "--output", str(tmp_path)]) == 1


def test_cli_config_file_end_to_end(tmp_path):
    ini = tmp_path / "bench.ini"
    ini.write_text(
        "[mesh]\nnx = 3\nny = 3\n\n"
        "[discretization]\ndegree = 1\n\n"
        "[solve]\ndts = 1e-4\nsolvers = dcg\nrepetitions = 1\nmaxit = 3000\n\n"
        f"[output]\npath = {tmp_path / 'out'}\n")
    assert run_cli(["iter-table", "-c", str(ini)]) == 0
    # flags override the file
    assert run_cli(["iter-table", "-c", str(ini), "--solvers", "cg",
                    "--output", str(tmp_path / "out2")]) == 0
    assert (tmp_path / "out" / "iter_dcg.csv").exists()
    assert (tmp_path / "out2" / "iter_cg.csv").exists()


def test_cli_export_matrices(tmp_path):
    code = run_cli(["export-matrices", "--nx", "2", "--ny", "2", "--degree", "1",
                    "--dt", "1e-3", "--output", str(tmp_path)])
    assert code == 0
    for name in ("M1", "B1", "B2", "B3", "M", "A", "Astar"):
        assert (tmp_path / "matrices" / f"{name}.mtx").exists()
