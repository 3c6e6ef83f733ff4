import collections
import dataclasses
import threading

import numpy as np
import pytest

import assembly_oracle as oracle
import polystress.krylov as krylov
import polystress.timestepper as timestepper
from polystress import (SolverConfig, TimeConfig, TimeStepError, build_space,
                        implicit_euler_run, l2_project)
from polystress.assembly import assemble_rhs, assemble_system, build_system, load_terms
from polystress.bench import load_config, run_condition_table, run_iteration_table
from polystress.problems import (DataTerms, linear_in_space_solution, trig_solution,
                                 zero_data)
from polystress.timestepper import EnergyNorm


def test_time_config():
    tc = TimeConfig(dt=0.1, t_final=1.0)
    assert tc.n_steps == 10
    assert tc.n_steps * tc.dt == pytest.approx(tc.t_final)
    assert TimeConfig.from_steps(7, 0.25).t_final == pytest.approx(1.75)
    with pytest.raises(ValueError):
        TimeConfig(dt=0.3, t_final=1.0)  # does not tile
    with pytest.raises(ValueError):
        TimeConfig(dt=-0.1, t_final=1.0)
    with pytest.raises(ValueError):
        TimeConfig(dt=0.1, t_final=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_time_config_rejects_non_finite(bad):
    """A NaN or infinite dt or t_final is named, not met later as a failed
    integer conversion."""
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        TimeConfig(dt=bad, t_final=1.0)
    with pytest.raises(ValueError, match="t_final must be positive and finite"):
        TimeConfig(dt=0.1, t_final=bad)


def test_zero_data_stays_zero(mesh22):
    space = build_space(mesh22, 1)
    sigma, reports = implicit_euler_run(space, zero_data(), TimeConfig(0.1, 0.3), "cg")
    assert np.all(sigma == 0.0)
    assert all(r.iterations == 0 for r in reports)


def test_steady_solution_is_fixed_point(mesh33):
    mms = oracle.steady_polynomial_solution(1)
    space = build_space(mesh33, 2)
    tc = TimeConfig.from_steps(10, 0.01)
    sigma, reports = implicit_euler_run(space, mms.data, tc, "dcg",
                                        SolverConfig(tol=1e-12, maxit=5000))
    exact = l2_project(space, lambda x, y: mms.sigma(x, y, tc.t_final))
    assert np.abs(sigma - exact).max() < 1e-8
    assert len(reports) == 10


@pytest.mark.parametrize("solver", ["cg", "dcg", "pcg-bj", "pcg-cbj"])
def test_all_solvers_integrate(poly_mesh, solver):
    mms = oracle.steady_polynomial_solution(1)
    space = build_space(poly_mesh, 1)
    tc = TimeConfig.from_steps(3, 0.05)
    sigma, _ = implicit_euler_run(space, mms.data, tc, solver,
                                  SolverConfig(tol=1e-11, maxit=5000))
    exact = l2_project(space, lambda x, y: mms.sigma(x, y, tc.t_final))
    assert np.abs(sigma - exact).max() < 1e-7


def test_unknown_solver(mesh22):
    space = build_space(mesh22, 1)
    with pytest.raises(ValueError):
        implicit_euler_run(space, zero_data(), TimeConfig(0.1, 0.1), "sor")


def test_nonconvergence_aborts_with_step(mesh33):
    mms = trig_solution()
    space = build_space(mesh33, 2)
    with pytest.raises(TimeStepError) as err:
        implicit_euler_run(space, mms.data, TimeConfig(0.01, 0.05), "cg",
                           SolverConfig(tol=1e-12, maxit=2))
    assert err.value.step == 0
    # the message numbers steps as the per-step log does, from 1
    assert "failed to converge at step 1 of 5 (t = 0.01," in str(err.value)
    assert str(err.value).endswith(", stopped on maxit)")


def test_factorisations_built_once(mesh33, monkeypatch):
    calls, threads = [], set()
    orig_deflator, orig_bj = krylov.build_deflator, krylov.build_block_jacobi

    def counting_deflator(*args, **kwargs):
        calls.append("deflator")
        threads.add(threading.current_thread())
        return orig_deflator(*args, **kwargs)

    def counting_bj(astar, space, layout):
        calls.append(layout)
        threads.add(threading.current_thread())
        return orig_bj(astar, space, layout)

    monkeypatch.setattr(krylov, "build_deflator", counting_deflator)
    monkeypatch.setattr(krylov, "build_block_jacobi", counting_bj)
    mms = oracle.steady_polynomial_solution(1)
    space = build_space(mesh33, 1)
    implicit_euler_run(space, mms.data, TimeConfig.from_steps(5, 0.02), "dcg",
                       SolverConfig(tol=1e-10, maxit=3000))
    assert calls == ["deflator"]

    # the iteration table builds each factorisation once per (mesh, dt),
    # not once per repetition
    calls.clear()
    cfg = load_config(None, {
        ("mesh", "nx"): "3", ("mesh", "ny"): "3", ("discretization", "degree"): "1",
        ("solve", "dts"): "1e-4,1e-5", ("solve", "repetitions"): "3",
        ("solve", "solvers"): "dcg,pcg-bj,pcg-cbj"})
    run_iteration_table(cfg)
    assert calls == ["deflator", krylov.LAYOUT_COMPONENT, krylov.LAYOUT_COLLECTIVE] * 2

    # one Operators serves dcg, pcg-bj, pcg-cbj and both condition
    # estimates with one build of each factorisation
    calls.clear()
    system = assemble_system(space, 1.0, 10.0)
    ops = krylov.Operators(build_system(system.m, system.a, 1e-6), space)
    b = np.ones(space.total_dofs)
    for name in ("dcg", "pcg-bj", "pcg-cbj"):
        assert krylov.make_solver(name, ops, SolverConfig(tol=1e-8, maxit=3000))(b)[1].converged
    cbj = ops.block_jacobi(krylov.LAYOUT_COLLECTIVE)
    krylov.estimate_condition_number(ops.astar, preconditioner=cbj)
    krylov.estimate_condition_number(
        ops.astar, inverse=krylov.deflated_inverse(ops.astar, ops.deflator, cbj))
    assert calls == ["deflator", krylov.LAYOUT_COMPONENT, krylov.LAYOUT_COLLECTIVE]

    # a condition table builds one collective Block-Jacobi and one deflator per cell
    calls.clear()
    run_condition_table(load_config(None, {
        ("mesh", "nx"): "3", ("mesh", "ny"): "3", ("discretization", "degree"): "1",
        ("condition", "dts"): "1e-6,1e-8"}))
    assert calls == [krylov.LAYOUT_COLLECTIVE, "deflator"] * 2
    # every build ran on the calling thread, none on a table or split pool thread
    assert threads == {threading.current_thread()}


@pytest.mark.parametrize("maker, vectors", [(lambda: trig_solution().data, 2),
                                            (lambda: linear_in_space_solution().data, 1),
                                            (zero_data, 0)],
                         ids=["trig", "linear_in_space", "zero"])
def test_data_evaluated_once_per_run(mesh33, maker, vectors):
    """A run evaluates the data callbacks as often for 30 steps as for 3:
    once per term field for its load vectors, once for the initial field."""
    data, space = maker(), build_space(mesh33, 1)
    assert len(load_terms(space, data)) == vectors
    calls = collections.Counter()

    def counting(name, fun):
        def counted(*args):
            calls[name] += 1
            return fun(*args)
        return counted

    names = ("source", "dirichlet", "neumann")
    terms = dataclasses.replace(data.terms, **{n: counting(n, getattr(data.terms, n))
                                               for n in names})
    data = dataclasses.replace(data, terms=terms, sigma0=counting("sigma0", data.sigma0))
    expected = collections.Counter({**{n: int(vectors > 0) for n in names}, "sigma0": 1})
    for steps in (3, 30):
        calls.clear()
        implicit_euler_run(space, data, TimeConfig.from_steps(steps, 1e-3), "cg",
                           SolverConfig(tol=1e-10, maxit=3000))
        assert calls == expected, steps


def test_step_rhs_is_bitwise_assemble_rhs(mesh33, monkeypatch):
    """Each step solves with the right-hand side that assemble_rhs gives
    for that step's time and previous iterate, bit for bit."""
    mms, space = trig_solution(), build_space(mesh33, 2)
    system = assemble_system(space, mms.data.mu, 10.0)
    seen, make_solver = [], krylov.make_solver

    def recording(*args):
        solve = make_solver(*args)

        def step(rhs, x0):
            seen.append((rhs.copy(), x0.copy()))
            return solve(rhs, x0)
        return step

    monkeypatch.setattr(timestepper, "make_solver", recording)
    tc = TimeConfig.from_steps(4, 0.01)
    implicit_euler_run(space, mms.data, tc, "cg", SolverConfig(tol=1e-10, maxit=3000),
                       system=system)
    assert len(seen) == 4
    for n, (rhs, prev) in enumerate(seen):
        ref = assemble_rhs(space, mms.data, (n + 1) * tc.dt, prev, tc.dt, system)
        assert rhs.tobytes() == ref.tobytes()


def test_unforced_energy_decays(poly_mesh, rng):
    space = build_space(poly_mesh, 2)
    system = assemble_system(space, 1.0, 10.0)
    data = zero_data()
    # seed a random initial state through the projection machinery
    coef = rng.standard_normal((4, 2, 2, 3))

    def field(x, y):
        out = np.zeros((np.size(x), 2, 2))
        for r in range(2):
            for d in range(2):
                c = coef[0, r, d]
                out[:, r, d] = c[0] + c[1] * x + c[2] * y
        return out

    data.sigma0 = field
    cfg = SolverConfig(tol=1e-12, maxit=5000)
    sigma = l2_project(space, field)
    energies = [oracle.mass_energy(system, sigma)]
    step = krylov.make_solver("cg", krylov.Operators(build_system(system.m, system.a, 0.05),
                                                     space), cfg)
    for n in range(5):
        rhs = assemble_rhs(space, data, (n + 1) * 0.05, sigma, 0.05, system)
        sigma, _ = step(rhs, sigma)
        energies.append(oracle.mass_energy(system, sigma))
    for e0, e1 in zip(energies, energies[1:]):
        assert e1 <= e0 + 1e-10 * abs(e0)


def test_per_step_log(tmp_path, mesh22):
    space = build_space(mesh22, 1)
    mms = oracle.steady_polynomial_solution(1)
    log = tmp_path / "steps.csv"
    implicit_euler_run(space, mms.data, TimeConfig.from_steps(3, 0.1), "cg",
                       SolverConfig(tol=1e-10, maxit=3000), log_path=log)
    lines = log.read_text().splitlines()
    assert lines[0] == "step,time,iterations,residual,wall_s,true_residual"
    assert len(lines) == 4
    assert lines[1].startswith("1,")
    for line in lines[1:]:
        assert np.all(np.isfinite([float(v) for v in line.split(",")[4:]]))


def _unit_source(coefficient):
    """Data with the one term coefficient(t) times a unit tensor source, and
    no boundary data."""
    zeros = lambda x, y, *normals: np.zeros((np.size(x), 1, 2))
    terms = DataTerms((coefficient,), lambda x, y: np.ones((np.size(x), 1, 2, 2)), zeros, zeros)
    return dataclasses.replace(zero_data(), terms=terms)


def test_per_step_log_written_on_failure(tmp_path, mesh33):
    # no load before t = 0.025: steps 1 and 2 converge at once, step 3 cannot
    data = _unit_source(lambda t: float(t > 0.025))
    log = tmp_path / "steps.csv"
    with pytest.raises(TimeStepError) as err:
        implicit_euler_run(build_space(mesh33, 2), data, TimeConfig.from_steps(4, 0.01),
                           "cg", SolverConfig(tol=1e-12, maxit=2), log_path=log)
    assert err.value.step == 2
    rows = [line.split(",") for line in log.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["1", "2", "3"]
    assert [row[2] for row in rows] == ["0", "0", "2"]
    assert np.all(np.isfinite([float(v) for row in rows for v in row[4:]]))


@pytest.mark.parametrize("solver", ["dcg", "pcg-cbj"])
def test_non_finite_load_names_its_stop_reason(mesh33, solver):
    data = _unit_source(lambda t: np.nan if t > 0.015 else 0.0)
    with pytest.raises(TimeStepError, match=r"at step 2 of 3 .*, stopped on non_finite\)$"):
        implicit_euler_run(build_space(mesh33, 2), data, TimeConfig.from_steps(3, 0.01), solver)


def test_system_must_match_run(mesh22):
    space = build_space(mesh22, 1)
    system = assemble_system(space, 1.0, 10.0)
    tc = TimeConfig.from_steps(1, 0.1)
    with pytest.raises(ValueError, match="alpha"):
        implicit_euler_run(space, oracle.steady_polynomial_solution(1).data, tc, "cg",
                           alpha=25.0, system=system)
    with pytest.raises(ValueError, match="mu"):
        implicit_euler_run(space, oracle.steady_polynomial_solution(1, mu=2.0).data, tc, "cg",
                           system=system)


# -- energy norm ----------------------------------------------------------------

def test_energy_error_of_projected_exact_field(mesh33):
    mms = oracle.steady_polynomial_solution(1)
    space = build_space(mesh33, 2)
    dofs = l2_project(space, lambda x, y: mms.sigma(x, y, 0.0))
    assert EnergyNorm(space).error(dofs, mms, 0.0) < 1e-10


@pytest.mark.parametrize("p", [1, 2, 3])
def test_batched_energy_norm_matches_per_element(oracle_meshes, rng, p):
    space = build_space(oracle_meshes["agglomerated-50"], p)
    mms = trig_solution()
    dofs = l2_project(space, lambda x, y: mms.sigma(x, y, 0.3))
    dofs += 1e-3 * rng.standard_normal(space.total_dofs)
    norm = EnergyNorm(space)
    for exact in (None, mms):
        got, ref = norm.error(dofs, exact, 0.3), oracle.energy_error(norm, dofs, exact, 0.3)
        assert abs(got - ref) <= 1e-12 * ref


def test_energy_norm_homogeneity(poly_mesh, rng):
    space = build_space(poly_mesh, 2)
    dofs = rng.standard_normal(space.total_dofs)
    norm = EnergyNorm(space)
    assert norm.error(2.0 * dofs) == pytest.approx(2.0 * norm.error(dofs), rel=1e-12)


def test_energy_norm_definite(poly_mesh, rng):
    space = build_space(poly_mesh, 1)
    norm = EnergyNorm(space)
    assert norm.error(np.zeros(space.total_dofs)) == 0.0
    for _ in range(3):
        assert norm.error(rng.standard_normal(space.total_dofs)) > 0.0


def test_temporal_convergence_first_order():
    from polystress.mesh import build_cartesian_mesh, classify_boundary
    mesh = classify_boundary(build_cartesian_mesh(3, 3), lambda p: p[0] > 1 - 1e-9)
    mms = linear_in_space_solution()
    space = build_space(mesh, 1)
    system = assemble_system(space, 1.0, 10.0)
    norm = EnergyNorm(space)
    errs = []
    for dt in (0.2, 0.1, 0.05):
        tc = TimeConfig(dt=dt, t_final=0.4)
        sigma, _ = implicit_euler_run(space, mms.data, tc, "cg",
                                      SolverConfig(tol=1e-12, maxit=5000),
                                      system=system)
        errs.append(norm.error(sigma, mms, tc.t_final))
    for e0, e1 in zip(errs, errs[1:]):
        assert e0 / e1 == pytest.approx(2.0, rel=0.2)


def test_spatial_convergence_p2():
    from polystress.mesh import build_cartesian_mesh, classify_boundary
    mms = trig_solution()
    errs = []
    for nx in (2, 4, 8):
        mesh = classify_boundary(build_cartesian_mesh(nx, nx), lambda p: p[0] > 1 - 1e-9)
        space = build_space(mesh, 2)
        tc = TimeConfig.from_steps(2, 1e-5)
        sigma, _ = implicit_euler_run(space, mms.data, tc, "cg",
                                      SolverConfig(tol=1e-11, maxit=20000))
        errs.append(EnergyNorm(space).error(sigma, mms, tc.t_final))
    slopes = [np.log(errs[i] / errs[i + 1]) / np.log(2.0) for i in range(len(errs) - 1)]
    assert slopes[-1] >= 1.8
