"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s``).

Desk scale throughout: meshes of 8..100 polygonal elements, p <= 3, every
criterion a few minutes at most.  Iteration-count and conditioning criteria
run on agglomerated meshes at p = 3 with tol 1e-8, mirroring the reference
experiment setup.
"""
import time

import numpy as np
import pytest

from polystress import (SolverConfig, agglomerate, build_block_jacobi,
                        build_cartesian_mesh, build_deflator, build_space,
                        build_system, cg, classify_boundary, deflated_cg,
                        kron_structure_check, pcg)
from polystress.assembly import assemble_system
from polystress.bench import load_config, run_condition_table, run_iteration_table

from assembly_oracle import with_oracle_tensors


def right_edge(p):
    return p[0] > 1.0 - 1e-9


def check(num, name, condition, detail):
    print(f"[acceptance {num}] {name}: {'PASS' if condition else 'FAIL'} ({detail})")
    assert condition, f"criterion {num} ({name}): {detail}"


def bench_mesh(nx, target, seed=1):
    base = classify_boundary(build_cartesian_mesh(nx, nx), right_edge)
    return agglomerate(base, target, seed)


@pytest.fixture(scope="module")
def mesh_family():
    return [("50el", bench_mesh(15, 50)), ("100el", bench_mesh(20, 100))]


def table_overrides(meshes_nx, target):
    return {("mesh", "nx"): str(meshes_nx), ("mesh", "ny"): str(meshes_nx),
            ("mesh", "targets"): str(target), ("mesh", "seed"): "1",
            ("discretization", "degree"): "3"}


def test_criterion_1_structural_identity():
    worst_m = worst_a = 0.0
    meshes = [classify_boundary(build_cartesian_mesh(4, 4), right_edge),
              bench_mesh(15, 50)]
    for mesh in meshes:
        for p in (1, 2, 3):
            space = build_space(mesh, p)
            system = assemble_system(space, mu=1.0, alpha=10.0)
            # M and A from the independent tensor-path assembly
            dev_m, dev_a = kron_structure_check(with_oracle_tensors(system, space))
            worst_m = max(worst_m, dev_m / np.abs(system.m.data).max())
            worst_a = max(worst_a, dev_a / np.abs(system.a.data).max())
    check(1, "structural identity", worst_m <= 1e-12 and worst_a <= 1e-12,
          f"max rel deviations M: {worst_m:.2e}, A: {worst_a:.2e}")


def test_criterion_2_coarse_operator_identity():
    mesh = bench_mesh(15, 50)
    system = assemble_system(build_space(mesh, 2), mu=1.0, alpha=10.0)
    worst = 0.0
    for dt in (1e-3, 1e-6):
        deflator = build_deflator(system, dt)
        diff = deflator.coarse_matrix - (dt / 2.0) * (system.b1 + system.b3)
        worst = max(worst, np.abs(diff.data).max() if diff.nnz else 0.0)
    check(2, "coarse operator identity", worst <= 1e-12,
          f"max |W - (dt/2)(B1+B3)| = {worst:.2e}")


def test_criterion_3_conditioning_scaling():
    start = time.perf_counter()
    cfg = load_config(None, {**table_overrides(20, 100),
                             ("condition", "dts"): "1e-8,1e-9,1e-10",
                             ("condition", "tol"): "1e-3",
                             ("condition", "maxit"): "800"})
    tables = run_condition_table(cfg)
    raw = tables["raw"].values[:, 0]
    pre = tables["cbj"].values[:, 0]
    elapsed = time.perf_counter() - start
    ratios = raw[1:] / raw[:-1]
    spread = (pre.max() - pre.min()) / pre.min()
    ok = (np.all((ratios >= 8.0) & (ratios <= 12.0)) and spread <= 0.05
          and not tables["raw"].flags.any() and not tables["cbj"].flags.any()
          and elapsed <= 120.0)
    check(3, "conditioning scaling",
          ok, f"raw ratios {np.round(ratios, 2)}, cbj spread {100 * spread:.2f}%, "
              f"{elapsed:.0f}s")


@pytest.fixture(scope="module")
def iteration_tables_dcg_cg():
    tables = {}
    for nx, target in ((15, 50), (20, 100)):
        cfg = load_config(None, {**table_overrides(nx, target),
                                 ("solve", "dts"): "1e-7,1e-8",
                                 ("solve", "solvers"): "cg,dcg",
                                 ("solve", "repetitions"): "10",
                                 ("solve", "tol"): "1e-8",
                                 ("solve", "maxit"): "60000",
                                 ("solve", "seed"): "0"})
        tables[target] = run_iteration_table(cfg)
    return tables


def test_criterion_4_dt_robustness_deflated_cg(iteration_tables_dcg_cg):
    details, ok = [], True
    for target, tables in iteration_tables_dcg_cg.items():
        dcg = tables["dcg"].values[:, 0]
        cgv = tables["cg"].values[:, 0]
        drift = abs(dcg[1] - dcg[0]) / dcg[0]
        growth = (cgv[1] - cgv[0]) / cgv[0]
        flagged = tables["dcg"].flags.any() or tables["cg"].flags.any()
        ok = ok and drift <= 0.10 and growth >= 0.50 and not flagged
        details.append(f"{target}el: dcg {dcg[0]:.1f}->{dcg[1]:.1f} "
                       f"({100 * drift:.1f}%), cg {cgv[0]:.0f}->{cgv[1]:.0f} "
                       f"(+{100 * growth:.0f}%)")
    check(4, "dt-robustness of deflated CG", ok, "; ".join(details))


def test_criterion_5_dt_robustness_collective_bj():
    details, ok = [], True
    for nx, target in ((15, 50), (20, 100)):
        cfg = load_config(None, {**table_overrides(nx, target),
                                 ("solve", "dts"): "1e-6,1e-7,1e-8,1e-9,1e-10",
                                 ("solve", "solvers"): "pcg-cbj",
                                 ("solve", "repetitions"): "10",
                                 ("solve", "tol"): "1e-8",
                                 ("solve", "maxit"): "60000",
                                 ("solve", "seed"): "0"})
        cbj = run_iteration_table(cfg)["pcg-cbj"]
        cfg = load_config(None, {**table_overrides(nx, target),
                                 ("solve", "dts"): "1e-5,1e-6,1e-7",
                                 ("solve", "solvers"): "pcg-bj",
                                 ("solve", "repetitions"): "10",
                                 ("solve", "tol"): "1e-8",
                                 ("solve", "maxit"): "60000",
                                 ("solve", "seed"): "0"})
        bj = run_iteration_table(cfg)["pcg-bj"]
        c = cbj.values[:, 0]
        spread = (c.max() - c.min()) / c.min()
        b = bj.values[:, 0]
        growth = (b[-1] - b[0]) / b[0]
        ok = (ok and spread <= 0.10 and growth >= 1.0
              and not cbj.flags.any() and not bj.flags.any())
        details.append(f"{target}el: cbj spread {100 * spread:.1f}%, "
                       f"bj {b[0]:.0f}->{b[-1]:.0f} (+{100 * growth:.0f}%)")
    check(5, "dt-robustness of collective Block-Jacobi", ok, "; ".join(details))


def test_criterion_6_oracle_equivalence():
    meshes = [classify_boundary(build_cartesian_mesh(2, 2), right_edge),
              classify_boundary(build_cartesian_mesh(4, 4), right_edge),
              agglomerate(classify_boundary(build_cartesian_mesh(4, 4), right_edge), 8, 3)]
    cfgs = SolverConfig(tol=1e-12, maxit=20000)
    rng = np.random.default_rng(0)
    worst = 0.0
    for mesh in meshes:
        space = build_space(mesh, 1)
        assert space.total_dofs <= 2000
        system = assemble_system(space, mu=1.0, alpha=10.0)
        astar = build_system(system.m, system.a, 1e-3)
        dense = astar.toarray()
        deflator = build_deflator(system, 1e-3, astar=astar)
        bj = build_block_jacobi(astar, space, "component")
        cbj = build_block_jacobi(astar, space, "collective")
        for _ in range(5):
            b = rng.standard_normal(astar.shape[0])
            ref = np.linalg.solve(dense, b)
            sols = [cg(astar, b, cfgs)[0],
                    deflated_cg(astar, b, deflator, cfgs)[0],
                    pcg(astar, b, bj, cfgs)[0],
                    pcg(astar, b, cbj, cfgs)[0]]
            for x in sols:
                worst = max(worst, np.linalg.norm(x - ref) / np.linalg.norm(ref))
    check(6, "oracle equivalence", worst <= 1e-7,
          f"worst relative deviation from dense solve {worst:.2e}")


def test_criterion_7_deflation_algebra():
    mesh = bench_mesh(4, 8, seed=3)
    space = build_space(mesh, 2)
    system = assemble_system(space, mu=1.0, alpha=10.0)
    astar = build_system(system.m, system.a, 1e-4)
    deflator = build_deflator(system, 1e-4, astar=astar)

    def project(u):
        return u - deflator.projection_correction(u)

    rng = np.random.default_rng(7)
    worst_idem = worst_orth = worst_psd = 0.0
    for _ in range(100):
        u = rng.standard_normal(astar.shape[0])
        w = rng.standard_normal(deflator.scalar_dofs)
        pu = project(u)
        worst_idem = max(worst_idem,
                         np.linalg.norm(project(pu) - pu) / np.linalg.norm(u))
        worst_orth = max(worst_orth,
                         abs(float((astar @ pu) @ deflator.v(w)))
                         / (np.linalg.norm(astar @ u) * np.linalg.norm(w)))
        worst_psd = min(worst_psd, float((astar @ pu) @ pu) / float(u @ u))
    ok = worst_idem <= 1e-12 and worst_orth <= 1e-10 and worst_psd >= -1e-10
    check(7, "deflation algebra", ok,
          f"idempotence {worst_idem:.2e}, orthogonality {worst_orth:.2e}, "
          f"min Rayleigh {worst_psd:.2e}")


def test_criterion_8_discretisation_consistency():
    from polystress.bench import fitted_slope, run_convergence

    slopes = {}
    for p, levels in ((1, "4,8,16"), (2, "2,4,8")):
        cfg = load_config(None, {("convergence", "mode"): "spatial",
                                 ("convergence", "degree"): str(p),
                                 ("convergence", "levels"): levels,
                                 ("convergence", "dt"): "1e-5",
                                 ("convergence", "steps"): "2",
                                 ("solve", "tol"): "1e-11",
                                 ("solve", "maxit"): "40000"})
        table = run_convergence(cfg)
        slopes[f"spatial p{p}"] = fitted_slope(table.values[:, 0], table.values[:, 2])
    cfg = load_config(None, {("convergence", "mode"): "temporal",
                             ("convergence", "degree"): "2",
                             ("convergence", "nx"): "3",
                             ("convergence", "dts"): "0.2,0.1,0.05,0.025",
                             ("convergence", "t_final"): "0.4",
                             ("solve", "tol"): "1e-12",
                             ("solve", "maxit"): "40000"})
    table = run_convergence(cfg)
    slopes["temporal"] = fitted_slope(table.values[:, 1], table.values[:, 2])
    ok = (slopes["spatial p1"] >= 0.8 and slopes["spatial p2"] >= 1.8
          and slopes["temporal"] >= 0.9)
    check(8, "discretisation consistency", ok,
          ", ".join(f"{k} slope {v:.2f}" for k, v in slopes.items()))


def test_criterion_9_determinism(tmp_path):
    from polystress.cli import main

    args = ["iter-table", "--nx", "6", "--ny", "6", "--targets", "12",
            "--degree", "2", "--dts", "1e-6,1e-7", "--solvers", "dcg,pcg-cbj",
            "--repetitions", "3", "--maxit", "20000", "--seed", "11"]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = main(args + ["--output", str(out1)])
    code2 = main(args + ["--output", str(out2)])
    same = all((out1 / name).read_bytes() == (out2 / name).read_bytes()
               for name in ("iter_dcg.csv", "iter_pcg_cbj.csv"))
    check(9, "determinism", code1 == 0 and code2 == 0 and same,
          "bit-identical CSV tables across repeated runs")
