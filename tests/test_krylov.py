import dataclasses
import hashlib
import itertools
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import mmread

from polystress import (SolverConfig, agglomerate, build_block_jacobi,
                        build_cartesian_mesh, build_deflator, build_space,
                        build_system, cg, classify_boundary, deflated_cg,
                        estimate_condition_number, pcg)
from polystress.assembly import assemble_stiffness, assemble_system, export_matrices
from polystress import krylov
from polystress.dg_space import _cho_factor_stack, _NotSPD
from polystress.krylov import BlockFactorizationError, BlockJacobi

from assembly_oracle import collective_permutation


@pytest.fixture(scope="module")
def small_system(mesh22):
    space = build_space(mesh22, 1)
    system = assemble_system(space, mu=1.0, alpha=10.0)
    astar = build_system(system.m, system.a, 1e-3)
    return space, system, astar


@pytest.fixture(scope="module")
def bench_system():
    """Agglomerated mesh where the dt-robustness examples are exercised."""
    base = classify_boundary(build_cartesian_mesh(8, 8), lambda p: p[0] > 1 - 1e-9)
    mesh = agglomerate(base, 16, rng_seed=3)
    space = build_space(mesh, 3)
    system = assemble_system(space, mu=1.0, alpha=10.0)
    return space, system


# -- cg ------------------------------------------------------------------

def test_cg_identity_one_iteration(rng):
    b = rng.standard_normal(20)
    x, report = cg(sparse.eye(20, format="csr"), b)
    assert report.iterations == 1
    assert report.converged
    assert np.allclose(x, b)


def test_cg_finite_termination():
    a = np.diag([1.0, 2.0, 3.0])
    x, report = cg(a, np.ones(3), SolverConfig(tol=1e-12, maxit=10))
    assert report.iterations <= 3
    assert np.allclose(x, [1.0, 0.5, 1.0 / 3.0], rtol=1e-10)


def test_cg_zero_rhs():
    x, report = cg(np.eye(4), np.zeros(4))
    assert report.iterations == 0
    assert report.converged
    assert np.all(x == 0.0)


def test_cg_maxit_flags_nonconvergence(small_system, rng):
    _, _, astar = small_system
    b = rng.standard_normal(astar.shape[0])
    _, report = cg(astar, b, SolverConfig(tol=1e-12, maxit=3))
    assert report.converged is False  # a Python bool, not a numpy one
    assert report.iterations == 3


def test_cg_matches_dense_solve(small_system, rng):
    _, _, astar = small_system
    b = rng.standard_normal(astar.shape[0])
    x, report = cg(astar, b, SolverConfig(tol=1e-12, maxit=2000))
    ref = np.linalg.solve(astar.toarray(), b)
    assert np.linalg.norm(x - ref) / np.linalg.norm(ref) < 1e-7


def test_cg_warm_start(small_system, rng):
    _, _, astar = small_system
    b = rng.standard_normal(astar.shape[0])
    x0 = np.linalg.solve(astar.toarray(), b)
    x, report = cg(astar, b, SolverConfig(tol=1e-8, maxit=100), x0=x0)
    assert report.iterations == 0
    assert report.converged


def test_cg_energy_error_monotone(rng):
    """CG A-norm error decreases monotonically (oracle: dense solve)."""
    m = rng.standard_normal((25, 25))
    a = m @ m.T + 25 * np.eye(25)
    b = rng.standard_normal(25)
    ref = np.linalg.solve(a, b)
    errs = []
    for k in range(1, 12):
        x, _ = cg(a, b, SolverConfig(tol=1e-15, maxit=k))
        d = x - ref
        errs.append(float(d @ (a @ d)))
    assert all(e1 <= e0 * (1 + 1e-12) for e0, e1 in zip(errs, errs[1:]))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=2.0)
    with pytest.raises(ValueError):
        SolverConfig(maxit=0)


# -- pcg and Block-Jacobi ---------------------------------------------------

def test_pcg_exact_inverse_one_iteration(small_system, rng):
    _, _, astar = small_system
    b = rng.standard_normal(astar.shape[0])
    inv = np.linalg.inv(astar.toarray())
    x, report = pcg(astar, b, lambda r: inv @ r)
    assert report.iterations == 1
    assert np.allclose(astar @ x, b, atol=1e-8 * np.linalg.norm(b))


def test_pcg_identity_equals_cg(small_system, rng):
    _, _, astar = small_system
    b = rng.standard_normal(astar.shape[0])
    cfg = SolverConfig(tol=1e-9, maxit=3000)
    x1, r1 = cg(astar, b, cfg)
    x2, r2 = pcg(astar, b, lambda r: r.copy(), cfg)
    assert r1.iterations == r2.iterations
    assert np.array_equal(x1, x2)
    assert r1.final_residual == r2.final_residual
    assert r1.true_residual == r2.true_residual


def test_pcg_cold_start_applies_preconditioner_once_per_iteration(small_system, rng):
    space, _, astar = small_system
    cbj = build_block_jacobi(astar, space, "collective")
    calls = []

    def counted(r):
        calls.append(1)
        return cbj.apply(r)

    b = rng.standard_normal(astar.shape[0])
    x_ref, rep_ref = pcg(astar, b, cbj)
    x, rep = pcg(astar, b, counted)
    assert np.array_equal(x, x_ref) and rep.iterations == rep_ref.iterations
    assert len(calls) == rep.iterations + 1
    calls.clear()
    _, rep = pcg(astar, b, counted, x0=0.5 * x)
    assert len(calls) == rep.iterations + 2   # M r0, plus M b for the denominator


@pytest.mark.parametrize("signs, iterations", [
    # r.z turns negative after two steps; b.Mb is positive
    (np.r_[np.ones(49), -1.0], 2),
    # b.Mb itself is negative: no step is taken
    (-np.ones(50), 0),
])
def test_pcg_stops_on_indefinite_preconditioner(signs, iterations):
    """A negative r.z, b.Mb included, stops pcg unconverged, without taking
    its square root or dividing by a zero r.z."""
    a = sparse.diags(np.linspace(1.0, 100.0, 50)).tocsr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, report = pcg(a, np.ones(50), sparse.diags(signs).tocsr())
    assert not report.converged
    assert report.iterations == iterations


def test_collective_permutation_toy():
    class Toy:
        local_dim, scalar_dofs, n_elements = 1, 2, 2
    perm = collective_permutation(Toy())
    assert perm.tolist() == [0, 2, 4, 6, 1, 3, 5, 7]


def test_block_jacobi_block_counts(small_system):
    space, _, astar = small_system
    bj = build_block_jacobi(astar, space, "component")
    cbj = build_block_jacobi(astar, space, "collective")
    assert bj.inv_blocks.shape == (4 * space.n_elements, space.local_dim, space.local_dim)
    assert cbj.inv_blocks.shape == (space.n_elements, 4 * space.local_dim, 4 * space.local_dim)
    with pytest.raises(ValueError, match="banana"):
        build_block_jacobi(astar, space, "banana")
    with pytest.raises(ValueError, match="banana"):
        BlockJacobi("banana", cbj.inv_blocks)  # named when built, not at its first apply


def test_collective_single_element_is_exact():
    mesh = classify_boundary(build_cartesian_mesh(1, 1), lambda p: p[0] > 1 - 1e-9)
    space = build_space(mesh, 2)
    system = assemble_system(space, 1.0, 10.0)
    astar = build_system(system.m, system.a, 1e-4)
    cbj = build_block_jacobi(astar, space, "collective")
    b = np.arange(1.0, astar.shape[0] + 1)
    x, report = pcg(astar, b, cbj)
    assert report.iterations == 1
    assert np.allclose(astar @ x, b, rtol=1e-9)
    est = estimate_condition_number(astar, preconditioner=cbj, tol=1e-8)
    assert est.kappa == pytest.approx(1.0, abs=1e-6)


def test_block_jacobi_apply_properties(small_system, rng):
    _, _, astar = small_system
    space = build_space(build_cartesian_mesh(2, 2), 1)
    for layout in ("component", "collective"):
        bj = build_block_jacobi(astar, space, layout)
        assert np.all(bj.apply(np.zeros(astar.shape[0])) == 0.0)
        r1 = rng.standard_normal(astar.shape[0])
        r2 = rng.standard_normal(astar.shape[0])
        s1 = float(bj.apply(r1) @ r2)
        s2 = float(r1 @ bj.apply(r2))
        assert abs(s1 - s2) <= 1e-12 * abs(s1)


def _oracle_layout(space, layout):
    """perm[new] = old dof, and the block size, of the layout as the oracle
    writes it: the identity and blocks of local_dim for the component
    layout."""
    if layout == "component":
        return np.arange(space.total_dofs), space.local_dim
    return collective_permutation(space), 4 * space.local_dim


def test_block_jacobi_exact_on_block_diagonal(monkeypatch, pool_threads, rng):
    """On a matrix that is its own block diagonal under the oracle's
    permutation, the apply is the exact solve, in both layouts, serial and
    split."""
    space = build_space(build_cartesian_mesh(2, 2), 1)
    cases = []
    for layout in ("component", "collective"):
        perm, bs = _oracle_layout(space, layout)
        n = len(perm)
        dense = np.zeros((n, n))
        for k in range(n // bs):
            m = rng.standard_normal((bs, bs))
            idx = perm[k * bs:(k + 1) * bs]
            dense[np.ix_(idx, idx)] = m @ m.T + bs * np.eye(bs)
        a = sparse.csr_matrix(dense)
        r = rng.standard_normal(n)
        x = np.linalg.solve(dense, r)
        assert np.allclose(build_block_jacobi(a, space, layout).apply(r), x, rtol=1e-10)
        cases.append((layout, a, r, x))
    _split_everything(monkeypatch)
    for layout, a, r, x in cases:
        split = build_block_jacobi(a, space, layout)
        assert split._halves is not None
        assert np.allclose(split.apply(r), x, rtol=1e-10)


@pytest.mark.parametrize("use_perm", [False, True])
def test_block_apply_matches_dense_solve(use_perm, rng):
    nb, bs = 5, 4
    n = nb * bs
    blocks = []
    for _ in range(nb):
        m = rng.standard_normal((bs, bs))
        blocks.append(m @ m.T + bs * np.eye(bs))
    full = np.zeros((n, n))
    # the collective layout's block k holds dof (c, k, i) of each component c
    perm = np.arange(n).reshape(4, nb, bs // 4).transpose(1, 0, 2).ravel()
    inv = np.stack([np.linalg.inv(b) for b in blocks])
    for k, b in enumerate(blocks):
        idx = np.arange(k * bs, (k + 1) * bs)
        pidx = perm[idx] if use_perm else idx
        full[np.ix_(pidx, pidx)] = b
    solver = BlockJacobi("collective" if use_perm else "component", inv)
    r = rng.standard_normal(n)
    assert np.allclose(solver.apply(r), np.linalg.solve(full, r), rtol=1e-10)


def test_block_jacobi_rejects_indefinite(small_system):
    space, _, astar = small_system
    bad = astar - sparse.eye(astar.shape[0]) * 10.0
    with pytest.raises(BlockFactorizationError, match="element"):
        build_block_jacobi(bad, space, "collective")


def _cho_oracle_inverses(astar, space, layout):
    """Per-block cho_factor/cho_solve on the dense diagonal blocks of the
    permuted A*, symmetrised."""
    perm, bs = _oracle_layout(space, layout)
    dense = astar.toarray()[np.ix_(perm, perm)]
    out = []
    for k in range(astar.shape[0] // bs):
        blk = dense[k * bs:(k + 1) * bs, k * bs:(k + 1) * bs]
        inv = sla.cho_solve(sla.cho_factor(blk, lower=True), np.eye(bs))
        out.append(0.5 * (inv + inv.T))
    return np.array(out)


@pytest.mark.parametrize("layout", ["component", "collective"])
def test_block_jacobi_inverses_match_cho_oracle(small_system, bench_system, layout):
    space, _, astar = small_system
    cases = [(space, astar)]
    space3, system3 = bench_system
    cases += [(space3, build_system(system3.m, system3.a, dt)) for dt in (1e-2, 1e-7)]
    for space, astar in cases:
        got = build_block_jacobi(astar, space, layout).inv_blocks
        assert np.array_equal(got, _cho_oracle_inverses(astar, space, layout))


@pytest.mark.parametrize("layout", ["component", "collective"])
def test_block_jacobi_apply_matches_cho_oracle_bitwise(bench_system, layout, rng):
    """The apply's matmul sums in the order of the inverses' memory layout,
    so the preconditioner keeps them C-ordered, as the oracle's are."""
    space, system = bench_system
    astar = build_system(system.m, system.a, 1e-7)
    bj = build_block_jacobi(astar, space, layout)
    ref = BlockJacobi(layout, _cho_oracle_inverses(astar, space, layout))
    r = rng.standard_normal(astar.shape[0])
    assert bj.apply(r).tobytes() == ref.apply(r).tobytes()


def _check_apply_is_the_permuted_gather(monkeypatch, bench_system, layout, rng):
    """The strided views of the apply give the bits of a gather and a
    scatter through the oracle's permutation, serial and split."""
    space, system = bench_system
    bj = build_block_jacobi(build_system(system.m, system.a, 1e-7), space, layout)
    perm, bs = _oracle_layout(space, layout)
    r = rng.standard_normal(len(perm))
    ref = np.empty_like(r)
    ref[perm] = np.matmul(bj.inv_blocks, r[perm].reshape(-1, bs, 1)).reshape(-1)
    assert bj.apply(r).tobytes() == ref.tobytes()
    _split_everything(monkeypatch)
    split = BlockJacobi(layout, bj.inv_blocks)
    assert split._halves is not None
    assert split.apply(r).tobytes() == ref.tobytes()


def test_collective_apply_is_bitwise_the_permuted_gather(monkeypatch, pool_threads,
                                                         bench_system, rng):
    _check_apply_is_the_permuted_gather(monkeypatch, bench_system, "collective", rng)


def test_component_apply_is_bitwise_the_identity_gather(monkeypatch, pool_threads,
                                                        bench_system, rng):
    _check_apply_is_the_permuted_gather(monkeypatch, bench_system, "component", rng)


@pytest.mark.parametrize("layout", ["component", "collective"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_block_jacobi_names_nonfinite_element(small_system, layout, bad):
    space, _, astar = small_system
    L, S = space.local_dim, space.scalar_dofs
    for c, e in ((2, 1), (0, 3)):
        i = c * S + e * L + L - 1
        a = astar.tolil()
        a[i, i] = bad
        with pytest.raises(BlockFactorizationError,
                           match=f"{layout} block of element {e} holds a NaN or inf"):
            build_block_jacobi(a.tocsr(), space, layout)
    if layout == "collective":  # an entry coupling two components of element 2
        a = astar.tolil()
        a[2 * L, 3 * S + 2 * L + 1] = bad
        with pytest.raises(BlockFactorizationError, match="element 2 holds"):
            build_block_jacobi(a.tocsr(), space, layout)


@pytest.mark.parametrize("layout", ["component", "collective"])
def test_block_jacobi_names_indefinite_element(small_system, layout):
    space, _, astar = small_system
    L, S = space.local_dim, space.scalar_dofs
    for c, e in ((2, 1), (0, 3)):
        i = c * S + e * L + L - 1
        a = astar.tolil()
        a[i, i] = -1.0
        with pytest.raises(BlockFactorizationError,
                           match=f"{layout} block of element {e} is not SPD"):
            build_block_jacobi(a.tocsr(), space, layout)


def test_stack_factor_names_first_indefinite_block(rng):
    m = rng.standard_normal((8, 5, 5))
    blocks = m @ m.transpose(0, 2, 1) + 5 * np.eye(5)
    chol, lower = _cho_factor_stack(blocks)
    for k in range(len(blocks)):
        assert np.array_equal(chol[k], sla.cho_factor(blocks[k])[0])
    blocks[3] -= 20 * np.eye(5)
    blocks[6] -= 20 * np.eye(5)
    with pytest.raises(_NotSPD) as info:
        _cho_factor_stack(blocks)
    assert info.value.index == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_system_keeps_nonfinite_row_for_block_jacobi(small_system, bad):
    space, system, _ = small_system
    m = system.m.tolil()
    m[0, 0] = bad
    astar = build_system(m.tocsr(), system.a, 1e-3)
    assert not np.isfinite(astar[0, 0])
    with pytest.raises(BlockFactorizationError,
                       match="collective block of element 0 holds a NaN or inf"):
        build_block_jacobi(astar, space, "collective")


# -- deflation ----------------------------------------------------------------

def test_deflator_kernel_and_coarse_identity(small_system, rng):
    space, system, _ = small_system
    dt = 1e-3
    defl = build_deflator(system, dt)
    y = rng.standard_normal(space.scalar_dofs)
    assert np.abs(system.m @ defl.v(y)).max() < 1e-12
    b1, _, b3, _ = assemble_stiffness(space, system.alpha)
    ref = (dt / 2.0) * (b1 + b3)
    diff = defl.coarse_matrix - ref
    assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-12
    ev = sla.eigvalsh(defl.coarse_matrix.toarray())
    assert ev[0] > 0.0


def test_deflated_cg_coarse_only_rhs(small_system, rng):
    _, system, astar = small_system
    defl = build_deflator(system, 1e-3, astar=astar)
    y = rng.standard_normal(defl.coarse_matrix.shape[0])
    b = astar @ defl.v(y)
    x, report = deflated_cg(astar, b, defl)
    assert report.iterations <= 1
    assert np.allclose(x, defl.v(y), rtol=1e-9)


def test_deflated_cg_matches_dense_solve(small_system, rng):
    _, system, astar = small_system
    defl = build_deflator(system, 1e-3, astar=astar)
    b = rng.standard_normal(astar.shape[0])
    x, report = deflated_cg(astar, b, defl, SolverConfig(tol=1e-12, maxit=2000))
    ref = np.linalg.solve(astar.toarray(), b)
    assert np.linalg.norm(x - ref) / np.linalg.norm(ref) < 1e-7
    assert report.converged


def test_deflated_cg_zero_rhs(small_system):
    _, system, astar = small_system
    defl = build_deflator(system, 1e-3, astar=astar)
    x, report = deflated_cg(astar, np.zeros(astar.shape[0]), defl)
    assert report.iterations == 0 and report.converged
    assert np.all(x == 0.0)


def test_deflated_cg_dt_robust_iterations(bench_system, rng):
    space, system = bench_system
    b = rng.uniform(0.0, 1.0, space.total_dofs)
    counts, cfg = [], SolverConfig(tol=1e-8, maxit=5000)
    for dt in (1e-7, 1e-8, 1e-9, 1e-10):
        astar = build_system(system.m, system.a, dt)
        defl = build_deflator(system, dt, astar=astar)
        _, report = deflated_cg(astar, b, defl, cfg)
        assert report.converged, dt
        counts.append(report.iterations)
        # below dt = 1e-8 every solver's true residual sits near eps * kappa
        cbj = build_block_jacobi(astar, space, "collective")
        floor = 10 * cfg.tol if dt >= 1e-8 else pcg(astar, b, cbj, cfg)[1].true_residual
        assert report.true_residual <= floor, (dt, report.true_residual, floor)
    assert abs(counts[1] - counts[0]) <= 0.10 * counts[0]
    assert max(counts[2:]) <= 1.25 * counts[1], counts


def test_deflated_cg_converges_at_tiny_dt(mesh22, rng):
    # dropping the + Q r term of A-DEF2 lets V^T r drift, amplified by
    # W^-1 = O(1/dt): that loop reads a true residual of 1.3e11 here after
    # 2000 iterations
    system = assemble_system(build_space(mesh22, 1), mu=1.0, alpha=10.0)
    astar = build_system(system.m, system.a, 1e-10)
    defl = build_deflator(system, 1e-10, astar=astar)
    b = rng.uniform(0.0, 1.0, astar.shape[0])
    _, report = deflated_cg(astar, b, defl, SolverConfig(tol=1e-8, maxit=2000))
    assert report.converged and report.true_residual < 1e-6, report


def test_deflated_cg_one_coarse_solve_per_iteration(bench_system, rng):
    space, system = bench_system
    astar = build_system(system.m, system.a, 1e-8)
    defl = build_deflator(system, 1e-8, astar=astar)
    calls, wsolve = [], defl.coarse_solve

    def counting(y):
        calls.append(1)
        return wsolve(y)

    defl.coarse_solve = counting
    _, report = deflated_cg(astar, rng.uniform(0.0, 1.0, astar.shape[0]), defl)
    assert report.converged is True and report.iterations > 0
    assert len(calls) <= report.iterations + 1, (len(calls), report.iterations)


def test_deflation_projector_algebra(small_system, rng):
    """Projector identities of the deflation operator (criterion-7 algebra
    at module scale): idempotence, A*-orthogonality, PSD."""
    _, system, astar = small_system
    defl = build_deflator(system, 1e-3, astar=astar)
    n = astar.shape[0]

    def project(u):  # (I - pi) u
        return u - defl.projection_correction(u)

    for _ in range(20):
        u = rng.standard_normal(n)
        w = rng.standard_normal(defl.coarse_matrix.shape[0])
        once = project(u)
        assert np.linalg.norm(project(once) - once) <= 1e-12 * np.linalg.norm(u)
        ortho = float((astar @ once) @ defl.v(w))
        assert abs(ortho) <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(w)
        assert float((astar @ once) @ once) >= -1e-10 * float(u @ u)


def test_deflator_mismatched_operator(small_system):
    _, system, astar = small_system
    defl = build_deflator(system, 1e-3, astar=astar)
    with pytest.raises(ValueError, match="different size"):
        deflated_cg(sparse.eye(8, format="csr"), np.ones(8), defl)
    with pytest.raises(ValueError, match="different size"):
        deflated_cg(np.eye(8), np.ones(8), defl)


@pytest.mark.parametrize("alpha, builds", [(1.0, False), (1e-3, False), (10.0, True)])
def test_deflator_rejects_indefinite_coarse_operator(alpha, builds):
    # on this mesh W = (dt/2)(B1 + B3) has lambda_min -0.145 (alpha = 1) and
    # -0.571 (alpha = 1e-3), with 4 and 34 negative pivots; alpha = 10 is SPD
    mesh = classify_boundary(build_cartesian_mesh(4, 4), lambda p: p[0] > 1 - 1e-9)
    system = assemble_system(build_space(mesh, 2), mu=1.0, alpha=alpha)
    if builds:
        defl = build_deflator(system, 1e-3)
        assert sla.eigvalsh(defl.coarse_matrix.toarray())[0] > 0.0
    else:
        with pytest.raises(BlockFactorizationError,
                           match="not positive definite: smallest pivot -.*alpha is too small"):
            build_deflator(system, 1e-3)


def test_coarse_solve_matches_dense_solve(rng):
    # criterion 2's mesh: 15x15 -> 50 elements, seed 1, p = 2
    base = classify_boundary(build_cartesian_mesh(15, 15), lambda p: p[0] > 1 - 1e-9)
    system = assemble_system(build_space(agglomerate(base, 50, 1), 2), mu=1.0, alpha=10.0)
    for dt in (1e-3, 1e-6):
        defl = build_deflator(system, dt)
        y = rng.standard_normal(defl.coarse_matrix.shape[0])
        ref = sla.solve(defl.coarse_matrix.toarray(), y, assume_a="sym")
        rel = np.linalg.norm(defl.coarse_solve(y) - ref) / np.linalg.norm(ref)
        assert rel <= 1e-10, dt


# SHA-256 of the little-endian float64 bytes of the A-DEF2 results on
# criterion 2's mesh at p = 2, dt 1e-6, recorded with numpy 2.4.6 and
# scipy 1.17.1: deflated_cg from zero and from a seeded x0, and the raw
# estimate's inverse (inner solves, no LU) applied to a seeded r
PINNED_ADEF2_SHA256 = {
    "dcg": "1866a75e3c411e24e939262b791c0ee7e440a77ee8fb97ed64c1b221e2558e49",
    "dcg-x0": "94eb45868001084ca91d7bac3731606e4c69bdf5340feabda771bb0602b85e4d",
    "inverse": "b0686d490c0977304b31ebe56dd333ba0af38e0dc216b2e34753dd3d90ba72a1",
}


def test_adef2_bits_pinned(monkeypatch):
    base = classify_boundary(build_cartesian_mesh(15, 15), lambda p: p[0] > 1 - 1e-9)
    space = build_space(agglomerate(base, 50, 1), 2)
    system = assemble_system(space, mu=1.0, alpha=10.0)
    astar = build_system(system.m, system.a, 1e-6)
    defl = build_deflator(None, None, astar)
    inverse = krylov.deflated_inverse(astar, defl, build_block_jacobi(astar, space, "collective"))
    rng = np.random.default_rng(2)
    b, x0, r = (rng.standard_normal(astar.shape[0]) for _ in range(3))

    def no_lu(matrix, what):
        raise AssertionError(f"LU of the {what}")

    monkeypatch.setattr(krylov, "_spd_lu", no_lu)
    config = SolverConfig(tol=1e-8, maxit=1000)
    got = {"dcg": deflated_cg(astar, b, defl, config)[0],
           "dcg-x0": deflated_cg(astar, b, defl, config, x0)[0],
           "inverse": inverse(r)}
    assert {key: hashlib.sha256(np.ascontiguousarray(x, dtype="<f8").tobytes()).hexdigest()
            for key, x in got.items()} == PINNED_ADEF2_SHA256


# -- solver equivalence --------------------------------------------------------

def test_all_solvers_agree_with_dense(small_system, rng):
    space, system, astar = small_system
    ref = None
    b = rng.standard_normal(astar.shape[0])
    ref = np.linalg.solve(astar.toarray(), b)
    cfg = SolverConfig(tol=1e-12, maxit=5000)
    defl = build_deflator(system, 1e-3, astar=astar)
    sols = {
        "cg": cg(astar, b, cfg)[0],
        "dcg": deflated_cg(astar, b, defl, cfg)[0],
        "pcg-bj": pcg(astar, b, build_block_jacobi(astar, space, "component"), cfg)[0],
        "pcg-cbj": pcg(astar, b, build_block_jacobi(astar, space, "collective"), cfg)[0],
    }
    for name, x in sols.items():
        rel = np.linalg.norm(x - ref) / np.linalg.norm(ref)
        assert rel < 10 * cfg.tol * 1e4, name  # kappa(A*) ~ 1e4 at dt=1e-3


@pytest.mark.parametrize("where", ["operator", "rhs"])
def test_solvers_stop_on_nan(small_system, rng, where):
    space, system, astar = small_system
    b = rng.standard_normal(astar.shape[0])
    if where == "operator":
        # couples s12 of element 0 to s21 of element 1: outside every
        # Block-Jacobi block and outside the deflation coarse operator
        a = astar.tolil()
        S, L = space.scalar_dofs, space.local_dim
        a[S, 2 * S + L] = np.nan
        astar = a.tocsr()
    else:
        b[5] = np.nan
    defl = build_deflator(system, 1e-3, astar=astar)
    cbj = build_block_jacobi(astar, space, "collective")
    reports = {"cg": cg(astar, b)[1], "dcg": deflated_cg(astar, b, defl)[1],
               "pcg-cbj": pcg(astar, b, cbj)[1]}
    for name, report in reports.items():
        assert not report.converged and report.iterations <= 1, name


# -- stop reasons -----------------------------------------------------------------

def _random_symmetric(local_dim, elements, log_spread, seed, signs=None):
    """Q diag(lam) Q^T of size 4 * local_dim * elements, |lam| from 1 to
    10**log_spread (times ``signs``), as a CSR matrix, next to |A| (its
    SPD twin), a stand-in for the DG space of its block layout and the
    generator that drew it."""
    n = 4 * local_dim * elements
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = 10.0 ** rng.uniform(0.0, log_spread, n)
    lam[[0, -1]] = 1.0, 10.0 ** log_spread
    a, spd = ((q * v) @ q.T for v in (lam if signs is None else signs * lam, lam))
    space = SimpleNamespace(local_dim=local_dim, n_elements=elements,
                            scalar_dofs=local_dim * elements)
    return sparse.csr_matrix((a + a.T) / 2.0), sparse.csr_matrix((spd + spd.T) / 2.0), space, rng


def _solve_all(a, b, space, config, spd=None):
    """Every solver on A x = b, its Block-Jacobi blocks and deflator built
    from ``spd`` (A when None)."""
    spd = a if spd is None else spd
    return {"cg": cg(a, b, config),
            "pcg-bj": pcg(a, b, build_block_jacobi(spd, space, "component"), config),
            "pcg-cbj": pcg(a, b, build_block_jacobi(spd, space, "collective"), config),
            "dcg": deflated_cg(a, b, build_deflator(None, None, spd), config)}


_SYSTEMS = dict(local_dim=st.integers(1, 3), elements=st.integers(1, 3),
                log_spread=st.floats(0.0, 4.0), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**_SYSTEMS)
def test_solvers_agree_with_dense_on_random_spd(local_dim, elements, log_spread, seed):
    a, _, space, rng = _random_symmetric(local_dim, elements, log_spread, seed)
    b = rng.standard_normal(a.shape[0])
    ref = np.linalg.solve(a.toarray(), b)
    for name, (x, report) in _solve_all(a, b, space, SolverConfig(1e-12, 2000)).items():
        assert report.converged and report.reason == "converged", (name, report)
        assert np.linalg.norm(x - ref) <= 1e-6 * np.linalg.norm(ref), name


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**_SYSTEMS, where=st.sampled_from(["rhs", "operator"]), entry=st.integers(0, 2**16))
def test_non_finite_data_stop_within_one_iteration(local_dim, elements, log_spread, seed,
                                                   where, entry):
    """A NaN in b, or in A outside what the preconditioners and the
    deflator were built from, stops every solver as non_finite."""
    a, _, space, rng = _random_symmetric(local_dim, elements, log_spread, seed)
    b = rng.standard_normal(a.shape[0])
    bad = a.toarray()
    i, j = divmod(entry % bad.size, a.shape[0])
    if where == "rhs":
        b[i] = np.nan
    else:
        bad[i, j] = bad[j, i] = np.nan
    for name, (_, report) in _solve_all(sparse.csr_matrix(bad), b, space, SolverConfig(),
                                        spd=a).items():
        assert not report.converged and report.reason == "non_finite", (name, report)
        assert report.iterations <= 1, name


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**_SYSTEMS, flips=st.integers(1, 2**32 - 1))
def test_indefinite_operator_breaks_down(local_dim, elements, log_spread, seed, flips):
    """A with eigenvalues of both signs, its
    preconditioners and deflator built from |A|: with every p.Ap positive,
    CG's Ritz values would all be positive and the residual could never
    lose its component along a negative eigenvector, so each solver stops
    on a p.Ap <= 0 (or a negative r.z) long before maxit."""
    n = 4 * local_dim * elements
    signs = np.where((flips >> np.arange(n) % 32) & 1, -1.0, 1.0)
    signs[[0, -1]] = -1.0, 1.0  # lam[0] = -1, lam[-1] = 10**log_spread
    a, spd, space, rng = _random_symmetric(local_dim, elements, log_spread, seed, signs)
    b = rng.standard_normal(n)
    for name, (_, report) in _solve_all(a, b, space, SolverConfig(1e-8, 10 * n + 50),
                                        spd=spd).items():
        assert not report.converged and report.reason == "breakdown", (name, report)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(local_dim=st.integers(1, 3), elements=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
def test_iteration_cap_reports_maxit(local_dim, elements, seed):
    a, _, space, rng = _random_symmetric(local_dim, elements, 6.0, seed)
    b = rng.standard_normal(a.shape[0])
    for name, (_, report) in _solve_all(a, b, space, SolverConfig(1e-8, 1)).items():
        assert not report.converged and report.reason == "maxit", (name, report)
        assert report.iterations == 1, name


# -- condition number estimation ------------------------------------------------

def test_condition_number_diagonal():
    a = sparse.diags(np.arange(1.0, 11.0)).tocsr()
    est = estimate_condition_number(a, tol=1e-6)
    assert est.converged
    assert est.kappa == pytest.approx(10.0, rel=0.01)


def test_condition_number_vs_dense_oracle(small_system):
    _, system, _ = small_system
    for dt in (1e-6, 1e-8):
        astar = build_system(system.m, system.a, dt)
        est = estimate_condition_number(astar, tol=1e-5)
        ev = sla.eigvalsh(astar.toarray())
        assert est.converged
        assert est.kappa == pytest.approx(ev[-1] / ev[0], rel=1e-3)


def test_condition_number_dt_scaling(small_system):
    _, system, _ = small_system
    ks = [estimate_condition_number(build_system(system.m, system.a, dt), tol=1e-5).kappa
          for dt in (1e-9, 1e-10)]
    assert 8.0 <= ks[1] / ks[0] <= 12.0


def test_preconditioned_condition_number_vs_dense(small_system):
    space, system, astar = small_system
    cbj = build_block_jacobi(astar, space, "collective")
    n = astar.shape[0]
    pmat = np.empty((n, n))
    eye = np.eye(n)
    for i in range(n):
        pmat[:, i] = cbj.apply(eye[:, i])
    ev = sla.eigh(astar.toarray(), np.linalg.inv(pmat), eigvals_only=True)
    est = estimate_condition_number(astar, preconditioner=cbj, tol=1e-6)
    assert est.converged
    assert est.kappa == pytest.approx(ev[-1] / ev[0], rel=1e-4)


def test_preconditioned_plateau(bench_system):
    space, system = bench_system
    ks = []
    for dt in (1e-8, 1e-9):
        astar = build_system(system.m, system.a, dt)
        cbj = build_block_jacobi(astar, space, "collective")
        ks.append(estimate_condition_number(astar, preconditioner=cbj, tol=1e-3).kappa)
    assert abs(ks[1] - ks[0]) <= 0.05 * ks[0]


def _inverse_and_lu_estimates(monkeypatch, space, system, dt):
    """The raw estimate at dt through ``deflated_inverse`` and through the
    LU path, and the sizes ``_spd_lu`` factorised for the former."""
    astar = build_system(system.m, system.a, dt)
    factorised, spd_lu = [], krylov._spd_lu

    def recording_spd_lu(matrix, what):
        factorised.append(matrix.shape[0])
        return spd_lu(matrix, what)

    monkeypatch.setattr(krylov, "_spd_lu", recording_spd_lu)
    inverse = krylov.deflated_inverse(astar, build_deflator(None, None, astar),
                                      build_block_jacobi(astar, space, "collective"))
    inner = estimate_condition_number(astar, inverse=inverse)
    monkeypatch.setattr(krylov, "_spd_lu", spd_lu)
    return inner, estimate_condition_number(astar), factorised, astar.shape[0]


@pytest.mark.parametrize("dt", [1e-8, 1e-9, 1e-10])
def test_raw_condition_number_through_inner_solves(monkeypatch, bench_system, dt):
    """At small dt the inner A-DEF2 solves apply A*^-1 with no n x n LU, and
    kappa matches the LU path's."""
    inner, lu, factorised, n = _inverse_and_lu_estimates(monkeypatch, *bench_system, dt)
    assert factorised == [n // 4]  # the coarse operator W alone
    assert inner.converged and lu.converged
    assert inner.kappa == pytest.approx(lu.kappa, rel=1e-6)


def test_raw_condition_number_falls_back_to_lu_at_large_dt(monkeypatch, bench_system):
    """At dt 1e-2 the first inner solve exceeds INVERSE_MAXIT, so every
    application of the inverse is the LU's and the estimate is the LU
    path's exactly."""
    inner, lu, factorised, n = _inverse_and_lu_estimates(monkeypatch, *bench_system, 1e-2)
    assert factorised == [n // 4, n]
    assert inner == lu


def test_inner_solve_inverse_rejects_indefinite_matrix():
    """An indefinite operator whose coarse operator W is SPD: an inner solve
    fails, and the LU it hands over to names the negative pivot."""
    S = 6
    a = sparse.diags(np.concatenate([np.linspace(1.0, 2.0, S), np.linspace(1.0, 3.0, S),
                                     [1.0, 2.0, -0.5, 3.0, 4.0, 5.0],
                                     np.linspace(2.0, 3.0, S)])).tocsr()
    inverse = krylov.deflated_inverse(a, build_deflator(None, None, a), np.eye(4 * S))
    with pytest.raises(BlockFactorizationError, match="smallest pivot -5.000e-01"):
        estimate_condition_number(a, inverse=inverse, tol=1e-6)


def test_inverse_next_to_preconditioner_is_rejected(small_system):
    _, _, astar = small_system
    with pytest.raises(ValueError, match="without a preconditioner"):
        estimate_condition_number(astar, preconditioner=np.eye(astar.shape[0]),
                                  inverse=lambda r: r)


def test_condition_number_flags_unconverged(small_system, rng):
    _, _, astar = small_system
    est = estimate_condition_number(astar, tol=1e-12, maxit=4)
    assert not est.converged


def test_condition_number_runs_past_n_steps():
    """Without reorthogonalisation a small preconditioned problem can need
    more than n steps to certify: this n = 12 one (the generator of the
    test below, log_spread 3, seed 17) takes 15, and capped at n steps it
    reported an unconverged kappa of 2781 for 12430."""
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    lam = 10.0 ** rng.uniform(0.0, 3.0, 12)
    lam[[0, -1]] = 1.0, 1e3
    a = (q * lam) @ q.T
    a = (a + a.T) / 2.0
    d = np.diag(10.0 ** rng.uniform(-1.0, 1.0, 12))
    ev = sla.eigh(a, np.linalg.inv(d), eigvals_only=True)
    assert not estimate_condition_number(a, preconditioner=d, maxit=12).converged
    est = estimate_condition_number(a, preconditioner=d)
    assert est.converged and est.iterations > 12
    assert est.kappa == pytest.approx(ev[-1] / ev[0], rel=1e-3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 40), log_spread=st.floats(0.0, 6.0), seed=st.integers(0, 2**32 - 1),
       preconditioned=st.booleans(), tol=st.sampled_from([1e-3, 1e-5, 1e-7]))
def test_condition_number_matches_dense_eigenvalues(n, log_spread, seed, preconditioned, tol):
    """A random SPD Q diag(lam) Q^T with lam from 1 to 10**log_spread, with
    or without a random SPD diagonal preconditioner D, against the dense
    eigenvalues of the pencil (A, D^-1).  Every certified Ritz value of a
    converged estimate lies within tol of an eigenvalue, and kappa is within
    3 tol of the dense one when both extreme eigenvalues are more than
    10 tol from their neighbours.  Closer extremes can certify the
    neighbour: n = 21, log_spread = 3, seed = 21, tol = 1e-3 has its two
    smallest eigenvalues 3.6e-3 apart and estimates kappa 0.36 % low."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = 10.0 ** rng.uniform(0.0, log_spread, n)
    lam[[0, -1]] = 1.0, 10.0 ** log_spread
    a = (q * lam) @ q.T
    a = (a + a.T) / 2.0
    d = 10.0 ** rng.uniform(-1.0, 1.0, n)
    if preconditioned:
        est = estimate_condition_number(a, preconditioner=np.diag(d), tol=tol)
        ev = sla.eigh(a, np.diag(1.0 / d), eigvals_only=True)
    else:
        est = estimate_condition_number(a, tol=tol)
        ev = sla.eigvalsh(a)
    if not est.converged:
        return
    for theta in (est.lam_min, est.lam_max):
        assert np.abs(ev - theta).min() <= 1.01 * tol * theta
    if min(ev[1] / ev[0] - 1.0, 1.0 - ev[-2] / ev[-1]) > 10 * tol:
        assert est.kappa == pytest.approx(ev[-1] / ev[0], rel=3 * tol)


def _nan_diagonal():
    d = np.linspace(1.0, 100.0, 50)
    d[10] = np.nan
    return sparse.diags(d).tocsr()


@pytest.mark.parametrize("a, preconditioner", [
    # w.z < 0 in the preconditioner inner product: not an invariant subspace
    pytest.param(sparse.diags(np.linspace(1.0, 100.0, 50)).tocsr(),
                 sparse.diags(np.r_[np.ones(49), -1.0]).tocsr(), id="indefinite-preconditioner"),
    pytest.param(_nan_diagonal(), sparse.eye(50, format="csr"), id="nan-operator"),
])
def test_condition_number_not_certified_on_bad_data(a, preconditioner):
    est = estimate_condition_number(a, preconditioner=preconditioner, tol=1e-6)
    assert not est.converged


def test_raw_condition_number_of_nan_operator_fails_its_factorisation():
    """The forward CG run stops on the NaN; the inverse run's
    factorisation then names the NaN and its row, not scipy's tridiagonal
    eigensolver or SuperLU's singular pivot."""
    with pytest.raises(BlockFactorizationError,
                       match=r"^operator holds a NaN or inf in row 10$"):
        estimate_condition_number(_nan_diagonal(), tol=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spd_factorisation_names_nonfinite_row(bad):
    a = sparse.diags(np.linspace(1.0, 100.0, 50)).tolil()
    a[3, 7] = a[7, 3] = bad
    a[20, 20] = bad
    with pytest.raises(BlockFactorizationError, match=r"^matrix holds a NaN or inf in row 3$"):
        krylov._spd_lu(a, "matrix")


def test_lanczos_keeps_no_basis(bench_system):
    """The preconditioned estimate holds CG's few n-vectors and two floats
    per step for its tridiagonal, not a Krylov basis: with stored bases,
    maxit = 800 would need 2 (n + 1) n doubles."""
    space, system = bench_system
    astar = build_system(system.m, system.a, 1e-8)
    cbj = build_block_jacobi(astar, space, "collective")
    n = astar.shape[0]
    tracemalloc.start()
    try:
        est = estimate_condition_number(astar, preconditioner=cbj, maxit=800)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.converged
    assert peak < 64 * n * 8, (peak, n)


@pytest.mark.parametrize("a, reason", [
    # negative pivots
    (sparse.diags([np.full(9, -1.0), np.linspace(-2.0, 3.0, 10), np.full(9, -1.0)],
                  [-1, 0, 1], format="csr"), "smallest pivot"),
    # a zero diagonal forces a row exchange
    (sparse.csr_matrix(np.kron(np.eye(5), [[0.0, 1.0], [1.0, 0.0]])), "row pivoting"),
])
def test_condition_number_rejects_indefinite_matrix(a, reason):
    # symmetric, nonsingular, eigenvalues of both signs
    ev = sla.eigvalsh(a.toarray())
    assert ev[0] < 0.0 < np.abs(ev).min()
    with pytest.raises(BlockFactorizationError, match=reason):
        estimate_condition_number(a, tol=1e-6)


def test_condition_number_requires_size_for_callable():
    with pytest.raises(ValueError):
        estimate_condition_number(lambda x: x)


# -- operator I/O ---------------------------------------------------------------

def test_operator_round_trip(tmp_path, small_system):
    space, system, astar = small_system
    export_matrices(space, tmp_path, dt=1e-3, mu=system.mu, alpha=system.alpha)
    back = sparse.csr_matrix(mmread(tmp_path / "Astar.mtx"))
    assert np.abs((back - astar).toarray()).max() < 1e-15


# -- row-split products ----------------------------------------------------------

_pool_ids = itertools.count()


@pytest.fixture
def pool_threads(monkeypatch):
    """Gives the test a pool of its own, whose thread has not been started,
    and shuts it down at teardown.  Returns a callable listing the pool's
    live threads, found by their name prefix."""
    prefix = f"test-split-{next(_pool_ids)}_"
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix=prefix)
    monkeypatch.setattr(krylov, "_pool", pool)
    yield lambda: [t for t in threading.enumerate() if t.name.startswith(prefix)]
    pool.shutdown(wait=True)


def _odd_matrix():
    return sparse.random(1001, 1001, density=0.01, format="csr",
                         random_state=np.random.default_rng(7))


def _split_cases():
    """An odd row count, one row, rows with no entries and the rectangular
    S x 4S shape of (A* V)^T."""
    rng = np.random.default_rng(8)
    empty_rows = sparse.random(40, 40, density=0.3, format="lil", random_state=rng)
    empty_rows[5:17] = 0.0
    empty_rows[-3:] = 0.0
    return [
        pytest.param(_odd_matrix(), id="odd"),
        pytest.param(sparse.csr_matrix(rng.standard_normal((1, 6))), id="one-row"),
        pytest.param(sparse.csr_matrix([[2.5]]), id="one-by-one"),
        pytest.param(empty_rows.tocsr(), id="empty-rows"),
        pytest.param(sparse.random(250, 1000, density=0.02, format="csr", random_state=rng),
                     id="rectangular"),
    ]


@pytest.mark.parametrize("a", _split_cases())
def test_split_apply_is_bitwise_matvec(a, pool_threads, rng):
    x = rng.standard_normal(a.shape[1])
    y = krylov._split_apply(a)(x)
    assert y.shape == (a.shape[0],)
    assert np.array_equal(y, a @ x)
    assert len(pool_threads()) == 1


def test_split_halves_share_the_matrix_arrays():
    a = _odd_matrix()
    half = krylov._rows(a, 500, a.shape[0])
    assert np.shares_memory(half.data, a.data) and np.shares_memory(half.indices, a.indices)


def test_split_apply_raises_in_caller_and_recovers(pool_threads, rng):
    a = _odd_matrix()
    apply = krylov._split_apply(a)
    with pytest.raises(ValueError):
        apply(np.ones(a.shape[1] + 1))
    x = rng.standard_normal(a.shape[1])
    assert np.array_equal(apply(x), a @ x)


def test_split_bottom_half_exception_reaches_caller(monkeypatch, pool_threads, rng):
    """Only the pool's half raises: the caller gets its exception, and the
    next product of the same apply is the serial one."""
    a = _odd_matrix()
    x = rng.standard_normal(a.shape[1])
    rows, failures = krylov._rows, [KeyError("bottom half")]

    class Bottom:
        def __init__(self, half):
            self.half = half

        def __matmul__(self, x):
            if failures:
                raise failures.pop()
            return self.half @ x

    monkeypatch.setattr(krylov, "_rows", lambda a, start, stop: (
        Bottom(rows(a, start, stop)) if start else rows(a, start, stop)))
    apply = krylov._split_apply(a)
    with pytest.raises(KeyError, match="bottom half"):
        apply(x)
    assert np.array_equal(apply(x), a @ x)
    assert len(pool_threads()) == 1


def test_split_apply_concurrent_callers(pool_threads):
    """Four Python threads share the one pool; each gets the serial product
    of its own vectors."""
    a = _odd_matrix()
    apply = krylov._split_apply(a)
    xs = np.random.default_rng(3).standard_normal((4, 25, a.shape[1]))
    wrong = []

    def caller(k):
        for x in xs[k]:
            if not np.array_equal(apply(x), a @ x):
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(xs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert len(pool_threads()) == 1


def test_as_apply_selects_split_by_nnz_and_cpus(monkeypatch, pool_threads, rng):
    a = _odd_matrix()
    x = rng.standard_normal(a.shape[1])
    monkeypatch.setattr(krylov.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(krylov, "SPLIT_NNZ", a.nnz + 1)
    assert np.array_equal(krylov._as_apply(a)(x), a @ x)
    assert pool_threads() == []
    monkeypatch.setattr(krylov, "SPLIT_NNZ", a.nnz)
    assert np.array_equal(krylov._as_apply(a)(x), a @ x)
    assert len(pool_threads()) == 1


def test_one_cpu_takes_the_serial_path(monkeypatch, pool_threads, bench_system, rng):
    space, system = bench_system
    astar = build_system(system.m, system.a, 1e-6)
    b = rng.uniform(0.0, 1.0, astar.shape[0])
    serial = deflated_cg(astar, b, build_deflator(system, 1e-6, astar=astar))
    monkeypatch.setattr(krylov, "SPLIT_NNZ", 0)
    monkeypatch.setattr(krylov.os, "sched_getaffinity", lambda pid: {0})
    threads = threading.active_count()
    x, report = deflated_cg(astar, b, build_deflator(system, 1e-6, astar=astar))
    assert pool_threads() == [] and threading.active_count() == threads
    assert np.array_equal(x, serial[0])
    assert dataclasses.replace(report, wall_time=0.0) == dataclasses.replace(serial[1], wall_time=0.0)


def test_interpreter_exits_after_a_split_product():
    """The pool's thread is not a daemon: a process that has computed a
    split product still exits, with status 0, when its main thread ends."""
    code = (
        "import os, threading\n"
        "import numpy as np, scipy.sparse as sparse\n"
        "from polystress import krylov\n"
        "krylov.SPLIT_NNZ = 0\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "a = sparse.random(300, 300, density=0.05, format='csr', random_state=1)\n"
        "x = np.arange(300.0)\n"
        "assert np.array_equal(krylov._as_apply(a)(x), a @ x)\n"
        "assert any(t.name.startswith('polystress-split') for t in threading.enumerate())\n"
    )
    src = str(Path(krylov.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr


def _split_product_in_child(conn, a, x):
    conn.send(krylov._split_apply(a)(x))
    conn.close()


def test_split_apply_in_forked_child(pool_threads, rng):
    """A child forked after the parent's pool started its thread gets a pool
    of its own instead of queueing jobs for a thread it does not have."""
    a = _odd_matrix()
    x = rng.standard_normal(a.shape[1])
    assert np.array_equal(krylov._split_apply(a)(x), a @ x)
    assert len(pool_threads()) == 1
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_split_product_in_child, args=(send, a, x))
    child.start()
    try:
        answered = receive.poll(60)
        y = receive.recv() if answered else None
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join(10)
    assert answered, "the forked child never finished its product"
    assert np.array_equal(y, a @ x)


def _split_everything(monkeypatch, cpus=(0, 1)):
    """Every CSR product and Block-Jacobi stack built from here on splits,
    as in a process with ``cpus`` as its affinity."""
    monkeypatch.setattr(krylov, "SPLIT_NNZ", 0)
    monkeypatch.setattr(krylov.os, "sched_getaffinity", lambda pid: set(cpus))


def _serial_and_split(monkeypatch, layout, nblocks, cpus=(0, 1), bs=12):
    """One BlockJacobi over random symmetric blocks built positionally
    twice: as this process builds it, and after
    ``_split_everything(cpus)``."""
    rng = np.random.default_rng(nblocks)
    inv = rng.standard_normal((nblocks, bs, bs))
    inv += inv.transpose(0, 2, 1)
    serial = BlockJacobi(layout, inv)
    _split_everything(monkeypatch, cpus)
    return serial, BlockJacobi(layout, inv)


@pytest.mark.parametrize("layout", ["component", "collective"])
@pytest.mark.parametrize("nblocks", [7, 1], ids=["odd", "one-block"])
def test_block_jacobi_split_apply_is_bitwise_serial(monkeypatch, pool_threads, layout,
                                                     nblocks, rng):
    """Two halves by block index (one of them empty for one block) over
    views of the stack, the bottom one on the pool's thread."""
    serial, split = _serial_and_split(monkeypatch, layout, nblocks)
    assert serial._halves is None and split._halves is not None
    assert all(np.shares_memory(inv, split.inv_blocks) for inv, _ in split._halves if inv.size)
    r = rng.standard_normal(12 * nblocks)
    assert np.array_equal(split.apply(r), serial.apply(r))
    assert len(pool_threads()) == 1


def test_block_jacobi_pool_half_exception_reaches_caller(monkeypatch, pool_threads, rng):
    """Only the pool's half raises: the caller gets its exception, and the
    next apply is the serial one."""
    serial, split = _serial_and_split(monkeypatch, "collective", 7)
    caller, solve, failures = threading.current_thread(), krylov._solve_blocks, [KeyError("pool half")]

    def pool_fails(*halves):
        if failures and threading.current_thread() is not caller:
            raise failures.pop()
        return solve(*halves)

    monkeypatch.setattr(krylov, "_solve_blocks", pool_fails)
    r = rng.standard_normal(7 * 12)
    with pytest.raises(KeyError, match="pool half"):
        split.apply(r)
    assert np.array_equal(split.apply(r), serial.apply(r))
    assert len(pool_threads()) == 1


def test_block_jacobi_split_concurrent_callers(monkeypatch, pool_threads):
    """Four Python threads share one split Block-Jacobi and the one pool;
    each gets the serial bits of its own vectors."""
    serial, split = _serial_and_split(monkeypatch, "collective", 7)
    rs = np.random.default_rng(3).standard_normal((4, 25, 7 * 12))
    wrong = []

    def caller(k):
        for r in rs[k]:
            if not np.array_equal(split.apply(r), serial.apply(r)):
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(rs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert len(pool_threads()) == 1


def test_block_jacobi_one_cpu_starts_no_thread(monkeypatch, pool_threads, rng):
    threads = threading.active_count()
    serial, bj = _serial_and_split(monkeypatch, "component", 7, cpus=(0,))
    r = rng.standard_normal(7 * 12)
    assert bj._halves is None
    assert np.array_equal(bj.apply(r), serial.apply(r))
    assert pool_threads() == [] and threading.active_count() == threads


def _block_apply_in_child(conn, bj, r):
    conn.send(bj.apply(r))
    conn.close()


def test_block_jacobi_split_in_forked_child(monkeypatch, pool_threads, rng):
    """A child forked after the parent's pool started its thread applies a
    split Block-Jacobi on a pool of its own."""
    serial, split = _serial_and_split(monkeypatch, "collective", 7)
    r = rng.standard_normal(7 * 12)
    assert np.array_equal(split.apply(r), serial.apply(r))
    assert len(pool_threads()) == 1
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_block_apply_in_child, args=(send, split, r))
    child.start()
    try:
        answered = receive.poll(60)
        z = receive.recv() if answered else None
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join(10)
    assert answered, "the forked child never finished its apply"
    assert np.array_equal(z, serial.apply(r))


def test_solvers_bitwise_unchanged_by_split(monkeypatch, pool_threads, bench_system, rng):
    """Every solver and both condition estimates return the same bits, and
    the same report apart from wall_time, when every CSR product and
    Block-Jacobi stack is split; the Block-Jacobi halves do run on the
    pool's thread."""
    space, system = bench_system
    dt = 1e-6
    astar = build_system(system.m, system.a, dt)
    b = rng.uniform(0.0, 1.0, astar.shape[0])
    config = SolverConfig(tol=1e-8, maxit=3000)
    solve, block_threads = krylov._solve_blocks, set()

    def recording(*args):
        block_threads.add(threading.current_thread())
        return solve(*args)

    monkeypatch.setattr(krylov, "_solve_blocks", recording)

    def run_all():
        bj = build_block_jacobi(astar, space, "component")
        cbj = build_block_jacobi(astar, space, "collective")
        defl = build_deflator(system, dt, astar=astar)
        solves = [cg(astar, b, config), pcg(astar, b, bj, config), pcg(astar, b, cbj, config),
                  deflated_cg(astar, b, defl, config)]
        return ([(x, dataclasses.replace(r, wall_time=0.0)) for x, r in solves],
                [estimate_condition_number(astar), estimate_condition_number(astar, preconditioner=cbj)])

    serial_solves, serial_kappas = run_all()
    assert pool_threads() == [] and block_threads == {threading.current_thread()}
    _split_everything(monkeypatch)
    split_solves, split_kappas = run_all()
    assert len(pool_threads()) == 1
    assert block_threads == {threading.current_thread(), *pool_threads()}
    for (xs, rs), (xp, rp) in zip(serial_solves, split_solves):
        assert np.array_equal(xs, xp)
        assert rs == rp
    assert serial_kappas == split_kappas
