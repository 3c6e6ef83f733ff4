import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sparse
from scipy.io import mmread

from polystress import (SolverConfig, agglomerate, build_block_jacobi,
                        build_cartesian_mesh, build_deflator, build_space,
                        build_system, cg, classify_boundary, deflated_cg,
                        estimate_condition_number, pcg)
from polystress.assembly import assemble_system, export_matrices
from polystress.krylov import (BlockFactorizationError, collective_permutation,
                               write_residual_history)


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
    assert not report.converged
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


def test_cg_history_and_export(small_system, rng, tmp_path):
    _, _, astar = small_system
    b = rng.standard_normal(astar.shape[0])
    _, report = cg(astar, b, SolverConfig(tol=1e-10, maxit=2000, record_history=True))
    assert report.history is not None
    assert len(report.history) == report.iterations + 1
    assert report.history[-1] <= 1e-10
    path = tmp_path / "hist.csv"
    write_residual_history(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,relative_residual"
    assert len(lines) == len(report.history) + 1


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
    cfg = SolverConfig(tol=1e-9, maxit=3000, record_history=True)
    x1, r1 = cg(astar, b, cfg)
    x2, r2 = pcg(astar, b, lambda r: r.copy(), cfg)
    assert r1.iterations == r2.iterations
    assert np.array_equal(x1, x2)
    assert np.array_equal(r1.history, r2.history)


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


def test_collective_permutation_toy():
    class Toy:
        local_dim, scalar_dofs, n_elements = 1, 2, 2
    perm = collective_permutation(Toy())
    assert perm.tolist() == [0, 2, 4, 6, 1, 3, 5, 7]


def test_block_jacobi_block_counts(small_system):
    space, _, astar = small_system
    bj = build_block_jacobi(astar, space, "component")
    cbj = build_block_jacobi(astar, space, "collective")
    assert bj.nblocks == 4 * space.n_elements
    assert bj.block_size == space.local_dim
    assert cbj.nblocks == space.n_elements
    assert cbj.block_size == 4 * space.local_dim
    with pytest.raises(ValueError):
        build_block_jacobi(astar, space, "banana")


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


def test_block_jacobi_exact_on_block_diagonal(rng):
    space = build_space(build_cartesian_mesh(2, 2), 1)
    L, ne = space.local_dim, space.n_elements
    n = space.total_dofs
    perm = collective_permutation(space)
    dense = np.zeros((n, n))
    bs = 4 * L
    for e in range(ne):
        m = rng.standard_normal((bs, bs))
        blk = m @ m.T + bs * np.eye(bs)
        idx = perm[e * bs:(e + 1) * bs]
        dense[np.ix_(idx, idx)] = blk
    a = sparse.csr_matrix(dense)
    cbj = build_block_jacobi(a, space, "collective")
    r = rng.standard_normal(n)
    assert np.allclose(cbj.apply(r), np.linalg.solve(dense, r), rtol=1e-10)


def test_block_jacobi_rejects_indefinite(small_system):
    space, _, astar = small_system
    bad = astar - sparse.eye(astar.shape[0]) * 10.0
    with pytest.raises(BlockFactorizationError, match="element"):
        build_block_jacobi(bad, space, "collective")


def _cho_oracle_inverses(astar, space, layout):
    """Per-block cho_factor/cho_solve on the dense diagonal blocks of the
    permuted A*, symmetrised."""
    bs = space.local_dim if layout == "component" else 4 * space.local_dim
    perm = np.arange(astar.shape[0]) if layout == "component" else collective_permutation(space)
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
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_block_jacobi_names_nonfinite_element(small_system, layout, bad):
    space, _, astar = small_system
    L = space.local_dim
    for c, e in ((2, 1), (0, 3)):
        i = space.global_index(c, e) + L - 1
        a = astar.tolil()
        a[i, i] = bad
        with pytest.raises(BlockFactorizationError,
                           match=f"{layout} block of element {e} holds a NaN or inf"):
            build_block_jacobi(a.tocsr(), space, layout)
    if layout == "collective":  # an entry coupling two components of element 2
        a = astar.tolil()
        a[space.global_index(0, 2), space.global_index(3, 2) + 1] = bad
        with pytest.raises(BlockFactorizationError, match="element 2 holds"):
            build_block_jacobi(a.tocsr(), space, layout)


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
    ref = (dt / 2.0) * (system.b1 + system.b3)
    diff = defl.coarse_matrix - ref
    assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-12
    ev = sla.eigvalsh(defl.coarse_matrix.toarray())
    assert ev[0] > 0.0


def test_deflated_cg_coarse_only_rhs(small_system, rng):
    _, system, astar = small_system
    defl = build_deflator(system, 1e-3, astar=astar)
    y = rng.standard_normal(defl.scalar_dofs)
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
    counts = []
    for dt in (1e-7, 1e-8):
        astar = build_system(system.m, system.a, dt)
        defl = build_deflator(system, dt, astar=astar)
        _, report = deflated_cg(astar, b, defl, SolverConfig(tol=1e-8, maxit=5000))
        assert report.converged
        counts.append(report.iterations)
    assert abs(counts[1] - counts[0]) <= 0.10 * counts[0]


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
        w = rng.standard_normal(defl.scalar_dofs)
        once = project(u)
        assert np.linalg.norm(project(once) - once) <= 1e-12 * np.linalg.norm(u)
        ortho = float((astar @ once) @ defl.v(w))
        assert abs(ortho) <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(w)
        assert float((astar @ once) @ once) >= -1e-10 * float(u @ u)


def test_deflator_mismatched_operator(small_system):
    _, system, astar = small_system
    defl = build_deflator(system, 1e-3, astar=astar)
    with pytest.raises(ValueError):
        deflated_cg(sparse.eye(8, format="csr"), np.ones(8), defl)


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
        y = rng.standard_normal(defl.scalar_dofs)
        ref = sla.solve(defl.coarse_matrix.toarray(), y, assume_a="sym")
        rel = np.linalg.norm(defl.coarse_solve(y) - ref) / np.linalg.norm(ref)
        assert rel <= 1e-10, dt


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
        a[space.global_index(1, 0), space.global_index(2, 1)] = np.nan
        astar = a.tocsr()
    else:
        b[5] = np.nan
    defl = build_deflator(system, 1e-3, astar=astar)
    cbj = build_block_jacobi(astar, space, "collective")
    reports = {"cg": cg(astar, b)[1], "dcg": deflated_cg(astar, b, defl)[1],
               "pcg-cbj": pcg(astar, b, cbj)[1]}
    for name, report in reports.items():
        assert not report.converged and report.iterations <= 1, name


# -- condition number estimation ------------------------------------------------

def test_condition_number_diagonal():
    a = sparse.diags(np.arange(1.0, 11.0)).tocsr()
    est = estimate_condition_number(a, tol=1e-6)
    assert est.converged
    assert est.kappa == pytest.approx(10.0, rel=0.01)


def test_condition_number_dense_method(small_system):
    _, _, astar = small_system
    est = estimate_condition_number(astar, method="dense")
    ev = sla.eigvalsh(astar.toarray())
    assert est.kappa == pytest.approx(ev[-1] / ev[0], rel=1e-12)


def test_condition_number_dense_method_size_limit():
    # the limit is checked before any dense matrix is formed
    big = sparse.identity(2001, format="csr")
    with pytest.raises(ValueError, match="n <= 2000"):
        estimate_condition_number(big, method="dense")


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
        ks.append(estimate_condition_number(
            astar, n=astar.shape[0], preconditioner=cbj, tol=1e-3).kappa)
    assert abs(ks[1] - ks[0]) <= 0.05 * ks[0]


def test_condition_number_flags_unconverged(small_system, rng):
    _, _, astar = small_system
    apply_only = lambda x: astar @ x  # bare callable: shift-free path
    est = estimate_condition_number(apply_only, n=astar.shape[0], tol=1e-12, maxit=4)
    assert not est.converged


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
    _, system, astar = small_system
    export_matrices(system, tmp_path, dt=1e-3)
    back = sparse.csr_matrix(mmread(tmp_path / "Astar.mtx"))
    assert np.abs((back - astar).toarray()).max() < 1e-15
