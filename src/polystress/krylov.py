"""Krylov solvers for the time-step operator: CG, deflated CG with kernel
deflation, Block-Jacobi preconditioning (component-wise and collective) and
Lanczos condition-number estimation.  cg, pcg and deflated_cg all run the
one conjugate gradient loop ``_cg``.

The deflation space is the kernel of the deviatoric mass operator, spanned
by v kron I with v = (e1 + e4)/sqrt(2): the trace direction of the tensor
components.  The coarse operator W = V^T A* V then equals (dt/2)(B1 + B3)
exactly, a Laplacian-type matrix factorised once and reused.

W, and A* itself for the inverse Lanczos of the raw condition number, are
factorised by ``_spd_lu``: a symmetric minimum-degree ordering and LU
without row pivoting, which needs about half the fill of splu's default
(COLAMD with partial pivoting).  Without pivoting the signs of U's diagonal
are the inertia of the matrix, so the same factorisation checks that it is
positive definite.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from .assembly import SystemMatrices, build_system
from .dg_space import DGSpace


class BlockFactorizationError(RuntimeError):
    """A matrix that must be SPD (a Block-Jacobi block, the deflation coarse
    operator or A*) failed its SPD factorisation."""


@dataclass
class SolverConfig:
    """tol bounds the recursively updated relative residual: ||r||/||b||
    for cg and deflated cg, the preconditioned sqrt(r.z)/sqrt(b.Mb) for
    pcg.  The explicitly recomputed ||b - A x||/||b|| is reported as
    SolverReport.true_residual but does not stop the iteration."""

    tol: float = 1e-8
    maxit: int = 10000
    record_history: bool = False

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must be in (0, 1)")
        if self.maxit < 1:
            raise ValueError("maxit must be >= 1")


@dataclass
class SolverReport:
    iterations: int
    final_residual: float
    converged: bool
    history: np.ndarray | None = None
    wall_time: float = 0.0
    true_residual: float | None = None


def _as_apply(op):
    """An operator or preconditioner as a callable: a sparse matrix or an
    ndarray becomes ``op @ x``, a BlockJacobi its ``apply``, and any other
    callable is used as it is."""
    if sparse.issparse(op) or isinstance(op, np.ndarray):
        return lambda x: op @ x
    if isinstance(op, BlockJacobi):
        return op.apply
    return op


def _cg(apply_a, b, apply_m, deflator, config, x0):
    """The conjugate gradient loop behind cg, pcg and deflated_cg.

    With apply_m the relative preconditioned residual sqrt(r.z)/sqrt(b.Mb)
    is monitored, without it ||r||/||b||.  A deflator enters at two points:
    the start correction x += V W^-1 V^T r0, and the projection of every
    search direction, p -= V W^-1 (A* V)^T z (Tang, Nabben, Vuik and
    Erlangga, J. Sci. Comput. 2009).  The recursively updated residual is
    the convergence criterion (at condition numbers ~1/dt the explicitly
    recomputed residual saturates near eps * kappa and cannot reach tight
    tolerances); the explicit residual is still recomputed once and
    reported.  The loop stops without convergence when p.Ap is not
    positive: loss of positive definiteness, or a NaN in the data.
    """
    start = time.perf_counter()
    b = np.asarray(b, dtype=float)
    history = [] if config.record_history else None

    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - apply_a(x)
    if deflator is not None:
        x += deflator.coarse_component(r)
        r = b - apply_a(x)
    z = apply_m(r) if apply_m is not None else r
    if apply_m is None:
        mb = b
    elif x0 is None and deflator is None:
        mb = z  # r = b on a cold start, so z is already M b
    else:
        mb = apply_m(b)
    denom = float(np.sqrt(b @ mb))
    if denom == 0.0:
        return np.zeros_like(b), SolverReport(0, 0.0, True,
                                              history=np.array([]) if history is not None else None,
                                              wall_time=time.perf_counter() - start,
                                              true_residual=0.0)

    rz = float(r @ z)
    rel = np.sqrt(rz) / denom
    if history is not None:
        history.append(rel)
    iterations = 0
    converged = rel <= config.tol
    p = z.copy()
    if deflator is not None and not converged:
        p -= deflator.projection_correction(z)
    while not converged and iterations < config.maxit:
        q = apply_a(p)
        pq = float(p @ q)
        if not pq > 0.0:
            break  # indefinite operator or non-finite data; report non-convergence
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        z = apply_m(r) if apply_m is not None else r
        rz_new = float(r @ z)
        rel = np.sqrt(rz_new) / denom
        iterations += 1
        if history is not None:
            history.append(rel)
        if rel <= config.tol:
            converged = True
            break
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
        if deflator is not None:
            p -= deflator.projection_correction(z)

    true_rel = float(np.linalg.norm(b - apply_a(x)) / np.linalg.norm(b))
    return x, SolverReport(
        iterations=iterations,
        final_residual=rel,
        converged=converged,
        history=np.asarray(history) if history is not None else None,
        wall_time=time.perf_counter() - start,
        true_residual=true_rel,
    )


def cg(operator, b, config: SolverConfig | None = None, x0=None):
    """Conjugate gradients on an SPD (or consistent PSD) operator."""
    return _cg(_as_apply(operator), b, None, None, config or SolverConfig(), x0)


def pcg(operator, b, preconditioner, config: SolverConfig | None = None, x0=None):
    """CG preconditioned with an SPD apply; with the identity preconditioner
    the iterates coincide with plain cg."""
    return _cg(_as_apply(operator), b, _as_apply(preconditioner), None,
               config or SolverConfig(), x0)


# -- Block-Jacobi -----------------------------------------------------------

LAYOUT_COMPONENT = "component"
LAYOUT_COLLECTIVE = "collective"


@dataclass
class BlockJacobi:
    """Block-diagonal preconditioner of the time-step operator.

    Component-wise blocks have size local_dim, one per (component, element)
    pair; collective blocks have size 4 * local_dim, grouping the four
    tensor components of one element under the permutation
    (c, e, i) -> (e, c, i).  ``inv_blocks`` (nblocks, bs, bs) holds the
    block inverses; ``perm`` maps positions in the contiguous block layout
    back to original dof indices.
    """

    layout: str
    block_size: int
    nblocks: int
    inv_blocks: np.ndarray
    perm: np.ndarray | None = None

    def apply(self, r: np.ndarray) -> np.ndarray:
        rb = r if self.perm is None else r[self.perm]
        zb = np.matmul(self.inv_blocks, rb.reshape(self.nblocks, self.block_size, 1))
        if self.perm is None:
            return zb.reshape(-1)
        z = np.empty(zb.size)
        z[self.perm] = zb.reshape(-1)
        return z

    __call__ = apply


def collective_permutation(space: DGSpace) -> np.ndarray:
    """perm[new] = old dof index grouping the four components per element."""
    L, S, ne = space.local_dim, space.scalar_dofs, space.n_elements
    c = np.tile(np.repeat(np.arange(4), L), ne)
    e = np.repeat(np.arange(ne), 4 * L)
    i = np.tile(np.arange(L), 4 * ne)
    return c * S + e * L + i


def _diagonal_blocks(A: sparse.csr_matrix, bs: int, perm: np.ndarray | None) -> np.ndarray:
    """The (n // bs, bs, bs) diagonal blocks of A[perm][:, perm], read from
    A's CSR arrays through the inverse permutation."""
    n = A.shape[0]
    new = np.arange(n, dtype=A.indices.dtype)
    if perm is not None:
        new[perm] = new.copy()
    rows = np.repeat(new, np.diff(A.indptr))
    cols = new[A.indices]
    mask = rows // bs == cols // bs
    rows, cols = rows[mask], cols[mask]
    blocks = np.zeros((n // bs, bs, bs))
    blocks[rows // bs, rows % bs, cols % bs] = A.data[mask]
    return blocks


def build_block_jacobi(astar, space: DGSpace, layout: str = LAYOUT_COLLECTIVE) -> BlockJacobi:
    """Extract and factorise the diagonal blocks of A* under the layout.

    Each block is factorised by LAPACK's potrf and inverted by potrs, the
    routines behind scipy's cho_factor and cho_solve.  Raises
    BlockFactorizationError naming the first element whose block holds a
    non-finite entry or is not positive definite.
    """
    astar = sparse.csr_matrix(astar)
    L, ne = space.local_dim, space.n_elements
    if layout == LAYOUT_COMPONENT:
        bs, perm = L, None
    elif layout == LAYOUT_COLLECTIVE:
        bs, perm = 4 * L, collective_permutation(space)
    else:
        raise ValueError(f"unknown Block-Jacobi layout: {layout!r}")

    def failure(k, why):
        elem = k if layout == LAYOUT_COLLECTIVE else k % ne
        return BlockFactorizationError(f"{layout} block of element {elem} {why}")

    blocks = _diagonal_blocks(astar, bs, perm)
    finite = np.isfinite(blocks).all(axis=(1, 2))
    if not finite.all():
        raise failure(int(np.argmin(finite)), "holds a NaN or inf")
    potrf, potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), (blocks,))
    inv = np.empty_like(blocks)
    eye = np.eye(bs)
    for k, blk in enumerate(blocks):
        chol, info = potrf(blk, lower=True, overwrite_a=False, clean=False)
        if info != 0:
            raise failure(k, "is not SPD")
        inv[k] = potrs(chol, eye, lower=True, overwrite_b=False)[0]
    inv += inv.transpose(0, 2, 1)
    inv *= 0.5
    return BlockJacobi(layout=layout, block_size=bs, nblocks=len(blocks),
                       inv_blocks=inv, perm=perm)


# -- SPD factorisation -------------------------------------------------------

def _spd_lu(matrix, what: str):
    """Sparse LU of an SPD matrix, checked for positive definiteness.

    The column ordering is minimum degree on A^T + A, applied symmetrically,
    and the diagonal is always taken as pivot.  With no row exchange
    (perm_r == perm_c) the factorisation is P A P^T = L U with U = D L^T, so
    by Sylvester's law of inertia A is positive definite iff every pivot
    diag(U) is positive.
    """
    try:
        lu = splu(sparse.csc_matrix(matrix), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise BlockFactorizationError(f"{what} is singular: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise BlockFactorizationError(
            f"{what} needed row pivoting, so it is not positive definite")
    pivots = lu.U.diagonal()
    if not (np.all(np.isfinite(pivots)) and pivots.min() > 0.0):
        raise BlockFactorizationError(
            f"{what} is not positive definite: smallest pivot {np.nanmin(pivots):.3e}, "
            f"{int(np.sum(~(pivots > 0.0)))} of {pivots.size} pivots not positive")
    return lu


# -- deflation --------------------------------------------------------------

@dataclass
class Deflator:
    """ker(M) deflation data: implicit basis V = v kron I with
    v = (e1 + e4)/sqrt(2), coarse operator W = V^T A* V and its
    factorisation.

    W is formed from A* (not from B1 + B3) and factorised by ``_spd_lu``
    with a symmetric ordering and no row pivoting; building the deflator
    fails with BlockFactorizationError unless every pivot is positive,
    i.e. unless W is SPD (it is indefinite when the penalty alpha is too
    small)."""

    astar: sparse.csr_matrix
    coarse_matrix: sparse.csr_matrix
    _wsolve: object
    _avt: sparse.csr_matrix
    scalar_dofs: int

    @property
    def n(self) -> int:
        return self.astar.shape[0]

    def vt(self, x: np.ndarray) -> np.ndarray:
        """V^T x: gather the two trace components."""
        S = self.scalar_dofs
        return (x[:S] + x[3 * S:]) / np.sqrt(2.0)

    def v(self, y: np.ndarray) -> np.ndarray:
        """V y: scatter a coarse vector into the trace directions."""
        S = self.scalar_dofs
        out = np.zeros(4 * S)
        out[:S] = y / np.sqrt(2.0)
        out[3 * S:] = y / np.sqrt(2.0)
        return out

    def coarse_solve(self, y: np.ndarray) -> np.ndarray:
        return self._wsolve(y)

    def coarse_component(self, b: np.ndarray) -> np.ndarray:
        """V W^-1 V^T b: the part of the solution carried by the deflation
        space."""
        return self.v(self._wsolve(self.vt(b)))

    def projection_correction(self, r: np.ndarray) -> np.ndarray:
        """V W^-1 V^T A* r, the deflation-space component removed from a
        search direction; costs one coarse solve."""
        return self.v(self._wsolve(self._avt @ r))


def build_deflator(system: SystemMatrices, dt: float, astar=None) -> Deflator:
    """Assemble and factorise the coarse operator for ker(M) deflation."""
    if astar is None:
        astar = build_system(system.m, system.a, dt)
    astar = sparse.csr_matrix(astar)
    S = astar.shape[0] // 4
    csc = astar.tocsc()
    av = (csc[:, :S] + csc[:, 3 * S:]) / np.sqrt(2.0)
    w = sparse.csc_matrix((av[:S, :] + av[3 * S:, :]) / np.sqrt(2.0))
    try:
        lu = _spd_lu(w, "coarse deflation operator")
    except BlockFactorizationError as exc:
        raise BlockFactorizationError(
            f"{exc} (the interior penalty alpha is too small)") from exc
    return Deflator(astar=astar, coarse_matrix=w.tocsr(), _wsolve=lu.solve,
                    _avt=av.T.tocsr(), scalar_dofs=S)


def deflated_cg(astar, b, deflator: Deflator, config: SolverConfig | None = None,
                x0=None):
    """CG on the deflated system; the coarse component is recovered through
    the one-time factorisation of W.  Exactly one W-solve per iteration."""
    if sparse.issparse(astar) and astar.shape != deflator.astar.shape:
        raise ValueError("deflator was built from an operator of different size")
    return _cg(_as_apply(astar), b, None, deflator, config or SolverConfig(), x0)


# -- condition-number estimation ---------------------------------------------

@dataclass
class CondEstimate:
    kappa: float
    lam_min: float
    lam_max: float
    iterations: int
    converged: bool


def _lanczos_extremes(apply_a, n, maxit, tol, seed, apply_m=None, track="both"):
    """Symmetric Lanczos with full reorthogonalisation.

    With apply_m the recurrence runs in the preconditioner inner product and
    the Ritz values approximate the spectrum of P A.  Convergence of the
    tracked extreme Ritz values is certified by their residual bound
    beta_k * |last eigenvector entry| <= tol * |theta|.
    """
    maxit = min(maxit, n)
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(n)

    alphas = np.zeros(maxit)
    betas = np.zeros(maxit)
    Q = np.zeros((maxit + 1, n))
    U = np.zeros((maxit + 1, n)) if apply_m is not None else Q

    if apply_m is not None:
        z = apply_m(r)
        beta = np.sqrt(float(r @ z))
    else:
        z = r
        beta = float(np.linalg.norm(r))
    Q[0] = r / beta
    if apply_m is not None:
        U[0] = z / beta

    lam_min = lam_max = np.nan
    converged = False
    k = 0
    while k < maxit:
        w = apply_a(U[k])
        alphas[k] = float(U[k] @ w)
        w -= alphas[k] * Q[k]
        if k > 0:
            w -= betas[k - 1] * Q[k - 1]
        # full reorthogonalisation; with apply_m the U rows make this the
        # preconditioner inner product (U Q^T = I)
        w -= Q[:k + 1].T @ (U[:k + 1] @ w)
        if apply_m is not None:
            z = apply_m(w)
            b2 = float(w @ z)
            beta_k = np.sqrt(b2) if b2 > 0.0 else 0.0
        else:
            beta_k = float(np.linalg.norm(w))
        k += 1
        if beta_k == 0.0:  # exact invariant subspace reached
            ev = scipy.linalg.eigvalsh_tridiagonal(alphas[:k], betas[:k - 1])
            lam_min, lam_max = float(ev[0]), float(ev[-1])
            converged = True
            break
        if k % 5 == 0 or k == maxit:
            ev, vec = scipy.linalg.eigh_tridiagonal(alphas[:k], betas[:k - 1])
            lam_min, lam_max = float(ev[0]), float(ev[-1])
            res_min = beta_k * abs(vec[-1, 0])
            res_max = beta_k * abs(vec[-1, -1])
            ok_max = res_max <= tol * abs(lam_max)
            ok_min = res_min <= tol * max(abs(lam_min), 1e-300)
            if (track == "max" and ok_max) or (track == "both" and ok_max and ok_min):
                converged = True
                break
        betas[k - 1] = beta_k
        Q[k] = w / beta_k
        if apply_m is not None:
            U[k] = z / beta_k

    return lam_min, lam_max, k, converged


#: largest operator that ``estimate_condition_number(method="dense")`` accepts
DENSE_MAX_N = 2000


def estimate_condition_number(operator, n: int | None = None, preconditioner=None,
                              tol: float = 1e-3, maxit: int = 800,
                              seed: int = 0, method: str = "auto") -> CondEstimate:
    """Condition-number estimate from extreme eigenvalues.

    Preconditioned operators use a two-sequence Lanczos recurrence in the
    preconditioner inner product.  For a plain sparse SPD matrix the small
    end of the spectrum is found by Lanczos on the inverse through a
    one-time sparse factorisation (the shift-free recurrence stagnates on
    the near-kernel cluster of the time-step operator), the large end by
    the forward recurrence; that factorisation raises
    BlockFactorizationError unless the matrix is positive definite.
    ``method="dense"`` computes both ends exactly for n <= DENSE_MAX_N
    (2000).  Estimates whose extreme Ritz values fail their residual
    certificate within maxit are flagged converged=False.
    """
    if n is None:
        if hasattr(operator, "shape"):
            n = operator.shape[0]
        else:
            raise ValueError("n is required for a matrix-free operator")

    matrix = None
    if sparse.issparse(operator):
        matrix = operator
    elif isinstance(operator, np.ndarray):
        matrix = sparse.csr_matrix(operator)

    if method == "dense":
        if matrix is None:
            raise ValueError("dense estimation needs an explicit matrix")
        if matrix.shape[0] > DENSE_MAX_N:
            raise ValueError(f"dense estimation is limited to n <= {DENSE_MAX_N}, "
                             f"got n = {matrix.shape[0]}")
        ev = scipy.linalg.eigvalsh(matrix.toarray())
        return CondEstimate(kappa=float(ev[-1] / ev[0]), lam_min=float(ev[0]),
                            lam_max=float(ev[-1]), iterations=0, converged=True)
    if method not in ("auto", "lanczos"):
        raise ValueError(f"unknown estimation method {method!r}")

    apply_a = _as_apply(operator)
    apply_m = _as_apply(preconditioner)

    if apply_m is not None:
        lam_min, lam_max, k, converged = _lanczos_extremes(
            apply_a, n, maxit, tol, seed, apply_m=apply_m, track="both")
    elif matrix is not None:
        _, lam_max, k1, conv1 = _lanczos_extremes(apply_a, n, maxit, tol, seed,
                                                  track="max")
        lu = _spd_lu(matrix, "operator")
        _, inv_max, k2, conv2 = _lanczos_extremes(lu.solve, n, maxit, tol, seed,
                                                  track="max")
        lam_min, k, converged = 1.0 / inv_max, k1 + k2, conv1 and conv2
    else:
        lam_min, lam_max, k, converged = _lanczos_extremes(
            apply_a, n, maxit, tol, seed, track="both")

    kappa = lam_max / lam_min if lam_min > 0 else np.inf
    return CondEstimate(kappa=float(kappa), lam_min=float(lam_min),
                        lam_max=float(lam_max), iterations=k, converged=converged)


# -- residual history I/O -----------------------------------------------------

def write_residual_history(path, report: SolverReport) -> None:
    """CSV export of a recorded residual history (iteration, residual)."""
    if report.history is None:
        raise ValueError("solver was run without record_history")
    with open(path, "w") as fh:
        fh.write("iteration,relative_residual\n")
        for i, res in enumerate(report.history):
            fh.write(f"{i},{res:.16e}\n")
