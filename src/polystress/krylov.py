"""Krylov solvers for the time-step operator: CG, deflated CG with kernel
deflation, Block-Jacobi preconditioning (component-wise and collective) and
Lanczos condition-number estimation.  cg, pcg, deflated_cg,
estimate_condition_number and the inner solves of deflated_inverse all run
the one conjugate gradient loop ``_cg``; the estimator reads the extreme
eigenvalues off the Lanczos tridiagonal that CG's own coefficients define.
``Operators(space, system, dt)`` forms one cell's A* and keeps its
factorisations and the raw estimate's ``inverse``, each built on first use;
``make_solver(name, ops, config)`` turns a name from ``SOLVERS`` into a
solve callable that reads its factorisation from ``ops``, so the solvers
and condition estimates of one cell share every factorisation.

The deflation space is the kernel of the deviatoric mass operator, spanned
by v kron I with v = (e1 + e4)/sqrt(2): the trace direction of the tensor
components.  The coarse operator W = V^T A* V then equals (dt/2)(B1 + B3)
exactly, a Laplacian-type matrix factorised once and reused.  ``_adef2``,
the one A-DEF2 set-up of deflated_cg and deflated_inverse, hands ``_cg`` a
start vector and the A-DEF2 preconditioner, nothing else.

The set-up builds work in chunks of about ``dg_space.CHUNK`` entries of
A*: ``build_deflator`` sums A* V from A*'s CSR column slices in row chunks
(``assembly._by_rows``, unfiltered) and transposes it once (A* V in CSR is
its one operator-sized temporary), and
``build_block_jacobi`` gathers, factorises, inverts and symmetrises the
diagonal blocks a chunk at a time, straight into the stack of inverses.
Both Block-Jacobi layouts are one code path, read off the number of
stress components per block (1 component-wise, 4 collective).

Products of at least ``SPLIT_NNZ`` = 500,000 stored entries run on two
CPUs: the A* product of cg, pcg, deflated_cg, their true residual and the
condition estimate (``_as_apply``), the (A* V)^T r product of
``Deflator.apply`` (also that of ``Deflator.projection_correction``, which
no solver calls: only the benchmark harness and the test of criterion 7
do), and ``BlockJacobi.apply``.  A CSR matrix is cut into two row halves of equal
nnz, a Block-Jacobi stack into two halves by block index, both over views
of the arrays; the one thread of a ``concurrent.futures.ThreadPoolExecutor``
(``_pool``) computes the bottom half as the caller computes the top one,
in scipy's CSR kernel or numpy's matmul, which release the GIL.  Every row
and every block is summed as the serial product sums it, so iterates,
counts and tables are bitwise those of the serial products.  The cut-off
keeps every operator of 100 elements and p = 3 serial (A* has 214,414
nonzeros there, and the hand-off cost more per dcg iteration than it
saved), and splits A* from 200 elements (501,288), (A* V)^T at 900
(1,059,991), where split dcg, pcg-cbj and cg iterations took 0.75, 0.78
and 0.73 of the serial time on a 2-vCPU host, and the collective
Block-Jacobi stack from 400 elements (640,000 entries), where a pcg-cbj
iteration with the apply split took 0.91 of its time with the apply
serial, and 0.79 at 900 (1,440,000); at 200 elements (320,000) it took
1.13, so that stack stays serial.  A process whose CPU affinity is one
CPU keeps the serial products.  Within a solve nothing else is threaded:
the coarse solve, the vector updates and BLAS stay on the solving thread.
``bench.run_iteration_table`` runs whole solves concurrently, one thread
per CPU; from 200 elements these solves share the one split thread (three
threads on two CPUs), and every product is still bitwise the serial one.

W is factorised by ``_spd_lu``: a symmetric minimum-degree ordering and
LU without row pivoting, which needs about half the fill of splu's default
(COLAMD with partial pivoting).  Without pivoting the signs of U's
diagonal are the inertia of the matrix, so the same factorisation checks
that it is positive definite.  The smallest eigenvalue of the raw
condition number comes from a CG run on A*^-1.  ``deflated_inverse``
applies A*^-1 by inner CG solves preconditioned with A-DEF2 around the
collective Block-Jacobi, which take 3-14 iterations for dt <= 1e-6 at 100
elements; past ``INVERSE_MAXIT`` iterations (large dt) it hands over to a
``_spd_lu`` factorisation of A* itself.  At 100 elements that n x n
factor has about 1.5M nonzeros against A*'s 215k; without a ``DGSpace``
it is the only inverse ``estimate_condition_number`` has.
"""
from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from . import dg_space
from .assembly import SystemMatrices, _by_rows, _rows, build_system
from .dg_space import DGSpace, _cho_factor_stack, _cho_solve_stack, _NotSPD


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

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must be in (0, 1)")
        if self.maxit < 1:
            raise ValueError("maxit must be >= 1")


@dataclass
class SolverReport:
    iterations: int
    final_residual: float
    wall_time: float = 0.0
    true_residual: float | None = None
    ritz: tuple[float, float] | None = None  # smallest, largest: the "ritz" stop's last check
    # why the loop stopped: "converged", "maxit" (the cap reached first),
    # "breakdown" (p.Ap <= 0, or r.z or b.Mb negative) or "non_finite" (one
    # of those NaN or inf)
    reason: str = "converged"

    @property
    def converged(self) -> bool:
        return self.reason == "converged"


#: stored entries from which a CSR product (``_as_apply``) or a
#: Block-Jacobi apply runs as two halves on two CPUs at once (see the
#: module docstring for the measurement)
SPLIT_NNZ = 500_000


def _new_pool():
    """The pool of the split products (``_split_apply``,
    ``BlockJacobi.apply``): one thread, started on the first job.  Its jobs
    never submit to it, so the one thread cannot deadlock."""
    global _pool
    _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="polystress-split")


_new_pool()
# a forked child has no copy of the pool's thread: it gets a pool of its own
os.register_at_fork(after_in_child=_new_pool)


def _splits(size: int) -> bool:
    """Whether a product over ``size`` stored entries runs as two halves:
    at least SPLIT_NNZ of them, in a process that may run on more than one
    CPU."""
    return size >= SPLIT_NNZ and len(os.sched_getaffinity(0)) > 1


def _split_apply(a: sparse.csr_matrix):
    """``x -> a @ x`` with the rows cut in two halves of equal nnz: the
    pool's thread multiplies the bottom half as the caller multiplies the
    top one.  Every row is summed by the same scipy kernel in the same
    order, so the product is bitwise ``a @ x``.  Each call gets its own
    future, so concurrent callers stay correct and an exception in either
    half reaches the caller whose product raised it."""
    mid = int(np.searchsorted(a.indptr, a.nnz // 2))
    top, bottom = _rows(a, 0, mid), _rows(a, mid, a.shape[0])

    def apply(x):
        lower = _pool.submit(bottom.__matmul__, x)
        return np.concatenate((top @ x, lower.result()))

    return apply


def _as_apply(op):
    """An operator or preconditioner as a callable: a CSR matrix whose nnz
    ``_splits``, the ``_split_apply`` product (the pool starts its thread
    on the first one); any other sparse matrix or ndarray ``op @ x``; a
    BlockJacobi its ``apply``; and any other callable as it is."""
    if sparse.issparse(op) and op.format == "csr" and _splits(op.nnz):
        return _split_apply(op)
    if sparse.issparse(op) or isinstance(op, np.ndarray):
        return lambda x: op @ x
    if isinstance(op, BlockJacobi):
        return op.apply
    return op


def _ritz_extremes(coefficients, both_ends, tol):
    """The smallest and largest Ritz values of the Lanczos tridiagonal T_k
    of k CG steps' (alpha, beta), and whether they are certified.

    T_k has diagonal 1/alpha_j + beta_{j-1}/alpha_{j-1} and off-diagonal
    sqrt(beta_j)/alpha_j (Saad, Iterative Methods for Sparse Linear Systems,
    2nd ed., 6.7.3).  Bisection and inverse iteration give the two extreme
    pairs in O(k) memory.  A Ritz value counts as converged when its
    residual bound, the next off-diagonal entry times |last eigenvector
    entry|, is at most tol * |theta|: in finite precision, lost
    orthogonality only repeats Ritz values that have converged, so a small
    bound certifies the value (Paige, Linear Algebra Appl. 34, 1980).  The
    smallest is certified too only when both_ends.
    """
    k = len(coefficients)
    alphas, betas = np.array(coefficients).T
    diag = 1.0 / alphas
    diag[1:] += betas[:-1] / alphas[:-1]
    off = np.sqrt(betas) / alphas  # off[-1] is the next entry, of T_k+1
    (lam_min,), s_min = scipy.linalg.eigh_tridiagonal(
        diag, off[:-1], select="i", select_range=(0, 0))
    (lam_max,), s_max = scipy.linalg.eigh_tridiagonal(
        diag, off[:-1], select="i", select_range=(k - 1, k - 1))
    certified = off[-1] * abs(s_max[-1, 0]) <= tol * abs(lam_max) and (
        not both_ends or off[-1] * abs(s_min[-1, 0]) <= tol * max(abs(lam_min), 1e-300))
    return (float(lam_min), float(lam_max)), bool(certified)


def _failure(*values) -> str:
    """The stop reason for a p.Ap, r.z or b.Mb outside its range."""
    return "breakdown" if np.isfinite(values).all() else "non_finite"


def _cg(apply_a, b, apply_m, stop, config, x0, true_residual=True):
    """The preconditioned CG loop behind cg, pcg, deflated_cg,
    deflated_inverse and estimate_condition_number, from x0 (zero when
    None).

    It stops once the relative residual named by ``stop`` is at most tol:
    "residual" ||r||/||b|| (cg, deflated_cg) or "preconditioned"
    sqrt(r.z)/sqrt(b.Mb) (pcg).  The recursively updated residual is the
    criterion (at condition numbers ~1/dt the recomputed residual saturates
    near eps * kappa); the explicit one, one more product with A, is
    recomputed once and reported when ``true_residual`` (the condition
    estimate and the inner solves of deflated_inverse read none).  "ritz"
    keeps each step's (alpha, beta) and stops once ``_ritz_extremes``
    certifies them, checked every 5 steps, at maxit and at beta = 0 (an
    invariant subspace); both ends are certified with apply_m, the largest
    alone without, and the last check is reported as ``SolverReport.ritz``.
    The loop stops unconverged when p.Ap is not positive (loss of positive
    definiteness) or r.z, b.Mb included, is negative (an indefinite
    preconditioner), reported as ``reason`` "breakdown", or when one of
    them is NaN or inf ("non_finite"); after maxit unconverged steps the
    reason is "maxit".
    """
    start = time.perf_counter()
    b = np.asarray(b, dtype=float)

    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - apply_a(x)
    z = apply_m(r) if apply_m is not None else r
    if stop == "residual" or apply_m is None:
        mb = b
    elif x0 is None:
        mb = z  # r = b on a cold start, so z is already M b
    else:
        mb = apply_m(b)
    bmb, rz = float(b @ mb), float(r @ z)
    if bmb == 0.0:
        return np.zeros_like(b), SolverReport(0, 0.0, time.perf_counter() - start, 0.0)

    dot_rr = stop == "residual" and apply_m is not None  # without apply_m, r.z is r.r
    definite = 0.0 < bmb < np.inf and 0.0 <= rz < np.inf
    reason = None if definite else _failure(bmb, rz)
    denom = np.sqrt(bmb) if definite else np.nan
    rel = np.sqrt(float(r @ r) if dot_rr else rz) / denom if definite else np.nan
    iterations, coefficients, ritz = 0, [], None
    converged = bool(rel <= config.tol)
    p = z.copy()
    while definite and not converged and iterations < config.maxit:
        q = apply_a(p)
        pq = float(p @ q)
        if not 0.0 < pq < np.inf:
            reason = _failure(pq)  # an indefinite operator or non-finite data
            break
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        iterations += 1
        if dot_rr:  # the stop test needs no z, so M is not applied once it passes
            rel = np.sqrt(float(r @ r)) / denom
            if rel <= config.tol:
                converged = True
                break
            z = apply_m(r)
        else:
            z = apply_m(r) if apply_m is not None else r
        rz_new = float(r @ z)
        if not 0.0 <= rz_new < np.inf:
            reason = _failure(rz_new)  # an indefinite preconditioner or non-finite data
            break
        if not dot_rr:
            rel = np.sqrt(rz_new) / denom
        beta = rz_new / rz
        if stop == "ritz":
            coefficients.append((alpha, beta))
            if beta == 0.0 or iterations % 5 == 0 or iterations == config.maxit:
                ritz, converged = _ritz_extremes(coefficients, apply_m is not None, config.tol)
        else:
            converged = bool(rel <= config.tol)
        if converged:
            break
        rz = rz_new
        p = z + beta * p

    true_rel = (float(np.linalg.norm(b - apply_a(x)) / np.linalg.norm(b))
                if true_residual else None)
    reason = "converged" if converged else reason or "maxit"
    return x, SolverReport(iterations, rel, time.perf_counter() - start, true_rel, ritz, reason)


def cg(operator, b, config: SolverConfig | None = None, x0=None):
    """Conjugate gradients on an SPD (or consistent PSD) operator."""
    return _cg(_as_apply(operator), b, None, "residual", config or SolverConfig(), x0)


def pcg(operator, b, preconditioner, config: SolverConfig | None = None, x0=None):
    """CG preconditioned with an SPD apply; stops on sqrt(r.z)/sqrt(b.Mb).
    With the identity preconditioner the iterates coincide with plain cg."""
    return _cg(_as_apply(operator), b, _as_apply(preconditioner), "preconditioned",
               config or SolverConfig(), x0)


# -- Block-Jacobi -----------------------------------------------------------

LAYOUT_COMPONENT = "component"
LAYOUT_COLLECTIVE = "collective"
_NCOMP = {LAYOUT_COMPONENT: 1, LAYOUT_COLLECTIVE: 4}  # stress components per block


def _ncomp_of(layout: str) -> int:
    """The stress components per block of ``layout``; ValueError naming an
    unknown one."""
    try:
        return _NCOMP[layout]
    except KeyError:
        raise ValueError(f"unknown Block-Jacobi layout: {layout!r}") from None


@dataclass
class BlockJacobi:
    """Block-diagonal preconditioner of the time-step operator.

    A layout is the number of stress components per block, ``ncomp``: 1
    in the component layout, 4 in the collective one.  Block k holds the
    elements k of the (ncomp, nblocks, bs // ncomp) view of a vector, in
    (component, i) order: one (component, element) pair of local_dim dofs,
    in dof order, or the 4 * local_dim dofs (c, e, i) of every component c
    of element e.  ``inv_blocks`` (nblocks, bs, bs) holds the block
    inverses, and its shape gives the block count and size.  An unknown
    layout raises ValueError here, when the preconditioner is built.

    ``apply`` gathers the blocks of r through that view, transposed to
    (block, component, i), multiplies them into a stack in block order and
    reads z off the stack through the same view (a copy when ncomp is 4, a
    view when it is 1), so no index array is read.
    A stack whose stored entries ``_splits`` (``inv_blocks.size``) is cut
    once, here, into two halves by block index, over views of
    ``inv_blocks``: ``apply`` then multiplies the bottom half on the pool's
    thread as the caller multiplies the top one.
    Every block goes through the same matmul kernel as in the serial apply,
    so ``z`` is bitwise the same.
    """

    layout: str
    inv_blocks: np.ndarray
    _ncomp: int = field(init=False, repr=False, compare=False)
    _halves: tuple | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        self._ncomp = _ncomp_of(self.layout)
        if _splits(self.inv_blocks.size):
            mid = self.inv_blocks.shape[0] // 2
            self._halves = ((self.inv_blocks[:mid], 0), (self.inv_blocks[mid:], mid))

    def apply(self, r: np.ndarray) -> np.ndarray:
        nblocks, bs = self.inv_blocks.shape[:2]
        zb, ncomp = np.empty((nblocks, bs, 1)), self._ncomp
        if self._halves is None:
            _solve_blocks(self.inv_blocks, 0, ncomp, r, zb)
        else:
            top, bottom = self._halves
            lower = _pool.submit(_solve_blocks, *bottom, ncomp, r, zb)
            try:
                _solve_blocks(*top, ncomp, r, zb)
            finally:
                lower.result()  # the pool's half is done, or raises, before z is read
        return zb.reshape(nblocks, ncomp, -1).transpose(1, 0, 2).reshape(-1)


def _solve_blocks(inv, first, ncomp, r, zb):
    """zb[k] = inv[k - first] @ (block k of r) for k = first, first + 1,
    ..., into the stack zb (nblocks, bs, 1); block k of r is its elements
    k of the (ncomp, nblocks, bs // ncomp) view, in (component, i) order."""
    nb, bs = inv.shape[:2]
    rb = r.reshape(ncomp, -1, bs // ncomp)[:, first:first + nb].transpose(1, 0, 2)
    np.matmul(inv, rb.reshape(nb, bs, 1), out=zb[first:first + nb])


def _diagonal_blocks(A: sparse.csr_matrix, new: np.ndarray, ncomp: int, bs: int,
                     first: int, count: int) -> np.ndarray:
    """The diagonal blocks first, ..., first + count - 1 (fewer at the end)
    of A with its dofs renumbered to ``new``, as a stack (count, bs, bs),
    read from the ncomp row ranges of A that hold them, one per component."""
    stop = min(first + count, A.shape[0] // bs)
    S, L = A.shape[0] // ncomp, bs // ncomp
    blocks = np.zeros((stop - first, bs, bs))
    for start, end in ((c * S + first * L, c * S + stop * L) for c in range(ncomp)):
        lo, hi = A.indptr[start], A.indptr[end]
        rows = np.repeat(new[start:end], np.diff(A.indptr[start:end + 1]))
        cols = new.take(A.indices[lo:hi])  # half the time of new[A.indices[lo:hi]]
        mask = rows // bs == cols // bs
        rows, cols = rows[mask], cols[mask]
        blocks[rows // bs - first, rows % bs, cols % bs] = A.data[lo:hi][mask]
    return blocks


def build_block_jacobi(astar, space: DGSpace, layout: str = LAYOUT_COLLECTIVE) -> BlockJacobi:
    """Extract and factorise the diagonal blocks of A* under the layout.

    The blocks are gathered through one per-dof map, factorised and
    inverted by LAPACK potrf and potrs (``_cho_factor_stack``,
    ``_cho_solve_stack``), and symmetrised, in chunks of about CHUNK
    entries of A*, straight into the stack of inverses.  Raises
    BlockFactorizationError naming the first element whose block holds a
    non-finite entry or, when no block does, the first whose block is not
    positive definite.
    """
    ncomp = _ncomp_of(layout)
    astar = sparse.csr_matrix(astar)
    L, ne, n = space.local_dim, space.n_elements, astar.shape[0]
    bs, S = ncomp * L, n // ncomp
    dof = np.arange(n, dtype=astar.indices.dtype)
    # with S = scalar_dofs, dof c S + e L + i is position (c % ncomp) L + i of
    # block (c // ncomp) ne + e: block k belongs to element k % ne
    new = dof % S // L * bs + dof // S * L + dof % L

    def failure(k, why):
        return BlockFactorizationError(f"{layout} block of element {k % ne} {why}")

    def check_finite(first, blocks):
        finite = np.isfinite(blocks).all(axis=(1, 2))
        if not finite.all():
            raise failure(first + int(np.argmin(finite)), "holds a NaN or inf")

    # blocks per chunk: their rows hold about CHUNK entries of A*
    step = max(1, dg_space.CHUNK * n // (bs * max(1, astar.nnz)))
    chunks = ((first, _diagonal_blocks(astar, new, ncomp, bs, first, step))
              for first in range(0, n // bs, step))
    # C order: the matmul of BlockJacobi.apply sums in the order of the
    # blocks' layout
    inv = np.empty((n // bs, bs, bs))
    for first, blocks in chunks:
        check_finite(first, blocks)
        try:
            factor = _cho_factor_stack(blocks, lower=True)
        except _NotSPD as exc:
            for later, rest in chunks:  # a non-finite block is named first
                check_finite(later, rest)
            raise failure(first + exc.index, "is not SPD") from exc
        part = _cho_solve_stack(factor, np.broadcast_to(np.eye(bs), blocks.shape),
                                inv[first:first + len(blocks)])
        part += part.transpose(0, 2, 1)
        part *= 0.5
    return BlockJacobi(layout=layout, inv_blocks=inv)


# -- SPD factorisation -------------------------------------------------------

def _spd_lu(matrix, what: str):
    """Sparse LU of an SPD matrix, checked for positive definiteness.

    The column ordering is minimum degree on A^T + A, applied symmetrically,
    and the diagonal is always taken as pivot.  With no row exchange
    (perm_r == perm_c) the factorisation is P A P^T = L U with U = D L^T, so
    by Sylvester's law of inertia A is positive definite iff every pivot
    diag(U) is positive.  A NaN or inf is rejected first, naming its row.
    """
    matrix = sparse.csc_matrix(matrix)
    if not np.isfinite(matrix.data).all():
        row = matrix.indices[~np.isfinite(matrix.data)].min()
        raise BlockFactorizationError(f"{what} holds a NaN or inf in row {row}")
    try:
        lu = splu(matrix, permc_spec="MMD_AT_PLUS_A",
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
    v = (e1 + e4)/sqrt(2), coarse operator W = V^T A* V, one unknown per
    scalar dof, and ``coarse_solve``, y -> W^-1 y by its factorisation.

    W is formed from A* (not from B1 + B3) and factorised by ``_spd_lu``
    with a symmetric ordering and no row pivoting; building the deflator
    fails with BlockFactorizationError unless every pivot is positive,
    i.e. unless W is SPD (it is indefinite when the penalty alpha is too
    small)."""

    coarse_matrix: sparse.csr_matrix
    coarse_solve: object
    _avt: object  # r -> (A* V)^T r, from ``_as_apply``

    def vt(self, x: np.ndarray) -> np.ndarray:
        """V^T x: gather the two trace components."""
        S = self.coarse_matrix.shape[0]
        return (x[:S] + x[3 * S:]) / np.sqrt(2.0)

    def v(self, y: np.ndarray) -> np.ndarray:
        """V y: scatter a coarse vector into the trace directions."""
        S = self.coarse_matrix.shape[0]
        out = np.zeros(4 * S)
        out[:S] = y / np.sqrt(2.0)
        out[3 * S:] = y / np.sqrt(2.0)
        return out

    def projection_correction(self, r: np.ndarray) -> np.ndarray:
        """V W^-1 V^T A* r, the A*-orthogonal projection of r onto the
        deflation space; costs one coarse solve."""
        return self.v(self.coarse_solve(self._avt(r)))

    def apply(self, r: np.ndarray, apply_m=None) -> np.ndarray:
        """z = M^-1 r + V W^-1 (V^T r - (A* V)^T M^-1 r): the A-DEF2
        preconditioner P^T M^-1 + Q (Tang, Nabben, Vuik and Erlangga, J. Sci.
        Comput. 2009) around the inner ``apply_m``, the identity when None;
        costs one coarse solve."""
        mr = r if apply_m is None else apply_m(r)
        return mr + self.v(self.coarse_solve(self.vt(r) - self._avt(mr)))


def build_deflator(system: SystemMatrices, dt: float, astar=None) -> Deflator:
    """Assemble and factorise the coarse operator for ker(M) deflation.
    ``system`` and ``dt`` serve only to form A* when ``astar`` is None.

    A* V is summed from the CSR column slices A*[:, :S] and A*[:, 3S:], in
    row chunks, and transposed once: (A* V)^T must come from A*'s columns,
    not from its rows, because A* is symmetric only to rounding (at dt 1e-7
    36,006 of its 214,414 entries at 100 elements differ from their
    transposes, and 374,912 of 2,204,122 at 900), and the rows would change
    the bits of every deflated iterate.  W = V^T A* V is summed from the
    row views of A* V."""
    if astar is None:
        astar = build_system(system.m, system.block, dt)
    astar = sparse.csr_matrix(astar)
    S = astar.shape[0] // 4
    held = int(np.count_nonzero(astar.indices < S) + np.count_nonzero(astar.indices >= 3 * S))
    av = _by_rows([(0, (astar,), lambda rows: (rows[:, :S] + rows[:, 3 * S:]) / np.sqrt(2.0))],
                  (4 * S, S), held, drop=False)
    w = (_rows(av, 0, S) + _rows(av, 3 * S, 4 * S)) / np.sqrt(2.0)
    avt = av.tocsc().T
    del av
    try:
        lu = _spd_lu(w, "coarse deflation operator")
    except BlockFactorizationError as exc:
        raise BlockFactorizationError(
            f"{exc} (the interior penalty alpha is too small)") from exc
    return Deflator(coarse_matrix=w, coarse_solve=lu.solve, _avt=_as_apply(avt))


def _adef2(apply_a, b, deflator: Deflator, apply_m, config, x0=None, true_residual=True):
    """``_cg`` from x0 + V W^-1 V^T (b - A* x0) (x0 zero when None), with
    ``Deflator.apply`` around ``apply_m`` and the "residual" stop."""
    b = np.asarray(b, dtype=float)
    if b.size != 4 * deflator.coarse_matrix.shape[0]:
        raise ValueError("deflator was built from an operator of different size")
    x = deflator.v(deflator.coarse_solve(deflator.vt(b if x0 is None else b - apply_a(x0))))
    if x0 is not None:
        x += x0
    return _cg(apply_a, b, lambda r: deflator.apply(r, apply_m), "residual", config, x,
               true_residual)


def deflated_cg(astar, b, deflator: Deflator, config: SolverConfig | None = None, x0=None):
    """CG preconditioned by ``Deflator.apply`` from x0 + V W^-1 V^T (b - A* x0)
    (x0 zero when None): one coarse solve per iteration and two more."""
    return _adef2(_as_apply(astar), b, deflator, None, config or SolverConfig(), x0)


#: the relative residual ||r||/||b|| each inner solve of ``deflated_inverse``
#: reaches, and the iterations after which an unconverged one hands over to
#: an LU of A*: at 100 elements the inner solves take 3, 5 and 14
#: iterations at dt 1e-10, 1e-8 and 1e-6, but 88 at 1e-4 and 839 at 1e-2,
#: where the factorisation is the cheaper inverse
INVERSE_TOL = 1e-12
INVERSE_MAXIT = 50


def deflated_inverse(astar, deflator: Deflator, preconditioner):
    """``r -> A*^-1 r`` by CG preconditioned with ``Deflator.apply`` around
    ``preconditioner`` (the collective Block-Jacobi), from V W^-1 V^T r,
    stopped at ||r||/||b|| <= INVERSE_TOL.

    An inner solve still unconverged after INVERSE_MAXIT iterations
    (large dt, or a loss of positive definiteness) makes this and every
    later application ``_spd_lu(astar).solve``, which raises
    BlockFactorizationError unless A* is positive definite."""
    apply_a, apply_m = _as_apply(astar), _as_apply(preconditioner)
    config = SolverConfig(INVERSE_TOL, INVERSE_MAXIT)
    lu = None

    def inverse(r):
        nonlocal lu
        if lu is None:
            x, report = _adef2(apply_a, r, deflator, apply_m, config, true_residual=False)
            if report.converged:
                return x
            lu = _spd_lu(astar, "operator")
        return lu.solve(r)

    return inverse


# -- named solvers ------------------------------------------------------------

#: the solvers the tables, the time stepper and the CLI accept, by name
SOLVERS = ("cg", "dcg", "pcg-bj", "pcg-cbj")


@dataclass(eq=False)
class Operators:
    """One (space, dt) cell: A* = M + dt A, formed by ``build_system`` on
    construction (no ``system`` is kept), and its factorisations, each built
    on first use by the module-level builder and then kept: the deflator,
    one Block-Jacobi per layout and ``inverse``.  Every solver of
    ``make_solver`` and both condition estimates of a table cell read them
    from here, so a cell factorises W and each layout's blocks once,
    whatever it runs.  The builds run on the thread that first asks."""

    space: DGSpace
    system: InitVar[SystemMatrices]
    dt: InitVar[float]
    astar: sparse.csr_matrix = field(init=False)
    _block_jacobi: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self, system, dt):
        self.astar = build_system(system.m, system.block, dt)

    @cached_property
    def deflator(self) -> Deflator:
        return build_deflator(None, None, self.astar)  # A* given: no system or dt needed

    def block_jacobi(self, layout: str) -> BlockJacobi:
        if layout not in self._block_jacobi:
            self._block_jacobi[layout] = build_block_jacobi(self.astar, self.space, layout)
        return self._block_jacobi[layout]

    @cached_property
    def inverse(self):  # the raw estimate's A*^-1, A-DEF2 around the cbj
        return deflated_inverse(self.astar, self.deflator, self.block_jacobi(LAYOUT_COLLECTIVE))


def make_solver(name: str, ops: Operators, config: SolverConfig):
    """The named solver for ``ops.astar`` as a callable ``solve(b, x0=None)
    -> (x, report)``.  The factorisation it needs (the deflator or a
    Block-Jacobi) is read from ``ops`` here, on the calling thread, and
    built there unless an earlier solver or estimate of ``ops`` built it;
    each solve then calls the module-level cg, pcg or deflated_cg.  Raises
    ValueError on a name not in SOLVERS."""
    astar = ops.astar
    if name == "cg":
        return lambda b, x0=None: cg(astar, b, config, x0)
    if name == "dcg":
        deflator = ops.deflator
        return lambda b, x0=None: deflated_cg(astar, b, deflator, config, x0)
    if name in ("pcg-bj", "pcg-cbj"):
        precond = ops.block_jacobi(LAYOUT_COMPONENT if name == "pcg-bj" else LAYOUT_COLLECTIVE)
        return lambda b, x0=None: pcg(astar, b, precond, config, x0)
    raise ValueError(f"unknown solver {name!r}; choose from {', '.join(SOLVERS)}")


# -- condition-number estimation ---------------------------------------------

@dataclass
class CondEstimate:
    kappa: float
    lam_min: float
    lam_max: float
    iterations: int
    converged: bool


def estimate_condition_number(operator, *, preconditioner=None, inverse=None,
                              tol: float = 1e-3, maxit: int = 800,
                              seed: int = 0) -> CondEstimate:
    """Condition-number estimate of a sparse or dense SPD matrix from its
    extreme eigenvalues: the Lanczos process without reorthogonalisation,
    run as ``_cg`` with the "ritz" stop from a seeded standard normal b, so
    that the Ritz values come from CG's own alpha and beta.

    With a preconditioner one run certifies both ends of the spectrum of
    P A.  Without one a run on the matrix gives the largest eigenvalue and
    a run on its inverse the smallest.  ``inverse``, a callable r -> A^-1 r
    such as ``deflated_inverse``, applies that inverse; it is accurate to
    its own tolerance, so kappa can move in the last digits against the
    exact inverse (by at most 1e-7 relative at 100 elements, dt 1e-10 to
    1e-6).  ``deflated_inverse`` hands over to the LU below once an inner
    solve fails (large dt); when the first one fails, the estimate is
    exactly the LU path's.  When None, one ``_spd_lu`` factorisation of the
    matrix applies it, which raises BlockFactorizationError unless the
    matrix is positive definite.  Estimates whose certified Ritz values fail their
    residual bound within maxit iterations (per run) are flagged
    converged=False.  maxit is not capped at n: without reorthogonalisation
    a small preconditioned problem can need more than n steps to certify.  The certificate says that an eigenvalue lies within
    about tol of the Ritz value, not that it is the extreme one: when the
    two smallest (or largest) eigenvalues are only a few tol apart, a
    certified estimate can report the inner one.  A callable operator, or
    an inverse next to a preconditioner, raises ValueError.
    """
    if not (sparse.issparse(operator) or isinstance(operator, np.ndarray)):
        raise ValueError("the operator must be a sparse matrix or an ndarray")
    if preconditioner is not None and inverse is not None:
        raise ValueError("an inverse serves the estimate without a preconditioner only")
    b = np.random.default_rng(seed).standard_normal(operator.shape[0])
    config = SolverConfig(tol, maxit)

    def extremes(apply_a, apply_m=None):
        _, report = _cg(apply_a, b, apply_m, "ritz", config, None, true_residual=False)
        return report.ritz or (np.nan, np.nan), report.iterations, report.converged

    apply_a = _as_apply(operator)
    if preconditioner is not None:
        (lam_min, lam_max), k, converged = extremes(apply_a, _as_apply(preconditioner))
    else:
        (_, lam_max), k1, conv1 = extremes(apply_a)
        (_, inv_max), k2, conv2 = extremes(inverse or _spd_lu(operator, "operator").solve)
        lam_min, k, converged = 1.0 / inv_max, k1 + k2, conv1 and conv2

    kappa = lam_max / lam_min if lam_min > 0 else np.inf
    return CondEstimate(kappa=float(kappa), lam_min=float(lam_min),
                        lam_max=float(lam_max), iterations=k, converged=converged)
