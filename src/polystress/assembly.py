"""Assembly of the algebraic operators of the PolyDG discretisation.

Only the scalar blocks M1, B1, B2, B3 are assembled, batched over all
elements of one quadrature size and over all faces of one kind.  The
element terms and the load vector contract the basis tables of the
``DGSpace``; only the stiffness face terms evaluate the basis here, on a
``face_batch`` whose penalty this module scales by alpha.  The load
vector is built once per time factor of the data (``load_terms``) and
combined at each time (``problems.sum_terms``).  B1, B2 and B3
share one sparsity pattern, bucketed and sorted once; each block's values
are gathered through that one permutation (``_scatter``).  M follows by
``scipy.sparse.kron``, and A from the CSR arrays of the 2 x 2 scalar
block, whose rows are filtered once and repeated on the second diagonal
block.  The test suite keeps an independent tensor-path assembly, one
element and one face at a time, against which it checks these Kronecker
identities, and the earlier COO-per-matrix and ``kron`` path as the bitwise
reference of the scatter and of A.

Block conventions, with S = scalar_dofs and dof order (s11, s12, s21, s22):
M = (mu^-1 K0) kron M1, and A = I_2 kron [[B1, B2^T], [B2, B3]] where
B2(i, j) carries the x-derivative of the trial and the y-derivative of the
test function (B2 itself is not symmetric, so it appears transposed in the
upper off-diagonal block).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sparse

from .dg_space import DGSpace, face_batch
from .mesh import FaceKind
from .problems import ProblemData, sum_terms

#: unscaled deviatoric factor of the mass matrix: the contractions
#: dev(E_c) : dev(E_c') of the unit tensors, components ordered
#: (s11, s12, s21, s22)
K_SPEC = np.array([
    [0.5, 0.0, 0.0, -0.5],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [-0.5, 0.0, 0.0, 0.5],
])

DEFAULT_ALPHA = 10.0
#: ``finalize`` drops every entry at most this times its row's largest magnitude
DROP_REL = 1e-14


@dataclass
class SystemMatrices:
    """Assembled operators and their structural factors."""

    m1: sparse.csr_matrix
    b1: sparse.csr_matrix
    b2: sparse.csr_matrix
    b3: sparse.csr_matrix
    m: sparse.csr_matrix
    a: sparse.csr_matrix
    mu: float
    alpha: float


def finalize(matrix) -> sparse.csr_matrix:
    """Canonical CSR form: duplicates summed, entries <= DROP_REL * rowmax
    dropped, indices sorted.  A row holding a NaN or inf is kept whole, so
    that the entry reaches the factorisations that report it.  Row maxima,
    the filter and the new row pointers are all computed on the CSR
    arrays."""
    A = matrix.tocsr()
    A.sum_duplicates()
    if A.nnz:
        counts = np.diff(A.indptr)
        mag = np.abs(A.data)
        rowmax = np.zeros(A.shape[0])
        nonempty = counts > 0
        rowmax[nonempty] = np.maximum.reduceat(mag, A.indptr[:-1][nonempty])
        # a NaN threshold drops nothing: rows holding a NaN or inf stay whole
        threshold = np.where(np.isfinite(rowmax), DROP_REL * rowmax, np.nan)
        drop = mag <= np.repeat(threshold, counts)
        shift = np.searchsorted(np.flatnonzero(drop), A.indptr)
        keep = ~drop
        A = sparse.csr_matrix((A.data[keep], A.indices[keep], A.indptr - shift),
                              shape=A.shape)
    A.sort_indices()
    return A


def _scatter(dofs: list, blocks: list, n: int) -> list:
    """nmat canonical n x n matrices on one shared pattern.  ``dofs`` holds
    (nb, k) local-to-global maps and ``blocks`` the matching local blocks,
    nmat arrays (nb, k, k) each (test index first).

    The entries, in COO order (block, test dof, trial dof), are bucketed
    by row in a stable order and each row's columns are sorted once, by the
    sort that scipy's COO -> CSR conversion applies; every matrix's values
    are gathered through the resulting permutation and their duplicates
    summed left to right, so each result has the bits of that conversion
    of its own COO matrix.
    """
    # a slot holds the k consecutive entries of one (block, test dof) pair,
    # all in one row: bucket the slots, then expand them to entries
    slot_rows = np.concatenate([d.ravel() for d in dofs])
    width = np.concatenate([np.full(d.size, d.shape[1]) for d in dofs])
    by_row = np.argsort(slot_rows, kind="stable")
    w = width[by_row]
    first = np.cumsum(width) - width
    order = np.arange(w.sum()) + np.repeat(first[by_row] - (np.cumsum(w) - w), w)
    cols = np.concatenate([np.broadcast_to(d[:, None, :], d.shape + d.shape[-1:]).ravel()
                           for d in dofs])
    counts = np.bincount(slot_rows, weights=width, minlength=n).astype(np.int64)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    # the sort carries each entry's position along with its column
    pattern = sparse.csr_matrix((np.arange(len(order), dtype=float), cols[order], indptr),
                                shape=(n, n))
    pattern.sort_indices()
    perm = order[pattern.data.astype(np.intp)]
    # finalize sums the duplicates in place: each matrix gets its own index arrays
    return [finalize(sparse.csr_matrix(
        (np.concatenate([b[m].ravel() for b in blocks])[perm], pattern.indices.copy(),
         pattern.indptr.copy()), shape=(n, n)))
        for m in range(len(blocks[0]))]


def assemble_mass(space: DGSpace, mu: float = 1.0):
    """Deviatoric mass operator: returns (M1, M) with M1 the scalar mass
    matrix and M = (K_SPEC / mu) kron M1."""
    if mu <= 0.0:
        raise ValueError("viscosity mu must be positive")
    # the element blocks of M1 are the basis Gram matrices
    dofs = np.arange(space.scalar_dofs).reshape(space.n_elements, space.local_dim)
    m1, = _scatter([dofs], [space.gram[None]], space.scalar_dofs)
    return m1, finalize(sparse.kron(K_SPEC / mu, m1))


def _stiffness_blocks(space: DGSpace, alpha: float):
    """Local blocks of B1, B2, B3: for the element volume term and per face
    kind, the (nb, k) dof map and the three matching (nb, k, k) blocks."""
    L = space.local_dim
    span = np.arange(L)
    # volume term: the (x, y) slots of the scalar divergence d_x u + d_y v,
    # the space's gradient Gram blocks
    dofs = [np.arange(space.scalar_dofs).reshape(space.n_elements, L)]
    blocks = [space.grad_gram]

    # face terms on the side-stacked dofs (plus, then minus on interior
    # faces): jump phi of the scalar, average gradient, and with
    # C_c = phi^T W grad_c and P = phi^T W phi the slot blocks
    # (b, c) = -n_b C_c - n_c C_b^T + gamma n_b n_c P
    for kind in (FaceKind.INTERIOR, FaceKind.NEUMANN):
        fb = face_batch(space, kind, space.quad_degree)
        phi, grad = space.evaluate(fb.plus[:, None], fb.points)
        fdofs = fb.plus[:, None] * L + span
        if fb.minus is not None:
            phi_m, grad_m = space.evaluate(fb.minus[:, None], fb.points)
            phi = np.concatenate([phi, -phi_m], axis=2)
            grad = 0.5 * np.concatenate([grad, grad_m], axis=2)
            fdofs = np.concatenate([fdofs, fb.minus[:, None] * L + span], axis=1)
        wphit = (fb.weights[:, :, None] * phi).transpose(0, 2, 1)
        cx, cy, pen = wphit @ grad[..., 0], wphit @ grad[..., 1], wphit @ phi
        nx = fb.normals[:, 0, None, None]
        ny = fb.normals[:, 1, None, None]
        gamma = (alpha * fb.gamma)[:, None, None]
        cxt, cyt = cx.transpose(0, 2, 1), cy.transpose(0, 2, 1)
        blocks.append((-nx * cx - nx * cxt + gamma * nx * nx * pen,
                       -ny * cx - nx * cyt + gamma * ny * nx * pen,
                       -ny * cy - ny * cyt + gamma * ny * ny * pen))
        dofs.append(fdofs)
    return dofs, blocks


def assemble_stiffness(space: DGSpace, alpha: float = DEFAULT_ALPHA):
    """Broken divergence operator with interior-penalty coupling.

    Returns (B1, B2, B3, A): the scalar blocks of the vector-valued form,
    assembled on the scalar dof layout, and A = I_2 kron [[B1, B2^T],
    [B2, B3]].  A is built from the CSR arrays: the filter of ``finalize``
    runs once on the rows [B1 | B2^T] and [B2 | B3], and the second
    diagonal copy is the first shifted by 2 S.
    """
    b1, b2, b3 = _scatter(*_stiffness_blocks(space, alpha), space.scalar_dofs)
    block = finalize(sparse.bmat([[b1, b2.T.tocsr()], [b2, b3]], format="csr"))
    n, nnz = block.shape[0], np.int64(block.nnz)
    a = sparse.csr_matrix((np.concatenate([block.data, block.data]),
                           np.concatenate([block.indices, block.indices + n]),
                           np.concatenate([block.indptr, block.indptr[1:] + nnz])),
                          shape=(2 * n, 2 * n))
    return b1, b2, b3, a


def assemble_system(space: DGSpace, mu: float = 1.0,
                    alpha: float = DEFAULT_ALPHA) -> SystemMatrices:
    m1, m = assemble_mass(space, mu)
    b1, b2, b3, a = assemble_stiffness(space, alpha)
    return SystemMatrices(m1=m1, b1=b1, b2=b2, b3=b3, m=m, a=a,
                          mu=mu, alpha=alpha)


def build_system(m: sparse.csr_matrix, a: sparse.csr_matrix, dt: float) -> sparse.csr_matrix:
    """Time-step operator M + dt * A; symmetric positive definite for dt > 0.

    Explicit stepping is excluded: the mass operator alone is singular.
    """
    if dt <= 0.0:
        raise ValueError("time step dt must be positive")
    if m.shape != a.shape:
        raise ValueError("M and A dimensions do not match")
    return finalize(m + dt * a)


def load_terms(space: DGSpace, data: ProblemData,
               alpha: float = DEFAULT_ALPHA) -> list[tuple]:
    """The load vector split by time factor: [(a_j, F_j)] for the terms of
    ``data.terms``, so that the load at time t is sum_j a_j(t) F_j
    (``problems.sum_terms``).  Each F_j holds the volume source, the Dirichlet
    divergence datum and the Nitsche-consistent Neumann traction terms of
    term j.

    The basis tables are the space's (``DGSpace.element_values`` and
    ``DGSpace.boundary_tables``, computed once per space); each call
    evaluates the terms' callbacks once, all terms together, forms the
    Nitsche test functions at ``alpha`` and contracts every term in one
    pass.  The callbacks receive read-only point arrays.
    """
    terms = data.terms
    J = len(terms.coefficients)
    if not J:
        return []
    # f[j, c, e, i] in component-major dof order; tensor components flatten
    # row-major, which is the COMPONENTS order
    f = np.zeros((J, 4, space.n_elements, space.local_dim))

    pts = space.element_points
    source = terms.source(pts[:, 0], pts[:, 1]).reshape(-1, J * 4)
    start = 0
    for batch, phi in zip(space.element_batches, space.element_values):
        E, nq = batch.weights.shape
        vals = source[start:start + E * nq].reshape(E, nq, J * 4)
        start += E * nq
        wvals = batch.weights[:, :, None] * vals
        f[:, :, batch.elements] = (wvals.transpose(0, 2, 1) @ phi).reshape(
            E, J, 4, -1).transpose(1, 2, 0, 3)

    # boundary faces: sum_q w g_r(q) v_d(q) into component (r, d) of the plus
    # element, v_d = n_d phi (Dirichlet) or alpha gamma n_d phi - d_d phi
    # (Neumann) in slot (d, i) for basis function i
    per_element = f.transpose(2, 0, 1, 3)
    for table in space.boundary_tables:
        fb = table.faces
        tests = fb.normals[:, None, :, None] * table.phi[:, :, None, :]
        if table.kind == FaceKind.DIRICHLET:
            g = terms.dirichlet(table.x, table.y)
        else:
            g = terms.neumann(table.x, table.y, table.nx, table.ny)
            tests = (alpha * fb.gamma)[:, None, None, None] * tests - table.grad.swapaxes(2, 3)
        F, nq = fb.weights.shape
        wg = fb.weights[:, :, None] * g.reshape(F, nq, J * 2)
        contrib = wg.transpose(0, 2, 1) @ tests.reshape(F, nq, -1)
        np.add.at(per_element, fb.plus, contrib.reshape(F, J, 4, -1))
    return [(a, fj.ravel()) for a, fj in zip(terms.coefficients, f)]


def functional_vector(space: DGSpace, data: ProblemData, t: float,
                      alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """Discrete load vector at time t: ``sum_terms`` of ``load_terms``."""
    return sum_terms(load_terms(space, data, alpha), t, space.total_dofs)


def assemble_rhs(space: DGSpace, data: ProblemData, t: float,
                 sigma_prev: np.ndarray, dt: float,
                 system: SystemMatrices) -> np.ndarray:
    """One-step right-hand side M sigma_prev + dt * f(t), with the load
    vector of ``functional_vector`` at ``system.alpha``.  A time stepper
    builds ``load_terms`` once instead and forms the same expression with
    ``sum_terms``, bitwise this vector."""
    f = functional_vector(space, data, t, system.alpha)
    return system.m @ sigma_prev + dt * f


def export_matrices(system: SystemMatrices, outdir, dt: float | None = None) -> list[str]:
    """Write the assembled operators in Matrix Market coordinate format.

    Returns the list of written file names.  When dt is given, the
    time-step operator is exported as well.  scipy.io is imported here,
    so that only an export loads it.
    """
    from scipy.io import mmwrite

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    named = {"M1": system.m1, "B1": system.b1, "B2": system.b2,
             "B3": system.b3, "M": system.m, "A": system.a}
    if dt is not None:
        named["Astar"] = build_system(system.m, system.a, dt)
    written = []
    for name, mat in named.items():
        path = outdir / f"{name}.mtx"
        mmwrite(str(path), mat.tocoo())
        written.append(path.name)
    return written
