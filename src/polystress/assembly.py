"""Assembly of the algebraic operators of the PolyDG discretisation.

Only the scalar blocks M1, B1, B2, B3 are assembled, batched over all
elements of one quadrature size and over all faces of one kind.  The
element terms and the load vector contract the basis tables of the
``DGSpace``; the stiffness face terms contract its face tables
(``DGSpace.face_tables``), chunk by chunk, with penalties this module
scales by alpha.  The load vector is built once per time factor of the
data (``load_terms``) and combined at each time (``problems.sum_terms``).

The only operator-sized temporaries of this module's set-up are the
value buffer of the stiffness's local blocks and the 2 x 2 block that A
repeats.  The local blocks of B1, B2 and B3 go into that buffer in COO
order; the three matrices share one sparsity pattern, whose per-row sort,
on int32 COO positions, gives the permutation through which each
matrix's values are gathered and summed (``_scatter``).  M follows by
``scipy.sparse.kron``, A by stacking the CSR rows [B1 | B2^T] and
[B2 | B3] and repeating the 2 x 2 block's arrays on the second diagonal
block, and A* = M + dt A by summing M's and A's rows.  Each of these
CSR results, and ``finalize``'s, is built by one helper, ``_by_rows``:
row chunks of about ``dg_space.CHUNK`` entries of its operands, combined,
filtered as by ``finalize`` and written once into arrays cut to size in
place.  The test suite keeps an independent tensor-path
assembly, one element and one face at a time, against which it checks
these Kronecker identities, and the earlier COO-per-matrix and ``kron``
path and the one-shot ``finalize(M + dt A)`` as the bitwise references of
the scatter, of A and of A*.

Block conventions, with S = scalar_dofs and dof order (s11, s12, s21, s22):
M = (mu^-1 K0) kron M1, and A = I_2 kron [[B1, B2^T], [B2, B3]] where
B2(i, j) carries the x-derivative of the trial and the y-derivative of the
test function (B2 itself is not symmetric, so it appears transposed in the
upper off-diagonal block).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sparse

from . import dg_space
from .dg_space import DGSpace
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
    """Canonical CSR form of a sparse matrix, which is left as it is:
    duplicates summed, entries <= DROP_REL * rowmax dropped, indices sorted.
    A row holding a NaN or inf is kept whole, so that the entry reaches the
    factorisations that report it.  The filter runs on the CSR arrays in
    row chunks (``_by_rows``)."""
    A = matrix.tocsr()
    if A is matrix:  # sum_duplicates works in place
        A = A.copy()
    A.sum_duplicates()
    return _by_rows([(0, (A,), lambda rows: rows)], A.shape, A.nnz)


def _rows(a: sparse.csr_matrix, start: int, stop: int) -> sparse.csr_matrix:
    """Rows start:stop of a CSR matrix over views of its data and indices.
    The arrays are set after construction: the constructor copies a view of
    less than half its base."""
    lo, hi = a.indptr[start], a.indptr[stop]
    rows = sparse.csr_matrix((stop - start, a.shape[1]), dtype=a.dtype)
    rows.data, rows.indices, rows.indptr = (a.data[lo:hi], a.indices[lo:hi],
                                            a.indptr[start:stop + 1] - lo)
    return rows


def _row_ranges(indptr: np.ndarray):
    """(start, stop) ranges of consecutive rows that cover all rows of the
    row pointers ``indptr``, each holding about ``dg_space.CHUNK`` entries
    (a longer row alone)."""
    n, chunk = len(indptr) - 1, dg_space.CHUNK
    cuts = np.searchsorted(indptr, np.arange(chunk, indptr[-1], chunk))
    bounds = np.unique(np.concatenate(([0], cuts, [n]))).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def _by_rows(blocks, shape: tuple, capacity: int, drop: bool = True) -> sparse.csr_matrix:
    """The CSR matrix of ``shape`` built a row chunk at a time from
    ``blocks``, each (first row, operands, combine): the operands are CSR
    matrices over the same rows, and ``combine`` maps their rows start:stop
    (``_rows`` views) to rows first + start:first + stop of the result, as
    a CSR matrix.  The blocks cover every row, in order; each is cut into
    ranges of about CHUNK entries of its operands (``_row_ranges``).

    With ``drop`` each chunk is filtered as by ``finalize``: the entries at
    most DROP_REL times the largest magnitude of their row go, and a row
    holding a NaN or inf, whose threshold is NaN, stays whole.  The arrays
    are allocated once for ``capacity`` entries, at least the result's, and
    cut to size in place, so the result is the one operator-sized
    allocation."""
    index = sparse.get_index_dtype(maxval=max(capacity, *shape))
    data, indices = np.empty(capacity), np.empty(capacity, dtype=index)
    indptr = np.zeros(shape[0] + 1, dtype=index)
    end = 0
    for first, operands, combine in blocks:
        for start, stop in _row_ranges(sum(a.indptr for a in operands)):
            part = combine(*(_rows(a, start, stop) for a in operands))
            d, j, p = part.data, part.indices, part.indptr
            if drop:
                counts, mag = np.diff(p), np.abs(d)
                rowmax = np.zeros(len(counts))
                nonempty = counts > 0
                rowmax[nonempty] = np.maximum.reduceat(mag, p[:-1][nonempty])
                threshold = np.where(np.isfinite(rowmax), DROP_REL * rowmax, np.nan)
                gone = np.flatnonzero(mag <= np.repeat(threshold, counts))
                if len(gone):
                    d, j, p = np.delete(d, gone), np.delete(j, gone), p - np.searchsorted(gone, p)
            data[end:end + len(d)] = d
            indices[end:end + len(d)] = j
            indptr[first + start + 1:first + stop + 1] = end + p[1:]
            end += len(d)
    # no view of the two arrays outlives the loop, so they can shrink in place
    data.resize(end, refcheck=False)
    indices.resize(end, refcheck=False)
    return sparse.csr_matrix((data, indices, indptr), shape=shape)


def _scatter(dofs: list, values: np.ndarray, n: int) -> list:
    """nmat canonical n x n matrices on one shared pattern.  ``dofs`` holds
    (nb, k) local-to-global maps and ``values`` (nmat, entries) the local
    blocks in COO order: for each map in turn, (block, test dof, trial
    dof).

    The entries are bucketed by row in a stable order and each row's
    columns are sorted once, by the per-row sort that scipy's COO -> CSR
    conversion applies (``sort_indices``, its data the int32 COO positions
    of the entries, which become the permutation).  Every matrix's values
    are gathered through that permutation, their duplicates summed left
    to right and the rows filtered as by ``finalize``, a row chunk at a
    time (``_by_rows``), so each result has the bits of that conversion of
    its own COO matrix.
    """
    # a slot holds the k consecutive entries of one (block, test dof) pair:
    # slot s lies in row flat[s], and its columns are the k dofs of its
    # block, flat[block[s]:block[s] + k]
    flat = np.concatenate([d.ravel() for d in dofs])
    width = np.concatenate([np.full(d.size, d.shape[1]) for d in dofs])
    offsets = np.cumsum([0] + [d.size for d in dofs])
    block = np.concatenate([o + np.arange(d.size) // d.shape[1] * d.shape[1]
                            for o, d in zip(offsets, dofs)])
    first = np.cumsum(width) - width
    by_row = np.argsort(flat, kind="stable")
    w = width[by_row]
    start = np.cumsum(w) - w
    total = int(w.sum())
    index = sparse.get_index_dtype(maxval=max(total, n))
    order, cols = np.empty(total, dtype=index), np.empty(total, dtype=index)
    step = max(1, dg_space.CHUNK // int(width.max(initial=1)))
    for u in range(0, len(by_row), step):
        slots, ws = by_row[u:u + step], w[u:u + step]
        lo = start[u]
        within = np.arange(ws.sum()) - np.repeat(start[u:u + step] - lo, ws)
        order[lo:lo + len(within)] = np.repeat(first[slots], ws) + within
        cols[lo:lo + len(within)] = flat[np.repeat(block[slots], ws) + within]
    counts = np.bincount(flat, weights=width, minlength=n).astype(np.int64)
    # the sort carries each entry's COO position along with its column
    pattern = sparse.csr_matrix((order, cols, np.concatenate(([0], np.cumsum(counts)))),
                                shape=(n, n))
    pattern.sort_indices()
    cols, indptr = pattern.indices, pattern.indptr
    # entries after the duplicates are summed: a column change or a row start
    unique = 0
    for r0, r1 in _row_ranges(indptr):
        j, p = cols[indptr[r0]:indptr[r1]], indptr[r0:r1] - indptr[r0]
        new = np.ones(len(j), dtype=bool)
        new[1:] = j[1:] != j[:-1]
        new[p[p < len(j)]] = True
        unique += int(np.count_nonzero(new))

    def summed(vals, rows):
        # the view of the pattern becomes the chunk: its values gathered, its
        # columns copied for the in-place sum
        rows.data, rows.indices = vals[rows.data], rows.indices.copy()
        rows.sum_duplicates()
        return rows

    return [_by_rows([(0, (pattern,), lambda rows: summed(vals, rows))], (n, n), unique)
            for vals in values]


def assemble_mass(space: DGSpace, mu: float = 1.0):
    """Deviatoric mass operator: returns (M1, M) with M1 the scalar mass
    matrix and M = (K_SPEC / mu) kron M1."""
    if mu <= 0.0:
        raise ValueError("viscosity mu must be positive")
    # the element blocks of M1 are the basis Gram matrices
    dofs = np.arange(space.scalar_dofs).reshape(space.n_elements, space.local_dim)
    m1, = _scatter([dofs], space.gram.reshape(1, -1), space.scalar_dofs)
    return m1, finalize(sparse.kron(K_SPEC / mu, m1))


def _stiffness_blocks(space: DGSpace, alpha: float):
    """Local blocks of B1, B2, B3 in COO order: the (nb, k) dof maps of the
    element volume term and of each face kind that has faces, and one
    (3, entries) value buffer holding, map after map, the blocks (block,
    test dof, trial dof) of the three matrices.  The face blocks are
    computed in the chunks of ``DGSpace.face_tables`` and written straight
    into the buffer."""
    L = space.local_dim
    span = np.arange(L)
    kinds = (FaceKind.INTERIOR, FaceKind.NEUMANN)
    nfaces = [int(np.count_nonzero(space.mesh.faces["kind"] == kind)) for kind in kinds]
    # volume term: the (x, y) slots of the scalar divergence d_x u + d_y v,
    # the space's gradient Gram blocks
    dofs = [np.arange(space.scalar_dofs).reshape(space.n_elements, L)]
    end = space.n_elements * L * L
    values = np.empty((3, end + 4 * L * L * nfaces[0] + L * L * nfaces[1]))
    values[:, :end] = space.grad_gram.reshape(3, -1)

    # face terms on the side-stacked dofs (plus, then minus on interior
    # faces): jump phi of the scalar, average gradient, and with
    # C_c = phi^T W grad_c and P = phi^T W phi the slot blocks
    # (b, c) = -n_b C_c - n_c C_b^T + gamma n_b n_c P
    for kind, count in zip(kinds, nfaces):
        if not count:
            continue
        fdofs = []
        for fb, (phi, grad), minus in space.face_tables(kind):
            part = fb.plus[:, None] * L + span
            if minus is not None:
                phi_m, grad_m = minus
                phi = np.concatenate([phi, -phi_m], axis=2)
                grad = 0.5 * np.concatenate([grad, grad_m], axis=2)
                part = np.concatenate([part, fb.minus[:, None] * L + span], axis=1)
            wphit = (fb.weights[:, :, None] * phi).transpose(0, 2, 1)
            cx, cy, pen = wphit @ grad[..., 0], wphit @ grad[..., 1], wphit @ phi
            nx = fb.normals[:, 0, None, None]
            ny = fb.normals[:, 1, None, None]
            gamma = (alpha * fb.gamma)[:, None, None]
            cxt, cyt = cx.transpose(0, 2, 1), cy.transpose(0, 2, 1)
            size = cx.size
            values[0, end:end + size] = (-nx * cx - nx * cxt + gamma * nx * nx * pen).ravel()
            values[1, end:end + size] = (-ny * cx - nx * cyt + gamma * ny * nx * pen).ravel()
            values[2, end:end + size] = (-ny * cy - ny * cyt + gamma * ny * ny * pen).ravel()
            end += size
            fdofs.append(part)
        dofs.append(np.concatenate(fdofs))
    return dofs, values


def assemble_stiffness(space: DGSpace, alpha: float = DEFAULT_ALPHA):
    """Broken divergence operator with interior-penalty coupling.

    Returns (B1, B2, B3, A): the scalar blocks of the vector-valued form,
    assembled on the scalar dof layout, and A = I_2 kron [[B1, B2^T],
    [B2, B3]].  The 2 x 2 block is stacked in row chunks from the CSR rows
    [B1 | B2^T] and [B2 | B3] and filtered as by ``finalize``; A repeats
    its arrays, the second diagonal copy shifted by 2 S columns.
    """
    b1, b2, b3 = _scatter(*_stiffness_blocks(space, alpha), space.scalar_dofs)
    b2t = b2.T.tocsr()
    n = 2 * space.scalar_dofs
    pair = lambda left, right: sparse.hstack([left, right], format="csr")
    block = _by_rows([(0, (b1, b2t), pair), (n // 2, (b2, b3), pair)], (n, n),
                     b1.nnz + 2 * b2.nnz + b3.nnz)
    nnz = np.int64(block.nnz)
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
    The sum is formed in row chunks over views of M's and A's arrays (only
    A's values are scaled, a chunk at a time) and filtered as by
    ``finalize``; the result is its one operator-sized allocation.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"time step dt must be positive and finite, got {dt!r}")
    if m.shape != a.shape:
        raise ValueError("M and A dimensions do not match")
    m, a = m.tocsr(), a.tocsr()

    def summed(m_rows, a_rows):
        a_rows.data = dt * a_rows.data  # a new array: A's data stay as they are
        part = m_rows + a_rows
        part.sum_duplicates()  # sorts the rows of non-canonical operands, as finalize does
        return part

    return _by_rows([(0, (m, a), summed)], m.shape, m.nnz + a.nnz)


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
