"""Independent reference assembly, used as a test oracle.

The library assembles only the scalar blocks M1, B1, B2, B3 in batches and
forms M and A from their Kronecker structure.  This module assembles the
same operators the straightforward way, one element and one face at a
time through ``basis_values``/``basis_gradients`` (below): the full
tensor-valued M and A over all four components, and the scalar blocks
from a two-slot vector form.  Comparing the two checks the structure identities
against an assembly that never uses them.  ``l2_project`` is the
element-by-element projection that the batched one must reproduce, and
``energy_error`` the element-by-element, face-by-face energy norm that
``EnergyNorm.error`` must reproduce.  ``finalize_coo`` is the COO round
trip that the library's CSR ``finalize`` must reproduce bitwise.

The oracle owns its references to the formulas it checks: the deviatoric
factor ``deviatoric_factor``, derived from the definition of the
deviatoric operator (the library keeps only the literal ``K_SPEC``), the
scalar face ``penalty`` (the library keeps only the batched, unscaled
p^2 / h of ``dg_space.face_batch``, which its callers multiply by alpha),
and the per-element quadrature rules ``element_rules`` and ``face_rule``,
read off the batched rules of the library.

Earlier library paths are kept here as bitwise references:
``mass_kron``/``stiffness_kron`` convert one COO matrix per block and form
M and A with ``scipy.sparse.kron``, ``l2_project_loop`` factors and solves
each element's Gram matrix on its own, ``agglomerate`` rebuilds every
candidate's neighbour list from a directed-edge map and tests each merge
with array geometry, and the one-shot set-up builders ``system_oneshot``,
``deflator_tocsc`` and ``block_jacobi_oneshot`` form A*, the deflation
operators and the Block-Jacobi inverses from whole-operator temporaries,
where the library works in chunks.  The collective layout's
``collective_permutation`` is written from its definition (position
(e, c, i) holds dof c * S + e * L + i), independently of the
library's div/mod map, so that the library's layout is checked against an
encoding it does not share.

The per-element views of a ``DGSpace`` (``basis_values``,
``basis_gradients``, ``gram_solve``, ``scalar_index``, ``tensor_dofs``,
``eval_field``, ``eval_divergence``), the small helpers ``mass_energy`` and
``_loop_edges``, the data at one time summed from their terms
(``data_at``), the manufactured ``steady_polynomial_solution`` and the
Kronecker identity check ``kron_structure_check`` serve only the tests, so
they live here rather than in the library.
"""
import dataclasses

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import sympy as sp

from polystress import FaceKind
from polystress.assembly import _stiffness_blocks, finalize
from polystress.mesh import _fan_cross_products, _shoelace
from polystress.dg_space import (COMPONENTS, _cho_factor_stack, _cho_solve_stack, face_rules,
                                 polygon_rules)
from polystress.problems import _at, manufacture

X, Y = sp.symbols("x y")


# -- reference formulas -------------------------------------------------------

def deviatoric_factor():
    """Contractions dev(E_c) : dev(E_c') of the unit tensors, computed from
    the definition of the deviatoric operator."""
    K0 = np.empty((4, 4))
    units = []
    for r, d in COMPONENTS:
        E = np.zeros((2, 2))
        E[r, d] = 1.0
        units.append(E - 0.5 * np.trace(E) * np.eye(2))
    for i, Di in enumerate(units):
        for j, Dj in enumerate(units):
            K0[i, j] = float(np.sum(Di * Dj))
    return K0


def penalty(face, alpha, p, mesh):
    """Face stabilisation alpha * p^2 / h: the max over the two neighbours
    on interior faces, the single neighbour on Neumann faces."""
    if face["kind"] == FaceKind.DIRICHLET:
        raise ValueError("penalty is defined on interior and Neumann faces only")
    val = p * p / mesh.element_diameters[face["plus"]]
    if face["kind"] == FaceKind.INTERIOR:
        val = max(val, p * p / mesh.element_diameters[face["minus"]])
    return alpha * val


# -- per-element views of a DGSpace -------------------------------------------

def element_rules(space, batches=None):
    """Per-element quadrature rules (points, weights) of ``batches``, by
    default the space's ``element_batches``."""
    rules = [None] * space.n_elements
    for batch in space.element_batches if batches is None else batches:
        for e, pts, wts in zip(batch.elements.tolist(), batch.points, batch.weights):
            rules[e] = pts, wts
    return rules


def face_rule(mesh, face, degree):
    """The Gauss rule (points, weights) of one face."""
    pts, wts = face_rules(*mesh.vertices[face["ends"]], degree)
    return pts[0], wts[0]


def basis_values(space, e, pts):
    """Basis values of element e, shape (npts, local_dim)."""
    return space.evaluate(e, pts)[0]


def basis_gradients(space, e, pts):
    """Basis gradients of element e, shape (npts, local_dim, 2)."""
    return space.evaluate(e, pts)[1]


def gram_solve(space, e, rhs):
    """Solve with element e's Gram matrix through the space's stacked
    Cholesky factors."""
    chol, lower = space._gram_factor
    return scipy.linalg.cho_solve((chol[e], lower), rhs)


def scalar_index(space, e, i=None):
    base = e * space.local_dim
    return base if i is None else base + i


def tensor_dofs(space, c, e):
    """Global dofs of component c on element e."""
    return c * space.scalar_dofs + scalar_index(space, e) + np.arange(space.local_dim)


def eval_field(space, dofs, e, pts):
    """The tensor field on element e, shape (npts, 2, 2)."""
    phi = basis_values(space, e, pts)
    out = np.empty((len(pts), 2, 2))
    for c, (r, d) in enumerate(COMPONENTS):
        out[:, r, d] = phi @ dofs[tensor_dofs(space, c, e)]
    return out


def eval_divergence(space, dofs, e, pts):
    """Row-wise divergence of the tensor field on element e, shape (npts, 2)."""
    grad = basis_gradients(space, e, pts)
    out = np.zeros((len(pts), 2))
    for c, (r, d) in enumerate(COMPONENTS):
        out[:, r] += grad[:, :, d] @ dofs[tensor_dofs(space, c, e)]
    return out


def mass_energy(system, dofs):
    """Discrete deviatoric energy <M sigma, sigma>; non-increasing across
    unforced implicit Euler steps."""
    return float(dofs @ (system.m @ dofs))


def finalize_coo(matrix, rel=1e-14):
    """Canonical CSR form through COO: duplicates summed, entries below
    rel * rowmax dropped (row maxima by ``np.maximum.at``), indices sorted."""
    A = matrix.tocsr()
    A.sum_duplicates()
    if A.nnz:
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        mag = np.abs(A.data)
        rowmax = np.zeros(A.shape[0])
        np.maximum.at(rowmax, rows, mag)
        keep = mag > rel * rowmax[rows]
        A = sparse.csr_matrix((A.data[keep], (rows[keep], A.indices[keep])),
                              shape=A.shape)
    A.sort_indices()
    return A


def _coo(rows, cols, vals, n):
    return finalize(sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)))


def mass(space, mu=1.0):
    """(M1, M): scalar mass matrix and the tensor mass operator, each
    assembled element by element."""
    L = space.local_dim
    K = deviatoric_factor() / mu
    rows1, cols1, vals1 = [], [], []
    rows, cols, vals = [], [], []
    rules = element_rules(space)
    for e in range(space.n_elements):
        pts, w = rules[e]
        phi = basis_values(space, e, pts)
        m1e = phi.T @ (w[:, None] * phi)
        sidx = scalar_index(space, e) + np.arange(L)
        rows1.append(np.repeat(sidx, L))
        cols1.append(np.tile(sidx, L))
        vals1.append(m1e.ravel())
        for ct in range(4):
            for cj in range(4):
                if K[ct, cj] == 0.0:
                    continue
                rows.append(np.repeat(tensor_dofs(space, ct, e), L))
                cols.append(np.tile(tensor_dofs(space, cj, e), L))
                vals.append(K[ct, cj] * m1e.ravel())
    S = space.scalar_dofs
    return _coo(rows1, cols1, vals1, S), _coo(rows, cols, vals, 4 * S)


def _face_sides(space, face, pts):
    interior = face["kind"] == FaceKind.INTERIOR
    elems = [face["plus"]] + ([face["minus"]] if interior else [])
    signs = [1.0, -1.0][:len(elems)]
    phis = [basis_values(space, e, pts) for e in elems]
    grads = [basis_gradients(space, e, pts) for e in elems]
    avg = 0.5 if interior else 1.0
    return elems, signs, phis, grads, avg


def stiffness(space, alpha):
    """(B1, B2, B3, A): the scalar blocks from a two-slot vector form and
    the tensor operator A over all four components, assembled element by
    element and face by face."""
    mesh = space.mesh
    L = space.local_dim
    S = space.scalar_dofs
    qd = space.quad_degree

    rowsA, colsA, valsA = [], [], []
    rowsR, colsR, valsR = [], [], []

    def scatter(buffers, gidx, loc):
        rows, cols, vals = buffers
        k = len(gidx)
        rows.append(np.repeat(gidx, k))
        cols.append(np.tile(gidx, k))
        vals.append(loc.reshape(k, k).ravel())

    rules = element_rules(space)
    for e in range(space.n_elements):
        pts, w = rules[e]
        G = basis_gradients(space, e, pts)

        # tensor path: div of the (r, d) component basis is the vector
        # e_r * d_d(phi)
        DV = np.zeros((len(w), 4, L, 2))
        for c, (r, d) in enumerate(COMPONENTS):
            DV[:, c, :, r] = G[:, :, d]
        loc = np.einsum("q,qbik,qcjk->bicj", w, DV, DV)
        gidx = np.concatenate([tensor_dofs(space, c, e) for c in range(4)])
        scatter((rowsA, colsA, valsA), gidx, loc)

        # block path: a two-component vector field (x-slot, y-slot) with
        # scalar divergence d_x(u) + d_y(v)
        locR = np.einsum("q,qia,qjb->aibj", w, G, G)
        sidx = np.concatenate([slot * S + scalar_index(space, e) + np.arange(L)
                               for slot in range(2)])
        scatter((rowsR, colsR, valsR), sidx, locR)

    p = space.degree
    for face in mesh.faces:
        if face["kind"] == FaceKind.DIRICHLET:
            continue
        pts, w = face_rule(mesh, face, qd)
        n = face["normal"]
        gamma = penalty(face, alpha, p, mesh)
        elems, signs, phis, grads, avg = _face_sides(space, face, pts)
        ns = len(elems)

        JU = np.zeros((len(w), 4, ns * L, 2))
        DVa = np.zeros((len(w), 4, ns * L, 2))
        JUs = np.zeros((len(w), 2, ns * L))
        DVs = np.zeros((len(w), 2, ns * L))
        for s in range(ns):
            sl = slice(s * L, (s + 1) * L)
            for c, (r, d) in enumerate(COMPONENTS):
                JU[:, c, sl, r] = phis[s] * n[d] * signs[s]
                DVa[:, c, sl, r] = grads[s][:, :, d] * avg
            for slot in range(2):
                JUs[:, slot, sl] = phis[s] * n[slot] * signs[s]
                DVs[:, slot, sl] = grads[s][:, :, slot] * avg

        cons = np.einsum("q,qbik,qcjk->bicj", w, JU, DVa)
        pen = np.einsum("q,qbik,qcjk->bicj", w, JU, JU)
        loc = -cons - cons.transpose(2, 3, 0, 1) + gamma * pen
        gidx = np.concatenate([tensor_dofs(space, c, e)
                               for c in range(4) for e in elems])
        scatter((rowsA, colsA, valsA), gidx, loc)

        consR = np.einsum("q,qbi,qcj->bicj", w, JUs, DVs)
        penR = np.einsum("q,qbi,qcj->bicj", w, JUs, JUs)
        locR = -consR - consR.transpose(2, 3, 0, 1) + gamma * penR
        sidx = np.concatenate([slot * S + scalar_index(space, e) + np.arange(L)
                               for slot in range(2) for e in elems])
        scatter((rowsR, colsR, valsR), sidx, locR)

    A = _coo(rowsA, colsA, valsA, 4 * S)
    R = _coo(rowsR, colsR, valsR, 2 * S)
    return finalize(R[:S, :S]), finalize(R[S:, :S]), finalize(R[S:, S:]), A


def with_oracle_tensors(system, space):
    """The system with M and A replaced by their tensor-path assembly, so
    that ``kron_structure_check`` compares two independent assemblies."""
    _, m = mass(space, system.mu)
    *_, a = stiffness(space, system.alpha)
    return dataclasses.replace(system, m=m, a=a)


def kron_structure_check(system) -> tuple[float, float]:
    """Max deviations |M - K kron M1| and |A - I_2 kron [[B1,B2^T],[B2,B3]]|."""
    kref = sparse.csr_matrix(deviatoric_factor() / system.mu)
    dm = system.m - sparse.kron(kref, system.m1, format="csr")
    block = sparse.bmat([[system.b1, system.b2.T], [system.b2, system.b3]],
                        format="csr")
    da = system.a - sparse.kron(sparse.eye(2), block, format="csr")
    dev_m = float(np.abs(dm.data).max()) if dm.nnz else 0.0
    dev_a = float(np.abs(da.data).max()) if da.nnz else 0.0
    return dev_m, dev_a


def data_at(data, datum, t, *points):
    """The datum ("source" or "neumann", or "dirichlet", which is also
    ``data.dirichlet``) of ``data`` at time t: its terms at ``points`` (x,
    y, and for "neumann" the normal nx, ny), summed over the time factors."""
    return _at(data.terms.coefficients, t, getattr(data.terms, datum)(*points))


def functional_vector(space, data, t, alpha):
    """Load vector, element by element and face by face."""
    mesh = space.mesh
    L = space.local_dim
    f = np.zeros(space.total_dofs)

    rules = element_rules(space)
    for e in range(space.n_elements):
        pts, w = rules[e]
        phi = basis_values(space, e, pts)
        vals = data_at(data, "source", t, pts[:, 0], pts[:, 1])
        for c, (r, d) in enumerate(COMPONENTS):
            f[tensor_dofs(space, c, e)] += (w * vals[:, r, d]) @ phi

    for face in mesh.faces:
        if face["minus"] >= 0:
            continue
        pts, w = face_rule(mesh, face, space.quad_degree)
        x, y = pts[:, 0], pts[:, 1]
        e = face["plus"]
        phi = basis_values(space, e, pts)
        n = face["normal"]
        if face["kind"] == FaceKind.DIRICHLET:
            g = data.dirichlet(x, y, t)
            for c, (r, d) in enumerate(COMPONENTS):
                f[tensor_dofs(space, c, e)] += (w * g[:, r] * n[d]) @ phi
        else:
            g = data_at(data, "neumann", t, x, y, n[0], n[1])
            gamma = penalty(face, alpha, space.degree, mesh)
            grad = basis_gradients(space, e, pts)
            for c, (r, d) in enumerate(COMPONENTS):
                test = gamma * phi * n[d] - grad[:, :, d]
                f[tensor_dofs(space, c, e)] += (w * g[:, r]) @ test
    return f


def l2_project(space, field):
    """Elementwise L2 projection, one element and one component at a time."""
    dofs = np.zeros(space.total_dofs)
    rules = element_rules(space)
    for e in range(space.n_elements):
        pts, w = rules[e]
        phi = basis_values(space, e, pts)
        vals = np.asarray(field(pts[:, 0], pts[:, 1]))
        wphi = w[:, None] * phi
        for c, (r, d) in enumerate(COMPONENTS):
            dofs[tensor_dofs(space, c, e)] = gram_solve(space, e, wphi.T @ vals[:, r, d])
    return dofs


def l2_project_loop(space, field):
    """The batched projection as it was before its Gram solves were
    stacked: per element batch one field call, then one matrix-vector
    product per element and component and one ``cho_solve`` per element
    with that element's own ``cho_factor``.  The library's projection must
    reproduce it bitwise."""
    ncomp = len(COMPONENTS)
    dofs = np.empty((ncomp, space.n_elements, space.local_dim))
    for batch, phi in zip(space.element_batches, space.element_values):
        wphi_t = np.ascontiguousarray(batch.weights[:, :, None] * phi).transpose(0, 2, 1)
        pts = batch.points.reshape(-1, 2)
        vals = np.asarray(field(pts[:, 0], pts[:, 1])).reshape(phi.shape[:2] + (ncomp,))
        for e, wt, v in zip(batch.elements.tolist(), wphi_t, vals):
            rhs = np.column_stack([wt @ v[:, c] for c in range(ncomp)])
            factor = scipy.linalg.cho_factor(space.gram[e])
            dofs[:, e] = scipy.linalg.cho_solve(factor, rhs).T
    return dofs.ravel()


def _dev_sq(t):
    d00 = 0.5 * (t[:, 0, 0] - t[:, 1, 1])
    return d00 ** 2 + t[:, 0, 1] ** 2 + t[:, 1, 0] ** 2 + d00 ** 2


def energy_error(norm, dofs, exact=None, t=0.0):
    """``norm.error(dofs, exact, t)`` one element and one face at a time, on
    the fine quadrature degree of the EnergyNorm ``norm``."""
    space, mesh = norm.space, norm.space.mesh
    rules = element_rules(space, polygon_rules(
        [mesh.element_points(e) for e in range(mesh.n_elements)], norm.fine_degree))
    total = 0.0
    for e in range(space.n_elements):
        pts, w = rules[e]
        x, y = pts[:, 0], pts[:, 1]
        field = eval_field(space, dofs, e, pts)
        div = eval_divergence(space, dofs, e, pts)
        if exact is not None:
            field = field - exact.sigma(x, y, t)
            div = div - exact.div_sigma(x, y, t)
        total += float(w @ (_dev_sq(field) + (div ** 2).sum(axis=1)))

    for face in mesh.faces:
        if face["kind"] == FaceKind.DIRICHLET:
            continue
        pts, w = face_rule(mesh, face, norm.fine_degree)
        x, y = pts[:, 0], pts[:, 1]
        gamma = penalty(face, norm.alpha, space.degree, mesh)
        n = face["normal"]
        err_plus = eval_field(space, dofs, face["plus"], pts)
        if exact is not None:
            err_plus = err_plus - exact.sigma(x, y, t)
        jump = np.einsum("qrc,c->qr", err_plus, n)
        if face["kind"] == FaceKind.INTERIOR:
            err_minus = eval_field(space, dofs, face["minus"], pts)
            if exact is not None:
                err_minus = err_minus - exact.sigma(x, y, t)
            jump = jump - np.einsum("qrc,c->qr", err_minus, n)
        total += gamma * float(w @ (jump ** 2).sum(axis=1))
    return float(np.sqrt(total))


# -- COO scatter and Kronecker products ---------------------------------------

def coo_scatter(dofs, values, n):
    """One COO matrix per row of ``values``, each converted and finalized on
    its own: the reference for the shared-pattern scatter of the library."""
    rows = np.concatenate([np.broadcast_to(d[:, :, None], d.shape + d.shape[-1:]).ravel()
                           for d in dofs])
    cols = np.concatenate([np.broadcast_to(d[:, None, :], d.shape + d.shape[-1:]).ravel()
                           for d in dofs])
    return [finalize(sparse.coo_matrix((v, (rows, cols)), shape=(n, n))) for v in values]


def mass_kron(space, mu=1.0):
    """(M1, M) by COO scatter and ``scipy.sparse.kron``."""
    L = space.local_dim
    dofs = np.arange(space.scalar_dofs).reshape(space.n_elements, L)
    m1, = coo_scatter([dofs], space.gram.reshape(1, -1), space.scalar_dofs)
    return m1, finalize(sparse.kron(deviatoric_factor() / mu, m1))


def stiffness_kron(space, alpha):
    """(B1, B2, B3, A) by COO scatter, ``bmat`` and ``kron``, from the
    library's local blocks."""
    b1, b2, b3 = coo_scatter(*_stiffness_blocks(space, alpha), space.scalar_dofs)
    block = sparse.bmat([[b1, b2.T], [b2, b3]])
    return b1, b2, b3, finalize(sparse.kron(sparse.eye(2), block))


# -- one-shot set-up builders -------------------------------------------------

def system_oneshot(m, a, dt):
    """A* = M + dt A, filtered by one ``finalize`` of the whole sum."""
    return finalize(m + dt * a)


def deflator_tocsc(astar):
    """(W, (A* V)^T) as CSR matrices, from column slices of one CSC copy of
    A*."""
    S = astar.shape[0] // 4
    csc = sparse.csr_matrix(astar).tocsc()
    av = (csc[:, :S] + csc[:, 3 * S:]) / np.sqrt(2.0)
    w = sparse.csc_matrix((av[:S, :] + av[3 * S:, :]) / np.sqrt(2.0))
    return w.tocsr(), av.T.tocsr()


def diagonal_blocks(A, bs, perm):
    """The (n // bs, bs, bs) diagonal blocks of A[perm][:, perm], read at
    once from all of A's CSR arrays through the inverse permutation."""
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


def collective_permutation(space):
    """perm[new] = old: position new = (e * 4 + c) * L + i of the collective
    layout, element e's component c, holds dof c * S + e * L + i."""
    L, S, ne = space.local_dim, space.scalar_dofs, space.n_elements
    e, c, i = np.meshgrid(np.arange(ne), np.arange(4), np.arange(L), indexing="ij")
    return (c * S + e * L + i).ravel()


def block_jacobi_oneshot(astar, space, layout):
    """The Block-Jacobi inverses of the layout, the whole stack gathered
    (``diagonal_blocks``), factorised, inverted and symmetrised at once."""
    L = space.local_dim
    bs, perm = (L, None) if layout == "component" else (4 * L, collective_permutation(space))
    blocks = diagonal_blocks(sparse.csr_matrix(astar), bs, perm)
    factor = _cho_factor_stack(blocks, lower=True)
    inv = _cho_solve_stack(factor, np.broadcast_to(np.eye(bs), blocks.shape))
    inv += inv.transpose(0, 2, 1)
    inv *= 0.5
    return inv


# -- agglomeration ------------------------------------------------------------

def _loop_edges(loop):
    """Directed edges (v_i, v_{i+1}) of a closed vertex loop."""
    loop = list(loop)
    return zip(loop, loop[1:] + loop[:1])


def merge_loops(loop_a, loop_b):
    """Union of two CCW loops sharing at least one full edge, from edge
    lists and sets; None when the union is not a simple polygon."""
    edges_a = list(_loop_edges(loop_a))
    edges_b = list(_loop_edges(loop_b))
    set_b = set(edges_b)
    shared = {e for e in edges_a if (e[1], e[0]) in set_b}
    if not shared:
        return None
    drop = shared | {(b, a) for a, b in shared}
    succ = {}
    for a, b in edges_a + edges_b:
        if (a, b) in drop:
            continue
        if a in succ:
            return None
        succ[a] = b
    if not succ:
        return None
    start = next(iter(succ))
    merged = [start]
    cur = succ[start]
    while cur != start:
        merged.append(cur)
        if cur not in succ:
            return None
        cur = succ[cur]
        if len(merged) > len(succ):
            return None
    if len(merged) != len(succ):
        return None
    return merged


def merge_is_legal(vertices, loop):
    """Positive area and star-shaped w.r.t. the centroid, by the batched
    geometry of ``PolyMesh`` on a stack of one polygon."""
    pts = vertices[np.asarray(loop, dtype=np.int64)][None]
    area, centroid = _shoelace(pts)
    if area[0] <= 0.0:
        return False
    cross = _fan_cross_products(pts, centroid)
    return bool(np.all(cross > 1e-12 * area[0]))


def agglomerate(mesh, target_elements, rng_seed):
    """Seeded pairwise agglomeration that rebuilds each candidate's
    neighbour list from a directed-edge owner map and tests each merge with
    array geometry: returns (loops, merge_warning)."""
    rng = np.random.default_rng(rng_seed)
    loops = {e: loop.tolist() for e, loop in enumerate(mesh.elements)}
    alive = np.ones(mesh.n_elements, dtype=bool)
    owner = {}
    for e, loop in loops.items():
        for edge in _loop_edges(loop):
            owner[edge] = e

    def neighbors_of(e):
        out = set()
        for a, b in _loop_edges(loops[e]):
            o = owner.get((b, a))
            if o is not None and o != e:
                out.add(o)
        return sorted(out)

    n_alive = len(loops)
    stalled = False
    while n_alive > target_elements:
        merged_any = False
        for e in rng.permutation(np.flatnonzero(alive)):
            e = int(e)
            nbrs = neighbors_of(e)
            if not nbrs:
                continue
            for j in rng.permutation(nbrs):
                j = int(j)
                merged = merge_loops(loops[e], loops[j])
                if merged is None or not merge_is_legal(mesh.vertices, merged):
                    continue
                for victim in (e, j):
                    for edge in _loop_edges(loops[victim]):
                        owner.pop(edge, None)
                    del loops[victim]
                loops[min(e, j)] = merged
                alive[max(e, j)] = False
                for edge in _loop_edges(merged):
                    owner[edge] = min(e, j)
                n_alive -= 1
                merged_any = True
                break
            if merged_any:
                break
        if not merged_any:
            stalled = True
            break
    return [loops[k] for k in sorted(loops)], stalled


# -- manufactured solutions ---------------------------------------------------

#: time-independent polynomial fields by total degree
STEADY_POLYNOMIALS = {
    1: sp.Matrix([[1 + X, X - Y], [2 * Y, 1 - X + Y]]),
    2: sp.Matrix([[1 + X * Y, X**2 - Y], [Y**2 + X, X**2 - Y**2]]),
}


def steady_polynomial_solution(degree: int, mu: float = 1.0):
    """The steady polynomial field of the given total degree (1 or 2); the
    discrete evolution keeps its projection fixed up to solver tolerance."""
    return manufacture(STEADY_POLYNOMIALS[degree], mu=mu)
