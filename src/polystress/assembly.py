"""Assembly of the algebraic operators of the PolyDG discretisation.

Only the scalar blocks M1, B1, B2, B3 are assembled, batched over all
elements of one quadrature size and over all faces of one kind (every face
uses the same Gauss rule), with a single COO scatter per matrix.  The
tensor operators then follow from their Kronecker structure below.  An
independent tensor-path assembly, one element and one face at a time over
all four components, lives in the test suite as the oracle that
``kron_structure_check`` compares against.

Block conventions, with S = scalar_dofs and dof order (s11, s12, s21, s22):
M = (mu^-1 K0) kron M1, and A = I_2 kron [[B1, B2^T], [B2, B3]] where
B2(i, j) carries the x-derivative of the trial and the y-derivative of the
test function (B2 itself is not symmetric, so it appears transposed in the
upper off-diagonal block).
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import scipy.sparse as sparse
from scipy.io import mmwrite

from .dg_space import COMPONENTS, DGSpace, face_rules
from .mesh import FaceKind, PolyMesh
from .problems import ProblemData

#: unscaled deviatoric factor of the mass matrix, components ordered
#: (s11, s12, s21, s22)
K_SPEC = np.array([
    [0.5, 0.0, 0.0, -0.5],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [-0.5, 0.0, 0.0, 0.5],
])

DEFAULT_ALPHA = 10.0


@dataclass
class SystemMatrices:
    """Assembled operators and their structural factors."""

    m1: sparse.csr_matrix
    b1: sparse.csr_matrix
    b2: sparse.csr_matrix
    b3: sparse.csr_matrix
    kfactor: np.ndarray
    m: sparse.csr_matrix
    a: sparse.csr_matrix
    mu: float
    alpha: float

    @property
    def n(self) -> int:
        return self.m.shape[0]


def finalize(matrix, rel: float = 1e-14) -> sparse.csr_matrix:
    """Canonical CSR form: duplicates summed, entries below rel * rowmax
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
        keep = mag > rel * np.repeat(rowmax, counts)
        keep |= np.repeat(~np.isfinite(rowmax), counts)
        kept = np.concatenate(([0], np.cumsum(keep)))
        A = sparse.csr_matrix((A.data[keep], A.indices[keep], kept[A.indptr]),
                              shape=A.shape)
    A.sort_indices()
    return A


def deviatoric_factor() -> np.ndarray:
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


def penalty(face, alpha: float, p: int, mesh: PolyMesh) -> float:
    """Face stabilisation alpha * p^2 / h: the max over the two neighbours
    on interior faces, the single neighbour on Neumann faces.  Undefined on
    Dirichlet faces."""
    if face.kind == FaceKind.DIRICHLET:
        raise ValueError("penalty is defined on interior and Neumann faces only")
    val = p * p / mesh.element_diameters[face.plus_element]
    if face.kind == FaceKind.INTERIOR:
        val = max(val, p * p / mesh.element_diameters[face.minus_element])
    return alpha * val


def _scatter(dofs: list, blocks: list, n: int) -> list:
    """One COO scatter per matrix.  ``dofs`` holds (nb, k) local-to-global
    maps and ``blocks`` the matching (nmat, nb, k, k) local blocks (test
    index first); returns nmat canonical n x n matrices."""
    rows = np.concatenate([np.broadcast_to(d[:, :, None], d.shape + d.shape[-1:]).ravel()
                           for d in dofs])
    cols = np.concatenate([np.broadcast_to(d[:, None, :], d.shape + d.shape[-1:]).ravel()
                           for d in dofs])
    vals = np.concatenate([b.reshape(len(b), -1) for b in blocks], axis=1)
    return [finalize(sparse.coo_matrix((v, (rows, cols)), shape=(n, n))) for v in vals]


def assemble_mass(space: DGSpace, mu: float = 1.0):
    """Deviatoric mass operator: returns (M1, K, M) with M1 the scalar mass
    matrix, K the mu-scaled deviatoric factor and M = K kron M1."""
    if mu <= 0.0:
        raise ValueError("viscosity mu must be positive")
    L = space.local_dim
    K = deviatoric_factor() / mu
    # the element blocks of M1 are the basis Gram matrices
    dofs = np.arange(space.scalar_dofs).reshape(space.n_elements, L)
    m1, = _scatter([dofs], [space.gram[None]], space.scalar_dofs)
    m = finalize(sparse.kron(K, m1))
    return m1, K, m


@dataclass(frozen=True)
class _FaceBatch:
    """Faces of one kind, all on the same Gauss rule: plus (and, on interior
    faces, minus) elements (F,), unit normals out of the plus side (F, 2),
    penalties (F,), points (F, nq, 2) and weights (F, nq)."""

    plus: np.ndarray
    minus: np.ndarray | None
    normals: np.ndarray
    gamma: np.ndarray
    points: np.ndarray
    weights: np.ndarray


def _face_batch(space: DGSpace, kind: FaceKind, alpha: float, degree: int) -> _FaceBatch:
    """The faces of one kind on the Gauss rule exact for ``degree``."""
    mesh = space.mesh
    faces = [f for f in mesh.faces if f.kind == kind]
    ends = np.array([f.endpoints for f in faces], dtype=np.int64).reshape(-1, 2)
    plus = np.array([f.plus_element for f in faces], dtype=np.int64)
    normals = np.array([f.normal for f in faces], dtype=float).reshape(-1, 2)
    points, weights = face_rules(mesh.vertices[ends[:, 0]], mesh.vertices[ends[:, 1]],
                                 degree)
    # batched form of penalty(): alpha p^2 / h, max over the neighbours
    p2 = space.degree * space.degree
    gamma = p2 / mesh.element_diameters[plus]
    minus = None
    if kind == FaceKind.INTERIOR:
        minus = np.array([f.minus_element for f in faces], dtype=np.int64)
        gamma = np.maximum(gamma, p2 / mesh.element_diameters[minus])
    return _FaceBatch(plus, minus, normals, alpha * gamma, points, weights)


def assemble_stiffness(space: DGSpace, alpha: float = DEFAULT_ALPHA):
    """Broken divergence operator with interior-penalty coupling.

    Returns (B1, B2, B3, A): the scalar blocks of the vector-valued form,
    assembled on the scalar dof layout, and A = I_2 kron [[B1, B2^T],
    [B2, B3]].
    """
    L = space.local_dim
    span = np.arange(L)
    dofs, blocks = [], []

    # volume term: the (x, y) slots of the scalar divergence d_x u + d_y v
    for batch in space.element_batches:
        _, grad = space.evaluate(batch.elements[:, None], batch.points)
        gx, gy = grad[..., 0], grad[..., 1]
        wgx = batch.weights[:, :, None] * gx
        wgy = batch.weights[:, :, None] * gy
        gxt, gyt = gx.transpose(0, 2, 1), gy.transpose(0, 2, 1)
        blocks.append(np.stack([gxt @ wgx, gyt @ wgx, gyt @ wgy]))
        dofs.append(batch.elements[:, None] * L + span)

    # face terms on the side-stacked dofs (plus, then minus on interior
    # faces): jump phi of the scalar, average gradient, and with
    # C_c = phi^T W grad_c and P = phi^T W phi the slot blocks
    # (b, c) = -n_b C_c - n_c C_b^T + gamma n_b n_c P
    for kind in (FaceKind.INTERIOR, FaceKind.NEUMANN):
        fb = _face_batch(space, kind, alpha, space.quad_degree)
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
        gamma = fb.gamma[:, None, None]
        cxt, cyt = cx.transpose(0, 2, 1), cy.transpose(0, 2, 1)
        blocks.append(np.stack([
            -nx * cx - nx * cxt + gamma * nx * nx * pen,
            -ny * cx - nx * cyt + gamma * ny * nx * pen,
            -ny * cy - ny * cyt + gamma * ny * ny * pen]))
        dofs.append(fdofs)

    b1, b2, b3 = _scatter(dofs, blocks, space.scalar_dofs)
    block = sparse.bmat([[b1, b2.T], [b2, b3]])
    a = finalize(sparse.kron(sparse.eye(2), block))
    return b1, b2, b3, a


def assemble_system(space: DGSpace, mu: float = 1.0,
                    alpha: float = DEFAULT_ALPHA) -> SystemMatrices:
    m1, K, m = assemble_mass(space, mu)
    b1, b2, b3, a = assemble_stiffness(space, alpha)
    return SystemMatrices(m1=m1, b1=b1, b2=b2, b3=b3, kfactor=K, m=m, a=a,
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


@dataclass(frozen=True)
class _BoundaryLoad:
    """The time-independent part of the load on the boundary faces of one
    kind, all read-only: plus elements (F,), weights (F, nq), point
    coordinates x, y and per-point normals nx, ny (F * nq,), and the test
    functions (F, nq, 2 * local_dim), slot (d, i) holding v_d of basis
    function i.  nx and ny are None on Dirichlet faces."""

    kind: FaceKind
    plus: np.ndarray
    weights: np.ndarray
    x: np.ndarray
    y: np.ndarray
    nx: np.ndarray | None
    ny: np.ndarray | None
    tests: np.ndarray

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


# space -> {alpha: boundary loads}; weak in the space, so that the tables
# go with it and never keep a dropped space alive
_BOUNDARY_LOADS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _boundary_loads(space: DGSpace, alpha: float) -> tuple[_BoundaryLoad, ...]:
    """The boundary tables of ``functional_vector``, computed on the first
    call for ``(space, alpha)`` and reused afterwards."""
    by_alpha = _BOUNDARY_LOADS.setdefault(space, {})
    if alpha in by_alpha:
        return by_alpha[alpha]
    loads = []
    # test functions v_d = n_d phi (Dirichlet) and v_d = gamma n_d phi - d_d phi
    # (Neumann), for component (r, d) of the plus element
    for kind in (FaceKind.DIRICHLET, FaceKind.NEUMANN):
        fb = _face_batch(space, kind, alpha, space.quad_degree)
        if not len(fb.plus):
            continue
        phi, grad = space.evaluate(fb.plus[:, None], fb.points)
        tests = fb.normals[:, None, :, None] * phi[:, :, None, :]
        F, nq = fb.weights.shape
        nx = ny = None
        if kind == FaceKind.NEUMANN:
            tests = fb.gamma[:, None, None, None] * tests - grad.transpose(0, 1, 3, 2)
            nx, ny = np.repeat(fb.normals[:, 0], nq), np.repeat(fb.normals[:, 1], nq)
        loads.append(_BoundaryLoad(kind, fb.plus, fb.weights, fb.points[..., 0].ravel(),
                                   fb.points[..., 1].ravel(), nx, ny,
                                   tests.reshape(F, nq, -1)))
    by_alpha[alpha] = tuple(loads)
    return by_alpha[alpha]


def functional_vector(space: DGSpace, data: ProblemData, t: float,
                      alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """Discrete load vector: volume source, Dirichlet divergence datum and
    Nitsche-consistent Neumann traction terms.

    Everything but the data is independent of t: the basis values at the
    element quadrature points are computed once per space
    (``DGSpace.element_values``), and the boundary face rules, normals and
    test functions once per space and alpha; later calls only evaluate the
    data callbacks and contract.  The callbacks receive read-only point
    arrays.
    """
    # f[c, e, i] in component-major dof order; tensor components flatten
    # row-major, which is the COMPONENTS order
    f = np.zeros((4, space.n_elements, space.local_dim))

    pts = space.element_points
    source = data.source(pts[:, 0], pts[:, 1], t).reshape(-1, 4)
    start = 0
    for batch, phi in zip(space.element_batches, space.element_values):
        E, nq = batch.weights.shape
        vals = source[start:start + E * nq].reshape(E, nq, 4)
        start += E * nq
        wvals = batch.weights[:, :, None] * vals
        f[:, batch.elements] = (wvals.transpose(0, 2, 1) @ phi).transpose(1, 0, 2)

    # boundary faces: sum_q w g_r(q) v_d(q) into component (r, d) of the
    # plus element
    per_element = f.transpose(1, 0, 2)
    for load in _boundary_loads(space, alpha):
        if load.kind == FaceKind.DIRICHLET:
            g = data.dirichlet(load.x, load.y, t)
        else:
            g = data.neumann(load.x, load.y, t, load.nx, load.ny)
        F, nq = load.weights.shape
        wg = load.weights[:, :, None] * g.reshape(F, nq, 2)
        contrib = wg.transpose(0, 2, 1) @ load.tests
        np.add.at(per_element, load.plus, contrib.reshape(F, 4, -1))
    return f.ravel()


def assemble_rhs(space: DGSpace, data: ProblemData, t: float,
                 sigma_prev: np.ndarray, dt: float,
                 system: SystemMatrices) -> np.ndarray:
    """One-step right-hand side M sigma_prev + dt * f(t), with the load
    vector of ``functional_vector`` at ``system.alpha`` (its time-independent
    tables are computed once per space and alpha; the data callbacks
    receive read-only point arrays)."""
    f = functional_vector(space, data, t, system.alpha)
    return system.m @ sigma_prev + dt * f


def kron_structure_check(system: SystemMatrices) -> tuple[float, float]:
    """Max deviations |M - K kron M1| and |A - I_2 kron [[B1,B2^T],[B2,B3]]|."""
    kref = sparse.csr_matrix(K_SPEC / system.mu)
    dm = system.m - sparse.kron(kref, system.m1, format="csr")
    block = sparse.bmat([[system.b1, system.b2.T], [system.b2, system.b3]],
                        format="csr")
    da = system.a - sparse.kron(sparse.eye(2), block, format="csr")
    dev_m = float(np.abs(dm.data).max()) if dm.nnz else 0.0
    dev_a = float(np.abs(da.data).max()) if da.nnz else 0.0
    return dev_m, dev_a


def export_matrices(system: SystemMatrices, outdir, dt: float | None = None) -> list[str]:
    """Write the assembled operators in Matrix Market coordinate format.

    Returns the list of written file names.  When dt is given, the
    time-step operator is exported as well.
    """
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
