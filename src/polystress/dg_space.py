"""Tensor-valued discontinuous polynomial spaces on polygonal meshes.

Each element carries a modal basis of total degree <= p: tensor-product
Legendre polynomials scaled to the element bounding box and L2-normalised
over it.  On rectangular elements the basis is therefore exactly
orthonormal; on agglomerated polygons the element Gram matrix stays
well-conditioned SPD but is not the identity, which is what gives the mass
blocks of the time-step operator their nontrivial spectrum.  Quadrature on
polygons integrates over the centroid fan with a collapsed tensor Gauss
rule per triangle.  ``DGSpace.evaluate`` evaluates the basis at points of
many elements in one call; elements are grouped by quadrature size
(``ElementBatch``) so that element integrals are batched contractions.

The space owns the basis tables that assembly contracts: one ``evaluate``
pass per element batch gives the Gram matrices ``gram`` and the gradient
Gram blocks ``grad_gram``, and the boundary and load tables are computed on
first use.  ``face_batch`` gives the faces of one kind with the unscaled
penalty p^2 / h, which every caller multiplies by its alpha;
``DGSpace.face_tables`` gives the basis on them in chunks of a bounded
number of faces (``CHUNK``), evaluating each boundary face point once per
space.

Global scalar dof layout is element-major, ``e * local_dim + i``; the four
tensor components are stacked component-major on top of it,
``c * scalar_dofs + e * local_dim + i`` with c in (0: s11, 1: s12,
2: s21, 3: s22).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg
from numpy.polynomial import legendre as npleg

from .mesh import FaceKind, PolyMesh, _fan_cross_products, _length_groups, _next, _shoelace

#: tensor components in dof order: row-major flattening of the 2x2 tensor
COMPONENTS = ((0, 0), (0, 1), (1, 0), (1, 1))

#: entries per chunk of the set-up loops (512 KB of doubles): the face
#: tables and stiffness face blocks of a chunk of faces, the rows that
#: ``assembly`` sums, filters and stacks, and the diagonal blocks that
#: ``krylov.build_block_jacobi`` gathers and factorises.  Each chunk's
#: temporaries are a few arrays of this many entries.  ``assembly`` and
#: ``krylov`` read this one binding when they are called.
CHUNK = 1 << 16


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only points (nq, 2) and positive weights (nq,) of a rule on the
    reference triangle (0,0)-(1,0)-(0,1), exact for total degree <= degree.

    Collapsed coordinates: (x, y) = (u (1 - v), v) maps the unit square to
    the triangle with Jacobian (1 - v), so a polynomial of total degree d
    becomes degree d in u and d + 1 in v; the tensor Gauss rule below is
    therefore exact.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    nu = (degree + 2) // 2
    nv = (degree + 3) // 2
    tu, wu = npleg.leggauss(nu)
    tv, wv = npleg.leggauss(nv)
    u = 0.5 * (tu + 1.0)
    v = 0.5 * (tv + 1.0)
    U, V = np.meshgrid(u, v, indexing="ij")
    WU, WV = np.meshgrid(0.25 * wu, wv, indexing="ij")
    x = U * (1.0 - V)
    y = V
    w = WU * WV * (1.0 - V)
    pts, w = np.column_stack([x.ravel(), y.ravel()]), w.ravel()
    pts.setflags(write=False)
    w.setflags(write=False)
    return pts, w


def polygon_rules(polygons, degree: int) -> list[ElementBatch]:
    """Quadrature over many polygons, exact for total degree <= degree.

    Each polygon is fanned into triangles from its centroid; it must be
    star-shaped with respect to it (guaranteed for agglomerated meshes).
    Degenerate fan triangles from collinear boundary chains are dropped.
    Polygon i's rule lists the points of its kept triangles in vertex order.
    The rules are returned grouped by size, ascending, with ``elements``
    holding polygon indices.
    """
    polygons = [np.asarray(poly, dtype=float) for poly in polygons]
    sizes = np.array([len(poly) for poly in polygons], dtype=np.int64)
    if np.any(sizes < 3):
        raise ValueError("degenerate polygon")
    ref_points, ref_weights = triangle_rule(degree)
    u, v = ref_points[:, :1], ref_points[:, 1:]
    coords = np.concatenate(polygons)
    owner, points, weights = [], [], []
    for ids, pos in _length_groups(sizes):
        pts = coords[pos]
        _, center = _shoelace(pts)
        cross = _fan_cross_products(pts, center)
        area2 = np.abs(cross).sum(axis=1)[:, None]
        if not np.all(area2 > 0.0):
            raise ValueError("degenerate polygon")
        if np.any(cross < -1e-12 * area2):
            raise ValueError("polygon is not star-shaped w.r.t. its centroid")
        e, i = np.nonzero(cross > 1e-14 * area2)
        c, a, b = center[e][:, None], pts[e, i][:, None], _next(pts)[e, i][:, None]
        # affine map from the reference triangle, |J| = cross
        points.append(c + u * (a - c) + v * (b - c))
        weights.append(ref_weights * cross[e, i][:, None])
        owner.append(ids[e])
    # triangles of one polygon are contiguous and in vertex order
    owner = np.concatenate(owner)
    order = np.argsort(owner, kind="stable")
    points, weights = np.concatenate(points)[order], np.concatenate(weights)[order]
    counts = np.bincount(owner, minlength=len(polygons))
    starts = np.cumsum(counts) - counts
    nq = len(ref_weights)
    batches = []
    for t in np.unique(counts):
        ids = np.flatnonzero(counts == t)
        rows = starts[ids][:, None] + np.arange(t)
        batches.append(ElementBatch(ids, points[rows].reshape(len(ids), t * nq, 2),
                                    weights[rows].reshape(len(ids), t * nq)))
    return batches


def face_rules(p0, p1, degree: int):
    """One Gauss rule per segment p0[f]-p1[f], exact for degree <= degree.

    Returns points (F, nq, 2) and weights (F, nq); each face's weights sum
    to its length.
    """
    p0 = np.asarray(p0, dtype=float).reshape(-1, 2)
    p1 = np.asarray(p1, dtype=float).reshape(-1, 2)
    d = p1 - p0
    length = np.hypot(d[:, 0], d[:, 1])
    if np.any(length <= 0.0):
        raise ValueError("zero-length face")
    t, w = npleg.leggauss((degree + 2) // 2)
    s = 0.5 * (t + 1.0)
    pts = p0[:, None, :] + s[None, :, None] * d[:, None, :]
    return pts, 0.5 * length[:, None] * w[None, :]


def _total_degree_exponents(p: int) -> np.ndarray:
    exps = [(a, d - a) for d in range(p + 1) for a in range(d, -1, -1)]
    return np.array(exps, dtype=np.int64)


@lru_cache(maxsize=None)
def _legendre_derivative(pmax: int) -> np.ndarray:
    """Column k holds the Legendre coefficients of L_k'."""
    D = np.zeros((pmax + 1, pmax + 1))
    for k in range(1, pmax + 1):
        c = np.zeros(k + 1)
        c[k] = 1.0
        d = npleg.legder(c)
        D[:len(d), k] = d
    D.setflags(write=False)
    return D


def _legendre_table(t: np.ndarray, pmax: int):
    """Values and derivatives of L_0..L_pmax at points t, shape t.shape +
    (pmax + 1,) (exact polynomial arithmetic, valid at the interval
    endpoints)."""
    V = npleg.legvander(t, pmax)
    return V, V @ _legendre_derivative(pmax)


@dataclass(frozen=True)
class ElementBatch:
    """Elements whose quadrature rules have the same number of points:
    ids (E,), points (E, nq, 2) and weights (E, nq), all read-only."""

    elements: np.ndarray
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for array in (self.elements, self.points, self.weights):
            array.setflags(write=False)


@dataclass(frozen=True)
class FaceBatch:
    """Faces of one kind, all on the same Gauss rule: plus (and, on interior
    faces, minus) elements (F,), unit normals out of the plus side (F, 2),
    unscaled penalties gamma = p^2 / h (F,), points (F, nq, 2) and weights
    (F, nq).  The face penalty is alpha * gamma."""

    plus: np.ndarray
    minus: np.ndarray | None
    normals: np.ndarray
    gamma: np.ndarray
    points: np.ndarray
    weights: np.ndarray

    def part(self, faces: slice) -> FaceBatch:
        """The batch of the faces ``faces``, over views of these arrays."""
        return FaceBatch(self.plus[faces], None if self.minus is None else self.minus[faces],
                         self.normals[faces], self.gamma[faces], self.points[faces],
                         self.weights[faces])


@dataclass(frozen=True)
class BoundaryTable:
    """The basis on the boundary faces of one kind: the faces, and, all
    read-only, point coordinates x, y and per-point normals nx, ny
    (F * nq,) and the plus element's basis values phi (F, nq, local_dim)
    and gradients grad (F, nq, local_dim, 2)."""

    kind: FaceKind
    faces: FaceBatch
    x: np.ndarray
    y: np.ndarray
    nx: np.ndarray
    ny: np.ndarray
    phi: np.ndarray
    grad: np.ndarray

    def __post_init__(self):
        for array in (self.x, self.y, self.nx, self.ny, self.phi, self.grad):
            array.setflags(write=False)


class _NotSPD(scipy.linalg.LinAlgError):
    """A block of a stack failed its Cholesky factorisation; ``index`` is
    the first such block."""

    def __init__(self, index: int):
        super().__init__(f"block {index} is not positive definite")
        self.index = index


def _cho_factor_stack(blocks: np.ndarray, lower: bool = False):
    """LAPACK ``potrf`` of every block of an (n, b, b) stack, as one
    ``(c, lower)`` pair for ``_cho_solve_stack``.  Each factor is the one
    scipy's ``cho_factor`` returns, the other triangle left as it was.  The
    blocks are not checked for non-finite entries.  Raises _NotSPD naming
    the first block that is not positive definite."""
    potrf, = scipy.linalg.get_lapack_funcs(("potrf",), (blocks,))
    c = np.empty_like(blocks)
    for k, block in enumerate(blocks):
        c[k], info = potrf(block, lower=lower, clean=False)
        if info > 0:
            raise _NotSPD(k)
    return c, lower


def _cho_solve_stack(factor, rhs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """LAPACK ``potrs`` of each factor of a ``_cho_factor_stack`` pair with
    its (b, m) slice of an (n, b, m) right-hand-side stack, as scipy's
    ``cho_solve`` of that pair, written into ``out`` (a new C-contiguous
    array when None), which is returned."""
    c, lower = factor
    potrs, = scipy.linalg.get_lapack_funcs(("potrs",), (c, rhs))
    out = np.empty(rhs.shape) if out is None else out
    for k, (ck, bk) in enumerate(zip(c, rhs)):
        out[k], _ = potrs(ck, bk, lower=lower)
    return out


class DGSpace:
    """Discrete space [P_p(mesh)]^{2x2} with bounding-box Legendre bases.

    local_dim = (p+1)(p+2)/2 scalar modes per element, scalar_dofs =
    local_dim * n_elements, total_dofs = 4 * scalar_dofs.
    """

    def __init__(self, mesh: PolyMesh, degree: int):
        if degree < 1:
            raise ValueError("polynomial degree must be >= 1")
        self.mesh = mesh
        self.degree = int(degree)
        self.exponents = _total_degree_exponents(degree)
        self.local_dim = len(self.exponents)
        self.n_elements = mesh.n_elements
        self.scalar_dofs = self.local_dim * self.n_elements
        self.total_dofs = 4 * self.scalar_dofs
        self.quad_degree = 2 * degree + 1

        polygons = [mesh.element_points(e) for e in range(self.n_elements)]
        sizes = np.fromiter(map(len, polygons), np.int64, self.n_elements)
        coords, starts = np.concatenate(polygons), np.cumsum(sizes) - sizes
        lo, hi = np.minimum.reduceat(coords, starts), np.maximum.reduceat(coords, starts)
        self.frames = frames = np.hstack([0.5 * (lo + hi), 0.5 * (hi - lo)])

        # L2 normalisation over the bounding box: the basis is exactly
        # orthonormal on rectangular elements and stays well-conditioned on
        # agglomerated polygons.
        a, b = self.exponents[:, 0], self.exponents[:, 1]
        sx, sy = frames[:, 2], frames[:, 3]
        self._scales = 1.0 / np.sqrt(np.outer(sx * sy, 4.0 / ((2 * a + 1.0) * (2 * b + 1.0))))

        self.element_batches = polygon_rules(polygons, self.quad_degree)

        # one pass over the element points: the Gram matrices (the diagonal
        # blocks of M1) and the gradient Gram blocks, the (x, x), (y, x) and
        # (y, y) slots of the volume term of B1, B2, B3, test index first
        L = self.local_dim
        self.gram = np.empty((self.n_elements, L, L))
        self.grad_gram = np.empty((3, self.n_elements, L, L))
        for batch in self.element_batches:
            phi, grad = self.evaluate(batch.elements[:, None], batch.points)
            w = batch.weights[:, :, None]
            self.gram[batch.elements] = np.matmul(phi.transpose(0, 2, 1), w * phi)
            gxt, gyt = grad.transpose(3, 0, 2, 1)
            wgx, wgy = w * grad[..., 0], w * grad[..., 1]
            self.grad_gram[:, batch.elements] = (gxt @ wgx, gyt @ wgx, gyt @ wgy)
        self.gram.setflags(write=False)
        self.grad_gram.setflags(write=False)
        try:
            self._gram_factor = _cho_factor_stack(self.gram)
        except _NotSPD as exc:
            raise ValueError(f"singular basis Gram matrix on element {exc.index}") from exc

    # -- load tables -------------------------------------------------------------

    @cached_property
    def element_values(self) -> tuple[np.ndarray, ...]:
        """Basis values (E, nq, local_dim) at the quadrature points of each
        of ``element_batches``, read-only.  Computed on first use (by
        ``l2_project`` and the load vector), not at construction, and kept
        for the life of the space."""
        tables = []
        for batch in self.element_batches:
            phi, _ = self.evaluate(batch.elements[:, None], batch.points)
            phi.setflags(write=False)
            tables.append(phi)
        return tuple(tables)

    @cached_property
    def boundary_tables(self) -> tuple[BoundaryTable, ...]:
        """The basis on the Dirichlet and Neumann faces, one table per kind
        that has faces; computed on first use, by the stiffness face terms
        (``face_tables``) or the load vector."""
        tables = []
        for kind in (FaceKind.DIRICHLET, FaceKind.NEUMANN):
            fb = face_batch(self, kind, self.quad_degree)
            if not len(fb.plus):
                continue
            phi, grad = self.evaluate(fb.plus[:, None], fb.points)
            nq = fb.weights.shape[1]
            tables.append(BoundaryTable(
                kind, fb, fb.points[..., 0].ravel(), fb.points[..., 1].ravel(),
                np.repeat(fb.normals[:, 0], nq), np.repeat(fb.normals[:, 1], nq), phi, grad))
        return tuple(tables)

    def face_tables(self, kind: FaceKind):
        """The basis on the faces of one kind, on the space's face rule, in
        chunks of at most ``CHUNK // (2 local_dim)^2`` faces (one at least):
        yields (faces, plus, minus), with faces the chunk's FaceBatch, plus
        the values (F, nq, local_dim) and gradients (F, nq, local_dim, 2)
        of the plus element's basis, and minus those of the minus element
        on interior faces, None on boundary faces.  Interior faces are
        evaluated chunk by chunk; boundary faces are views of
        ``boundary_tables``, so each boundary point is evaluated once per
        space."""
        if kind == FaceKind.INTERIOR:
            faces = face_batch(self, kind, self.quad_degree)
        else:
            table = next((t for t in self.boundary_tables if t.kind == kind), None)
            if table is None:
                return
            faces = table.faces
        step = max(1, CHUNK // (2 * self.local_dim) ** 2)
        for start in range(0, len(faces.plus), step):
            rows = slice(start, start + step)
            part = faces.part(rows)
            if kind == FaceKind.INTERIOR:
                yield (part, self.evaluate(part.plus[:, None], part.points),
                       self.evaluate(part.minus[:, None], part.points))
            else:
                yield part, (table.phi[rows], table.grad[rows]), None

    @cached_property
    def element_points(self) -> np.ndarray:
        """Quadrature points of all ``element_batches`` in batch order,
        (npts, 2), read-only; computed on first use."""
        pts = np.concatenate([b.points.reshape(-1, 2) for b in self.element_batches])
        pts.setflags(write=False)
        return pts

    # -- basis evaluation ----------------------------------------------------

    def evaluate(self, elements, pts: np.ndarray):
        """Basis values and gradients of the given elements at points.

        ``pts`` has shape (..., 2) and ``elements`` holds one element id per
        point (broadcast to pts.shape[:-1]), so points of many elements are
        evaluated in one call.  Returns values (..., local_dim) and
        gradients (..., local_dim, 2).
        """
        pts = np.asarray(pts, dtype=float)
        elements = np.broadcast_to(elements, pts.shape[:-1])
        frames = self.frames[elements]
        sx, sy = frames[..., 2], frames[..., 3]
        vx, dx = _legendre_table((pts[..., 0] - frames[..., 0]) / sx, self.degree)
        vy, dy = _legendre_table((pts[..., 1] - frames[..., 1]) / sy, self.degree)
        a, b = self.exponents[:, 0], self.exponents[:, 1]
        scales = self._scales[elements]
        vxa, vyb = vx[..., a], vy[..., b]
        values = vxa * vyb * scales
        grads = np.empty(values.shape + (2,))
        grads[..., 0] = dx[..., a] * vyb * (scales / sx[..., None])
        grads[..., 1] = vxa * dy[..., b] * (scales / sy[..., None])
        return values, grads


def face_batch(space: DGSpace, kind: FaceKind, degree: int) -> FaceBatch:
    """The faces of one kind on the Gauss rule exact for ``degree``."""
    mesh = space.mesh
    faces = mesh.faces[mesh.faces["kind"] == kind]
    ends = mesh.vertices[faces["ends"]]
    minus = faces["minus"] if kind == FaceKind.INTERIOR else None
    # the unscaled face penalty p^2 / h, with h the diameter of the plus
    # element or, on interior faces, the smaller of the two diameters
    h = mesh.element_diameters[faces["plus"]]
    if minus is not None:
        h = np.minimum(h, mesh.element_diameters[minus])
    return FaceBatch(faces["plus"], minus, faces["normal"], space.degree ** 2 / h,
                     *face_rules(ends[:, 0], ends[:, 1], degree))


def build_space(mesh: PolyMesh, p: int) -> DGSpace:
    """Build the degree-p tensor DG space over a polygonal mesh (p >= 1)."""
    return DGSpace(mesh, p)


def l2_project(space: DGSpace, field) -> np.ndarray:
    """Elementwise L2 projection of a tensor-valued function.

    ``field(x, y)`` takes read-only coordinate arrays, one call per element
    batch, and returns values with shape (npts, 2, 2).  Coefficients are
    quadrature inner products run through the stacked element Gram factors
    (a no-op on rectangular elements, where the basis is orthonormal).  The
    basis values at the quadrature points are computed once per space
    (``DGSpace.element_values``) and reused by every later call.
    """
    ncomp = len(COMPONENTS)
    dofs = np.empty((ncomp, space.n_elements, space.local_dim))
    chol, lower = space._gram_factor
    for batch, phi in zip(space.element_batches, space.element_values):
        wphi_t = np.ascontiguousarray(batch.weights[:, :, None] * phi).transpose(0, 2, 1)
        pts = batch.points.reshape(-1, 2)
        vals = np.asarray(field(pts[:, 0], pts[:, 1])).reshape(phi.shape[:2] + (ncomp,))
        # (E, 4, L, nq) @ (E, 4, nq, 1): one matrix-vector product per
        # element and component
        rhs = np.matmul(wphi_t[:, None], vals.transpose(0, 2, 1)[..., None])
        coef = _cho_solve_stack((chol[batch.elements], lower), rhs[..., 0].transpose(0, 2, 1))
        dofs[:, batch.elements] = coef.transpose(2, 0, 1)
    return dofs.ravel()
