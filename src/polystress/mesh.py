"""Polygonal meshes of rectangular domains.

Meshes are built by Cartesian tiling and optional seeded pairwise
agglomeration, which produces genuinely polygonal (non-quadrilateral)
elements while staying reproducible.  Faces are straight segments between
mesh vertices, classified as interior, Dirichlet or Neumann, and held as
one read-only record array (``FACE_DTYPE``), one row per face:

* ``ends``: the two vertex ids, in the traversal order of the plus element;
* ``kind``: a ``FaceKind``;
* ``plus``: the element the normal points out of;
* ``minus``: the element on the other side, -1 on boundary faces;
* ``normal``: the unit normal out of ``plus`` (the minus-side normal of an
  interior face is exactly its negative).

A plain-text file format allows importing externally generated polygonal
meshes.
"""
from __future__ import annotations

import copy
import enum

import numpy as np


class MeshError(ValueError):
    """Raised when mesh input data violates a mesh invariant."""


class FaceKind(enum.IntEnum):
    INTERIOR = 0
    DIRICHLET = 1
    NEUMANN = 2


FACE_DTYPE = np.dtype([("ends", np.int64, (2,)), ("kind", np.int8), ("plus", np.int64),
                       ("minus", np.int64), ("normal", np.float64, (2,))], align=True)


def _next(a: np.ndarray) -> np.ndarray:
    """Stacked polygon data (E, k, ...) with the vertex axis advanced by one:
    row i holds the entry of vertex i + 1 (cyclically)."""
    return np.concatenate([a[:, 1:], a[:, :1]], axis=1)


def _length_groups(sizes: np.ndarray):
    """Group polygons by vertex count.

    Yields, per count k, the polygon ids (E,) and the positions (E, k) of
    their vertices in the concatenation of all loops, so that each group's
    geometry is one set of (E, k, ...) array operations.
    """
    starts = np.cumsum(sizes) - sizes
    for k in np.unique(sizes):
        ids = np.flatnonzero(sizes == k)
        yield ids, starts[ids][:, None] + np.arange(k)


def _shoelace(pts: np.ndarray):
    """Signed areas (E,) and area centroids (E, 2) of polygons (E, k, 2).

    Each polygon's sums run over one contiguous row, so the results do not
    depend on how many polygons are stacked.  Degenerate polygons get a
    non-finite centroid; callers reject them by their area.
    """
    x, y = pts[:, :, 0], pts[:, :, 1]
    xn, yn = _next(x), _next(y)
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cx = np.sum((x + xn) * cross, axis=1) / (6.0 * area)
        cy = np.sum((y + yn) * cross, axis=1) / (6.0 * area)
    return area, np.column_stack([cx, cy])


def _diameters(pts: np.ndarray) -> np.ndarray:
    diff = pts[:, :, None, :] - pts[:, None, :, :]
    return np.sqrt((diff ** 2).sum(-1)).max(axis=(1, 2))


def _fan_cross_products(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Cross products of consecutive (v_i - c, v_{i+1} - c) pairs, (E, k).

    All strictly positive iff the centroid fan is a valid (counter-clockwise,
    non-overlapping) triangulation, i.e. the polygon is star-shaped with
    respect to its row of ``centers``.
    """
    d = pts - centers[:, None, :]
    dn = _next(d)
    return d[:, :, 0] * dn[:, :, 1] - d[:, :, 1] * dn[:, :, 0]


def _orient(a, b, c):
    return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
            - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))


def _self_intersecting(pts: np.ndarray) -> np.ndarray:
    """Per polygon of (E, k, 2): True when two non-adjacent edges cross."""
    k = pts.shape[1]
    i, j = np.triu_indices(k, 2)
    keep = j - i != k - 1
    i, j = i[keep], j[keep]
    out = np.zeros(len(pts), dtype=bool)
    # bound the (rows, pairs, 2) temporaries for polygons with many vertices
    step = max(1, (1 << 16) // max(len(i), 1))
    for s in range(0, len(pts), step):
        p = pts[s:s + step]
        pn = _next(p)
        p1, p2, q1, q2 = p[:, i], pn[:, i], p[:, j], pn[:, j]
        d1, d2 = _orient(q1, q2, p1), _orient(q1, q2, p2)
        d3, d4 = _orient(p1, p2, q1), _orient(p1, p2, q2)
        out[s:s + step] = np.any(((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)), axis=1)
    return out


class PolyMesh:
    """Immutable polygonal mesh: vertices, CCW element loops, classified faces.

    Attributes
    ----------
    vertices : (nv, 2) float array
    elements : tuple of int arrays, each a CCW vertex-index loop
    faces : read-only (nf,) record array of FACE_DTYPE (fields ``ends``,
        ``kind``, ``plus``, ``minus``, ``normal``; see the module docstring)
    element_areas, element_centroids, element_diameters : per-element metrics
    mesh_size : h = max over element diameters
    merge_warning : True when agglomeration stopped before its target
    """

    def __init__(self, vertices, elements, boundary_kinds=None, merge_warning=False):
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if not np.all(np.isfinite(vertices)):
            raise MeshError("vertex coordinates must be finite")
        loops = [np.asarray(loop, dtype=np.int64) for loop in elements]
        if not loops:
            raise MeshError("mesh has no elements")
        sizes = np.array([arr.size for arr in loops], dtype=np.int64)
        if np.any(sizes < 3):
            raise MeshError("element loops need at least 3 vertices")
        flat = np.concatenate(loops)
        if flat.min() < 0 or flat.max() >= len(vertices):
            raise MeshError("element loop references a missing vertex")

        n = len(loops)
        areas, centroids, diameters = np.empty(n), np.empty((n, 2)), np.empty(n)
        for ids, pos in _length_groups(sizes):
            group = flat[pos]
            ordered = np.sort(group, axis=1)
            if np.any(ordered[:, 1:] == ordered[:, :-1]):
                raise MeshError("element loop repeats a vertex (non-simple polygon)")
            pts = vertices[group]
            area, centroid = _shoelace(pts)
            if np.any(area <= 0.0):
                raise MeshError("element polygon is not counter-clockwise or degenerate")
            if np.any(_self_intersecting(pts)):
                raise MeshError("element polygon is self-intersecting")
            areas[ids], centroids[ids], diameters[ids] = area, centroid, _diameters(pts)

        for arr in loops:
            arr.setflags(write=False)
        self.vertices = vertices
        self.vertices.setflags(write=False)
        self.elements = tuple(loops)
        self.merge_warning = bool(merge_warning)
        self.element_areas = areas
        self.element_centroids = centroids
        self.element_diameters = diameters
        for arr in (self.element_areas, self.element_centroids, self.element_diameters):
            arr.setflags(write=False)
        self.mesh_size = float(self.element_diameters.max())
        self.total_area = float(self.element_areas.sum())

        self.faces = self._build_faces(flat, sizes, boundary_kinds or {})

    # -- construction ------------------------------------------------------

    def _build_faces(self, flat, sizes, boundary_kinds):
        # First traversal of a directed edge defines the plus side; the CCW
        # partner element traverses the same segment in reverse.  Faces are
        # numbered in the order of their first traversal.
        nv = len(self.vertices)
        ends = np.cumsum(sizes)
        nxt = np.arange(1, flat.size + 1)
        nxt[ends - 1] = ends - sizes
        a, b = flat, flat[nxt]
        owner = np.repeat(np.arange(len(sizes)), sizes)
        directed = a * nv + b
        order = np.argsort(directed)
        keys = directed[order]
        if np.any(keys[1:] == keys[:-1]):
            raise MeshError("directed edge appears twice; elements overlap")
        _, first = np.unique(np.minimum(a, b) * nv + np.maximum(a, b), return_index=True)
        first.sort()
        a, b, plus = a[first], b[first], owner[first]
        reverse = b * nv + a
        at = np.minimum(np.searchsorted(keys, reverse), len(keys) - 1)
        minus = np.where(keys[at] == reverse, owner[order[at]], -1)

        d = self.vertices[b] - self.vertices[a]
        length = np.hypot(d[:, 0], d[:, 1])
        if np.any(length <= 0.0):
            raise MeshError("zero-length face")

        faces = np.empty(len(a), dtype=FACE_DTYPE)
        faces["ends"] = np.column_stack([a, b])
        faces["plus"], faces["minus"] = plus, minus
        faces["normal"] = np.column_stack([d[:, 1], -d[:, 0]]) / length[:, None]
        faces["kind"] = FaceKind.INTERIOR
        for i in np.flatnonzero(minus < 0):
            fa, fb = int(a[i]), int(b[i])
            faces["kind"][i] = boundary_kinds.get(
                (fa, fb), boundary_kinds.get((fb, fa), FaceKind.DIRICHLET))
        faces.setflags(write=False)
        return faces

    # -- queries -----------------------------------------------------------

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def element_points(self, e: int) -> np.ndarray:
        return self.vertices[self.elements[e]]

    def __repr__(self):
        nb = np.count_nonzero(self.faces["minus"] < 0)
        return (f"PolyMesh({self.n_elements} elements, {len(self.faces)} faces "
                f"({nb} boundary), h={self.mesh_size:.4g})")


def build_cartesian_mesh(nx: int, ny: int) -> PolyMesh:
    """Tile the unit square with nx*ny quadrilateral elements.

    All boundary faces start out Dirichlet; use classify_boundary to tag a
    Neumann part.
    """
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be >= 1")

    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    xv, yv = np.meshgrid(xs, ys, indexing="ij")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    # cell (i, j) has lower-left vertex i * (ny + 1) + j; cells are i-major
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    v = (i * (ny + 1) + j).ravel()
    return PolyMesh(vertices, np.column_stack([v, v + ny + 1, v + ny + 2, v + 1]))


def classify_boundary(mesh: PolyMesh, neumann_predicate) -> PolyMesh:
    """Retag boundary faces: Neumann where the predicate holds at the face
    midpoint, Dirichlet elsewhere.  Interior faces are untouched."""
    faces = mesh.faces.copy()
    boundary = np.flatnonzero(faces["minus"] < 0)
    ends = mesh.vertices[faces["ends"][boundary]]
    for i, mid in zip(boundary, 0.5 * (ends[:, 0] + ends[:, 1])):
        faces["kind"][i] = FaceKind.NEUMANN if neumann_predicate(mid) else FaceKind.DIRICHLET
    faces.setflags(write=False)
    out = copy.copy(mesh)  # same elements and geometry
    out.faces = faces
    return out


# -- agglomeration ---------------------------------------------------------

def _merge_loops(loop_a, loop_b):
    """Union of two CCW loops sharing at least one full edge.

    Returns the merged loop as a list, starting at the first vertex of
    ``loop_a`` whose outgoing edge is not shared, or None when the union
    would not be a simple polygon (pinched vertex, enclosed hole, ...).
    """
    succ_a = dict(zip(loop_a, loop_a[1:] + loop_a[:1]))
    succ_b = dict(zip(loop_b, loop_b[1:] + loop_b[:1]))
    # a shared segment is traversed in opposite directions by the two loops
    succ = {u: v for u, v in succ_a.items() if succ_b.get(v) != u}
    if len(succ) == len(succ_a):
        return None
    for u, v in succ_b.items():
        if succ_a.get(v) == u:
            continue
        if u in succ:
            return None  # vertex with two outgoing edges: pinched union
        succ[u] = v
    if not succ:
        return None
    start = next(iter(succ))
    merged = [start]
    cur = succ[start]
    while cur != start:
        merged.append(cur)
        cur = succ.get(cur)
        if cur is None or len(merged) > len(succ):
            return None
    if len(merged) != len(succ):
        return None  # leftover edges form a second loop (hole)
    return merged


def _pairwise_sum(a: list) -> float:
    """Sum of the floats in ``a`` in the order of numpy's pairwise float
    summation (eight interleaved partial sums in blocks of at most 128
    terms), so that it has the bits of ``np.sum`` over one contiguous row."""
    n = len(a)
    if n < 8:
        res = -0.0
        for v in a:
            res += v
        return res
    if n <= 128:
        r = list(a[:8])
        stop = n - n % 8
        for i in range(8, stop, 8):
            for j in range(8):
                r[j] += a[i + j]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in a[stop:]:
            res += v
        return res
    half = n // 2
    half -= half % 8
    return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])


def _merge_is_legal(vertices, loop) -> bool:
    """True when the polygon ``loop`` (vertex ids into the (x, y) rows of
    ``vertices``) has positive area and is star-shaped with respect to its
    centroid, so that the centroid-fan quadrature of the DG space stays
    valid.  Scalar arithmetic with the operations and summation order of
    ``_shoelace`` and ``_fan_cross_products`` on one polygon, so every
    decision matches the batched geometry bit for bit.  Left-to-right sums
    in place of ``_pairwise_sum`` change one merge of the 120x120 -> 3600
    family (mesh seed 1), the only change in 146 (nx, target, seed) families
    swept: the emulation keeps the pinned mesh family and 3600-element rung."""
    pts = [vertices[v] for v in loop]
    x = [p[0] for p in pts]
    y = [p[1] for p in pts]
    xn, yn = x[1:] + x[:1], y[1:] + y[:1]
    cross = [a * d - c * b for a, b, c, d in zip(x, y, xn, yn)]
    area = 0.5 * _pairwise_sum(cross)
    if area <= 0.0:
        return False
    cx = _pairwise_sum([(a + c) * w for a, c, w in zip(x, xn, cross)]) / (6.0 * area)
    cy = _pairwise_sum([(b + d) * w for b, d, w in zip(y, yn, cross)]) / (6.0 * area)
    dx = [a - cx for a in x]
    dy = [b - cy for b in y]
    floor = 1e-12 * area
    return all(a * d - b * c > floor
               for a, b, c, d in zip(dx, dy, dx[1:] + dx[:1], dy[1:] + dy[:1]))


def agglomerate(mesh: PolyMesh, target_elements: int, rng_seed: int) -> PolyMesh:
    """Merge neighbouring elements pairwise until ``target_elements`` remain.

    Each merge draws a seeded permutation of the live elements and takes the
    first of them, in that order, with a legal merge among its neighbours
    (themselves tried in a seeded order); merges that would create a
    non-simple or non-star-shaped polygon are skipped.  If no legal merge
    remains before the target is reached, the current mesh is returned
    with ``merge_warning`` set.  Deterministic for a fixed seed.
    """
    if not 1 <= target_elements <= mesh.n_elements:
        raise ValueError("target_elements must be in [1, n_elements]")
    if target_elements == mesh.n_elements:
        return mesh

    rng = np.random.default_rng(rng_seed)
    coords = mesh.vertices.tolist()
    loops = [loop.tolist() for loop in mesh.elements]
    # elements sharing a face, kept up to date across merges
    neighbours = [set() for _ in loops]
    for e, j in zip(mesh.faces["plus"].tolist(), mesh.faces["minus"].tolist()):
        if j >= 0:
            neighbours[e].add(j)
            neighbours[j].add(e)
    alive = np.ones(mesh.n_elements, dtype=bool)

    n_alive = mesh.n_elements
    stalled = False
    while n_alive > target_elements:
        merged = None
        # live ids in increasing order: the seeded draw depends on this order
        for e in rng.permutation(np.flatnonzero(alive)):
            e = int(e)
            if not neighbours[e]:
                continue
            for j in rng.permutation(sorted(neighbours[e])):
                j = int(j)
                merged = _merge_loops(loops[e], loops[j])
                if merged is not None and _merge_is_legal(coords, merged):
                    break
                merged = None
            if merged is not None:
                break
        if merged is None:
            stalled = True
            break
        keep, gone = min(e, j), max(e, j)
        loops[keep], loops[gone] = merged, None
        alive[gone] = False
        for other in neighbours[gone] - {keep}:
            neighbours[other].discard(gone)
            neighbours[other].add(keep)
        neighbours[keep] |= neighbours[gone]
        neighbours[keep] -= {keep, gone}
        neighbours[gone] = set()
        n_alive -= 1

    boundary = mesh.faces[mesh.faces["minus"] < 0]
    tags = dict(zip(map(tuple, boundary["ends"].tolist()), boundary["kind"].tolist()))
    out = PolyMesh(mesh.vertices, [loop for loop in loops if loop is not None],
                   boundary_kinds=tags, merge_warning=stalled)
    if abs(out.total_area - mesh.total_area) > 1e-12 * mesh.total_area:
        raise MeshError("agglomeration failed to conserve total area")
    return out


# -- plain-text mesh files -------------------------------------------------

def write_mesh(mesh: PolyMesh, path) -> None:
    """Write the plain-text format: header ``NV NE``, NV vertex lines
    ``x y``, NE element lines ``k i1 ... ik`` (0-based vertex loops), then
    one tag line ``a b D|N`` per boundary face."""
    with open(path, "w") as fh:
        fh.write(f"{mesh.n_vertices} {mesh.n_elements}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for loop in mesh.elements:
            fh.write(" ".join([str(len(loop))] + [str(int(v)) for v in loop]) + "\n")
        boundary = mesh.faces[mesh.faces["minus"] < 0]
        for (a, b), kind in zip(boundary["ends"].tolist(), boundary["kind"].tolist()):
            fh.write(f"{a} {b} {'N' if kind == FaceKind.NEUMANN else 'D'}\n")


def read_mesh(path) -> PolyMesh:
    """Read the plain-text format written by write_mesh.

    Boundary-tag lines are optional; untagged boundary faces default to
    Dirichlet.  A tag line that names no boundary face is an error, and so
    is any malformed line, named by its line number.  Vertex indices are
    0-based.
    """
    with open(path) as fh:
        lines = [(no, line.split()) for no, line in enumerate(fh, 1) if line.strip()]
    if not lines:
        raise MeshError(f"empty mesh file: {path}")

    def fields(what, no, tokens, kinds):
        """The tokens of one line, each converted by its entry of ``kinds``."""
        if len(tokens) == len(kinds):
            try:
                return [kind(t) for kind, t in zip(kinds, tokens)]
            except (ValueError, KeyError):
                pass
        raise MeshError(f"bad {what} line {no} in {path}: {' '.join(tokens)}")

    def vertex(token):
        v = int(token)
        if not 0 <= v < nv:
            raise ValueError("no such vertex")
        return v

    nv, ne = fields("header", *lines[0], (int, int))
    if nv < 0 or ne < 0:
        raise MeshError(f"bad header line {lines[0][0]} in {path}: negative count")
    if len(lines) < 1 + nv + ne:
        raise MeshError(f"truncated mesh file: {path}")
    vertices = np.array([fields("vertex", no, t, (float, float))
                         for no, t in lines[1:1 + nv]]).reshape(nv, 2)
    loops = []
    for no, t in lines[1 + nv:1 + nv + ne]:
        k, *loop = fields("element", no, t, (int,) + (vertex,) * (len(t) - 1))
        if len(loop) != k:
            raise MeshError(f"bad element line {no} in {path}: "
                            f"{k} vertices announced, {len(loop)} given")
        loops.append(loop)
    tag_kinds = {"D": FaceKind.DIRICHLET, "N": FaceKind.NEUMANN}
    tags = {}
    for no, t in lines[1 + nv + ne:]:
        a, b, kind = fields("boundary tag", no, t, (int, int, tag_kinds.__getitem__))
        tags[(a, b)] = kind
    mesh = PolyMesh(vertices, loops, boundary_kinds=tags)
    boundary = set(map(tuple, mesh.faces["ends"][mesh.faces["minus"] < 0].tolist()))
    for a, b in tags:
        if (a, b) not in boundary and (b, a) not in boundary:
            raise MeshError(f"boundary tag line {a} {b} names no boundary face")
    return mesh
