import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from polystress import PolyMesh, build_cartesian_mesh, build_space, l2_project
from polystress.dg_space import COMPONENTS, face_rules, polygon_rules, triangle_rule

import assembly_oracle as oracle


def polygon_rule(polygon, degree):
    """Points and weights of the rule on one polygon."""
    batch, = polygon_rules([polygon], degree)
    return batch.points[0], batch.weights[0]


def polygon_monomial_integral(polygon, a, b):
    """Independent oracle: exact integral of x^a y^b over a polygon via
    Green's theorem, with edge integrals done by explicit polynomial
    coefficient arithmetic."""
    total = 0.0
    k = len(polygon)
    for i in range(k):
        (x0, y0), (x1, y1) = polygon[i], polygon[(i + 1) % k]
        dx, dy = x1 - x0, y1 - y0
        # x(t)^{a+1} * y(t)^b * dy, a polynomial in t on [0, 1]
        px = npp.polypow([x0, dx], a + 1)
        py = npp.polypow([y0, dy], b) if b else np.array([1.0])
        coef = npp.polymul(px, py) * dy
        total += npp.polyval(1.0, npp.polyint(coef))
    return total / (a + 1)


L_SHAPE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5],
                    [0.5, 0.5], [0.5, 1.0], [0.0, 1.0]])


def test_triangle_rule_exactness():
    for deg in (1, 3, 7, 11):
        pts, w = triangle_rule(deg)
        assert np.all(w > 0) and not (pts.flags.writeable or w.flags.writeable)
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                got = w @ (pts[:, 0] ** a * pts[:, 1] ** b)
                assert got == pytest.approx(exact, rel=1e-12, abs=1e-15)


def test_element_quadrature_unit_square():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    pts, w = polygon_rule(square, 7)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    x, y = pts[:, 0], pts[:, 1]
    assert w @ (x ** 2 * y ** 2) == pytest.approx(1.0 / 9.0, rel=1e-12)


def test_element_quadrature_l_shape_area():
    _, w = polygon_rule(L_SHAPE, 5)
    assert w.sum() == pytest.approx(0.75, rel=1e-12)
    assert np.all(w > 0)


@pytest.mark.parametrize("degree", [3, 7])
def test_element_quadrature_monomial_exactness(degree):
    hexagon = np.array([[0.2, 0.0], [1.1, 0.1], [1.4, 0.8],
                        [0.8, 1.3], [0.1, 1.0], [-0.2, 0.4]])
    for polygon in (L_SHAPE, hexagon):
        pts, w = polygon_rule(polygon, degree)
        x, y = pts[:, 0], pts[:, 1]
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                exact = polygon_monomial_integral(polygon, a, b)
                assert w @ (x ** a * y ** b) == pytest.approx(
                    exact, rel=1e-12, abs=1e-14)


def test_element_quadrature_rejects_degenerate():
    with pytest.raises(ValueError):
        polygon_rule(np.array([[0.0, 0.0], [1.0, 0.0]]), 3)


def test_face_quadrature_examples():
    pts, w = face_rules([(0.0, 0.0), (0.0, 0.0)], [(1.0, 0.0), (0.0, 0.5)], 7)
    assert w[0].sum() == pytest.approx(1.0, abs=1e-14)
    assert w[0] @ pts[0, :, 0] ** 3 == pytest.approx(0.25, rel=1e-12)
    assert w[1] @ pts[1, :, 1] == pytest.approx(0.125, rel=1e-12)
    with pytest.raises(ValueError):
        face_rules((0.0, 0.0), (0.0, 0.0), 3)


def test_local_dimensions():
    mesh = build_cartesian_mesh(2, 2)
    assert build_space(mesh, 3).local_dim == 10
    assert build_space(mesh, 1).local_dim == 3
    space = build_space(mesh, 2)
    assert space.local_dim == (2 + 1) * (2 + 2) // 2
    assert space.scalar_dofs == space.local_dim * 4
    assert space.total_dofs == 4 * space.scalar_dofs
    with pytest.raises(ValueError):
        build_space(mesh, 0)


def test_dof_layout_component_major():
    """Dof c * scalar_dofs + e * local_dim + i is mode i of component c on
    element e: a constant in one component projects onto mode 0 of that
    component on every element (the basis is orthonormal on rectangles)."""
    space = build_space(build_cartesian_mesh(2, 2), 1)
    L, S = space.local_dim, space.scalar_dofs
    for c in range(4):
        dofs = l2_project(space, tensor_field(lambda x, y, k: float(k == c)))
        assert np.array_equal(np.flatnonzero(np.abs(dofs) > 1e-12),
                              c * S + L * np.arange(space.n_elements))


def test_gram_identity_on_rectangles():
    # bounding box == element, so the scaled Legendre basis is orthonormal
    mesh = build_cartesian_mesh(1, 1)
    space = build_space(mesh, 2)
    pts, w = oracle.element_rules(space)[0]
    phi = oracle.basis_values(space, 0, pts)
    gram = phi.T @ (w[:, None] * phi)
    assert np.abs(gram - np.eye(space.local_dim)).max() < 1e-12

    unit = build_cartesian_mesh(3, 2)
    mesh = PolyMesh(unit.vertices * [2.0, 1.0], unit.elements)
    space = build_space(mesh, 3)
    for e, (pts, w) in enumerate(oracle.element_rules(space)):
        phi = oracle.basis_values(space, e, pts)
        gram = phi.T @ (w[:, None] * phi)
        assert np.abs(gram - np.eye(space.local_dim)).max() < 1e-10


def test_gram_spd_on_polygons(poly_mesh):
    space = build_space(poly_mesh, 2)
    for e, (pts, w) in enumerate(oracle.element_rules(space)):
        phi = oracle.basis_values(space, e, pts)
        gram = phi.T @ (w[:, None] * phi)
        ev = np.linalg.eigvalsh(gram)
        assert ev[0] > 0
        # gram_solve inverts it
        rhs = np.arange(1.0, space.local_dim + 1)
        assert np.allclose(gram @ oracle.gram_solve(space, e, rhs), rhs, rtol=1e-10)


def test_basis_gradient_matches_finite_differences(poly_mesh, rng):
    space = build_space(poly_mesh, 3)
    eps = 1e-7
    for e in range(space.n_elements):
        c = poly_mesh.element_centroids[e]
        pts = c[None, :] + 0.05 * poly_mesh.element_diameters[e] * (
            rng.uniform(-1, 1, size=(5, 2)))
        grad = oracle.basis_gradients(space, e, pts)
        fdx = (oracle.basis_values(space, e, pts + [eps, 0.0])
               - oracle.basis_values(space, e, pts - [eps, 0.0])) / (2 * eps)
        fdy = (oracle.basis_values(space, e, pts + [0.0, eps])
               - oracle.basis_values(space, e, pts - [0.0, eps])) / (2 * eps)
        scale = np.abs(grad).max()
        assert np.abs(grad[:, :, 0] - fdx).max() < 1e-6 * max(scale, 1.0)
        assert np.abs(grad[:, :, 1] - fdy).max() < 1e-6 * max(scale, 1.0)


def tensor_field(fn):
    def field(x, y):
        out = np.empty((np.size(x), 2, 2))
        for c, (r, d) in enumerate(COMPONENTS):
            out[:, r, d] = fn(x, y, c)
        return out
    return field


def test_l2_project_zero(poly_mesh):
    space = build_space(poly_mesh, 2)
    dofs = l2_project(space, tensor_field(lambda x, y, c: np.zeros_like(x)))
    assert np.all(dofs == 0.0)


def test_l2_project_reproduces_polynomials(poly_mesh):
    space = build_space(poly_mesh, 2)
    field = tensor_field(lambda x, y, c: 1.0 + c * x + x * y - y ** 2)
    dofs = l2_project(space, field)
    for e in range(space.n_elements):
        pts, _ = oracle.element_rules(space)[e]
        vals = oracle.eval_field(space, dofs, e, pts)
        assert np.abs(vals - field(pts[:, 0], pts[:, 1])).max() < 1e-10


def projection_l2_error(space, field):
    """Oracle: elementwise L2 error of the projection on a fine rule."""
    dofs = l2_project(space, field)
    total = 0.0
    for e in range(space.n_elements):
        pts, w = polygon_rule(space.mesh.element_points(e), 2 * (space.degree + 2) + 1)
        diff = oracle.eval_field(space, dofs, e, pts) - field(pts[:, 0], pts[:, 1])
        total += w @ (diff ** 2).sum(axis=(1, 2))
    return np.sqrt(total)


def test_l2_projection_convergence_rate():
    field = tensor_field(lambda x, y, c: np.sin(np.pi * x) * (1.0 if c in (0, 3) else 0.0))
    errs = []
    for nx in (2, 4):
        space = build_space(build_cartesian_mesh(nx, nx), 3)
        errs.append(projection_l2_error(space, field))
    slope = np.log(errs[0] / errs[1]) / np.log(2.0)
    assert slope >= 3.8


def test_eval_divergence(poly_mesh):
    space = build_space(poly_mesh, 2)
    # sigma = [[x^2, x y], [y, x + y^2]]: div = (2x + x, 0 + 2y) = (3x, 2y)
    comps = {0: lambda x, y: x ** 2, 1: lambda x, y: x * y,
             2: lambda x, y: y, 3: lambda x, y: x + y ** 2}
    dofs = l2_project(space, tensor_field(lambda x, y, c: comps[c](x, y)))
    for e in range(space.n_elements):
        pts, _ = oracle.element_rules(space)[e]
        div = oracle.eval_divergence(space, dofs, e, pts)
        assert np.abs(div[:, 0] - 3 * pts[:, 0]).max() < 1e-9
        assert np.abs(div[:, 1] - 2 * pts[:, 1]).max() < 1e-9


def test_quadrature_rejects_non_star_shaped():
    # a U-shape is not star-shaped w.r.t. its centroid
    u_shape = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 2.0], [2.0, 2.0],
                        [2.0, 0.5], [1.0, 0.5], [1.0, 2.0], [0.0, 2.0]])
    with pytest.raises(ValueError):
        polygon_rule(u_shape, 3)


def test_quadrature_drops_collinear_fan_triangles():
    # rectangle with a hanging mid-edge vertex collinear with two corners
    poly = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    _, w = polygon_rule(poly, 5)
    assert np.all(w > 0)
    assert w.sum() == pytest.approx(1.0, rel=1e-12)
