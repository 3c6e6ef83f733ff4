import collections
import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sparse
import sympy as sp
from scipy.io import mmread

import polystress as ps
from polystress import (FaceKind, assemble_mass, assemble_rhs,
                        assemble_stiffness, assemble_system, build_space,
                        build_system, classify_boundary, build_cartesian_mesh,
                        l2_project)
from polystress.assembly import K_SPEC, finalize, functional_vector, load_terms
from polystress.dg_space import DGSpace, face_batch, face_rules, polygon_rules
from polystress.problems import (linear_in_space_solution, manufacture, trig_solution,
                                 zero_data)

import assembly_oracle as oracle

X, Y, T = sp.symbols("x y t")


@pytest.fixture(scope="module")
def sys22(mesh22):
    space = build_space(mesh22, 1)
    return space, assemble_system(space, mu=1.0, alpha=10.0)


@pytest.fixture(scope="module")
def sys_poly(poly_mesh):
    space = build_space(poly_mesh, 2)
    return space, assemble_system(space, mu=1.0, alpha=10.0)


def test_penalty_formula(poly_mesh):
    """The batched face penalties, alpha times the unscaled gamma of
    ``face_batch``, against the oracle's scalar formula, on every interior
    and Neumann face."""
    space = build_space(poly_mesh, 3)
    for kind in (FaceKind.INTERIOR, FaceKind.NEUMANN):
        faces = [f for f in poly_mesh.faces if f["kind"] == kind]
        gamma = face_batch(space, kind, space.quad_degree).gamma
        assert len(faces) and len(gamma) == len(faces)
        assert np.array_equal(10.0 * gamma,
                              [oracle.penalty(f, 10.0, 3, poly_mesh) for f in faces])
        assert not (0.0 * gamma).any()


def test_deviatoric_factor_matches_display():
    assert oracle.deviatoric_factor().tobytes() == K_SPEC.tobytes()


def test_mass_on_cartesian_is_identity(sys22):
    space, system = sys22
    m1 = system.m1.toarray()
    assert np.abs(m1 - np.eye(space.scalar_dofs)).max() < 1e-10


def test_mass_requires_positive_viscosity(sys22):
    space, _ = sys22
    with pytest.raises(ValueError):
        assemble_mass(space, 0.0)


def test_mass_kernel_direction(sys22, rng):
    space, system = sys22
    w = rng.standard_normal(space.scalar_dofs)
    v = np.zeros(space.total_dofs)
    v[: space.scalar_dofs] = w / np.sqrt(2.0)
    v[3 * space.scalar_dofs:] = w / np.sqrt(2.0)
    assert np.abs(system.m @ v).max() < 1e-12


def test_monomial_gram_on_unit_square():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    batch, = polygon_rules([square], 5)
    pts, w = batch.points[0], batch.weights[0]
    basis = np.stack([np.ones(len(pts)), pts[:, 0], pts[:, 1]], axis=1)
    gram = basis.T @ (w[:, None] * basis)
    ref = np.array([[1.0, 0.5, 0.5], [0.5, 1 / 3, 0.25], [0.5, 0.25, 1 / 3]])
    assert np.abs(gram - ref).max() < 1e-13


def test_stiffness_symmetry(sys_poly):
    _, system = sys_poly
    a = system.a
    asym = np.abs((a - a.T).data).max() if (a - a.T).nnz else 0.0
    assert asym <= 1e-12 * np.abs(a.data).max()


def test_stiffness_spectrum(sys22):
    # A is PSD with a nontrivial kernel of row-wise divergence-free fields
    # with continuous normal trace; A* = M + dt A is SPD (dense oracle).
    _, system = sys22
    ev_a = sla.eigvalsh(system.a.toarray())
    assert ev_a[0] > -1e-10 * ev_a[-1]
    astar = build_system(system.m, system.a, 1e-3)
    assert sla.eigvalsh(astar.toarray())[0] > 0.0


def test_stiffness_kernel_contains_stream_field(mesh22):
    # curl of the center-vertex hat function: divergence-free, continuous
    # normal trace, zero trace on the boundary, so A annihilates it
    space = build_space(mesh22, 1)
    _, _, _, a = assemble_stiffness(space, alpha=10.0)

    def field(x, y):
        out = np.zeros((np.size(x), 2, 2))
        hx = np.where(x < 0.5, 4 * x, 4 * (1 - x))
        hy = np.where(y < 0.5, 4 * y, 4 * (1 - y))
        sx = np.where(x < 0.5, 4.0, -4.0)
        sy = np.where(y < 0.5, 4.0, -4.0)
        out[:, 0, 0] = hx * sy       # d/dy of hat
        out[:, 0, 1] = -hy * sx      # -d/dx of hat
        return out

    dofs = l2_project(space, field)
    resid = a @ dofs
    assert np.abs(resid).max() < 1e-10 * np.abs(a.data).max()


def test_mass_kernel_dimension(sys22):
    space, system = sys22
    ev = sla.eigvalsh(system.m.toarray())
    assert int(np.sum(np.abs(ev) < 1e-10)) == space.scalar_dofs


def test_constant_tensor_in_kernel_all_dirichlet():
    mesh = classify_boundary(build_cartesian_mesh(2, 2), lambda p: False)
    space = build_space(mesh, 1)
    _, _, _, a = assemble_stiffness(space, alpha=10.0)

    def identity_field(x, y):
        out = np.zeros((np.size(x), 2, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = 1.0
        return out

    dofs = l2_project(space, identity_field)
    assert np.abs(a @ dofs).max() < 1e-10


def test_one_sided_consistency_breaks_symmetry(mesh22):
    """Negative control: dropping one of the two consistency terms must
    destroy the symmetry that the full form has by construction."""
    space = build_space(mesh22, 1)
    n = space.total_dofs
    rows, cols, vals = [], [], []
    from polystress.dg_space import COMPONENTS
    for face in mesh22.faces:
        if face["kind"] != FaceKind.INTERIOR:
            continue
        pts, w = oracle.face_rule(mesh22, face, space.quad_degree)
        elems = [face["plus"], face["minus"]]
        signs = [1.0, -1.0]
        L, S = space.local_dim, space.scalar_dofs
        for c, (r, d) in enumerate(COMPONENTS):
            for st, et in enumerate(elems):       # test side (jump)
                for sj, ej in enumerate(elems):   # trial side (avg divergence)
                    phi_t = oracle.basis_values(space, et, pts)
                    grad_j = oracle.basis_gradients(space, ej, pts)
                    blk = -np.einsum("q,qi,qj->ij", w,
                                     phi_t * face["normal"][d] * signs[st],
                                     0.5 * grad_j[:, :, d])
                    gi = c * S + et * L + np.arange(L)
                    gj = c * S + ej * L + np.arange(L)
                    rows.append(np.repeat(gi, L))
                    cols.append(np.tile(gj, L))
                    vals.append(blk.ravel())
    one_sided = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    asym = np.abs((one_sided - one_sided.T).data).max()
    assert asym > 1e-6 * np.abs(one_sided.data).max()


def test_kron_structure_check(sys_poly):
    space, system = sys_poly
    system = oracle.with_oracle_tensors(system, space)
    dev_m, dev_a = oracle.kron_structure_check(system)
    assert dev_m <= 1e-12 * np.abs(system.m.data).max()
    assert dev_a <= 1e-12 * np.abs(system.a.data).max()


def test_kron_structure_check_detects_perturbation(sys22):
    _, system = sys22
    perturbed = system.m.copy().tolil()
    perturbed[0, 0] += 1e-6
    import dataclasses
    poke = dataclasses.replace(system, m=perturbed.tocsr())
    dev_m, _ = oracle.kron_structure_check(poke)
    assert dev_m == pytest.approx(1e-6, rel=1e-6)


@pytest.mark.parametrize("p", [1, 3])
def test_kron_structure_all_degrees(mesh22, p):
    space = build_space(mesh22, p)
    system = oracle.with_oracle_tensors(assemble_system(space, mu=2.0, alpha=10.0), space)
    dev_m, dev_a = oracle.kron_structure_check(system)
    assert dev_m <= 1e-12 * np.abs(system.m.data).max()
    assert dev_a <= 1e-12 * np.abs(system.a.data).max()


def test_build_system_validation(sys22):
    _, system = sys22
    with pytest.raises(ValueError):
        build_system(system.m, system.a, 0.0)
    with pytest.raises(ValueError):
        build_system(system.m, system.a[:4, :4], 1e-3)
    astar = build_system(system.m, system.a, 1e-4)
    asym = (astar - astar.T)
    assert (np.abs(asym.data).max() if asym.nnz else 0.0) <= 1e-12 * np.abs(astar.data).max()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_build_system_rejects_non_finite_dt(sys22, bad):
    """A NaN or infinite dt is named, not spread over every entry of A*."""
    _, system = sys22
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        build_system(system.m, system.a, bad)


def test_condition_number_scales_inversely_with_dt(sys22):
    _, system = sys22
    kappas = []
    for dt in (1e-7, 1e-8):
        ev = sla.eigvalsh(build_system(system.m, system.a, dt).toarray())
        kappas.append(ev[-1] / ev[0])
    assert 8.0 <= kappas[1] / kappas[0] <= 12.0


def test_rhs_zero_data(sys22):
    space, system = sys22
    zero = zero_data()
    f = assemble_rhs(space, zero, 0.1, np.zeros(space.total_dofs), 1e-2, system)
    assert np.all(f == 0.0)
    prev = np.arange(space.total_dofs, dtype=float)
    f = assemble_rhs(space, zero, 0.1, prev, 1e-2, system)
    assert np.allclose(f, system.m @ prev)


def test_rhs_manufactured_consistency(mesh33):
    """Projected steady polynomial field is a fixed point of one implicit
    Euler step up to solver tolerance (consistency of rhs + operators)."""
    mms = oracle.steady_polynomial_solution(2)
    space = build_space(mesh33, 2)
    system = assemble_system(space, mms.data.mu, 10.0)
    dt = 1e-2
    astar = build_system(system.m, system.a, dt)
    exact = l2_project(space, lambda x, y: mms.sigma(x, y, 0.0))
    rhs = assemble_rhs(space, mms.data, dt, exact, dt, system)
    resid = astar @ exact - rhs
    assert np.abs(resid).max() < 1e-10 * np.abs(rhs).max()


def test_finalize_drops_small_entries():
    a = sparse.csr_matrix(np.array([[1.0, 1e-20], [0.0, 2.0]]))
    out = finalize(a)
    assert out.nnz == 2


def test_finalize_leaves_its_argument_untouched():
    """A CSR argument is its own ``tocsr()``: finalize sums its duplicates
    in a copy."""
    a = sparse.csr_matrix((np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 0, 0, 1]),
                           np.array([0, 2, 4])), shape=(2, 2))
    arrays = [x.copy() for x in (a.data, a.indices, a.indptr)]
    out = finalize(a)
    assert out.nnz == 3 and out.toarray().tolist() == [[3.0, 0.0], [3.0, 4.0]]
    assert a.nnz == 4
    assert all(np.array_equal(x, y) for x, y in zip((a.data, a.indices, a.indptr), arrays))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_finalize_keeps_nonfinite_rows_whole(bad):
    dense = np.array([[1.0, 1e-20, 0.0], [bad, 1e-30, 2.0], [1e-30, 0.0, 3.0]])
    out = finalize(sparse.csr_matrix(dense))
    assert out.indptr.tolist() == [0, 1, 4, 5]
    assert out.indices.tolist() == [0, 0, 1, 2, 2]
    assert np.array_equal(out.data, [1.0, bad, 1e-30, 2.0, 3.0], equal_nan=True)


def _random_sparse(rng, shape, nnz):
    """COO with duplicates, explicit zeros, entries spanning 22 decades,
    empty rows (1 mod 5, so n = 42 and 32 end on one), rows of explicit
    zeros (2 mod 5) and rows whose duplicates cancel exactly (3 mod 5)."""
    n, m = shape
    rows = rng.integers(0, n, nnz)
    rows = rows[rows % 5 != 1]
    cols = rng.integers(0, m, len(rows))
    vals = rng.standard_normal(len(rows)) * 10.0 ** rng.integers(-20, 3, len(rows))
    vals[(rng.random(len(rows)) < 0.1) | (rows % 5 == 2)] = 0.0
    cancel = rows % 5 == 3
    vals[cancel] = rng.integers(1, 9, cancel.sum())  # integers: sums are exact
    return sparse.coo_matrix((np.concatenate([vals, -vals[cancel]]),
                              (np.concatenate([rows, rows[cancel]]),
                               np.concatenate([cols, cols[cancel]]))), shape=shape)


@pytest.mark.parametrize("shape,nnz", [((42, 42), 400), ((300, 300), 6000),
                                       ((32, 70), 500), ((25, 25), 0)])
def test_finalize_matches_coo_oracle(rng, shape, nnz):
    a = _random_sparse(rng, shape, nnz)
    for matrix in (a, a.tocsr(), a.tocsc()):
        got, ref = finalize(matrix), oracle.finalize_coo(matrix)
        assert got.shape == ref.shape
        for name in ("data", "indices", "indptr"):
            g, r = getattr(got, name), getattr(ref, name)
            assert g.dtype == r.dtype and np.array_equal(g, r), name
    counts = np.diff(finalize(a).indptr)
    assert not counts[1::5].any() and not counts[2::5].any() and not counts[3::5].any()
    assert counts.sum() < a.nnz or nnz == 0


def test_export_matrices(tmp_path, sys22):
    _, system = sys22
    written = ps.export_matrices(system, tmp_path, dt=1e-3)
    assert sorted(written) == ["A.mtx", "Astar.mtx", "B1.mtx", "B2.mtx",
                               "B3.mtx", "M.mtx", "M1.mtx"]
    back = sparse.csr_matrix(mmread(tmp_path / "M1.mtx"))
    assert np.abs((back - system.m1).toarray()).max() < 1e-15


# -- batched assembly against the element-by-element oracle ---------------------

def max_rel_dev(got, ref):
    """max |got - ref| / max |ref|, entrywise."""
    diff = got - ref
    if sparse.issparse(diff):
        dev = np.abs(diff.data).max() if diff.nnz else 0.0
        return dev / np.abs(ref.data).max()
    return np.abs(diff).max() / np.abs(ref).max()


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", ["agglomerated-50", "dirichlet-2x2"])
def test_batched_assembly_matches_oracle(oracle_meshes, name, p):
    space = build_space(oracle_meshes[name], p)
    system = assemble_system(space, mu=1.0, alpha=10.0)
    m1, m = oracle.mass(space, 1.0)
    b1, b2, b3, a = oracle.stiffness(space, 10.0)
    pairs = {"M1": (system.m1, m1), "B1": (system.b1, b1), "B2": (system.b2, b2),
             "B3": (system.b3, b3), "M": (system.m, m), "A": (system.a, a)}
    data = trig_solution().data
    pairs["f"] = (functional_vector(space, data, 0.3, 10.0),
                  oracle.functional_vector(space, data, 0.3, 10.0))
    for label, (got, ref) in pairs.items():
        assert max_rel_dev(got, ref) <= 1e-13, label


def assert_same_csr(got, ref, label):
    assert got.shape == ref.shape, label
    for name in ("data", "indices", "indptr"):
        g, r = getattr(got, name), getattr(ref, name)
        assert g.dtype == r.dtype and np.array_equal(g, r), f"{label}.{name}"


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", ["agglomerated-50", "dirichlet-2x2"])
def test_stiffness_matches_kron_oracle_bitwise(oracle_meshes, name, p):
    space = build_space(oracle_meshes[name], p)
    system = assemble_system(space, mu=1.0, alpha=10.0)
    m1, m = oracle.mass_kron(space, 1.0)
    b1, b2, b3, a = oracle.stiffness_kron(space, 10.0)
    refs = {"M1": (system.m1, m1), "B1": (system.b1, b1), "B2": (system.b2, b2),
            "B3": (system.b3, b3), "M": (system.m, m), "A": (system.a, a),
            "A*": (build_system(system.m, system.a, 1e-7), build_system(m, a, 1e-7))}
    for label, (got, ref) in refs.items():
        assert_same_csr(got, ref, label)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_batched_l2_project_matches_per_element(oracle_meshes, p):
    space = build_space(oracle_meshes["agglomerated-50"], p)
    mms = trig_solution()
    field = lambda x, y: mms.sigma(x, y, 0.3)  # noqa: E731
    assert max_rel_dev(l2_project(space, field), oracle.l2_project(space, field)) <= 1e-13


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", ["agglomerated-50", "dirichlet-2x2"])
def test_l2_project_matches_loop_oracle_bitwise(oracle_meshes, name, p):
    space = build_space(oracle_meshes[name], p)
    mms = trig_solution()
    field = lambda x, y: mms.sigma(x, y, 0.3)  # noqa: E731
    assert l2_project(space, field).tobytes() == oracle.l2_project_loop(space, field).tobytes()


def test_batched_evaluator_matches_per_element_calls(oracle_meshes):
    mesh = oracle_meshes["agglomerated-50"]
    space = build_space(mesh, 3)
    interior = mesh.faces[mesh.faces["kind"] == FaceKind.INTERIOR]
    ends = interior["ends"]
    pts, _ = face_rules(mesh.vertices[ends[:, 0]], mesh.vertices[ends[:, 1]],
                        space.quad_degree)
    for side in ("plus", "minus"):
        elems = interior[side]
        values, grads = space.evaluate(elems[:, None], pts)
        ref_values = np.stack([oracle.basis_values(space, e, p) for e, p in zip(elems, pts)])
        ref_grads = np.stack([oracle.basis_gradients(space, e, p) for e, p in zip(elems, pts)])
        assert max_rel_dev(values, ref_values) <= 1e-14
        assert max_rel_dev(grads, ref_grads) <= 1e-14


# -- load-vector tables ---------------------------------------------------------

@pytest.fixture(scope="module")
def trig_data():
    return trig_solution().data


def test_load_tables_reused_bitwise(oracle_meshes, trig_data):
    mesh = oracle_meshes["agglomerated-50"]
    space = build_space(mesh, 2)
    for t in (0.0, 0.3, 0.7):
        got = functional_vector(space, trig_data, t, 10.0)
        ref = functional_vector(build_space(mesh, 2), trig_data, t, 10.0)
        assert got.tobytes() == ref.tobytes()
    assert l2_project(space, trig_data.sigma0).tobytes() == \
        l2_project(build_space(mesh, 2), trig_data.sigma0).tobytes()


def test_load_tables_keyed_by_alpha(trig_data):
    mesh = classify_boundary(build_cartesian_mesh(4, 4), lambda p: p[0] > 1.0 - 1e-9)
    space = build_space(mesh, 2)
    vectors = {}
    for alpha in (10.0, 25.0, 10.0, 25.0):
        got = functional_vector(space, trig_data, 0.3, alpha)
        ref = functional_vector(build_space(mesh, 2), trig_data, 0.3, alpha)
        assert got.tobytes() == ref.tobytes()
        vectors[alpha] = got
    assert not np.array_equal(vectors[10.0], vectors[25.0])


def test_load_callbacks_get_read_only_points(mesh22, trig_data):
    space = build_space(mesh22, 1)
    before = functional_vector(space, trig_data, 0.3)

    def scribble(x, y, *rest):
        x[:] = 0.0
        return np.zeros((np.size(x), 2, 2))

    for name in ("source", "dirichlet", "neumann"):
        terms = dataclasses.replace(trig_data.terms, **{name: scribble})
        with pytest.raises(ValueError, match="read-only"):
            functional_vector(space, dataclasses.replace(trig_data, terms=terms), 0.3)
    assert functional_vector(space, trig_data, 0.3).tobytes() == before.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        l2_project(space, lambda x, y: scribble(x, y, 0.0))


# data of every kind of time dependence: two factors (1, t), one (exp(t)),
# only the factor 1 (the steady fields), no terms at all, and three factors
# (1, t, exp(t)) that the source, the divergence and sigma do not all share
LOAD_DATA = {
    "trig": lambda: trig_solution(2.5).data,
    "linear_in_space": lambda: linear_in_space_solution().data,
    "steady-1": lambda: oracle.steady_polynomial_solution(1).data,
    "steady-2": lambda: oracle.steady_polynomial_solution(2).data,
    "zero": zero_data,
    "mixed": lambda: manufacture(sp.Matrix([[T * sp.sin(sp.pi * X), X * Y],
                                            [sp.exp(T) * Y**2, 1 - T * X]])).data,
}


@pytest.mark.parametrize("name", list(LOAD_DATA))
def test_load_terms_match_oracle(oracle_meshes, name):
    """sum_j a_j(t) F_j against the oracle's load vector, which integrates
    the data at t point by point, element by element and face by face."""
    data = LOAD_DATA[name]()
    space = build_space(oracle_meshes["agglomerated-50"], 2)
    assert len(load_terms(space, data, 10.0)) == len(data.terms.coefficients)
    for t in (0.0, 1e-6, 0.3):
        got = functional_vector(space, data, t, 10.0)
        ref = oracle.functional_vector(space, data, t, 10.0)
        if name == "zero":
            assert not got.any() and not ref.any()
        else:
            assert max_rel_dev(got, ref) <= 1e-13, t


def test_load_tables_released_with_space(mesh22, trig_data):
    space = build_space(mesh22, 1)
    functional_vector(space, trig_data, 0.3)
    tables = vars(space)["boundary_tables"]
    assert [t.kind for t in tables] == [FaceKind.DIRICHLET, FaceKind.NEUMANN]
    refs = [weakref.ref(space)] + [weakref.ref(t) for t in tables]
    del space, tables
    gc.collect()
    assert all(ref() is None for ref in refs)


def _counted_evaluations(monkeypatch):
    """A counter of the (element, point) pairs that ``DGSpace.evaluate``
    is called at from here on."""
    seen = collections.Counter()
    evaluate = DGSpace.evaluate

    def counting(self, elements, pts):
        pts = np.asarray(pts, dtype=float)
        ids = np.broadcast_to(elements, pts.shape[:-1]).ravel().tolist()
        seen.update(zip(ids, map(tuple, pts.reshape(-1, 2).tolist())))
        return evaluate(self, elements, pts)

    monkeypatch.setattr(DGSpace, "evaluate", counting)
    return seen


def test_element_points_evaluated_once(oracle_meshes, monkeypatch):
    """build_space and assemble_system evaluate the basis at each element
    quadrature point once: the Gram matrices and the volume term of the
    stiffness come from one pass."""
    seen = _counted_evaluations(monkeypatch)
    space = build_space(oracle_meshes["agglomerated-50"], 2)
    assemble_system(space)
    points = [(e, tuple(x)) for batch in space.element_batches
              for e, pts in zip(batch.elements.tolist(), batch.points.tolist()) for x in pts]
    assert len(set(points)) == len(points) > 0
    assert [seen[key] for key in points] == [1] * len(points)


def test_face_points_evaluated_once(system225, trig_data, monkeypatch):
    """build_space, assemble_system and two load vectors evaluate the basis
    at each face point once per side: the stiffness's Neumann terms and
    the load vector read the same ``boundary_tables``, and each interior
    face chunk is evaluated once for each of its two elements."""
    seen = _counted_evaluations(monkeypatch)
    space = build_space(system225[0].mesh, 3)
    assemble_system(space)
    functional_vector(space, trig_data, 0.3)
    functional_vector(space, trig_data, 0.6)
    for kind in (FaceKind.NEUMANN, FaceKind.DIRICHLET, FaceKind.INTERIOR):
        fb = face_batch(space, kind, space.quad_degree)
        sides = [fb.plus] if fb.minus is None else [fb.plus, fb.minus]
        points = [(e, tuple(x)) for side in sides
                  for e, pts in zip(side.tolist(), fb.points.tolist()) for x in pts]
        assert len(set(points)) == len(points) > 0
        assert [seen[key] for key in points] == [1] * len(points), kind
