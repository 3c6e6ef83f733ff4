import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import assembly_oracle as oracle
import polystress.mesh as msh
from polystress import (FaceKind, MeshError, PolyMesh, agglomerate, build_cartesian_mesh,
                        build_space, classify_boundary, read_mesh, write_mesh)


def kind_counts(mesh):
    counts = {k: 0 for k in FaceKind}
    for f in mesh.faces:
        counts[f["kind"]] += 1
    return counts


def test_cartesian_2x2_counts():
    mesh = build_cartesian_mesh(2, 2)
    assert mesh.n_elements == 4
    counts = kind_counts(mesh)
    assert counts[FaceKind.INTERIOR] == 4
    assert counts[FaceKind.DIRICHLET] == 8  # untagged boundary defaults
    assert mesh.mesh_size == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-15)


def test_cartesian_1x1_counts():
    mesh = build_cartesian_mesh(1, 1)
    assert mesh.n_elements == 1
    assert kind_counts(mesh)[FaceKind.INTERIOR] == 0
    assert sum(1 for f in mesh.faces if f["minus"] < 0) == 4


def test_cartesian_total_area():
    mesh = build_cartesian_mesh(10, 10)
    assert mesh.total_area == pytest.approx(1.0, rel=1e-12)


def test_cartesian_invalid_arguments():
    with pytest.raises(ValueError):
        build_cartesian_mesh(0, 3)


@settings(max_examples=20, deadline=None)
@given(nx=st.integers(1, 6), ny=st.integers(1, 6),
       w=st.floats(0.1, 3.0), h=st.floats(0.1, 3.0))
def test_cartesian_invariants(nx, ny, w, h):
    unit = build_cartesian_mesh(nx, ny)
    mesh = PolyMesh(unit.vertices * [w, h] - [0.0, h], unit.elements)
    assert mesh.total_area == pytest.approx(w * h, rel=1e-12)
    assert mesh.mesh_size == pytest.approx(mesh.element_diameters.max())
    edge_count = {}
    for e, loop in enumerate(mesh.elements):
        for a, b in oracle._loop_edges(loop):
            edge_count[(min(a, b), max(a, b))] = edge_count.get((min(a, b), max(a, b)), 0) + 1
    for face in mesh.faces:
        key = (min(face["ends"]), max(face["ends"]))
        assert edge_count[key] == (1 if face["minus"] < 0 else 2)
        assert np.hypot(*face["normal"]) == pytest.approx(1.0, abs=1e-14)


def test_normals_point_outward():
    mesh = build_cartesian_mesh(2, 2)
    for face in mesh.faces:
        mid = mesh.vertices[face["ends"]].mean(axis=0)
        centroid = mesh.element_centroids[face["plus"]]
        assert np.dot(mid - centroid, face["normal"]) > 0.0


def test_agglomerate_conserves_area():
    mesh = build_cartesian_mesh(2, 2)
    merged = agglomerate(mesh, 2, rng_seed=0)
    assert merged.n_elements == 2
    assert merged.total_area == pytest.approx(mesh.total_area, rel=1e-12)


def test_agglomerate_identity_when_target_equals_count():
    mesh = build_cartesian_mesh(3, 3)
    same = agglomerate(mesh, 9, rng_seed=5)
    assert same is mesh


def test_agglomerate_deterministic():
    base = build_cartesian_mesh(6, 6)
    a = agglomerate(base, 12, rng_seed=42)
    b = agglomerate(base, 12, rng_seed=42)
    assert all(np.array_equal(x, y) for x, y in zip(a.elements, b.elements))
    c = agglomerate(base, 12, rng_seed=43)
    assert not all(np.array_equal(x, y) for x, y in zip(a.elements, c.elements))


def test_agglomerate_argument_validation():
    mesh = build_cartesian_mesh(2, 2)
    with pytest.raises(ValueError):
        agglomerate(mesh, 5, rng_seed=0)
    with pytest.raises(ValueError):
        agglomerate(mesh, 0, rng_seed=0)


def test_agglomerate_stall_sets_warning(monkeypatch):
    monkeypatch.setattr(msh, "_merge_is_legal", lambda *args: False)
    mesh = build_cartesian_mesh(3, 3)
    out = agglomerate(mesh, 2, rng_seed=0)
    assert out.merge_warning
    assert out.n_elements == 9


# (nx, ny, target, seed, right edge Neumann, stalls before the target)
ORACLE_AGGLOMERATIONS = [
    (4, 4, 8, 3, True, False), (4, 4, 5, 0, False, False), (8, 8, 20, 7, False, False),
    (7, 5, 12, 3, False, False), (7, 5, 9, 0, True, False), (15, 15, 50, 1, True, False),
    (20, 20, 100, 1, True, False), (20, 20, 60, 5, False, False),
    (40, 40, 400, 2, False, False), (40, 40, 200, 1, True, False),
    (4, 4, 1, 0, False, True), (8, 8, 1, 1, True, True),
]


@pytest.mark.parametrize("nx,ny,target,seed,neumann,stalls", ORACLE_AGGLOMERATIONS)
def test_agglomerate_matches_oracle(nx, ny, target, seed, neumann, stalls):
    base = build_cartesian_mesh(nx, ny)
    if neumann:
        base = classify_boundary(base, lambda p: p[0] > 1.0 - 1e-9)
    out = agglomerate(base, target, seed)
    loops, stalled = oracle.agglomerate(base, target, seed)
    assert out.merge_warning == stalled == stalls
    assert [loop.tolist() for loop in out.elements] == loops
    assert (out.n_elements > target) == stalls


@pytest.mark.parametrize("k", [1, 3, 7, 8, 9, 16, 17, 128, 129, 300])
def test_pairwise_sum_matches_numpy_row_sum(rng, k):
    for _ in range(50):
        row = rng.standard_normal(k) * 10.0 ** rng.integers(-8, 8, k)
        assert msh._pairwise_sum(row.tolist()) == np.sum(row[None], axis=1)[0]


def test_merge_is_legal_matches_array_geometry(rng):
    # random star-shaped, concave and clockwise polygons around the origin
    for _ in range(300):
        k = int(rng.integers(3, 14))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
        if rng.random() < 0.3:
            angles = angles[::-1]
        radii = rng.uniform(0.05, 1.0, k)
        vertices = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        vertices += rng.uniform(-0.5, 0.5, 2)
        loop = list(range(k))
        assert (msh._merge_is_legal(vertices.tolist(), loop)
                == oracle.merge_is_legal(vertices, loop))


def test_agglomerate_keeps_boundary_tags():
    mesh = classify_boundary(build_cartesian_mesh(4, 4), lambda p: p[0] > 1 - 1e-9)
    merged = agglomerate(mesh, 6, rng_seed=1)
    n_neu = kind_counts(merged)[FaceKind.NEUMANN]
    assert n_neu == 4  # right-edge segments survive merging untouched


def test_agglomerated_elements_are_polygons(poly_mesh):
    assert poly_mesh.n_elements == 8
    assert any(len(loop) > 4 for loop in poly_mesh.elements)
    assert poly_mesh.total_area == pytest.approx(1.0, rel=1e-12)


def test_classify_boundary_right_edge():
    mesh = classify_boundary(build_cartesian_mesh(2, 2), lambda p: p[0] > 1 - 1e-9)
    counts = kind_counts(mesh)
    assert counts[FaceKind.NEUMANN] == 2
    assert counts[FaceKind.DIRICHLET] == 6
    assert counts[FaceKind.INTERIOR] == 4


@pytest.mark.parametrize("pred,n_neumann", [(lambda p: False, 0), (lambda p: True, 8)])
def test_classify_boundary_constant_predicates(pred, n_neumann):
    mesh = classify_boundary(build_cartesian_mesh(2, 2), pred)
    counts = kind_counts(mesh)
    assert counts[FaceKind.NEUMANN] == n_neumann
    assert counts[FaceKind.NEUMANN] + counts[FaceKind.DIRICHLET] == 8


def test_faces_are_read_only(tmp_path):
    built = build_cartesian_mesh(4, 4)
    classified = classify_boundary(built, lambda p: p[0] > 1 - 1e-9)
    merged = agglomerate(classified, 6, rng_seed=1)
    path = tmp_path / "mesh.txt"
    write_mesh(merged, path)
    for mesh in (built, classified, merged, read_mesh(path)):
        assert not mesh.faces.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            mesh.faces["kind"][0] = FaceKind.NEUMANN
        with pytest.raises(ValueError, match="read-only"):
            mesh.faces[0]["normal"][0] = 0.0


def test_classify_boundary_leaves_input_kinds_unchanged():
    mesh = classify_boundary(build_cartesian_mesh(2, 2), lambda p: p[0] > 1 - 1e-9)
    kinds = mesh.faces["kind"].copy()
    classify_boundary(mesh, lambda p: True)
    classify_boundary(mesh, lambda p: False)
    assert np.array_equal(mesh.faces["kind"], kinds)
    assert kind_counts(mesh)[FaceKind.NEUMANN] == 2


def test_mesh_file_round_trip(tmp_path, poly_mesh):
    path = tmp_path / "mesh.txt"
    write_mesh(poly_mesh, path)
    back = read_mesh(path)
    assert np.allclose(back.vertices, poly_mesh.vertices)
    assert all(np.array_equal(a, b) for a, b in zip(back.elements, poly_mesh.elements))
    assert kind_counts(back) == kind_counts(poly_mesh)


def test_mesh_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0\n1 0\n")
    with pytest.raises(MeshError):
        read_mesh(bad)
    bad.write_text("")
    with pytest.raises(MeshError):
        read_mesh(bad)
    # every malformed line is named by its number in the file
    good = (UNIT_SQUARE_FILE + "0 1 N\n").splitlines()
    for line, text, named in [
        (1, "4 x", 1),               # non-integer header
        (1, "4 1 2", 1),             # extra header token
        (3, "1", 3),                 # vertex line with one number
        (3, "1 0 7", 3),             # vertex line with three numbers
        (3, "1 zero", 3),            # non-numeric coordinate
        (3, "\n\n1", 5),             # blank lines still count
        (6, "4 0 1 2 x", 6),         # non-integer vertex id
        (6, "4 0 1 2 4", 6),         # vertex id past the vertex lines
        (6, "4 0 1 2 " + "9" * 20, 6),
        (6, "4.0 0 1 2 3", 6),       # non-integer vertex count
        (6, "5 0 1 2 3", 6),         # count and ids disagree
        (7, "0 1.5 N", 7),           # non-integer tag vertex
        (7, "a 1 N", 7),
        (7, "0 1 X", 7),             # unknown tag
        (7, "0 1", 7),               # missing tag
    ]:
        lines = good.copy()
        lines[line - 1] = text
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError, match=f"line {named} in "):
            read_mesh(bad)


UNIT_SQUARE_FILE = "4 1\n0 0\n1 0\n1 1\n0 1\n4 0 1 2 3\n"


@pytest.mark.parametrize("tag", ["0 2 N", "7 9 D"])
def test_mesh_file_rejects_tag_of_no_boundary_face(tmp_path, tag):
    # a diagonal and a segment between missing vertices: neither is a face
    path = tmp_path / "square.txt"
    path.write_text(UNIT_SQUARE_FILE + tag + "\n")
    with pytest.raises(MeshError, match="names no boundary face"):
        read_mesh(path)


def test_mesh_file_tag_in_either_orientation(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(UNIT_SQUARE_FILE + "1 0 N\n")
    assert kind_counts(read_mesh(path))[FaceKind.NEUMANN] == 1


def test_invalid_element_rejected():
    # clockwise loop
    with pytest.raises(MeshError):
        msh.PolyMesh(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]), [[0, 3, 2, 1]])
    # repeated vertex
    with pytest.raises(MeshError):
        msh.PolyMesh(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]), [[0, 1, 2, 2]])
    # non-finite vertex
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(MeshError, match="finite"):
            msh.PolyMesh(np.array([[0.0, 0], [1, 0], [1, 1], [0, bad]]), [[0, 1, 2, 3]])



def test_mesh_without_elements_rejected(tmp_path):
    """No element loops, given directly or by a header of 0 elements with
    or without vertices, is a MeshError that says so."""
    with pytest.raises(MeshError, match="no elements"):
        msh.PolyMesh(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]), [])
    path = tmp_path / "empty.txt"
    for text in ("3 0\n0 0\n1 0\n0 1\n", "0 0\n"):
        path.write_text(text)
        with pytest.raises(MeshError, match="no elements"):
            read_mesh(path)

# -- pinned mesh family ------------------------------------------------------
#
# The acceptance meshes are seeded agglomerations of Cartesian grids; any
# rewrite of mesh construction or agglomeration must reproduce them bit for
# bit, or the paper's mesh family changes.  The digests below were recorded
# from the element-by-element implementation.

PINNED_MESH_SHA256 = {
    (15, 50): "bfd8934e26ec5d0395f469241db8720a4a0495fd8f7be70a0e53775d9f6c9771",
    (20, 100): "b70a3ba6fb00172c91ee25c90d8d207ea0f48c6addff3938c77bb70f81eddfc6",
    (60, 900): "7e816255b5b2672c499f23b4ac44b7a6fa0c4e32771d7e344b5ecdeb87bd5465",
}

# SHA-256 of the little-endian float64 bytes of the concatenated p = 3
# element rules of the 15x15 -> 50 mesh (points (nq, 2), then weights (nq,))
PINNED_RULE_POINTS_SHA256 = "71186008a397fe9f58e0aad0cf8f26804a78dc2cf9751dcc2ea5266e8d5c5178"
PINNED_RULE_WEIGHTS_SHA256 = "a5207a8313a0473ca8e9bebc7a2641d72c62c5aeeb4a53395088eb1f18e3d857"


def pinned_mesh(nx, target):
    base = classify_boundary(build_cartesian_mesh(nx, nx), lambda p: p[0] > 1.0 - 1e-9)
    return agglomerate(base, target, 1)


def float64_sha256(arrays):
    data = np.concatenate([np.ascontiguousarray(a, dtype="<f8").ravel() for a in arrays])
    return hashlib.sha256(data.tobytes()).hexdigest()


@pytest.mark.parametrize("nx,target", sorted(PINNED_MESH_SHA256))
def test_pinned_mesh_files(tmp_path, nx, target):
    path = tmp_path / "mesh.txt"
    write_mesh(pinned_mesh(nx, target), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_MESH_SHA256[(nx, target)]


def test_pinned_mesh_geometry_and_rules():
    mesh = pinned_mesh(15, 50)
    ref = np.load(Path(__file__).with_name("pinned_mesh_15x15_50.npz"))
    assert np.array_equal(mesh.element_areas, ref["areas"])
    assert np.array_equal(mesh.element_centroids, ref["centroids"])
    assert np.array_equal(mesh.element_diameters, ref["diameters"])
    points, weights = zip(*oracle.element_rules(build_space(mesh, 3)))
    assert np.array_equal([len(w) for w in weights], ref["rule_sizes"])
    assert float64_sha256(points) == PINNED_RULE_POINTS_SHA256
    assert float64_sha256(weights) == PINNED_RULE_WEIGHTS_SHA256
