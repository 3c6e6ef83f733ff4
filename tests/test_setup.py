"""The chunked set-up builders against their one-shot references, and the
memory they hold.

``build_system``, ``build_deflator`` and ``build_block_jacobi`` work in
chunks of about ``CHUNK`` entries; ``assembly_oracle`` keeps the one-shot
builders they replaced, which form A*, A* V and the diagonal blocks from
whole-operator temporaries.  Every operator must keep their bits, at the
default chunk and at a small one that cuts even the smallest operators
into many chunks, with the products serial and split.
"""
import gc
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse

from polystress import (agglomerate, assemble_system, build_block_jacobi,
                        build_cartesian_mesh, build_deflator, build_space, build_system,
                        classify_boundary)
from polystress import assembly, dg_space, krylov
from polystress.krylov import BlockFactorizationError

import assembly_oracle as oracle

DTS = (1e-2, 1e-6, 1e-8, 1e-10)
#: a chunk that splits every test operator, faces and blocks included
SMALL_CHUNK = 2048


@pytest.fixture(scope="module")
def systems(oracle_meshes):
    """(space, system) at p = 3 on the oracle meshes and on the 100-element
    mesh of the benchmark's tables."""
    base = classify_boundary(build_cartesian_mesh(20, 20), lambda p: p[0] > 1.0 - 1e-9)
    meshes = dict(oracle_meshes, **{"bench-100": agglomerate(base, 100, 1)})
    out = {}
    for name, mesh in meshes.items():
        space = build_space(mesh, 3)
        out[name] = space, assemble_system(space)
    return out


def _same(got, ref):
    """Bitwise equality of two CSR matrices, index dtypes included."""
    assert got.shape == ref.shape
    for name in ("data", "indices", "indptr"):
        g, r = getattr(got, name), getattr(ref, name)
        assert g.dtype == r.dtype and g.tobytes() == r.tobytes(), name


def _small_chunks(monkeypatch):
    """Set the one chunk binding, ``dg_space.CHUNK``, that every set-up
    builder reads when it is called."""
    monkeypatch.setattr(dg_space, "CHUNK", SMALL_CHUNK)


@pytest.mark.parametrize("name", ["agglomerated-50", "dirichlet-2x2", "bench-100"])
@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("small", [False, True])
def test_setup_builders_match_oneshot_oracles_bitwise(systems, name, split, small,
                                                      monkeypatch):
    """A*, W, the (A* V)^T products and both Block-Jacobi stacks, at every dt,
    equal the one-shot builders' bit for bit; under the small chunk the
    assembled operators equal those of the default chunk too."""
    space, system = systems[name]
    if small:
        _small_chunks(monkeypatch)
        again = assemble_system(space)
        for key in ("m1", "b1", "b2", "b3", "m", "a"):
            _same(getattr(again, key), getattr(system, key))
    if split:
        monkeypatch.setattr(krylov, "SPLIT_NNZ", 0)
        monkeypatch.setattr(krylov.os, "sched_getaffinity", lambda pid: {0, 1})
    rng = np.random.default_rng(7)
    for dt in DTS:
        astar = build_system(system.m, system.a, dt)
        _same(astar, oracle.system_oneshot(system.m, system.a, dt))
        w, avt = oracle.deflator_tocsc(astar)
        try:
            deflator = build_deflator(None, None, astar)
        except BlockFactorizationError:
            # all Dirichlet: the constant tensor leaves W singular up to
            # rounding, and the reference W fails the same factorisation
            assert name == "dirichlet-2x2"
            with pytest.raises(BlockFactorizationError):
                krylov._spd_lu(w, "coarse deflation operator")
        else:
            _same(deflator.coarse_matrix, w)
            for x in rng.standard_normal((3, astar.shape[0])):
                assert deflator._avt(x).tobytes() == (avt @ x).tobytes()
        for layout in ("component", "collective"):
            got = build_block_jacobi(astar, space, layout).inv_blocks
            assert got.tobytes() == oracle.block_jacobi_oneshot(astar, space, layout).tobytes()


def _traced(build):
    """Run ``build`` under tracemalloc: (bytes it retains, bytes its peak
    held beyond them)."""
    gc.collect()
    tracemalloc.start()
    try:
        out = build()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del out
    return retained, peak - retained


def test_setup_phases_hold_no_operator_sized_temporary(system225):
    """Each set-up phase holds, beyond its output, only chunk-sized
    temporaries, and in assembly the value buffer of the stiffness blocks
    and the 2 x 2 block that A repeats.  The one-shot builders exceed every
    bound: at 225 elements
    they read 22.2 MB beside 9.0 MB of output for ``assemble_system``,
    12.0 beside 6.1 for ``build_system`` and 7.3 beside 7.4 for
    ``build_deflator``, and 8.0 and 6.0 MB for the component and
    collective Block-Jacobi with A* at 6.1 MB."""
    space, system, astar = system225
    operator = astar.data.nbytes + astar.indices.nbytes
    output, extra = _traced(lambda: assemble_system(space))
    assert extra <= 2 * output, (extra, output)
    output, extra = _traced(lambda: build_system(system.m, system.a, 1e-7))
    assert extra <= 0.75 * output, (extra, output)
    output, extra = _traced(lambda: build_deflator(None, None, astar))
    assert extra <= 0.5 * output, (extra, output)
    for layout in ("component", "collective"):
        _, extra = _traced(lambda: build_block_jacobi(astar, space, layout))
        assert extra <= 0.5 * operator, (layout, extra, operator)


def test_the_one_chunk_binding_cuts_every_builder(systems, monkeypatch):
    """``dg_space.CHUNK`` alone sets the chunk of the assembly and krylov
    builders: under the small chunk the bench-100 A* is cut into many row
    ranges, and its Block-Jacobi stack is gathered in as many chunks."""
    space, system = systems["bench-100"]
    astar = build_system(system.m, system.a, 1e-7)
    assert len(assembly._row_ranges(astar.indptr)) < 10
    _small_chunks(monkeypatch)
    assert len(assembly._row_ranges(astar.indptr)) >= astar.nnz // SMALL_CHUNK > 100
    gather, calls = krylov._diagonal_blocks, []
    monkeypatch.setattr(krylov, "_diagonal_blocks",
                        lambda *args: calls.append(args) or gather(*args))
    build_block_jacobi(astar, space, "component")
    assert len(calls) >= astar.nnz // SMALL_CHUNK


# -- the row-chunk helper on its own ---------------------------------------------

def _random_csr(rng, shape, nnz):
    """A canonical CSR matrix with entries of magnitudes 1 to 1e-20, so that
    ``finalize`` drops some of them."""
    a = sparse.random(*shape, density=nnz / (shape[0] * shape[1]), format="csr",
                      random_state=rng)
    a.data = rng.standard_normal(a.nnz) * 10.0 ** -rng.integers(0, 21, a.nnz)
    return a


def _whole(rows):
    return rows


def _side_by_side(left, right):
    return sparse.hstack([left, right], format="csr")


def test_by_rows_empty_rows_and_a_row_longer_than_the_chunk(monkeypatch):
    """Empty rows, and one row of more entries than CHUNK, which no range
    cuts, give ``finalize``'s COO oracle bit for bit."""
    monkeypatch.setattr(dg_space, "CHUNK", 4)
    rng = np.random.default_rng(3)
    a = sparse.lil_matrix(_random_csr(rng, (30, 40), 200))
    a[[0, 7, 8, 9, 29]] = 0.0
    a[12] = rng.standard_normal(40) * 10.0 ** -rng.integers(0, 21, 40)
    a = sparse.csr_matrix(a)
    assert not np.diff(a.indptr)[[0, 7, 8, 9, 29]].any()
    assert max(a.indptr[stop] - a.indptr[start]
               for start, stop in assembly._row_ranges(a.indptr)) >= 40
    _same(assembly._by_rows([(0, (a,), _whole)], a.shape, a.nnz), oracle.finalize_coo(a))


def test_by_rows_two_blocks_with_a_row_offset(monkeypatch):
    """Two blocks, each two operands side by side, the second from row 17:
    the stacked rows are those of ``finalize`` of the block matrix."""
    monkeypatch.setattr(dg_space, "CHUNK", 16)
    rng = np.random.default_rng(4)
    (p, q), (r, s) = [[_random_csr(rng, (17, 11), 60), _random_csr(rng, (17, 13), 70)],
                      [_random_csr(rng, (17, 11), 50), _random_csr(rng, (17, 13), 90)]]
    got = assembly._by_rows([(0, (p, q), _side_by_side), (17, (r, s), _side_by_side)], (34, 24),
                            p.nnz + q.nnz + r.nnz + s.nnz)
    _same(got, oracle.finalize_coo(sparse.bmat([[p, q], [r, s]])))


def test_by_rows_without_drop_keeps_every_entry(monkeypatch):
    """With drop=False the rows are written as combine gives them, the
    entries that ``finalize`` drops included."""
    monkeypatch.setattr(dg_space, "CHUNK", 32)
    a = _random_csr(np.random.default_rng(5), (50, 50), 600)
    got = assembly._by_rows([(0, (a,), _whole)], a.shape, a.nnz, drop=False)
    _same(got, a)
    assert assembly.finalize(a).nnz < got.nnz


def test_by_rows_keeps_a_row_holding_a_nan_or_inf_whole():
    """The NaN threshold of a row holding a NaN or inf drops none of its
    entries; the other rows are filtered as usual."""
    a = sparse.csr_matrix(np.array([[1.0, 1e-20, np.nan], [1.0, 1e-20, 0.0],
                                    [np.inf, 1e-20, 1.0]]))
    got = assembly._by_rows([(0, (a,), _whole)], a.shape, a.nnz)
    ref = sparse.csr_matrix((np.array([1.0, 1e-20, np.nan, 1.0, np.inf, 1e-20, 1.0]),
                             np.array([0, 1, 2, 0, 0, 1, 2], dtype=np.int32),
                             np.array([0, 3, 4, 7], dtype=np.int32)), shape=a.shape)
    _same(got, ref)


def test_by_rows_cuts_a_larger_capacity_to_size():
    """Arrays allocated for more entries than the result are cut to its
    size in place: no memory beyond it stays allocated.  (The capacity is
    less than twice the result, where scipy would copy a view itself.)"""
    a = _random_csr(np.random.default_rng(6), (40, 40), 300)
    got = assembly._by_rows([(0, (a,), _whole)], a.shape, a.nnz + 10)
    _same(got, oracle.finalize_coo(a))
    for name in ("data", "indices"):
        array = getattr(got, name)
        held = array if array.base is None else array.base  # scipy may hold a view
        assert held.size == array.size == got.nnz < a.nnz
