import numpy as np
import pytest

from polystress.krylov import BlockJacobi


# "fallback" is the np.matmul block apply of BlockJacobi, the one path there is
@pytest.mark.parametrize("backend", ["fallback"])
@pytest.mark.parametrize("use_perm", [False, True])
def test_block_apply_matches_dense_solve(backend, use_perm, rng):
    nb, bs = 5, 4
    n = nb * bs
    blocks = []
    for _ in range(nb):
        m = rng.standard_normal((bs, bs))
        blocks.append(m @ m.T + bs * np.eye(bs))
    full = np.zeros((n, n))
    perm = rng.permutation(n) if use_perm else None
    inv = np.stack([np.linalg.inv(b) for b in blocks])
    for k, b in enumerate(blocks):
        idx = np.arange(k * bs, (k + 1) * bs)
        pidx = perm[idx] if use_perm else idx
        full[np.ix_(pidx, pidx)] = b
    solver = BlockJacobi("collective" if use_perm else "component", bs, nb, inv, perm)
    r = rng.standard_normal(n)
    assert np.allclose(solver.apply(r), np.linalg.solve(full, r), rtol=1e-10)
