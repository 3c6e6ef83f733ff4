import numpy as np
import pytest
import sympy as sp

from assembly_oracle import STEADY_POLYNOMIALS, data_at, steady_polynomial_solution
from polystress.problems import (linear_in_space_solution, manufacture, trig_solution,
                                 zero_data)

X, Y, T = sp.symbols("x y t")


def test_zero_data_shapes():
    data = zero_data()
    x = np.linspace(0, 1, 5)
    assert data_at(data, "source", 0.3, x, x).shape == (5, 2, 2)
    assert data.dirichlet(x, x, 0.3).shape == (5, 2)
    assert data_at(data, "neumann", 0.3, x, x, 1.0, 0.0).shape == (5, 2)
    assert np.all(data.sigma0(x, x) == 0.0)


def _fd_source(mms, x, y, t, mu, h=1e-5):
    """Finite-difference oracle for mu^-1 d/dt dev(sigma) - grad(div sigma)."""
    s_p = mms.sigma(x, y, t + h)
    s_m = mms.sigma(x, y, t - h)
    dev_dot = (s_p - s_m) / (2 * h)
    tr = 0.5 * (dev_dot[:, 0, 0] + dev_dot[:, 1, 1])
    dev_dot[:, 0, 0] -= tr
    dev_dot[:, 1, 1] -= tr
    grad_div = np.empty((len(x), 2, 2))
    grad_div[:, :, 0] = (mms.div_sigma(x + h, y, t) - mms.div_sigma(x - h, y, t)) / (2 * h)
    grad_div[:, :, 1] = (mms.div_sigma(x, y + h, t) - mms.div_sigma(x, y - h, t)) / (2 * h)
    return dev_dot / mu - grad_div


@pytest.mark.parametrize("maker,mu", [(trig_solution, 1.0), (trig_solution, 2.5),
                                      (linear_in_space_solution, 1.0)])
def test_manufactured_source_matches_finite_differences(maker, mu, rng):
    mms = maker(mu)
    x = rng.uniform(0.1, 0.9, 12)
    y = rng.uniform(0.1, 0.9, 12)
    t = 0.37
    got = data_at(mms.data, "source", t, x, y)
    ref = _fd_source(mms, x, y, t, mu)
    assert np.abs(got - ref).max() < 1e-5 * max(1.0, np.abs(ref).max())


def test_manufactured_dirichlet_is_divergence(rng):
    mms = trig_solution()
    x, y, t = rng.uniform(0, 1, 8), rng.uniform(0, 1, 8), 0.2
    assert np.allclose(mms.data.dirichlet(x, y, t), mms.div_sigma(x, y, t))


def test_manufactured_neumann_is_traction(rng):
    mms = trig_solution()
    x, y, t = rng.uniform(0, 1, 8), rng.uniform(0, 1, 8), 0.2
    sig = mms.sigma(x, y, t)
    for n in ((1.0, 0.0), (0.0, -1.0), (np.sqrt(0.5), np.sqrt(0.5))):
        got = data_at(mms.data, "neumann", t, x, y, n[0], n[1])
        ref = sig @ np.asarray(n)
        assert np.allclose(got, ref, atol=1e-13)


def test_manufactured_initial_field():
    mms = trig_solution()
    x = np.array([0.3, 0.7])
    assert np.allclose(mms.data.sigma0(x, x), mms.sigma(x, x, 0.0))


def test_manufacture_constant_tensor():
    mms = manufacture(sp.Matrix([[1, 2], [3, 4]]))
    x = np.array([0.25])
    assert np.allclose(data_at(mms.data, "source", 0.0, x, x), 0.0)
    assert np.allclose(mms.div_sigma(x, x, 0.0), 0.0)
    assert np.allclose(mms.sigma(x, x, 1.0), [[[1, 2], [3, 4]]])


def test_div_sigma_matches_symbolic_derivative(rng):
    expr = sp.Matrix([[X ** 2 * Y, sp.sin(X) * T], [X + Y ** 3, sp.cos(Y)]])
    mms = manufacture(expr)
    x, y, t = rng.uniform(0, 1, 6), rng.uniform(0, 1, 6), 0.8
    # row-wise divergence: (d/dx s11 + d/dy s12, d/dx s21 + d/dy s22)
    ref = np.stack([2 * x * y, 1 - np.sin(y)], axis=1)
    assert np.allclose(mms.div_sigma(x, y, t), ref)


def _entrywise_oracle(mat):
    """One sympy.lambdify per entry, each broadcast to the points."""
    fns = [[sp.lambdify((X, Y, T), mat[r, c], modules="numpy")
            for c in range(mat.shape[1])] for r in range(mat.shape[0])]

    def g(x, y, t):
        return np.stack([np.stack([np.broadcast_to(np.asarray(f(x, y, t), dtype=float), x.shape)
                                   for f in row], axis=-1) for row in fns], axis=1)

    return g


# the fields of the named solutions, written out independently of the library
TRIG = (1 + T / 2) * sp.Matrix([
    [sp.sin(sp.pi * X) * sp.cos(sp.pi * Y), X**2 * Y + sp.sin(sp.pi * Y)],
    [sp.cos(sp.pi * X) * sp.sin(sp.pi * Y), X * Y**2 + sp.cos(sp.pi * X)]])
LINEAR_IN_SPACE = sp.exp(T) * sp.Matrix([[1 + 2 * X - Y, X + Y], [X - Y, 1 - X + 2 * Y]])
# maker(mu) -> the field it manufactures
FIELDS = {lambda mu: trig_solution(mu): TRIG, linear_in_space_solution: LINEAR_IN_SPACE,
          lambda mu: steady_polynomial_solution(1, mu): STEADY_POLYNOMIALS[1],
          lambda mu: steady_polynomial_solution(2, mu): STEADY_POLYNOMIALS[2]}
MUS = (1.0, 2.5, 0.4)


def _assert_matches_manufactured(got, ref, mu, name):
    """A callback's values against those of ``manufacture`` on the same
    field: bit for bit at mu = 1, where the closed forms of the named
    solutions follow the operation order of sympy's printed code; within
    1e-13 relative at other mu, whose constants with 1/mu sympy may round
    differently."""
    assert got.shape == ref.shape, name
    if mu == 1.0:
        assert got.tobytes() == ref.tobytes(), name
    else:
        assert np.abs(got - ref).max(initial=0.0) <= 1e-13 * np.abs(ref).max(initial=0.0), name


@pytest.mark.parametrize("maker", list(FIELDS))
def test_fused_callbacks_match_entrywise_oracle(maker, rng):
    """sigma, its divergence and the data at one time, against one
    sympy.lambdify per entry of the field and against ``manufacture`` of
    the same field, at three viscosities."""
    sig = FIELDS[maker]
    div = sp.Matrix([sig[r, 0].diff(X) + sig[r, 1].diff(Y) for r in range(2)])
    grad_div = sp.Matrix([[div[r].diff(X), div[r].diff(Y)] for r in range(2)])
    dev_dot = (sig - sp.Rational(1, 2) * sig.trace() * sp.eye(2)).diff(T)
    x, y, t = rng.uniform(0, 1, 50), rng.uniform(0, 1, 50), 0.37
    nx, ny = np.cos(rng.uniform(0, 2 * np.pi, 50)), np.sin(rng.uniform(0, 2 * np.pi, 50))
    ref_sigma = _entrywise_oracle(sig)(x, y, t)
    ref_div = _entrywise_oracle(div)(x, y, t)[..., 0]
    callbacks = {
        "sigma": (lambda m: m.sigma(x, y, t), ref_sigma),
        "sigma0": (lambda m: m.data.sigma0(x, y), _entrywise_oracle(sig)(x, y, 0.0)),
        "div_sigma": (lambda m: m.div_sigma(x, y, t), ref_div),
        "dirichlet": (lambda m: m.data.dirichlet(x, y, t), ref_div),
        "neumann": (lambda m: data_at(m.data, "neumann", t, x, y, 0.6, -0.8),
                    ref_sigma @ np.array([0.6, -0.8])),
        "neumann per point": (lambda m: data_at(m.data, "neumann", t, x, y, nx, ny),
                              np.einsum("qrc,qc->qr", ref_sigma, np.column_stack([nx, ny]))),
    }
    for mu in MUS:
        mms, manufactured = maker(mu), manufacture(sig, mu)
        source = dev_dot / mu - grad_div
        callbacks["source"] = (lambda m: data_at(m.data, "source", t, x, y),
                               _entrywise_oracle(source)(x, y, t))
        for name, (fun, ref) in callbacks.items():
            got = fun(mms)
            assert got.shape == ref.shape and got.flags.writeable, (name, mu)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), (name, mu)
            _assert_matches_manufactured(got, fun(manufactured), mu, name)
        # point-independent entries (the steady sources, the linear field's
        # divergence) are one value broadcast to every point
        for got, expr in ((mms.div_sigma(x, y, t), div), (callbacks["source"][0](mms), source)):
            got = got.reshape(len(x), -1)
            for k, entry in enumerate(expr):
                if entry.free_symbols <= {T}:
                    assert np.all(got[:, k] == got[0, k])


@pytest.mark.parametrize("entry, named", [
    (sp.sin(X * T), r"sigma\[0, 1\] = sin\(t\*x\)"),
    (sp.exp(T) * X + Y**T, r"sigma\[0, 1\] = .*its term y\*\*t"),
])
def test_non_separable_sigma_names_its_entry(entry, named):
    with pytest.raises(ValueError, match=named):
        manufacture(sp.Matrix([[X, entry], [0, T * Y]]))


def test_terms_grouped_by_time_factor(rng):
    """Each datum is sum_j a_j(t) d_j(x, y) over the factors of sigma's
    expansion and of its time derivative: 1 and t for the trig field,
    exp(t) for the linear one, none for the zero field.  The terms of the
    named solutions are those of ``manufacture`` on the same field, at
    three viscosities."""
    x, y = rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)
    nx, ny = np.cos(rng.uniform(0, 2 * np.pi, 50)), np.sin(rng.uniform(0, 2 * np.pi, 50))
    for maker, field, factors in ((lambda mu: trig_solution(mu).data, TRIG, [1.0, 0.3]),
                                  (lambda mu: linear_in_space_solution(mu).data,
                                   LINEAR_IN_SPACE, [np.exp(0.3)]),
                                  (zero_data, sp.zeros(2, 2), [])):
        for mu in MUS:
            terms, manufactured = maker(mu).terms, manufacture(field, mu).data.terms
            assert [float(a(0.3)) for a in terms.coefficients] == pytest.approx(factors, rel=1e-15)
            for t in (0.0, 1e-6, 0.3, -2.0):
                assert ([float(a(t)) for a in terms.coefficients]
                        == [float(a(t)) for a in manufactured.coefficients])
            for name, fun, shape in (
                    ("source", lambda d: d.source(x, y), (2, 2)),
                    ("dirichlet", lambda d: d.dirichlet(x, y), (2,)),
                    ("neumann", lambda d: d.neumann(x, y, 0.6, -0.8), (2,)),
                    ("neumann per point", lambda d: d.neumann(x, y, nx, ny), (2,))):
                got = fun(terms)
                assert got.shape == (50, len(factors)) + shape, name
                _assert_matches_manufactured(got, fun(manufactured), mu, name)
