"""Problem data for the pseudo-stress formulation, and manufactured solutions.

The unknown is the pseudo-stress tensor sigma = mu grad(u) - p I.  Boundary
data prescribe the row-wise divergence of sigma on the Dirichlet part and
the traction sigma.n on the Neumann part.  The data are sums of terms
a_j(t) d_j(x, y), one per time factor a_j, so that a load vector is a
combination of time-free vectors built once (``assembly.load_terms``).

A manufactured solution is given by the terms of sigma, of the source
mu^-1 d/dt dev(sigma) - grad(div sigma) and of div sigma, each a numpy
callback that evaluates every entry of every term together.  sigma itself,
for the initial field and the error norms, is summed from its terms, the
traction is sigma.n, and div sigma is the Dirichlet datum.

The named solutions (``trig_solution``, ``linear_in_space_solution``,
``zero_data``) are numpy closed forms.  Each evaluates its entries in the
order of operations of the code that sympy prints for the symbolic
derivation, with 1/mu folded into the same constants, so at mu = 1 they
return the bits of ``manufacture`` on the same field.  ``manufacture``
derives the terms of any separable sympy field; it alone imports sympy,
which would otherwise add about 33 MB and half a second to every import
of the package.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np


@dataclass(frozen=True)
class DataTerms:
    """The data split by time factor: each datum is sum_j a_j(t) d_j(x, y)
    over the J terms, summed in term order.

    coefficients: the time factors a_j, one callable t -> float per term
    source(x, y) -> (npts, J, 2, 2): the time-free tensor sources
    dirichlet(x, y) -> (npts, J, 2): the time-free prescribed divergences
    neumann(x, y, nx, ny) -> (npts, J, 2): the time-free tractions; the
        normal components nx, ny are scalars or per-point arrays
    """

    coefficients: tuple
    source: callable
    dirichlet: callable
    neumann: callable


def sum_terms(terms, t: float, shape) -> np.ndarray:
    """sum_j a_j(t) v_j over the pairs (a_j, v_j) of ``terms``, in term
    order; zeros of ``shape`` when there are none."""
    out = np.zeros(shape)
    for a, v in terms:
        out += a(t) * v
    return out


@dataclass
class ProblemData:
    """Callable data of the evolution problem.

    terms: the source, Dirichlet and Neumann data as ``DataTerms``
    sigma0(x, y) -> (npts, 2, 2): initial pseudo-stress field
    mu: viscosity (> 0)

    ``dirichlet`` evaluates the Dirichlet datum at one time from the terms.
    The point arrays (and per-point normals) passed to the callbacks by
    ``assembly.load_terms`` and ``l2_project`` are read-only, since the same
    arrays are reused on every call: the load vector's basis tables are
    computed once per space.
    """

    terms: DataTerms
    sigma0: callable
    mu: float = 1.0

    def dirichlet(self, x, y, t) -> np.ndarray:
        """(npts, 2): prescribed divergence on the Dirichlet boundary."""
        return _at(self.terms.coefficients, t, self.terms.dirichlet(x, y))


def _at(coefficients, t, values):
    """A field at time t from the values (npts, J, ...) of its J terms."""
    return sum_terms(zip(coefficients, values.swapaxes(0, 1)), t,
                     values.shape[:1] + values.shape[2:])


@dataclass
class ManufacturedSolution:
    """Exact solution plus the problem data it manufactures."""

    data: ProblemData
    sigma: callable        # (x, y, t) -> (npts, 2, 2)
    div_sigma: callable    # (x, y, t) -> (npts, 2)


def _stacked(entries, n_terms: int, shape):
    """Callback (x, y) -> (npts, n_terms) + shape from ``entries(x, y)``,
    the list of all entries of all terms, term by term and row-major within
    a term.  An entry that does not depend on the point is broadcast."""
    size = n_terms * prod(shape)

    def g(x, y):
        x = np.asarray(x, dtype=float)
        out = np.empty((x.size, n_terms) + shape)
        flat = out.reshape(x.size, size)
        for k, val in enumerate(entries(x, np.asarray(y, dtype=float))):
            flat[:, k] = val
        return out

    return g


def _solution(mu: float, coefficients: tuple, sigma, source, div) -> ManufacturedSolution:
    """The solution and data of sigma = sum_j a_j(t) S_j(x, y), from the
    entries of its terms: ``sigma``, ``source`` and ``div`` are the entry
    callbacks of ``_stacked`` for S_j (2 x 2), the source terms (2 x 2) and
    the divergence terms (2), one term per time factor a_j of
    ``coefficients``."""
    n_terms = len(coefficients)
    sigma_terms = _stacked(sigma, n_terms, (2, 2))

    def neumann(x, y, nx, ny):
        n = np.column_stack([np.broadcast_to(nx, np.shape(x)),
                             np.broadcast_to(ny, np.shape(x))])
        return np.einsum("qjrc,qc->qjr", sigma_terms(x, y), n)

    terms = DataTerms(coefficients=coefficients,
                      source=_stacked(source, n_terms, (2, 2)),
                      dirichlet=_stacked(div, n_terms, (2,)),
                      neumann=neumann)
    exact = lambda x, y, t: _at(coefficients, t, sigma_terms(x, y))
    data = ProblemData(terms=terms, sigma0=lambda x, y: exact(x, y, 0.0), mu=mu)
    return ManufacturedSolution(data, exact, data.dirichlet)


def manufacture(sigma_expr, mu: float = 1.0) -> ManufacturedSolution:
    """Derive source and boundary data from an exact pseudo-stress tensor.

    Given sigma(x, y, t) as a 2x2 sympy Matrix in the symbols x, y and t
    (``sympy.symbols("x y t")``), the source is
    mu^-1 d/dt dev(sigma) - grad(div sigma), the Dirichlet datum is
    div sigma, the traction datum is sigma.n, and the initial field is
    sigma at t = 0.  Every entry of sigma must expand to a sum of terms
    a(t) g(x, y) (``sympy.expand``, then ``as_independent(t)`` per term);
    sin(x t), say, raises ValueError naming the entry.  The terms of the
    three data are grouped by their time factors a_j, in sympy's default
    sort order of the factors; a factor without a term in some datum gives
    zeros there.  All entries of all terms of one datum are lambdified
    together, with their common subexpressions (the sin, cos and exp shared
    by the entries) evaluated once per call.
    """
    import sympy as sp

    X, Y, T = sp.symbols("x y t")

    def split(mat, name):
        """{time factor: time-free Matrix} for the expanded entries of mat,
        each additive term grouped by its T-dependent factor.  A term whose
        factor still holds x or y raises ValueError naming the entry."""
        parts = {}
        for k, entry in enumerate(mat):
            for term in sp.Add.make_args(sp.expand(entry)):
                if term == 0:
                    continue
                free, factor = term.as_independent(T, as_Add=False)
                if factor.free_symbols & {X, Y}:
                    index = divmod(k, mat.shape[1]) if mat.shape[1] > 1 else (k,)
                    raise ValueError(
                        f"{name}{list(index)} = {entry} is not a sum of terms a(t) g(x, y): "
                        f"its term {term} has the time factor {factor}")
                parts.setdefault(factor, sp.zeros(*mat.shape))[k] += free
        return parts

    sigma_expr = sp.Matrix(sigma_expr)
    sigma_parts = split(sigma_expr, "sigma")
    dev = sigma_expr - sp.Rational(1, 2) * sigma_expr.trace() * sp.eye(2)
    div = sp.Matrix([sigma_expr[r, 0].diff(X) + sigma_expr[r, 1].diff(Y)
                     for r in range(2)])
    grad_div = sp.Matrix([[div[r].diff(X), div[r].diff(Y)] for r in range(2)])
    source_parts = split(dev.diff(T) / mu - grad_div, "source")
    div_parts = split(div, "div sigma")

    factors = sorted(set(source_parts) | set(div_parts) | set(sigma_parts),
                     key=sp.default_sort_key)

    def entries(parts, rows, cols):
        """The numpy callback (x, y) -> the entries of the terms of
        ``parts``, one term per factor.  The generated function gets no
        docstring: printing the expressions into it took about 40% of the
        lambdify time."""
        flat = [e for a in factors for e in parts.get(a, sp.zeros(rows, cols))]
        return sp.lambdify((X, Y), flat, modules="numpy", cse=True, docstring_limit=0)

    return _solution(
        mu, tuple(sp.lambdify(T, a, modules="numpy", docstring_limit=0) for a in factors),
        entries(sigma_parts, 2, 2), entries(source_parts, 2, 2), entries(div_parts, 2, 1))


def _sin_cos_pi(x, y):
    """sin(pi x), cos(pi x), sin(pi y), cos(pi y)."""
    px, py = np.pi * x, np.pi * y
    return np.sin(px), np.cos(px), np.sin(py), np.cos(py)


def trig_solution(mu: float = 1.0) -> ManufacturedSolution:
    """Smooth non-polynomial field for spatial convergence studies:
    sigma = (1 + t/2) S(x, y) with
    S = [[sin(pi x) cos(pi y), x^2 y + sin(pi y)],
         [cos(pi x) sin(pi y), x y^2 + cos(pi x)]],
    in two terms, with the time factors 1 and t.

    The t terms of sigma and of div sigma are the time-free ones halved,
    which is exact in binary.  The source is -grad(div S) in both terms,
    halved in the t term, plus d/dt dev(sigma) / mu = dev(S) / (2 mu) in
    the time-free term only; ``dev11`` is its entry (S11 - S00) / (4 mu).
    """
    inv = 1 / mu
    half, quarter = 0.5 * inv, 0.25 * inv
    pi2 = np.pi**2

    def sigma(x, y):
        sx, cx, sy, cy = _sin_cos_pi(x, y)
        s = [sx * cy, x**2 * y + sy, cx * sy, x * y**2 + cx]
        return s + [0.5 * e for e in s]

    def source(x, y):
        sx, cx, sy, cy = _sin_cos_pi(x, y)
        dev11 = quarter * x * y**2 + quarter * cx - quarter * (sx * cy)
        half_sy, pi2_sy = half * sy, pi2 * sy
        pi2_sy_cx = pi2_sy * cx
        t_diagonal = -x + 0.5 * pi2 * sx * cy
        return [-2 * x + pi2 * sx * cy - dev11,
                half * x**2 * y + half_sy + pi2_sy + pi2_sy_cx,
                half_sy * cx + pi2_sy_cx - 2 * y,
                -2 * x + pi2 * (sx * cy) + dev11,
                t_diagonal, 0.5 * pi2_sy + 0.5 * pi2_sy_cx,
                0.5 * pi2 * cx * sy - y, t_diagonal]

    def div(x, y):
        sx, cx, sy, cy = _sin_cos_pi(x, y)
        d = [x**2 + np.pi * cy + np.pi * cy * cx, 2 * x * y - np.pi * sy * sx]
        return d + [0.5 * e for e in d]

    return _solution(mu, (lambda t: 1, lambda t: t), sigma, source, div)


def linear_in_space_solution(mu: float = 1.0) -> ManufacturedSolution:
    """Degree-1 polynomial in space with an exponential time factor,
    sigma = exp(t) [[1 + 2x - y, x + y], [x - y, 1 - x + 2y]], in one term;
    the spatial discretisation reproduces it exactly, isolating the time
    error.  Its source is dev(sigma) / mu, and its divergence (3, 3)."""
    inv = 1 / mu
    three_halves = 1.5 * inv

    def sigma(x, y):
        return [2 * x - y + 1, x + y, x - y, -x + 2 * y + 1]

    def source(x, y):
        diagonal = three_halves * x - three_halves * y
        return [diagonal, inv * x + inv * y, inv * x - inv * y, -diagonal]

    return _solution(mu, (np.exp,), sigma, source, lambda x, y: [3, 3])


def zero_data(mu: float = 1.0) -> ProblemData:
    """Data of the unforced problem: sigma = 0, with no terms."""
    none = lambda x, y: []
    return _solution(mu, (), none, none, none).data


NAMED_SOLUTIONS = {
    "trig": trig_solution,
    "linear_in_space": linear_in_space_solution,
}
