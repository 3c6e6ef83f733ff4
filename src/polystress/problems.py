"""Problem data for the pseudo-stress formulation, and manufactured solutions.

The unknown is the pseudo-stress tensor sigma = mu grad(u) - p I.  Boundary
data prescribe the row-wise divergence of sigma on the Dirichlet part and
the traction sigma.n on the Neumann part.  The data are sums of terms
a_j(t) d_j(x, y), one per time factor a_j, so that a load vector is a
combination of time-free vectors built once (``assembly.load_terms``).

Manufactured solutions are derived symbolically from a sympy expression
for sigma(x, y, t), which must be separable term by term: the expanded
source, divergence and sigma are grouped by the time factor of each
additive term.  The time-free parts of all terms of one datum become one
numpy callback that evaluates every entry of every term together, sharing
their common subexpressions.  sigma itself, for the initial field and the
error norms, is summed from the terms of the traction, and its divergence
is the Dirichlet datum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp

X, Y, T = sp.symbols("x y t")


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

    ``source``, ``dirichlet`` and ``neumann`` evaluate the data at one time
    from the terms, so they are the data the load vector integrates.  The
    point arrays (and per-point normals) passed to the callbacks by
    ``assembly.load_terms`` and ``l2_project`` are read-only, since the same
    arrays are reused on every call: the load vector's basis tables are
    computed once per space.
    """

    terms: DataTerms
    sigma0: callable
    mu: float = 1.0

    def source(self, x, y, t) -> np.ndarray:
        """(npts, 2, 2): tensor source term at time t."""
        return _at(self.terms.coefficients, t, self.terms.source(x, y))

    def dirichlet(self, x, y, t) -> np.ndarray:
        """(npts, 2): prescribed divergence on the Dirichlet boundary."""
        return _at(self.terms.coefficients, t, self.terms.dirichlet(x, y))

    def neumann(self, x, y, t, nx, ny) -> np.ndarray:
        """(npts, 2): prescribed traction on the Neumann boundary."""
        return _at(self.terms.coefficients, t, self.terms.neumann(x, y, nx, ny))


def _at(coefficients, t, values):
    """A field at time t from the values (npts, J, ...) of its J terms."""
    return sum_terms(zip(coefficients, values.swapaxes(0, 1)), t,
                     values.shape[:1] + values.shape[2:])


def _lambdify(mats, shape):
    """Vectorised callback (x, y) -> (npts, len(mats)) + shape for sympy
    Matrices in x and y whose entries fill ``shape``.  All entries of all matrices are
    lambdified together, with common subexpressions (the sin, cos and exp
    shared by the entries) evaluated once per call; entries that do not
    depend on the point are broadcast.  The generated function gets no
    docstring: printing the expressions into it took about 40% of the
    lambdify time."""
    entries = [e for mat in mats for e in mat]
    f = sp.lambdify((X, Y), entries, modules="numpy", cse=True, docstring_limit=0)

    def g(x, y):
        x = np.asarray(x, dtype=float)
        out = np.empty((x.size, len(mats)) + shape)
        flat = out.reshape(x.size, len(entries))
        for k, val in enumerate(f(x, np.asarray(y, dtype=float))):
            flat[:, k] = val
        return out

    return g


def _split(mat: sp.Matrix, name: str) -> dict:
    """{time factor: time-free Matrix} for the expanded entries of mat, each
    additive term grouped by its T-dependent factor.  A term whose factor
    still holds x or y raises ValueError naming the entry."""
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


@dataclass
class ManufacturedSolution:
    """Exact solution plus the problem data it manufactures."""

    data: ProblemData
    sigma: callable        # (x, y, t) -> (npts, 2, 2)
    div_sigma: callable    # (x, y, t) -> (npts, 2)


def manufacture(sigma_expr: sp.Matrix, mu: float = 1.0) -> ManufacturedSolution:
    """Derive source and boundary data from an exact pseudo-stress tensor.

    Given sigma(x, y, t) as a 2x2 sympy Matrix, the source is
    mu^-1 d/dt dev(sigma) - grad(div sigma), the Dirichlet datum is
    div sigma, the traction datum is sigma.n, and the initial field is
    sigma at t = 0.  Every entry of sigma must expand to a sum of terms
    a(t) g(x, y) (``sympy.expand``, then ``as_independent(t)`` per term);
    sin(x t), say, raises ValueError naming the entry.  The terms of the
    three data are grouped by their time factors a_j, in sympy's default
    sort order of the factors; a factor without a term in some datum gives
    zeros there.
    """
    sigma_expr = sp.Matrix(sigma_expr)
    sigma_parts = _split(sigma_expr, "sigma")
    dev = sigma_expr - sp.Rational(1, 2) * sigma_expr.trace() * sp.eye(2)
    div = sp.Matrix([sigma_expr[r, 0].diff(X) + sigma_expr[r, 1].diff(Y)
                     for r in range(2)])
    grad_div = sp.Matrix([[div[r].diff(X), div[r].diff(Y)] for r in range(2)])
    source_parts = _split(dev.diff(T) / mu - grad_div, "source")
    div_parts = _split(div, "div sigma")

    factors = sorted(set(source_parts) | set(div_parts) | set(sigma_parts),
                     key=sp.default_sort_key)
    pick = lambda parts, rows, cols: [parts.get(a, sp.zeros(rows, cols)) for a in factors]
    sigma_terms = _lambdify(pick(sigma_parts, 2, 2), (2, 2))

    def neumann(x, y, nx, ny):
        n = np.column_stack([np.broadcast_to(nx, np.shape(x)),
                             np.broadcast_to(ny, np.shape(x))])
        return np.einsum("qjrc,qc->qjr", sigma_terms(x, y), n)

    terms = DataTerms(
        coefficients=tuple(sp.lambdify(T, a, modules="numpy", docstring_limit=0)
                           for a in factors),
        source=_lambdify(pick(source_parts, 2, 2), (2, 2)),
        dirichlet=_lambdify(pick(div_parts, 2, 1), (2,)),
        neumann=neumann,
    )
    sigma = lambda x, y, t: _at(terms.coefficients, t, sigma_terms(x, y))
    data = ProblemData(terms=terms, sigma0=lambda x, y: sigma(x, y, 0.0), mu=mu)
    return ManufacturedSolution(data, sigma, data.dirichlet)


def trig_solution(mu: float = 1.0) -> ManufacturedSolution:
    """Smooth non-polynomial field for spatial convergence studies."""
    g = 1 + T / 2
    expr = g * sp.Matrix([
        [sp.sin(sp.pi * X) * sp.cos(sp.pi * Y), X**2 * Y + sp.sin(sp.pi * Y)],
        [sp.cos(sp.pi * X) * sp.sin(sp.pi * Y), X * Y**2 + sp.cos(sp.pi * X)],
    ])
    return manufacture(expr, mu=mu)


def linear_in_space_solution(mu: float = 1.0) -> ManufacturedSolution:
    """Degree-1 polynomial in space with an exponential time factor; the
    spatial discretisation reproduces it exactly, isolating the time error."""
    expr = sp.exp(T) * sp.Matrix([
        [1 + 2 * X - Y, X + Y],
        [X - Y, 1 - X + 2 * Y],
    ])
    return manufacture(expr, mu=mu)


def zero_data(mu: float = 1.0) -> ProblemData:
    """Data of the unforced problem: sigma = 0, manufactured."""
    return manufacture(sp.zeros(2, 2), mu).data


NAMED_SOLUTIONS = {
    "trig": trig_solution,
    "linear_in_space": linear_in_space_solution,
}
