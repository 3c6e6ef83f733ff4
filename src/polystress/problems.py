"""Problem data for the pseudo-stress formulation, and manufactured solutions.

The unknown is the pseudo-stress tensor sigma = mu grad(u) - p I.  Boundary
data prescribe the row-wise divergence of sigma on the Dirichlet part and
the traction sigma.n on the Neumann part.  Manufactured solutions are
derived symbolically from a sympy expression for sigma(x, y, t); sigma, its
divergence and the source each become one numpy callback that evaluates
all entries together, sharing their common subexpressions.  The traction
and the initial field are evaluated through the sigma callback.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp

X, Y, T = sp.symbols("x y t")


@dataclass
class ProblemData:
    """Callable data of the evolution problem.

    source(x, y, t) -> (npts, 2, 2): tensor source term
    dirichlet(x, y, t) -> (npts, 2): prescribed divergence on the Dirichlet boundary
    neumann(x, y, t, nx, ny) -> (npts, 2): prescribed traction on the Neumann
        boundary; the normal components nx, ny are scalars or per-point arrays
    sigma0(x, y) -> (npts, 2, 2): initial pseudo-stress field
    mu: viscosity (> 0)

    The point arrays (and per-point normals) passed to the callbacks by
    ``functional_vector`` and ``l2_project`` are read-only, since the same
    arrays are reused on every call: the load vector's basis tables are
    computed once per space.
    """

    source: callable
    dirichlet: callable
    neumann: callable
    sigma0: callable
    mu: float = 1.0


def _lambdify(mat):
    """Vectorised callback (x, y, t) -> (npts,) + mat.shape for a sympy
    Matrix.  All entries are lambdified together, with common
    subexpressions (the sin, cos and exp shared by the entries) evaluated
    once per call; entries that do not depend on the point are broadcast."""
    f = sp.lambdify((X, Y, T), list(mat), modules="numpy", cse=True)
    shape = mat.shape[:1] if mat.shape[1] == 1 else mat.shape

    def g(x, y, t):
        x = np.asarray(x, dtype=float)
        out = np.empty((x.size,) + shape)
        flat = out.reshape(x.size, -1)
        for k, val in enumerate(f(x, np.asarray(y, dtype=float), t)):
            flat[:, k] = val
        return out

    return g


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
    sigma at t = 0.
    """
    sigma_expr = sp.Matrix(sigma_expr)
    dev = sigma_expr - sp.Rational(1, 2) * sigma_expr.trace() * sp.eye(2)
    div = sp.Matrix([sigma_expr[r, 0].diff(X) + sigma_expr[r, 1].diff(Y)
                     for r in range(2)])
    grad_div = sp.Matrix([[div[r].diff(X), div[r].diff(Y)] for r in range(2)])
    source_expr = dev.diff(T) / mu - grad_div

    sigma_fun = _lambdify(sigma_expr)
    div_fun = _lambdify(div)
    source_fun = _lambdify(source_expr)

    def neumann(x, y, t, nx, ny):
        vals = sigma_fun(x, y, t)
        n = np.column_stack([np.broadcast_to(nx, np.shape(x)),
                             np.broadcast_to(ny, np.shape(x))])
        return np.einsum("qrc,qc->qr", vals, n)

    data = ProblemData(
        source=source_fun,
        dirichlet=div_fun,
        neumann=neumann,
        sigma0=lambda x, y: sigma_fun(x, y, 0.0),
        mu=mu,
    )
    return ManufacturedSolution(data, sigma_fun, div_fun)


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
