"""Implicit Euler integration of the semi-discrete system and energy-norm
error measurement.

The mass operator is singular (the trace directions carry no dynamics), so
only the implicit method is admissible; the step operator M + dt A and any
preconditioner or deflator are factorised once and reused across steps.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import (DEFAULT_ALPHA, SystemMatrices, _face_batch,
                       assemble_rhs, assemble_system, build_system)
from .dg_space import COMPONENTS, DGSpace, l2_project, polygon_rules
from .krylov import (LAYOUT_COLLECTIVE, LAYOUT_COMPONENT, SolverConfig,
                     build_block_jacobi, build_deflator, cg, deflated_cg, pcg)
from .mesh import FaceKind
from .problems import ProblemData

SOLVER_NAMES = ("cg", "dcg", "pcg-bj", "pcg-cbj")


class TimeStepError(RuntimeError):
    def __init__(self, step: int, message: str):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class TimeConfig:
    """Uniform implicit Euler grid: n_steps = round(T/dt) must tile [0, T]."""

    dt: float
    t_final: float

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_final <= 0.0:
            raise ValueError("t_final must be positive")
        n = round(self.t_final / self.dt)
        if n < 1 or abs(n * self.dt - self.t_final) > 1e-12 * max(self.t_final, 1.0):
            raise ValueError("dt must divide the final time")

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)

    @property
    def theta(self) -> float:
        return 1.0  # implicit Euler only

    @classmethod
    def from_steps(cls, n_steps: int, dt: float) -> "TimeConfig":
        return cls(dt=dt, t_final=n_steps * dt)

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


def make_stepper(space: DGSpace, system: SystemMatrices, dt: float,
                 solver: str, config: SolverConfig):
    """Bind a per-step solve callable; all factorisations happen here, once."""
    astar = build_system(system.m, system.a, dt)
    if solver == "cg":
        return astar, lambda b, x0: cg(astar, b, config, x0=x0)
    if solver == "dcg":
        deflator = build_deflator(system, dt, astar=astar)
        return astar, lambda b, x0: deflated_cg(astar, b, deflator, config, x0=x0)
    if solver in ("pcg-bj", "pcg-cbj"):
        layout = LAYOUT_COMPONENT if solver == "pcg-bj" else LAYOUT_COLLECTIVE
        precond = build_block_jacobi(astar, space, layout)
        return astar, lambda b, x0: pcg(astar, b, precond, config, x0=x0)
    raise ValueError(f"unknown solver {solver!r}; choose from {SOLVER_NAMES}")


def implicit_euler_run(space: DGSpace, data: ProblemData, time: TimeConfig,
                       solver: str = "cg", config: SolverConfig | None = None,
                       alpha: float = DEFAULT_ALPHA,
                       system: SystemMatrices | None = None,
                       log_path=None):
    """March the fully discrete system over [0, T].

    Returns the final dof vector and the per-step solver reports.  A given
    ``system`` must have been assembled with ``alpha`` and ``data.mu``
    (ValueError otherwise).  A step whose linear solve does not converge
    aborts with TimeStepError carrying the step index.  ``log_path``
    receives one CSV row per step (``step,time,iterations,residual,wall_s,
    true_residual``), including the failing step's row when one aborts the
    run.
    """
    config = config or SolverConfig()
    if system is None:
        system = assemble_system(space, data.mu, alpha)
    elif system.alpha != alpha:
        raise ValueError(f"system assembled with alpha = {system.alpha:g}, "
                         f"but the run has alpha = {alpha:g}")
    elif system.mu != data.mu:
        raise ValueError(f"system assembled with mu = {system.mu:g}, "
                         f"but the problem data have mu = {data.mu:g}")
    _, step_solve = make_stepper(space, system, time.dt, solver, config)

    sigma = l2_project(space, data.sigma0)
    reports = []
    failure = None
    for n in range(time.n_steps):
        t_next = (n + 1) * time.dt
        rhs = assemble_rhs(space, data, t_next, sigma, time.dt, system)
        sigma_next, report = step_solve(rhs, sigma)
        reports.append(report)
        if not report.converged:
            failure = TimeStepError(n, f"linear solver failed to converge at step {n} "
                                       f"(t = {t_next:g}, residual {report.final_residual:.3e})")
            break
        sigma = sigma_next

    if log_path is not None:
        with open(log_path, "w") as fh:
            fh.write("step,time,iterations,residual,wall_s,true_residual\n")
            for n, rep in enumerate(reports):
                fh.write(f"{n + 1},{(n + 1) * time.dt:.16e},{rep.iterations},"
                         f"{rep.final_residual:.16e},{rep.wall_time:.6e},"
                         f"{rep.true_residual:.16e}\n")
    if failure is not None:
        raise failure
    return sigma, reports


class EnergyNorm:
    """DG energy norm: deviatoric L2 part, broken divergence part and
    penalised jumps over interior and Neumann faces.

    Error evaluation uses quadrature two degrees beyond the assembly rules
    to keep the reported convergence slopes free of quadrature artefacts;
    the fine rules are built once, batched like the assembly rules (elements
    by quadrature size, faces by kind on one Gauss rule).
    """

    def __init__(self, space: DGSpace, alpha: float = DEFAULT_ALPHA):
        self.space = space
        self.alpha = alpha
        self.fine_degree = 2 * (space.degree + 2) + 1
        mesh = space.mesh
        self._element_batches = polygon_rules(
            [mesh.element_points(e) for e in range(mesh.n_elements)], self.fine_degree)
        self._face_batches = [_face_batch(space, kind, alpha, self.fine_degree)
                              for kind in (FaceKind.INTERIOR, FaceKind.NEUMANN)]

    @staticmethod
    def _dev_sq(t):
        d00 = 0.5 * (t[..., 0, 0] - t[..., 1, 1])
        return d00 ** 2 + t[..., 0, 1] ** 2 + t[..., 1, 0] ** 2 + d00 ** 2

    def error(self, dofs: np.ndarray, exact=None, t: float = 0.0) -> float:
        """Energy norm of (sigma_h - exact); of sigma_h itself when exact is
        None.  ``exact`` provides sigma(x, y, t) and div_sigma(x, y, t)."""
        space = self.space
        # coef[e, i, r, d]: coefficient of basis function i in component (r, d)
        coef = dofs.reshape(len(COMPONENTS), space.n_elements, space.local_dim)
        coef = coef.transpose(1, 2, 0).reshape(space.n_elements, space.local_dim, 2, 2)

        def sigma_error(elements, pts):
            """sigma_h - exact (sigma_h when exact is None) of the given
            elements at points (n, nq, 2), and the basis gradients there."""
            phi, grad = space.evaluate(elements[:, None], pts)
            field = np.einsum("nqi,nird->nqrd", phi, coef[elements])
            if exact is not None:
                x, y = pts[..., 0].ravel(), pts[..., 1].ravel()
                field = field - exact.sigma(x, y, t).reshape(field.shape)
            return field, grad

        total = 0.0
        for batch in self._element_batches:
            field, grad = sigma_error(batch.elements, batch.points)
            div = np.einsum("nqid,nird->nqr", grad, coef[batch.elements])
            if exact is not None:
                pts = batch.points.reshape(-1, 2)
                div = div - exact.div_sigma(pts[:, 0], pts[:, 1], t).reshape(div.shape)
            total += float(np.sum(batch.weights * (self._dev_sq(field)
                                                   + (div ** 2).sum(axis=-1))))

        for fb in self._face_batches:
            if not len(fb.plus):
                continue
            jump = np.einsum("fqrc,fc->fqr", sigma_error(fb.plus, fb.points)[0], fb.normals)
            if fb.minus is not None:
                jump = jump - np.einsum("fqrc,fc->fqr", sigma_error(fb.minus, fb.points)[0],
                                        fb.normals)
            total += float(np.sum(fb.gamma[:, None] * fb.weights * (jump ** 2).sum(axis=-1)))
        return float(np.sqrt(total))


def energy_error(space: DGSpace, dofs: np.ndarray, exact, t: float,
                 alpha: float = DEFAULT_ALPHA) -> float:
    """One-shot energy-norm error; build an EnergyNorm to amortise the fine
    quadrature over repeated calls."""
    return EnergyNorm(space, alpha).error(dofs, exact, t)


def mass_energy(system: SystemMatrices, dofs: np.ndarray) -> float:
    """Discrete deviatoric energy <M sigma, sigma>; non-increasing across
    unforced implicit Euler steps."""
    return float(dofs @ (system.m @ dofs))
