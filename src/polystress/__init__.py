"""PolyDG discretisation of the pseudo-stress unsteady Stokes problem with
time-step-robust algebraic solvers."""

from .assembly import (DEFAULT_ALPHA, SystemMatrices, assemble_mass,
                       assemble_rhs, assemble_stiffness, assemble_system,
                       build_system, export_matrices, kron_structure_check,
                       penalty)
from .dg_space import (DGSpace, QuadratureRule, build_space,
                       element_quadrature, face_quadrature, l2_project)
from .krylov import (BlockJacobi, CondEstimate, Deflator, SolverConfig,
                     SolverReport, build_block_jacobi, build_deflator, cg,
                     deflated_cg, estimate_condition_number, pcg)
from .mesh import (Face, FaceKind, MeshError, PolyMesh, agglomerate,
                   build_cartesian_mesh, classify_boundary, read_mesh,
                   write_mesh)
from .problems import (ManufacturedSolution, ProblemData,
                       linear_in_space_solution, manufacture, trig_solution,
                       zero_data)
from .timestepper import (EnergyNorm, TimeConfig, TimeStepError,
                          energy_error, implicit_euler_run)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ALPHA", "SystemMatrices", "assemble_mass", "assemble_rhs",
    "assemble_stiffness", "assemble_system", "build_system",
    "export_matrices", "kron_structure_check", "penalty",
    "DGSpace", "QuadratureRule", "build_space", "element_quadrature",
    "face_quadrature", "l2_project",
    "BlockJacobi", "CondEstimate", "Deflator", "SolverConfig", "SolverReport",
    "build_block_jacobi", "build_deflator", "cg", "deflated_cg",
    "estimate_condition_number", "pcg",
    "Face", "FaceKind", "MeshError", "PolyMesh", "agglomerate",
    "build_cartesian_mesh", "classify_boundary", "read_mesh", "write_mesh",
    "ManufacturedSolution", "ProblemData", "linear_in_space_solution",
    "manufacture", "trig_solution", "zero_data",
    "EnergyNorm", "TimeConfig", "TimeStepError", "energy_error",
    "implicit_euler_run",
    "__version__",
]
