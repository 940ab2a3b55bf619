"""Semi-analytical scattering matrices for structures with varying cross-sections.

The package computes scattering matrices of photonic structures on a
periodic transverse domain whose permittivity profile changes along the
propagation axis. Conventional constant-cross-section cascades are
available as a baseline; the main solver corrects each section to first
order in the cross-sectional variation and adaptively subdivides the
structure until a per-section error estimate meets a user bound.
"""

from .errors import (
    ArcwaError,
    BasisMismatchError,
    CutoffModeError,
    EigendecompositionError,
    MaxDepthExceededError,
    NearDefectiveBasisError,
    NumericalError,
    ProjectionBreakdownError,
    ResonanceError,
    SingularOperatorError,
    SpecSemanticError,
    SpecSyntaxError,
    StructureError,
)
from .geometry import MaterialRegion, Polarization, StructureSpec, parse_structure
from .harness import SweepRecord, max_norm_difference, run_sweep, write_smatrix_csv, write_sweep_csv
from .modal import ModalBasis, WaveState, mode_coefficients, reconstruct_fields
from .sections import ScatteringMatrix
from .solver import SolveReport, SolverConfig, port_bases, solve_adaptive, solve_uniform

__version__ = "0.1.0"

__all__ = [
    "ArcwaError",
    "BasisMismatchError",
    "CutoffModeError",
    "EigendecompositionError",
    "MaterialRegion",
    "MaxDepthExceededError",
    "ModalBasis",
    "NearDefectiveBasisError",
    "NumericalError",
    "Polarization",
    "ProjectionBreakdownError",
    "ResonanceError",
    "ScatteringMatrix",
    "SingularOperatorError",
    "SolveReport",
    "SolverConfig",
    "SpecSemanticError",
    "SpecSyntaxError",
    "StructureError",
    "StructureSpec",
    "SweepRecord",
    "WaveState",
    "max_norm_difference",
    "mode_coefficients",
    "parse_structure",
    "port_bases",
    "reconstruct_fields",
    "run_sweep",
    "solve_adaptive",
    "solve_uniform",
    "write_smatrix_csv",
    "write_sweep_csv",
]
