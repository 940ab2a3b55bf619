"""Semi-analytical scattering matrices for structures with varying cross-sections.

The package computes scattering matrices of photonic structures on a
periodic transverse domain whose permittivity profile changes along the
propagation axis. Conventional constant-cross-section cascades are
available as a baseline; the main solver corrects each section to first
order in the cross-sectional variation and adaptively subdivides the
structure until a per-section error estimate meets a user bound.
"""

from .cascade import project_left, projection_pair, star
from .checks import airy_slab_coefficients, run_checks
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
from .geometry import (
    MaterialRegion,
    PermittivitySlice,
    Polarization,
    StructureSpec,
    parse_structure,
    slice_at,
)
from .harness import SweepRecord, max_norm_difference, run_sweep, write_smatrix_csv, write_sweep_csv
from .modal import (
    ModalBasis,
    WaveState,
    eigen_basis,
    mode_coefficients,
    propagation_factor,
    reconstruct_fields,
)
from .operators import OperatorPair, assemble_operators
from .sections import ScatteringMatrix, SectionResult, zeroth_order_smatrix
from .solver import (
    SolveReport,
    SolverConfig,
    port_bases,
    solve_adaptive,
    solve_uniform,
)

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
    "OperatorPair",
    "PermittivitySlice",
    "Polarization",
    "ProjectionBreakdownError",
    "ResonanceError",
    "ScatteringMatrix",
    "SectionResult",
    "SingularOperatorError",
    "SolveReport",
    "SolverConfig",
    "SpecSemanticError",
    "SpecSyntaxError",
    "StructureError",
    "StructureSpec",
    "SweepRecord",
    "WaveState",
    "airy_slab_coefficients",
    "assemble_operators",
    "eigen_basis",
    "max_norm_difference",
    "mode_coefficients",
    "parse_structure",
    "port_bases",
    "project_left",
    "projection_pair",
    "propagation_factor",
    "reconstruct_fields",
    "run_checks",
    "run_sweep",
    "slice_at",
    "solve_adaptive",
    "solve_uniform",
    "star",
    "write_smatrix_csv",
    "write_sweep_csv",
    "zeroth_order_smatrix",
]
