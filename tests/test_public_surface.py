"""The package's public surface: the exported names and the solver's knobs."""

from dataclasses import fields

import arcwa

PUBLIC_NAMES = [
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


def test_public_names_are_pinned_and_resolve():
    """A name joins or leaves ``__all__`` only together with this list."""
    assert sorted(arcwa.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(arcwa, name) is not None


def test_solver_config_holds_only_the_user_knobs():
    assert [f.name for f in fields(arcwa.SolverConfig)] == ["alpha", "order"]
