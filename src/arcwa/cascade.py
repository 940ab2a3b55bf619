"""Scattering-matrix algebra: basis reprojection and Redheffer composition.

Neighbouring sections carry their own modal bases, so before two section
matrices can be composed, the right one is re-expressed in the left one's
basis. Tangential-field continuity at the shared plane gives the coupling
matrices

    X = (W_i^-1 W_{i-1} + V_i^-1 V_{i-1}) / 2,
    Y = (W_i^-1 W_{i-1} - V_i^-1 V_{i-1}) / 2,

which map old-basis coefficients (a', b') to new ones via a = X a' + Y b',
b = Y a' + X b'. Substituting into the scattering relations yields the
reprojection recipe implemented by ``project_left``. Composition itself is
the standard Redheffer star product; it refuses to combine matrices whose
shared-plane basis ids disagree, as that is always a caller bug.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError, ProjectionBreakdownError, ResonanceError
from .modal import ModalBasis
from .numerics import checked_solve
from .sections import ScatteringMatrix


@dataclass(frozen=True)
class ProjectionPair:
    """Coupling blocks X, Y of one interface change of basis."""

    X: np.ndarray
    Y: np.ndarray


def projection_pair(from_basis: ModalBasis, to_basis: ModalBasis) -> ProjectionPair:
    """Coupling matrices taking ``from_basis`` coefficients to ``to_basis``.

    ``to_basis`` plays the role of the section being reprojected (basis i),
    ``from_basis`` its left neighbour (basis i-1). Both bases passed the
    cond(W) and cond(V) guards when ``eigen_basis`` built them.
    """
    if from_basis.n != to_basis.n:
        raise ValueError(f"basis dimensions differ: {from_basis.n} vs {to_basis.n}")
    ww = to_basis.W_inv @ from_basis.W
    vv = to_basis.V_inv @ from_basis.V
    return ProjectionPair(X=(ww + vv) / 2.0, Y=(ww - vv) / 2.0)


def project_left(
    smat: ScatteringMatrix, pp: ProjectionPair, new_left_basis_id: int
) -> ScatteringMatrix:
    """Re-express the left side of a scattering matrix in a neighbour basis.

    The caller guarantees that ``smat.left_basis_id`` corresponds to the
    projection pair's target (section i) basis. The right side is
    untouched.
    """
    x, y = pp.X, pp.Y
    lead = x - smat.R_L @ y
    # One guarded factorization of lead serves both right-hand sides.
    rhs = np.hstack((-(y - smat.R_L @ x), smat.T_RL))
    solved = checked_solve(lead, rhs, ProjectionBreakdownError, "interface projection (X - R_L Y)")
    r_l, t_rl = solved[:, : smat.n], solved[:, smat.n :]
    t_lr_y = smat.T_LR @ y
    t_lr = smat.T_LR @ x + t_lr_y @ r_l
    r_r = t_lr_y @ t_rl + smat.R_R
    return ScatteringMatrix(
        T_LR=t_lr,
        R_R=r_r,
        R_L=r_l,
        T_RL=t_rl,
        left_basis_id=new_left_basis_id,
        right_basis_id=smat.right_basis_id,
    )


def star(s_left: ScatteringMatrix, s_right: ScatteringMatrix) -> ScatteringMatrix:
    """Redheffer star product of two scattering matrices sharing a plane.

    Requires s_left.right_basis_id == s_right.left_basis_id; project first
    if the sections were solved in different bases.
    """
    if s_left.right_basis_id != s_right.left_basis_id:
        raise BasisMismatchError(
            f"cannot compose: left matrix ends in basis {s_left.right_basis_id}, "
            f"right matrix starts in basis {s_right.left_basis_id}"
        )
    if s_left.n != s_right.n:
        raise ValueError(f"block sizes differ: {s_left.n} vs {s_right.n}")
    eye = np.eye(s_left.n, dtype=np.complex128)
    g = checked_solve(eye - s_left.R_R @ s_right.R_L, eye, ResonanceError, "Redheffer (I - R_R R_L)")
    h = checked_solve(eye - s_right.R_L @ s_left.R_R, eye, ResonanceError, "Redheffer (I - R_L R_R)")
    return ScatteringMatrix(
        T_LR=s_right.T_LR @ g @ s_left.T_LR,
        R_R=s_right.R_R + s_right.T_LR @ s_left.R_R @ h @ s_right.T_RL,
        R_L=s_left.R_L + s_left.T_RL @ s_right.R_L @ g @ s_left.T_LR,
        T_RL=s_left.T_RL @ h @ s_right.T_RL,
        left_basis_id=s_left.left_basis_id,
        right_basis_id=s_right.right_basis_id,
    )
