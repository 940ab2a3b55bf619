"""Scattering-matrix algebra: basis reprojection and Redheffer composition.

Neighbouring sections carry their own modal bases. Tangential-field
continuity at the shared plane gives the coupling matrices

    X = (W_i^-1 W_{i-1} + V_i^-1 V_{i-1}) / 2,
    Y = (W_i^-1 W_{i-1} - V_i^-1 V_{i-1}) / 2,

which map old-basis coefficients (a', b') to new ones via a = X a' + Y b',
b = Y a' + X b'.

``join`` composes a left matrix S' (ending in basis i-1) with a right
one S (starting in basis i) straight from those equations. The left
matrix sends a' = T_LR' a_L + R_R' b' into the plane, so in basis i the
right matrix sees

    a = K a_L + G b',    b = Y T_LR' a_L + H b',
    K = X T_LR',    G = Y + X R_R',    H = X + Y R_R',

and its reflection b = R_L a + T_RL b_R fixes the wave b' that crosses
back, for incidence from either side at once:

    L [B_a | B_b] = [R_L K - Y T_LR' | T_RL],    L = H - R_L G.

That is one guarded inverse of L, applied to the 2n right-hand sides; then
T_LR = T_LR (K + G B_a), R_R = R_R + T_LR G B_b, R_L = R_L' + T_RL' B_a
and T_RL = T_RL' B_b. Where the reprojection exists,
L = (X - R_L Y)(I - R_L^p R_R'), with R_L^p the reprojected reflection,
so a near-singular reprojection or resonance shows up in L. When the
guard refuses L, ``join`` reruns the two-step recipe (``project_left``,
then the Redheffer ``star`` product): it raises its own error class and
message, or returns its result when both of its matrices pass. L can be
regular where X - R_L Y is not (the pair is well posed although the right
matrix alone has no S-matrix in the left basis); ``join`` then returns
the composite where the two-step recipe would raise.

``star`` refuses to combine matrices whose shared-plane basis ids
disagree, as that is always a caller bug; ``join`` keeps that check.
"""

from __future__ import annotations

import numpy as np

from .errors import BasisMismatchError, NumericalError, ProjectionBreakdownError, ResonanceError
from .modal import ModalBasis
from .numerics import guarded_solve, refusal
from .sections import ScatteringMatrix


def projection_pair(from_basis: ModalBasis, to_basis: ModalBasis) -> tuple[np.ndarray, np.ndarray]:
    """Coupling matrices (X, Y) taking ``from_basis`` coefficients to ``to_basis``.

    ``to_basis`` plays the role of the section being reprojected (basis i),
    ``from_basis`` its left neighbour (basis i-1). Both bases passed the
    cond(W) and cond(V) guards when ``eigen_basis_stack`` built them.
    """
    if from_basis.n != to_basis.n:
        raise ValueError(f"basis dimensions differ: {from_basis.n} vs {to_basis.n}")
    ww = to_basis.W_inv @ from_basis.W
    vv = to_basis.V_inv @ from_basis.V
    return (ww + vv) / 2.0, (ww - vv) / 2.0


def project_left(
    smat: ScatteringMatrix, pp: tuple[np.ndarray, np.ndarray], new_left_basis_id: int
) -> ScatteringMatrix:
    """Re-express the left side of a scattering matrix in a neighbour basis.

    ``pp`` is the ``projection_pair`` (X, Y). The caller guarantees that
    ``smat.left_basis_id`` corresponds to the pair's target (section i)
    basis. The right side is untouched.
    """
    x, y = pp
    lead = x - smat.R_L @ y
    # One guarded inverse of lead serves both right-hand sides.
    rhs = np.hstack((-(y - smat.R_L @ x), smat.T_RL))
    solved = guarded_solve(lead, rhs, refusal(ProjectionBreakdownError, "interface projection (X - R_L Y)"))
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


def _check_shared_plane(left_ends_in: int, right_starts_in: int) -> None:
    if left_ends_in != right_starts_in:
        raise BasisMismatchError(
            f"cannot compose: left matrix ends in basis {left_ends_in}, "
            f"right matrix starts in basis {right_starts_in}"
        )


def star(s_left: ScatteringMatrix, s_right: ScatteringMatrix) -> ScatteringMatrix:
    """Redheffer star product of two scattering matrices sharing a plane.

    Requires s_left.right_basis_id == s_right.left_basis_id; project first
    if the sections were solved in different bases.
    """
    _check_shared_plane(s_left.right_basis_id, s_right.left_basis_id)
    if s_left.n != s_right.n:
        raise ValueError(f"block sizes differ: {s_left.n} vs {s_right.n}")
    eye = np.eye(s_left.n, dtype=np.complex128)
    g = guarded_solve(eye - s_left.R_R @ s_right.R_L, eye, refusal(ResonanceError, "Redheffer (I - R_R R_L)"))
    h = guarded_solve(eye - s_right.R_L @ s_left.R_R, eye, refusal(ResonanceError, "Redheffer (I - R_L R_R)"))
    return ScatteringMatrix(
        T_LR=s_right.T_LR @ g @ s_left.T_LR,
        R_R=s_right.R_R + s_right.T_LR @ s_left.R_R @ h @ s_right.T_RL,
        R_L=s_left.R_L + s_left.T_RL @ s_right.R_L @ g @ s_left.T_LR,
        T_RL=s_left.T_RL @ h @ s_right.T_RL,
        left_basis_id=s_left.left_basis_id,
        right_basis_id=s_right.right_basis_id,
    )


class _Refused(NumericalError):
    """The fused interface system failed the conditioning guard."""


def join(
    left: ScatteringMatrix, left_basis: ModalBasis, right: ScatteringMatrix, right_basis: ModalBasis
) -> ScatteringMatrix:
    """Compose ``left``, ending in ``left_basis``, with ``right``, starting in ``right_basis``.

    Wherever ``star(left, project_left(right, projection_pair(left_basis,
    right_basis), left_basis.basis_id))`` succeeds, the result equals it up
    to rounding, from one guarded inverse instead of three (see the
    module docstring). When the guard refuses the fused system, that
    two-step recipe runs and raises its own error (or returns its result).
    """
    _check_shared_plane(left.right_basis_id, left_basis.basis_id)
    pp = projection_pair(left_basis, right_basis)
    x, y = pp
    g = y + x @ left.R_R
    k = x @ left.T_LR
    lead = x + y @ left.R_R - right.R_L @ g
    rhs = np.hstack((right.R_L @ k - y @ left.T_LR, right.T_RL))
    try:
        b = guarded_solve(lead, rhs, _Refused)
    except _Refused:
        return star(left, project_left(right, pp, left_basis.basis_id))
    n = left.n
    # Waves entering the right matrix, K + G B, for incidence from either side.
    fwd = g @ b
    fwd[:, :n] += k
    fwd = right.T_LR @ fwd
    fwd[:, n:] += right.R_R
    back = left.T_RL @ b
    back[:, :n] += left.R_L
    return ScatteringMatrix(
        T_LR=fwd[:, :n],
        R_R=fwd[:, n:],
        R_L=back[:, :n],
        T_RL=back[:, n:],
        left_basis_id=left.left_basis_id,
        right_basis_id=right.right_basis_id,
    )


def _block_diagonal(blocks: list[np.ndarray]) -> np.ndarray:
    """The square matrices ``blocks`` along the diagonal of one matrix, zeros elsewhere."""
    size = sum(len(b) for b in blocks)
    out = np.zeros((size, size), dtype=np.complex128)
    start = 0
    for b in blocks:
        out[start : start + len(b), start : start + len(b)] = b
        start += len(b)
    return out


def _embedded(t: np.ndarray, bases: tuple[ModalBasis, ...]) -> ModalBasis:
    """One basis of bases of orthogonal subspaces, the columns of the unitary ``t`` split among them in order.

    W = t diag(W_k), V = t diag(V_k), with inverses diag(W_k^-1) t^H and
    diag(V_k^-1) t^H; lam is the bases' in order, and z_ref and k0 are the
    first basis'.
    """
    t_h = t.conj().T
    return ModalBasis(
        W=t @ _block_diagonal([b.W for b in bases]),
        V=t @ _block_diagonal([b.V for b in bases]),
        lam=np.concatenate([b.lam for b in bases]),
        z_ref=bases[0].z_ref,
        k0=bases[0].k0,
        W_inv=_block_diagonal([b.W_inv for b in bases]) @ t_h,
        V_inv=_block_diagonal([b.V_inv for b in bases]) @ t_h,
    )


def direct_sum(
    t: np.ndarray, parts: list[tuple[ScatteringMatrix, ModalBasis, ModalBasis]]
) -> tuple[ScatteringMatrix, ModalBasis, ModalBasis]:
    """Scattering matrices of subspaces that never couple, as one: (S-matrix, left basis, right basis).

    ``parts`` holds each subspace's (S-matrix, left basis, right basis),
    and the unitary ``t`` carries the subspaces, its columns split among
    them in order. The S-matrix is block-diagonal in mode coefficients,
    and each end basis embeds the parts' bases through ``t``.
    """
    smats, lefts, rights = zip(*parts)
    left, right = _embedded(t, lefts), _embedded(t, rights)
    blocks = {name: _block_diagonal([getattr(s, name) for s in smats]) for name in ("T_LR", "R_R", "R_L", "T_RL")}
    return ScatteringMatrix(**blocks, left_basis_id=left.basis_id, right_basis_id=right.basis_id), left, right
