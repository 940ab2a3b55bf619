"""Scattering-matrix algebra: basis reprojection and Redheffer composition.

Neighbouring sections carry their own modal bases. Tangential-field
continuity at the shared plane gives the coupling matrices

    X = (W_i^-1 W_{i-1} + V_i^-1 V_{i-1}) / 2,
    Y = (W_i^-1 W_{i-1} - V_i^-1 V_{i-1}) / 2,

which map old-basis coefficients (a', b') to new ones via a = X a' + Y b',
b = Y a' + X b'.

``join_stack`` composes left matrices S' (each ending in a basis i-1)
with right ones S (each starting in a basis i) straight from those
equations, every pair an entry of one stack (pairs, n, n); ``join`` is a
stack of one. The left matrix sends a' = T_LR' a_L + R_R' b' into the plane, so in basis i the
right matrix sees

    a = K a_L + G b',    b = Y T_LR' a_L + H b',
    K = X T_LR',    G = Y + X R_R',    H = X + Y R_R',

and its reflection b = R_L a + T_RL b_R fixes the wave b' that crosses
back, for incidence from either side at once:

    L [B_a | B_b] = [R_L K - Y T_LR' | T_RL],    L = H - R_L G.

That is one guarded inverse of L per pair, one ``np.linalg.inv`` for the
stack, applied to the 2n right-hand sides; then
T_LR = T_LR (K + G B_a), R_R = R_R + T_LR G B_b, R_L = R_L' + T_RL' B_a
and T_RL = T_RL' B_b. Where the reprojection exists,
L = (X - R_L Y)(I - R_L^p R_R'), with R_L^p the reprojected reflection,
so a near-singular reprojection or resonance shows up in L. The guard
gives each entry its own verdict: a pair whose L it refuses, and only
that pair, reruns the two-step recipe (``project_left``, then the
Redheffer ``star`` product), which raises its own error class and
message, or returns its result when both of its matrices pass. L can be
regular where X - R_L Y is not (the pair is well posed although the right
matrix alone has no S-matrix in the left basis); ``join_stack`` then
returns the composite where the two-step recipe would raise.

``star`` refuses to combine matrices whose shared-plane basis ids
disagree, as that is always a caller bug; ``join_stack`` keeps that
check for every pair.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import numerics
from .errors import BasisMismatchError, ProjectionBreakdownError, ResonanceError
from .modal import ModalBasis
from .numerics import as_stack, guarded_solve, refusal
from .sections import ScatteringMatrix


def _coupling(ww: np.ndarray, vv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y) from W_i^-1 W_{i-1} and V_i^-1 V_{i-1}, or from stacks of them."""
    return (ww + vv) / 2.0, (ww - vv) / 2.0


def projection_pair(from_basis: ModalBasis, to_basis: ModalBasis) -> tuple[np.ndarray, np.ndarray]:
    """Coupling matrices (X, Y) taking ``from_basis`` coefficients to ``to_basis``.

    ``to_basis`` plays the role of the section being reprojected (basis i),
    ``from_basis`` its left neighbour (basis i-1). Both bases passed the
    cond(W) and cond(V) guards when ``eigen_basis_stack`` built them.
    """
    if from_basis.n != to_basis.n:
        raise ValueError(f"basis dimensions differ: {from_basis.n} vs {to_basis.n}")
    return _coupling(to_basis.W_inv @ from_basis.W, to_basis.V_inv @ from_basis.V)


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


# One pair of ``join_stack``: (left, left basis, right, right basis).
_Pair = tuple[ScatteringMatrix, ModalBasis, ScatteringMatrix, ModalBasis]


def join_stack(pairs: Sequence[_Pair]) -> list[ScatteringMatrix]:
    """Compose each ``left``, ending in ``left_basis``, with its ``right``, starting in ``right_basis``.

    Every operand of ``pairs`` is n x n for one n. The fused systems of all
    pairs are built as stacks (pairs, n, n) and inverted by one
    ``guarded_inverses`` call, and each result equals the one of a stack
    of one, bit for bit. Wherever ``star(left, project_left(right,
    projection_pair(left_basis, right_basis), left_basis.basis_id))``
    succeeds, a result equals it up to rounding, from one guarded inverse
    instead of three (see the module docstring). A pair whose fused system
    the guard refuses runs that two-step recipe alone, which raises its own
    error (or returns its result); the pairs before it are composed first.
    A pair whose left matrix does not end in its left basis raises
    BasisMismatchError before anything is computed.
    """
    for left, left_basis, _, _ in pairs:
        _check_shared_plane(left.right_basis_id, left_basis.basis_id)
    lefts, left_bases, rights, right_bases = zip(*pairs)

    def stack(items: tuple, name: str) -> np.ndarray:
        return as_stack([getattr(item, name) for item in items])

    x, y = _coupling(
        stack(right_bases, "W_inv") @ stack(left_bases, "W"), stack(right_bases, "V_inv") @ stack(left_bases, "V")
    )
    left_r_r, left_t_lr, right_r_l = stack(lefts, "R_R"), stack(lefts, "T_LR"), stack(rights, "R_L")
    g = y + x @ left_r_r
    k = x @ left_t_lr
    lead = x + y @ left_r_r - right_r_l @ g
    rhs = np.concatenate((right_r_l @ k - y @ left_t_lr, stack(rights, "T_RL")), axis=-1)
    # A refused system gets an all-NaN inverse, and its pair the two-step recipe. The guard is reached
    # through its module, as ``guarded_solve`` reaches it, so whatever wraps it sees these inverses too.
    inverses = numerics.guarded_inverses(lead, [None] * len(pairs))
    b = inverses @ rhs
    n = lead.shape[-1]
    # Waves entering the right matrices, K + G B, for incidence from either side.
    fwd = g @ b
    fwd[..., :n] += k
    fwd = stack(rights, "T_LR") @ fwd
    fwd[..., n:] += stack(rights, "R_R")
    back = stack(lefts, "T_RL") @ b
    back[..., :n] += stack(lefts, "R_L")
    joined = []
    for i, (left, left_basis, right, _) in enumerate(pairs):
        if np.isnan(inverses[i, 0, 0]):
            joined.append(star(left, project_left(right, (x[i], y[i]), left_basis.basis_id)))
            continue
        # Blocks of their own: views of the stacks would keep every entry alive with any one.
        joined.append(
            ScatteringMatrix(
                T_LR=np.copy(fwd[i, :, :n]),
                R_R=np.copy(fwd[i, :, n:]),
                R_L=np.copy(back[i, :, :n]),
                T_RL=np.copy(back[i, :, n:]),
                left_basis_id=left.left_basis_id,
                right_basis_id=right.right_basis_id,
            )
        )
    return joined


def join(
    left: ScatteringMatrix, left_basis: ModalBasis, right: ScatteringMatrix, right_basis: ModalBasis
) -> ScatteringMatrix:
    """``left``, ending in ``left_basis``, composed with ``right``, starting in ``right_basis``: a stack of one."""
    return join_stack([(left, left_basis, right, right_basis)])[0]


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
