"""Per-section scattering matrices at zeroth and first perturbation order.

A section [z_L, z_R] solved in the eigenbasis of its reference position has
the conventional (zeroth-order) scattering matrix: diagonal propagation and
no reflection. The first-order correction accounts for the cross-section
varying inside the section through the deviation matrices

    dA(z) = W^-1 (P(z) - P_r) V + V^-1 (Q(z) - Q_r) W,
    dB(z) = W^-1 (P(z) - P_r) V - V^-1 (Q(z) - Q_r) W,

integrated against propagation phases that, by the branch rule, never
exceed unit magnitude. The reference is the section's midpoint. The
integrals are evaluated with a 3-point Simpson rule sampling z_L, the
midpoint and z_R; the midpoint sample has exactly zero deviation, so each
integral is the two end samples, each with weight (z_R - z_L) / 6, and
the only phase factor is e = exp(j lam k0 (z_R - z_L)), which is also the
zeroth-order transmission. TE operators share one identity P, so their P
term is skipped; every other deviation forms both terms, and a P equal to
the reference P gives a dP of exact zeros.

The four integral terms double as the section's error estimate: they are
exactly the difference between the first- and zeroth-order matrices, and
the largest absolute entry across the four is the estimate compared
against the user's error bound during adaptive subdivision.

The solver evaluates sections in stacks (``first_order_stack``, with the
deviations of ``delta_stack``) from the operators it assembled for every
sample; every entry of a stack equals the same section solved alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .modal import ModalBasis, propagation_factor
from .numerics import as_stack

if TYPE_CHECKING:
    from .operators import OperatorPair


@dataclass(frozen=True)
class ScatteringMatrix:
    """Four-block scattering matrix: [a_R; b_L] = S [a_L; b_R].

    Blocks are square and equal-sized; basis ids identify the modal bases
    in which left- and right-side coefficients are expressed.
    """

    T_LR: np.ndarray
    R_R: np.ndarray
    R_L: np.ndarray
    T_RL: np.ndarray
    left_basis_id: int
    right_basis_id: int

    def __post_init__(self) -> None:
        shape = self.T_LR.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"scattering blocks must be square, got {shape}")
        for name in ("R_R", "R_L", "T_RL"):
            if getattr(self, name).shape != shape:
                raise ValueError(f"block {name} has shape {getattr(self, name).shape}, expected {shape}")

    @property
    def n(self) -> int:
        return int(self.T_LR.shape[0])


def identity_smatrix(n: int, basis_id: int) -> ScatteringMatrix:
    """Identity element of the star product in one basis: unit transmission, no reflection."""
    eye = np.eye(n, dtype=np.complex128)
    zero = np.zeros((n, n), dtype=np.complex128)
    return ScatteringMatrix(eye, zero, zero.copy(), eye.copy(), basis_id, basis_id)


@dataclass(frozen=True)
class SectionResult:
    """A first-order section: scattering matrix and error estimate."""

    smat: ScatteringMatrix
    est_error: float


# Deviation matrices (dA, dB) of one sampled z against the reference.
_Deltas = tuple[np.ndarray, np.ndarray]

# A section to solve: (z_L, z_R, midpoint basis, midpoint operators, the operators at z_L and z_R).
_Section = tuple[float, float, ModalBasis, "OperatorPair", tuple["OperatorPair", "OperatorPair"]]


def delta_stack(
    slice_ops: Sequence[OperatorPair], ref_ops: Sequence[OperatorPair], bases: Sequence[ModalBasis]
) -> _Deltas:
    """Deviations (dA, dB) of G sampled operators from their references, in the reference bases.

    Stacked as (G, n, n); each deviation equals the one computed alone.
    TE operators share one read-only identity P, so a stack whose samples
    all hold their reference's P object skips the P term; any other stack
    forms dP for every entry, which is exact zeros where P equals the
    reference P.
    """
    for s, r, b in zip(slice_ops, ref_ops, bases):
        if s.P.shape != r.P.shape or r.P.shape != b.W.shape:
            raise ValueError(f"dimension mismatch: slice {s.P.shape}, reference {r.P.shape}, basis {b.W.shape}")
    q = as_stack([s.Q for s in slice_ops]) - as_stack([r.Q for r in ref_ops])
    dq = as_stack([b.V_inv for b in bases]) @ q @ as_stack([b.W for b in bases])
    if all(s.P is r.P for s, r in zip(slice_ops, ref_ops)):
        return dq, -dq
    p = as_stack([s.P for s in slice_ops]) - as_stack([r.P for r in ref_ops])
    dp = as_stack([b.W_inv for b in bases]) @ p @ as_stack([b.V for b in bases])
    return dp + dq, dp - dq


def zeroth_order_smatrix(basis: ModalBasis, z_L: float, z_R: float) -> ScatteringMatrix:
    """Constant-cross-section scattering matrix in the section's own basis."""
    if z_R < z_L:
        raise ValueError(f"z_R = {z_R:g} must be >= z_L = {z_L:g}")
    phases = propagation_factor(basis, z_R - z_L)
    t = np.diag(phases)
    zero = np.zeros_like(t)
    return ScatteringMatrix(
        T_LR=t,
        R_R=zero.copy(),
        R_L=zero.copy(),
        T_RL=t.copy(),
        left_basis_id=basis.basis_id,
        right_basis_id=basis.basis_id,
    )


def _first_order_terms(
    phases: np.ndarray, k0: list[float], span: np.ndarray, ends: tuple[_Deltas, _Deltas]
) -> np.ndarray:
    """The four first-order integral terms of G sections, from their two end samples.

    ``phases`` holds e = exp(j * lam * k0 * (z_R - z_L)) per section,
    shaped (G, n), ``k0`` the G wavenumbers and ``span`` the G lengths
    z_R - z_L; ``ends`` holds the deviation pairs of the z_L and the z_R
    samples, each stacked as (G, n, n). At z_L the phase towards z_R is e
    and the phase from z_L is 1; at z_R it is the other way round. So,
    with the Simpson weight w = span / 6 of either end,

        T_LR = (e dA_L + dA_R e^T) w,   T_RL = (dA_L e^T + e dA_R) w,
        R_R = -(e dB_L e^T + dB_R) w,   R_L = -(dB_L + e dB_R e^T) w,

    each entrywise and times j k0 / 2. Returns [[T_LR, T_RL], [R_R, R_L]]
    per section, shaped (G, 2, 2, n, n): exactly the first-order
    corrections, and the error-estimator difference matrices.
    """
    (a_l, b_l), (a_r, b_r) = ends
    size, n = phases.shape
    column, row = phases[:, :, None], phases[:, None, :]
    w = (span / 6.0)[:, None, None]
    terms = np.empty((size, 2, 2, n, n), dtype=np.complex128)
    (t_lr, t_rl), (r_r, r_l) = terms.transpose(1, 2, 0, 3, 4)
    np.add((column * a_l) * w, (a_r * row) * w, out=t_lr)
    np.add((a_l * row) * w, (column * a_r) * w, out=t_rl)
    np.add(((column * b_l) * row) * w, b_r * w, out=r_r)
    np.add(b_l * w, ((column * b_r) * row) * w, out=r_l)
    # The transmission terms carry + j k0 / 2, the reflection terms - j k0 / 2.
    terms *= np.array([(0.5j * k, -0.5j * k) for k in k0])[:, :, None, None, None]
    return terms


def first_order_stack(sections: Sequence[_Section]) -> list[SectionResult]:
    """Solve G sections to first perturbation order, as one stack, from the end-sample operators given.

    Each section is solved in the basis of its midpoint, whose operators
    it carries. Each result equals the one solved alone, bit for bit.
    Each S-matrix's four blocks are views of one buffer of the stack.
    """
    if not sections:
        return []
    z_l, z_r, bases, refs, ends = zip(*sections)
    k0 = [b.k0 for b in bases]
    span = np.array(z_r) - np.array(z_l)
    phases = np.exp(1j * as_stack([b.lam for b in bases]) * np.array(k0)[:, None] * span[:, None])
    deltas = tuple(delta_stack([pair[k] for pair in ends], refs, bases) for k in range(2))
    terms = _first_order_terms(phases, k0, span, deltas)
    est_error = np.abs(terms).max(axis=(1, 2, 3, 4)).tolist()
    # The zeroth-order matrix adds only the diagonal transmission e to T_LR and T_RL.
    size, n = phases.shape
    terms.reshape(size, 4, n * n)[:, :2, :: n + 1] += phases[:, None]
    return [
        SectionResult(ScatteringMatrix(t_lr, r_r, r_l, t_rl, basis.basis_id, basis.basis_id), est)
        for basis, ((t_lr, t_rl), (r_r, r_l)), est in zip(bases, terms, est_error)
    ]
