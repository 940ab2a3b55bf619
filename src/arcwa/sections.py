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
midpoint and z_R; the midpoint sample has exactly zero deviation, so only
the two end samples are formed, each with weight (z_R - z_L) / 6. TE
operators share one identity P, so their P term is skipped; every other
deviation forms both terms, and a P equal to the reference P gives a dP of
exact zeros.

The four integral terms double as the section's error estimate: they are
exactly the difference between the first- and zeroth-order matrices, and
the largest absolute entry across the four is the estimate compared
against the user's error bound during adaptive subdivision.

The solver evaluates sections in stacks (``first_order_stack``, with the
deviations of ``delta_stack``) from the operators it assembled for every
sample; ``first_order_smatrix`` and ``delta_ab`` are stacks of one, and
every entry of a stack equals its single call. ``first_order_smatrix``
assembles the two end samples itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import geometry, operators
from .geometry import StructureSpec
from .modal import ModalBasis, propagation_factor
from .numerics import as_stack
from .operators import OperatorPair

# first_order_smatrix accepts a basis within this times max(span, 1) of the section's midpoint:
# the middle third of a split section keeps its parent's middle z, which can be an ulp off its own.
_SAMPLE_RTOL = 1e-12


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


@dataclass(frozen=True)
class SectionResult:
    """A first-order section: scattering matrix and error estimate."""

    smat: ScatteringMatrix
    est_error: float


# Deviation matrices (dA, dB) of one sampled z against the reference.
_Deltas = tuple[np.ndarray, np.ndarray]

# A section to solve: (z_L, z_R, midpoint basis, midpoint operators, the operators at z_L and z_R).
_Section = tuple[float, float, ModalBasis, OperatorPair, tuple[OperatorPair, OperatorPair]]


def delta_ab(slice_ops: OperatorPair, ref_ops: OperatorPair, basis: ModalBasis) -> _Deltas:
    """Deviations (dA, dB) of sampled operators from the reference, in the reference basis.

    A stack of one ``delta_stack``.
    """
    d_a, d_b = delta_stack([slice_ops], [ref_ops], [basis])
    return d_a[0], d_b[0]


def delta_stack(
    slice_ops: Sequence[OperatorPair], ref_ops: Sequence[OperatorPair], bases: Sequence[ModalBasis]
) -> _Deltas:
    """``delta_ab`` for G (sample, reference, basis) triples, stacked as (G, n, n).

    Each deviation equals the one computed alone. TE operators share one
    read-only identity P, so a stack whose samples all hold their
    reference's P object skips the P term; any other stack forms dP for
    every entry, which is exact zeros where P equals the reference P.
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
    lam_k0: np.ndarray, k0: list[float], deltas: list[_Deltas], dz: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Simpson sums of the four first-order integral terms of G sections with S samples each.

    ``lam_k0`` holds j * lam * k0 per section, shaped (G, n), and ``k0``
    the G wavenumbers; ``deltas`` holds S deviation pairs, each stacked as
    (G, n, n); ``dz`` holds each sample's distances to z_R and from z_L,
    shaped (S, G, 2, 1), and ``weights`` is (S, G). Returns [[T_LR, T_RL],
    [R_R, R_L]] per section, shaped (G, 2, 2, n, n). Each term carries its
    prefactor (+- j k0 / 2), so the blocks are exactly the first-order
    corrections (and the error-estimator difference matrices). One exp
    gives every sample's propagation factors; each section's weighted
    terms are summed in sample order.
    """
    sections, n = lam_k0.shape
    # exp(j * lam * k0 * dz) towards z_R and from z_L, shaped (S, G, 2, n).
    phases = np.exp(lam_k0[:, None, :] * dz)
    # Each deviation enters two blocks, so it is weighted by a stacked pair
    # of phase vectors: dA with (to_right, from_left) on the left and
    # (from_left, to_right) on the right gives T_LR and T_RL, dB with the
    # same pair on both sides gives R_R and R_L. Samples stay a Python loop:
    # (samples, 4, n, n) temporaries cost ~190 page faults per section at
    # n = 51, while stacks of two n x n matrices are reused from the heap.
    terms = np.zeros((sections, 2, 2, n, n), dtype=np.complex128)
    transmit, reflect = terms[:, 0], terms[:, 1]
    columns, rows = phases[..., None], phases[:, :, :, None, :]
    swapped = phases[:, :, ::-1, None, :]
    for column, row, row_swapped, wk, (d_a, d_b) in zip(columns, rows, swapped, weights[..., None, None, None], deltas):
        term = column * d_a[:, None]
        term *= row_swapped
        term *= wk
        transmit += term
        term = column * d_b[:, None]
        term *= row
        term *= wk
        reflect -= term
    terms *= np.array([0.5j * k for k in k0])[:, None, None, None, None]
    return terms


def first_order_smatrix(
    spec: StructureSpec,
    z_L: float,
    z_R: float,
    basis: ModalBasis,
    ref_ops: OperatorPair,
) -> SectionResult:
    """Solve one section to first perturbation order in the basis of its midpoint.

    ``basis`` and ``ref_ops`` must be the midpoint's, within _SAMPLE_RTOL
    times max(z_R - z_L, 1). The two end samples are assembled here as one
    stack. A stack of one ``first_order_stack``.
    """
    if not z_R > z_L:
        raise ValueError(f"z_R = {z_R:g} must be > z_L = {z_L:g}")
    middle = 0.5 * (z_L + z_R)
    if not abs(basis.z_ref - middle) <= _SAMPLE_RTOL * max(z_R - z_L, 1.0):
        raise ValueError(f"basis reference z = {basis.z_ref:g} is not the midpoint of section [{z_L:g}, {z_R:g}]")
    ends = operators.assemble_stack([geometry.slice_at(spec, z) for z in (z_L, z_R)], spec)
    return first_order_stack([(z_L, z_R, basis, ref_ops, tuple(ends))])[0]


def first_order_stack(sections: Sequence[_Section]) -> list[SectionResult]:
    """``first_order_smatrix`` for several sections, as one stack, from the end-sample operators given.

    Each result equals the one solved alone, bit for bit. Each S-matrix's
    four blocks are views of one buffer of the stack.
    """
    z_l, z_r, bases, refs, ends = zip(*sections)
    k0 = [b.k0 for b in bases]
    lam_k0 = 1j * as_stack([b.lam for b in bases]) * np.array(k0)[:, None]
    # The z_L sample, then the z_R one: deviations, distances to z_R and from z_L, and Simpson weights.
    deltas = [delta_stack([pair[k] for pair in ends], refs, bases) for k in range(2)]
    span = np.array(z_r) - np.array(z_l)
    zero = np.zeros_like(span)
    dz = np.array([[span, zero], [zero, span]]).transpose(0, 2, 1)
    weights = np.array([span / 6.0, span / 6.0])
    terms = _first_order_terms(lam_k0, k0, deltas, dz[..., None], weights)
    est_error = np.abs(terms).max(axis=(1, 2, 3, 4)).tolist()
    # The zeroth-order matrix adds only the diagonal transmission; the
    # four blocks of a section share its slot of the terms' buffer.
    size, n = lam_k0.shape
    diagonal = np.zeros((size, 1, n * n), dtype=np.complex128)
    diagonal[:, 0, :: n + 1] = np.exp(lam_k0 * span[:, None])
    terms[:, 0] += diagonal.reshape(size, 1, n, n)
    return [
        SectionResult(ScatteringMatrix(t_lr, r_r, r_l, t_rl, basis.basis_id, basis.basis_id), est)
        for basis, ((t_lr, t_rl), (r_r, r_l)), est in zip(bases, terms, est_error)
    ]
