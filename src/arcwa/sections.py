"""Per-section scattering matrices at zeroth and first perturbation order.

A section [z_L, z_R] solved in the eigenbasis of its reference position has
the conventional (zeroth-order) scattering matrix: diagonal propagation and
no reflection. The first-order correction accounts for the cross-section
varying inside the section through the deviation matrices

    dA(z) = W^-1 (P(z) - P_r) V + V^-1 (Q(z) - Q_r) W,
    dB(z) = W^-1 (P(z) - P_r) V - V^-1 (Q(z) - Q_r) W,

integrated against propagation phases that, by the branch rule, never
exceed unit magnitude. The integrals are evaluated with a 3-point Simpson
rule sampling z_L, the midpoint and z_R. A sample at the reference
position (the midpoint under the midpoint rule, z_R under the endpoint
rule) has exactly zero deviation and is skipped.

The four integral terms double as the section's error estimate: they are
exactly the difference between the first- and zeroth-order matrices, and
the largest absolute entry across the four is the estimate compared
against the user's error bound during adaptive subdivision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, operators
from .geometry import StructureSpec
from .modal import ModalBasis, propagation_factor
from .numerics import max_abs
from .operators import OperatorPair

# Sample positions matching the section reference are skipped.
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


def delta_ab(slice_ops: OperatorPair, ref_ops: OperatorPair, basis: ModalBasis) -> _Deltas:
    """Deviations (dA, dB) of sampled operators from the reference, in the reference basis.

    When P equals the reference P (TE has P = I at every z) its term is
    exactly zero and is skipped.
    """
    if slice_ops.P.shape != ref_ops.P.shape or ref_ops.P.shape != basis.W.shape:
        raise ValueError(
            f"dimension mismatch: slice {slice_ops.P.shape}, reference {ref_ops.P.shape}, basis {basis.W.shape}"
        )
    dq = basis.V_inv @ (slice_ops.Q - ref_ops.Q) @ basis.W
    if np.array_equal(slice_ops.P, ref_ops.P):
        return dq, -dq
    dp = basis.W_inv @ (slice_ops.P - ref_ops.P) @ basis.V
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
    basis: ModalBasis,
    deltas: list[_Deltas],
    sample_z: list[float],
    weights: list[float],
    z_L: float,
    z_R: float,
) -> np.ndarray:
    """Simpson sums of the four first-order integral terms, stacked.

    Returns [[T_LR, T_RL], [R_R, R_L]], shaped (2, 2, n, n). Each term
    carries its prefactor (+- j k0 / 2), so the blocks are exactly the
    first-order corrections (and the error-estimator difference
    matrices). One exp gives every sample's propagation factors; the
    weighted terms are summed in sample order.
    """
    n = basis.n
    # exp(j * lam * k0 * dz) towards z_R and from z_L, shaped (samples, 2, n).
    dz = np.array([(z_R - zk, zk - z_L) for zk in sample_z]).reshape(-1, 2, 1)
    phases = np.exp(1j * basis.lam * basis.k0 * dz)
    # Each deviation enters two blocks, so it is weighted by a stacked pair
    # of phase vectors: dA with (to_right, from_left) on the left and
    # (from_left, to_right) on the right gives T_LR and T_RL, dB with the
    # same pair on both sides gives R_R and R_L. Samples stay a Python loop:
    # (samples, 4, n, n) temporaries cost ~190 page faults per section at
    # n = 51, while two n x n matrices are reused from the heap.
    terms = np.zeros((2, 2, n, n), dtype=np.complex128)
    transmit, reflect = terms
    for pair_phases, wk, (d_a, d_b) in zip(phases, weights, deltas):
        term = pair_phases[:, :, None] * d_a
        term *= pair_phases[::-1, None, :]
        term *= wk
        transmit += term
        term = pair_phases[:, :, None] * d_b
        term *= pair_phases[:, None, :]
        term *= wk
        reflect -= term
    terms *= 0.5j * basis.k0
    return terms


def first_order_smatrix(
    spec: StructureSpec,
    z_L: float,
    z_R: float,
    basis: ModalBasis,
    ref_ops: OperatorPair,
    end_ops: tuple[OperatorPair, OperatorPair] | None = None,
) -> SectionResult:
    """Solve one section to first perturbation order in the given basis.

    The reference position must lie inside [z_L, z_R]. ``end_ops``
    optionally supplies the operators at z_L and z_R, which neighbouring
    sections share; without it they are assembled here.
    """
    if not z_R > z_L:
        raise ValueError(f"z_R = {z_R:g} must be > z_L = {z_L:g}")
    span = z_R - z_L
    if not (z_L - _SAMPLE_RTOL * span <= basis.z_ref <= z_R + _SAMPLE_RTOL * span):
        raise ValueError(f"basis reference z = {basis.z_ref:g} lies outside section [{z_L:g}, {z_R:g}]")
    if end_ops is not None and (end_ops[0].z != z_L or end_ops[1].z != z_R):
        raise ValueError(
            f"end operators at z = {end_ops[0].z:g}, {end_ops[1].z:g} do not match section [{z_L:g}, {z_R:g}]"
        )

    samples = [(z_L, span / 6.0), (0.5 * (z_L + z_R), 4.0 * span / 6.0), (z_R, span / 6.0)]
    known = [None, None, None] if end_ops is None else [end_ops[0], None, end_ops[1]]
    sample_z, weights, deltas = [], [], []
    for (zk, wk), ops_k in zip(samples, known):
        if abs(zk - basis.z_ref) <= _SAMPLE_RTOL * max(span, 1.0):
            continue  # the reference sample: its deviation is exactly zero
        if ops_k is None:
            ops_k = operators.assemble_operators(geometry.slice_at(spec, zk), spec)
        sample_z.append(zk)
        weights.append(wk)
        deltas.append(delta_ab(ops_k, ref_ops, basis))

    terms = _first_order_terms(basis, deltas, sample_z, weights, z_L, z_R)
    est_error = max_abs(terms)
    # The zeroth-order matrix adds only the diagonal transmission; the four
    # blocks share the terms' buffer.
    terms[0] += np.diag(propagation_factor(basis, span))
    (t_lr, t_rl), (r_r, r_l) = terms
    smat = ScatteringMatrix(
        T_LR=t_lr,
        R_R=r_r,
        R_L=r_l,
        T_RL=t_rl,
        left_basis_id=basis.basis_id,
        right_basis_id=basis.basis_id,
    )
    return SectionResult(smat=smat, est_error=est_error)
