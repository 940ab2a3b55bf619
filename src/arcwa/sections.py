"""Per-section scattering matrices at zeroth and first perturbation order.

A section [z_L, z_R] solved in the eigenbasis of its reference position has
the conventional (zeroth-order) scattering matrix: diagonal propagation and
no reflection. The first-order correction accounts for the cross-section
varying inside the section through the deviation matrices

    dA(z) = W^-1 (P(z) - P_r) V + V^-1 (Q(z) - Q_r) W,
    dB(z) = W^-1 (P(z) - P_r) V - V^-1 (Q(z) - Q_r) W,

integrated against propagation phases that, by the branch rule, never
exceed unit magnitude. The integrals are evaluated with a 3-point Simpson
rule sampling z_L, the midpoint and z_R, so with a midpoint reference the
central sample reuses the reference operators and its integrand vanishes
identically.

The four integral terms double as the section's error estimate: they are
exactly the difference between the first- and zeroth-order matrices, and
the largest absolute entry across the four is the estimate compared
against the user's error bound during adaptive subdivision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import geometry, operators
from .geometry import StructureSpec
from .modal import ModalBasis, propagation_factor
from .numerics import max_abs
from .operators import OperatorPair

# Sample positions matching the section reference reuse ref_ops directly.
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
class DeltaPair:
    """Deviation matrices dA, dB of one sampled z against the reference."""

    dA: np.ndarray
    dB: np.ndarray


@dataclass(frozen=True)
class SectionResult:
    """A solved section: scattering matrix, error estimate and cost."""

    smat: ScatteringMatrix
    est_error: float
    eig_count: int
    z_L: float
    z_R: float
    order: int


def delta_ab(slice_ops: OperatorPair, ref_ops: OperatorPair, basis: ModalBasis) -> DeltaPair:
    """Deviation of sampled operators from the reference, in the reference basis."""
    if slice_ops.P.shape != ref_ops.P.shape or ref_ops.P.shape != basis.W.shape:
        raise ValueError(
            f"dimension mismatch: slice {slice_ops.P.shape}, reference {ref_ops.P.shape}, basis {basis.W.shape}"
        )
    dp = basis.W_inv @ (slice_ops.P - ref_ops.P) @ basis.V
    dq = basis.V_inv @ (slice_ops.Q - ref_ops.Q) @ basis.W
    return DeltaPair(dA=dp + dq, dB=dp - dq)


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


def _integral_blocks(
    basis: ModalBasis,
    deltas: list[DeltaPair],
    sample_z: list[float],
    weights: list[float],
    z_L: float,
    z_R: float,
) -> dict[str, np.ndarray]:
    """Quadrature sums of the four first-order integral terms.

    Each term carries its prefactor (+- j k0 / 2), so the returned blocks
    are exactly the first-order corrections (and the error-estimator
    difference matrices).
    """
    n = basis.n
    blocks = {
        "T_LR": np.zeros((n, n), dtype=np.complex128),
        "R_R": np.zeros((n, n), dtype=np.complex128),
        "R_L": np.zeros((n, n), dtype=np.complex128),
        "T_RL": np.zeros((n, n), dtype=np.complex128),
    }
    for zk, wk, pair in zip(sample_z, weights, deltas):
        to_right = propagation_factor(basis, z_R - zk)
        from_left = propagation_factor(basis, zk - z_L)
        blocks["T_LR"] += wk * (to_right[:, None] * pair.dA * from_left[None, :])
        blocks["R_R"] -= wk * (to_right[:, None] * pair.dB * to_right[None, :])
        blocks["R_L"] -= wk * (from_left[:, None] * pair.dB * from_left[None, :])
        blocks["T_RL"] += wk * (from_left[:, None] * pair.dA * to_right[None, :])
    scale = 0.5j * basis.k0
    return {name: scale * block for name, block in blocks.items()}


def estimate_error(first_order_terms: Iterable[np.ndarray]) -> float:
    """Largest absolute entry across the four first-order integral terms."""
    return max((max_abs(term) for term in first_order_terms), default=0.0)


def first_order_smatrix(
    spec: StructureSpec,
    z_L: float,
    z_R: float,
    basis: ModalBasis,
    ref_ops: OperatorPair,
    eig_count: int = 1,
    end_ops: tuple[OperatorPair, OperatorPair] | None = None,
) -> SectionResult:
    """Solve one section to first perturbation order in the given basis.

    The reference position must lie inside [z_L, z_R]. ``eig_count``
    records how many eigendecompositions the caller spent on this section
    (0 when the basis was inherited from a parent section). ``end_ops``
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

    sample_z = [z_L, 0.5 * (z_L + z_R), z_R]
    weights = [span / 6.0, 4.0 * span / 6.0, span / 6.0]
    known = [None, None, None] if end_ops is None else [end_ops[0], None, end_ops[1]]
    deltas = []
    for zk, ops_k in zip(sample_z, known):
        if abs(zk - basis.z_ref) <= _SAMPLE_RTOL * max(span, 1.0):
            ops_k = ref_ops
        elif ops_k is None:
            ops_k = operators.assemble_operators(geometry.slice_at(spec, zk), spec)
        deltas.append(delta_ab(ops_k, ref_ops, basis))

    blocks = _integral_blocks(basis, deltas, sample_z, weights, z_L, z_R)
    base = zeroth_order_smatrix(basis, z_L, z_R)
    smat = ScatteringMatrix(
        T_LR=base.T_LR + blocks["T_LR"],
        R_R=base.R_R + blocks["R_R"],
        R_L=base.R_L + blocks["R_L"],
        T_RL=base.T_RL + blocks["T_RL"],
        left_basis_id=basis.basis_id,
        right_basis_id=basis.basis_id,
    )
    return SectionResult(
        smat=smat,
        est_error=estimate_error(blocks.values()),
        eig_count=eig_count,
        z_L=z_L,
        z_R=z_R,
        order=1,
    )
