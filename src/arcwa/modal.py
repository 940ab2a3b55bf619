"""Eigenmode bases of cross-section operators.

Diagonalizing P_r Q_r = W Lam^2 W^-1 at a reference position yields the
electric-field basis W, effective indices lam (square roots of the
eigenvalues) and the magnetic basis V = Q_r W Lam^-1. Field vectors map to
forward/backward coefficients through

    a = W^-1 e + V^-1 h,    b = W^-1 e - V^-1 h.

The square-root branch is fixed to Im(lam) >= 0, with Re(lam) > 0 on the
real axis. That choice makes every propagation factor exp(j*lam*k0*dz)
have magnitude <= 1 for dz >= 0, so cascaded sections can never amplify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CutoffModeError,
    EigendecompositionError,
    NearDefectiveBasisError,
)
from .numerics import COND_LIMIT, guarded_solve
from .operators import OperatorPair

# Effective indices below this magnitude count as cutoff modes.
LAMBDA_CUTOFF = 1e-8


@dataclass(frozen=True)
class ModalBasis:
    """Eigenbasis of P_r Q_r at one reference position.

    ``basis_id`` hashes the bytes of W, V and lam (``dataclasses.replace``
    recomputes it): within one process equal content means an equal id and
    any bitwise difference a different one. Ids differ between processes
    (``PYTHONHASHSEED``). Inverses are precomputed because every downstream
    product needs them.
    """

    W: np.ndarray
    V: np.ndarray
    lam: np.ndarray
    z_ref: float
    basis_id: int = field(init=False)
    k0: float
    W_inv: np.ndarray
    V_inv: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis_id", hash((self.W.tobytes(), self.V.tobytes(), self.lam.tobytes())))

    @property
    def n(self) -> int:
        return int(self.W.shape[0])


@dataclass(frozen=True)
class WaveState:
    """Forward/backward coefficients of a field in one modal basis."""

    a: np.ndarray
    b: np.ndarray
    basis_id: int


# Relative threshold below which a root's real or imaginary part is
# floating-point dust from a mathematically real-or-imaginary eigenvalue.
_AXIS_SNAP_RTOL = 1e-14


def _principal_branch(lam: np.ndarray) -> np.ndarray:
    """Square roots on the Im >= 0 (then Re > 0) branch.

    Eigenvalues of lossless structures are mathematically real, but the
    eigensolver returns them with tiny imaginary dust whose sign is
    arbitrary. Flipping on that sign would mislabel propagating modes as
    backward ones, so roots are first snapped onto the real or imaginary
    axis when the off-axis part is negligible relative to the magnitude.
    """
    lam = lam.copy()
    mag = np.abs(lam)
    real_like = np.abs(lam.imag) <= _AXIS_SNAP_RTOL * mag
    lam[real_like] = np.abs(lam.real[real_like])
    imag_like = np.abs(lam.real) <= _AXIS_SNAP_RTOL * mag
    lam[imag_like] = 1j * np.abs(lam.imag[imag_like])
    flip = (lam.imag < 0.0) | ((lam.imag == 0.0) & (lam.real < 0.0))
    lam[flip] = -lam[flip]
    return lam


def _near_defective(name: str, z: float):
    """Error factory for a basis matrix ``name`` that fails the conditioning guard."""
    return lambda cond: NearDefectiveBasisError(
        f"near-defective eigenbasis at z = {z:g}: cond({name}) = {cond:.3e} exceeds {COND_LIMIT:.0e}"
    )


def eigen_basis(ops: OperatorPair) -> ModalBasis:
    """Diagonalize P Q and build the modal basis at ops.z.

    Eigenvalues are ordered by descending Re(lam), ties broken by ascending
    Im(lam), so identical operator pairs always produce the same basis (up
    to the eigensolver's own determinism). Raises CutoffModeError when an
    effective index sits below LAMBDA_CUTOFF and NearDefectiveBasisError
    when cond(W) or cond(V) exceeds the shared conditioning limit. Both
    are checked once here, and W_inv and V_inv come from the guarded
    factorizations.
    """
    pq = ops.P @ ops.Q
    if not np.all(np.isfinite(pq)):
        raise ValueError("operator product contains non-finite entries")
    try:
        eigvals, eigvecs = np.linalg.eig(pq)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"eigensolver failed on a {pq.shape[0]}x{pq.shape[0]} operator: {exc}") from exc

    lam = _principal_branch(np.sqrt(eigvals.astype(np.complex128)))
    order = np.lexsort((lam.imag, -lam.real))
    lam = lam[order]
    w = eigvecs[:, order]

    small = np.abs(lam) < LAMBDA_CUTOFF
    if np.any(small):
        worst = lam[small][np.argmin(np.abs(lam[small]))]
        raise CutoffModeError(
            f"mode at cutoff: |lambda| = {abs(worst):.3e} < {LAMBDA_CUTOFF:.0e} at z = {ops.z:g}; "
            "add a small material loss (e.g. Im(eps) ~ 1e-6) to move the mode off cutoff"
        )

    eye = np.eye(lam.size)
    w_inv = guarded_solve(w, eye, _near_defective("W", ops.z))
    v = ops.Q @ (w / lam[None, :])
    v_inv = guarded_solve(v, eye, _near_defective("V", ops.z))

    return ModalBasis(
        W=w,
        V=v,
        lam=lam,
        z_ref=ops.z,
        k0=ops.k0,
        W_inv=w_inv,
        V_inv=v_inv,
    )


def mode_coefficients(e: np.ndarray, h: np.ndarray, basis: ModalBasis) -> WaveState:
    """Split a transverse field pair into forward/backward coefficients."""
    if e.shape != (basis.n,) or h.shape != (basis.n,):
        raise ValueError(f"field vectors must have shape ({basis.n},), got {e.shape} and {h.shape}")
    we = basis.W_inv @ e
    vh = basis.V_inv @ h
    return WaveState(a=we + vh, b=we - vh, basis_id=basis.basis_id)


def reconstruct_fields(state: WaveState, basis: ModalBasis) -> tuple[np.ndarray, np.ndarray]:
    """Invert mode_coefficients: e = W (a+b)/2, h = V (a-b)/2."""
    if state.basis_id != basis.basis_id:
        raise ValueError(f"state basis {state.basis_id} does not match basis {basis.basis_id}")
    if state.a.shape != (basis.n,) or state.b.shape != (basis.n,):
        raise ValueError(f"coefficient vectors must have shape ({basis.n},)")
    e = basis.W @ (state.a + state.b) / 2.0
    h = basis.V @ (state.a - state.b) / 2.0
    return e, h


def propagation_factor(basis: ModalBasis, dz: float) -> np.ndarray:
    """Diagonal of the propagation operator over dz: exp(j * lam * k0 * dz).

    Returned as a 1-D array of the diagonal entries. The branch rule
    guarantees every entry has magnitude <= 1 for dz >= 0.
    """
    if dz < 0.0:
        raise ValueError(f"dz must be >= 0, got {dz:g}")
    return np.exp(1j * basis.lam * basis.k0 * dz)
