"""Cross-section operators P(z) and Q(z) from a permittivity slice.

Fields on the periodic transverse line are expanded in 2M+1 Fourier
harmonics (m = -M..M, ascending). The first-order field equations read

    de/dz = j k0 P h,    dh/dz = j k0 Q e,

with dimensionless P, Q: the vacuum wavenumber is absorbed so that the
eigenvalues of P Q are effective indices squared and propagation phases
are exp(j * lambda * k0 * dz).

Concrete fillings, normal incidence, nonmagnetic media:

    TE:  P = I,                 Q = E - K^2
    TM:  P = K E^-1 K - I,      Q = -inv(Toeplitz(1/eps))

where E = Toeplitz(eps coefficients), K = diag(m * wavelength / period).
The coefficients are exact for the piecewise-constant slice; eps and 1/eps
share one table of interval phases, computed with a single exp.
The TM sign fold makes vacuum satisfy P*Q = I, matching TE; the inverse
rule for Q keeps TM convergence correct across material steps. Both
fillings are pinned by the vacuum spectrum check and the analytic slab
oracle in the validation suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularOperatorError
from .geometry import PermittivitySlice, Polarization, StructureSpec
from .numerics import checked_inv


@dataclass(frozen=True)
class OperatorPair:
    """Dense cross-section operators at one z."""

    P: np.ndarray
    Q: np.ndarray
    z: float
    polarization: Polarization
    k0: float

    @property
    def n(self) -> int:
        return int(self.P.shape[0])


def _phase_table(slc: PermittivitySlice, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-interval phase differences and their denominators, for m != 0.

    exp(-2j*pi*m*x/period) is evaluated at both bounds of every interval in
    one call, shaped (intervals, 2, m) with m over [-2*order, 2*order]
    without 0. Returns the upper-minus-lower differences, shaped
    (intervals, m), and -2j*pi*m. eps and 1/eps share the table.
    """
    m = np.arange(-2 * order, 2 * order + 1)
    rate = -2j * np.pi * m[m != 0]
    bounds = np.array([(x0, x1) for x0, x1, _ in slc.intervals])
    phases = np.exp(rate * bounds[:, :, None] / slc.period_x)
    return phases[:, 1] - phases[:, 0], rate


def _piecewise_coefficients(
    slc: PermittivitySlice, values: list[complex], table: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Closed-form Fourier coefficients of a piecewise-constant function.

    The function takes ``values[i]`` on the slice's interval i;
    c_m = (1/period) * integral f(x) exp(-2j*pi*m*x/period) dx, evaluated
    exactly per interval from the slice's ``_phase_table``; m runs over
    [-2*order, 2*order]. The intervals are summed in order, one at a time.
    """
    diff, rate = table
    terms = np.array(values)[:, None] * diff / rate
    nonzero = np.zeros(rate.size, dtype=np.complex128)
    for term in terms:
        nonzero += term
    c0 = 0j
    for (x0, x1, _), value in zip(slc.intervals, values):
        c0 += value * (x1 - x0) / slc.period_x
    half = rate.size // 2
    return np.concatenate((nonzero[:half], [c0], nonzero[half:]))


def _toeplitz_from(coeffs: np.ndarray, order: int) -> np.ndarray:
    """Toeplitz matrix T[p, q] = c_{p-q} for p, q in [-order, order]."""
    center = coeffs.size // 2
    if center < 2 * order:
        raise ValueError(f"need coefficients up to |m| = {2 * order}, got {center}")
    index = np.arange(2 * order + 1)
    return coeffs[center + index[:, None] - index]


def assemble_operators(slc: PermittivitySlice, spec: StructureSpec) -> OperatorPair:
    """Build the dense P, Q pair of a slice for the spec's polarization.

    Pure function; raises SingularOperatorError (with a condition estimate)
    if a permittivity Toeplitz matrix cannot be inverted, which requires a
    pathological eps distribution. The 1/eps coefficients are computed
    only for TM, the one filling that uses them.
    """
    order = spec.truncation_order
    table = _phase_table(slc, order)
    values = [eps for _, _, eps in slc.intervals]
    eps_toeplitz = _toeplitz_from(_piecewise_coefficients(slc, values, table), order)
    m = np.arange(-order, order + 1, dtype=np.float64)
    kt = m * spec.wavelength_um / spec.period_x_um  # transverse wavevector / k0
    n = 2 * order + 1

    if spec.polarization is Polarization.TE:
        p = np.eye(n, dtype=np.complex128)
        q = eps_toeplitz - np.diag(kt**2).astype(np.complex128)
    else:
        eps_inv = checked_inv(eps_toeplitz, SingularOperatorError, "Toeplitz(eps)")
        p = kt[:, None] * eps_inv * kt[None, :] - np.eye(n, dtype=np.complex128)
        inv_coeffs = _piecewise_coefficients(slc, [1.0 / eps for eps in values], table)
        inv_toeplitz = _toeplitz_from(inv_coeffs, order)
        q = -checked_inv(inv_toeplitz, SingularOperatorError, "Toeplitz(1/eps)")

    return OperatorPair(P=p, Q=q, z=slc.z, polarization=spec.polarization, k0=spec.k0)
