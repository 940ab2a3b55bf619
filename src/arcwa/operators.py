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
share one table of interval phases, computed with a single exp for a whole
stack of slices. Both the coefficients and the wavevectors K are taken on
the spec's transverse period.
The TM sign fold makes vacuum satisfy P*Q = I, matching TE; the inverse
rule for Q keeps TM convergence correct across material steps. Both
fillings are pinned by the vacuum spectrum check and the analytic slab
oracle in the validation suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SingularOperatorError
from .geometry import PermittivitySlice, Polarization, StructureSpec
from .numerics import guarded_inverses, refusal


@dataclass(frozen=True)
class OperatorPair:
    """Dense cross-section operators at one z."""

    P: np.ndarray
    Q: np.ndarray
    z: float
    k0: float

    @property
    def n(self) -> int:
        return int(self.P.shape[0])


def _phase_table(bounds: np.ndarray, period: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-interval phase differences and their denominators, for m != 0.

    ``bounds`` holds the (lower, upper) ends of each slice's intervals,
    shaped (slices, intervals, 2), on a common ``period``.
    exp(-2j*pi*m*x/period) is evaluated at every bound in one call, with m
    over [-2*order, 2*order] without 0. Returns the upper-minus-lower
    differences, shaped (slices, intervals, m), and -2j*pi*m. eps and
    1/eps share the table.
    """
    m = np.arange(-2 * order, 2 * order + 1)
    rate = -2j * np.pi * m[m != 0]
    phases = np.exp(rate * bounds[..., None] / period)
    return phases[:, :, 1] - phases[:, :, 0], rate


def _piecewise_coefficients(
    rows: Sequence[Sequence[tuple]], values: np.ndarray, table: tuple[np.ndarray, np.ndarray], period: float
) -> np.ndarray:
    """Closed-form Fourier coefficients of piecewise-constant functions, one row per slice.

    Slice i's function takes ``values[i, k]`` on its interval k, the
    (x0, x1, _) of ``rows[i][k]``;
    c_m = (1/period) * integral f(x) exp(-2j*pi*m*x/period) dx, evaluated
    exactly per interval from the slices' ``_phase_table`` on the same
    ``period``; m runs over [-2*order, 2*order]. Each slice's intervals are
    summed in order, one at a time.
    """
    diff, rate = table
    values = np.asarray(values)
    terms = values[:, :, None] * diff / rate
    nonzero = np.zeros((len(values), rate.size), dtype=np.complex128)
    for term in terms.swapaxes(0, 1):
        nonzero += term
    # The m = 0 coefficient is summed in Python complex arithmetic.
    c0 = []
    for row, vals in zip(rows, values.tolist()):
        total = 0j
        for (x0, x1, _), value in zip(row, vals):
            total += value * (x1 - x0) / period
        c0.append([total])
    half = rate.size // 2
    return np.concatenate((nonzero[:, :half], c0, nonzero[:, half:]), axis=1)


@functools.lru_cache(maxsize=8)
def _identity(n: int) -> np.ndarray:
    """The read-only n x n identity that every TE operator pair holds as P."""
    eye = np.eye(n, dtype=np.complex128)
    eye.flags.writeable = False
    return eye


def _toeplitz_from(coeffs: np.ndarray, order: int) -> np.ndarray:
    """Toeplitz matrices T[..., p, q] = c_{p-q} for p, q in [-order, order]."""
    center = coeffs.shape[-1] // 2
    if center < 2 * order:
        raise ValueError(f"need coefficients up to |m| = {2 * order}, got {center}")
    index = np.arange(2 * order + 1)
    return coeffs.take(center + index[:, None] - index, axis=-1)


def assemble_stack(slices: Sequence[PermittivitySlice], spec: StructureSpec) -> list[OperatorPair]:
    """The dense P, Q pairs of slices of one spec, for its polarization, computed as stacks.

    Pure function. Each pair equals the one assembled in a stack of one,
    bit for bit. Every slice is padded to the stack's largest interval
    count with empty intervals (period, period, 1.0): their phase
    differences and widths are exact zeros, and they come after the
    slice's own intervals in each coefficient sum. Each pair owns its
    matrices, so it keeps no other pair's alive, except that every TE pair
    holds the same read-only identity as P. The 1/eps coefficients are
    computed only for TM, the one filling that uses them. Its two Toeplitz
    stacks are inverted by one ``guarded_inverses`` call each,
    Toeplitz(eps) first, so the first slice in stack order whose matrix
    fails the guard raises SingularOperatorError (with a condition
    estimate), which requires a pathological eps distribution.
    """
    if not slices:
        return []
    order = spec.truncation_order
    period = spec.period_x_um
    width = max(len(slc.intervals) for slc in slices)
    pad = ((period, period, 1.0),)
    # (x0, x1, eps) of every interval, padded.
    rows = [tuple(slc.intervals) + pad * (width - len(slc.intervals)) for slc in slices]
    intervals = np.array(rows)  # shaped (slices, intervals, 3)
    table = _phase_table(intervals[..., :2].real, period, order)
    eps_toeplitz = _toeplitz_from(_piecewise_coefficients(rows, intervals[..., 2], table, period), order)
    m = np.arange(-order, order + 1, dtype=np.float64)
    kt = m * spec.wavelength_um / period  # transverse wavevector / k0
    n = 2 * order + 1

    if spec.polarization is Polarization.TE:
        p = [_identity(n)] * len(slices)
        shift = np.diag(kt**2).astype(np.complex128)
        q = [t - shift for t in eps_toeplitz]
    else:
        def inverses(toeplitz: np.ndarray, what: str) -> np.ndarray:
            return guarded_inverses(toeplitz, [refusal(SingularOperatorError, what)] * len(slices))

        eye = np.eye(n, dtype=np.complex128)
        p = [kt[:, None] * e * kt[None, :] - eye for e in inverses(eps_toeplitz, "Toeplitz(eps)")]
        inverse_values = [[1.0 / eps for _, _, eps in row] for row in rows]
        inv_toeplitz = _toeplitz_from(_piecewise_coefficients(rows, inverse_values, table, period), order)
        # Each Q negates its own entry, so no pair's Q is a view of the stack.
        q = [-e for e in inverses(inv_toeplitz, "Toeplitz(1/eps)")]

    return [
        OperatorPair(P=p_i, Q=q_i, z=slc.z, k0=spec.k0)
        for slc, p_i, q_i in zip(slices, p, q)
    ]
