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
stack of slices, and every parity sector of a mirror-symmetric stack takes
its blocks from the same coefficients. Both the coefficients and the
wavevectors K are taken on the spec's transverse period.
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


def _parity_block(coeffs: np.ndarray, order: int, sector: int) -> np.ndarray:
    """Sector ``sector``'s block of Toeplitz(c) in the parity basis, for coefficients c taken about the mirror.

    With a_m = (c_m + c_-m) / 2 (m = 0..2*order), the even block (sector 0,
    harmonics m = 0..order) is s_p s_q (a_|p-q| + a_{p+q}), with s_0 = 1/sqrt(2)
    and s_m = 1 otherwise, and the odd block (sector 1, m = 1..order) is
    a_|p-q| - a_{p+q}: Toeplitz plus or minus Hankel, exactly the diagonal
    blocks of U^H Toeplitz(c) U for the U of ``parity_basis``.
    """
    center = coeffs.shape[-1] // 2
    if center < 2 * order:
        raise ValueError(f"need coefficients up to |m| = {2 * order}, got {center}")
    a = (coeffs[..., center:] + coeffs[..., center::-1]) / 2.0
    m = np.arange(sector, order + 1)
    toeplitz, hankel = a[..., np.abs(m[:, None] - m)], a[..., m[:, None] + m]
    if sector:
        return toeplitz - hankel
    s = np.where(m == 0, np.sqrt(0.5), 1.0)
    return (toeplitz + hankel) * (s[:, None] * s)


def parity_basis(spec: StructureSpec) -> np.ndarray:
    """The unitary T = D U that splits a mirror-symmetric spec's operators into its two sectors.

    D = diag(exp(-2j*pi*m*x0/period)) moves the harmonics' origin to the
    mirror x0 = ``spec.mirror_x_um``; U's first order+1 columns are e_0 and
    (e_m + e_-m)/sqrt(2), the even sector (0), and its last order columns
    (e_m - e_-m)/sqrt(2), the odd sector (1), for m = 1..order. T^H A T is
    block-diagonal for A = P and Q of every slice, and its two blocks are
    what ``assemble_stack`` builds for the two sectors.
    """
    order = spec.truncation_order
    m = np.arange(1, order + 1)
    u = np.zeros((2 * order + 1, 2 * order + 1))
    u[order, 0] = 1.0
    u[order + m, m] = u[order - m, m] = u[order + m, order + m] = np.sqrt(0.5)
    u[order - m, order + m] = -np.sqrt(0.5)
    harmonics = np.arange(-order, order + 1)
    return np.exp(-2j * np.pi * harmonics * spec.mirror_x_um / spec.period_x_um)[:, None] * u


def assemble_stack(
    slices: Sequence[PermittivitySlice], spec: StructureSpec, sectors: Sequence[int | None] = (None,)
) -> list[list[OperatorPair]]:
    """The dense P, Q pairs of slices of one spec, for its polarization: one list per entry of ``sectors``.

    Pure function. Each pair equals the one assembled in a stack of one,
    and in a call for its sector alone, bit for bit. Every slice is padded
    to the stack's largest interval count with empty intervals (period,
    period, 1.0): their phase differences and widths are exact zeros, and
    they come after the slice's own intervals in each coefficient sum.
    Every sector takes its blocks from one phase table and one set of eps
    coefficients, plus, in TM only, one of 1/eps. Each pair owns its
    matrices, except that every TE pair's P is the same read-only identity.

    ``sectors`` (None,) fills P and Q over all 2*order+1 harmonics. On a
    spec with a ``mirror_x_um`` it may list parity sectors instead, never
    with None: sector 0 (even, order+1 modes) or 1 (odd, order modes) gives
    that diagonal block of T^H P T and T^H Q T, for the T of
    ``parity_basis``, built at its own size from the coefficients taken
    about the mirror (``_parity_block``). In TM, K maps each sector onto
    the other, so P takes the inverse of the other sector's block of
    Toeplitz(eps), on the harmonics m >= 1 the two share. Sector by sector,
    one ``guarded_inverses`` call inverts the Toeplitz(eps) stack that P
    uses, then one the sector's Toeplitz(1/eps): the first matrix in that
    order to fail the guard raises SingularOperatorError (with a condition
    estimate), which requires a pathological eps distribution.
    """
    if not slices:
        return [[] for _ in sectors]
    order = spec.truncation_order
    period = spec.period_x_um
    width = max(len(slc.intervals) for slc in slices)
    pad = ((period, period, 1.0),)
    # (x0, x1, eps) of every interval, padded.
    rows = [tuple(slc.intervals) + pad * (width - len(slc.intervals)) for slc in slices]
    intervals = np.array(rows)  # shaped (slices, intervals, 3)
    bounds = intervals[..., :2].real
    table = _phase_table(bounds if None in sectors else bounds - spec.mirror_x_um, period, order)
    eps = _piecewise_coefficients(rows, intervals[..., 2], table, period)
    inverse_eps = None  # TM only; formed after the first Toeplitz(eps) guard, so that guard raises first

    def block(coeffs: np.ndarray, sector: int | None) -> np.ndarray:
        """Toeplitz(coeffs) over every harmonic (``sector`` None) or its block for ``sector``."""
        return _toeplitz_from(coeffs, order) if sector is None else _parity_block(coeffs, order, sector)

    def inverses(toeplitz: np.ndarray, what: str) -> np.ndarray:
        return guarded_inverses(toeplitz, [refusal(SingularOperatorError, what)] * len(slices))

    stacks = []
    for sector in sectors:
        m = np.arange(-order, order + 1, dtype=np.float64) if sector is None else np.arange(sector, order + 1.0)
        kt = m * spec.wavelength_um / period  # transverse wavevector / k0
        n = kt.size
        if spec.polarization is Polarization.TE:
            p = [_identity(n)] * len(slices)
            shift = np.diag(kt**2).astype(np.complex128)
            q = [t - shift for t in block(eps, sector)]
        else:
            if sector is None:
                e_inv = inverses(block(eps, None), "Toeplitz(eps)")
            else:
                # The other sector's harmonics start at 1 - sector; m = 0, in the even sector only, has kt = 0.
                e_inv = np.zeros((len(slices), n, n), dtype=np.complex128)
                shared = inverses(block(eps, 1 - sector), "Toeplitz(eps)")[:, sector:, sector:]
                e_inv[:, 1 - sector :, 1 - sector :] = shared
            p = [kt[:, None] * e * kt[None, :] - _identity(n) for e in e_inv]
            if inverse_eps is None:
                inverse_values = [[1.0 / value for _, _, value in row] for row in rows]
                inverse_eps = _piecewise_coefficients(rows, inverse_values, table, period)
            # Each Q negates its own entry, so no pair's Q is a view of the stack.
            q = [-e for e in inverses(block(inverse_eps, sector), "Toeplitz(1/eps)")]
        stacks.append([OperatorPair(P=p_i, Q=q_i, z=slc.z, k0=spec.k0) for slc, p_i, q_i in zip(slices, p, q)])
    return stacks
