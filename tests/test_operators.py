"""Fourier coefficients and operator assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.linalg import toeplitz

from arcwa import checks, operators
from arcwa.errors import SingularOperatorError
from arcwa.geometry import PermittivitySlice, Polarization
from arcwa.numerics import guarded_solve, refusal
from arcwa.operators import _phase_table, _piecewise_coefficients, _toeplitz_from, assemble_stack

from conftest import (
    assemble_operators,
    assert_check,
    owning_buffer,
    random_slice,
    uniform_slice,
    uniform_spec,
    uniform_spec_on,
)


def eps_coefficients(slc, order, period=1.0):
    """Fourier coefficients of eps(x) and 1/eps(x), m in [-2*order, 2*order], as assembly computes them."""
    table = _phase_table(np.array([[(x0, x1) for x0, x1, _ in slc.intervals]]), period, order)
    values = [eps for _, _, eps in slc.intervals]
    inverse = [1.0 / eps for eps in values]
    return tuple(_piecewise_coefficients([slc.intervals], [v], table, period)[0] for v in (values, inverse))


def step_slice(x0=0.0, x1=0.5, eps_in=4.0, eps_out=1.0):
    """A step of eps_in over [x0, x1] in eps_out, on the unit period."""
    intervals = []
    if x0 > 0.0:
        intervals.append((0.0, x0, complex(eps_out)))
    intervals.append((x0, x1, complex(eps_in)))
    if x1 < 1.0:
        intervals.append((x1, 1.0, complex(eps_out)))
    return PermittivitySlice(z=0.0, intervals=tuple(intervals))


def fft_oracle(slc, order, inverse=False):
    """Exact coefficients from FFT of cell samples on a breakpoint-aligned grid of the unit period.

    Valid when every interval boundary falls on a grid edge; the per-cell
    sinc factor turns the midpoint-sample DFT into the exact integral of
    the piecewise-constant function.
    """
    n = 1 << 14
    period = 1.0
    values = np.empty(n, dtype=np.complex128)
    for x0, x1, eps in slc.intervals:
        i0 = int(round(x0 / period * n))
        i1 = int(round(x1 / period * n))
        assert abs(i0 - x0 / period * n) < 1e-9 and abs(i1 - x1 / period * n) < 1e-9
        values[i0:i1] = 1.0 / eps if inverse else eps
    m = np.arange(-2 * order, 2 * order + 1)
    dft = np.fft.fft(values)[np.mod(m, n)] / n
    correction = np.sinc(m / n) * np.exp(-1j * np.pi * m / n)
    return dft * correction


def quad_oracle(slc, order, inverse=False):
    """Adaptive quadrature of the Fourier integrals on the unit period, split at breakpoints."""
    period = 1.0
    breaks = sorted({b for x0, x1, _ in slc.intervals for b in (x0, x1)})

    def eps_at(x):
        for x0, x1, eps in slc.intervals:
            if x0 <= x <= x1:
                return 1.0 / eps if inverse else eps
        raise AssertionError(f"x={x} not covered")

    coeffs = []
    for m in range(-2 * order, 2 * order + 1):
        def integrand_re(x, m=m):
            return (eps_at(x) * np.exp(-2j * np.pi * m * x / period)).real

        def integrand_im(x, m=m):
            return (eps_at(x) * np.exp(-2j * np.pi * m * x / period)).imag

        re, _ = quad(integrand_re, 0.0, period, points=breaks, limit=200)
        im, _ = quad(integrand_im, 0.0, period, points=breaks, limit=200)
        coeffs.append((re + 1j * im) / period)
    return np.array(coeffs)


def test_uniform_coefficients():
    coeffs, coeffs_inv = eps_coefficients(uniform_slice(1.0), order=3)
    expected = np.zeros(13, dtype=complex)
    expected[6] = 1.0
    assert_allclose(coeffs, expected, atol=1e-15)
    assert_allclose(coeffs_inv, expected, atol=1e-15)


def test_half_period_step_closed_form():
    order = 4
    coeffs, coeffs_inv = eps_coefficients(step_slice(), order=order)
    m = np.arange(-2 * order, 2 * order + 1)
    center = 2 * order
    assert coeffs[center] == pytest.approx(2.5, abs=1e-14)
    with np.errstate(invalid="ignore"):
        magnitude = np.abs(3.0 * np.sin(np.pi * m / 2) / (np.pi * m))
    magnitude[center] = 2.5
    assert_allclose(np.abs(coeffs), magnitude, atol=1e-13)
    # Phase of the step at [0, period/2]: exp(-j*pi*m/2).
    expected = 3.0 * np.sin(np.pi * m[m != 0] / 2) / (np.pi * m[m != 0]) * np.exp(-1j * np.pi * m[m != 0] / 2)
    assert_allclose(coeffs[m != 0], expected, atol=1e-13)


def test_step_against_fft_oracle():
    order = 4
    slc = step_slice()
    coeffs, coeffs_inv = eps_coefficients(slc, order=order)
    assert_allclose(coeffs, fft_oracle(slc, order), atol=1e-10)
    assert_allclose(coeffs_inv, fft_oracle(slc, order, inverse=True), atol=1e-10)


def test_random_slice_against_quad_oracle(rng):
    cuts = np.sort(rng.uniform(0.1, 0.9, size=3))
    eps_values = [1.0, 2.25, 9.0, 4.0]
    bounds = [0.0, *cuts, 1.0]
    intervals = tuple(
        (bounds[i], bounds[i + 1], complex(eps_values[i])) for i in range(4)
    )
    slc = PermittivitySlice(z=0.0, intervals=intervals)
    coeffs, coeffs_inv = eps_coefficients(slc, order=2)
    assert_allclose(coeffs, quad_oracle(slc, 2), atol=1e-9)
    assert_allclose(coeffs_inv, quad_oracle(slc, 2, inverse=True), atol=1e-9)


def test_mirror_slice_conjugate_coefficients():
    order = 3
    slc = step_slice(x0=0.2, x1=0.55)
    mirrored = PermittivitySlice(
        z=0.0,
        intervals=tuple(
            sorted(((1.0 - x1, 1.0 - x0, eps) for x0, x1, eps in slc.intervals))
        ),
    )
    c, _ = eps_coefficients(slc, order)
    c_mirror, _ = eps_coefficients(mirrored, order)
    # Mirroring negates the index; for real eps that equals conjugation.
    assert_allclose(c_mirror, c[::-1], atol=1e-14)
    assert_allclose(c_mirror, np.conj(c), atol=1e-14)


def test_hermitian_coefficients_and_average():
    coeffs, coeffs_inv = eps_coefficients(step_slice(x0=0.13, x1=0.62), order=3)
    center = 6
    assert_allclose(coeffs[center - 6 : center], np.conj(coeffs[center + 6 : center : -1]), atol=1e-15)
    avg = 4.0 * (0.62 - 0.13) + 1.0 * (1.0 - (0.62 - 0.13))
    assert coeffs[center] == pytest.approx(avg, abs=1e-14)


def test_truncation_nesting():
    slc = step_slice(x0=0.21, x1=0.67)
    small, _ = eps_coefficients(slc, order=2)
    large, _ = eps_coefficients(slc, order=4)
    assert np.array_equal(small, large[4:-4])
    e_small = _toeplitz_from(small, 2)
    e_large = _toeplitz_from(large, 4)
    assert np.array_equal(e_small, e_large[2:-2, 2:-2])


def test_vacuum_te_operators():
    assert_check(checks.vacuum_te_spectrum)


def test_vacuum_tm_order0_unit_index():
    assert_check(checks.vacuum_tm_unit_index)


def test_uniform_te_spectrum_matches_closed_form():
    order = 3
    n2 = 2.25
    spec = uniform_spec(n2, 1.0, order=order)
    ops = assemble_operators(uniform_slice(n2), spec)
    m = np.arange(-order, order + 1)
    expected = np.sort(n2 - (m * 1.55) ** 2)
    got = np.sort(np.linalg.eigvals(ops.P @ ops.Q).real)
    assert_allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("polarization", [Polarization.TE, Polarization.TM])
def test_lossless_real_spectrum(polarization):
    spec = uniform_spec(1.0, 1.0, polarization=polarization, order=3)
    slc = step_slice(x0=0.3, x1=0.8, eps_in=12.25)
    ops = assemble_operators(slc, spec)
    pq = ops.P @ ops.Q
    eigvals = np.linalg.eigvals(pq)
    assert np.max(np.abs(eigvals.imag)) <= 1e-10 * np.max(np.abs(pq))


def test_tm_uses_inverse_rule():
    spec = uniform_spec(1.0, 1.0, polarization=Polarization.TM, order=3)
    slc = step_slice(x0=0.25, x1=0.75, eps_in=12.25)
    coeffs, coeffs_inv = eps_coefficients(slc, 3)
    laurent = _toeplitz_from(coeffs, 3)
    ops = assemble_operators(slc, spec)
    # -Q must be the inverse-rule matrix, materially different from Toeplitz(eps).
    assert np.max(np.abs(-ops.Q - laurent)) > 0.1
    assert_allclose(-ops.Q @ _toeplitz_from(coeffs_inv, 3), np.eye(7), atol=1e-10)


def test_singular_toeplitz_reported():
    # Zero-average permittivity makes Toeplitz(eps) singular at order 0.
    slc = PermittivitySlice(z=0.0, intervals=((0.0, 0.5, 1.0 + 0j), (0.5, 1.0, -1.0 + 0j)))
    spec = uniform_spec(1.0, 1.0, polarization=Polarization.TM, order=0)
    with pytest.raises(SingularOperatorError, match="condition"):
        assemble_operators(slc, spec)


def test_operator_metadata():
    spec = uniform_spec(2.25, 1.0, order=2)
    slc = uniform_slice(2.25, z=0.4)
    ops = assemble_operators(slc, spec)
    assert ops.z == 0.4
    assert ops.n == 5
    assert ops.k0 == pytest.approx(spec.k0)


def loop_coefficients(intervals, period, order):
    """Reference: Fourier coefficients accumulated one interval at a time."""
    m = np.arange(-2 * order, 2 * order + 1)
    coeffs = np.zeros(m.size, dtype=np.complex128)
    nonzero = m != 0
    mk = m[nonzero]
    for x0, x1, value in intervals:
        coeffs[~nonzero] += value * (x1 - x0) / period
        phase1 = np.exp(-2j * np.pi * mk * x1 / period)
        phase0 = np.exp(-2j * np.pi * mk * x0 / period)
        coeffs[nonzero] += value * (phase1 - phase0) / (-2j * np.pi * mk)
    return coeffs


def loop_toeplitz(coeffs, order):
    """Reference: scipy's Toeplitz constructor on the centred coefficients."""
    center = coeffs.size // 2
    col = coeffs[center : center + 2 * order + 1]
    row = coeffs[center - 2 * order : center + 1][::-1]
    return toeplitz(col, row).astype(np.complex128)


def loop_operators(slc, spec):
    """Reference: P and Q assembled from the per-interval loop."""
    order, period = spec.truncation_order, spec.period_x_um
    inverted = tuple((x0, x1, 1.0 / eps) for x0, x1, eps in slc.intervals)
    eps_toeplitz = loop_toeplitz(loop_coefficients(slc.intervals, period, order), order)
    kt = np.arange(-order, order + 1, dtype=np.float64) * spec.wavelength_um / period
    n = 2 * order + 1
    if spec.polarization is Polarization.TE:
        return np.eye(n, dtype=np.complex128), eps_toeplitz - np.diag(kt**2).astype(np.complex128)
    eps_inv = guarded_solve(eps_toeplitz, np.eye(n), refusal(SingularOperatorError, "Toeplitz(eps)"))
    p = kt[:, None] * eps_inv * kt[None, :] - np.eye(n, dtype=np.complex128)
    inv_toeplitz = loop_toeplitz(loop_coefficients(inverted, period, order), order)
    return p, -guarded_solve(inv_toeplitz, np.eye(n), refusal(SingularOperatorError, "Toeplitz(1/eps)"))


@settings(max_examples=50, deadline=None)
@given(
    period=st.floats(0.5, 2.0), data=st.data(), order=st.integers(0, 25), polarization=st.sampled_from(Polarization)
)
def test_assembly_matches_interval_loop_bit_for_bit(period, data, order, polarization):
    """On slices with passive complex eps, Im(eps) in [0, 1], as well as lossless ones."""
    slc = data.draw(random_slice(period, loss=st.floats(0.0, 1.0)))
    spec = uniform_spec_on(period, polarization=polarization, order=order)
    ops = assemble_operators(slc, spec)
    p, q = loop_operators(slc, spec)
    assert np.array_equal(ops.P, p)
    assert np.array_equal(ops.Q, q)
    coeffs, coeffs_inv = eps_coefficients(slc, order, period)
    inverted = tuple((x0, x1, 1.0 / eps) for x0, x1, eps in slc.intervals)
    assert np.array_equal(coeffs, loop_coefficients(slc.intervals, period, order))
    assert np.array_equal(coeffs_inv, loop_coefficients(inverted, period, order))


@pytest.mark.parametrize("polarization", Polarization)
def test_slices_of_different_interval_counts_share_one_stack(monkeypatch, polarization):
    """Slices of 1, 3 and 5 intervals are padded into one phase table; each pair equals its stack of one."""
    cells = ((0.0, 0.2, 1.0), (0.2, 0.4, 4.0), (0.4, 0.6, 12.25 + 0.1j), (0.6, 0.8, 4.0), (0.8, 1.0, 1.0))
    slices = [
        uniform_slice(2.25, z=0.0),
        PermittivitySlice(z=1.0, intervals=((0.0, 0.3, 1.0 + 0j), (0.3, 0.6, 12.25 + 0j), (0.6, 1.0, 1.0 + 0j))),
        PermittivitySlice(z=2.0, intervals=tuple((x0, x1, complex(eps)) for x0, x1, eps in cells)),
    ]
    spec = uniform_spec(2.25, 1.0, polarization=polarization, order=4)
    singles = [assemble_operators(slc, spec) for slc in slices]
    calls = []

    def counted(*args):
        calls.append(args)
        return _phase_table(*args)

    monkeypatch.setattr(operators, "_phase_table", counted)
    stacked = assemble_stack(slices, spec)[0]
    assert len(calls) == 1
    for pair, single in zip(stacked, singles):
        assert np.array_equal(pair.P, single.P)
        assert np.array_equal(pair.Q, single.Q)
        assert pair.z == single.z


@pytest.mark.parametrize("polarization", Polarization)
def test_stacked_pairs_own_their_matrices(polarization):
    """No pair of a stack keeps another pair's matrices alive; only the TE identity P is shared.

    Views of different entries of one stack do not overlap, so the buffers that own them are compared.
    """
    spec = uniform_spec(2.25, 1.0, polarization=polarization, order=3)
    pairs = assemble_stack([uniform_slice(eps, z=z) for z, eps in enumerate((2.25, 4.0, 12.25))], spec)[0]
    matrices = [ops.Q for ops in pairs]
    if polarization is Polarization.TM:
        matrices += [ops.P for ops in pairs]
    else:
        assert all(ops.P is pairs[0].P and not ops.P.flags.writeable for ops in pairs)
    for i, a in enumerate(matrices):
        for b in matrices[i + 1:]:
            assert not np.shares_memory(owning_buffer(a), owning_buffer(b))
