"""Section scattering: deviation matrices, orders 0/1, error estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from arcwa.geometry import parse_structure, slice_at
from arcwa.modal import propagation_factor
from arcwa.numerics import max_abs
from arcwa.operators import OperatorPair
from arcwa.sections import _first_order_terms, delta_stack, zeroth_order_smatrix
from arcwa.cascade import star
from arcwa.solver import solve_uniform
from arcwa.harness import max_norm_difference

from conftest import (
    TAPER_DOC,
    assemble_operators,
    blocks_diff,
    eigen_basis,
    first_order_section,
    uniform_slice,
    uniform_spec,
)


def taper_section_inputs(spec, z_l, z_r):
    mid = 0.5 * (z_l + z_r)
    ops = assemble_operators(slice_at(spec, mid), spec)
    return ops, eigen_basis(ops)


@pytest.fixture(scope="module")
def taper():
    return parse_structure(TAPER_DOC)


def test_delta_zero_for_identical_operators(constant_spec):
    ops = assemble_operators(slice_at(constant_spec, 0.5), constant_spec)
    basis = eigen_basis(ops)
    (d_a,), (d_b,) = delta_stack([ops], [ops], [basis])
    assert max_abs(d_a) == 0.0
    assert max_abs(d_b) == 0.0


def test_delta_q_only_identity(rng):
    spec = uniform_spec(2.25, 1.0, order=2)
    ops = assemble_operators(uniform_slice(2.25), spec)
    basis = eigen_basis(ops)
    dq = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    bumped = OperatorPair(P=ops.P, Q=ops.Q + dq, z=0.0, k0=ops.k0)
    (d_a,), (d_b,) = delta_stack([bumped], [ops], [basis])
    expected = basis.V_inv @ dq @ basis.W
    assert_allclose(d_a, expected, atol=1e-12)
    assert_allclose(d_b, -expected, atol=1e-12)


def test_delta_sum_difference_identities(rng):
    spec = uniform_spec(2.25, 1.0, order=2)
    ops = assemble_operators(uniform_slice(2.25), spec)
    basis = eigen_basis(ops)
    dp = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    dq = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    bumped = OperatorPair(P=ops.P + dp, Q=ops.Q + dq, z=0.0, k0=ops.k0)
    (d_a,), (d_b,) = delta_stack([bumped], [ops], [basis])
    assert_allclose(d_a + d_b, 2.0 * basis.W_inv @ dp @ basis.V, atol=1e-12)
    assert_allclose(d_a - d_b, 2.0 * basis.V_inv @ dq @ basis.W, atol=1e-12)


def test_zeroth_order_zero_length_identity():
    spec = uniform_spec(4.0, 1.0, order=1)
    basis = eigen_basis(assemble_operators(uniform_slice(4.0), spec))
    s = zeroth_order_smatrix(basis, 0.3, 0.3)
    assert_allclose(s.T_LR, np.eye(3), atol=0)
    assert max_abs(s.R_L) == 0.0 and max_abs(s.R_R) == 0.0


def test_zeroth_order_full_cycle_vacuum():
    spec = uniform_spec(1.0, 1.55, order=0)
    basis = eigen_basis(assemble_operators(uniform_slice(1.0), spec))
    s = zeroth_order_smatrix(basis, 0.0, 1.55)
    assert_allclose(s.T_LR, np.eye(1), atol=1e-12)


def test_zeroth_order_semigroup():
    spec = uniform_spec(6.25, 1.0, order=2)
    basis = eigen_basis(assemble_operators(uniform_slice(6.25), spec))
    half1 = zeroth_order_smatrix(basis, 0.0, 0.45)
    half2 = zeroth_order_smatrix(basis, 0.45, 0.9)
    full = zeroth_order_smatrix(basis, 0.0, 0.9)
    assert blocks_diff(star(half1, half2), full) <= 1e-12


def test_short_section_limit(taper):
    # S -> identity and reflection blocks vanish at least linearly in L.
    z0 = 0.5
    norms = []
    for length in (0.02, 0.01, 0.005):
        ops, basis = taper_section_inputs(taper, z0 - length / 2, z0 + length / 2)
        res = first_order_section(taper, z0 - length / 2, z0 + length / 2, basis, ops)
        norms.append(max(max_abs(res.smat.R_L), max_abs(res.smat.R_R)))
        phase_scale = np.max(np.abs(basis.lam)) * basis.k0 * length
        assert max_abs(res.smat.T_LR - np.eye(basis.n)) <= 2.0 * phase_scale
    assert norms[1] <= 0.6 * norms[0]
    assert norms[2] <= 0.6 * norms[1]


def restricted_taper(z0: float, z1: float):
    w0, w1 = 0.26 + 0.11 * z0, 0.26 + 0.11 * z1
    doc = TAPER_DOC.replace("[0.0, 1.0]", f"[{z0}, {z1}]").replace(
        "start: 0.26, end: 0.37", f"start: {w0}, end: {w1}"
    )
    return parse_structure(doc)


def test_quarter_wavelength_section_against_cascade_oracle():
    # Restriction of the desk taper to one quarter-wavelength span. This
    # geometry carries a mode barely above cutoff (lambda ~ 0.07..0.38), so
    # a single quarter-wavelength section is only ~7e-2 accurate; the
    # estimate must still dominate the measured error (oracle-computed
    # level frozen below).
    sub = restricted_taper(0.0, 1.55 / 4.0)
    first = solve_uniform(sub, 1, order=1)
    oracle = solve_uniform(sub, 256, order=0)
    err = max_norm_difference(first.smat, oracle.smat)
    est = first.sections[0][2]
    assert err <= est
    assert err <= 8e-2


def test_short_taper_section_against_cascade_oracle():
    # At the section length the adaptive solver actually selects for this
    # structure, a single first-order section matches the high-resolution
    # cascade well below 1e-3.
    sub = restricted_taper(4.0 / 9.0, 5.0 / 9.0)
    first = solve_uniform(sub, 1, order=1)
    oracle = solve_uniform(sub, 256, order=0)
    err = max_norm_difference(first.smat, oracle.smat)
    assert err <= 1e-3
    assert err <= first.sections[0][2]


def test_estimator_is_max_norm_of_integral_terms(rng):
    spec = uniform_spec(2.25, 1.0, order=2)
    basis = eigen_basis(assemble_operators(uniform_slice(2.25), spec))
    deltas = [
        (
            rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)),
            rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)),
        )
        for _ in range(2)
    ]

    def section_terms(deltas):
        # A stack of one unit-length section: the z_L and z_R samples' deviations, each (1, n, n).
        phases = np.exp(1j * basis.lam[None] * basis.k0)
        ends = tuple((d_a[None], d_b[None]) for d_a, d_b in deltas)
        return _first_order_terms(phases, [basis.k0], np.array([1.0]), ends)[0]

    terms = section_terms(deltas)
    eps = max_abs(terms)
    assert eps == max(max_abs(block) for pair in terms for block in pair)
    # Linearity: scaling every deviation scales the estimate.
    terms3 = section_terms([(3.0 * d_a, 3.0 * d_b) for d_a, d_b in deltas])
    assert max_abs(terms3) == pytest.approx(3.0 * eps, rel=1e-12)


def test_section_with_every_sample_at_the_reference(taper):
    # All three Simpson samples lie within 1e-13 of the midpoint reference;
    # the two end samples are still formed, and their deviations vanish.
    z_l, z_r = 0.5, 0.5 + 1e-13
    ops, basis = taper_section_inputs(taper, z_l, z_r)
    first = first_order_section(taper, z_l, z_r, basis, ops)
    zeroth = zeroth_order_smatrix(basis, z_l, z_r)
    assert first.est_error <= 1e-12
    assert blocks_diff(first.smat, zeroth) <= 1e-12


def loop_first_order(spec, z_l, z_r, basis, ref_ops):
    """Reference: all three Simpson samples, the reference one included, block by block."""
    span = z_r - z_l
    sample_z = [z_l, 0.5 * (z_l + z_r), z_r]
    weights = [span / 6.0, 4.0 * span / 6.0, span / 6.0]
    names = ("T_LR", "R_R", "R_L", "T_RL")
    blocks = {name: np.zeros((basis.n, basis.n), dtype=np.complex128) for name in names}
    for zk, wk in zip(sample_z, weights):
        if abs(zk - basis.z_ref) <= 1e-12 * max(span, 1.0):
            ops_k = ref_ops
        else:
            ops_k = assemble_operators(slice_at(spec, zk), spec)
        dp = basis.W_inv @ (ops_k.P - ref_ops.P) @ basis.V
        dq = basis.V_inv @ (ops_k.Q - ref_ops.Q) @ basis.W
        d_a, d_b = dp + dq, dp - dq
        to_right = propagation_factor(basis, z_r - zk)
        from_left = propagation_factor(basis, zk - z_l)
        blocks["T_LR"] += wk * (to_right[:, None] * d_a * from_left[None, :])
        blocks["R_R"] -= wk * (to_right[:, None] * d_b * to_right[None, :])
        blocks["R_L"] -= wk * (from_left[:, None] * d_b * from_left[None, :])
        blocks["T_RL"] += wk * (from_left[:, None] * d_a * to_right[None, :])
    blocks = {name: 0.5j * basis.k0 * block for name, block in blocks.items()}
    base = zeroth_order_smatrix(basis, z_l, z_r)
    smat = {name: getattr(base, name) + block for name, block in blocks.items()}
    return smat, max(max_abs(block) for block in blocks.values())


@settings(max_examples=50, deadline=None)
@given(
    polarization=st.sampled_from(["TE", "TM"]),
    order=st.integers(0, 8),
    widths=st.tuples(st.floats(0.1, 0.6), st.floats(0.1, 0.6)),
    core=st.builds(complex, st.floats(2.0, 13.0), st.floats(0.0, 0.5)),
    z_l=st.floats(0.0, 0.9),
    fraction=st.floats(1e-3, 1.0),
)
def test_first_order_matches_three_sample_loop_bit_for_bit(polarization, order, widths, core, z_l, fraction):
    doc = (
        TAPER_DOC.replace("polarization: TE", f"polarization: {polarization}")
        .replace("truncation_order: 3", f"truncation_order: {order}")
        .replace("eps: [12.25, 0.0]", f"eps: [{core.real:.6f}, {core.imag:.6f}]")
        .replace("start: 0.26, end: 0.37", f"start: {widths[0]:.6f}, end: {widths[1]:.6f}")
    )
    spec = parse_structure(doc)
    z_r = z_l + fraction * (1.0 - z_l)
    ref_ops = assemble_operators(slice_at(spec, 0.5 * (z_l + z_r)), spec)
    basis = eigen_basis(ref_ops)
    first = first_order_section(spec, z_l, z_r, basis, ref_ops)
    smat, est_error = loop_first_order(spec, z_l, z_r, basis, ref_ops)
    for name, block in smat.items():
        assert np.array_equal(getattr(first.smat, name), block)
    assert first.est_error == est_error


def test_estimator_equals_order_gap(taper):
    for z_l, z_r in ((0.0, 0.25), (0.25, 0.75), (0.4, 1.0)):
        ops, basis = taper_section_inputs(taper, z_l, z_r)
        first = first_order_section(taper, z_l, z_r, basis, ops)
        zeroth = zeroth_order_smatrix(basis, z_l, z_r)
        gap = blocks_diff(first.smat, zeroth)
        assert first.est_error == pytest.approx(gap, rel=1e-12)
        assert first.est_error > 0.0


def test_mirrored_profile_swaps_blocks(taper):
    mirrored = parse_structure(TAPER_DOC.replace("start: 0.26, end: 0.37", "start: 0.37, end: 0.26"))
    ops_f, basis_f = taper_section_inputs(taper, 0.0, 1.0)
    # Midpoint slices coincide, so both sections share the same reference basis.
    forward = first_order_section(taper, 0.0, 1.0, basis_f, ops_f).smat
    backward = first_order_section(mirrored, 0.0, 1.0, basis_f, ops_f).smat
    assert max_abs(forward.T_LR - backward.T_RL) <= 1e-12
    assert max_abs(forward.T_RL - backward.T_LR) <= 1e-12
    assert max_abs(forward.R_L - backward.R_R) <= 1e-12
    assert max_abs(forward.R_R - backward.R_L) <= 1e-12


def test_scattering_matrix_rejects_ragged_blocks():
    from arcwa.sections import ScatteringMatrix

    eye2 = np.eye(2, dtype=complex)
    eye3 = np.eye(3, dtype=complex)
    with pytest.raises(ValueError, match="shape"):
        ScatteringMatrix(eye2, eye2, eye2, eye3, 0, 0)
    with pytest.raises(ValueError, match="square"):
        ScatteringMatrix(np.ones((2, 3), dtype=complex), eye2, eye2, eye2, 0, 0)
