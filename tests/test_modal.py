"""Modal bases: branch rule, ordering, round trips, propagation factors."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from arcwa.errors import CutoffModeError, NearDefectiveBasisError
from arcwa.geometry import Polarization
from arcwa.modal import (
    eigen_basis,
    mode_coefficients,
    propagation_factor,
    reconstruct_fields,
)
from arcwa.operators import OperatorPair, assemble_operators

from conftest import uniform_slice, uniform_spec

K0 = 2.0 * np.pi / 1.55


def ops_from(p, q, z=0.0, k0=K0):
    return OperatorPair(
        P=np.asarray(p, dtype=np.complex128),
        Q=np.asarray(q, dtype=np.complex128),
        z=z,
        polarization=Polarization.TE,
        k0=k0,
    )


def test_identity_operators():
    basis = eigen_basis(ops_from(np.eye(3), np.eye(3)))
    assert_allclose(basis.W, np.eye(3), atol=1e-14)
    assert_allclose(basis.V, np.eye(3), atol=1e-14)
    assert_allclose(basis.lam, np.ones(3), atol=1e-14)


def test_vacuum_te_order1_branches():
    spec = uniform_spec(1.0, 1.0, order=1)
    basis = eigen_basis(assemble_operators(uniform_slice(1.0), spec))
    kt2 = 1.55**2
    # Descending real part first: the propagating m=0 mode leads, then the
    # two degenerate evanescent harmonics on the positive imaginary axis.
    assert_allclose(basis.lam[0], 1.0, atol=1e-14)
    assert_allclose(basis.lam[1:], 1j * np.sqrt(kt2 - 1.0) * np.ones(2), atol=1e-14)


def test_random_operator_matches_dense_eigensolve(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    ops = ops_from(a, np.eye(4))
    basis = eigen_basis(ops)
    pq = ops.P @ ops.Q
    # Independent oracle: residual checks against the raw operator product.
    scale = np.max(np.abs(pq))
    assert np.max(np.abs(pq @ basis.W - basis.W @ np.diag(basis.lam**2))) <= 1e-10 * scale
    expected = np.sqrt(np.linalg.eigvals(pq).astype(complex))
    flip = (expected.imag < 0) | ((expected.imag == 0) & (expected.real < 0))
    expected[flip] = -expected[flip]
    order = np.lexsort((expected.imag, -expected.real))
    assert_allclose(basis.lam, expected[order], atol=1e-12)
    # Branch rule.
    assert np.all((basis.lam.imag > 0) | ((basis.lam.imag == 0) & (basis.lam.real > 0)))
    # V relation and the two expressions for the eigenvalue matrix.
    assert_allclose(basis.V, ops.Q @ basis.W @ np.diag(1.0 / basis.lam), atol=1e-12)
    lam_v = basis.V_inv @ ops.Q @ basis.W
    lam_w = basis.W_inv @ ops.P @ basis.V
    assert np.max(np.abs(lam_w - lam_v)) <= 1e-9 * np.max(np.abs(basis.lam))


def test_deterministic_ordering_and_content_ids():
    spec = uniform_spec(2.25, 1.0, order=2)
    ops = assemble_operators(uniform_slice(2.25), spec)
    b1 = eigen_basis(ops)
    b2 = eigen_basis(ops)
    assert np.array_equal(b1.W, b2.W)
    assert np.array_equal(b1.lam, b2.lam)
    assert b1.basis_id == b2.basis_id
    assert eigen_basis(assemble_operators(uniform_slice(2.5), spec)).basis_id != b1.basis_id
    assert replace(b1, W=2.0 * b1.W, W_inv=b1.W_inv / 2.0).basis_id != b1.basis_id


def test_cutoff_mode_rejected():
    with pytest.raises(CutoffModeError, match="loss"):
        eigen_basis(ops_from(np.diag([1.0, 1e-20]), np.eye(2)))


def test_near_defective_basis_rejected():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NearDefectiveBasisError, match="cond"):
        eigen_basis(ops_from(jordan, np.eye(2)))


def test_mode_coefficients_pure_forward_backward(rng):
    spec = uniform_spec(2.25, 1.0, order=2)
    basis = eigen_basis(assemble_operators(uniform_slice(2.25), spec))
    x = rng.standard_normal(basis.n) + 1j * rng.standard_normal(basis.n)
    state = mode_coefficients(basis.W @ x, basis.V @ x, basis)
    assert_allclose(state.a, 2.0 * x, atol=1e-12)
    assert_allclose(state.b, np.zeros_like(x), atol=1e-12)
    state = mode_coefficients(basis.W @ x, -(basis.V @ x), basis)
    assert_allclose(state.a, np.zeros_like(x), atol=1e-12)
    assert_allclose(state.b, 2.0 * x, atol=1e-12)


def test_field_roundtrip(rng):
    spec = uniform_spec(6.25, 1.0, order=3)
    basis = eigen_basis(assemble_operators(uniform_slice(6.25), spec))
    for _ in range(25):
        e = rng.standard_normal(basis.n) + 1j * rng.standard_normal(basis.n)
        h = rng.standard_normal(basis.n) + 1j * rng.standard_normal(basis.n)
        e2, h2 = reconstruct_fields(mode_coefficients(e, h, basis), basis)
        assert_allclose(e2, e, atol=1e-12)
        assert_allclose(h2, h, atol=1e-12)


def test_basis_column_reconstruction():
    spec = uniform_spec(2.25, 1.0, order=1)
    basis = eigen_basis(assemble_operators(uniform_slice(2.25), spec))
    from arcwa.modal import WaveState

    a = np.zeros(basis.n, dtype=complex)
    a[0] = 2.0
    e, h = reconstruct_fields(WaveState(a=a, b=np.zeros_like(a), basis_id=basis.basis_id), basis)
    assert_allclose(e, basis.W[:, 0], atol=1e-14)
    assert_allclose(h, basis.V[:, 0], atol=1e-14)


def test_propagation_zero_length_is_identity():
    basis = eigen_basis(ops_from(np.eye(2), np.diag([4.0, 2.0])))
    assert_allclose(propagation_factor(basis, 0.0), np.ones(2), atol=0)


def test_propagation_full_cycle_vacuum():
    basis = eigen_basis(ops_from(np.eye(1), np.eye(1)))
    phase = propagation_factor(basis, 1.55)
    assert_allclose(phase, [1.0], atol=1e-12)


def test_propagation_evanescent_scalar_oracle():
    lam = 2.0j
    basis = eigen_basis(ops_from(np.eye(1), np.array([[-4.0]])))
    assert_allclose(basis.lam, [lam], atol=1e-14)
    dz = 0.31
    factor = propagation_factor(basis, dz)
    assert_allclose(factor, [np.exp(1j * lam * K0 * dz)], atol=1e-14)
    assert abs(factor[0]) == pytest.approx(np.exp(-2.0 * K0 * dz), abs=1e-14)


def test_propagation_magnitudes_never_exceed_one(rng):
    for _ in range(10):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        # Positive imaginary shift keeps eigenvalues away from cutoff.
        ops = ops_from(a + 3j * np.eye(5), np.eye(5))
        basis = eigen_basis(ops)
        for dz in (0.0, 0.1, 2.0):
            assert np.all(np.abs(propagation_factor(basis, dz)) <= 1.0 + 1e-12)


def test_propagation_negative_dz_rejected():
    basis = eigen_basis(ops_from(np.eye(1), np.eye(1)))
    with pytest.raises(ValueError, match=">= 0"):
        propagation_factor(basis, -0.1)


def test_dimension_mismatch_rejected():
    basis = eigen_basis(ops_from(np.eye(2), np.eye(2)))
    with pytest.raises(ValueError, match="shape"):
        mode_coefficients(np.zeros(3, dtype=complex), np.zeros(3, dtype=complex), basis)
