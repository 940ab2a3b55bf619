"""Modal bases: branch rule, ordering, round trips, propagation factors, both eigensolver routes."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from arcwa import modal
from arcwa.errors import CutoffModeError, EigendecompositionError, NearDefectiveBasisError
from arcwa.geometry import PermittivitySlice, Polarization
from arcwa.modal import (
    LAMBDA_CUTOFF,
    ModalBasis,
    eigen_basis_stack,
    mode_coefficients,
    propagation_factor,
    reconstruct_fields,
)
from arcwa.numerics import guarded_solve
from arcwa.operators import OperatorPair

from conftest import (
    assemble_operators,
    eigen_basis,
    owning_buffer,
    random_slice,
    uniform_slice,
    uniform_spec,
    uniform_spec_on,
)

K0 = 2.0 * np.pi / 1.55


def hermitian_eig(ops):
    """``modal._hermitian_eig`` on a stack of one; None when the pair takes no Hermitian route."""
    return modal._hermitian_eig(ops.Q[None], ops.P[None]) or None


def ops_from(p, q, z=0.0, k0=K0):
    return OperatorPair(
        P=np.asarray(p, dtype=np.complex128),
        Q=np.asarray(q, dtype=np.complex128),
        z=z,
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


def geev_eigen_basis(ops):
    """Reference for the general route: geev and two guarded LU inverses, no Hermitian shortcut."""
    pq = ops.P @ ops.Q
    if not np.all(np.isfinite(pq)):
        raise ValueError("operator product contains non-finite entries")
    try:
        eigvals, eigvecs = np.linalg.eig(pq)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"eigensolver failed on a {pq.shape[0]}x{pq.shape[0]} operator: {exc}") from exc

    lam = modal._principal_branch(np.sqrt(eigvals.astype(np.complex128)))
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
    w_inv = guarded_solve(w, eye, modal._near_defective("W", ops.z))
    v = ops.Q @ (w / lam[None, :])
    v_inv = guarded_solve(v, eye, modal._near_defective("V", ops.z))
    return ModalBasis(W=w, V=v, lam=lam, z_ref=ops.z, k0=ops.k0, W_inv=w_inv, V_inv=v_inv)


def residuals(ops, basis):
    """max|PQW - W Lam^2| / max|PQ|, max|W W^-1 - I| and max|V V^-1 - I|."""
    pq = ops.P @ ops.Q
    eye = np.eye(basis.n)
    return np.array(
        [
            np.max(np.abs(pq @ basis.W - basis.W * basis.lam**2)) / np.max(np.abs(pq)),
            np.max(np.abs(basis.W @ basis.W_inv - eye)),
            np.max(np.abs(basis.V @ basis.V_inv - eye)),
        ]
    )


def sorted_squares(lam):
    """lam^2 sorted by real part.

    geev leaves off-axis dust in lam^2 that can move a mode in the lexsort
    or, above the snap tolerance, onto the wrong branch, so the routes are
    compared on the eigenvalues of P Q themselves.
    """
    lam2 = lam**2
    return lam2[np.argsort(lam2.real, kind="stable")]


@settings(max_examples=40, deadline=None)
@given(
    period=st.floats(0.5, 2.0), data=st.data(), order=st.integers(0, 25), polarization=st.sampled_from(Polarization)
)
def test_hermitian_route_matches_geev_on_lossless_slices(period, data, order, polarization):
    slc = data.draw(random_slice(period))
    ops = assemble_operators(slc, uniform_spec_on(period, polarization=polarization, order=order))
    assert hermitian_eig(ops) is not None
    try:
        reference = geev_eigen_basis(ops)
    except CutoffModeError:
        with pytest.raises(CutoffModeError):
            eigen_basis(ops)
        return
    basis = eigen_basis(ops)
    lam2, ref_lam2 = sorted_squares(basis.lam), sorted_squares(reference.lam)
    assert np.max(np.abs(lam2 - ref_lam2)) <= 1e-12 * np.max(np.abs(ref_lam2))
    # lam^2 is real on this route: every lam sits exactly on the positive real or imaginary axis.
    lam = basis.lam
    assert np.all(((lam.imag == 0.0) & (lam.real > 0.0)) | ((lam.real == 0.0) & (lam.imag > 0.0)))
    # Both routes sit at rounding level; the explicit inverses may exceed an LU solve's there.
    floor = 8 * basis.n * np.finfo(float).eps
    assert np.all(residuals(ops, basis) <= np.maximum(residuals(ops, reference), floor))
    assert_allclose(np.linalg.norm(basis.W, axis=0), 1.0, rtol=0, atol=1e-14)
    # Rounding picks among tied largest entries (m and -m of a symmetric mode).
    mag2 = np.abs(basis.W) ** 2
    largest = mag2 >= (1.0 - 1e-10) * mag2.max(axis=0)
    assert np.all(np.any(largest & (basis.W.imag == 0.0), axis=0))


@settings(max_examples=25, deadline=None)
@given(
    period=st.floats(0.5, 2.0), data=st.data(), order=st.integers(0, 25), polarization=st.sampled_from(Polarization)
)
def test_lossy_slices_keep_the_geev_route_bit_for_bit(period, data, order, polarization):
    slc = data.draw(random_slice(period, loss=st.floats(1e-6, 1.0)))
    ops = assemble_operators(slc, uniform_spec_on(period, polarization=polarization, order=order))
    basis, reference = eigen_basis(ops), geev_eigen_basis(ops)
    for name in ("W", "V", "lam", "W_inv", "V_inv"):
        assert np.array_equal(getattr(basis, name), getattr(reference, name))
    assert basis.basis_id == reference.basis_id


@pytest.mark.parametrize(
    "p, q, error",
    [
        (np.eye(2), np.diag([1.0, 1e-20]), CutoffModeError),
        (np.diag([1.0, 1e-20]), -np.eye(2), CutoffModeError),
        (np.eye(2), np.diag([1e12, 1e-14]), NearDefectiveBasisError),
    ],
    ids=["cutoff-identity-P", "cutoff-pencil", "near-defective-V"],
)
def test_errors_are_the_same_on_both_routes(p, q, error):
    ops = ops_from(p, q)
    assert hermitian_eig(ops) is not None
    with pytest.raises(error) as geev_err:
        geev_eigen_basis(ops)
    with pytest.raises(error) as err:
        eigen_basis(ops)
    assert str(err.value) == str(geev_err.value)


@pytest.mark.parametrize(
    "p, q",
    [
        (np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]])),
        (np.diag([2.0, 3.0]), np.eye(2)),
        (np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]])),
    ],
    ids=["non-hermitian-Q", "indefinite-B", "non-finite"],
)
def test_other_operator_pairs_take_the_geev_route(p, q):
    ops = ops_from(p, q)
    assert hermitian_eig(ops) is None


# geev returns these mathematically real lam^2 with dust of ~1e-17 max|lam^2| off the real axis:
# enough to put a propagating root on the backward branch (TE) or to order an evanescent root
# after all others (TM) while the snap tolerance was relative to |lam| itself.
GEEV_DUST_SLICES = {
    "TE-order10-backward-propagating": (Polarization.TE, 10, ((0.0, 0.875, 1.875), (0.875, 1.0, 5.0))),
    "TM-order8-misordered-evanescent": (Polarization.TM, 8, ((0.0, 0.875, 9.75), (0.875, 1.0, 5.875))),
}


@pytest.mark.parametrize("case", GEEV_DUST_SLICES.values(), ids=GEEV_DUST_SLICES.keys())
def test_geev_dust_leaves_roots_on_their_axes(monkeypatch, case):
    polarization, order, intervals = case
    slc = PermittivitySlice(z=0.0, intervals=tuple((a, b, complex(e)) for a, b, e in intervals))
    ops = assemble_operators(slc, uniform_spec(1.0, 1.0, polarization=polarization, order=order))
    hermitian = eigen_basis(ops)
    monkeypatch.setattr(modal, "_hermitian_eig", lambda q, p: [])
    lam = eigen_basis(ops).lam
    assert np.all(((lam.imag == 0.0) & (lam.real > 0.0)) | ((lam.real == 0.0) & (lam.imag > 0.0)))
    # Same modes in the same order as the Hermitian route, up to the eigensolvers' rounding.
    scale = np.max(np.abs(hermitian.lam) ** 2)
    assert np.max(np.abs(lam**2 - hermitian.lam**2)) <= 1e-12 * scale


def test_axis_snap_is_relative_to_the_spectrum():
    """The dust of the TE repro above, on a spectrum of scale 238."""
    lam2 = np.array([238.0, 0.1433 - 5.3e-15j, -0.0232 + 3.7e-15j, -50.0 + 1e-9j])
    lam = modal._principal_branch(np.sqrt(lam2))
    assert_allclose(lam[:3], [np.sqrt(238.0), np.sqrt(0.1433), 1j * np.sqrt(0.0232)], rtol=1e-15)
    assert lam[1].imag == 0.0 and lam[2].real == 0.0
    # An off-axis part above the tolerance is physics (loss), not dust.
    assert lam[3].real > 0.0 and lam[3].imag > 0.0


@settings(max_examples=50, deadline=None)
@given(lam2=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=60))
def test_roots_of_real_eigenvalues_pass_the_branch_bit_for_bit(lam2):
    """What the Hermitian route hands to the branch rule comes back unchanged."""
    lam = np.sqrt(np.asarray(lam2, dtype=np.float64).astype(np.complex128))
    assert modal._principal_branch(lam).tobytes() == lam.tobytes()


@pytest.mark.parametrize("loss", [0.0, 1e-3], ids=["hermitian", "geev"])
@pytest.mark.parametrize("polarization", Polarization)
def test_stacked_bases_own_their_arrays(polarization, loss):
    """No basis of a stack keeps another basis's arrays alive: views of one stack would."""
    spec = uniform_spec(2.25, 1.0, polarization=polarization, order=3)
    slices = [uniform_slice(complex(eps, loss), z=z) for z, eps in enumerate((2.25, 4.0, 12.25))]
    stack = [assemble_operators(slc, spec) for slc in slices]
    names = ("W", "V", "lam", "W_inv", "V_inv")
    arrays = [owning_buffer(getattr(basis, name)) for basis in eigen_basis_stack(stack) for name in names]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("polarization", Polarization)
def test_lossy_stack_is_one_geev_call(monkeypatch, polarization):
    """Three lossy pairs are decomposed by one ``np.linalg.eig`` call on their stack."""
    spec = uniform_spec(2.25, 1.0, polarization=polarization, order=3)
    slices = [uniform_slice(complex(eps, 1e-3), z=z) for z, eps in enumerate((2.25, 4.0, 12.25))]
    stack = [assemble_operators(slc, spec) for slc in slices]
    calls = []
    eig = np.linalg.eig

    def counted(a):
        calls.append(a.shape)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    eigen_basis_stack(stack)
    assert calls == [(3, 7, 7)]


GEEV_PAIRS = {
    "good": ops_from(np.eye(2), np.array([[1.0, 2.0], [0.0, 3.0]])),
    "diverging": ops_from(np.eye(2), np.array([[1.0, 5.0], [0.0, 3.0]])),
    "non-finite": ops_from(np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]])),
}


@pytest.mark.parametrize(
    "names, error",
    [
        (("good", "diverging"), EigendecompositionError),
        (("non-finite", "diverging"), ValueError),
        (("diverging", "non-finite"), EigendecompositionError),
    ],
)
def test_first_failing_geev_pair_decides_the_error(monkeypatch, names, error):
    """geev fails on the pair whose Q[0, 1] is 5 here; the first failing pair in stack order raises."""
    eig = np.linalg.eig

    def diverging(a):
        if np.any(a[..., 0, 1] == 5.0):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", diverging)
    with pytest.raises(error):
        eigen_basis_stack([GEEV_PAIRS[name] for name in names])


def test_pair_whose_b_is_not_positive_definite_leaves_its_stack_for_geev():
    """A Hermitian TM pair whose -Q is indefinite takes geev; its stack's other pairs keep the Hermitian route."""
    spec = uniform_spec(2.25, 1.0, polarization=Polarization.TM, order=3)
    lossless = assemble_operators(uniform_slice(complex(4.0, 0.0)), spec)
    indefinite = ops_from(np.diag(np.linspace(2.0, 3.0, lossless.n)), np.eye(lossless.n), z=1.0)
    assert hermitian_eig(lossless) is not None and hermitian_eig(indefinite) is None
    stack = [lossless, indefinite, lossless]
    for stacked, single in zip(eigen_basis_stack(stack), [eigen_basis(ops) for ops in stack]):
        for name in ("W", "V", "lam", "W_inv", "V_inv"):
            assert np.array_equal(getattr(stacked, name), getattr(single, name)), name
