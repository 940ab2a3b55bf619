"""Conditioning guards: the explicit-inverse screen plus exact 2-norm verdict."""

import warnings

import numpy as np
import pytest

from arcwa.errors import NumericalError, ResonanceError, SingularOperatorError
from arcwa.numerics import COND_LIMIT, guard_inverses, guarded_inverses, guarded_solve, refusal

SIZES = (2, 7, 21, 51)
# 2-norm condition numbers from 1 to 1e14, dense around COND_LIMIT.
CONDITIONS = np.concatenate((np.logspace(0, 14, 29), np.logspace(11, 13, 41)))
KINDS = ("geometric", "one-small", "flat-null")


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def matrix_with_condition(rng, n, cond, kind):
    """A matrix with 2-norm condition number ``cond``, singular values 1 down to 1/cond.

    "geometric" and "one-small" are U diag(s) V^H with random unitary U, V
    and geometrically spread or all-but-one unit singular values.
    "flat-null" is H diag(1, ..., 1, 1/cond) with a reflector H taking e_n
    to a vector of equal-magnitude entries; its 1-norm condition number is
    below the 2-norm one (0.3 times at n = 51), which the factor n in the
    LU screen must absorb.
    """
    s = np.ones(n)
    s[-1] = 1.0 / cond
    if kind == "geometric":
        s = np.logspace(0.0, -np.log10(cond), n)
    if kind != "flat-null":
        return (random_unitary(rng, n) * s) @ random_unitary(rng, n).conj().T
    flat = np.exp(2j * np.pi * rng.random(n)) / np.sqrt(n)
    flat[-1] = 1.0 / np.sqrt(n)
    v = np.eye(n)[:, -1] - flat
    v /= np.linalg.norm(v)
    return (np.eye(n) - 2.0 * np.outer(v, v.conj())) * s


def guard_cases():
    rng = np.random.default_rng(20261017)
    for n in SIZES:
        for cond in CONDITIONS:
            for kind in KINDS:
                yield matrix_with_condition(rng, n, cond, kind)


def test_verdicts_and_messages_follow_the_exact_2norm_condition_number():
    rng = np.random.default_rng(5)
    rejected = 0
    for a in guard_cases():
        n = a.shape[0]
        b = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        cond = np.linalg.cond(a)
        if cond > COND_LIMIT:
            rejected += 1
            message = f"Redheffer (I - R_R R_L): condition number {cond:.3e} exceeds {COND_LIMIT:.0e}"
            with pytest.raises(ResonanceError) as solve_err:
                guarded_solve(a, b, refusal(ResonanceError, "Redheffer (I - R_R R_L)"))
            assert str(solve_err.value) == message
            with pytest.raises(SingularOperatorError) as inv_err:
                guarded_solve(a, np.eye(n), refusal(SingularOperatorError, "Toeplitz(eps)"))
            assert str(inv_err.value) == message.replace("Redheffer (I - R_R R_L)", "Toeplitz(eps)")
        else:
            x = guarded_solve(a, b, refusal(ResonanceError, "solve"))
            assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(x)
            inv = guarded_solve(a, np.eye(n), refusal(SingularOperatorError, "inverse"))
            assert np.linalg.norm(a @ inv - np.eye(n)) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(inv)
    # Both verdicts occur.
    assert 0 < rejected < len(SIZES) * CONDITIONS.size * len(KINDS)


def reject_as(what):
    return lambda cond: SingularOperatorError(f"{what}: condition number {cond:.3e} exceeds {COND_LIMIT:.0e}")


def test_explicit_inverse_screen_follows_the_exact_2norm_condition_number():
    rejected = 0
    for a in guard_cases():
        a_inv = np.linalg.inv(a)
        cond = np.linalg.cond(a)
        if cond > COND_LIMIT:
            rejected += 1
            with pytest.raises(SingularOperatorError) as err:
                guard_inverses(a[None], a_inv[None], [reject_as("cond(V)")])
            assert str(err.value) == f"cond(V): condition number {cond:.3e} exceeds {COND_LIMIT:.0e}"
        else:
            guard_inverses(a[None], a_inv[None], [reject_as("cond(V)")])
    assert 0 < rejected < len(SIZES) * CONDITIONS.size * len(KINDS)


@pytest.mark.parametrize(
    "a, a_inv",
    [
        (np.zeros((3, 3)), np.full((3, 3), np.inf)),
        # Adjugate over the zero determinant.
        (np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([[np.inf, -np.inf], [-np.inf, np.inf]])),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), np.eye(2)),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), np.eye(2)),
    ],
    ids=["zero", "rank-deficient", "nan", "inf"],
)
def test_explicit_inverse_screen_rejects_singular_and_non_finite_inputs(a, a_inv):
    with pytest.raises(SingularOperatorError, match="condition number .* exceeds"):
        guard_inverses(a[None], a_inv[None], [reject_as("inverse")])


@pytest.mark.parametrize(
    "a",
    [
        np.zeros((3, 3)),
        np.array([[1.0, 2.0], [2.0, 4.0]]),
        np.array([[1.0, np.nan], [0.0, 1.0]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
    ],
    ids=["zero", "rank-deficient", "nan", "inf"],
)
def test_singular_and_non_finite_inputs_rejected(a):
    with pytest.raises(ResonanceError, match="condition number .* exceeds"):
        guarded_solve(a, np.ones(a.shape[0]), refusal(ResonanceError, "solve"))
    with pytest.raises(SingularOperatorError, match="condition number .* exceeds"):
        guarded_solve(a, np.eye(a.shape[0]), refusal(SingularOperatorError, "inverse"))


def test_real_matrix_with_complex_right_hand_side():
    a = np.array([[2.0, 1.0], [0.0, 3.0]])
    b = np.array([1.0, 2.0j])
    x = guarded_solve(a, b, refusal(ResonanceError, "solve"))
    assert np.allclose(x, np.linalg.solve(a, b), rtol=0.0, atol=1e-15)
    assert guarded_solve(a, np.eye(2), refusal(SingularOperatorError, "inverse")).dtype == np.float64


def bad_matrices(n):
    """Singular and non-finite matrices of size n: zero, rank one, a NaN entry and an inf entry."""
    nan, inf = np.eye(n, dtype=complex), np.eye(n, dtype=complex)
    nan[0, -1], inf[-1, 0] = np.nan, np.inf
    return [np.zeros((n, n), dtype=complex), np.ones((n, n), dtype=complex), nan, inf]


def single_outcome(a, reject):
    """What a stack of one gives for ``a``: its inverse, or the error it raises."""
    try:
        return guarded_inverses(a[None], [reject])[0]
    except NumericalError as exc:
        return exc


def test_stacked_inverses_raise_the_first_failure_and_equal_single_calls():
    """The verdict family, shuffled into stacks with singular and non-finite matrices inserted."""
    rng = np.random.default_rng(11)
    family = list(guard_cases())
    stacks, raised = 0, 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in SIZES:
            matrices = [a for a in family if a.shape[0] == n] + 2 * bad_matrices(n)
            for chunk in np.array_split(rng.permutation(len(matrices)), len(matrices) // 9):
                stack = np.array([matrices[i] for i in chunk])
                rejects = [refusal(SingularOperatorError, f"entry {k}") for k in range(len(stack))]
                singles = [single_outcome(a, reject) for a, reject in zip(stack, rejects)]
                failed = [k for k, outcome in enumerate(singles) if isinstance(outcome, NumericalError)]
                if failed:
                    first = singles[failed[0]]
                    with pytest.raises(type(first)) as err:
                        guarded_inverses(stack, rejects)
                    assert str(err.value) == str(first)
                    raised += 1
                passed = [k for k in range(len(stack)) if k not in failed]
                inverses = guarded_inverses(stack[passed], [rejects[k] for k in passed])
                for k, inverse in zip(passed, inverses):
                    assert inverse.tobytes() == singles[k].tobytes()
                stacks += 1
        # A known inverse of inf, as for the zero matrix, fails the screen without a warning too.
        with pytest.raises(SingularOperatorError):
            guard_inverses(np.zeros((1, 3, 3)), np.full((1, 3, 3), np.inf), [refusal(SingularOperatorError, "zero")])
    # Both kinds of stack occur.
    assert 0 < raised < stacks


def test_refusals_without_a_reject_come_back_as_nan_inverses():
    """With a None ``reject``, a refused matrix of a stack gets an all-NaN inverse instead of an error, and every
    other one what a stack of one gives, bit for bit."""
    refused = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in SIZES:
            stack = np.array([a for a in guard_cases() if a.shape[0] == n] + bad_matrices(n))
            for a, inverse in zip(stack, guarded_inverses(stack, [None] * len(stack))):
                single = single_outcome(a, refusal(SingularOperatorError, "alone"))
                if isinstance(single, NumericalError):
                    assert np.isnan(inverse).all()
                    refused += 1
                else:
                    assert inverse.tobytes() == single.tobytes()
    assert refused > 0
