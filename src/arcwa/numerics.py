"""Shared numeric guards for dense linear algebra.

Every inversion in the scattering pipeline goes through one conditioning
guard with a single shared threshold, so "numerically singular" means the
same thing in operator assembly, basis construction, reprojection and
Redheffer composition.

The guard refuses a matrix whose 2-norm condition number exceeds
COND_LIMIT, but it starts from an explicit inverse: one the caller
already has (the Hermitian eigenbases of ``modal`` come with theirs), or
one ``np.linalg.inv`` computes for a whole stack at once. The exact 1-norm
condition number ||A||_1 ||A^-1||_1 is then a few sums away, and the 1-
and 2-norm condition numbers of an n x n matrix differ by at most a
factor n, so a matrix with ``10 n ||A||_1 ||A^-1||_1 <= COND_LIMIT``
passes on that screen alone; the factor 10 absorbs the rounding of the
computed inverse. Every other matrix (inside that band, singular or
non-finite) gets the exact SVD-based ``condition_number``, which gives the
verdict and the value reported in the error. Accept/reject decisions and
messages are therefore those of the exact 2-norm test, and a solve is the
guarded inverse times the right-hand side. A caller that handles refused
matrices itself (the stacked interface join) gets the verdict per matrix
instead of an error: a refused matrix's inverse comes back all NaN.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .errors import NumericalError

# Condition-number threshold beyond which an inversion is refused.
COND_LIMIT = 1e12

# Safety factor in the screen, on top of the factor n between the 1- and
# 2-norm condition numbers.
_SCREEN_MARGIN = 10.0


def condition_number(a: np.ndarray) -> float:
    """2-norm condition number; inf for a singular matrix."""
    try:
        return float(np.linalg.cond(a))
    except np.linalg.LinAlgError:
        return float("inf")


def refusal(error_cls: type[NumericalError], what: str) -> Callable[[float], NumericalError]:
    """A ``reject`` that names ``what`` and its condition number in an ``error_cls``."""
    return lambda cond: error_cls(f"{what}: condition number {cond:.3e} exceeds {COND_LIMIT:.0e}")


def refusals(a: np.ndarray, a_inv: np.ndarray) -> Iterator[tuple[int, float]]:
    """Index and exact 2-norm condition number of each matrix of a stack (matrices, n, n) that fails COND_LIMIT.

    ``a_inv`` holds their inverses. A matrix with ``10 n ||a||_1 ||a_inv||_1
    <= COND_LIMIT`` passes on the screen; any other one (inside that band,
    singular or non-finite) gets the exact 2-norm ``condition_number``, as
    the iteration reaches it. A matrix whose inverse is not finite never
    passes.
    """
    with np.errstate(over="ignore"):
        norms = zip(_norm1(a).tolist(), _norm1(a_inv).tolist())
    limit = COND_LIMIT / (_SCREEN_MARGIN * a.shape[-1])
    # In Python floats a product of 0 and inf, or one that overflows, fails the screen without a warning.
    for k, (norm_a, norm_inv) in enumerate(norms):
        if not norm_a * norm_inv <= limit:
            cond = condition_number(a[k])
            if not cond <= COND_LIMIT or not np.all(np.isfinite(a_inv[k])):
                yield k, cond


def guard_inverses(
    a: np.ndarray, a_inv: np.ndarray, rejects: Sequence[Callable[[float], NumericalError]]
) -> None:
    """Raise ``reject(cond)`` for the first of the ``refusals`` of a stack, with one ``reject`` per matrix."""
    for k, cond in refusals(a, a_inv):
        raise rejects[k](cond)


def _norm1(a: np.ndarray) -> np.ndarray:
    """1-norm (largest column sum of magnitudes) of each matrix of a stack."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def per_item(
    solve: Callable[..., Any], *stacks: np.ndarray
) -> tuple[np.ndarray, Any, np.linalg.LinAlgError | None]:
    """``solve`` on equal-length stacks as one call; each item alone only if that call raises LinAlgError.

    Returns the indices of the items ``solve`` succeeds on, the result of
    one call on those items and the LinAlgError of the first item that
    fails (None when none does). Each item's result equals the one of a
    stack of one, bit for bit.
    """
    try:
        return np.arange(len(stacks[0])), solve(*stacks), None
    except np.linalg.LinAlgError:
        pass
    solved, error = [], None
    for i in range(len(stacks[0])):
        try:
            solve(*(s[i : i + 1] for s in stacks))
            solved.append(i)
        except np.linalg.LinAlgError as exc:
            error = error or exc
    index = np.array(solved, dtype=int)
    return index, solve(*(s[index] for s in stacks)), error


def guarded_inverses(
    a: np.ndarray, rejects: Sequence[Callable[[float], NumericalError] | None]
) -> np.ndarray:
    """Inverses of a stack (matrices, n, n), from one ``np.linalg.inv``, each checked by ``refusals``.

    A refused matrix raises its ``reject(cond)``, the first refused one
    first; one whose ``reject`` is None instead gets an all-NaN inverse,
    for the caller to handle. Every other inverse is finite and equals the
    one of a stack of one, bit for bit. An exactly singular matrix gets a
    NaN inverse, which fails the guard.
    """
    solved, a_inv, error = per_item(np.linalg.inv, a)
    if error is not None:
        inverses = np.full(a.shape, np.nan, dtype=np.result_type(a, 1.0))
        inverses[solved] = a_inv
        a_inv = inverses
    for k, cond in refusals(a, a_inv):
        if rejects[k] is not None:
            raise rejects[k](cond)
        a_inv[k] = np.nan
    return a_inv


def guarded_solve(
    a: np.ndarray, b: np.ndarray, reject: Callable[[float], NumericalError]
) -> np.ndarray:
    """Solve ``a x = b`` as ``a^-1 b``, with ``a^-1`` from ``guarded_inverses``.

    ``reject`` receives the exact 2-norm condition number of a refused
    matrix and returns the exception to raise.
    """
    return guarded_inverses(a[None], [reject])[0] @ b


def as_stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Equal-shaped arrays stacked along a new first axis; a stack of one is a view, not a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def max_abs(a: np.ndarray) -> float:
    """Largest absolute entry (the max norm used for scattering matrices)."""
    return float(np.max(np.abs(a))) if a.size else 0.0
