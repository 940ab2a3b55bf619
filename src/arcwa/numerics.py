"""Shared numeric guards for dense linear algebra.

Every inversion in the scattering pipeline goes through one conditioning
guard with a single shared threshold, so "numerically singular" means the
same thing in operator assembly, basis construction, reprojection and
Redheffer composition.

The guard refuses a matrix whose 2-norm condition number exceeds
COND_LIMIT, but it starts from the LU factorization that the solve needs
anyway. LAPACK ``getrf`` factors the matrix and ``gecon`` estimates the
reciprocal 1-norm condition number ``rcond`` from the factors. The 1- and
2-norm condition numbers of an n x n matrix differ by at most a factor n,
and the estimate is a lower bound on the 1-norm one that is almost never
off by a factor 10, so a matrix with ``10 n / rcond <= COND_LIMIT`` passes
on the estimate alone. Every other matrix (inside that band, singular or
non-finite) gets the exact SVD-based ``condition_number``, which gives the
verdict and the value reported in the error. Accept/reject decisions and
messages are therefore those of the exact 2-norm test, at the cost of one
factorization that the solve then reuses.

An inverse that is already known (the Hermitian eigenbases of ``modal``
come with theirs) needs no factorization: ``guard_inverses`` screens a
stack of such matrices with the exact 1-norm condition number
||A||_1 ||A^-1||_1 and the same margin, and hands every other matrix to
the same exact 2-norm test.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.linalg import lapack

from .errors import NumericalError

# Condition-number threshold beyond which an inversion is refused.
COND_LIMIT = 1e12

# Safety factor on the LAPACK 1-norm estimate in the screen, on top of
# the factor n between the 1- and 2-norm condition numbers.
_ESTIMATE_MARGIN = 10.0


def condition_number(a: np.ndarray) -> float:
    """2-norm condition number; inf for a singular matrix."""
    try:
        return float(np.linalg.cond(a))
    except np.linalg.LinAlgError:
        return float("inf")


def guarded_solve(
    a: np.ndarray, b: np.ndarray, reject: Callable[[float], NumericalError]
) -> np.ndarray:
    """Solve ``a x = b`` with one LU factorization of ``a``, guarded by COND_LIMIT.

    ``reject`` receives the exact 2-norm condition number of a refused
    matrix and returns the exception to raise.
    """
    getrf, gecon, getrs, lange = lapack.get_lapack_funcs(("getrf", "gecon", "getrs", "lange"), (a, b))
    lu, piv, info = getrf(a)
    screened = info == 0 and gecon(lu, lange("1", a))[0] >= _ESTIMATE_MARGIN * a.shape[0] / COND_LIMIT
    if not screened:
        cond = condition_number(a)
        if info != 0 or not np.isfinite(cond) or cond > COND_LIMIT:
            raise reject(cond)
    return getrs(lu, piv, b)[0]


def guard_inverses(
    a: np.ndarray, a_inv: np.ndarray, rejects: Sequence[Callable[[float], NumericalError]]
) -> None:
    """Raise ``reject(cond)`` for the first matrix of a stack (matrices, n, n) that fails COND_LIMIT.

    ``a_inv`` holds their known inverses, ``rejects`` one ``reject`` each.
    A matrix with ``10 n ||a||_1 ||a_inv||_1 <= COND_LIMIT`` passes on the
    screen; any other one (inside that band, singular or non-finite) gets
    the exact 2-norm ``condition_number``, which ``reject`` receives.
    """
    lange = lapack.get_lapack_funcs("lange", (a, a_inv))
    n = a.shape[-1]
    for a_k, inv_k, reject in zip(a, a_inv, rejects):
        if not _ESTIMATE_MARGIN * n * lange("1", a_k) * lange("1", inv_k) <= COND_LIMIT:
            cond = condition_number(a_k)
            if not np.isfinite(cond) or cond > COND_LIMIT:
                raise reject(cond)


def checked_solve(
    a: np.ndarray, b: np.ndarray, error_cls: type[NumericalError], what: str
) -> np.ndarray:
    """Solve ``a x = b`` after verifying ``a`` is well-conditioned."""
    return guarded_solve(
        a, b, lambda cond: error_cls(f"{what}: condition number {cond:.3e} exceeds {COND_LIMIT:.0e}")
    )


def as_stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Equal-shaped arrays stacked along a new first axis; a stack of one is a view, not a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def max_abs(a: np.ndarray) -> float:
    """Largest absolute entry (the max norm used for scattering matrices)."""
    return float(np.max(np.abs(a))) if a.size else 0.0
