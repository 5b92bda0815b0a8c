"""Reference precision update for the tests: the column-wise CM sweep.

``fit`` raises each precision matrix by one Newton-CG step
(``ordnet.engine._newton_step``).  The sweep below maximises the same
objective column by column in closed form, so the tests use it as an
independent oracle: its column updates match a numerical argmax, and its
fixed point is the maximiser that ``refit_precision`` and ``ridge_start``
must reach.  It costs O(p^4) per sweep and lives here, not in the package.
Test modules import it as ``from reference import ...``, the way they import
``conftest``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve

from ordnet import NumericalError
from ordnet.engine import _POTRF, _expected_prior_precision, _inverse_from_factor


def cm_sweep(
    omega: np.ndarray,
    scatter: np.ndarray,
    n: int,
    d: np.ndarray,
    lambda_diag: float,
    columns=None,
) -> None:
    """Blockwise conditional-maximisation pass over columns, in place.

    ``d`` holds the expected prior precision of each off-diagonal entry.
    Column j's update is the graphical-lasso block solve (Friedman, Hastie
    & Tibshirani, Biostatistics 2008): with the other indices ``-j``, ``q =
    inv(omega[-j, -j])`` and ``s22 = s_jj + lambda``, it solves ``(s22 q +
    diag(d[-j, j])) u = -s[-j, j]`` by Cholesky, writes u into row and
    column j and sets ``omega_jj = n / s22 + u' q u``.  This solves the
    column's stationary conditions exactly and keeps the Schur complement
    at ``n / s22 > 0``, so positive definiteness is preserved.  A column
    costs O(p^3), a sweep O(p^4).  A column system that is not positive
    definite raises ``NumericalError``.
    """
    p = omega.shape[0]
    for j in range(p) if columns is None else columns:
        rest = np.delete(np.arange(p), j)
        block_factor, info = _POTRF(omega[np.ix_(rest, rest)], lower=1, clean=0)
        if info > 0:
            raise NumericalError("precision matrix is not positive definite")
        q = _inverse_from_factor(block_factor)
        s22 = scatter[j, j] + lambda_diag
        system = s22 * q
        system[np.diag_indices(p - 1)] += d[rest, j]
        factor, info = _POTRF(system, lower=1, clean=0)
        if info > 0:
            raise NumericalError(
                "singular column system in the precision update; "
                "increase nu0 or lambda_diag"
            )
        u = -cho_solve((factor, True), scatter[rest, j])
        omega[rest, j] = u
        omega[j, rest] = u
        omega[j, j] = n / s22 + float(u @ q @ u)


def sweep_state_columns(state, hyper, scatter, n, level, columns=None) -> np.ndarray:
    """One sweep over the given columns (all by default) of a level's matrix
    at the state's expected prior precisions; stores the result in the state
    and returns it."""
    level = int(level)
    omega = state.omega[level].copy()
    d = _expected_prior_precision(state.ppi[level], hyper.nu0_for(level), hyper.nu1)
    cm_sweep(omega, scatter, n, d, hyper.lambda_diag, columns)
    state.omega[level] = omega
    return omega


def sweep_fixed_point(omega, scatter, n, d, lambda_diag):
    """Sweep from omega until a sweep no longer moves it: the CM fixed point."""
    omega = omega.copy()
    for _ in range(5000):
        before = omega.copy()
        cm_sweep(omega, scatter, n, d, lambda_diag)
        if np.max(np.abs(omega - before)) <= 1e-15 * np.max(np.abs(omega)):
            break
    return omega
