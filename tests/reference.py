"""Reference implementations for the tests: the column-wise CM sweep, the
full-matrix factor updates and the ELBO's term-by-term formulas.

``fit`` raises each precision matrix by one Newton-CG step
(``ordnet.engine._newton_step``).  The sweep below maximises the same
objective column by column in closed form, so the tests use it as an
independent oracle: its column updates match a numerical argmax, and its
fixed point is the maximiser that ``refit_precision`` and ``ridge_start``
must reach.  It costs O(p^4) per sweep and lives here, not in the package.

``logdet`` is the log-determinant from a Cholesky factor in its textbook
form, the reference that ``ordnet.engine._logdet`` must equal bit for bit.

``edge_latents``, ``zeta_update``, ``beta_update`` and ``sigma_update`` are
the four factor updates on full p x p matrices, as they ran before the
state stored its per-edge fields as pair vectors.  They read the state's
matrices and return matrices without writing the state;
``ordnet.engine``'s updates, which work on the pairs, must equal them bit
for bit off the diagonal, where the state's reads are exactly zero.

The ELBO terms below (``elbo_terms``, ``latent_entropies``) sum each term
entry by entry over the upper triangle.  ``ordnet.engine._elbo_terms``
forms the same terms from per-level sums and inner products, so the tests
check it against these at a relative tolerance.

Test modules import this file as ``from reference import ...``, the way
they import ``conftest``.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np
from scipy import special
from scipy.linalg import cho_solve

from ordnet import NumericalError
from ordnet.engine import (
    _LOG_2PI,
    _POTRF,
    _beta_update_core,
    _edge_latent_core,
    _expected_prior_precision,
    _inverse_from_factor,
    _logdet,
    _probit_tails,
    _triangle,
    _xlogx,
    _zeta_update_core,
)


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


def logdet(factor: np.ndarray) -> float:
    """log det of a matrix from its Cholesky factor, ``2 sum log diag``."""
    return 2 * np.sum(np.log(np.diag(factor)))


def two_scatter_symmetric(values: np.ndarray, p: int, diagonal: float) -> np.ndarray:
    """The symmetric p x p matrix with ``values`` on both triangles, in
    ``np.triu_indices`` order, and ``diagonal`` on the diagonal: a filled
    matrix and two fancy-index scatters through the triangle's flat
    indices."""
    upper, lower, _ = _triangle(p)
    out = np.full((p, p), diagonal)
    flat = out.reshape(-1)
    flat[upper] = values
    flat[lower] = values
    return out


def edge_latents(state, hyper, level):
    """The edge-latent update of a level on full matrices: p*, E[z] and
    E[z^2] with diagonals 0, 0 and 1, and the truncation location, the
    full probit index E[zeta] + a E[beta]."""
    level = int(level)
    p = state.p
    upper = _triangle(p)[0]
    m = np.multiply(state.beta_mean, state.probit_level(level))
    m += state.zeta_mean
    m_upper = m.take(upper)
    pstar, ez, ez2 = _edge_latent_core(
        state.omega[level].take(upper), m_upper, _probit_tails(m_upper),
        hyper.nu0_for(level), hyper.nu1,
    )
    return (
        two_scatter_symmetric(pstar, p, 0.0),
        two_scatter_symmetric(ez, p, 0.0),
        two_scatter_symmetric(ez2, p, 1.0),
        m,
    )


def zeta_update(state, hyper, edge=None):
    """The intercept update on full matrices, or at one edge: ``(mean,
    variance)``, matrices or ``(float, float)``."""
    a_vals = state.probit_levels
    if edge is not None:
        i, j = edge
        ez = [state.ez[a][i, j] for a in state.levels]
        mean, var = _zeta_update_core(ez, state.beta_mean[i, j], a_vals, hyper.n0, hyper.t0_sq)
        return float(mean), var
    ez_stack = [state.ez[a] for a in state.levels]
    mean, var = _zeta_update_core(ez_stack, state.beta_mean, a_vals, hyper.n0, hyper.t0_sq)
    return mean, np.full_like(mean, var)


def beta_update(state, hyper, edge=None):
    """The coefficient update on full matrices, or at one edge, as
    ``zeta_update``."""
    e_prec = state.sigma_shape / state.sigma_rate
    a_vals = state.probit_levels
    if edge is not None:
        i, j = edge
        ez = [state.ez[a][i, j] for a in state.levels]
        mean, var = _beta_update_core(ez, state.zeta_mean[i, j], a_vals, e_prec)
        return float(mean), var
    ez_stack = [state.ez[a] for a in state.levels]
    mean, var = _beta_update_core(ez_stack, state.zeta_mean, a_vals, e_prec)
    return mean, np.full_like(mean, var)


def sigma_update(state, hyper) -> tuple[float, float]:
    """The coefficient-scale update, from the upper triangles of the full
    matrices."""
    p = state.p
    upper = _triangle(p)[0]
    m_edges = p * (p - 1) / 2.0
    shape = hyper.alpha_sigma + m_edges / 2.0
    rate = hyper.beta_sigma + 0.5 * float(
        (state.beta_mean.take(upper) ** 2 + state.beta_var.take(upper)).sum()
    )
    return shape, rate


def latent_entropies(pstar, m, tails) -> tuple[float, float]:
    """One level's latent-threshold and indicator entropies.

    The latent factor is a mixture of N(m, 1) truncated above zero (weight
    p*) and below it, at the stored truncation location m; on each side
    E[(z - m)^2] is 1 - m h_pos above zero and 1 + m h_neg below, with the
    hazards and log Phi(+-m) of ``_probit_tails``.  The indicator entropy is
    -sum p* log p* + (1 - p*) log(1 - p*), each product exactly 0 where its
    probability is 0 (``_xlogx``).
    """
    h_pos, h_neg, log_pos, log_neg = tails
    qstar = 1.0 - pstar
    e_logq_above = -0.5 * _LOG_2PI - 0.5 * (1.0 - m * h_pos) - log_pos
    e_logq_below = -0.5 * _LOG_2PI - 0.5 * (1.0 + m * h_neg) - log_neg
    latent = float(-np.sum(pstar * e_logq_above + qstar * e_logq_below))
    indicator = float(-np.sum(_xlogx(pstar) + _xlogx(qstar)))
    return latent, indicator


def elbo_terms(
    state: VariationalState,
    hyper: Hyperparameters,
    scatters: Mapping[int, np.ndarray],
    ns: Mapping[int, int],
    covariate_model: bool,
    logdets: Mapping[int, float] | None = None,
    tails=None,
) -> dict[str, float]:
    """All named ELBO contributions; their sum is the ELBO.

    No parameter-dependent term is dropped and constants are kept, so traces
    are comparable across iterations of one fit.  Every edge term is read on
    the upper triangle.  The entropies of the latent thresholds and the
    edge indicators come from ``_latent_entropies``.  By default every term
    is computed from the state alone.  ``fit`` passes what it already holds
    for the same state: each level's log det(omega) from the Cholesky factor
    its Newton step accepted, and the probit tails of each level's
    truncation location that ``update_edge_latents`` left in ``tails``;
    both are then the values this function would compute.
    """
    p = state.p
    upper = _triangle(p)[0]
    m_edges = p * (p - 1) / 2.0
    log_nu1 = math.log(hyper.nu1)
    zm, zv = state.zeta_mean.take(upper), state.zeta_var.take(upper)
    bm, bv = state.beta_mean.take(upper), state.beta_var.take(upper)
    terms: dict[str, float] = {}

    for level in state.levels:
        omega = state.omega[level]
        scatter = scatters[level]
        n = ns[level]
        nu0 = hyper.nu0_for(level)
        a_val = state.probit_level(level)
        pstar, m = state.ppi[level].take(upper), state.zloc[level].take(upper)
        ez, ez2 = state.ez[level].take(upper), state.ez2[level].take(upper)
        level_tails = _probit_tails(m) if tails is None else tails[level]

        if logdets is None:
            # Cholesky, not the sign of a determinant: an even number of
            # negative eigenvalues leaves the determinant positive.
            factor, info = _POTRF(omega, lower=1, clean=0)
            logdet = -np.inf if info > 0 else _logdet(factor)
        else:
            logdet = logdets[level]
        terms[f"gaussian_loglik[{level}]"] = 0.5 * n * logdet \
            - 0.5 * float(np.sum(scatter * omega)) - 0.5 * n * p * _LOG_2PI

        om = omega.take(upper)
        d = _expected_prior_precision(pstar, nu0, hyper.nu1)
        terms[f"edge_prior[{level}]"] = float(
            np.sum(
                -0.5 * _LOG_2PI
                - (pstar * log_nu1 + (1.0 - pstar) * math.log(nu0))
                - 0.5 * om * om * d
            )
        )
        terms[f"diagonal_prior[{level}]"] = p * math.log(hyper.lambda_diag / 2.0) \
            - 0.5 * hyper.lambda_diag * float(np.trace(omega))

        m_bar = zm + a_val * bm
        index_var = zv + a_val * a_val * bv
        sq = ez2 - 2.0 * ez * m_bar + m_bar * m_bar + index_var
        terms[f"latent_loglik[{level}]"] = float(np.sum(-0.5 * _LOG_2PI - 0.5 * sq))
        (
            terms[f"latent_entropy[{level}]"],
            terms[f"indicator_entropy[{level}]"],
        ) = latent_entropies(pstar, m, level_tails)

    terms["zeta_prior"] = float(
        np.sum(
            -0.5 * math.log(2.0 * math.pi * hyper.t0_sq)
            - ((zm - hyper.n0) ** 2 + zv) / (2.0 * hyper.t0_sq)
        )
    )
    terms["zeta_entropy"] = float(np.sum(0.5 * np.log(2.0 * math.pi * math.e * zv)))

    if covariate_model:
        shape, rate = state.sigma_shape, state.sigma_rate
        e_prec = shape / rate
        e_log_prec = float(special.digamma(shape)) - math.log(rate)
        terms["beta_prior"] = float(
            np.sum(-0.5 * _LOG_2PI + 0.5 * e_log_prec - 0.5 * e_prec * (bm * bm + bv))
        )
        terms["beta_entropy"] = float(np.sum(0.5 * np.log(2.0 * math.pi * math.e * bv)))
        terms["sigma_prior"] = (
            hyper.alpha_sigma * math.log(hyper.beta_sigma)
            - float(special.gammaln(hyper.alpha_sigma))
            + (hyper.alpha_sigma - 1.0) * e_log_prec
            - hyper.beta_sigma * e_prec
        )
        terms["sigma_entropy"] = (
            shape
            - math.log(rate)
            + float(special.gammaln(shape))
            + (1.0 - shape) * float(special.digamma(shape))
        )
    return terms
