"""Variational estimation of covariate-linked Gaussian graphical models.

One precision matrix is estimated per ordinal covariate level.  Off-diagonal
entries carry a two-component Gaussian (spike/slab) prior whose mixing
indicator follows a probit regression on the covariate: the inclusion
probability of edge (i, j) at level a is Phi(zeta_ij + a * beta_ij).  The
probit indicator is represented through a latent Gaussian threshold variable,
which makes every variational factor conjugate except the precision matrices
themselves; those are point estimates, each raised once per iteration by a
Newton-CG step whose line search accepts only a positive-definite matrix
that raises the objective (``_newton_step``, O(p^3)).  Coordinate updates
therefore never decrease the evidence lower bound (ELBO).  The step's CG
solves the Newton system in single precision on a copy normalised to unit
scale, each input rounded once and the Jacobi preconditioner formed in
float32 from the rounded matrix, its vector updates and inner products as
level-1 BLAS calls; its line search and every factorisation stay in double
precision.  The edge-latent update runs on buffers of its own (``out=``
ufunc calls), writing no input.
The line search scores each trial by the objective's change, from inner
products formed once per step, so a trial costs one Cholesky factorisation.
The factor is carried: the line search's Cholesky factor of each accepted
matrix gives the ELBO its log-determinant and starts the next step, so the
precision path holds each matrix and its factor and nothing else.  Each matrix starts from
the all-slab ridge estimate (``ridge_start``).  The step raises the
precision objective without maximising it, a conditional step in the sense
of generalised EM; ``cm_update_precision`` takes it on one level of a
state.

Factors updated each iteration, in this fixed order:
  1. joint edge indicator / latent threshold (per level),
  2. probit intercepts zeta (per edge),
  3. covariate coefficients beta (per edge),
  4. the shared coefficient-scale precision (Gamma),
  5. precision matrices (one Newton step, per level),
then the ELBO is evaluated.

Every per-edge factor is stored on its pairs: ``VariationalState`` holds
p*, E[z], E[z^2] and the truncation location of each level, and E[zeta],
var(zeta), E[beta] and var(beta), each as one vector of exactly the M =
p(p-1)/2 pairs of the strict upper triangle (``_triangle`` order), the
edges the model has.  The updates and the ELBO work on these vectors; the
Newton step's expected prior precisions become a p x p matrix by one
``take`` through the cached pair map.  Read through ``state.ppi[level]``,
``state.zeta_mean`` and the like, each field is the exactly symmetric p x p
matrix, read-only, with a zero diagonal; assigning a p x p matrix stores
its strict upper triangle.  Only the precision matrices (``omega``) are
stored as p x p matrices.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, replace
from collections.abc import Mapping
from typing import Callable

import numpy as np
from scipy import special
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .core import DataError, GroupedDataset, NumericalError, sample_covariance

_LOG_2PI = math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_PI = math.sqrt(math.pi)

# Hyperparameter validation allows nu0 == nu1/10 up to rounding, so that the
# default search grid's upper endpoint is usable.
_NU0_SLACK = 1.0 + 1e-9

# Gauss-Hermite nodes for the edge-count moments over the intercept prior.
_QUAD_NODES = 80


def edge_count_prior(
    p: int,
    expected_edges: float | None = None,
    sd_edges: float | None = None,
) -> tuple[float, float]:
    """Translate edge-count beliefs into probit-intercept prior parameters.

    With intercept prior zeta ~ N(n0, t0_sq) shared in distribution by all
    M = p(p-1)/2 edges, the edge count K is Binomial(M, Phi(zeta)) mixed over
    zeta.  n0 is chosen so Phi(n0) equals expected_edges/M, and t0_sq is found
    by bisection so that sd(K) matches sd_edges; the result is floored at
    0.25.  sd(K) stays below M/2, and an sd_edges that no t0_sq up to 4**10
    reaches is a DataError.  Defaults: expected_edges = p, sd_edges = p/2.
    """
    if p < 2:
        raise DataError("need at least 2 variables")
    m_edges = p * (p - 1) / 2.0
    e0 = float(p) if expected_edges is None else float(expected_edges)
    s0 = p / 2.0 if sd_edges is None else float(sd_edges)
    if not 0.0 < e0 < m_edges:
        raise DataError(f"expected_edges must lie in (0, {m_edges:g}), got {e0:g}")
    if not 0.0 < s0 < math.inf:
        raise DataError("sd_edges must be positive and finite")
    n0 = float(special.ndtri(e0 / m_edges))
    nodes, weights = np.polynomial.hermite.hermgauss(_QUAD_NODES)

    def edge_count_sd(t0_sq: float) -> float:
        zeta = n0 + _SQRT2 * math.sqrt(t0_sq) * nodes
        phi = special.ndtr(zeta)
        e1 = float(weights @ phi) / _SQRT_PI
        e2 = float(weights @ (phi * phi)) / _SQRT_PI
        var = m_edges * (e1 - e2) + m_edges * m_edges * (e2 - e1 * e1)
        return math.sqrt(max(var, 0.0))

    lo, hi = 1e-12, 1.0
    if edge_count_sd(lo) >= s0:
        return n0, 0.25
    while (reached := edge_count_sd(hi)) < s0 and hi < 1e6:
        hi *= 4.0
    if reached < s0:
        raise DataError(f"sd_edges must stay below {reached:.4g} for p = {p} and "
                        f"expected_edges = {e0:g}, got {s0:g}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if edge_count_sd(mid) < s0:
            lo = mid
        else:
            hi = mid
    return n0, max(0.5 * (lo + hi), 0.25)


def intercept_prior(
    p: int,
    n0: float | None = None,
    t0_sq: float | None = None,
    expected_edges: float | None = None,
    sd_edges: float | None = None,
) -> tuple[float, float]:
    """The probit-intercept prior (n0, t0_sq) for p variables.

    Given values are kept; any missing one comes from ``edge_count_prior``
    with the given edge-count beliefs, which is evaluated only then.
    """
    if n0 is None or t0_sq is None:
        n0_prior, t0_prior = edge_count_prior(p, expected_edges, sd_edges)
        n0 = n0_prior if n0 is None else n0
        t0_sq = t0_prior if t0_sq is None else t0_sq
    return float(n0), float(t0_sq)


@dataclass(frozen=True)
class Hyperparameters:
    """Fixed model constants shared by all estimation routines.

    ``nu0`` maps each covariate level to its spike standard deviation (a
    plain float is broadcast when the levels are known, see
    ``from_edge_count_prior``); ``nu1`` is the slab standard deviation;
    ``lambda_diag`` the rate of the exponential prior on diagonal precision
    entries (density (lambda/2) exp(-(lambda/2) x)); ``n0``/``t0_sq`` the
    probit-intercept prior mean/variance; ``alpha_sigma``/``beta_sigma`` the
    Gamma prior on the coefficient-scale precision.
    """

    nu0: Mapping[int, float]
    nu1: float = 1.0
    lambda_diag: float = 1.0
    n0: float = 0.0
    t0_sq: float = 1.0
    alpha_sigma: float = 2.0
    beta_sigma: float = 2.0

    def __post_init__(self) -> None:
        nu0 = {int(a): float(v) for a, v in dict(self.nu0).items()}
        object.__setattr__(self, "nu0", nu0)
        if not nu0:
            raise DataError("nu0 must contain at least one level")
        for name in ("nu1", "lambda_diag", "n0", "t0_sq", "alpha_sigma", "beta_sigma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DataError(f"{name} must be finite, got {value}")
        if self.nu1 <= 0.0:
            raise DataError("nu1 must be positive")
        for a, v in nu0.items():
            # A single-level model (the baseline's) has no level worth naming.
            where = f" at level {a}" if len(nu0) > 1 else ""
            if not 0.0 < v < math.inf:
                raise DataError(f"nu0{where} must be positive and finite, got {v:g}")
            if v > self.nu1 / 10.0 * _NU0_SLACK:
                raise DataError(
                    f"nu0{where} is {v:g}; the spike must be well separated "
                    f"from the slab (require nu0 <= nu1/10 = {self.nu1 / 10.0:g})"
                )
        if self.lambda_diag <= 0.0:
            raise DataError("lambda_diag must be positive")
        if self.t0_sq <= 0.0:
            raise DataError("t0_sq must be positive")
        if self.alpha_sigma <= 0.0 or self.beta_sigma <= 0.0:
            raise DataError("alpha_sigma and beta_sigma must be positive")

    @classmethod
    def from_edge_count_prior(
        cls,
        p: int,
        levels: tuple[int, ...],
        nu0: float | Mapping[int, float],
        *,
        expected_edges: float | None = None,
        sd_edges: float | None = None,
        **settings: float,
    ) -> "Hyperparameters":
        """Build hyperparameters with (n0, t0_sq) elicited from edge-count beliefs.

        ``settings`` (``nu1``, ``lambda_diag``, ``alpha_sigma``,
        ``beta_sigma``) go to the constructor unchanged.
        """
        n0, t0_sq = edge_count_prior(p, expected_edges, sd_edges)
        if not isinstance(nu0, Mapping):
            nu0 = {int(a): float(nu0) for a in levels}
        return cls(nu0=nu0, n0=n0, t0_sq=t0_sq, **settings)

    def nu0_for(self, level: int) -> float:
        try:
            return self.nu0[int(level)]
        except KeyError:
            raise DataError(f"no nu0 configured for level {level}")


@dataclass(frozen=True)
class FitControls:
    """Iteration limits and the ELBO-based stopping rule."""

    max_iter: int = 1000
    elbo_rel_tol: float = 1e-5
    min_iter: int = 5

    def __post_init__(self) -> None:
        if not self.max_iter >= self.min_iter >= 1:
            raise DataError("require max_iter >= min_iter >= 1")
        if not 0.0 < self.elbo_rel_tol < math.inf:
            raise DataError(f"elbo_rel_tol must be positive and finite, got {self.elbo_rel_tol}")


class _PairField:
    """A per-edge field of ``VariationalState``, stored as the pair vector
    ``<name>_pairs`` (a level-keyed dict of them where ``per_level``) and
    read and assigned as p x p matrices: a read is ``_symmetric`` of the
    pairs (a ``_LevelMatrices`` view where ``per_level``), an assignment
    stores ``_pairs_of`` each matrix."""

    def __init__(self, per_level: bool = False) -> None:
        self.per_level = per_level

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = f"{name}_pairs"

    def __get__(self, state, owner=None):
        if state is None:
            return self
        pairs = getattr(state, self.name)
        if self.per_level:
            return _LevelMatrices(pairs, state.p)
        return _symmetric(pairs, state.p)

    def __set__(self, state, value) -> None:
        p = state.p
        if self.per_level:
            value = {int(a): _pairs_of(matrix, p) for a, matrix in value.items()}
        else:
            value = _pairs_of(value, p)
        setattr(state, self.name, value)


class _LevelMatrices(Mapping):
    """One per-level pair field as level-keyed p x p matrices: a read builds
    the read-only matrix, an assignment stores the matrix's pairs."""

    def __init__(self, pairs: dict[int, np.ndarray], p: int) -> None:
        self._pairs, self._p = pairs, p

    def __getitem__(self, level: int) -> np.ndarray:
        return _symmetric(self._pairs[level], self._p)

    def __setitem__(self, level: int, matrix: np.ndarray) -> None:
        self._pairs[int(level)] = _pairs_of(matrix, self._p)

    def __iter__(self):
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)


@dataclass
class VariationalState:
    """All variational factor parameters plus per-level precision estimates.

    Each per-edge field is one vector of the M = p(p-1)/2 pairs in
    ``_triangle`` order (``*_pairs``): the edges i < j, the only ones the
    model has.  ``ppi``, ``ez``, ``ez2`` and ``zloc`` map each level to
    such a vector; ``zeta_mean``, ``zeta_var``, ``beta_mean`` and
    ``beta_var`` are one each.  Read through their names
    (``state.ppi[level]``, ``state.zeta_mean``), the fields are exactly
    symmetric p x p matrices with a zero diagonal, built on each read and
    read-only, so that a write into one raises instead of being lost;
    assigning a p x p matrix (or, for a per-level field, a level-keyed
    mapping of them, or one matrix under a level) stores its strict upper
    triangle.  ``omega`` maps each level to its p x p precision matrix.
    ``probit_levels`` holds the covariate values used in the probit index,
    aligned with ``levels`` (``fit`` stores mean-centered values there so
    that results are invariant to shifting all levels by a constant).
    ``zloc`` records the truncation location that defines the current
    latent-threshold factor; the ELBO must evaluate that factor's moments at
    this stored location.
    """

    levels: tuple[int, ...]
    probit_levels: np.ndarray
    omega: dict[int, np.ndarray]
    ppi_pairs: dict[int, np.ndarray]
    ez_pairs: dict[int, np.ndarray]
    ez2_pairs: dict[int, np.ndarray]
    zloc_pairs: dict[int, np.ndarray]
    zeta_mean_pairs: np.ndarray
    zeta_var_pairs: np.ndarray
    beta_mean_pairs: np.ndarray
    beta_var_pairs: np.ndarray
    sigma_shape: float
    sigma_rate: float

    ppi = _PairField(per_level=True)
    ez = _PairField(per_level=True)
    ez2 = _PairField(per_level=True)
    zloc = _PairField(per_level=True)
    zeta_mean = _PairField()
    zeta_var = _PairField()
    beta_mean = _PairField()
    beta_var = _PairField()

    @property
    def p(self) -> int:
        # M = p(p-1)/2 entries per field.
        return (1 + math.isqrt(8 * self.zeta_mean_pairs.size + 1)) // 2

    def probit_level(self, level: int) -> float:
        return float(self.probit_levels[self.levels.index(int(level))])

    def copy(self) -> "VariationalState":
        return copy.deepcopy(self)


@dataclass(frozen=True)
class FitReport:
    """Outcome of one variational fit."""

    elbo_trace: tuple[float, ...]
    converged: bool
    final_state: VariationalState

    @property
    def iterations(self) -> int:
        return len(self.elbo_trace)


def init_state(data: GroupedDataset, hyper: Hyperparameters) -> VariationalState:
    """Standard starting point: identity precisions, inclusion probability 0.5.

    ``probit_levels`` starts at the raw level values; ``fit`` replaces them
    with mean-centered copies before iterating.
    """
    p = data.p
    pairs = p * (p - 1) // 2
    if hyper.alpha_sigma > 1.0:
        beta_var0 = hyper.beta_sigma / (hyper.alpha_sigma - 1.0)
    else:
        beta_var0 = hyper.beta_sigma / hyper.alpha_sigma
    return VariationalState(
        levels=data.levels,
        probit_levels=np.array(data.levels, dtype=float),
        omega={a: np.eye(p) for a in data.levels},
        ppi_pairs={a: np.full(pairs, 0.5) for a in data.levels},
        ez_pairs={a: np.zeros(pairs) for a in data.levels},
        ez2_pairs={a: np.ones(pairs) for a in data.levels},
        zloc_pairs={a: np.zeros(pairs) for a in data.levels},
        zeta_mean_pairs=np.full(pairs, hyper.n0),
        zeta_var_pairs=np.full(pairs, hyper.t0_sq),
        beta_mean_pairs=np.zeros(pairs),
        beta_var_pairs=np.full(pairs, beta_var0),
        sigma_shape=hyper.alpha_sigma,
        sigma_rate=hyper.beta_sigma,
    )


@functools.lru_cache(maxsize=8)
def _triangle(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices of the strict upper triangle of a p x p matrix and of
    its mirror image, in ``np.triu_indices`` order, and the p x p pair map:
    entry (i, j) holds the position of pair (min(i, j), max(i, j)) in that
    order, and the diagonal holds M = p(p-1)/2, one past the last pair.
    Read-only, since every caller with the same p shares them."""
    rows, cols = np.triu_indices(p, 1)
    upper, lower = rows * p + cols, cols * p + rows
    pairs = np.full(p * p, len(upper), dtype=np.intp)
    pairs[upper] = pairs[lower] = np.arange(len(upper))
    pairs = pairs.reshape(p, p)
    for index in (upper, lower, pairs):
        index.setflags(write=False)
    return upper, lower, pairs


_ZERO = np.zeros(1)


def _symmetric(pairs: np.ndarray, p: int) -> np.ndarray:
    """The exactly symmetric p x p matrix of a pair vector (the M pairs in
    ``_triangle`` order) with a zero diagonal: one ``take`` through the pair
    map of the pairs with a zero appended, which the map's diagonal entry M
    reads.  Read-only, since a write into it could not reach the pairs."""
    matrix = np.concatenate((pairs, _ZERO)).take(_triangle(p)[2])
    matrix.setflags(write=False)
    return matrix


def _pairs_of(matrix: np.ndarray, p: int) -> np.ndarray:
    """The pair vector of a p x p matrix: its strict upper triangle in
    ``_triangle`` order."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (p, p):
        raise ValueError(f"expected a {p} x {p} matrix, got shape {matrix.shape}")
    return matrix.take(_triangle(p)[0])


def _pair_index(p: int, edge: tuple[int, int]) -> int:
    """The position of edge (i, j), in either order, in the pair vectors.

    The model has a factor only for pairs of distinct nodes, so a diagonal
    pair (i, i) or a node outside 0..p-1 raises ``ValueError``.
    """
    i, j = (int(node) for node in edge)
    if i == j or not (0 <= i < p and 0 <= j < p):
        raise ValueError(
            f"edge {(i, j)} is not a pair of distinct nodes in 0..{p - 1}: "
            f"the model has no diagonal factor"
        )
    return int(_triangle(p)[2][i, j])


def _probit_tails(
    m: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Hazards and log-probabilities of both sides of zero under N(m, 1).

    Returns ``(h_pos, h_neg, log_pos, log_neg)`` with h_pos = phi(m)/Phi(m),
    h_neg = phi(m)/Phi(-m), log_pos = log Phi(m) and log_neg = log Phi(-m),
    all from one s = erfcx(|m|/sqrt 2) and g = exp(-m^2/2).  The near tail,
    whose probability is Phi(-|m|) = s g / 2, has hazard sqrt(2/pi)/s and
    log-probability log(s/2) - m^2/2; the far tail has hazard
    sqrt(2/pi) g/(2 - s g) and log-probability log1p(-s g/2).  No step
    overflows or divides by zero at any finite m; g may underflow to 0,
    which is its correct value there, and then the far hazard is 0.
    """
    half_sq, s, g, sg, far_hazard, near_hazard = (np.empty(m.shape) for _ in range(6))
    np.multiply(m, 0.5, out=half_sq)
    half_sq *= m
    np.abs(m, out=s)
    s /= _SQRT2
    special.erfcx(s, out=s)
    np.negative(half_sq, out=g)
    with np.errstate(under="ignore"):
        np.exp(g, out=g)
        np.multiply(s, g, out=sg)
        np.multiply(g, _SQRT_2_OVER_PI, out=far_hazard)
        np.subtract(2.0, sg, out=near_hazard)
        far_hazard /= near_hazard
        far_log = np.multiply(sg, -0.5, out=sg)
        np.log1p(far_log, out=far_log)
    np.divide(_SQRT_2_OVER_PI, s, out=near_hazard)
    near_log = np.multiply(s, 0.5, out=s)
    np.log(near_log, out=near_log)
    near_log -= half_sq
    above = m >= 0.0  # the far tail lies above zero
    # The positive side takes the far tail above zero and the near one
    # below; it is gathered anew, and the negative side is the far buffer
    # with the near values copied in above zero.
    h_pos = np.where(above, far_hazard, near_hazard)
    log_pos = np.where(above, far_log, near_log)
    np.copyto(far_hazard, near_hazard, where=above)
    np.copyto(far_log, near_log, where=above)
    return h_pos, far_hazard, log_pos, far_log


def truncated_normal_moments(
    location: float | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Moments of a unit-variance Gaussian truncated at 0, by truncation side.

    Returns ``(mean_above0, mean_below0, var_above0, var_below0)`` for a
    parent Gaussian with the given location m: the means are m + h_pos and
    m - h_neg, the variances 1 - h_pos (h_pos + m) and 1 - h_neg (h_neg - m),
    with both hazards from one ``erfcx`` call (``_probit_tails``).  The
    results stay finite and accurate for locations of magnitude up to about
    38.
    """
    m = np.asarray(location, dtype=float)
    hazard_pos, hazard_neg, _, _ = _probit_tails(m)
    mean_above = m + hazard_pos
    mean_below = m - hazard_neg
    var_above = 1.0 - hazard_pos * (hazard_pos + m)
    var_below = 1.0 - hazard_neg * (hazard_neg - m)
    return mean_above, mean_below, var_above, var_below


def _edge_latent_core(
    omega: np.ndarray, m: np.ndarray, tails: tuple, nu0: float, nu1: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimal joint factor for the edge indicator and its latent threshold.

    ``m`` is the probit index E[zeta] + a E[beta], on any shape that
    ``omega`` has, and ``tails`` its ``_probit_tails``: hazards and
    log Phi(+-m) from one ``erfcx`` per entry.  Returns the inclusion
    probability p*, E[z] and E[z^2].  The slab/spike posterior odds are
    formed in log space, so extreme density ratios cannot overflow.  E[z] =
    m + p* h_pos - (1 - p*) h_neg, and since E[z^2] = 1 + m E[z] on each
    side of zero, E[z^2] = 1 + m E[z].
    """
    h_pos, h_neg, log_pos, log_neg = tails
    log_slab, log_spike, ez = (np.empty(m.shape) for _ in range(3))
    np.multiply(omega, omega, out=log_slab)
    np.divide(log_slab, 2.0 * nu0 * nu0, out=log_spike)
    log_slab /= 2.0 * nu1 * nu1
    np.subtract(-math.log(nu1), log_slab, out=log_slab)
    log_slab += log_pos
    np.subtract(-math.log(nu0), log_spike, out=log_spike)
    log_spike += log_neg
    log_slab -= log_spike
    pstar = special.expit(log_slab, out=log_slab)
    np.multiply(pstar, h_pos, out=ez)
    np.add(m, ez, out=ez)
    spike_share = np.subtract(1.0, pstar, out=log_spike)
    spike_share *= h_neg
    ez -= spike_share
    ez2 = np.multiply(m, ez)
    ez2 += 1.0
    return pstar, ez, ez2


def update_edge_latents(
    state: VariationalState,
    hyper: Hyperparameters,
    level: int,
    tails: dict[int, tuple] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Refresh p*, E[z] and E[z^2] for one level, in place.

    Works on the level's pair vectors: reads the precision matrix on the
    upper triangle and the probit index E[zeta] + a E[beta] on the pairs,
    and stores new vectors.  Also stores the probit index as the level's new
    truncation location.  Given a dict ``tails``, also stores there, under
    the level, the location's ``_probit_tails``, which ``_elbo_terms`` can
    take instead of computing them again.  Returns the new ``(ppi, ez,
    ez2)`` pair vectors, the state's own.
    """
    level = int(level)
    m = np.multiply(state.beta_mean_pairs, state.probit_level(level))
    m += state.zeta_mean_pairs
    level_tails = _probit_tails(m)
    pstar, ez, ez2 = _edge_latent_core(
        state.omega[level].take(_triangle(state.p)[0]), m, level_tails,
        hyper.nu0_for(level), hyper.nu1,
    )
    if tails is not None:
        tails[level] = level_tails
    state.ppi_pairs[level] = pstar
    state.ez_pairs[level] = ez
    state.ez2_pairs[level] = ez2
    state.zloc_pairs[level] = m
    return pstar, ez, ez2


# Both cores sum over levels in place, in the order of ``levels`` (the order
# fixes the rounding); an edge's update runs them on 0-d arrays.
def _zeta_update_core(ez_stack, beta_mean, levels, n0, t0_sq):
    tau = 1.0 / t0_sq + len(levels)
    mean = np.zeros(np.shape(beta_mean))
    term = np.empty_like(mean)
    for ez_a, a in zip(ez_stack, levels):
        np.subtract(ez_a, np.multiply(beta_mean, a, out=term), out=term)
        mean += term
    mean += n0 / t0_sq
    mean /= tau
    return mean, 1.0 / tau


def update_zeta(
    state: VariationalState, hyper: Hyperparameters, edge: tuple[int, int] | None = None
):
    """Optimal Gaussian factor for the probit intercepts.

    With ``edge=(i, j)``, i != j, returns that edge's updated ``(mean,
    variance)`` without touching the state (a diagonal pair or a node
    outside 0..p-1 raises ``ValueError``); with ``edge=None`` applies the
    update to every pair in place and returns the new ``(mean, variance)``
    pair vectors.
    """
    a_vals = state.probit_levels
    if edge is not None:
        pair = _pair_index(state.p, edge)
        ez = [state.ez_pairs[a][pair] for a in state.levels]
        mean, var = _zeta_update_core(
            ez, state.beta_mean_pairs[pair], a_vals, hyper.n0, hyper.t0_sq
        )
        return float(mean), var
    ez_stack = [state.ez_pairs[a] for a in state.levels]
    mean, var = _zeta_update_core(ez_stack, state.beta_mean_pairs, a_vals, hyper.n0, hyper.t0_sq)
    state.zeta_mean_pairs = mean
    state.zeta_var_pairs = np.full(mean.shape, var)
    return mean, state.zeta_var_pairs


def _beta_update_core(ez_stack, zeta_mean, levels, e_sigma_prec):
    tau = e_sigma_prec + float(sum(a * a for a in levels))
    mean = np.zeros(np.shape(zeta_mean))
    term = np.empty_like(mean)
    for ez_a, a in zip(ez_stack, levels):
        np.subtract(ez_a, zeta_mean, out=term)
        term *= a
        mean += term
    mean /= tau
    return mean, 1.0 / tau


def update_beta(
    state: VariationalState, hyper: Hyperparameters, edge: tuple[int, int] | None = None
):
    """Optimal Gaussian factor for the covariate coefficients.

    Same calling convention as ``update_zeta``.  The coefficient-scale
    precision enters through its current posterior mean.
    """
    e_prec = state.sigma_shape / state.sigma_rate
    a_vals = state.probit_levels
    if edge is not None:
        pair = _pair_index(state.p, edge)
        ez = [state.ez_pairs[a][pair] for a in state.levels]
        mean, var = _beta_update_core(ez, state.zeta_mean_pairs[pair], a_vals, e_prec)
        return float(mean), var
    ez_stack = [state.ez_pairs[a] for a in state.levels]
    mean, var = _beta_update_core(ez_stack, state.zeta_mean_pairs, a_vals, e_prec)
    state.beta_mean_pairs = mean
    state.beta_var_pairs = np.full(mean.shape, var)
    return mean, state.beta_var_pairs


def update_sigma(state: VariationalState, hyper: Hyperparameters) -> tuple[float, float]:
    """Optimal Gamma factor for the shared coefficient-scale precision."""
    p = state.p
    m_edges = p * (p - 1) / 2.0
    shape = hyper.alpha_sigma + m_edges / 2.0
    bm = state.beta_mean_pairs
    rate = hyper.beta_sigma + 0.5 * float((bm ** 2 + state.beta_var_pairs).sum())
    state.sigma_shape = shape
    state.sigma_rate = rate
    return shape, rate


_POTRF, _POTRI = get_lapack_funcs(("potrf", "potri"), dtype=np.float64)
# Level-1 BLAS of the Newton step's single-precision CG.  ``_AXPY`` and
# ``_SCAL`` write their vector argument in place only when it is a
# contiguous float32 array; given anything else they return a new array and
# the update is lost, so they are called on flat views of C-contiguous
# float32 buffers only.
_AXPY, _DOT, _SCAL = get_blas_funcs(("axpy", "dot", "scal"), dtype=np.float32)


def _logdet(factor: np.ndarray) -> float:
    """log det of a matrix from its Cholesky factor L: 2 sum_i log L_ii.

    The logs are taken over a view of L's diagonal and summed by the array
    method, which rounds exactly as ``2 * np.sum(np.log(np.diag(L)))`` does
    but without NumPy's Python-level wrappers; it runs for every factor of
    every Newton step, line-search trial and ELBO.  Only L's diagonal is
    read, so the upper triangle may hold anything.
    """
    return 2.0 * float(np.log(factor.diagonal()).sum())


def _inverse_from_factor(factor: np.ndarray) -> np.ndarray:
    """The inverse of a matrix from its lower Cholesky factor, not written.

    ``potri`` fills the lower triangle of the Fortran-ordered result, which
    is the upper triangle of its C-ordered transpose; that triangle is then
    mirrored, so the result is C-contiguous and exactly symmetric.  The
    factor's upper triangle is not read.
    """
    inverse, info = _POTRI(factor, lower=1)
    if info != 0:
        raise NumericalError("singular Cholesky factor of a precision matrix")
    inverse = inverse.T
    upper, lower, _ = _triangle(inverse.shape[0])
    flat = inverse.reshape(-1)
    flat[lower] = flat[upper]
    return inverse


# Conjugate-gradient iterations per Newton step; the line search's Armijo
# constant, its cap on step halvings, and the first-order gain (relative to
# |f|) below which the Armijo comparison would be decided by the rounding of
# f and is not made.  ``refit_precision`` takes at most _REFIT_STEPS steps,
# stopping once a step moves no entry by _REFIT_TOL of the largest.
_CG_ITERATIONS = 10
_REFIT_STEPS = 100
_REFIT_TOL = 1e-8
_ARMIJO = 1e-4
_HALVINGS = 30
_ROUNDING = 1e-13
_INDEFINITE = (
    "indefinite Newton system in the precision update; the prior precisions must be positive"
)
_SINGLE_RANGE = (
    "the Newton system of the precision update leaves single-precision range: the variables' "
    "scales differ too widely; standardise the data (GroupedDataset.prepare(scale=True))"
)
# Float32's smallest normal number: every preconditioner entry must reach it.
_TINY32 = float(np.finfo(np.float32).tiny)


def _newton_step(
    omega: np.ndarray,
    scatter: np.ndarray,
    n: int,
    d: np.ndarray,
    lambda_diag: float,
    factor: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One Newton-CG ascent step on a level's precision objective.

    For fixed expected prior precisions ``d`` the precision matrix's part of
    the ELBO is ``f(omega) = (n/2) log det(omega) - tr((S + lambda I)
    omega) / 2 - sum_{i<j} d_ij omega_ij^2 / 2``.  With ``W = inv(omega)``
    (``potri`` on omega's Cholesky factor) and ``D`` equal to ``d`` with a
    zero diagonal, ``G = n W - (S + lambda I) - D o omega`` is twice its
    gradient and ``X -> n W X W + D o X`` twice its negative Hessian, both
    in the Frobenius inner product, so the Newton direction solves ``n W X W
    + D o X = G``.  Ten preconditioned conjugate-gradient iterations from ``X
    = 0`` solve it approximately, two p x p products with ``sqrt(n) W`` each,
    on buffers allocated once per step.  The preconditioner is the
    operator's diagonal: ``n (W_ii W_jj + W_ij^2) + d_ij`` off the diagonal
    and ``n W_ii^2`` on it, applied as a product with its reciprocal.
    Truncated CG from zero gives an ascent direction, ``<G, X> = <X, n W X
    W + D o X> > 0``.

    The CG runs in single precision: ten iterations leave the direction
    inexact anyway, and inexact-Newton theory (Dembo, Eisenstat & Steihaug,
    1982) ties its quality to that truncation, not to float64 rounding; the
    products cost half as much.  Its inputs are normalised, ``sqrt(n) W /
    s``, ``D / s^2`` and ``G / g`` with ``s = max |sqrt(n) W|`` and ``g =
    max |G|`` (1 if G = 0), so no scale of the data overflows float32, and
    the direction is mapped back as ``X = float64(X_32 + X_32') g / (2
    s^2)``, symmetrised in float32 and cast once; the step is thus
    equivariant under scaling the data.  Each normalised input is one
    product with a scalar reciprocal, written by the float64 ufunc straight
    into its float32 buffer, so it is rounded once.  The preconditioner of
    the normalised system is formed in float32 from the rounded ``rw =
    sqrt(n) W / s``: ``rw_ii rw_jj + rw_ij^2 + D_ij / s^2`` off the diagonal
    and ``rw_ii^2`` on it, checked and inverted in place.  An entry below
    float32's smallest normal number where ``d`` is not negative means that
    the system spans more orders of magnitude than single precision holds
    (columns on scales 1e-6 to 1e6, say); that raises ``NumericalError``
    naming single-precision range, before any float32 overflow.  At the
    sizes fitted here a CG iteration
    is bound by the cost of each call, not by its flops, so its vector work
    runs as level-1 BLAS on flat views of the buffers: ``X += alpha P`` and
    ``R -= alpha image`` are one ``axpy`` each, ``P <- Z + beta P`` is
    ``scal`` then ``axpy``, and both inner products are ``dot``; the two
    matrix products, ``D o P`` and ``Z = R o M^-1`` stay NumPy.  ``axpy``
    rounds ``a x + y`` once where NumPy rounded the product and the sum
    apart, so X and R differ from a NumPy loop's in float32 rounding, and
    fits move at that level, as they do by the float32 preconditioner and
    symmetrisation.  Everything else (the inverse, G, the gain, the line
    search and every factorisation) stays in double precision, so positive
    definiteness and ascent keep their guarantees.

    The symmetrised step is halved from length 1 until ``omega + alpha X``
    has a Cholesky factor and raises ``f`` by at least 1e-4 of the
    first-order gain ``alpha <G, X> / 2`` (Armijo; ``_line_search``).  The
    rise is scored incrementally (``_change_along``): ``f(omega + alpha X) -
    f(omega)`` is the log-determinant change times n/2 less three inner
    products with ``X``, formed once per step, so a trial costs one
    Cholesky factorisation and its log-determinant.  Once the first-order
    gain is at most 1e-13 of ``|f(omega)|`` the comparison would be decided
    by rounding, so a trial with a Cholesky factor is accepted without it;
    a gain that is not positive returns omega unchanged.  So the result is
    positive definite and ``f`` never falls beyond rounding.

    ``factor`` is omega's lower Cholesky factor as ``_POTRF(omega, lower=1,
    clean=0)`` gives it (the upper triangle is not read); without it omega
    is factored here.  Returns the new matrix, a new exactly symmetric
    array, and its factor from the line search's own factorisation, so the
    next step and the ELBO need not factor it again.  If the gain is not
    positive, or 30 halvings find no acceptable length, a copy of ``omega``
    comes back with its factor.
    Neither ``omega`` nor ``factor`` is written.  A system that is not
    positive definite (met as an entry of the preconditioner that is not
    positive where ``d`` is negative, or a CG curvature ``<P, n W P W + D o
    P>`` that is not positive; only a negative ``d`` can cause it) raises
    ``NumericalError``.  One step costs O(p^3).
    """
    p = omega.shape[0]
    base = np.array(scatter, dtype=float)
    base.flat[:: p + 1] += lambda_diag
    off = np.array(d, dtype=float)
    off.flat[:: p + 1] = 0.0
    if factor is None:
        factor, info = _POTRF(omega, lower=1, clean=0)
        if info > 0:
            raise NumericalError("precision matrix is not positive definite")
    logdet = _logdet(factor)
    off_omega = off * omega
    value = 0.5 * n * logdet - 0.5 * float(np.vdot(base, omega)) \
        - 0.25 * float(np.vdot(off_omega, omega))
    w = _inverse_from_factor(factor)
    grad = n * w
    grad -= base
    grad -= off_omega
    # The float32 system is divided through by s^2 and g, so that its
    # largest entries are 1 whatever the scale of the data.  Each input is
    # rounded once, into its buffer; the preconditioner is formed in float32
    # from the rounded sqrt(n) W / s.
    scale = math.sqrt(n) * max(float(w.max()), -float(w.min()))
    grad_max = max(float(grad.max()), -float(grad.min())) or 1.0
    root_w, off32, inv_precond, resid, x, z, direction, image, scratch = np.empty(
        (9, p, p), dtype=np.float32
    )
    np.multiply(w, math.sqrt(n) / scale, out=root_w, casting="same_kind")
    np.multiply(off, 1.0 / (scale * scale), out=off32, casting="same_kind")
    np.multiply(grad, 1.0 / grad_max, out=resid, casting="same_kind")
    root_diag = root_w.diagonal()
    np.multiply.outer(root_diag, root_diag, out=inv_precond)
    inv_precond += np.multiply(root_w, root_w, out=scratch)
    inv_precond += off32
    inv_precond.flat[:: p + 1] = root_diag * root_diag
    if not inv_precond.min() >= _TINY32:
        # Only a negative d can make an entry non-positive; any other entry
        # this small has left float32's range.
        if np.any((inv_precond <= 0.0) & (off < 0.0)):
            raise NumericalError(_INDEFINITE)
        raise NumericalError(_SINGLE_RANGE)
    np.reciprocal(inv_precond, out=inv_precond)

    x_flat, resid_flat, z_flat = x.reshape(-1), resid.reshape(-1), z.reshape(-1)
    direction_flat, image_flat = direction.reshape(-1), image.reshape(-1)
    x_flat.fill(0.0)
    np.multiply(resid, inv_precond, out=z)
    direction_flat[:] = z_flat
    rz = _DOT(resid_flat, z_flat)
    for _ in range(_CG_ITERATIONS):
        if rz == 0.0:
            break
        np.matmul(root_w, direction, out=scratch)
        np.matmul(scratch, root_w, out=image)
        image += np.multiply(off32, direction, out=scratch)
        curvature = _DOT(direction_flat, image_flat)
        if not curvature > 0.0:
            raise NumericalError(_INDEFINITE)
        alpha = rz / curvature
        _AXPY(direction_flat, x_flat, a=alpha)
        _AXPY(image_flat, resid_flat, a=-alpha)
        np.multiply(resid, inv_precond, out=z)
        rz_next = _DOT(resid_flat, z_flat)
        _SCAL(rz_next / rz, direction_flat)
        _AXPY(z_flat, direction_flat)
        rz = rz_next
    x = np.multiply(
        np.add(x, x.T, out=z), 0.5 * grad_max / (scale * scale), dtype=np.float64
    )

    gain = 0.5 * float(np.vdot(grad, x))
    if not gain > 0.0:
        return omega.copy(), factor
    change = _change_along(omega, x, logdet, n, base, off, off_omega)
    return _line_search(omega, factor, x, gain, value, change)


def _change_along(
    omega: np.ndarray, x: np.ndarray, logdet: float, n: int,
    base: np.ndarray, off: np.ndarray, off_omega: np.ndarray,
) -> Callable[[float, np.ndarray], float]:
    """The precision objective's change along ``x``, from three inner products.

    With ``B = S + lambda I`` (``base``), ``D`` (``off``, zero diagonal) and
    ``off_omega = D o omega``, ``f(omega + alpha x) - f(omega) = (n/2)(log
    det(omega + alpha x) - log det omega) - (alpha/2)<B, x> - (alpha/2)<D o
    omega, x> - (alpha^2/4)<D o x, x>``.  The inner products are formed here
    once; the returned ``change(alpha, trial_factor)`` needs only the trial's
    Cholesky factor.  ``logdet`` is log det omega.
    """
    base_x = float(np.vdot(base, x))
    off_omega_x = float(np.vdot(off_omega, x))
    off_x_x = float(np.vdot(off * x, x))

    def change(length: float, trial_factor: np.ndarray) -> float:
        return 0.5 * n * (_logdet(trial_factor) - logdet) - 0.5 * length * base_x \
            - 0.5 * length * off_omega_x - 0.25 * length * length * off_x_x

    return change


def _line_search(
    omega: np.ndarray, factor: np.ndarray, x: np.ndarray, gain: float, value: float,
    change: Callable[[float, np.ndarray], float],
) -> tuple[np.ndarray, np.ndarray]:
    """The Armijo halving of ``_newton_step`` (see there), each trial scored
    by ``change``; ``value`` is f(omega).  Returns the accepted trial and its
    factor, or a copy of ``omega`` with ``factor``."""
    length = 1.0
    for _ in range(_HALVINGS):
        trial = omega + length * x
        trial_factor, info = _POTRF(trial, lower=1, clean=0)
        if info == 0 and (
            length * gain <= _ROUNDING * abs(value)
            or change(length, trial_factor) >= _ARMIJO * length * gain
        ):
            return trial, trial_factor
        length *= 0.5
    return omega.copy(), factor


# Step cap and relative tolerance of the ridge start's diagonal fixed point.
# Near the fixed point the steps shrink about quadratically; on 1,500 random
# designs every step below 1e-5 of the diagonal that did not shrink was
# rounding noise, and every one above 1e-2 came before convergence, so a
# step below _RIDGE_STALL that no longer shrinks ends the iteration.
_RIDGE_STEPS = 50
_RIDGE_TOL = 1e-12
_RIDGE_STALL = 1e-4
# Conjugate-gradient iterations on each step's Newton system.
_RIDGE_CG_ITERATIONS = 3
# How far lambda tr(delta) may pass n p, the fixed point's bound, before
# the iteration counts as diverged; and how far, relative, a start capped at
# _RIDGE_STEPS may pass it before it counts as short of the fixed point.
_RIDGE_DIVERGED = 10.0
_RIDGE_ROUNDING = 1e-12


def _ridge_spectrum(
    system: np.ndarray, slab: float, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ridge_start``'s closed form for ``B = system`` and its Newton kernel.

    With ``B = V diag(b) V'`` returns ``V``, ``g(b)`` and the p x p matrix
    ``1 - h_kl``, where ``h_kl = (gap_k + gap_l) / (2 (root_k + root_l))``
    with ``root = sqrt(b^2 + 4dn)`` and ``gap = root - b`` is ``-d`` times
    the divided difference of ``g`` at ``b_k, b_l`` (its derivative where
    ``k = l``).  ``1 - h_kl = (rest_k + rest_l) / (2 (root_k + root_l))``
    with ``rest = root + b`` lies in (0, 1); ``gap`` and ``rest`` are each
    formed without cancellation (their product is ``4dn``), so the kernel
    stays positive however close ``h`` comes to 1.
    """
    b, v = np.linalg.eigh(system)
    root = np.sqrt(b * b + 4.0 * slab * n)
    gap, rest = root - b, root + b
    # Each is divided where the other side cancels, and only there: the
    # cancelling side is zero once |b| dwarfs sqrt(4dn).
    positive = b > 0.0
    np.divide(4.0 * slab * n, rest, out=gap, where=positive)
    np.divide(4.0 * slab * n, gap, out=rest, where=~positive)
    kernel = (rest[:, None] + rest[None, :]) / (2.0 * (root[:, None] + root[None, :]))
    return v, gap / (2.0 * slab), kernel


def _ridge_newton_product(v: np.ndarray, kernel: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``(I - J) u`` for ``ridge_start``'s fixed point, from ``_ridge_spectrum``.

    ``J u = diag(V (H o (V' diag(u) V)) V')`` and ``diag(V (V' diag(u) V)
    V') = u``, so ``(I - J) u = diag(V ((1 - H) o (V' diag(u) V)) V')``: two
    p x p products and no cancellation.
    """
    inner = kernel * (v.T @ (u[:, None] * v))
    return np.sum((v @ inner) * v, axis=1)


def ridge_start(scatter: np.ndarray, n: int, nu1: float, lambda_diag: float) -> np.ndarray:
    """One level's all-slab ridge estimate of its precision matrix: ``fit``'s start.

    The estimate maximises ``(n/2) log det(omega) - tr((S + lambda I)
    omega) / 2 - (d/2) sum_{i<j} omega_ij^2``, every edge at the slab
    precision ``d = 1/nu1^2``.  Its stationarity condition is ``n
    inv(omega) - d omega = B(delta) := S + lambda I - d Diag(delta)``, where
    ``delta`` is the diagonal of omega.  For a given ``delta`` it has a
    closed form: with ``B = V diag(b) V'``, ``omega = V diag(g(b)) V'``,
    where ``g(b) = (sqrt(b^2 + 4dn) - b) / (2d) > 0`` is the positive root
    of ``n/g - d g = b``.  What remains is the p-dimensional fixed point
    ``delta = F(delta) := diag(omega(delta))``, one ``eigh`` per step.
    ``F`` is a contraction: its Jacobian ``J``, with ``J u = diag(V (H o
    (V' diag(u) V)) V')`` (``h_kl`` as in ``_ridge_spectrum``), is
    symmetric with eigenvalues in [0, 1), because ``d |g'(b)| = (1 - b /
    sqrt(b^2 + 4dn)) / 2 < 1``.  They approach 1 where ``B`` has
    eigenvalues far below ``-sqrt(dn)`` (n << p with a narrow slab), and
    there plain iteration needs thousands of steps.  Each step is therefore
    an inexact Newton step (Dembo, Eisenstat & Steihaug, 1982): three
    conjugate-gradient iterations from zero on ``(I - J) s = F(delta) -
    delta``, whose matrix is positive definite, preconditioned by its
    diagonal.  A product with ``I - J`` costs two p x p products and no
    ``eigh`` (``_ridge_newton_product``), so a step costs one ``eigh`` and
    seven p x p products.  From a positive ``delta`` it stops once a step
    moves no diagonal entry by more than 1e-12 of the largest, once a step below
    1e-4 of it no longer shrinks (the iteration has stalled at rounding
    level, which happens far above 1e-12 for data on a very small or large
    scale), or after 50 steps.  Every step yields a positive-definite omega,
    since every g(b) is positive.  At the fixed point ``lambda tr(omega) <=
    n p``, since the objective's derivative along ``t omega`` vanishes
    there; an iterate whose diagonal passes ten times that (or ten times the
    start's ``lambda p``) has diverged, as happens when ``eigh`` cannot
    resolve a system whose columns span some fifteen orders of magnitude,
    and raises ``NumericalError`` before any overflow.  A start capped at 50
    steps whose ``lambda tr(omega)`` passes ``n p`` by more than rounding is
    far from the fixed point (on columns spanning about fourteen orders of
    magnitude with n << p such iterates diverge given more steps) and raises
    ``NumericalError`` too.
    The result, exactly symmetric, depends on the level's data, ``nu1`` and
    ``lambda_diag`` only, never on the spike.
    """
    p = scatter.shape[0]
    slab = 1.0 / (nu1 * nu1)
    system = np.array(scatter, dtype=float)
    base = np.diag(system) + lambda_diag
    delta = np.ones(p)
    # lambda tr(omega) <= n p at the fixed point (f's derivative along
    # omega -> t omega vanishes there), and the start has trace p.
    bound = _RIDGE_DIVERGED * max(n * p, lambda_diag * p)
    previous = math.inf
    for _ in range(_RIDGE_STEPS):
        np.fill_diagonal(system, base - slab * delta)
        v, g, kernel = _ridge_spectrum(system, slab, n)
        # Jacobi-preconditioned CG on (I - J) step = F(delta) - delta.
        squares = v * v
        resid = squares @ g - delta
        diagonal = np.sum((squares @ kernel) * squares, axis=1)
        step = np.zeros(p)
        z = resid / diagonal
        direction = z
        rz = float(resid @ z)
        for _ in range(_RIDGE_CG_ITERATIONS):
            if rz == 0.0:
                break
            image = _ridge_newton_product(v, kernel, direction)
            alpha = rz / float(direction @ image)
            step += alpha * direction
            resid -= alpha * image
            z = resid / diagonal
            rz_next = float(resid @ z)
            direction = z + (rz_next / rz) * direction
            rz = rz_next
        # An overshoot can leave entries of delta negative: never stop there.
        scaled = float(np.max(np.abs(step)) / np.max(np.abs(delta)))
        if np.min(delta) > 0.0 and (scaled <= _RIDGE_TOL or previous <= scaled <= _RIDGE_STALL):
            break
        previous = scaled
        delta += step
        if lambda_diag * float(np.sum(delta)) > bound:
            raise NumericalError(
                f"the all-slab ridge start diverged (lambda tr(omega) passed {bound:.3g}, "
                f"{_RIDGE_DIVERGED:g} times its bound at the fixed point); the variables' "
                f"scales differ too widely: standardise the data "
                f"(GroupedDataset.prepare(scale=True))"
            )
    else:
        # tr(omega) is the sum of g, since V is orthogonal.
        excess = lambda_diag * float(np.sum(g)) / (n * p)
        if excess > 1.0 + _RIDGE_ROUNDING:
            raise NumericalError(
                f"the all-slab ridge start reached its cap of {_RIDGE_STEPS} steps with "
                f"lambda tr(omega) at {excess:.4g} times n p, its bound at the fixed point; "
                f"the variables' scales differ too widely: standardise the data "
                f"(GroupedDataset.prepare(scale=True))"
            )
    omega = (v * g) @ v.T
    return 0.5 * (omega + omega.T)


def _start_slab(n: int, p: int, nu1: float) -> float:
    """The slab standard deviation of a level's ``ridge_start`` in ``fit``
    and ``line_search_nu0``: nu1, or nu1/10 on a level with fewer samples
    (n) than variables (p).

    With n < p the all-slab estimate at nu1 overfits: its off-diagonal
    entries all land above the spike scale, and the fit keeps every edge in
    the slab.  The narrower slab shrinks them to where the spike competes.
    """
    return nu1 if n >= p else nu1 / 10.0


def _expected_prior_precision(ppi: np.ndarray, nu0: float, nu1: float) -> np.ndarray:
    """Each entry's expected prior precision, p*/nu1^2 + (1 - p*)/nu0^2.

    The two weighted precisions are summed as they stand, so p* = 1 and p* =
    0 give 1/nu1^2 and 1/nu0^2 exactly; ``p* (1/nu1^2 - 1/nu0^2) + 1/nu0^2``
    would cancel when nu0 << nu1.
    """
    return ppi / (nu1 * nu1) + (1.0 - ppi) / (nu0 * nu0)


def _prior_precisions(
    state: VariationalState, hyper: Hyperparameters, level: int
) -> np.ndarray:
    """The p x p expected prior precisions at the level's p*, formed on its
    pairs and made a matrix by one ``take``."""
    d = _expected_prior_precision(state.ppi_pairs[level], hyper.nu0_for(level), hyper.nu1)
    return _symmetric(d, state.p)


def cm_update_precision(
    state: VariationalState,
    hyper: Hyperparameters,
    scatter: np.ndarray,
    n: int,
    level: int,
) -> np.ndarray:
    """Conditional-maximisation step on one level's precision matrix.

    Takes the one ``_newton_step`` that ``fit`` takes in each coordinate
    pass, at the expected prior precisions of the state's inclusion
    probabilities, stores the new matrix in the state and returns it.
    ``scatter`` is the unnormalised cross-product of the level's centered
    data and ``n`` its sample count.  The step raises the level's precision
    objective without maximising it, which is all a conditional step of a
    generalised EM needs (ECM, Meng & Rubin, Biometrika 1993); repeated
    steps under fixed inclusion probabilities reach the maximiser, as
    ``refit_precision`` does.
    """
    level = int(level)
    d = _prior_precisions(state, hyper, level)
    omega, _ = _newton_step(state.omega[level], scatter, n, d, hyper.lambda_diag)
    state.omega[level] = omega
    return omega


def refit_precision(
    omega: np.ndarray,
    scatter: np.ndarray,
    n: int,
    d: np.ndarray,
    lambda_diag: float,
) -> np.ndarray:
    """Iterate Newton steps (``_newton_step``) under a fixed prior-precision map.

    Used to re-shrink entries after hard edge selection: ``d`` carries slab
    precision on selected edges and spike precision elsewhere.  Stops when a
    step changes no entry by more than 1e-8 times the largest entry
    magnitude, a rule that does not depend on the scale of the data, or
    after 100 steps.  Each step starts from the Cholesky factor
    that the previous one accepted.
    """
    omega = np.array(omega, dtype=float)
    factor = None
    for _ in range(_REFIT_STEPS):
        updated, factor = _newton_step(omega, scatter, n, d, lambda_diag, factor)
        change = float(np.abs(updated - omega).max())
        omega = updated
        if change <= _REFIT_TOL * float(np.abs(omega).max()):
            break
    return omega


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x log x entrywise for x >= 0, exactly +0.0 where x is 0.

    log(0) is never evaluated: every entry that is not positive is replaced
    by 1 before the log, whose log is +0.0, and the product with x = 0 is
    then +0.0.  Where x > 0 the result is x * log(x) bit for bit.  One
    unmasked log over a selected copy costs less than a log under a
    ``where=`` mask.
    """
    out = np.log(np.where(x > 0.0, x, 1.0))
    out *= x
    return out


def _latent_entropies(
    pstar: np.ndarray, m: np.ndarray, tails: tuple, qstar: np.ndarray
) -> tuple[float, float]:
    """One level's latent-threshold and indicator entropies, from sums.

    The latent factor is a mixture of N(m, 1) truncated above zero (weight
    p*) and below it (weight q* = 1 - p*), at the stored truncation location
    m, with the hazards and log Phi(+-m) of ``_probit_tails``.  On each side
    E[(z - m)^2] is 1 - m h_pos above zero and 1 + m h_neg below, so with
    p* + q* = 1 the latent entropy over the level's M pairs is ``M (log 2 pi
    + 1) / 2 - <m, p* h_pos - q* h_neg> / 2 + <p*, log Phi(m)> + <q*, log
    Phi(-m)>``: one mean shift and three inner products.  The shift ``p*
    h_pos - q* h_neg`` is E[z] - m of the factor that p* and m define; it is
    formed from them, not from the stored E[z], so a state whose E[z] was
    set otherwise still gets this factor's entropy.  The indicator entropy
    is -sum p* log p* + q* log q*, each product exactly 0 where its
    probability is 0 (``_xlogx``).  The caller passes q*, which it forms
    once for the level's edge prior too.
    """
    h_pos, h_neg, log_pos, log_neg = tails
    shift = pstar * h_pos
    shift -= np.multiply(qstar, h_neg)
    latent = 0.5 * pstar.size * (_LOG_2PI + 1.0) - 0.5 * float(np.vdot(m, shift)) \
        + float(np.vdot(pstar, log_pos)) + float(np.vdot(qstar, log_neg))
    indicator = -float(_xlogx(pstar).sum()) - float(_xlogx(qstar).sum())
    return latent, indicator


def _elbo_terms(
    state: VariationalState,
    hyper: Hyperparameters,
    scatters: Mapping[int, np.ndarray],
    ns: Mapping[int, int],
    covariate_model: bool,
    logdets: Mapping[int, float] | None = None,
    tails: Mapping[int, tuple] | None = None,
) -> dict[str, float]:
    """All named ELBO contributions; their sum is the ELBO.

    No parameter-dependent term is dropped and constants are kept, so traces
    are comparable across iterations of one fit.  Every edge term is read on
    the state's vectors of the M = p(p-1)/2 pairs, as sums and inner
    products rather than a sum of entrywise terms, with q* = 1 - p* formed
    once per level:

    - the edge prior is ``-M (log(2 pi)/2 + log nu0) - (log nu1 - log nu0)
      sum p* - (<omega^2, p*>/nu1^2 + <omega^2, q*>/nu0^2) / 2``;
    - the latent log-likelihood is ``-M log(2 pi)/2 - (sum E[z^2] - 2 <E[z],
      mbar> + <mbar, mbar> + sum var(zeta) + a^2 sum var(beta)) / 2`` with
      the probit index ``mbar = E[zeta] + a E[beta]``; the two variance sums
      are formed once per call;
    - the entropies of the latent thresholds and the edge indicators come
      from ``_latent_entropies``;
    - ``<S, omega>`` and the zeta and beta priors are inner products too.

    The entrywise forms are the tests' reference (``tests/reference.py``).
    By default every term is computed from the state alone.  ``fit`` passes
    what it already holds for the same state: each level's log det(omega)
    from the Cholesky factor its Newton step accepted, and the probit tails
    of each level's truncation location that ``update_edge_latents`` left
    in ``tails``; both are then the values this function would compute.
    """
    p = state.p
    upper = _triangle(p)[0]
    m_edges = p * (p - 1) / 2.0
    log_nu1 = math.log(hyper.nu1)
    zm, zv = state.zeta_mean_pairs, state.zeta_var_pairs
    bm, bv = state.beta_mean_pairs, state.beta_var_pairs
    zv_sum, bv_sum = float(zv.sum()), float(bv.sum())
    terms: dict[str, float] = {}

    for level in state.levels:
        omega = state.omega[level]
        n = ns[level]
        nu0 = hyper.nu0_for(level)
        log_nu0 = math.log(nu0)
        a_val = state.probit_level(level)
        pstar, m = state.ppi_pairs[level], state.zloc_pairs[level]
        ez, ez2 = state.ez_pairs[level], state.ez2_pairs[level]
        level_tails = _probit_tails(m) if tails is None else tails[level]

        if logdets is None:
            # Cholesky, not the sign of a determinant: an even number of
            # negative eigenvalues leaves the determinant positive.
            factor, info = _POTRF(omega, lower=1, clean=0)
            logdet = -np.inf if info > 0 else _logdet(factor)
        else:
            logdet = logdets[level]
        terms[f"gaussian_loglik[{level}]"] = 0.5 * n * logdet \
            - 0.5 * float(np.vdot(scatters[level], omega)) - 0.5 * n * p * _LOG_2PI

        qstar = 1.0 - pstar
        om_sq = omega.take(upper)
        om_sq *= om_sq
        terms[f"edge_prior[{level}]"] = -m_edges * (0.5 * _LOG_2PI + log_nu0) \
            - (log_nu1 - log_nu0) * float(pstar.sum()) \
            - 0.5 * (float(np.vdot(om_sq, pstar)) / (hyper.nu1 * hyper.nu1)
                     + float(np.vdot(om_sq, qstar)) / (nu0 * nu0))
        terms[f"diagonal_prior[{level}]"] = p * math.log(hyper.lambda_diag / 2.0) \
            - 0.5 * hyper.lambda_diag * float(omega.trace())

        m_bar = a_val * bm
        m_bar += zm
        sq = float(ez2.sum()) - 2.0 * float(np.vdot(ez, m_bar)) \
            + float(np.vdot(m_bar, m_bar)) + zv_sum + a_val * a_val * bv_sum
        terms[f"latent_loglik[{level}]"] = -0.5 * m_edges * _LOG_2PI - 0.5 * sq
        (
            terms[f"latent_entropy[{level}]"],
            terms[f"indicator_entropy[{level}]"],
        ) = _latent_entropies(pstar, m, level_tails, qstar)

    z_dev = zm - hyper.n0
    terms["zeta_prior"] = -0.5 * m_edges * math.log(2.0 * math.pi * hyper.t0_sq) \
        - (float(np.vdot(z_dev, z_dev)) + zv_sum) / (2.0 * hyper.t0_sq)
    terms["zeta_entropy"] = 0.5 * (m_edges * math.log(2.0 * math.pi * math.e)
                                   + float(np.log(zv).sum()))

    if covariate_model:
        shape, rate = state.sigma_shape, state.sigma_rate
        e_prec = shape / rate
        e_log_prec = float(special.digamma(shape)) - math.log(rate)
        terms["beta_prior"] = 0.5 * m_edges * (e_log_prec - _LOG_2PI) \
            - 0.5 * e_prec * (float(np.vdot(bm, bm)) + bv_sum)
        terms["beta_entropy"] = 0.5 * (m_edges * math.log(2.0 * math.pi * math.e)
                                       + float(np.log(bv).sum()))
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


def compute_elbo(
    state: VariationalState,
    hyper: Hyperparameters,
    data: GroupedDataset,
    covariate_model: bool = True,
    return_terms: bool = False,
):
    """Evidence lower bound at the current state.

    Precision matrices enter at their point estimates.  With
    ``return_terms=True`` also returns the named contributions, which
    identify the first non-finite quantity when the value is not finite.
    """
    scatters = {a: sample_covariance(y) for a, y in zip(data.levels, data.data)}
    ns = {a: y.shape[0] for a, y in zip(data.levels, data.data)}
    terms = _elbo_terms(state, hyper, scatters, ns, covariate_model)
    value = float(sum(terms.values()))
    if return_terms:
        return value, terms
    return value


_BURN_IN_PASSES = 5
_ANNEAL_STEPS = 6
_ANNEAL_SPAN = 4.0


def fit(
    data: GroupedDataset,
    hyper: Hyperparameters,
    controls: FitControls | None = None,
    *,
    covariate_model: bool = True,
    callback: Callable[[int, VariationalState, float], None] | None = None,
    start: Mapping[int, np.ndarray] | None = None,
) -> FitReport:
    """Run the full variational algorithm to ELBO convergence.

    ``data`` must be column-centered (``GroupedDataset.prepare``).  With
    ``covariate_model=False`` the coefficients beta are clamped to zero and
    the coefficient-scale factor is skipped, which yields the plain
    single-network spike-and-slab model per level.  The covariate values are
    mean-centered internally, so fits are invariant to shifting every level
    by a constant; reported intercepts refer to the mean level.

    ``callback(iteration, state, elbo)`` runs after every full iteration.
    ``start`` maps every level to its precision matrix start, computed by
    the caller (as ``line_search_nu0`` does), so that fits differing only in
    the spike can share it; the arrays are copied, never written.  Keys
    other than exactly the data's levels, a start that is not p x p, or one
    that is not positive definite raise ``DataError``.  Without it each
    level's start is computed here.  Raises a numerical error naming the
    first non-finite ELBO term if the objective degenerates.

    Initialisation runs in three deterministic stages before the first
    recorded iteration.  First, each precision matrix is set to its ridge
    estimate (``ridge_start``), with every edge at one slab precision: from
    the identity the first edge-latent update would see omega = 0, assign
    every edge to the spike, and the ascent would settle in the empty-graph
    stationary point regardless of nu0.  A level with at least as many
    samples as variables (n >= p) starts from the all-slab estimate, ``d =
    1/nu1^2``.  A level with n < p starts from the estimate at slab sd
    nu1/10 (``_start_slab``), since the all-slab one overfits there: every
    off-diagonal entry lands above the spike scale and the anneal keeps
    every edge.  Second, the latent and probit factors are pre-equilibrated by a
    few coordinate passes holding the precision matrices fixed, so the
    edge-level intercepts already pool evidence across levels.  Third, the spike is tightened along a short
    geometric path from a deliberately permissive value (nu0/4, where the
    effective inclusion threshold is low) up to the requested nu0, running
    one full coordinate pass at each step.  Because the inclusion
    threshold grows with nu0, this continuation starts from an inclusive
    classification and expels edges as the threshold rises past them, so
    weakly supported edges that pool evidence across levels retain slab
    membership while isolated noise of the same magnitude is dropped.
    All three stages precede the first ELBO evaluation, so the recorded
    trace remains an ascent at the requested hyperparameters.

    Every coordinate pass after the burn-in ends with one Newton-CG step
    (``_newton_step``) per level on that level's precision objective at the
    pass's expected prior precisions: the inverse from the matrix's Cholesky
    factor, ten preconditioned conjugate-gradient iterations on the Newton
    system (in single precision, on a scale-normalised copy of it whose
    inputs and Jacobi preconditioner are each rounded once), and a line
    search in double precision that accepts only a positive-definite matrix
    that raises the objective (Armijo), so the ELBO trace stays an ascent.
    Data whose columns differ in scale so widely that the start diverges, or
    that the normalised system leaves single-precision range, raise
    ``NumericalError``; standardised columns (``prepare(scale=True)``) fit.
    The step costs O(p^3) where a column-wise CM sweep costs O(p^4).  The
    factor is carried: the line search's factorisation of the accepted
    matrix gives the ELBO its log-determinant and starts the next step, so
    each precision iterate is factored once; a given start's check supplies
    the first factor.  The factor updates and the ELBO work on the state's
    pair vectors, and the ELBO takes the probit tails of each truncation
    location that the pass's edge-latent update computed.
    """
    if controls is None:
        controls = FitControls()
    if not data.is_centered(1e-6):
        raise DataError("data must be column-centered; call GroupedDataset.prepare()")
    if covariate_model and data.n_levels < 2:
        raise DataError("the covariate model needs at least 2 levels")
    for a in data.levels:
        hyper.nu0_for(a)

    levels = data.levels
    scatters = {a: sample_covariance(y) for a, y in zip(levels, data.data)}
    ns = {a: y.shape[0] for a, y in zip(levels, data.data)}

    state = init_state(data, hyper)
    raw = np.array(levels, dtype=float)
    state.probit_levels = raw - raw.mean() if covariate_model else np.zeros_like(raw)

    # Each level's Cholesky factor of state.omega, once known; ``tails``
    # holds the probit tails that the last edge-latent update of each level
    # left for the ELBO.
    factors: dict[int, np.ndarray | None] = {a: None for a in levels}
    tails: dict[int, tuple] = {}
    if start is None:
        start = {
            a: ridge_start(
                scatters[a], ns[a], _start_slab(ns[a], data.p, hyper.nu1), hyper.lambda_diag
            )
            for a in levels
        }
    else:
        if set(start) != set(levels):
            raise DataError(
                f"start has levels {list(start)}, the data has levels {sorted(levels)}"
            )
        given, start = start, {}
        for a in levels:
            try:
                start[a] = omega = np.array(given[a], dtype=float)
            except (TypeError, ValueError) as exc:
                raise DataError(f"start for level {a} is not a numeric array: {exc}")
            if omega.shape != (data.p, data.p):
                raise DataError(
                    f"start for level {a} has shape {omega.shape}, "
                    f"the data has {data.p} variables"
                )
            factor, info = _POTRF(omega, lower=1, clean=0)
            if info != 0:
                raise DataError(f"start for level {a} is not positive definite")
            factors[a] = factor
    state.omega = start

    def tempered(frac: float) -> Hyperparameters:
        # The spike on the geometric path from nu0 / _ANNEAL_SPAN (frac 0) to nu0.
        nu0 = {a: hyper.nu0_for(a) / _ANNEAL_SPAN * _ANNEAL_SPAN ** frac for a in levels}
        return replace(hyper, nu0=nu0)

    def coordinate_pass(at: Hyperparameters, update_precision: bool = True) -> None:
        # The factor updates go through their module names so that they can
        # be wrapped from outside (the benchmark's tracer counts them).
        for a in levels:
            update_edge_latents(state, at, a, tails)
        update_zeta(state, at)
        if covariate_model:
            update_beta(state, at)
            update_sigma(state, at)
        if update_precision:
            for a in levels:
                d = _prior_precisions(state, at, a)
                state.omega[a], factors[a] = _newton_step(
                    state.omega[a], scatters[a], ns[a], d, at.lambda_diag, factors[a]
                )

    burn_in = tempered(0.0)
    for _ in range(_BURN_IN_PASSES):
        coordinate_pass(burn_in, update_precision=False)
    for step in range(1, _ANNEAL_STEPS + 1):
        coordinate_pass(tempered(step / _ANNEAL_STEPS))

    trace: list[float] = []
    converged = False
    previous: float | None = None
    for iteration in range(1, controls.max_iter + 1):
        coordinate_pass(hyper)
        logdets = {a: _logdet(factors[a]) for a in levels}
        terms = _elbo_terms(state, hyper, scatters, ns, covariate_model, logdets, tails)
        elbo = float(sum(terms.values()))
        if not math.isfinite(elbo):
            bad = next(name for name, v in terms.items() if not math.isfinite(v))
            raise NumericalError(
                f"ELBO term '{bad}' became non-finite at iteration {iteration}"
            )
        trace.append(elbo)
        if callback is not None:
            callback(iteration, state, elbo)
        if previous is not None and iteration >= controls.min_iter:
            if abs(elbo - previous) <= controls.elbo_rel_tol * max(1.0, abs(previous)):
                converged = True
                break
        previous = elbo
    return FitReport(elbo_trace=tuple(trace), converged=converged, final_state=state)
