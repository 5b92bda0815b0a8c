"""Variational engine: single-update oracles, ELBO bookkeeping, full fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special, stats
from scipy.linalg import cho_factor, cho_solve, cholesky

import ordnet.engine as engine
import ordnet.selection as selection_module
from ordnet import (
    DataError,
    FitControls,
    GroupedDataset,
    Hyperparameters,
    NumericalError,
    SimulationConfig,
    center_columns,
    cm_update_precision,
    compute_elbo,
    edge_count_prior,
    fit,
    fit_ssl,
    init_state,
    is_positive_definite,
    ridge_start,
    sample_covariance,
    sample_mvn,
    simulate_experiment,
    truncated_normal_moments,
    update_beta,
    update_edge_latents,
    update_sigma,
    update_zeta,
)
from ordnet.engine import _LOG_2PI, _SQRT_2_OVER_PI, refit_precision
from conftest import with_pair
from reference import (
    beta_update,
    cm_sweep,
    edge_latents,
    elbo_terms,
    logdet,
    sigma_update,
    sweep_fixed_point,
    sweep_state_columns,
    two_scatter_symmetric,
    zeta_update,
)


def grouped(rng, levels, n, p):
    data = tuple(rng.standard_normal((n, p)) for _ in levels)
    return GroupedDataset(levels=tuple(levels), data=data).prepare()


def default_hyper(levels, nu0=0.05, **kwargs):
    return Hyperparameters(nu0={a: nu0 for a in levels}, **kwargs)


class TestEdgeCountPrior:
    def test_intercept_matches_prior_inclusion_probability(self):
        n0, _ = edge_count_prior(100)
        assert n0 == pytest.approx(special.ndtri(100 / 4950.0), abs=1e-14)
        n0, _ = edge_count_prior(30, expected_edges=60.0)
        assert n0 == pytest.approx(special.ndtri(60 / 435.0), abs=1e-14)

    def test_variance_floor(self):
        _, t0_sq = edge_count_prior(100)
        assert t0_sq == 0.25
        # The binomial spread alone already exceeds this sd.
        _, t0_sq = edge_count_prior(100, sd_edges=1.0)
        assert t0_sq == 0.25

    def test_solved_variance_reproduces_requested_sd(self):
        p, s0 = 100, 600.0
        n0, t0_sq = edge_count_prior(p, sd_edges=s0)
        assert t0_sq > 0.25
        m = p * (p - 1) / 2.0
        sd = math.sqrt(t0_sq)

        def moment(k):
            value, _ = integrate.quad(
                lambda z: special.ndtr(z) ** k * stats.norm.pdf(z, n0, sd),
                n0 - 10 * sd,
                n0 + 10 * sd,
                limit=200,
            )
            return value

        e1, e2 = moment(1), moment(2)
        implied = math.sqrt(m * (e1 - e2) + m * m * (e2 - e1 * e1))
        assert implied == pytest.approx(s0, rel=1e-4)

    def test_rejects_bad_beliefs(self):
        with pytest.raises(DataError):
            edge_count_prior(10, expected_edges=45.0)
        with pytest.raises(DataError):
            edge_count_prior(10, sd_edges=0.0)
        for sd in (math.nan, math.inf):
            with pytest.raises(DataError, match="sd_edges must be positive and finite"):
                edge_count_prior(10, sd_edges=sd)
        with pytest.raises(DataError):
            edge_count_prior(1)
        # sd(K) cannot exceed M/2 = 22.5 here, whatever the intercept variance.
        with pytest.raises(DataError, match="sd_edges must stay below 22.5 "):
            edge_count_prior(10, 10, 50)


class TestHyperparameters:
    def test_spike_slab_separation_enforced(self):
        with pytest.raises(DataError, match="well separated"):
            Hyperparameters(nu0={1: 0.2}, nu1=1.0)
        Hyperparameters(nu0={1: 0.1}, nu1=1.0)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(DataError):
            Hyperparameters(nu0={1: -0.01})
        with pytest.raises(DataError):
            Hyperparameters(nu0={1: 0.05}, t0_sq=0.0)
        with pytest.raises(DataError):
            Hyperparameters(nu0={1: 0.05}, lambda_diag=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, value):
        for name in ("nu1", "lambda_diag", "n0", "t0_sq", "alpha_sigma", "beta_sigma"):
            with pytest.raises(DataError, match=f"{name} must be finite"):
                Hyperparameters(nu0={1: 0.05}, **{name: value})
        with pytest.raises(DataError, match="nu0 at level 2 must be positive and finite"):
            Hyperparameters(nu0={1: 0.05, 2: value})

    def test_missing_level_lookup(self):
        hyper = Hyperparameters(nu0={1: 0.05})
        assert hyper.nu0_for(1) == 0.05
        with pytest.raises(DataError, match="level 2"):
            hyper.nu0_for(2)

    def test_from_edge_count_prior_broadcasts(self):
        hyper = Hyperparameters.from_edge_count_prior(10, (1, 2), 0.03)
        n0, t0_sq = edge_count_prior(10)
        assert hyper.nu0 == {1: 0.03, 2: 0.03}
        assert hyper.n0 == n0
        assert hyper.t0_sq == t0_sq


class TestFitControls:
    def test_defaults(self):
        controls = FitControls()
        assert controls.max_iter == 1000
        assert controls.elbo_rel_tol == 1e-5
        assert controls.min_iter == 5

    def test_validation(self):
        with pytest.raises(DataError):
            FitControls(max_iter=3, min_iter=5)
        with pytest.raises(DataError):
            FitControls(elbo_rel_tol=0.0)
        for tol in (math.nan, math.inf):
            with pytest.raises(DataError, match="elbo_rel_tol must be positive and finite"):
                FitControls(elbo_rel_tol=tol)


class TestInitState:
    def test_documented_starting_point(self, rng):
        data = grouped(rng, (1, 2, 3), 20, 4)
        hyper = default_hyper((1, 2, 3), n0=-1.5, t0_sq=0.5)
        state = init_state(data, hyper)
        off = ~np.eye(4, dtype=bool)
        zero_diagonal = np.zeros(4).tobytes()
        for a in (1, 2, 3):
            assert state.ppi_pairs[a].shape == (6,)
            assert np.all(state.ppi[a][off] == 0.5)
            assert np.all(state.ez2[a][off] == 1.0)
            assert np.array_equal(state.omega[a], np.eye(4))
            assert np.all(state.ez[a] == 0.0)
            for name in ("ppi", "ez", "ez2", "zloc"):
                assert np.diag(getattr(state, name)[a]).tobytes() == zero_diagonal
        assert np.all(state.zeta_mean[off] == -1.5)
        assert np.all(state.zeta_var[off] == 0.5)
        assert np.all(state.beta_mean == 0.0)
        assert np.all(state.beta_var[off] == 2.0)
        for name in ("zeta_mean", "zeta_var", "beta_mean", "beta_var"):
            assert getattr(state, f"{name}_pairs").shape == (6,)
            assert np.diag(getattr(state, name)).tobytes() == zero_diagonal
        assert state.sigma_shape == 2.0
        assert state.sigma_rate == 2.0
        assert np.array_equal(state.probit_levels, [1.0, 2.0, 3.0])


class TestTruncatedNormalMoments:
    def test_half_normal_at_zero(self):
        mean_above, mean_below, var_above, var_below = truncated_normal_moments(0.0)
        half = math.sqrt(2.0 / math.pi)
        assert mean_above == pytest.approx(half, abs=1e-14)
        assert mean_below == pytest.approx(-half, abs=1e-14)
        assert var_above == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-14)
        assert var_below == var_above

    def test_extreme_location_matches_asymptotic_series(self):
        a = 30.0
        mean_above, _, var_above, _ = truncated_normal_moments(-a)
        series = 1.0 / a - 2.0 / a**3 + 10.0 / a**5 - 74.0 / a**7
        assert math.isfinite(mean_above)
        assert mean_above == pytest.approx(series, abs=1e-9)
        assert 0.0 < var_above < 1.0

    def test_no_overflow_across_range(self):
        locations = np.linspace(-38.0, 38.0, 401)
        out = truncated_normal_moments(locations)
        for piece in out:
            assert np.all(np.isfinite(piece))

    def test_matches_scipy_truncnorm(self, rng):
        for m in rng.uniform(-5.0, 5.0, size=20):
            mean_above, mean_below, var_above, var_below = truncated_normal_moments(m)
            above = stats.truncnorm(-m, np.inf, loc=m, scale=1.0)
            below = stats.truncnorm(-np.inf, -m, loc=m, scale=1.0)
            assert mean_above == pytest.approx(above.mean(), abs=1e-10)
            assert var_above == pytest.approx(above.var(), abs=1e-10)
            assert mean_below == pytest.approx(below.mean(), abs=1e-10)
            assert var_below == pytest.approx(below.var(), abs=1e-10)

    @given(st.floats(-37.0, 37.0))
    def test_property_antisymmetric(self, m):
        mean_above, mean_below, var_above, var_below = truncated_normal_moments(m)
        flipped = truncated_normal_moments(-m)
        assert mean_above == pytest.approx(-flipped[1], rel=1e-12, abs=1e-12)
        assert var_above == pytest.approx(flipped[3], rel=1e-9, abs=1e-12)
        assert var_above > 0.0 and var_below > 0.0


class TestProbitTails:
    GRID = np.concatenate([np.linspace(-38.0, 38.0, 761), [0.0, -0.0, 40.0, -40.0]])

    def test_log_probabilities_match_log_ndtr(self):
        _, _, log_pos, log_neg = engine._probit_tails(self.GRID)
        np.testing.assert_allclose(log_pos, special.log_ndtr(self.GRID), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(log_neg, special.log_ndtr(-self.GRID), rtol=0.0, atol=1e-12)

    def test_hazards_match_erfcx_ratios(self):
        m = self.GRID
        h_pos, h_neg, _, _ = engine._probit_tails(m)
        # Near-side hazards are the same ratio the reference forms.  A
        # far-side reference inverts erfcx(-|m|/sqrt 2) ~ 2 exp(m^2/2), whose
        # rounding error grows like m^2 eps: it exceeds 1e-14 past |m| = 8,
        # and past |m| = 37.6 it overflows and gives 0 for a hazard below
        # 1e-300.
        rtol = np.where(np.abs(m) <= 8.0, 1e-14, 4e-16 * m * m)
        for hazard, sign in ((h_pos, -1.0), (h_neg, 1.0)):
            ref = _SQRT_2_OVER_PI / special.erfcx(sign * m / math.sqrt(2.0))
            assert np.all(np.abs(hazard - ref) <= rtol * ref + 1e-300)

    def test_finite_and_silent_at_the_extremes(self):
        with np.errstate(all="raise"):
            out = engine._probit_tails(self.GRID)
        for piece in out:
            assert np.all(np.isfinite(piece))
        h_pos, h_neg, log_pos, log_neg = (piece[-1] for piece in out)
        # At m = -40 the far tail holds all the mass: its hazard underflows to 0.
        assert h_neg == 0.0 and log_neg == 0.0
        assert h_pos == pytest.approx(40.0, rel=1e-3)
        assert log_pos == pytest.approx(special.log_ndtr(-40.0), abs=1e-12)


def one_level_state(rng, p=3, level=0, nu0=0.05, **hyper_kwargs):
    data = grouped(rng, (level,), 30, p)
    hyper = default_hyper((level,), nu0=nu0, **hyper_kwargs)
    return data, hyper, init_state(data, hyper)


class TestUpdateEdgeLatents:
    def test_equal_densities_give_half(self, rng):
        nu0, nu1 = 0.1, 1.0
        omega_star = math.sqrt(
            2.0 * math.log(nu1 / nu0) * nu0**2 * nu1**2 / (nu1**2 - nu0**2)
        )
        data, hyper, state = one_level_state(rng, nu0=nu0, n0=0.0)
        state.zeta_mean = np.zeros_like(state.zeta_mean)
        state.omega[0][0, 1] = state.omega[0][1, 0] = omega_star
        update_edge_latents(state, hyper, 0)
        ppi = state.ppi[0]
        assert ppi[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_zero_index_latent_mean(self, rng):
        data, hyper, state = one_level_state(rng, n0=0.0)
        state.zeta_mean = np.zeros_like(state.zeta_mean)
        state.omega[0][0, 1] = state.omega[0][1, 0] = 0.3
        update_edge_latents(state, hyper, 0)
        ppi, ez = state.ppi[0], state.ez[0]
        half = math.sqrt(2.0 / math.pi)
        expected = (2.0 * ppi[0, 1] - 1.0) * half
        assert ez[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_matches_two_point_mixture_posterior(self, rng):
        nu0, nu1 = 0.02, 1.0
        data, hyper, state = one_level_state(rng, nu0=nu0, n0=0.0)
        state.zeta_mean = np.zeros_like(state.zeta_mean)
        state.omega[0][0, 1] = state.omega[0][1, 0] = 0.3
        update_edge_latents(state, hyper, 0)
        ppi = state.ppi[0]
        u1 = stats.norm.pdf(0.3, 0.0, nu1) * stats.norm.cdf(0.0)
        u0 = stats.norm.pdf(0.3, 0.0, nu0) * (1.0 - stats.norm.cdf(0.0))
        assert ppi[0, 1] == pytest.approx(u1 / (u1 + u0), abs=1e-12)

    def test_extreme_entries_stay_finite(self, rng):
        data, hyper, state = one_level_state(rng, nu0=0.01)
        state.zeta_mean = np.full_like(state.zeta_mean, -40.0)
        state.omega[0][0, 1] = state.omega[0][1, 0] = 5.0
        update_edge_latents(state, hyper, 0)
        ppi, ez = state.ppi[0], state.ez[0]
        assert np.all(np.isfinite(ppi)) and np.all(np.isfinite(ez))
        assert np.all((ppi >= 0.0) & (ppi <= 1.0))

    def test_diagonal_conventions_and_stored_location(self, rng):
        data, hyper, state = one_level_state(rng)
        state.zeta_mean = np.full_like(state.zeta_mean, 0.4)
        update_edge_latents(state, hyper, 0)
        # Every read has a zero diagonal: the model has no diagonal edge.
        for matrix in (state.ppi[0], state.ez[0], state.ez2[0], state.zloc[0]):
            assert np.diag(matrix).tobytes() == np.zeros(state.p).tobytes()
        assert np.all(state.zloc_pairs[0] == 0.4)
        assert np.all(state.zloc[0][~np.eye(state.p, dtype=bool)] == 0.4)


def full_matrix_edge_latents(omega, m, nu0, nu1):
    """Reference edge-latent update on every entry of the full matrices.

    The earlier form of ``update_edge_latents``: two ``log_ndtr`` and two
    ``erfcx`` calls per entry, and E[z^2] from the truncated variances.
    Kept here only as the oracle for the upper-triangle kernel.
    """
    om_sq = omega * omega
    log_slab = -math.log(nu1) - om_sq / (2.0 * nu1 * nu1) + special.log_ndtr(m)
    log_spike = -math.log(nu0) - om_sq / (2.0 * nu0 * nu0) + special.log_ndtr(-m)
    p = special.expit(log_slab - log_spike)
    hazard_pos = _SQRT_2_OVER_PI / special.erfcx(-m / math.sqrt(2.0))
    hazard_neg = _SQRT_2_OVER_PI / special.erfcx(m / math.sqrt(2.0))
    mean_above, mean_below = m + hazard_pos, m - hazard_neg
    var_above = 1.0 - hazard_pos * (hazard_pos + m)
    var_below = 1.0 - hazard_neg * (hazard_neg - m)
    ez = p * mean_above + (1.0 - p) * mean_below
    ez2 = p * (var_above + mean_above**2) + (1.0 - p) * (var_below + mean_below**2)
    np.fill_diagonal(p, 0.0)
    np.fill_diagonal(ez, 0.0)
    np.fill_diagonal(ez2, 1.0)
    return p, ez, ez2


def full_latent_terms(state, level):
    """Reference latent-loglik, latent-entropy and indicator-entropy terms.

    The earlier form of those ``_elbo_terms`` entries: 2-D fancy indexing,
    truncated means and variances, and ``log_ndtr`` for log Phi(+-m).
    """
    iu = np.triu_indices(state.p, 1)
    a_val = state.probit_level(level)
    pstar = state.ppi[level][iu]
    ez, ez2, m_q = state.ez[level][iu], state.ez2[level][iu], state.zloc[level][iu]
    m_bar = (state.zeta_mean + a_val * state.beta_mean)[iu]
    index_var = state.zeta_var[iu] + a_val * a_val * state.beta_var[iu]
    sq = ez2 - 2.0 * ez * m_bar + m_bar * m_bar + index_var
    hazard_pos = _SQRT_2_OVER_PI / special.erfcx(-m_q / math.sqrt(2.0))
    hazard_neg = _SQRT_2_OVER_PI / special.erfcx(m_q / math.sqrt(2.0))
    mean_above, mean_below = m_q + hazard_pos, m_q - hazard_neg
    var_above = 1.0 - hazard_pos * (hazard_pos + m_q)
    var_below = 1.0 - hazard_neg * (hazard_neg - m_q)
    e_logq_above = -0.5 * _LOG_2PI - 0.5 * (var_above + (mean_above - m_q) ** 2) \
        - special.log_ndtr(m_q)
    e_logq_below = -0.5 * _LOG_2PI - 0.5 * (var_below + (mean_below - m_q) ** 2) \
        - special.log_ndtr(-m_q)
    return {
        f"latent_loglik[{level}]": float(np.sum(-0.5 * _LOG_2PI - 0.5 * sq)),
        f"latent_entropy[{level}]": float(
            -np.sum(pstar * e_logq_above + (1.0 - pstar) * e_logq_below)
        ),
        f"indicator_entropy[{level}]": float(
            -np.sum(special.xlogy(pstar, pstar) + special.xlogy(1.0 - pstar, 1.0 - pstar))
        ),
    }


class TestUpperTriangleLayers:
    LEVELS = (1, 2, 3)

    def random_state(self, rng, p, far_index=False):
        """A symmetric state with probit indices in [-6, 6], or all at -40."""
        data = grouped(rng, self.LEVELS, 10, p)
        hyper = default_hyper(self.LEVELS, nu0=0.05)
        state = init_state(data, hyper)
        state.probit_levels = np.array([-1.0, 0.0, 1.0])

        def symmetric(low, high):
            x = np.triu(rng.uniform(low, high, (p, p)), 1)
            return x + x.T

        if far_index:
            state.zeta_mean = np.full((p, p), -40.0)
            state.beta_mean = np.zeros((p, p))
        else:
            state.zeta_mean = symmetric(-3.0, 3.0)
            state.beta_mean = symmetric(-3.0, 3.0)
        state.zeta_var = np.full((p, p), 0.3)
        state.beta_var = np.full((p, p), 0.2)
        for a in self.LEVELS:
            # Off-diagonal magnitudes from the spike scale to well inside the slab.
            state.omega[a] = 0.6 * symmetric(-1.0, 1.0) ** 3 + p * np.eye(p)
        return data, hyper, state

    CASES = [(2, False), (5, False), (40, False), (5, True)]

    @pytest.mark.parametrize("p, far_index", CASES)
    def test_edge_latents_match_full_matrix_reference(self, rng, p, far_index):
        _, hyper, state = self.random_state(rng, p, far_index)
        for a in self.LEVELS:
            m = state.zeta_mean + state.probit_level(a) * state.beta_mean
            expected = full_matrix_edge_latents(state.omega[a], m, hyper.nu0_for(a), hyper.nu1)
            update_edge_latents(state, hyper, a)
            got = state.ppi[a], state.ez[a], state.ez2[a], state.zloc[a]
            off = ~np.eye(p, dtype=bool)
            for value, reference in zip(got, (*expected, m)):
                np.testing.assert_allclose(value[off], reference[off], rtol=1e-12, atol=1e-12)
                assert np.diag(value).tobytes() == np.zeros(p).tobytes()
                assert np.array_equal(value, value.T)
            assert np.array_equal(state.zloc[a][off], m[off])

    @pytest.mark.parametrize("p, far_index", CASES)
    def test_latent_elbo_terms_match_reference(self, rng, p, far_index):
        data, hyper, state = self.random_state(rng, p, far_index)
        for a in self.LEVELS:
            update_edge_latents(state, hyper, a)
        # Move the probit index off the stored truncation location, as the
        # zeta and beta updates do before the ELBO is evaluated in a fit.
        update_zeta(state, hyper)
        update_beta(state, hyper)
        scatters = {a: sample_covariance(y) for a, y in zip(data.levels, data.data)}
        ns = {a: y.shape[0] for a, y in zip(data.levels, data.data)}
        terms = engine._elbo_terms(state, hyper, scatters, ns, True)
        for a in self.LEVELS:
            for name, reference in full_latent_terms(state, a).items():
                assert terms[name] == pytest.approx(reference, rel=1e-10)


class TestInPlaceLayers:
    """The edge-latent layer works on buffers of its own: it writes no
    input, and no two of its results share memory, because ``tails`` keeps
    the location's probit tails beside p*, E[z] and E[z^2] for the ELBO."""

    @staticmethod
    def assert_disjoint(arrays):
        for k, first in enumerate(arrays):
            for second in arrays[k + 1:]:
                assert not np.shares_memory(first, second)

    def test_probit_tails(self, rng):
        m = np.concatenate([rng.uniform(-40.0, 40.0, 300), [0.0, -0.0, 40.0, -40.0]])
        given = m.copy()
        tails = engine._probit_tails(m)
        assert m.tobytes() == given.tobytes()
        self.assert_disjoint([m, *tails])

    @pytest.mark.parametrize("location", [0.0, -0.0, 3.5, -3.5, 40.0, -40.0])
    def test_probit_tails_of_a_0d_location(self, location):
        point = engine._probit_tails(np.array(location))
        grid = engine._probit_tails(np.array([location]))
        for value, reference in zip(point, grid):
            assert np.shape(value) == ()
            assert value.tobytes() == reference.tobytes()

    def test_edge_latent_core(self, rng):
        p = 40
        _, hyper, state = TestUpperTriangleLayers().random_state(rng, p)
        upper = engine._triangle(p)[0]
        omega = state.omega[1].take(upper)
        m = (state.zeta_mean + state.beta_mean).take(upper)
        tails = engine._probit_tails(m)
        inputs = [omega, m, *tails]
        given = [array.copy() for array in inputs]
        results = engine._edge_latent_core(omega, m, tails, 0.05, 1.0)
        for array, before in zip(inputs, given):
            assert array.tobytes() == before.tobytes()
        self.assert_disjoint(inputs + list(results))

    @pytest.mark.parametrize("p, far_index", TestUpperTriangleLayers.CASES)
    def test_update_edge_latents(self, rng, p, far_index):
        _, hyper, state = TestUpperTriangleLayers().random_state(rng, p, far_index)
        levels = TestUpperTriangleLayers.LEVELS
        inputs = [
            state.zeta_mean_pairs, state.beta_mean_pairs,
            state.zeta_var_pairs, state.beta_var_pairs,
        ]
        for a in levels:
            inputs += [state.omega[a], state.ppi_pairs[a], state.ez_pairs[a],
                       state.ez2_pairs[a], state.zloc_pairs[a]]
        given = [array.copy() for array in inputs]
        tails = {}
        results = []
        for a in levels:
            results += update_edge_latents(state, hyper, a, tails)
            results += [state.zloc_pairs[a], *tails[a]]
        for array, before in zip(inputs, given):
            assert array.tobytes() == before.tobytes()
        self.assert_disjoint(inputs + results)

    @pytest.mark.parametrize("p", [2, 3, 7, 100])
    @pytest.mark.parametrize("diagonal", [0.0, 1.0])
    def test_symmetric_is_the_two_scatter_construction(self, rng, p, diagonal):
        values = rng.standard_normal(p * (p - 1) // 2)
        values[::3] = -0.0
        pairs = np.append(values, diagonal)
        got = engine._symmetric(pairs, p)
        expected = two_scatter_symmetric(values, p, diagonal)
        assert got.dtype == expected.dtype and got.shape == (p, p)
        assert got.flags.c_contiguous and not got.flags.writeable
        assert got.tobytes() == expected.tobytes()
        assert not np.shares_memory(got, pairs)


class TestElboTerms:
    """``_elbo_terms``, formed from per-level sums, against the entrywise
    formulas of ``tests/reference.py``, term by term."""

    CASES = TestUpperTriangleLayers.CASES

    @staticmethod
    def scored_state(rng, p, far_index):
        layers = TestUpperTriangleLayers()
        data, hyper, state = layers.random_state(rng, p, far_index)
        for a in layers.LEVELS:
            update_edge_latents(state, hyper, a)
        update_zeta(state, hyper)
        update_beta(state, hyper)
        update_sigma(state, hyper)
        # Certain indicators: p* exactly 1 at the first level's first edge,
        # exactly 0 at the second level's, and both at the last edge.
        last = (p - 2, p - 1)
        for a, pair, value in ((1, (0, 1), 1.0), (2, (0, 1), 0.0), (3, last, 1.0), (1, last, 0.0)):
            state.ppi[a] = with_pair(state.ppi[a], pair, value)
        scatters = {a: sample_covariance(y) for a, y in zip(data.levels, data.data)}
        ns = {a: y.shape[0] for a, y in zip(data.levels, data.data)}
        return hyper, state, scatters, ns

    @staticmethod
    def assert_terms_match(terms, reference):
        assert list(terms) == list(reference)
        for name, value in reference.items():
            assert terms[name] == pytest.approx(value, rel=1e-10), name

    @pytest.mark.parametrize("covariate_model", [True, False])
    @pytest.mark.parametrize("p, far_index", CASES)
    def test_every_term_matches_the_entrywise_reference(self, rng, p, far_index, covariate_model):
        hyper, state, scatters, ns = self.scored_state(rng, p, far_index)
        args = (state, hyper, scatters, ns, covariate_model)
        self.assert_terms_match(engine._elbo_terms(*args), elbo_terms(*args))

    def test_a_hand_set_latent_mean_is_scored_as_it_stands(self, rng):
        # E[z] written by hand, inconsistent with (p*, m): the latent
        # log-likelihood reads it, and the entropy stays that of the factor
        # that (p*, m) define.
        hyper, state, scatters, ns = self.scored_state(rng, 5, False)
        args = (state, hyper, scatters, ns, True)
        before = engine._elbo_terms(*args)
        for a in state.levels:
            x = np.triu(rng.uniform(-4.0, 4.0, (5, 5)), 1)
            state.ez[a] = x + x.T
        terms = engine._elbo_terms(*args)
        self.assert_terms_match(terms, elbo_terms(*args))
        for a in state.levels:
            assert terms[f"latent_entropy[{a}]"] == before[f"latent_entropy[{a}]"]
            assert terms[f"latent_loglik[{a}]"] != before[f"latent_loglik[{a}]"]


class TestPairLayout:
    """The state stores each per-edge field as a vector of its M pairs and
    reads it as a read-only p x p matrix with a zero diagonal.  The four
    factor updates work on the pairs and must equal their full-matrix forms
    (``tests/reference.py``) bit for bit off the diagonal."""

    PAIR_FIELDS = ("zeta_mean", "zeta_var", "beta_mean", "beta_var")
    LEVEL_FIELDS = ("ppi", "ez", "ez2", "zloc")

    @staticmethod
    def random_state(rng, p, levels):
        data = grouped(rng, levels, 10, p)
        hyper = default_hyper(levels, nu0=0.05)
        state = init_state(data, hyper)
        raw = np.array(levels, dtype=float)
        state.probit_levels = raw - raw.mean()
        state.sigma_shape, state.sigma_rate = 3.0, 2.0

        def symmetric(low, high):
            # A random diagonal value, which the pair vectors do not hold.
            x = np.triu(rng.uniform(low, high, (p, p)), 1)
            return x + x.T + rng.uniform(low, high) * np.eye(p)

        state.zeta_mean = symmetric(-3.0, 3.0)
        state.beta_mean = symmetric(-3.0, 3.0)
        state.zeta_var = symmetric(0.1, 1.0)
        state.beta_var = symmetric(0.1, 1.0)
        for a in levels:
            state.ez[a] = symmetric(-2.0, 2.0)
            base = rng.standard_normal((p, p))
            state.omega[a] = 0.3 * (base + base.T) + p * np.eye(p)
        return hyper, state

    @staticmethod
    def assert_pairs_match(got, expected):
        """Bit-equal off the diagonal; the diagonal reads exactly +0.0."""
        p = expected.shape[0]
        off = ~np.eye(p, dtype=bool)
        assert got.shape == expected.shape
        assert got[off].tobytes() == expected[off].tobytes()
        assert np.diag(got).tobytes() == np.zeros(p).tobytes()

    @pytest.mark.parametrize("levels", [(1,), (1, 2, 3, 4)])
    @pytest.mark.parametrize("p", [2, 3, 7, 50])
    def test_updates_equal_the_full_matrix_forms(self, rng, p, levels):
        hyper, state = self.random_state(rng, p, levels)
        for _ in range(2):
            for a in levels:
                expected = edge_latents(state, hyper, a)
                update_edge_latents(state, hyper, a)
                got = (state.ppi[a], state.ez[a], state.ez2[a], state.zloc[a])
                for value, reference in zip(got, expected):
                    self.assert_pairs_match(value, reference)
            for update, reference, fields in (
                (update_zeta, zeta_update, ("zeta_mean", "zeta_var")),
                (update_beta, beta_update, ("beta_mean", "beta_var")),
            ):
                expected = reference(state, hyper)
                update(state, hyper)
                for name, matrix in zip(fields, expected):
                    self.assert_pairs_match(getattr(state, name), matrix)
            expected = sigma_update(state, hyper)
            assert update_sigma(state, hyper) == expected
            assert (state.sigma_shape, state.sigma_rate) == expected

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_edge_forms_are_unchanged(self, rng, p):
        hyper, state = self.random_state(rng, p, (1, 2, 3, 4))
        for a in state.levels:
            update_edge_latents(state, hyper, a)
        before = {name: getattr(state, f"{name}_pairs").copy() for name in self.PAIR_FIELDS}
        for i in range(p):
            for j in range(p):
                for update, reference in ((update_zeta, zeta_update), (update_beta, beta_update)):
                    if i == j:
                        with pytest.raises(ValueError, match="no diagonal factor"):
                            update(state, hyper, edge=(i, j))
                        continue
                    got = update(state, hyper, edge=(i, j))
                    expected = reference(state, hyper, edge=(i, j))
                    assert type(got[0]) is float and got == expected
        for name, pairs in before.items():
            assert getattr(state, f"{name}_pairs").tobytes() == pairs.tobytes()

    @pytest.mark.parametrize("edge", [(0, 0), (3, 3), (0, 4), (4, 1), (-1, 2), (1, -5)])
    def test_edges_outside_the_model_raise(self, rng, edge):
        # The pair map's diagonal entry M lies one past the last pair, and a
        # negative node would wrap round to another pair: both are refused
        # by name, and the state is left alone.
        hyper, state = self.random_state(rng, 4, (1, 2))
        before = state.copy()
        for update in (update_zeta, update_beta):
            with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}\)"):
                update(state, hyper, edge=edge)
        for name in self.PAIR_FIELDS:
            pairs = getattr(state, f"{name}_pairs")
            assert pairs.tobytes() == getattr(before, f"{name}_pairs").tobytes()

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_reads_are_exactly_symmetric_and_read_only(self, rng, p):
        hyper, state = self.random_state(rng, p, (1, 2))
        for a in state.levels:
            update_edge_latents(state, hyper, a)
        reads = [getattr(state, name) for name in self.PAIR_FIELDS]
        reads += [getattr(state, name)[a] for name in self.LEVEL_FIELDS for a in state.levels]
        for matrix in reads:
            assert matrix.shape == (p, p) and matrix.flags.c_contiguous
            assert matrix.tobytes() == np.ascontiguousarray(matrix.T).tobytes()
            assert not matrix.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 1] = 0.25
            with pytest.raises(ValueError, match="read-only"):
                matrix[:] = 0.25
        with pytest.raises(ValueError, match="read-only"):
            state.ppi[1][0, 1] = 0.25
        with pytest.raises(ValueError, match="read-only"):
            state.zeta_mean[0, 1] += 0.25
        # A read is a copy: no later update moves it.
        ppi = state.ppi[1]
        before = ppi.copy()
        update_edge_latents(state, hyper, 1)
        assert ppi.tobytes() == before.tobytes()

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_assignments_round_trip(self, rng, p):
        hyper, state = self.random_state(rng, p, (1, 2))
        upper = np.triu_indices(p, 1)
        for name in self.PAIR_FIELDS + self.LEVEL_FIELDS:
            x = np.triu(rng.standard_normal((p, p)), 1)
            matrix = x + x.T + rng.standard_normal() * np.eye(p)
            given = matrix.copy()
            if name in self.PAIR_FIELDS:
                setattr(state, name, matrix)
                read, pairs = getattr(state, name), getattr(state, f"{name}_pairs")
            else:
                getattr(state, name)[2] = matrix
                read, pairs = getattr(state, name)[2], getattr(state, f"{name}_pairs")[2]
            self.assert_pairs_match(read, matrix)
            assert pairs.tobytes() == matrix[upper].tobytes()
            assert not np.shares_memory(pairs, matrix)
            assert matrix.tobytes() == given.tobytes()
        # A whole per-level mapping is stored level by level.
        matrices = {a: state.ppi[a] * 0.5 for a in state.levels}
        state.ppi = matrices
        for a in state.levels:
            assert state.ppi[a].tobytes() == matrices[a].tobytes()
        assert list(state.ppi) == list(state.levels) and len(state.ppi) == 2
        for bad in (np.zeros((p + 1, p + 1)), np.zeros(p)):
            with pytest.raises(ValueError, match=f"expected a {p} x {p} matrix"):
                state.beta_mean = bad
            with pytest.raises(ValueError, match=f"expected a {p} x {p} matrix"):
                state.ez[1] = bad

    def test_copies_are_deep(self, rng):
        hyper, state = self.random_state(rng, 5, (1, 2))
        copy = state.copy()
        update_edge_latents(copy, hyper, 1)
        update_zeta(copy, hyper)
        assert state.ppi[1].tobytes() != copy.ppi[1].tobytes()
        assert state.zeta_mean.tobytes() != copy.zeta_mean.tobytes()


class TestExpectedPriorPrecision:
    @pytest.mark.parametrize("nu0", [1e-3, 0.0183, 0.1])
    @pytest.mark.parametrize("nu1", [1.0, 0.7])
    def test_certain_indicators_give_the_pure_precisions(self, nu0, nu1):
        # A form that cancels, ppi (1/nu1^2 - 1/nu0^2) + 1/nu0^2, misses
        # 1/nu1^2 at ppi = 1 by about the rounding of 1/nu0^2.
        d = engine._expected_prior_precision(np.array([[0.0, 1.0], [1.0, 0.0]]), nu0, nu1)
        for value, expected in ((d[0, 0], 1.0 / (nu0 * nu0)), (d[0, 1], 1.0 / (nu1 * nu1))):
            assert abs(value - expected) <= 1e-15 * expected


class TestUpdateZeta:
    def test_zero_inputs_give_zero_mean(self, rng):
        data = grouped(rng, (1, 2), 20, 3)
        hyper = default_hyper((1, 2), n0=0.0)
        state = init_state(data, hyper)
        mean, _ = update_zeta(state, hyper)
        assert np.all(mean == 0.0)

    def test_flat_prior_limit_single_level(self, rng):
        data = grouped(rng, (2,), 20, 3)
        hyper = default_hyper((2,), n0=5.0, t0_sq=1e12)
        state = init_state(data, hyper)
        state.ez[2] = with_pair(state.ez[2], (0, 1), 0.9)
        state.beta_mean = with_pair(state.beta_mean, (0, 1), 0.2)
        mean, var = update_zeta(state, hyper, edge=(0, 1))
        assert mean == pytest.approx(0.9 - 2 * 0.2, abs=1e-9)

    def test_documented_arithmetic_case(self, rng):
        data = grouped(rng, (1, 2), 20, 2)
        hyper = default_hyper((1, 2), n0=-1.0, t0_sq=1.0)
        state = init_state(data, hyper)
        state.ez[1] = with_pair(state.ez[1], (0, 1), 0.5)
        state.ez[2] = with_pair(state.ez[2], (0, 1), 0.7)
        state.beta_mean = np.full_like(state.beta_mean, 0.1)
        mean, var = update_zeta(state, hyper, edge=(0, 1))
        assert mean == pytest.approx((-1.0 + 0.4 + 0.5) / 3.0, abs=1e-14)
        assert var == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_edge_form_matches_full_update(self, rng):
        data = grouped(rng, (1, 3), 20, 4)
        hyper = default_hyper((1, 3), n0=-0.4, t0_sq=0.8)
        state = init_state(data, hyper)
        for a in (1, 3):
            state.ez[a] = rng.standard_normal((4, 4))
            state.ez[a] = 0.5 * (state.ez[a] + state.ez[a].T)
        state.beta_mean = rng.standard_normal((4, 4))
        state.beta_mean = 0.5 * (state.beta_mean + state.beta_mean.T)
        edge_mean, edge_var = update_zeta(state, hyper, edge=(1, 2))
        update_zeta(state, hyper)
        full_mean, full_var = state.zeta_mean, state.zeta_var
        assert edge_mean == pytest.approx(full_mean[1, 2], abs=1e-14)
        assert edge_var == pytest.approx(full_var[1, 2], abs=1e-15)


class TestUpdateBeta:
    def test_no_covariate_signal_gives_zero(self, rng):
        data = grouped(rng, (1, 2, 3), 20, 3)
        hyper = default_hyper((1, 2, 3))
        state = init_state(data, hyper)
        state.zeta_mean = np.full_like(state.zeta_mean, 0.3)
        for a in (1, 2, 3):
            state.ez[a] = np.full_like(state.ez[a], 0.3)
        update_beta(state, hyper)
        mean = state.beta_mean
        off = ~np.eye(3, dtype=bool)
        assert np.max(np.abs(mean[off])) < 1e-15

    def test_single_level_arithmetic(self, rng):
        data = grouped(rng, (1,), 20, 2)
        hyper = default_hyper((1,), alpha_sigma=2.0, beta_sigma=2.0)
        state = init_state(data, hyper)
        state.sigma_shape, state.sigma_rate = 3.0, 3.0
        state.zeta_mean = np.zeros_like(state.zeta_mean)
        state.ez[1] = with_pair(state.ez[1], (0, 1), 0.4)
        mean, var = update_beta(state, hyper, edge=(0, 1))
        assert mean == pytest.approx(0.2, abs=1e-14)
        assert var == pytest.approx(0.5, abs=1e-15)

    def test_four_level_precision_and_plugin_oracle(self, rng):
        levels = (1, 2, 3, 4)
        data = grouped(rng, levels, 20, 3)
        hyper = default_hyper(levels)
        state = init_state(data, hyper)
        state.sigma_shape, state.sigma_rate = 4.0, 4.0
        state.zeta_mean = 0.5 * (lambda m: m + m.T)(rng.standard_normal((3, 3)))
        for a in levels:
            ez = rng.standard_normal((3, 3))
            state.ez[a] = 0.5 * (ez + ez.T)
        mean, var = update_beta(state, hyper, edge=(0, 2))
        tau = 1.0 + sum(a * a for a in levels)
        assert tau == 31.0
        oracle = sum(
            a * (state.ez[a][0, 2] - state.zeta_mean[0, 2]) for a in levels
        ) / tau
        assert mean == pytest.approx(oracle, abs=1e-14)
        assert var == pytest.approx(1.0 / tau, abs=1e-15)


class TestUpdateSigma:
    def test_zero_coefficients_keep_prior_rate(self, rng):
        data = grouped(rng, (1, 2), 20, 4)
        hyper = default_hyper((1, 2), alpha_sigma=2.0, beta_sigma=2.0)
        state = init_state(data, hyper)
        state.beta_mean = np.zeros_like(state.beta_mean)
        state.beta_var = np.zeros_like(state.beta_var)
        shape, rate = update_sigma(state, hyper)
        assert shape == 2.0 + 6 / 2.0
        assert rate == 2.0

    def test_single_edge_arithmetic(self, rng):
        data = grouped(rng, (1, 2), 20, 2)
        hyper = default_hyper((1, 2))
        state = init_state(data, hyper)
        state.beta_mean = np.ones_like(state.beta_mean)
        state.beta_var = np.ones_like(state.beta_var)
        shape, rate = update_sigma(state, hyper)
        assert shape == 2.5
        assert rate == 3.0

    def test_matches_summation_oracle(self, rng):
        data = grouped(rng, (1, 2), 25, 20)
        hyper = default_hyper((1, 2), alpha_sigma=1.7, beta_sigma=0.9)
        state = init_state(data, hyper)
        bm = rng.standard_normal((20, 20))
        state.beta_mean = 0.5 * (bm + bm.T)
        bv = rng.uniform(0.1, 2.0, size=(20, 20))
        state.beta_var = 0.5 * (bv + bv.T)
        shape, rate = update_sigma(state, hyper)
        acc = sum(
            state.beta_mean[i, j] ** 2 + state.beta_var[i, j]
            for i in range(20)
            for j in range(i + 1, 20)
        )
        assert shape == pytest.approx(1.7 + 190 / 2.0, abs=1e-12)
        assert rate == pytest.approx(0.9 + acc / 2.0, abs=1e-12)


class TestCmUpdatePrecision:
    """``cm_update_precision`` is the Newton step that ``fit`` takes; the
    column tests check the reference sweep (``reference.py``) that the
    fixed-point tests rely on."""

    @staticmethod
    def random_state(rng, levels, n, p, nu0=0.05):
        data = grouped(rng, levels, n, p)
        hyper = default_hyper(levels, nu0=nu0, lambda_diag=1.3)
        state = init_state(data, hyper)
        for a in levels:
            ppi = rng.uniform(0.0, 1.0, size=(p, p))
            state.ppi[a] = 0.5 * (ppi + ppi.T)
            base = rng.standard_normal((p, p))
            state.omega[a] = base @ base.T / p + np.eye(p)
        scatters = {a: sample_covariance(y) for a, y in zip(levels, data.data)}
        return state, hyper, scatters

    @staticmethod
    def step_until_still(state, hyper, scatter, n, level, calls=100):
        """Call ``cm_update_precision`` until a call leaves the matrix as
        it was, or ``calls`` times; return the last matrix."""
        for _ in range(calls):
            before = state.omega[level]
            omega = cm_update_precision(state, hyper, scatter, n, level)
            if np.array_equal(omega, before):
                break
        return omega

    def test_is_the_newton_step_that_fit_takes(self, rng):
        levels, n, p = (1, 2), 30, 8
        state, hyper, scatters = self.random_state(rng, levels, n, p)
        other = state.omega[2]
        other_before = other.copy()
        d = engine._expected_prior_precision(state.ppi[1], hyper.nu0_for(1), hyper.nu1)
        expected, _ = engine._newton_step(state.omega[1], scatters[1], n, d, hyper.lambda_diag)
        omega = cm_update_precision(state, hyper, scatters[1], n, 1)
        assert np.array_equal(omega, expected)
        assert state.omega[1] is omega
        assert state.omega[2] is other and np.array_equal(other, other_before)

    @pytest.mark.parametrize("p", [2, 12, 40])
    @pytest.mark.parametrize("nu0", [0.01, 0.1])
    def test_never_lowers_the_objective(self, rng, p, nu0):
        n = 2 * p
        state, hyper, scatters = self.random_state(rng, (0,), n, p, nu0)
        d = engine._expected_prior_precision(state.ppi[0], nu0, hyper.nu1)
        value = precision_objective(state.omega[0], scatters[0], n, d, hyper.lambda_diag)
        for _ in range(5):
            omega = cm_update_precision(state, hyper, scatters[0], n, 0)
            assert is_positive_definite(omega) and np.array_equal(omega, omega.T)
            after = precision_objective(omega, scatters[0], n, d, hyper.lambda_diag)
            assert after >= value - 1e-12 * abs(value)
            value = after

    @pytest.mark.parametrize("p", [2, 12, 40])
    def test_repeated_calls_reach_the_refit_fixed_point(self, rng, p):
        n = 2 * p
        state, hyper, scatters = self.random_state(rng, (0,), n, p)
        d = engine._expected_prior_precision(state.ppi[0], hyper.nu0_for(0), hyper.nu1)
        refit = refit_precision(state.omega[0], scatters[0], n, d, hyper.lambda_diag)
        omega = self.step_until_still(state, hyper, scatters[0], n, 0)
        assert np.max(np.abs(omega - refit)) <= 1e-8 * np.max(np.abs(refit))

    def test_spike_dominated_shrinkage(self, rng):
        # Repeated steps under an all-spike prior reach the diagonal optimum
        # n / (s_jj + lambda) with the off-diagonal entry shrunk to zero.
        n = 50
        data = GroupedDataset(levels=(0,), data=(rng.standard_normal((n, 2)),)).prepare()
        hyper = default_hyper((0,), nu0=1e-4)
        state = init_state(data, hyper)
        state.ppi[0] = np.zeros_like(state.ppi[0])
        scatter = np.diag([float(n), float(n)])
        omega = self.step_until_still(state, hyper, scatter, n, 0)
        assert abs(omega[0, 1]) < 1e-6
        assert omega[1, 1] == pytest.approx(n / (n + 1.0), abs=1e-6)

    def test_stays_pd_after_every_column(self, rng):
        n, p = 40, 6
        y = rng.standard_normal((n, p))
        data = GroupedDataset(levels=(0,), data=(y,)).prepare()
        hyper = default_hyper((0,))
        state = init_state(data, hyper)
        state.ppi[0] = rng.uniform(0.0, 1.0, size=(p, p))
        state.ppi[0] = 0.5 * (state.ppi[0] + state.ppi[0].T)
        scatter = sample_covariance(data.group(0))
        for j in range(p):
            omega = sweep_state_columns(state, hyper, scatter, n, 0, columns=[j])
            assert is_positive_definite(omega)
            assert np.array_equal(omega, omega.T)

    def test_matches_numerical_argmax(self, rng):
        n, p, j = 35, 4, 2
        y = rng.standard_normal((n, p))
        data = GroupedDataset(levels=(0,), data=(y,)).prepare()
        hyper = default_hyper((0,), nu0=0.08, lambda_diag=1.3)
        state = init_state(data, hyper)
        ppi = rng.uniform(0.0, 1.0, size=(p, p))
        state.ppi[0] = 0.5 * (ppi + ppi.T)
        base = rng.standard_normal((p, p))
        state.omega[0] = base @ base.T + p * np.eye(p)
        scatter = sample_covariance(data.group(0))

        before = state.omega[0].copy()
        idx = [k for k in range(p) if k != j]
        q = np.linalg.inv(before[np.ix_(idx, idx)])
        s12 = scatter[idx, j]
        s22 = scatter[j, j] + hyper.lambda_diag
        d = (
            state.ppi[0][idx, j] / hyper.nu1**2
            + (1.0 - state.ppi[0][idx, j]) / hyper.nu0_for(0) ** 2
        )

        def negative_objective(params):
            u, log_t = params[:-1], params[-1]
            t = math.exp(log_t)
            return -(
                0.5 * n * log_t
                - s12 @ u
                - 0.5 * s22 * (t + u @ q @ u)
                - 0.5 * np.sum(d * u * u)
            )

        start = np.zeros(p)
        start[-1] = math.log(n / s22)
        result = optimize.minimize(negative_objective, start, method="BFGS",
                                   options={"gtol": 1e-12, "maxiter": 500})
        u_star = result.x[:-1]
        v_star = math.exp(result.x[-1]) + u_star @ q @ u_star

        omega = sweep_state_columns(state, hyper, scatter, n, 0, columns=[j])
        assert np.max(np.abs(omega[idx, j] - u_star)) < 1e-6
        assert abs(omega[j, j] - v_star) < 1e-6
        assert np.max(np.abs(omega[np.ix_(idx, idx)] - before[np.ix_(idx, idx)])) == 0.0

    def test_matches_closed_form(self, rng):
        n, p = 30, 5
        y = rng.standard_normal((n, p))
        data = GroupedDataset(levels=(0,), data=(y,)).prepare()
        hyper = default_hyper((0,), nu0=0.05)
        state = init_state(data, hyper)
        ppi = rng.uniform(0.0, 1.0, size=(p, p))
        state.ppi[0] = 0.5 * (ppi + ppi.T)
        base = rng.standard_normal((p, p))
        state.omega[0] = base @ base.T + p * np.eye(p)
        scatter = sample_covariance(data.group(0))
        before = state.omega[0].copy()
        j = 1
        idx = [k for k in range(p) if k != j]
        q = np.linalg.inv(before[np.ix_(idx, idx)])
        s22 = scatter[j, j] + hyper.lambda_diag
        d = np.diag(
            state.ppi[0][idx, j] / hyper.nu1**2
            + (1.0 - state.ppi[0][idx, j]) / hyper.nu0_for(0) ** 2
        )
        u = -np.linalg.solve(s22 * q + d, scatter[idx, j])
        v = n / s22 + u @ q @ u
        omega = sweep_state_columns(state, hyper, scatter, n, 0, columns=[j])
        assert np.max(np.abs(omega[idx, j] - u)) < 1e-10
        assert omega[j, j] == pytest.approx(v, abs=1e-10)


class TestRefitPrecision:
    def test_fixed_point_under_constant_prior(self, rng):
        n, p = 60, 5
        y = rng.standard_normal((n, p))
        data = GroupedDataset(levels=(0,), data=(y,)).prepare()
        scatter = sample_covariance(data.group(0))
        d = np.full((p, p), 1.0)
        omega = refit_precision(np.eye(p), scatter, n, d, 1.0)
        assert is_positive_definite(omega)
        again = engine._newton_step(omega, scatter, n, d, 1.0)[0]
        assert np.max(np.abs(again - omega)) < 1e-6

    @pytest.mark.parametrize(
        "seed", [None, *range(10)], ids=lambda s: "fixture" if s is None else str(s)
    )
    def test_equivariant_under_data_scale(self, rng, seed):
        # Data times c maps the problem to omega / c^2 under lambda c^2 and
        # d c^4; neither the stop rule nor the line search's decisions may
        # depend on c.
        if seed is not None:
            rng = np.random.default_rng(seed)
        n, p, lambda_diag = 20, 30, 1.0
        y = rng.standard_normal((n, p))
        scatter = sample_covariance(y - y.mean(axis=0))
        d = np.ones((p, p))
        reference = refit_precision(np.eye(p), scatter, n, d, lambda_diag)
        c2 = 100.0**2
        scaled = refit_precision(np.eye(p) / c2, c2 * scatter, n, d * c2 * c2, lambda_diag * c2)
        assert np.max(np.abs(c2 * scaled - reference)) <= 1e-8 * np.max(np.abs(reference))


def precision_objective(omega, scatter, n, d, lambda_diag):
    """f(omega) of the precision update, from numpy's Cholesky factor."""
    chol = np.linalg.cholesky(omega)
    off = d * (1.0 - np.eye(len(omega)))
    return (
        n * float(np.sum(np.log(np.diag(chol))))
        - 0.5 * float(np.sum((scatter + lambda_diag * np.eye(len(omega))) * omega))
        - 0.25 * float(np.sum(off * omega * omega))
    )


def newton_step_reference(omega, scatter, n, d, lambda_diag, iterations=10):
    """Reference Newton-CG step: the same method, in double precision.

    It forms ``W`` with ``inv``, runs the preconditioned CG on ``n W X W +
    D o X = G`` unscaled and with fresh arrays, and accepts the first
    halving whose matrix has a Cholesky factor and passes the Armijo test,
    so it checks the engine's scaled single-precision CG with plain code.
    """
    p = omega.shape[0]
    off = d * (1.0 - np.eye(p))
    w = np.linalg.inv(omega)
    grad = n * w - scatter - lambda_diag * np.eye(p) - off * omega
    precond = n * (np.outer(np.diag(w), np.diag(w)) + w * w) + off
    np.fill_diagonal(precond, n * np.diag(w) ** 2)
    x = np.zeros((p, p))
    resid = grad.copy()
    z = resid / precond
    direction = z.copy()
    rz = float(np.sum(resid * z))
    for _ in range(iterations):
        if rz == 0.0:
            break
        image = n * w @ direction @ w + off * direction
        alpha = rz / float(np.sum(direction * image))
        x += alpha * direction
        resid -= alpha * image
        z = resid / precond
        rz, previous = float(np.sum(resid * z)), rz
        direction = z + rz / previous * direction
    x = 0.5 * (x + x.T)
    value = precision_objective(omega, scatter, n, d, lambda_diag)
    gain = 0.5 * float(np.sum(grad * x))
    length = 1.0
    for _ in range(30):
        trial = omega + length * x
        if is_positive_definite(trial) and precision_objective(
            trial, scatter, n, d, lambda_diag
        ) >= value + 1e-4 * length * gain:
            return trial
        length *= 0.5
    return omega.copy()


class TestNewtonStep:
    @staticmethod
    def inputs(rng, p, n, nu0):
        y = rng.standard_normal((n, p))
        scatter = sample_covariance(y - y.mean(axis=0))
        ppi = rng.uniform(0.0, 1.0, size=(p, p))
        ppi = 0.5 * (ppi + ppi.T)
        d = ppi + (1.0 - ppi) / nu0**2
        base = rng.standard_normal((p, p))
        omega = base @ base.T / p + np.eye(p)
        return 0.5 * (omega + omega.T), scatter, d

    @pytest.mark.parametrize("p", [2, 12, 40])
    @pytest.mark.parametrize("n_per_p", [3.0, 0.3])
    @pytest.mark.parametrize("nu0", [0.01, 0.05, 0.1])
    def test_ascends_to_the_cm_fixed_point(self, rng, p, n_per_p, nu0):
        n = max(2, int(n_per_p * p))
        omega, scatter, d = self.inputs(rng, p, n, nu0)
        value = precision_objective(omega, scatter, n, d, 1.3)
        for _ in range(5):
            before = omega.copy()
            omega, factor = engine._newton_step(omega, scatter, n, d, 1.3)
            # The factor comes back with the matrix it factors.
            assert np.array_equal(np.tril(factor), cholesky(omega, lower=True))
            assert np.array_equal(omega, omega.T) and is_positive_definite(omega)
            after = precision_objective(omega, scatter, n, d, 1.3)
            assert after >= value - 1e-12 * abs(value)
            assert not np.shares_memory(omega, before)
            value = after
        refit = refit_precision(omega, scatter, n, d, 1.3)
        reference = sweep_fixed_point(refit, scatter, n, d, 1.3)
        assert np.max(np.abs(refit - reference)) <= 1e-7 * np.max(np.abs(reference))

    @pytest.mark.parametrize("above", [1.9, 1000.0])
    def test_line_search_shortens_an_overshooting_step(self, rng, above):
        # Started above the diagonal optimum n / (s_jj + lambda), the full
        # Newton step lowers f (at 1.9 times it) or leaves the positive
        # definite cone (at 1000 times); the accepted step must still ascend.
        p, n = 12, 36
        _, scatter, _ = self.inputs(rng, p, n, 0.05)
        d = np.full((p, p), 1.0 / 0.05**2)
        omega = above * np.diag(n / (np.diag(scatter) + 1.0))
        value = precision_objective(omega, scatter, n, d, 1.0)
        stepped, _ = engine._newton_step(omega, scatter, n, d, 1.0)
        assert is_positive_definite(stepped)
        assert precision_objective(stepped, scatter, n, d, 1.0) > value

    @pytest.mark.parametrize("p", [2, 7, 12, 40])
    @pytest.mark.parametrize("n_per_p", [3.0, 0.3])
    @pytest.mark.parametrize("nu0", [0.01, 0.05, 0.1])
    def test_gain_matches_a_float64_reference(self, rng, p, n_per_p, nu0):
        # The CG runs in single precision; the objective gain of the step
        # must still be that of the same step computed in double precision.
        # Its vector updates are BLAS calls on p^2 entries, and p = 7 gives
        # 49, a length that ends in the kernels' non-SIMD tail; an update
        # that BLAS wrote to a copy instead of in place would show here.
        n = max(2, int(n_per_p * p))
        omega, scatter, d = self.inputs(rng, p, n, nu0)
        value = precision_objective(omega, scatter, n, d, 1.3)
        stepped, _ = engine._newton_step(omega, scatter, n, d, 1.3)
        reference = newton_step_reference(omega, scatter, n, d, 1.3)
        gain = precision_objective(stepped, scatter, n, d, 1.3) - value
        expected = precision_objective(reference, scatter, n, d, 1.3) - value
        assert expected > 0.0
        assert gain == pytest.approx(expected, rel=1e-5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p, n", [(12, 36), (40, 12)])
    @pytest.mark.parametrize("c2", [1e-20, 1e-12, 1e12, 1e20])
    def test_equivariant_under_data_scale(self, rng, p, n, c2):
        # Data times c maps the step from omega to the step from omega / c^2
        # under lambda c^2 and d c^4, divided by c^2.  The single-precision
        # CG must neither overflow nor lose this at any scale.
        omega, scatter, d = self.inputs(rng, p, n, 0.05)
        reference, _ = engine._newton_step(omega, scatter, n, d, 1.3)
        scaled, _ = engine._newton_step(omega / c2, c2 * scatter, n, d * c2 * c2, 1.3 * c2)
        assert np.max(np.abs(c2 * scaled - reference)) <= 1e-12 * np.max(np.abs(reference))

    @pytest.mark.parametrize("p", [2, 12, 40])
    @pytest.mark.parametrize("n_per_p", [3.0, 0.3])
    @pytest.mark.parametrize("nu0", [0.01, 0.05, 0.1])
    def test_incremental_change_matches_direct_evaluation(self, rng, p, n_per_p, nu0):
        # f(omega + alpha x) - f(omega) from three inner products and the
        # trial's factor must equal the difference of two full evaluations.
        n = max(2, int(n_per_p * p))
        omega, scatter, d = self.inputs(rng, p, n, nu0)
        base = scatter + 1.3 * np.eye(p)
        off = d * (1.0 - np.eye(p))
        factor = cholesky(omega, lower=True)
        logdet = 2.0 * float(np.sum(np.log(np.diag(factor))))
        x = rng.standard_normal((p, p))
        x = 0.5 * (x + x.T) / p
        change = engine._change_along(omega, x, logdet, n, base, off, off * omega)
        value = precision_objective(omega, scatter, n, d, 1.3)
        for length in (1.0, 0.5, 0.125, 2.0**-20):
            trial = omega + length * x
            if not is_positive_definite(trial):
                continue
            direct = precision_objective(trial, scatter, n, d, 1.3) - value
            got = change(length, cholesky(trial, lower=True))
            assert abs(got - direct) <= 1e-9 * abs(value)

    def test_leaves_its_input_alone(self, rng):
        # The step writes its work buffers in place (BLAS updates and casts
        # into preallocated arrays); none of them may be an input.
        for p in (2, 12, 40):
            omega, scatter, d = self.inputs(rng, p, 3 * p, 0.05)
            factor, _ = engine._POTRF(omega, lower=1, clean=0)
            given = [array.copy() for array in (omega, scatter, d, factor)]
            engine._newton_step(omega, scatter, 3 * p, d, 1.0)
            engine._newton_step(omega, scatter, 3 * p, d, 1.0, factor)
            for array, before in zip((omega, scatter, d, factor), given):
                assert np.array_equal(array, before), p

    def test_indefinite_system_raises_inside_cg(self, rng):
        # Every entry of the preconditioner stays positive, so only the CG
        # curvature check can see that the system is indefinite.
        p, n = 6, 40
        omega, scatter, _ = self.inputs(rng, p, n, 0.05)
        w = np.linalg.inv(omega)
        w_diag = np.diag(w)
        d = -0.9 * n * (np.outer(w_diag, w_diag) + w * w)
        with pytest.raises(NumericalError, match="indefinite Newton system"):
            engine._newton_step(omega, scatter, n, d, 1.0)

    def test_indefinite_system_raises_at_the_preconditioner(self, rng):
        # One pair's d, and its mirror's, at -2n(W_ii W_jj + W_ij^2) makes
        # that preconditioner entry -n(W_ii W_jj + W_ij^2) < 0.  With a
        # diagonal omega the operator is diagonal, and with the pair's
        # scatter entry 0 its gradient entry is 0, so the CG never meets the
        # pair: only the check before it can refuse the system.
        p, n = 6, 40
        _, scatter, _ = self.inputs(rng, p, n, 0.05)
        scatter[1, 4] = scatter[4, 1] = 0.0
        omega = np.diag(n / (np.diag(scatter) + 1.0))
        w = np.linalg.inv(omega)
        d = np.full((p, p), 1.0 / 0.05**2)
        d[1, 4] = d[4, 1] = -2.0 * n * (w[1, 1] * w[4, 4] + w[1, 4] ** 2)
        with pytest.raises(NumericalError, match="indefinite Newton system"):
            engine._newton_step(omega, scatter, n, d, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("span, lambda_diag", [(9, 1.0), (6, 1e-6)])
    def test_single_precision_range_is_reported(self, span, lambda_diag):
        # Column sds from 10^-span to 10^span: on the small columns'
        # diagonal (sqrt(n) W / s)^2 falls below float32's smallest normal
        # number, though every d is positive.  Standardised columns fit.
        p, n = 12, 36
        rng = np.random.default_rng(0)
        y = rng.standard_normal((n, p)) * np.logspace(-span, span, p)
        d = np.full((p, p), 1.0 / 0.05**2)

        def step(data):
            scatter = sample_covariance(data - data.mean(axis=0))
            omega = np.diag(n / (np.diag(scatter) + lambda_diag))
            return engine._newton_step(omega, scatter, n, d, lambda_diag)[0]

        with pytest.raises(NumericalError, match="single-precision range") as raised:
            step(y)
        assert "prepare(scale=True)" in str(raised.value)
        assert is_positive_definite(step(y / y.std(axis=0, ddof=1)))

    def test_non_positive_definite_input_raises(self, rng):
        _, scatter, d = self.inputs(rng, 5, 30, 0.05)
        with pytest.raises(NumericalError, match="not positive definite"):
            engine._newton_step(-np.eye(5), scatter, 30, d, 1.0)


def closure_line_search(omega, x, gain, scatter, n, d, lambda_diag):
    """The line search as it evaluated ``f`` itself: every trial's
    objective from its factor and two full inner products, compared with
    ``f(omega)`` plus the Armijo share of the first-order gain.  Returns
    the accepted trial, or omega when none is accepted."""
    p = omega.shape[0]
    base = scatter + lambda_diag * np.eye(p)
    off = np.array(d, dtype=float)
    np.fill_diagonal(off, 0.0)

    def objective(matrix, matrix_factor):
        return 0.5 * n * engine._logdet(matrix_factor) - 0.5 * float(np.vdot(base, matrix)) \
            - 0.25 * float(np.vdot(off * matrix, matrix))

    factor, _ = engine._POTRF(omega, lower=1, clean=0)
    value = objective(omega, factor)
    length = 1.0
    for _ in range(engine._HALVINGS):
        trial = omega + length * x
        trial_factor, info = engine._POTRF(trial, lower=1, clean=0)
        if info == 0 and (
            length * gain <= engine._ROUNDING * abs(value)
            or objective(trial, trial_factor) >= value + engine._ARMIJO * length * gain
        ):
            return trial
        length *= 0.5
    return omega


class TestIncrementalLineSearch:
    """On the states that fits reach, the line search that scores trials by
    the objective's change accepts the trial that evaluating ``f`` would."""

    @pytest.mark.parametrize("p", [50, 100])
    def test_accepts_the_trial_of_the_closure_line_search(self, monkeypatch, p):
        dataset, _ = simulate_experiment(SimulationConfig(p=p, seed=3))
        data = dataset.prepare()
        hyper = Hyperparameters.from_edge_count_prior(p, data.levels, 0.04)
        state = fit(data, hyper, FitControls(max_iter=10, min_iter=10)).final_state
        searches = []
        line_search = engine._line_search

        def recording(omega, factor, x, gain, value, change):
            result = line_search(omega, factor, x, gain, value, change)
            searches.append((omega, x, gain, result[0]))
            return result

        monkeypatch.setattr(engine, "_line_search", recording)
        for a, y in zip(data.levels, data.data):
            scatter, n = sample_covariance(y), y.shape[0]
            d = engine._expected_prior_precision(state.ppi[a], hyper.nu0_for(a), hyper.nu1)
            omega, factor = state.omega[a], None
            for _ in range(5):
                del searches[:]
                omega, factor = engine._newton_step(omega, scatter, n, d, 1.0, factor)
                (given, x, gain, accepted), = searches
                expected = closure_line_search(given, x, gain, scatter, n, d, 1.0)
                assert np.array_equal(accepted, expected)


    @pytest.mark.parametrize("above", [1.9, 1000.0])
    def test_halves_as_the_closure_line_search_does(self, rng, monkeypatch, above):
        # The overshooting starts of TestNewtonStep, where the full step
        # lowers f or leaves the cone and the search must halve.
        p, n = 12, 36
        _, scatter, _ = TestNewtonStep.inputs(rng, p, n, 0.05)
        d = np.full((p, p), 1.0 / 0.05**2)
        omega = above * np.diag(n / (np.diag(scatter) + 1.0))
        searches = []
        line_search = engine._line_search

        def recording(omega, factor, x, gain, value, change):
            result = line_search(omega, factor, x, gain, value, change)
            searches.append((x, gain, result[0]))
            return result

        monkeypatch.setattr(engine, "_line_search", recording)
        stepped, _ = engine._newton_step(omega, scatter, n, d, 1.0)
        (x, gain, accepted), = searches
        assert not np.array_equal(accepted, omega + x)
        assert np.array_equal(accepted, closure_line_search(omega, x, gain, scatter, n, d, 1.0))


class TestLatentEntropies:
    @staticmethod
    def latents(pstar, m):
        pstar, m = np.asarray(pstar, dtype=float), np.asarray(m, dtype=float)
        return pstar, m, engine._probit_tails(m)

    def test_exact_zero_at_certain_indicators(self):
        pstar = np.array([0.0, 1.0, 0.0, 1.0])
        with np.errstate(all="raise"):
            xlogx = engine._xlogx(pstar)
            _, indicator = engine._latent_entropies(
                *self.latents(pstar, [-3.0, 2.0, 0.0, 40.0]), 1.0 - pstar
            )
        assert np.array_equal(xlogx, np.zeros(4))
        assert indicator == 0.0

    def test_silent_and_equal_to_xlogy(self, rng):
        pstar = np.concatenate(([0.0, 1.0, 0.0, 1.0], rng.uniform(size=200)))
        m = rng.uniform(-6.0, 6.0, size=pstar.size)
        with np.errstate(all="raise"):
            latent, indicator = engine._latent_entropies(*self.latents(pstar, m), 1.0 - pstar)
        assert math.isfinite(latent)
        expected = -np.sum(special.xlogy(pstar, pstar) + special.xlogy(1.0 - pstar, 1.0 - pstar))
        assert indicator == pytest.approx(expected, rel=1e-14)

    def test_extremes_neither_overflow_nor_divide(self):
        # Underflow in the far tails and at subnormal p* is exact enough and
        # stays ignored, as by default; log(0) and 0 * inf never happen.
        pstar = np.array([0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 0.5, 0.0])
        m = np.array([-40.0, 40.0, -38.0, 38.0, 0.0, 1e-300])
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            latent, indicator = engine._latent_entropies(*self.latents(pstar, m), 1.0 - pstar)
        assert math.isfinite(latent) and math.isfinite(indicator)


class TestXlogx:
    def test_bit_equal_to_x_log_x_and_positive_zero_at_zero(self, rng):
        x = np.concatenate(([0.0, 5e-324, 1.0 - 2.0**-53, 1.0], rng.uniform(size=500), [0.0]))
        # x log x of the subnormal 5e-324 rounds to a subnormal, which sets
        # the underflow flag in the product itself; nothing else may.
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            out = engine._xlogx(x)
            positive = x > 0.0
            expected = x[positive] * np.log(x[positive])
        assert out[positive].tobytes() == expected.tobytes()
        zeros = np.flatnonzero(~positive)
        assert zeros.tolist() == [0, x.size - 1]
        assert out[zeros].tobytes() == np.zeros(2).tobytes()

    def test_silent_on_normal_products(self, rng):
        x = np.concatenate(([0.0, 1.0 - 2.0**-53, 1.0], rng.uniform(size=500)))
        with np.errstate(all="raise"):
            out = engine._xlogx(x)
        assert np.all(np.isfinite(out)) and np.all(out <= 0.0)


class TestLogdet:
    @pytest.mark.parametrize("p", [1, 2, 50, 100])
    def test_bit_equal_to_the_textbook_form(self, rng, p):
        for _ in range(5):
            a = rng.normal(size=(p, p))
            omega = a @ a.T + rng.uniform(0.01, 10.0) * np.eye(p)
            # potrf leaves the upper triangle as it was: _logdet must not read it.
            factor, info = engine._POTRF(omega, lower=1, clean=0)
            assert info == 0
            for matrix in (factor, np.linalg.cholesky(omega)):
                value = engine._logdet(matrix)
                assert isinstance(value, float)
                assert np.float64(value).tobytes() == np.float64(logdet(matrix)).tobytes()


def gathered_sweep(omega, w, scatter, n, d, lambda_diag, columns=None):
    """Reference column update: gathers each (p-1)-block and solves it.

    It carries the inverse ``w`` through rank-one identities instead of
    inverting each block, so it checks the engine's direct column solve
    with a second algorithm.
    """
    p = omega.shape[0]
    for j in range(p) if columns is None else columns:
        idx = np.concatenate((np.arange(j), np.arange(j + 1, p)))
        s12 = scatter[idx, j]
        s22 = scatter[j, j] + lambda_diag
        w12 = w[idx, j]
        inv11 = w[np.ix_(idx, idx)] - np.outer(w12, w12) / w[j, j]
        system = s22 * inv11
        system[np.diag_indices(p - 1)] += d[idx, j]
        u = -cho_solve(cho_factor(system, lower=True), s12)
        t = inv11 @ u
        v = n / s22
        omega[idx, j] = omega[j, idx] = u
        omega[j, j] = v + float(u @ t)
        w[np.ix_(idx, idx)] = inv11 + np.outer(t, t) / v
        w[idx, j] = w[j, idx] = -t / v
        w[j, j] = 1.0 / v


class TestCmSweepKernel:
    def random_inputs(self, rng, p, n=40):
        base = rng.standard_normal((p, p))
        omega = base @ base.T / p + np.eye(p)
        omega = 0.5 * (omega + omega.T)
        w = np.linalg.inv(omega)
        y = rng.standard_normal((n, p))
        y -= y.mean(axis=0)
        ppi = rng.uniform(0.0, 1.0, size=(p, p))
        ppi = 0.5 * (ppi + ppi.T)
        d = ppi + (1.0 - ppi) / 0.05**2
        # The model never reads the diagonal of d.
        np.fill_diagonal(d, 0.0)
        return omega, 0.5 * (w + w.T), sample_covariance(y), n, d

    @pytest.mark.parametrize("p", [2, 3, 12, 50])
    @pytest.mark.parametrize("subset", [False, True])
    def test_matches_gathered_block_solve(self, rng, p, subset):
        omega, w, scatter, n, d = self.random_inputs(rng, p)
        columns = rng.permutation(p)[: max(1, p // 2)].tolist() if subset else None
        got = omega.copy()
        ref_omega, ref_w = omega.copy(), w.copy()
        for sweep in range(3):
            gathered_sweep(ref_omega, ref_w, scatter, n, d, 1.3, columns)
            cm_sweep(got, scatter, n, d, 1.3, columns)
            if sweep == 0:
                # The caller's own array carries the update, not a copy.
                assert not np.array_equal(got, omega)
            assert np.max(np.abs(got - ref_omega)) <= 1e-12 * np.max(np.abs(ref_omega))
            assert np.array_equal(got, got.T)
            assert np.max(np.abs(ref_w @ got - np.eye(p))) < 1e-10

    def test_indefinite_column_system_raises(self, rng):
        p, n = 4, 30
        y = rng.standard_normal((n, p))
        scatter = sample_covariance(y - y.mean(axis=0))
        d = np.full((p, p), -1e3)
        with pytest.raises(NumericalError, match="indefinite Newton system"):
            refit_precision(np.eye(p), scatter, n, d, 1.0)
        with pytest.raises(NumericalError, match="singular column system"):
            cm_sweep(np.eye(p), scatter, n, d, 1.0)


class TestRidgeStart:
    @staticmethod
    def inputs(rng, p, n):
        return sample_covariance(rng.standard_normal((n, p)))

    @staticmethod
    def assert_valid(omega):
        assert omega.dtype == np.float64
        assert is_positive_definite(omega) and np.array_equal(omega, omega.T)

    @classmethod
    def assert_cm_fixed_point(cls, scatter, n, nu1, lambda_diag):
        p = scatter.shape[0]
        omega = ridge_start(scatter, n, nu1, lambda_diag)
        cls.assert_valid(omega)
        w = cho_solve(cho_factor(omega, lower=True), np.eye(p))
        slab = 1.0 / (nu1 * nu1)
        offdiag = omega - np.diag(np.diag(omega))
        base = scatter + lambda_diag * np.eye(p)
        residual = n * w - base - slab * offdiag
        scale = max(np.max(np.abs(base)), np.max(np.abs(n * w)), slab * np.max(np.abs(omega)))
        assert np.max(np.abs(residual)) <= 1e-11 * scale
        # Sweeping from the result must leave it where it is.
        ref_omega = omega.copy()
        for _ in range(200):
            before = ref_omega.copy()
            cm_sweep(ref_omega, scatter, n, np.full((p, p), slab), lambda_diag)
            if np.max(np.abs(ref_omega - before)) <= 1e-15 * np.max(np.abs(ref_omega)):
                break
        assert np.max(np.abs(omega - ref_omega)) <= 1e-10 * np.max(np.abs(ref_omega))

    @pytest.mark.parametrize("p", [2, 12, 50])
    @pytest.mark.parametrize("n_per_p", [3.0, 0.2])
    @pytest.mark.parametrize("nu1", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("lambda_diag", [0.01, 1.0])
    def test_is_the_cm_fixed_point(self, rng, p, n_per_p, nu1, lambda_diag):
        n = max(1, int(n_per_p * p))
        self.assert_cm_fixed_point(self.inputs(rng, p, n), n, nu1, lambda_diag)

    def test_is_the_cm_fixed_point_after_an_overshoot_below_zero(self):
        # The first step takes the diagonal from (1, 1) to about (-2.10, -0.68).
        scatter = np.array([[3.32, -2.41], [-2.41, 1.74]])
        self.assert_cm_fixed_point(scatter, 1, 0.1, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("span", [7.0, 7.5])
    def test_a_diverging_start_raises(self, span):
        # Three levels with column sds from 10^-span to 10^span.  At 10^7.5
        # eigh cannot resolve the small columns' part of the system, and the
        # iterates' diagonal grows without bound (eigenvalues from -2e12 on);
        # at 10^7 the start still converges and fits.
        rng = np.random.default_rng(1)
        levels = (1, 2, 3)
        sds = np.logspace(-span, span, 12)
        data = GroupedDataset(
            levels=levels, data=tuple(rng.standard_normal((60, 12)) * sds for _ in levels)
        ).prepare()
        hyper = Hyperparameters.from_edge_count_prior(12, levels, 0.04)
        controls = FitControls(max_iter=2, min_iter=2)
        if span < 7.5:
            for y in data.data:
                self.assert_valid(ridge_start(sample_covariance(y), 60, 1.0, 1.0))
            assert fit(data, hyper, controls).iterations == 2
            return
        with pytest.raises(NumericalError, match="ridge start diverged"):
            ridge_start(sample_covariance(data.data[0]), 60, 1.0, 1.0)
        with pytest.raises(NumericalError, match="ridge start diverged"):
            fit(data, hyper, controls)

    def test_stops_when_the_step_stalls(self, rng, monkeypatch):
        # Data on a small scale with a tiny lambda: the step stalls at
        # rounding level far above 1e-12 of the diagonal.
        p, n = 10, 30
        y = 0.01 * rng.standard_normal((n, p))
        scatter = sample_covariance(y - y.mean(axis=0))
        calls = []
        eigh = np.linalg.eigh

        def counting(matrix):
            calls.append(1)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        omega = ridge_start(scatter, n, 0.1, 0.001)
        monkeypatch.undo()
        self.assert_valid(omega)
        assert len(calls) <= 25 < engine._RIDGE_STEPS

    def test_a_capped_start_short_of_its_fixed_point_raises(self):
        # Column sds over 10^+-6.75 with n << p: the iterates reach the cap
        # with lambda tr(omega) at 1.029 n p, above its bound at the fixed
        # point (given more steps they diverge).
        rng = np.random.default_rng(106)
        p = int(rng.integers(2, 61))
        n = max(2, int(round(p * 10 ** rng.uniform(-1, np.log10(3)))))
        nu1 = 10 ** rng.uniform(-1.5, 1)
        lam = 10 ** rng.uniform(-6, np.log10(0.15))
        span = rng.uniform(0, 7)
        y = center_columns(rng.standard_normal((n, p)) * np.logspace(-span, span, p))
        assert (p, n) == (34, 4)
        with pytest.raises(NumericalError, match="cap of 50 steps.*prepare\\(scale=True\\)"):
            ridge_start(sample_covariance(y), n, nu1, lam)

    def test_capped_start_is_still_a_valid_pair(self, rng, monkeypatch):
        # n << p with a narrow slab: the setting where plain fixed-point
        # iteration needs thousands of steps.
        p, n, nu1 = 50, 10, 0.1
        scatter = self.inputs(rng, p, n)
        monkeypatch.setattr(engine, "_RIDGE_STEPS", 2)
        omega = ridge_start(scatter, n, nu1, 1.0)
        self.assert_valid(omega)
        monkeypatch.undo()
        converged = ridge_start(scatter, n, nu1, 1.0)
        assert np.max(np.abs(omega - converged)) > 1e-3 * np.max(np.abs(converged))

    @pytest.mark.parametrize("p", [2, 3, 6])
    @pytest.mark.parametrize("n", [1, 20])
    @pytest.mark.parametrize("nu1", [0.1, 1.0])
    def test_newton_product_is_one_minus_the_jacobian(self, rng, p, n, nu1):
        # J = dF/d(delta) from its definition: F(delta) = diag(V g(B) V') with
        # B = S + lambda I - d Diag(delta), so by the Daleckii-Krein formula
        # J_ij = -d sum_kl V_ik V_il V_jk V_jl g[b_k, b_l], where g[., .] is
        # g's divided difference (its derivative on the diagonal).
        scatter, lambda_diag, slab = self.inputs(rng, p, n), 0.5, 1.0 / (nu1 * nu1)
        delta = rng.uniform(0.5, 2.0, p)
        system = scatter + np.diag(lambda_diag - slab * delta)
        b, v = np.linalg.eigh(system)

        def g(x):
            return (np.sqrt(x * x + 4.0 * slab * n) - x) / (2.0 * slab)

        slope = (b / np.sqrt(b * b + 4.0 * slab * n) - 1.0) / (2.0 * slab)
        rise, run = g(b)[:, None] - g(b)[None, :], b[:, None] - b[None, :]
        divided = np.where(np.eye(p, dtype=bool), np.diag(slope), rise / (run + np.eye(p)))
        pairs = np.einsum("ik,il->ikl", v, v)
        jacobian = -slab * np.einsum("ikl,kl,jkl->ij", pairs, divided, pairs)

        vectors, values, kernel = engine._ridge_spectrum(system, slab, n)
        assert np.allclose(values, g(b), rtol=1e-13, atol=0.0)
        product = np.column_stack(
            [engine._ridge_newton_product(vectors, kernel, u) for u in np.eye(p)]
        )
        expected = np.eye(p) - jacobian
        assert np.max(np.abs(product - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.allclose(product, product.T, rtol=0.0, atol=1e-14)
        assert np.min(np.linalg.eigvalsh(expected)) > 0.0
        # The divided differences are the derivative: a central difference
        # of F agrees.
        step = 1e-6 * np.max(delta)
        for j in range(p):
            shift = np.zeros(p)
            shift[j] = step
            plus = np.linalg.eigh(system - slab * np.diag(shift))
            minus = np.linalg.eigh(system + slab * np.diag(shift))
            column = ((plus[1] ** 2) @ g(plus[0]) - (minus[1] ** 2) @ g(minus[0])) / (2 * step)
            assert np.allclose(column, jacobian[:, j], rtol=1e-5, atol=1e-7)

    def test_paper_design_start_takes_at_most_five_eigendecompositions(self, rng, monkeypatch):
        p, n = 100, 150
        y = rng.standard_normal((n, p))
        scatter = sample_covariance(y - y.mean(axis=0))
        calls = []
        eigh = np.linalg.eigh

        def counting(matrix):
            calls.append(1)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        omega = ridge_start(scatter, n, 1.0, 1.0)
        monkeypatch.undo()
        self.assert_valid(omega)
        assert len(calls) <= 5
        w = cho_solve(cho_factor(omega, lower=True), np.eye(p))
        base = scatter + np.eye(p)
        residual = n * w - base - (omega - np.diag(np.diag(omega)))
        assert np.max(np.abs(residual)) <= 1e-11 * max(np.max(np.abs(base)), n * np.max(w))


class TestComputeElbo:
    def test_indicator_entropy_at_half(self, rng):
        data = grouped(rng, (1, 2), 20, 4)
        hyper = default_hyper((1, 2))
        state = init_state(data, hyper)
        _, terms = compute_elbo(state, hyper, data, return_terms=True)
        m_edges = 4 * 3 / 2
        for a in (1, 2):
            assert terms[f"indicator_entropy[{a}]"] == pytest.approx(
                m_edges * math.log(2.0), abs=1e-12
            )

    def test_negative_determinant_gives_minus_infinity(self, rng):
        # det(-I_4) = +1: a determinant's sign alone would pass p = 4.
        for p in (3, 4):
            data = grouped(rng, (1, 2), 20, p)
            hyper = default_hyper((1, 2))
            state = init_state(data, hyper)
            state.omega[1] = -np.eye(p)
            value, terms = compute_elbo(state, hyper, data, return_terms=True)
            assert terms["gaussian_loglik[1]"] == -np.inf
            assert math.isfinite(terms["gaussian_loglik[2]"])
            assert value == -np.inf

    def test_e_step_passes_are_monotone(self, rng):
        data = grouped(rng, (1, 2), 40, 5)
        hyper = default_hyper((1, 2), nu0=0.05)
        state = init_state(data, hyper)
        values = [compute_elbo(state, hyper, data)]
        for _ in range(3):
            for a in (1, 2):
                update_edge_latents(state, hyper, a)
            update_zeta(state, hyper)
            update_beta(state, hyper)
            update_sigma(state, hyper)
            values.append(compute_elbo(state, hyper, data))
        for previous, current in zip(values, values[1:]):
            assert current >= previous - 1e-9 * max(1.0, abs(previous))

    def test_zeta_update_change_matches_independent_objective(self, rng):
        p = 3
        data = grouped(rng, (0,), 30, p)
        hyper = default_hyper((0,), n0=-0.3, t0_sq=0.7)
        state = init_state(data, hyper)
        update_edge_latents(state, hyper, 0)

        def zeta_terms(zmean, zvar):
            iu = np.triu_indices(p, 1)
            ez = state.ez[0][iu]
            ez2 = state.ez2[0][iu]
            m_bar = zmean[iu]
            sq = ez2 - 2.0 * ez * m_bar + m_bar**2 + zvar[iu]
            latent = np.sum(-0.5 * math.log(2 * math.pi) - 0.5 * sq)
            prior = np.sum(
                -0.5 * math.log(2 * math.pi * hyper.t0_sq)
                - ((m_bar - hyper.n0) ** 2 + zvar[iu]) / (2 * hyper.t0_sq)
            )
            entropy = np.sum(0.5 * np.log(2 * math.pi * math.e * zvar[iu]))
            return float(latent + prior + entropy)

        before_elbo = compute_elbo(state, hyper, data, covariate_model=False)
        before_terms = zeta_terms(state.zeta_mean, state.zeta_var)
        update_zeta(state, hyper)
        after_elbo = compute_elbo(state, hyper, data, covariate_model=False)
        after_terms = zeta_terms(state.zeta_mean, state.zeta_var)
        assert after_elbo - before_elbo == pytest.approx(
            after_terms - before_terms, abs=1e-8
        )

    def test_zeta_update_is_stationary_point(self, rng):
        data = grouped(rng, (0,), 30, 3)
        hyper = default_hyper((0,), n0=0.2, t0_sq=1.3)
        state = init_state(data, hyper)
        update_edge_latents(state, hyper, 0)
        update_zeta(state, hyper)
        h = 1e-5
        for i, j in ((0, 1), (0, 2), (1, 2)):
            plus = state.copy()
            plus.zeta_mean = with_pair(plus.zeta_mean, (i, j), plus.zeta_mean[i, j] + h)
            minus = state.copy()
            minus.zeta_mean = with_pair(minus.zeta_mean, (i, j), minus.zeta_mean[i, j] - h)
            gradient = (
                compute_elbo(plus, hyper, data, covariate_model=False)
                - compute_elbo(minus, hyper, data, covariate_model=False)
            ) / (2 * h)
            assert abs(gradient) < 1e-6


def brute_force_ppi(scatter, n, diag, nu0, nu1, prior_inclusion, nodes=120):
    """Posterior inclusion probabilities for P=3 by dense numerical integration.

    The three off-diagonals are integrated per spike/slab configuration with
    per-coordinate Gauss-Legendre grids wide enough to cover both the prior
    component and the positive-definiteness cone; the diagonal entries are
    held at the supplied values and the probit intercept is integrated out
    analytically into a single prior inclusion probability.
    Non-positive-definite quadrature nodes get zero likelihood.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    pairs = [(0, 1), (0, 2), (1, 2)]
    s_off = np.array([scatter[i, j] for i, j in pairs])
    d0, d1, d2 = diag
    cone = [math.sqrt(diag[i] * diag[j]) for i, j in pairs]
    base_trace = float(np.sum(np.diag(scatter) * diag))
    log_evidence = {}
    for config in range(8):
        delta = [(config >> k) & 1 for k in range(3)]
        grids, log_wts = [], []
        for k in range(3):
            scale = nu1 if delta[k] else nu0
            half = min(8.0 * scale, cone[k])
            grids.append(half * x)
            log_wts.append(
                np.log(half * w) - 0.5 * math.log(2 * math.pi) - math.log(scale)
                - (half * x) ** 2 / (2.0 * scale**2)
            )
        g0, g1, g2 = np.meshgrid(*grids, indexing="ij")
        lw = (
            log_wts[0][:, None, None]
            + log_wts[1][None, :, None]
            + log_wts[2][None, None, :]
        )
        det = (
            d0 * (d1 * d2 - g2**2)
            - g0 * (g0 * d2 - g2 * g1)
            + g1 * (g0 * g2 - d1 * g1)
        )
        minor = d0 * d1 - g0**2
        valid = (det > 0.0) & (minor > 0.0)
        trace = base_trace + 2.0 * (s_off[0] * g0 + s_off[1] * g1 + s_off[2] * g2)
        loglik = np.where(valid, 0.5 * n * np.log(np.where(valid, det, 1.0)), -np.inf)
        loglik = loglik - 0.5 * trace
        total = lw + loglik
        log_evidence[config] = special.logsumexp(total[np.isfinite(total)])
    log_prior = {
        config: sum(
            math.log(prior_inclusion) if (config >> k) & 1
            else math.log1p(-prior_inclusion)
            for k in range(3)
        )
        for config in range(8)
    }
    joint = np.array([log_prior[c] + log_evidence[c] for c in range(8)])
    joint -= special.logsumexp(joint)
    weights = np.exp(joint)
    ppi = np.zeros(3)
    for config in range(8):
        for k in range(3):
            if (config >> k) & 1:
                ppi[k] += weights[config]
    return {pair: ppi[k] for k, pair in enumerate(pairs)}


class TestTinyModelOracle:
    def test_ppi_matches_dense_integration(self):
        truth = np.array([[1.0, -0.65, 0.0], [-0.65, 1.0, 0.0], [0.0, 0.0, 1.0]])
        y = sample_mvn(truth, 50, seed=13)
        data = GroupedDataset(levels=(0,), data=(y,)).prepare()
        nu0, nu1, n0, t0_sq = 0.1, 1.0, -1.0, 1.0
        result = fit_ssl(data.group(0), nu0, nu1, 1.0, n0, t0_sq)
        scatter = sample_covariance(data.group(0))
        prior_inclusion = stats.norm.cdf(n0 / math.sqrt(1.0 + t0_sq))
        oracle = brute_force_ppi(
            scatter, 50, np.diag(result.omega), nu0, nu1, prior_inclusion
        )
        for (i, j), target in oracle.items():
            assert result.ppi[i, j] == pytest.approx(target, abs=0.1)
        assert result.ppi[0, 1] > 0.9 and oracle[(0, 1)] > 0.9
        for pair in ((0, 2), (1, 2)):
            assert result.ppi[pair] < 0.2 and oracle[pair] < 0.2


class TestFit:
    def test_converges_on_simulated_benchmark(self):
        config = SimulationConfig(
            p=20, n_base_edges=20, n_appearing=10, n_disappearing=10,
            n_per_group=100, seed=1,
        )
        dataset, _ = simulate_experiment(config)
        data = dataset.prepare()
        hyper = Hyperparameters.from_edge_count_prior(20, data.levels, 0.05)
        report = fit(data, hyper)
        assert report.converged
        assert report.iterations <= 1000
        assert len(report.elbo_trace) == report.iterations

    def test_trace_is_non_decreasing(self):
        config = SimulationConfig(
            p=12, n_base_edges=12, n_appearing=5, n_disappearing=5,
            n_per_group=60, seed=4,
        )
        dataset, _ = simulate_experiment(config)
        hyper = Hyperparameters.from_edge_count_prior(12, dataset.levels, 0.05)
        report = fit(dataset.prepare(), hyper)
        trace = report.elbo_trace
        for previous, current in zip(trace, trace[1:]):
            assert current - previous >= -1e-6 * abs(previous)

    def test_state_invariants_every_iteration(self, rng):
        data = grouped(rng, (1, 2), 50, 8)
        hyper = default_hyper((1, 2), nu0=0.05)

        def check(iteration, state, elbo):
            for a in (1, 2):
                assert is_positive_definite(state.omega[a])
                assert np.all((state.ppi[a] >= 0.0) & (state.ppi[a] <= 1.0))
            # Every variance the model has: one per pair.
            assert np.all(state.zeta_var_pairs > 0.0)
            assert np.all(state.beta_var_pairs > 0.0)
            assert state.sigma_shape > 0.0 and state.sigma_rate > 0.0
            assert math.isfinite(elbo)

        fit(data, hyper, FitControls(max_iter=30, min_iter=5), callback=check)

    def test_node_permutation_equivariance(self, rng):
        p = 6
        config = SimulationConfig(
            p=p, n_base_edges=p, n_appearing=3, n_disappearing=3,
            n_per_group=80, seed=9, levels=(1, 2),
        )
        dataset, _ = simulate_experiment(config)
        perm = np.array([3, 0, 5, 1, 4, 2])
        permuted = GroupedDataset(
            levels=dataset.levels,
            data=tuple(y[:, perm] for y in dataset.data),
        )
        hyper = default_hyper((1, 2), nu0=0.05)
        controls = FitControls(max_iter=3000, elbo_rel_tol=1e-11)
        base = fit(dataset.prepare(), hyper, controls).final_state
        other = fit(permuted.prepare(), hyper, controls).final_state
        for a in (1, 2):
            expected = base.ppi[a][np.ix_(perm, perm)]
            assert np.max(np.abs(other.ppi[a] - expected)) < 1e-6
        assert np.max(
            np.abs(other.beta_mean - base.beta_mean[np.ix_(perm, perm)])
        ) < 1e-6
        assert np.max(
            np.abs(other.zeta_mean - base.zeta_mean[np.ix_(perm, perm)])
        ) < 1e-6

    def test_level_storage_order_is_irrelevant(self, rng):
        y = rng.standard_normal((40, 5))
        levels = (1, 2, 3, 4)
        hyper = default_hyper(levels, nu0=0.05)
        controls = FitControls(max_iter=60, min_iter=5)
        base = fit(
            GroupedDataset(levels=levels, data=(y, y, y, y)).prepare(),
            hyper,
            controls,
        ).final_state
        shuffled = fit(
            GroupedDataset(levels=(3, 1, 4, 2), data=(y, y, y, y)).prepare(),
            hyper,
            controls,
        ).final_state
        for a in levels:
            assert np.max(np.abs(shuffled.ppi[a] - base.ppi[a])) < 1e-8

    def test_level_recoding_leaves_probit_index_invariant(self):
        config = SimulationConfig(
            p=6, n_base_edges=6, n_appearing=3, n_disappearing=3,
            n_per_group=60, seed=2,
        )
        dataset, _ = simulate_experiment(config)
        shifted = GroupedDataset(
            levels=tuple(a + 10 for a in dataset.levels), data=dataset.data
        )
        hyper = default_hyper((1, 2, 3, 4), nu0=0.05)
        hyper_shift = Hyperparameters(nu0={a + 10: 0.05 for a in (1, 2, 3, 4)})
        base = fit(dataset.prepare(), hyper).final_state
        other = fit(shifted.prepare(), hyper_shift).final_state
        for base_level, shifted_level in zip(base.levels, other.levels):
            m_base = base.zeta_mean + base.probit_level(base_level) * base.beta_mean
            m_other = other.zeta_mean + other.probit_level(
                shifted_level
            ) * other.beta_mean
            assert np.max(np.abs(m_base - m_other)) < 1e-3

    def test_rejects_uncentered_data(self, rng):
        raw = GroupedDataset(
            levels=(1, 2),
            data=(rng.standard_normal((20, 3)) + 5.0, rng.standard_normal((20, 3))),
        )
        with pytest.raises(DataError, match="column-centered"):
            fit(raw, default_hyper((1, 2)))

    def test_covariate_model_needs_two_levels(self, rng):
        data = grouped(rng, (1,), 20, 3)
        with pytest.raises(DataError, match="2 levels"):
            fit(data, default_hyper((1,)))

    def test_requires_nu0_for_every_level(self, rng):
        data = grouped(rng, (1, 2), 20, 3)
        with pytest.raises(DataError, match="no nu0"):
            fit(data, Hyperparameters(nu0={1: 0.05}))

    @pytest.mark.parametrize("covariate_model", [True, False])
    def test_shared_start_changes_nothing(self, rng, covariate_model):
        levels = (1, 2, 3)
        data = grouped(rng, levels, 40, 6)
        hyper = default_hyper(levels, nu0=0.05)
        controls = FitControls(max_iter=30, min_iter=5)
        start = {
            a: ridge_start(sample_covariance(y), y.shape[0], hyper.nu1, hyper.lambda_diag)
            for a, y in zip(levels, data.data)
        }
        given = {a: omega.copy() for a, omega in start.items()}
        cold = fit(data, hyper, controls, covariate_model=covariate_model)
        shared = fit(data, hyper, controls, covariate_model=covariate_model, start=start)
        assert shared.elbo_trace == cold.elbo_trace
        for a in levels:
            assert np.array_equal(shared.final_state.ppi[a], cold.final_state.ppi[a])
            assert np.array_equal(shared.final_state.omega[a], cold.final_state.omega[a])
            assert np.array_equal(start[a], given[a])

    def test_start_must_cover_the_levels(self, rng):
        data = grouped(rng, (1, 2), 20, 3)
        start = {1: ridge_start(sample_covariance(data.data[0]), 20, 1.0, 1.0)}
        with pytest.raises(DataError, match="start has levels"):
            fit(data, default_hyper((1, 2)), start=start)
        start[3] = start[1]
        with pytest.raises(DataError, match="start has levels"):
            fit(data, default_hyper((1, 2)), start=start)

    def test_start_keyed_by_level_strings(self, rng):
        # A level key is the level itself: string keys, as a JSON document
        # gives them, and keys that no sort can order are refused by name.
        levels = (1, 2)
        data = grouped(rng, levels, 20, 4)
        hyper = default_hyper(levels)
        start = {
            a: ridge_start(sample_covariance(y), 20, 1.0, 1.0) for a, y in zip(levels, data.data)
        }
        with pytest.raises(DataError, match="start has levels"):
            fit(data, hyper, start={str(a): omega for a, omega in start.items()})
        for bad in ("one", 1.5, None):
            with pytest.raises(DataError, match="start has levels"):
                fit(data, hyper, start={1: start[1], bad: start[2]})
        with pytest.raises(DataError, match="start has levels"):
            fit(data, hyper, start={**start, "1": start[1]})

    def test_start_of_the_wrong_shape_is_refused(self, rng):
        data = grouped(rng, (1, 2), 20, 5)
        start = {
            a: ridge_start(sample_covariance(y), 20, 1.0, 1.0) for a, y in zip((1, 2), data.data)
        }
        # The last is an (omega, inverse) pair, a start of shape (2, 5, 5).
        legacy = (start[2], np.linalg.inv(start[2]))
        for bad in (np.eye(6), np.ones(5), legacy):
            with pytest.raises(DataError, match="start for level 2 has shape"):
                fit(data, default_hyper((1, 2)), start={**start, 2: bad})
        with pytest.raises(DataError, match="start for level 2 is not a numeric array"):
            fit(data, default_hyper((1, 2)), start={**start, 2: (start[2], np.eye(6))})

    def test_indefinite_start_is_refused(self, rng):
        data = grouped(rng, (1, 2), 20, 5)
        start = {
            a: ridge_start(sample_covariance(y), 20, 1.0, 1.0) for a, y in zip((1, 2), data.data)
        }
        start[1] = -np.eye(5)
        with pytest.raises(DataError, match="start for level 1 is not positive definite"):
            fit(data, default_hyper((1, 2)), start=start)

    def test_start_narrows_the_slab_where_a_level_has_fewer_samples_than_variables(
        self, rng, monkeypatch
    ):
        # Level 1 has n = 4 < p = 6 and starts at slab sd nu1/10; level 2
        # has n = 30 and keeps the all-slab start.  line_search_nu0 starts
        # its grid fits the same way.
        p, nu1, lam = 6, 0.8, 1.3
        data = GroupedDataset(
            levels=(1, 2), data=(rng.standard_normal((4, p)), rng.standard_normal((30, p)))
        ).prepare()
        hyper = default_hyper((1, 2), nu0=0.05, nu1=nu1, lambda_diag=lam)
        scatters = [sample_covariance(y) for y in data.data]
        start = {
            1: ridge_start(scatters[0], 4, nu1 / 10.0, lam),
            2: ridge_start(scatters[1], 30, nu1, lam),
        }
        controls = FitControls(max_iter=20, min_iter=5)
        cold = fit(data, hyper, controls)
        shared = fit(data, hyper, controls, start=start)
        assert cold.elbo_trace == shared.elbo_trace
        slabs = []

        def recording(scatter, n, slab, lambda_diag):
            slabs.append((n, slab))
            return ridge_start(scatter, n, slab, lambda_diag)

        monkeypatch.setattr(selection_module, "ridge_start", recording)
        selection_module.line_search_nu0(
            data, nu1, selection_module.Nu0SearchConfig(grid=(0.05,)), lambda_diag=lam
        )
        assert slabs == [(4, nu1 / 10.0), (30, nu1)]

    def test_levels_with_fewer_samples_than_variables_stay_sparse(self):
        # n = 25 < p = 40.  From the all-slab start every pair stayed in the
        # slab: 10.6 to 11.1 times the true edge count at PPI 0.5 on these
        # seeds.  The narrow start keeps each level within 3 times it.
        p = 40
        for seed in range(3):
            config = SimulationConfig(
                p=p, levels=(1, 2), n_per_group=25, n_base_edges=p,
                n_appearing=8, n_disappearing=8, seed=seed,
            )
            dataset, truth = simulate_experiment(config)
            data = dataset.prepare()
            hyper = Hyperparameters.from_edge_count_prior(p, data.levels, 0.04)
            state = fit(data, hyper, FitControls(max_iter=30, min_iter=5)).final_state
            for a in data.levels:
                edges = np.count_nonzero(state.ppi[a][np.triu_indices(p, 1)] >= 0.5)
                assert edges <= 3 * len(truth.adjacency[a]), (seed, a, edges)

    def test_stage_schedule_counts(self, rng, monkeypatch):
        # One Newton step per level in every pass after the burn-in.
        levels, iterations = (1, 2, 3), 4
        calls = {"zeta": 0, "latents": 0, "steps": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(engine, "update_zeta", counting("zeta", engine.update_zeta))
        monkeypatch.setattr(
            engine, "update_edge_latents", counting("latents", engine.update_edge_latents)
        )
        monkeypatch.setattr(engine, "_newton_step", counting("steps", engine._newton_step))
        data = grouped(rng, levels, 30, 5)
        report = fit(
            data, default_hyper(levels), FitControls(max_iter=iterations, min_iter=iterations)
        )
        assert report.iterations == iterations
        passes = engine._BURN_IN_PASSES + engine._ANNEAL_STEPS + iterations
        assert calls["zeta"] == passes
        assert calls["latents"] == len(levels) * passes
        assert calls["steps"] == len(levels) * (engine._ANNEAL_STEPS + iterations)


class TestSharedFactorAndTails:
    """``fit`` factors each precision iterate once and computes each level's
    probit tails once per coordinate pass, and the ELBO it assembles from
    those shared pieces is the one computed from the state alone."""

    @pytest.mark.parametrize("with_start", [False, True])
    def test_each_iterate_is_factored_once(self, rng, monkeypatch, with_start):
        levels, iterations = (1, 2, 3), 4
        data = grouped(rng, levels, 30, 5)
        start = None
        if with_start:
            start = {
                a: ridge_start(sample_covariance(y), 30, 1.0, 1.0)
                for a, y in zip(levels, data.data)
            }
        counts = {"input": 0, "trial": 0, "outside": 0, "steps": 0, "given": 0, "tails": 0}
        running = []  # the input matrix of the Newton step in progress
        newton_step, factorise, probit_tails = (
            engine._newton_step, engine._POTRF, engine._probit_tails
        )

        def step(omega, scatter, n, d, lambda_diag, factor=None):
            counts["steps"] += 1
            counts["given"] += factor is not None
            running.append(omega)
            try:
                return newton_step(omega, scatter, n, d, lambda_diag, factor)
            finally:
                running.pop()

        def potrf(matrix, *args, **kwargs):
            if not running:
                counts["outside"] += 1
            elif matrix is running[-1]:
                counts["input"] += 1
            else:
                # Inside a step, any other matrix is a line-search trial.
                counts["trial"] += 1
            return factorise(matrix, *args, **kwargs)

        def tails(m):
            counts["tails"] += 1
            return probit_tails(m)

        monkeypatch.setattr(engine, "_newton_step", step)
        monkeypatch.setattr(engine, "_POTRF", potrf)
        monkeypatch.setattr(engine, "_probit_tails", tails)
        report = fit(
            data, default_hyper(levels), FitControls(max_iter=iterations, min_iter=iterations),
            start=start,
        )
        assert report.iterations == iterations
        steps = len(levels) * (engine._ANNEAL_STEPS + iterations)
        assert counts["steps"] == steps
        assert counts["trial"] >= steps
        if with_start:
            # The start check's factor seeds the first step of each level.
            assert (counts["outside"], counts["input"]) == (len(levels), 0)
            assert counts["given"] == steps
        else:
            # Only the first step of each level factors its input; the ELBO
            # factors nothing.
            assert (counts["outside"], counts["input"]) == (0, len(levels))
            assert counts["given"] == steps - len(levels)
        passes = engine._BURN_IN_PASSES + engine._ANNEAL_STEPS + iterations
        assert counts["tails"] == len(levels) * passes

    def test_fit_elbo_terms_equal_a_fresh_evaluation(self, monkeypatch):
        # The design of tests/test_reproducibility.py.  Every iteration's
        # terms must equal compute_elbo's exactly: a factor or tails from
        # another iterate would move them.
        config = SimulationConfig(
            p=30, n_base_edges=30, n_appearing=15, n_disappearing=15,
            n_per_group=60, seed=0,
        )
        dataset, _ = simulate_experiment(config)
        data = dataset.prepare()
        hyper = Hyperparameters.from_edge_count_prior(30, data.levels, 0.04)
        elbo_terms = engine._elbo_terms
        shared, fresh = [], []

        def recording(state, hyper, scatters, ns, covariate_model, logdets=None, tails=None):
            terms = elbo_terms(state, hyper, scatters, ns, covariate_model, logdets, tails)
            if logdets is not None and tails is not None:
                shared.append(terms)
            return terms

        def callback(iteration, state, elbo):
            value, terms = compute_elbo(state, hyper, data, return_terms=True)
            fresh.append((elbo, value, terms))

        monkeypatch.setattr(engine, "_elbo_terms", recording)
        report = fit(data, hyper, FitControls(max_iter=30, min_iter=30), callback=callback)
        assert report.iterations == len(shared) == len(fresh) == 30
        for terms, (elbo, value, fresh_terms) in zip(shared, fresh):
            assert list(terms) == list(fresh_terms)
            for name, term in terms.items():
                assert term == fresh_terms[name], name
            assert elbo == value
