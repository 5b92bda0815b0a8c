"""Extended BIC scoring and the per-level spike line search."""

import math

import numpy as np
import pytest
from scipy import stats

import ordnet.engine as engine_module
import ordnet.selection as selection_module
from ordnet import (
    DataError,
    GroupedDataset,
    Nu0SearchConfig,
    NumericalError,
    ebic,
    fit_ssl,
    gaussian_log_likelihood,
    line_search_nu0,
    sample_mvn,
)
from ordnet.engine import intercept_prior
from ordnet.selection import ebic_for_ssl_fit


def centered(y):
    return y - y.mean(axis=0)


class TestGaussianLogLikelihood:
    def test_standard_normal_at_origin(self):
        value = gaussian_log_likelihood(np.eye(2), np.array([[0.0, 0.0]]))
        assert value == pytest.approx(-math.log(2 * math.pi), abs=1e-14)

    def test_identity_closed_form(self, rng):
        for n, p in ((5, 3), (12, 4)):
            y = rng.standard_normal((n, p))
            scatter = y.T @ y
            expected = -0.5 * np.trace(scatter) - 0.5 * n * p * math.log(2 * math.pi)
            assert gaussian_log_likelihood(np.eye(p), y) == pytest.approx(
                expected, abs=1e-10
            )

    def test_matches_row_density_oracle(self, rng):
        n, p = 5, 3
        base = rng.standard_normal((p, p))
        omega = base @ base.T + p * np.eye(p)
        y = rng.standard_normal((n, p))
        oracle = stats.multivariate_normal(
            mean=np.zeros(p), cov=np.linalg.inv(omega)
        ).logpdf(y)
        assert gaussian_log_likelihood(omega, y) == pytest.approx(
            float(np.sum(oracle)), abs=1e-10
        )

    def test_rejects_non_pd(self, rng):
        y = rng.standard_normal((4, 2))
        with pytest.raises(NumericalError):
            gaussian_log_likelihood(np.array([[1.0, 2.0], [2.0, 1.0]]), y)


class TestEbic:
    def test_no_edges_is_pure_deviance(self, rng):
        y = rng.standard_normal((20, 4))
        value = ebic(np.eye(4), y, gamma=0.5)
        assert value == pytest.approx(-2.0 * gaussian_log_likelihood(np.eye(4), y))

    def test_gamma_zero_is_plain_bic(self, rng):
        n, p = 30, 5
        y = rng.standard_normal((n, p))
        omega = np.eye(p)
        omega[0, 1] = omega[1, 0] = 0.2
        omega[2, 3] = omega[3, 2] = -0.15
        value = ebic(omega, y, gamma=0.0)
        expected = -2.0 * gaussian_log_likelihood(omega, y) + 2 * math.log(n)
        assert value == pytest.approx(expected, abs=1e-10)

    def test_penalty_arithmetic(self, rng):
        n, p = 50, 10
        y = rng.standard_normal((n, p))
        omega = np.eye(p)
        base = ebic(omega, y, gamma=0.5, n_edges=0)
        seven = ebic(omega, y, gamma=0.5, n_edges=7)
        assert seven - base == pytest.approx(
            7 * math.log(50) + 14 * math.log(10), abs=1e-10
        )

    def test_default_edge_count_uses_threshold(self, rng):
        n, p = 25, 4
        y = rng.standard_normal((n, p))
        omega = np.eye(p)
        omega[0, 1] = omega[1, 0] = 0.3
        omega[1, 2] = omega[2, 1] = 1e-12
        explicit = ebic(omega, y, gamma=0.5, n_edges=1)
        assert ebic(omega, y, gamma=0.5) == pytest.approx(explicit, abs=1e-12)

    def test_strictly_increasing_in_edge_count(self, rng):
        y = rng.standard_normal((40, 6))
        values = [ebic(np.eye(6), y, gamma=0.5, n_edges=k) for k in range(6)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestNu0SearchConfig:
    def test_default_grid(self):
        config = Nu0SearchConfig.for_slab(1.0)
        expected = np.geomspace(1e-3, 0.1, 20)
        assert np.allclose(config.grid, expected, rtol=1e-12)
        assert config.gamma_ebic == 0.5

    @pytest.mark.parametrize("nu1", [0.0, -1.0, math.inf, math.nan])
    def test_default_grid_needs_a_positive_slab(self, nu1):
        with pytest.raises(DataError, match="nu1 must be positive"):
            Nu0SearchConfig.for_slab(nu1)

    def test_grid_validation(self):
        with pytest.raises(DataError):
            Nu0SearchConfig(grid=(0.05, 0.02))
        with pytest.raises(DataError):
            Nu0SearchConfig(grid=(-0.01, 0.05))
        with pytest.raises(DataError):
            Nu0SearchConfig(grid=())
        for bad in (math.nan, math.inf):
            with pytest.raises(DataError, match="grid values must be finite"):
                Nu0SearchConfig(grid=(0.01, bad))


def two_level_dataset(strong_seed=0, p=10, n=150):
    dense = np.eye(p)
    for i in range(p - 1):
        dense[i, i + 1] = dense[i + 1, i] = -0.4
    y_dense = sample_mvn(dense, n, seed=strong_seed)
    y_empty = sample_mvn(np.eye(p), n, seed=strong_seed + 1000)
    return centered(y_dense), centered(y_empty)


class TestLineSearchNu0:
    def test_single_point_grid(self):
        y_dense, y_empty = two_level_dataset()
        data = GroupedDataset(levels=(1, 2), data=(y_dense, y_empty))
        result = line_search_nu0(data, 1.0, Nu0SearchConfig(grid=(0.05,)))
        assert result.selected == {1: 0.05, 2: 0.05}
        assert result.grid == (0.05,)

    def test_identical_levels_identical_choice(self):
        y_dense, _ = two_level_dataset()
        data = GroupedDataset(levels=(1, 2), data=(y_dense, y_dense.copy()))
        result = line_search_nu0(
            data, 1.0, Nu0SearchConfig(grid=(0.02, 0.05, 0.1))
        )
        assert result.selected[1] == result.selected[2]
        assert result.ebic[1] == result.ebic[2]

    def test_dense_graph_prefers_weakly_larger_spike(self):
        grid = Nu0SearchConfig(grid=(0.01, 0.03, 0.1))
        dense_picks, empty_picks = [], []
        for seed in range(20):
            y_dense, y_empty = two_level_dataset(strong_seed=seed)
            data = GroupedDataset(levels=(1, 2), data=(y_dense, y_empty))
            result = line_search_nu0(data, 1.0, grid)
            dense_picks.append(result.selected[1])
            empty_picks.append(result.selected[2])
        assert np.median(dense_picks) >= np.median(empty_picks)

    def test_workers_do_not_change_the_answer(self):
        y_dense, y_empty = two_level_dataset(strong_seed=2)
        data = GroupedDataset(levels=(1, 2), data=(y_dense, y_empty))
        grid = Nu0SearchConfig(grid=(0.02, 0.08))
        serial = line_search_nu0(data, 1.0, grid, workers=1)
        parallel = line_search_nu0(data, 1.0, grid, workers=2)
        assert parallel == serial

    def test_failed_grid_point_is_skipped_and_reported(self):
        y_dense, y_empty = two_level_dataset()
        data = GroupedDataset(levels=(1, 2), data=(y_dense, y_empty))
        # 0.2 is below nu1 but not below nu1/10, so its fit is refused.
        result = line_search_nu0(data, 1.0, Nu0SearchConfig(grid=(0.02, 0.2)))
        assert result.selected == {1: 0.02, 2: 0.02}
        for a in (1, 2):
            assert math.isfinite(result.ebic[a][0])
            assert math.isnan(result.ebic[a][1])
            assert result.failures[a][0] == ""
            assert "well separated" in result.failures[a][1]
            assert "level" not in result.failures[a][1]

    def test_all_failures_reported_per_grid_point(self, rng, monkeypatch):
        def explode(*args, **kwargs):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(selection_module, "fit_ssl", explode)
        y = centered(rng.standard_normal((30, 4)))
        data = GroupedDataset(levels=(1,), data=(y,))
        with pytest.raises(NumericalError, match="synthetic failure"):
            line_search_nu0(data, 1.0, Nu0SearchConfig(grid=(0.02, 0.05)))

    def test_grid_must_stay_below_slab(self):
        y_dense, _ = two_level_dataset()
        data = GroupedDataset(levels=(1,), data=(y_dense,))
        with pytest.raises(DataError):
            line_search_nu0(data, 1.0, Nu0SearchConfig(grid=(0.5, 2.0)))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_cold_fits_with_one_ridge_start_per_level(self, monkeypatch, workers):
        calls = []

        def counting(original):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)
            return wrapper

        # Patched in both modules, so a fit that rebuilt its start is counted.
        monkeypatch.setattr(
            selection_module, "ridge_start", counting(selection_module.ridge_start)
        )
        monkeypatch.setattr(engine_module, "ridge_start", counting(engine_module.ridge_start))
        y_dense, y_empty = two_level_dataset(strong_seed=3)
        data = GroupedDataset(levels=(1, 2), data=(y_dense, y_empty))
        # 0.2 is refused (above nu1/10), so the failure path is compared too.
        grid = (0.01, 0.03, 0.1, 0.2)
        result = line_search_nu0(data, 1.0, Nu0SearchConfig(grid=grid), workers=workers)
        assert len(calls) == 2

        monkeypatch.undo()
        n0, t0_sq = intercept_prior(data.p)
        for a, y in zip(data.levels, data.data):
            values, messages = [], []
            for g in grid:
                try:
                    cold = fit_ssl(y, g, 1.0, 1.0, n0, t0_sq)
                    values.append(ebic_for_ssl_fit(cold, y, nu0=g))
                    messages.append("")
                except (DataError, NumericalError) as exc:
                    values.append(math.nan)
                    messages.append(str(exc))
            assert np.array_equal(result.ebic[a], values, equal_nan=True)
            assert result.failures[a] == tuple(messages)
            finite = [v for v in values if not math.isnan(v)]
            best = max(i for i, v in enumerate(values) if v == min(finite))
            assert result.selected[a] == grid[best]

    def test_level_start_failure_fails_every_point(self, monkeypatch):
        def explode(*args, **kwargs):
            raise NumericalError("synthetic ridge failure")

        monkeypatch.setattr(selection_module, "ridge_start", explode)
        y_dense, _ = two_level_dataset()
        data = GroupedDataset(levels=(1,), data=(y_dense,))
        with pytest.raises(NumericalError, match="nu0=0.05: synthetic ridge failure"):
            line_search_nu0(data, 1.0, Nu0SearchConfig(grid=(0.02, 0.05)))

    @pytest.mark.parametrize(
        "settings, key",
        [
            ({"nu1": 0.0}, "nu1"),
            ({"nu1": -1.0}, "nu1"),
            ({"lambda_diag": -1.0}, "lambda_diag"),
            ({"t0_sq": -1.0}, "t0_sq"),
        ],
    )
    def test_bad_settings_are_refused_before_any_fit(self, monkeypatch, settings, key):
        def explode(*args, **kwargs):
            raise AssertionError("no fit may run")

        monkeypatch.setattr(selection_module, "ridge_start", explode)
        monkeypatch.setattr(selection_module, "fit_ssl", explode)
        y_dense, _ = two_level_dataset()
        data = GroupedDataset(levels=(1,), data=(y_dense,))
        with pytest.raises(DataError, match=key):
            line_search_nu0(data, config=Nu0SearchConfig(grid=(0.02, 0.05)), **settings)
