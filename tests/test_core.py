"""Foundational types, matrix predicates, data preparation and the worker pool."""

import operator
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordnet import (
    DataError,
    GroupedDataset,
    NumericalError,
    canonical_edge,
    center_columns,
    edge_indicator,
    edge_set,
    edge_set_from_matrix,
    is_positive_definite,
    partial_correlations,
    sample_covariance,
)
from ordnet.core import parallel_map


def random_pd(rng, p, scale=1.0):
    a = rng.standard_normal((p, p)) * scale
    return a @ a.T + p * np.eye(p)


class TestCenterColumns:
    def test_two_by_two(self):
        out = center_columns(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(out, [[-1.0, -1.0], [1.0, 1.0]])

    def test_idempotent(self, rng):
        data = rng.standard_normal((8, 4))
        once = center_columns(data)
        np.testing.assert_allclose(center_columns(once), once, atol=1e-12)

    def test_columns_sum_to_zero(self, rng):
        out = center_columns(rng.standard_normal((5, 3)) * 10.0 + 3.0)
        assert np.max(np.abs(out.sum(axis=0))) < 1e-10

    def test_scale_gives_unit_sd(self, rng):
        out = center_columns(rng.standard_normal((30, 4)) * 5.0, scale=True)
        np.testing.assert_allclose(out.std(axis=0, ddof=1), 1.0, atol=1e-12)

    def test_scale_rejects_constant_column(self):
        data = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        with pytest.raises(DataError, match="column 1"):
            center_columns(data, scale=True)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DataError):
            center_columns(np.arange(6.0))
        with pytest.raises(DataError):
            center_columns(np.array([[1.0, 2.0]]))

    @given(
        st.lists(
            st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
            min_size=2,
            max_size=12,
        )
    )
    def test_property_centered_means(self, rows):
        out = center_columns(np.array(rows))
        scale = max(1.0, float(np.max(np.abs(out)))) if out.size else 1.0
        assert np.max(np.abs(out.mean(axis=0))) <= 1e-9 * scale


class TestSampleCovariance:
    def test_two_rows(self):
        s = sample_covariance(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        np.testing.assert_allclose(s, [[2.0, 0.0], [0.0, 0.0]])

    def test_single_column(self):
        s = sample_covariance(np.array([[1.0], [-1.0], [0.0]]))
        np.testing.assert_allclose(s, [[2.0]])

    def test_matches_outer_product_sum(self, rng):
        data = center_columns(rng.standard_normal((6, 3)))
        oracle = sum(np.outer(row, row) for row in data)
        np.testing.assert_allclose(sample_covariance(data), oracle, atol=1e-10)

    def test_exactly_symmetric(self, rng):
        s = sample_covariance(rng.standard_normal((40, 7)))
        assert np.array_equal(s, s.T)


class TestIsPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite(np.eye(3))

    def test_indefinite(self):
        assert not is_positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_nonsquare_and_nonfinite(self):
        assert not is_positive_definite(np.ones((2, 3)))
        m = np.eye(2)
        m[0, 1] = np.nan
        assert not is_positive_definite(m)

    def test_agrees_with_eigenvalue_oracle(self, rng):
        agree = 0
        for _ in range(200):
            m = rng.standard_normal((6, 6))
            m = 0.5 * (m + m.T)
            oracle = bool(np.linalg.eigvalsh(m)[0] > 0.0)
            agree += is_positive_definite(m) == oracle
        assert agree == 200


class TestPartialCorrelations:
    def test_two_by_two(self):
        rho = partial_correlations(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert rho[0, 1] == pytest.approx(0.5)
        np.testing.assert_allclose(np.diag(rho), 1.0)

    def test_identity_gives_zeros(self):
        rho = partial_correlations(np.eye(5))
        assert np.max(np.abs(rho - np.eye(5))) == 0.0

    def test_matches_inversion_oracle(self, rng):
        omega = random_pd(rng, 4)
        sigma = np.linalg.inv(omega)
        d = 1.0 / np.sqrt(np.diag(sigma))
        corr = sigma * np.outer(d, d)
        k = np.linalg.inv(corr)
        e = 1.0 / np.sqrt(np.diag(k))
        oracle = -k * np.outer(e, e)
        np.fill_diagonal(oracle, 1.0)
        np.testing.assert_allclose(partial_correlations(omega), oracle, atol=1e-10)

    def test_pd_input_bounded(self, rng):
        for _ in range(20):
            rho = partial_correlations(random_pd(rng, 5))
            assert np.max(np.abs(rho)) <= 1.0 + 1e-12

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(NumericalError):
            partial_correlations(np.array([[0.0, 0.1], [0.1, 1.0]]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_property_invariant_under_diagonal_scaling(self, seed):
        rng = np.random.default_rng(seed)
        omega = random_pd(rng, 4)
        d = np.diag(rng.uniform(0.1, 10.0, size=4))
        base = partial_correlations(omega)
        scaled = partial_correlations(d @ omega @ d)
        assert np.max(np.abs(base - scaled)) < 1e-10


class TestEdgeHelpers:
    def test_canonical_edge_orders(self):
        assert canonical_edge(3, 1) == (1, 3)
        assert canonical_edge(1, 3) == (1, 3)

    def test_canonical_edge_rejects_self_loop(self):
        with pytest.raises(DataError):
            canonical_edge(2, 2)

    def test_edge_set_canonicalises(self):
        assert edge_set([(3, 0), (0, 3), (1, 2)]) == frozenset({(0, 3), (1, 2)})

    def test_indicator_round_trip(self):
        edges = frozenset({(0, 2), (1, 3)})
        m = edge_indicator(edges, 4)
        assert np.array_equal(m, m.T)
        assert edge_set_from_matrix(m) == edges

    def test_edge_set_from_matrix_threshold(self):
        m = np.zeros((3, 3))
        m[0, 1] = m[1, 0] = 1e-13
        m[1, 2] = m[2, 1] = 0.5
        assert edge_set_from_matrix(m) == frozenset({(1, 2)})


class TestGroupedDataset:
    def test_valid_construction(self, rng):
        ds = GroupedDataset(
            levels=(1, 2),
            data=(rng.standard_normal((5, 3)), rng.standard_normal((7, 3))),
            variable_names=("a", "b", "c"),
        )
        assert ds.p == 3
        assert ds.n_levels == 2
        assert ds.group_sizes == (5, 7)
        assert ds.group(2).shape == (7, 3)

    def test_prepare_centers_every_group(self, rng):
        ds = GroupedDataset(
            levels=(1, 2),
            data=(rng.standard_normal((5, 3)) + 4.0, rng.standard_normal((6, 3))),
        )
        assert not ds.is_centered(1e-6)
        assert ds.prepare().is_centered(1e-10)

    def test_rejects_duplicate_levels(self, rng):
        y = rng.standard_normal((5, 3))
        with pytest.raises(DataError, match="distinct"):
            GroupedDataset(levels=(1, 1), data=(y, y.copy()))

    def test_rejects_mismatched_columns(self, rng):
        with pytest.raises(DataError, match="variables"):
            GroupedDataset(
                levels=(1, 2),
                data=(rng.standard_normal((5, 3)), rng.standard_normal((5, 4))),
            )

    def test_rejects_tiny_groups(self, rng):
        with pytest.raises(DataError, match="at least 2 samples"):
            GroupedDataset(levels=(1,), data=(rng.standard_normal((1, 3)),))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, rng, bad):
        y = rng.standard_normal((5, 3))
        y[3, 1] = bad
        with pytest.raises(DataError, match=r"group 2: non-finite value .* row 3, column 1"):
            GroupedDataset(levels=(1, 2), data=(rng.standard_normal((5, 3)), y))

    def test_rejects_wrong_name_count(self, rng):
        with pytest.raises(DataError, match="variable names"):
            GroupedDataset(
                levels=(1,),
                data=(rng.standard_normal((5, 3)),),
                variable_names=("a", "b"),
            )


class TestParallelMap:
    def test_one_worker_is_the_list_comprehension(self):
        assert parallel_map(operator.add, [(1, 2), (3, 4)]) == [3, 7]
        assert parallel_map(os.getpid, [(), ()], 1) == [os.getpid()] * 2

    def test_tasks_run_outside_the_parent(self):
        pids = parallel_map(os.getpid, [(), (), ()], 2)
        assert len(pids) == 3 and os.getpid() not in pids

    def test_results_keep_the_task_order(self):
        tasks = [(k, 3) for k in range(7)]
        assert parallel_map(pow, tasks, 3) == [k**3 for k in range(7)]

    def test_worker_exception_reaches_the_caller_with_its_type(self):
        with pytest.raises(ZeroDivisionError):
            parallel_map(operator.truediv, [(1.0, 2.0), (1.0, 0.0)], 2)
