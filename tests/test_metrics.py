"""Edge-recovery metrics and coefficient-driven summaries."""

import numpy as np
import pytest
from scipy.stats import rankdata

from ordnet import (
    DataError,
    Hyperparameters,
    SimulationConfig,
    edge_count_prior,
    evaluate_fit,
    fit,
    precision_recall,
    rank_nodes_by_beta,
    roc_auc,
    simulate_experiment,
    top_k_edge_subnetworks,
)
from ordnet.metrics import _mid_ranks


def symmetric_scores(rng, p):
    m = rng.uniform(0.0, 1.0, size=(p, p))
    return 0.5 * (m + m.T)


def indicator(p, edges):
    m = np.zeros((p, p))
    for i, j in edges:
        m[i, j] = m[j, i] = 1.0
    return m


@pytest.fixture(scope="module")
def changed_edge_fit():
    config = SimulationConfig(
        p=20, n_base_edges=20, n_appearing=10, n_disappearing=10,
        n_per_group=400, partial_corr_magnitude=0.2, seed=0,
    )
    dataset, truth = simulate_experiment(config)
    hyper = Hyperparameters.from_edge_count_prior(20, dataset.levels, 0.035)
    report = fit(dataset.prepare(), hyper)
    return report.final_state, truth


class TestRocAuc:
    def test_indicator_scores_are_perfect(self):
        truth = {(0, 1), (2, 3)}
        assert roc_auc(indicator(5, truth), truth) == 1.0

    def test_constant_scores_are_chance(self):
        scores = np.full((4, 4), 0.7)
        assert roc_auc(scores, {(0, 1)}) == 0.5

    def test_matches_pair_enumeration(self, rng):
        p = 5
        truth = {(0, 1), (1, 3), (2, 4)}
        for _ in range(20):
            scores = symmetric_scores(rng, p)
            wins = ties = total = 0
            for i in range(p):
                for j in range(i + 1, p):
                    if (i, j) not in truth:
                        continue
                    for k in range(p):
                        for l in range(k + 1, p):
                            if (k, l) in truth:
                                continue
                            total += 1
                            if scores[i, j] > scores[k, l]:
                                wins += 1
                            elif scores[i, j] == scores[k, l]:
                                ties += 1
            oracle = (wins + 0.5 * ties) / total
            assert roc_auc(scores, truth) == pytest.approx(oracle, abs=1e-15)

    def test_invariant_under_monotone_transforms(self, rng):
        truth = {(0, 2), (1, 3)}
        scores = symmetric_scores(rng, 6)
        base = roc_auc(scores, truth)
        for transform in (lambda s: 3.0 * s + 1.0, np.cbrt, np.expm1):
            assert roc_auc(transform(scores), truth) == pytest.approx(base, abs=1e-15)

    def test_rejects_empty_or_complete_truth(self, rng):
        scores = symmetric_scores(rng, 3)
        with pytest.raises(DataError):
            roc_auc(scores, set())
        with pytest.raises(DataError):
            roc_auc(scores, {(0, 1), (0, 2), (1, 2)})

    def test_rejects_truth_outside_the_nodes(self, rng):
        scores = symmetric_scores(rng, 3)
        for truth in ({(0, 1), (1, 3)}, {(-1, 2)}):
            with pytest.raises(DataError, match="outside the 3 nodes"):
                roc_auc(scores, truth)
            with pytest.raises(DataError, match="outside the 3 nodes"):
                precision_recall(scores, truth)


    def test_rejects_nan_scores(self, rng):
        scores = symmetric_scores(rng, 4)
        scores[1, 2] = scores[2, 1] = np.nan
        with pytest.raises(DataError, match="NaN"):
            roc_auc(scores, {(0, 1)})

    def test_orders_infinite_scores(self):
        scores = np.zeros((3, 3))
        scores[0, 1] = np.inf
        scores[1, 2] = -np.inf
        assert roc_auc(scores, {(0, 1)}) == 1.0
        assert roc_auc(scores, {(1, 2)}) == 0.0
        assert roc_auc(scores, {(0, 2)}) == 0.5


def rankdata_auc(scores, truth):
    """Rank-sum AUC on ``scipy.stats.rankdata`` ranks (the reference oracle)."""
    p = scores.shape[0]
    rows, cols = np.triu_indices(p, 1)
    labels = indicator(p, truth)[rows, cols] > 0.0
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    ranks = rankdata(scores[rows, cols])
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


class TestMidRanks:
    """The NumPy mid-ranks equal ``rankdata``'s average ranks bit for bit."""

    @pytest.mark.parametrize(
        "values",
        [np.full(7, 0.3), np.array([0.0, -0.0, 1.0, -0.0, 0.0]),
         np.array([np.inf, -np.inf, 0.0, np.inf, 2.0, -np.inf, -np.inf]),
         np.array([5.0]), np.arange(10.0)[::-1]],
        ids=["all-tied", "signed-zeros", "infinities", "single", "reversed"],
    )
    def test_equals_rankdata_on_edge_cases(self, values):
        ranks = _mid_ranks(values)
        assert ranks.dtype == np.float64
        assert np.array_equal(ranks, rankdata(values))

    def test_equals_rankdata_under_heavy_ties(self, rng):
        for decimals in (0, 1, 2, 3):
            for size in (2, 15, 190, 4950):
                values = np.round(rng.normal(size=size), decimals)
                assert np.array_equal(_mid_ranks(values), rankdata(values))

    def test_roc_auc_equals_rankdata_reference(self, rng):
        p = 20
        truth = {(i, j) for i in range(p) for j in range(i + 1, p) if (i + 2 * j) % 7 == 0}
        for decimals in (None, 2, 1, 0):
            scores = symmetric_scores(rng, p)
            if decimals is not None:
                scores = np.round(3.0 * scores, decimals)
            scores[0, 1] = scores[1, 0] = np.inf
            scores[2, 3] = scores[3, 2] = -0.0
            assert roc_auc(scores, truth) == rankdata_auc(scores, truth)


class TestPrecisionRecall:
    def test_perfect_prediction(self):
        truth = {(0, 1), (1, 2)}
        precision, recall = precision_recall(indicator(4, truth), truth)
        assert (precision, recall) == (1.0, 1.0)

    def test_no_predictions_is_vacuously_precise(self):
        precision, recall = precision_recall(np.zeros((4, 4)), {(0, 1)})
        assert precision == 1.0
        assert recall == 0.0

    def test_matches_confusion_matrix_oracle(self, rng):
        p = 6
        truth = {(0, 1), (0, 3), (2, 5), (4, 5)}
        for _ in range(20):
            ppi = symmetric_scores(rng, p)
            tp = fp = fn = 0
            for i in range(p):
                for j in range(i + 1, p):
                    predicted = ppi[i, j] >= 0.5
                    actual = (i, j) in truth
                    tp += predicted and actual
                    fp += predicted and not actual
                    fn += (not predicted) and actual
            expected_precision = tp / (tp + fp) if tp + fp else 1.0
            expected_recall = tp / (tp + fn)
            precision, recall = precision_recall(ppi, truth)
            assert precision == pytest.approx(expected_precision, abs=1e-15)
            assert recall == pytest.approx(expected_recall, abs=1e-15)

    def test_threshold_zero_predicts_everything(self, rng):
        ppi = symmetric_scores(rng, 5)
        _, recall = precision_recall(ppi, {(0, 1), (2, 3)}, threshold=0.0)
        assert recall == 1.0

    def test_threshold_validation(self, rng):
        with pytest.raises(DataError):
            precision_recall(symmetric_scores(rng, 3), {(0, 1)}, threshold=1.5)


class TestTopKEdgeSubnetworks:
    def test_zero_k_is_empty(self, rng):
        positive, negative = top_k_edge_subnetworks(symmetric_scores(rng, 4), 0)
        assert positive == set() and negative == set()

    def test_sign_restricted_truncation(self):
        beta = np.zeros((4, 4))
        for (i, j), value in (((0, 1), -0.9), ((0, 2), -0.5), ((1, 3), -0.2)):
            beta[i, j] = beta[j, i] = value
        positive, negative = top_k_edge_subnetworks(beta, 3)
        assert positive == set()
        assert negative == {(0, 1), (0, 2), (1, 3)}

    def test_negative_subnetwork_tracks_disappearing(self, changed_edge_fit):
        state, truth = changed_edge_fit
        k = len(truth.disappearing)
        _, negative = top_k_edge_subnetworks(state.beta_mean, k)
        assert len(negative & truth.disappearing) / k >= 0.7


class TestBetaSignStructure:
    """The signs of ``beta_mean`` on a fit with known changed edges: the
    top-k positive slopes find the appearing edges, the top-k negative
    slopes the disappearing ones."""

    def test_recovers_changed_edges(self, changed_edge_fit):
        state, truth = changed_edge_fit
        k = len(truth.appearing)
        positive, negative = top_k_edge_subnetworks(state.beta_mean, k)
        hit_appearing = len(positive & truth.appearing) / k
        hit_disappearing = len(negative & truth.disappearing) / k
        assert hit_appearing >= 0.7
        assert hit_disappearing >= 0.7


def sorted_edges_reference(beta, descending, keep):
    """Every upper-triangle edge as a tuple, sorted in Python by value and
    then (row, column), with only those whose value ``keep`` accepts."""
    p = beta.shape[0]
    edges = [(i, j) for i in range(p) for j in range(i + 1, p) if keep(beta[i, j])]
    sign = -1.0 if descending else 1.0
    return sorted(edges, key=lambda e: (sign * beta[e], e))


class TestSelectionAgainstPythonSort:
    """The NumPy top-k selection against a plain sort of all edges, on
    matrices full of ties and zeros (-0.0 among them)."""

    @staticmethod
    def tied_matrix(rng, p):
        values = np.array([-2.0, -0.5, -0.0, 0.0, 0.0, 0.5, 1.0, 2.0])
        m = np.triu(rng.choice(values, size=(p, p)), 1)
        return m + m.T

    @pytest.mark.parametrize("seed", range(5))
    def test_top_k_edge_subnetworks(self, seed):
        rng = np.random.default_rng(seed)
        beta = self.tied_matrix(rng, 9)
        positive = sorted_edges_reference(beta, True, lambda v: v > 0.0)
        negative = sorted_edges_reference(beta, False, lambda v: v < 0.0)
        # k beyond one sign's count truncates that side only.
        for k in (0, 1, 3, len(positive), len(negative), max(len(positive), len(negative)) + 4):
            got = top_k_edge_subnetworks(beta, k)
            assert got == (frozenset(positive[:k]), frozenset(negative[:k]))
            assert all(type(i) is int and type(j) is int for i, j in got[0] | got[1])


class TestRankNodesByBeta:
    def test_empty_filter_identity_order(self):
        ranking = rank_nodes_by_beta(np.zeros((4, 4)), set())
        assert list(ranking) == [(v, 0.0) for v in range(4)]

    def test_star_graph_scores(self):
        beta = np.zeros((5, 5))
        for j in range(1, 5):
            beta[0, j] = beta[j, 0] = 1.0 if j % 2 else -1.0
        spokes = {(0, j) for j in range(1, 5)}
        ranking = rank_nodes_by_beta(beta, spokes)
        scores = dict(ranking)
        assert ranking[0] == (0, 4.0)
        assert all(scores[v] == 1.0 for v in range(1, 5))

    def test_matches_incidence_sum_oracle(self, rng):
        p = 7
        beta = rng.standard_normal((p, p))
        beta = 0.5 * (beta + beta.T)
        edges = {(0, 2), (1, 4), (2, 6), (3, 4), (5, 6)}
        ranking = rank_nodes_by_beta(beta, edges)
        oracle = {v: 0.0 for v in range(p)}
        for i, j in edges:
            oracle[i] += abs(beta[i, j])
            oracle[j] += abs(beta[i, j])
        for v, score in ranking:
            assert score == pytest.approx(oracle[v], abs=1e-15)
        values = [score for _, score in ranking]
        assert values == sorted(values, reverse=True)
        total = sum(values)
        assert total == pytest.approx(
            2.0 * sum(abs(beta[e]) for e in edges), abs=1e-12
        )


class TestEvaluateFit:
    def test_perfect_fit_scores_one(self):
        truth_edges = {1: [(0, 1), (2, 3)], 2: [(0, 1)]}
        ppi = {a: indicator(5, edges) for a, edges in truth_edges.items()}
        report = evaluate_fit(ppi, truth_edges, 0.5)
        for a, edges in truth_edges.items():
            row = report.per_level[a]
            assert row["auc"] == 1.0
            assert row["precision"] == 1.0
            assert row["recall"] == 1.0
            assert row["n_edges_est"] == len(edges)
            assert row["n_edges_true"] == len(edges)
