"""End-to-end acceptance gate: benchmark quality bars, stability invariants,
formula oracles and CLI determinism.  Each test registers one summary line
through ``record_criterion``; the registry prints after the run.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import optimize, stats

from conftest import record_criterion
from ordnet import (
    GroupedDataset,
    Hyperparameters,
    SimulationConfig,
    ebic,
    edge_count_prior,
    fit,
    fit_ssl,
    gaussian_log_likelihood,
    init_state,
    is_positive_definite,
    ols_beta_proxy,
    precision_recall,
    refit_precision,
    roc_auc,
    sample_covariance,
    simulate_experiment,
    top_k_edge_subnetworks,
    truncated_normal_moments,
    update_beta,
    update_sigma,
    update_zeta,
)
from ordnet.cli import main as cli_main
from reference import sweep_state_columns

pytestmark = pytest.mark.acceptance

LEVELS = (1, 2, 3, 4)
SPIKE = 0.04
N0_P100 = edge_count_prior(100)[0]

_TRACES: list[tuple[str, tuple[float, ...]]] = []


def run_benchmark_replicate(seed, n_per_group):
    """One replicate of the 100-node benchmark: joint fit and per-level
    single-network fits under the same spike, slab and probit prior."""
    config = SimulationConfig(p=100, n_per_group=n_per_group, seed=seed)
    dataset, truth = simulate_experiment(config)
    data = dataset.prepare()
    hyper = Hyperparameters(nu0={a: SPIKE for a in LEVELS}, n0=N0_P100, t0_sq=1.0)
    report = fit(data, hyper)
    _TRACES.append((f"joint n={n_per_group} seed={seed}", report.elbo_trace))
    rows = []
    for a in LEVELS:
        ssl = fit_ssl(data.group(a), SPIKE, n0=N0_P100, t0_sq=1.0)
        _TRACES.append((f"ssl n={n_per_group} seed={seed} level={a}", ssl.elbo_trace))
        edges = truth.adjacency[a]
        joint_ppi = report.final_state.ppi[a]
        rows.append(
            {
                "auc_joint": roc_auc(joint_ppi, edges),
                "auc_ssl": roc_auc(ssl.ppi, edges),
                **recall_comparison(joint_ppi, ssl.ppi, edges),
            }
        )
    return rows


def upper(matrix):
    return np.asarray(matrix)[np.triu_indices(len(matrix), 1)]


def selection_size(ppi, cut):
    return int(np.count_nonzero(upper(ppi) >= cut))


def equal_size_cut(ppi, k):
    """Smallest PPI value c with at most k edges at PPI >= c.

    Edges tied at the k-th position are dropped together, so ties can only
    shrink the selection below k.  When every one of the top k+1 values is
    tied, no PPI value qualifies and the cut sits just above them.
    """
    values = np.sort(upper(ppi))[::-1]
    if k >= values.size:
        return float(values[-1])
    above = values[:k][values[:k] > values[k]]
    return float(above[-1]) if above.size else float(np.nextafter(values[k], np.inf))


def recall_comparison(joint_ppi, ssl_ppi, edges):
    """Both fits' recall, precision and edge count at PPI 0.5, and the joint
    recall read at the single-network fit's own selection size.

    The joint fit pools each edge's intercept over the levels, so its PPIs
    sit on another scale than the single-network ones; only at an equal
    number of selected edges does a recall gap measure recovery alone.
    """
    k = selection_size(ssl_ppi, 0.5)
    precision_joint, recall_joint = precision_recall(joint_ppi, edges, 0.5)
    precision_ssl, recall_ssl = precision_recall(ssl_ppi, edges, 0.5)
    return {
        "recall_joint": recall_joint,
        "recall_ssl": recall_ssl,
        "precision_joint": precision_joint,
        "precision_ssl": precision_ssl,
        "size_joint": selection_size(joint_ppi, 0.5),
        "size_ssl": k,
        "recall_joint_at_size": precision_recall(
            joint_ppi, edges, equal_size_cut(joint_ppi, k)
        )[1],
    }


@pytest.fixture(scope="module")
def auc_benchmark():
    replicates = []
    elapsed = []
    for seed in range(10):
        start = time.perf_counter()
        replicates.append(run_benchmark_replicate(seed, n_per_group=150))
        elapsed.append(time.perf_counter() - start)
    return replicates, elapsed


@pytest.fixture(scope="module")
def recall_benchmark():
    return [run_benchmark_replicate(seed, n_per_group=200) for seed in range(5)]


@pytest.fixture(scope="module")
def changed_edge_benchmark():
    outcomes = []
    for seed in range(10):
        config = SimulationConfig(
            p=20, n_base_edges=20, n_appearing=10, n_disappearing=10,
            n_per_group=400, seed=seed,
        )
        dataset, truth = simulate_experiment(config)
        hyper = Hyperparameters.from_edge_count_prior(20, LEVELS, 0.035)
        report = fit(dataset.prepare(), hyper)
        _TRACES.append((f"changed-edge seed={seed}", report.elbo_trace))
        k = len(truth.appearing)
        positive, negative = top_k_edge_subnetworks(report.final_state.beta_mean, k)
        hits = len(positive & truth.appearing) + len(negative & truth.disappearing)
        outcomes.append(hits / (2.0 * k))
    return outcomes


@pytest.fixture(scope="module")
def instrumented_fit():
    config = SimulationConfig(
        p=20, n_base_edges=20, n_appearing=10, n_disappearing=10,
        n_per_group=400, seed=0,
    )
    dataset, _ = simulate_experiment(config)
    hyper = Hyperparameters.from_edge_count_prior(20, LEVELS, 0.035)
    checks = {"iterations": 0, "pd_checks": 0, "all_pd": True}

    def watch(iteration, state, elbo):
        checks["iterations"] += 1
        for a in LEVELS:
            checks["pd_checks"] += 1
            if not is_positive_definite(state.omega[a]):
                checks["all_pd"] = False

    report = fit(dataset.prepare(), hyper, callback=watch)
    _TRACES.append(("instrumented", report.elbo_trace))
    return checks


@pytest.fixture(scope="module")
def recoding_fits(small_experiment):
    data, _ = small_experiment
    hyper = Hyperparameters(nu0={a: 0.05 for a in LEVELS})
    base = fit(data, hyper)
    shifted_levels = tuple(a + 10 for a in LEVELS)
    shifted_data = GroupedDataset(levels=shifted_levels, data=data.data).prepare()
    shifted_hyper = Hyperparameters(nu0={a: 0.05 for a in shifted_levels})
    shifted = fit(shifted_data, shifted_hyper)
    _TRACES.append(("recoding base", base.elbo_trace))
    _TRACES.append(("recoding shifted", shifted.elbo_trace))
    return base.final_state, shifted.final_state


def level_means(replicates, key):
    return np.array([[row[key] for row in rep] for rep in replicates]).mean(axis=0)


def fmt(values, spec=".3f"):
    return "/".join(f"{v:{spec}}" for v in values)


def test_joint_beats_single_network_on_auc(auc_benchmark):
    replicates, elapsed = auc_benchmark
    joint = level_means(replicates, "auc_joint")
    ssl = level_means(replicates, "auc_ssl")
    gains = joint - ssl
    passed = (
        bool(np.all(joint >= ssl))
        and gains[1] >= 0.04
        and gains[2] >= 0.04
        and bool(np.all(joint >= 0.90))
        and max(elapsed) <= 1200.0
    )
    record_criterion(
        1,
        passed,
        f"mean AUC joint {fmt(joint)} vs single-network {fmt(ssl)}; "
        f"interior gains +{gains[1]:.3f}/+{gains[2]:.3f}; "
        f"slowest replicate {max(elapsed):.0f}s",
    )
    assert np.all(joint >= ssl), f"joint {fmt(joint)} vs ssl {fmt(ssl)}"
    assert gains[1] >= 0.04 and gains[2] >= 0.04, f"interior gains {fmt(gains)}"
    assert np.all(joint >= 0.90), f"absolute joint AUCs {fmt(joint)}"
    assert max(elapsed) <= 1200.0


def test_joint_recall_gap_on_interior_levels(recall_benchmark):
    def mean(key):
        return level_means(recall_benchmark, key)

    recall_ssl = mean("recall_ssl")
    gaps = mean("recall_joint_at_size") - recall_ssl
    gaps_05 = mean("recall_joint") - recall_ssl
    passed = gaps[1] >= 0.05 and gaps[2] >= 0.05
    detail = (
        f"recall gaps at the single-network selection size {fmt(gaps, '+.3f')} "
        "(bar: >= 0.05 on levels 2 and 3); "
        f"at PPI 0.5 joint vs single-network: recall {fmt(mean('recall_joint'))} "
        f"vs {fmt(recall_ssl)} (gaps {fmt(gaps_05, '+.3f')}), "
        f"precision {fmt(mean('precision_joint'))} vs {fmt(mean('precision_ssl'))}, "
        f"edges {fmt(mean('size_joint'), '.1f')} vs {fmt(mean('size_ssl'), '.1f')}"
    )
    record_criterion(2, passed, detail)
    assert passed, detail


def test_equal_size_recall_reads_selection_order_not_scale():
    def from_upper(values):
        matrix = np.zeros((5, 5))
        matrix[np.triu_indices(5, 1)] = values
        return matrix + matrix.T

    truth = {(0, 1), (0, 2), (1, 2), (2, 3)}
    ssl = from_upper([0.90, 0.70, 0.65, 0.10, 0.30, 0.20, 0.60, 0.55, 0.05, 0.45])
    joint = from_upper([0.95, 0.62, 0.30, 0.10, 0.58, 0.20, 0.55, 0.52, 0.05, 0.40])

    same = recall_comparison(ssl, ssl, truth)
    assert same["recall_joint_at_size"] - same["recall_ssl"] == 0.0

    plain = recall_comparison(joint, ssl, truth)
    squared = recall_comparison(joint**2, ssl, truth)
    assert plain["size_ssl"] == 5
    assert squared["recall_joint_at_size"] == plain["recall_joint_at_size"] == 1.0
    assert (plain["recall_joint"], squared["recall_joint"]) == (1.0, 0.25)

    tied = from_upper([0.90, 0.60, 0.60, 0.10, 0.60, 0.20, 0.60, 0.30, 0.05, 0.40])
    sizes = []
    for k in range(11):
        cut = equal_size_cut(tied, k)
        sizes.append(selection_size(tied, cut))
        assert all(selection_size(tied, v) > k for v in upper(tied) if v < cut)
    assert sizes == [0, 1, 1, 1, 1, 5, 6, 7, 8, 9, 10]


def test_sign_structure_recovers_changed_edges(changed_edge_benchmark):
    outcomes = changed_edge_benchmark
    successes = sum(fraction >= 0.70 for fraction in outcomes)
    passed = successes >= 8
    record_criterion(
        3,
        passed,
        f"changed-edge hit fraction per replicate {fmt(outcomes)}; "
        f"{successes}/10 replicates >= 0.70",
    )
    assert successes >= 8


def test_elbo_traces_never_decrease(
    auc_benchmark, recall_benchmark, changed_edge_benchmark, instrumented_fit,
    recoding_fits,
):
    worst = math.inf
    violations = []
    for label, trace in _TRACES:
        for previous, current in zip(trace, trace[1:]):
            margin = (current - previous) / max(1.0, abs(previous))
            worst = min(worst, margin)
            if current - previous < -1e-6 * abs(previous):
                violations.append(label)
                break
    record_criterion(
        4,
        not violations,
        f"{len(_TRACES)} traces checked; worst normalised step {worst:.2e}; "
        + ("no violations" if not violations else f"violations: {violations}"),
    )
    assert not violations


def test_precision_stays_positive_definite_throughout(instrumented_fit):
    checks = instrumented_fit
    passed = checks["all_pd"] and checks["pd_checks"] >= 4 * checks["iterations"]
    record_criterion(
        5,
        passed,
        f"{checks['pd_checks']} Cholesky checks over {checks['iterations']} "
        "iterations of a 20-node fit; all positive definite",
    )
    assert passed


def test_single_update_formula_oracles(rng):
    results = []

    def check(name, error, tol):
        results.append((name, float(error), tol))

    levels = (1, 2)
    data = GroupedDataset(
        levels=levels, data=tuple(rng.standard_normal((20, 2)) for _ in levels)
    ).prepare()
    hyper = Hyperparameters(nu0={a: 0.05 for a in levels}, n0=-1.0, t0_sq=1.0)
    state = init_state(data, hyper)
    state.ez[1][0, 1] = state.ez[1][1, 0] = 0.5
    state.ez[2][0, 1] = state.ez[2][1, 0] = 0.7
    state.beta_mean[:] = 0.1
    mean, var = update_zeta(state, hyper, edge=(0, 1))
    check("update_zeta mean", abs(mean - (-1.0 + 0.4 + 0.5) / 3.0), 1e-12)
    check("update_zeta var", abs(var - 1.0 / 3.0), 1e-12)

    single = GroupedDataset(levels=(1,), data=(rng.standard_normal((20, 2)),)).prepare()
    hyper1 = Hyperparameters(nu0={1: 0.05})
    state1 = init_state(single, hyper1)
    state1.sigma_shape = state1.sigma_rate = 3.0
    state1.zeta_mean[:] = 0.0
    state1.ez[1][0, 1] = state1.ez[1][1, 0] = 0.4
    bmean, bvar = update_beta(state1, hyper1, edge=(0, 1))
    check("update_beta mean", abs(bmean - 0.2), 1e-12)
    check("update_beta var", abs(bvar - 0.5), 1e-12)

    state.beta_mean[:] = 1.0
    state.beta_var[:] = 1.0
    shape, rate = update_sigma(state, hyper)
    check("update_sigma shape", abs(shape - 2.5), 1e-12)
    check("update_sigma rate", abs(rate - 3.0), 1e-12)

    n, p, j = 35, 4, 2
    y = rng.standard_normal((n, p))
    cm_data = GroupedDataset(levels=(0,), data=(y,)).prepare()
    cm_hyper = Hyperparameters(nu0={0: 0.08}, lambda_diag=1.3)
    cm_state = init_state(cm_data, cm_hyper)
    ppi = rng.uniform(0.0, 1.0, size=(p, p))
    cm_state.ppi[0] = 0.5 * (ppi + ppi.T)
    base = rng.standard_normal((p, p))
    cm_state.omega[0] = base @ base.T + p * np.eye(p)
    scatter = sample_covariance(cm_data.group(0))
    idx = [k for k in range(p) if k != j]
    q = np.linalg.inv(cm_state.omega[0][np.ix_(idx, idx)])
    s12 = scatter[idx, j]
    s22 = scatter[j, j] + cm_hyper.lambda_diag
    d = (
        cm_state.ppi[0][idx, j] / cm_hyper.nu1**2
        + (1.0 - cm_state.ppi[0][idx, j]) / cm_hyper.nu0_for(0) ** 2
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
    sol = optimize.minimize(negative_objective, start, method="BFGS",
                            options={"gtol": 1e-12, "maxiter": 500})
    u_star = sol.x[:-1]
    v_star = math.exp(sol.x[-1]) + u_star @ q @ u_star
    # The reference sweep's column update, which the fixed-point tests use.
    omega = sweep_state_columns(cm_state, cm_hyper, scatter, n, 0, columns=[j])
    check("cm column off-diagonal", np.max(np.abs(omega[idx, j] - u_star)), 1e-6)
    check("cm column diagonal", abs(omega[j, j] - v_star), 1e-6)

    # The Newton steps that fit takes, iterated by refit_precision at fixed
    # prior precisions, against a BFGS maximiser of the whole objective
    # f(omega) = (n/2) log det omega - tr((S + lambda I) omega) / 2
    # - sum_{i<j} d_ij omega_ij^2 / 2 over a Cholesky factor omega = L L'
    # with a log-parameterised diagonal.
    ppi = cm_state.ppi[0]
    d_full = ppi / cm_hyper.nu1**2 + (1.0 - ppi) / cm_hyper.nu0_for(0) ** 2
    off = d_full * (1.0 - np.eye(p))
    penalised = scatter + cm_hyper.lambda_diag * np.eye(p)
    rows, cols = np.tril_indices(p)
    on_diagonal = rows == cols

    def cholesky_factor(theta):
        chol = np.zeros((p, p))
        chol[rows, cols] = np.where(on_diagonal, np.exp(theta), theta)
        return chol

    def negative_f_and_gradient(theta):
        chol = cholesky_factor(theta)
        om = chol @ chol.T
        value = n * np.sum(np.log(np.diag(chol))) - 0.5 * np.sum(penalised * om) \
            - 0.25 * np.sum(off * om * om)
        # df = <G L, dL> with G = n inv(omega) - (S + lambda I) - D o omega.
        grad = ((n * np.linalg.inv(om) - penalised - off * om) @ chol)[rows, cols]
        grad = np.where(on_diagonal, grad * np.exp(theta), grad)
        return -value, -grad

    theta0 = np.where(on_diagonal, 0.5 * np.log(n / np.diag(penalised))[rows], 0.0)
    sol = optimize.minimize(negative_f_and_gradient, theta0, jac=True, method="BFGS",
                            options={"gtol": 1e-10, "maxiter": 2000})
    chol_star = cholesky_factor(sol.x)
    refit = refit_precision(np.eye(p), scatter, n, d_full, cm_hyper.lambda_diag)
    check("refit_precision maximiser", np.max(np.abs(refit - chol_star @ chol_star.T)), 1e-6)

    y50 = rng.standard_normal((50, 10))
    penalty = ebic(np.eye(10), y50, gamma=0.5, n_edges=7) - ebic(
        np.eye(10), y50, gamma=0.5, n_edges=0
    )
    check("ebic penalty", abs(penalty - (7 * math.log(50) + 14 * math.log(10))), 1e-10)

    base_m = rng.standard_normal((3, 3))
    omega_ll = base_m @ base_m.T + 3 * np.eye(3)
    y_ll = rng.standard_normal((5, 3))
    oracle_ll = float(
        np.sum(
            stats.multivariate_normal(
                mean=np.zeros(3), cov=np.linalg.inv(omega_ll)
            ).logpdf(y_ll)
        )
    )
    check(
        "gaussian_log_likelihood",
        abs(gaussian_log_likelihood(omega_ll, y_ll) - oracle_ll),
        1e-10,
    )

    worst_tn = 0.0
    for m in rng.uniform(-5.0, 5.0, size=10):
        mean_above, mean_below, var_above, var_below = truncated_normal_moments(m)
        above = stats.truncnorm(-m, np.inf, loc=m)
        below = stats.truncnorm(-np.inf, -m, loc=m)
        worst_tn = max(
            worst_tn,
            abs(mean_above - above.mean()),
            abs(var_above - above.var()),
            abs(mean_below - below.mean()),
            abs(var_below - below.var()),
        )
    check("truncated_normal_moments", worst_tn, 1e-10)

    slope_levels = (1, 3, 4)
    omegas = {}
    for a in slope_levels:
        m = rng.standard_normal((4, 4))
        omegas[a] = 0.5 * (m + m.T)
    slopes = ols_beta_proxy(omegas)
    a_vals = np.array(slope_levels, dtype=float)
    centered = a_vals - a_vals.mean()
    worst_slope = 0.0
    for i in range(4):
        for jj in range(4):
            values = np.array([omegas[a][i, jj] for a in slope_levels])
            oracle = np.sum(centered * (values - values.mean())) / np.sum(centered**2)
            worst_slope = max(worst_slope, abs(slopes[i, jj] - oracle))
    check("ols_beta_proxy", worst_slope, 1e-12)

    p5 = 5
    scores = rng.uniform(size=(p5, p5))
    scores = 0.5 * (scores + scores.T)
    truth = {(0, 1), (1, 3), (2, 4)}
    wins = ties = total = 0
    pairs = [(i, jj) for i in range(p5) for jj in range(i + 1, p5)]
    for edge in pairs:
        if edge not in truth:
            continue
        for other in pairs:
            if other in truth:
                continue
            total += 1
            wins += scores[edge] > scores[other]
            ties += scores[edge] == scores[other]
    check("roc_auc", abs(roc_auc(scores, truth) - (wins + 0.5 * ties) / total), 1e-15)

    ppi6 = rng.uniform(size=(6, 6))
    ppi6 = 0.5 * (ppi6 + ppi6.T)
    truth6 = {(0, 1), (0, 3), (2, 5)}
    tp = fp = fn = 0
    for i in range(6):
        for jj in range(i + 1, 6):
            predicted = ppi6[i, jj] >= 0.5
            actual = (i, jj) in truth6
            tp += predicted and actual
            fp += predicted and not actual
            fn += (not predicted) and actual
    precision, recall = precision_recall(ppi6, truth6)
    check("precision_recall precision", abs(precision - (tp / (tp + fp) if tp + fp else 1.0)), 1e-15)
    check("precision_recall recall", abs(recall - tp / (tp + fn)), 1e-15)

    failed = [name for name, error, tol in results if not error <= tol]
    worst_ratio = max(error / tol for _, error, tol in results)
    record_criterion(
        6,
        not failed,
        f"{len(results)} formula oracles; worst error/tolerance ratio "
        f"{worst_ratio:.2e}" + ("" if not failed else f"; failed: {failed}"),
    )
    assert not failed, failed


def test_cli_outputs_deterministic(tmp_path):
    config_path = tmp_path / "sim.conf"
    config_path.write_text(
        "p = 12\nn_base_edges = 12\nn_appearing = 4\nn_disappearing = 4\n"
        "n_per_group = 60\nseed = 3\n",
        encoding="utf-8",
    )
    for name in ("a", "b"):
        assert cli_main([
            "simulate", "--config", str(config_path),
            "--out-dir", str(tmp_path / name),
        ]) == 0
    sim_identical = all(
        (tmp_path / "a" / entry.name).read_bytes() == entry.read_bytes()
        for entry in (tmp_path / "b").iterdir()
    )

    fit_conf = tmp_path / "fit.conf"
    fit_conf.write_text("nu0 = 0.04\n", encoding="utf-8")
    manifest = str(tmp_path / "a" / "manifest.csv")
    for name in ("fit1.json", "fit2.json"):
        assert cli_main([
            "fit", "--config", str(fit_conf), "--manifest", manifest,
            "--out", str(tmp_path / name),
        ]) == 0
    fit_identical = (
        (tmp_path / "fit1.json").read_bytes() == (tmp_path / "fit2.json").read_bytes()
    )
    trace = json.loads((tmp_path / "fit1.json").read_text())["elbo_trace"]
    trace_ok = all(
        b - a >= -1e-6 * abs(a) for a, b in zip(trace, trace[1:])
    )

    worst_thread = 0.0
    for threads, name in ((1, "s1.json"), (3, "s3.json")):
        conf = tmp_path / f"ssl{threads}.conf"
        conf.write_text(f"nu0 = 0.05\nmethod = ssl\nthreads = {threads}\n",
                        encoding="utf-8")
        assert cli_main([
            "fit", "--config", str(conf), "--manifest", manifest,
            "--out", str(tmp_path / name),
        ]) == 0
    serial = json.loads((tmp_path / "s1.json").read_text())
    threaded = json.loads((tmp_path / "s3.json").read_text())
    for a in serial["ppi"]:
        reference = np.array(serial["ppi"][a])
        other = np.array(threaded["ppi"][a])
        scale = np.maximum(1.0, np.abs(reference))
        worst_thread = max(worst_thread, float(np.max(np.abs(other - reference) / scale)))
    threads_ok = worst_thread <= 1e-8

    passed = sim_identical and fit_identical and trace_ok and threads_ok
    record_criterion(
        7,
        passed,
        f"simulate and fit reruns byte-identical: {sim_identical and fit_identical}; "
        f"threaded vs serial max relative difference {worst_thread:.1e}",
    )
    assert sim_identical and fit_identical
    assert trace_ok
    assert threads_ok


def test_covariate_recoding_invariance(recoding_fits):
    base, shifted = recoding_fits
    worst = 0.0
    for base_level, shifted_level in zip(base.levels, shifted.levels):
        m_base = base.zeta_mean + base.probit_level(base_level) * base.beta_mean
        m_shifted = shifted.zeta_mean + shifted.probit_level(
            shifted_level
        ) * shifted.beta_mean
        worst = max(worst, float(np.max(np.abs(m_base - m_shifted))))
    record_criterion(
        8,
        worst < 1e-3,
        f"max probit-index difference across the four observed levels {worst:.2e} "
        "after shifting every level by +10",
    )
    assert worst < 1e-3
