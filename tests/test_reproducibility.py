"""What counts as the same fit result across code paths."""

from ordnet import (
    FitControls,
    Hyperparameters,
    SimulationConfig,
    fit,
    roc_auc,
    simulate_experiment,
)

# Reference values of the design below, recorded with one BLAS thread.  At
# 60 samples per level for 30 variables the fit depends on its start, spike
# schedule and precision update, so the test tells results apart.  With the
# column-wise CM sweep as the precision update the fit ended 39 nats lower
# (-8539.94) with every level's AUC 0.007-0.013 lower; on that path a loose
# ridge start (1e-3 of the matrix scale short) lowered the final ELBO by
# 4e-6 of its magnitude and dropping the anneal moved level AUCs by 0.02,
# while scaling the data by 1 + 1e-11 noise moved the ELBO by 2e-13 and no
# AUC at all.
REFERENCE_ELBO = -8500.782408304825
REFERENCE_AUC = {
    1: 0.7595061728395062, 2: 0.6732478632478632, 3: 0.6367806267806267, 4: 0.7796707818930041,
}
ELBO_REL_TOL = 1e-6
AUC_TOL = 0.005


def test_fit_matches_the_recorded_result():
    """These tolerances define "same result" across code paths.

    Byte-identical output holds only for one fixed code path.  A change
    that reorders floating-point work (a new kernel, a vectorised update,
    a different start) keeps the result the same when, on this fixed design
    and iteration budget, the final ELBO is at least the reference minus
    1e-6 of its magnitude (a higher ELBO is a better optimum, not a
    different answer) and every level's AUC stays within 0.005 of its
    reference.  A change that fails either bound changes results, and must
    say so and record new reference values.
    """
    config = SimulationConfig(
        p=30, n_base_edges=30, n_appearing=15, n_disappearing=15,
        n_per_group=60, seed=0,
    )
    dataset, truth = simulate_experiment(config)
    data = dataset.prepare()
    hyper = Hyperparameters.from_edge_count_prior(30, data.levels, 0.04)
    report = fit(data, hyper, FitControls(max_iter=30, min_iter=30))
    assert report.iterations == 30
    elbo = report.elbo_trace[-1]
    assert elbo >= REFERENCE_ELBO - ELBO_REL_TOL * abs(REFERENCE_ELBO)
    for level, reference in REFERENCE_AUC.items():
        auc = roc_auc(report.final_state.ppi[level], truth.adjacency[level])
        assert abs(auc - reference) <= AUC_TOL, (level, auc, reference)
