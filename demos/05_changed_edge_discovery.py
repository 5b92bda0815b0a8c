"""Rank covariate-driven edges and the nodes they touch.

After a joint fit, the slope matrix beta_mean says how strongly each edge's
inclusion probability moves with the covariate.  Two tools turn it into
reportable structure:

  * top_k_edge_subnetworks picks the k most positive and the k most negative
    slopes, never padding either side with slopes of the wrong sign,
  * rank_nodes_by_beta scores nodes by the summed |slope| of incident edges.
"""

from ordnet import (
    Hyperparameters,
    SimulationConfig,
    fit,
    rank_nodes_by_beta,
    simulate_experiment,
    top_k_edge_subnetworks,
)

config = SimulationConfig(
    p=20, n_base_edges=20, n_appearing=10, n_disappearing=10,
    n_per_group=400, seed=0,
)
dataset, truth = simulate_experiment(config)
hyper = Hyperparameters.from_edge_count_prior(config.p, dataset.levels, nu0=0.035)
report = fit(dataset.prepare(), hyper)
beta = report.final_state.beta_mean

# Pick k equal to the true number of changes per direction and check how
# many of the top/bottom slopes land in the right class.
k = len(truth.appearing)
positive, negative = top_k_edge_subnetworks(beta, k)
hits_appear = len(positive & truth.appearing)
hits_disappear = len(negative & truth.disappearing)
print(f"top {k} positive slopes: {hits_appear}/{k} are true appearing edges")
print(f"bottom {k} negative slopes: {hits_disappear}/{k} are true disappearing edges")
print()

print("edge        slope   truth")
for edge in sorted(positive, key=lambda e: -beta[e]):
    label = ("appearing" if edge in truth.appearing
             else "disappearing" if edge in truth.disappearing
             else "stable" if edge in truth.stable else "null")
    print(f"{str(edge):<10} {beta[edge]:+.3f}   {label}")
print()

# A side holds fewer than k edges when fewer slopes have its sign.
print(f"sign-restricted subnetworks: {len(positive)} positive, "
      f"{len(negative)} negative edges")
print()

# Node ranking over the union of both subnetworks highlights the vertices
# where the covariate reshapes the graph the most.
ranking = rank_nodes_by_beta(beta, positive | negative)
changed_nodes = {v for e in truth.appearing | truth.disappearing for v in e}
print("rank  node  score  touches a true changed edge")
for rank, (node, score) in enumerate(ranking[:8], start=1):
    print(f"{rank:>4}  {node:>4}  {score:.3f}  {node in changed_nodes}")
