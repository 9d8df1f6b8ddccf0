"""Analysing a two-period trial with baseline measures.

The third data generating process produces three outcomes of different
families (count, continuous, binary) over two periods, with every
cluster untreated at baseline and cluster-period effects that decay
over time.  Permutations re-assign which clusters switch on in period
2; the baseline period participates in the statistics with a negative
sign, acting as a within-cluster control.
"""

import numpy as np

from crtperm import (
    DgpSpec,
    PermutationPlan,
    adjust,
    build_stat_matrix,
    gen_model3,
    rm_search,
)

rng = np.random.default_rng(3)
spec = DgpSpec(
    model="model3",
    clusters_per_arm=7,
    n_per_cluster=20,
    delta=(0.0, 0.5, 0.0),
    mu=(-1.0, -1.0, -1.0),
    sigma2=(1.0, 1.0, 1.0),
    tau2=(0.05, 0.05, 0.05),
    period_effect=(1.0, 1.0, 1.0),
    lam=0.7,
)
dataset = gen_model3(spec, rng)
print(f"design: {dataset.design.scheme}, arms {dataset.design.arm_sizes}, "
      f"{dataset.n_periods} periods")
for s in dataset.outcome_specs:
    print(f"  outcome {s.name}: {s.family}/{s.link}")

matrix = build_stat_matrix(dataset, PermutationPlan(n_draws=1000, seed=8))
adj = adjust(matrix, "romano_wolf")
cs = rm_search(dataset, "romano_wolf", Q=2000, seed=9)

print(f"\n{'outcome':>8s}  {'estimate':>9s}  {'adj p':>7s}  {'95% set':>20s}")
for j, s in enumerate(dataset.outcome_specs):
    est = cs.point_estimates[j]
    print(f"{s.name:>8s}  {est:9.3f}  {adj.p_adjusted[j]:7.3f}  "
          f"[{cs.lower[j]:+.3f}, {cs.upper[j]:+.3f}]")
