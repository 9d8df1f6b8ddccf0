"""Adjusted p-values for a simulated two-outcome cluster trial.

Generates a small parallel trial where the second outcome carries a real
treatment effect, then compares the uncorrected permutation p-values
with the three multiplicity corrections.  The stepdown (max-statistic)
adjustment uses the joint permutation distribution, so it pays a smaller
multiplicity price than the scalar multiplier rules.
"""

import numpy as np

from crtperm import (
    DgpSpec,
    PermutationPlan,
    adjust,
    build_stat_matrix,
    gen_model1,
)

rng = np.random.default_rng(7)
spec = DgpSpec(
    model="model1",
    clusters_per_arm=7,
    n_per_cluster=20,
    delta=(0.0, 0.8),   # null first outcome, real effect on the second
    rho=0.3,
    pi=0.3,
)
dataset = gen_model1(spec, rng)
print(f"simulated trial: {dataset.n_clusters} clusters, "
      f"{dataset.n_obs} observations, {dataset.n_outcomes} outcomes")

# the nuisance fits pin the treatment effect at the null (zero); the
# residuals from these fits stay fixed across all permutations
plan = PermutationPlan(n_draws=1000, seed=42)
matrix = build_stat_matrix(dataset, plan)
print(f"statistic matrix: {matrix.values.shape[0]} outcomes x "
      f"{matrix.values.shape[1]} allocations (exact={matrix.exact})")

print(f"\n{'method':>12s}  {'p(y1)':>8s}  {'p(y2)':>8s}")
for method in ("none", "bonferroni", "holm", "romano_wolf"):
    adj = adjust(matrix, method)
    print(f"{method:>12s}  {adj.p_adjusted[0]:8.4f}  {adj.p_adjusted[1]:8.4f}")
