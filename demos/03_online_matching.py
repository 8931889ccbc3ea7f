"""Online matching end to end: the policy LP, column generation, and the
three online matchers with their guarantees.

Offline vertices are scarce goods; online vertices arrive over time and
probe edges under probe-commit and a patience limit.  The matchers:

* adversarial arrivals: greedily solve each arrival's star over the
  still-unmatched neighbors (expected value >= half the offline LP bound);
* prophet arrivals (known per-step type distributions), edge weights:
  sample a probing policy from the policy-LP solution, skip entries worth
  less than half the vertex's LP-expected reward (>= LP/2);
* IID arrivals: same without skipping (>= (1-1/e) * LP).
"""

import numpy as np

from stochmatch import (
    AdvGreedyMatcher,
    SimConfig,
    benchmark_lp_value,
    brute_force_offline_opt,
    iid_matcher,
    prophet_matcher,
    simulate,
    solve_prophet_lp,
    solve_prophet_lp_enumerated,
    solver_by_name,
)
from stochmatch.hard_instances import gen_random_matching

# ---------------------------------------------------------------------------
# Adversarial arrivals: greedy with an exact star black box
# ---------------------------------------------------------------------------

inst = gen_random_matching(7, m=4, n_types=3, arrival_kind="adversarial", max_theta=2)
matcher = AdvGreedyMatcher(solver_by_name("dp"))
alg = matcher.exact_value(inst)
lp2 = benchmark_lp_value(inst, include_star_constraints=True)
opt = brute_force_offline_opt(inst)
print(f"greedy exact value {alg:.4f} | offline optimum {opt:.4f} | "
      f"tightened LP {lp2:.4f}")
print(f"guarantee: {alg:.4f} >= 0.5 * {lp2:.4f} = {0.5 * lp2:.4f}")

# ---------------------------------------------------------------------------
# The policy LP.  Variables are probing policies (ordered subsets); column
# generation prices new policies against the offline-vertex duals through
# the star solver, and matches full enumeration exactly.
# ---------------------------------------------------------------------------

iid = gen_random_matching(3, m=5, n_types=4, arrival_kind="iid", max_theta=2, horizon=8)
res = solve_prophet_lp(iid)
full = solve_prophet_lp_enumerated(iid)
print(f"\npolicy LP: column generation {res.objective:.6f} with {res.n_columns} "
      f"columns | enumeration {full.objective:.6f} with {full.n_columns}")

# ---------------------------------------------------------------------------
# Run the matchers against their bounds
# ---------------------------------------------------------------------------

report = simulate(iid, iid_matcher(res), SimConfig(seed=1, trials=50_000))
floor = (1 - 1 / np.e) * res.objective
print(f"\nIID matcher: mean {report.mean:.4f} +- {report.half_width:.4f} "
      f"| (1-1/e) * LP = {floor:.4f}")

pro = gen_random_matching(11, m=4, n_types=3, arrival_kind="prophet",
                          max_theta=2, horizon=6)
pres = solve_prophet_lp(pro)
pmatch = prophet_matcher(pres)
preport = simulate(pro, pmatch, SimConfig(seed=2, trials=50_000))
print(f"prophet matcher: mean {preport.mean:.4f} +- {preport.half_width:.4f} "
      f"| LP/2 = {0.5 * pres.objective:.4f}")

# tiny instances also admit exact evaluation (no Monte Carlo error)
exact = pmatch.exact_value(pro)
print(f"prophet matcher exact value {exact:.6f} "
      f"(simulation said {preport.mean:.6f})")

# per-offline-vertex match frequencies come with the report
print("\nmatch frequencies:", np.round(preport.match_freq, 3))
