"""The negative-result families: what the LP bounds and naive baselines
cannot do.

Three constructions with closed-form values:

* the square stochastic family, where even the realized graph's maximum
  matching tends to 0.544 of the plain LP bound, the Karp-Sipser constant
  (so no algorithm judged against that LP can look better);
* the two-block family on which the naive greedy earns about half the
  offline value;
* the clairvoyance-gap star, where knowing the patience in advance is
  worth an unbounded factor, so stochastic-patience algorithms must be
  judged against patience-oblivious benchmarks.
"""

from stochmatch import SimConfig, SimpleGreedyMatcher, simulate
from stochmatch.hard_instances import (
    clairvoyant_value,
    coupled_matching_ratio_trend,
    gen_simple_greedy_hard,
    simple_greedy_exact_value,
    simple_greedy_poisson_limit,
    single_offline_best_value,
    stochasticity_gap_limit,
    stochasticity_gap_lp_value,
    unknown_patience_lp_value,
)

# ---------------------------------------------------------------------------
# Stochasticity gap.  One offline vertex, n arrivals with p = 1/n: the LP
# pays 1 but the best prober only matches with probability 1-(1-1/n)^n.
# ---------------------------------------------------------------------------

for n in (4, 100):
    print(f"single-offline n={n}: best prober {single_offline_best_value(n):.4f} "
          f"vs LP 1.0")

# the square family pushes the gap toward the Karp-Sipser constant 0.544062
ratios = coupled_matching_ratio_trend((50, 100, 200), samples=1500, seed=7)
for n, r in zip((50, 100, 200), ratios):
    print(f"square family n={n}: realized max matching / LP({stochasticity_gap_lp_value(n):.0f}) "
          f"~= {r:.4f}")
print(f"square family limit: {stochasticity_gap_limit():.6f}")

# ---------------------------------------------------------------------------
# The naive greedy trap.  Early arrivals can reach a small shared block and
# their own private partners; a greedy that spends the shared block early
# strands the late crowd.  Exact value: k + sum_{l<k} C(n,l) p^l (1-p)^(n-l) (k-l).
# ---------------------------------------------------------------------------

k, n = 4, 100
exact = simple_greedy_exact_value(k, n)
inst = gen_simple_greedy_hard(k, n, v0_cap=300)
report = simulate(inst, SimpleGreedyMatcher("first"), SimConfig(seed=0, trials=20_000))
print(f"\ngreedy trap k={k}, n={n}: exact {exact:.4f}, simulated {report.mean:.4f} "
      f"+- {report.half_width:.4f}, offline value {2 * k}")
print(f"ratio vs offline: {exact / (2 * k):.4f} "
      f"(k=16 ratio {simple_greedy_exact_value(16, 400) / 32:.4f}, "
      f"limit 1/2 + {simple_greedy_poisson_limit(16) / 2:.4f})")

# ---------------------------------------------------------------------------
# Unknown patience.  A clairvoyant who knows the realized patience probes
# the right weight class and earns ~0.3 per class; any patience-oblivious
# prober (and the attempt-indexed LP that bounds them) is stuck near 1.
# ---------------------------------------------------------------------------

print()
for kk in (2, 3, 4):
    clair = clairvoyant_value(2, kk)
    lp1 = unknown_patience_lp_value(2, kk)
    print(f"clairvoyance gap m=2, k={kk}: clairvoyant {clair:.4f}, "
          f"LP bound {lp1:.4f}, ratio {lp1 / clair:.4f}")
print("the ratio keeps falling as k grows: no constant-factor guarantee "
      "against a patience-clairvoyant benchmark is possible")
