"""Instance families with known closed-form values, plus random generators.

These families demonstrate the limits of the algorithms and benchmarks in
this package: the gap between LP relaxations and what any prober can
collect, the 1/2 ceiling of the naive greedy baseline, the failure of
patience-clairvoyant benchmarks under stochastic patience, and the
two-item star on which the randomized LP policy earns exactly half its LP
bound.  The square gap family's ratio tends to the Karp–Sipser constant
(``stochasticity_gap_limit``).  Exact expectations are computed in
rational or log-domain arithmetic where floating point would drift.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import lp
from .instances import (
    ArrivalModel,
    CapacityError,
    MatchingInstance,
    PatienceModel,
    StarInstance,
    StochmatchError,
)
from .stars import RandomizedStarPolicy, build_arbitrary_patience_lp

UNKNOWN_PATIENCE_ITEM_CAP = 100_000


# ---------------------------------------------------------------------------
# Stochasticity-gap families
# ---------------------------------------------------------------------------

def gen_stochasticity_gap(n: int) -> MatchingInstance:
    """Complete ``n x n`` unit-weight instance with ``p = 1/n`` and full
    patience.  The plain edge-probe LP accepts ``x = 1`` on every edge for
    an objective of exactly ``n``, while even the realized graph's maximum
    matching is far smaller, so no prober can approach the LP bound."""
    if n < 1:
        raise StochmatchError("n must be >= 1")
    probs = np.full((n, n), 1.0 / n)
    return MatchingInstance.make(
        probs, PatienceModel.deterministic(n), ArrivalModel.adversarial(range(n)),
        vertex_weights=[1.0] * n, meta={"family": "stochasticity-gap", "n": n})


def stochasticity_gap_lp_value(n: int) -> float:
    """Plain edge-probe LP objective of ``gen_stochasticity_gap(n)``.

    ``x = 1`` is feasible (every row sums to exactly its bound) and summing
    the offline rows shows the objective can never exceed ``n``.
    """
    return float(n)


def stochasticity_gap_limit() -> float:
    """Limit over ``n`` of the square family's ratio, the maximum matching
    of the bipartite random graph G(n, n, 1/n) over ``n``: ``2 - 2Ω - Ω²``
    = 0.544062..., with ``Ω = e^{-Ω}`` (Karp & Sipser 1981; Aronson, Frieze
    & Pittel 1998).  Newton's method finds Ω in four steps from 1/2; the
    rest leave it unchanged."""
    omega = 0.5
    for _ in range(8):
        omega = (1.0 + omega) / (1.0 + math.exp(omega))
    return 2.0 - 2.0 * omega - omega * omega


def _max_matching_size(adj) -> int:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    # the CSR arrays straight from np.nonzero, which lists the nonzeros row by row
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(adj, axis=1))))
    graph = csr_matrix((np.ones(indptr[-1], dtype=bool), np.nonzero(adj)[1], indptr),
                       shape=adj.shape)
    return int(np.count_nonzero(maximum_bipartite_matching(graph, perm_type="column") >= 0))


def coupled_matching_ratio_trend(ns, samples: int, seed: int) -> list[float]:
    """Mean matching ratios for several sizes, one shared uniform grid per
    sample (common random numbers).  The size-to-size differences are only
    about a tenth of a percent, so sharing the randomness keeps a seeded
    trend check adequately powered at a few thousand samples."""
    ns = sorted(ns)
    top = ns[-1]
    rng = np.random.default_rng(seed)
    totals = np.zeros(len(ns))
    for _ in range(samples):
        grid = rng.random((top, top))
        for j, n in enumerate(ns):
            totals[j] += _max_matching_size(grid[:n, :n] < 1.0 / n) / n
    return list(totals / samples)


def gen_single_offline(n: int) -> MatchingInstance:
    """One offline vertex against ``n`` unit-patience online vertices with
    ``p = 1/n`` each.  The plain LP pays 1 while the best prober matches
    with probability ``1 - (1 - 1/n)^n``."""
    if n < 1:
        raise StochmatchError("n must be >= 1")
    probs = np.full((1, n), 1.0 / n)
    return MatchingInstance.make(
        probs, PatienceModel.deterministic(1), ArrivalModel.adversarial(range(n)),
        vertex_weights=[1.0], meta={"family": "single-offline", "n": n})


def single_offline_best_value(n: int) -> float:
    """Probe the one vertex at every arrival: match probability
    ``1 - (1 - 1/n)^n``."""
    return 1.0 - (1.0 - 1.0 / n) ** n


# ---------------------------------------------------------------------------
# Hard family for the naive greedy baseline
# ---------------------------------------------------------------------------

def gen_simple_greedy_hard(k: int, n: int, v0_cap: int | None = None) -> MatchingInstance:
    """Two-block family on which the naive greedy earns about half the
    offline value.

    Offline: a block of ``k`` shared vertices (low indices) plus ``n``
    private vertices.  Online: ``n`` early arrivals, each adjacent to the
    shared block and to its own private partner, followed by a crowd of
    ``k n^2`` late arrivals adjacent only to the shared block.  All edges
    have probability ``k/n``, all weights 1, patience 1.  The early block
    arrives first, so a greedy that prefers the shared block wastes it.

    ``v0_cap`` truncates the late crowd to a smaller instance; the cap is
    recorded in ``meta`` and the exact-value formula always refers to the
    uncapped family.  The uncapped family simulates as it is, 40,100
    arrivals at ``k = 4, n = 100`` included: its late crowd is one run of
    identical patience-1 arrivals, which ``SimpleGreedyMatcher`` walks
    success by success.
    """
    if k < 1 or n < k:
        raise StochmatchError("need k >= 1 and n >= k")
    v0_full = k * n * n
    v0 = v0_full if v0_cap is None else min(v0_full, v0_cap)
    m = k + n
    nv = n + v0
    p = k / n
    probs = np.zeros((m, nv))
    probs[:k, :] = p                      # shared block neighbors everyone
    for i in range(n):
        probs[k + i, i] = p               # private partner of early arrival i
    return MatchingInstance.make(
        probs, PatienceModel.deterministic(1), ArrivalModel.adversarial(range(nv)),
        vertex_weights=[1.0] * m,
        meta={"family": "simple-greedy-hard", "k": k, "n": n,
              "v0_full": v0_full, "v0": v0, "offline_value": 2.0 * k})


def simple_greedy_exact_value(k: int, n: int) -> float:
    """Exact expected matching size of the worst-rule greedy on the
    uncapped family: ``k`` from the early block (every early arrival makes
    exactly one probe at success rate ``k/n``) plus the late-block term
    ``sum_{l<k} C(n,l) p^l (1-p)^(n-l) (k-l)`` for the shared vertices the
    early arrivals left over.  Binomials are evaluated in the log domain.
    """
    p = k / n
    total = 0.0
    for l in range(k):
        log_term = (math.lgamma(n + 1) - math.lgamma(l + 1) - math.lgamma(n - l + 1)
                    + l * math.log(p) + (n - l) * math.log1p(-p))
        total += math.exp(log_term) * (k - l)
    return k + total


def simple_greedy_poisson_limit(k: int) -> float:
    """Large-``n`` limit of the late-block term divided by ``k``:
    ``e^{-k} k^k / k!``."""
    return math.exp(-k + k * math.log(k) - math.lgamma(k + 1))


# ---------------------------------------------------------------------------
# Unknown-patience hardness family
# ---------------------------------------------------------------------------

def unknown_patience_masses(m: int, k: int) -> list[tuple[int, Fraction]]:
    """The patience distribution of the clairvoyance-gap star, exactly.

    Support ``{m^0, m^2, ..., m^(2(k-1))}`` with mass ``1/m^i - 1/m^(i+1)``
    at ``m^(2i)`` for ``i < k-1`` and the remaining ``1/m^(k-1)`` on the
    top value; the masses sum to 1 exactly.
    """
    if m < 2 or k < 2:
        raise StochmatchError("need m >= 2 and k >= 2")
    out = []
    for i in range(k - 1):
        out.append((m ** (2 * i), Fraction(1, m ** i) - Fraction(1, m ** (i + 1))))
    out.append((m ** (2 * (k - 1)), Fraction(1, m ** (k - 1))))
    return out


def unknown_patience_survival(m: int, k: int) -> list[Fraction]:
    """Exact survival curve ``q_1..q_max`` implied by the patience masses:
    ``q_theta = 1/m^i`` on the block ``m^(2(i-1)) < theta <= m^(2i)``."""
    masses = unknown_patience_masses(m, k)
    top = masses[-1][0]
    q = []
    remaining = Fraction(1)
    idx = 0
    for theta in range(1, top + 1):
        while idx < len(masses) and masses[idx][0] < theta:
            remaining -= masses[idx][1]
            idx += 1
        q.append(remaining)
    return q


def gen_unknown_patience(m: int, k: int) -> StarInstance:
    """Star on which knowing the patience in advance is worth a factor
    that grows with ``k``: one sure unit item plus, for each class
    ``i = 1..k-1``, ``m^(2i)`` items of weight ``m^i`` and probability
    ``m^(-2i)``, under the matching block-structured patience
    distribution."""
    classes = unknown_patience_classes(m, k)
    total = sum(c for c, _, _ in classes)
    if total > UNKNOWN_PATIENCE_ITEM_CAP:
        raise CapacityError(f"instance would have {total} items"
                            f" (cap {UNKNOWN_PATIENCE_ITEM_CAP})")
    weights, probs = [], []
    for count, p, w in classes:
        weights.extend([w] * count)
        probs.extend([p] * count)
    q = [float(v) for v in unknown_patience_survival(m, k)]
    return StarInstance.make(weights, probs, PatienceModel.survival(q))


def unknown_patience_classes(m: int, k: int) -> list[tuple[int, float, float]]:
    """Item classes ``(count, probability, weight)`` of the star."""
    if m < 2 or k < 2:
        raise StochmatchError("need m >= 2 and k >= 2")
    out = [(1, 1.0, 1.0)]
    for i in range(1, k):
        out.append((m ** (2 * i), float(m) ** (-2 * i), float(m) ** i))
    return out


def clairvoyant_value(m: int, k: int) -> float:
    """Exact expected reward of the strategy that knows the realized
    patience: on patience ``m^(2i)`` probe the whole class ``i``.

    ``(1 - 1/m) * sum_{i<k-1} (1 - (1 - m^-2i)^(m^2i))
    + (1/m) * (1 - (1 - m^-2(k-1))^(m^2(k-1)))``
    """
    total = 0.0
    for i in range(k - 1):
        total += 1.0 - (1.0 - float(m) ** (-2 * i)) ** (m ** (2 * i))
    total *= 1.0 - 1.0 / m
    i = k - 1
    total += (1.0 / m) * (1.0 - (1.0 - float(m) ** (-2 * i)) ** (m ** (2 * i)))
    return total


def unknown_patience_lp_value(m: int, k: int) -> float:
    """Exact attempt-indexed LP value of the clairvoyance-gap star.

    Items inside a class are interchangeable, so the LP is built over one
    item per class with the class size as its multiplicity.  This keeps
    the LP solvable for attempt horizons where the item-level LP would be
    enormous; equality with the item-level LP is asserted in the
    test-suite at small sizes.
    """
    classes = unknown_patience_classes(m, k)
    star = StarInstance.make([w for _, _, w in classes], [p for _, p, _ in classes],
                             PatienceModel.survival(unknown_patience_survival(m, k)))
    problem = build_arbitrary_patience_lp(star, multiplicity=[c for c, _, _ in classes])
    sol = lp.solve(problem)
    if sol.status != lp.OPTIMAL:
        raise StochmatchError(f"aggregated LP came back {sol.status}")
    return sol.objective


# ---------------------------------------------------------------------------
# The half-ratio star for the randomized LP policy
# ---------------------------------------------------------------------------

def gen_tight_example(eps: float) -> StarInstance:
    """Two items, patience exactly 2: a valuable long shot (weight 1,
    probability ``eps``) and a worthless certainty (weight 0, probability
    1).  The LP pays ``eps`` but its optimal solution forces the policy to
    spend attempt-2 mass on simulated probes, earning ``eps / (2(1-eps))``."""
    if not 0.0 < eps <= 0.5:
        raise StochmatchError("eps must be in (0, 0.5]")
    return StarInstance.make([1.0, 0.0], [eps, 1.0], PatienceModel.deterministic(2))


def tight_example_solution(eps: float) -> RandomizedStarPolicy:
    """The optimal LP solution exhibiting the half ratio, in closed form:
    ``x_11 = 1/(2(1-eps))``, ``x_21 = x_12 = (1-2eps)/(2(1-eps))``,
    ``x_22 = 0``, ``s = (1, 1/2)``; objective ``eps``.  Feasibility and
    optimality are asserted against the LP solver in the test-suite."""
    if not 0.0 < eps <= 0.5:
        raise StochmatchError("eps must be in (0, 0.5]")
    x11 = 1.0 / (2.0 * (1.0 - eps))
    x21 = (1.0 - 2.0 * eps) / (2.0 * (1.0 - eps))
    x12 = (1.0 - 2.0 * eps) / (2.0 * (1.0 - eps))
    s = np.array([1.0, 0.5])
    rows = np.array([[x11, x21], [x12 / s[1], 0.0]])
    return RandomizedStarPolicy(attempt_probs=rows, survival=s, lp_objective=eps)


def tight_example_policy_value(eps: float) -> float:
    """Exact expected reward of executing ``tight_example_solution``:
    ``eps / (2 (1 - eps))``, which is 1/18 at ``eps = 0.1`` and approaches
    half of the LP objective ``eps`` as ``eps`` shrinks."""
    return eps / (2.0 * (1.0 - eps))


# ---------------------------------------------------------------------------
# Random instances for property tests
# ---------------------------------------------------------------------------

def random_survival_curve(rng, n: int) -> tuple[float, ...]:
    """A random survival curve over ``n`` attempts, starting at 1; one in
    four curves drops to zero after a random attempt."""
    if n <= 0:
        return ()
    vals = np.sort(rng.random(n - 1))[::-1] if n > 1 else np.zeros(0)
    q = np.concatenate([[1.0], vals])
    if n > 1 and rng.random() < 0.25:
        q[int(rng.integers(1, n)):] = 0.0
    return tuple(float(v) for v in q)


def gen_random_star(seed: int, n: int, patience_kind: str = "survival") -> StarInstance:
    """Reproducible random star: uniform weights and probabilities, with a
    random patience of the requested kind."""
    if n < 0 or seed < 0:
        raise StochmatchError(f"random star needs n >= 0 and seed >= 0, got n={n}, seed={seed}")
    rng = np.random.default_rng(seed)
    weights = rng.random(n)
    probs = rng.random(n)
    if patience_kind == "survival":
        pat = PatienceModel.survival(random_survival_curve(rng, n))
    elif patience_kind == "deterministic":
        pat = PatienceModel.deterministic(int(rng.integers(0, n + 1)))
    elif patience_kind == "hazard":
        if rng.random() < 0.5:
            pat = PatienceModel.constant_hazard(rate=float(rng.random()))
        else:
            pat = PatienceModel.constant_hazard(rates=rng.random(n))
    else:
        raise StochmatchError(f"unknown patience kind {patience_kind!r}")
    return StarInstance.make(weights, probs, pat)


def gen_random_matching(seed: int, m: int, n_types: int, arrival_kind: str,
                        max_theta: int = 3, horizon: int | None = None,
                        edge_weighted: bool = True) -> MatchingInstance:
    """Reproducible random matching instance with deterministic patience."""
    if m < 1 or n_types < 0 or max_theta < 1 or seed < 0:
        raise StochmatchError(f"random matching needs m >= 1, n >= 0, max_theta >= 1 and "
                              f"seed >= 0, got m={m}, n={n_types}, max_theta={max_theta}, "
                              f"seed={seed}")
    rng = np.random.default_rng(seed)
    probs = rng.random((m, n_types))
    patience = tuple(PatienceModel.deterministic(int(rng.integers(1, max_theta + 1)))
                     for _ in range(n_types))
    if arrival_kind == "adversarial":
        arrivals = ArrivalModel.adversarial(rng.permutation(n_types))
    elif arrival_kind == "iid":
        T = horizon or n_types
        raw = rng.random(n_types)
        q_v = raw / raw.sum() * T * rng.uniform(0.5, 1.0)
        arrivals = ArrivalModel.iid(q_v, T)
    elif arrival_kind == "prophet":
        T = horizon or n_types
        q_tv = rng.random((T, n_types))
        q_tv = q_tv / q_tv.sum(axis=1, keepdims=True) * rng.uniform(0.4, 1.0, (T, 1))
        arrivals = ArrivalModel.prophet(q_tv)
    else:
        raise StochmatchError(f"unknown arrival kind {arrival_kind!r}")
    if edge_weighted:
        return MatchingInstance.make(probs, patience, arrivals,
                                     edge_weights=rng.random((m, n_types)))
    return MatchingInstance.make(probs, patience, arrivals,
                                 vertex_weights=rng.random(m))

