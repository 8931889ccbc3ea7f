"""The layer-wise exact values against their per-state oracles.

``exact_oracles`` holds the expansions over single states that the
layer-wise core, the batched deterministic-patience DP, the closed form
for randomized star policies and the level-wise offline optimum replaced.
Orders must be equal; values agree to summation order, and the offline
optimum, which sums nothing in a new order, is equal.
"""

import importlib
import itertools
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exact_oracles as oracle
from stochmatch import hard_instances as hard
from stochmatch import matching, stars
from stochmatch.instances import (
    ArrivalModel,
    MatchingInstance,
    PatienceModel,
    PatienceVariantError,
    Policy,
    PolicyMixture,
    StarInstance,
)
from stochmatch.matching import (
    AdvGreedyMatcher,
    PolicyLpMatcher,
    ProphetLpResult,
    SimpleGreedyMatcher,
    build_benchmark_lp,
)
from stochmatch.simulate import SimConfig, brute_force_offline_opt, simulate
from stochmatch.stars import (
    RandomizedStarPolicy,
    StarBatch,
    StarSolver,
    deterministic_patience_dp,
    eval_randomized_exact,
    randomized_match_probabilities,
    solve_arbitrary_patience,
    solve_deterministic_patience,
    solver_by_name,
)
from test_lockstep import _instance, _policy_matcher, kinds, seeds

sim = importlib.import_module("stochmatch.simulate")  # the package exports a same-named function


# ---------------------------------------------------------------------------
# the batched deterministic-patience DP
# ---------------------------------------------------------------------------

@st.composite
def induced_stars(draw):
    """A deterministic-patience star with tied weights and zero-probability
    items, and rows of free items."""
    n = draw(st.integers(0, 9))
    weight = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(0.01, 4.0))
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    probs = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0),
                          min_size=n, max_size=n))
    theta = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                         min_size=1, max_size=8))
    star = StarInstance.make(weights, probs, PatienceModel.deterministic(theta))
    return star, np.array(rows, dtype=bool).reshape(len(rows), n)


@settings(max_examples=300, deadline=None)
@given(induced_stars())
@example((StarInstance.make([1.0, 2.0], [0.0, 0.0], PatienceModel.deterministic(2)),
          np.ones((2, 2), dtype=bool)))  # no item to probe
def test_batched_dp_orders_equal_the_scalar_dp(case):
    # every row's order and value are the scalar DP's on the row's own
    # star, and so are the one-row call's in ``solve_deterministic_patience``;
    # the orders index the star, even when they are empty
    star, avail = case
    orders, lengths, values = deterministic_patience_dp(StarBatch.induced(star, avail))
    assert orders.dtype == np.intp
    for row, order, length, value in zip(avail, orders, lengths, values.tolist()):
        idx = np.flatnonzero(row).tolist()
        sub = star.with_items(idx)
        scalar, best = oracle.deterministic_patience(sub)
        assert tuple(order[:length].tolist()) == tuple(idx[i] for i in scalar)
        assert value == best
        solved = solve_deterministic_patience(sub)
        assert solved.policy.order == scalar
        assert solved.expected_value == solved.benchmark == best


def test_batched_dp_rejects_other_patience():
    star = StarInstance.make([1.0], [0.5], PatienceModel.survival([1.0]))
    with pytest.raises(PatienceVariantError):
        deterministic_patience_dp(StarBatch.induced(star, np.ones((1, 1), dtype=bool)))


# ---------------------------------------------------------------------------
# the closed form for randomized star policies
# ---------------------------------------------------------------------------

@st.composite
def randomized_policies(draw):
    """A star with survival, deterministic or global-hazard patience and a
    randomized attempt policy on it: the LP's, or random rows with idle
    mass, zero rows and rows summing to 1."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("survival", "deterministic", "global-hazard")))
    rng = np.random.default_rng(draw(seeds))
    if kind == "survival":
        q = np.minimum.accumulate(np.sort(rng.random(int(rng.integers(1, n + 2))))[::-1])
        q[0] = 1.0
        patience = PatienceModel.survival(q)
    elif kind == "deterministic":
        patience = PatienceModel.deterministic(int(rng.integers(0, n + 2)))
    else:
        patience = PatienceModel.constant_hazard(rate=float(rng.choice([0.0, rng.random(), 1.0])))
    star = StarInstance.make(rng.random(n) * 3.0, rng.random(n) * (rng.random(n) < 0.9), patience)
    if draw(st.booleans()):
        return star, solve_arbitrary_patience(star).policy
    rows = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
    sums = rows.sum(axis=1, keepdims=True)
    scale = np.where(rng.random((n, 1)) < 0.3, 1.0, rng.random((n, 1)))
    rows = np.divide(rows, sums, out=np.zeros_like(rows), where=sums > 0.0) * scale
    return star, RandomizedStarPolicy(rows, np.ones(n), 0.0)


@settings(max_examples=200, deadline=None)
@given(randomized_policies())
def test_randomized_closed_form_equals_the_walk(case):
    star, rsp = case
    expected = oracle.randomized_match_probabilities(star, rsp)
    assert np.allclose(randomized_match_probabilities(star, rsp), expected, rtol=0.0, atol=1e-14)
    # each probability may be off by 1e-14, so the value by 1e-14 * sum(w)
    assert eval_randomized_exact(star, rsp) == pytest.approx(
        oracle.randomized_walk(star, rsp, star.weights), rel=0.0,
        abs=1e-14 * (1 + sum(star.weights)))


# ---------------------------------------------------------------------------
# the three matchers' layer-wise values
# ---------------------------------------------------------------------------

class _PlanningDp(StarSolver):
    """The ``dp`` solver behind an overridden ``plan`` that solves each set
    on its own (``stars._plan_each``); counts its solves."""

    calls = 0

    def plan(self, batch):
        _PlanningDp.calls += len(batch.present)
        return stars._plan_each(solve_deterministic_patience, batch)


GREEDY = {
    "adv-default": lambda: AdvGreedyMatcher(),
    "adv-lp": lambda: AdvGreedyMatcher(solver_by_name("lp")),
    "adv-dp-per-set": lambda: AdvGreedyMatcher(_PlanningDp("dp", 1.0)),
    "simple-first": lambda: SimpleGreedyMatcher("first"),
    "simple-last": lambda: SimpleGreedyMatcher("last"),
}


@settings(max_examples=120, deadline=None)
@given(seeds, kinds, st.sampled_from(sorted(GREEDY)))
def test_greedy_exact_values_equal_the_oracle(seed, kinds, which):
    # the default solvers plan with the batched dp, the hazard index rule
    # and the randomized LP policy; per-item hazard patience has no LP policy
    instance = _instance(seed, kinds, "adversarial")[0]
    try:
        expected = oracle.matcher_value(GREEDY[which](), instance)
    except PatienceVariantError:
        with pytest.raises(PatienceVariantError):
            GREEDY[which]().exact_value(instance)
        return
    assert GREEDY[which]().exact_value(instance) == pytest.approx(expected, rel=0.0, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(seeds, kinds, st.sampled_from(("iid", "prophet")), st.booleans())
def test_policy_exact_values_equal_the_oracle(seed, kinds, arrivals, skip):
    instance, rng = _instance(seed, kinds, arrivals)
    matcher = _policy_matcher(instance, rng, skip)
    assert matcher.exact_value(instance) == pytest.approx(
        oracle.matcher_value(matcher, instance), rel=0.0, abs=1e-12)


def test_a_negative_budget_makes_no_probe_in_walks_or_exact_values():
    # ``validate`` rejects a negative budget but ``make`` accepts it: the
    # survival curve, like ``max_probes``, treats it as 0
    patience = PatienceModel.deterministic(-1)
    assert patience.survival_curve(3).tolist() == [0.0, 0.0, 0.0]
    instance = MatchingInstance.make([[1.0], [1.0]], patience, ArrivalModel.iid([1.0], 1),
                                     edge_weights=[[1.0], [1.0]])
    matcher = PolicyLpMatcher(ProphetLpResult(
        mixture=PolicyMixture((((Policy((0, 1)), 1.0),),), (1.0,)),
        objective=0.0, w_star=np.zeros(2)), skip=False)
    assert matcher.exact_value(instance) == 0.0
    assert simulate(instance, matcher, SimConfig(0, 2000), threads=1).mean == 0.0


def test_an_overridden_dp_solve_plans_per_set_and_agrees():
    inst = hard.gen_random_matching(31, 6, 20, "adversarial", max_theta=3)
    _PlanningDp.calls = 0
    per_set = AdvGreedyMatcher(_PlanningDp("dp", 1.0)).exact_value(inst)
    assert _PlanningDp.calls > 0
    batched = AdvGreedyMatcher(solver_by_name("dp")).exact_value(inst)
    assert batched == pytest.approx(per_set, rel=0.0, abs=1e-12)


def test_greedy_exact_values_and_star_caps_equal_the_oracles():
    # each greedy matcher plans on its table's arrays and walks over vertex
    # ids, and LP2's star-cap rows plan on the instance's columns, while
    # only the oracles build a type's star (``exact_oracles.star_for``):
    # after cold walks, exact values equal the oracle's per-star values,
    # and each star-cap right-hand side, of every type and offline subset,
    # is the brute-force optimum of that subset's star
    base = hard.gen_random_matching(4, 5, 6, "adversarial")

    def with_patience(patience):
        return MatchingInstance.make(base.probs, patience, base.arrivals,
                                     edge_weights=base.edge_weights)

    box_instances = {
        "dp": base,
        "hazard": with_patience(PatienceModel.constant_hazard(rates=np.linspace(0.1, 0.7, 5))),
        "lp": with_patience(PatienceModel.survival((1.0, 0.6, 0.3))),
    }
    patient = with_patience([PatienceModel.deterministic(2 + v % 2) for v in range(6)])
    cases = [(partial(AdvGreedyMatcher, solver_by_name(name)), inst)
             for name, inst in box_instances.items()]
    cases += [(partial(SimpleGreedyMatcher, rule), patient) for rule in ("first", "last")]

    for make, inst in cases:
        simulate(inst, make(), SimConfig(2, 300), threads=1)
    values = [make().exact_value(inst) for make, inst in cases]
    m, n = base.m, base.n_types
    subsets = [s for r in range(1, m + 1) for s in itertools.combinations(range(m), r)]
    for name, inst in (("dp", base), ("brute", box_instances["lp"]),
                       ("hazard", box_instances["hazard"])):
        p = build_benchmark_lp(inst, include_star_constraints=True, selector=solver_by_name(name))
        caps = p.b[m + 2 * n:].reshape(n, len(subsets))
        for v, s in itertools.product(range(n), range(len(subsets))):
            star, _ = oracle.star_for(inst, v, subsets[s])
            assert caps[v, s] == pytest.approx(stars.brute_force_optimal(star).expected_value,
                                               rel=0.0, abs=1e-12), (name, v, subsets[s])
    for (make, inst), value in zip(cases, values):
        assert value == pytest.approx(oracle.matcher_value(make(), inst), rel=0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the offline optimum
# ---------------------------------------------------------------------------

@st.composite
def offline_instances(draw):
    """An adversarial instance with at most 4 offline vertices and 4 types:
    budgets from -1 to 3, zero-probability edges, negative weights (which
    ``make`` accepts, so that stopping early can pay), sometimes a type with
    no neighbor, and types duplicated with or without their budget."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    prob = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    weight = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(-1.0, 3.0)

    def matrix(entry):
        return np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                      min_size=m, max_size=m)))

    probs, weights = matrix(prob), matrix(weight)
    theta = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
    if draw(st.booleans()):
        probs[:, draw(st.integers(0, n - 1))] = 0.0
    for v in range(1, n):
        if draw(st.booleans()):
            src = draw(st.integers(0, v - 1))
            probs[:, v], weights[:, v] = probs[:, src], weights[:, src]
            theta[v] = theta[src] if draw(st.booleans()) else theta[v]
    by = {"vertex_weights": weights[:, 0]} if draw(st.booleans()) else {"edge_weights": weights}
    return MatchingInstance.make(probs, tuple(PatienceModel.deterministic(t) for t in theta),
                                 ArrivalModel.adversarial(range(n)), **by)


@settings(max_examples=300, deadline=None)
@given(offline_instances(), st.sampled_from([1, 7, 1 << 16]))
def test_offline_optimum_equals_the_recursion(instance, chunk):
    # the same float expression over the same successor values: equal, not
    # close; a chunk below a state's probe count builds one state at a time
    with mock.patch.object(sim, "OFFLINE_OPT_CHUNK", chunk):
        assert brute_force_offline_opt(instance) == oracle.offline_opt(instance)


# ---------------------------------------------------------------------------
# scale and chunking
# ---------------------------------------------------------------------------

def _adversarial_14_by_16() -> MatchingInstance:
    inst = hard.gen_random_matching(3, 14, 16, "adversarial")
    return MatchingInstance.make(inst.probs, PatienceModel.deterministic(2), inst.arrivals,
                                 edge_weights=inst.edge_weights)


def test_adv_greedy_exact_value_at_scale_agrees_with_simulation():
    inst = _adversarial_14_by_16()
    exact = AdvGreedyMatcher(solver_by_name("dp")).exact_value(inst)
    rep = simulate(inst, AdvGreedyMatcher(solver_by_name("dp")),
                   SimConfig(seed=0, trials=20_000), threads=1)
    assert abs(exact - rep.mean) <= 4 * rep.stddev / np.sqrt(rep.trials)


def test_small_chunks_leave_the_exact_value_unchanged(monkeypatch):
    inst = _adversarial_14_by_16()
    whole = AdvGreedyMatcher(solver_by_name("dp")).exact_value(inst)
    monkeypatch.setattr(matching, "EXACT_CHUNK", 7)
    chunked = AdvGreedyMatcher(solver_by_name("dp")).exact_value(inst)
    assert chunked == pytest.approx(whole, rel=0.0, abs=1e-12)
