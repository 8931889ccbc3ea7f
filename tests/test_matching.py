import dataclasses
import itertools
from functools import partial

import numpy as np
import pytest

from exact_oracles import star_for
from stochmatch import hard_instances as hard
from stochmatch import lp, matching
from stochmatch.instances import (
    ArrivalModel,
    CapabilityError,
    CapacityError,
    LpNumericalError,
    MatchingInstance,
    PatienceModel,
    Policy,
    PolicyMixture,
    validate,
)
from stochmatch.matching import (
    AdvGreedyMatcher,
    PolicyLpMatcher,
    ProphetLpResult,
    RandomTape,
    SimpleGreedyMatcher,
    benchmark_lp_value,
    build_benchmark_lp,
    format_trace,
    iid_matcher,
    prophet_matcher,
    solve_prophet_lp,
    solve_prophet_lp_enumerated,
)
from stochmatch.simulate import SimConfig, simulate, trial_generator
from stochmatch import stars
from stochmatch.stars import StarSolver, solver_by_name


def _tape(seed):
    return RandomTape(trial_generator(seed, 0))


# ---------------------------------------------------------------------------
# policy LP and column generation
# ---------------------------------------------------------------------------

def test_single_policy_lp():
    inst = MatchingInstance.make([[0.5]], PatienceModel.deterministic(1),
                                 ArrivalModel.prophet([[1.0]]), edge_weights=[[2.0]])
    res = solve_prophet_lp(inst)
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.w_star[0] == pytest.approx(1.0, abs=1e-9)
    masses = dict()
    for pol, mass in res.mixture.per_type[0]:
        masses[pol.order] = masses.get(pol.order, 0.0) + mass
    assert masses.get((0,), 0.0) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("seed", range(12))
def test_column_generation_equals_enumeration(seed):
    inst = hard.gen_random_matching(seed, m=3, n_types=3, arrival_kind="prophet",
                                    max_theta=2, horizon=4)
    cg = solve_prophet_lp(inst)
    full = solve_prophet_lp_enumerated(inst)
    assert cg.objective == pytest.approx(full.objective, abs=1e-6)
    assert cg.status == "optimal"


def test_column_cap_returns_a_feasible_master(monkeypatch):
    inst = hard.gen_random_matching(0, m=6, n_types=4, arrival_kind="prophet",
                                    max_theta=3, horizon=5)
    full = solve_prophet_lp(inst)
    # the first round's columns already pass a cap of one column per type
    monkeypatch.setattr(matching, "COLUMN_CAP", inst.n_types)
    capped = solve_prophet_lp(inst)
    assert capped.status == "column_cap" and full.status == "optimal"
    assert inst.n_types < capped.n_columns < full.n_columns
    assert validate(capped.mixture).ok
    assert capped.objective <= full.objective + 1e-9


def test_repricing_a_master_column_raises(monkeypatch):
    inst = hard.gen_random_matching(0, m=3, n_types=2, arrival_kind="prophet",
                                    max_theta=2, horizon=4)
    real, first = matching.price, {}

    def price(solver, probs, adjusted, patience):
        # each type's first priced column, then that column again, always at a large value
        out = []
        for r, pat in enumerate(patience):
            one = real(solver, probs[r:r + 1], adjusted[r:r + 1], [pat])[0]
            policy, _, match = first.setdefault((probs[r].tobytes(), pat), one)
            out.append((policy, 1e6, match))
        return out

    monkeypatch.setattr(matching, "price", price)
    with pytest.raises(LpNumericalError, match="already in the master"):
        solve_prophet_lp(inst)
    assert any(policy.order for policy, _, _ in first.values())


def _mixed_patience_instance():
    """An 8x6 prophet instance whose type 2 has hazard patience and whose
    type 4 never arrives."""
    inst = hard.gen_random_matching(0, 8, 6, "prophet", horizon=8)
    patience = list(inst.patience)
    patience[2] = PatienceModel.constant_hazard(rate=0.3)
    q_tv = np.array(inst.arrivals.q_tv)
    q_tv[:, 4] = 0.0
    return MatchingInstance.make(inst.probs, tuple(patience), ArrivalModel.prophet(q_tv),
                                 edge_weights=inst.edge_weights)


def _hazard_instance(kind, seed, per_item):
    """An 8x6 instance whose every type has hazard patience: a global rate
    of 0.3, or per-item rates drawn from U(0, 0.6)."""
    inst = hard.gen_random_matching(seed, 8, 6, kind, horizon=8)
    rng = np.random.default_rng(seed)
    patience = tuple(PatienceModel.constant_hazard(rates=rng.uniform(0.0, 0.6, 8)) if per_item
                     else PatienceModel.constant_hazard(rate=0.3) for _ in range(6))
    return MatchingInstance.make(inst.probs, patience, inst.arrivals,
                                 edge_weights=inst.edge_weights)


@pytest.mark.parametrize("make", [
    *(pytest.param(partial(hard.gen_random_matching, seed, 8, 6, kind, horizon=8),
                   id=f"{kind}-{seed}")
      for kind in ("iid", "prophet") for seed in range(10)),
    *(pytest.param(partial(_hazard_instance, kind, seed, per_item),
                   id=f"{kind}-{'item-' if per_item else ''}hazard-{seed}")
      for kind in ("iid", "prophet") for per_item in (False, True) for seed in range(3)),
    pytest.param(_mixed_patience_instance, id="mixed-patience")])
def test_batched_column_generation_equals_pricing_each_type(monkeypatch, make):
    inst = make()
    batched = solve_prophet_lp(inst)
    real, sizes = matching.price, []

    def one_row_each(solver, probs, adjusted, patience):
        sizes.append(len(probs))
        return [real(solver, probs[r:r + 1], adjusted[r:r + 1], patience[r:r + 1])[0]
                for r in range(len(probs))]

    monkeypatch.setattr(matching, "price", one_row_each)
    each = solve_prophet_lp(inst)
    assert max(sizes) > 1
    assert (batched.objective, batched.status, batched.n_columns) == (
        each.objective, each.status, each.n_columns)
    assert np.array_equal(batched.w_star, each.w_star)
    assert batched.mixture == each.mixture


def _column_generation(monkeypatch, instance, warm):
    """``solve_prophet_lp`` with every master resumed from the kept basis
    (as it runs) or cold-started, and the masters' solutions."""
    solve, masters = lp.solve, []

    def master(problem, start=None):
        assert isinstance(start, lp.KeptBasis)
        masters.append(solve(problem, start if warm else None))
        return masters[-1]

    monkeypatch.setattr(lp, "solve", master)
    try:
        return solve_prophet_lp(instance), masters
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("kind", ["iid", "prophet"])
def test_warm_started_masters_match_cold_ones_in_fewer_pivots(monkeypatch, kind):
    pivots = {True: 0, False: 0}
    for i in range(10):
        inst = hard.gen_random_matching(400 + i, 8, 6, kind, horizon=8)
        warm, masters = _column_generation(monkeypatch, inst, True)
        cold, cold_masters = _column_generation(monkeypatch, inst, False)
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
        # the first master starts from the slack basis, every type on its
        # empty policy, and the columns joining the kept basis keep every
        # later start feasible
        assert [s.start for s in masters] == ["identity"] + ["warm"] * (len(masters) - 1)
        pivots[True] += sum(s.iterations for s in masters)
        pivots[False] += sum(s.iterations for s in cold_masters)
    assert pivots[True] < pivots[False]


@pytest.mark.parametrize("kind", ["iid", "prophet"])
def test_column_generation_puts_the_type_rows_slack_on_the_empty_policy(kind):
    # the master holds no empty-policy column: each type's empty policy
    # comes first in the mixture, with the mass its row leaves
    for seed in range(5):
        inst = hard.gen_random_matching(400 + seed, 8, 6, kind, horizon=8)
        res = solve_prophet_lp(inst)
        assert validate(res.mixture).ok
        q_v = inst.arrivals.expected_arrivals(inst.n_types)
        for v, entries in enumerate(res.mixture.per_type):
            (first, mass), rest = entries[0], entries[1:]
            assert first == stars.EMPTY_POLICY and all(pol.order for pol, _ in rest)
            assert mass == float(q_v[v]) - sum(m for _, m in rest)
        assert res.n_columns == sum(map(len, res.mixture.per_type))


def test_lp_solution_constraints_hold():
    inst = hard.gen_random_matching(100, m=4, n_types=3, arrival_kind="iid",
                                    max_theta=3, horizon=6)
    res = solve_prophet_lp(inst)
    assert validate(res.mixture).ok
    # offline rows: sum over columns of x * p_u(pi) <= 1
    load = np.zeros(inst.m)
    for v, entries in enumerate(res.mixture.per_type):
        for pol, mass in entries:
            from stochmatch.stars import policy_match_probabilities
            from stochmatch.instances import StarInstance
            star = StarInstance(tuple(inst.weight(u, v) for u in range(inst.m)),
                                tuple(float(p) for p in inst.probs[:, v]),
                                inst.patience[v])
            load += mass * policy_match_probabilities(star, pol)
    assert np.all(load <= 1 + 1e-6)
    # objective equals sum of w*
    assert res.objective == pytest.approx(float(res.w_star.sum()), abs=1e-7)


def test_master_grown_column_by_column_matches_enumeration():
    inst = MatchingInstance.make([[0.6], [0.3]], PatienceModel.deterministic(2),
                                 ArrivalModel.prophet([[0.9]]),
                                 edge_weights=[[2.0], [5.0]])
    grown = solve_prophet_lp(inst)
    full = solve_prophet_lp_enumerated(inst)
    assert grown.objective == pytest.approx(full.objective, abs=1e-9)
    assert grown.n_columns < full.n_columns


def test_policy_lp_column_count_stays_small():
    inst = hard.gen_random_matching(7, m=3, n_types=3, arrival_kind="prophet",
                                    max_theta=2, horizon=4)
    res = solve_prophet_lp(inst)
    full = solve_prophet_lp_enumerated(inst)
    assert res.n_columns <= full.n_columns
    assert res.n_columns <= 60


# ---------------------------------------------------------------------------
# prophet / IID matchers
# ---------------------------------------------------------------------------

def test_iid_two_step_hand_value():
    inst = MatchingInstance.make([[1.0]], PatienceModel.deterministic(1),
                                 ArrivalModel.iid([1.0], 2), edge_weights=[[1.0]])
    res = solve_prophet_lp(inst)
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    matcher = iid_matcher(res)
    assert matcher.exact_value(inst) == pytest.approx(0.75, abs=1e-9)
    assert 0.75 >= (1 - 1 / np.e) * res.objective


def test_simulated_success_abandons_arrival():
    # hand-built mixture: both types surely play the policy (u) with p = 1;
    # the second arrival finds u matched, simulates, and must abandon
    from stochmatch.instances import Policy, PolicyMixture
    from stochmatch.matching import ProphetLpResult

    inst = MatchingInstance.make([[1.0, 1.0]],
                                 PatienceModel.deterministic(1),
                                 ArrivalModel.prophet([[1.0, 0.0], [0.0, 1.0]]),
                                 edge_weights=[[1.0, 1.0]])
    mixture = PolicyMixture((((Policy.of(0), 1.0),), ((Policy.of(0), 1.0),)),
                            (1.0, 1.0))
    res = ProphetLpResult(mixture=mixture, objective=1.0,
                          w_star=np.array([1.0]))
    matcher = prophet_matcher(res)
    state = matcher(inst, trial_generator(0, 0), trace=True)
    kinds = [(r.kind, r.outcome) for r in state.trace]
    assert kinds == [("real", "success"), ("simulated", "success")]
    assert state.total_weight == 1.0
    assert len(state.matched) == 1


def test_alg3_with_zero_wstar_equals_alg2_trace_for_trace():
    inst = hard.gen_random_matching(42, m=4, n_types=3, arrival_kind="prophet",
                                    max_theta=2, horizon=6)
    res = solve_prophet_lp(inst)
    res0 = dataclasses.replace(res, w_star=np.zeros(inst.m))
    for seed in range(10):
        a = prophet_matcher(res0)(inst, trial_generator(seed, 0), trace=True)
        b = iid_matcher(res0)(inst, trial_generator(seed, 0), trace=True)
        assert [dataclasses.astuple(r) for r in a.trace] == \
               [dataclasses.astuple(r) for r in b.trace]
        assert a.total_weight == b.total_weight


def test_never_real_probes_matched_vertex_and_probe_commit():
    inst = hard.gen_random_matching(5, m=4, n_types=3, arrival_kind="iid",
                                    max_theta=3, horizon=8)
    res = solve_prophet_lp(inst)
    matcher = iid_matcher(res)
    for seed in range(40):
        state = matcher(inst, trial_generator(seed, 0), trace=True)
        matched_at: dict[int, int] = {}
        by_step: dict[int, list] = {}
        for idx, r in enumerate(state.trace):
            by_step.setdefault(r.step, []).append(r)
            if r.kind == "real" and r.outcome == "success":
                matched_at[r.vertex] = idx
        for idx, r in enumerate(state.trace):
            if r.kind == "real":
                assert matched_at.get(r.vertex, idx) >= idx  # not matched earlier
        for step, records in by_step.items():
            # probe-commit: a real success ends the arrival
            for j, r in enumerate(records):
                if r.outcome == "success":
                    assert j == len(records) - 1
            # patience budget: probes (real+simulated) within theta
            v = records[0].vtype
            probes = sum(1 for r in records if r.kind in ("real", "simulated"))
            assert probes <= inst.patience[v].theta
            distinct = {r.vertex for r in records if r.kind != "skip"}
            assert len(distinct) <= inst.m


def test_policy_exact_value_weights_policies_as_drawn():
    # type 2's masses sum to 0.8 against q_v = 0.65 (a clipped negative mass
    # among them): an arrival draws each policy with its share of 0.8, so
    # the exact value is that of the mixture rescaled to sum to q_v
    q_tv = np.array([[0.3, 0.0, 0.2], [0.1, 0.0, 0.4], [0.25, 0.0, 0.05]])
    inst = MatchingInstance.make(np.full((3, 3), 0.5), PatienceModel.deterministic(2),
                                 ArrivalModel.prophet(q_tv), edge_weights=np.ones((3, 3)))
    q_v = tuple(map(float, q_tv.sum(axis=0)))
    type0 = ((Policy((0, 1)), 0.3), (Policy((2,)), 0.0), (Policy((1, 2)), 0.2))
    type2 = ((Policy((2, 0)), 0.5), (Policy((0,)), -1e-12), (Policy((1,)), 0.3))
    scale = q_v[2] / 0.8
    rescaled = tuple((pol, max(mass, 0.0) * scale) for pol, mass in type2)

    def value(per_type):
        result = ProphetLpResult(mixture=PolicyMixture(per_type, q_v), objective=0.0,
                                 w_star=np.zeros(3))
        return PolicyLpMatcher(result, skip=False).exact_value(inst)

    assert value((type0, (), type2)) == pytest.approx(value((type0, (), rescaled)),
                                                      rel=0, abs=1e-12)


@pytest.mark.parametrize("matcher, n", [(AdvGreedyMatcher(solver_by_name("dp")), 1000),
                                        (SimpleGreedyMatcher(), 1500)])
def test_greedy_exact_value_past_the_recursion_limit(matcher, n):
    exact = matcher.exact_value(hard.gen_single_offline(n))
    assert exact == pytest.approx(hard.single_offline_best_value(n), rel=0, abs=1e-12)


def test_policy_exact_value_over_a_long_horizon_agrees_with_simulation():
    inst = hard.gen_random_matching(5, 3, 2, "iid", horizon=1200)
    matcher = iid_matcher(solve_prophet_lp(inst))
    exact = matcher.exact_value(inst)
    rep = simulate(inst, matcher, SimConfig(seed=0, trials=20000), threads=1)
    assert abs(exact - rep.mean) <= 4 * rep.stddev / np.sqrt(rep.trials)


def test_exact_expansion_caps_offline_vertices():
    greedy = hard.gen_random_matching(0, 21, 2, "adversarial")
    with pytest.raises(CapacityError):
        SimpleGreedyMatcher().exact_value(greedy)
    # the policy-LP value sums over vertices and has no cap: an empty mixture matches nothing
    iid = hard.gen_random_matching(0, 40, 2, "iid", horizon=3)
    q_v = tuple(map(float, iid.arrivals.expected_arrivals(2)))
    result = ProphetLpResult(mixture=PolicyMixture(((), ()), q_v), objective=0.0,
                             w_star=np.zeros(40))
    assert PolicyLpMatcher(result, skip=False).exact_value(iid) == 0.0


def test_policy_exact_value_of_an_empty_horizon_is_zero():
    inst = hard.gen_random_matching(0, 2, 2, "iid", horizon=2)
    inst = dataclasses.replace(inst, arrivals=ArrivalModel.iid((0.0, 0.0), 0))
    assert validate(inst).ok
    assert iid_matcher(solve_prophet_lp(inst)).exact_value(inst) == 0.0


@pytest.mark.parametrize("seed, kind, make, bound", [
    (1, "prophet", prophet_matcher, 0.5),
    (2, "iid", iid_matcher, 1.0 - 1.0 / np.e),
])
def test_policy_exact_value_past_twenty_offline_vertices(seed, kind, make, bound):
    inst = hard.gen_random_matching(seed, 24, 5, kind, horizon=8)
    res = solve_prophet_lp(inst)
    matcher = make(res)
    exact = matcher.exact_value(inst)
    rep = simulate(inst, matcher, SimConfig(seed=0, trials=20_000), threads=1)
    assert abs(exact - rep.mean) <= 4 * rep.stddev / np.sqrt(rep.trials)
    assert exact >= bound * res.objective


def test_prophet_matcher_exact_vs_simulation():
    inst = hard.gen_random_matching(13, m=4, n_types=3, arrival_kind="prophet",
                                    max_theta=2, horizon=5)
    res = solve_prophet_lp(inst)
    matcher = prophet_matcher(res)
    exact = matcher.exact_value(inst)
    rep = simulate(inst, matcher, SimConfig(seed=2, trials=30000))
    se = rep.stddev / np.sqrt(rep.trials)
    assert abs(exact - rep.mean) <= 4 * se + 1e-12
    assert exact >= 0.5 * res.objective - 1e-9


def test_matchers_reject_wrong_arrivals():
    adv = hard.gen_random_matching(1, m=2, n_types=2, arrival_kind="adversarial")
    iid = hard.gen_random_matching(1, m=2, n_types=2, arrival_kind="iid")
    res = solve_prophet_lp(iid)
    with pytest.raises(CapabilityError):
        prophet_matcher(res)(adv, trial_generator(0, 0))
    with pytest.raises(CapabilityError):
        AdvGreedyMatcher()(iid, trial_generator(0, 0))
    with pytest.raises(CapabilityError):
        solve_prophet_lp(adv)


# ---------------------------------------------------------------------------
# adversarial greedy
# ---------------------------------------------------------------------------

def test_adv_greedy_certain_match():
    inst = MatchingInstance.make([[1.0]], PatienceModel.deterministic(1),
                                 ArrivalModel.adversarial([0]), vertex_weights=[3.0])
    state = AdvGreedyMatcher()(inst, trial_generator(0, 0))
    assert state.total_weight == 3.0
    assert AdvGreedyMatcher().exact_value(inst) == pytest.approx(3.0)


def test_adv_greedy_availability_filtering():
    # arrival 0 surely matches the only neighbor of arrival 1
    inst = MatchingInstance.make([[1.0, 1.0]], PatienceModel.deterministic(1),
                                 ArrivalModel.adversarial([0, 1]), vertex_weights=[1.0])
    matcher = AdvGreedyMatcher()
    state = matcher(inst, trial_generator(0, 0), trace=True)
    assert state.total_weight == 1.0
    steps = {r.step for r in state.trace}
    assert steps == {0}  # arrival 1 sees an empty star and makes no probes


def test_adv_greedy_exact_vs_simulation():
    inst = hard.gen_random_matching(23, m=3, n_types=3, arrival_kind="adversarial",
                                    max_theta=2)
    matcher = AdvGreedyMatcher(solver_by_name("dp"))
    exact = matcher.exact_value(inst)
    rep = simulate(inst, matcher, SimConfig(seed=4, trials=30000))
    se = rep.stddev / np.sqrt(rep.trials)
    assert abs(exact - rep.mean) <= 4 * se + 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_adv_greedy_half_guarantee_and_lp_chain(seed):
    inst = hard.gen_random_matching(300 + seed, m=4, n_types=3,
                                    arrival_kind="adversarial", max_theta=2)
    matcher = AdvGreedyMatcher(solver_by_name("dp"))
    alg = matcher.exact_value(inst)
    lp2 = benchmark_lp_value(inst, include_star_constraints=True)
    lp6 = benchmark_lp_value(inst, include_star_constraints=False)
    assert alg >= 0.5 * lp2 - 1e-8
    assert lp2 <= lp6 + 1e-7


def test_adv_greedy_with_lp_black_box_runs():
    # survival-curve patience routes through the randomized policy plan
    probs = np.full((3, 2), 0.6)
    inst = MatchingInstance.make(probs, PatienceModel.survival([1.0, 0.5]),
                                 ArrivalModel.adversarial([0, 1]),
                                 vertex_weights=[1.0, 2.0, 3.0])
    matcher = AdvGreedyMatcher()  # auto: survival -> randomized LP policy
    rep = simulate(inst, matcher, SimConfig(seed=0, trials=4000))
    exact = matcher.exact_value(inst)
    se = rep.stddev / np.sqrt(rep.trials) + 1e-12
    assert abs(exact - rep.mean) <= 4 * se


@pytest.mark.parametrize("patience", [PatienceModel.survival([1.0, 0.6, 0.3]),
                                      PatienceModel.constant_hazard(rate=0.3)])
def test_adv_greedy_lp_box_simulation_agrees_with_exact_value(patience):
    # a randomized attempt reads one uniform for its pick and its success,
    # and the budget is read off the survival curve, geometric or not
    base = hard.gen_random_matching(3, 6, 12, "adversarial")
    inst = MatchingInstance.make(base.probs, patience, base.arrivals,
                                 edge_weights=base.edge_weights)
    matcher = AdvGreedyMatcher(solver_by_name("lp"))
    rep = simulate(inst, matcher, SimConfig(seed=5, trials=4000), threads=1)
    se = rep.stddev / np.sqrt(rep.trials)
    assert abs(matcher.exact_value(inst) - rep.mean) <= 4 * se + 1e-12


# ---------------------------------------------------------------------------
# benchmark LPs
# ---------------------------------------------------------------------------

def test_benchmark_lp_single_offline_values():
    inst = hard.gen_single_offline(4)
    assert benchmark_lp_value(inst) == pytest.approx(1.0, abs=1e-8)
    lp2 = benchmark_lp_value(inst, include_star_constraints=True)
    assert lp2 == pytest.approx(1.0, abs=1e-8)
    # at x = 1 every star-cap row is tight: x_uv * p * w = 1/4 = OPT({u}, v)
    prob = build_benchmark_lp(inst, include_star_constraints=True)
    x = np.ones(prob.n_vars)
    rows = prob.A @ x
    star_rows = slice(1 + 4 + 4, prob.n_rows)
    assert np.allclose(rows[star_rows], prob.b[star_rows])


class _OverriddenDp(StarSolver):
    """The ``dp`` solver behind an overridden ``plan``: planned per subset,
    one ``solve_deterministic_patience`` call per row."""

    calls = 0

    def plan(self, batch):
        _OverriddenDp.calls += len(batch.present)
        return stars._plan_each(stars.solve_deterministic_patience, batch)


STAR_CAP_PATIENCE = {
    "dp": lambda m: None,
    "brute": lambda m: PatienceModel.survival((1.0, 0.6, 0.3)),
    "hazard": lambda m: PatienceModel.constant_hazard(rate=0.3),
    "item-hazard": lambda m: PatienceModel.constant_hazard(rates=np.linspace(0.1, 0.7, m)),
    "no-neighbor": lambda m: PatienceModel.survival((1.0, 0.6, 0.3)),
    "zero-edge": lambda m: None,
    "overridden-solve": lambda m: None,
}


@pytest.mark.parametrize("case", sorted(STAR_CAP_PATIENCE))
def test_star_cap_rows_cap_each_subset_by_its_exact_optimum(case):
    base = hard.gen_random_matching(5, 5, 3, "adversarial")
    probs = base.probs.copy()
    if case == "zero-edge":
        probs[1, 0] = probs[3, 2] = 0.0
    if case == "no-neighbor":  # an empty star: every subset's cap is 0
        probs[:, 1] = 0.0
    patience = STAR_CAP_PATIENCE[case](base.m) or base.patience
    inst = MatchingInstance.make(probs, patience, base.arrivals, edge_weights=base.edge_weights)
    selector = _OverriddenDp("dp", 1.0) if case == "overridden-solve" else None
    _OverriddenDp.calls = 0
    prob = build_benchmark_lp(inst, include_star_constraints=True, selector=selector)
    solves = _OverriddenDp.calls
    m, n = inst.m, inst.n_types
    W = inst.weights_matrix()
    k = m + 2 * n  # the star-cap rows follow the vertex and patience rows
    for v in range(n):
        solver = selector or matching._exact_solver_for(inst.patience[v])
        for r in range(1, m + 1):
            for subset in itertools.combinations(range(m), r):
                star, items = star_for(inst, v, subset)
                opt = solver.solve(star).expected_value if items else 0.0
                assert prob.b[k] == pytest.approx(opt, rel=0.0, abs=1e-12)
                row = np.zeros((m, n))
                row[list(subset), v] = probs[list(subset), v] * W[list(subset), v]
                assert np.array_equal(prob.A[k], row.reshape(-1))
                k += 1
    assert k == prob.n_rows
    if selector is not None:
        assert solves == n * (2 ** m - 1)  # every edge is positive: one solve per subset


def test_benchmark_lp_empty_graph():
    inst = MatchingInstance.make(np.zeros((2, 2)), PatienceModel.deterministic(1),
                                 ArrivalModel.adversarial([0, 1]), vertex_weights=[1, 1])
    assert benchmark_lp_value(inst) == pytest.approx(0.0, abs=1e-9)


def test_benchmark_lp_star_cap_requires_small_m():
    inst = hard.gen_random_matching(0, m=13, n_types=2, arrival_kind="adversarial")
    from stochmatch.instances import CapacityError
    with pytest.raises(CapacityError):
        build_benchmark_lp(inst, include_star_constraints=True)


def test_stochasticity_gap_lp_value_matches_solver():
    for n in (3, 8):
        inst = hard.gen_stochasticity_gap(n)
        assert benchmark_lp_value(inst) == pytest.approx(float(n), abs=1e-7)


# ---------------------------------------------------------------------------
# simple greedy
# ---------------------------------------------------------------------------

def test_simple_greedy_certain_match():
    inst = MatchingInstance.make([[1.0]], PatienceModel.deterministic(1),
                                 ArrivalModel.adversarial([0]), vertex_weights=[1.0])
    state = SimpleGreedyMatcher()(inst, trial_generator(0, 0))
    assert state.total_weight == 1.0


def test_simple_greedy_exact_matches_family_formula():
    # the closed form assumes the late crowd surely mops up the shared block;
    # with k = 1, n = 2 the finite crowd of 4 misses it with probability
    # (1-p)^2 * (1-p)^4, an exactly known shortfall
    inst = hard.gen_simple_greedy_hard(1, 2)
    exact = SimpleGreedyMatcher("first").exact_value(inst)
    shortfall = 0.5 ** 2 * 0.5 ** 4
    assert exact == pytest.approx(hard.simple_greedy_exact_value(1, 2) - shortfall,
                                  abs=1e-12)


def test_simple_greedy_trace_patience_one():
    inst = hard.gen_simple_greedy_hard(2, 3, v0_cap=5)
    state = SimpleGreedyMatcher("first")(inst, trial_generator(1, 0), trace=True)
    per_step = {}
    for r in state.trace:
        per_step.setdefault(r.step, 0)
        if r.kind in ("real", "simulated"):
            per_step[r.step] += 1
    assert all(c <= 1 for c in per_step.values())
    text = format_trace(state)
    assert len(text.splitlines()) == len(state.trace)


def test_table_neighbors_equal_the_per_type_construction():
    # the first and last types and one in between have no neighbor
    rng = np.random.default_rng(3)
    probs = rng.random((7, 9)) * (rng.random((7, 9)) < 0.6)
    probs[:, [0, 4, 8]] = 0.0
    inst = MatchingInstance.make(probs, PatienceModel.deterministic(2),
                                 ArrivalModel.adversarial(range(9)), edge_weights=np.ones((7, 9)))
    tables = matching._Tables(inst)
    assert len(tables.neighbor_arrays) == 9
    for v, col in enumerate(probs.T):
        want = np.flatnonzero(col > 0.0)
        assert tables.neighbor_arrays[v].dtype == want.dtype
        assert np.array_equal(tables.neighbor_arrays[v], want)
        assert tables.caps[v] == inst.patience[v].max_probes(want.size)
