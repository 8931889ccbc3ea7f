"""The lockstep batch walk against the scalar walk.

``simulate`` runs every matcher's trials in lockstep over one block of
uniforms per batch, and a called matcher runs one trial as a one-row batch
with a probe log.  The reference for both is the scalar walk of
``walk_oracle``, one trial at a time on
``RandomTape(trial_generator(seed, i))``.  Reports, matches and traces must
be equal, not approximately equal.
"""

import dataclasses
import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochmatch import hard_instances as hard
from stochmatch import matching, stars
from stochmatch.instances import (
    ArrivalModel,
    CapabilityError,
    MatchingInstance,
    PatienceModel,
    PatienceVariantError,
    Policy,
    PolicyMixture,
    StochmatchError,
)
from stochmatch.matching import (
    TAPE_BLOCK,
    AdvGreedyMatcher,
    PolicyLpMatcher,
    ProphetLpResult,
    RandomTape,
    SimpleGreedyMatcher,
    iid_matcher,
    prophet_matcher,
    solve_prophet_lp,
)
from stochmatch.simulate import CHUNK_TRIALS, SimConfig, simulate, trial_generator
from stochmatch.stars import StarSolver, solver_by_name
from exact_oracles import star_for
from walk_oracle import scalar_walk

sim = importlib.import_module("stochmatch.simulate")  # the package exports a same-named function
PATIENCE = ("deterministic", "survival", "global-hazard", "item-hazard")


def _patience(rng, kind, m):
    if kind == "deterministic":
        return PatienceModel.deterministic(int(rng.integers(-1, m + 2)))
    if kind == "survival":
        q = np.sort(rng.random(int(rng.integers(1, m + 2))))[::-1]
        q[0] = 1.0
        q[rng.random(q.size) < 0.2] = 0.0
        return PatienceModel.survival(np.minimum.accumulate(q))
    if kind == "global-hazard":
        return PatienceModel.constant_hazard(rate=float(rng.choice([0.0, rng.random(), 1.0])))
    return PatienceModel.constant_hazard(rates=rng.random(m))


def _instance(seed, kinds, arrivals):
    """A small random instance: some edges absent, some certain."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 6)), len(kinds)
    probs = rng.random((m, n)) * (rng.random((m, n)) < 0.8)
    probs[rng.random((m, n)) < 0.1] = 1.0
    patience = [_patience(rng, kind, m) for kind in kinds]
    if arrivals == "adversarial":
        model = ArrivalModel.adversarial(rng.permutation(n))
    elif arrivals == "iid":
        horizon = int(rng.integers(1, 7))
        q_v = rng.random(n) * (rng.random(n) < 0.85)
        model = ArrivalModel.iid(q_v / max(q_v.sum(), 1e-9) * horizon * rng.uniform(0.3, 1.0),
                                 horizon)
    else:
        q_tv = rng.random((int(rng.integers(1, 7)), n))
        model = ArrivalModel.prophet(q_tv / q_tv.sum(axis=1, keepdims=True)
                                     * rng.uniform(0.3, 1.0, (q_tv.shape[0], 1)))
    return MatchingInstance.make(probs, patience, model, edge_weights=rng.random((m, n))), rng


def _policy_matcher(instance, rng, skip):
    """A random policy mixture: policies may list non-neighbors and share
    vertices, and leave residual mass to the empty policy."""
    m, n = instance.m, instance.n_types
    q_v = instance.arrivals.expected_arrivals(n)
    per_type = []
    for v in range(n):
        k = int(rng.integers(0, 4))
        masses = rng.dirichlet(np.ones(k + 1))[:k] * q_v[v] if k else []
        per_type.append(tuple(
            (Policy(tuple(int(u) for u in rng.permutation(m)[:rng.integers(0, m + 1)])),
             float(mass)) for mass in masses))
    lp_result = ProphetLpResult(mixture=PolicyMixture(tuple(per_type), tuple(map(float, q_v))),
                                objective=0.0, w_star=rng.random(m) * 2.0)
    return PolicyLpMatcher(lp_result, skip=skip)


def _scalar_report(instance, matcher, config):
    weights = np.empty(config.trials)
    counts = np.zeros(instance.m)
    for i in range(config.trials):
        state = scalar_walk(matcher, instance, RandomTape(trial_generator(config.seed, i)))
        weights[i] = state.total_weight
        for u in state.matched:
            counts[u] += 1.0
    stddev = float(np.std(weights, ddof=1)) if config.trials > 1 else 0.0
    return float(np.mean(weights)), stddev, counts / config.trials


def _called_trace(matcher, instance, seed, i):
    """Trial ``i`` of a called matcher with ``trace=True``, whose trace
    (record for record), matches and weight must be the scalar walk's;
    returns the trace."""
    got = matcher(instance, RandomTape(trial_generator(seed, i)), trace=True)
    want = scalar_walk(matcher, instance, RandomTape(trial_generator(seed, i)), trace=True)
    assert list(map(dataclasses.astuple, got.trace)) == list(map(dataclasses.astuple, want.trace))
    assert got.matched == want.matched
    assert got.total_weight == want.total_weight
    return got.trace


def _assert_same(instance, matcher, config):
    """``simulate``'s report equals the scalar walk's, and so do the first 8
    called trials."""
    mean, stddev, freq = _scalar_report(instance, matcher, config)
    report = simulate(instance, matcher, config, threads=1)
    assert report.mean == mean
    assert report.stddev == stddev
    assert np.array_equal(report.match_freq, freq)
    for i in range(min(8, config.trials)):
        _called_trace(matcher, instance, config.seed, i)


kinds = st.lists(st.sampled_from(PATIENCE), min_size=1, max_size=4)
seeds = st.integers(0, 2 ** 32 - 1)
trials = st.integers(1, 160)


@settings(max_examples=60, deadline=None)
@given(seeds, kinds, st.sampled_from(("iid", "prophet")), st.booleans(), seeds, trials)
def test_policy_matcher_batch_equals_scalar_walk(seed, kinds, arrivals, skip, sim_seed, n):
    instance, rng = _instance(seed, kinds, arrivals)
    matcher = _policy_matcher(instance, rng, skip)
    _assert_same(instance, matcher, SimConfig(sim_seed, n))


@settings(max_examples=60, deadline=None)
@given(seeds, kinds, st.sampled_from(("first", "last")), seeds, trials)
def test_simple_greedy_batch_equals_scalar_walk(seed, kinds, rule, sim_seed, n):
    instance, _ = _instance(seed, kinds, "adversarial")
    _assert_same(instance, SimpleGreedyMatcher(rule), SimConfig(sim_seed, n))


def _run_instance(seed):
    """Arrivals in runs: each segment repeats one column, drawn from a few
    types that share it, so that a run mixes a repeated type with distinct
    types of equal columns.  A column probes once (patience 1, or one
    neighbor under a larger patience), has no neighbor, or probes up to 3
    times; probabilities near or at 1 let every neighbor match mid-run."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    columns, patience, segments = [], [], []
    for _ in range(int(rng.integers(1, 7))):
        kind = rng.choice(["once", "single", "none", "several"], p=[0.5, 0.2, 0.1, 0.2])
        probs = np.where(rng.random(m) < 0.5, rng.random(m), 1.0 - rng.random(m) * 1e-3)
        probs[rng.random(m) < 0.15] = 1.0
        probs[rng.random(m) < 0.3] = 0.0
        if kind == "none":
            probs[:] = 0.0
        elif kind == "single":
            probs[np.arange(m) != rng.integers(m)] = 0.0
        thetas = {"once": [1], "single": [1, 2, 3], "none": [1], "several": [2, 3]}[kind]
        weights = rng.random(m)
        first = len(columns)
        for _ in range(int(rng.integers(1, 4))):
            columns.append((probs, weights))
            patience.append(PatienceModel.deterministic(int(rng.choice(thetas))))
        segments.append(range(first, len(columns)))
    order = []
    for _ in range(int(rng.integers(1, 9))):
        types = segments[rng.integers(len(segments))]
        order += rng.choice(types, int(rng.integers(1, 13))).tolist()
    probs, weights = (np.array(c).T for c in zip(*columns))
    return MatchingInstance.make(probs, patience, ArrivalModel.adversarial(order),
                                 edge_weights=weights)


@settings(max_examples=80, deadline=None)
@given(seeds, st.sampled_from(("first", "last")), seeds, trials)
def test_simple_greedy_runs_equal_scalar_walk(seed, rule, sim_seed, n):
    # a run of arrivals that probe once is walked success by success; its
    # reports and called traces must be the scalar walk's, arrival by arrival
    instance = _run_instance(seed)
    _assert_same(instance, SimpleGreedyMatcher(rule), SimConfig(sim_seed, n))


def test_runs_join_equal_columns_that_probe_once():
    # types 0 and 1 share a column, type 2 has one neighbor under patience
    # 3, type 3 probes twice and type 4 has no neighbor (a run of one each)
    probs = np.array([[0.5, 0.5, 0.0, 0.5, 0.0], [0.2, 0.2, 0.7, 0.2, 0.0]])
    patience = [PatienceModel.deterministic(t) for t in (1, 1, 3, 2, 1)]
    order = [0, 1, 0, 2, 2, 3, 3, 1, 4, 4, 0]
    inst = MatchingInstance.make(probs, patience, ArrivalModel.adversarial(order),
                                 edge_weights=np.ones((2, 5)))
    matcher = SimpleGreedyMatcher()
    matcher.exact_value(inst)
    tables = matcher._tables(inst)
    assert tables.runs is None  # cut when the matcher first walks the instance
    matcher(inst, np.random.default_rng(0))
    assert tables.runs == [(0, 0, 3), (2, 3, 5), (3, 5, 6), (3, 6, 7), (1, 7, 8),
                           (4, 8, 9), (4, 9, 10), (0, 10, 11)]


@settings(max_examples=80, deadline=None)
@given(seeds, kinds, st.sampled_from((None, "lp")), seeds, trials)
def test_adv_greedy_batch_equals_scalar_walk(seed, kinds, solver, sim_seed, n):
    # the default solvers give policy plans for deterministic and hazard
    # patience and randomized plans for survival patience; ``lp`` gives
    # randomized plans for every patience kind but per-item hazard, which
    # it rejects in both walks
    instance, _ = _instance(seed, kinds, "adversarial")
    config = SimConfig(sim_seed, n)
    make = lambda: AdvGreedyMatcher(solver and solver_by_name(solver))  # noqa: E731
    try:
        mean, stddev, freq = _scalar_report(instance, make(), config)
    except PatienceVariantError:
        with pytest.raises(PatienceVariantError):
            simulate(instance, make(), config, threads=1)
        called = make()
        with pytest.raises(PatienceVariantError):
            for i in range(n):
                called(instance, RandomTape(trial_generator(sim_seed, i)))
        return
    matcher = make()
    report = simulate(instance, matcher, config, threads=1)
    assert report.mean == mean
    assert report.stddev == stddev
    assert np.array_equal(report.match_freq, freq)
    for i in range(min(8, n)):
        _called_trace(matcher, instance, sim_seed, i)


@pytest.mark.parametrize("solver", ["dp", "lp"])
def test_adv_greedy_batch_on_a_larger_instance(solver):
    # many availability sets per arrival, so many groups per lockstep step
    inst = hard.gen_random_matching(31, 6, 20, "adversarial", max_theta=3)
    _assert_same(inst, AdvGreedyMatcher(solver_by_name(solver)), SimConfig(2, 300))


def _wide_instance(seed, kind):
    """65 to 80 offline vertices, all neighbors of type 0, which arrives
    first, so that its free-set keys span two words; up to two more types
    with a few neighbors each.  ``kind`` is the patience of every type:
    deterministic (the ``dp`` solver's plans), hazard (``hazard``'s, under
    per-item rates or a global one) or survival (``lp``'s randomized
    plans)."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(65, 81)), int(rng.integers(1, 4))
    probs = rng.random((m, n)) * (rng.random((m, n)) < 0.1)
    probs[:, 0] = rng.uniform(0.05, 0.9, m)
    if kind == "deterministic":
        patience = [PatienceModel.deterministic(int(rng.integers(1, 4))) for _ in range(n)]
    elif kind == "hazard":
        patience = [PatienceModel.constant_hazard(rates=rng.random(m)),
                    PatienceModel.constant_hazard(rate=float(rng.random()))] * 2
    else:
        patience = [_patience(rng, "survival", 3) for _ in range(n)]
    order = [0] + rng.integers(0, n, int(rng.integers(0, 8))).tolist()
    return MatchingInstance.make(probs, patience[:n], ArrivalModel.adversarial(order),
                                 edge_weights=rng.random((m, n)))


@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from(("deterministic", "hazard", "survival")), seeds,
       st.integers(1, 60))
def test_adv_greedy_lockstep_equals_the_oracle_row_by_row(seed, kind, sim_seed, n):
    # each trial's weight and the match counts of a lockstep block are the
    # scalar walk's; keys of more than 64 neighbors take two words
    instance = _wide_instance(seed, kind)
    matcher = AdvGreedyMatcher()
    block = sim.trial_uniforms(sim_seed, 0, n, max(1, matcher.draw_bound(instance)))
    weights, counts = matcher.run_lockstep(instance, block)
    assert {len(key) for key in matcher._tables(instance).plan_rows[0].index} == {16}
    walks = [scalar_walk(matcher, instance, RandomTape(trial_generator(sim_seed, i)))
             for i in range(n)]
    assert weights.tolist() == [w.total_weight for w in walks]
    matched = [u for w in walks for u in w.matched]
    assert counts.tolist() == np.bincount(matched, minlength=instance.m).tolist()


def test_adv_greedy_solves_each_free_set_once():
    # the first run plans each (type, free set) it meets once; a second
    # run of the same trials finds every plan stored and plans none
    calls = []

    class Counting(StarSolver):
        def plan(self, batch):
            calls.extend(batch.present)
            return super().plan(batch)

    inst = hard.gen_random_matching(4, 10, 60, "adversarial", max_theta=3)
    matcher = AdvGreedyMatcher(Counting("dp", 1.0))
    config = SimConfig(1, 2000)
    first = simulate(inst, matcher, config, threads=1)
    stored = sum(len(rows.index) for rows in matcher._tables(inst).plan_rows.values())
    assert len(calls) == stored > 100
    calls.clear()
    second = simulate(inst, matcher, config, threads=1)
    assert not calls
    assert first.mean == second.mean and np.array_equal(first.match_freq, second.match_freq)


def test_adv_greedy_stops_once_every_trial_is_full(monkeypatch):
    # every trial of a dense 3 x 40 instance matches all 3 offline vertices
    # by step 8; the walk visits no arrival after the one that fills the
    # last trial, so it neither groups free sets nor looks up plans there,
    # and reads no later type's neighbors
    inst = hard.gen_random_matching(0, 3, 40, "adversarial")
    matcher = AdvGreedyMatcher()
    _assert_same(inst, matcher, SimConfig(2, 200))
    walks = [scalar_walk(matcher, inst, RandomTape(trial_generator(2, i))) for i in range(200)]
    full = max(step for w in walks for step, _, _ in w.matched.values())
    assert full == 8 and all(len(w.matched) == 3 for w in walks)
    tables, visits, calls = matcher._tables(inst), [], []

    class Visits(list):
        def __getitem__(self, v):
            visits.append(v)
            return list.__getitem__(self, v)

    find = AdvGreedyMatcher._find_rows
    monkeypatch.setattr(tables, "neighbor_arrays", Visits(tables.neighbor_arrays))
    monkeypatch.setattr(matching, "_distinct_rows",
                        lambda free: calls.append("keys") or stars._distinct_rows(free))
    monkeypatch.setattr(AdvGreedyMatcher, "_find_rows",
                        lambda self, *args: calls.append("find") or find(self, *args))
    block = sim.trial_uniforms(2, 0, 200, matcher.draw_bound(inst))
    weights, counts = matcher.run_lockstep(inst, block)
    assert weights.tolist() == [w.total_weight for w in walks] and counts.tolist() == [200.0] * 3
    assert calls.count("keys") == calls.count("find") == full + 1
    # each type arrives once, and the walk and its plan lookups read the
    # neighbors of the first full + 1 types only
    assert set(visits) == set(inst.arrivals.order[:full + 1])


def test_adv_greedy_report_is_pinned():
    # simulate's report on the benchmark's AdvGreedy shape, bit for bit: with
    # the default box, and with the LP box's randomized plans, whose budgets
    # are drawn off a survival curve and off a global rate's geometric one
    base = hard.gen_random_matching(3, 10, 60, "adversarial")
    cases = [(base, AdvGreedyMatcher(), 6.748663942788453, 0.6704599649309181)]
    for patience, mean, stddev in [
            (PatienceModel.survival([1.0, 0.6, 0.3]), 6.6384608270610235, 0.5135426029561815),
            (PatienceModel.constant_hazard(rate=0.3), 6.693925445397228, 0.5412957581865532)]:
        inst = MatchingInstance.make(base.probs, patience, base.arrivals,
                                     edge_weights=base.edge_weights)
        cases.append((inst, AdvGreedyMatcher(solver_by_name("lp")), mean, stddev))
    for inst, matcher, mean, stddev in cases:
        report = simulate(inst, matcher, SimConfig(1, 150), threads=1)
        assert report.mean == mean
        assert report.stddev == stddev
        assert report.match_freq.tolist() == [1.0] * 10


@pytest.mark.parametrize("kind, make, shape, want", [
    ("iid", iid_matcher, (4, 3), (1.3293003985354173, 0.6278944831518376,
                                  [0.6566666666666666, 0.5816666666666667, 0.665,
                                   0.30666666666666664])),
    ("prophet", prophet_matcher, (5, 4), (1.9044861541564129, 0.7618889990860069,
                                          [0.455, 0.6233333333333333, 0.6083333333333333,
                                           0.31833333333333336, 0.3])),
])
def test_policy_lp_reports_are_pinned(kind, make, shape, want):
    # simulate's report on the benchmark's IID and prophet shapes, with their
    # column-generation matchers, bit for bit
    inst = hard.gen_random_matching(1, *shape, kind, max_theta=2, horizon=6)
    report = simulate(inst, make(solve_prophet_lp(inst)), SimConfig(1, 600), threads=1)
    assert report.mean == want[0]
    assert report.stddev == want[1]
    assert report.match_freq.tolist() == want[2]


class _Fixed:
    """A Generator stand-in whose stream is ``row``, then 0.5 forever."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)

    def random(self, n):
        out = np.full(n, 0.5)
        k = min(n, self.row.size)
        out[:k], self.row = self.row[:k], self.row[k:]
        return out


def _edge_rows(cum, width, tail):
    """Rows whose step ``t`` uniform lies on an edge of ``cum[t]``: each of
    its values, the double just below each, its last value and past it.
    Earlier steps read 0.99, above every step's arrival mass, so they bring
    no arrival and read one uniform each; ``tail`` follows the edge."""
    rows = []
    for t, step in enumerate(cum):
        for u in (*step, *np.nextafter(step, -np.inf), step[-1], 0.999, 0.0):
            row = np.concatenate([np.full(t, 0.99), [u], tail])
            rows.append(np.resize(row, width))
    return np.array(rows)


def _assert_rows_walk_as_the_oracle(matcher, inst, block):
    """The batch walk of ``block`` gives each row the scalar walk's weight,
    and a called matcher on the row its trace."""
    weights, counts = matcher.run_lockstep(inst, block)
    matched = np.zeros(inst.m)
    for row, weight in zip(block, weights):
        want = scalar_walk(matcher, inst, RandomTape(_Fixed(row)), trace=True)
        got = matcher(inst, RandomTape(_Fixed(row)), trace=True)
        assert weight == want.total_weight == got.total_weight
        assert list(map(dataclasses.astuple, got.trace)) == list(
            map(dataclasses.astuple, want.trace))
        matched[list(want.matched)] += 1.0
    assert counts.tolist() == matched.tolist()


def test_step_draw_at_cdf_edges_equals_the_oracle():
    # a uniform equal to a CDF value picks the next column (the oracle's
    # argmax(cum > u)); zero-mass policies repeat CDF values, and a uniform
    # on a repeated value passes every column with that value; a uniform at
    # or past the last value brings no arrival
    q_tv = np.array([[0.3, 0.25, 0.2], [0.1, 0.0, 0.5]])
    inst = MatchingInstance.make([[0.5, 0.9, 0.0], [0.7, 0.0, 0.4], [0.0, 0.6, 0.8]],
                                 PatienceModel.deterministic(2), ArrivalModel.prophet(q_tv),
                                 edge_weights=[[1.0, 2.0, 0.5], [0.3, 1.0, 1.5], [1.0, 0.7, 2.0]])
    per_type = (((Policy((0, 1)), 0.2), (Policy((2,)), 0.0), (Policy((1, 0)), 0.0),
                 (Policy((1,)), 0.2)),
                ((Policy((0, 2)), 0.0), (Policy((2,)), 0.25)),
                ((Policy(()), 0.0), (Policy((2, 1)), 0.4), (Policy((1,)), 0.0)))
    matcher = PolicyLpMatcher(ProphetLpResult(
        mixture=PolicyMixture(per_type, tuple(map(float, q_tv.sum(axis=0)))),
        objective=0.0, w_star=np.zeros(3)), skip=False)
    cum = matcher._tables(inst).cum
    assert (np.diff(cum, axis=1) == 0.0).any()  # zero-mass policies repeat values
    block = _edge_rows(cum, matcher.draw_bound(inst), [0.3, 0.95, 0.2, 0.6, 0.05, 0.99])
    _assert_rows_walk_as_the_oracle(matcher, inst, block)


def test_batched_dp_plan_rows_equal_per_set_solves():
    # equal weights and coarse probabilities tie many orders; the built-in
    # dp plans each type's new free sets in one batched DP and calls no
    # one-star solve, and writes the rows a per-set solver (one
    # ``solve_deterministic_patience`` call per row) writes, in order
    calls = []

    class Counting(StarSolver):
        def plan(self, batch):
            return stars._plan_each(stars.solve_deterministic_patience, batch)

    rng = np.random.default_rng(8)
    m, n = 8, 6
    probs = rng.choice([0.0, 0.25, 0.5, 1.0], (m, n))
    patience = [PatienceModel.deterministic(int(t)) for t in rng.integers(1, 4, n)]
    inst = MatchingInstance.make(probs, patience, ArrivalModel.adversarial(
        rng.integers(0, n, 30).tolist()), edge_weights=np.ones((m, n)))
    batched = AdvGreedyMatcher(solver_by_name("dp"))
    per_set = AdvGreedyMatcher(Counting("dp", 1.0))
    solve = stars.solve_deterministic_patience
    with mock.patch.object(stars, "solve_deterministic_patience",
                           lambda star: calls.append(star) or solve(star)):
        simulate(inst, batched, SimConfig(2, 600), threads=1)
        assert not calls
        simulate(inst, per_set, SimConfig(2, 600), threads=1)
    ours, theirs = batched._tables(inst).plan_rows, per_set._tables(inst).plan_rows
    assert ours.keys() == theirs.keys()
    for v, a in ours.items():
        b = theirs[v]
        assert list(a.index) == list(b.index) and a.cum is b.cum is None
        for name in ("kind", "items", "length"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    assert len(calls) == sum(len(a.index) for a in ours.values()) > 50


def test_plan_rows_hold_pick_rows_from_the_first_randomized_plan_on():
    # a type's pick rows are allocated when its first randomized plan
    # arrives, all nan for the policies stored before and after it
    k = 3
    tables = matching._Tables(hard.gen_random_matching(0, 1, 1, "adversarial"))

    def rows(names, kind, cum=None):
        return matching._PlanRows(tables, 0, np.zeros((len(names), k), dtype=np.intp),
                                  np.ones(len(names), dtype=np.intp), names,
                                  np.full(len(names), kind, dtype=np.int8), cum)

    store = rows([b"a"], 1)
    store.add(rows([b"b"], 1))
    assert store.cum is None
    picks = np.cumsum(np.full((1, k, k), 0.25), axis=2)
    store.add(rows([b"c"], 2, picks))
    store.add(rows([b"d"], 1))
    assert store.index == {b"a": 0, b"b": 1, b"c": 2, b"d": 3}
    assert store.kind.tolist() == [1, 1, 2, 1] and store.cum.shape == (4, k, k)
    assert np.isnan(store.cum[[0, 1, 3]]).all() and np.array_equal(store.cum[2], picks[0])


def test_lp_plan_rows_hold_each_sets_pick_distributions():
    # every stored randomized row is the LP policy of its free set's star:
    # its items, and per attempt the cumulative pick distribution padded
    # with its last value, nan where the attempt picks nothing
    inst = hard.gen_random_matching(3, 6, 12, "adversarial")
    inst = MatchingInstance.make(inst.probs, PatienceModel.survival([1.0, 0.6, 0.3]),
                                 inst.arrivals, edge_weights=inst.edge_weights)
    matcher = AdvGreedyMatcher(solver_by_name("lp"))
    simulate(inst, matcher, SimConfig(1, 400), threads=1)
    tables = matcher._tables(inst)
    checked = 0
    for v, rows in tables.plan_rows.items():
        neigh = tables.neighbor_arrays[v]
        for name, r in rows.index.items():
            free = np.unpackbits(np.frombuffer(name, np.uint8), bitorder="little")[:neigh.size]
            star, items = star_for(inst, v, neigh[free.astype(bool)].tolist())
            rsp = solver_by_name("lp").solve(star).policy
            want = np.full((neigh.size, neigh.size), np.nan)
            pick = np.cumsum(rsp.attempt_probs, axis=1)
            pick[~rsp.attempt_probs.any(axis=1)] = np.nan
            want[:star.n, :star.n], want[:star.n, star.n:] = pick, pick[:, -1:]
            assert rows.kind[r] == 2 and rows.length[r] == star.n
            assert rows.items[r, :star.n].tolist() == items
            assert np.array_equal(rows.cum[r], want, equal_nan=True)
            checked += 1
    assert checked > 20


@pytest.mark.parametrize("rate", [0.0, 1e-17, 0.3, 1.0])
def test_adv_greedy_randomized_plans_under_a_global_hazard_rate(rate):
    # every global-hazard budget is read off the rate's geometric curve, where
    # a rate of 1e-17 gives a curve of ones, as 0.0 does
    inst = hard.gen_random_matching(5, 4, 6, "adversarial")
    inst = MatchingInstance.make(inst.probs, PatienceModel.constant_hazard(rate=rate),
                                 inst.arrivals, edge_weights=inst.edge_weights)
    _assert_same(inst, AdvGreedyMatcher(solver_by_name("lp")), SimConfig(3, 200))


class _GlobalRateLpBox(StarSolver):
    """The LP box's plans, solved as if every star's patience were one
    global hazard rate of 0.3."""

    def plan(self, batch):
        rate = (PatienceModel.constant_hazard(rate=0.3),)
        return solver_by_name("lp").plan(dataclasses.replace(batch, patience=rate))


def test_randomized_plans_of_a_per_item_rate_type_raise():
    # per-item hazard rates have no budget curve: the built-in lp box raises
    # when it plans, and this box's randomized plans reach the walk and the
    # exact value, which raise there
    base = hard.gen_random_matching(5, 4, 6, "adversarial")
    inst = MatchingInstance.make(base.probs,
                                 PatienceModel.constant_hazard(rates=[0.1, 0.2, 0.3, 0.4]),
                                 base.arrivals, edge_weights=base.edge_weights)
    matcher = AdvGreedyMatcher(_GlobalRateLpBox("lp", 0.5))
    with pytest.raises(PatienceVariantError):
        simulate(inst, matcher, SimConfig(1, 50), threads=1)
    assert matcher._tables(inst).plan_rows  # planned, then raised in the walk
    with pytest.raises(PatienceVariantError):
        matcher.exact_value(inst)


@pytest.mark.parametrize("rule", ["first", "last"])
def test_simple_greedy_batch_with_patience_above_one(rule):
    # later arrivals find earlier ones' matches and probe past them
    inst = hard.gen_random_matching(21, 6, 12, "adversarial", max_theta=3)
    assert max(p.theta for p in inst.patience) > 1
    _assert_same(inst, SimpleGreedyMatcher(rule), SimConfig(5, 400))


def test_hard_family_crosses_a_tape_refill():
    # 500 arrivals read up to 500 uniforms: past two RandomTape refills
    inst = hard.gen_simple_greedy_hard(4, 100, v0_cap=400)
    matcher = SimpleGreedyMatcher("first")
    assert matcher.draw_bound(inst) > 2 * TAPE_BLOCK
    _assert_same(inst, matcher, SimConfig(3, 60))


def _long_run(length):
    """Two distinct early arrivals, then ``length`` arrivals of one type
    whose three neighbors rarely match, so that its scans cross chunks."""
    probs = np.array([[0.3, 0.0, 0.004], [0.0, 0.5, 0.01], [0.2, 0.2, 0.02]])
    return MatchingInstance.make(probs, PatienceModel.deterministic(1),
                                 ArrivalModel.adversarial([0, 1] + [2] * length),
                                 edge_weights=np.arange(1.0, 10.0).reshape(3, 3))


@pytest.mark.parametrize("run_floats", [matching.RUN_FLOATS, 100])
@pytest.mark.parametrize("rule", ["first", "last"])
def test_a_long_run_scans_across_chunks(run_floats, rule, monkeypatch):
    # scan chunks double from 64 columns; with 100 uniforms a chunk, 300
    # rows scan one column at a time
    monkeypatch.setattr(matching, "RUN_FLOATS", run_floats)
    _assert_same(_long_run(600), SimpleGreedyMatcher(rule), SimConfig(4, 300))


def test_a_long_run_past_its_row_raises():
    class Understated(SimpleGreedyMatcher):
        def draw_bound(self, instance):
            return 150

    with pytest.raises(StochmatchError, match="a trial read more than its 150 uniforms"):
        simulate(_long_run(600), Understated("first"), SimConfig(0, 50), threads=1)


def test_small_batches_give_the_same_report(monkeypatch):
    inst = hard.gen_random_matching(7, 4, 6, "adversarial", max_theta=3)
    matcher = SimpleGreedyMatcher("last")
    config = SimConfig(8, 1010)
    whole = simulate(inst, matcher, config, threads=1)
    width = max(1, matcher.draw_bound(inst))
    assert width < TAPE_BLOCK
    # batches of 40 trials and a last batch of 10
    monkeypatch.setattr(sim, "BLOCK_FLOATS", 40 * width)
    split = simulate(inst, matcher, config, threads=1)
    assert whole.mean == split.mean and whole.stddev == split.stddev
    assert np.array_equal(whole.match_freq, split.match_freq)


def test_iid_run_across_a_block_edge_equals_the_scalar_walk():
    # a full first block takes the vectorized pass and the 50-trial second
    # block the generator; every trial is still its own stream
    instance = hard.gen_random_matching(60_003, m=5, n_types=2, arrival_kind="iid",
                                        max_theta=2, horizon=7)
    matcher = iid_matcher(solve_prophet_lp(instance))
    width = max(1, matcher.draw_bound(instance))
    assert sim._philox_pays(CHUNK_TRIALS, width) and not sim._philox_pays(50, width)
    config = SimConfig(seed=17, trials=CHUNK_TRIALS + 50)
    mean, stddev, freq = _scalar_report(instance, matcher, config)
    report = simulate(instance, matcher, config, threads=1)
    assert report.mean == mean and report.stddev == stddev
    assert np.array_equal(report.match_freq, freq)


def test_block_rows_are_successive_tape_refills():
    # a row of any width is a prefix of the tape: within the first refill
    # (24, 1), exactly one refill, and across refills (2 * 192 + 24)
    for width in (1, 24, TAPE_BLOCK, 2 * TAPE_BLOCK + 24):
        block = sim.trial_uniforms(11, 40, 3, width)
        for j in range(3):
            tape = RandomTape(trial_generator(11, 40 + j))
            drawn = [tape.u() for _ in range(width)]
            assert np.array_equal(block[j], drawn)
            assert np.array_equal(trial_generator(11, 40 + j).random(width), block[j])


def test_understated_draw_bound_raises():
    class Understated(SimpleGreedyMatcher):
        def draw_bound(self, instance):
            return 1

    inst = hard.gen_simple_greedy_hard(4, 100, v0_cap=400)
    with pytest.raises(StochmatchError, match="uniforms"):
        simulate(inst, Understated("first"), SimConfig(0, 50), threads=1)


class _Randomizing(StarSolver):
    """A box named ``dp`` whose plans are the LP policy's, randomized."""

    def plan(self, batch):
        return solver_by_name("lp").plan(batch)


@pytest.mark.parametrize("kind", ["deterministic", "survival", "global-hazard"])
def test_adv_greedy_bound_is_the_policy_walks_whatever_the_box(kind):
    # a randomized plan reads a budget and one uniform per attempt, within
    # a policy walk's reads, so no box changes the bound
    inst = hard.gen_random_matching(3, 10, 60, "adversarial")
    patience = {"deterministic": inst.patience,
                "survival": PatienceModel.survival([1.0, 0.6, 0.3]),
                "global-hazard": PatienceModel.constant_hazard(rate=0.3)}[kind]
    inst = MatchingInstance.make(inst.probs, patience, inst.arrivals,
                                 edge_weights=inst.edge_weights)
    bound = SimpleGreedyMatcher().draw_bound(inst)
    for solver in (None, solver_by_name("lp"), _Randomizing("dp", 1.0)):
        assert AdvGreedyMatcher(solver).draw_bound(inst) == bound


def test_randomized_plans_from_a_box_named_otherwise_walk_as_the_lp_boxs():
    # the walk reads a plan's kind, not its box's name
    inst = hard.gen_random_matching(2, 3, 4, "adversarial")
    config = SimConfig(0, 200)
    renamed = AdvGreedyMatcher(_Randomizing("dp", 1.0))
    assert renamed.draw_bound(inst) == SimpleGreedyMatcher().draw_bound(inst)
    ours = simulate(inst, renamed, config, threads=1)
    theirs = simulate(inst, AdvGreedyMatcher(solver_by_name("lp")), config, threads=1)
    assert ours.mean == theirs.mean and ours.stddev == theirs.stddev
    assert np.array_equal(ours.match_freq, theirs.match_freq)
    assert any(rows.cum is not None for rows in renamed._tables(inst).plan_rows.values())


def test_star_solver_errors_reach_the_caller_as_themselves():
    # only a read past the end of a block row is reported as an overrun
    class Broken(StarSolver):
        def plan(self, batch):
            raise IndexError("solver bug")

    inst = hard.gen_random_matching(2, 3, 4, "adversarial")
    with pytest.raises(IndexError, match="solver bug"):
        simulate(inst, AdvGreedyMatcher(Broken("dp", 1.0)), SimConfig(0, 20), threads=1)


def test_wrong_arrival_model_is_a_capability_error():
    iid = hard.gen_random_matching(1, 3, 2, "iid", horizon=3)
    adv = hard.gen_random_matching(1, 3, 2, "adversarial")
    matcher = _policy_matcher(iid, np.random.default_rng(0), skip=False)
    with pytest.raises(CapabilityError):
        simulate(iid, SimpleGreedyMatcher(), SimConfig(0, 100), threads=1)
    with pytest.raises(CapabilityError):
        simulate(adv, matcher, SimConfig(0, 100), threads=1)


def test_survival_bound_stops_at_the_curve_support():
    # trailing zeros of a survival curve allow no probe, and a block row is
    # a prefix of the trial's stream, so the bound stops at the last positive q
    patience = PatienceModel.survival([1.0, 0.5, 0.0, 0.0])
    assert patience.max_probes(4) == 2 and patience.max_probes(1) == 1
    assert PatienceModel.deterministic(-1).max_probes(3) == 0
    assert PatienceModel.deterministic(5).max_probes(3) == 3
    assert PatienceModel.constant_hazard(rate=0.5).max_probes(3) == 3
    rng = np.random.default_rng(4)
    probs = rng.uniform(0.2, 0.9, (4, 3))
    adv = MatchingInstance.make(probs, patience, ArrivalModel.adversarial([2, 0, 1]),
                                edge_weights=rng.random((4, 3)))
    # a budget draw, then a success draw per probe; the LP solver's plans
    # read one uniform per attempt
    assert SimpleGreedyMatcher().draw_bound(adv) == 3 * (1 + 2)
    assert AdvGreedyMatcher().draw_bound(adv) == 3 * (1 + 2)
    _assert_same(adv, SimpleGreedyMatcher(), SimConfig(1, 300))
    _assert_same(adv, AdvGreedyMatcher(), SimConfig(2, 300))
    iid = MatchingInstance.make(probs, patience, ArrivalModel.iid([0.5, 0.5, 0.5], 4),
                                edge_weights=rng.random((4, 3)))
    full = Policy((3, 2, 1, 0))
    matcher = PolicyLpMatcher(ProphetLpResult(
        mixture=PolicyMixture((((full, 0.4),),) * 3, (0.5, 0.5, 0.5)),
        objective=0.0, w_star=np.zeros(4)), skip=False)
    assert matcher.draw_bound(iid) == 4 * (1 + 1 + 2)
    _assert_same(iid, matcher, SimConfig(3, 300))


def test_one_step_cdf_mixes_types_and_policies():
    # several policies per type, a zero mass, a clipped negative mass,
    # residual mass, a type with q_v = 0 and one whose masses exceed q_v
    q_tv = np.array([[0.3, 0.0, 0.2], [0.1, 0.0, 0.4], [0.25, 0.0, 0.05]])
    inst = MatchingInstance.make(np.full((3, 3), 0.5), PatienceModel.deterministic(2),
                                 ArrivalModel.prophet(q_tv), edge_weights=np.ones((3, 3)))
    q_v = tuple(map(float, q_tv.sum(axis=0)))
    per_type = (((Policy((0, 1)), 0.3), (Policy((2,)), 0.0), (Policy((1, 2)), 0.2)),
                (),
                ((Policy((2, 0)), 0.5), (Policy((0,)), -1e-12), (Policy((1,)), 0.3)))
    matcher = PolicyLpMatcher(ProphetLpResult(mixture=PolicyMixture(per_type, q_v),
                                              objective=0.0, w_star=np.zeros(3)), skip=True)
    tables = matcher._tables(inst)
    # type 0 keeps residual mass on the empty policy; type 2's masses sum above q_v
    masses = [(0, 0.3), (0, 0.0), (0, 0.2), (0, q_v[0] - 0.5), (2, 0.5), (2, 0.0), (2, 0.3)]
    total = {0: q_v[0], 2: 0.8}
    assert tables.type_of.tolist() == [v for v, _ in masses]
    want = np.array([[q_tv[t, v] * mass / total[v] for v, mass in masses] for t in range(3)])
    got = np.diff(tables.cum, axis=1, prepend=0.0)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)
    assert np.allclose(tables.cum[:, -1], q_tv[:, [0, 2]].sum(axis=1), rtol=1e-12)
    assert matcher.draw_bound(inst) == 3 * (1 + 2)


@pytest.mark.parametrize("skip", [False, True])
def test_policy_matcher_simulation_agrees_with_exact_value(skip):
    # random mixtures with several policies for some type, drawn by one
    # uniform per step: the simulated mean sits within 4 standard errors.
    # A value near 0 is left out, because trials that rarely match can show
    # no match at all and estimate a standard error of 0
    compared = 0
    for seed in range(40):
        kinds = [PATIENCE[(seed + k) % len(PATIENCE)] for k in range(1 + seed % 3)]
        instance, rng = _instance(seed, kinds, ("iid", "prophet")[seed % 2])
        matcher = _policy_matcher(instance, rng, skip)
        if max(map(len, matcher.lp_result.mixture.per_type)) < 2:
            continue
        exact = matcher.exact_value(instance)
        if exact < 0.05:
            continue
        report = simulate(instance, matcher, SimConfig(seed, 4000), threads=1)
        assert abs(report.mean - exact) <= 4 * report.stddev / np.sqrt(4000) + 1e-12
        compared += 1
        if compared == 10:
            return
    pytest.fail(f"only {compared} random mixtures had several policies for a type")


def test_a_mixture_that_samples_nothing_reads_one_uniform_per_step():
    inst = hard.gen_random_matching(6, 3, 2, "prophet", horizon=5)
    matcher = PolicyLpMatcher(ProphetLpResult(mixture=PolicyMixture(((), ()), (0.0, 0.0)),
                                              objective=0.0, w_star=np.zeros(3)), skip=False)
    assert matcher.draw_bound(inst) == 5
    tape = RandomTape(trial_generator(0, 0))
    assert matcher(inst, tape).matched == {} and tape.pos == 5
    weights, counts = matcher.run_lockstep(inst, np.random.default_rng(1).random((40, 5)))
    assert not weights.any() and not counts.any()
    _assert_same(inst, matcher, SimConfig(2, 50))
    # one zero column per step, and a uniform of 0.0, on that column, is past it
    cum = matcher._tables(inst).cum
    assert cum.tolist() == [[0.0]] * 5
    _assert_rows_walk_as_the_oracle(matcher, inst, _edge_rows(cum, 5, [0.0]))
    assert matcher.exact_value(inst) == 0.0


@pytest.mark.parametrize("patience, kinds", [
    # the budget is spent after the first probe: the skips before the next
    # entry are still recorded, and the arrival stops at that entry
    (PatienceModel.deterministic(1), ["real", "skip", "skip"]),
    # a balk ends the arrival before the skips
    (PatienceModel.constant_hazard(rate=1.0), ["real"]),
    (PatienceModel.constant_hazard(rate=0.0), ["real", "skip", "skip", "real"]),
])
def test_prophet_trace_records_skips_until_the_arrival_ends(patience, kinds):
    # vertex 0 cannot match; vertices 1 and 2 weigh below half their LP reward
    inst = MatchingInstance.make([[0.0], [0.5], [0.5], [0.5]], patience,
                                 ArrivalModel.prophet([[1.0]]), edge_weights=np.ones((4, 1)))
    matcher = PolicyLpMatcher(ProphetLpResult(
        mixture=PolicyMixture((((Policy((0, 1, 2, 3)), 1.0),),), (1.0,)),
        objective=0.0, w_star=np.array([0.0, 4.0, 4.0, 0.0])), skip=True)
    for i in range(6):
        trace = _called_trace(matcher, inst, 0, i)
        assert [r.kind for r in trace] == kinds
        assert [r.vertex for r in trace] == [0, 1, 2, 3][:len(kinds)]
        assert [r.attempt for r in trace] == [1, 1, 1, 2][:len(kinds)]


def test_adv_greedy_lp_plan_logs_a_redrawn_item_as_simulated():
    inst = hard.gen_random_matching(1, 4, 3, "adversarial", max_theta=3)
    matcher = AdvGreedyMatcher(solver_by_name("lp"))
    for i in range(50):
        trace = _called_trace(matcher, inst, 0, i)
        for k, rec in enumerate(trace):
            if rec.kind == "simulated":
                earlier = [(r.step, r.vertex, r.kind) for r in trace[:k]]
                assert (rec.step, rec.vertex, "real") in earlier
                return
    pytest.fail("no LP plan re-drew an item in 50 trials")
