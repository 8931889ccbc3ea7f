import gc
import importlib
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exact_oracles as oracle
from stochmatch import hard_instances as hard
from stochmatch.instances import (
    ArrivalModel,
    CapabilityError,
    CapacityError,
    MatchingInstance,
    PatienceModel,
    Policy,
    StochmatchError,
    validate,
)
from stochmatch.matching import (
    TAPE_BLOCK,
    AdvGreedyMatcher,
    RandomTape,
    SimpleGreedyMatcher,
    benchmark_lp_value,
    iid_matcher,
    solve_prophet_lp,
)
from stochmatch.simulate import (
    CHUNK_TRIALS,
    SimConfig,
    brute_force_offline_opt,
    simulate,
    thread_count,
    trial_generator,
)
from stochmatch.stars import StarSolver, eval_policy_exact, eval_randomized_exact, solver_by_name
from walk_oracle import realized_patience

sim = importlib.import_module("stochmatch.simulate")  # the package exports a same-named function


def _unit_instance(p=1.0, w=1.0):
    return MatchingInstance.make([[p]], PatienceModel.deterministic(1),
                                 ArrivalModel.adversarial([0]), vertex_weights=[w])


def test_certain_match_has_zero_variance():
    rep = simulate(_unit_instance(), AdvGreedyMatcher(), SimConfig(seed=7, trials=500))
    assert rep.mean == 1.0
    assert rep.stddev == 0.0
    assert rep.match_freq[0] == 1.0
    assert rep.low_trial_count


def test_bernoulli_mean_within_tolerance():
    rep = simulate(_unit_instance(p=0.5), AdvGreedyMatcher(),
                   SimConfig(seed=1, trials=100_000))
    se = rep.stddev / np.sqrt(rep.trials)
    assert abs(rep.mean - 0.5) <= 4 * se


def test_uncapped_simple_greedy_family_agrees_with_its_closed_form():
    # 40,100 arrivals: 100 early ones, then one run of 40,000 identical
    # late ones, walked success by success
    inst = hard.gen_simple_greedy_hard(4, 100)
    assert inst.arrivals.n_steps == 40_100
    rep = simulate(inst, SimpleGreedyMatcher("first"), SimConfig(seed=5, trials=2000), threads=1)
    se = rep.stddev / np.sqrt(rep.trials)
    assert abs(rep.mean - hard.simple_greedy_exact_value(4, 100)) <= 4 * se


def test_reports_are_reproducible():
    inst = hard.gen_random_matching(3, m=3, n_types=3, arrival_kind="adversarial")
    cfg = SimConfig(seed=123, trials=3000)
    a = simulate(inst, AdvGreedyMatcher(solver_by_name("dp")), cfg)
    b = simulate(inst, AdvGreedyMatcher(solver_by_name("dp")), cfg)
    assert a.mean == b.mean and a.stddev == b.stddev
    assert np.array_equal(a.match_freq, b.match_freq)


def test_parallel_equals_serial():
    # two chunks, so that two workers start
    inst = hard.gen_random_matching(3, m=3, n_types=3, arrival_kind="adversarial")
    cfg = SimConfig(seed=9, trials=CHUNK_TRIALS + 1200)
    serial = simulate(inst, AdvGreedyMatcher(solver_by_name("dp")), cfg, threads=1)
    parallel = simulate(inst, AdvGreedyMatcher(solver_by_name("dp")), cfg, threads=2)
    assert serial.mean == parallel.mean
    assert serial.stddev == parallel.stddev
    assert np.array_equal(serial.match_freq, parallel.match_freq)


def test_wide_blocks_give_the_same_report_serial_parallel_and_split(monkeypatch):
    # 1,300 uniforms a row: blocks of 3,226 trials, which do not divide
    # CHUNK_TRIALS, so a block edge falls inside the first CHUNK_TRIALS trials
    inst = hard.gen_simple_greedy_hard(4, 100, v0_cap=1200)
    matcher = SimpleGreedyMatcher("first")
    width = matcher.draw_bound(inst)
    assert width > 1024 and CHUNK_TRIALS % (sim.BLOCK_FLOATS // width)
    cfg = SimConfig(seed=3, trials=CHUNK_TRIALS + 100)
    reports = [simulate(inst, matcher, cfg, threads=1), simulate(inst, matcher, cfg, threads=2)]
    monkeypatch.setattr(sim, "BLOCK_FLOATS", 500 * width)
    reports.append(simulate(inst, matcher, cfg, threads=1))
    for rep in reports[1:]:
        assert rep.mean == reports[0].mean and rep.stddev == reports[0].stddev
        assert np.array_equal(rep.match_freq, reports[0].match_freq)


class _CountedLp(StarSolver):
    """The ``lp`` star solver, counting the solves made in this process."""

    calls = 0

    def plan(self, batch):
        _CountedLp.calls += len(batch.present)
        return super().plan(batch)


def test_parallel_run_gives_the_serial_report_with_randomized_plans():
    # two blocks over two workers with the lp box, whose plans may be
    # randomized: the report is the serial one, and the plan rows the caller
    # held are left as they were, so a later run solves the rest again
    inst = hard.gen_random_matching(3, 6, 12, "adversarial")
    cfg = SimConfig(seed=1, trials=CHUNK_TRIALS + 500)
    serial, parallel = (AdvGreedyMatcher(_CountedLp("lp", 0.5)) for _ in range(2))
    first = simulate(inst, serial, cfg, threads=1)
    solved = {v: rows.index.keys() for v, rows in serial._tables(inst).plan_rows.items()}
    assert any((rows.kind == 2).any() for rows in serial._tables(inst).plan_rows.values())
    simulate(inst, parallel, SimConfig(seed=2, trials=20), threads=1)
    held = {v: dict(rows.index) for v, rows in parallel._tables(inst).plan_rows.items()}
    assert held
    second = simulate(inst, parallel, cfg, threads=2)
    assert {v: rows.index for v, rows in parallel._tables(inst).plan_rows.items()} == held
    _CountedLp.calls = 0
    third = simulate(inst, parallel, cfg, threads=1)
    assert _CountedLp.calls == sum(len(keys - held.get(v, {}).keys())
                                   for v, keys in solved.items())
    for rep in (second, third):
        assert rep.mean == first.mean and rep.stddev == first.stddev
        assert np.array_equal(rep.match_freq, first.match_freq)


class _CountedPickles(AdvGreedyMatcher):
    pickled = 0

    def __reduce_ex__(self, protocol):
        type(self).pickled += 1
        return super().__reduce_ex__(protocol)


def test_workers_receive_the_matcher_once(monkeypatch):
    # 20 blocks over at most 2 workers: the matcher goes to each worker
    # once (pickled only where workers do not fork), never with a block
    inst = hard.gen_random_matching(5, 6, 20, "adversarial")
    matcher = _CountedPickles()
    monkeypatch.setattr(sim, "BLOCK_FLOATS", 50 * matcher.draw_bound(inst))
    cfg = SimConfig(seed=2, trials=1000)
    serial = simulate(inst, AdvGreedyMatcher(), cfg, threads=1)
    parallel = simulate(inst, matcher, cfg, threads=2)
    assert _CountedPickles.pickled <= 2
    assert parallel.mean == serial.mean and parallel.stddev == serial.stddev
    assert np.array_equal(parallel.match_freq, serial.match_freq)


@pytest.mark.parametrize("solver", [None, "lp"])
def test_adv_greedy_plans_stay_with_their_instance(solver):
    # a matcher that ran on one instance values the next as a fresh one does
    first = hard.gen_random_matching(1, 4, 5, "adversarial")
    second = hard.gen_random_matching(2, 4, 5, "adversarial")
    cfg = SimConfig(seed=0, trials=2000)
    make = lambda: AdvGreedyMatcher(solver and solver_by_name(solver))  # noqa: E731
    used = make()
    for inst in (first, second, first):
        used_value, used_report = used.exact_value(inst), simulate(inst, used, cfg, threads=1)
        fresh = make()
        assert used_value == fresh.exact_value(inst)
        report = simulate(inst, fresh, cfg, threads=1)
        assert used_report.mean == report.mean and used_report.stddev == report.stddev
        assert np.array_equal(used_report.match_freq, report.match_freq)


def test_thread_count_parses_and_clamps():
    for bad in ("abc", "1.5", "0", "-3", 0):
        with pytest.raises(StochmatchError):
            thread_count(bad)
    cores = os.cpu_count() or 1
    assert thread_count("1000000") == cores
    assert thread_count("1000000", chunks=1) == 1
    assert thread_count(" 2 ", chunks=5) == min(2, cores)
    assert thread_count(None, default=1) >= 1


def test_thread_count_reads_the_environment(monkeypatch):
    monkeypatch.setenv("STOCHMATCH_THREADS", "abc")
    with pytest.raises(StochmatchError):
        thread_count()
    monkeypatch.delenv("STOCHMATCH_THREADS")
    assert thread_count(default=1) == 1


def test_trial_streams_are_pure_functions_of_seed_and_index():
    a = trial_generator(5, 17).random(4)
    b = trial_generator(5, 17).random(4)
    c = trial_generator(5, 18).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# seeds and trial indices are taken mod 2**64, so negative seeds, seeds
# past 2**63 and trial keys that wrap past 2**64 all name valid streams
stream_seeds = st.one_of(st.integers(-2**63, -1), st.integers(0, 2**63 - 1),
                         st.integers(2**63, 2**64 - 1), st.integers(2**64, 2**66))


@settings(max_examples=40, deadline=None)
@given(stream_seeds, st.integers(0, 2**64 + 300), st.integers(1, 300), st.integers(1, 70))
@example(seed=-1, start=2**64 - 3, rows=600, width=18)   # the vectorized pass
@example(seed=2**63, start=0, rows=150, width=121)      # the generator
@example(seed=7, start=5, rows=3, width=2 * TAPE_BLOCK + 3)
@example(seed=3, start=2**64 - 1000, rows=1500, width=45)  # three passes, the last partial
def test_trial_uniforms_rows_are_the_trials_streams(seed, start, rows, width):
    # both paths, and the one the cost rule picks, give each row its
    # trial's stream bit for bit, whatever the width's remainder mod 4 and
    # however many vectorized passes the block takes
    want = np.array([trial_generator(seed, start + j).random(width) for j in range(rows)])
    for block in (sim.trial_uniforms(seed, start, rows, width),
                  sim._philox_uniforms(seed, start, rows, width),
                  sim._generator_uniforms(seed, start, rows, width)):
        assert block.shape == (rows, width) and block.flags.c_contiguous
        assert np.array_equal(block, want)


def test_path_rule_takes_the_vectorized_pass_only_on_many_narrow_rows():
    # the benchmark's IID and prophet blocks (600 rows of 12-18 uniforms)
    # and criteria 6-7's full blocks against AdvGreedy's and SimpleGreedy's
    assert sim._philox_pays(600, 12) and sim._philox_pays(600, 18)
    assert sim._philox_pays(CHUNK_TRIALS, 24)
    assert not sim._philox_pays(150, 112) and not sim._philox_pays(150, 127)
    assert not sim._philox_pays(75, 500) and not sim._philox_pays(CHUNK_TRIALS, 500)
    assert not sim._philox_pays(1, 1) and not sim._philox_pays(20, 8)


def test_vectorized_pass_wraps_without_warnings():
    # the trial keys wrap past 2**64 and every round's key bump wraps too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = sim._philox_uniforms(2**64 - 1, 2**64 - 2, 5, 7)
        sim.trial_uniforms(-1, 2**64 - 1, CHUNK_TRIALS, 9)
    want = [trial_generator(2**64 - 1, 2**64 - 2 + j).random(7) for j in range(5)]
    assert np.array_equal(block, want)


def test_config_rejects_zero_trials():
    with pytest.raises(StochmatchError):
        SimConfig(seed=0, trials=0)


# ---------------------------------------------------------------------------
# exact expected values
# ---------------------------------------------------------------------------

def test_exact_value_trivial_and_star_dispatch():
    assert AdvGreedyMatcher().exact_value(_unit_instance(p=0.5)) == pytest.approx(0.5)
    star = hard.gen_tight_example(0.1)
    assert eval_randomized_exact(star, hard.tight_example_solution(0.1)) == pytest.approx(1 / 18, abs=1e-10)
    from stochmatch.instances import StarInstance
    s = StarInstance.make([2.0], [0.5], PatienceModel.deterministic(1))
    assert eval_policy_exact(s, Policy.of(0)) == pytest.approx(1.0)


def test_exact_vs_simulate_on_tiny_corpus():
    cases = []
    inst = hard.gen_random_matching(40, m=2, n_types=2, arrival_kind="adversarial",
                                    max_theta=2)
    cases.append((inst, AdvGreedyMatcher(solver_by_name("dp"))))
    cases.append((inst, SimpleGreedyMatcher("first")))
    iid = hard.gen_random_matching(41, m=3, n_types=2, arrival_kind="iid", horizon=4)
    cases.append((iid, iid_matcher(solve_prophet_lp(iid))))
    for inst, matcher in cases:
        exact = matcher.exact_value(inst)
        rep = simulate(inst, matcher, SimConfig(seed=11, trials=40_000))
        se = rep.stddev / np.sqrt(rep.trials) + 1e-12
        assert abs(exact - rep.mean) <= 4 * se


# ---------------------------------------------------------------------------
# offline oracle
# ---------------------------------------------------------------------------

def test_offline_opt_examples():
    assert brute_force_offline_opt(_unit_instance(p=0.5)) == pytest.approx(0.5)
    # one offline vertex, two unit-patience arrivals at p = 1/2
    inst = hard.gen_single_offline(2)
    assert brute_force_offline_opt(inst) == pytest.approx(0.75)
    # 2x2, all p = 0.5, theta = 1: probe the diagonal
    inst = MatchingInstance.make(np.full((2, 2), 0.5), PatienceModel.deterministic(1),
                                 ArrivalModel.adversarial([0, 1]), vertex_weights=[1, 1])
    assert brute_force_offline_opt(inst) == pytest.approx(1.0)


def test_offline_opt_never_reprobes_an_edge():
    # one edge, patience 2: a second probe of the same failed edge is illegal,
    # so the optimum is p, not 1-(1-p)^2
    inst = MatchingInstance.make([[0.5]], PatienceModel.deterministic(2),
                                 ArrivalModel.adversarial([0]), vertex_weights=[1.0])
    assert brute_force_offline_opt(inst) == pytest.approx(0.5)


def test_offline_opt_of_an_instance_with_no_online_types_is_zero():
    # it passes validation, and AdvGreedy and LP6 value it at 0 too
    inst = MatchingInstance.make(np.zeros((2, 0)), (), ArrivalModel.adversarial([]),
                                 vertex_weights=[1, 1])
    assert validate(inst).ok
    assert brute_force_offline_opt(inst) == 0.0
    assert AdvGreedyMatcher().exact_value(inst) == 0.0 and benchmark_lp_value(inst) == 0.0


def test_offline_opt_rejects_stochastic_patience():
    inst = MatchingInstance.make([[0.5]], PatienceModel.survival([1.0]),
                                 ArrivalModel.adversarial([0]), vertex_weights=[1.0])
    with pytest.raises(CapabilityError):
        brute_force_offline_opt(inst)


@pytest.mark.parametrize("n", [4, 16, 40])
def test_offline_opt_of_identical_types_is_the_closed_form(n, monkeypatch):
    # the n arrivals are one class of identical types: n + 1 states, not 2^n
    monkeypatch.setattr(sim, "OFFLINE_OPT_STATE_CAP", n + 1)
    assert brute_force_offline_opt(hard.gen_single_offline(n)) == pytest.approx(
        hard.single_offline_best_value(n), rel=0.0, abs=1e-12)


def test_offline_opt_state_cap_counts_reachable_states(monkeypatch):
    # distinct types, so the recursion's memo holds every reachable state once
    inst = hard.gen_random_matching(801, m=3, n_types=3, arrival_kind="adversarial", max_theta=2)
    memo: dict = {}
    expected = oracle.offline_opt(inst, memo)
    monkeypatch.setattr(sim, "OFFLINE_OPT_STATE_CAP", len(memo) - 1)
    with pytest.raises(CapacityError):
        brute_force_offline_opt(inst)
    monkeypatch.setattr(sim, "OFFLINE_OPT_STATE_CAP", len(memo))
    assert brute_force_offline_opt(inst) == expected


def test_exact_values_do_not_import_numpy_ma():
    # numpy.ma costs about 10 ms to import, and np.unique's first call imports it
    code = ("import sys\n"
            "import stochmatch\n"
            "from stochmatch import hard_instances as hard\n"
            "from stochmatch.matching import iid_matcher, solve_prophet_lp\n"
            "from stochmatch.simulate import brute_force_offline_opt\n"
            "inst = hard.gen_random_matching(7, 4, 3, 'iid', horizon=4)\n"
            "iid_matcher(solve_prophet_lp(inst)).exact_value(inst)\n"
            "brute_force_offline_opt(hard.gen_random_matching(8, 4, 5, 'adversarial',"
            " max_theta=2))\n"
            "print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(sim.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout == "False\n"


@pytest.mark.parametrize("seed", range(8))
def test_no_matcher_beats_offline_opt(seed):
    inst = hard.gen_random_matching(800 + seed, m=3, n_types=3,
                                    arrival_kind="adversarial", max_theta=2)
    opt = brute_force_offline_opt(inst)
    from stochmatch.matching import benchmark_lp_value
    lp2 = benchmark_lp_value(inst, include_star_constraints=True)
    lp6 = benchmark_lp_value(inst)
    assert opt <= lp2 + 1e-7 <= lp6 + 2e-7
    for matcher in (AdvGreedyMatcher(solver_by_name("dp")), SimpleGreedyMatcher()):
        assert matcher.exact_value(inst) <= opt + 1e-9


def _garbage_after(call):
    """Objects that only the cycle collector frees after ``call()``."""
    call()  # warm imports and caches
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def test_exact_dps_leave_no_reference_cycles():
    adv = hard.gen_random_matching(4, 6, 8, "adversarial")
    iid = hard.gen_random_matching(5, 4, 3, "iid", horizon=5)
    policy = iid_matcher(solve_prophet_lp(iid))
    tiny = hard.gen_random_matching(9, 4, 3, "adversarial")
    assert _garbage_after(lambda: AdvGreedyMatcher().exact_value(adv)) == 0
    assert _garbage_after(lambda: SimpleGreedyMatcher().exact_value(adv)) == 0
    assert _garbage_after(lambda: policy.exact_value(iid)) == 0
    assert _garbage_after(lambda: brute_force_offline_opt(tiny)) == 0


# ---------------------------------------------------------------------------
# patience realization
# ---------------------------------------------------------------------------

def test_realized_patience_matches_survival_curve():
    q = (1.0, 0.7, 0.7, 0.2)
    pat = PatienceModel.survival(q)
    tape = RandomTape(trial_generator(0, 0))
    n = 200_000
    counts = np.zeros(6)
    for _ in range(n):
        k = realized_patience(pat, 6, tape)
        counts[:k] += 1  # survival tallies
    emp = counts / n
    for theta in range(4):
        assert abs(emp[theta] - q[theta]) < 4 * np.sqrt(0.25 / n) + 1e-12
    assert emp[4] == 0.0


def test_realized_patience_geometric_global_rate():
    pat = PatienceModel.constant_hazard(rate=0.4)
    tape = RandomTape(trial_generator(3, 1))
    n = 200_000
    at_least_3 = sum(1 for _ in range(n) if realized_patience(pat, 10, tape) >= 3)
    assert abs(at_least_3 / n - 0.6 ** 2) < 4 * np.sqrt(0.25 / n)
