"""Each check of the benchmark accepts the reference value and rejects a
perturbed objective, mean or exact value.

    python3 -m pytest perfbench/tests
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stochmatch import hard_instances as hard
from stochmatch import lp
from stochmatch.matching import (
    AdvGreedyMatcher,
    build_benchmark_lp,
    iid_matcher,
    prophet_matcher,
    solve_prophet_lp,
    solve_prophet_lp_enumerated,
)
from stochmatch.simulate import SimConfig, SimReport, brute_force_offline_opt, simulate
from stochmatch.stars import (
    brute_force_optimal,
    build_arbitrary_patience_lp,
    solve_arbitrary_patience,
    solver_by_name,
)

import checks
import metrics
import workloads

ROOT = Path(__file__).resolve().parents[2]


def report(mean, stddev, trials):
    return SimReport(mean=mean, stddev=stddev, half_width=0.0, match_freq=np.zeros(1),
                     trials=trials, confidence=0.999, low_trial_count=False)


# ---------------------------------------------------------------------------
# Closed forms and simulated means
# ---------------------------------------------------------------------------

def test_closed_form_small_cases_by_hand():
    assert checks.simple_greedy_closed_form(1, 1) == 1.0
    assert checks.simple_greedy_closed_form(1, 2) == 1.25  # 1 + (1/2)^2
    assert checks.simple_greedy_closed_form(2, 2) == 2.0


def test_closed_form_agrees_with_the_log_domain_formula():
    for k, n in ((4, 100), (16, 400), (3, 7)):
        assert checks.simple_greedy_closed_form(k, n) == pytest.approx(
            hard.simple_greedy_exact_value(k, n), rel=1e-12)


def test_simulated_simple_greedy_accepted_and_perturbed_mean_rejected():
    k, n, cap = 4, 100, 400
    inst = hard.gen_simple_greedy_hard(k, n, v0_cap=cap)
    from stochmatch.matching import SimpleGreedyMatcher

    r = simulate(inst, SimpleGreedyMatcher("first"), SimConfig(7, 2000), threads=1)
    mean, se = checks.pooled([r])
    expected = checks.simple_greedy_closed_form(k, n)
    assert checks.within_se(mean, expected, se)
    assert not checks.within_se(mean + 5 * se, expected, se)
    assert not checks.within_se(expected * 1.05, expected, se)


def test_pooled_mean_and_standard_error():
    mean, se = checks.pooled([report(1.0, 2.0, 100), report(3.0, 1.0, 25)])
    assert mean == 2.0
    assert se == pytest.approx(math.sqrt(4.0 / 100 + 1.0 / 25) / 2)


def test_within_se_boundary():
    assert checks.within_se(1.0 + 3.9e-3, 1.0, 1e-3)
    assert not checks.within_se(1.0 + 4.1e-3, 1.0, 1e-3)


def test_guarantee_accepts_at_bound_and_rejects_below_half_width():
    se = 0.01
    assert checks.guarantee_holds(0.5, se, 0.5, 1.0)
    assert checks.guarantee_holds(0.5 - 3.0 * se, se, 0.5, 1.0)  # within 3.29 se
    assert not checks.guarantee_holds(0.5 - 3.5 * se, se, 0.5, 1.0)


# ---------------------------------------------------------------------------
# LP references
# ---------------------------------------------------------------------------

def small_lp():
    # max x + y  s.t.  x + 2y <= 4,  3x + y <= 6  ->  (1.6, 1.2), value 2.8
    return lp.LpProblem.make([1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], ["<=", "<="], [4.0, 6.0])


def test_highs_objective_of_known_lps():
    assert checks.highs_objective(small_lp()) == pytest.approx(2.8, abs=1e-9)
    tight = build_arbitrary_patience_lp(hard.gen_tight_example(0.1))
    assert checks.highs_objective(tight) == pytest.approx(0.1, abs=1e-9)


def test_highs_objective_handles_ge_eq_rows_and_bounds():
    # max x - y  s.t.  x + y = 2,  x >= 0.5 (as a row),  x <= 1.5 (bound)
    problem = lp.LpProblem.make([1.0, -1.0], [[1.0, 1.0], [1.0, 0.0]], ["=", ">="],
                                [2.0, 0.5], ub=[1.5, np.inf])
    assert checks.highs_objective(problem) == pytest.approx(1.0, abs=1e-9)


def test_lp_solution_check_accepts_reference_and_rejects_perturbations():
    problem = small_lp()
    sol = lp.solve(problem)
    ref = checks.highs_objective(problem)
    residual = lp.solution_residuals(problem, sol)["primal"]
    assert checks.lp_solution_ok(sol.objective, residual, ref)
    assert not checks.lp_solution_ok(sol.objective + 1e-6, residual, ref)
    assert not checks.lp_solution_ok(None, residual, ref)
    bad_x = replace(sol, x=sol.x + np.array([0.01, 0.0]))
    assert not checks.lp_solution_ok(
        sol.objective, lp.solution_residuals(problem, bad_x)["primal"], ref)


def test_full_policy_lp_matches_the_enumerated_oracle():
    for seed, kind in ((3, "iid"), (4, "prophet")):
        inst = hard.gen_random_matching(seed, 4, 3, kind, max_theta=2, horizon=4)
        ref = checks.full_policy_lp_objective(inst)
        assert ref == pytest.approx(solve_prophet_lp_enumerated(inst).objective, abs=1e-7)
        res = solve_prophet_lp(inst)
        assert checks.colgen_ok(res.objective, res.status, ref)
        assert not checks.colgen_ok(res.objective - 1e-5, res.status, ref)
        assert not checks.colgen_ok(res.objective, "column_cap", ref)


# ---------------------------------------------------------------------------
# Exact values
# ---------------------------------------------------------------------------

def test_policy_matcher_guarantees():
    for seed, kind, make, factor in ((5, "iid", iid_matcher, checks.IID_FACTOR),
                                     (6, "prophet", prophet_matcher, checks.PROPHET_FACTOR)):
        inst = hard.gen_random_matching(seed, 4, 3, kind, max_theta=2, horizon=5)
        res = solve_prophet_lp(inst)
        exact = make(res).exact_value(inst)
        assert checks.exact_guarantee_ok(exact, factor, res.objective)
        assert not checks.exact_guarantee_ok(factor * res.objective - 1e-6, factor, res.objective)


def test_optimum_chain_accepts_the_tiny_chain_and_rejects_perturbed_values():
    inst = workloads.with_patience(hard.gen_random_matching(11, 4, 3, "adversarial"), 2)
    greedy = AdvGreedyMatcher(solver_by_name("dp")).exact_value(inst)
    offline = brute_force_offline_opt(inst)
    lp2 = checks.highs_objective(build_benchmark_lp(inst, True))
    lp6 = checks.highs_objective(build_benchmark_lp(inst, False))
    assert checks.optimum_chain_ok(greedy, offline, lp2, lp6)
    assert not checks.optimum_chain_ok(offline + 1e-6, offline, lp2, lp6)
    assert not checks.optimum_chain_ok(greedy, lp2 + 1e-6, lp2, lp6)
    assert not checks.optimum_chain_ok(greedy, offline, lp6 + 1e-6, lp6)


def test_randomized_value_bounds():
    star = hard.gen_random_star(12, 6, "survival")
    from stochmatch.stars import eval_randomized_exact

    value = eval_randomized_exact(star, solve_arbitrary_patience(star).policy)
    lp1 = checks.highs_objective(build_arbitrary_patience_lp(star))
    opt = brute_force_optimal(star).expected_value
    assert checks.randomized_value_ok(value, lp1, opt)
    assert not checks.randomized_value_ok(opt + 1e-6, lp1, opt)
    assert not checks.randomized_value_ok(0.5 * lp1 - 1e-6, lp1, opt)


# ---------------------------------------------------------------------------
# Whole-workload checks on reduced workloads
# ---------------------------------------------------------------------------

class SmallMc(workloads.McTrials):
    SG_OPS, SG_TRIALS = 2, 400
    IID_INSTANCES, IID_TRIALS = 2, 2000
    PROPHET_INSTANCES, PROPHET_TRIALS = 2, 2000
    ADV_SHAPE = (6, 20)
    ADV_INSTANCES, ADV_OPS_EACH, ADV_TRIALS = 1, 2, 1000


class SmallLp(workloads.LpSolve):
    LP1_STARS = ((8, range(2)),)
    LP2_SHAPE, LP2_INSTANCES = (4, 4), 2
    COLGEN_SHAPE, COLGEN_INSTANCES = (5, 4, 5), 1


class SmallExact(workloads.ExactEval):
    GREEDY_SHAPE, GREEDY_INSTANCES = (6, 6), 2
    POLICY_SHAPE, POLICY_INSTANCES = (5, 3, 5), 1
    OFFLINE_SHAPE, OFFLINE_INSTANCES = (3, 3), 2
    STAR_ITEMS, STAR_BATCHES, STAR_BATCH = 5, 1, 4


def run_once(workload, seed=1):
    state = workload.precompute(workload.generate(seed), None)
    ops = workload.ops(state, None)
    return state, ops, [op.run() for op in ops]


def test_mc_trials_check_accepts_outputs_and_rejects_a_perturbed_mean():
    w = SmallMc()
    state, ops, results = run_once(w)
    assert w.check(state, results).problems == []
    for group in metrics.GROUPS:
        k = next(i for i, op in enumerate(ops) if op.kind == group)
        bad = list(results)
        bad[k] = replace(results[k], mean=results[k].mean + 0.5)
        assert w.check(state, bad).problems, group


def test_lp_solve_check_accepts_outputs_and_rejects_perturbed_objectives():
    w = SmallLp()
    state, ops, results = run_once(w)
    assert all(w.check(state, results).ok)
    for kind in ("lp1", "lp2", "colgen"):
        k = next(i for i, op in enumerate(ops) if op.kind == kind)
        bad = list(results)
        bad[k] = replace(results[k], objective=results[k].objective + 1e-5)
        assert not w.check(state, bad).ok[k], kind


def test_exact_eval_check_accepts_outputs_and_rejects_perturbed_values():
    w = SmallExact()
    state, ops, results = run_once(w)
    verdict = w.check(state, results)
    assert all(verdict.ok) and verdict.problems == []
    for kind in ("iid", "prophet", "offline-opt"):
        k = next(i for i, op in enumerate(ops) if op.kind == kind)
        bad = list(results)
        bad[k] = results[k] - 0.5 if kind != "offline-opt" else results[k] + 10.0
        assert not w.check(state, bad).ok[k], kind
    k = next(i for i, op in enumerate(ops) if op.kind == "randomized")
    bad = list(results)
    bad[k] = [v + 10.0 for v in results[k]]
    assert not w.check(state, bad).ok[k]
    for kind in ("adv-greedy", "simple-greedy"):
        bad = [v + 0.5 if op.kind == kind else v for op, v in zip(ops, results)]
        assert w.check(state, bad).problems, kind


def test_op_seeds_depend_only_on_the_workload_seed_and_path():
    assert workloads.derive(1, 2, 3) == workloads.derive(1, 2, 3)
    assert len({workloads.derive(s, 2, i) for s in range(3) for i in range(3)}) == 9


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
