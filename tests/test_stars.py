import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeWarning, linprog

from stochmatch import hard_instances as hard
from stochmatch import lp
from stochmatch.instances import (
    CapacityError,
    PatienceModel,
    PatienceVariantError,
    Policy,
    StarInstance,
)
from stochmatch.stars import (
    ZERO_SURVIVAL,
    RandomizedStarPolicy,
    StarBatch,
    _distinct_rows,
    _lp_survival,
    brute_force_optimal,
    build_arbitrary_patience_lp,
    enumerate_policies,
    enumerated_orders,
    eval_policy_exact,
    eval_randomized_exact,
    order_match,
    policy_match_probabilities,
    price,
    randomized_match_probabilities,
    solve_arbitrary_patience,
    solve_constant_hazard,
    solve_deterministic_patience,
    solver_by_name,
)

HAZARD_PAIR = StarInstance.make([10.0, 6.0], [0.5, 0.9],
                                PatienceModel.constant_hazard(rates=[0.2, 0.1]))


# ---------------------------------------------------------------------------
# eval_policy_exact
# ---------------------------------------------------------------------------

def scalar_walk(star: StarInstance, policy: Policy) -> list[float]:
    """Per entry of ``policy``, the probability that probing it matches, one
    probe at a time: the reference for ``order_match``."""
    p = star.probs
    out = []
    if star.patience.is_hazard:
        r = star.patience.hazard_rates(star.n).tolist()
        alive = 1.0
        for i in policy.order:
            out.append(alive * p[i])
            alive *= 1.0 - (p[i] + (1.0 - p[i]) * r[i])
    else:
        curve = star.patience.survival_curve(star.n).tolist()
        fail = 1.0
        for k, i in enumerate(policy.order):
            out.append(curve[k] * fail * p[i])
            fail *= 1.0 - p[i]
    return out


def scalar_value(star: StarInstance, policy: Policy) -> float:
    total = 0.0
    for i, pr in zip(policy.order, scalar_walk(star, policy)):
        total += pr * star.weights[i]
    return total


@st.composite
def order_batches(draw):
    """A star of any patience kind (budgets from -1, per-item hazard rates,
    zero-probability items) and a few probing orders of it."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["deterministic", "survival", "global-hazard", "item-hazard"]))
    if kind == "deterministic":
        patience = PatienceModel.deterministic(draw(st.integers(-1, n + 1)))
    elif kind == "survival":
        q = np.minimum.accumulate(np.sort(rng.random(int(rng.integers(1, n + 2))))[::-1])
        q[0] = 1.0
        patience = PatienceModel.survival(q)
    elif kind == "global-hazard":
        patience = PatienceModel.constant_hazard(rate=float(rng.choice([0.0, rng.random(), 1.0])))
    else:
        patience = PatienceModel.constant_hazard(rates=rng.random(n))
    star = StarInstance.make(rng.random(n) * 3.0, rng.random(n) * (rng.random(n) < 0.8), patience)
    policies = [Policy(tuple(int(i) for i in rng.permutation(n)[:int(rng.integers(0, n + 1))]))
                for _ in range(draw(st.integers(1, 6)))]
    return star, policies


@settings(max_examples=300, deadline=None)
@given(order_batches())
def test_order_match_rows_equal_one_row_calls_and_the_scalar_walk(case):
    star, policies = case
    rng = np.random.default_rng(len(policies))
    orders = rng.integers(0, star.n, (len(policies), star.n))  # padding is never read
    for row, pol in zip(orders, policies):
        row[:len(pol)] = pol.order
    batch = order_match(star.probs, star.patience, orders, [len(pol) for pol in policies])
    for row, pol in zip(batch, policies):
        assert np.array_equal(row, policy_match_probabilities(star, pol))
        assert row[list(pol.order)].tolist() == scalar_walk(star, pol)
        assert eval_policy_exact(star, pol) == scalar_value(star, pol)


def test_eval_certain_single_item():
    star = StarInstance.make([1.0], [1.0], PatienceModel.deterministic(1))
    assert eval_policy_exact(star, Policy.of(0)) == 1.0


def test_eval_hazard_pair_hand_expansion():
    assert eval_policy_exact(HAZARD_PAIR, Policy.of(0, 1)) == pytest.approx(7.16, abs=1e-12)
    assert eval_policy_exact(HAZARD_PAIR, Policy.of(1, 0)) == pytest.approx(5.85, abs=1e-12)


def test_eval_hazard_matches_monte_carlo():
    rng = np.random.default_rng(0)
    n_trials = 200_000
    total = 0.0
    w, p, r = (10.0, 6.0), (0.5, 0.9), (0.2, 0.1)
    for _ in range(n_trials):
        for i in (0, 1):
            if rng.random() < p[i]:
                total += w[i]
                break
            if rng.random() < r[i]:
                break
    mc = total / n_trials
    assert abs(mc - 7.16) < 4 * 8.0 / np.sqrt(n_trials)


def test_eval_head_probe_of_clairvoyance_gap_star():
    star = hard.gen_unknown_patience(2, 3)
    assert eval_policy_exact(star, Policy.of(0)) == 1.0


def test_eval_permutation_covariance():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        star = hard.gen_random_star(int(rng.integers(10**6)), n, "survival")
        perm = rng.permutation(n)
        relabeled = StarInstance.make([star.weights[perm[i]] for i in range(n)],
                                      [star.probs[perm[i]] for i in range(n)],
                                      star.patience)
        k = int(rng.integers(0, n + 1))
        policy = Policy(tuple(int(i) for i in rng.permutation(n)[:k]))
        inv = np.argsort(perm)
        mapped = Policy(tuple(int(inv[i]) for i in policy.order))
        assert eval_policy_exact(star, policy) == pytest.approx(
            eval_policy_exact(relabeled, mapped), abs=1e-12)


def test_global_hazard_equals_geometric_survival_eval():
    # the balk-coin form and the survival-curve form price a policy identically
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        r = float(rng.random())
        w, p = rng.random(n) * 2, rng.random(n)
        haz = StarInstance.make(w, p, PatienceModel.constant_hazard(rate=r))
        q = (1 - r) ** np.arange(n)
        surv = StarInstance.make(w, p, PatienceModel.survival(q / max(q[0], 1.0)))
        policy = Policy(tuple(int(i) for i in rng.permutation(n)))
        assert eval_policy_exact(haz, policy) == pytest.approx(
            eval_policy_exact(surv, policy), abs=1e-10)


# ---------------------------------------------------------------------------
# deterministic-patience DP
# ---------------------------------------------------------------------------

def test_dp_examples():
    star = StarInstance.make([3.0, 2.0], [0.5, 1.0], PatienceModel.deterministic(1))
    res = solve_deterministic_patience(star)
    assert res.policy.order == (1,)
    assert res.expected_value == pytest.approx(2.0)
    star2 = StarInstance.make([3.0, 2.0], [0.5, 1.0], PatienceModel.deterministic(2))
    res2 = solve_deterministic_patience(star2)
    assert res2.policy.order == (0, 1)
    assert res2.expected_value == pytest.approx(2.5)


def test_dp_zero_patience():
    star = StarInstance.make([3.0], [0.5], PatienceModel.deterministic(0))
    res = solve_deterministic_patience(star)
    assert res.policy.order == ()
    assert res.expected_value == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_dp_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        # theta = -1 included: both solvers return the empty policy
        star = StarInstance.make(rng.random(n) * 3, rng.random(n),
                                 PatienceModel.deterministic(int(rng.integers(-1, n + 1))))
        assert solve_deterministic_patience(star).expected_value == pytest.approx(
            brute_force_optimal(star).expected_value, abs=1e-10)


# ---------------------------------------------------------------------------
# constant-hazard index rule
# ---------------------------------------------------------------------------

def test_hazard_solver_examples():
    res = solve_constant_hazard(HAZARD_PAIR)
    assert res.policy.order == (0, 1)
    assert res.expected_value == pytest.approx(7.16, abs=1e-12)
    single = StarInstance.make([5.0], [0.4], PatienceModel.constant_hazard(rate=0.7))
    res = solve_constant_hazard(single)
    assert res.policy.order == (0,)
    assert res.expected_value == pytest.approx(2.0)


def test_hazard_all_rates_one_reduces_to_best_single_probe():
    star = StarInstance.make([4.0, 3.0, 10.0], [0.5, 0.9, 0.3],
                             PatienceModel.constant_hazard(rates=[1.0, 1.0, 1.0]))
    res = solve_constant_hazard(star)
    assert res.policy.order[0] == 2  # argmax w*p = 3.0
    assert res.expected_value == pytest.approx(
        brute_force_optimal(star).expected_value, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_hazard_matches_brute_force(seed):
    rng = np.random.default_rng(50 + seed)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        if rng.random() < 0.5:
            pat = PatienceModel.constant_hazard(rates=rng.random(n))
        else:
            pat = PatienceModel.constant_hazard(rate=float(rng.random()))
        star = StarInstance.make(rng.random(n) * 3, rng.random(n), pat)
        assert solve_constant_hazard(star).expected_value == pytest.approx(
            brute_force_optimal(star).expected_value, abs=1e-10)


def test_adjacent_swap_toward_index_order_never_helps():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        star = hard.gen_random_star(int(rng.integers(10**6)), n, "hazard")
        q = np.asarray(star.probs) + (1 - np.asarray(star.probs)) * star.patience.hazard_rates(n)
        score = np.asarray(star.weights) * np.asarray(star.probs) / np.maximum(q, 1e-300)
        order = list(rng.permutation(n))
        for k in range(n - 1):
            a, b = order[k], order[k + 1]
            if score[a] < score[b]:  # violates the index rule
                swapped = order[:k] + [b, a] + order[k + 2:]
                assert eval_policy_exact(star, Policy(tuple(swapped))) >= \
                    eval_policy_exact(star, Policy(tuple(order))) - 1e-12


# ---------------------------------------------------------------------------
# attempt-indexed LP and the randomized policy
# ---------------------------------------------------------------------------

def test_lp_single_attempt():
    star = StarInstance.make([2.0], [0.7], PatienceModel.survival([1.0]))
    sol = lp.solve(build_arbitrary_patience_lp(star))
    assert sol.objective == pytest.approx(1.4, abs=1e-9)


def test_lp_zero_survival_tail_reduces_to_one_attempt():
    star = StarInstance.make([2.0, 1.0, 3.0], [0.7, 0.3, 0.2],
                             PatienceModel.survival([1.0, 0.0, 0.0]))
    sol = lp.solve(build_arbitrary_patience_lp(star))
    # one fractional probe: best single-attempt value max over j of ... is a
    # budget of one attempt split arbitrarily; LP optimum is max_j w_j p_j
    assert sol.objective == pytest.approx(1.4, abs=1e-9)


def test_tight_example_stated_solution_and_solver_guarantee():
    for eps in (0.1, 0.01, 0.001):
        star = hard.gen_tight_example(eps)
        res = solve_arbitrary_patience(star)
        assert res.benchmark == pytest.approx(eps, abs=1e-8)
        stated = hard.tight_example_solution(eps)
        value = eval_randomized_exact(star, stated)
        assert value == pytest.approx(eps / (2 * (1 - eps)), abs=1e-10)
        # solver's own vertex also honors the guarantee
        assert res.expected_value >= 0.5 * res.benchmark - 1e-9
    assert eval_randomized_exact(hard.gen_tight_example(0.1),
                                 hard.tight_example_solution(0.1)) == pytest.approx(1 / 18, abs=1e-10)


def test_randomized_policy_row_invariants():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        star = hard.gen_random_star(int(rng.integers(10**6)), n, "survival")
        res = solve_arbitrary_patience(star)
        rsp = res.policy
        sums = rsp.attempt_probs.sum(axis=1)
        assert np.all(sums <= 1 + 1e-9)
        # suffix mass per item never exceeds the survival value
        x = rsp.attempt_probs * rsp.survival[:, None]
        for t in range(n):
            if rsp.survival[t] <= 1e-9:
                assert np.all(rsp.attempt_probs[t] == 0.0)
                continue
            suffix = x[t:, :].sum(axis=0)
            assert np.all(suffix <= rsp.survival[t] + 1e-7)


def test_one_shot_randomized_policy():
    star = StarInstance.make([2.0, 5.0], [0.5, 0.1], PatienceModel.survival([1.0, 0.8]))
    rows = np.zeros((2, 2))
    rows[0, 0] = 1.0
    rsp = RandomizedStarPolicy(rows, np.array([1.0, 0.0]), 1.0)
    assert eval_randomized_exact(star, rsp) == pytest.approx(1.0)
    probs = randomized_match_probabilities(star, rsp)
    assert probs[0] == pytest.approx(0.5)
    assert probs[1] == 0.0


def test_eval_randomized_matches_per_item_decomposition():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        star = hard.gen_random_star(int(rng.integers(10**6)), n, "survival")
        res = solve_arbitrary_patience(star)
        per_item = randomized_match_probabilities(star, res.policy)
        assert float(per_item @ np.asarray(star.weights)) == pytest.approx(
            res.expected_value, abs=1e-10)
        assert per_item.sum() <= 1 + 1e-9


def test_deterministic_patience_through_lp_path():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        theta = int(rng.integers(0, n + 1))
        star = StarInstance.make(rng.random(n) * 2, rng.random(n),
                                 PatienceModel.deterministic(theta))
        res = solve_arbitrary_patience(star)
        exact = solve_deterministic_patience(star).expected_value
        assert res.benchmark >= exact - 1e-8
        assert res.expected_value >= 0.5 * res.benchmark - 1e-9


def _arbitrary_patience_lp_by_rows(star, multiplicity=None):
    """LP1 in the paper's form, built one row at a time: probe variables
    ``x_{j,t}`` at ``j * T + t``, survival ``s_t`` at ``n * T + t``, the
    suffix rows (``t' >= 1`` lazy), the attempt rows, ``s_1 = 1`` and the
    survival recursion, whose ratio is read as 0 where ``q_{t-1}`` is 0.
    ``T`` runs to the last positive survival value, past any interior
    zero.  The oracle for ``build_arbitrary_patience_lp``'s optimum."""
    n = star.n
    copies = np.ones(n) if multiplicity is None else np.asarray(multiplicity, dtype=float)
    curve = star.patience.survival_curve(int(copies.sum()))
    T = int(np.nonzero(curve > 0.0)[0][-1] + 1) if np.any(curve > 0.0) else 0
    if n == 0 or T == 0:
        return lp.LpProblem.make(np.zeros(0), np.zeros((0, 0)), (), np.zeros(0))
    p = np.asarray(star.probs)
    w = np.asarray(star.weights)
    nx = n * T
    nv = nx + T
    c = np.zeros(nv)
    for j in range(n):
        c[j * T: (j + 1) * T] = w[j] * p[j]
    rows, senses, rhs, lazy = [], [], [], []
    for j in range(n):
        for t0 in range(T):
            row = np.zeros(nv)
            row[j * T + t0: (j + 1) * T] = 1.0
            row[nx + t0] = -copies[j]
            rows.append(row)
            senses.append(lp.LE)
            rhs.append(0.0)
            lazy.append(t0 > 0)
    for t in range(T):
        row = np.zeros(nv)
        row[t: nx: T] = 1.0
        row[nx + t] = -1.0
        rows.append(row)
        senses.append(lp.LE)
        rhs.append(0.0)
        lazy.append(False)
    row = np.zeros(nv)
    row[nx] = 1.0
    rows.append(row)
    senses.append(lp.EQ)
    rhs.append(1.0)
    lazy.append(False)
    for t in range(1, T):
        ratio = curve[t] / curve[t - 1] if curve[t - 1] > 0.0 else 0.0
        row = np.zeros(nv)
        row[nx + t] = 1.0
        row[nx + t - 1] = -ratio
        for j in range(n):
            row[j * T + t - 1] = ratio * p[j]
        rows.append(row)
        senses.append(lp.EQ)
        rhs.append(0.0)
        lazy.append(False)
    return lp.LpProblem.make(c, np.vstack(rows), senses, rhs, lazy=np.array(lazy))


def _packing_lp_by_rows(star, multiplicity=None):
    """LP1 with ``s`` substituted out, built one row at a time in the
    layout of ``build_arbitrary_patience_lp``: the reference for its array
    build.  ``q̂ = q / q_1`` up to the first zero of the curve; the suffix
    row of item ``j`` from attempt ``t'`` holds ``q̂_t / q̂_{t'}`` on
    ``y_{j,t}``, ``t >= t'``, and ``m_j p_i`` on every ``y_{i,tau}``,
    ``tau < t'``; the attempt row ``t`` holds 1 on ``y_{j,t}`` and ``p_i``
    on every ``y_{i,tau}``, ``tau < t``."""
    n = star.n
    copies = [1.0] * n if multiplicity is None else [float(m) for m in multiplicity]
    curve = star.patience.survival_curve(int(sum(copies))).tolist()
    T = 0
    while T < len(curve) and curve[T] > 0.0:
        T += 1
    if n == 0 or T == 0:
        return lp.LpProblem.make(np.zeros(0), np.zeros((0, 0)), (), np.zeros(0))
    q = [curve[t] / curve[0] for t in range(T)]
    p = [float(v) for v in star.probs]
    w = [float(v) for v in star.weights]
    nx = n * T
    c = np.zeros(nx)
    rows, rhs, lazy = [], [], []
    for j in range(n):
        for t in range(T):
            c[j * T + t] = w[j] * p[j] * q[t]
    for j in range(n):
        for t0 in range(T):
            row = np.zeros(nx)
            for t in range(t0, T):
                row[j * T + t] = q[t] / q[t0]
            for i in range(n):
                row[i * T: i * T + t0] = copies[j] * p[i]
            rows.append(row)
            rhs.append(copies[j])
            lazy.append(t0 > 0)
    for t in range(T):
        row = np.zeros(nx)
        row[t: nx: T] = 1.0
        for i in range(n):
            row[i * T: i * T + t] = p[i]
        rows.append(row)
        rhs.append(1.0)
        lazy.append(False)
    return lp.LpProblem.make(c, np.vstack(rows), [lp.LE] * len(rows), rhs,
                             lazy=np.array(lazy))


@pytest.mark.parametrize("kind", ["deterministic", "survival", "hazard"])
def test_lp1_build_equals_the_row_by_row_build(kind):
    built = 0
    for n in range(1, 16):
        for seed in range(4):
            star = hard.gen_random_star(100 * n + seed, n, kind)
            if not star.patience.has_global_rate and kind == "hazard":
                continue  # per-item hazards have no LP
            for mult in (None, np.arange(n) % 3 + 1):
                got = build_arbitrary_patience_lp(star, mult)
                ref = _packing_lp_by_rows(star, mult)
                for field in ("c", "A", "b"):
                    a, r = getattr(got, field), getattr(ref, field)
                    assert np.array_equal(a, r) and a.tobytes() == r.tobytes(), (field, n, seed)
                assert got.senses == ref.senses
                assert (got.lazy is None) == (ref.lazy is None)
                assert got.lazy is None or np.array_equal(got.lazy, ref.lazy)
                built += 1
    assert built >= 60


def test_lp1_build_divides_only_the_kept_survival_ratios():
    # q̂_0 / q̂_2 = 1e310 lies below the diagonal the build keeps; dividing
    # it overflowed, with a RuntimeWarning, before the build was zeroed there
    star = StarInstance.make([1.0, 2.0, 3.0], [0.5, 0.4, 0.3],
                             PatienceModel.survival([1.0, 1e-200, 1e-310]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = build_arbitrary_patience_lp(star)
    ref = _packing_lp_by_rows(star)
    assert got.A.shape == (3 * 3 + 3, 3 * 3)
    assert np.array_equal(got.A, ref.A) and got.A.tobytes() == ref.A.tobytes()


def _highs_objective(problem):
    """HiGHS's dual simplex at feasibility tolerances of 1e-10 and without
    scaling: at its default of 1e-7 it ended 3.7e-8 below the paper form's
    optimum on a five-item survival star, and its scaling let a grouped
    hazard star's packing form end 4.2e-9 above the optimum, its x
    violating a row by 3.0e-7.  scipy passes the scaling option to HiGHS
    with a warning that it does not know it."""
    if problem.n_vars == 0:
        return 0.0
    senses = np.array(problem.senses)
    le, eq = senses == lp.LE, senses == lp.EQ
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        res = linprog(-problem.c, A_ub=problem.A[le] if le.any() else None,
                      b_ub=problem.b[le] if le.any() else None,
                      A_eq=problem.A[eq] if eq.any() else None,
                      b_eq=problem.b[eq] if eq.any() else None,
                      bounds=(0, None), method="highs-ds",
                      options={"primal_feasibility_tolerance": 1e-10,
                               "dual_feasibility_tolerance": 1e-10,
                               "simplex_scale_strategy": 0})
    assert res.status == 0, res.message
    return -res.fun


def _paper_form_violation(problem, x):
    """Largest violation of ``problem``'s rows and bounds by ``x``."""
    lhs = problem.A @ x - problem.b
    senses = np.array(problem.senses)
    return max(np.abs(lhs[senses == lp.EQ]).max(initial=0.0),
               lhs[senses == lp.LE].max(initial=0.0), -x.min(initial=0.0))


@st.composite
def _lp1_stars(draw):
    """A star of at most 8 items with deterministic, survival, global-hazard
    patience, or a survival curve that drops to 0 and rises again."""
    kind = draw(st.sampled_from(["deterministic", "survival", "hazard", "interior zero"]))
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    star = hard.gen_random_star(seed, n, "survival" if kind == "interior zero" else kind)
    if kind == "hazard" and not star.patience.has_global_rate:
        star = StarInstance.make(star.weights, star.probs,
                                 PatienceModel.constant_hazard(rate=star.patience.r[0]))
    if kind == "interior zero":
        curve = list(star.patience.q) + [0.5]
        curve[draw(st.integers(1, len(curve) - 1))] = 0.0
        star = StarInstance.make(star.weights, star.probs, PatienceModel.survival(curve))
    return star


@settings(max_examples=150, deadline=None)
@given(star=_lp1_stars(), grouped=st.booleans())
def test_lp1_has_the_optimum_of_the_paper_form_and_maps_back_onto_it(star, grouped):
    mult = np.arange(star.n) % 3 + 1 if grouped else None
    paper = _arbitrary_patience_lp_by_rows(star, mult)
    with np.errstate(all="raise"):  # the build never divides by a zero survival value
        packing = build_arbitrary_patience_lp(star, mult)
        rsp = None if grouped else solve_arbitrary_patience(star).policy
    assert _highs_objective(packing) == pytest.approx(_highs_objective(paper), abs=1e-9)
    if grouped:
        return
    # the (x, s) read off the policy satisfies every row of the paper's form
    T = paper.n_vars // (star.n + 1)
    x = rsp.attempt_probs[:T] * rsp.survival[:T, None]
    assert _paper_form_violation(paper, np.concatenate([x.T.ravel(), rsp.survival[:T]])) <= 1e-9


def test_lp1_stops_at_an_interior_zero_of_the_survival_curve():
    star = StarInstance.make([2.0, 1.0, 1.0], [0.7, 0.3, 0.5],
                             PatienceModel.survival([1.0, 0.0, 0.5]))
    with np.errstate(all="raise"):
        packing = build_arbitrary_patience_lp(star)
        res = solve_arbitrary_patience(star)
    assert packing.n_vars == 3  # one attempt; the paper's form carries three
    assert _arbitrary_patience_lp_by_rows(star).n_vars == 3 * 3 + 3
    assert res.benchmark == pytest.approx(1.4, abs=1e-12)
    assert res.policy.survival.tolist() == [1.0, 0.0, 0.0]


def test_lp_path_rejects_per_item_hazard():
    star = StarInstance.make([1.0, 1.0], [0.5, 0.5],
                             PatienceModel.constant_hazard(rates=[0.1, 0.2]))
    with pytest.raises(PatienceVariantError):
        solve_arbitrary_patience(star)


@pytest.mark.parametrize("kind, n, seed, renormalized, zeroed, digest", [
    # attempt 7's row sums to 1 + 8.4e-9 and is divided by its sum, and
    # attempt 8's survival, 3.0e-11, zeroes its row
    ("survival", 8, 13, [6], [7], "8ff4bb7cdb545178cb6d34b47836903095e46517f5334e40254103090e1609bf"),
    # attempts 5-7 survive with 6.6e-12, 1.9e-13 and 3.9e-17
    ("survival", 8, 34, [], [4, 5, 6],
     "b0b779545ae176d7c4ce42cc51305dc872d83124ecff36591a5704d7725ec39f"),
    # attempts 2 and 3 sum past 1 by one ulp
    ("deterministic", 3, 7, [1, 2], [],
     "ae810a0fe576b8f4ea5ad2688405c07ba97437039c96f798613ae999a4712be2"),
])
def test_lp1_policy_bytes_are_pinned(kind, n, seed, renormalized, zeroed, digest):
    # the attempt rows and survival values read off LP1, bit for bit
    rsp = solve_arbitrary_patience(hard.gen_random_star(seed, n, kind)).policy
    got = hashlib.sha256(rsp.attempt_probs.tobytes() + rsp.survival.tobytes()).hexdigest()
    assert got == digest
    for t in renormalized:
        assert rsp.attempt_probs[t].sum() == pytest.approx(1.0, abs=1e-15)
    for t in zeroed:
        assert 0.0 < rsp.survival[t] <= ZERO_SURVIVAL and not rsp.attempt_probs[t].any()


def _lp1_policy_by_attempts(star):
    """The LP1 policy read off one attempt at a time: the reference for
    ``solve_arbitrary_patience``'s array form."""
    n = star.n
    q = _lp_survival(star, n)
    T = q.size
    y = lp.solve(build_arbitrary_patience_lp(star)).x.reshape(n, T)
    x = q * y
    s = q * (1.0 - np.concatenate(([0.0], np.cumsum(np.asarray(star.probs) @ y)))[:T])
    probs, surv = np.zeros((n, n)), np.zeros(n)
    surv[:T] = np.clip(s, 0.0, None)
    for t in range(T):
        if surv[t] > ZERO_SURVIVAL:
            row = np.clip(x[:, t], 0.0, None) / surv[t]
            total = row.sum()
            probs[t] = row / total if total > 1.0 else row
    return probs, surv


def test_lp1_policy_equals_the_read_off_by_attempts():
    for kind in ("survival", "deterministic"):
        for n in (1, 2, 3, 5, 8, 12):
            for seed in range(20):
                star = hard.gen_random_star(seed, n, kind)
                rsp = solve_arbitrary_patience(star).policy
                probs, surv = _lp1_policy_by_attempts(star)
                assert rsp.attempt_probs.tobytes() == probs.tobytes(), (kind, n, seed)
                assert rsp.survival.tobytes() == surv.tobytes(), (kind, n, seed)


def _simulate_randomized(star, rsp, trials, seed):
    """Seeded Monte Carlo of executing ``rsp``: a patience drawn from the
    survival curve, one draw per attempt from its row (above the row sum
    idles), re-drawn items probed in simulation, any success ending the
    arrival.  Returns the mean reward and its standard error."""
    rng = np.random.default_rng(seed)
    n = star.n
    p, w = np.asarray(star.probs), np.asarray(star.weights)
    curve = star.patience.survival_curve(n)
    budget = np.count_nonzero(curve[None, :] > rng.random(trials)[:, None], axis=1)
    cum = np.cumsum(rsp.attempt_probs, axis=1)
    alive = np.ones(trials, dtype=bool)
    probed = np.zeros((trials, n), dtype=bool)
    gain = np.zeros(trials)
    for t in range(n):
        live = np.flatnonzero(alive & (budget > t))
        j = np.searchsorted(cum[t], rng.random(live.size), side="right")
        live, j = live[j < n], j[j < n]
        success = rng.random(live.size) < p[j]
        real = success & ~probed[live, j]
        gain[live[real]] += w[j[real]]
        probed[live, j] = True
        alive[live[success]] = False
    return gain.mean(), gain.std(ddof=1) / np.sqrt(trials)


@pytest.mark.parametrize("n", [16, 30])
def test_randomized_value_of_a_large_star_agrees_with_simulation(n):
    star = hard.gen_random_star(n, n, "survival")
    res = solve_arbitrary_patience(star)
    assert res.expected_value >= 0.5 * res.benchmark - 1e-9
    mean, se = _simulate_randomized(star, res.policy, 100_000, seed=n)
    assert abs(res.expected_value - mean) <= 4 * se


# ---------------------------------------------------------------------------
# brute force and enumeration
# ---------------------------------------------------------------------------

def test_brute_force_single_item_and_cap():
    star = StarInstance.make([2.0], [0.5], PatienceModel.deterministic(1))
    assert brute_force_optimal(star).expected_value == pytest.approx(1.0)
    big = StarInstance.make([1.0] * 8, [0.5] * 8, PatienceModel.deterministic(2))
    with pytest.raises(CapacityError):
        brute_force_optimal(big)


def test_brute_force_keeps_the_first_maximal_policy():
    # identical items tie: the first policy in enumeration order wins
    star = StarInstance.make([1.0, 1.0], [0.5, 0.5], PatienceModel.deterministic(1))
    assert brute_force_optimal(star).policy == Policy.of(0)
    star = StarInstance.make([1.0, 1.0], [0.5, 0.5], PatienceModel.deterministic(2))
    assert brute_force_optimal(star).policy == Policy.of(0, 1)
    # zero-probability items are dropped and the rest keep their indices
    star = StarInstance.make([5.0, 2.0, 2.0], [0.0, 0.5, 0.5], PatienceModel.deterministic(1))
    assert brute_force_optimal(star).policy == Policy.of(1)
    # no positive value: the empty policy
    for weights in ([0.0, 0.0], [-1.0, 0.0]):
        star = StarInstance.make(weights, [0.5, 0.5], PatienceModel.deterministic(2))
        result = brute_force_optimal(star)
        assert result.policy == Policy(()) and result.expected_value == 0.0
    assert brute_force_optimal(
        StarInstance.make([1.0], [0.5], PatienceModel.deterministic(-1))).policy == Policy(())


def test_brute_force_equals_a_scalar_search():
    rng = np.random.default_rng(8)
    for k in range(60):
        n = int(rng.integers(1, 6))
        star = hard.gen_random_star(int(rng.integers(10**6)), n,
                                    ("survival", "deterministic", "hazard")[k % 3])
        if k % 4 == 0:  # ties
            star = StarInstance.make(np.round(star.weights), np.round(np.array(star.probs) * 2) / 2,
                                     star.patience)
        items = [i for i in range(n) if star.probs[i] > 0.0]
        sub = star.with_items(items)
        best, best_value = Policy(()), 0.0
        for pol in enumerate_policies(sub.n, sub.patience.max_probes(sub.n)):
            value = scalar_value(sub, pol)
            if value > best_value:
                best, best_value = pol, value
        result = brute_force_optimal(star)
        assert result.policy == Policy(tuple(items[i] for i in best.order))
        assert result.expected_value == best_value


def test_enumerated_orders_follow_enumerate_policies():
    orders, lengths = enumerated_orders(4, 3)
    assert [tuple(o[:k]) for o, k in zip(orders.tolist(), lengths.tolist())] == \
        [pol.order for pol in enumerate_policies(4, 3)]
    assert not orders.flags.writeable


def test_enumerate_policies_count():
    # lengths 0..2 over 3 items: 1 + 3 + 6
    assert sum(1 for _ in enumerate_policies(3, 2)) == 10


def test_lp_upper_bounds_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        star = hard.gen_random_star(int(rng.integers(10**6)), n, "survival")
        sol = lp.solve(build_arbitrary_patience_lp(star))
        assert sol.objective >= brute_force_optimal(star).expected_value - 1e-8


# ---------------------------------------------------------------------------
# pricing and match probabilities
# ---------------------------------------------------------------------------

def test_match_probabilities_examples():
    star = StarInstance.make([1.0], [0.3], PatienceModel.deterministic(1))
    assert policy_match_probabilities(star, Policy.of(0))[0] == pytest.approx(0.3)
    star2 = StarInstance.make([1.0, 1.0], [0.5, 0.5], PatienceModel.deterministic(2))
    probs = policy_match_probabilities(star2, Policy.of(0, 1))
    assert np.allclose(probs, [0.5, 0.25])


def test_match_probabilities_total_mass_at_most_one():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        kind = ("survival", "deterministic", "hazard")[int(rng.integers(0, 3))]
        star = hard.gen_random_star(int(rng.integers(10**6)), n, kind)
        k = int(rng.integers(0, n + 1))
        policy = Policy(tuple(int(i) for i in rng.permutation(n)[:k]))
        assert policy_match_probabilities(star, policy).sum() <= 1 + 1e-9


def _price(star, adjusted, solver):
    return price(solver, [star.probs], [adjusted], [star.patience])[0]


def test_price_policy_drops_nonpositive_and_matches_brute():
    star = StarInstance.make([3.0, 2.0, 1.0], [0.5, 0.6, 0.7],
                             PatienceModel.deterministic(2))
    pol, val = _price(star, [-1.0, -2.0, 0.0], solver_by_name("dp"))[:2]
    assert pol.order == () and val == 0.0
    # identity adjustment reproduces the plain solver's value
    pol, val = _price(star, list(star.weights), solver_by_name("dp"))[:2]
    assert val == pytest.approx(solve_deterministic_patience(star).expected_value)
    # one negative weight: equals brute force over the two positive items
    adjusted = [1.5, -0.5, 0.9]
    pol, val = _price(star, adjusted, solver_by_name("brute"))[:2]
    sub = StarInstance.make([1.5, 0.9], [0.5, 0.7], PatienceModel.deterministic(2))
    assert val == pytest.approx(brute_force_optimal(sub).expected_value, abs=1e-12)
    assert all(u in (0, 2) for u in pol.order)


# ---------------------------------------------------------------------------
# batched plans
# ---------------------------------------------------------------------------

PROB = st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0)
GRID = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 2.0)


def _patience(draw, kind, m):
    """A patience model that the ``kind`` solver takes on ``m`` items:
    budgets from 0 to ``m + 2``, global or per-item hazard rates, and
    survival curves."""
    budget = st.integers(0, m + 2).map(PatienceModel.deterministic)
    rate = st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0)
    global_rate = rate.map(lambda r: PatienceModel.constant_hazard(rate=r))
    item_rates = st.lists(rate, min_size=m, max_size=m).map(
        lambda r: PatienceModel.constant_hazard(rates=r))
    curve = st.lists(st.floats(0.0, 1.0), max_size=m + 1).map(
        lambda q: PatienceModel.survival([1.0, *sorted(q, reverse=True)]))
    return draw({"dp": budget, "hazard": global_rate | item_rates,
                 "lp": budget | global_rate | curve,
                 "brute": budget | global_rate | item_rates | curve}[kind])


@st.composite
def star_batches(draw):
    """A solver kind and a batch for it, of either shape: one star's induced
    rows, or one star per row with dual-adjusted weights as pricing makes
    them (weights and duals from a small grid, so adjusted weights tie and
    are often nonpositive, and rows whose weights are all zero).  Success
    probabilities are often 0."""
    kind = draw(st.sampled_from(("dp", "hazard", "lp", "brute")))
    m, rows = draw(st.integers(1, 6)), draw(st.integers(1, 5))

    def matrix(entry, n):
        return np.array(draw(st.lists(entry, min_size=n * m, max_size=n * m))).reshape(n, m)

    if draw(st.booleans()):
        star = StarInstance.make(matrix(GRID, 1)[0], matrix(PROB, 1)[0], _patience(draw, kind, m))
        return kind, StarBatch.induced(star, matrix(st.booleans(), rows)), None
    probs, weights = matrix(PROB, rows), matrix(GRID, rows)
    weights[draw(st.lists(st.booleans(), min_size=rows, max_size=rows))] = 0.0
    adjusted = weights - np.array(draw(st.lists(GRID, min_size=m, max_size=m)))
    patience = tuple(_patience(draw, kind, m) for _ in range(rows))
    batch = StarBatch(probs, adjusted, (adjusted > 0.0) & (probs > 0.0), patience)
    return kind, batch, (probs, adjusted, patience)


@settings(max_examples=300, deadline=None)
@given(star_batches())
def test_each_batched_plan_row_equals_its_one_row_call(case):
    # every solver's plan of a batch row is its plan of the row's own star in
    # a one-row batch; a pricing batch's policies, values and match vectors
    # are those of pricing each row in a one-row batch
    kind, batch, priced = case
    solver = solver_by_name(kind)
    orders, lengths, randomized = solver.plan(batch)
    assert len(orders) == len(lengths) == len(batch.present)
    for r in range(len(batch.present)):
        items, star = batch.star(r)
        one, length, single = solver.plan(StarBatch.induced(star, np.ones((1, star.n), dtype=bool)))
        assert orders[r, :lengths[r]].tolist() == items[one[0, :length[0]]].tolist()
        assert lengths[r] == length[0]
        assert (r in randomized) == (0 in single)
        if r in randomized:
            a, b = randomized[r], single[0]
            assert np.array_equal(a.attempt_probs, b.attempt_probs)
            assert np.array_equal(a.survival, b.survival) and a.lp_objective == b.lp_objective
    if priced is None:
        return
    probs, adjusted, patience = priced
    for r, (policy, value, match) in enumerate(price(solver, probs, adjusted, patience)):
        each = price(solver, probs[r:r + 1], adjusted[r:r + 1], patience[r:r + 1])[0]
        assert policy.order == each[0].order
        assert value == each[1]
        assert np.array_equal(match, each[2])


def test_wrong_variant_errors():
    star = StarInstance.make([1.0], [0.5], PatienceModel.survival([1.0]))
    with pytest.raises(PatienceVariantError):
        solve_deterministic_patience(star)
    with pytest.raises(PatienceVariantError):
        solve_constant_hazard(star)


@pytest.mark.parametrize("k", [1, 8, 63, 64, 65, 130])
def test_distinct_rows_packs_each_row_into_words(k):
    # few distinct rows among many, some of them empty; entry j of a row is
    # bit j % 64 of word j // 64, and each key's representative is its
    # first row
    rng = np.random.default_rng(k)
    pool = rng.random((6, k)) < 0.5
    pool[0] = False
    rows = pool[rng.integers(0, 6, 200)]
    keys, group, first = _distinct_rows(rows)
    assert keys.dtype == np.uint64 and keys.shape[1] == -(-k // 64)
    assert len(keys) == len(np.unique(rows, axis=0))
    assert np.array_equal(rows[first][group], rows)
    assert np.array_equal(first, [np.flatnonzero(group == g)[0] for g in range(len(keys))])
    assert np.array_equal(group[first], np.arange(len(keys)))
    assert np.array_equal(np.lexsort(keys.T), np.arange(len(keys)))  # keys in sort order
    j = np.flatnonzero(rows[0])
    assert np.array_equal((keys[group[0], j // 64] >> (j % 64).astype(np.uint64)) & 1,
                          np.ones(j.size, dtype=np.uint64))
