import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies
from scipy.optimize import linprog

import stochmatch
from stochmatch import hard_instances as hard
from stochmatch import lp
from stochmatch.instances import (
    CapabilityError,
    CapacityError,
    LpNumericalError,
    MatchingInstance,
    PatienceModel,
)
from stochmatch.lp import (
    LpProblem,
    OPTIMAL,
    add_column,
    dumps_lp,
    held_rows,
    solution_residuals,
    solve,
)
from stochmatch.matching import build_benchmark_lp, solve_prophet_lp
from stochmatch.stars import build_arbitrary_patience_lp


def test_one_variable_lp():
    sol = solve(LpProblem.make([1.0], [[1.0]], ["<="], [1.0]))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-12)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.duals[0] == pytest.approx(1.0, abs=1e-9)


def test_degenerate_optimum():
    sol = solve(LpProblem.make([1.0, 1.0], [[1.0, 1.0]], ["<="], [1.0]))
    assert sol.objective == pytest.approx(1.0, abs=1e-12)


def test_tight_example_lp_objective():
    star = hard.gen_tight_example(0.1)
    sol = solve(build_arbitrary_patience_lp(star))
    assert sol.objective == pytest.approx(0.1, abs=1e-9)


@pytest.mark.parametrize("lb", [0.0])  # ``solve`` takes no other lower bound
@pytest.mark.parametrize("c", [-1.5, 0.0, 2.0])
def test_row_free_lp_takes_the_bound_its_objective_favors(c, lb):
    sol = solve(LpProblem.make([c], np.zeros((0, 1)), [], [], lb=[lb]))
    if c > 0:
        assert sol.status == "unbounded" and sol.x is None and sol.objective is None
        return
    assert sol.status == OPTIMAL
    assert sol.x.tolist() == [lb] and sol.duals.shape == (0,)
    assert sol.objective == sol.dual_objective == c * lb


@pytest.mark.parametrize("senses, b, lb", [
    (["<=", "="], [1.0, 1.0], [0.0, 0.0]),
    (["<=", ">="], [1.0, 1.0], [0.0, 0.0]),
    (["<=", "<="], [1.0, -1.0], [0.0, 0.0]),
    (["<=", "<="], [1.0, 1.0], [0.0, 1.0]),
    (["<=", "<="], [1.0, 1.0], [-2.0, 0.0]),
    (["<=", "<="], [1.0, 1.0], [0.0, -np.inf]),
], ids=["eq-row", "ge-row", "negative-b", "positive-lb", "negative-lb", "free"])
def test_solve_takes_packing_lps_only(senses, b, lb):
    # ``make`` states the general form, for reference solvers and dumps;
    # ``solve`` refuses any row or bound whose slack basis is not feasible
    p = LpProblem.make([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], senses, b, lb=lb)
    with pytest.raises(CapabilityError, match="packing"):
        solve(p)
    with pytest.raises(CapabilityError, match="packing"):
        solve(p, start=lp.KeptBasis())


def test_empty_lp_and_its_first_column():
    empty = LpProblem.make([], np.zeros((0, 0)), [], [])
    sol = solve(empty)
    assert sol.status == OPTIMAL and sol.objective == 0.0
    assert sol.x.shape == sol.duals.shape == (0,)
    grown = add_column(empty, -1.0, [])
    assert grown.A.shape == (0, 1)
    sol = solve(grown)
    assert sol.status == OPTIMAL and sol.x.tolist() == [0.0] and sol.objective == 0.0
    assert solve(add_column(empty, 1.0, [])).status == "unbounded"


def test_ratio_test_bland_mode_takes_the_smallest_basic_column():
    # every row blocks at step 1: Harris takes the largest pivot, Bland the smallest column
    xB, d, cols = np.array([1.0, 2.0, 0.5]), np.array([1.0, 2.0, 0.5]), np.array([3, 5, 7])
    assert lp._ratio_test(xB, d, cols, False, 0.0) == 1
    assert lp._ratio_test(xB, d, cols, True, 0.0) == 0
    # a pivot below REL_PIVOT_TOL of the largest is passed over while another row fits ...
    tiny = np.array([1e-9, 1.0, 1.0])
    assert lp._ratio_test(np.zeros(3), tiny, np.array([1, 5, 4]), True, 0.0) == 2
    # ... and taken when it alone blocks
    assert lp._ratio_test(np.array([0.0, 1.0, 1.0]), tiny, np.array([1, 5, 4]), True, 0.0) == 0
    assert lp._ratio_test(xB, -d, cols, True, 0.0) == -1

    def dual(z, alpha, basic, bland):  # the entering column, as ``_dual_phase`` asks for it
        lift = np.where(basic, 0.0, -np.asarray(alpha))
        return lp._ratio_test(-np.minimum(z, 0.0), lift, np.arange(len(z)), bland, lp.OPT_TOL)

    # candidates are nonbasic with alpha < -PIVOT_TOL: column 0 is basic,
    # column 2's alpha is too small and column 4's has the wrong sign; of
    # the ratios z_j / alpha_j (1, 1 and 2), columns 1 and 3 fit, and
    # Harris takes the larger |alpha|, Bland the smaller column
    z = np.array([0.0, -1.0, -1e-3, -2.0, -1.0, -4.0])
    alpha = np.array([-5.0, -1.0, -1e-11, -2.0, 3.0, -2.0])
    basic = np.arange(6) == 0
    assert dual(z, alpha, basic, False) == 3
    assert dual(z, alpha, basic, True) == 1
    assert dual(np.zeros(3), -tiny, np.zeros(3, dtype=bool), True) == 1
    # no candidate: nothing can raise the leaving row
    for bland in (False, True):
        assert dual(z, np.where(basic, -5.0, 1.0), basic, bland) == -1


def test_pricing_scales_each_reduced_cost_by_its_column_norm(monkeypatch):
    # x0 has the larger reduced cost, 2 against 1, but the scaled rule
    # compares 2 / sqrt(1 + 200) = 0.14 with 1 / sqrt(1 + 1) = 0.71 and
    # lets x1 enter, which is optimal at once; Dantzig's rule enters x0
    p = LpProblem.make([2.0, 1.0], [[10.0, 1.0], [10.0, 0.0]], ["<=", "<="], [10.0, 10.0])
    pivot, entered = lp._Basis.pivot, []

    def spy(st, j, *args):
        entered.append(j)
        return pivot(st, j, *args)

    monkeypatch.setattr(lp._Basis, "pivot", spy)
    sol = solve(p)
    assert entered == [1]
    assert sol.objective == pytest.approx(10.0)
    np.testing.assert_allclose(sol.x, [0.0, 10.0])


def test_add_column_duplicate_keeps_objective():
    p = LpProblem.make([2.0, 1.0], [[1.0, 1.0]], ["<="], [1.0])
    base = solve(p).objective
    p2 = add_column(p, 2.0, [1.0])  # duplicate of the optimal column
    assert solve(p2).objective == pytest.approx(base, abs=1e-10)


def test_add_column_with_positive_reduced_cost_improves():
    p = LpProblem.make([1.0], [[1.0]], ["<="], [1.0])
    base = solve(p)
    # new column consumes the same row but pays more: must enter
    p2 = add_column(p, 3.0, [1.0])
    sol = solve(p2)
    assert sol.objective > base.objective + 0.5


def test_dimension_mismatch_raises():
    p = LpProblem.make([1.0], [[1.0]], ["<="], [1.0])
    with pytest.raises(ValueError):
        add_column(p, 1.0, [1.0, 2.0])
    with pytest.raises(ValueError):
        add_column(p, [1.0, 2.0], [[1.0, 2.0, 3.0]])  # three columns, two coefficients


def test_a_block_of_columns_equals_adding_them_one_by_one():
    rng = np.random.default_rng(5)
    p = LpProblem.make(rng.random(3), rng.random((2, 3)), ["<=", "<="], [1.0, 2.0])
    first = solve(p)
    costs, block = rng.random(4) + 1.0, rng.random((2, 4))
    one_by_one = p
    for j in range(4):
        one_by_one = add_column(one_by_one, costs[j], block[:, j])
    at_once = add_column(p, costs, block)
    for name in ("c", "A", "b", "lb", "ub"):
        assert np.array_equal(getattr(at_once, name), getattr(one_by_one, name))
    assert at_once.senses == one_by_one.senses
    # the kept basis still fits the grown problem
    kept, kept_again = lp.KeptBasis(), lp.KeptBasis()
    for handle in (kept, kept_again):
        assert solve(p, start=handle).objective == first.objective
    warm = solve(at_once, start=kept)
    assert warm.start == "warm" and warm.status == OPTIMAL
    # no added column prices in here (each z_j < 0), so the optimum stays
    assert warm.objective >= first.objective
    assert _objectives_agree(warm.objective, -_scipy_solve(at_once).fun)
    again = solve(one_by_one, start=kept_again)
    assert warm.objective == again.objective and np.array_equal(warm.x, again.x)


def _random_problem(rng):
    """A packing LP: ``<=`` rows with mixed-sign entries, b >= 0 (some 0),
    lower bounds 0 and upper bounds finite or not; it may be unbounded."""
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 9))
    c = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    b = np.where(rng.random(m) < 0.2, 0.0, rng.uniform(0.0, 2.0, m))
    ub = np.where(rng.random(n) < 0.5, rng.uniform(0.5, 3.0, n), np.inf)
    return LpProblem.make(c, A, ["<="] * m, b, ub=ub)


def _scipy_solve(p, **options):
    """HiGHS on ``p``, with ``options`` passed to it."""
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for i, s in enumerate(p.senses):
        if s == "<=":
            A_ub.append(p.A[i]); b_ub.append(p.b[i])
        elif s == ">=":
            A_ub.append(-p.A[i]); b_ub.append(-p.b[i])
        else:
            A_eq.append(p.A[i]); b_eq.append(p.b[i])
    bounds = [(l if np.isfinite(l) else None, u if np.isfinite(u) else None)
              for l, u in zip(p.lb, p.ub)]
    args = dict(A_ub=np.array(A_ub) if A_ub else None, b_ub=b_ub or None,
                A_eq=np.array(A_eq) if A_eq else None, b_eq=b_eq or None,
                bounds=bounds, method="highs")
    res = linprog(-p.c, options=options, **args)
    if res.status == 2:  # HiGHS's presolve can call an unbounded LP infeasible
        res = linprog(-p.c, options={**options, "presolve": False}, **args)
    return res


@pytest.mark.parametrize("seed", range(8))
def test_matches_reference_solver_on_random_lps(seed):
    rng = np.random.default_rng(seed)
    statuses = set()
    for _ in range(25):
        p = _random_problem(rng)
        sol = solve(p)
        ref = _scipy_solve(p)
        expected = {2: "infeasible", 3: "unbounded"}.get(ref.status, "optimal")
        assert sol.status == expected
        statuses.add(expected)
        if expected == "optimal":
            assert sol.objective == pytest.approx(-ref.fun, abs=1e-6, rel=1e-6)
    assert statuses == {OPTIMAL, "unbounded"}


@pytest.mark.parametrize("seed", range(4))
def test_optimal_solutions_satisfy_invariants(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(30):
        p = _random_problem(rng)
        sol = solve(p)
        if sol.status != OPTIMAL:
            continue
        res = solution_residuals(p, sol)
        assert res["primal"] <= 1e-8
        assert res["cs"] <= 1e-7
        # strong duality, relative
        assert abs(sol.objective - sol.dual_objective) <= 1e-7 * (1 + abs(sol.objective))


def test_objective_scaling_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, m = 5, 4
        c = rng.random(n) + 0.1
        A = rng.random((m, n))
        b = rng.random(m) + 0.5
        p = LpProblem.make(c, A, ["<="] * m, b)
        lam = 3.5
        p_scaled = LpProblem.make(lam * c, A, ["<="] * m, b)
        s1, s2 = solve(p), solve(p_scaled)
        assert s2.objective == pytest.approx(lam * s1.objective, rel=1e-9)
        assert np.allclose(s1.x, s2.x, atol=1e-8)


def test_deterministic_resolve():
    rng = np.random.default_rng(11)
    p = _random_problem(rng)
    s1, s2 = solve(p), solve(p)
    if s1.status == OPTIMAL:
        assert np.array_equal(s1.x, s2.x)
        assert s1.objective == s2.objective
        assert np.array_equal(s1.duals, s2.duals)


def test_dump_has_one_row_per_constraint():
    p = LpProblem.make([1.0, 2.0], [[1.0, 0.0], [1.0, 1.0]], ["<=", "="], [1.0, 2.0])
    text = dumps_lp(p)
    lines = text.strip().splitlines()
    assert lines[0].startswith("max ")
    assert sum(1 for ln in lines if ln.startswith("r")) == 2


def _lp1(seed, n):
    return build_arbitrary_patience_lp(hard.gen_random_star(seed, n, "survival"))


def _full_lp1(seed, n):
    """``_lp1`` with every row in the standard form from the start, for
    tests that inspect the simplex's own state."""
    return dataclasses.replace(_lp1(seed, n), lazy=None)


@pytest.mark.parametrize("n", [8, 12, 15, 20])
def test_lp1_of_random_survival_stars_is_feasible_and_optimal(n):
    # degenerate LPs on which the engine used to stop at "optimal" with a
    # primal-infeasible x (3, 12 and 20 of these 40 seeds)
    for seed in range(40):
        p = _lp1(seed, n)
        sol = solve(p)
        assert solution_residuals(p, sol)["primal"] <= 1e-9, seed
        assert sol.objective == pytest.approx(-_scipy_solve(p).fun, abs=1e-7), seed


def _star_cap_lp2_8_by_8():
    """LP2 with every star cap of an 8x8 instance: 2,064 rows."""
    return build_benchmark_lp(hard.gen_random_matching(0, 8, 8, "adversarial"),
                              include_star_constraints=True)


def test_star_cap_lp2_of_an_8_by_8_instance_fits_in_100_mb():
    p = _star_cap_lp2_8_by_8()
    tracemalloc.start()
    try:
        sol = solve(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-_scipy_solve(p).fun, abs=1e-7)
    assert peak < 100e6
    # the peak is within the size guard's count of dense entries,
    # r (n + 4 r), over the r rows the solve held: its working set, the
    # bound rows and the held-back rows that joined
    rows = (p.n_rows - len(held_rows(p)) + np.count_nonzero(np.isfinite(p.ub))
            + sol.rows_added)
    assert peak <= 8 * rows * (p.n_vars + 4 * rows)


def test_the_full_star_cap_lp2_of_an_8_by_8_instance_fits_in_100_mb():
    # no row held back: the solve holds all 2,064 rows at once, and its
    # peak is within the standard form (structural and slack columns) and
    # the inverse, plus the fancy-indexing temporaries
    p = dataclasses.replace(_star_cap_lp2_8_by_8(), lazy=None)
    tracemalloc.start()
    try:
        sol = solve(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == OPTIMAL and sol.rows_added == 0
    assert sol.objective == pytest.approx(-_scipy_solve(p).fun, abs=1e-7)
    assert peak < 100e6
    rows = p.n_rows + np.count_nonzero(np.isfinite(p.ub))
    assert peak <= 1.05 * 8 * rows * (p.n_vars + 2 * rows)


def test_lp1_seed_17_n_8_value():
    # reported 1.170, with a primal residual of 0.85, before the Harris ratio test
    assert solve(_lp1(17, 8)).objective == pytest.approx(0.694190, abs=1e-6)


def test_lp1_does_not_depend_on_blas_threads():
    code = ("from stochmatch import hard_instances as hard, lp, stars\n"
            "star = hard.gen_random_star(34, 12, 'survival')\n"
            "print(repr(lp.solve(stars.build_arbitrary_patience_lp(star)).objective))\n")
    src = os.path.dirname(os.path.dirname(stochmatch.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    here = solve(_lp1(34, 12)).objective
    assert float(out.stdout) == pytest.approx(here, abs=1e-7)
    assert here == pytest.approx(0.886961, abs=1e-6)


def _final_basis(monkeypatch, problem):
    """Solve ``problem`` and return the solution with the basis its last
    simplex phase ended on, which ``solve`` reads x and the duals from."""
    phase, seen = lp._simplex_phase, []

    def spy(st, *args):
        seen.append(st)
        return phase(st, *args)

    monkeypatch.setattr(lp, "_simplex_phase", spy)
    sol = solve(problem)
    monkeypatch.undo()
    return sol, seen[-1]


@pytest.mark.parametrize("n", [12, 15])
@pytest.mark.parametrize("seed", range(10))
def test_solution_is_refined_from_the_kept_transposed_inverse(monkeypatch, seed, n):
    sol, st = _final_basis(monkeypatch, _full_lp1(seed, n))
    std = st.std
    B = std.basis_matrix(st.cols)
    # x and the duals agree with two LU solves on the final basis, also
    # where pivots on entries near PIVOT_TOL left the kept inverse inexact
    x_int = st.xN.copy()
    x_int[st.cols] = np.linalg.solve(B, std.b - std.times(st.xN))
    x = x_int[: std.n_struct]
    y = np.linalg.solve(B.T, std.c[st.cols])[: std.m0]
    assert np.abs(sol.x - x).max() <= 1e-12 * (1 + np.abs(x).max())
    assert np.abs(sol.duals - y).max() <= 1e-12 * (1 + np.abs(y).max())
    # the refactorized inverse is stored transposed
    st.refactor()
    assert np.abs(st.inv - np.linalg.inv(B).T).max() <= 1e-9


def test_row_gather_pivot_equals_the_dense_update(monkeypatch):
    _, st = _final_basis(monkeypatch, _full_lp1(0, 12))
    assert len(st.cols) >= lp.SPARSE_UPDATE_ROWS  # the gather path
    j = int(np.flatnonzero(~st.is_basic)[0])
    d = st.std.ftran(st.inv, j)
    r = int(np.argmax(np.abs(d)))
    v = st.inv[:, r] / d[r]
    assert 0 < np.count_nonzero(v) < len(v)
    dense = st.inv - np.multiply.outer(v, d)
    dense[:, r] = v
    st.pivot(j, d, r, 0.0)
    assert np.array_equal(st.inv, dense)


def test_failed_certificate_raises(monkeypatch):
    # a Harris tolerance this loose leaves the final basis primal infeasible
    monkeypatch.setattr(lp, "HARRIS_TOL", 0.05)
    with pytest.raises(LpNumericalError, match="primal residual"):
        solve(_lp1(17, 8))
    monkeypatch.undo()
    # stopping phase 2 at once leaves a reduced cost of the wrong sign
    monkeypatch.setattr(lp, "OPT_TOL", 10.0)
    with pytest.raises(LpNumericalError, match="wrong-signed dual"):
        solve(LpProblem.make([1.0], [[1.0]], ["<="], [1.0]))


@pytest.mark.parametrize("field, value", [
    ("c", np.nan), ("c", np.inf), ("A", np.nan), ("A", -np.inf), ("b", np.nan),
    ("b", np.inf), ("lb", np.nan), ("ub", np.nan), ("lb", np.inf), ("ub", -np.inf)])
def test_make_rejects_non_finite_input(field, value):
    # the last variable is free, so a bound of +inf below or -inf above
    # still has lb <= ub
    args = {"c": [1.0, 1.0], "A": [[1.0, 2.0]], "b": [1.0], "lb": [0.0, -np.inf],
            "ub": [1.0, np.inf]}
    arr = np.array(args[field], dtype=float)
    arr.flat[-1] = value
    args[field] = arr
    with pytest.raises(ValueError):
        LpProblem.make(args["c"], args["A"], ["<="], args["b"], args["lb"], args["ub"])


def test_certificate_rejects_a_non_finite_solution():
    # Python's max(0.0, nan) is 0.0: the residuals used to fold a NaN away
    p = LpProblem.make([1.0], [[1.0]], ["<="], [1.0])
    nan = float("nan")
    sol = lp.LpSolution("optimal", x=[nan], duals=[nan])
    assert np.isnan(solution_residuals(p, sol)["primal"])
    with pytest.raises(LpNumericalError, match="non-finite"):
        lp._certify(p, sol, 2.0)


@pytest.mark.parametrize("when", ["before phase 2", "after phase 2"])
def test_a_nan_in_the_kept_inverse_raises(monkeypatch, when):
    # the primal simplex (phase 2) prices with the NaN; after it, the
    # certificate finds it in x
    message = {"before phase 2": "non-finite reduced cost",
               "after phase 2": "non-finite x or duals"}[when]
    phase, calls = lp._simplex_phase, []

    def spiked(st, *args):
        calls.append(st)
        if when == "before phase 2":
            st.inv[0, 0] = np.nan
        out = phase(st, *args)
        if when == "after phase 2":
            st.inv[0, 0] = np.nan
        return out

    monkeypatch.setattr(lp, "_simplex_phase", spiked)
    with pytest.raises(LpNumericalError, match=message):
        solve(_full_lp1(0, 12))
    assert len(calls) == 1


@pytest.mark.parametrize("n", [6, 12, 15])
def test_lp1_starts_from_the_slack_basis(n):
    # s is substituted out: every right-hand side is positive, so the
    # slack basis is feasible
    for seed in range(10):
        p = _full_lp1(seed, n)
        assert (p.b > 0).all() and set(p.senses) == {lp.LE}
        sol = solve(p)
        assert sol.status == OPTIMAL and sol.start == "identity", seed
        assert sol.objective == pytest.approx(-_scipy_solve(p).fun, abs=1e-7), seed


@pytest.mark.parametrize("kind", ["iid", "prophet"])
def test_the_first_master_of_a_column_generation_starts_from_the_slack_basis(monkeypatch, kind):
    # the first master holds no column: each type row's slack is the mass
    # of its empty policy
    solve_master, first = lp.solve, []

    def spy(problem, start=None):
        first.append((problem, solve_master(problem, start)))
        return first[-1][1]

    for seed in range(5):
        monkeypatch.setattr(lp, "solve", spy)
        inst = hard.gen_random_matching(400 + seed, 8, 6, kind, horizon=8)
        solve_prophet_lp(inst)
        monkeypatch.undo()
        problem, sol = first[0]
        assert problem.n_vars == 0 and problem.n_rows == inst.m + inst.n_types
        assert set(problem.senses) == {lp.LE} and (problem.b >= 0).all()
        assert sol.start == "identity" and sol.iterations == 0 and sol.objective == 0.0
        first.clear()


def _objectives_agree(a, b):
    return abs(a - b) <= 1e-9 * (1.0 + abs(b))


@pytest.mark.parametrize("seed", range(6))
def test_warm_start_after_added_columns_matches_cold_and_reference(seed):
    rng = np.random.default_rng(300 + seed)
    warm_starts, statuses = 0, set()
    for _ in range(25):
        p, kept = _random_problem(rng), lp.KeptBasis()
        first = solve(p, start=kept)
        assert (kept.basis is not None) == (first.status == OPTIMAL)
        for _ in range(int(rng.integers(1, 4))):
            p = add_column(p, rng.normal(), rng.normal(size=p.n_rows))
        warm, cold, ref = solve(p, start=kept), solve(p), _scipy_solve(p)
        expected = {2: "infeasible", 3: "unbounded"}.get(ref.status, "optimal")
        assert warm.status == cold.status == expected
        statuses.add(expected)
        # the appended columns are nonbasic at 0, so an optimal basis stays feasible
        assert (warm.start == "warm") == (first.status == OPTIMAL)
        warm_starts += warm.start == "warm"
        if expected == "optimal":
            assert _objectives_agree(warm.objective, cold.objective)
            assert _objectives_agree(warm.objective, -ref.fun)
    assert warm_starts > 0 and statuses == {OPTIMAL, "unbounded"}


def test_starts_that_do_not_fit_fall_back_to_the_cold_start():
    # max x + y s.t. x + y <= 1, x <= 2
    p = LpProblem.make([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], ["<=", "<="], [1.0, 2.0])
    one_row = LpProblem.make([1.0], [[1.0]], ["<="], [1.0])
    other_bound = add_column(dataclasses.replace(p, ub=np.array([np.inf, 0.5])), 1.0, [2.0, 2.0])

    def kept_from(problem):
        kept = lp.KeptBasis()
        assert solve(problem, start=kept).status == OPTIMAL and kept.basis is not None
        return kept

    unbounded = lp.KeptBasis()  # an answer that is not optimal leaves the handle empty
    assert solve(LpProblem.make([1.0], [[-1.0]], ["<="], [1.0]),
                 start=unbounded).status == "unbounded"
    for problem, kept in [
        (p, kept_from(one_row)),                      # another row count
        (other_bound, kept_from(p)),                  # not the kept problem plus columns
        (add_column(p, 1.0, [2.0, 2.0]), lp.KeptBasis()),  # an empty handle
        (p, unbounded),
    ]:
        sol = solve(problem, start=kept)
        assert sol.start == "identity" and sol.status == OPTIMAL
        assert _objectives_agree(sol.objective, -_scipy_solve(problem).fun)
        # the cold start refills the handle, and the same problem then resumes from it
        assert kept.problem is problem
        assert solve(problem, start=kept).start == "warm"


def _master_solves(monkeypatch, instance):
    """Run column generation on ``instance`` and return each master solve's
    problem, handle and answer."""
    solve_master, solves = lp.solve, []

    def spy(problem, start=None):
        solves.append((problem, start, solve_master(problem, start)))
        return solves[-1][2]

    with monkeypatch.context() as mp:
        mp.setattr(lp, "solve", spy)
        solve_prophet_lp(instance)
    return solves


@pytest.mark.parametrize("kind", ["iid", "prophet"])
def test_a_master_keeps_its_inverse_across_column_generation_rounds(monkeypatch, kind):
    # the round's columns join nonbasic at zero, so the kept inverse is
    # still the basis's: no round inverts it again
    refactor, inverted = lp._Basis.refactor, []

    def spy(st):
        inverted.append(st)
        return refactor(st)

    monkeypatch.setattr(lp._Basis, "refactor", spy)
    warm = 0
    for seed in range(5):
        solves = _master_solves(monkeypatch, hard.gen_random_matching(seed, 8, 6, kind, horizon=8))
        warm += sum(sol.start == "warm" for _, _, sol in solves)
        st = solves[-1][1].basis
        B = st.std.basis_matrix(st.cols)
        assert np.abs(st.inv - np.linalg.inv(B).T).max() <= 1e-9, seed
    assert warm > 0 and len(inverted) < warm


def test_the_refactor_count_carries_across_master_rounds(monkeypatch):
    # with a refactorization every two pivots, a round that takes fewer
    # still refactorizes on the pivots of earlier rounds, and the kept
    # basis gives what a cold solve of the same master gives
    monkeypatch.setattr(lp, "REFACTOR_EVERY", 2)
    phase, carried = lp._simplex_phase, []

    def spy(st, *args):
        carried.append(st.pivots)
        return phase(st, *args)

    monkeypatch.setattr(lp, "_simplex_phase", spy)
    refactor, refactors = lp._Basis.refactor, []
    monkeypatch.setattr(lp._Basis, "refactor", lambda st: refactors.append(1) or refactor(st))
    for kind in ("iid", "prophet"):
        for seed in range(3):
            solves = _master_solves(monkeypatch, hard.gen_random_matching(seed, 8, 6, kind, horizon=8))
            for problem, _, sol in solves:
                cold = solve(problem)
                assert abs(sol.objective - cold.objective) <= 1e-12 * (1.0 + abs(cold.objective))
    assert len(refactors) > 0 and max(carried) > 0


@pytest.mark.parametrize("n", [12, 15])
def test_the_dual_simplex_carries_its_reduced_costs_along_the_pivot_row(monkeypatch, n):
    # z is computed as c - yA when a dual phase starts and after a
    # refactorization, and otherwise only updated along the pivot row
    phase, ends = lp._dual_phase, []

    def spy(st, tol):
        def profile(frame, event, arg):
            if event == "return" and frame.f_code is phase.__code__:
                std, z = st.std, frame.f_locals["z"]
                y = st.inv @ std.c[st.cols]
                fresh = std.c - std.row_times(y, np.empty(std.n_cols))
                ends.append((np.abs(z - fresh)[~st.is_basic].max(initial=0.0), arg[1]))

        sys.setprofile(profile)
        try:
            return phase(st, tol)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(lp, "_dual_phase", spy)
    for seed in range(10):
        assert solve(_lp1(seed, n)).status == OPTIMAL
    assert sum(pivots for _, pivots in ends) > 0
    assert max(gap for gap, _ in ends) <= 1e-9


def test_solution_residuals_of_a_packing_lp_match_its_rows_written_as_ge():
    # the all-<= shortcut against the general formula: -A x >= -b with the
    # duals negated gives the same residuals, bit for bit, here off the
    # optimum (x off its bounds and rows, duals of either sign)
    rng, checked = np.random.default_rng(700), 0
    for _ in range(40):
        p = _random_problem(rng)
        ge = dataclasses.replace(p, A=-p.A, b=-p.b, senses=(">=",) * p.n_rows)
        x, y = rng.normal(size=p.n_vars), rng.normal(size=p.n_rows)
        res = solution_residuals(p, lp.LpSolution(OPTIMAL, x=x, duals=y))
        assert res == solution_residuals(ge, lp.LpSolution(OPTIMAL, x=x, duals=-y))
        checked += res["primal"] > 0 and res["dual"] > 0
    assert checked > 10


def test_the_size_guard_counts_the_columns_and_four_square_arrays(monkeypatch):
    # 3 rows, 2 variables, one of them bounded: 4 standard-form rows, and
    # S (4 x 2), the inverse, the basis matrix and np.linalg.inv's two
    # LAPACK copies of it (4 x 4 each)
    p = LpProblem.make([1.0, 1.0], np.ones((3, 2)), ["<="] * 3, [1.0, 2.0, 3.0],
                       ub=[0.5, np.inf])
    monkeypatch.setattr(lp, "MAX_DENSE_ENTRIES", 4 * (2 + 4 * 4))
    assert solve(p).objective == pytest.approx(1.0)
    monkeypatch.setattr(lp, "MAX_DENSE_ENTRIES", 4 * (2 + 4 * 4) - 1)
    with pytest.raises(CapacityError):
        solve(p)


def test_the_size_guard_counts_the_working_set_and_each_join(monkeypatch):
    # LP1 of an 8-item star: 16 rows in the working set and 56 held.  The
    # rows that join set the count, not the full problem's 72 rows, and
    # the full-problem fallback counts all of them
    p = _lp1(0, 8)
    first = solve(p)
    rows = p.n_rows - len(lp.held_rows(p)) + first.rows_added
    assert 0 < first.rows_added < len(lp.held_rows(p))

    def count(rows):
        return rows * (p.n_vars + 4 * rows)

    monkeypatch.setattr(lp, "MAX_DENSE_ENTRIES", count(rows))
    sol = solve(p)
    assert sol.rows_added == first.rows_added and sol.objective == first.objective
    monkeypatch.setattr(lp, "MAX_DENSE_ENTRIES", count(rows) - 1)
    with pytest.raises(CapacityError):
        solve(p)  # the working set fits, and a join passes the count

    def fails(st, tol):
        raise LpNumericalError("the working set fails")

    monkeypatch.setattr(lp, "_dual_phase", fails)  # the full problem takes no dual pivot
    monkeypatch.setattr(lp, "MAX_DENSE_ENTRIES", count(p.n_rows))
    assert _objectives_agree(solve(p).objective, first.objective)
    monkeypatch.setattr(lp, "MAX_DENSE_ENTRIES", count(p.n_rows) - 1)
    with pytest.raises(CapacityError):
        solve(p)


def test_lp1_solve_copies_no_held_block():
    # n = 15: 210 suffix rows held, 378 KB of them, which each solve once
    # copied; the working set and its joined rows take less
    for seed in range(4):
        p = _lp1(seed, 15)
        held = lp.held_rows(p)
        assert len(held) == 15 * 14
        tracemalloc.start()
        try:
            sol = solve(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.status == OPTIMAL and sol.rows_added > 0
        assert peak < p.A[held].nbytes, seed


@settings(max_examples=60, deadline=None)
@given(seed=strategies.integers(0, 2**32 - 1), m=strategies.integers(1, 6),
       n=strategies.integers(1, 4),
       kind=strategies.sampled_from(["deterministic", "hazard", "item-hazard"]))
@example(seed=855, m=5, n=4, kind="hazard")  # HiGHS at its default tolerances is 4.4e-9 off
def test_lp2_with_held_star_caps_equals_the_full_solve_and_highs(seed, m, n, kind):
    inst = hard.gen_random_matching(seed, m, n, "adversarial")
    if kind != "deterministic":
        rates = np.random.default_rng(seed).uniform(0.0, 0.6, (n, m))
        patience = [PatienceModel.constant_hazard(rates=r) if kind == "item-hazard"
                    else PatienceModel.constant_hazard(rate=r[0]) for r in rates]
        inst = MatchingInstance.make(inst.probs, patience, inst.arrivals,
                                     edge_weights=inst.edge_weights)
    p = build_benchmark_lp(inst, include_star_constraints=True)
    assert p.lazy.sum() == n * (2 ** m - 1)  # every star-cap row, and no other
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "LAZY_ROWS_PER_ROW", 0.0)  # small instances take the loop too
        assert len(lp.held_rows(p)) == n * (2 ** m - 1)
        sol = solve(p)
    ref = -_scipy_solve(p, primal_feasibility_tolerance=1e-10,
                        dual_feasibility_tolerance=1e-10).fun
    full = solve(dataclasses.replace(p, lazy=None))
    assert sol.status == full.status == OPTIMAL
    assert _objectives_agree(sol.objective, full.objective)
    assert abs(sol.objective - ref) <= 1e-9 * (1.0 + abs(ref))
    res = solution_residuals(p, sol)
    assert res["primal"] <= lp.CERT_TOL * (1.0 + np.abs(p.b).max())
    assert res["dual"] <= lp.DUAL_TOL * (1.0 + np.abs(p.c).max())


@pytest.mark.parametrize("seed, m, n", [(0, 10, 4), (0, 12, 1)])
def test_lp2_past_the_full_problems_size_joins_few_star_caps(seed, m, n):
    # the full problems (4,150 and 4,121 standard-form rows) are past the
    # size guard, and their working sets with the joined rows are not
    p = build_benchmark_lp(hard.gen_random_matching(seed, m, n, "adversarial"),
                           include_star_constraints=True)
    rows = p.n_rows + p.n_vars
    assert rows * (p.n_vars + 4 * rows) > lp.MAX_DENSE_ENTRIES
    sol = solve(p)
    assert sol.status == OPTIMAL and 0 < sol.rows_added < len(lp.held_rows(p))
    assert sol.objective == pytest.approx(-_scipy_solve(p).fun, abs=1e-7)


# ---------------------------------------------------------------------------
# Held-back (lazy) rows
# ---------------------------------------------------------------------------

def _with_held_rows(c, A, senses, b, lazy):
    return LpProblem.make(c, A, senses, b, lazy=np.array(lazy, dtype=bool))


@settings(max_examples=300, deadline=None)
@given(seed=strategies.integers(0, 2**32 - 1), n=strategies.integers(1, 15),
       kind=strategies.sampled_from(["survival", "deterministic", "hazard"]))
def test_working_set_solve_agrees_with_the_full_solve(seed, n, kind):
    star = hard.gen_random_star(seed, n, kind)
    assume(kind != "hazard" or star.patience.has_global_rate)
    p = build_arbitrary_patience_lp(star)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "LAZY_ROWS_PER_ROW", 0.0)  # small stars take the loop too
        held = lp.held_rows(p)
        sol = solve(p)
    assert len(held) == np.count_nonzero(p.lazy)
    full = solve(dataclasses.replace(p, lazy=None))
    assert sol.status == full.status
    if sol.status != OPTIMAL:
        return
    assert _objectives_agree(sol.objective, full.objective)
    assert np.isinf(p.ub).all()  # no bound rows: b_scale comes from b alone
    b_scale = 1.0 + np.abs(p.b).max(initial=0.0)
    assert solution_residuals(p, sol)["primal"] <= lp.CERT_TOL * b_scale
    assert sol.duals.shape == (p.n_rows,)
    assert np.count_nonzero(sol.duals[held]) <= sol.rows_added  # zero unless it joined


@pytest.mark.parametrize("seed", [11, 1060, 1140, 262145])
def test_the_full_solve_does_not_stop_short_of_the_optimum(seed):
    # deterministic-patience LP1 at n = 15, where the primal simplex
    # stopped on the kept inverse's duals while the refined duals still
    # priced a column in: 1.4e-8 to 1.9e-8 below HiGHS, or (star 262145) a
    # wrong-signed dual of 0.037 that failed the certificate; those stars
    # were found on the paper's form of LP1, whose optimum the packing form
    # keeps (test_stars checks that with HiGHS)
    star = hard.gen_random_star(seed, 15, "deterministic")
    p = dataclasses.replace(build_arbitrary_patience_lp(star), lazy=None)
    sol, ref = solve(p), -_scipy_solve(p).fun
    assert sol.status == OPTIMAL
    assert abs(sol.objective - ref) <= 1e-9 * (1.0 + abs(ref))


@pytest.mark.parametrize("seed", range(4))
def test_random_problems_with_held_rows_match_the_full_solve(monkeypatch, seed):
    # mixed-sign rows, some held and some in the working set; optimal and
    # unbounded answers, the latter also where only the working set is
    # unbounded and the full problem decides
    monkeypatch.setattr(lp, "LAZY_ROWS_PER_ROW", 0.0)
    rng = np.random.default_rng(500 + seed)
    added, statuses = 0, set()
    for _ in range(40):
        p = _random_problem(rng)
        p = dataclasses.replace(p, lazy=rng.random(p.n_rows) < 0.7)
        sol, full = solve(p), solve(dataclasses.replace(p, lazy=None))
        assert sol.status == full.status
        statuses.add(sol.status)
        if sol.status == OPTIMAL:
            assert _objectives_agree(sol.objective, full.objective)
            added += sol.rows_added
    assert added > 0 and statuses == {OPTIMAL, "unbounded"}


def test_an_unbounded_working_set_falls_back_to_the_full_problem():
    # max x + y s.t. x - y <= 0, held: x + y <= 1, x <= 5, y <= 5, x + y <= 3
    p = _with_held_rows([1.0, 1.0], [[1.0, -1.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                        ["<="] * 5, [0.0, 1.0, 5.0, 5.0, 3.0], [False, True, True, True, True])
    assert len(lp.held_rows(p)) == 4
    kept = lp.KeptBasis()
    sol = solve(p, start=kept)
    assert sol.status == OPTIMAL and sol.objective == pytest.approx(1.0, abs=1e-12)
    assert sol.rows_added == 0 and kept.basis is not None  # the full problem's answer


def test_a_held_row_violated_within_feas_tol_still_joins():
    # max x s.t. x <= 1, held: x <= 1 - 8e-9 and three rows x <= 1.  The
    # working set's x = 1 violates the first held row by less than FEAS_TOL
    # but by more than the certificate allows (CERT_TOL * (1 + max|b|) = 2e-9)
    gap = 8e-9
    assert lp.CERT_TOL * 2.0 < gap < lp.FEAS_TOL
    p = _with_held_rows([1.0], np.ones((5, 1)), ["<="] * 5, [1.0, 1.0 - gap, 1.0, 1.0, 1.0],
                        [False, True, True, True, True])
    sol = solve(p)
    assert sol.status == OPTIMAL and sol.rows_added == 1
    assert sol.objective == pytest.approx(1.0 - gap, abs=1e-15)
    assert solution_residuals(p, sol)["primal"] <= lp.CERT_TOL * 2.0
    assert sol.duals.tolist() == pytest.approx([0.0, 1.0, 0.0, 0.0, 0.0], abs=1e-12)


def test_a_working_set_answer_does_not_warm_start_the_full_problem():
    p, kept = _lp1(3, 15), lp.KeptBasis()
    lazy_sol = solve(p, start=kept)
    assert lazy_sol.rows_added > 0 and kept.basis is None  # its basis covers the joined rows only
    full = dataclasses.replace(p, lazy=None)
    sol = solve(full, start=kept)
    assert sol.start == "identity" and sol.rows_added == 0
    assert _objectives_agree(sol.objective, lazy_sol.objective)


def test_lazy_rows_are_validated_and_carried_by_add_column():
    args = ([1.0], [[1.0], [1.0]], ["<=", ">="], [1.0, 0.0])
    for bad in ([True, False, False], [1, 0], [False, True]):  # shape, dtype, a >= row
        with pytest.raises(ValueError):
            LpProblem.make(*args, lazy=np.array(bad))
    p = LpProblem.make(*args, lazy=np.array([True, False]))
    assert add_column(p, 1.0, [1.0, 1.0]).lazy.tolist() == [True, False]
    assert LpProblem.make(*args).lazy is None


def test_lp1_holds_back_the_suffix_rows_past_the_first_attempt():
    star = hard.gen_random_star(0, 12, "survival")
    p = build_arbitrary_patience_lp(star)
    n, T = star.n, p.n_vars // star.n
    suffix = np.zeros(p.n_rows, dtype=bool)
    suffix[: n * T] = True
    assert p.n_rows == n * T + T
    assert (p.lazy == suffix & (np.arange(p.n_rows) % T > 0)).all()
    assert len(lp.held_rows(p)) == n * (T - 1)  # n = 12 holds them back
    assert len(lp.held_rows(_lp1(0, 8))) == 8 * 7  # n = 8: 56 held against 16 other rows
    assert len(lp.held_rows(_lp1(0, 6))) == 0       # n = 6 does not
