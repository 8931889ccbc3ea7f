import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import linprog

import stochmatch
from stochmatch import hard_instances as hard
from stochmatch import lp
from stochmatch.instances import LpNumericalError
from stochmatch.lp import (
    LpProblem,
    OPTIMAL,
    add_column,
    dumps_lp,
    solution_residuals,
    solve,
)
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


def test_infeasible_and_unbounded():
    assert solve(LpProblem.make([1.0], [[1.0], [1.0]], ["<=", ">="], [1.0, 2.0])).status == "infeasible"
    assert solve(LpProblem.make([1.0], np.zeros((0, 1)), [], [])).status == "unbounded"


@pytest.mark.parametrize("lb", [0.0, 1.0, -2.0, -np.inf])
@pytest.mark.parametrize("c", [-1.5, 0.0, 2.0])
def test_row_free_lp_takes_the_bound_its_objective_favors(c, lb):
    sol = solve(LpProblem.make([c], np.zeros((0, 1)), [], [], lb=[lb]))
    if c > 0 or (c < 0 and lb == -np.inf):
        assert sol.status == "unbounded" and sol.x is None and sol.objective is None
        return
    x = lb if np.isfinite(lb) else 0.0  # a free variable with no cost sits at 0
    assert sol.status == OPTIMAL
    assert sol.x.tolist() == [x] and sol.duals.shape == (0,)
    assert sol.objective == sol.dual_objective == c * x


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


def _random_problem(rng):
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 9))
    c = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    senses = [("<=", "=", ">=")[rng.integers(0, 3)] for _ in range(m)]
    b = rng.normal(size=m)
    lb = np.where(rng.random(n) < 0.8, 0.0, -np.inf)
    ub = np.where(rng.random(n) < 0.5, rng.uniform(0.5, 3.0, n), np.inf)
    return LpProblem.make(c, A, senses, b, lb, ub)


def _scipy_solve(p):
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
    return linprog(-p.c, A_ub=np.array(A_ub) if A_ub else None, b_ub=b_ub or None,
                   A_eq=np.array(A_eq) if A_eq else None, b_eq=b_eq or None,
                   bounds=bounds, method="highs")


@pytest.mark.parametrize("seed", range(8))
def test_matches_reference_solver_on_random_lps(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        p = _random_problem(rng)
        sol = solve(p)
        ref = _scipy_solve(p)
        expected = {2: "infeasible", 3: "unbounded"}.get(ref.status, "optimal")
        assert sol.status == expected
        if expected == "optimal":
            assert sol.objective == pytest.approx(-ref.fun, abs=1e-6, rel=1e-6)


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


@pytest.mark.parametrize("n", [8, 12, 15])
def test_lp1_of_random_survival_stars_is_feasible_and_optimal(n):
    # degenerate LPs on which the engine used to stop at "optimal" with a
    # primal-infeasible x (3, 12 and 20 of these 40 seeds)
    for seed in range(40):
        p = _lp1(seed, n)
        sol = solve(p)
        assert solution_residuals(p, sol)["primal"] <= 1e-9, seed
        assert sol.objective == pytest.approx(-_scipy_solve(p).fun, abs=1e-7), seed


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
    ("b", np.inf), ("lb", np.nan), ("ub", np.nan)])
def test_make_rejects_non_finite_input(field, value):
    args = {"c": [1.0, 1.0], "A": [[1.0, 2.0]], "b": [1.0], "lb": [0.0, 0.0],
            "ub": [1.0, np.inf]}
    arr = np.array(args[field], dtype=float)
    arr.flat[0] = value
    args[field] = arr
    with pytest.raises(ValueError):
        LpProblem.make(args["c"], args["A"], ["<="], args["b"], args["lb"], args["ub"])
