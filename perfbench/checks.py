"""The benchmark's checks on the package's outputs.

No reference here is a stored copy of an earlier output.  LP objectives are
compared with scipy's HiGHS (``linprog``) on the same ``LpProblem``; the
policy LP is rebuilt in full from every ordered subset up to the patience;
the simple-greedy family is compared with its closed form, evaluated with
exact binomials; simulated means are compared with exact values within a
number of standard errors; and policy values are held to the paper's
guarantees and to the optimum chain.
"""

from __future__ import annotations

import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np

Z_SE = 4.0          # simulated vs exact: within this many standard errors
LP_TOL = 1e-7       # LP objective vs HiGHS, and chain slack
RESIDUAL_TOL = 1e-7  # largest primal violation of a returned LP solution
COLGEN_TOL = 1e-6   # column generation vs the full policy LP
CONFIDENCE = 0.999  # the half-width the guarantee checks subtract
IID_FACTOR = 1.0 - 1.0 / math.e
PROPHET_FACTOR = 0.5


# ---------------------------------------------------------------------------
# Closed forms and pooled estimates
# ---------------------------------------------------------------------------

def simple_greedy_closed_form(k: int, n: int) -> float:
    """Expected matching size of the first-neighbor greedy on the two-block
    family: ``k + sum_{l<k} C(n,l) p^l (1-p)^(n-l) (k-l)`` with ``p = k/n``,
    summed in exact rational arithmetic."""
    p = Fraction(k, n)
    total = Fraction(k)
    for l in range(k):
        total += math.comb(n, l) * p ** l * (1 - p) ** (n - l) * (k - l)
    return float(total)


def pooled(reports) -> tuple[float, float]:
    """Mean over a group of simulation reports of their means, and its
    standard error (the reports are independent)."""
    k = len(reports)
    mean = sum(r.mean for r in reports) / k
    var = sum(r.stddev ** 2 / r.trials for r in reports)
    return mean, math.sqrt(var) / k


def within_se(observed: float, expected: float, se: float, z: float = Z_SE) -> bool:
    return abs(observed - expected) <= z * se


def guarantee_holds(mean: float, se: float, factor: float, lp_value: float) -> bool:
    """``mean >= factor * lp_value - half_width`` at ``CONFIDENCE``."""
    half_width = NormalDist().inv_cdf(0.5 + CONFIDENCE / 2.0) * se
    return mean >= factor * lp_value - half_width


# ---------------------------------------------------------------------------
# LP references
# ---------------------------------------------------------------------------

def highs_objective(problem) -> float:
    """Optimal objective of an ``LpProblem`` (a maximization) by HiGHS."""
    from scipy.optimize import linprog

    senses = np.asarray(problem.senses)
    le, ge, eq = senses == "<=", senses == ">=", senses == "="
    A_ub = np.vstack([problem.A[le], -problem.A[ge]])
    b_ub = np.concatenate([problem.b[le], -problem.b[ge]])
    bounds = [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
              for lo, hi in zip(problem.lb, problem.ub)]
    res = linprog(-problem.c,
                  A_ub=A_ub if len(b_ub) else None, b_ub=b_ub if len(b_ub) else None,
                  A_eq=problem.A[eq] if eq.any() else None,
                  b_eq=problem.b[eq] if eq.any() else None,
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference solve failed: {res.message}")
    return float(-res.fun)


def lp_solution_ok(objective: float | None, primal_residual: float,
                   reference: float) -> bool:
    """An LP solve is right when its objective matches HiGHS and its x is
    primal feasible."""
    return (objective is not None and abs(objective - reference) <= LP_TOL
            and primal_residual <= RESIDUAL_TOL)


def full_policy_lp_objective(instance) -> float:
    """The policy LP over every ordered subset of each type's neighbors up
    to its (deterministic) patience, solved by HiGHS.

    ``max sum_{v,pi} x_{v,pi} sum_u w_uv p_u(pi)`` subject to
    ``sum_{v,pi} p_u(pi) x_{v,pi} <= 1`` for each offline ``u`` and
    ``sum_pi x_{v,pi} = q_v`` for each type ``v``."""
    from scipy.optimize import linprog
    from stochmatch.instances import Policy, StarInstance
    from stochmatch.stars import enumerate_policies, policy_match_probabilities

    m, n = instance.m, instance.n_types
    W = instance.weights_matrix()
    q_v = instance.arrivals.expected_arrivals(n)
    cols, costs, types = [], [], []
    for v in range(n):
        pat = instance.patience[v]
        if not pat.is_deterministic:
            raise ValueError("the full policy LP is built for deterministic patience")
        star = StarInstance(tuple(W[:, v]), tuple(float(p) for p in instance.probs[:, v]), pat)
        items = [u for u in range(m) if instance.probs[u, v] > 0.0]
        for sub in enumerate_policies(len(items), pat.theta):
            pvec = policy_match_probabilities(star, Policy(tuple(items[i] for i in sub.order)))
            cols.append(pvec)
            costs.append(float(pvec @ W[:, v]))
            types.append(v)
    A_ub = np.column_stack(cols)
    A_eq = np.zeros((n, len(cols)))
    A_eq[types, np.arange(len(cols))] = 1.0
    res = linprog(-np.asarray(costs), A_ub=A_ub, b_ub=np.ones(m), A_eq=A_eq, b_eq=q_v,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference solve failed: {res.message}")
    return float(-res.fun)


def colgen_ok(objective: float, status: str, reference: float) -> bool:
    return status == "optimal" and abs(objective - reference) <= COLGEN_TOL


# ---------------------------------------------------------------------------
# Exact values against guarantees and optima
# ---------------------------------------------------------------------------

def exact_guarantee_ok(exact: float, factor: float, lp_value: float) -> bool:
    """An exact policy-LP matcher value meets ``factor`` times its LP."""
    return exact >= factor * lp_value - LP_TOL


def optimum_chain_ok(greedy: float, offline: float, lp2: float, lp6: float) -> bool:
    """AdvGreedy exact <= offline optimum <= LP2 <= LP6, up to ``LP_TOL``."""
    return greedy <= offline + LP_TOL and offline <= lp2 + LP_TOL and lp2 <= lp6 + LP_TOL


def randomized_value_ok(value: float, lp1: float, optimum: float) -> bool:
    """The randomized LP policy earns at least half the LP1 optimum and no
    more than the best ordered policy."""
    return 0.5 * lp1 - LP_TOL <= value <= optimum + LP_TOL
