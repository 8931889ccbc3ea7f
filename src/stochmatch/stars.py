"""Probing a single arrival against a set of weighted stochastic items.

Probes are made one at a time under probe-commit: a successful probe must be
matched and probing stops.  The arrival's patience limits how many probes
can be attempted, under any of the three patience models.  This module
provides

* exact evaluation of many probing orders at once (``order_match``, the
  package's one walk of an order),
* one batched ``plan`` per star solver for every star of a ``StarBatch``
  (one star's induced stars, or one star per row): one exact DP for
  deterministic patience (``_patience_dp``), one argsort of the exact index
  rule ``w_i p_i / q_i`` for per-item hazard rates, and a loop over the
  rows for the LP policy and brute force (``_plan_each``),
* an attempt-indexed LP relaxation for arbitrary explicit patience
  distributions and the randomized policy read off its optimal solution
  (guaranteed at least half the LP bound),
* brute-force enumeration oracles,
* a closed form for the match probabilities of a randomized attempt
  policy: every draw ends the arrival with the drawn item's success
  probability, real probe or simulated, so survival does not depend on
  what was probed and no expansion over probed sets is needed, and
* the walk of any ``plan`` answer whose orders index a probability vector
  (``plan_match``: greedy exact values, LP2's star-cap rows), and the
  adjusted-weight pricing problem of column generation (``price``), one
  ``plan`` call and one walk.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import lp
from .instances import (
    CapacityError,
    EMPTY_POLICY,
    PatienceVariantError,
    Policy,
    StarInstance,
    StochmatchError,
    check_policy,
)

BRUTE_FORCE_MAX_ITEMS = 7
ZERO_SURVIVAL = 1e-9  # attempt rows with survival mass below this are zeroed


@dataclass(frozen=True)
class RandomizedStarPolicy:
    """Per-attempt probe distributions read off the attempt-indexed LP.

    ``attempt_probs[t, j]`` is the probability of probing item ``j`` on
    attempt ``t+1`` conditioned on the process being alive then; it equals
    ``x*_{j,t+1} / s*_{t+1}`` (zero row where the survival mass vanishes).
    Rows sum to at most 1; leftover mass means no probe is made on that
    attempt.  When execution re-selects an item that was already probed,
    the probe is simulated: a simulated success terminates the arrival
    with no reward.
    """

    attempt_probs: np.ndarray  # (n, n)
    survival: np.ndarray       # (n,) optimal s* values
    lp_objective: float


@dataclass(frozen=True)
class StarResult:
    """A probing policy with its exact expected reward and, when one is
    attached, the benchmark it was measured against (LP objective for the
    randomized policy, the optimal value for exact solvers)."""

    policy: Policy | RandomizedStarPolicy
    expected_value: float
    benchmark: float | None = None


# ---------------------------------------------------------------------------
# Exact evaluation of probing orders
# ---------------------------------------------------------------------------

def _walk_terms(probs, patience) -> tuple[np.ndarray, np.ndarray]:
    """Per item the probability that probing it ends the arrival (``p_i``,
    or under hazard patience ``p_i + (1-p_i) r_i``: success, or failure and
    a balk), and per probe the probability that ``patience`` allows it."""
    p = np.asarray(probs, dtype=float)
    if patience.is_hazard:
        return p + (1.0 - p) * patience.hazard_rates(len(p)), np.ones(len(p))
    return p, patience.survival_curve(len(p))


def _padded(values) -> np.ndarray:
    """``values`` and a trailing 0.0, the entry that padding indexes."""
    out = np.zeros(len(values) + 1)
    out[:-1] = values
    return out


def _probe_entries(probs, ends, curve, orders, lengths) -> tuple[np.ndarray, np.ndarray]:
    """Per entry of ``orders``, the probability that probing it matches
    (zero past the row's length), and the entries with the padding mapped
    to ``n = len(probs)``: row ``i`` probes its first ``lengths[i]`` entries.
    ``ends`` and ``curve`` are ``_walk_terms``; ``curve`` may hold one row
    per row of ``orders``.  Each row's prefix of surviving terms is one
    ``np.cumprod``, in probe order.
    """
    n = len(probs)
    p, e = _padded(probs), _padded(ends)
    orders = np.asarray(orders, dtype=np.intp)
    width = orders.shape[1]
    idx = np.where(np.arange(width) < np.asarray(lengths)[:, None], orders, n)
    alive = np.ones(idx.shape)
    alive[:, 1:] = np.cumprod(1.0 - e[idx[:, :-1]], axis=1)
    return curve[..., :width] * alive * p[idx], idx


def order_match(probs, patience, orders, lengths) -> np.ndarray:
    """Match probabilities, ``(L, n)`` over the items of ``probs``, of
    arrivals with ``patience`` where row ``i`` probes the first
    ``lengths[i]`` entries of ``orders[i]``, all available."""
    entry, idx = _probe_entries(probs, *_walk_terms(probs, patience), orders, lengths)
    out = np.zeros((idx.shape[0], len(probs) + 1))  # the last column takes the padding
    out[np.arange(idx.shape[0])[:, None], idx] = entry
    return out[:, :-1]


def _order_values(star: StarInstance, orders, lengths) -> np.ndarray:
    """Expected reward of each row of ``orders`` on ``star``, a running
    total from 0.0 in probe order."""
    entry, idx = _probe_entries(star.probs, *_walk_terms(star.probs, star.patience), orders,
                                lengths)
    gains = np.zeros((idx.shape[0], idx.shape[1] + 1))
    gains[:, 1:] = entry * _padded(star.weights)[idx]
    return np.cumsum(gains, axis=1)[:, -1]


def eval_policy_exact(star: StarInstance, policy: Policy) -> float:
    """Exact expected reward of probing in the given order."""
    check_policy(policy, star.n)
    return float(_order_values(star, [policy.order], [len(policy)])[0])


def policy_match_probabilities(star: StarInstance, policy: Policy) -> np.ndarray:
    """Probability that the arrival is matched to each item when following
    ``policy`` with every item available; zero for items not probed."""
    check_policy(policy, star.n)
    return order_match(star.probs, star.patience, [policy.order], [len(policy)])[0]


# ---------------------------------------------------------------------------
# Exact solvers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StarBatch:
    """Stars planned in one ``StarSolver.plan`` call: star ``r`` has the
    items that row ``r`` of the boolean ``present`` marks, and its row of
    ``probs``, ``weights`` and ``patience``, or their one row that every
    star shares (one star's induced stars, ``induced``)."""

    probs: np.ndarray    # (L, n) or (1, n)
    weights: np.ndarray  # (L, n) or (1, n)
    present: np.ndarray  # (L, n) bool
    patience: tuple      # L models or one

    @staticmethod
    def induced(star: StarInstance, avail) -> StarBatch:
        """The stars ``star.with_items(np.flatnonzero(avail[r]))``, one per
        row of the boolean ``avail``; ``of(star)`` is ``star`` alone."""
        return StarBatch(np.array([star.probs], dtype=float), np.array([star.weights], dtype=float),
                         np.asarray(avail, dtype=bool), (star.patience,))

    @staticmethod
    def of(star: StarInstance) -> StarBatch:
        return StarBatch.induced(star, np.ones((1, star.n), dtype=bool))

    def star(self, r: int) -> tuple[np.ndarray, StarInstance]:
        """Row ``r``'s items, as indices into the ``n`` items, and its star."""
        s = r if len(self.probs) > 1 else 0
        items = np.flatnonzero(self.present[r])
        return items, StarInstance(tuple(self.weights[s, items].tolist()),
                                   tuple(self.probs[s, items].tolist()),
                                   self.patience[s].subset(items.tolist()))


def solve_deterministic_patience(star: StarInstance) -> StarResult:
    """Optimal ordered subset for a fixed probe budget ``theta``: the
    one-row call of ``deterministic_patience_dp``."""
    orders, lengths, values = deterministic_patience_dp(StarBatch.of(star))
    value = float(values[0])
    return StarResult(Policy(tuple(orders[0, :lengths[0]].tolist())), value, value)


def _dp_budget(patience) -> int:
    if not patience.is_deterministic:
        raise PatienceVariantError("deterministic-patience solver needs deterministic patience")
    return patience.theta


def deterministic_patience_dp(batch: StarBatch) -> tuple[np.ndarray, ...]:
    """Optimal ordered subsets for fixed probe budgets ``theta`` on every
    star of ``batch``: star ``r``'s optimal order is the first
    ``lengths[r]`` entries of ``orders[r]`` (indices into the ``n`` items)
    and its expected reward is ``values[r]``.  Each row of probabilities
    and weights sorts its items with ``p > 0`` by ``(-w, index)``, all in
    one stable argsort, so one star's induced stars share one sort, and a
    star lacks the sorted items it does not have (``_patience_dp``)."""
    p, w = batch.probs, batch.weights
    theta = np.array([_dp_budget(pat) for pat in batch.patience])
    keep = p > 0.0
    cols = np.argsort(np.where(keep, -w, np.inf), axis=1, kind="stable")
    cols = cols[:, :keep.sum(axis=1).max(initial=0)]
    at = cols.T, np.arange(len(cols))  # (position, star) of each row of probabilities and weights
    picks, lengths, values = _patience_dp(batch.present.T[cols.T, np.arange(len(batch.present))],
                                          (p * w).T[at], 1.0 - p.T[at], theta)
    padded = np.append(cols, np.zeros((len(cols), 1), dtype=np.intp), axis=1)
    return padded[np.arange(len(cols))[:, None], picks], lengths, values


def _patience_dp(present, gain, fail, theta) -> tuple[np.ndarray, ...]:
    """The package's one deterministic-patience DP, over many stars at
    once.  Star ``r``'s items are sorted by ``(-w, index)`` into positions
    ``i``: ``present[i, r]`` tells whether the star has the item there,
    ``gain[i]`` is its ``p w`` and ``fail[i]`` its ``1 - p`` (a column
    each for all stars, or one per star); the array ``theta`` holds each
    star's probe budget (or one for all).  The optimal order of star ``r``
    is the positions ``picks[r, :lengths[r]]`` (``k``, the position count,
    pads the rest) and its expected reward is ``values[r]``.

    Probing a chosen set in decreasing weight order is optimal (an adjacent
    swap changes the value by ``prefix * p_a p_b (w_a - w_b)``), so a
    knapsack DP over the sorted positions finds the optimum: with ``t``
    probes left, ``D_t[i] = max(D_t[i+1], p_i w_i + (1 - p_i) D_{t-1}[i+1])``
    from position ``i`` on, probing ``i`` on ties.  ``D_t`` is a suffix
    maximum, so the DP makes one pass per unit of budget over every
    position and star.  A missing item probes at -inf and never wins the
    maximum, and a budget above the items left changes nothing, so every
    star gets the values and choices of the DP over its own items.  A star
    joins the DP for its last ``theta[r]`` passes only (all of them when
    its budget is larger, none when it is 0): before, all its probes score
    -inf, so its ``D`` stays 0 and no position but ``k`` takes.  Its
    budget then runs out exactly at the last pass, and every walk reads
    the passes from the last one down.  Where no star joins late (one
    budget for all, as in every induced batch), every pass shares one
    gain.
    """
    k, n_rows = present.shape
    passes = min(int(theta.max(initial=0)), k)
    fail = fail * present
    late = int(theta.min(initial=passes)) < passes
    if late:  # gain[t - 1] for pass t: a star joins once fewer passes are left than its budget
        present = present & (np.arange(passes - 1, -1, -1)[:, None, None] < theta)
    gain = np.where(present, gain, -np.inf)
    # D[i, row]: D_t[i] of the pass, D[k] = 0; take[t - 1, i]: probe i in pass t
    # (position k always takes: it ends a walk)
    D = np.zeros((k + 1, n_rows))
    take = np.ones((passes, k + 1, n_rows), dtype=bool)
    for t in range(1, passes + 1):
        probe = (gain[t - 1] if late else gain) + fail * D[1:]
        D[:k] = probe
        span = 1
        while span <= k:  # suffix maximum by doubling spans
            np.maximum(D[:-span], D[span:], out=D[:-span])
            span *= 2
        np.greater_equal(probe, D[1:], out=take[t - 1, :k])
    # probe s of a walk is the first position on that takes in the s-th pass from the last
    ranks = np.arange(k + 1)[:, None]
    picks = np.empty((passes, n_rows), dtype=np.intp)
    at = np.zeros(n_rows, dtype=np.intp)
    for s in range(passes):
        picks[s] = np.argmax(take[passes - 1 - s] & (ranks >= at), axis=0)
        at = np.minimum(picks[s] + 1, k)
    return picks.T, np.count_nonzero(picks < k, axis=0), D[0]


def solve_constant_hazard(star: StarInstance) -> StarResult:
    """Optimal order under per-item hazard rates: the one-row call of
    ``_plan_hazard``, valued by ``eval_policy_exact``."""
    orders, lengths, _ = _plan_hazard(StarBatch.of(star))
    policy = Policy(tuple(orders[0, :lengths[0]].tolist()))
    value = eval_policy_exact(star, policy)
    return StarResult(policy, value, value)


def _plan_hazard(batch: StarBatch):
    """Optimal orders under per-item hazard rates on every star of
    ``batch``: sort by ``w_i p_i / q_i`` with ``q_i = p_i + (1-p_i) r_i``,
    descending, ties to the lower index, in one stable argsort over every
    row.  Items that cannot contribute (``w_i p_i = 0``) only burn patience
    and are dropped."""
    if not all(pat.is_hazard for pat in batch.patience):
        raise PatienceVariantError("constant-hazard solver needs hazard patience")
    p, w = batch.probs, batch.weights
    q = np.array([_walk_terms(row, pat)[0] for row, pat in zip(p, batch.patience)])
    keep = batch.present & (w * p > 0.0)
    key = np.divide(-w * p, q, out=np.full(keep.shape, np.inf), where=keep)
    lengths = np.count_nonzero(keep, axis=1)
    return np.argsort(key, axis=1, kind="stable")[:, :lengths.max(initial=0)], lengths, {}


def enumerate_policies(n: int, max_len: int | None = None):
    """All ordered subsets of ``range(n)`` up to ``max_len``, in a fixed
    deterministic order (by length, then lexicographic)."""
    cap = n if max_len is None else min(max_len, n)
    yield EMPTY_POLICY
    for r in range(1, cap + 1):
        for combo in itertools.combinations(range(n), r):
            for perm in itertools.permutations(combo):
                yield Policy(perm)


@functools.lru_cache(maxsize=64)
def enumerated_orders(n: int, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """``enumerate_policies(n, max_len)`` as read-only ``order_match`` input."""
    orders, lengths = _pack_orders([pol.order for pol in enumerate_policies(n, max_len)])
    orders.flags.writeable = lengths.flags.writeable = False
    return orders, lengths


def _pack_orders(orders) -> tuple[np.ndarray, np.ndarray]:
    """Probing orders as zero-padded rows, with their lengths."""
    lengths = np.array([len(o) for o in orders], dtype=np.intp)
    packed = np.zeros((len(orders), lengths.max(initial=0)), dtype=np.intp)
    for g, order in enumerate(orders):
        packed[g, :len(order)] = order
    return packed, lengths


def brute_force_optimal(star: StarInstance) -> StarResult:
    """Exhaustive search over all ordered subsets (failed probes carry no
    information beyond their count, so some ordered subset is optimal).
    Only for tiny stars.  Every order is scored in one walk, and the first
    maximal one in enumeration order wins; the empty policy when no value
    is positive."""
    if star.n > BRUTE_FORCE_MAX_ITEMS:
        raise CapacityError(
            f"brute force capped at {BRUTE_FORCE_MAX_ITEMS} items, got {star.n}")
    items = [i for i in range(star.n) if star.probs[i] > 0.0]
    sub = star.with_items(items)
    orders, lengths = enumerated_orders(sub.n, sub.patience.max_probes(sub.n))
    values = _order_values(sub, orders, lengths)
    g = int(np.argmax(values))
    if not values[g] > 0.0:
        return StarResult(EMPTY_POLICY, 0.0, 0.0)
    best = float(values[g])
    mapped = Policy(tuple(items[i] for i in orders[g, :lengths[g]].tolist()))
    return StarResult(mapped, best, best)


# ---------------------------------------------------------------------------
# Attempt-indexed LP for arbitrary patience distributions
# ---------------------------------------------------------------------------

def _lp_survival(star: StarInstance, items: int) -> np.ndarray:
    """``q̂ = q / q_1`` over the LP's attempts: the survival curve capped
    at ``items`` and cut at its first zero, so no attempt divides by 0."""
    curve = star.patience.survival_curve(items)
    T = int(np.logical_and.accumulate(curve > 0.0).sum())
    return curve[:T] / curve[0] if T else curve[:0]


def build_arbitrary_patience_lp(star: StarInstance, multiplicity=None) -> lp.LpProblem:
    """LP relaxation over probe variables ``x_{j,t}`` (probability of
    probing item ``j`` on attempt ``t``) and survival ``s_t``, with ``s``
    substituted out, which leaves a packing LP.

    The paper's form: each item is probed at most once across any attempt
    suffix (``sum_{t >= t'} x_{j,t} <= s_{t'}``); at most one probe per
    attempt (``sum_j x_{j,t} <= s_t``); ``s_1 = 1``; and the survival
    recursion ``s_t = (q_t / q_{t-1}) (s_{t-1} - sum_j p_j x_{j,t-1})``.
    The optimal objective upper-bounds every probing algorithm.  With
    ``q̂ = q / q_1`` (``_lp_survival``) and ``y_{j,t} = x_{j,t} / q̂_t``
    the recursion reads ``s_t = q̂_t (1 - F_t)``, ``F_t = sum_{tau < t}
    sum_i p_i y_{i,tau}``, and dividing each row by its ``q̂`` leaves
    ``max sum w_j p_j q̂_t y_{j,t}`` subject to the suffix rows
    ``sum_{t >= t'} (q̂_t / q̂_{t'}) y_{j,t} + m_j F_{t'} <= m_j`` and the
    attempt rows ``sum_j y_{j,t} + F_t <= 1``, which also give ``s >= 0``
    (Andersen & Andersen 1995's presolve of variables fixed by equality
    rows).  Every row is ``<=`` with a positive right-hand side: a
    packing LP, which ``lp.solve`` starts from the slack basis.  Attempts
    are capped at the item count (an item can be probed at most once) and
    cut at the first zero of the curve (``s`` is 0 from there on), both of
    which leave the optimum unchanged.

    ``multiplicity[j]`` (``m_j``, else 1) makes item ``j`` stand for that
    many identical items: ``x_{j,t}`` is then their total probe mass and
    the suffix rows allow ``m_j s_{t'}``.  Averaging a solution of the
    item-level LP over permutations within each class and splitting an
    aggregated one evenly map feasible solutions onto each other with the
    same objective, so the optimum is that of the item-level LP.

    Layout: ``y_{j,t}`` at ``j * T + t`` (``T`` attempts, no ``s``);
    suffix row ``(j, t')`` at ``j * T + t'``, then attempt row ``t`` at
    ``n * T + t``.  ``x = q̂ y``, and ``s`` follows from the recursion
    above.  The suffix rows with ``t' >= 1`` are ``lazy``: few of them
    bind, and ``lp.solve`` holds them back on stars of 8 items or more.
    """
    n = star.n
    copies = np.ones(n) if multiplicity is None else np.asarray(multiplicity, dtype=float)
    q = _lp_survival(star, int(copies.sum()))
    T = q.size
    if n == 0 or T == 0:
        return lp.LpProblem.make(np.zeros(0), np.zeros((0, 0)), (), np.zeros(0))
    p = np.asarray(star.probs)
    w = np.asarray(star.weights)
    nx = n * T
    A = np.zeros((nx + T, nx))
    # attempt row t: p_i on y_{i,tau}, tau < t (F_t), then 1 on y_{j,t}
    attempt = A[nx:]
    np.multiply(p[:, None], np.tri(T, k=-1)[:, None, :], out=attempt.reshape(T, n, T))
    # suffix row (j, t'): m_j F_t', plus q̂_t / q̂_t' on y_{j,t}, t >= t'
    np.multiply(copies[:, None, None], attempt, out=A[:nx].reshape(n, T, nx))
    # only the kept entries are divided: below the diagonal q̂_t / q̂_t' could overflow
    A[:nx].reshape(n, T, n, T)[np.arange(n), :, np.arange(n)] += np.divide(
        q, q[:, None], out=np.zeros((T, T)), where=~np.tri(T, k=-1, dtype=bool))
    attempt.reshape(T, n, T)[np.arange(T), :, np.arange(T)] = 1.0
    lazy = np.zeros((n + 1, T), dtype=bool)
    lazy[:n, 1:] = True
    return lp.LpProblem.make(((w * p)[:, None] * q).ravel(), A, (lp.LE,) * (nx + T),
                             np.concatenate([np.repeat(copies, T), np.ones(T)]),
                             lazy=lazy.ravel())


def _lp_supported_patience(star: StarInstance) -> bool:
    pat = star.patience
    return pat.is_survival or pat.is_deterministic or pat.has_global_rate


def solve_arbitrary_patience(star: StarInstance) -> StarResult:
    """Solve the attempt-indexed LP and read off the randomized policy.

    Works for any explicitly given patience distribution (survival curve,
    deterministic step, or the geometric curve of a global hazard rate).
    The returned policy's exact expected reward, which is at least half the
    LP objective, comes with it (``randomized_match_probabilities``).
    """
    if not _lp_supported_patience(star):
        raise PatienceVariantError(
            "the LP policy needs a policy-independent patience distribution")
    n = star.n
    q = _lp_survival(star, n)
    T = q.size
    sol = lp.solve(build_arbitrary_patience_lp(star))
    if sol.status != lp.OPTIMAL:
        raise StochmatchError(f"attempt-indexed LP came back {sol.status}")
    y = sol.x.reshape(n, T)
    x = q * y
    s = q * (1.0 - np.concatenate(([0.0], np.cumsum(np.asarray(star.probs) @ y)))[:T])
    probs = np.zeros((n, n))
    surv = np.zeros(n)
    surv[:T] = np.clip(s, 0.0, None)
    for t in range(T):
        if surv[t] <= ZERO_SURVIVAL:
            continue
        row = np.clip(x[:, t], 0.0, None) / surv[t]
        total = row.sum()
        if total > 1.0:
            row /= total
        probs[t, :] = row
    rsp = RandomizedStarPolicy(probs, surv, sol.objective)
    return StarResult(rsp, eval_randomized_exact(star, rsp), sol.objective)


def randomized_match_probabilities(star: StarInstance,
                                   rsp: RandomizedStarPolicy) -> np.ndarray:
    """Per-item probabilities of a real match when executing ``rsp``.

    On each attempt an item is drawn from that attempt's row (leftover row
    mass makes no probe, but the attempt still elapses); re-drawing an item
    already probed simulates the probe, and a simulated success ends the
    arrival with no reward.  Every draw of ``j``, real or simulated, ends
    the arrival with probability ``p_j``, and the rows do not depend on
    what was probed, so the arrival is alive at attempt ``t`` without
    having drawn ``j`` with probability

        B_{t,j} = prod_{s<t} ratio_s (idle_s + sum_i r_{s,i} (1 - p_i)
                                      - r_{s,j} (1 - p_j)),

    where ``ratio_s = q_{s+1} / q_s`` is the patience surviving into the
    next attempt.  The first draw of ``j`` is its real probe, so ``j`` is
    matched with probability ``sum_t B_{t,j} r_{t,j} p_j``: an O(T n)
    loop, no expansion over probed sets.
    """
    n = star.n
    curve = star.patience.survival_curve(n).tolist()
    p = star.probs
    rows = rsp.attempt_probs.tolist()
    T = len(rows)
    idle = (1.0 - rsp.attempt_probs.sum(axis=1)).tolist()
    match = [0.0] * n
    unseen = [1.0] * n  # B_{t,j}
    for t, row in enumerate(rows):
        if curve[t] <= 0.0:
            break
        ratio = curve[t + 1] / curve[t] if t + 1 < T else 0.0
        fail = [pr * (1.0 - p[j]) if pr > 0.0 else 0.0 for j, pr in enumerate(row)]
        stay = (idle[t] if idle[t] > 1e-15 else 0.0) + sum(fail)
        for j, pr in enumerate(row):
            if pr > 0.0:
                match[j] += unseen[j] * pr * p[j]
            unseen[j] *= ratio * (stay - fail[j])
    return np.array(match)


def eval_randomized_exact(star: StarInstance, rsp: RandomizedStarPolicy) -> float:
    """Exact expected reward of executing a randomized attempt policy."""
    return float(randomized_match_probabilities(star, rsp) @ np.asarray(star.weights))


# ---------------------------------------------------------------------------
# Black boxes and pricing
# ---------------------------------------------------------------------------

def _plan_each(solve, batch: StarBatch):
    """Plan every star of ``batch`` on its own: ``solve`` once per distinct
    row, its items and star (``StarBatch.star``), and the empty policy for
    an empty star.  The rows of a one-star batch differ only in their
    items, so there a row's star is built only when its items are new.  A
    randomized plan's row lists its star's items in index order, and
    ``randomized`` maps the row to the policy."""
    picked, randomized, solved = [], {}, {}
    shared = len(batch.probs) == 1
    for r, row in enumerate(batch.present):
        items, star = (np.flatnonzero(row), None) if shared else batch.star(r)
        key = row.tobytes(), star
        if key not in solved:
            if star is None:
                star = batch.star(r)[1]
            solved[key] = solve(star).policy if items.size else EMPTY_POLICY
        policy = solved[key]
        if isinstance(policy, Policy):
            picked.append(items[list(policy.order)])
        else:
            picked.append(items)
            randomized[r] = policy
    return (*_pack_orders(picked), randomized)


# per solver: its plan, its one-star solve and its approximation factor
_SOLVERS = {
    "dp": (lambda batch: (*deterministic_patience_dp(batch)[:2], {}),
           solve_deterministic_patience, 1.0),
    "hazard": (_plan_hazard, solve_constant_hazard, 1.0),
    "lp": (functools.partial(_plan_each, solve_arbitrary_patience), solve_arbitrary_patience, 0.5),
    "brute": (functools.partial(_plan_each, brute_force_optimal), brute_force_optimal, 1.0),
}


@dataclass(frozen=True)
class StarSolver:
    """A named star-graph black box with its approximation factor kappa.

    ``plan(batch)``, which every package caller uses, plans every star of a
    ``StarBatch`` in one call and returns ``(orders, lengths, randomized)``:
    star ``r`` probes the first ``lengths[r]`` entries of ``orders[r]``, or,
    when ``randomized`` maps ``r`` to a ``RandomizedStarPolicy``, they are
    the items that policy runs on, in index order.  ``solve(star)`` solves
    one star with its value: the one-row call of the ``dp`` and ``hazard``
    plans, the function that the ``lp`` and ``brute`` plans run per row.
    """

    name: str
    kappa: float

    def plan(self, batch: StarBatch):
        return _SOLVERS[self.name][0](batch)

    def solve(self, star: StarInstance) -> StarResult:
        return _SOLVERS[self.name][1](star)


def solver_by_name(name: str) -> StarSolver:
    if name not in _SOLVERS:
        raise StochmatchError(f"unknown star solver {name!r}")
    return StarSolver(name, _SOLVERS[name][2])


def auto_solver(star_or_patience) -> StarSolver:
    """The exact solver for the patience variant when one exists, the
    1/2-approximate LP policy otherwise."""
    pat = star_or_patience.patience if isinstance(star_or_patience, StarInstance) else star_or_patience
    if pat.is_deterministic:
        return solver_by_name("dp")
    if pat.is_hazard:
        return solver_by_name("hazard")
    return solver_by_name("lp")


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the columns of a matrix by value, in ``np.lexsort`` order (the
    last row is the primary key): per column the index of its group, and
    per group the index of its first column.  The package's one grouping:
    the offline oracle's states and type classes (``simulate``) and
    AdvGreedy's free-set keys (``_distinct_rows``) all go through it."""
    order = np.lexsort(keys)
    keys = keys[:, order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    group = np.empty(order.size, dtype=np.intp)
    group[order] = new.cumsum() - 1
    return group, order[new]


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of a boolean ``(n, k)`` matrix as packed keys, per
    row the index of its key, and per key its first row (``_distinct`` over
    the keys).  A key is ``max(1, ceil(k / 64))`` uint64 words,
    little-endian (entry ``j`` is bit ``j % 64`` of word ``j // 64``)."""
    n, k = rows.shape
    width = max(1, -(-k // 64))  # words per key
    padded = np.zeros((n, width * 64), dtype=bool)
    padded[:, :k] = rows
    words = np.packbits(padded, bitorder="little").view("<u8").reshape(n, width)
    group, first = _distinct(words.T)
    return words[first], group, first


def plan_match(probs, weights, patience, plan) -> np.ndarray:
    """Match probabilities, ``(L, n)`` over the ``n`` items of the array
    ``probs``, of a ``StarSolver.plan`` answer whose orders index them: one
    ``order_match`` walk, then each randomized row replaced on its items,
    the only entries its walk wrote, by ``randomized_match_probabilities``
    on their star (their ``probs``, ``weights`` and ``patience``)."""
    orders, lengths, randomized = plan
    match = order_match(probs, patience, orders, lengths)
    for g, rsp in randomized.items():
        items = orders[g, :lengths[g]]
        match[g, items] = randomized_match_probabilities(StarInstance.make(
            weights[items], probs[items], patience.subset(items.tolist())), rsp)
    return match


def price(solver: StarSolver, probs, adjusted, patience) -> list[tuple[Policy, float, np.ndarray]]:
    """Best probing policy of each star for dual-adjusted item weights, star
    ``r`` having ``probs[r]``, ``adjusted[r]`` and ``patience[r]``: one
    ``solver.plan`` call, then one walk over the rows' probabilities laid
    end to end, each with its own patience's terms.

    Items with nonpositive adjusted weight can never help (probing them
    only spends patience) and are left out of the star.  A randomized plan
    gives its items ranked by total LP probe mass, as many as the patience
    allows (heuristic, carries no approximation guarantee).  Returns per
    star the policy, its exact adjusted value ``sum_u p_u(pi) w'_u`` (the
    row's own dot product: a batched one may sum in another order) and its
    match vector ``p(pi)``.
    """
    probs = np.asarray(probs, dtype=float)
    adjusted = np.ascontiguousarray(adjusted, dtype=float)
    if adjusted.shape != probs.shape:
        raise StochmatchError("adjusted weights must match the item count")
    orders, lengths, randomized = solver.plan(
        StarBatch(probs, adjusted, (adjusted > 0.0) & (probs > 0.0), tuple(patience)))
    for r, rsp in randomized.items():
        items = orders[r, :lengths[r]]
        mass = rsp.attempt_probs.T @ rsp.survival  # total x*_j per item
        ranked = sorted(np.flatnonzero(mass > 1e-12).tolist(), key=lambda j: (-mass[j], j))
        ranked = ranked[:patience[r].max_probes(items.size)]
        orders[r, :len(ranked)] = items[ranked]
        lengths[r] = len(ranked)
    ends, curves = zip(*(_walk_terms(p, pat) for p, pat in zip(probs, patience)))
    # each row writes only its own block, so the match vectors scatter into one flat vector
    entry, idx = _probe_entries(probs.ravel(), np.concatenate(ends), np.array(curves),
                                orders + probs.shape[1] * np.arange(len(probs))[:, None], lengths)
    flat = np.zeros(probs.size + 1)  # the last entry takes the padding
    flat[idx] = entry
    match = flat[:-1].reshape(probs.shape)
    return [(Policy(tuple(order[:k])), float(pvec @ row), pvec)
            for order, k, pvec, row in zip(orders.tolist(), lengths.tolist(), match, adjusted)]
