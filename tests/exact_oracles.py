"""Reference oracles for the exact values, one state at a time.

The package computes a greedy matcher's exact value layer by layer over
arrays of free-set bitmasks (``_GreedyMatcher.exact_value``), a policy-LP
matcher's as a sum over steps and offline vertices of each vertex's chance
to be free (``PolicyLpMatcher.exact_value``), a randomized attempt
policy's match probabilities in closed form
(``stars.randomized_match_probabilities``), the offline optimum level by
level over arrays of states (``simulate.brute_force_offline_opt``), and
the deterministic-patience DP over many induced stars at once
(``stars.deterministic_patience_dp``).  The oracles here are the
per-state expansions those replaced: a forward expansion over a dict of
free sets, each state's moves listed in plain Python (for the policy-LP
matcher too, so that its per-vertex sum is checked against the free sets
it does without), a memoized backward recursion for the offline optimum,
and the knapsack DP over one star's items in plain Python.
"""

import numpy as np

from stochmatch.instances import Policy, StarInstance
from stochmatch.matching import AdvGreedyMatcher, PolicyLpMatcher, SimpleGreedyMatcher
from stochmatch.stars import RandomizedStarPolicy, auto_solver, policy_match_probabilities


def expand(n_steps: int, start, moves):
    """Expected total gain of a process run forward ``n_steps`` steps from
    ``start``, holding one step's ``{state: probability}`` at a time.

    ``moves(step, state)`` lists ``(gain, p, after)``: the move adds
    ``gain`` to the expected total from ``state`` and carries probability
    ``p`` into ``after``.  Probability it does not list ends the process.
    A gain may be a vector.
    """
    total = 0.0
    layer = {start: 1.0}
    for step in range(n_steps):
        reached: dict = {}
        get = reached.get
        for state, prob in layer.items():
            for gain, p, after in moves(step, state):
                total += prob * gain
                if p > 0.0:
                    reached[after] = get(after, 0.0) + prob * p
        layer = reached
    return total


def randomized_walk(star: StarInstance, rsp: RandomizedStarPolicy, gains):
    """Expected total gain of executing a randomized attempt policy, where a
    real success on item ``j`` gains ``gains[j]``, by an ``expand`` over
    attempts whose state is the bitmask of items already really probed.
    Re-drawing a probed item simulates the probe, and a simulated success
    ends the arrival with no gain."""
    n = star.n
    curve = star.patience.survival_curve(n).tolist()
    p = star.probs
    rows = rsp.attempt_probs.tolist()
    T = len(rows)
    idle = (1.0 - rsp.attempt_probs.sum(axis=1)).tolist()

    def moves(t: int, probed: int):
        if curve[t] <= 0.0:
            return ()
        ratio = curve[t + 1] / curve[t] if t + 1 < T else 0.0
        out = [(0.0, idle[t] * ratio, probed)] if idle[t] > 1e-15 else []
        for j, pr in enumerate(rows[t]):
            if pr > 0.0:
                if probed >> j & 1:
                    out.append((0.0, pr * (1.0 - p[j]) * ratio, probed))
                else:
                    out.append((pr * p[j] * gains[j], pr * (1.0 - p[j]) * ratio,
                                probed | 1 << j))
        return out

    return expand(T, 0, moves)


def star_for(instance, v: int, available) -> tuple[StarInstance, list[int]]:
    """The star induced by type ``v`` on the offline vertices in
    ``available`` that are its neighbors, and the global indices of its
    items.  The package builds no such star: it plans on its tables'
    arrays."""
    idx = [u for u in available if instance.probs[u, v] > 0.0]
    star = StarInstance(tuple(instance.weight(u, v) for u in idx),
                        tuple(float(instance.probs[u, v]) for u in idx),
                        instance.patience[v].subset(idx))
    return star, idx


def randomized_match_probabilities(star: StarInstance, rsp: RandomizedStarPolicy) -> np.ndarray:
    return np.zeros(star.n) + randomized_walk(star, rsp, np.eye(star.n))


def _greedy_match(matcher, instance, v, avail) -> tuple[list[int], np.ndarray]:
    """The star items of an arrival of type ``v`` finding ``avail`` free,
    and its match probability on each."""
    star, items = star_for(instance, v, avail)
    if isinstance(matcher, SimpleGreedyMatcher):
        order = range(star.n)[::-1] if matcher.rule == "last" else range(star.n)
        return items, policy_match_probabilities(star, Policy(tuple(order)))
    result = (matcher.solver or auto_solver(star)).solve(star)
    if isinstance(result.policy, Policy):
        return items, policy_match_probabilities(star, result.policy)
    return items, randomized_match_probabilities(star, result.policy)


def matcher_value(matcher, instance) -> float:
    """A matcher's exact expected matched weight by ``expand`` over single
    free sets, with each state's outcomes worked out on its own star."""
    m = instance.m
    w = instance.weights_matrix()
    if isinstance(matcher, PolicyLpMatcher):
        # an arrival matches a free vertex as it would with every vertex
        # free: one match vector per type, over the type's full star
        tables = matcher._tables(instance)
        match = np.zeros((instance.n_types, m))
        for g, v in enumerate(tables.type_of.tolist()):
            star = StarInstance(tuple(w[:, v]), tuple(instance.probs[:, v]),
                                instance.patience[v])
            match[v] += tables.share[g] * policy_match_probabilities(star, Policy(tables.kept[g]))
        arr = instance.arrivals
        n_steps = arr.n_steps
        probs = [arr.step_probs(t) @ match for t in range(n_steps)]
        rewards = [arr.step_probs(t) @ (match * w.T) for t in range(n_steps)]

        def outcomes(t, free):
            return [(u, probs[t][u], rewards[t][u]) for u in range(m) if free >> u & 1]
    else:
        assert isinstance(matcher, (AdvGreedyMatcher, SimpleGreedyMatcher))
        order = instance.arrivals.order
        n_steps = len(order)

        def outcomes(t, free):
            v = order[t]
            avail = [u for u in range(m) if free >> u & 1 and instance.probs[u, v] > 0.0]
            if not avail:
                return []
            items, probs = _greedy_match(matcher, instance, v, avail)
            return [(u, p, p * w[u, v]) for u, p in zip(items, probs.tolist())]

    def moves(t, free):
        out, none = [], 1.0
        for u, p, pw in outcomes(t, free):
            none -= p
            out.append((pw, p, free & ~(1 << u)))
        out.append((0.0, none, free))
        return out

    return expand(n_steps, (1 << m) - 1, moves)


def offline_opt(instance, memo=None) -> float:
    """The offline adaptive optimum by the backward recursion that
    ``simulate.brute_force_offline_opt`` replaced: a memo over tuples of
    per-vertex ``(patience, open bitmask)`` states, canonical in the same
    way but with no symmetry between vertices, each state's probes tried in
    plain Python.  ``memo``, if given, is the dict to fill: one entry per
    reachable state."""
    m, n = instance.m, instance.n_types
    probs = instance.probs
    memo = {} if memo is None else memo

    def canon(rem: int, open_: int) -> tuple[int, int]:
        return (min(rem, open_.bit_count()), open_) if rem > 0 and open_ else (0, 0)

    def go(states: tuple) -> float:
        got = memo.get(states)
        if got is not None:
            return got
        best = 0.0
        for v, (rem, open_) in enumerate(states):
            for u in range(m):
                if not open_ >> u & 1:
                    continue
                p = float(probs[u, v])
                keep = ~(1 << u)
                succ = tuple((0, 0) if vv == v else canon(r2, o2 & keep)
                             for vv, (r2, o2) in enumerate(states))
                fail = tuple(canon(rem - 1, open_ & keep) if vv == v else s2
                             for vv, s2 in enumerate(states))
                val = (p * (instance.weight(u, v) + go(succ))
                       + (1.0 - p) * go(fail))
                if val > best:
                    best = val
        memo[states] = best
        return best

    start = tuple(canon(instance.patience[v].theta,
                        sum(1 << u for u in range(m) if probs[u, v] > 0.0)) for v in range(n))
    try:
        return go(start)
    finally:
        del go  # break the closure's cycle through itself and its memo


def deterministic_patience(star: StarInstance) -> tuple[tuple[int, ...], float]:
    """The optimal order for a fixed probe budget ``theta`` and its value,
    by the knapsack DP over the star's weight-sorted positive items, one
    entry at a time, ties broken toward probing."""
    theta = star.patience.theta
    items = [i for i in range(star.n) if star.probs[i] > 0.0]
    items.sort(key=lambda i: (-star.weights[i], i))
    n = len(items)
    cap = min(theta, n)
    if cap <= 0:
        return (), 0.0
    # D[i][t]: best value from sorted position i on with t probes left
    D = [[0.0] * (cap + 1) for _ in range(n + 1)]
    take = [[False] * (cap + 1) for _ in range(n)]
    for i in range(n - 1, -1, -1):
        w = star.weights[items[i]]
        p = star.probs[items[i]]
        for t in range(1, cap + 1):
            skip = D[i + 1][t]
            probe = p * w + (1.0 - p) * D[i + 1][t - 1]
            if probe >= skip:
                D[i][t] = probe
                take[i][t] = True
            else:
                D[i][t] = skip
    order = []
    t = cap
    for i in range(n):
        if t > 0 and take[i][t]:
            order.append(items[i])
            t -= 1
    return tuple(order), D[0][cap]
