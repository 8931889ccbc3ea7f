"""The scalar walk: one trial of a matcher, one arrival and one probe at a
time, on a ``RandomTape``.

The library walks every trial in lockstep batches (``run_lockstep``); a
called matcher is a one-row batch with a probe log.  This walk is the
tests' reference for both: it reads each trial's stream in the same order,
so reports, matches and traces must be equal, not approximately equal.
"""

import functools
import itertools

import numpy as np

from stochmatch.instances import PatienceModel, PatienceVariantError, Policy
from stochmatch.matching import (
    BIG_PATIENCE,
    MatcherState,
    PolicyLpMatcher,
    ProbeRecord,
    RandomTape,
    SimpleGreedyMatcher,
)
from stochmatch.stars import auto_solver


class _State(MatcherState):
    def record(self, *args):
        if self.trace is not None:
            self.trace.append(ProbeRecord(*args))

    def match(self, u: int, step: int, vtype: int, weight: float):
        self.matched[u] = (step, vtype, weight)
        self.total_weight += weight


def realized_patience(patience: PatienceModel, tape: RandomTape) -> int:
    """Sample the number of probes an arrival will tolerate.

    Survival curves are inverted in one draw; a global hazard rate is the
    geometric special case.  Per-item hazard rates have no order-free
    realization and are handled by per-probe balk coins instead.
    """
    if patience.is_deterministic:
        return patience.theta
    if patience.is_survival:
        u = tape.u()
        k = 0
        for qk in patience.q:
            if qk > u:
                k += 1
            else:
                break
        return k
    if patience.has_global_rate:
        r = patience.rate
        if r >= 1.0:
            return 1
        if 1.0 - r >= 1.0:  # no rate, or one too small to change 1 - r
            return BIG_PATIENCE
        u = tape.u()
        return 1 + int(np.log(max(u, 1e-300)) / np.log(1.0 - r))
    raise PatienceVariantError("per-item hazard patience is realized probe by probe")


def _walk_policy(tables, state, step, v, order, tape, skipped=None):
    """Execute a deterministic probing order for one arrival of type ``v``.

    Entries marked in ``skipped`` are passed over without spending
    patience.  Probing a matched vertex is simulated; simulated success
    abandons the arrival.  Hazard patience flips a balk coin after each
    failed probe; the other models realize the patience once up front.
    """
    pat = tables.patience[v]
    hazard_coins = pat.is_hazard
    budget = None if hazard_coins else realized_patience(pat, tape)
    rates = tables.rates[v]
    probs = tables.probs[:, v]
    weights = tables.weights[:, v].tolist()
    matched = state.matched
    probes = 0
    for u, skip in zip(order, skipped or itertools.repeat(False)):
        if skip:
            state.record(step, v, probes, u, "skip", "skip")
            continue
        if budget is not None:
            if probes >= budget:
                break
        p = probs[u]
        if u not in matched:
            if tape.u() < p:
                state.record(step, v, probes + 1, u, "real", "success")
                state.match(u, step, v, weights[u])
                return
            state.record(step, v, probes + 1, u, "real", "fail")
        else:
            if tape.u() < p:
                state.record(step, v, probes + 1, u, "simulated", "success")
                return
            state.record(step, v, probes + 1, u, "simulated", "fail")
        probes += 1
        if hazard_coins and tape.u() < rates[u]:
            break


def _walk_randomized(tables, state, step, v, cum, items, tape):
    """Execute a randomized attempt policy over the star items ``items``
    (global offline indices), all unmatched when the plan was built:
    ``cum[t]`` is attempt ``t``'s cumulative pick distribution, ``nan``
    where the attempt picks nothing and draws nothing.  Idle attempt mass
    makes no probe but the attempt still elapses."""
    pat = tables.patience[v]
    budget = realized_patience(pat, tape)
    probs = tables.probs[:, v]
    weights = tables.weights[:, v].tolist()
    probed = set()
    for t in range(min(cum.shape[0], budget)):
        row = cum[t]
        if np.isnan(row[-1]):
            continue
        u_draw = tape.u()
        if u_draw >= row[-1]:
            continue  # idle attempt
        j = int(np.argmax(row > u_draw))
        u = items[j]
        p = probs[u]
        if j in probed:
            if tape.u() < p:
                state.record(step, v, t + 1, u, "simulated", "success")
                return
            state.record(step, v, t + 1, u, "simulated", "fail")
        else:
            probed.add(j)
            if tape.u() < p:
                state.record(step, v, t + 1, u, "real", "success")
                state.match(u, step, v, weights[u])
                return
            state.record(step, v, t + 1, u, "real", "fail")


@functools.lru_cache(maxsize=4096)
def _black_box_plan(solver, star):
    """``solver``'s plan on ``star``: ``(order, None)`` for a policy, or
    ``(None, cum)`` for a randomized plan, ``cum[t]`` its attempt ``t``'s
    cumulative pick distribution and ``nan`` where the attempt picks
    nothing.  Memoized by (solver, star), both frozen and compared by value,
    so that the walk does not solve a star again at every arrival."""
    plan = solver.solve(star).policy
    if isinstance(plan, Policy):
        return plan.order, None
    cum = np.cumsum(plan.attempt_probs, axis=1)
    cum[~plan.attempt_probs.any(axis=1)] = np.nan
    return None, cum


def scalar_walk(matcher, instance, rng, trace: bool = False) -> MatcherState:
    """One trial of ``matcher`` on ``rng`` (a ``RandomTape`` or a Generator),
    reading only the uniforms its walk uses.  A policy-LP arrival reads one
    uniform against the step's CDF over policies; a greedy arrival walks
    its still-unmatched neighbors in SimpleGreedy's rule order (lowest
    index first, or last), or the plan AdvGreedy's black box returns for
    the star they induce (``_black_box_plan``): the walk reads no plan the
    matcher stored."""
    tables = matcher._tables(instance)
    tape = rng if isinstance(rng, RandomTape) else RandomTape(rng)
    state = _State(trace=[] if trace else None)
    if isinstance(matcher, PolicyLpMatcher):
        for t in range(instance.arrivals.n_steps):
            cum = tables.cum[t]
            u_draw = tape.u()
            if u_draw >= cum[-1]:
                continue  # no arrival, or one whose type samples no policy
            g = int(np.argmax(cum > u_draw))
            if tables.walks[g]:
                _walk_policy(tables, state, t, int(tables.type_of[g]), tables.orders[g], tape,
                             tables.skipped[g])
        return state
    for step, v in enumerate(instance.arrivals.order):
        matched = state.matched
        avail = [u for u in tables.neighbor_arrays[v].tolist() if u not in matched]
        if not avail:
            continue
        if isinstance(matcher, SimpleGreedyMatcher):
            _walk_policy(tables, state, step, v, avail[::-1] if matcher.rule == "last" else avail,
                         tape)
            continue
        star, items = instance.star_for(v, avail)
        order, cum = _black_box_plan(matcher.solver or auto_solver(star), star)
        if cum is None:
            _walk_policy(tables, state, step, v, [items[i] for i in order], tape)
        else:
            _walk_randomized(tables, state, step, v, cum, items, tape)
    return state
