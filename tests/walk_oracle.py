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

from exact_oracles import star_for
from stochmatch.instances import PatienceModel, Policy
from stochmatch.matching import (
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


def realized_patience(patience: PatienceModel, n: int, tape: RandomTape) -> int:
    """Sample the number of probes, at most ``n``, an arrival over ``n``
    items will tolerate.

    A deterministic budget reads nothing.  Otherwise one draw is inverted
    against the survival curve of ``n`` items, a survival curve or a global
    hazard rate's geometric one.  Per-item hazard rates have no order-free
    curve (``survival_curve`` raises ``PatienceVariantError``) and are
    realized by per-probe balk coins instead.
    """
    if patience.is_deterministic:
        return patience.theta
    curve = patience.survival_curve(n)
    u = tape.u()
    return sum(1 for _ in itertools.takewhile(lambda qk: qk > u, curve))


def _walk_policy(tables, state, step, v, order, tape, skipped=None):
    """Execute a deterministic probing order for one arrival of type ``v``.

    Entries marked in ``skipped`` are passed over without spending
    patience.  Probing a matched vertex is simulated; simulated success
    abandons the arrival.  Hazard patience flips a balk coin after each
    failed probe; the other models realize the patience once up front.
    """
    pat = tables.patience[v]
    hazard_coins = pat.is_hazard
    budget = None if hazard_coins else realized_patience(pat, len(order), tape)
    rates = tables.rates[tables.model_of[v]]
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
    where the attempt picks nothing and draws nothing.  Each attempt reads
    one uniform: it picks item ``j`` when it lies in ``[cum[t][j - 1],
    cum[t][j])``, and the probe succeeds when it lies in the lower
    ``p_j`` share of that interval.  Idle attempt mass makes no probe but
    the attempt still elapses."""
    budget = realized_patience(tables.patience[v], len(cum), tape)
    probs = tables.probs[:, v]
    weights = tables.weights[:, v].tolist()
    probed = set()
    for t in range(min(len(cum), budget)):
        row = cum[t]
        if np.isnan(row[-1]):
            continue
        u_draw = tape.u()
        if u_draw >= row[-1]:
            continue  # idle attempt
        j = int(np.argmax(row > u_draw))
        lo = row[j - 1] if j else 0.0
        u = items[j]
        success = u_draw - lo < probs[u] * (row[j] - lo)
        kind = "simulated" if j in probed else "real"
        probed.add(j)
        state.record(step, v, t + 1, u, kind, "success" if success else "fail")
        if success:
            if kind == "real":
                state.match(u, step, v, weights[u])
            return


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
        star, items = star_for(instance, v, avail)
        order, cum = _black_box_plan(matcher.solver or auto_solver(star), star)
        if cum is None:
            _walk_policy(tables, state, step, v, [items[i] for i in order], tape)
        else:
            _walk_randomized(tables, state, step, v, cum, items, tape)
    return state
