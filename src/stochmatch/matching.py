"""Online matching driven by star-graph black boxes.

Three matchers are provided:

* ``AdvGreedyMatcher``: for adversarial arrivals, greedily solve the star
  induced by each arrival on the still-unmatched neighbors and probe in the
  returned order.
* ``PolicyLpMatcher``: for prophet or IID arrivals, sample a probing policy
  per arrival from the policy-LP solution.  In the edge-weighted prophet
  setting the matcher skips entries whose edge weight is below half the
  vertex's LP-expected reward; with IID arrivals (or vertex weights) it
  never skips.  Probing an already-matched vertex is simulated so that the
  availability process stays coupled to the LP: a simulated success ends
  the arrival with no reward.
* ``SimpleGreedyMatcher``: the opportunistic baseline that probes an
  arbitrary (rule-selected) available neighbor.

Patience semantics: real and simulated probes each consume one unit of
patience, weight-skips consume none.  A survival-curve patience is realized
once per arrival (hidden from the matcher); hazard patience flips a balk
coin after each failed probe.

Every matcher walks a batch of trials in lockstep (``run_lockstep``), each
trial reading one row of a block of uniforms; this is the only walk.
``simulate`` runs its trials this way, and calling a matcher runs one
trial as a one-row batch with a probe log, which serves traces
(``trace=True``).  The tests keep a scalar walk, one arrival at a time, as
the reference (``tests/walk_oracle.py``).

A matcher derives what it needs from an instance into one table, kept
until it runs on another instance: AdvGreedy's star plans, the policy-LP
matcher's per-step CDF over its policies and per-policy skips.  The
walks, the draw bound and the exact value read that table.  A policy-LP
arrival step reads one uniform against that CDF, which picks the arriving
type and its policy at once.

A greedy matcher's ``exact_value`` is a forward expansion over arrival
steps with the bitmask of free offline vertices as state, at most
``EXACT_MAX_OFFLINE`` of them.  It advances a whole layer of states per
step, as numpy arrays of free sets and probabilities taken in chunks of
``EXACT_CHUNK``: per chunk the matcher gives the probability of matching
each vertex, and the next layer is summed in a dense accumulator over all
free sets.  SimpleGreedy ranks each set's free neighbors as its lockstep
walk does.  AdvGreedy with the built-in ``dp`` solver orders every set of
a chunk with one batched DP (``stars.deterministic_patience_orders``);
with another solver, or one whose ``solve`` is overridden (a traced
solver, say), it plans once per distinct set, grouped as in its lockstep
walk.  The policy-LP matcher needs no free sets: a simulated probe ends
an arrival with the same probability as a real one, so each offline
vertex stays free with a product over steps of its own miss
probabilities, whatever the other vertices do, and the value is a sum
over steps and vertices.  The offline optimum
(``simulate.brute_force_offline_opt``) takes a max over probes, not an
expectation, so it values its states backward, one level at a time.

Also here: the offline benchmark LP over edge-probe variables (optionally
tightened with per-subset star-optimum rows), and the policy LP over probing
policies solved by column generation against its pricing problem.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .instances import (
    ADVERSARIAL,
    CapabilityError,
    CapacityError,
    EMPTY_POLICY,
    IID,
    MatchingInstance,
    PatienceModel,
    PatienceVariantError,
    Policy,
    PolicyMixture,
    PROPHET,
    StarInstance,
    StochmatchError,
)
from .stars import (
    StarSolver,
    auto_solver,
    deterministic_patience_orders,
    enumerate_policies,
    policy_match_probabilities,
    price_policy,
    randomized_match_probabilities,
    solver_by_name,
)

PRICING_TOL = 1e-7
COLUMN_CAP = 10_000
MAX_ENUMERATED_POLICIES = 100_000
BIG_PATIENCE = 10 ** 9
TAPE_BLOCK = 192  # uniforms per RandomTape refill
EXACT_CHUNK = 4096  # free sets per ``_exact_match`` call of a greedy exact value
EXACT_MAX_OFFLINE = 20  # offline vertices a greedy exact value expands over


# ---------------------------------------------------------------------------
# Matcher state and traces
# ---------------------------------------------------------------------------

@dataclass
class ProbeRecord:
    step: int
    vtype: int
    attempt: int
    vertex: int
    kind: str     # real | simulated | skip
    outcome: str  # success | fail | skip


@dataclass
class MatcherState:
    """Result of one matcher run: who got matched (``matched[u] = (step,
    type, weight)``, in match order) and the weight collected."""

    matched: dict[int, tuple[int, int, float]] = field(default_factory=dict)
    total_weight: float = 0.0
    trace: list[ProbeRecord] | None = None


def format_trace(state: MatcherState) -> str:
    """Line-delimited trace: step type attempt vertex kind outcome."""
    if state.trace is None:
        return ""
    return "\n".join(
        f"{r.step} {r.vtype} {r.attempt} {r.vertex} {r.kind} {r.outcome}"
        for r in state.trace) + ("\n" if state.trace else "")


# ---------------------------------------------------------------------------
# Randomness helpers
# ---------------------------------------------------------------------------

class RandomTape:
    """Buffered uniform stream over a numpy Generator (cuts per-draw cost)."""

    __slots__ = ("gen", "buf", "pos")

    def __init__(self, gen):
        self.gen = gen
        self.buf = gen.random(TAPE_BLOCK)
        self.pos = 0

    def u(self) -> float:
        buf, pos = self.buf, self.pos
        if pos >= buf.shape[0]:
            self.buf = buf = self.gen.random(buf.shape[0])
            self.pos = pos = 0
        self.pos = pos + 1
        return buf[pos]


# ---------------------------------------------------------------------------
# Per-arrival probe execution
# ---------------------------------------------------------------------------

class _Tables:
    """What a matcher derives from one instance, built when it first runs
    on the instance (see ``_TableCache``): per-type arrays for the lockstep
    walks, which serve ``simulate`` and a called matcher (a one-row batch)
    alike, and for the exact values; each type's neighbors also as a list,
    for plan keys; and each type's probe cap over its neighbors
    (``caps``).  A matcher that derives more extends it, and sets
    ``draw_bound``, the most uniforms one trial can read.  The tests'
    scalar walk (``tests/walk_oracle.py``) reads the same table."""

    __slots__ = ("m", "patience", "neighbors", "neighbor_arrays", "probs", "weights",
                 "theta", "survival", "curves", "hazard", "rates", "caps", "draw_bound")

    def __init__(self, instance: MatchingInstance):
        self.m = instance.m
        self.patience = instance.patience
        self.neighbor_arrays = [np.flatnonzero(col > 0.0) for col in instance.probs.T]
        self.neighbors = [nb.tolist() for nb in self.neighbor_arrays]
        self.caps = [p.max_probes(len(nb)) for p, nb in zip(instance.patience, self.neighbors)]
        # one row per type: a deterministic budget (survival budgets are
        # drawn, hazard walks have none), survival curves padded with -1 so
        # that a draw always stops inside the row, and hazard rates
        pats = instance.patience
        self.probs = instance.probs
        self.weights = instance.weights_matrix()
        self.theta = np.array([p.theta if p.is_deterministic else BIG_PATIENCE
                               for p in pats], dtype=np.int64)
        self.survival = np.array([p.is_survival for p in pats])
        self.hazard = np.array([p.is_hazard for p in pats])
        width = max((len(p.q) for p in pats if p.is_survival), default=0)
        self.curves = np.full((len(pats), width + 1), -1.0)
        self.rates = np.zeros((len(pats), instance.m))
        for v, p in enumerate(pats):
            if p.is_survival:
                self.curves[v, :len(p.q)] = p.q
            elif p.is_hazard:
                self.rates[v] = p.hazard_rates(instance.m)

    def walk_draws(self, v: int, probes: int) -> int:
        """Most uniforms one policy walk of type ``v`` reads when it can make
        at most ``probes`` probes: a survival budget, then a success draw and
        (hazard patience) a balk coin per probe."""
        pat = self.patience[v]
        return int(pat.is_survival) + probes * (2 if pat.is_hazard else 1)


class _TableCache:
    """A matcher's table on the instance it last ran on, kept as one
    ``(instance, table)`` pair and rebuilt (``_new_tables``) when another
    instance comes: nothing derived from one instance serves another.

    Calling a matcher runs one trial: a one-row lockstep batch of
    ``max(1, draw_bound)`` uniforms read from ``rng`` (a ``RandomTape``, or
    a Generator read through one), with a probe log from which come the
    matches and, with ``trace=True``, the trace."""

    _table_pair: tuple | None = None

    def _tables(self, instance) -> _Tables:
        pair = self._table_pair
        if pair is None or pair[0] is not instance:
            pair = (instance, self._new_tables(instance))
            self._table_pair = pair
        return pair[1]

    def draw_bound(self, instance: MatchingInstance) -> int:
        """Most uniforms one trial can read, as the table computed it."""
        return self._tables(instance).draw_bound

    def __call__(self, instance: MatchingInstance, rng, trace: bool = False) -> MatcherState:
        tape = rng if isinstance(rng, RandomTape) else RandomTape(rng)
        width = max(1, self.draw_bound(instance))
        row = np.fromiter((tape.u() for _ in range(width)), float, count=width)
        log = []
        weight, _ = self.run_lockstep(instance, row[None], log)
        records = [r for r in log if r is not None]
        weights = self._tables(instance).weights
        matched = {r.vertex: (r.step, r.vtype, float(weights[r.vertex, r.vtype]))
                   for r in records if r.kind == "real" and r.outcome == "success"}
        return MatcherState(matched, float(weight[0]), records if trace else None)


class _Lockstep:
    """A batch of trials walked in lockstep on numpy state.

    Row ``i`` of ``uniforms`` is trial ``i``'s stream, read from ``pos[i]``
    on; ``free`` marks the offline vertices each trial has not matched, and
    ``weight`` sums each trial's matched weight in match order.  Reading
    past the end of a row raises ``StochmatchError``: a block is never
    silently truncated.  A ``log`` (for a one-row batch) receives a
    ``ProbeRecord`` per probe, in walk order, and ``None`` where a hazard
    coin ends an arrival (a balk).
    """

    __slots__ = ("uniforms", "pos", "free", "weight", "every", "log")

    def __init__(self, uniforms: np.ndarray, m: int, log: list | None = None):
        trials = uniforms.shape[0]
        self.uniforms = uniforms
        self.pos = np.zeros(trials, dtype=np.intp)
        self.free = np.ones((trials, m), dtype=bool)
        self.weight = np.zeros(trials)
        self.every = np.arange(trials)
        self.log = log

    def draw(self, rows: np.ndarray) -> np.ndarray:
        pos = self.pos[rows]
        self.pos[rows] = pos + 1
        try:
            return self.uniforms[rows, pos]
        except IndexError as e:
            raise StochmatchError(
                f"a trial read more than its {self.uniforms.shape[1]} uniforms") from e

    def record(self, step, attempt, v, items, real, success):
        """Log one probe per row: of type(s) ``v`` at ``items``, real or
        simulated, and its outcome."""
        for vk, u, fresh, won in zip(*(a.tolist() for a in
                                       np.broadcast_arrays(v, items, real, success))):
            self.log.append(ProbeRecord(step, vk, attempt, u, "real" if fresh else "simulated",
                                        "success" if won else "fail"))

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-trial weights and per-vertex match counts."""
        return self.weight, np.count_nonzero(~self.free, axis=0).astype(float)

    def walk(self, tables: _Tables, step, rows, v, items, length):
        """One arrival at ``step`` per trial in ``rows``, of types ``v``,
        probing the first ``length`` entries of its row of ``items`` (entries
        to skip already removed).  Survival patience draws a budget up front
        and hazard patience flips a balk coin after each failed probe.
        Matched vertices are probed in simulation, and any success ends the
        arrival."""
        budget = tables.theta[v]
        surv = tables.survival[v]
        if surv.any():
            u = self.draw(rows[surv])
            budget[surv] = np.argmin(tables.curves[v[surv]] > u[:, None], axis=1)
        limit = np.minimum(length, budget)
        live = np.flatnonzero(limit > 0)
        k = 0
        while live.size:
            r, vk, u = rows[live], v[live], items[live, k]
            success = self.draw(r) < tables.probs[u, vk]
            real = self.free[r, u]
            if self.log is not None:
                self.record(step, k + 1, vk, u, real, success)
            won = success & real
            if won.any():
                r, u = r[won], u[won]
                self.free[r, u] = False
                self.weight[r] += tables.weights[u, vk[won]]
            live = live[~success]
            hz = tables.hazard[v[live]]
            if hz.any():
                h = live[hz]
                stay = np.ones(live.size, dtype=bool)
                stay[hz] = self.draw(rows[h]) >= tables.rates[v[h], items[h, k]]
                if self.log is not None and not stay.all():
                    self.log.append(None)
                live = live[stay]
            k += 1
            live = live[limit[live] > k]

    def walk_randomized(self, tables: _Tables, step, rows, v, cum, items, group):
        """One arrival at ``step`` of type ``v`` per trial in ``rows``, row
        ``i`` following randomized plan ``group[i]``: ``items[g]`` are plan
        ``g``'s star items, all unmatched when it was built, and ``cum[g,
        t]`` the cumulative pick distribution of its attempt ``t``, padded
        with its last value, and ``nan`` where the attempt picks nothing and
        draws nothing.  The budget is drawn up front; idle attempt mass makes
        no probe but the attempt still elapses, and re-drawing an item
        already probed is simulated."""
        pat = tables.patience[v]
        budget = np.full(rows.size, tables.theta[v])
        if pat.is_survival:
            budget = np.argmin(tables.curves[v] > self.draw(rows)[:, None], axis=1)
        elif pat.is_hazard:
            if not pat.has_global_rate:
                raise PatienceVariantError("per-item hazard patience is realized probe by probe")
            if pat.rate >= 1.0:
                budget[:] = 1
            elif 1.0 - pat.rate < 1.0:
                steps = np.log(np.maximum(self.draw(rows), 1e-300)) / np.log(1.0 - pat.rate)
                budget = 1 + np.minimum(steps, BIG_PATIENCE).astype(np.int64)
        probed = np.zeros((rows.size, items.shape[1]), dtype=bool)
        for t in range(cum.shape[1]):
            at = np.flatnonzero((budget > t) & ~np.isnan(cum[group, t, 0]))
            u = self.draw(rows[at])
            c = cum[group[at], t]
            hit = u < c[:, -1]  # otherwise the attempt idles
            at, j = at[hit], np.argmax(c[hit] > u[hit, None], axis=1)
            r, item = rows[at], items[group[at], j]
            success = self.draw(r) < tables.probs[item, v]
            real = ~probed[at, j]
            if self.log is not None:
                self.record(step, t + 1, v, item, real, success)
            won = success & real
            probed[at, j] = True
            budget[at[success]] = 0
            r, item = r[won], item[won]
            self.free[r, item] = False
            self.weight[r] += tables.weights[item, v]


# ---------------------------------------------------------------------------
# Exact match probabilities of one arrival
# ---------------------------------------------------------------------------

def _order_match(tables: _Tables, v: int, items: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Match probabilities, ``(L, m)``, of arrivals of type ``v`` where row
    ``i`` probes the first ``length[i]`` entries of ``items[i]``, all free:
    ``stars.policy_match_probabilities`` on each row's induced star, with
    the same arithmetic."""
    n_rows, width = items.shape
    m = tables.m
    probs = np.append(tables.probs[:, v], 0.0)  # column m takes the padding
    out = np.zeros((n_rows, m + 1))
    pat = tables.patience[v]
    if pat.is_hazard:
        ends = probs + (1.0 - probs) * np.append(tables.rates[v], 0.0)
    else:
        curve = pat.survival_curve(width).tolist()
    alive = np.ones(n_rows)
    every = np.arange(n_rows)
    for k in range(width):
        u = np.where(length > k, items[:, k], m)
        p = probs[u]
        if pat.is_hazard:
            out[every, u] = alive * p
            alive = alive * (1.0 - ends[u])
        else:
            out[every, u] = curve[k] * alive * p
            alive = alive * (1.0 - p)
    return out[:, :m]


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a boolean matrix with at least one column, and
    per row the index of its distinct row."""
    packed = np.ascontiguousarray(np.packbits(rows, axis=1))
    sets, group = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                            return_inverse=True)
    masks = np.unpackbits(sets.view(np.uint8).reshape(len(sets), -1), axis=1,
                          count=rows.shape[1])
    return masks, group


# ---------------------------------------------------------------------------
# Greedy matchers for adversarial arrivals
# ---------------------------------------------------------------------------

class _GreedyTables(_Tables):
    """A greedy matcher's table: also its plans by (type, available
    neighbors), solved as arrivals first need them, and per type whether
    a plan may be randomized.  The draw bound allows a type whose solver
    may return a randomized plan its reads: a budget, then a pick and a
    success draw per attempt; any other type a policy walk's, and the
    lockstep walk refuses a randomized plan for it."""

    __slots__ = ("plans", "randomized")

    def __init__(self, instance: MatchingInstance, randomized: list[bool]):
        if instance.arrivals.kind != ADVERSARIAL:
            raise CapabilityError("greedy matcher needs adversarial arrivals")
        super().__init__(instance)
        self.plans: dict = {}
        self.randomized = randomized
        draws = [(1 + 2 * k if randomized[v] else self.walk_draws(v, k)) if self.neighbors[v]
                 else 0 for v, k in enumerate(self.caps)]
        self.draw_bound = sum(draws[v] for v in instance.arrivals.order)


class _GreedyMatcher(_TableCache):
    """What the matchers for a fixed adversarial arrival order share: each
    arrival probes a star over its still-unmatched neighbors ``avail``,
    following ``self._plan(instance, tables, v, avail)``, which is
    ``("policy", order)`` or ``("randomized", policy, items, cum)``."""

    def exact_value(self, instance: MatchingInstance) -> float:
        """Exact expected matched weight, expanding every probe outcome.

        The state is the arrival step and the bitmask of still-free offline
        vertices.  A layer, every free set reachable before one step with
        its probability, is a pair of arrays, advanced one step at a time
        in chunks of at most ``EXACT_CHUNK`` free sets: ``self._exact_match``
        gives the arriving type's probability of matching each vertex on
        every set of the chunk, and the remaining mass matches nothing.  The
        next layer is summed in a dense ``1 << m`` accumulator, so each step
        costs one ``_exact_match`` call per chunk plus ``O(2^m)``.  A step
        whose type has no neighbor leaves the layer as it is."""
        m = instance.m
        if m > EXACT_MAX_OFFLINE:
            raise CapacityError(f"exact expansion capped at {EXACT_MAX_OFFLINE} offline vertices")
        tables = self._tables(instance)
        bit = np.int64(1) << np.arange(m, dtype=np.int64)
        states = np.array([(1 << m) - 1], dtype=np.int64)
        probs = np.ones(1)
        total = 0.0
        for v in instance.arrivals.order:
            neigh = tables.neighbor_arrays[v]
            if not neigh.size:
                continue
            reached = np.zeros(1 << m)
            for a in range(0, states.size, EXACT_CHUNK):
                free, prob = states[a:a + EXACT_CHUNK], probs[a:a + EXACT_CHUNK]
                avail = (free[:, None] >> neigh & 1).astype(bool)
                match = self._exact_match(instance, tables, v, avail)
                total += float(prob @ (match * tables.weights[:, v]).sum(axis=1))
                r, u = np.nonzero(match > 0.0)
                np.add.at(reached, free[r] & ~bit[u], prob[r] * match[r, u])
                none = 1.0 - match.sum(axis=1)
                stay = none > 0.0
                reached[free[stay]] += prob[stay] * none[stay]  # free sets of a layer are distinct
            states = np.flatnonzero(reached)
            probs = reached[states]
        return total


class AdvGreedyMatcher(_GreedyMatcher):
    """Greedy star-black-box matcher for a fixed adversarial arrival order.

    Per arrival, builds the star over the currently unmatched neighbors,
    asks the black box for a plan, and probes accordingly (committing on
    the first success).  Plans are cached by (type, available set) in the
    matcher's table on the instance, which another instance replaces; the
    cache is an optimization only and never changes results, on one
    instance or across several.
    """

    def __init__(self, solver: StarSolver | None = None):
        self.solver = solver

    def _new_tables(self, instance) -> _GreedyTables:
        # of the star solvers only the LP policy returns randomized plans
        return _GreedyTables(instance, [(self.solver or auto_solver(p)).name == "lp"
                                        for p in instance.patience])

    def _plan(self, instance, tables, v, avail_key, star_items=None):
        key = (v, avail_key)
        plan = tables.plans.get(key)
        if plan is None:
            star, items = star_items or instance.star_for(v, avail_key)
            solver = self.solver or auto_solver(star)
            result = solver.solve(star)
            if isinstance(result.policy, Policy):
                plan = ("policy", tuple(items[i] for i in result.policy.order))
            else:
                probs = result.policy.attempt_probs
                cum = np.cumsum(probs, axis=1)
                cum[~probs.any(axis=1)] = np.nan
                plan = ("randomized", result.policy, items, cum)
            tables.plans[key] = plan
        return plan

    def _exact_match(self, instance, tables, v, avail):
        """Match probabilities of an arrival of type ``v`` on each row of
        ``avail`` (its free neighbors).  With the built-in ``dp`` solver,
        one batched DP (``stars.deterministic_patience_orders``) orders
        every row at once; any other solver, or a subclass that overrides
        ``solve``, plans once per distinct row, as the lockstep walk does."""
        neigh = tables.neighbor_arrays[v]
        solver = self.solver or auto_solver(tables.patience[v])
        if solver.name == "dp" and type(solver).solve is StarSolver.solve:
            star, _ = instance.star_for(v, neigh.tolist())
            orders, length = deterministic_patience_orders(star, avail)
            return _order_match(tables, v, neigh[orders], length)
        masks, group = _distinct_rows(avail)
        match = np.zeros((len(masks), instance.m))
        for g, mask in enumerate(masks.tolist()):
            avail_key = tuple(itertools.compress(tables.neighbors[v], mask))
            if not avail_key:
                continue
            star, items = star_items = instance.star_for(v, avail_key)
            plan = self._plan(instance, tables, v, avail_key, star_items)
            if plan[0] == "randomized":
                match[g, items] = randomized_match_probabilities(star, plan[1])
            else:
                match[g, items] = policy_match_probabilities(
                    star, Policy(tuple(map(items.index, plan[1]))))
        return match[group]

    def run_lockstep(self, instance: MatchingInstance, uniforms: np.ndarray, log=None):
        """All trials of a batch at once, trial ``i`` reading row ``i`` of
        ``uniforms``; returns per-trial weights and per-vertex match counts.
        Each arrival groups the trials by the neighbors they find unmatched
        and fetches one plan per group.  ``log`` is a one-row batch's probe
        log (see ``_Lockstep``)."""
        tables = self._tables(instance)
        state = _Lockstep(uniforms, instance.m, log)
        for step, v in enumerate(instance.arrivals.order):
            neigh = tables.neighbors[v]
            k = len(neigh)
            if not k:
                continue
            masks, group = _distinct_rows(state.free[:, neigh])
            kind = np.zeros(len(masks), dtype=np.int8)  # 1 policy, 2 randomized, 0 no plan
            items = np.zeros((len(masks), k), dtype=np.intp)
            length = np.zeros(len(masks), dtype=np.intp)
            cum = np.full((len(masks), k, k), np.nan)
            for g, mask in enumerate(masks.tolist()):
                avail = tuple(itertools.compress(neigh, mask))
                if not avail:
                    continue
                plan = self._plan(instance, tables, v, avail)
                if plan[0] == "policy":
                    kind[g], length[g] = 1, len(plan[1])
                    items[g, :length[g]] = plan[1]
                else:
                    if not tables.randomized[v]:
                        solver = self.solver or auto_solver(tables.patience[v])
                        raise StochmatchError(
                            f"star solver {solver.name!r} returned a randomized plan for type "
                            f"{v}, whose draw bound allowed only a policy walk's uniforms")
                    n = len(plan[2])
                    kind[g], items[g, :n] = 2, plan[2]
                    cum[g, :n, :n], cum[g, :n, n:] = plan[3], plan[3][:, -1:]
            kind = kind[group]
            rows = np.flatnonzero(kind == 1)
            if rows.size:
                g = group[rows]
                state.walk(tables, step, rows, np.full(rows.size, v), items[g], length[g])
            rows = np.flatnonzero(kind == 2)
            if rows.size:
                state.walk_randomized(tables, step, rows, v, cum, items, group[rows])
        return state.result()


class SimpleGreedyMatcher(_GreedyMatcher):
    """Opportunistic baseline: probe an arbitrary available neighbor.

    ``rule`` picks which neighbor: ``first`` (lowest index) or ``last``.
    With patience above one it keeps probing available, not-yet-probed
    neighbors in rule order.
    """

    def __init__(self, rule: str = "first"):
        if rule not in ("first", "last"):
            raise StochmatchError(f"unknown neighbor rule {rule!r}")
        self.rule = rule

    def _new_tables(self, instance) -> _GreedyTables:
        return _GreedyTables(instance, [False] * instance.n_types)

    def _plan(self, instance, tables, v, avail_key, star_items=None):
        return ("policy", avail_key[::-1] if self.rule == "last" else avail_key)

    def _exact_match(self, instance, tables, v, avail):
        """Match probabilities of an arrival of type ``v`` on each row of
        ``avail`` (its free neighbors): its free neighbors ranked in rule
        order, as ``run_lockstep`` ranks them."""
        neigh = tables.neighbor_arrays[v]
        if self.rule == "last":
            neigh, avail = neigh[::-1], avail[:, ::-1]
        width = tables.caps[v]
        ranked = np.argsort(~avail, axis=1, kind="stable")[:, :width]
        length = np.minimum(np.count_nonzero(avail, axis=1), width)
        return _order_match(tables, v, neigh[ranked], length)

    def run_lockstep(self, instance: MatchingInstance, uniforms: np.ndarray, log=None):
        """All trials of a batch at once, trial ``i`` reading row ``i`` of
        ``uniforms``; returns per-trial weights and per-vertex match counts.
        ``log`` is a one-row batch's probe log (see ``_Lockstep``)."""
        tables = self._tables(instance)
        state = _Lockstep(uniforms, instance.m, log)
        every = state.every
        for step, v in enumerate(instance.arrivals.order):
            neigh = tables.neighbor_arrays[v]
            if not neigh.size:
                continue
            if self.rule == "last":
                neigh = neigh[::-1]
            avail = state.free[:, neigh]
            width = tables.caps[v]
            if width == 1 and tables.patience[v].is_deterministic:
                # hot path: one probe at the first available neighbor
                first = avail.argmax(axis=1)
                rows = np.flatnonzero(avail[every, first])
                items = neigh[first[rows]]
                won = state.draw(rows) < tables.probs[items, v]
                if log is not None:
                    state.record(step, 1, v, items, True, won)
                rows, items = rows[won], items[won]
                state.free[rows, items] = False
                state.weight[rows] += tables.weights[items, v]
                continue
            length = np.count_nonzero(avail, axis=1)
            rows = np.flatnonzero(length)
            if rows.size:
                ranked = np.argsort(~avail[rows], axis=1, kind="stable")[:, :width]
                state.walk(tables, step, rows, np.full(rows.size, v), neigh[ranked],
                           length[rows])
        return state.result()


# ---------------------------------------------------------------------------
# Offline benchmark LP over edge-probe variables
# ---------------------------------------------------------------------------

STAR_CONSTRAINT_MAX_OFFLINE = 12


def _exact_solver_for(patience: PatienceModel) -> StarSolver:
    """``auto_solver``, with brute force where it would pick the LP policy."""
    solver = auto_solver(patience)
    return solver_by_name("brute") if solver.name == "lp" else solver


def build_benchmark_lp(instance: MatchingInstance,
                       include_star_constraints: bool = False,
                       selector: StarSolver | None = None) -> lp.LpProblem:
    """Edge-probe LP upper bound on the offline adaptive optimum.

    Variables ``x_{u,v}`` in [0,1] (probability of probing the edge);
    rows: each offline vertex matched at most once in expectation, each
    online vertex matched at most once, and probes per online vertex at
    most its expected patience.  With ``include_star_constraints`` one row
    per (offline subset, online vertex) caps the subset's LP reward by the
    exact star optimum, giving a strictly tighter bound; this needs an
    exact star solver for the patience variant and at most
    ``STAR_CONSTRAINT_MAX_OFFLINE`` offline vertices.
    """
    m, n = instance.m, instance.n_types
    W = instance.weights_matrix()
    P = np.asarray(instance.probs)
    nv = m * n  # x_{u,v} at u * n + v
    c = (P * W).reshape(nv)
    rows, senses, rhs = [], [], []
    for u in range(m):
        row = np.zeros(nv)
        row[u * n: (u + 1) * n] = P[u]
        rows.append(row)
        senses.append(lp.LE)
        rhs.append(1.0)
    for v in range(n):
        row = np.zeros(nv)
        row[v::n] = P[:, v]
        rows.append(row)
        senses.append(lp.LE)
        rhs.append(1.0)
    for v in range(n):
        row = np.zeros(nv)
        row[v::n] = 1.0
        rows.append(row)
        senses.append(lp.LE)
        rhs.append(instance.patience[v].mean_patience(m))
    if include_star_constraints:
        if m > STAR_CONSTRAINT_MAX_OFFLINE:
            raise CapacityError(
                f"star-cap rows need at most {STAR_CONSTRAINT_MAX_OFFLINE} offline vertices")
        for v in range(n):
            solver = selector or _exact_solver_for(instance.patience[v])
            for r in range(1, m + 1):
                for subset in itertools.combinations(range(m), r):
                    star, items = instance.star_for(v, subset)
                    opt = solver.solve(star).expected_value if items else 0.0
                    row = np.zeros(nv)
                    for u in subset:
                        row[u * n + v] = P[u, v] * W[u, v]
                    rows.append(row)
                    senses.append(lp.LE)
                    rhs.append(opt)
    return lp.LpProblem.make(c, np.vstack(rows), senses, rhs,
                             lb=np.zeros(nv), ub=np.ones(nv))


def benchmark_lp_value(instance, include_star_constraints=False) -> float:
    sol = lp.solve(build_benchmark_lp(instance, include_star_constraints))
    if sol.status != lp.OPTIMAL:
        raise StochmatchError(f"benchmark LP came back {sol.status}")
    return sol.objective


# ---------------------------------------------------------------------------
# Policy LP: column generation and full enumeration
# ---------------------------------------------------------------------------

@dataclass
class ProphetLpResult:
    """Optimal (or certified-stalled) solution of the policy LP.

    ``mixture`` carries, per type, the generated policies and their masses
    ``x_v(pi)``; ``w_star[u]`` is the LP-expected reward collected at
    offline vertex ``u``; ``kappa`` is the worst approximation factor among
    the pricing black boxes used (1 when all pricing was exact).
    """

    mixture: PolicyMixture
    objective: float
    w_star: np.ndarray
    status: str = "optimal"
    n_columns: int = 0
    kappa: float = 1.0


def _type_stars(instance: MatchingInstance):
    return [StarInstance(tuple(instance.weight(u, v) for u in range(instance.m)),
                         tuple(float(p) for p in instance.probs[:, v]),
                         instance.patience[v])
            for v in range(instance.n_types)]


def _assemble_result(instance, columns, x, objective, status, kappa) -> ProphetLpResult:
    n = instance.n_types
    q_v = instance.arrivals.expected_arrivals(n)
    per_type: list[list[tuple[Policy, float]]] = [[] for _ in range(n)]
    wmat = instance.weights_matrix()
    w_star = np.zeros(instance.m)
    for k, (v, policy, pvec) in enumerate(columns):
        mass = float(x[k])
        per_type[v].append((policy, mass))
        w_star += wmat[:, v] * pvec * mass
    mixture = PolicyMixture(tuple(tuple(e) for e in per_type),
                            tuple(float(q) for q in q_v))
    return ProphetLpResult(mixture=mixture, objective=objective, w_star=w_star,
                           status=status, n_columns=len(columns), kappa=kappa)


def _master_problem(instance, columns, q_v) -> lp.LpProblem:
    m, n = instance.m, instance.n_types
    wmat = instance.weights_matrix()
    nv = len(columns)
    A = np.zeros((m + n, nv))
    c = np.zeros(nv)
    for k, (v, policy, pvec) in enumerate(columns):
        A[:m, k] = pvec
        A[m + v, k] = 1.0
        c[k] = float(pvec @ wmat[:, v])
    senses = [lp.LE] * m + [lp.EQ] * n
    b = np.concatenate([np.ones(m), q_v])
    return lp.LpProblem.make(c, A, senses, b)


def _solve_master(problem: lp.LpProblem) -> lp.LpSolution:
    sol = lp.solve(problem)
    if sol.status != lp.OPTIMAL:
        raise StochmatchError(f"policy-LP master came back {sol.status}")
    return sol


def solve_prophet_lp(instance: MatchingInstance,
                     solvers: StarSolver | None = None) -> ProphetLpResult:
    """Solve the policy LP by column generation.

    The restricted master starts from the empty policy for every type.
    Each round reads the offline-row duals ``alpha_u`` and the per-type
    duals ``beta_v``, prices a best policy for adjusted weights
    ``w_uv - alpha_u`` through the type's star black box (``solvers`` for
    every type when given, else ``auto_solver``), and adds the column when
    its value exceeds ``beta_v`` by more than ``PRICING_TOL``.
    With exact pricing (deterministic or hazard patience) the final
    objective is the true LP optimum; with the 1/2-approximate LP-policy
    box the returned solution is feasible and the objective is the value
    at which approximate pricing certified no improvement.  Holding more
    than ``COLUMN_CAP`` columns returns the best feasible solution with
    status ``"column_cap"``.
    """
    if instance.arrivals.kind not in (PROPHET, IID):
        raise CapabilityError("the policy LP needs prophet or IID arrivals")
    m, n = instance.m, instance.n_types
    q_v = instance.arrivals.expected_arrivals(n)
    stars = _type_stars(instance)
    boxes = [solvers or auto_solver(stars[v]) for v in range(n)]
    kappa = min((b.kappa for b in boxes), default=1.0)
    wmat = instance.weights_matrix()
    columns = [(v, EMPTY_POLICY, np.zeros(m)) for v in range(n)]
    seen = {(v, ()) for v in range(n)}
    master = _master_problem(instance, columns, q_v)
    status = "optimal"
    while True:
        sol = _solve_master(master)
        alpha = np.clip(sol.duals[:m], 0.0, None)
        beta = sol.duals[m: m + n]
        added = False
        for v in range(n):
            if q_v[v] <= 0.0:
                continue
            policy, value = price_policy(stars[v], wmat[:, v] - alpha, boxes[v])
            if value > beta[v] + PRICING_TOL and (v, policy.order) not in seen:
                pvec = policy_match_probabilities(stars[v], policy)
                col = np.concatenate([pvec, np.zeros(n)])
                col[m + v] = 1.0
                master = lp.add_column(master, float(pvec @ wmat[:, v]), col)
                columns.append((v, policy, pvec))
                seen.add((v, policy.order))
                added = True
        if not added:
            break  # the master is unchanged since ``sol``
        if len(columns) > COLUMN_CAP:
            status = "column_cap"
            sol = _solve_master(master)
            break
    return _assemble_result(instance, columns, sol.x, sol.objective, status, kappa)


def solve_prophet_lp_enumerated(instance: MatchingInstance) -> ProphetLpResult:
    """Oracle route: materialize every policy per type and solve the full
    LP directly.  Only for instances whose policy set is small."""
    if instance.arrivals.kind not in (PROPHET, IID):
        raise CapabilityError("the policy LP needs prophet or IID arrivals")
    m, n = instance.m, instance.n_types
    q_v = instance.arrivals.expected_arrivals(n)
    stars = _type_stars(instance)
    columns = []
    for v in range(n):
        items = [u for u in range(m) if instance.probs[u, v] > 0.0]
        cap = instance.patience[v].max_probes(len(items))
        for sub_policy in enumerate_policies(len(items), cap):
            policy = Policy(tuple(items[i] for i in sub_policy.order))
            columns.append((v, policy, policy_match_probabilities(stars[v], policy)))
            if len(columns) > MAX_ENUMERATED_POLICIES:
                raise CapacityError(f"policy enumeration exceeded {MAX_ENUMERATED_POLICIES}")
    sol = _solve_master(_master_problem(instance, columns, q_v))
    return _assemble_result(instance, columns, sol.x, sol.objective, "optimal", 1.0)


# ---------------------------------------------------------------------------
# Policy-LP driven online matchers (prophet / IID arrivals)
# ---------------------------------------------------------------------------

class _PolicyTables(_Tables):
    """A ``PolicyLpMatcher``'s table.  Its policies, with residual mixture
    mass on the empty policy, are numbered ``g`` in type order; per policy it
    holds the type ``type_of[g]``, its weight ``share[g]``, the probing
    order, which entries of it the matcher skips (weight below half the
    vertex's LP reward) and the order without them.  ``share[g]`` is the
    policy's mass, clipped at 0, over the sum of its type's clipped masses:
    the probability that an arrival of that type draws it, which is
    ``mass / q_v`` unless the masses sum above ``q_v``.  ``cum[t]`` is
    step ``t``'s CDF over the policies: arriving as type ``v`` and then
    drawing policy ``g`` with probability ``share[g]``.  No arrival, and an
    arrival of a type whose mixture samples nothing, lie above
    ``cum[t, -1]``."""

    __slots__ = ("cum", "type_of", "share", "orders", "skipped", "kept", "walks", "items",
                 "length")

    def __init__(self, instance: MatchingInstance, lp_result: ProphetLpResult, skip: bool):
        if instance.arrivals.kind not in (PROPHET, IID):
            raise CapabilityError("the policy matcher needs prophet or IID arrivals")
        super().__init__(instance)
        skip_of = lp_result.w_star if skip else None
        type_of, self.share = [], []
        self.orders, self.skipped, self.kept = [], [], []
        draws = 0  # most uniforms a policy walk reads
        for v, entries in enumerate(lp_result.mixture.per_type):
            q = lp_result.mixture.q_v[v]
            orders = [pol.order for pol, _ in entries]
            masses = [max(mass, 0.0) for _, mass in entries]
            resid = q - sum(masses)
            if resid > 0.0:
                orders.append(())
                masses.append(resid)
            total = sum(masses)
            if q <= 0.0 or total <= 0.0:
                continue
            weights = self.weights[:, v]
            for order in orders:
                skipped = tuple(skip_of is not None and weights[u] < 0.5 * skip_of[u]
                                for u in order)
                self.skipped.append(skipped)
                self.kept.append(tuple(u for u, s in zip(order, skipped) if not s))
            type_of += [v] * len(orders)
            self.share += [mass / total for mass in masses]
            self.orders.extend(orders)
            longest = max(len(o) for o in self.kept[-len(orders):])
            draws = max(draws, self.walk_draws(v, self.patience[v].max_probes(longest)))
        self.draw_bound = (1 + draws) * instance.arrivals.n_steps  # a type-and-policy draw per step
        self.type_of = np.array(type_of, dtype=np.intp)
        arr = instance.arrivals
        steps = np.array([arr.step_probs(t) for t in range(arr.n_steps)])
        # a zero column when there is no policy, so that cum[t, -1] exists
        step_mass = np.zeros((arr.n_steps, max(len(type_of), 1)))
        step_mass[:, :len(type_of)] = (steps.reshape(arr.n_steps, instance.n_types)
                                       [:, self.type_of] * self.share)
        self.cum = np.cumsum(step_mass, axis=1)
        self.walks = np.array([bool(order) for order in self.orders], dtype=bool)
        self.length = np.array([len(o) for o in self.kept], dtype=np.intp)
        self.items = np.zeros((len(self.kept), self.length.max(initial=0)), dtype=np.intp)
        for g, order in enumerate(self.kept):
            self.items[g, :len(order)] = order

    def with_skips(self, records: list, step: int, g: int) -> list[ProbeRecord]:
        """The probe log of one arrival's walk of policy ``g`` with its
        skipped entries put back into the order: a skip is recorded once
        every earlier probe has failed without a balk (a ``None`` record),
        and the arrival stops at the first non-skip entry with no probe
        left."""
        probes = [r for r in records if r is not None]
        ended = bool(records) and (records[-1] is None or records[-1].outcome == "success")
        v = int(self.type_of[g])
        out, k = [], 0
        for u, skip in zip(self.orders[g], self.skipped[g]):
            if not skip:
                if k == len(probes):
                    break
                out.append(probes[k])
                k += 1
            elif k < len(probes) or not ended:
                out.append(ProbeRecord(step, v, k, u, "skip", "skip"))
        return out


class PolicyLpMatcher(_TableCache):
    """Sample a policy per arrival from the LP mixture and walk it.

    ``skip=True`` is the edge-weighted prophet variant (entries with
    ``w_uv < w*_u / 2`` are skipped, spending no patience); ``skip=False``
    is the IID / vertex-weighted variant that never skips.  Matched
    vertices are probed in simulation; a simulated success abandons the
    arrival.  Residual mixture mass (LP tolerance) maps to the empty
    policy.
    """

    def __init__(self, lp_result: ProphetLpResult, skip: bool):
        self.lp_result = lp_result
        self.skip = skip

    def _new_tables(self, instance) -> _PolicyTables:
        return _PolicyTables(instance, self.lp_result, self.skip)

    def run_lockstep(self, instance: MatchingInstance, uniforms: np.ndarray, log=None):
        """All trials of a batch at once, trial ``i`` reading row ``i`` of
        ``uniforms``; returns per-trial weights and per-vertex match counts.
        ``log`` is a one-row batch's probe log (see ``_Lockstep``), with
        skipped entries put back (``_PolicyTables.with_skips``)."""
        tables = self._tables(instance)
        state = _Lockstep(uniforms, instance.m, log)
        for t in range(instance.arrivals.n_steps):
            u = state.draw(state.every)
            cum = tables.cum[t]
            rows = np.flatnonzero(u < cum[-1])
            g = np.argmax(cum > u[rows, None], axis=1)
            walks = tables.walks[g]
            rows, g = rows[walks], g[walks]
            if rows.size:
                start = len(log or ())
                state.walk(tables, t, rows, tables.type_of[g], tables.items[g],
                           tables.length[g])
                if log is not None:
                    log[start:] = tables.with_skips(log[start:], t, int(g[0]))
        return state.result()

    def exact_value(self, instance: MatchingInstance) -> float:
        """Exact expected matched weight, by linearity over the offline
        vertices.  A simulated probe ends the arrival with the same
        probability as a real one, so an arrival of type ``v`` matches a
        free ``u`` with the probability it would with every vertex free: one
        match vector per type, mixed over its policies by the shares the
        walks draw them with.  Step ``t`` then matches ``u``, if ``u`` is
        still free, with a probability ``probs[t, u]`` that no other vertex
        changes, so ``u`` is free before step ``t`` with probability
        ``prod_{s<t} (1 - probs[s, u])``.  The value sums that times the
        step's expected reward at ``u`` over steps and vertices: ``O(T m)``,
        for any number of offline vertices."""
        tables = self._tables(instance)
        stars = _type_stars(instance)
        match = np.zeros((instance.n_types, instance.m))
        for g, v in enumerate(tables.type_of.tolist()):
            match[v] += tables.share[g] * policy_match_probabilities(
                stars[v], Policy(tables.kept[g]))
        arr = instance.arrivals
        steps = np.array([arr.step_probs(t) for t in range(arr.n_steps)]).reshape(
            arr.n_steps, instance.n_types)
        probs = steps @ match
        rewards = steps @ (match * instance.weights_matrix().T)
        free = np.cumprod(np.vstack([np.ones(instance.m), 1.0 - probs]), axis=0)[:-1]
        return float(np.sum(free * rewards))


def prophet_matcher(lp_result: ProphetLpResult) -> PolicyLpMatcher:
    """Edge-weighted prophet matcher (weight-skip rule active)."""
    return PolicyLpMatcher(lp_result, skip=True)


def iid_matcher(lp_result: ProphetLpResult) -> PolicyLpMatcher:
    """IID / vertex-weighted matcher (no skipping)."""
    return PolicyLpMatcher(lp_result, skip=False)
