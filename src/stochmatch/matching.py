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
  arbitrary (rule-selected) available neighbor.  It walks each run of
  consecutive arrivals that probe once and share their probability and
  weight columns as one step, success by success.

Patience semantics: real and simulated probes each consume one unit of
patience, weight-skips consume none.  A survival-curve patience is realized
once per arrival (hidden from the matcher); hazard patience flips a balk
coin after each failed probe.

Every matcher walks a batch of trials in lockstep (``run_lockstep``), each
trial reading one row of a block of uniforms; this is the only walk.
``simulate`` runs its trials this way, and calling a matcher runs one
trial as a one-row batch with a probe log, which serves traces
(``trace=True``).  The tests keep a scalar walk, one arrival at a time, as
the reference (``tests/walk_oracle.py``).  Every policy walk is one probe
loop (``_Lockstep.walk``) over plan rows (``_PlanRows``) that carry their
entries' probabilities and weights, for a greedy arrival's one type or a
policy-LP step's type per row, whose patience kinds it settles once per
table and once per call.

A matcher derives what it needs from an instance into one table, kept
until it runs on another instance: AdvGreedy's star plans, the policy-LP
matcher's per-step CDF over its policies and per-policy skips.  The
walks, the draw bound and the exact value read that table.  A policy-LP
arrival step reads one uniform against that CDF, which picks the arriving
type and its policy at once.  AdvGreedy stores each plan only as one row
of its type's stacked plan arrays (``_PlanRows``), found by the bytes of
the free set's packed key: ``ceil(k / 64)`` uint64 words over the type's
``k`` neighbors.  At an arrival that leaves some trial a free neighbor,
its lockstep walk groups the trials by one sort over their keys and
walks their plans' rows by index; only the keys not stored yet are
planned, in one ``StarSolver.plan`` call, whose plans become their rows.
The walk stops once no trial has a free offline vertex.  An attempt
of a randomized plan reads one uniform, which picks the item by the
attempt's cumulative distribution, and whose place in the lower ``p_j``
share of the item's interval is the probe's success.  A randomized
arrival thus reads no more than a policy walk (``_Tables.walk_draws``),
and every greedy arrival's draw bound is the policy walk's, whatever its
box.  In a
parallel ``simulate`` each worker stores the plans it solves in its own
copy of the table, and none come back to the caller's.

A greedy matcher's ``exact_value`` is a forward expansion over arrival
steps with the bitmask of free offline vertices as state, at most
``EXACT_MAX_OFFLINE`` of them.  It advances a whole layer of states per
step, as numpy arrays of free sets and probabilities taken in chunks of
``EXACT_CHUNK``: per chunk the matcher gives the probability of matching
each vertex, and the next layer is summed in a dense accumulator over all
free sets.  A chunk is planned by the matcher's one ``_plan``, which its
lockstep walk calls too, and its orders, as vertex ids, are walked over
the type's column of all offline vertices in one ``stars.plan_match``
call, as the policy-LP value walks its policies.  The policy-LP matcher
needs no free sets: a simulated probe ends an arrival with the same
probability as a real one, so each offline vertex stays free with a
product over steps of its own miss probabilities, whatever the other
vertices do, and the value is a sum over steps and vertices.  The offline
optimum (``simulate.brute_force_offline_opt``) takes a max over probes, not
an expectation, so it values its states backward, one level at a time.

Also here: the offline benchmark LP over edge-probe variables (optionally
tightened with per-subset star-optimum rows), and the policy LP over probing
policies solved by column generation against its pricing problem; pricing
a column already in the master raises ``LpNumericalError``.  A round groups
its types by black box and prices each group through ``stars.price``: one
``plan`` call and one walk per box, whatever the box.  It adds its columns
to the master as one block.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .instances import (
    ADVERSARIAL,
    CapabilityError,
    CapacityError,
    EMPTY_POLICY,
    IID,
    LpNumericalError,
    MatchingInstance,
    PatienceModel,
    Policy,
    PolicyMixture,
    PROPHET,
    StochmatchError,
)
from .stars import (
    StarBatch,
    StarSolver,
    _distinct_rows,
    _pack_orders,
    auto_solver,
    enumerated_orders,
    order_match,
    plan_match,
    price,
    solver_by_name,
)

PRICING_TOL = 1e-7
COLUMN_CAP = 10_000
MAX_ENUMERATED_POLICIES = 100_000
BIG_PATIENCE = 10 ** 9
TAPE_BLOCK = 192  # uniforms per RandomTape refill
EXACT_CHUNK = 4096  # free sets per ``_plan`` call of a greedy exact value
EXACT_MAX_OFFLINE = 20  # offline vertices a greedy exact value expands over
RUN_SCAN_FIRST = 64  # columns of a run walk's first scan chunk
RUN_FLOATS = 1 << 19  # most entries a run walk or a run cut holds in one temporary


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
    alike, and for the exact values; each type's probe cap over its
    neighbors (``caps``); and AdvGreedy's stored plans (``plan_rows``, a
    ``_PlanRows`` per type that has walked, empty for other matchers).
    Types share few patience models, so each distinct model (``models``)
    is read once and a type's entries are gathered from its model's
    (``model_of``); ``drawn`` says whether any of them draws a survival
    budget or flips hazard coins.  A matcher that derives more extends it,
    and sets ``draw_bound``, the most uniforms one trial can read.  The tests'
    scalar walk (``tests/walk_oracle.py``) reads the same table."""

    __slots__ = ("m", "patience", "models", "model_of", "neighbor_arrays", "degree", "probs",
                 "weights", "theta", "survival", "curves", "hazard", "drawn", "rates", "caps",
                 "plan_rows", "draw_bound")

    def __init__(self, instance: MatchingInstance):
        self.m = m = instance.m
        self.patience = pats = instance.patience
        # equal patience models are one object (``MatchingInstance.make``)
        objects = dict(zip(map(id, pats), pats))
        index = dict(zip(objects, range(len(objects))))
        self.model_of = of = np.fromiter(map(index.__getitem__, map(id, pats)), np.intp,
                                         len(pats))
        self.models = models = list(objects.values())
        # one pass over the edges, in type-major order, cut by type
        v, u = np.nonzero(instance.probs.T > 0.0)
        cuts = np.searchsorted(v, np.arange(instance.n_types + 1))
        self.neighbor_arrays = [u[a:b] for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist())]
        self.degree = cuts[1:] - cuts[:-1]
        self.plan_rows: dict[int, _PlanRows] = {}
        self.probs = instance.probs
        self.weights = instance.weights_matrix()
        # no type has more than m neighbors, so its cap over its k neighbors
        # is min(k, its model's cap over m)
        self.caps = np.minimum(self.degree,
                               np.array([p.max_probes(m) for p in models], dtype=np.intp)[of])
        # one row per type: a deterministic budget (survival budgets are
        # drawn, hazard walks have none), survival curves padded with -1 so
        # that a draw always stops inside the row, and hazard rates, written
        # only in hazard types' rows so that the others stay untouched zero
        # pages (33 MB of them on the uncapped simple-greedy family)
        self.theta = np.array([p.theta if p.is_deterministic else BIG_PATIENCE for p in models],
                              dtype=np.int64)[of]
        self.survival = np.array([p.is_survival for p in models], dtype=bool)[of]
        self.hazard = np.array([p.is_hazard for p in models], dtype=bool)[of]
        self.drawn = any(p.is_survival or p.is_hazard for p in models)
        width = max((len(p.q) for p in models if p.is_survival), default=0)
        curves = np.full((len(models), width + 1), -1.0)
        rates = np.zeros((len(models), m))
        for i, p in enumerate(models):
            if p.is_survival:
                curves[i, :len(p.q)] = p.q
            elif p.is_hazard:
                rates[i] = p.hazard_rates(m)
        self.curves = curves[of]
        self.rates = np.zeros((len(pats), m))
        if any(p.is_hazard for p in models):
            self.rates[self.hazard] = rates[of[self.hazard]]

    def walk_draws(self, probes: np.ndarray) -> np.ndarray:
        """Per type ``v``, the most uniforms one policy walk reads when it
        can make at most ``probes[v]`` probes: a survival budget, then a
        success draw and (hazard patience) a balk coin per probe."""
        return self.survival + probes * (1 + self.hazard)


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
    ``weight`` sums each trial's matched weight in match order.  The policy
    and randomized walks read each trial's plan as a row index into a
    ``_PlanRows``.  Reading past the end of a row raises
    ``StochmatchError``: a block is never silently truncated.  A ``log``
    (for a one-row batch) receives a ``ProbeRecord`` per probe, in walk
    order, and ``None`` where a hazard coin ends an arrival (a balk).
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
        return self._read(rows, pos)

    def draw_every(self) -> np.ndarray:
        """Every row's next uniform, in one gather."""
        u = self._read(self.every, self.pos)
        self.pos += 1
        return u

    def _read(self, rows, pos):
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

    def walk(self, tables: _Tables, step, rows, v, plans: _PlanRows, at):
        """One arrival at ``step`` per trial in ``rows``, of type ``v`` (a
        greedy arrival's one type, or a type per row), row ``i`` probing
        the first ``length`` entries of row ``at[i]`` of ``plans`` (entries
        to skip already removed).  Patience kinds are settled once per
        table (``drawn``) and once per call: survival patience draws a
        budget up front and hazard patience flips a balk coin after each
        failed probe.  Without coins, a probe round drops its finished rows
        in one filter.  Matched vertices are probed in simulation, and any
        success ends the arrival."""
        budget, hazard = tables.theta[v], False
        # one type per row from here on, only where some type draws a budget
        # or flips coins
        if tables.drawn and (tables.survival[v] | tables.hazard[v]).any():
            v = np.full(rows.size, v)
            budget, surv, coins = tables.theta[v], tables.survival[v], tables.hazard[v]
            hazard = coins.any()
            if surv.any():
                u = self.draw(rows[surv])
                budget[surv] = np.argmin(tables.curves[v[surv]] > u[:, None], axis=1)
        limit = np.minimum(plans.length[at], budget)
        live = np.flatnonzero(limit > 0)
        items, probs, weights = plans.items, plans.p, plans.w
        k = 0
        while live.size:
            r, g = rows[live], at[live]
            u = items[:, k][g]
            success = self.draw(r) < probs[:, k][g]
            real = self.free[r, u]
            if self.log is not None:
                self.record(step, k + 1, np.full(rows.size, v)[live], u, real, success)
            won = success & real
            if won.any():
                r = r[won]
                self.free[r, u[won]] = False
                self.weight[r] += weights[:, k][g[won]]
            keep = ~success
            if hazard:
                live = live[keep]
                hz = coins[live]
                h = live[hz]
                keep = np.ones(live.size, dtype=bool)
                keep[hz] = self.draw(rows[h]) >= tables.rates[v[h], items[:, k][at[h]]]
                if self.log is not None and not keep.all():
                    self.log.append(None)
            k += 1
            live = live[keep & (limit[live] > k)]

    def walk_randomized(self, tables: _Tables, step, rows, v, plans: _PlanRows, group):
        """One arrival at ``step`` of type ``v`` per trial in ``rows``, row
        ``i`` following randomized row ``group[i]`` of ``plans``: ``items[g]``
        are its star items, all unmatched when it was built, and ``cum[g,
        t]`` the cumulative pick distribution of its attempt ``t``, padded
        with its last value, and ``nan`` where the attempt picks nothing and
        draws nothing.  A survival or global-hazard budget is one uniform
        read against the type's survival curve.  An attempt reads one
        uniform ``u``: ``cum[j - 1] <= u < cum[j]`` picks item ``j``, and
        the lower ``p_j`` share of that interval is the probe's success;
        ``u`` past the last value idles, making no probe while the attempt
        elapses.  Re-drawing an item already probed is simulated."""
        cum, items = plans.cum, plans.items
        budget = np.full(rows.size, tables.theta[v])
        pat = tables.patience[v]
        if not pat.is_deterministic:  # per-item hazard rates have no curve and raise
            curve = np.append(pat.survival_curve(items.shape[1]), -1.0)
            budget = np.argmin(curve > self.draw(rows)[:, None], axis=1)
        probed = np.zeros((rows.size, items.shape[1]), dtype=bool)
        for t in range(cum.shape[1]):
            at = np.flatnonzero((budget > t) & ~np.isnan(cum[group, t, 0]))
            u = self.draw(rows[at])
            c = cum[group[at], t]
            hit = u < c[:, -1]  # otherwise the attempt idles
            at, u, c = at[hit], u[hit], c[hit]
            j = np.argmax(c > u[:, None], axis=1)
            ends = c[np.arange(j.size), j]
            starts = np.where(j > 0, c[np.arange(j.size), j - 1], 0.0)
            r, item = rows[at], items[group[at], j]
            success = u - starts < tables.probs[item, v] * (ends - starts)
            real = ~probed[at, j]
            if self.log is not None:
                self.record(step, t + 1, v, item, real, success)
            won = success & real
            probed[at, j] = True
            budget[at[success]] = 0
            r, item = r[won], item[won]
            self.free[r, item] = False
            self.weight[r] += tables.weights[item, v]

    def walk_run(self, tables: _Tables, start, types, neigh):
        """A run of arrivals, at steps ``start, start + 1, ...`` of types
        ``types`` with equal probability and weight columns, each probing
        only the first free neighbor in ``neigh``'s order (patience 1).  A
        row's state changes only at its successes, at most ``len(neigh)``,
        so the run is walked success by success: a row's next success is
        its first draw below its first free neighbor's probability
        (``first_below``), and the row stops drawing once no neighbor is
        free or its arrivals are spent.  A run of one arrival is one draw
        per row with a free neighbor."""
        v = types[0]
        probs, weights = tables.probs[:, v], tables.weights[:, v]
        avail = self.free[:, neigh]
        first = avail.argmax(axis=1)
        rows = np.flatnonzero(avail[self.every, first])
        items = neigh[first[rows]]
        # arrivals of the run each row has not passed
        left = np.full(rows.size, types.size) if types.size > 1 else 1
        while rows.size:
            p = probs[items]
            if types.size == 1:
                read, won = 1, self.draw(rows) < p
            else:
                read, won = self.first_below(rows, p, left)
            if self.log is not None:  # one row: a record per draw, each at its arrival
                at = (types.size - left + np.arange(np.max(read))).tolist()
                for t in at:
                    self.record(start + t, 1, types[t], items, True, won & (t == at[-1]))
            r, u = rows[won], items[won]
            self.free[r, u] = False
            self.weight[r] += weights[u]
            if types.size == 1:
                return
            left = left - read
            keep = won & (left > 0)
            rows, left = rows[keep], left[keep]
            avail = self.free[rows[:, None], neigh]
            first = avail.argmax(axis=1)
            keep = avail[np.arange(rows.size), first]
            rows, left, items = rows[keep], left[keep], neigh[first[keep]]

    def first_below(self, rows, p, left):
        """How many uniforms each row in ``rows`` reads from its position
        on, at most ``left[i]``, up to and including its first one below
        ``p[i]``, and whether it found one; the rows' positions move past
        what they read.  The rows are scanned together in chunks of columns
        that double from ``RUN_SCAN_FIRST``, each gathering at most
        ``RUN_FLOATS`` uniforms.  A row that would read past the end of its
        block row raises ``StochmatchError``."""
        pos = self.pos[rows]
        width = self.uniforms.shape[1]
        read, hit = left.copy(), np.zeros(rows.size, dtype=bool)
        todo, done, size = np.arange(rows.size), 0, RUN_SCAN_FIRST
        while todo.size:
            size = max(1, min(size, RUN_FLOATS // todo.size, int(left[todo].max()) - done))
            span = np.arange(done, done + size)
            at = pos[todo, None] + span
            below = self.uniforms[rows[todo, None], np.minimum(at, width - 1)] < p[todo, None]
            below &= (at < width) & (span < left[todo, None])
            found = below.any(axis=1)
            read[todo[found]] = done + below[found].argmax(axis=1) + 1
            hit[todo[found]] = True
            done += size
            size *= 2
            todo = todo[~found & (left[todo] > done)]
        end = pos + read
        if (end > width).any():
            raise StochmatchError(f"a trial read more than its {width} uniforms")
        self.pos[rows] = end
        return read, hit


# ---------------------------------------------------------------------------
# Greedy matchers for adversarial arrivals
# ---------------------------------------------------------------------------

class _PlanRows:
    """Plans as stacked rows, read by row index: per row its items (a
    policy's order, or a randomized plan's star items) padded with 0, the
    length of that order, and the items' probabilities ``p`` and weights
    ``w`` for type ``v`` (one type, or one per row), so that a walk reads no
    matrix by type.  AdvGreedy holds one per type, padded to its ``k``
    neighbors, whose rows are found by the bytes of their free-set keys
    (``stars._distinct_rows``) and have a kind (1 a policy, 2 randomized)
    and, from the type's first randomized plan on (``None`` before), ``cum``
    as ``(k, k)``: a randomized plan's cumulative pick distributions, each
    row padded with its last value and ``nan`` past the plan's attempts, all
    ``nan`` for a policy.  The policy-LP matcher holds one over its policies."""

    __slots__ = ("index", "kind", "items", "length", "p", "w", "cum")

    def __init__(self, tables: _Tables, v, items, length, names=(), kind=None, cum=None):
        self.index = dict(zip(names, range(len(names))))
        self.kind, self.items, self.length, self.cum = kind, items, length, cum
        v = np.asarray(v)[..., None]
        self.p, self.w = tables.probs[items, v], tables.weights[items, v]

    def add(self, rows: _PlanRows):
        """Append the rows of ``rows``, whose keys this store lacks."""
        first = len(self.kind)
        self.index.update((name, first + at) for name, at in rows.index.items())
        if self.cum is not None or rows.cum is not None:
            self.cum = np.concatenate([self.picks(), rows.picks()])
        for name in ("kind", "items", "length", "p", "w"):
            setattr(self, name, np.concatenate([getattr(self, name), getattr(rows, name)]))

    def picks(self) -> np.ndarray:
        """``cum``, or all ``nan`` while no row is randomized."""
        k = self.items.shape[1]
        return np.full((len(self.kind), k, k), np.nan) if self.cum is None else self.cum


class _GreedyTables(_Tables):
    """A greedy matcher's table, whose draw bound allows every arrival with
    a neighbor a policy walk's reads (``walk_draws``), whatever its box
    plans: a randomized plan reads no more, a survival or global-hazard
    budget and then one uniform per attempt."""

    __slots__ = ()

    def __init__(self, instance: MatchingInstance):
        if instance.arrivals.kind != ADVERSARIAL:
            raise CapabilityError("greedy matcher needs adversarial arrivals")
        super().__init__(instance)
        draws = self.walk_draws(self.caps)
        draws[self.degree == 0] = 0
        self.draw_bound = int(draws[np.asarray(instance.arrivals.order, dtype=np.intp)].sum())


class _GreedyMatcher(_TableCache):
    """What the matchers for a fixed adversarial arrival order share: their
    walk and exact value plan each arrival by ``_plan(tables, v, avail)``,
    ``StarSolver.plan``'s answer with orders over the type's neighbors."""

    _new_tables = _GreedyTables

    def exact_value(self, instance: MatchingInstance) -> float:
        """Exact expected matched weight, expanding every probe outcome.

        The state is the arrival step and the bitmask of still-free offline
        vertices.  A layer, every free set reachable before one step with
        its probability, is a pair of arrays, advanced one step at a time
        in chunks of at most ``EXACT_CHUNK`` free sets: the type's ``_plan``
        on the chunk, walked over vertex ids (``stars.plan_match``), gives
        the probability of matching each vertex, and the remaining mass
        matches nothing.  The next layer is summed in a dense ``1 << m``
        accumulator, so each step costs one plan and walk per chunk plus
        ``O(2^m)``.  A step whose type has no neighbor leaves the layer as it is."""
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
            p, w = tables.probs[:, v], tables.weights[:, v]
            reached = np.zeros(1 << m)
            for a in range(0, states.size, EXACT_CHUNK):
                free, prob = states[a:a + EXACT_CHUNK], probs[a:a + EXACT_CHUNK]
                avail = (free[:, None] >> neigh & 1).astype(bool)
                orders, lengths, randomized = self._plan(tables, v, avail)
                match = plan_match(p, w, tables.patience[v], (neigh[orders], lengths, randomized))
                total += float(prob @ (match * w).sum(axis=1))
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
    the first success).  Plans are stored by (type, available set) in the
    matcher's table on the instance, which another instance replaces, as
    stacked rows per type (``_PlanRows``), found by the packed key of a
    trial's free neighbors (``stars._distinct_rows``); the store is an
    optimization only and never changes results, on one instance or across
    several.  A warm matcher gathers each arrival's plans with a few array
    indexings and calls the black box for no set it has solved before.
    """

    def __init__(self, solver: StarSolver | None = None):
        self.solver = solver

    def _plan(self, tables, v, avail):
        """The box's plans for type ``v`` on each row of ``avail``: one
        ``StarSolver.plan`` call on a star cut from the table's arrays."""
        neigh, pat = tables.neighbor_arrays[v], tables.patience[v]
        return (self.solver or auto_solver(pat)).plan(StarBatch(
            tables.probs[neigh, v][None], tables.weights[neigh, v][None], avail,
            (pat.subset(neigh.tolist()),)))

    def _find_rows(self, tables, v, keys, free, first):
        """Type ``v``'s stored plan rows (a ``_PlanRows``) and the row of
        each of its packed free-set ``keys`` there; row ``first[i]`` of the
        boolean ``free`` marks the free neighbors of ``keys[i]``.  The keys
        not stored yet, distinct already, are planned in one ``_plan`` call,
        and their rows, written from its plans, become the type's store or
        are appended to it (``_PlanRows.add``)."""
        neigh = tables.neighbor_arrays[v]
        store = tables.plan_rows.get(v)
        names = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel().tolist()
        index = {} if store is None else store.index
        found = list(map(index.get, names))
        if None in found:
            new = [i for i, at in enumerate(found) if at is None]
            orders, lengths, randomized = self._plan(tables, v, free[first[new]])
            k = neigh.size
            kind = np.ones(len(orders), dtype=np.int8)
            items = np.zeros((len(orders), k), dtype=np.intp)
            width = orders.shape[1]
            items[:, :width] = np.where(np.arange(width) < lengths[:, None], neigh[orders], 0)
            cum = np.full((len(orders), k, k), np.nan) if randomized else None
            for g, rsp in randomized.items():
                n = lengths[g]
                kind[g] = 2
                pick = np.cumsum(rsp.attempt_probs, axis=1)
                pick[~rsp.attempt_probs.any(axis=1)] = np.nan
                cum[g, :n, :n], cum[g, :n, n:] = pick, pick[:, -1:]
            rows = _PlanRows(tables, v, items, lengths, [names[i] for i in new], kind, cum)
            if store is None:
                store = tables.plan_rows[v] = rows
            else:
                store.add(rows)
            found = [store.index[name] for name in names]
        return store, np.array(found, dtype=np.intp)

    def run_lockstep(self, instance: MatchingInstance, uniforms: np.ndarray, log=None):
        """All trials of a batch at once, trial ``i`` reading row ``i`` of
        ``uniforms``; returns per-trial weights and per-vertex match counts.
        An arrival that finds none of its neighbors unmatched in any trial
        is skipped; otherwise the trials with a free neighbor are grouped by
        their packed free-set keys (``stars._distinct_rows``), each key is
        looked up, with its first trial's free neighbors, in the type's
        stored plan rows (``_find_rows``), and the walks read their rows
        there by index.  Once no trial has a free offline vertex, no later
        arrival can probe, and the walk stops.  ``log`` is a one-row
        batch's probe log (see ``_Lockstep``)."""
        tables = self._tables(instance)
        state = _Lockstep(uniforms, instance.m, log)
        for step, v in enumerate(instance.arrivals.order):
            neigh = tables.neighbor_arrays[v]
            if not neigh.size:
                continue
            avail = state.free[:, neigh]
            rows = np.flatnonzero(avail.any(axis=1))
            if not rows.size:
                continue
            free = avail[rows]
            keys, group, first = _distinct_rows(free)
            store, found = self._find_rows(tables, v, keys, free, first)
            plan = found[group]
            if store.cum is not None:  # the type has stored a randomized plan
                rand = store.kind[plan] == 2
                if rand.any():
                    state.walk_randomized(tables, step, rows[rand], v, store, plan[rand])
                    rows, plan = rows[~rand], plan[~rand]
            state.walk(tables, step, rows, v, store, plan)
            if not state.free.any():
                break
        return state.result()


class _SimpleTables(_GreedyTables):
    """A ``SimpleGreedyMatcher``'s table: also which types probe once
    (``once``: deterministic patience and a probe cap of 1), and the
    arrival order (``order``) cut into runs, ``(type, start, stop)`` per
    run, which ``cut_runs`` fills when the matcher first walks the instance
    (the exact value needs neither)."""

    __slots__ = ("once", "order", "runs")

    def __init__(self, instance: MatchingInstance):
        super().__init__(instance)
        self.runs = None

    def cut_runs(self, instance: MatchingInstance):
        """A run is a maximal stretch of consecutive arrivals of types that
        probe once and have equal probability and weight columns; any other
        arrival is a run of one.  The columns of consecutive distinct types
        are compared in chunks of at most ``RUN_FLOATS`` entries."""
        deterministic = np.array([p.is_deterministic for p in self.models], dtype=bool)
        self.once = deterministic[self.model_of] & (self.caps == 1)
        self.order = order = np.asarray(instance.arrivals.order, dtype=np.intp)
        a, b = order[:-1], order[1:]
        joined = self.once[order]
        joined = joined[:-1] & joined[1:]
        pairs = np.flatnonzero(joined & (a != b))
        chunk = max(1, RUN_FLOATS // max(self.m, 1))
        for i in (pairs[k:k + chunk] for k in range(0, pairs.size, chunk)):
            joined[i] = ((self.probs[:, a[i]] == self.probs[:, b[i]]).all(axis=0)
                         & (self.weights[:, a[i]] == self.weights[:, b[i]]).all(axis=0))
        starts = np.flatnonzero(np.append(True, ~joined)[:order.size])
        self.runs = list(zip(order[starts].tolist(), starts.tolist(),
                             np.append(starts[1:], order.size).tolist()))


class SimpleGreedyMatcher(_GreedyMatcher):
    """Opportunistic baseline: probe an arbitrary available neighbor.

    ``rule`` picks which neighbor: ``first`` (lowest index) or ``last``.
    With patience above one it keeps probing available, not-yet-probed
    neighbors in rule order.  An arrival that probes once (deterministic
    patience, probe cap 1) probes only its first free neighbor, so a run of
    such arrivals with equal columns (``_SimpleTables.runs``) changes a
    trial's state only at its successes, and the lockstep walk takes the
    whole run as one step (``_Lockstep.walk_run``): each trial's next
    success is its first draw below its first free neighbor's probability.
    A lone arrival is a run of one.
    """

    def __init__(self, rule: str = "first"):
        if rule not in ("first", "last"):
            raise StochmatchError(f"unknown neighbor rule {rule!r}")
        self.rule = rule

    _new_tables = _SimpleTables

    def _plan(self, tables, v, avail):
        """An arrival of type ``v`` on each row of ``avail`` probes its free
        neighbors in rule order, at most ``caps[v]`` of them."""
        if self.rule == "last":
            avail = avail[:, ::-1]
        width = tables.caps[v]
        ranked = np.argsort(~avail, axis=1, kind="stable")[:, :width]
        lengths = np.minimum(np.count_nonzero(avail, axis=1), width)
        return (avail.shape[1] - 1 - ranked if self.rule == "last" else ranked), lengths, {}

    def run_lockstep(self, instance: MatchingInstance, uniforms: np.ndarray, log=None):
        """All trials of a batch at once, trial ``i`` reading row ``i`` of
        ``uniforms``; returns per-trial weights and per-vertex match counts.
        A run of arrivals that each probe once is one step
        (``_Lockstep.walk_run``); any other arrival walks its ``_plan``.
        ``log`` is a one-row batch's probe log (see ``_Lockstep``)."""
        tables = self._tables(instance)
        if tables.runs is None:
            tables.cut_runs(instance)
        state = _Lockstep(uniforms, instance.m, log)
        for v, start, stop in tables.runs:
            neigh = tables.neighbor_arrays[v]
            if not neigh.size:
                continue
            if tables.once[v]:
                state.walk_run(tables, start, tables.order[start:stop],
                               neigh[::-1] if self.rule == "last" else neigh)
                continue
            avail = state.free[:, neigh]
            rows = np.flatnonzero(avail.any(axis=1))
            if rows.size:
                orders, lengths, _ = self._plan(tables, v, avail[rows])
                state.walk(tables, start, rows, v, _PlanRows(tables, v, neigh[orders], lengths),
                           np.arange(rows.size))
        return state.result()


# ---------------------------------------------------------------------------
# Offline benchmark LP over edge-probe variables
# ---------------------------------------------------------------------------

STAR_CONSTRAINT_MAX_OFFLINE = 12


def _exact_solver_for(patience: PatienceModel) -> StarSolver:
    """``auto_solver``, with brute force where it would pick an approximate box."""
    solver = auto_solver(patience)
    return solver if solver.kappa == 1.0 else solver_by_name("brute")


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
    ``STAR_CONSTRAINT_MAX_OFFLINE`` offline vertices.  Each type's subsets
    of its neighbors are planned in one ``StarSolver.plan`` call
    (``selector`` if given) and valued by ``stars.plan_match``.  The
    star-cap rows are ``lazy``: ``lp.solve`` holds them back and joins the
    ones its working set violates, so its size guard counts only those.
    """
    m, n = instance.m, instance.n_types
    W = instance.weights_matrix()
    P = np.asarray(instance.probs)
    nv = m * n  # x_{u,v} at u * n + v
    rows = [(np.eye(m)[:, :, None] * P).reshape(m, nv),  # offline vertices
            (np.eye(n)[:, None, :] * P).reshape(n, nv),  # online vertices
            np.tile(np.eye(n), m)]                       # probes per online vertex
    rhs = [np.ones(m + n), [p.mean_patience(m) for p in instance.patience]]
    if include_star_constraints:
        if m > STAR_CONSTRAINT_MAX_OFFLINE:
            raise CapacityError(
                f"star-cap rows need at most {STAR_CONSTRAINT_MAX_OFFLINE} offline vertices")
        within = np.array([[u in s for u in range(m)] for r in range(1, m + 1)
                           for s in itertools.combinations(range(m), r)])
        for v in range(n):
            items = np.flatnonzero(P[:, v] > 0.0)
            p, w, pat = P[items, v], W[items, v], instance.patience[v].subset(items.tolist())
            solver = selector or _exact_solver_for(instance.patience[v])
            block = np.zeros((len(within), m, n))
            block[:, :, v] = np.where(within, P[:, v] * W[:, v], 0.0)
            rows.append(block.reshape(len(within), nv))
            plan = solver.plan(StarBatch(p[None], w[None], within[:, items], (pat,)))
            rhs.append(plan_match(p, w, pat, plan) @ w)
    A = np.vstack(rows)
    return lp.LpProblem.make((P * W).reshape(nv), A, [lp.LE] * len(A), np.concatenate(rhs),
                             lb=np.zeros(nv), ub=np.ones(nv), lazy=np.arange(len(A)) >= m + 2 * n)


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


def _assemble_result(instance, columns, x, objective, status, kappa) -> ProphetLpResult:
    """The mixture of the master's ``columns`` at masses ``x``, each type's
    empty policy first with the mass its row leaves, ``q_v`` less the
    type's other masses; ``n_columns`` counts the empty policies too."""
    n = instance.n_types
    q_v = instance.arrivals.expected_arrivals(n)
    per_type: list[list[tuple[Policy, float]]] = [[] for _ in range(n)]
    wmat = instance.weights_matrix()
    w_star = np.zeros(instance.m)
    for k, (v, policy, pvec) in enumerate(columns):
        mass = float(x[k])
        per_type[v].append((policy, mass))
        w_star += wmat[:, v] * pvec * mass
    for v, entries in enumerate(per_type):
        entries.insert(0, (EMPTY_POLICY, float(q_v[v]) - sum(mass for _, mass in entries)))
    mixture = PolicyMixture(tuple(tuple(e) for e in per_type),
                            tuple(float(q) for q in q_v))
    return ProphetLpResult(mixture=mixture, objective=objective, w_star=w_star,
                           status=status, n_columns=len(columns) + n, kappa=kappa)


def _master_columns(wmat, n, columns) -> tuple[np.ndarray, np.ndarray]:
    """The master's costs and ``(m + n, k)`` block of columns for the ``k``
    ``(v, policy, pvec)`` in ``columns``: ``pvec`` in the offline rows, 1
    in row ``m + v`` and cost ``pvec @ wmat[:, v]``."""
    m = len(wmat)
    A = np.zeros((m + n, len(columns)))
    c = np.zeros(len(columns))
    for k, (v, _, pvec) in enumerate(columns):
        A[:m, k] = pvec
        A[m + v, k] = 1.0
        c[k] = float(pvec @ wmat[:, v])
    return c, A


def _master_problem(instance, columns, q_v) -> lp.LpProblem:
    """The policy LP over ``columns`` as a packing LP: each offline row
    ``sum x_pi p_u(pi) <= 1`` and each type row ``sum_{pi in v} x_pi <=
    q_v``, whose slack is the mass of the type's empty policy, a column the
    master does not hold."""
    m, n = instance.m, instance.n_types
    c, A = _master_columns(instance.weights_matrix(), n, columns)
    b = np.concatenate([np.ones(m), q_v])
    return lp.LpProblem.make(c, A, [lp.LE] * (m + n), b)


def _solve_master(problem: lp.LpProblem, kept: lp.KeptBasis | None = None) -> lp.LpSolution:
    sol = lp.solve(problem, start=kept)
    if sol.status != lp.OPTIMAL:
        raise StochmatchError(f"policy-LP master came back {sol.status}")
    return sol


def solve_prophet_lp(instance: MatchingInstance,
                     solvers: StarSolver | None = None) -> ProphetLpResult:
    """Solve the policy LP by column generation.

    The restricted master starts with no column: each type row's slack is
    the mass of its empty policy, so the master starts from the slack
    basis, every type on its empty policy.  Each round reads the
    offline-row duals ``alpha_u`` and the per-type duals ``beta_v``
    (nonnegative: the type rows are ``<=``), prices a best policy for
    adjusted weights ``w_uv - alpha_u`` through the type's star black box
    (``solvers`` for every type when given, else ``auto_solver``), and
    keeps the column when its value exceeds ``beta_v`` by more than
    ``PRICING_TOL``; a column already in the master, the empty policy as
    its type row's slack included, cannot, so pricing one again raises
    ``LpNumericalError``.  The types that arrive are grouped by box, and
    each group is priced in one ``stars.price`` call (one ``plan`` call and
    one walk); the round's columns join the master in one
    ``lp.add_column`` block, in type order.  The master's standard form and
    basis are kept across rounds (``lp.KeptBasis``): the columns join them
    in place, nonbasic at zero, so the basis stays primal feasible, and
    each master solve resumes from it.
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
    boxes = [solvers or auto_solver(pat) for pat in instance.patience]
    kappa = min((b.kappa for b in boxes), default=1.0)
    wmat = instance.weights_matrix()
    w_rows = np.ascontiguousarray(wmat.T)  # so that each type's adjusted weights are one row
    groups = {}  # the types that arrive, by box
    for v in np.flatnonzero(q_v > 0.0).tolist():
        groups.setdefault(boxes[v], []).append(v)
    columns = []
    seen = {(v, ()) for v in range(n)}
    master = _master_problem(instance, columns, q_v)
    status = "optimal"
    kept = lp.KeptBasis()
    while True:
        sol = _solve_master(master, kept)
        alpha = np.clip(sol.duals[:m], 0.0, None)
        beta = sol.duals[m: m + n]
        adjusted = w_rows - alpha
        found = {}
        for box, types in groups.items():
            found.update(zip(types, price(box, instance.probs.T[types], adjusted[types],
                                          [instance.patience[v] for v in types])))
        new = []
        for v in sorted(found):
            policy, value, pvec = found[v]
            if value > beta[v] + PRICING_TOL:
                if (v, policy.order) in seen:
                    raise LpNumericalError(
                        f"type {v}: priced policy {policy.order} is already in the master, "
                        f"yet its value {value} exceeds the dual {beta[v]}")
                new.append((v, policy, pvec))
                seen.add((v, policy.order))
        if not new:
            break  # the master is unchanged since ``sol``
        master = lp.add_column(master, *_master_columns(wmat, n, new))
        columns += new
        if len(columns) + n > COLUMN_CAP:
            status = "column_cap"
            sol = _solve_master(master, kept)
            break
    return _assemble_result(instance, columns, sol.x, sol.objective, status, kappa)


def solve_prophet_lp_enumerated(instance: MatchingInstance) -> ProphetLpResult:
    """Oracle route: materialize every policy per type and solve the full
    LP directly.  Only for instances whose policy set is small."""
    if instance.arrivals.kind not in (PROPHET, IID):
        raise CapabilityError("the policy LP needs prophet or IID arrivals")
    n = instance.n_types
    q_v = instance.arrivals.expected_arrivals(n)
    columns, count = [], 0
    for v in range(n):
        items = np.flatnonzero(instance.probs[:, v] > 0.0)
        cap = instance.patience[v].max_probes(len(items))
        count += sum(math.perm(len(items), r) for r in range(cap + 1))
        if count > MAX_ENUMERATED_POLICIES:
            raise CapacityError(f"policy enumeration exceeded {MAX_ENUMERATED_POLICIES}")
        orders, lengths = enumerated_orders(len(items), cap)
        orders = items[orders]
        pvecs = order_match(instance.probs[:, v], instance.patience[v], orders, lengths)
        columns += [(v, Policy(tuple(order[:k])), pvec)
                    for order, k, pvec in zip(orders.tolist(), lengths.tolist(), pvecs) if k]
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
    vertex's LP reward) and the order without them, as row ``g`` of
    ``plans``.  ``share[g]`` is the
    policy's mass, clipped at 0, over the sum of its type's clipped masses:
    the probability that an arrival of that type draws it, which is
    ``mass / q_v`` unless the masses sum above ``q_v``.  ``steps[t, v]``
    is the probability that step ``t`` brings an arrival of type ``v``,
    which the walks and the exact value share, and ``cum[t]`` is step
    ``t``'s CDF over the policies: arriving as type ``v`` and then drawing
    policy ``g`` with probability ``share[g]``.  No arrival, and an arrival
    of a type whose mixture samples nothing, lie above ``cum[t, -1]``."""

    __slots__ = ("steps", "cum", "type_of", "share", "orders", "skipped", "kept", "walks",
                 "plans")

    def __init__(self, instance: MatchingInstance, lp_result: ProphetLpResult, skip: bool):
        if instance.arrivals.kind not in (PROPHET, IID):
            raise CapabilityError("the policy matcher needs prophet or IID arrivals")
        super().__init__(instance)
        skip_of = lp_result.w_star if skip else None
        type_of, self.share = [], []
        self.orders, self.skipped, self.kept = [], [], []
        probes = np.zeros(instance.n_types, dtype=np.intp)  # per type, most probes a walk makes
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
            probes[v] = self.patience[v].max_probes(max(len(o) for o in self.kept[-len(orders):]))
        self.type_of = np.array(type_of, dtype=np.intp)
        # a type-and-policy draw per step, then at most the longest policy walk
        draws = self.walk_draws(probes)[self.type_of].max(initial=0)
        self.draw_bound = int(1 + draws) * instance.arrivals.n_steps
        arr = instance.arrivals
        self.steps = np.array([arr.step_probs(t) for t in range(arr.n_steps)]).reshape(
            arr.n_steps, instance.n_types)
        # a zero column when there is no policy, so that cum[t, -1] exists
        step_mass = np.zeros((arr.n_steps, max(len(type_of), 1)))
        step_mass[:, :len(type_of)] = self.steps[:, self.type_of] * self.share
        self.cum = np.cumsum(step_mass, axis=1)
        # whether column g walks, padded with False for the column past the
        # CDF's end, which means no arrival
        self.walks = np.zeros(self.cum.shape[1] + 1, dtype=bool)
        self.walks[:len(self.orders)] = [bool(order) for order in self.orders]
        self.plans = _PlanRows(self, self.type_of, *_pack_orders(self.kept))

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
        A step reads every trial's uniform in one gather
        (``_Lockstep.draw_every``), and one ``searchsorted`` on the step's
        non-decreasing CDF finds each trial's first column above it, as
        ``argmax(cum > u)`` would; the column past the end means no
        arrival, and ``walks``, padded for it, says which columns walk.
        ``log`` is a one-row batch's probe log (see ``_Lockstep``), with
        skipped entries put back (``_PolicyTables.with_skips``)."""
        tables = self._tables(instance)
        state = _Lockstep(uniforms, instance.m, log)
        for t in range(instance.arrivals.n_steps):
            g = tables.cum[t].searchsorted(state.draw_every(), "right")
            rows = np.flatnonzero(tables.walks[g])
            g = g[rows]
            if rows.size:
                start = len(log or ())
                state.walk(tables, t, rows, tables.type_of[g], tables.plans, g)
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
        match = np.zeros((instance.n_types, instance.m))
        share = np.asarray(tables.share)
        for v in np.flatnonzero(np.bincount(tables.type_of)).tolist():
            mine = tables.type_of == v
            match[v] = share[mine] @ order_match(instance.probs[:, v], instance.patience[v],
                                                 tables.plans.items[mine],
                                                 tables.plans.length[mine])
        probs = tables.steps @ match
        rewards = tables.steps @ (match * tables.weights.T)
        free = np.cumprod(np.vstack([np.ones(instance.m), 1.0 - probs]), axis=0)[:-1]
        return float(np.sum(free * rewards))


def prophet_matcher(lp_result: ProphetLpResult) -> PolicyLpMatcher:
    """Edge-weighted prophet matcher (weight-skip rule active)."""
    return PolicyLpMatcher(lp_result, skip=True)


def iid_matcher(lp_result: ProphetLpResult) -> PolicyLpMatcher:
    """IID / vertex-weighted matcher (no skipping)."""
    return PolicyLpMatcher(lp_result, skip=False)
