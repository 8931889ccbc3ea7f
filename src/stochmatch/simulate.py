"""Seeded Monte Carlo engine, the level-wise offline oracle, and benchmark ratios.

Trial ``i`` of a run draws its randomness from a counter-based Philox
stream keyed by ``(master seed, i)``, so every trial is a pure function of
the config and trials may run in any order or in parallel without changing
results.  Means use numpy's pairwise summation, which is order-independent
for a fixed trial array.

A run splits its trials into one list of blocks, which serial runs and
worker processes run the same way.  A block has one row per trial, as wide
as the matcher's ``draw_bound`` (the most uniforms any trial reads), and at
most ``CHUNK_TRIALS`` rows and ``BLOCK_FLOATS`` uniforms.  One generator
fills it, its state reset to counter 0 under key ``(seed, i)`` for trial
``i``, which gives the stream that ``trial_generator(seed, i)`` would; the
matcher then walks every row at once on numpy state (``run_lockstep``).
Each row is the stream the trial would read alone, so reports are the same
as the tests' scalar walk (``tests/walk_oracle.py``) gives one trial at a
time; a called matcher runs one trial as a one-row batch.  Exact values
are the matchers' own ``exact_value`` and, for stars,
``stars.eval_policy_exact`` and ``stars.eval_randomized_exact``.  The
report's normal quantile comes from the standard library, so importing
this module loads no scipy.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .instances import (ADVERSARIAL, CapabilityError, CapacityError, MatchingInstance,
                        StochmatchError)

LOW_TRIAL_WARNING = 1000
CHUNK_TRIALS = 4096        # most trials in one lockstep batch
BLOCK_FLOATS = 1 << 22     # most uniforms held at once by a lockstep batch
THREADS_ENV = "STOCHMATCH_THREADS"
CONFIDENCE = 0.999         # two-sided level of every report's half-width
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SimConfig:
    seed: int
    trials: int

    def __post_init__(self):
        if self.trials < 1:
            raise StochmatchError("trials must be >= 1")


@dataclass
class SimReport:
    mean: float
    stddev: float
    half_width: float
    match_freq: np.ndarray
    trials: int
    confidence: float
    low_trial_count: bool


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """The deterministic stream for one trial: Philox keyed by (seed, trial)."""
    key = np.array([seed & _MASK64, trial & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _TrialStreams:
    """The streams ``trial_generator(seed, i)`` from one reused generator:
    resetting a Philox state to counter 0 under key ``(seed, i)`` costs a
    fraction of building a new generator, and yields the same stream."""

    def __init__(self, seed: int):
        self.bitgen = np.random.Philox(key=0)
        self.gen = np.random.Generator(self.bitgen)
        self.state = self.bitgen.state
        self.key = self.state["state"]["key"]
        self.key[0] = seed & _MASK64

    def fill(self, block: np.ndarray, start: int) -> np.ndarray:
        """Row ``j`` of ``block`` becomes the first draws of trial ``start + j``."""
        for j, row in enumerate(block):
            self.key[1] = (start + j) & _MASK64
            self.bitgen.state = self.state
            self.gen.random(out=row)
        return block


def _run_block(instance, matcher, seed, start, stop, width):
    """Per-trial weights and per-vertex match counts of trials [start, stop),
    walked as one lockstep batch.

    A block row holds ``width`` uniforms, the matcher's bound on the draws
    of one trial (at least 1).  A row of any width is a prefix of the
    trial's stream: the first ``k`` doubles of a Philox stream do not depend
    on how many are drawn, so no row needs rounding up to whole
    ``RandomTape`` refills."""
    block = _TrialStreams(seed).fill(np.empty((stop - start, width)), start)
    return matcher.run_lockstep(instance, block)


def _table_plans(instance, matcher) -> dict:
    """AdvGreedy's plan cache in its table on ``instance``; a throwaway
    dict for other matchers."""
    tables = matcher._tables(instance) if hasattr(matcher, "_tables") else None
    return getattr(tables, "plans", {})


def _run_worker(instance, matcher, seed, start, stop, width):
    """``_run_block`` in a worker process, returning also the plans the
    matcher's table (pickled with the instance) gained there, so that the
    caller's table keeps them."""
    plans = _table_plans(instance, matcher)
    known = set(plans)
    weights, counts = _run_block(instance, matcher, seed, start, stop, width)
    return weights, counts, {k: p for k, p in plans.items() if k not in known}


def thread_count(threads=None, chunks: int | None = None, default: int = 1) -> int:
    """Worker processes for a simulation.

    ``threads`` is a count or its text; ``None`` reads ``STOCHMATCH_THREADS``
    and falls back to ``default`` when that is unset.  A non-integer or a
    value below 1 raises ``StochmatchError``.  The count is clamped to the
    machine's cores and, when given, to the number of trial blocks.
    """
    if threads is None:
        threads = os.environ.get(THREADS_ENV, default)
    try:
        value = int(threads)
    except (TypeError, ValueError):
        raise StochmatchError(f"{THREADS_ENV} must be an integer, got {threads!r}") from None
    if value < 1:
        raise StochmatchError(f"{THREADS_ENV} must be at least 1, got {value}")
    return min(value, os.cpu_count() or 1, chunks or value)


def simulate(instance, matcher, config: SimConfig, threads: int | None = None) -> SimReport:
    """Seeded Monte Carlo estimate of the matcher's expected matched weight.

    Trials run in lockstep blocks of at most ``CHUNK_TRIALS`` trials and
    ``BLOCK_FLOATS`` uniforms.  ``threads`` > 1 spreads the blocks over
    worker processes; the report is bit-identical to a serial run because
    each trial's stream depends only on (seed, trial index).  A value of
    ``None`` reads the ``STOCHMATCH_THREADS`` variable, defaulting to 1
    (see ``thread_count``).
    """
    trials = config.trials
    width = max(1, matcher.draw_bound(instance))
    rows = max(1, min(CHUNK_TRIALS, BLOCK_FLOATS // width))
    blocks = [(instance, matcher, config.seed, a, min(a + rows, trials), width)
              for a in range(0, trials, rows)]
    threads = thread_count(threads, chunks=len(blocks))
    if threads > 1:
        plans = _table_plans(instance, matcher)
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_run_worker, *zip(*blocks)))
        for part in parts:
            plans.update(part[2])
    else:
        parts = [_run_block(*block) for block in blocks]
    weights = np.concatenate([p[0] for p in parts])
    counts = np.sum([p[1] for p in parts], axis=0)
    mean = float(np.mean(weights))
    stddev = float(np.std(weights, ddof=1)) if trials > 1 else 0.0
    z = NormalDist().inv_cdf(1.0 - (1.0 - CONFIDENCE) / 2.0)
    half_width = z * stddev / np.sqrt(trials)
    return SimReport(mean=mean, stddev=stddev, half_width=half_width,
                     match_freq=counts / trials, trials=trials,
                     confidence=CONFIDENCE,
                     low_trial_count=trials < LOW_TRIAL_WARNING)


# ---------------------------------------------------------------------------
# Offline adaptive optimum (tiny instances)
# ---------------------------------------------------------------------------

OFFLINE_OPT_STATE_CAP = 2_000_000  # most reachable canonical states
OFFLINE_OPT_CHUNK = 1 << 16        # most probes built at once


def _distinct(keys):
    """The distinct columns of ``keys`` (sorted) and each column's index among them."""
    order = np.lexsort(keys)
    keys = keys[:, order]
    new = np.append(True, (keys[:, 1:] != keys[:, :-1]).any(axis=0))[:order.size]
    return keys[:, new], (np.cumsum(new) - 1)[np.argsort(order)]


def _offline_moves(keys, m, n, classes):
    """Every legal probe ``(u, v)`` of the states in ``keys`` (columns of each
    vertex's patience, then the open bits packed into bytes), state by state:
    ``state, v, u`` and the canonical keys of its success and failure, last
    row their level."""
    bit = np.arange(m * n)
    shift = (7 - bit % 8).astype(np.uint8)[:, None]  # np.packbits' bit order
    rec = np.vstack([keys[:n], keys[n:][bit // 8] >> shift & 1]).reshape(-1, n, keys.shape[1])
    s, v, u = np.nonzero(rec[1:].transpose(2, 1, 0))
    hot, lost = np.arange(n)[:, None] == v, np.arange(len(rec) - 1)[:, None, None] == u
    rows = np.take(rec, s, axis=-1)
    succ, fail = after = np.broadcast_to(rows, (2, *rows.shape)).copy()
    succ[1:] *= ~lost
    succ *= ~hot
    fail[0] -= hot
    fail[1:] *= ~(lost & hot)
    after[:, 0] = rem = np.minimum(after[:, 0], after[:, 1:].sum(axis=1, dtype=rec.dtype))
    after *= (rem > 0)[:, None]
    for c in classes:
        order = np.lexsort(after[..., c, :].swapaxes(0, 1), axis=-2)[:, None]
        after[..., c, :] = np.take_along_axis(after[..., c, :], order, axis=-2)
    keys = after.transpose(1, 2, 0, 3).reshape(len(rec) * n, -1)
    packed = np.add.reduceat(keys[n:] << shift, bit[::8], axis=0, dtype=keys.dtype)
    return s, v, u, np.vstack([keys[:n], packed, rem.sum(axis=1, dtype=rec.dtype).reshape(1, -1)])


def brute_force_offline_opt(instance: MatchingInstance) -> float:
    """Exact optimal expected weight of an offline adaptive prober.

    The offline algorithm sees the whole graph and may interleave probes
    across online vertices in any order (so the arrival order is
    irrelevant); it still obeys probe-commit, per-vertex patience, and
    never re-probes an edge.  A state holds per online vertex its open set
    (the positive-probability neighbors still available and not yet
    probed) and its patience capped at that set's size, both zero once
    either is; types with equal columns and patience are interchangeable,
    so each class's vertices are sorted.  Every probe spends patience: a
    forward pass enumerates the reachable states a level of total patience
    at a time (``CapacityError`` past ``OFFLINE_OPT_STATE_CAP`` of them),
    and a backward pass values them, each level from those below.
    """
    if instance.arrivals.kind != ADVERSARIAL:
        raise CapabilityError("the offline oracle is defined for adversarial instances")
    if not all(p.is_deterministic for p in instance.patience):
        raise CapabilityError("the offline oracle needs deterministic patience")
    m, n = instance.m, instance.n_types
    probs, weights = instance.probs, instance.weights_matrix()
    rec = np.vstack([[p.theta for p in instance.patience], probs > 0.0])
    _, cls = np.unique(np.vstack([rec, probs, weights]).T, axis=0, return_inverse=True)
    classes = [c for c in (np.flatnonzero(cls.ravel() == k) for k in range(n)) if c.size > 1]
    rec[0] = np.clip(rec[0], 0, rec[1:].sum(axis=0))
    rec = (rec * (rec[0] > 0)).astype(np.min_scalar_type(n * m))
    start = np.vstack([rec[:1].T, np.packbits(rec[1:].reshape(-1, 1), axis=0)])
    pending = [[] for _ in range(int(start[:n].sum()))] + [[(start, np.zeros(1, np.int64))]]
    # an outcome's slot learns its state's index when its level is reached
    edges, slots, found, reached, outcomes = [], [], [], 0, 1
    step = max(1, OFFLINE_OPT_CHUNK // max(1, n * m))
    for level in range(len(pending) - 1, -1, -1):
        if not pending[level]:
            continue
        keys, index = _distinct(np.concatenate([k for k, _ in pending[level]], axis=1))
        slots.append(np.concatenate([t for _, t in pending[level]]))
        found.append(reached + index)
        if reached + keys.shape[1] > OFFLINE_OPT_STATE_CAP:
            raise CapacityError(f"offline oracle reaches more than {OFFLINE_OPT_STATE_CAP} states")
        for a in range(0, keys.shape[1], step):
            s, v, u, after = _offline_moves(keys[:, a:a + step], m, n, classes)
            after, index = _distinct(after)
            lows, first = np.unique(after[-1], return_index=True)
            for low, part in zip(lows, np.split(np.arange(after.shape[1]), first[1:])):
                pending[low].append((after[:-1, part], outcomes + part))
            first = np.flatnonzero(np.diff(s, prepend=-1))  # past level 0, each state probes
            edges.append((reached + a, first, probs[u, v], weights[u, v], outcomes + index))
            outcomes += after.shape[1]
        reached += keys.shape[1]
    target = np.empty(outcomes, np.int64)
    target[np.concatenate(slots)] = np.concatenate(found)
    value = np.zeros(reached)
    for at, first, p, w, index in reversed(edges):
        succ, fail = value[target[index]].reshape(2, -1)
        best = np.maximum.reduceat(p * (w + succ) + (1.0 - p) * fail, first)
        value[at:at + first.size] = np.maximum(best, 0.0)
    return float(value[0])


# ---------------------------------------------------------------------------
# Ratios against benchmarks
# ---------------------------------------------------------------------------

@dataclass
class RatioReport:
    ratio: float
    half_width: float
    benchmark_name: str
    benchmark_value: float
    sim: SimReport


def empirical_ratio(instance, matcher, benchmark, config: SimConfig,
                    threads: int | None = None) -> RatioReport:
    """Simulated mean over a benchmark value, with the confidence
    half-width propagated through the division.

    ``benchmark`` is one of ``"lp2"`` (edge-probe LP with star-cap rows),
    ``"lp6"`` (plain edge-probe LP), ``"lpp"`` (policy LP), and
    ``"offline-opt"`` (tiny-instance oracle), or an already-computed
    ``(name, value)`` pair.
    """
    from . import matching

    if isinstance(benchmark, tuple):
        name, value = benchmark
    else:
        name = benchmark
        if benchmark == "lp2":
            value = matching.benchmark_lp_value(instance, include_star_constraints=True)
        elif benchmark == "lp6":
            value = matching.benchmark_lp_value(instance, include_star_constraints=False)
        elif benchmark == "lpp":
            value = matching.solve_prophet_lp(instance).objective
        elif benchmark == "offline-opt":
            value = brute_force_offline_opt(instance)
        else:
            raise StochmatchError(f"unknown benchmark {benchmark!r}")
    if value <= 0.0:
        raise StochmatchError("benchmark value must be positive for a ratio")
    report = simulate(instance, matcher, config, threads=threads)
    return RatioReport(ratio=report.mean / value,
                       half_width=report.half_width / value,
                       benchmark_name=name, benchmark_value=value, sim=report)
