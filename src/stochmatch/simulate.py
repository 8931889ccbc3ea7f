"""Seeded Monte Carlo engine, exact evaluators, and the offline oracle.

Trial ``i`` of a run draws its randomness from a counter-based Philox
stream keyed by ``(master seed, i)``, so every trial is a pure function of
the config and trials may run in any order or in parallel without changing
results.  Means use numpy's pairwise summation, which is order-independent
for a fixed trial array.

One generator serves a whole run: its state is reset to counter 0 under
key ``(seed, i)`` for trial ``i``, which gives the stream that
``trial_generator(seed, i)`` would.  Every matcher runs a batch of trials
at once (``run_lockstep``): each trial's uniforms are one row of a block
whose width, the matcher's ``draw_bound``, bounds the draws of any trial,
and the matcher walks every row on numpy state.  Each row is the stream
the trial would read alone, so reports are the same as the tests' scalar
walk (``tests/walk_oracle.py``) gives one trial at a time; a called
matcher runs one trial as a one-row batch.  The report's normal quantile
comes from the standard library, so importing this module loads no scipy.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .instances import (
    ADVERSARIAL,
    CapabilityError,
    CapacityError,
    MatchingInstance,
    Policy,
    StarInstance,
    StochmatchError,
)
from .stars import RandomizedStarPolicy, eval_policy_exact, eval_randomized_exact

LOW_TRIAL_WARNING = 1000
CHUNK_TRIALS = 4096        # trials per chunk: the unit of parallel work
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


def _run_range(instance, matcher, seed, start, stop, m):
    """Per-trial weights and per-vertex match counts of trials [start, stop).

    A block row holds the matcher's bound on the draws of one trial (at
    least 1).  A row of any width is a prefix of the trial's stream: the
    first ``k`` doubles of a Philox stream do not depend on how many are
    drawn, so no row needs rounding up to whole ``RandomTape`` refills."""
    streams = _TrialStreams(seed)
    width = max(1, matcher.draw_bound(instance))
    rows = max(1, min(CHUNK_TRIALS, BLOCK_FLOATS // width))
    weights = np.empty(stop - start)
    counts = np.zeros(m)
    for a in range(start, stop, rows):
        b = min(a + rows, stop)
        block = streams.fill(np.empty((b - a, width)), a)
        weights[a - start:b - start], batch_counts = matcher.run_lockstep(instance, block)
        counts += batch_counts
    return weights, counts


def _table_plans(instance, matcher) -> dict:
    """AdvGreedy's plan cache in its table on ``instance``; a throwaway
    dict for other matchers."""
    tables = matcher._tables(instance) if hasattr(matcher, "_tables") else None
    return getattr(tables, "plans", {})


def _run_worker(instance, matcher, seed, start, stop, m):
    """``_run_range`` in a worker process, returning also the plans the
    matcher's table (pickled with the instance) gained there, so that the
    caller's table keeps them."""
    plans = _table_plans(instance, matcher)
    known = set(plans)
    weights, counts = _run_range(instance, matcher, seed, start, stop, m)
    return weights, counts, {k: p for k, p in plans.items() if k not in known}


def thread_count(threads=None, chunks: int | None = None, default: int = 1) -> int:
    """Worker processes for a simulation.

    ``threads`` is a count or its text; ``None`` reads ``STOCHMATCH_THREADS``
    and falls back to ``default`` when that is unset.  A non-integer or a
    value below 1 raises ``StochmatchError``.  The count is clamped to the
    machine's cores and, when given, to the number of trial chunks.
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

    Trials run in chunks of ``CHUNK_TRIALS``.  ``threads`` > 1 spreads the
    chunks over worker processes; the report is bit-identical to a serial
    run because each trial's stream depends only on (seed, trial index).
    A value of ``None`` reads the ``STOCHMATCH_THREADS`` variable,
    defaulting to 1 (see ``thread_count``).
    """
    m = instance.m
    trials = config.trials
    chunks = [(a, min(a + CHUNK_TRIALS, trials)) for a in range(0, trials, CHUNK_TRIALS)]
    threads = thread_count(threads, chunks=len(chunks))
    if threads > 1:
        plans = _table_plans(instance, matcher)
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_run_worker,
                                  *zip(*[(instance, matcher, config.seed, a, b, m)
                                         for a, b in chunks])))
        weights = np.concatenate([p[0] for p in parts])
        counts = np.sum([p[1] for p in parts], axis=0)
        for part in parts:
            plans.update(part[2])
    else:
        weights, counts = _run_range(instance, matcher, config.seed, 0, trials, m)
    mean = float(np.mean(weights))
    stddev = float(np.std(weights, ddof=1)) if trials > 1 else 0.0
    z = NormalDist().inv_cdf(1.0 - (1.0 - CONFIDENCE) / 2.0)
    half_width = z * stddev / np.sqrt(trials)
    return SimReport(mean=mean, stddev=stddev, half_width=half_width,
                     match_freq=counts / trials, trials=trials,
                     confidence=CONFIDENCE,
                     low_trial_count=trials < LOW_TRIAL_WARNING)


# ---------------------------------------------------------------------------
# Exact evaluation
# ---------------------------------------------------------------------------

def exact_expected_value(instance, matcher) -> float:
    """Exact expected matched weight of a matcher whose behavior admits a
    full outcome expansion (all matchers in this package do, on small
    instances).  For a star instance the "matcher" may also be a fixed
    ``Policy`` or a ``RandomizedStarPolicy``."""
    if isinstance(instance, StarInstance):
        if isinstance(matcher, RandomizedStarPolicy):
            return eval_randomized_exact(instance, matcher)
        if isinstance(matcher, Policy):
            return eval_policy_exact(instance, matcher)
        raise StochmatchError("star instances take a Policy or RandomizedStarPolicy")
    exact = getattr(matcher, "exact_value", None)
    if exact is None:
        raise StochmatchError(f"{type(matcher).__name__} has no exact expansion")
    return exact(instance)


# ---------------------------------------------------------------------------
# Offline adaptive optimum (tiny instances)
# ---------------------------------------------------------------------------

OFFLINE_OPT_STATE_CAP = 2_000_000


def brute_force_offline_opt(instance: MatchingInstance) -> float:
    """Exact optimal expected weight of an offline adaptive prober.

    The offline algorithm sees the whole graph and may interleave probes
    across online vertices in any order (so the arrival order is
    irrelevant); it still obeys probe-commit, per-vertex patience, and
    never re-probes an edge.  State: per online vertex its remaining
    patience and its open set, the positive-probability neighbors still
    available and not yet probed.  Nothing else changes the value, so a
    vertex with no patience or no open neighbor is ``(0, 0)``, and
    patience is capped at the open set's size.  Deterministic patience
    and tiny instances only.
    """
    if instance.arrivals.kind != ADVERSARIAL:
        raise CapabilityError("the offline oracle is defined for adversarial instances")
    if not all(p.is_deterministic for p in instance.patience):
        raise CapabilityError("the offline oracle needs deterministic patience")
    m, n = instance.m, instance.n_types
    probs = instance.probs
    memo: dict = {}

    def canon(rem: int, open_: int) -> tuple[int, int]:
        return (min(rem, open_.bit_count()), open_) if rem > 0 and open_ else (0, 0)

    def go(states: tuple) -> float:
        got = memo.get(states)
        if got is not None:
            return got
        if len(memo) > OFFLINE_OPT_STATE_CAP:
            raise CapacityError("offline oracle state space exceeded its cap")
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
