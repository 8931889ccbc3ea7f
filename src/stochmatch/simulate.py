"""Seeded Monte Carlo engine and the level-wise offline oracle.

Trial ``i`` of a run draws its randomness from a counter-based Philox
stream keyed by ``(master seed, i)``, so every trial is a pure function of
the config and trials may run in any order or in parallel without changing
results.  Means use numpy's pairwise summation, which is order-independent
for a fixed trial array.

A run splits its trials into one list of blocks, which serial runs and
worker processes run the same way.  A block has one row per trial, as wide
as the matcher's ``draw_bound`` (the most uniforms any trial reads: for a
greedy matcher, a policy walk's per arrival, since a randomized plan reads
one uniform per attempt), and at most ``CHUNK_TRIALS`` rows and
``BLOCK_FLOATS`` uniforms.  Row ``j`` of a block is the stream
``trial_generator(seed, start + j)`` would give, bit for bit
(``trial_uniforms``), drawn by one of two paths: one vectorized
Philox4x64-10 pass computes every row's 4-word counter blocks at once, in
18 numpy calls a round over contiguous arrays that each hold two of the
four words (``_philox_pass``), or one generator is reset to counter 0
under key ``(seed, i)`` for each row.  The vectorized pass costs more per
uniform and per call but nothing per row, so a cost rule on the block's
row count and width, with constants fitted by timing both, picks it for
many narrow rows (the IID and prophet matchers' blocks) and the generator
for few or wide ones (AdvGreedy's and SimpleGreedy's).  The matcher then
walks every row at once on numpy state (``run_lockstep``);
SimpleGreedy takes a run of identical patience-1 arrivals as one step,
scanning each row's uniforms for its next success, and AdvGreedy gathers
an arrival's plans from rows stored by packed free-set key.  A worker
process returns only its block's results: the plans its matcher solves
stay in the worker, and the caller's table is left as it was.
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
from .stars import _distinct

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


# Philox4x64-10 as numpy's ``Philox`` runs it (Salmon et al., SC 2011): the
# multipliers of words 0 and 2, and the Weyl key bumps
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
# per word pair, the multiplier and its low and high 32-bit halves
_PHILOX_M = np.array([[m, m & 0xFFFFFFFF, m >> 32] for m in (_PHILOX_M0, _PHILOX_M1)],
                     dtype=np.uint64).T[:, :, None, None]
_PHILOX_W = np.array([_PHILOX_W0, _PHILOX_W1], dtype=np.uint64)[:, None, None]
_LOW32, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)

# A vectorized pass holds about 6 words per uniform; passes over at most
# this many uniforms (1.5 MB) keep them in a core's L2 cache, and larger ones
# ran at up to twice the cost per uniform
PHILOX_PASS_FLOATS = 1 << 15
# The cost in ns of each path to a block, fitted on a 2-core x86 machine
# (CHANGES.md has the table): the generator pays per call, per row for a
# state reset and per uniform; the vectorized path per pass and per uniform
# of whole 4-word Philox blocks
GENERATOR_NS, GENERATOR_NS_PER_ROW, GENERATOR_NS_PER_UNIFORM = 30_000, 2_100, 6.7
PHILOX_NS, PHILOX_NS_PER_UNIFORM = 152_000, 31


def _generator_uniforms(seed: int, start: int, rows: int, width: int) -> np.ndarray:
    """``trial_uniforms`` from one reused generator: resetting a Philox
    state to counter 0 under key ``(seed, i)`` costs a fraction of building
    a new generator, and yields the same stream."""
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    key = state["state"]["key"]
    key[0] = seed & _MASK64
    block = np.empty((rows, width))
    for j, row in enumerate(block):
        key[1] = (start + j) & _MASK64
        bitgen.state = state
        gen.random(out=row)
    return block


def _mulhilo(x, m, lo, hi, t, x0, x1):
    """Write the low and high 64 bits of ``x * m[0]`` to ``lo`` and ``hi``,
    from 32-bit halves: with x = x1 * 2**32 + x0, the multiplier's halves
    ``m[1]`` (low) and ``m[2]`` (high), and t = x1 * m[1] + (x0 * m[1] >> 32),
    the high product is x1 * m[2] + (t >> 32) + ((x0 * m[2] + (t & LOW32)) >> 32),
    and no sum carries out of 64 bits.  ``t``, ``x0`` and ``x1`` are scratch."""
    mul, m_lo, m_hi = m
    np.multiply(x, mul, lo)
    np.bitwise_and(x, _LOW32, x0)
    np.right_shift(x, _HALF, x1)
    np.multiply(x0, m_lo, t)
    np.right_shift(t, _HALF, t)
    np.multiply(x1, m_lo, hi)
    t += hi
    np.multiply(x0, m_hi, x0)
    np.multiply(x1, m_hi, hi)
    np.right_shift(t, _HALF, x1)
    hi += x1
    np.bitwise_and(t, _LOW32, t)
    t += x0
    np.right_shift(t, _HALF, t)
    hi += t


def _philox_pass(seed: int, start: int, width: int, out: np.ndarray):
    """Fill ``out`` with the ``trial_uniforms`` block of ``len(out)`` rows
    from trial ``start`` on, in one numpy pass over all rows.

    Numpy's Philox draws the 4-word block ``(c, 0, 0, 0)`` for counters
    ``c = 1, 2, ...`` under key ``(seed, trial)``, and a double is
    ``(x >> 11) * 2**-53``.  A round multiplies words 0 and 2 by the two
    multipliers: words 0 and 2 (``even``) and 1 and 3 (``odd``) are each one
    contiguous ``(2, blocks, rows)`` array, and the multipliers fill arrays
    of the same shape, so that every call of a round runs over both words
    of a pair on contiguous operands, and a trial's key words lie along the
    rows.  Round 0 sees only the counter, so it is done on the counters
    alone, and round 1 multiplies word 0, still the seed, as a Python int.
    Array arithmetic on uint64 wraps without a warning; the seed's key word
    is bumped as a Python int, masked to 64 bits."""
    rows, blocks = len(out), -(-width // 4)
    work = np.empty((10, 2, blocks, rows), dtype=np.uint64)
    even, odd, lo, hi, t, x0, x1 = work[:7]
    m = work[7:]
    m[...] = _PHILOX_M
    key = np.empty((2, 1, rows), dtype=np.uint64)
    key[1] = np.arange(rows, dtype=np.uint64)
    key[1] += np.uint64(start & _MASK64)  # trial indices, wrapping past 2**64
    prod = [c * _PHILOX_M0 for c in range(1, blocks + 1)]
    # round 0 leaves (seed, 0, hi ^ trial, lo) of each counter's product
    np.bitwise_xor(np.array([p >> 64 for p in prod], dtype=np.uint64)[:, None], key[1],
                   out=even[1])
    seed_prod = (seed & _MASK64) * _PHILOX_M0
    key[0] = (seed + _PHILOX_W0) & _MASK64
    key[1] += _PHILOX_W[1]
    # round 1: (w0, w1, w2, w3) <- (hi1 ^ k0, lo1, hi0 ^ w3 ^ k1, lo0), with
    # word 1 still 0 and the seed's product hi0, lo0 a Python int
    _mulhilo(even[1], m[:, 1], odd[0], hi[1], t[1], x0[1], x1[1])
    np.bitwise_xor(hi[1], key[0], out=even[0])
    low = np.array([p & _MASK64 for p in prod], dtype=np.uint64)[:, None]
    np.bitwise_xor(low ^ np.uint64(seed_prod >> 64), key[1], out=even[1])
    odd[1] = seed_prod & _MASK64
    words = np.empty((rows, blocks, 2, 2), dtype=np.uint64)  # rows of (w0, w1), (w2, w3)
    for r in range(2, 10):
        key += _PHILOX_W
        _mulhilo(even, m, lo, hi, t, x0, x1)
        # (w0, w1, w2, w3) <- (hi1 ^ w1 ^ k0, lo1, hi0 ^ w3 ^ k1, lo0); the
        # last round writes straight into ``words``
        if r == 9:
            even = words[..., 0].transpose(2, 1, 0)
        np.bitwise_xor(hi[::-1], odd, out=even)
        even ^= key
        if r == 9:
            words[..., 1] = lo[::-1].transpose(2, 1, 0)
        else:
            odd, lo = lo[::-1], odd[::-1]
    words >>= np.uint64(11)
    np.multiply(words.reshape(rows, 4 * blocks)[:, :width], 2.0 ** -53, out=out)


def _philox_uniforms(seed: int, start: int, rows: int, width: int) -> np.ndarray:
    """``trial_uniforms`` by vectorized passes over at most
    ``PHILOX_PASS_FLOATS`` uniforms of whole rows each."""
    step = max(1, PHILOX_PASS_FLOATS // (-(-width // 4) * 4))
    block = np.empty((rows, width))
    for a in range(0, rows, step):
        _philox_pass(seed, start + a, width, block[a:a + step])
    return block


def _philox_pays(rows: int, width: int) -> bool:
    """Whether the vectorized passes cost less than the generator on a block
    of ``rows`` rows of ``width`` uniforms, by the fitted costs above."""
    padded = -(-width // 4) * 4
    passes = -(-rows // max(1, PHILOX_PASS_FLOATS // padded))
    generator = GENERATOR_NS + rows * (GENERATOR_NS_PER_ROW + GENERATOR_NS_PER_UNIFORM * width)
    return passes * PHILOX_NS + PHILOX_NS_PER_UNIFORM * rows * padded < generator


def trial_uniforms(seed: int, start: int, rows: int, width: int) -> np.ndarray:
    """A ``(rows, width)`` block whose row ``j`` is the first ``width``
    uniforms of trial ``start + j``, ``trial_generator(seed, start + j)
    .random(width)``, bit for bit.

    Two paths give the same block, and the one the block's shape makes
    cheaper runs (``_philox_pays``): one vectorized Philox pass over all
    rows (``_philox_uniforms``), which wins on many narrow rows, or a
    generator reset per row (``_generator_uniforms``), which wins on few or
    wide ones."""
    if _philox_pays(rows, width):
        return _philox_uniforms(seed, start, rows, width)
    return _generator_uniforms(seed, start, rows, width)


def _run_block(instance, matcher, seed, start, stop, width):
    """Per-trial weights and per-vertex match counts of trials [start, stop),
    walked as one lockstep batch.

    A block row holds ``width`` uniforms, the matcher's bound on the draws
    of one trial (at least 1).  A row of any width is a prefix of the
    trial's stream: the first ``k`` doubles of a Philox stream do not depend
    on how many are drawn, so no row needs rounding up to whole
    ``RandomTape`` refills."""
    return matcher.run_lockstep(instance, trial_uniforms(seed, start, stop - start, width))


_JOB: tuple = ()  # a worker process's (instance, matcher), set once by ``_start_worker``


def _start_worker(instance, matcher):
    """Pool initializer: keep the run's instance and matcher, with its
    table, for every block the worker runs."""
    global _JOB
    _JOB = (instance, matcher)


def _run_worker(seed, start, stop, width):
    """``_run_block`` in a worker process on its kept instance and matcher."""
    return _run_block(*_JOB, seed, start, stop, width)


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
    worker processes, each given the instance and the matcher once, by the
    pool's initializer, so that a block carries only its seed, trial range
    and width; the report is bit-identical to a serial run because
    each trial's stream depends only on (seed, trial index).  Workers
    return only their blocks' results, so a parallel run leaves the
    matcher's table as it was before the pool started.  A value of
    ``None`` reads the ``STOCHMATCH_THREADS`` variable, defaulting to 1
    (see ``thread_count``).
    """
    trials = config.trials
    width = max(1, matcher.draw_bound(instance))
    rows = max(1, min(CHUNK_TRIALS, BLOCK_FLOATS // width))
    blocks = [(config.seed, a, min(a + rows, trials), width) for a in range(0, trials, rows)]
    threads = thread_count(threads, chunks=len(blocks))
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads, initializer=_start_worker,
                                 initargs=(instance, matcher)) as pool:
            parts = list(pool.map(_run_worker, *zip(*blocks)))
    else:
        parts = [_run_block(instance, matcher, *block) for block in blocks]
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
    cls, _ = _distinct(np.vstack([rec, probs, weights]))
    classes = [c for c in (np.flatnonzero(cls == k) for k in range(n)) if c.size > 1]
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
        keys = np.concatenate([k for k, _ in pending[level]], axis=1)
        index, kept = _distinct(keys)
        keys = keys[:, kept]
        slots.append(np.concatenate([t for _, t in pending[level]]))
        found.append(reached + index)
        if reached + keys.shape[1] > OFFLINE_OPT_STATE_CAP:
            raise CapacityError(f"offline oracle reaches more than {OFFLINE_OPT_STATE_CAP} states")
        for a in range(0, keys.shape[1], step):
            s, v, u, after = _offline_moves(keys[:, a:a + step], m, n, classes)
            index, kept = _distinct(after)
            after = after[:, kept]
            level = after[-1]  # ``_distinct`` sorted the outcomes by it
            first = np.flatnonzero(np.diff(level, prepend=level[:1] - 1))  # each level's first
            for low, part in zip(level[first], np.split(np.arange(level.size), first[1:])):
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
