"""Monte Carlo simulation of the queue game under an arbitrary entry profile.

A trial walks the (m, k) chain: m agents outside, k queued.  At k >= 1 the
entrant count i is one Binomial(m, q) draw.  At an empty queue the run of
no-entry steps is a geometric self-loop sampled in one shot, which changes
nothing in distribution, and one uniform draws i conditional on i >= 1.  The
chain moves to (m - i, k + i - 1); a lone agent outside a non-empty queue
waits out the drain and enters at step + k.  An idle wait longer than the
step cap, or one at which the int64 geometric draw saturates, ends the
trial as truncated.

Only the step t_j at which queue position j entered is kept.  One head is
served per step, so position j is served at s_j = max(t_j, s_{j-1} + 1) and
pays t_j + w (s_j - t_j); a truncated trial stops the clock at its step
count, and agents still outside pay one per step played.  Every outside
agent enters with the same probability and entrants join in a uniformly
random order, so the agents take the positions in a uniformly random order,
independent of the chain: one permutation of the n labels per trial maps
positions to agents exactly in distribution.

``simulate_once`` plays one trial with scalar draws and is the reference.
``simulate`` plays blocks of trials in lockstep.  Every move lowers m + k by
exactly one (an idle skip belongs to the move it ends, and the lone agent's
move ends the trial), so at each move all live trials of a block sit on one
anti-diagonal m + k = d: the empty-queue trials all share the state (d, 0),
and the rest each need one binomial draw.  A block thus takes at most n
array moves, and each trial still makes the draws of its own walk,
independent of the others', so every trial has the law of
``simulate_once``.  Block b draws from a Philox stream keyed by (seed, block
size, b), so results are reproducible regardless of execution order, and
aggregation is order-independent at double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .model import (
    EntryProfile,
    GameParams,
    InvalidParameterError,
    NonTerminatingProfileError,
    QueueState,
    _dense_q,
    _Pmf,
    one_minus_pow,
)

__all__ = ["SimReport", "simulate_once", "simulate", "trial_rng"]

_GEOMETRIC_CEILING = np.iinfo(np.int64).max
# trials walked in lockstep: bounds the trials x n entry steps a block holds
_BLOCK = 1024
# rows priced at once: bounds the temporaries of pricing a block
_PRICE_ROWS = 128


@dataclass(frozen=True)
class SimReport:
    trials: int
    mean_total: float
    std_error: float
    per_agent_mean: float
    max_steps_hit: int
    seed: int
    agent_means: Tuple[float, ...]


def _philox(seed: int, *key: int) -> np.random.Generator:
    """Counter-based stream that is a pure function of (seed, key)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed % 2**64, spawn_key=key))
    )


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream that is a pure function of (seed, trial)."""
    return _philox(seed, trial)


def default_step_cap(profile: EntryProfile, params: GameParams) -> int:
    """Heuristic cap: 1e6 * n / min empty-queue entry probability."""
    min_q = profile.min_empty_queue_prob(params.n)
    if min_q <= 0.0:
        raise NonTerminatingProfileError(
            "profile has zero entry probability at an empty-queue state"
        )
    return int(1e6 * params.n / min_q)


def _entrant_cdf(m: int, q: float) -> np.ndarray:
    """Unnormalised CDF of the entrant count i = 1..m at (m, 0), given i >= 1."""
    return np.cumsum(_Pmf(m)(q)[1:])


def _entrants_given_some(cdf: np.ndarray, u, m: int):
    """Invert ``_entrant_cdf(m, q)`` at uniform(s) u: entrant counts in 1..m."""
    return np.minimum(1 + np.searchsorted(cdf, u * cdf[-1], side="right"), m)


def simulate_once(
    profile: EntryProfile,
    params: GameParams,
    rng: np.random.Generator,
    max_steps: Optional[int] = None,
) -> Tuple[float, np.ndarray, int, bool]:
    """One play of the game; returns (total cost, per-agent costs, steps, truncated)."""
    n = params.n
    if max_steps is None:
        max_steps = default_step_cap(profile, params)
    entry_steps: list[int] = []
    m, k, steps = n, 0, 0
    truncated = True  # cleared below if the walk ends with every agent entered
    while m:
        if m == 1 and k >= 1:
            # lone-agent rule: wait out the drain, then enter the empty queue
            entry_steps.append(steps + k)
            m, k, steps = 0, 0, steps + k + 1
            continue
        q = profile.q(QueueState(m, k))
        if k == 0:
            if q <= 0.0:
                break
            if q < 1.0:
                draw = int(rng.geometric(min(1.0, one_minus_pow(q, m))))
                # a draw at the int64 ceiling is clamped, not a real wait
                if draw == _GEOMETRIC_CEILING or steps + draw - 1 > max_steps:
                    break
                steps += draw - 1
            i = int(_entrants_given_some(_entrant_cdf(m, q), rng.random(), m))
        else:
            i = int(rng.binomial(m, q))
        entry_steps.extend([steps] * i)
        m -= i
        k += i - 1  # i >= 1 at an empty queue
        steps += 1
        if steps > max_steps:
            break
    else:
        truncated = False
        steps += k  # the queue drains after the last entry
    costs = _position_costs(entry_steps, n, params.w, steps)
    return float(costs.sum()), costs[rng.permutation(n)], steps, truncated


def _position_costs(entry_steps, n: int, w: float, steps) -> np.ndarray:
    """Costs of the queue positions in entry order, then of the agents left outside.

    ``entry_steps`` lists one trial's entry steps, at most n of them, with
    ``steps`` its clock; or it is a trials x n array, one row per trial, with
    ``steps`` one clock per row.  Every entry precedes the clock, which on a
    finished trial is past the last service.  An agent still outside is
    priced as if it entered as the clock stopped: it pays ``steps`` and
    waits no more.
    """
    t = np.asarray(entry_steps, dtype=float)
    if t.ndim == 1:
        t = np.concatenate([t, np.full(n - len(t), float(steps))])
    clock = np.asarray(steps, dtype=float)[..., None]
    j = np.arange(n)
    served = np.maximum.accumulate(t - j, axis=-1) + j  # s_j = max(t_j, s_{j-1} + 1)
    return t + w * (np.minimum(served, clock) - t)


def _walk_block(
    rng: np.random.Generator,
    t: np.ndarray,
    q: np.ndarray,
    cdfs: List[np.ndarray],
    cap: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Walk one block of trials down the chain in lockstep.

    ``q`` is the profile as a dense [m, k] array and ``cdfs[m]`` is
    ``_entrant_cdf(m, q[m, 0])``.  Fills the trials x n array ``t`` with
    each trial's entry step per queue position, agents still outside
    entering, in effect, as the clock stops; returns the trials' clocks and
    truncation flags.
    """
    size, n = t.shape
    m = np.full(size, n)
    steps = np.zeros(size, dtype=np.int64)
    live = np.ones(size, dtype=bool)
    truncated = np.zeros(size, dtype=bool)
    # the step of each move's first entrant, at its queue position; the other
    # entrants of the move are filled in forward below
    t.fill(0.0)
    for d in range(n, 0, -1):  # every live trial is at some (m, d - m)
        if d > 1:
            # lone-agent rule at (1, d - 1): wait out the drain, enter, and the trial ends
            lone = np.flatnonzero(live & (m == 1))
            if lone.size:
                t[lone, n - 1] = steps[lone] + d - 1
                steps[lone] += d
                m[lone] = 0
                live[lone] = False
        e = np.flatnonzero(live & (m == d))  # all at (d, 0)
        if e.size and q[d, 0] < 1.0:
            stop = np.ones(e.size, dtype=bool)
            if q[d, 0] > 0.0:
                draw = rng.geometric(min(1.0, one_minus_pow(q[d, 0], d)), e.size)
                # a draw at the int64 ceiling is clamped, not a real wait
                stop = (draw == _GEOMETRIC_CEILING) | (draw - 1 > cap - steps[e])
                steps[e[~stop]] += draw[~stop] - 1
            truncated[e[stop]] = True
            live[e[stop]] = False
            e = e[~stop]
        r = np.flatnonzero(live)
        if not r.size:
            break
        mr, sr = m[r], steps[r]
        empty = mr == d
        i = np.empty(r.size, dtype=np.int64)
        i[empty] = _entrants_given_some(cdfs[d], rng.random(e.size), d)
        busy = ~empty
        if busy.any():
            mb = mr[busy]
            i[busy] = rng.binomial(mb, q[mb, d - mb])
        enter = i > 0
        t[r[enter], n - mr[enter]] = sr[enter]
        m[r] = mr - i
        steps[r] = sr = sr + 1
        over = sr > cap
        truncated[r[over]] = True
        live[r[over]] = False
        done = r[~over & (mr == i)]
        steps[done] += d - 1  # the queue drains after the last entry
        live[done] = False
    # agents still outside enter, in effect, as the clock stops
    left = np.flatnonzero(m)
    t[left, n - m[left]] = steps[left]
    np.maximum.accumulate(t, axis=1, out=t)
    return steps, truncated


def simulate(
    profile: EntryProfile,
    params: GameParams,
    trials: int,
    seed: int,
    max_steps: Optional[int] = None,
) -> SimReport:
    """Aggregate independent trials into a SimReport.

    Trials are played in blocks of ``_BLOCK`` that walk the chain in
    lockstep (see the module docstring); each trial has the law of
    ``simulate_once``.  Reproducible for fixed (profile, params, trials,
    seed): block b draws from a Philox substream derived only from
    (seed, b) and the block size.  The clock is int64, so a walk that would
    run past 2^63 - 1 - n steps is truncated as if that were the cap.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    if max_steps is None:
        max_steps = default_step_cap(profile, params)
    elif max_steps < 0:
        raise InvalidParameterError(f"max_steps must be >= 0, got {max_steps}")
    n, w = params.n, params.w
    cap = int(min(max_steps, _GEOMETRIC_CEILING - 1 - n))
    q = _dense_q(profile, n)
    cdfs = [np.zeros(0)] + [_entrant_cdf(m, q[m, 0]) for m in range(1, n + 1)]
    totals = np.empty(trials)
    grid = np.empty((min(_BLOCK, trials), n))  # a block's entry steps, then its costs
    agent_sums = np.zeros(n)
    truncations = 0
    for block, start in enumerate(range(0, trials, _BLOCK)):
        # the key also carries the block size, so no block stream is a
        # trial_rng stream: this path and the scalar reference never share draws
        rng = _philox(seed, _BLOCK, block)
        size = min(_BLOCK, trials - start)
        t = grid[:size]
        steps, truncated = _walk_block(rng, t, q, cdfs, cap)
        for lo in range(0, size, _PRICE_ROWS):
            rows = slice(lo, lo + _PRICE_ROWS)
            t[rows] = _position_costs(t[rows], n, w, steps[rows])
        totals[start : start + size] = t.sum(axis=1)
        agent_sums += rng.permuted(t, axis=1, out=t).sum(axis=0)
        truncations += int(truncated.sum())
    mean = float(np.mean(totals))
    se = float(np.std(totals, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return SimReport(
        trials=trials,
        mean_total=mean,
        std_error=se,
        per_agent_mean=mean / n,
        max_steps_hit=truncations,
        seed=seed,
        agent_means=tuple(float(x) for x in agent_sums / trials),
    )
