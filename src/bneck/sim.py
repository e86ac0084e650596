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

Trial i draws from a Philox stream keyed by (seed, i), so results are
reproducible regardless of execution order, and aggregation is
order-independent at double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .model import (
    EntryProfile,
    GameParams,
    InvalidParameterError,
    NonTerminatingProfileError,
    QueueState,
    _binom_row,
    one_minus_pow,
)

__all__ = ["SimReport", "simulate_once", "simulate", "trial_rng"]

_GEOMETRIC_CEILING = np.iinfo(np.int64).max


@dataclass(frozen=True)
class SimReport:
    trials: int
    mean_total: float
    std_error: float
    per_agent_mean: float
    max_steps_hit: int
    seed: int
    agent_means: Tuple[float, ...]


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream that is a pure function of (seed, trial)."""
    return np.random.Generator(
        np.random.Philox(
            np.random.SeedSequence(entropy=seed % 2**64, spawn_key=(trial,))
        )
    )


def default_step_cap(profile: EntryProfile, params: GameParams) -> int:
    """Heuristic cap: 1e6 * n / min empty-queue entry probability."""
    min_q = profile.min_empty_queue_prob(params.n)
    if min_q <= 0.0:
        raise NonTerminatingProfileError(
            "profile has zero entry probability at an empty-queue state"
        )
    return int(1e6 * params.n / min_q)


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
            # entrant count conditional on at least one entering
            cdf = np.cumsum(_binom_row(m, q)[1:])
            i = 1 + int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
            i = min(i, m)
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


def _position_costs(entry_steps: Sequence[int], n: int, w: float, steps: int) -> np.ndarray:
    """Costs of the queue positions in entry order, then of the agents left outside.

    The clock stops at ``steps``, which on a finished trial is past the last service.
    """
    t = np.asarray(entry_steps, dtype=float)
    j = np.arange(len(t))
    served = np.maximum.accumulate(t - j) + j  # s_j = max(t_j, s_{j-1} + 1)
    costs = np.full(n, float(steps))
    costs[: len(t)] = t + w * (np.minimum(served, steps) - t)
    return costs


def simulate(
    profile: EntryProfile,
    params: GameParams,
    trials: int,
    seed: int,
    max_steps: Optional[int] = None,
) -> SimReport:
    """Aggregate independent trials into a SimReport.

    Reproducible for fixed (profile, params, trials, seed): trial i uses a
    substream derived only from (seed, i).
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    if max_steps is None:
        max_steps = default_step_cap(profile, params)
    n = params.n
    totals = np.empty(trials)
    agent_sums = np.zeros(n)
    truncations = 0
    for t in range(trials):
        total, per_agent, _, truncated = simulate_once(
            profile, params, trial_rng(seed, t), max_steps
        )
        totals[t] = total
        agent_sums += per_agent
        truncations += int(truncated)
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
