"""Core types and cost primitives for the observable-queue bottleneck game.

The game G(n; w): n agents start outside a first-come-first-served queue.
Time is discrete.  Each step, every outside agent decides whether to enter;
entrants are appended to the queue in a uniformly random order; if the queue
is non-empty its head is processed; every other agent in the queue pays w,
and every agent still outside pays 1.  A state (m, k) has m agents outside
and k agents in the queue.

Cost conventions used throughout:

* ``cost_enter`` is the expected cost of entering now at (m, k) when each of
  the m-1 peers enters independently with probability q.
* ``cost_wait`` is the expected cost of waiting one step and then paying the
  continuation cost; at an empty queue the self-loop (nobody enters) is
  resolved geometrically, which makes the function diverge as q -> 0+.
* Lone-agent rule: an agent who is the last one outside enters as soon as
  the queue is empty.  His cost at (1, k) is therefore k (wait out the
  drain, then enter free).  Profiles store q=1 at (1, k) by convention, but
  every cost computation and the simulator use this rule, never the stored
  value, so the convention is cost-neutral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Mapping, Tuple

import numpy as np

__all__ = [
    "InvalidParameterError",
    "DivergentCostError",
    "NonTerminatingProfileError",
    "GameParams",
    "QueueState",
    "EntryProfile",
    "CostRole",
    "CostTable",
    "enumerate_states",
    "binom_pmf",
    "one_minus_pow",
    "cost_enter",
    "cost_wait",
    "step_cost_total",
    "total_cost_evaluate",
]


class InvalidParameterError(ValueError):
    """An argument violates a documented precondition."""


class DivergentCostError(ArithmeticError):
    """The requested expected cost is +infinity (empty queue, q = 0)."""


class NonTerminatingProfileError(ValueError):
    """The entry profile never leaves some reachable empty-queue state."""


@dataclass(frozen=True)
class GameParams:
    """Game parameters: n agents, in-queue waiting cost w > 1 per step."""

    n: int
    w: float

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError(f"n must be >= 1, got {self.n}")
        if not self.w > 1.0:
            raise InvalidParameterError(f"w must be > 1, got {self.w}")


@dataclass(frozen=True, order=True)
class QueueState:
    """A game state: m agents outside the queue, k agents in the queue."""

    m: int
    k: int

    def __post_init__(self):
        if self.m < 0 or self.k < 0:
            raise InvalidParameterError(f"state coordinates must be >= 0, got {self}")

    @property
    def total(self) -> int:
        return self.m + self.k


class CostRole(Enum):
    PER_OUTSIDE_PLAYER = "per_outside_player"
    TOTAL_SOCIAL = "total_social"


@dataclass(frozen=True)
class CostTable:
    """Expected costs per state, either per outside player or total social."""

    role: CostRole
    values: Mapping[QueueState, float]

    def __post_init__(self):
        for state, value in self.values.items():
            if value < 0:
                raise InvalidParameterError(f"negative cost {value} at {state}")
            if self.role is CostRole.PER_OUTSIDE_PLAYER and state.m < 1:
                raise InvalidParameterError(
                    f"per-player cost defined only for m >= 1, got {state}"
                )

    def __getitem__(self, state: QueueState) -> float:
        return self.values[state]


@dataclass(frozen=True)
class EntryProfile:
    """A symmetric anonymous stationary strategy: state -> entry probability.

    Stored probabilities are 1 at every (1, k); dynamics replace the (1, k>=1)
    value with the lone-agent rule (see module docstring).
    """

    entries: Mapping[QueueState, float]

    def __post_init__(self):
        for state, q in self.entries.items():
            if not 0.0 <= q <= 1.0:
                raise InvalidParameterError(f"probability {q} at {state} not in [0,1]")
            if state.m == 1 and q != 1.0:
                raise InvalidParameterError(
                    f"profiles store q=1 at m=1 states by convention, got {q} at {state}"
                )

    def q(self, state: QueueState) -> float:
        """Stored entry probability (default 1 at m = 1)."""
        if state.m == 1 and state not in self.entries:
            return 1.0
        return self.entries[state]

    def dynamics_q(self, state: QueueState) -> float:
        """Entry probability actually used by the game dynamics."""
        if state.m == 1:
            return 1.0 if state.k == 0 else 0.0
        return self.entries[state]

    def min_empty_queue_prob(self, n: int) -> float:
        """Smallest q at states (m, 0) with 2 <= m <= n."""
        qs = [self.q(QueueState(m, 0)) for m in range(2, n + 1)]
        return min(qs, default=1.0)

    @classmethod
    def from_empty_queue_probs(cls, p: Iterable[float], n: int) -> "EntryProfile":
        """Profile entering only at empty queues: q(m,0) = p[m], zero otherwise.

        ``p`` is indexed so that p[m] is the probability with m agents left;
        p[0] is ignored and p[1] is forced to 1.
        """
        p = list(p)
        if len(p) < n + 1:
            raise InvalidParameterError(f"need p[0..{n}], got length {len(p)}")
        entries: Dict[QueueState, float] = {}
        for state in enumerate_states(n):
            if state.m == 1:
                entries[state] = 1.0
            elif state.k == 0:
                entries[state] = float(p[state.m])
            else:
                entries[state] = 0.0
        return cls(entries)

    @classmethod
    def all_enter(cls, n: int) -> "EntryProfile":
        return cls({state: 1.0 for state in enumerate_states(n)})


def enumerate_states(n: int) -> List[QueueState]:
    """All states with m >= 1 and m + k <= n, by ascending (m+k, m).

    Every continuation state of (m, k) has total m+k-1 and therefore
    precedes it, so the cost recursions here and ``profile_cost_table`` can
    walk states in this order.  ``solve_equilibrium`` does not: it visits
    states m-major (see ``eqsolver``) and only reports them in this order.
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    states = []
    for total in range(1, n + 1):
        for m in range(1, total + 1):
            states.append(QueueState(m, total - m))
    return states


# ---------------------------------------------------------------------------
# Binomial arithmetic


_LOG_SPACE_THRESHOLD = 1000

_logfact_cache = np.zeros(1)


def _logfact(n: int) -> np.ndarray:
    """log(k!) for k = 0..n, each entry from lgamma (no cumulative drift)."""
    global _logfact_cache
    if len(_logfact_cache) <= n:
        _logfact_cache = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    return _logfact_cache


def binom_pmf(m: int, i: int, q: float) -> float:
    """C(m,i) * q^i * (1-q)^(m-i), finite and non-negative for extreme inputs.

    For m <= 1000 this runs a multiplicative recurrence that interleaves the
    (1-q) factors with the ratio factors and renormalizes through a separate
    power-of-two exponent, so intermediate products never over- or underflow.
    Above that it switches to log-space.
    """
    if m < 0 or i < 0 or i > m:
        raise InvalidParameterError(f"need 0 <= i <= m, got m={m}, i={i}")
    if math.isnan(q) or not 0.0 <= q <= 1.0:
        raise InvalidParameterError(f"q must be in [0,1], got {q}")
    if q == 0.0:
        return 1.0 if i == 0 else 0.0
    if q == 1.0:
        return 1.0 if i == m else 0.0
    if m > _LOG_SPACE_THRESHOLD:
        lf = _logfact(m)
        logv = lf[m] - lf[i] - lf[m - i] + i * math.log(q) + (m - i) * math.log1p(-q)
        return math.exp(logv)
    one_q = 1.0 - q
    if i == 0:
        return one_q**m
    mant = 1.0
    ex = 0
    rem = m - i

    def mul(x: float):
        nonlocal mant, ex
        mant *= x
        if not 2.0**-512 < mant < 2.0**512:
            fr, e2 = math.frexp(mant)
            mant = fr
            ex += e2

    folded = 0
    for j in range(1, i + 1):
        mul(((m - i + j) / j) * q)
        # spread the (1-q)^(m-i) factors evenly across the i ratio steps
        upto = (rem * j) // i
        for _ in range(upto - folded):
            mul(one_q)
        folded = upto
    return math.ldexp(mant, ex)


def _binom_consts(m: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """i, m - i and log C(m, i) for i = 0..m: the q-free part of a pmf row."""
    lf = _logfact(m)
    i = np.arange(m + 1)
    return i, m - i, lf[m] - lf[i] - lf[m - i]


def _binom_row(m: int, q: float, consts=None) -> np.ndarray:
    """pmf over i = 0..m at a single q, log-space (internal fast path).

    ``consts`` is ``_binom_consts(m)``, passed by callers that evaluate
    many rows of one m.
    """
    if q <= 0.0 or q >= 1.0:
        row = np.zeros(m + 1)
        row[m if q >= 1.0 else 0] = 1.0
        return row
    i, rest, logc = consts if consts is not None else _binom_consts(m)
    return np.exp(logc + i * math.log(q) + rest * math.log1p(-q))


def _binom_matrix(m: int, qs: np.ndarray) -> np.ndarray:
    """pmf rows for every q in qs; shape (len(qs), m+1)."""
    qs = np.asarray(qs, dtype=float)
    i, rest, logc = _binom_consts(m)
    interior = (qs > 0.0) & (qs < 1.0)
    safe = np.where(interior, qs, 0.5)
    with np.errstate(divide="ignore"):
        logv = (
            logc[None, :]
            + i[None, :] * np.log(safe)[:, None]
            + rest[None, :] * np.log1p(-safe)[:, None]
        )
    out = np.exp(logv)
    if not interior.all():
        out[qs <= 0.0] = np.eye(m + 1)[0]
        out[qs >= 1.0] = np.eye(m + 1)[m]
    return out


def one_minus_pow(q, e: int):
    """1 - (1-q)^e without cancellation for tiny q (scalar or ndarray)."""
    if np.isscalar(q):
        if q >= 1.0:
            return 1.0
        return -math.expm1(e * math.log1p(-q))
    q = np.asarray(q, dtype=float)
    out = np.empty_like(q)
    hi = q >= 1.0
    out[hi] = 1.0
    out[~hi] = -np.expm1(e * np.log1p(-q[~hi]))
    return out


# ---------------------------------------------------------------------------
# Cost primitives


def cost_enter(state: QueueState, q: float, w: float) -> float:
    """Expected cost of entering now: (m-1)/2 * q * w + k * w.

    The entrant pays w for each of the k queued agents ahead plus w for
    each peer that enters simultaneously and wins the coin flip.
    """
    if state.m < 1:
        raise InvalidParameterError(f"cost_enter needs m >= 1, got {state}")
    if not 0.0 <= q <= 1.0:
        raise InvalidParameterError(f"q must be in [0,1], got {q}")
    return (state.m - 1) / 2.0 * q * w + state.k * w


def cost_wait(
    state: QueueState,
    q: float,
    w: float,
    continuation: Mapping[QueueState, float],
) -> float:
    """Expected cost of waiting one step at (m, k) with peers entering w.p. q.

    For k >= 1: 1 + sum_i pmf(m-1, i, q) * c(m-i, k+i-1).
    For k == 0 the no-entry self-loop is resolved geometrically, so the
    result is (1 + sum_{i>=1} pmf * c(m-i, i-1)) / (1 - (1-q)^(m-1)); this
    diverges as q -> 0+ and raises DivergentCostError at q == 0.
    """
    m, k = state.m, state.k
    if m < 1:
        raise InvalidParameterError(f"cost_wait needs m >= 1, got {state}")
    if not 0.0 <= q <= 1.0:
        raise InvalidParameterError(f"q must be in [0,1], got {q}")
    if k == 0:
        if m < 2:
            raise InvalidParameterError("cost_wait at an empty queue needs m >= 2")
        if q == 0.0:
            raise DivergentCostError(
                f"waiting cost at {state} diverges when nobody ever enters"
            )
    row = _binom_row(m - 1, q)
    if k >= 1:
        cont = sum(
            p * continuation[QueueState(m - i, k + i - 1)]
            for i, p in enumerate(row)
            if p > 0.0
        )
        return 1.0 + cont
    cont = sum(
        row[i] * continuation[QueueState(m - i, i - 1)]
        for i in range(1, m)
        if row[i] > 0.0
    )
    return (1.0 + cont) / one_minus_pow(q, m - 1)


def step_cost_total(state: QueueState, i: int, w: float) -> float:
    """Total social cost of one step in which i of the m outside agents enter.

    If anybody is in the queue after entries, its head is processed free,
    the other k+i-1 queued agents pay w each and the m-i agents still
    outside pay 1 each; otherwise all m outside agents pay 1.
    """
    m, k = state.m, state.k
    if not 0 <= i <= m:
        raise InvalidParameterError(f"need 0 <= i <= m, got i={i} at {state}")
    if k + i >= 1:
        return (k + i - 1) * w + (m - i)
    return float(m)


def _drain_cost(k: int, w: float) -> float:
    # deterministic drain of a queue of k with nobody outside
    return w * k * (k - 1) / 2.0


def total_cost_evaluate(
    profile: EntryProfile, params: GameParams
) -> Tuple[CostTable, float]:
    """Expected total social cost T(m, k) of every state under a profile.

    T(0, k) = w*k*(k-1)/2 (deterministic drain).  For m >= 1,
    T(m, k) = sum_i pmf(m, i, q_{m,k}) * (step cost + T(successor)), with the
    empty-queue self-loop divided out geometrically.  States (m, 0) where the
    profile never enters get T = +inf; if such a state is reachable from
    (n, 0) the profile is rejected as non-terminating.  Returns the table and
    T(n, 0).
    """
    n, w = params.n, params.w
    values: Dict[QueueState, float] = {}
    for k in range(0, n + 1):
        values[QueueState(0, k)] = _drain_cost(k, w)
    for state in enumerate_states(n):
        m, k = state.m, state.k
        if m == 1:
            # lone-agent rule: wait out the drain (k steps), then enter free
            values[state] = k + _drain_cost(k, w)
            continue
        q = profile.dynamics_q(state)
        if k == 0 and q == 0.0:
            values[state] = math.inf
            continue
        row = _binom_row(m, q)
        acc = 0.0
        for i in range(0 if k >= 1 else 1, m + 1):
            if row[i] <= 0.0:
                continue
            succ = QueueState(m - i, k + i - 1)
            acc += row[i] * (step_cost_total(state, i, w) + values[succ])
        if k >= 1:
            values[state] = float(acc)
        else:
            values[state] = float((row[0] * m + acc) / one_minus_pow(q, m))
    total = values[QueueState(n, 0)]
    if not math.isfinite(total):
        raise NonTerminatingProfileError(
            "profile never enters at a reachable empty-queue state"
        )
    return CostTable(CostRole.TOTAL_SOCIAL, values), total
