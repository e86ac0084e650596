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
* ``_wait_cost`` is the expected cost of waiting one step and then paying
  the continuation cost; at an empty queue the self-loop (nobody enters) is
  resolved geometrically, which makes it diverge as q -> 0+.
* Lone-agent rule: an agent who is the last one outside enters as soon as
  the queue is empty.  His cost at (1, k) is therefore k (wait out the
  drain, then enter free).  Profiles store q=1 at (1, k) by convention, but
  every cost computation and the simulator use this rule, never the stored
  value, so the convention is cost-neutral.

Every cost is a recursion over one transition: from (m, k), i agents enter
with Binomial odds and the game moves to (m-i, k+i-1).  ``_successors``
holds that index arithmetic and ``_Pmf`` the binomial: it is the package's
only pmf code.  Per-state values live in dense (n+1) x (n+1)
arrays indexed [m, k]; every per-state table is one behind the Mapping type
``_StateTable``, nan marking an absent state.  The profile pass visits states
m-major (m ascending, then k ascending: (m, k) needs (m, k-1) and fewer
agents out); the equilibrium solver walks the diagonals m + k (``eqsolver``).

One pass, ``_profile_costs``, prices a profile: the per-player cost v(m, k)
and the waiting cost of every state.  The total social cost needs no second
recursion: each of the m agents outside expects v(m, k), and the k queued
agents pay w for every agent ahead of them whatever happens outside, so
T(m, k) = m*v(m, k) + w*k*(k-1)/2.

The pass works on dense rows.  The profile's q is read into an (n+1) x
(n+1) array once (``_dense_q``, which rejects a profile lacking a state).
For each m-row, one ``_Pmf.rows`` matrix holds the pmf rows of the states
with q > 0, one ``_successors`` gather takes their successors from rows
already priced, and their weighted sums give each state's waiting cost
as base(k) + slope(k)*v(m, k-1), slope being the weight of slot 0.  That
leaves v(m, k) = q*c1 + (1-q)*(base + slope*v(m, k-1)): a scalar affine
recurrence along the row, which one plain loop over k carries (at q = 0 it
is v = 1 + v(m, k-1); at k = 0 the self-loop is divided out instead).
Zero weights are skipped, so 0 * inf never appears.  The sums run in
another order than a per-state dot product, so v and the waiting cost
match the per-state loop this pass replaced to a relative 1e-13 (worst
seen 5.2e-15 and 1.3e-14, at G(150; 3)), with the same +inf states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, List, Mapping, Optional, Tuple

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
    "total_cost_evaluate",
]


class InvalidParameterError(ValueError):
    """An argument violates a documented precondition."""


class DivergentCostError(ArithmeticError):
    """The requested expected cost is +infinity (empty queue, q = 0)."""


class NonTerminatingProfileError(ValueError):
    """The entry profile never leaves some reachable empty-queue state."""


def _check_solver_settings(grid_points: int, tol: float) -> None:
    """Reject a scan grid of fewer than 2 points or a tol that is not finite and > 0."""
    if grid_points < 2:
        raise InvalidParameterError(f"grid_points must be >= 2, got {grid_points}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise InvalidParameterError(f"tol must be finite and > 0, got {tol}")


@dataclass(frozen=True)
class GameParams:
    """Game parameters: n agents, in-queue waiting cost w > 1 per step.

    w must be finite, and so must w*n*(n-1), the largest product the cost
    arithmetic forms (w*k(k-1) at k = n, evaluated in this order).
    """

    n: int
    w: float

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError(f"n must be >= 1, got {self.n}")
        if not (self.w > 1.0 and math.isfinite(self.w)):
            raise InvalidParameterError(f"w must be finite and > 1, got {self.w}")
        if not math.isfinite(self.w * self.n * (self.n - 1)):
            raise InvalidParameterError(
                f"costs overflow: w*n*(n-1) is not finite at n={self.n}, w={self.w}"
            )


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


class _StateTable(Mapping):
    """A read-only Mapping QueueState -> float over one (N+1) x (N+1) [m, k] array.

    nan marks an absent state; every cell with m + k > N is nan.  Built from
    a Mapping (a nan value is rejected), from an array (not copied; made
    read-only) or from another table (sharing its array).  Iterates over row
    m = 0, then in ``enumerate_states`` order; its repr is the dict's.
    """

    __slots__ = ("_a",)

    def __init__(self, values: Mapping[QueueState, float]):
        a = values._a if isinstance(values, _StateTable) else values
        if not isinstance(a, np.ndarray):
            vals = np.fromiter(values.values(), float, len(values))
            if np.isnan(vals).any():
                state = min(itertools.compress(values, np.isnan(vals)))
                raise InvalidParameterError(f"value nan at {state}: nan marks an absent state")
            m, k = np.array([(s.m, s.k) for s in values], np.intp).reshape(-1, 2).T
            a = np.full((int(np.max(m + k, initial=0)) + 1,) * 2, math.nan)
            a[m, k] = vals
        a.flags.writeable = False
        self._a = a

    def __getitem__(self, state: QueueState) -> float:
        a, m, k = self._a, state.m, state.k
        if 0 <= m < len(a) and 0 <= k < len(a):
            v = a.item(m, k)
            if v == v:  # nan marks an absent state
                return v
        raise KeyError(state)

    def __iter__(self) -> Iterator[QueueState]:
        a, n = self._a, len(self._a) - 1
        yield from map(QueueState, itertools.repeat(0), np.flatnonzero(~np.isnan(a[0])).tolist())
        states, m, k = _states(n)
        yield from itertools.compress(states, (~np.isnan(a[m, k])).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(~np.isnan(self._a)))

    def __repr__(self) -> str:
        return repr(dict(self))

    def dense(self, n: int) -> np.ndarray:
        """A writable (n+1) x (n+1) copy: nan where a state is absent and where m + k > n."""
        out = np.full((n + 1, n + 1), math.nan)
        out[: len(self._a), : len(self._a)] = self._a[: n + 1, : n + 1]
        return _mask_off_game(out, 0)


def _mask_off_game(a: np.ndarray, first_row: int) -> np.ndarray:
    """``a``, an (n+1) x (n+1) array, with nan written where m < first_row or m + k > n."""
    a[:first_row] = math.nan
    a[np.fliplr(np.tri(len(a), k=-1, dtype=bool))] = math.nan  # m + k > n
    return a


def _first_state(mask: np.ndarray) -> Optional[QueueState]:
    """The first state, in row-major [m, k] order, at which a dense mask holds; None if none."""
    j = int(np.argmax(mask))
    return QueueState(*divmod(j, mask.shape[1])) if mask.flat[j] else None


@dataclass(frozen=True)
class CostTable:
    """Expected costs per state, either per outside player or total social."""

    role: CostRole
    values: Mapping[QueueState, float]

    def __post_init__(self):
        object.__setattr__(self, "values", _StateTable(self.values))
        state = _first_state(self.values._a < 0.0)
        if state is not None:
            raise InvalidParameterError(f"negative cost {self.values[state]} at {state}")
        state = _first_state(~np.isnan(self.values._a[:1]))
        if self.role is CostRole.PER_OUTSIDE_PLAYER and state is not None:
            raise InvalidParameterError(f"per-player cost defined only for m >= 1, got {state}")

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
        object.__setattr__(self, "entries", _StateTable(self.entries))
        q = self.entries._a
        state = _first_state((q < 0.0) | (q > 1.0))
        if state is not None:
            raise InvalidParameterError(f"probability {self.entries[state]} at {state} not in [0,1]")
        state = _first_state((np.arange(len(q))[:, None] == 1) & (q < 1.0))
        if state is not None:
            raise InvalidParameterError(
                f"profiles store q=1 at m=1 states by convention, got {self.entries[state]} at {state}"
            )

    def q(self, state: QueueState) -> float:
        """Stored entry probability (1 at m = 1, stored or not)."""
        return 1.0 if state.m == 1 else self.entries[state]

    def min_empty_queue_prob(self, n: int) -> float:
        """Smallest q at states (m, 0) with 2 <= m <= n."""
        return float(np.min(_dense_q(self, n)[2:, 0], initial=1.0))

    @classmethod
    def from_empty_queue_probs(cls, p: Iterable[float], n: int) -> "EntryProfile":
        """Profile entering only at empty queues: q(m,0) = p[m], zero otherwise.

        ``p`` is indexed so that p[m] is the probability with m agents left;
        p[0] is ignored and p[1] is forced to 1.
        """
        p = list(p)
        if n < 1 or len(p) < n + 1:
            raise InvalidParameterError(f"need n >= 1 and p[0..{n}], got n={n}, length {len(p)}")
        q = np.zeros((n + 1, n + 1))
        q[2:, 0] = p[2 : n + 1]
        q[1] = 1.0
        if np.isnan(q).any():
            raise InvalidParameterError(f"probability nan at {_first_state(np.isnan(q))} not in [0,1]")
        return cls(_mask_off_game(q, 1))

    @classmethod
    def all_enter(cls, n: int) -> "EntryProfile":
        if n < 1:
            raise InvalidParameterError(f"n must be >= 1, got {n}")
        return cls(_mask_off_game(np.ones((n + 1, n + 1)), 1))


def enumerate_states(n: int) -> List[QueueState]:
    """All states with m >= 1 and m + k <= n, by ascending (m+k, m).

    Every continuation state of (m, k) has total m+k-1 and therefore
    precedes it.  The cost recursions visit states in other orders (see the
    module docstring) and report their tables in this order.  Each call
    returns a fresh list; the states in it are shared between calls.
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    return list(_states(n)[0])


_state_cache = ((), np.zeros(0, np.intp), np.zeros(0, np.intp))


def _states(n: int) -> Tuple[Tuple[QueueState, ...], np.ndarray, np.ndarray]:
    """``enumerate_states(n)`` as a tuple, and its m and k as read-only arrays.

    A report asks for the states several times, and a sweep alternates game
    sizes.  The order is prefix-stable: the states of G(n) are the first
    n(n+1)/2 of any larger game's.  So one cache, at the largest n asked
    for, serves every n.
    """
    global _state_cache
    size = n * (n + 1) // 2
    if len(_state_cache[0]) < size:
        t = np.repeat(np.arange(1, n + 1), np.arange(1, n + 1))
        m = np.arange(size) - t * (t - 1) // 2 + 1
        k = t - m
        for a in (m, k):
            a.flags.writeable = False
        _state_cache = tuple(map(QueueState, m.tolist(), k.tolist())), m, k
    states, m, k = _state_cache
    return states[:size], m[:size], k[:size]


# ---------------------------------------------------------------------------
# Binomial arithmetic


_logfact_cache = np.zeros(1)


def _logfact(n: int) -> np.ndarray:
    """log(k!) for k = 0..n, each entry from lgamma (no cumulative drift)."""
    global _logfact_cache
    if len(_logfact_cache) <= n:
        _logfact_cache = np.array([math.lgamma(k + 1) for k in range(n + 1)])
        _logfact_cache.flags.writeable = False
    return _logfact_cache


def binom_pmf(m: int, i: int, q: float) -> float:
    """C(m,i) * q^i * (1-q)^(m-i), finite and non-negative for extreme inputs.

    The i = 0 term is the exact power (1-q)^m; every other term is read
    from the scalar pmf row of ``_Pmf``, the solvers' binomial.
    """
    if m < 0 or i < 0 or i > m:
        raise InvalidParameterError(f"need 0 <= i <= m, got m={m}, i={i}")
    if math.isnan(q) or not 0.0 <= q <= 1.0:
        raise InvalidParameterError(f"q must be in [0,1], got {q}")
    if i == 0:
        return (1.0 - q) ** m
    return float(_Pmf(m)(q)[i])


class _Pmf:
    """Binomial(m, q) pmf over i = 0..m in log space: the package's only pmf code.

    ``log_into`` computes log C(m, i) + i*log q + (m-i)*log(1-q) from the
    read-only float constants ``_logc``, ``_i`` and ``_rest``.  A row
    (``__call__``) takes its logs from ``math.log``/``math.log1p`` and a
    matrix (``rows``) from ``np.log``/``np.log1p``.  The two families
    disagree in the last bit on some inputs, so a row and the matching
    matrix row need not be equal, and each caller keeps to one of them.
    A matrix is ``log_columns``, ``log_into``, ``_exp_into`` and
    ``set_edge_rows``; the blocked stage grid of ``optsolver`` takes the
    same steps one row block at a time.  ``padded`` holds the constants of
    several degrees, one row each.
    """

    def __init__(self, m: int):
        self.m = m
        lf = _logfact(m)
        self._i = np.arange(m + 1.0)
        self._rest = m - self._i
        self._logc = lf[m] - lf[: m + 1] - lf[m::-1]
        for a in (self._i, self._rest, self._logc):
            a.flags.writeable = False
        self._row = np.empty(m + 1)
        self._tmp = np.empty(m + 1)

    @classmethod
    def padded(cls, degrees: np.ndarray) -> "_Pmf":
        """The constants of one row per degree of ``degrees``, zero-padded to the largest.

        Only ``log_into`` applies, with columns of logs: row j of its output
        is, entry for entry, the log-pmf of degree ``degrees[j]``, followed
        by 0s.  ``m`` is the array of degrees.
        """
        self = cls.__new__(cls)
        self.m = degrees
        top = int(degrees.max())
        lf = _logfact(top)[: top + 1]
        i = np.arange(top + 1.0)
        d = degrees[:, None]
        inside = i <= d
        self._i, self._rest = np.where(inside, i, 0.0), np.where(inside, d - i, 0.0)
        self._logc = np.where(inside, lf[d] - lf - lf[self._rest.astype(np.intp)], 0.0)
        return self

    def log_into(self, lq, l1q, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """The log-pmf into ``out``, using ``tmp``.

        ``lq`` and ``l1q`` are log q and log(1-q): floats for one row, or
        columns of them for a matrix with one row per q.
        """
        # outputs passed positionally: out= keyword parsing costs more than the
        # arithmetic on a short row
        np.multiply(self._i, lq, out)
        np.add(self._logc, out, out)
        np.multiply(self._rest, l1q, tmp)
        return np.add(out, tmp, out)

    def __call__(self, q: float) -> np.ndarray:
        """The pmf row at q, in a buffer that the next call overwrites."""
        row = self._row
        if q <= 0.0 or q >= 1.0:
            row.fill(0.0)
            row[self.m if q >= 1.0 else 0] = 1.0
            return row
        return np.exp(self.log_into(math.log(q), math.log1p(-q), row, self._tmp), row)

    @staticmethod
    def log_columns(qs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """log q and log(1-q) columns for ``log_into``, at 0.5 where q is not in (0, 1)."""
        safe = np.where((qs > 0.0) & (qs < 1.0), qs, 0.5)
        return np.log(safe)[:, None], np.log1p(-safe)[:, None]

    def set_edge_rows(self, out: np.ndarray, qs: np.ndarray) -> np.ndarray:
        """Overwrite the rows of ``out`` at q <= 0 and q >= 1 with their one-hot rows."""
        for edge, i in ((qs <= 0.0, 0), (qs >= 1.0, self.m)):
            if edge.any():
                out[edge] = 0.0
                out[edge, i] = 1.0
        return out

    def rows(self, qs) -> np.ndarray:
        """A fresh matrix of pmf rows, one per q of ``qs``; shape (len(qs), m+1)."""
        qs = np.asarray(qs, dtype=float)
        logv, out = np.empty((len(qs), self.m + 1)), np.empty((len(qs), self.m + 1))
        out = _exp_into(self.log_into(*self.log_columns(qs), logv, out), out)
        return self.set_edge_rows(out, qs)


# np.exp(x) is 0 below about -745.13 (e^x < 2^-1075 rounds to 0), and numpy
# takes a slow path for such x; far tails of pmf rows hold many of them
_EXP_FLOOR = -746.0


def _exp_into(logv: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = np.exp(logv), writing the 0s below _EXP_FLOOR without np.exp once they are many.

    Measured on AVX-512 numpy 2.4: np.exp takes about 15 ns on an entry
    that underflows and 1 ns on others, and a masked np.exp about 2 ns per
    entry, so the mask pays once about an eighth of the entries underflow.
    ``out`` must not share memory with ``logv``: the masked path zeroes
    ``out`` before it reads ``logv``.
    """
    keep = logv > _EXP_FLOOR
    if 8 * np.count_nonzero(keep) > 7 * keep.size:
        return np.exp(logv, out)
    out.fill(0.0)
    return np.exp(logv, out, where=keep)


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


def _successors(values: np.ndarray, m: int, ks: np.ndarray) -> np.ndarray:
    """The (len(ks), m-1) block of ``values`` at (m - i, k - 1 + i), i = 1..m-1, per k of ``ks``.

    This is the game's one transition: i agents enter and the head of the
    queue is served.  ``values`` is a dense array indexed [m, k].
    """
    i = np.arange(1, m)
    return values[m - i, ks[:, None] - 1 + i]


def _successor_values(values, m: int, k: int) -> np.ndarray:
    """Values where (m, k) moves when i of the m - 1 peers enter, i = 0..m-1.

    Slot 0 is (m, k-1) and slots i >= 1 are ``_successors``.  ``values`` is
    a dense array indexed [m, k] or a Mapping keyed by QueueState; a lacking
    successor is an error.  At k = 0 slot 0 is the self-loop (nobody
    enters, so the game stays at (m, 0)); it reads 0 and callers divide the
    loop out geometrically.
    """
    if not isinstance(values, np.ndarray):
        values = _StateTable(values).dense(m + k)

    def gather(a: np.ndarray) -> np.ndarray:
        return np.concatenate(([a[m, k - 1] if k else 0], _successors(a, m, np.array([k]))[0]))

    out = gather(values)
    lacking = np.isnan(out)
    if lacking.any():
        # the same gather over the cell numbers names the first lacking state
        cell = int(gather(np.arange(values.size).reshape(values.shape))[np.argmax(lacking)])
        state = QueueState(*divmod(cell, len(values)))
        raise InvalidParameterError(f"continuation has no value at {state}")
    return out


def _wait_cost(m: int, k: int, q, rows: np.ndarray, cont: np.ndarray):
    """Expected cost of waiting one step at (m, k) with peers entering w.p. q.

    q is a scalar or an ndarray, and ``rows`` its pmf(m-1, ., q) rows.  For
    k >= 1 this is 1 + sum_i pmf(m-1, i, q) * c(m-i, k+i-1).  For k == 0
    the no-entry self-loop is resolved geometrically: the self-loop slot of
    ``cont`` (from ``_successor_values``) is left out of the sum and the
    result is divided by 1 - (1-q)^(m-1).
    """
    if k >= 1:
        return 1.0 + rows @ cont
    return (1.0 + rows[..., 1:] @ cont[1:]) / one_minus_pow(q, m - 1)


def _dense_q(profile: EntryProfile, n: int) -> np.ndarray:
    """The profile's entry probabilities on the states of G(n; w), indexed [m, k].

    Row 1 defaults to 1, as ``EntryProfile.q`` does; cells with m + k > n
    hold nan.  A state with m >= 2 and m + k <= n that the profile lacks is
    an error, never a default.
    """
    q = profile.entries.dense(n)
    q[1, np.isnan(q[1])] = 1.0
    m, k = np.arange(n + 1)[:, None], np.arange(n + 1)
    state = _first_state(np.isnan(q) & (m >= 2) & (m + k <= n))
    if state is not None:
        raise InvalidParameterError(f"profile has no entry probability at {state}")
    return q


def _decision_states(n: int) -> Tuple[List[QueueState], np.ndarray, np.ndarray]:
    """The states of ``enumerate_states(n)`` with m >= 2, in its order, and their m and k."""
    states, m, k = _states(n)
    keep = m >= 2
    return list(itertools.compress(states, keep.tolist())), m[keep], k[keep]


def _profile_costs(q: np.ndarray, w: float) -> Tuple[np.ndarray, np.ndarray]:
    """Dense [m, k] arrays of the per-player cost v and the waiting cost of a profile.

    ``q`` is the profile's dense entry-probability array (``_dense_q``) of
    G(n; w), n = len(q) - 1.  v(m, k) = q*c1 + (1-q)*c0 with the agent
    mixing like everyone else; at an empty queue the all-wait self-loop is
    divided out.  Row 1 is the lone-agent rule, v(1, k) = k.  A
    never-entering empty queue costs +inf, and so does every state that
    reaches one with positive weight.  See the module docstring for the row
    pass.
    """
    n = len(q) - 1
    ks = np.arange(n + 1)
    enter = (ks[:, None] - 1) / 2.0 * q * w + ks * w  # cost_enter; nan off the game
    mix = np.multiply(q, enter, np.zeros_like(q), where=q > 0.0)  # q*c1
    v = np.zeros((n + 1, n + 1))
    v[1] = np.arange(n + 1)
    wait = np.zeros((n + 1, n + 1))
    for m in range(2, n + 1):
        size = n - m + 1
        qs = q[m, :size]
        # the waiting cost of (m, k) is base + slope * v(m, k-1): slot 0 of
        # the transition has weight pmf(m-1, 0, q), and the i >= 1 slots
        # (m-i, k-1+i) lie in rows already priced.  At q = 0 everybody
        # waits and the head of the queue is served: 1 + v(m, k-1).
        base, slope = np.ones(size), np.ones(size)
        pos = np.flatnonzero(qs > 0.0)
        if len(pos):
            rows = _Pmf(m - 1).rows(qs[pos])
            weights = rows[:, 1:]
            # zero weights are skipped: 0 * inf at never-ending successors
            terms = np.multiply(
                weights, _successors(v, m, pos), np.zeros_like(weights), where=weights > 0.0
            )
            base[pos] += terms.sum(axis=1)
            slope[pos] = rows[:, 0]
        mixes, stays, bases, slopes = (
            a.tolist() for a in (mix[m, :size], 1.0 - qs, base, slope)
        )
        # k = 0: slot 0 is the self-loop, divided out; q = 0 never moves
        q0 = float(qs[0])
        if q0 > 0.0:
            v_row = [(mixes[0] + stays[0] * bases[0]) / one_minus_pow(q0, m)]
            w_row = [bases[0] / one_minus_pow(q0, m - 1)]
        else:
            v_row, w_row = [math.inf], [math.inf]
        # k >= 1: v = q*c1 + (1-q)*wait, one scalar affine step per state
        # carrying v(m, k-1)
        prev = v_row[0]
        for a, b, c, s in zip(mixes[1:], stays[1:], bases[1:], slopes[1:]):
            c = c + s * prev if s > 0.0 else c
            w_row.append(c)
            prev = a + b * c
            v_row.append(prev)
        v[m, :size] = v_row
        wait[m, :size] = w_row
    return v, wait


def total_cost_evaluate(
    profile: EntryProfile, params: GameParams
) -> Tuple[CostTable, float]:
    """Expected total social cost T(m, k) of every state under a profile.

    T(m, k) = m*v(m, k) + w*k*(k-1)/2 exactly, with v from the one pass that
    prices a profile, ``_profile_costs`` (see the module docstring).  States
    that never leave an empty queue, or reach one with positive weight, get
    T = +inf; if (n, 0) is among them the profile is rejected as
    non-terminating.  Returns the table and T(n, 0).
    """
    n, w = params.n, params.w
    v, _ = _profile_costs(_dense_q(profile, n), w)
    ks = np.arange(n + 1)
    t = ks[:, None] * v + w * ks * (ks - 1) / 2.0
    total = float(t[n, 0])
    if not math.isfinite(total):
        raise NonTerminatingProfileError(
            "profile never enters at a reachable empty-queue state"
        )
    return CostTable(CostRole.TOTAL_SOCIAL, _mask_off_game(t, 0)), total
