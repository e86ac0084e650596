"""Symmetric-equilibrium solver: backward induction with per-state root finding.

Each state (m, k) with m >= 2 is solved against the already-computed
continuation costs.  The per-state case analysis mirrors the existence
argument for symmetric equilibria in anonymous stationary strategies:

(a) the enter-wait gap is <= 0 on the whole scan grid including q = 1
    -> everyone enters (only happens at w <= 2 for empty queues);
(b) k >= 1 and the gap is >= 0 on the whole grid -> nobody enters,
    cost is the pure waiting cost;
(c) otherwise the gap changes sign; every sign change is refined by
    bisection and the root is selected by policy.

Case (b) is usually settled without a scan by the no-entry certificate:
at k >= 1 entering costs at least k*w and waiting at most 1 + max(cont),
so k*w > 1 + max(cont) makes the gap positive for every q.

For k = 0 the waiting cost diverges as q -> 0+, so a negative-gap lower
scan endpoint always exists and is found by halving from 1/(m-1).

Backward induction visits states m-major (m ascending, then k ascending):
(m, k) needs only (m, k-1) and states with fewer agents outside.  So each
m-row gathers the successors (m-i, k-1+i), i >= 1, of all its states at
once, with their row maxima, and a scalar loop over k carries cost(m, k-1).
It settles a certified state with the per-state test
(``_certifies_no_entry``), max(cont) being max(cost(m, k-1), row maximum),
and only a state that fails it gets a continuation vector and a scan.  All
k >= 1 states share one scan grid, built once per solve, and its binomial
matrix (``model._Pmf.rows``) is built once per m.  Solved costs live in a
dense (n+1) x (n+1) array.  A scalar probe (the k = 0 endpoint search and
every bisection step) takes its pmf row from a per-m ``model._Pmf`` and
computes the wait and enter costs inline, returning the gap and the enter
cost from one evaluation.

Prefix property, which ``bneck sweep`` relies on and the solver must keep:
a state with m + k <= n solves the same, bit for bit, in every G(N; w) with
N >= n.  So no scan grid, tolerance or case test may depend on n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Mapping, Tuple

import numpy as np

from .model import (
    CostRole,
    CostTable,
    DivergentCostError,
    EntryProfile,
    GameParams,
    InvalidParameterError,
    QueueState,
    _check_solver_settings,
    _decision_states,
    _dense_q,
    _mask_off_game,
    _Pmf,
    _profile_costs,
    _states,
    _successor_values,
    _successors,
    _wait_cost,
)

__all__ = [
    "RootPolicy",
    "StateDiagnostics",
    "EquilibriumSolution",
    "InternalInconsistencyError",
    "solve_state",
    "solve_equilibrium",
    "profile_cost_table",
    "verify_profile",
    "verify_equilibrium",
    "VerificationReport",
    "eq_closed_form_2p",
]

DEFAULT_GRID_POINTS = 512
DEFAULT_TOL = 1e-12
_MAX_BISECT = 200
_MIN_BRACKET = 1e-300
_SCAN_LO = 1e-12  # lower scan endpoint above q = 0 at k >= 1
# relative slack of the no-entry certificate; it exceeds the rounding of the
# scan's binomial rows, so a certified state also has a positive gap at every
# scan point and the certificate returns exactly what the scan would
_CERT_MARGIN = 1e-9


class InternalInconsistencyError(RuntimeError):
    """The per-state case analysis found no equilibrium (should not happen)."""


class RootPolicy(Enum):
    SMALLEST_Q = "smallest_q"
    LARGEST_Q = "largest_q"


@dataclass(frozen=True)
class StateDiagnostics:
    root_count: int
    residual: float


@dataclass(frozen=True)
class EquilibriumSolution:
    params: GameParams
    profile: EntryProfile
    per_player: CostTable
    policy: RootPolicy
    diagnostics: Mapping[QueueState, StateDiagnostics]

    @property
    def per_player_cost(self) -> float:
        return self.per_player[QueueState(self.params.n, 0)]

    @property
    def total_cost(self) -> float:
        return self.params.n * self.per_player_cost  # 0 at n = 1: c(1, 0) = 0


class _BinomRows:
    """Binomial(m-1, q) pmf rows for every state with m agents outside."""

    def __init__(self, m: int, grid_points: int, upper_grid: np.ndarray):
        self.m = m
        self.grid_points = grid_points
        self.pmf = _Pmf(m - 1)
        self._upper_grid = upper_grid
        self._scan = None

    def scan(self) -> Tuple[np.ndarray, np.ndarray]:
        """The k >= 1 scan grid and its pmf matrix, built on first use."""
        if self._scan is None:
            self._scan = self._upper_grid, self.pmf.rows(self._upper_grid)
        return self._scan


class _GapEvaluator:
    """Vectorized enter-wait gap for one state against fixed continuations."""

    def __init__(self, rows: _BinomRows, k: int, w: float, cont: np.ndarray):
        # cont[i] = continuation cost at (m-i, k+i-1); cont[0] unused for k=0
        self.m, self.k, self.w = rows.m, k, w
        self.cont = cont
        self._half = (rows.m - 1) / 2.0
        self._kw = k * w
        self._tail = cont[1:]
        self._pmf = rows.pmf

    def enter(self, qs: np.ndarray) -> np.ndarray:
        return self._half * qs * self.w + self._kw

    def gap(self, qs: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Gap at every q of ``qs``, given their pmf(m-1, ., q) rows B."""
        return self.enter(qs) - _wait_cost(self.m, self.k, qs, B, self.cont)

    def probe(self, q: float) -> Tuple[float, float]:
        """(gap, enter cost) at one q, from one pmf row.

        ``enter``, ``_wait_cost`` and ``one_minus_pow`` written out for a
        scalar q: the same operations in the same order, so bit-identical to
        them.  The row is the ``_Pmf``'s scalar row, in its buffer.
        """
        enter = self._half * q * self.w + self._kw
        row = self._pmf(q)
        if self.k >= 1:
            return float(enter - (1.0 + row.dot(self.cont))), enter
        stay = 1.0 + row[1:].dot(self._tail)
        leave = 1.0 if q >= 1.0 else -math.expm1((self.m - 1) * math.log1p(-q))
        return float(enter - stay / leave), enter


def _certifies_no_entry(k: int, w: float, cont_max: float) -> bool:
    """True when nobody enters at (m, k) for any peer entry probability.

    At k >= 1 entering costs at least k*w and waiting at most 1 + cont_max,
    cont_max being the largest continuation cost.
    """
    return k >= 1 and k * w > (1.0 + cont_max) * (1.0 + _CERT_MARGIN)


def _bisect(ev: _GapEvaluator, a: float, b: float, fa: float, fb: float, tol: float):
    """Shrink [a, b] with sign(fa) != sign(fb) until |gap| <= tol*max(1, c1)."""
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm, enter = ev.probe(mid)
        if abs(fm) <= tol * max(1.0, abs(enter)):
            return mid, fm
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    mid = 0.5 * (a + b)
    return mid, ev.probe(mid)[0]


def _scan_grid(k: int, lo: float, points: int) -> np.ndarray:
    half = max(points // 2, 2)
    left = np.geomspace(max(lo, _MIN_BRACKET), 1.0, half)
    right = np.linspace(lo if k >= 1 else max(lo, _MIN_BRACKET), 1.0, points - half)
    grid = np.unique(np.concatenate([left, right]))
    if k >= 1 and grid[0] > 0.0:
        grid = np.concatenate([[0.0], grid])
    return grid


def _scan_state(
    rows: _BinomRows,
    k: int,
    w: float,
    cont: np.ndarray,
    policy: RootPolicy,
    tol: float,
) -> Tuple[float, float, int, float]:
    """(q, cost, root count, residual) of a state the certificate leaves open.

    Cases (a) to (c) of the module docstring, by scan and bisection.
    """
    m = rows.m
    ev = _GapEvaluator(rows, k, w, cont)
    if k == 0:
        # push the lower endpoint down until waiting dominates entering
        lo = min(1.0, 1.0 / (m - 1))
        flo = ev.probe(lo)[0]
        while flo >= 0.0 and lo > _MIN_BRACKET:
            lo *= 0.5
            flo = ev.probe(lo)[0]
        grid = _scan_grid(k, lo, rows.grid_points)
        gaps = ev.gap(grid, rows.pmf.rows(grid))
    else:
        grid, B = rows.scan()
        gaps = ev.gap(grid, B)

    roots: List[Tuple[float, float]] = []
    for j in np.nonzero(gaps == 0.0)[0]:
        roots.append((float(grid[j]), 0.0))
    with np.errstate(over="ignore"):  # huge gaps near q=0 may overflow the product
        changes = np.nonzero(gaps[:-1] * gaps[1:] < 0.0)[0]
    for j in changes:
        q, res = _bisect(
            ev, float(grid[j]), float(grid[j + 1]), float(gaps[j]), float(gaps[j + 1]), tol
        )
        roots.append((q, res))
    roots.sort()

    if not roots:
        if gaps.max() <= 0.0:
            # entering at least as good everywhere, q = 1 (w <= 2 at k = 0)
            return 1.0, float(ev.enter(1.0)), 0, float(gaps[-1])
        if k >= 1 and gaps.min() >= 0.0:
            return 0.0, 1.0 + float(cont[0]), 0, 0.0
        raise InternalInconsistencyError(
            f"no equilibrium case applies at state ({m},{k}) with w={w}"
        )
    q, res = roots[0] if policy is RootPolicy.SMALLEST_Q else roots[-1]
    return q, float(ev.enter(q)), len(roots), res


def solve_state(
    state: QueueState,
    w: float,
    continuation: Mapping[QueueState, float],
    policy: RootPolicy = RootPolicy.SMALLEST_Q,
    grid_points: int = DEFAULT_GRID_POINTS,
    tol: float = DEFAULT_TOL,
) -> Tuple[float, float, int]:
    """Equilibrium entry probability, per-player cost and root count at one state.

    ``continuation`` must contain every state of total m+k-1 with first
    coordinate >= 1.  States with m = 1 are not solved here (q=1, c=k).
    """
    m, k = state.m, state.k
    if m < 2:
        raise InvalidParameterError(f"solve_state needs m >= 2, got {state}")
    _check_solver_settings(grid_points, tol)
    cont = _successor_values(continuation, m, k)
    if _certifies_no_entry(k, w, float(cont.max())):
        return 0.0, 1.0 + float(cont[0]), 0
    rows = _BinomRows(m, grid_points, _scan_grid(1, _SCAN_LO, grid_points))
    q, c, count, _ = _scan_state(rows, k, w, cont, policy, tol)
    return q, c, count


def solve_equilibrium(
    params: GameParams,
    policy: RootPolicy = RootPolicy.SMALLEST_Q,
    grid_points: int = DEFAULT_GRID_POINTS,
    tol: float = DEFAULT_TOL,
) -> EquilibriumSolution:
    """Backward induction over all states of G(n; w).

    Deterministic for fixed inputs.  c(1, k) = k and q = 1 at m = 1; every
    other state is solved by the sign-scan/bisection case analysis against
    the already-solved continuation states.
    """
    _check_solver_settings(grid_points, tol)
    n, w = params.n, params.w
    # q, cost, root count and residual per state, indexed [m, k]; cost feeds
    # the continuation gather.  Row m = 1 is the lone-agent rule.
    q, cost = np.ones((n + 1, n + 1)), np.zeros((n + 1, n + 1))
    cost[1] = np.arange(n + 1)
    roots, residual = np.zeros((n + 1, n + 1), dtype=int), np.zeros((n + 1, n + 1))
    upper_grid = _scan_grid(1, _SCAN_LO, grid_points)  # k >= 1 grid, same for every m
    for m in range(2, n + 1):
        rows = _BinomRows(m, grid_points, upper_grid)
        ks = np.arange(n - m + 1)
        # conts[k] is the continuation of (m, k), gathered for the whole row
        # at once: slots i >= 1 hold the successors, in rows already solved;
        # slot 0 holds (m, k-1) and is filled just before (m, k) is scanned
        conts = np.empty((len(ks), m))
        conts[:, 1:] = _successors(cost, m, ks)
        tail_max = conts[:, 1:].max(axis=1).tolist()
        prev = 0.0  # cost(m, k-1); slot 0 is the divided-out self-loop at k = 0
        results = []
        for k in ks.tolist():
            if _certifies_no_entry(k, w, max(prev, tail_max[k])):
                result = (0.0, 1.0 + prev, 0, 0.0)
            else:
                cont = conts[k]
                cont[0] = prev
                result = _scan_state(rows, k, w, cont, policy, tol)
            prev = result[1]
            results.append(result)
        row = np.s_[m, : len(ks)]
        q[row], cost[row], roots[row], residual[row] = zip(*results)
    states, ms, ks = _states(n)
    diagnostics = map(StateDiagnostics, roots[ms, ks].tolist(), residual[ms, ks].tolist())
    return EquilibriumSolution(
        params=params,
        profile=EntryProfile(_mask_off_game(q, 1)),
        per_player=CostTable(CostRole.PER_OUTSIDE_PLAYER, _mask_off_game(cost, 1)),
        policy=policy,
        diagnostics=dict(zip(states, diagnostics)),
    )


def eq_closed_form_2p(w: float) -> Tuple[float, float]:
    """Two-player equilibrium closed form: q = sqrt(2/w), total = sqrt(2w).

    Valid for w > 2; below that the equilibrium is all-enter.
    """
    if not w > 2.0:
        raise InvalidParameterError(f"closed form requires w > 2, got {w}")
    return math.sqrt(2.0 / w), math.sqrt(2.0 * w)


# ---------------------------------------------------------------------------
# Verification


# slots: a report holds one record per state, n(n-1)/2 of them
@dataclass(frozen=True, slots=True)
class StateCheck:
    state: QueueState
    q: float
    cost: float
    enter_cost: float
    wait_cost: float
    residual: float
    passed: bool
    reason: str = ""


@dataclass(frozen=True)
class VerificationReport:
    params: GameParams
    checks: Tuple[StateCheck, ...]
    passed: bool
    worst_residual: float

    @property
    def failing_states(self) -> List[QueueState]:
        return [c.state for c in self.checks if not c.passed]


def _finite_profile_costs(
    profile: EntryProfile, params: GameParams
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense q, v and wait of a profile (``_profile_costs``); refuses one
    that never enters at an empty queue."""
    q = _dense_q(profile, params.n)
    if np.min(q[2:, 0], initial=1.0) <= 0.0:
        raise DivergentCostError(
            "profile cost diverges: nobody ever enters at some empty queue"
        )
    return (q, *_profile_costs(q, params.w))


def profile_cost_table(profile: EntryProfile, params: GameParams) -> CostTable:
    """Per-outside-player expected cost of playing an arbitrary profile.

    v(m,k) = q*c1 + (1-q)*c0 with the agent mixing like everyone else; at an
    empty queue the all-wait self-loop is solved linearly, which requires
    q(m,0) > 0 at every m >= 2 (DivergentCostError otherwise).
    """
    v = _finite_profile_costs(profile, params)[1]
    return CostTable(CostRole.PER_OUTSIDE_PLAYER, _mask_off_game(v, 1))


def verify_profile(
    profile: EntryProfile, params: GameParams, tol: float = 1e-9
) -> VerificationReport:
    """Check the equilibrium conditions of a profile state by state.

    At each state with m >= 2: interior q must make entering and waiting
    indifferent, q = 0 requires waiting to be weakly better, q = 1 requires
    entering to be weakly better, and no single deviation may beat the cost
    the profile itself delivers.
    """
    states, ms, ks = _decision_states(params.n)
    fields, ok, reasons = _check_states(profile, params, ms, ks, tol)
    checks = tuple(map(StateCheck, states, *fields.tolist(), ok.tolist(), reasons))
    return VerificationReport(
        params=params,
        checks=checks,
        passed=bool(ok.all()),
        worst_residual=float(np.fmax.reduce(fields[-1], initial=0.0)),
    )


def _check_states(
    profile: EntryProfile, params: GameParams, ms: np.ndarray, ks: np.ndarray, tol: float
) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """``verify_profile``'s tests on the states (ms, ks), as arrays.

    Returns the rows q, cost, enter cost, wait cost and residual of one
    array, the verdicts and the reasons.  The comparisons are those of
    scalar code: ``max`` and ``min`` are ``where`` on ``>`` and ``<``, so a
    nan never wins one.
    """
    w = params.w
    q, v, wait = _finite_profile_costs(profile, params)
    q, cost, c0 = q[ms, ks], v[ms, ks], wait[ms, ks]
    c1 = (ms - 1) / 2.0 * q * w + ks * w  # cost_enter
    slack = tol * np.where(np.abs(cost) > 1.0, np.abs(cost), 1.0)
    interior, idle = (q > 0.0) & (q < 1.0), q == 0.0
    gain = np.where(idle, c0 - c1, c1 - c0)  # what the pure action gives up
    resid = np.where(interior, np.abs(c1 - c0), np.where(gain > 0.0, gain, 0.0))
    bad = np.where(interior, resid > slack, np.where(idle, c0 > c1 + slack, c1 > c0 + slack))
    deviation_gain = cost - np.where(c0 < c1, c0, c1)
    deviates = deviation_gain > slack
    resid = np.where(deviation_gain > resid, deviation_gain, resid)
    reasons = [""] * len(q)
    for j in np.flatnonzero(bad | deviates).tolist():
        r = []
        if bad[j]:
            if interior[j]:
                r.append(f"not indifferent at interior q={float(q[j]):.6g}")
            elif idle[j]:
                r.append("waiting is not a best response at q=0")
            else:
                r.append("entering is not a best response at q=1")
        if deviates[j]:
            r.append(f"profitable deviation worth {float(deviation_gain[j]):.3g}")
        reasons[j] = "; ".join(r)
    return np.stack([q, cost, c1, c0, resid]), ~(bad | deviates), reasons


def verify_equilibrium(
    solution: EquilibriumSolution, tol: float = 1e-9
) -> VerificationReport:
    """Re-verify a solver output from scratch (profile-induced cost table)."""
    report = verify_profile(solution.profile, solution.params, tol)
    n, w = solution.params.n, solution.params.w
    extra: List[StateCheck] = []
    if w > 2.0:
        states, ms, ks = _states(n)
        floor = ms + ks - 1
        cost = solution.per_player.values.dense(n)[ms, ks]
        for j in np.flatnonzero(cost < floor - tol * np.maximum(1.0, floor)).tolist():
            state, c = states[j], float(cost[j])
            extra.append(
                StateCheck(
                    state=state,
                    q=solution.profile.q(state),
                    cost=c,
                    enter_cost=math.nan,
                    wait_cost=math.nan,
                    residual=state.total - 1 - c,
                    passed=False,
                    reason=f"per-player cost below floor {state.total - 1}",
                )
            )
    if not extra:
        return report
    return VerificationReport(
        params=report.params,
        checks=report.checks + tuple(extra),
        passed=report.passed and not extra,
        worst_residual=max(report.worst_residual, max(e.residual for e in extra)),
    )
