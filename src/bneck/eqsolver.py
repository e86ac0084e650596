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
(m, k) needs only (m, k-1) and states with fewer agents outside.  All
k >= 1 states of one m share one scan grid, so its binomial matrix is built
once per m.  Solved costs live in a dense (n+1) x (n+1) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Mapping, Tuple

import numpy as np

from .model import (
    CostRole,
    CostTable,
    DivergentCostError,
    EntryProfile,
    GameParams,
    InvalidParameterError,
    QueueState,
    _binom_consts,
    _binom_matrix,
    _binom_row,
    cost_enter,
    cost_wait,
    enumerate_states,
    one_minus_pow,
)

__all__ = [
    "RootPolicy",
    "StateDiagnostics",
    "EquilibriumSolution",
    "InternalInconsistencyError",
    "indifference_gap",
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
    total_cost: float
    policy: RootPolicy
    diagnostics: Mapping[QueueState, StateDiagnostics]

    @property
    def per_player_cost(self) -> float:
        return self.per_player[QueueState(self.params.n, 0)]


def indifference_gap(
    state: QueueState, q: float, w: float, continuation: Mapping[QueueState, float]
) -> float:
    """cost_enter - cost_wait at q; negative means entering is strictly better."""
    return cost_enter(state, q, w) - cost_wait(state, q, w, continuation)


class _BinomRows:
    """Binomial(m-1, q) pmf rows for every state with m agents outside."""

    def __init__(self, m: int, grid_points: int):
        self.m = m
        self.grid_points = grid_points
        self._consts = _binom_consts(m - 1)
        self._scan = None

    def row(self, q: float) -> np.ndarray:
        return _binom_row(self.m - 1, q, self._consts)

    def scan(self) -> Tuple[np.ndarray, np.ndarray]:
        """The k >= 1 scan grid and its pmf matrix, built on first use."""
        if self._scan is None:
            grid = _scan_grid(self.m, 1, _SCAN_LO, self.grid_points)
            self._scan = grid, _binom_matrix(self.m - 1, grid)
        return self._scan


class _GapEvaluator:
    """Vectorized enter-wait gap for one state against fixed continuations."""

    def __init__(self, rows: _BinomRows, k: int, w: float, cont: np.ndarray):
        # cont[i] = continuation cost at (m-i, k+i-1); cont[0] unused for k=0
        self.rows = rows
        self.m, self.k, self.w = rows.m, k, w
        self.cont = cont

    def enter(self, qs: np.ndarray) -> np.ndarray:
        return (self.m - 1) / 2.0 * qs * self.w + self.k * self.w

    def gap(self, qs: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Gap at every q of ``qs``, given B = _binom_matrix(m-1, qs)."""
        m, k = self.m, self.k
        if k >= 1:
            wait = 1.0 + B @ self.cont
        else:
            num = 1.0 + B[:, 1:] @ self.cont[1:]
            wait = num / one_minus_pow(qs, m - 1)
        return self.enter(qs) - wait

    def gap_scalar(self, q: float) -> float:
        m, k = self.m, self.k
        row = self.rows.row(q)
        if k >= 1:
            wait = 1.0 + float(row @ self.cont)
        else:
            wait = (1.0 + float(row[1:] @ self.cont[1:])) / one_minus_pow(q, m - 1)
        return float(self.enter(q) - wait)


def _certifies_no_entry(k: int, w: float, cont: np.ndarray) -> bool:
    """True when nobody enters at (m, k) for any peer entry probability.

    At k >= 1 entering costs at least k*w and waiting at most 1 + max(cont).
    """
    return k >= 1 and k * w > (1.0 + float(cont.max())) * (1.0 + _CERT_MARGIN)


def _bisect(ev: _GapEvaluator, a: float, b: float, fa: float, fb: float, tol: float):
    """Shrink [a, b] with sign(fa) != sign(fb) until |gap| <= tol*max(1, c1)."""
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm = ev.gap_scalar(mid)
        if abs(fm) <= tol * max(1.0, abs(ev.enter(mid))):
            return mid, fm
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    mid = 0.5 * (a + b)
    return mid, ev.gap_scalar(mid)


def _scan_grid(m: int, k: int, lo: float, points: int) -> np.ndarray:
    half = max(points // 2, 2)
    left = np.geomspace(max(lo, _MIN_BRACKET), 1.0, half)
    right = np.linspace(lo if k >= 1 else max(lo, _MIN_BRACKET), 1.0, points - half)
    grid = np.unique(np.concatenate([left, right]))
    if k >= 1 and grid[0] > 0.0:
        grid = np.concatenate([[0.0], grid])
    return grid


def _solve_state_arrays(
    rows: _BinomRows,
    k: int,
    w: float,
    cont: np.ndarray,
    policy: RootPolicy,
    tol: float,
) -> Tuple[float, float, int, float]:
    m = rows.m
    if _certifies_no_entry(k, w, cont):
        return 0.0, 1.0 + float(cont[0]), 0, 0.0
    ev = _GapEvaluator(rows, k, w, cont)
    if k == 0:
        # push the lower endpoint down until waiting dominates entering
        lo = min(1.0, 1.0 / (m - 1))
        flo = ev.gap_scalar(lo)
        while flo >= 0.0 and lo > _MIN_BRACKET:
            lo *= 0.5
            flo = ev.gap_scalar(lo)
        grid = _scan_grid(m, k, lo, rows.grid_points)
        gaps = ev.gap(grid, _binom_matrix(m - 1, grid))
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
    cont = np.array(
        [
            continuation[QueueState(m - i, k + i - 1)] if (k + i - 1) >= 0 else 0.0
            for i in range(m)
        ]
    )
    rows = _BinomRows(m, grid_points)
    q, c, count, _ = _solve_state_arrays(rows, k, w, cont, policy, tol)
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
    n, w = params.n, params.w
    # cost[m, k] feeds the continuation gather; row m = 1 is the lone-agent
    # rule.  solved[m][k] is (q, cost, root count, residual), read back below
    # in enumerate_states order so the returned mappings keep that order.
    cost = np.zeros((n + 1, n + 1))
    cost[1] = np.arange(n + 1)
    solved: List[List[Tuple[float, float, int, float]]] = [[] for _ in range(n + 1)]
    solved[1] = [(1.0, float(k), 0, 0.0) for k in range(n)]
    for m in range(2, n + 1):
        rows = _BinomRows(m, grid_points)
        idx = np.arange(m)
        for k in range(n - m + 1):
            cont = cost[m - idx, k - 1 + idx]
            if k == 0:
                cont[0] = 0.0
            result = _solve_state_arrays(rows, k, w, cont, policy, tol)
            cost[m, k] = result[1]
            solved[m].append(result)
    profile: Dict[QueueState, float] = {}
    costs: Dict[QueueState, float] = {}
    diags: Dict[QueueState, StateDiagnostics] = {}
    for state in enumerate_states(n):
        q, c, count, res = solved[state.m][state.k]
        profile[state] = q
        costs[state] = c
        diags[state] = StateDiagnostics(root_count=count, residual=res)
    total = n * costs[QueueState(n, 0)] if n >= 2 else 0.0
    return EquilibriumSolution(
        params=params,
        profile=EntryProfile(profile),
        per_player=CostTable(CostRole.PER_OUTSIDE_PLAYER, costs),
        total_cost=total,
        policy=policy,
        diagnostics=diags,
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


@dataclass(frozen=True)
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


def profile_cost_table(profile: EntryProfile, params: GameParams) -> CostTable:
    """Per-outside-player expected cost of playing an arbitrary profile.

    v(m,k) = q*c1 + (1-q)*c0 with the agent mixing like everyone else; at an
    empty queue the all-wait self-loop is solved linearly, which requires
    q(m,0) > 0.
    """
    n, w = params.n, params.w
    values: Dict[QueueState, float] = {}
    for state in enumerate_states(n):
        m, k = state.m, state.k
        if m == 1:
            values[state] = float(k)
            continue
        q = profile.q(state)
        c1 = cost_enter(state, q, w)
        row = _binom_row(m - 1, q)
        if k >= 1:
            c0 = 1.0 + sum(
                p * values[QueueState(m - i, k + i - 1)]
                for i, p in enumerate(row)
                if p > 0.0
            )
            values[state] = q * c1 + (1.0 - q) * c0
        else:
            if q == 0.0:
                raise DivergentCostError(
                    f"profile cost diverges at {state}: nobody ever enters"
                )
            cont = sum(row[i] * values[QueueState(m - i, i - 1)] for i in range(1, m))
            values[state] = (q * c1 + (1.0 - q) * (1.0 + cont)) / one_minus_pow(q, m)
    return CostTable(CostRole.PER_OUTSIDE_PLAYER, values)


def verify_profile(
    profile: EntryProfile, params: GameParams, tol: float = 1e-9
) -> VerificationReport:
    """Check the equilibrium conditions of a profile state by state.

    At each state with m >= 2: interior q must make entering and waiting
    indifferent, q = 0 requires waiting to be weakly better, q = 1 requires
    entering to be weakly better, and no single deviation may beat the cost
    the profile itself delivers.
    """
    n, w = params.n, params.w
    table = profile_cost_table(profile, params)
    checks: List[StateCheck] = []
    worst = 0.0
    for state in enumerate_states(n):
        m, k = state.m, state.k
        if m == 1:
            continue
        q = profile.q(state)
        cost = table[state]
        scale = max(1.0, abs(cost))
        c1 = cost_enter(state, q, w)
        try:
            c0 = cost_wait(state, q, w, table.values)
        except DivergentCostError:
            c0 = math.inf
        reasons = []
        if 0.0 < q < 1.0:
            resid = abs(c1 - c0)
            if resid > tol * scale:
                reasons.append(f"not indifferent at interior q={q:.6g}")
        elif q == 0.0:
            resid = max(0.0, c0 - c1)
            if c0 > c1 + tol * scale:
                reasons.append("waiting is not a best response at q=0")
        else:
            resid = max(0.0, c1 - c0)
            if c1 > c0 + tol * scale:
                reasons.append("entering is not a best response at q=1")
        deviation_gain = cost - min(c1, c0)
        if deviation_gain > tol * scale:
            reasons.append(f"profitable deviation worth {deviation_gain:.3g}")
        resid = max(resid, deviation_gain)
        worst = max(worst, resid)
        checks.append(
            StateCheck(
                state=state,
                q=q,
                cost=cost,
                enter_cost=c1,
                wait_cost=c0,
                residual=resid,
                passed=not reasons,
                reason="; ".join(reasons),
            )
        )
    return VerificationReport(
        params=params,
        checks=tuple(checks),
        passed=all(c.passed for c in checks),
        worst_residual=worst,
    )


def verify_equilibrium(
    solution: EquilibriumSolution, tol: float = 1e-9
) -> VerificationReport:
    """Re-verify a solver output from scratch (profile-induced cost table)."""
    report = verify_profile(solution.profile, solution.params, tol)
    n, w = solution.params.n, solution.params.w
    extra: List[StateCheck] = []
    if w > 2.0:
        for state in enumerate_states(n):
            floor = state.total - 1
            cost = solution.per_player[state]
            if cost < floor - tol * max(1.0, floor):
                extra.append(
                    StateCheck(
                        state=state,
                        q=solution.profile.q(state),
                        cost=cost,
                        enter_cost=math.nan,
                        wait_cost=math.nan,
                        residual=floor - cost,
                        passed=False,
                        reason=f"per-player cost below floor {floor}",
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
