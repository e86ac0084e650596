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

Backward induction walks the anti-diagonals t = m + k upward: every
successor of (m, k), slot 0 (m, k-1) included, lies on diagonal t - 1, so
a diagonal is solved at once (``_solve_diagonal``).  The continuation of
(m, k), k >= 1, is the reversed prefix cost(m, t-1-m), ..., cost(1, t-2)
of that diagonal, and its maximum a prefix maximum, so the no-entry
certificate (``_certifies_no_entry``) tests the whole diagonal in one
array expression.  When at least ``_LOCKSTEP_MIN`` states stay open, each
is sorted by the sign changes of gamma[i] = k*w + w*i/2 - 1 - cont[i], the
gap's coefficients in the degree-(m-1) Bernstein basis (``_gamma_signs``).
By the variation-diminishing property the gap has at most as many roots in
(0, 1) as gamma has sign changes, and it lies between min and max gamma.
With every gamma[i] farther than a ``_CERT_MARGIN`` slack from 0:
  - no sign change gives the no-entry or all-enter tuple the scan would;
  - one sign change gives one root r.  If the diagonal has at least
    ``_LOCKSTEP_MIN`` such states, they are settled together, and one
    ``_GapProbes`` evaluator, the exact probe batched over the diagonal's
    single-root states, makes every probe of the enclosures and replays:
      - certificate: when gamma is strictly monotone, so is the gap g, and
        |g(q)| >= L*|q - r| with L = (m-1) * (min |gamma step| - slack).
        ``_rounding_bound`` gives E, a bound on the rounding of any gap
        the package computes;
      - enclosure (``_enclose``): probes on both sides of the point where
        gamma's control polygon crosses 0, moved by secant steps until
        both clear E with opposite signs, put r in [lo, hi].  Then every
        scan gap outside [lo, hi] has g's sign, so when [lo, hi] lies in
        one cell of the k >= 1 scan grid, the scan would bisect that cell;
      - replay (``_bisect_lockstep``): ``_bisect``'s midpoints, exit, stop
        test and step count, bracket by bracket.  A midpoint farther than
        (tol*max(1, enter) + E) / L from [lo, hi] takes its branch without
        a probe; every other gets the exact probe;
      - fallback: a state whose gamma is not strictly monotone, whose
        enclosure fails or whose cell is in doubt goes to the scan.
Every other k >= 1 state goes to ``_scan_state``, whose binomial matrix
(``model._Pmf.rows``) a state of the same m on the next diagonal reuses.
The state (t, 0) goes to ``_empty_queue_state``, which settles it in the
same way from the degree-m Bernstein form of enter*leave - stay, finding
its cell by scalar probes, or else scans it.  A scalar probe takes its
pmf row from the state's ``model._Pmf``, a batched one the same row from
a padded block of them.  Every state gets, bit for bit, what the scan
returns.  Solved costs live in a dense (n+1) x (n+1) array.

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
    _exp_into,
    _logfact,
    _mask_off_game,
    _Pmf,
    _profile_costs,
    _states,
    _successor_values,
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
_LOCKSTEP_MIN = 8  # single-root states a diagonal needs to bisect them in lockstep
_LOG_HALF = math.log(0.5)  # log q and log(1-q) of a batch row that holds no probe
_U = 2.0**-53  # unit roundoff of a float
_ENCLOSE_TRIES = 4  # tries of a root's enclosure; each failed one recentres and widens
_WIDEN = 2.0


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

    def __init__(self, pmf: _Pmf, k: int, w: float, cont: np.ndarray):
        # pmf: the state's Binomial(m-1, q) pmf; cont[i] = continuation cost
        # at (m-i, k+i-1); cont[0] unused for k=0
        self.m, self.k, self.w = pmf.m + 1, k, w
        self.cont = cont
        self._half = pmf.m / 2.0
        self._kw = k * w
        self._tail = cont[1:]
        self._pmf = pmf

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


def _certifies_no_entry(k, w: float, cont_max):
    """True when nobody enters at (m, k) for any peer entry probability.

    ``k`` and ``cont_max`` are scalars, or arrays for one test per state.
    At k >= 1 entering costs at least k*w and waiting at most 1 + cont_max,
    cont_max being the largest continuation cost.
    """
    return (k >= 1) & (k * w > (1.0 + cont_max) * (1.0 + _CERT_MARGIN))


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


def _lower_end(ev: _GapEvaluator) -> Tuple[float, float]:
    """The k = 0 scan's lower endpoint and its gap: halving from 1/(m-1) until waiting dominates."""
    lo = min(1.0, 1.0 / (ev.m - 1))
    flo = ev.probe(lo)[0]
    while flo >= 0.0 and lo > _MIN_BRACKET:
        lo *= 0.5
        flo = ev.probe(lo)[0]
    return lo, flo


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
    ev = _GapEvaluator(rows.pmf, k, w, cont)
    if k == 0:
        grid = _scan_grid(k, _lower_end(ev)[0], rows.grid_points)
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


def _empty_queue_state(
    rows: _BinomRows, w: float, cont: np.ndarray, policy: RootPolicy, tol: float
) -> Tuple[float, float, int, float]:
    """``_scan_state``'s tuple at (m, 0), from the signs of f where they allow.

    f = enter * leave - stay is the gap times leave = 1 - (1-q)^(m-1) > 0.
    Its coefficient at q = j/m in the degree-m Bernstein basis is
    (m-1)/2*w*j/m [j >= 2] - 1 - (m-j)/m*c[j] - j/m*c[j-1], with c the
    continuation, c[0] = c[m] = 0.  f[0] = -1.  With every coefficient
    farther than the slack from 0, no sign change means the gap is
    negative on (0, 1] (everybody enters), and one sign change one root.
    A binary search of scalar probes finds its cell of the scan grid, each
    probed gap farther from 0 than the scan's rounding could move it, and
    ``_bisect`` refines the cell.  Any other state is scanned.
    """
    m = rows.m
    c = np.append(cont, 0.0)
    j = np.arange(m + 1)
    f = np.where(j >= 2, (m - 1) / 2.0 * w * j / m, 0.0) - 1.0 - (m - j) / m * c
    f[1:] -= j[1:] / m * c[:-1]
    slack = _CERT_MARGIN * ((m - 1) / 2.0 * w + 1.0 + c.max())
    pos = f > 0.0
    changes = np.count_nonzero(pos[1:] != pos[:-1])
    if changes > 1 or (np.abs(f) <= slack).any():
        return _scan_state(rows, 0, w, cont, policy, tol)
    if not changes:
        c1 = (m - 1) / 2.0 * 1.0 * w + 0.0  # enter cost at q = 1
        return 1.0, c1, 0, c1 - (1.0 + cont[-1])
    ev = _GapEvaluator(rows.pmf, 0, w, cont)
    grid = _scan_grid(0, _lower_end(ev)[0], rows.grid_points)

    def sign(at: int) -> int:
        """The gap's sign at grid[at]; 0 where the scan's rounding could flip it."""
        gap, enter = ev.probe(float(grid[at]))
        if abs(gap) <= _CERT_MARGIN * (abs(enter) + abs(enter - gap)):
            return 0
        return -1 if gap < 0.0 else 1

    if sign(0) != -1:
        return _scan_state(rows, 0, w, cont, policy, tol)
    lo, hi = 0, len(grid) - 1  # the gap at grid[-1] = 1 is f[m] > 0
    while hi - lo > 1:
        at = (lo + hi) // 2
        side = sign(at)
        if not side:
            return _scan_state(rows, 0, w, cont, policy, tol)
        lo, hi = (at, hi) if side < 0 else (lo, at)
    q, res = _bisect(ev, float(grid[lo]), float(grid[hi]), -1.0, 1.0, tol)
    return q, float(ev.enter(q)), 1, res


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
    the already-solved continuation states, one anti-diagonal m + k at a
    time (``_solve_diagonal``).
    """
    _check_solver_settings(grid_points, tol)
    n, w = params.n, params.w
    # q, cost, root count and residual per state, indexed [m, k]; cost feeds
    # the continuation gather.  Row m = 1 is the lone-agent rule, and row
    # m = 0 stays 0.
    q, cost = np.ones((n + 1, n + 1)), np.zeros((n + 1, n + 1))
    cost[1] = np.arange(n + 1)
    roots, residual = np.zeros((n + 1, n + 1), dtype=int), np.zeros((n + 1, n + 1))
    upper_grid = _scan_grid(1, _SCAN_LO, grid_points)  # k >= 1 grid, same for every m
    scans = {}  # m -> _BinomRows of the states the last diagonal scanned
    for t in range(2, n + 1):
        j = np.arange(t + 1)
        diagonal = j[2:], t - j[2:]
        q[diagonal], cost[diagonal], roots[diagonal], residual[diagonal] = _solve_diagonal(
            cost[j[:-1], t - 1 - j[:-1]], w, scans, upper_grid, grid_points, policy, tol
        )
    states, ms, ks = _states(n)
    diagnostics = map(StateDiagnostics, roots[ms, ks].tolist(), residual[ms, ks].tolist())
    return EquilibriumSolution(
        params=params,
        profile=EntryProfile(_mask_off_game(q, 1)),
        per_player=CostTable(CostRole.PER_OUTSIDE_PLAYER, _mask_off_game(cost, 1)),
        policy=policy,
        diagnostics=dict(zip(states, diagnostics)),
    )


def _solve_diagonal(
    prev: np.ndarray,
    w: float,
    scans: dict,
    upper_grid: np.ndarray,
    grid_points: int,
    policy: RootPolicy,
    tol: float,
) -> np.ndarray:
    """q, cost, root count and residual of the states (m, t - m), m = 2..t: a (4, t - 1) array.

    ``prev[j]`` is cost(j, t - 1 - j), j = 0..t-1, and prev[0] is 0: the
    diagonal that every successor lies on.  Column m - 2 holds (m, t - m).
    Each state gets what ``_scan_state`` would return (see the module
    docstring).  ``scans`` holds the ``_BinomRows`` of the states that the
    last diagonal scanned, whose scan matrices the next state of the same
    m reuses; it is left holding this diagonal's.
    """
    t = len(prev)
    # the no-entry tuple (0, 1 + cost(m, k-1), 0, 0) at every k >= 1 state,
    # overwritten below where the certificate and gamma do not give it
    out = np.zeros((4, t - 1))
    out[1, :-1] = 1.0 + prev[2:]
    ms = np.arange(2, t)
    cmax = np.maximum.accumulate(prev[1:])[ms - 1]  # the largest continuation cost
    cols = np.flatnonzero(~_certifies_no_entry(t - ms, w, cmax))
    if len(cols) >= _LOCKSTEP_MIN:
        cols = _settle_open(out, cols, prev, w, cmax[cols], upper_grid, tol)
    last = scans.copy()
    scans.clear()
    for m in (np.append(cols, t - 2) + 2).tolist():
        cont = np.empty(m)
        cont[0] = prev[m] if m < t else 0.0
        cont[1:] = prev[m - 1 : 0 : -1]
        rows = scans[m] = last.get(m) or _BinomRows(m, grid_points, upper_grid)
        if m < t:
            out[:, m - 2] = _scan_state(rows, t - m, w, cont, policy, tol)
        else:
            out[:, m - 2] = _empty_queue_state(rows, w, cont, policy, tol)
    return out


def _settle_open(
    out: np.ndarray,
    cols: np.ndarray,
    prev: np.ndarray,
    w: float,
    cmax: np.ndarray,
    upper_grid: np.ndarray,
    tol: float,
) -> np.ndarray:
    """Settle the uncertified k >= 1 states ``cols`` of ``_solve_diagonal`` that gamma's signs allow.

    Writes their tuples into ``out`` and returns the columns left to the
    scan.  With every gamma[i] clear of 0 (``_gamma_signs``), a state
    with no sign change has no root and one with one sign change exactly
    one.  When there are at least ``_LOCKSTEP_MIN`` single-root states,
    those that ``_enclose`` certifies are bisected in lockstep, both
    probing through one ``_GapProbes`` of the single-root states; the scan
    decides the rest, and every state when there are fewer.
    """
    t = len(prev)
    ms = cols + 2
    ks = t - ms
    conts = prev[np.maximum(ms[:, None] - np.arange(t - 1), 0)]  # 0 past slot m - 1
    changes, neg0, slack = _gamma_signs(ms, ks, w, conts, cmax)
    # no sign change: the gap has gamma's sign on all of [0, 1], so nobody
    # enters (the tuple ``out`` holds) or everybody does
    all_enter = (changes == 0) & neg0
    c1 = (ms[all_enter] - 1) / 2.0 * 1.0 * w + ks[all_enter] * w  # enter cost at q = 1
    out[0, cols[all_enter]], out[1, cols[all_enter]] = 1.0, c1
    out[3, cols[all_enter]] = c1 - (1.0 + prev[1])
    one = np.flatnonzero(changes == 1)
    if len(one) < _LOCKSTEP_MIN:
        return cols[changes != 0]
    probes = _GapProbes(ms[one], ks[one], w, conts[one])
    cells, cert = _enclose(probes, cmax[one], neg0[one], slack[one], upper_grid)
    changes[one[cells < 0]] = -1
    held = np.flatnonzero(cells >= 0)
    if len(held):
        cells, one = cells[held], one[held]
        q, gap, enter = _bisect_lockstep(
            probes, held, upper_grid[cells], upper_grid[cells + 1], neg0[one], tol,
            tuple(x[held] for x in cert),
        )
        # a bracket the lockstep left open gets its last probe, as _bisect's does
        for j in np.flatnonzero(np.isnan(gap)).tolist():
            m = int(ms[one[j]])
            ev = _GapEvaluator(_Pmf(m - 1), t - m, w, conts[one[j], :m])
            gap[j], enter[j] = ev.probe(float(q[j]))
        out[:, cols[one]] = q, enter, np.ones(len(one)), gap
    return cols[(changes < 0) | (changes > 1)]


def _gamma(ks: np.ndarray, w: float, conts: np.ndarray) -> np.ndarray:
    """gamma[j, i] = k*w + w*i/2 - 1 - cont[i]: the Bernstein coefficients of row j's gap."""
    return (ks[:, None] * w + w * np.arange(conts.shape[1]) / 2.0) - (1.0 + conts)


def _gamma_signs(
    ms: np.ndarray, ks: np.ndarray, w: float, conts: np.ndarray, cmax: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sign changes of gamma, the sign of the gap at q = 0 and the slack, per k >= 1 state.

    gamma[i] = k*w + w*i/2 - 1 - cont[i] is the gap's coefficient at
    q = i / (m-1) in the degree-(m-1) Bernstein basis.  Row j of ``conts``
    holds state j's continuation in its first m slots, and ``cmax`` its
    maximum.  A state with a gamma[i] within the slack of 0 gets -1
    changes: the scan has to decide it.
    """
    inside = np.arange(conts.shape[1]) < ms[:, None]
    gamma = _gamma(ks, w, conts)
    slack = _CERT_MARGIN * (ks * w + w * (ms - 1) / 2.0 + 1.0 + cmax)
    pos = gamma > 0.0
    changes = np.count_nonzero((pos[:, 1:] != pos[:, :-1]) & inside[:, 1:], axis=1)
    near = ((np.abs(gamma) <= slack[:, None]) & inside).any(axis=1)
    return np.where(near, -1, changes), ~pos[:, 0], slack


def _rounding_bound(ms: np.ndarray, ks: np.ndarray, w: float, cmax: np.ndarray) -> np.ndarray:
    """E: a bound on |computed gap - exact gap| at any q of [0, 1], per k >= 1 state.

    It holds for both ways the package computes the gap: a scalar or
    batched probe (``math.log`` logs, one ``ndarray.dot`` per row) and a
    scan (``np.log`` logs, a matrix product).  With u = 2^-53, degree
    d = m - 1 and p the exact pmf:
      - lgamma, log, log1p and exp are taken to err by at most 4 ulps
        (8u relative).  Through the two subtractions of log C(d, i) and the
        four ``log_into`` operations, log p_i errs by at most
        u*(12*S_i + 11*T_i), where S_i = lgamma-table sum
        lf[d] + lf[i] + lf[d-i] <= 2*lf[d] and
        T_i = i*|log q| + (d-i)*|log(1-q)|, whose mean under p is
        d*H(q) <= d*log 2;
      - so sum_i |row_i - p_i|*cont_i <= cmax*u*(24*lf[d] + 8*d + 8), as
        costs are >= 0;
      - any summation order of the m-term product adds at most
        1.02*m*u*cmax, and 1 + product, the enter cost and the final
        subtraction at most u*(2 + 5*enter(1) + 2.02*cmax);
      - entries that underflow add less than 1e-300*m*cmax.
    The sum of those terms, its constant rounded up to 5, is doubled.  That
    covers second-order terms and the rounding of the comparisons made
    against E, and gives E >= 10u*(enter(1) + 1 + cmax).
    """
    lf = _logfact(int(ms.max()))[ms - 1]
    enter1 = (ms - 1) / 2.0 * w + ks * w
    terms = cmax * (24.0 * lf + 10.0 * ms + 11.0) + 5.0 * enter1 + 5.0
    return 2.0 * _U * terms + 1e-300 * ms * cmax


def _enclose(
    probes: _GapProbes,
    cmax: np.ndarray,
    neg0: np.ndarray,
    slack: np.ndarray,
    grid: np.ndarray,
) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Each single-root state's cell of ``grid`` and its certificate, or cell -1.

    When gamma is strictly monotone, with every step clear of the slack
    that covers its rounding, the gap g is monotone on [0, 1] with slope
    at least L = (m-1)*(min |step| - slack), so |g(q)| >= L*|q - r| at its
    root r.  From the point q0 where gamma's control polygon
    (i/(m-1), gamma[i]) crosses 0, the ends of [q0 - eps, q0 + eps] are
    probed through ``probes``.  Until both ends have opposite signs
    farther than E (``_rounding_bound``) from 0, q0 moves to the secant
    root of the two gaps and eps widens; then r lies in the enclosure
    [lo, hi].  An end outside (0, 1) only moves farther out, so its state
    is dropped.
    As E is twice the rounding of any computed gap, |g| exceeds that
    rounding at both ends, and, g being monotone, at every q outside
    [lo, hi].  So when no point of ``grid`` lies strictly inside [lo, hi],
    every scan gap has g's sign, and the scan finds the cell that holds
    [lo, hi].  Returns the cells and (lo, hi, L, E), per row of
    ``probes``, for ``_bisect_lockstep``.
    """
    ms, ks, w = probes.ms, probes.ks, probes.w
    d = ms - 1
    size, width = len(ms), int(ms.max())
    gamma = _gamma(ks, w, probes.conts[:, :width])
    # gamma rises where the gap is negative at 0, and falls elsewhere
    steps = np.diff(gamma, axis=1) * np.where(neg0, 1.0, -1.0)[:, None]
    rise = np.where(np.arange(1, width) < ms[:, None], steps, np.inf).min(axis=1)
    slope = np.maximum(d * (rise - slack), 0.0)
    pos = gamma > 0.0
    at = np.argmax(pos[:, 1:] != pos[:, :-1], axis=1)  # the first change is the one inside
    g0, g1 = gamma[np.arange(size), at], gamma[np.arange(size), at + 1]
    q0 = (at + g0 / (g0 - g1)) / d
    bound = _rounding_bound(ms, ks, w, cmax)
    lo, hi = np.full(size, math.nan), np.full(size, math.nan)
    todo = np.flatnonzero(slope > 0.0)
    # ends 2E/L from the root have |g| >= 2E, so they clear E once computed
    eps = 2.0 * bound[todo] / slope[todo] + 4.0 * _U * q0[todo]
    for _ in range(_ENCLOSE_TRIES):
        ends = q0[todo] - eps, q0[todo] + eps
        inside = (ends[0] > 0.0) & (ends[1] < 1.0)
        todo, eps, ends = todo[inside], eps[inside], (ends[0][inside], ends[1][inside])
        if not len(todo):
            break
        ok, gaps = True, []
        for end, below in zip(ends, (neg0[todo], ~neg0[todo])):
            gaps.append(np.array(probes(todo.tolist(), end.tolist())[0]))
            ok = ok & ((gaps[-1] < 0.0) == below) & (np.abs(gaps[-1]) > bound[todo])
        lo[todo[ok]], hi[todo[ok]] = ends[0][ok], ends[1][ok]
        # a failed try moves q0 to the secant root of its two gaps
        with np.errstate(divide="ignore", invalid="ignore"):
            guess = ends[1] - gaps[1] * (ends[1] - ends[0]) / (gaps[1] - gaps[0])
        moved = (guess > 0.0) & (guess < 1.0)
        q0[todo[moved]] = guess[moved]
        todo, eps = todo[~ok], eps[~ok] * _WIDEN
    cells = np.full(size, -1)
    held = np.flatnonzero(~np.isnan(lo))
    j = np.searchsorted(grid, lo[held], side="right") - 1
    sure = hi[held] <= grid[j + 1]
    cells[held[sure]] = j[sure]
    return cells, (lo, hi, slope, bound)


class _GapProbes:
    """``_GapEvaluator.probe`` for a batch of k >= 1 states, bit for bit.

    The pmf rows of a call's probes are rows of one padded ``_Pmf`` block:
    the logs that ``math.log`` and ``math.log1p`` give each q,
    ``log_into`` and ``_exp_into``.  Each row is dotted with its state's
    continuation on its own, and the enter cost and the gap follow in the
    probe's scalar arithmetic.  Row j of ``conts`` holds state j's
    continuation in its first m slots.  A diagonal's single-root states
    share one: ``_enclose`` and ``_bisect_lockstep`` name a state by its
    row, and a call computes the whole block.
    """

    def __init__(self, ms: np.ndarray, ks: np.ndarray, w: float, conts: np.ndarray):
        self.ms, self.ks, self.w, self.conts = ms, ks, w, conts
        self._pmf = _Pmf.padded(ms - 1)
        self._logv, self._rows = np.empty(self._pmf._i.shape), np.empty(self._pmf._i.shape)
        sizes = ms.tolist()
        self._dots = [(self._rows[j, :m].dot, conts[j, :m]) for j, m in enumerate(sizes)]
        self._half, self._kw = ((ms - 1) / 2.0).tolist(), (ks * w).tolist()
        # log q and log(1-q) per row; a row without a probe keeps its last
        self._lq, self._l1q = [_LOG_HALF] * len(sizes), [_LOG_HALF] * len(sizes)

    def __call__(self, rows: List[int], qs: List[float]) -> Tuple[List[float], List[float]]:
        """Gap and enter cost at each q of ``qs``, in (0, 1), for the row beside it in ``rows``."""
        lq, l1q = self._lq, self._l1q
        for r, q in zip(rows, qs):
            lq[r], l1q[r] = math.log(q), math.log1p(-q)
        lq, l1q = np.array(lq)[:, None], np.array(l1q)[:, None]
        _exp_into(self._pmf.log_into(lq, l1q, self._logv, self._rows), self._rows)
        half, kw, w, dots = self._half, self._kw, self.w, self._dots
        gap, enter = [], []
        for r, q in zip(rows, qs):
            e = half[r] * q * w + kw[r]
            dot, cont = dots[r]
            gap.append(float(e - (1.0 + dot(cont))))
            enter.append(e)
        return gap, enter


def _bisect_lockstep(
    probes: _GapProbes,
    rows: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    neg: np.ndarray,
    tol: float,
    cert=None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_bisect`` on a batch of k >= 1 brackets at once, bit for bit.

    Bracket j belongs to the state in row ``rows[j]`` of ``probes``.
    ``neg`` is the sign of the gap at each left end, which ``_bisect``
    never changes.  ``cert`` is ``_enclose``'s (lo, hi, L, E) per bracket,
    or None: the gap's root lies in [lo, hi], the gap has the left end's
    sign below lo and the other above hi, |gap(q)| >= L*dist(q, [lo, hi]),
    and a probe errs by at most E.  Each bracket walks ``_bisect``'s
    midpoints, its ``mid <= a or mid >= b`` exit, its stop test and its
    ``_MAX_BISECT`` steps.  A midpoint with L*dist > tol*max(1, enter) + E
    cannot pass the stop test and has a known sign, so it takes its branch
    without a probe, and the step counts.  Every other midpoint (all of
    them where L = 0) waits for the round's one ``probes`` call.  Returns
    q, gap and enter cost per bracket.  A bracket that ran out of steps or
    midpoints has its last midpoint as q and a nan gap and enter cost, for
    a scalar probe to fill in.
    """
    size = len(a)
    q, gap, enter = np.full((3, size), math.nan).tolist()
    # skip where mid < lo - r or mid > hi + r, r = (tol*max(1, enter(b)) + E) / L:
    # every midpoint lies below b, and the computed enter cost rises with q.
    # E >= 10u*(enter(1) + 1 + cmax) >= 5u*L, which covers the rounding of lo - r
    low, high = np.full(size, -math.inf), np.full(size, math.inf)
    if cert is not None:
        lo, hi, slope, bound = cert
        sure = slope > 0.0
        ms, ks, w = probes.ms[rows], probes.ks[rows], probes.w
        r = (tol * np.maximum(1.0, (ms - 1) / 2.0 * b * w + ks * w) + bound)[sure] / slope[sure]
        low[sure], high[sure] = lo[sure] - r, hi[sure] + r
    a, b, neg, low, high, rows = (x.tolist() for x in (a, b, neg, low, high, rows))
    steps, top = [0] * size, _MAX_BISECT
    todo = list(range(size))
    while todo:
        at, mids = [], []
        for j in todo:
            aj, bj, lj, hj = a[j], b[j], low[j], high[j]
            for step in range(steps[j], top):
                mid = 0.5 * (aj + bj)
                if not aj < mid < bj:
                    q[j] = mid
                    break
                if mid < lj:
                    aj = mid
                elif mid > hj:
                    bj = mid
                else:
                    at.append(j)
                    mids.append(mid)
                    a[j], b[j], steps[j] = aj, bj, step
                    break
            else:
                q[j] = 0.5 * (aj + bj)
        if not at:
            break
        todo = []
        for j, mid, fm, e in zip(at, mids, *probes([rows[j] for j in at], mids)):
            if abs(fm) <= tol * max(1.0, abs(e)):
                q[j], gap[j], enter[j] = mid, fm, e
                continue
            if (fm < 0.0) == neg[j]:
                a[j] = mid
            else:
                b[j] = mid
            steps[j] += 1
            todo.append(j)
    return np.array(q), np.array(gap), np.array(enter)


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
