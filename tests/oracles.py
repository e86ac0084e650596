"""Oracles and reference implementations for the test suite.

The oracles are written directly from the cost definitions with exact
binomial coefficients (math.comb) and plain powers, on purpose sharing no
code with the package's log-space/compensated implementations.  Grids stay
above 1e-6 so the naive arithmetic is safe.  The reference implementations
at the end are the exception: see their section.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from bneck import eqsolver, optsolver
from bneck.eqsolver import (
    EquilibriumSolution,
    RootPolicy,
    StateCheck,
    StateDiagnostics,
    VerificationReport,
    solve_equilibrium,
)
from bneck.model import (
    CostRole,
    CostTable,
    DivergentCostError,
    EntryProfile,
    GameParams,
    InvalidParameterError,
    QueueState,
    _logfact,
    _Pmf,
    _successor_values,
    _wait_cost,
    cost_enter,
    enumerate_states,
    one_minus_pow,
)
from bneck.optsolver import OptSolution


def binom_coeffs(m: int) -> np.ndarray:
    return np.array([math.comb(m, i) for i in range(m + 1)], dtype=float)


def pmf_matrix(m: int, qs: np.ndarray) -> np.ndarray:
    """C(m,i) q^i (1-q)^(m-i) for every q; naive arithmetic."""
    qs = np.asarray(qs, dtype=float)
    i = np.arange(m + 1)
    return binom_coeffs(m)[None, :] * qs[:, None] ** i * (1.0 - qs)[:, None] ** (m - i)


def gap_values(
    m: int, k: int, w: float, qs: np.ndarray, cont: Sequence[float]
) -> np.ndarray:
    """enter-minus-wait cost gap on a q grid; cont[i] = c(m-i, k+i-1)."""
    qs = np.asarray(qs, dtype=float)
    enter = (m - 1) / 2.0 * qs * w + k * w
    B = pmf_matrix(m - 1, qs)
    cont = np.asarray(cont, dtype=float)
    if k >= 1:
        wait = 1.0 + B @ cont
    else:
        wait = (1.0 + B[:, 1:] @ cont[1:]) / (1.0 - (1.0 - qs) ** (m - 1))
    return enter - wait


def state_roots(
    m: int, k: int, w: float, cont: Sequence[float], points: int = 10**6
) -> Tuple[List[float], np.ndarray]:
    """All sign changes of the gap on a dense uniform grid (midpoints)."""
    if k == 0:
        qs = np.linspace(0.0, 1.0, points + 1)[1:]
    else:
        qs = np.linspace(0.0, 1.0, points + 1)
    g = gap_values(m, k, w, qs, cont)
    roots = []
    sign_change = np.nonzero(g[:-1] * g[1:] < 0.0)[0]
    for j in sign_change:
        roots.append(float(0.5 * (qs[j] + qs[j + 1])))
    for j in np.nonzero(g == 0.0)[0]:
        roots.append(float(qs[j]))
    return sorted(roots), g


def equilibrium(
    n: int, w: float, points: int = 10**6, largest: bool = False
) -> Tuple[Dict[Tuple[int, int], float], Dict[Tuple[int, int], float]]:
    """Full backward induction using only dense-grid root search."""
    cost: Dict[Tuple[int, int], float] = {}
    prob: Dict[Tuple[int, int], float] = {}
    for total in range(1, n + 1):
        for m in range(1, total + 1):
            k = total - m
            if m == 1:
                cost[(1, k)] = float(k)
                prob[(1, k)] = 1.0
                continue
            cont = [cost[(m - i, k + i - 1)] if k + i - 1 >= 0 else 0.0 for i in range(m)]
            roots, g = state_roots(m, k, w, cont, points)
            if roots:
                q = roots[-1] if largest else roots[0]
                c = (m - 1) / 2.0 * q * w + k * w
            elif g.max() <= 0.0:
                q = 1.0
                c = (m - 1) / 2.0 * w + k * w
            elif k >= 1 and g.min() >= 0.0:
                q = 0.0
                c = 1.0 + cont[0]
            else:
                raise AssertionError(f"oracle found no equilibrium at ({m},{k})")
            cost[(m, k)] = c
            prob[(m, k)] = q
    return prob, cost


def opt_stage(m: int, ps: np.ndarray, w: float, opt_prefix: Sequence[float]) -> np.ndarray:
    """Stage objective on a p grid, naive arithmetic."""
    ps = np.asarray(ps, dtype=float)
    B = pmf_matrix(m, ps)
    inc = np.array(
        [w * i * (i - 1) / 2.0 + i * (m - i) + opt_prefix[m - i] for i in range(1, m + 1)]
    )
    num = B[:, 0] * m + B[:, 1:] @ inc
    return num / (1.0 - (1.0 - ps) ** m)


def optimum(n: int, w: float, points: int = 10**4) -> Tuple[List[float], List[float]]:
    """Stage-wise dense grid minimization, refined once around the best point."""
    opt = [0.0, 0.0]
    p = [math.nan, 1.0]
    for m in range(2, n + 1):
        qs = np.linspace(0.0, 1.0, points + 1)[1:]
        vals = opt_stage(m, qs, w, opt)
        j = int(np.argmin(vals))
        lo = qs[max(j - 2, 0)]
        hi = qs[min(j + 2, len(qs) - 1)]
        qs2 = np.linspace(lo, hi, points + 1)
        qs2 = qs2[qs2 > 0.0]
        vals2 = opt_stage(m, qs2, w, opt)
        j2 = int(np.argmin(vals2))
        p.append(float(qs2[j2]))
        opt.append(float(vals2[j2]))
    return p, opt


def total_cost_direct(p: Sequence[float], n: int, w: float) -> float:
    """Direct recursion for empty-queue-entry profiles (the one-line formula).

    value(m) = [(1-p_m)^m m + sum_i pmf(m,i,p_m)(w i(i-1)/2 + i(m-i) + value(m-i))]
               / (1 - (1-p_m)^m), value(0) = value at 1 handled by p_1 = 1.
    """
    vals = [0.0]
    for m in range(1, n + 1):
        pm = p[m]
        coeff = [math.comb(m, i) * pm**i * (1.0 - pm) ** (m - i) for i in range(m + 1)]
        acc = sum(
            coeff[i] * (w * i * (i - 1) / 2.0 + i * (m - i) + vals[m - i])
            for i in range(1, m + 1)
        )
        vals.append((coeff[0] * m + acc) / (1.0 - (1.0 - pm) ** m))
    return vals[n]


def fifo_replay(entry_steps: Sequence[int], n: int, w: float, end: int) -> List[float]:
    """Per-position costs of one play, replayed step by step up to ``end``.

    Position j joins the queue at step entry_steps[j]; positions past the
    list never enter.  Each step the entrants join, the head is served for
    free, the rest of the queue pays w and every agent outside pays 1.
    """
    costs = [0.0] * n
    queue: List[int] = []
    joined = 0
    for step in range(end):
        while joined < len(entry_steps) and entry_steps[joined] == step:
            queue.append(joined)
            joined += 1
        if queue:
            queue.pop(0)
        for j in queue:
            costs[j] += w
        for j in range(joined, n):
            costs[j] += 1.0
    return costs


# ---------------------------------------------------------------------------
# Reference implementations on the package's own arithmetic
#
# Unlike the oracles above, these use the package's log-space pmf arithmetic
# (``binom_row_plain``) and solver internals on purpose: they are the scalar,
# per-state and unblocked paths the solvers' kernels replaced, kept so tests
# can demand bit-identity (==) with them.  cost_wait, indifference_gap,
# step_cost_total and prob_vanishing_trend were public package functions
# that only tests used.


def binom_row_plain(m: int, q: float) -> np.ndarray:
    """The log-space pmf row over i = 0..m at one q, as one expression (frozen).

    ``model._Pmf(m)(q)`` must equal it bit for bit.
    """
    if q <= 0.0 or q >= 1.0:
        row = np.zeros(m + 1)
        row[m if q >= 1.0 else 0] = 1.0
        return row
    lf, i = _logfact(m), np.arange(m + 1)
    logc = lf[m] - lf[i] - lf[m - i]
    return np.exp(logc + i * math.log(q) + (m - i) * math.log1p(-q))


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
    cont = _successor_values(continuation, m, k)
    return _wait_cost(m, k, q, binom_row_plain(m - 1, q), cont)


def indifference_gap(
    state: QueueState, q: float, w: float, continuation: Mapping[QueueState, float]
) -> float:
    """cost_enter - cost_wait at q; negative means entering is strictly better."""
    return cost_enter(state, q, w) - cost_wait(state, q, w, continuation)


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


def prob_vanishing_trend(
    n: int, w_values: Sequence[float], eps: float
) -> Tuple[bool, List[float]]:
    """Advisory trend: max_m q(m,0)*(m-1) non-increasing along a w sweep."""
    worsts = []
    for w in w_values:
        eq = solve_equilibrium(GameParams(n, w))
        worsts.append(
            max(
                eq.profile.q(QueueState(m, 0)) * (m - 1)
                for m in range(2, n + 1)
            )
        )
    ok = all(b <= a * (1.0 + 1e-9) for a, b in zip(worsts, worsts[1:]))
    return ok, worsts


def opt_stage_cost_loop(m: int, p: float, w: float, opt_prefix: Sequence[float]) -> float:
    """The optimum's stage-m cost at p as one scalar loop over i (frozen).

    ``optsolver.opt_stage_cost`` must equal this bit for bit.
    """
    row = binom_row_plain(m, p)
    acc = 0.0
    for i in range(1, m + 1):
        if row[i] > 0.0:
            acc += row[i] * (w * i * (i - 1) / 2.0 + i * (m - i) + opt_prefix[m - i])
    return float((row[0] * m + acc) / one_minus_pow(p, m))


def solve_equilibrium_per_state(
    params: GameParams,
    policy: RootPolicy = RootPolicy.SMALLEST_Q,
    grid_points: int = eqsolver.DEFAULT_GRID_POINTS,
    tol: float = eqsolver.DEFAULT_TOL,
) -> EquilibriumSolution:
    """``solve_equilibrium`` as one gather and one certificate test per state (frozen).

    The m-major loop that the per-row gather and certificate replaced;
    ``solve_equilibrium`` must equal it bit for bit.
    """
    n, w = params.n, params.w
    cost = np.zeros((n + 1, n + 1))
    cost[1] = np.arange(n + 1)
    solved: List[List[Tuple[float, float, int, float]]] = [[] for _ in range(n + 1)]
    solved[1] = [(1.0, float(k), 0, 0.0) for k in range(n)]
    upper_grid = eqsolver._scan_grid(1, eqsolver._SCAN_LO, grid_points)
    for m in range(2, n + 1):
        rows = eqsolver._BinomRows(m, grid_points, upper_grid)
        for k in range(n - m + 1):
            cont = _successor_values(cost, m, k)
            if eqsolver._certifies_no_entry(k, w, float(cont.max())):
                result = (0.0, 1.0 + float(cont[0]), 0, 0.0)
            else:
                result = eqsolver._scan_state(rows, k, w, cont, policy, tol)
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
    return EquilibriumSolution(
        params=params,
        profile=EntryProfile(profile),
        per_player=CostTable(CostRole.PER_OUTSIDE_PLAYER, costs),
        policy=policy,
        diagnostics=diags,
    )


def binom_matrix_plain(m: int, qs: np.ndarray) -> np.ndarray:
    """``model._Pmf(m).rows(qs)`` with one np.exp over the whole matrix (frozen)."""
    qs = np.asarray(qs, dtype=float)
    lf, i = _logfact(m), np.arange(m + 1)
    rest, logc = m - i, lf[m] - lf[i] - lf[m - i]
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


def stage_cost_grid_unblocked(m: int, ps: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """The optimum's stage cost on a p grid from one full pmf matrix (frozen)."""
    B = binom_matrix_plain(m, ps)
    num = B[:, 0] * m + B[:, 1:] @ inc
    return num / one_minus_pow(ps, m)


def solve_opt_unblocked(
    params: GameParams,
    grid_points: int = optsolver.DEFAULT_GRID_POINTS,
    tol: float = optsolver.DEFAULT_TOL,
) -> OptSolution:
    """``solve_opt`` with the stage grid as one full matrix per stage (frozen).

    ``solve_opt`` must equal it bit for bit on p and opt.
    """
    n, w = params.n, params.w
    opt: List[float] = [0.0, 0.0]
    p: List[float] = [math.nan, 1.0]
    for m in range(2, n + 1):
        grid = optsolver._stage_grid(m, grid_points)
        inc = optsolver._stage_increments(m, w, opt)
        vals = stage_cost_grid_unblocked(m, grid, inc)
        f = optsolver._StageCost(m, inc)
        best_x, best_f = 1.0, float(vals[-1])
        padded = np.concatenate(([math.inf], vals, [math.inf]))
        for j in np.flatnonzero((vals <= padded[:-2]) & (vals <= padded[2:])):
            a = float(grid[max(j - 1, 0)])
            b = float(grid[min(j + 1, len(grid) - 1)])
            if a == b:
                x, fx = float(grid[j]), float(vals[j])
            else:
                x, fx = optsolver._golden_min(f, a, b, tol)
            if fx < best_f:
                best_x, best_f = x, fx
        p.append(best_x)
        opt.append(best_f)
    return OptSolution(params=params, p=tuple(p[: n + 1]), opt=tuple(opt[: n + 1]))


def profile_costs_per_state(
    profile: EntryProfile, params: GameParams
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense [m, k] per-player and waiting costs of a profile, one state at a time (frozen).

    The per-state loop that ``model._profile_costs``'s row pass replaced:
    one pmf row, one successor gather and one dot product per state.  The
    row pass sums in another order, so tests compare it at a tolerance.
    """
    n, w = params.n, params.w
    v = np.zeros((n + 1, n + 1))
    v[1] = np.arange(n + 1)
    wait = np.zeros((n + 1, n + 1))
    for m in range(2, n + 1):
        pmf = _Pmf(m - 1)
        for k in range(n - m + 1):
            state = QueueState(m, k)
            q = profile.q(state)
            if q == 0.0:
                v[m, k] = wait[m, k] = 1.0 + v[m, k - 1] if k >= 1 else math.inf
                continue
            c1 = cost_enter(state, q, w)
            row = pmf(q)
            cont = _successor_values(v, m, k)
            cont[row == 0.0] = 0.0
            wait[m, k] = _wait_cost(m, k, q, row, cont)
            if k >= 1:
                v[m, k] = q * c1 + (1.0 - q) * wait[m, k]
            else:
                stay = 1.0 + float(row @ cont)
                v[m, k] = (q * c1 + (1.0 - q) * stay) / one_minus_pow(q, m)
    return v, wait


def verify_profile_per_state(
    profile: EntryProfile, params: GameParams, tol: float = 1e-9
) -> VerificationReport:
    """``eqsolver.verify_profile`` as one scalar test per state (frozen).

    Prices the profile with ``profile_costs_per_state``; divergent profiles
    are the caller's business.
    """
    n, w = params.n, params.w
    v, wait = (a.tolist() for a in profile_costs_per_state(profile, params))
    checks: List[StateCheck] = []
    worst = 0.0
    for state in enumerate_states(n):
        m, k = state.m, state.k
        if m == 1:
            continue
        q = profile.q(state)
        cost = v[m][k]
        scale = max(1.0, abs(cost))
        c1 = cost_enter(state, q, w)
        c0 = wait[m][k]
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
            StateCheck(state, q, cost, c1, c0, resid, not reasons, "; ".join(reasons))
        )
    return VerificationReport(
        params=params,
        checks=tuple(checks),
        passed=all(c.passed for c in checks),
        worst_residual=worst,
    )


def empty_queue_totals_exact(p: Sequence[float], n: int, w: float, dps: int = 40) -> float:
    """``total_cost_direct`` in mpmath at ``dps`` digits, with p[m] taken exactly.

    At w = 1e18 the heuristic p_m are about 1e-9, where the naive
    1 - (1-p)^m of ``total_cost_direct`` loses about 7 digits.
    """
    import mpmath

    with mpmath.workdps(dps):
        big_w = mpmath.mpf(w)
        vals = [mpmath.mpf(0)]
        for m in range(1, n + 1):
            pm = mpmath.mpf(p[m])
            stay = 1 - pm
            acc = stay**m * m
            for i in range(1, m + 1):
                weight = mpmath.binomial(m, i) * pm**i * stay ** (m - i)
                acc += weight * (big_w * i * (i - 1) / 2 + i * (m - i) + vals[m - i])
            vals.append(acc / (1 - stay**m))
        return float(vals[n])
