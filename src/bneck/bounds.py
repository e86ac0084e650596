"""Closed-form cost bounds, auxiliary inequality validators, and reporting.

Two kinds of entries appear in a report:

* hard bounds hold for every symmetric equilibrium at the given (n, w)
  (most need w > 2) and fail the report when violated;
* advisory bounds are only guaranteed beyond parameter thresholds that have
  no closed form, so they are reported as observations and never fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .eqsolver import EquilibriumSolution
from .model import (
    GameParams,
    InvalidParameterError,
    QueueState,
    _decision_states,
    _dense_q,
    _first_state,
    one_minus_pow,
)
from .optsolver import (
    OptSolution,
    _stage_increments,
    _StageCost,
    heuristic_profile_large_w,
    heuristic_profile_small_w,
    sc_unrestricted,
)

__all__ = [
    "eq_lower_simple",
    "eq_upper_small_w",
    "eq_upper_large_w",
    "eq_lower_large_w",
    "entry_prob_lower",
    "opt_recursive_upper",
    "opt_bounds_large_w",
    "OptLargeWBounds",
    "ratio_targets",
    "RatioTargets",
    "NiceBoundFunction",
    "phi_harmonic",
    "phi_sqrt",
    "nice_function_check",
    "NiceCheckResult",
    "aux_lemma_validators",
    "LemmaResult",
    "prob_vanishing_check",
    "BoundEntry",
    "BoundsReport",
    "bounds_report",
]

_E_RATIO = math.e / (math.e - 1.0)
DEFAULT_REL_TOL = 1e-9
DEFAULT_ABS_TOL = 1e-12


def _tol(scale: float, rel: float = DEFAULT_REL_TOL) -> float:
    return rel * max(1.0, abs(scale)) + DEFAULT_ABS_TOL


# ---------------------------------------------------------------------------
# Equilibrium-cost bounds


def eq_lower_simple(n: int) -> float:
    """Per-player floor n-1: every symmetric equilibrium costs at least that."""
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    return float(n - 1)


def eq_upper_small_w(n: int, w: float) -> float:
    """Per-player ceiling n + w*(2+ln n)/2, valid for all w > 2."""
    if n < 2 or not w > 2.0:
        raise InvalidParameterError(f"need n >= 2 and w > 2, got n={n}, w={w}")
    return n + w * (2.0 + math.log(n)) / 2.0


def eq_upper_large_w(n: int, w: float, eps: float = 1.0) -> float:
    """Per-player ceiling e/(e-1)*n + (1+eps)*sqrt(w)*sqrt(n+2*sqrt(n-1)).

    Unconditional at eps = 1; smaller eps only holds for large enough w, so
    callers should treat those values as advisory.
    """
    if n < 2 or not w > 2.0:
        raise InvalidParameterError(f"need n >= 2 and w > 2, got n={n}, w={w}")
    if not 0.0 < eps <= 1.0:
        raise InvalidParameterError(f"eps must be in (0,1], got {eps}")
    return _E_RATIO * n + (1.0 + eps) * math.sqrt(w) * math.sqrt(n + 2.0 * math.sqrt(n - 1.0))


def eq_lower_large_w(n: int, w: float, eps: float) -> Tuple[float, float]:
    """Advisory per-player floors for large w: (sum form, simplified form).

    sum form: (1-2*eps)^(n-1) * sqrt(w)/2 * sum_{i<n} 1/(1+sqrt(i));
    simplified: (1-2*eps)^(n-1) * sqrt(w*(n-2*ln n)).
    """
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    if not 0.0 < eps < 0.5:
        raise InvalidParameterError(f"eps must be in (0, 0.5), got {eps}")
    damp = (1.0 - 2.0 * eps) ** (n - 1)
    ssum = sum(1.0 / (1.0 + math.sqrt(i)) for i in range(1, n))
    sum_form = damp * math.sqrt(w) / 2.0 * ssum
    simplified = damp * math.sqrt(w * (n - 2.0 * math.log(n)))
    return sum_form, simplified


def entry_prob_lower(m: int, k: int, w: float) -> float:
    """Floor on equilibrium entry probability: (2/w)*(1 - k(w-1)/(m-1)), clamped at 0."""
    if m < 2 or not w > 2.0:
        raise InvalidParameterError(f"need m >= 2 and w > 2, got m={m}, w={w}")
    return max(0.0, 2.0 / w * (1.0 - k * (w - 1.0) / (m - 1.0)))


# ---------------------------------------------------------------------------
# Optimal-cost bounds


def opt_recursive_upper(m: int, w: float, alpha: float) -> float:
    """Ceiling on OPT(m) - OPT(m-1) + (m-1) shifted: full stage increment bound.

    Returns m-1 + [m*e^-a + (w-1)/2 * a^2 * (m/(m-a))^2 * e^(a^2/(m-a))] / (1-e^-a)
    where a = alpha = p*m for the stage entry probability p.
    """
    if not 0.0 < alpha < m:
        raise InvalidParameterError(f"need 0 < alpha < m, got alpha={alpha}, m={m}")
    ea = math.exp(-alpha)
    spike = (w - 1.0) / 2.0 * alpha**2 * (m / (m - alpha)) ** 2 * math.exp(
        alpha**2 / (m - alpha)
    )
    return m - 1 + (m * ea + spike) / (1.0 - ea)


@dataclass(frozen=True)
class OptLargeWBounds:
    lower_sum: float
    upper_sum: float
    lower_closed: float
    upper_closed: float


def opt_bounds_large_w(n: int, w: float, eps: float) -> OptLargeWBounds:
    """Advisory sandwich for OPT at large w, in sum and closed forms.

    lower: (1-eps)*sqrt(2w)*sum_{i<n} sqrt(i), closed form (2/3)(n-1)^(3/2);
    upper: (1+eps)*sqrt(2w)*sum_{i<=n} sqrt(i), closed form (2/3)n^(3/2)+sqrt(n).
    """
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    if not 0.0 < eps < 1.0:
        raise InvalidParameterError(f"eps must be in (0,1), got {eps}")
    s2w = math.sqrt(2.0 * w)
    low_sum = sum(math.sqrt(i) for i in range(1, n))
    up_sum = low_sum + math.sqrt(n)
    return OptLargeWBounds(
        lower_sum=(1.0 - eps) * s2w * low_sum,
        upper_sum=(1.0 + eps) * s2w * up_sum,
        lower_closed=(1.0 - eps) * s2w * (2.0 / 3.0) * (n - 1) * math.sqrt(n - 1),
        upper_closed=(1.0 + eps) * s2w * ((2.0 / 3.0) * n * math.sqrt(n) + math.sqrt(n)),
    )


@dataclass(frozen=True)
class RatioTargets:
    fixed_w: float
    large_w_eq_sc: float
    large_w_eq_opt: float


def ratio_targets(n: int, w: float) -> RatioTargets:
    """Asymptotic ratio targets: 2, 2*sqrt(w/n), and 3/(2*sqrt(2))."""
    if n < 2 or not w > 1.0:
        raise InvalidParameterError(f"need n >= 2 and w > 1, got n={n}, w={w}")
    return RatioTargets(
        fixed_w=2.0,
        large_w_eq_sc=2.0 * math.sqrt(w / n),
        large_w_eq_opt=3.0 / (2.0 * math.sqrt(2.0)),
    )


# ---------------------------------------------------------------------------
# Nice upper-bound functions


@dataclass(frozen=True)
class NiceBoundFunction:
    """A per-player cost ceiling phi(m, k) = base(m) + slope*(m + k), with a display name."""

    name: str
    slope: float
    base: Callable[[int], float]

    def __call__(self, m: int, k: int) -> float:
        return self.slope * (m + k) + self.base(m)


def phi_harmonic(w: float) -> NiceBoundFunction:
    """phi(m,k) = m + k + sqrt(w/2) + sum_{i<m} w/(2i)."""

    def base(m: int) -> float:
        return math.sqrt(w / 2.0) + sum(w / (2.0 * i) for i in range(1, m))

    return NiceBoundFunction(f"harmonic(w={w:g})", 1.0, base)


def phi_sqrt(w: float, eps: float = 1.0) -> NiceBoundFunction:
    """phi(m,k) = e/(e-1)*(m+k) + (1+eps)*sqrt(w)*sqrt(m+2*sqrt(m-1))."""

    def base(m: int) -> float:
        return (1.0 + eps) * math.sqrt(w) * math.sqrt(m + 2.0 * math.sqrt(m - 1.0))

    return NiceBoundFunction(f"sqrt(w={w:g},eps={eps:g})", _E_RATIO, base)


@dataclass(frozen=True)
class NiceCheckResult:
    passed: bool
    witnesses: Tuple[Tuple[str, Tuple[int, int], Tuple[int, int], float, float], ...]


def nice_function_check(phi: NiceBoundFunction, n_max: int) -> NiceCheckResult:
    """Test both niceness conditions for 1 <= m <= n_max, 0 <= k <= n_max, exactly.

    Condition 1: phi(m,k) - phi(m,0) >= k.  Condition 2: phi(m,k) >=
    phi(m',k') whenever m >= m' and m+k >= m'+k' (moving agents from outside
    into the queue never raises the ceiling).  For phi = base(m) +
    slope*(m+k), condition 1 holds iff slope >= 1, and condition 2 iff slope
    >= 0 and base is non-decreasing: (m, 0) against (m-1, 1) and (1, 1)
    against (1, 0) show both are needed, and rounding is monotone, so the
    sum of two ordered parts keeps their order in float too.  Each test
    compares numbers of one size, with no slack.
    """
    if n_max < 2:
        raise InvalidParameterError(f"n_max must be >= 2, got {n_max}")
    witnesses: List[Tuple[str, Tuple[int, int], Tuple[int, int], float, float]] = []
    if not phi.slope >= 1.0:
        witnesses.append(("condition1", (1, 1), (1, 0), phi.slope, 1.0))
    if not phi.slope >= 0.0:
        witnesses.append(("condition2", (1, 1), (1, 0), phi.slope, 0.0))
    base = [phi.base(m) for m in range(1, n_max + 1)]
    drop = next((m for m in range(2, n_max + 1) if not base[m - 1] >= base[m - 2]), None)
    if drop is not None:
        witnesses.append(("condition2", (drop, 0), (drop - 1, 1), base[drop - 1], base[drop - 2]))
    return NiceCheckResult(passed=not witnesses, witnesses=tuple(witnesses))


# ---------------------------------------------------------------------------
# Auxiliary inequality validators


@dataclass(frozen=True)
class LemmaResult:
    name: str
    passed: bool
    checked: int
    worst_margin: float
    witnesses: Tuple[Tuple[float, ...], ...] = ()


def aux_lemma_validators(samples: int, seed: int) -> Dict[str, LemmaResult]:
    """Randomized plus boundary checks of five auxiliary inequalities.

    1. 1 - p*n <= (1-p)^n <= 1 - p*n + p^2*C(n,2)
    2. p in (0, 2/(n-1)):  1/(1-(1-p)^n) <= 2 / (p*n*(2 - p*(n-1)))
    3. p >= p0 > 0:        1/(1-(1-p)^n) <= e^(n*p0)/(e^(n*p0)-1)
    4. x >= 1:             sqrt(x) + 1 + 1/(2(sqrt(x)+1)) <= 1 + sqrt(x+1)
    5. m >= 1:             sum_{i<=m} 1/(1+sqrt(i))
                             >= 2(sqrt(m+1) - ln(1+sqrt(m+1)) - 1 + ln 2)
    """
    if samples < 1:
        raise InvalidParameterError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    slack = 1e-9
    results: Dict[str, LemmaResult] = {}

    ns = rng.integers(2, 400, size=samples)
    ps = rng.random(samples)
    # boundary cases for each sampled n: p = 0, 1/n, just below 2/(n-1), 1
    nb = np.concatenate([ns, ns, ns, ns])
    pb = np.concatenate(
        [
            np.zeros(samples),
            1.0 / ns,
            np.minimum(1.0, 2.0 / (ns - 1) * (1.0 - 1e-9)),
            np.ones(samples),
        ]
    )
    n_all = np.concatenate([ns, nb])
    p_all = np.concatenate([ps, pb])

    pow_ = (1.0 - p_all) ** n_all
    lo = 1.0 - p_all * n_all
    hi = lo + p_all**2 * n_all * (n_all - 1) / 2.0
    bad = (pow_ < lo - slack) | (pow_ > hi + slack)
    results["pow_sandwich"] = _lemma_result(
        "pow_sandwich", bad, np.stack([p_all, n_all], axis=1), np.maximum(lo - pow_, pow_ - hi)
    )

    mask = (p_all > 0.0) & (p_all < 2.0 / (n_all - 1))
    p2, n2 = p_all[mask], n_all[mask]
    with np.errstate(divide="ignore"):  # p = 1 gives log1p(-1) = -inf, lhs = 1
        lhs = 1.0 / (-np.expm1(n2 * np.log1p(-p2)))
    rhs = 2.0 / (p2 * n2 * (2.0 - p2 * (n2 - 1)))
    bad = lhs > rhs * (1.0 + slack) + slack
    results["small_prob"] = _lemma_result(
        "small_prob", bad, np.stack([p2, n2], axis=1), lhs - rhs
    )

    mask = p_all > 0.0
    p3, n3 = p_all[mask], n_all[mask]
    p0 = p3 * rng.random(len(p3))
    p0 = np.maximum(p0, 1e-12)
    with np.errstate(divide="ignore"):
        lhs = 1.0 / (-np.expm1(n3 * np.log1p(-p3)))
    enp = np.exp(n3 * p0)
    rhs = enp / (enp - 1.0)
    bad = lhs > rhs * (1.0 + slack) + slack
    results["large_prob"] = _lemma_result(
        "large_prob", bad, np.stack([p3, n3, p0], axis=1), lhs - rhs
    )

    xs = np.concatenate([[1.0], 1.0 + rng.random(samples) * 1e6])
    lhs = np.sqrt(xs) + 1.0 + 1.0 / (2.0 * (np.sqrt(xs) + 1.0))
    rhs = 1.0 + np.sqrt(xs + 1.0)
    bad = lhs > rhs + slack
    results["sqrt_step"] = _lemma_result("sqrt_step", bad, xs[:, None], lhs - rhs)

    mmax = 10_000
    cums = np.cumsum(1.0 / (1.0 + np.sqrt(np.arange(1, mmax + 1))))
    ms = np.concatenate([[1, 2, 3, 4], rng.integers(1, mmax + 1, size=samples)])
    lhs = cums[ms - 1]
    sq = np.sqrt(ms + 1.0)
    rhs = 2.0 * (sq - np.log(1.0 + sq) - 1.0 + math.log(2.0))
    bad = lhs < rhs - slack
    results["sum_inv_sqrt"] = _lemma_result(
        "sum_inv_sqrt", bad, ms[:, None].astype(float), rhs - lhs
    )
    return results


def _lemma_result(name: str, bad: np.ndarray, args: np.ndarray, margin: np.ndarray) -> LemmaResult:
    idx = np.nonzero(bad)[0]
    witnesses = tuple(tuple(map(float, args[j])) for j in idx[:8])
    worst = float(np.max(margin)) if len(margin) else 0.0
    return LemmaResult(
        name=name,
        passed=len(idx) == 0,
        checked=int(len(bad)),
        worst_margin=worst,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# Vanishing entry probability (advisory)


@dataclass(frozen=True)
class VanishingEntry:
    state: QueueState
    value: float
    satisfied: bool


_VANISH_TOL = 1e-9  # q(m, k >= 1) <= this counts as 0


def prob_vanishing_check(
    eq: EquilibriumSolution, eps: float, tol: float = _VANISH_TOL
) -> List[VanishingEntry]:
    """Advisory check that entry probabilities have entered the vanishing regime.

    For each m >= 2 reports whether q(m,0)*(m-1) <= eps, and for each k >= 1
    whether q(m,k) == 0 (within tol).  Thresholds in w for when these must
    hold are not computable, hence advisory.
    """
    if not eq.params.w > 2.0:
        raise InvalidParameterError("vanishing checks are meaningful only for w > 2")
    n = eq.params.n
    states, ms, ks = _decision_states(n)
    values, satisfied = _vanishing(_dense_q(eq.profile, n), ms, ks, eps, tol)
    return list(map(VanishingEntry, states, values.tolist(), satisfied.tolist()))


def _vanishing(
    q: np.ndarray, ms: np.ndarray, ks: np.ndarray, eps: float, tol: float
) -> Tuple[np.ndarray, np.ndarray]:
    """``prob_vanishing_check``'s values and verdicts at the states (ms, ks) of
    the dense entry probabilities q."""
    q = q[ms, ks]
    empty = ks == 0
    values = np.where(empty, q * (ms - 1), q)
    return values, values <= np.where(empty, eps, tol)


# ---------------------------------------------------------------------------
# Report assembly


@dataclass(frozen=True)
class BoundEntry:
    name: str
    formula: str
    bound: float
    observed: float
    direction: str  # "upper": observed <= bound, "lower": observed >= bound
    passed: bool
    advisory: bool
    note: str = ""


@dataclass(frozen=True)
class BoundsReport:
    params: GameParams
    eps_used: float
    entries: Tuple[BoundEntry, ...]
    ratios: Dict[str, float]

    @property
    def hard_failures(self) -> List[BoundEntry]:
        return [e for e in self.entries if not e.advisory and not e.passed]

    @property
    def passed(self) -> bool:
        return not self.hard_failures


def _check_eps(eps: float) -> None:
    """Reject an advisory slack that is not finite and > 0."""
    if not (math.isfinite(eps) and eps > 0.0):
        raise InvalidParameterError(f"eps must be finite and > 0, got {eps}")


def _heuristic_totals(n: int, w: float) -> Dict[str, List[float]]:
    """T(m, 0), m = 0..n, of both heuristic profiles at w; none at w <= 2.

    p_m depends on m and w only, so T[n'] is T(n', 0) of G(n'; w) for every
    n' <= n, bit for bit (the prefix property of the solvers).
    """
    if not w > 2.0:
        return {}  # the report prices no heuristic at w <= 2
    return {
        "small_w": _empty_queue_totals(heuristic_profile_small_w(n, w), w),
        "large_w": _empty_queue_totals(heuristic_profile_large_w(n, w), w),
    }


def _empty_queue_totals(p: Sequence[float], w: float) -> List[float]:
    """T(m, 0), m = 0..len(p)-1, of the profile entering w.p. p[m] at (m, 0) only.

    Such a profile is priced by the stage recursion that ``solve_opt``
    minimises, evaluated at p[m] instead of minimised: when i of the m
    agents enter, the queue drains in i steps while nobody enters, costing
    w*i(i-1)/2 in the queue and i(m-i) outside, and the game is back at
    (m-i, 0).  So T(m, 0) = optsolver's stage-m cost at p[m] against
    T(0..m-1, 0), with T(0, 0) = T(1, 0) = 0; it is m*v(m, 0) of the
    profile's cost table (``total_cost_evaluate``) up to rounding.
    """
    t = [0.0, 0.0]
    for m in range(2, len(p)):
        t.append(_StageCost(m, _stage_increments(m, w, t))(p[m]))
    return t


def bounds_report(
    eq: EquilibriumSolution,
    opt: OptSolution,
    eps: float = 0.5,
    rel_tol: float = DEFAULT_REL_TOL,
) -> BoundsReport:
    """One entry per bound, hard or advisory, for a solved (n, w).

    ``eq`` and ``opt`` must describe the same game, with n >= 2, and ``eps``
    must be finite and > 0.  Hard entries: the per-state cost floor, the
    entry-probability floor, both equilibrium ceilings (sqrt form at eps=1),
    the expected-wait chain inequality, the OPT sandwich between n(n-1)/2 and
    both heuristic-profile costs, and the stage-increment ceiling.
    Everything threshold-dependent is advisory.
    """
    return _bounds_report(eq, opt, eps, rel_tol, None)


def _bounds_report(
    eq: EquilibriumSolution,
    opt: OptSolution,
    eps: float,
    rel_tol: float,
    heuristics: Optional[Dict[str, List[float]]],
) -> BoundsReport:
    """``bounds_report``, pricing the heuristic profiles off ``heuristics``.

    ``heuristics`` is ``_heuristic_totals(N, w)`` for some N >= n, or None
    to price them at G(n; w) here; ``bneck sweep`` prices them once per w.
    """
    if eq.params != opt.params:
        raise InvalidParameterError(
            f"parameter mismatch: eq has {eq.params}, opt has {opt.params}"
        )
    params = eq.params
    n, w = params.n, params.w
    if n < 2:
        raise InvalidParameterError(f"bounds require n >= 2, got n={n}")
    _check_eps(eps)
    entries: List[BoundEntry] = []

    def row(name, formula, bound, observed, direction, advisory, note="", passed=None):
        """Append one entry; unless given, passed is the tolerance test in direction."""
        bound, observed = float(bound), float(observed)
        if passed is None:
            slack = _tol(bound, rel_tol)
            if direction == "upper":
                passed = observed <= bound + slack
            else:
                passed = observed >= bound - slack
        entries.append(
            BoundEntry(name, formula, bound, observed, direction, bool(passed), advisory, note)
        )

    c_n = eq.per_player_cost
    eq_total = eq.total_cost
    opt_total = opt.total_cost
    sc = sc_unrestricted(n)

    if w > 2.0:
        # each worst case is the smallest (margin, state) pair, ties going to the first
        # state in row-major [m, k] order; a state the cost table lacks (nan) is worst
        q = _dense_q(eq.profile, n)
        cost = eq.per_player.values.dense(n)
        m, k = np.arange(n + 1)[:, None], np.arange(n + 1)
        margin = np.where((m >= 1) & (m + k <= n), cost - (m + k - 1), math.inf)
        s = _first_state(np.isnan(margin) | (margin == margin.min()))
        row(
            "per_player_floor",
            "c(m,k) >= m+k-1",
            s.total - 1,
            cost[s.m, s.k],
            "lower",
            advisory=False,
            note=f"worst state {s}",
        )
        # entry_prob_lower; rows m <= 1 are masked out, and kept off a 0 divisor
        lower = 2.0 / w * (1.0 - k * (w - 1.0) / np.maximum(m - 1.0, 1.0))
        margin = np.where((m >= 2) & (m + k <= n), q - np.where(lower > 0.0, lower, 0.0), math.inf)
        s = _first_state(margin == margin.min())
        row(
            "entry_prob_floor",
            "q(m,k) >= (2/w)(1-k(w-1)/(m-1))",
            entry_prob_lower(s.m, s.k, w),
            q[s.m, s.k],
            "lower",
            advisory=False,
            note=f"worst state {s}",
        )
        row(
            "eq_upper_small_w",
            "c(n,0) <= n + w(2+ln n)/2",
            eq_upper_small_w(n, w),
            c_n,
            "upper",
            advisory=False,
        )
        row(
            "eq_upper_large_w",
            "c(n,0) <= e/(e-1)n + 2 sqrt(w) sqrt(n+2 sqrt(n-1))",
            eq_upper_large_w(n, w, 1.0),
            c_n,
            "upper",
            advisory=False,
        )
        if eps < 1.0:
            row(
                "eq_upper_large_w_eps",
                "c(n,0) <= e/(e-1)n + (1+eps) sqrt(w) sqrt(n+2 sqrt(n-1))",
                eq_upper_large_w(n, w, eps),
                c_n,
                "upper",
                advisory=True,
            )
        if eps < 0.5:
            for name, formula, bound in zip(
                ("eq_lower_large_w", "eq_lower_large_w_simple"),
                (
                    "c(n,0) >= (1-2eps)^(n-1) sqrt(w)/2 sum 1/(1+sqrt(i))",
                    "c(n,0) >= (1-2eps)^(n-1) sqrt(w(n-2 ln n))",
                ),
                eq_lower_large_w(n, w, eps),
            ):
                row(name, formula, bound, c_n, "lower", advisory=True)
        # expected-wait chain: 1/(1-(1-q_{m,0})^(m-1)) + phi(m-1,0) <= phi(m,0)
        harmonic = phi_harmonic(w)
        phi = [0.0] + [harmonic(m, 0) for m in range(1, n + 1)]  # phi[m] = phi(m, 0)
        q_empty = q[:, 0].tolist()
        margin, m = min(
            (phi[m] - (1.0 / one_minus_pow(q_empty[m], m - 1) + phi[m - 1]), m)
            for m in range(2, n + 1)
        )
        row(
            "expected_wait_chain",
            "1/(1-(1-q(m,0))^(m-1)) + phi(m-1,0) <= phi(m,0)",
            0.0,
            -margin,
            "upper",
            advisory=False,
            note=f"worst m={m}",
        )
        _, ms, ks = _decision_states(n)
        values, satisfied = _vanishing(q, ms, ks, eps, _VANISH_TOL)
        n_vanish = int(satisfied.sum())
        row(
            "prob_vanishing",
            "q(m,0)(m-1) <= eps and q(m,k>=1) = 0",
            eps,
            values.max(),
            "upper",
            advisory=True,
            note=f"{n_vanish}/{len(values)} states in vanishing regime",
            passed=n_vanish == len(values),
        )
    else:
        expected = w * n * (n - 1) / 2.0
        row(
            "small_w_total",
            "total = w n(n-1)/2 for w <= 2",
            expected,
            eq_total,
            "upper",
            advisory=False,
            note="all-enter regime; equality expected",
            passed=abs(eq_total - expected) <= _tol(expected, 1e-12),
        )
        row("small_w_ratio", "eq/SC = w <= 2", 2.0, eq_total / sc, "upper", advisory=False)

    row("opt_lower_sc", "OPT >= n(n-1)/2", sc, opt_total, "lower", advisory=False)
    if w > 2.0:
        if heuristics is None:
            heuristics = _heuristic_totals(n, w)
        for tag, totals in heuristics.items():
            row(
                f"opt_upper_heuristic_{tag}",
                f"OPT <= cost of {tag} heuristic profile",
                totals[n],
                opt_total,
                "upper",
                advisory=False,
            )
        alpha = opt.p[n] * n
        if 0.0 < alpha < n:
            row(
                "opt_increment_upper",
                "OPT(n) - OPT(n-1) <= stage increment bound",
                opt_recursive_upper(n, w, alpha),
                opt.opt[n] - opt.opt[n - 1],
                "upper",
                advisory=False,
            )
        ob = opt_bounds_large_w(n, w, min(eps, 1.0 - 1e-9))
        for name, formula, bound, direction in (
            ("opt_large_w_lower", "OPT >= (1-eps) sqrt(2w) sum sqrt(i)", ob.lower_sum, "lower"),
            ("opt_large_w_upper", "OPT <= (1+eps) sqrt(2w) sum sqrt(i)", ob.upper_sum, "upper"),
        ):
            row(name, formula, bound, opt_total, direction, advisory=True)

    targets = ratio_targets(n, w)
    ratios = {
        "ratio_eq_sc": float(eq_total / sc),
        "ratio_eq_opt": float(eq_total / opt_total),
        "ratio_opt_sc": float(opt_total / sc),
        "target_fixed_w": targets.fixed_w,
        "target_large_w_eq_sc": targets.large_w_eq_sc,
        "target_large_w_eq_opt": targets.large_w_eq_opt,
    }
    return BoundsReport(params=params, eps_used=eps, entries=tuple(entries), ratios=ratios)
