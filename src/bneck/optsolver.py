"""Optimal symmetric entry profiles (entry only at an empty queue).

Directing an agent into a non-empty queue is socially wasteful (w > 1), so
an optimal symmetric profile is a vector p_m of entry probabilities for the
states (m, 0).  The total cost then satisfies a one-dimensional recursion:
stage m costs

  [(1-p)^m * m + sum_i pmf(m,i,p) * (w*i*(i-1)/2 + i*(m-i) + OPT(m-i))]
  / (1 - (1-p)^m)

and OPT(m) minimizes this over p in (0, 1].  The continuation values do not
depend on p_m, so stage-wise minimization is globally optimal within this
class of profiles.

Each stage builds its p-free increments w*i(i-1)/2 + i(m-i) + OPT(m-i)
once; the grid scan and every golden-section probe share them.  A probe
(``_StageCost``, also behind ``opt_stage_cost``) reads its pmf row from a
``model._Pmf`` and sums the terms sequentially with np.add.accumulate, so
it is bit-identical to a scalar loop over i.  The grid scan evaluates its
grid_points x (m+1) pmf matrix with the same ``_Pmf``'s ``log_into``, in
row blocks of about 2^15 doubles, which stay in L2 cache, in one pair of
buffers per solve; a grid that fits in one block is one block.  Block
heights are multiples of 8 rows, at which the blocked gemv gave every grid
value bit-identical to the full matrix's.

Prefix property, which ``bneck sweep`` relies on and the solver must keep:
p[:n+1] and opt[:n+1] are the same, bit for bit, in every G(N; w) with
N >= n.  So the stage grid may depend on m, never on n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .model import (
    DivergentCostError,
    GameParams,
    InvalidParameterError,
    _check_solver_settings,
    _exp_into,
    _Pmf,
    one_minus_pow,
)

__all__ = [
    "OptSolution",
    "opt_stage_cost",
    "solve_opt",
    "opt_closed_form_2p",
    "heuristic_profile_small_w",
    "heuristic_profile_large_w",
    "sc_unrestricted",
]

DEFAULT_GRID_POINTS = 2048
DEFAULT_TOL = 1e-10
# the stage grid's pmf matrix is evaluated in row blocks of about _BLOCK
# doubles (256 KB, an L2 cache), whose heights are multiples of _BLOCK_ROWS:
# with OpenBLAS, heights that are multiples of 4 kept every row of the gemv
# bit-identical to the unblocked product, and most other heights did not
_BLOCK = 1 << 15
_BLOCK_ROWS = 8
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptSolution:
    """p[m] is the entry probability with m agents left (p[0] unused, p[1]=1);
    opt[m] is the minimal total cost of serving m agents."""

    params: GameParams
    p: Tuple[float, ...]
    opt: Tuple[float, ...]

    @property
    def total_cost(self) -> float:
        return self.opt[self.params.n]


def opt_stage_cost(m: int, p: float, w: float, opt_prefix: Sequence[float]) -> float:
    """Expected total cost of stage m at entry probability p.

    ``opt_prefix`` holds the continuation values for 0..m-1 agents
    (index j = cost with j agents left).
    """
    if m < 1:
        raise InvalidParameterError(f"m must be >= 1, got {m}")
    if not 0.0 < p <= 1.0:
        if p == 0.0:
            raise DivergentCostError("stage cost diverges at p = 0")
        raise InvalidParameterError(f"p must be in (0,1], got {p}")
    if len(opt_prefix) < m:
        raise InvalidParameterError(f"opt_prefix must cover 0..{m - 1}")
    return _StageCost(m, _stage_increments(m, w, opt_prefix))(p)


def _stage_increments(m: int, w: float, opt_prefix: Sequence[float]) -> np.ndarray:
    """a_i = w*i(i-1)/2 + i(m-i) + OPT(m-i) for i = 1..m: the p-free part of stage m."""
    i = np.arange(1, m + 1, dtype=float)
    with np.errstate(over="ignore"):  # w*i(i-1)/2 is inf at huge w, as in float math
        inc = w * i * (i - 1) / 2.0 + i * (m - i)
    inc += np.asarray(opt_prefix[:m], dtype=float)[::-1]
    return inc


class _StageCost:
    """Stage-m cost at one p in (0, 1] against fixed increments a_1..a_m.

    The pmf row comes from ``_Pmf`` and the increments are built once
    per stage.  The sum over i runs in order (``np.add.accumulate``), so
    every probe is bit-identical to a scalar loop over i that skips terms
    with a zero pmf weight.
    """

    def __init__(self, m: int, inc: np.ndarray):
        self.m = m
        self.inc = inc
        self._pmf = _Pmf(m)
        self._terms = np.empty(m)

    def __call__(self, p: float) -> float:
        row = self._pmf(p)
        terms = self._terms
        # zero weights are skipped: at huge w an increment is inf and 0*inf is nan
        terms.fill(0.0)
        np.multiply(row[1:], self.inc, out=terms, where=row[1:] > 0.0)
        acc = np.add.accumulate(terms, out=terms)[-1]
        return float((row[0] * self.m + acc) / one_minus_pow(p, self.m))


def _stage_cost_grid(stage: _StageCost, ps: np.ndarray, bufs: np.ndarray) -> np.ndarray:
    """Stage cost at every p of ``ps`` (all in (0, 1]), one row block at a time.

    A block's pmf rows are those of ``_Pmf.rows``, from the stage's
    ``_Pmf``, written into ``bufs``, a (2, size) buffer shared by all stages
    of a solve.  A block holds a multiple of ``_BLOCK_ROWS`` rows and about
    ``_BLOCK`` doubles, so it stays in L2 cache; a grid that fits in one
    block is one block.
    """
    m, inc, pmf = stage.m, stage.inc, stage._pmf
    lq, l1q = pmf.log_columns(ps)
    vals = np.empty(len(ps))
    height = max(_BLOCK // (m + 1) // _BLOCK_ROWS, 1) * _BLOCK_ROWS
    if len(ps) * (m + 1) <= _BLOCK:
        height = len(ps)
    for r0 in range(0, len(ps), height):
        r1 = min(r0 + height, len(ps))
        logv, B = (b[: (r1 - r0) * (m + 1)].reshape(r1 - r0, m + 1) for b in bufs)
        _exp_into(pmf.log_into(lq[r0:r1], l1q[r0:r1], logv, B), B)
        pmf.set_edge_rows(B, ps[r0:r1])  # p = 1: all m enter
        vals[r0:r1] = B[:, 0] * m + B[:, 1:] @ inc
    return vals / one_minus_pow(ps, m)


def _golden_min(f, a: float, b: float, tol: float) -> Tuple[float, float]:
    """Golden-section minimum of a unimodal f on [a, b].

    Stops when the bracket is within tol relative, 1e-18 absolute, or 4 ulps
    of b: a float bracket cannot shrink much below one ulp, so a tiny tol
    would otherwise never end the loop.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > max(tol * max(1e-12, abs(a) + abs(b)), 4.0 * math.ulp(b), 1e-18):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = c if fc <= fd else d
    return x, min(fc, fd)


def _stage_grid(m: int, points: int) -> np.ndarray:
    half = points // 2
    lo = 1e-8 / m
    knee = 1.0 / m
    left = np.geomspace(lo, knee, half)
    # at least [knee, 1]: solve_opt reads p = 1 off the last grid point
    right = np.linspace(knee, 1.0, max(points - half, 2))
    return np.unique(np.concatenate([left, right]))


def solve_opt(
    params: GameParams,
    grid_points: int = DEFAULT_GRID_POINTS,
    tol: float = DEFAULT_TOL,
) -> "OptSolution":
    """Bottom-up minimization of the stage recursion for m = 2..n.

    Each stage objective is a ratio of degree-m polynomials and may be
    multimodal, so every local minimum bracket found on a coarse mixed
    log/linear grid is refined by golden section and the global best kept.
    """
    _check_solver_settings(grid_points, tol)
    n, w = params.n, params.w
    opt: List[float] = [0.0, 0.0]
    p: List[float] = [math.nan, 1.0]
    bufs = np.empty((2, max(_BLOCK, _BLOCK_ROWS * (n + 1))))
    for m in range(2, n + 1):
        grid = _stage_grid(m, grid_points)
        f = _StageCost(m, _stage_increments(m, w, opt))
        vals = _stage_cost_grid(f, grid, bufs)
        best_x, best_f = 1.0, float(vals[-1])
        padded = np.concatenate(([math.inf], vals, [math.inf]))
        for j in np.flatnonzero((vals <= padded[:-2]) & (vals <= padded[2:])):
            a = float(grid[max(j - 1, 0)])
            b = float(grid[min(j + 1, len(grid) - 1)])
            if a == b:
                x, fx = float(grid[j]), float(vals[j])
            else:
                x, fx = _golden_min(f, a, b, tol)
            if fx < best_f:
                best_x, best_f = x, fx
        p.append(best_x)
        opt.append(best_f)
    return OptSolution(params=params, p=tuple(p[: n + 1]), opt=tuple(opt[: n + 1]))


def opt_closed_form_2p(w: float) -> Tuple[float, float]:
    """Two-player optimum: p = (sqrt(2w-1)-1)/(w-1), cost sqrt(2w-1).

    The cost follows from substituting the minimizer into
    1/p + (w*p - 1)/(2 - p), which simplifies exactly to sqrt(2w-1).
    """
    if not w > 1.0:
        raise InvalidParameterError(f"w must be > 1, got {w}")
    s = math.sqrt(2.0 * w - 1.0)
    return (s - 1.0) / (w - 1.0), s


def heuristic_profile_small_w(n: int, w: float) -> Tuple[float, ...]:
    """Entry probabilities p_m = min(1, ln(m)/m * sqrt(2/w)); p_1 = 1.

    Balances collision risk against idle time well when n is large relative
    to w.  Returned as p[0..n] with p[0] unused.
    """
    if n < 2 or not w > 2.0:
        raise InvalidParameterError(f"need n >= 2 and w > 2, got n={n}, w={w}")
    scale = math.sqrt(2.0 / w)
    p = [math.nan, 1.0]
    for m in range(2, n + 1):
        p.append(min(1.0, math.log(m) / m * scale))
    return tuple(p)


def heuristic_profile_large_w(n: int, w: float) -> Tuple[float, ...]:
    """Entry probabilities p_m = min(1, sqrt(2(m-1)/(w-1))/m); p_1 = 1.

    Tuned for w large relative to n.  Returned as p[0..n] with p[0] unused.
    """
    if n < 2 or not w > 1.0:
        raise InvalidParameterError(f"need n >= 2 and w > 1, got n={n}, w={w}")
    p = [math.nan, 1.0]
    for m in range(2, n + 1):
        p.append(min(1.0, math.sqrt(2.0 * (m - 1) / (w - 1.0)) / m))
    return tuple(p)


def sc_unrestricted(n: int) -> float:
    """Minimal social cost without any symmetry restriction: sequential entry."""
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    return n * (n - 1) / 2.0
