"""Record the reference outputs the benchmark checks against.

Solves every game that game_w3, game_w100 and sweep_grid check, at both
sizes, and stores per game: the equilibrium total, entry probability and
per-player cost of every state, the optimum's p and stage-cost vectors
and total, the names of the hard bounds bounds_report fails, and for the
two single-game workloads the verify_equilibrium verdict and the
total_cost_evaluate total.  sim_mc needs no stored numbers: it is checked
against the analytic totals of the profiles it simulates.

    python3 perfbench/reference.py          # rewrites perfbench/data/reference.npz

Run it only at a commit whose outputs are the ones to hold later commits
to; the file records the commit it was made at.
"""

from __future__ import annotations

import json
import os
import sys
import time

import benchenv

benchenv.prepare()

import numpy as np  # noqa: E402

from bneck import (  # noqa: E402
    GameParams,
    bounds_report,
    solve_equilibrium,
    solve_opt,
    total_cost_evaluate,
    verify_equilibrium,
)

from workloads import EPS, REFERENCE_PATH, SIZES, eq_arrays, game_inputs, game_key  # noqa: E402


def record(n: int, w: float, full_check: bool, arrays: dict) -> dict:
    params = GameParams(n, w)
    eq = solve_equilibrium(params)
    opt = solve_opt(params)
    report = bounds_report(eq, opt, eps=EPS)
    key = game_key(n, w)
    arrays[f"{key}.eq_q"], arrays[f"{key}.eq_cost"] = eq_arrays(eq)
    arrays[f"{key}.opt_p"] = np.array(opt.p)
    arrays[f"{key}.opt_opt"] = np.array(opt.opt)
    out = {
        "n": n,
        "w": w,
        "eq_total": eq.total_cost,
        "opt_total": opt.total_cost,
        "hard_failures": sorted(e.name for e in report.hard_failures),
    }
    if full_check:
        out["verify_passed"] = verify_equilibrium(eq).passed
        out["tce_total"] = total_cost_evaluate(eq.profile, params)[1]
    return out


def main() -> int:
    games, arrays = {}, {}
    t0 = time.perf_counter()
    for size in SIZES:
        for n, w, full_check in game_inputs(size):
            key = game_key(n, w)
            if key not in games or (full_check and "tce_total" not in games[key]):
                games[key] = record(n, w, full_check, arrays)
    meta = {"env": benchenv.record(), "games": games}
    REFERENCE_PATH.parent.mkdir(parents=True, exist_ok=True)
    tmp = REFERENCE_PATH.with_suffix(".tmp.npz")
    np.savez_compressed(tmp, meta=np.array(json.dumps(meta)), **arrays)
    os.replace(tmp, REFERENCE_PATH)
    failing = sorted(k for k, g in games.items() if g["hard_failures"])
    print(
        f"{len(games)} games in {time.perf_counter() - t0:.1f} s -> {REFERENCE_PATH}; "
        f"{len(failing)} fail a hard bound: {', '.join(failing)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
