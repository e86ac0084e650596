"""One-shot layer report: the layer table of the ROADMAP north star.

Times solve_equilibrium, solve_opt, total_cost_evaluate and
verify_equilibrium once each at n = 100 and n = 200, w = 3, one thread.
Not a workload: the n = 200 calls take about half a minute, so it is
run by hand next to the baseline runs.

    python3 perfbench/layer_report.py --out perfbench/results/layer_report.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import benchenv

benchenv.prepare()

from bneck import (  # noqa: E402
    GameParams,
    solve_equilibrium,
    solve_opt,
    total_cost_evaluate,
    verify_equilibrium,
)


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--n", type=int, nargs="+", default=[100, 200])
    p.add_argument("--w", type=float, default=3.0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    rows = []
    for n in args.n:
        params = GameParams(n, args.w)
        eq, t_eq = timed(solve_equilibrium, params)
        _, t_opt = timed(solve_opt, params)
        _, t_tce = timed(total_cost_evaluate, eq.profile, params)
        report, t_verify = timed(verify_equilibrium, eq)
        if not report.passed:
            print(f"error: verify_equilibrium fails at n={n}", file=sys.stderr)
            return 1
        rows.append({
            "n": n, "w": args.w, "solve_equilibrium_s": t_eq, "solve_opt_s": t_opt,
            "total_cost_evaluate_s": t_tce, "verify_equilibrium_s": t_verify,
        })
    layers = ("solve_equilibrium_s", "solve_opt_s", "total_cost_evaluate_s", "verify_equilibrium_s")
    print("| layer | " + " | ".join(f"n = {r['n']}" for r in rows) + " |")
    print("|---|" + "---|" * len(rows))
    for layer in layers:
        print(f"| `{layer[:-2]}` | " + " | ".join(f"{r[layer]:.2f} s" for r in rows) + " |")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({"env": benchenv.record(), "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
