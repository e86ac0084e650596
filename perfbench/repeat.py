"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workloads game_w3,sim_mc --seeds 1-5
    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/results/baseline.json

Each run is the command of BENCHMARK.json with --seconds run_seconds.  For
every end-to-end metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median next
to a third of the metric's bound.  Runs go one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(spec: str):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - t0
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="all")
    p.add_argument("--seeds", default="1-10", help="A-B inclusive")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="write runs and summary as JSON here")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads != "all":
        names = args.workloads.split(",")
    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in table}
    report = {"seeds": seed_list(args.seeds), "trace": args.trace, "workloads": {}}
    steady = True
    for name in names:
        runs = [one_run(spec, name, seed, args.trace) for seed in report["seeds"]]
        summary = {}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            summary[metric] = summarise(values) if len(values) >= 2 else {"median": values[0]}
        report["workloads"][name] = {"runs": runs, "summary": summary}
        print(f"{name}: {len(runs)} runs, attempted {sum(r['attempted'] for r in runs)}, "
              f"failed {sum(r['failed'] for r in runs)}, all correct {all(r['correct'] for r in runs)}, "
              f"longest run {max(r['elapsed_s'] for r in runs):.1f} s")
        for metric, s in summary.items():
            bound, spread = bounds[metric], s.get("spread")
            ok = bound is None or spread is None or metric == "setup_s" or spread < bound / 3
            steady &= ok
            limit = f" (bound/3 {bound / 3:.4f})" if bound else ""
            spread_txt = f"{spread:.4f}" if spread is not None else "-"
            print(f"  {metric:40s} median {s['median']:<14.6g} spread {spread_txt}{limit}"
                  f"{'' if ok else '  <-- too wide'}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
