"""Benchmark command for bneck: one workload per process, checked outputs.

    python3 perfbench/run.py --workload game_w3 --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): game_w3, game_w100, sweep_grid, sim_mc.

With ``--trace 0`` the run sets up (import, inputs, reference data, one
small warm-up solve), then repeats passes over the workload while the next
pass is expected to end within ``--seconds``, at least once.  It prints the
end-to-end metrics:

    setup_s      median over seven set-ups: this process and six child
                 processes started with --setup-only
    wall_s       median wall time of a pass, checks included
    cell_p50_s,  median and 90th percentile over the cells of a pass of each
    cell_p90_s   cell's median latency across passes; a cell is one checked
                 answer a user waits for: a sweep cell, the whole game in
                 game_w*, a simulate case in sim_mc
    peak_rss_mb  peak resident set size of this process

``attempted`` and ``failed`` count operations: a sweep cell, one of the
five calls of a game pass, or a simulate case.

With ``--trace 1`` it runs one untraced and one traced pass, then, under
trace ids of their own, replays a sample of states through solve_state and
calls profile_cost_table on every solved equilibrium, and prints the
per-layer metrics (PER_LAYER in metrics.py).  Spans go to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  ``failed`` counts regressions:
operations that raised, whose output is off the reference recorded at the
seed commit, or that fail a hard bound that passed there.  Hard bounds the
reference already records as failing (sweep cells at w = 1e18) are known
defects; they do not count in ``failed`` but do in the traced run's
fail_frac and bounds.hard_failures.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import benchenv  # noqa: E402
from metrics import END_TO_END, PER_LAYER, SIM_LABELS  # noqa: E402

SETUP_REPEATS = 7
OUT_DIR = Path(__file__).resolve().parent / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    p.add_argument("--setup-only", action="store_true", help="set up, print setup_s and exit")
    return p.parse_args(argv)


def child_setup_s(args) -> float:
    cmd = [
        sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--setup-only",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def run_pass(wl, traced: bool, index: int):
    from spans import Tracer
    from workloads import OpRunner

    ops = OpRunner(Tracer(traced))
    t = time.perf_counter()
    stats = wl.run_pass(ops, f"p{index}")
    return time.perf_counter() - t, ops, stats


def solution_counts(eqs) -> dict:
    from bneck import enumerate_states

    solved = q0 = interior = all_enter = 0
    max_roots, worst = 0, 0.0
    for eq in eqs:
        for s in enumerate_states(eq.params.n):
            if s.m < 2:
                continue
            q = eq.profile.q(s)
            d = eq.diagnostics[s]
            solved += 1
            q0 += q == 0.0
            interior += 0.0 < q < 1.0
            all_enter += q == 1.0
            max_roots = max(max_roots, d.root_count)
            worst = max(worst, abs(d.residual))
    return {
        "eqsolver.states_solved": solved,
        "eqsolver.states_q0": q0,
        "eqsolver.states_interior": interior,
        "eqsolver.states_all_enter": all_enter,
        "eqsolver.interior_share": interior / solved if solved else 0.0,
        "eqsolver.max_root_count": max_roots,
        "eqsolver.worst_residual": worst,
    }


def layer_metrics(wl, untraced_wall: float, traced):
    """Per-layer metrics of the traced pass, plus the pass spans and the extra spans."""
    import workloads as W
    from spans import self_time_by_name

    wall, ops, stats = traced
    tracer = ops.tracer
    pass_spans = list(tracer.spans)
    own = self_time_by_name(pass_spans)
    replay = W.replay_states(stats.eqs, tracer, f"{wl.name}/replay")
    pct_s = W.profile_cost_tables(stats.eqs, tracer, f"{wl.name}/profile_cost_table")
    opt_s = own.get(W.OPT, 0.0)
    per_trial = W.sim_case_spans(tracer, stats)
    m = {
        "eqsolver.solve_equilibrium_s": own.get(W.EQ, 0.0),
        **{
            f"eqsolver.solve_state_us.{stratum}.{name}": percentile(replay.get(stratum, []), q)
            for stratum in ("k0", "q0", "interior")
            for name, q in (("p50", 50), ("p90", 90))
        },
        **solution_counts(stats.eqs),
        "eqsolver.verify_equilibrium_s": own.get(W.VERIFY, 0.0),
        "eqsolver.profile_cost_table_s": pct_s,
        "model.total_cost_evaluate_s": own.get(W.TCE, 0.0),
        "optsolver.solve_opt_s": opt_s,
        "optsolver.stage_us": opt_s / stats.opt_stages * 1e6 if stats.opt_stages else 0.0,
        "bounds.bounds_report_s": own.get(W.BOUNDS, 0.0),
        "bounds.hard_failures": stats.hard_failures,
        "sim.simulate_s": own.get(W.SIM, 0.0),
        **{f"sim.us_per_trial.{label}": per_trial.get(label, 0.0) for label in SIM_LABELS},
        "sim.max_steps_hit": sum(rep.max_steps_hit for _, _, rep, _ in stats.sim),
        "sim.z_max": max((abs(z) for _, _, _, z in stats.sim), default=0.0),
        "bench.check_s": own.get(W.CHECK, 0.0),
        "fail_frac": sum(bool(o.regressions or o.known) for o in ops.ops) / len(ops.ops),
        "trace.self_sum_s": sum(own.values()),
        "trace.overhead_s": wall - untraced_wall,
    }
    return m, pass_spans, tracer.spans[len(pass_spans):]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        benchenv.prepare()
    except benchenv.MissingSourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.make(args.workload, args.size, args.seed)
    workloads.warm_up()
    own_setup = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    # setup_s is an end-to-end metric, so only the untraced run repeats set-up
    repeats = 0 if args.trace else SETUP_REPEATS - 1
    setups = [own_setup] + [child_setup_s(args) for _ in range(repeats)]

    # Each pass starts from a collected heap, and only the traced pass keeps
    # its solutions: live results of earlier passes would slow later ones.
    walls, all_ops = [], []
    cells = defaultdict(list)  # position in the pass -> latency in each pass
    start = time.perf_counter()
    while True:
        gc.collect()
        wall, runner = run_pass(wl, False, len(walls))[:2]
        walls.append(wall)
        all_ops += runner.ops
        for i, latency in enumerate([wall] if wl.cell_is_pass else [op.latency_s for op in runner.ops]):
            cells[i].append(latency)
        if args.trace or time.perf_counter() - start + wall > args.seconds:
            break
    if args.trace:
        gc.collect()
        traced = run_pass(wl, True, len(walls))
        all_ops += traced[1].ops

    regressions = [(op.name, p) for op in all_ops for p in op.regressions]
    known = sum(bool(op.known) for op in all_ops)
    failed = sum(bool(op.regressions) for op in all_ops)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": benchenv.record(),
        "passes": len(walls) + args.trace,
        "operations": dict(Counter(op.name for op in all_ops)),
        "cell_samples": sum(len(v) for v in cells.values()),
        "setups_s": setups,
        "pass_walls_s": walls + ([traced[0]] if args.trace else []),
        "regressions": regressions[:50],
        "known_defect_operations": known,
    }
    if args.trace:
        values, pass_spans, extra_spans = layer_metrics(wl, walls[0], traced)
        units = PER_LAYER
        record["spans"] = pass_spans + extra_spans
    else:
        cell_latency = [statistics.median(v) for v in cells.values()]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "cell_p50_s": percentile(cell_latency, 50),
            "cell_p90_s": percentile(cell_latency, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    record["metrics"] = values

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    for name, problem in regressions[:20]:
        print(f"# FAILED {name}: {problem}")
    if known:
        print(f"# known defect: {known} of {len(all_ops)} operations fail a hard bound "
              "that already fails at the seed commit")
    print("# env " + json.dumps({k: record[k] for k in ("env", "passes", "operations", "cell_samples", "seed")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
