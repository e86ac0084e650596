"""Names and units of the metrics run.py prints; BENCHMARK.json lists the same.

Kept free of numpy so that it can be imported before the thread pins are set.
"""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cell_p50_s": "s",
    "cell_p90_s": "s",
    "peak_rss_mb": "MB",
}

SIM_POINTS = ((2, 8.0), (3, 10.0), (5, 100.0), (20, 10.0))


def sim_label(n: int, w: float, kind: str) -> str:
    return f"{n}_{w:g}_{kind}"


SIM_LABELS = [sim_label(n, w, kind) for n, w in SIM_POINTS for kind in ("eq", "opt")]

PER_LAYER = {
    "eqsolver.solve_equilibrium_s": "s",
    **{
        f"eqsolver.solve_state_us.{stratum}.{pct}": "us"
        for stratum in ("k0", "q0", "interior")
        for pct in ("p50", "p90")
    },
    "eqsolver.states_solved": "count",
    "eqsolver.states_q0": "count",
    "eqsolver.states_interior": "count",
    "eqsolver.states_all_enter": "count",
    "eqsolver.interior_share": "ratio",
    "eqsolver.max_root_count": "count",
    "eqsolver.worst_residual": "cost",
    "eqsolver.verify_equilibrium_s": "s",
    "eqsolver.profile_cost_table_s": "s",
    "model.total_cost_evaluate_s": "s",
    "optsolver.solve_opt_s": "s",
    "optsolver.stage_us": "us",
    "bounds.bounds_report_s": "s",
    "bounds.hard_failures": "count",
    "sim.simulate_s": "s",
    **{f"sim.us_per_trial.{label}": "us" for label in SIM_LABELS},
    "sim.max_steps_hit": "count",
    "sim.z_max": "SE",
    "bench.check_s": "s",
    "fail_frac": "ratio",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
}
