"""Self-checks of the benchmark: contract, smoke runs, CLI equivalence, checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import benchenv  # noqa: E402

benchenv.prepare()

import run  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer, self_time_by_name, self_times  # noqa: E402

from bneck import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench_run(*args, cwd=ROOT):
    cmd = [sys.executable, str(BENCH / "run.py") if cwd == ROOT else "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"][1] == "perfbench/run.py"
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(W.NAMES)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    seen = set(names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert m["name"] not in seen
        seen.add(m["name"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", W.NAMES)
def test_tiny_smoke_run(workload, trace):
    out = bench_run("--workload", workload, "--seed", "5", "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in table}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif workload == "sim_mc":
        per_trial = {k: v for k, v in result["metrics"].items() if k.startswith("sim.us_per_trial.")}
        assert len(per_trial) == 8 and all(v["value"] > 0 for v in per_trial.values())


def test_traced_self_times_add_up_to_the_traced_pass():
    wl = W.make("game_w3", "tiny", 1)
    wall, ops, stats = run.run_pass(wl, True, 0)
    metrics, spans, _ = run.layer_metrics(wl, wall, (wall, ops, stats))
    assert {s["trace"].rsplit("/", 1)[1] for s in spans} == {
        "eq", "opt", "bounds", "verify", "total_cost"
    }
    layers = [W.EQ, W.OPT, W.BOUNDS, W.VERIFY, W.TCE]
    assert all(metrics[f"{name}_s"] > 0 for name in layers)
    assert metrics["trace.self_sum_s"] == pytest.approx(wall, rel=0.05)
    assert metrics["eqsolver.states_solved"] == 12 * 11 // 2


def test_sweep_rows_equal_cli_sweep(tmp_path):
    path = tmp_path / "sweep.csv"
    ws = ",".join(repr(w) for w in W.SWEEP_WS)
    assert cli.main(["sweep", "--n-range", "2:6", "--w-list", ws, "--out", str(path)]) == 0
    with path.open() as fh:
        reader = csv.reader(fh)
        assert next(reader) == cli.SWEEP_COLUMNS
        cli_rows = list(reader)
    wl = W.make("sweep_grid", "tiny", 11)
    stats = wl.run_pass(W.OpRunner(Tracer(False)), "p0")
    lib_rows = [stats.rows[(n, w)] for n, w in W.sweep_cells("tiny")]
    assert len(cli_rows) == len(wl.cells) == 20
    assert lib_rows == cli_rows


def test_sweep_flags_the_known_large_w_defect():
    wl = W.make("sweep_grid", "tiny", 2)
    ops = W.OpRunner(Tracer(False))
    wl.run_pass(ops, "p0")
    by_w = {}
    for (n, w), op in zip(wl.cells, ops.ops):
        assert not op.regressions, op.regressions
        by_w.setdefault(w, []).append(bool(op.known))
    assert all(by_w[1e18]) and not any(any(v) for w, v in by_w.items() if w != 1e18)


def test_checks_catch_a_small_deviation():
    wl = W.make("game_w3", "tiny", 1)
    ref = dict(wl.ref)
    ref["eq_total"] *= 1 + 1e-8
    ref["eq_q"] = ref["eq_q"].copy()
    ref["eq_q"][-2] += 1e-7
    wl.ref = ref
    ops = W.OpRunner(Tracer(False))
    wl.run_pass(ops, "p0")
    problems = [p for op in ops.ops for p in op.regressions]
    assert any(p.startswith("eq total") for p in problems)
    assert any(p.startswith("eq q") for p in problems)
    assert not W.off_reference("x", [0.5, 2.0], [0.5 * (1 + 5e-10), 2.0])


def test_sim_check_rejects_a_wrong_analytic_total():
    wl = W.make("sim_mc", "tiny", 3)
    case = wl.cases[0]
    wl.cases = [W.SimCase(case.label, case.params, case.profile, case.analytic * 1.5, case.seed)]
    ops = W.OpRunner(Tracer(False))
    wl.run_pass(ops, "p0")
    assert ops.ops[0].regressions and "SE off" in ops.ops[0].regressions[0]


def test_self_times_subtract_children():
    spans = [
        {"id": 0, "name": "op", "trace": "t", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "trace": "t", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "trace": "t", "parent": 0, "start": 4.0, "end": 9.0},
        {"id": 3, "name": "a", "trace": "t", "parent": 2, "start": 5.0, "end": 6.0},
    ]
    assert self_times(spans) == {0: 2.0, 1: 3.0, 2: 4.0, 3: 1.0}
    assert self_time_by_name(spans) == {"op": 2.0, "a": 4.0, "b": 4.0}


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench_run("--workload", "game_w3", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
