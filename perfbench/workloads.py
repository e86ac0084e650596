"""The benchmark workloads: generated inputs, timed passes and output checks.

game_w3, game_w100  one game G(150; w) through the calls behind
                    `bneck bounds` and `bneck verify`
sweep_grid          the cells of `bneck sweep --n-range 2:40
                    --w-list 2.5,3,10,1e18`, visited in a seed-shuffled order
sim_mc              `simulate` of the equilibrium and the optimum profile at
                    four (n, w) points, 5,000 trials each, checked against
                    their analytic totals

A pass runs every operation of a workload once.  Each operation is timed
together with its check.  A check returns two lists of problems:
regressions (the operation raised, or its output is off the reference
recorded at the seed commit, or a hard bound fails that passed there) and
known defects (hard bounds that the reference already records as failing).
"""

from __future__ import annotations

import json
import math
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from bneck import (
    EntryProfile,
    GameParams,
    QueueState,
    bounds_report,
    enumerate_states,
    profile_cost_table,
    sc_unrestricted,
    simulate,
    solve_equilibrium,
    solve_opt,
    solve_state,
    total_cost_evaluate,
    verify_equilibrium,
)

from metrics import SIM_POINTS, sim_label
from spans import Tracer, duration

EPS = 0.5  # bounds_report slack, as in `bneck bounds` and `bneck sweep`
REL_TOL = 1e-9
ABS_TOL = 1e-12  # floor for entry probabilities near 0
SIM_Z_MAX = 4.0
REPLAY_PER_STRATUM = 48

SIZES = {
    "full": {"game_n": 150, "sweep_n": (2, 40), "sim_trials": 5_000},
    "tiny": {"game_n": 12, "sweep_n": (2, 6), "sim_trials": 200},
}
GAME_W = {"game_w3": 3.0, "game_w100": 100.0}
SWEEP_WS = (2.5, 3.0, 10.0, 1e18)
NAMES = ("game_w3", "game_w100", "sweep_grid", "sim_mc")

REFERENCE_PATH = Path(__file__).resolve().parent / "data" / "reference.npz"

# span names: the public function each benchmark call goes through
EQ = "eqsolver.solve_equilibrium"
OPT = "optsolver.solve_opt"
BOUNDS = "bounds.bounds_report"
VERIFY = "eqsolver.verify_equilibrium"
TCE = "model.total_cost_evaluate"
PCT = "eqsolver.profile_cost_table"
STATE = "eqsolver.solve_state"
SIM = "sim.simulate"
CHECK = "bench.check"
OP = "bench.op"


# ---------------------------------------------------------------------------
# Reference data


def game_key(n: int, w: float) -> str:
    return f"n{n}_w{w!r}"


def game_inputs(size: str) -> List[Tuple[int, float, bool]]:
    """(n, w, full_check) for every game a workload of this size checks.

    ``full_check`` games also record the verify and total-cost outputs.
    """
    n = SIZES[size]["game_n"]
    games = [(n, w, True) for w in GAME_W.values()]
    return games + [(n, w, False) for n, w in sweep_cells(size)]


def sweep_cells(size: str) -> List[Tuple[int, float]]:
    lo, hi = SIZES[size]["sweep_n"]
    return [(n, w) for n in range(lo, hi + 1) for w in SWEEP_WS]


def eq_arrays(eq) -> Tuple[np.ndarray, np.ndarray]:
    """Entry probability and per-player cost of every state, in solve order."""
    states = enumerate_states(eq.params.n)
    return (
        np.array([eq.profile.q(s) for s in states]),
        np.array([eq.per_player[s] for s in states]),
    )


class Reference:
    """Outputs recorded at the seed commit (see reference.py)."""

    def __init__(self, path: Path = REFERENCE_PATH):
        with np.load(path, allow_pickle=False) as data:
            self.meta = json.loads(str(data["meta"]))
            self._arrays = {k: data[k] for k in data.files if k != "meta"}

    def game(self, n: int, w: float) -> dict:
        key = game_key(n, w)
        out = dict(self.meta["games"][key])
        for name in ("eq_q", "eq_cost", "opt_p", "opt_opt"):
            out[name] = self._arrays[f"{key}.{name}"]
        return out


def off_reference(name: str, got, want) -> List[str]:
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, reference {want.shape}"]
    with np.errstate(invalid="ignore"):
        ok = np.abs(got - want) <= REL_TOL * np.maximum(np.abs(got), np.abs(want)) + ABS_TOL
    ok |= np.isnan(got) & np.isnan(want)
    if ok.all():
        return []
    j = int(np.argmin(ok))
    return [f"{name}: {int((~ok).sum())} values off reference, first [{j}] {got[j]!r} vs {want[j]!r}"]


def check_eq(eq, ref: dict) -> List[str]:
    q, cost = eq_arrays(eq)
    return (
        off_reference("eq total", eq.total_cost, ref["eq_total"])
        + off_reference("eq q", q, ref["eq_q"])
        + off_reference("eq cost", cost, ref["eq_cost"])
    )


def check_opt(opt, ref: dict) -> List[str]:
    return (
        off_reference("opt total", opt.total_cost, ref["opt_total"])
        + off_reference("opt p", opt.p, ref["opt_p"])
        + off_reference("opt stage costs", opt.opt, ref["opt_opt"])
    )


def check_bounds(report, ref: dict) -> Tuple[List[str], List[str]]:
    known = set(ref["hard_failures"])
    failing = {e.name for e in report.hard_failures}
    return (
        [f"hard bound {name} fails" for name in sorted(failing - known)],
        [f"hard bound {name} fails (recorded at the seed)" for name in sorted(failing & known)],
    )


# ---------------------------------------------------------------------------
# Operations


@dataclass
class Op:
    name: str
    latency_s: float
    regressions: List[str]
    known: List[str]


@dataclass
class PassStats:
    eqs: list = field(default_factory=list)
    opt_stages: int = 0
    hard_failures: int = 0
    sim: list = field(default_factory=list)  # (trace id, trials, SimReport, z)
    rows: dict = field(default_factory=dict)  # (n, w) -> `bneck sweep` CSV row


class OpRunner:
    """Runs checked operations, timing each and recording its spans."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.ops: List[Op] = []
        self._trace = ""

    def run(self, trace_id: str, name: str, work: Callable, check: Callable):
        """work() calls into bneck; check(result) -> (regressions, known)."""
        self._trace = trace_id
        t0 = time.perf_counter()
        result = None
        with self.tracer.span(OP, trace_id):
            try:
                result = work()
                with self.tracer.span(CHECK, trace_id):
                    problems = check(result)
            except Exception as exc:  # a raising layer fails this operation only
                traceback.print_exc()
                problems = ([f"{name}: {type(exc).__name__}: {exc}"], [])
        self.ops.append(Op(name, time.perf_counter() - t0, *problems))
        return result

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        with self.tracer.span(layer, self._trace):
            return fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# Workloads


def warm_up():
    """Finish lazy set-up before timing: one small solve, and the allocator.

    glibc serves large blocks with mmap until a freed one raises its
    adaptive threshold; until then every binomial matrix of a big game
    faults its pages in afresh (about 300k minor faults in the first
    G(150; w) solve of a process, against 7k in the next).  Freeing one
    block larger than any solver temporary raises the threshold up front.
    """
    np.ones(1 << 19).sum()
    params = GameParams(6, 3.0)
    bounds_report(solve_equilibrium(params), solve_opt(params), eps=EPS)


class GameWorkload:
    """One game through solve, optimum, bounds, verification and total cost."""

    cell_is_pass = True  # the one game is the cell a user waits for

    def __init__(self, name: str, size: str, seed: int, ref: Reference):
        self.name = name
        self.params = GameParams(SIZES[size]["game_n"], GAME_W[name])
        self.ref = ref.game(self.params.n, self.params.w)

    def run_pass(self, ops: OpRunner, tag: str) -> PassStats:
        p, ref, stats = self.params, self.ref, PassStats()
        tid = f"{self.name}/{tag}/"
        eq = ops.run(
            tid + "eq", "solve_equilibrium",
            lambda: ops.call(EQ, solve_equilibrium, p),
            lambda eq: (check_eq(eq, ref), []),
        )
        opt = ops.run(
            tid + "opt", "solve_opt",
            lambda: ops.call(OPT, solve_opt, p),
            lambda opt: (check_opt(opt, ref), []),
        )

        def bounds_check(report):
            stats.hard_failures += len(report.hard_failures)
            return check_bounds(report, ref)

        ops.run(
            tid + "bounds", "bounds_report",
            lambda: ops.call(BOUNDS, bounds_report, eq, opt, eps=EPS),
            bounds_check,
        )
        ops.run(
            tid + "verify", "verify_equilibrium",
            lambda: ops.call(VERIFY, verify_equilibrium, eq),
            lambda rep: ([] if rep.passed else [f"verify fails at {rep.failing_states[:3]}"], []),
        )
        ops.run(
            tid + "total_cost", "total_cost_evaluate",
            lambda: ops.call(TCE, total_cost_evaluate, eq.profile, p),
            lambda out: (off_reference("total cost", out[1], ref["tce_total"]), []),
        )
        stats.eqs = [eq] if eq is not None else []
        stats.opt_stages = p.n - 1
        return stats


class SweepWorkload:
    """The cells of `bneck sweep`: equilibrium, optimum and bounds per cell."""

    cell_is_pass = False

    def __init__(self, name: str, size: str, seed: int, ref: Reference):
        self.name = name
        self.cells = sweep_cells(size)
        random.Random(seed).shuffle(self.cells)
        self.refs = {cell: ref.game(*cell) for cell in self.cells}

    def run_pass(self, ops: OpRunner, tag: str) -> PassStats:
        stats = PassStats()
        for n, w in self.cells:
            params, ref = GameParams(n, w), self.refs[(n, w)]

            def work(params=params):
                eq = ops.call(EQ, solve_equilibrium, params)
                opt = ops.call(OPT, solve_opt, params)
                return eq, opt, ops.call(BOUNDS, bounds_report, eq, opt, eps=EPS)

            def check(out, ref=ref):
                eq, opt, report = out
                stats.eqs.append(eq)
                stats.rows[(eq.params.n, eq.params.w)] = sweep_row(eq, opt, report)
                stats.hard_failures += len(report.hard_failures)
                regressions, known = check_bounds(report, ref)
                regressions += check_eq(eq, ref)
                if not ref["hard_failures"]:
                    # where the seed already fails a hard bound, its optimum
                    # is the known defect, so only the bounds judge the cell
                    regressions += check_opt(opt, ref)
                return regressions, known

            ops.run(f"{self.name}/{tag}/{n}_{w:g}", "cell", work, check)
            stats.opt_stages += n - 1
        return stats


def sweep_row(eq, opt, report) -> List[str]:
    """The `bneck sweep` CSV row of one cell."""
    n = eq.params.n
    sc = sc_unrestricted(n)

    def num(x: float) -> str:
        return f"{x:.12g}"

    return [
        str(n), num(eq.params.w), eq.policy.value, num(eq.profile.q(QueueState(n, 0))),
        num(eq.per_player_cost), num(eq.total_cost), num(opt.total_cost), num(sc),
        num(eq.total_cost / sc), num(eq.total_cost / opt.total_cost),
        num(opt.total_cost / sc), str(len(report.hard_failures)),
    ]


@dataclass(frozen=True)
class SimCase:
    label: str
    params: GameParams
    profile: EntryProfile
    analytic: float
    seed: int


class SimWorkload:
    """Monte Carlo runs of solved profiles; the profiles are solved in set-up.

    Each case keeps its simulate seed across passes, so repeated passes
    redo the same draws and a run makes one z-test per case.
    """

    cell_is_pass = False

    def __init__(self, name: str, size: str, seed: int):
        self.name = name
        self.trials = SIZES[size]["sim_trials"]
        rng = random.Random(seed)
        self.cases: List[SimCase] = []
        for n, w in SIM_POINTS:
            params = GameParams(n, w)
            eq, opt = solve_equilibrium(params), solve_opt(params)
            opt_profile = EntryProfile.from_empty_queue_probs(opt.p, n)
            for kind, profile, analytic in (
                ("eq", eq.profile, eq.total_cost),
                ("opt", opt_profile, opt.total_cost),
            ):
                self.cases.append(
                    SimCase(sim_label(n, w, kind), params, profile, analytic, rng.getrandbits(32))
                )

    def run_pass(self, ops: OpRunner, tag: str) -> PassStats:
        stats = PassStats()
        for case in self.cases:

            def check(rep, case=case):
                se = rep.std_error
                z = (rep.mean_total - case.analytic) / se if se > 0 else (
                    0.0 if rep.mean_total == case.analytic else math.inf
                )
                tid = f"{self.name}/{tag}/{case.label}"
                stats.sim.append((tid, self.trials, rep, z))
                regressions = []
                if rep.max_steps_hit:
                    regressions.append(f"{case.label}: {rep.max_steps_hit} truncated trials")
                if abs(z) > SIM_Z_MAX:
                    regressions.append(f"{case.label}: mean {rep.mean_total!r} is {z:.2f} SE off {case.analytic!r}")
                return regressions, []

            ops.run(
                f"{self.name}/{tag}/{case.label}", "simulate",
                lambda case=case: ops.call(
                    SIM, simulate, case.profile, case.params, self.trials, seed=case.seed
                ),
                check,
            )
        return stats


def make(name: str, size: str, seed: int):
    """Build a workload's inputs from the seed; loads the reference it checks against."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if name == "sim_mc":
        return SimWorkload(name, size, seed)
    if name == "sweep_grid":
        return SweepWorkload(name, size, seed, Reference())
    return GameWorkload(name, size, seed, Reference())


# ---------------------------------------------------------------------------
# Traced extras: per-state replay and the standalone profile cost table


def replay_states(eqs: list, tracer: Tracer, trace_id: str) -> Dict[str, List[float]]:
    """Re-solve a deterministic, stratified sample of states through solve_state.

    Strata: k0 (empty queue), q0 (k >= 1, nobody enters) and interior
    (k >= 1, 0 < q < 1).  Up to REPLAY_PER_STRATUM states per stratum, evenly
    spaced in solve order, each against its solution's own continuations.
    Returns microseconds per call by stratum.
    """
    strata: Dict[str, list] = {"k0": [], "q0": [], "interior": []}
    for eq in eqs:
        for s in enumerate_states(eq.params.n):
            if s.m < 2:
                continue
            q = eq.profile.q(s)
            if s.k == 0:
                strata["k0"].append((eq, s))
            elif q == 0.0:
                strata["q0"].append((eq, s))
            elif q < 1.0:
                strata["interior"].append((eq, s))
    out: Dict[str, List[float]] = {}
    for stratum, items in strata.items():
        picks = np.unique(np.linspace(0, len(items) - 1, min(len(items), REPLAY_PER_STRATUM)).round().astype(int)) if items else []
        times = []
        for j in picks:
            eq, s = items[j]
            t0 = time.perf_counter()
            with tracer.span(STATE, f"{trace_id}/{stratum}"):
                solve_state(s, eq.params.w, eq.per_player.values, policy=eq.policy)
            times.append((time.perf_counter() - t0) * 1e6)
        out[stratum] = times
    return out


def profile_cost_tables(eqs: list, tracer: Tracer, trace_id: str) -> float:
    """Seconds spent in profile_cost_table over the solved equilibria."""
    total = 0.0
    for eq in eqs:
        with tracer.span(PCT, trace_id):
            t0 = time.perf_counter()
            profile_cost_table(eq.profile, eq.params)
            total += time.perf_counter() - t0
    return total


def sim_case_spans(tracer: Tracer, stats: PassStats) -> Dict[str, float]:
    """Microseconds per trial of each sim case, from its simulate span."""
    by_trace = {s["trace"]: s for s in tracer.spans if s["name"] == SIM}
    return {
        tid.rsplit("/", 1)[1]: duration(by_trace[tid]) / trials * 1e6
        for tid, trials, _, _ in stats.sim
        if tid in by_trace
    }
