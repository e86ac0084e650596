"""Command-line interface: solve, optimize, simulate, bound-check, sweep, verify.

Exit codes: 0 success, 1 bound or verification failure, 2 bad input,
3 internal solver inconsistency.  All commands are deterministic given
their flags (simulation through its seed).  JSON outputs validate against
``schemas/output.schema.json`` shipped inside the package.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import bounds as bounds_mod
from .eqsolver import (
    EquilibriumSolution,
    InternalInconsistencyError,
    RootPolicy,
    solve_equilibrium,
    verify_equilibrium,
    verify_profile,
)
from .model import (
    CostRole,
    CostTable,
    DivergentCostError,
    EntryProfile,
    GameParams,
    InvalidParameterError,
    NonTerminatingProfileError,
    QueueState,
    _dense_q,
    enumerate_states,
)
from .optsolver import OptSolution, sc_unrestricted, solve_opt
from .sim import simulate

__all__ = [
    "main",
    "profile_document",
    "load_profile_document",
    "SWEEP_COLUMNS",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3

SWEEP_COLUMNS = [
    "n",
    "w",
    "policy",
    "q_n0",
    "eq_cost_per_player",
    "eq_cost_total",
    "opt_cost_total",
    "sc_unrestricted",
    "ratio_eq_sc",
    "ratio_eq_opt",
    "ratio_opt_sc",
    "hard_bound_failures",
]

_POLICIES = {
    "smallest": RootPolicy.SMALLEST_Q,
    "largest": RootPolicy.LARGEST_Q,
    "smallest_q": RootPolicy.SMALLEST_Q,
    "largest_q": RootPolicy.LARGEST_Q,
}


def _num(x: float) -> str:
    return f"{x:.12g}"


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    return _num(v) if isinstance(v, float) else str(v)


# ---------------------------------------------------------------------------
# Profile documents


def profile_document(profile: EntryProfile, params: GameParams) -> dict:
    entries = [
        {"m": s.m, "k": s.k, "q": profile.q(s)} for s in enumerate_states(params.n)
    ]
    return {"n": params.n, "w": params.w, "entries": entries}


def _reject_unknown(obj: dict, allowed: set, what: str):
    unknown = set(obj) - allowed
    if unknown:
        raise InvalidParameterError(f"unknown fields in {what}: {sorted(unknown)}")


def _integer(value, name: str) -> int:
    """A JSON integer field: an int, or a float with no fractional part; not a bool."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise InvalidParameterError(f"profile field {name} must be an integer, got {value!r}")


def _number(value, name: str) -> float:
    """A JSON number field: a float, or an int in the float range; not a bool."""
    if type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max):
        return float(value)
    raise InvalidParameterError(f"profile field {name} must be a number, got {value!r}")


def parse_profile_document(doc: dict) -> Tuple[EntryProfile, GameParams]:
    if not isinstance(doc, dict):
        raise InvalidParameterError("profile document must be a JSON object")
    _reject_unknown(doc, {"n", "w", "entries"}, "profile document")
    try:
        params = GameParams(_integer(doc["n"], "n"), _number(doc["w"], "w"))
        raw = doc["entries"]
    except KeyError as exc:
        raise InvalidParameterError(f"profile document missing field {exc}") from exc
    if not isinstance(raw, list):
        raise InvalidParameterError("entries must be a list")
    entries: Dict[QueueState, float] = {}
    for item in raw:
        if not isinstance(item, dict):
            raise InvalidParameterError("profile entries must be objects")
        _reject_unknown(item, {"m", "k", "q"}, "profile entry")
        try:
            state = QueueState(_integer(item["m"], "m"), _integer(item["k"], "k"))
            q = _number(item["q"], "q")
        except KeyError as exc:
            raise InvalidParameterError(f"profile entry missing field {exc}") from exc
        if state in entries:
            raise InvalidParameterError(f"duplicate profile entry for {state}")
        if state.m < 1 or state.total > params.n:
            raise InvalidParameterError(f"state {state} outside game with n={params.n}")
        entries[state] = q
    profile = EntryProfile(entries)
    _dense_q(profile, params.n)  # rejects a profile lacking a state of the game
    return profile, params


def load_profile_document(path: str) -> Tuple[EntryProfile, GameParams]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_profile_document(json.load(fh))


# ---------------------------------------------------------------------------
# Output helpers


def _write(text: str, out: Optional[str]):
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _json_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Commands


def _eq_document(sol: EquilibriumSolution, grid: int, tol: float) -> dict:
    n = sol.params.n
    states = enumerate_states(n)
    return {
        "command": "eq",
        "n": n,
        "w": sol.params.w,
        "policy": sol.policy.value,
        "grid_points": grid,
        "tol": tol,
        "profile": profile_document(sol.profile, sol.params),
        "per_player_costs": [
            {"m": s.m, "k": s.k, "cost": sol.per_player[s]} for s in states
        ],
        "per_player_cost": sol.per_player_cost,
        "total_cost": sol.total_cost,
        "diagnostics": [
            {
                "m": s.m,
                "k": s.k,
                "roots": sol.diagnostics[s].root_count,
                "residual": sol.diagnostics[s].residual,
            }
            for s in states
        ],
    }


def cmd_eq(args) -> int:
    params = GameParams(args.n, args.w)
    if args.n < 2:
        raise InvalidParameterError("eq requires n >= 2")
    sol = solve_equilibrium(params, _POLICIES[args.policy], args.grid, args.tol)
    if args.profile_out:
        _write(_json_text(profile_document(sol.profile, params)), args.profile_out)
    if args.format == "json":
        _write(_json_text(_eq_document(sol, args.grid, args.tol)), args.out)
    else:
        rows = [
            [_csv_cell(v) for v in (args.n, args.w, s.m, s.k, sol.profile.q(s), sol.per_player[s])]
            for s in enumerate_states(args.n)
        ]
        _write(_csv_text(["n", "w", "m", "k", "q", "cost"], rows), args.out)
    return EXIT_OK


def cmd_opt(args) -> int:
    params = GameParams(args.n, args.w)
    sol = solve_opt(params, args.grid, args.tol)
    if args.profile_out:
        profile = EntryProfile.from_empty_queue_probs(sol.p, args.n)
        _write(_json_text(profile_document(profile, params)), args.profile_out)
    if args.format == "json":
        doc = {
            "command": "opt",
            "n": args.n,
            "w": args.w,
            "grid_points": args.grid,
            "tol": args.tol,
            "p": list(sol.p[1:]),
            "opt": list(sol.opt),
            "total_cost": sol.total_cost,
        }
        _write(_json_text(doc), args.out)
    else:
        rows = [
            [str(args.n), _num(args.w), str(m), _num(sol.p[m]), _num(sol.opt[m])]
            for m in range(1, args.n + 1)
        ]
        _write(_csv_text(["n", "w", "m", "p", "opt"], rows), args.out)
    return EXIT_OK


def cmd_sim(args) -> int:
    if (args.profile is None) == (args.from_eq is None):
        raise InvalidParameterError("pass exactly one of --profile or --from-eq")
    if args.profile is not None:
        profile, params = load_profile_document(args.profile)
    else:
        n, w = int(args.from_eq[0]), float(args.from_eq[1])
        params = GameParams(n, w)
        profile = solve_equilibrium(params).profile
    if profile.min_empty_queue_prob(params.n) <= 0.0:
        raise NonTerminatingProfileError(
            "non-terminating profile: zero entry probability at an empty queue"
        )
    report = simulate(profile, params, args.trials, args.seed, args.max_steps)
    fields = {
        "n": params.n,
        "w": params.w,
        "trials": report.trials,
        "seed": report.seed,
        "mean_total": report.mean_total,
        "std_error": report.std_error,
        "per_agent_mean": report.per_agent_mean,
        "max_steps_hit": report.max_steps_hit,
    }
    if args.format == "json":
        _write(_json_text({"command": "sim", **fields}), args.out)
    else:
        _write(_csv_text(list(fields), [[_csv_cell(v) for v in fields.values()]]), args.out)
    if report.max_steps_hit == report.trials:
        # no trial finished: mean_total sums truncated trials and means nothing
        print(
            f"error: all {report.trials} trials hit the step limit; mean_total is not an estimate",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _bounds_document(report) -> dict:
    return {
        "command": "bounds",
        "n": report.params.n,
        "w": report.params.w,
        "eps": report.eps_used,
        "entries": [dataclasses.asdict(e) for e in report.entries],
        "ratios": report.ratios,
        "hard_failures": len(report.hard_failures),
        "passed": report.passed,
    }


def cmd_bounds(args) -> int:
    params = GameParams(args.n, args.w)
    bounds_mod._check_eps(args.eps)
    eq = solve_equilibrium(params, _POLICIES[args.policy])
    report = bounds_mod.bounds_report(eq, solve_opt(params), args.eps)
    if args.format == "json":
        _write(_json_text(_bounds_document(report)), args.out)
    else:
        columns = ["name", "bound", "observed", "direction", "passed", "advisory"]
        rows = [
            [str(args.n), _num(args.w)] + [_csv_cell(getattr(e, c)) for c in columns]
            for e in report.entries
        ]
        _write(_csv_text(["n", "w", *columns], rows), args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _parse_range(spec: str) -> List[int]:
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise InvalidParameterError(f"range must be A:B or A:B:step, got {spec!r}")
    a, b = int(parts[0]), int(parts[1])
    step = int(parts[2]) if len(parts) == 3 else 1
    if step < 1 or b < a:
        raise InvalidParameterError(f"bad range {spec!r}")
    return list(range(a, b + 1, step))


def _sweep_row(
    big_eq: EquilibriumSolution,
    big_opt: OptSolution,
    heuristics: Dict[str, List[float]],
    n: int,
    eps: float,
) -> List[str]:
    """The row of G(n; w), read off solutions of a larger G(N; w): exact by the prefix property.

    ``heuristics`` is ``bounds._heuristic_totals(N, w)``.
    """
    params = GameParams(n, big_eq.params.w)
    eq = EquilibriumSolution(
        params=params,
        profile=EntryProfile(big_eq.profile.entries.dense(n)),
        per_player=CostTable(CostRole.PER_OUTSIDE_PLAYER, big_eq.per_player.values.dense(n)),
        policy=big_eq.policy,
        diagnostics=big_eq.diagnostics.prefix(n),
    )
    opt = OptSolution(params, big_opt.p[: n + 1], big_opt.opt[: n + 1])
    report = bounds_mod._bounds_report(eq, opt, eps, bounds_mod.DEFAULT_REL_TOL, heuristics)
    return [
        str(n),
        _num(params.w),
        eq.policy.value,
        _num(eq.profile.q(QueueState(n, 0))),
        _num(eq.per_player_cost),
        _num(eq.total_cost),
        _num(opt.total_cost),
        _num(sc_unrestricted(n)),
        _num(report.ratios["ratio_eq_sc"]),
        _num(report.ratios["ratio_eq_opt"]),
        _num(report.ratios["ratio_opt_sc"]),
        str(len(report.hard_failures)),
    ]


def cmd_sweep(args) -> int:
    ns = _parse_range(args.n_range)
    ws = [float(x) for x in args.w_list.split(",") if x]
    if min(ns) < 2:
        raise InvalidParameterError("sweep requires n >= 2")
    if not ws:
        raise InvalidParameterError(f"--w-list names no w: {args.w_list!r}")
    bounds_mod._check_eps(args.eps)
    # each distinct w is solved once, at the largest n; every w is checked first
    games = [GameParams(max(ns), w) for w in dict.fromkeys(ws)]
    columns: Dict[float, List[List[str]]] = {}
    for params in games:
        eq, opt = solve_equilibrium(params, _POLICIES[args.policy]), solve_opt(params)
        heuristics = bounds_mod._heuristic_totals(params.n, params.w)
        columns[params.w] = [_sweep_row(eq, opt, heuristics, n, args.eps) for n in ns]
    rows = [columns[w][i] for i in range(len(ns)) for w in ws]
    _write(_csv_text(SWEEP_COLUMNS, rows), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    params = GameParams(args.n, args.w)
    if args.n < 2:
        raise InvalidParameterError("verify requires n >= 2")
    lines: List[str] = []
    ok = True
    if args.profile:
        profile, file_params = load_profile_document(args.profile)
        if (file_params.n, file_params.w) != (params.n, params.w):
            raise InvalidParameterError(
                f"profile file is for (n={file_params.n}, w={file_params.w}), "
                f"flags say (n={params.n}, w={params.w})"
            )
        report = verify_profile(profile, params)
    else:
        report = verify_equilibrium(solve_equilibrium(params))
    status = "PASS" if report.passed else "FAIL"
    lines.append(
        f"[{status}] equilibrium conditions: worst residual {report.worst_residual:.3e}"
    )
    for check in report._failed_checks():
        lines.append(f"    state ({check.state.m},{check.state.k}): {check.reason}")
    ok &= report.passed

    lemmas = bounds_mod.aux_lemma_validators(args.samples, args.seed)
    for name, res in sorted(lemmas.items()):
        lines.append(
            f"[{'PASS' if res.passed else 'FAIL'}] lemma {name}: {res.checked} cases"
        )
        ok &= res.passed

    for phi in (bounds_mod.phi_harmonic(args.w), bounds_mod.phi_sqrt(args.w, 1.0)):
        res = bounds_mod.nice_function_check(phi, args.nmax)
        lines.append(f"[{'PASS' if res.passed else 'FAIL'}] nice bound {phi.name}")
        ok &= res.passed

    _write("\n".join(lines), args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bneck",
        description="Solvers, bounds and simulation for the observable-queue bottleneck game",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, policy=True):
        p.add_argument("--n", type=int, required=True, help="number of agents")
        p.add_argument("--w", type=float, required=True, help="in-queue waiting cost (> 1)")
        if policy:
            p.add_argument(
                "--policy",
                choices=sorted(_POLICIES),
                default="smallest",
                help="root selection when a state has several equilibria",
            )
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("eq", help="solve a symmetric equilibrium")
    common(p)
    p.add_argument("--grid", type=int, default=512, help="sign-scan grid points")
    p.add_argument("--tol", type=float, default=1e-12, help="bisection tolerance")
    p.add_argument("--profile-out", default=None, help="also write the bare profile here")
    p.set_defaults(fn=cmd_eq)

    p = sub.add_parser("opt", help="solve the optimal symmetric profile")
    common(p, policy=False)
    p.add_argument("--grid", type=int, default=2048, help="stage-scan grid points")
    p.add_argument("--tol", type=float, default=1e-10, help="golden-section tolerance")
    p.add_argument("--profile-out", default=None, help="also write the bare profile here")
    p.set_defaults(fn=cmd_opt)

    p = sub.add_parser("sim", help="Monte Carlo simulation of a profile")
    p.add_argument("--profile", default=None, help="profile document (JSON)")
    p.add_argument(
        "--from-eq", nargs=2, metavar=("N", "W"), default=None, help="simulate the equilibrium of G(n; w)"
    )
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sim)

    p = sub.add_parser("bounds", help="bound and ratio report for one game")
    common(p)
    p.add_argument(
        "--eps", type=float, default=0.5, help="slack for advisory bounds (finite, > 0)"
    )
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("sweep", help="CSV sweep over n and w")
    p.add_argument("--n-range", required=True, help="A:B or A:B:step, inclusive")
    p.add_argument("--w-list", required=True, help="comma-separated w values")
    p.add_argument(
        "--policy", choices=sorted(_POLICIES), default="smallest"
    )
    p.add_argument(
        "--eps", type=float, default=0.5, help="slack for advisory bounds (finite, > 0)"
    )
    p.add_argument("--out", default=None, help="output CSV file (default stdout)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify", help="verify equilibrium conditions and inequalities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nmax", type=int, default=100, help="range for nice-bound checks")
    p.add_argument("--profile", default=None, help="verify this profile document instead")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    # ValueError covers InvalidParameterError, NonTerminatingProfileError and JSONDecodeError
    except (ValueError, DivergentCostError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
