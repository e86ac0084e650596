import csv
import io
import json
import math
from importlib import resources

import pytest

from bneck.cli import (
    EXIT_BAD_INPUT,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    SWEEP_COLUMNS,
    main,
    parse_profile_document,
    profile_document,
)
from bneck import bounds as bounds_mod
from bneck.bounds import bounds_report
from bneck import eqsolver
from bneck.eqsolver import RootPolicy, StateCheck, solve_equilibrium
from bneck.model import GameParams, InvalidParameterError, QueueState
from bneck.optsolver import sc_unrestricted, solve_opt


@pytest.fixture(scope="module")
def schema():
    jsonschema = pytest.importorskip("jsonschema")
    with resources.files("bneck").joinpath("schemas/output.schema.json").open() as fh:
        doc = json.load(fh)
    return jsonschema.Draft202012Validator(doc)


def run(args, tmp_path, name="out"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


class TestEq:
    def test_csv_has_state_rows(self, tmp_path):
        code, text = run(["eq", "--n", "3", "--w", "10", "--format", "csv"], tmp_path)
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 6
        last = rows[-1]
        assert (last["m"], last["k"]) == ("3", "0")
        assert float(last["q"]) == pytest.approx(0.36402069239437449, abs=1e-9)

    def test_json_matches_schema(self, tmp_path, schema):
        code, text = run(["eq", "--n", "2", "--w", "8", "--format", "json"], tmp_path)
        assert code == EXIT_OK
        doc = json.loads(text)
        schema.validate(doc)
        assert doc["total_cost"] == pytest.approx(4.0, rel=1e-9)
        assert doc["profile"]["n"] == 2
        schema.validate(doc["profile"])

    def test_small_w(self, tmp_path):
        code, text = run(["eq", "--n", "3", "--w", "1.5", "--format", "json"], tmp_path)
        doc = json.loads(text)
        assert doc["total_cost"] == pytest.approx(4.5)
        by_state = {(e["m"], e["k"]): e["q"] for e in doc["profile"]["entries"]}
        assert by_state[(3, 0)] == 1.0 and by_state[(2, 0)] == 1.0

    def test_bad_input(self, tmp_path):
        assert main(["eq", "--n", "1", "--w", "8"]) == EXIT_BAD_INPUT
        assert main(["eq", "--n", "3", "--w", "0.5"]) == EXIT_BAD_INPUT


class TestOpt:
    def test_json(self, tmp_path, schema):
        code, text = run(["opt", "--n", "2", "--w", "8", "--format", "json"], tmp_path)
        assert code == EXIT_OK
        doc = json.loads(text)
        schema.validate(doc)
        assert doc["p"][1] == pytest.approx(0.410426, abs=1e-5)
        assert doc["total_cost"] == pytest.approx(3.872983, abs=1e-5)

    def test_n1(self, tmp_path):
        code, text = run(["opt", "--n", "1", "--w", "5", "--format", "json"], tmp_path)
        assert code == EXIT_OK
        assert json.loads(text)["total_cost"] == 0.0

    def test_csv_shape(self, tmp_path):
        code, text = run(["opt", "--n", "5", "--w", "100", "--format", "csv"], tmp_path)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 5
        opts = [float(r["opt"]) for r in rows]
        assert all(b > a for a, b in zip(opts, opts[1:]))


class TestSim:
    def test_from_eq(self, tmp_path, schema):
        code, text = run(
            ["sim", "--from-eq", "2", "8", "--trials", "20000", "--seed", "7"], tmp_path
        )
        assert code == EXIT_OK
        doc = json.loads(text)
        schema.validate(doc)
        assert abs(doc["mean_total"] - 4.0) <= 3 * doc["std_error"]
        assert doc["max_steps_hit"] == 0

    def test_deterministic_output(self, tmp_path):
        args = ["sim", "--from-eq", "3", "10", "--trials", "2000", "--seed", "9"]
        _, a = run(args, tmp_path, "a")
        _, b = run(args, tmp_path, "b")
        assert a == b

    def test_profile_roundtrip(self, tmp_path, schema):
        pfile = tmp_path / "profile.json"
        code = main(
            ["eq", "--n", "2", "--w", "8", "--profile-out", str(pfile), "--out", str(tmp_path / "eq.json")]
        )
        assert code == EXIT_OK
        schema.validate(json.loads(pfile.read_text()))
        code, text = run(
            ["sim", "--profile", str(pfile), "--trials", "20000", "--seed", "3"], tmp_path
        )
        assert code == EXIT_OK
        doc = json.loads(text)
        assert abs(doc["mean_total"] - 4.0) <= 3 * doc["std_error"]

    def test_non_terminating_profile(self, tmp_path):
        bad = {
            "n": 3,
            "w": 10.0,
            "entries": [
                {"m": 3, "k": 0, "q": 0.0},
                {"m": 2, "k": 0, "q": 0.5},
                {"m": 2, "k": 1, "q": 0.0},
            ],
        }
        pfile = tmp_path / "bad.json"
        pfile.write_text(json.dumps(bad))
        assert main(["sim", "--profile", str(pfile)]) == EXIT_BAD_INPUT

    def test_requires_exactly_one_source(self, tmp_path):
        assert main(["sim", "--trials", "10"]) == EXIT_BAD_INPUT

    def test_all_trials_truncated_fails(self, tmp_path, capsys, schema):
        # at w = 1e300 the idle draw saturates and no trial ever finishes:
        # the document is still written, but the command must not pass
        code, text = run(["sim", "--from-eq", "2", "1e300", "--trials", "200"], tmp_path)
        assert code == EXIT_CHECK_FAILED
        doc = json.loads(text)
        schema.validate(doc)
        assert doc["max_steps_hit"] == doc["trials"] == 200
        assert "all 200 trials hit the step limit" in capsys.readouterr().err

    def test_csv_matches_json(self, tmp_path):
        args = ["sim", "--from-eq", "3", "10", "--trials", "500", "--seed", "4"]
        _, text = run(args, tmp_path, "json")
        doc = json.loads(text)
        code, text = run(args + ["--format", "csv"], tmp_path, "csv")
        assert code == EXIT_OK
        header, row = list(csv.reader(io.StringIO(text)))
        assert header == [
            "n", "w", "trials", "seed", "mean_total", "std_error", "per_agent_mean",
            "max_steps_hit",
        ]
        for name, cell in zip(header, row):
            value = doc[name]
            assert cell == (f"{value:.12g}" if isinstance(value, float) else str(value))


class TestProfileDocument:
    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidParameterError):
            parse_profile_document({"n": 2, "w": 8.0, "entries": [], "extra": 1})
        with pytest.raises(InvalidParameterError):
            parse_profile_document(
                {"n": 2, "w": 8.0, "entries": [{"m": 2, "k": 0, "q": 0.5, "x": 1}]}
            )

    def test_missing_state_rejected(self):
        with pytest.raises(InvalidParameterError):
            parse_profile_document({"n": 3, "w": 8.0, "entries": [{"m": 2, "k": 0, "q": 0.5}]})

    def test_duplicate_rejected(self):
        with pytest.raises(InvalidParameterError):
            parse_profile_document(
                {
                    "n": 2,
                    "w": 8.0,
                    "entries": [
                        {"m": 2, "k": 0, "q": 0.5},
                        {"m": 2, "k": 0, "q": 0.6},
                    ],
                }
            )

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 2, "w": 8.0, "entries": [{"m": 2, "q": 0.5}]},
            {"n": 2, "w": 8.0, "entries": [{"m": 2, "k": 0, "q": None}]},
            {"n": None, "w": 8.0, "entries": [{"m": 2, "k": 0, "q": 0.5}]},
            {"n": 2.7, "w": 8.0, "entries": [{"m": 2, "k": 0, "q": 0.5}]},
            {"n": 2, "w": 8.0, "entries": [{"m": 2.9, "k": 0, "q": 0.5}]},
            {"n": "2", "w": 8.0, "entries": [{"m": 2, "k": 0, "q": 0.5}]},
            {"n": 2, "w": 8.0, "entries": [{"m": 2, "k": 0, "q": "0.5"}]},
            {
                "n": 2,
                "w": 8.0,
                "entries": [{"m": 2, "k": 0, "q": 0.5}, {"m": True, "k": 0, "q": 1.0}],
            },
        ],
        ids=[
            "missing_k", "null_q", "null_n",
            "n_fraction", "m_fraction", "n_string", "q_string", "m_bool",
        ],
    )
    def test_malformed_entry_exits_bad_input(self, doc, tmp_path):
        with pytest.raises(InvalidParameterError):
            parse_profile_document(doc)
        pfile = tmp_path / "bad.json"
        pfile.write_text(json.dumps(doc))
        assert main(["sim", "--profile", str(pfile)]) == EXIT_BAD_INPUT

    def test_roundtrip(self):
        params = GameParams(3, 10.0)
        profile = solve_equilibrium(params).profile
        doc = profile_document(profile, params)
        parsed, parsed_params = parse_profile_document(doc)
        assert parsed_params == params
        assert parsed.entries == profile.entries


@pytest.mark.parametrize(
    "args",
    [
        ["eq", "--n", "3", "--w", "inf"],
        ["opt", "--n", "3", "--w", "inf"],
        ["bounds", "--n", "3", "--w", "inf"],
        ["verify", "--n", "3", "--w", "inf"],
        ["sim", "--from-eq", "2", "inf"],
        ["sweep", "--n-range", "2:2", "--w-list", "inf"],
        ["sim", "--profile", "{profile}"],
    ],
    ids=lambda args: args[0] + ("_profile" if "{profile}" in args else ""),
)
def test_non_finite_w_exits_bad_input(args, tmp_path):
    pfile = tmp_path / "inf.json"
    pfile.write_text('{"n": 2, "w": Infinity, "entries": [{"m": 2, "k": 0, "q": 0.5}]}')
    args = [a.format(profile=pfile) for a in args]
    assert main(args + ["--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT


@pytest.mark.parametrize(
    "args",
    [
        ["opt", "--n", "3", "--w", "3", "--grid", "0"],
        ["opt", "--n", "3", "--w", "3", "--grid", "1"],
        ["opt", "--n", "2", "--w", "3", "--tol", "nan"],
        ["opt", "--n", "2", "--w", "3", "--tol", "inf"],
        ["eq", "--n", "4", "--w", "3", "--tol", "inf"],
        ["eq", "--n", "4", "--w", "3", "--tol", "0"],
        ["eq", "--n", "4", "--w", "3", "--tol", "-1"],
        ["sim", "--from-eq", "3", "10", "--trials", "10", "--max-steps", "-5"],
    ],
    ids=lambda args: f"{args[0]}_{args[-2][2:]}_{args[-1]}",
)
def test_bad_solver_settings_exit_bad_input(args, tmp_path):
    assert main(args + ["--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT


@pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("w", ["1.5", "3"])
@pytest.mark.parametrize(
    "args",
    [["bounds", "--n", "3", "--w"], ["sweep", "--n-range", "2:3", "--w-list"]],
    ids=lambda args: args[0],
)
def test_bad_eps_exits_bad_input(args, w, eps, tmp_path, monkeypatch):
    def no_solve(*_args, **_kwargs):
        raise AssertionError("solved before checking --eps")

    # the check comes before any solve: a large sweep would otherwise solve first
    monkeypatch.setattr("bneck.cli.solve_equilibrium", no_solve)
    out = tmp_path / "out"
    assert main(args + [w, "--eps", eps, "--out", str(out)]) == EXIT_BAD_INPUT
    assert not out.exists()


def _finite_numbers(doc) -> bool:
    if isinstance(doc, dict):
        return all(_finite_numbers(v) for v in doc.values())
    if isinstance(doc, list):
        return all(_finite_numbers(v) for v in doc)
    return not isinstance(doc, float) or math.isfinite(doc)


_DOMAIN_WS = [1 + 1e-12, 2 - 1e-12, 2.0, 2 + 1e-12, 1e16, 1e18, 1e30, 1e300, 1e306, 1e308, 1.7e308]


@pytest.mark.parametrize("n", [2, 3, 10, 40])
@pytest.mark.parametrize("w", _DOMAIN_WS)
def test_domain(w, n, tmp_path, capsys):
    """Every accepted game is solved and verified; every other one exits 2 at once."""
    overflows = not math.isfinite(w * n * (n - 1))
    commands = [["eq"], ["opt"], ["verify", "--samples", "1000", "--nmax", "30"]]
    # the heuristic optimum bounds still fail from w = 1e18 (ROADMAP item 1)
    if w <= 1e17 or overflows:
        commands.append(["bounds"])
    for cmd in commands:
        code, text = run(cmd + ["--n", str(n), "--w", repr(w)], tmp_path, cmd[0])
        err = capsys.readouterr().err
        if overflows:
            assert code == EXIT_BAD_INPUT, cmd
            assert f"n={n}, w={w}" in err and not text
        else:
            assert code == EXIT_OK, (cmd, text)
            if cmd[0] != "verify":
                assert _finite_numbers(json.loads(text)), cmd


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--n-range", "2:3", "--w-list", "3,1e308"],
        ["sim", "--from-eq", "2", "1e308"],
        ["sim", "--profile", "{profile}"],
    ],
    ids=lambda args: args[0] + ("_profile" if "{profile}" in args else ""),
)
def test_overflowing_costs_exit_bad_input(args, tmp_path):
    pfile = tmp_path / "huge.json"
    pfile.write_text('{"n": 2, "w": 1e308, "entries": [{"m": 2, "k": 0, "q": 0.5}]}')
    out = tmp_path / "out"
    assert main([a.format(profile=pfile) for a in args] + ["--out", str(out)]) == EXIT_BAD_INPUT
    assert not out.exists()


class TestBounds:
    def test_pass_exit0(self, tmp_path, schema):
        code, text = run(
            ["bounds", "--n", "3", "--w", "10", "--eps", "0.1", "--format", "json"], tmp_path
        )
        assert code == EXIT_OK
        doc = json.loads(text)
        schema.validate(doc)
        assert doc["hard_failures"] == 0

    def test_small_w_annotations(self, tmp_path):
        code, text = run(["bounds", "--n", "2", "--w", "1.5", "--format", "json"], tmp_path)
        assert code == EXIT_OK
        doc = json.loads(text)
        names = {e["name"] for e in doc["entries"]}
        assert "small_w_total" in names
        assert doc["ratios"]["ratio_eq_sc"] == pytest.approx(1.5)

    def test_csv(self, tmp_path):
        code, text = run(["bounds", "--n", "4", "--w", "5", "--format", "csv"], tmp_path)
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(text)))
        assert all(r["passed"] == "true" for r in rows if r["advisory"] == "false")


class TestSweep:
    def test_shape_and_values(self, tmp_path):
        code, text = run(
            ["sweep", "--n-range", "2:4", "--w-list", "8,10"], tmp_path, "sweep.csv"
        )
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 3 * 2
        first = rows[0]
        assert first["n"] == "2" and first["w"] == "8"
        assert float(first["ratio_eq_sc"]) == pytest.approx(4.0, rel=1e-9)
        assert float(first["ratio_opt_sc"]) == pytest.approx(math.sqrt(15.0), rel=1e-6)
        assert all(r["hard_bound_failures"] == "0" for r in rows)

    def test_range_with_step(self, tmp_path):
        code, text = run(
            ["sweep", "--n-range", "2:6:2", "--w-list", "3"], tmp_path, "sweep.csv"
        )
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["n"] for r in rows] == ["2", "4", "6"]

    @pytest.mark.parametrize(
        "policy, root_policy",
        [("smallest", RootPolicy.SMALLEST_Q), ("largest", RootPolicy.LARGEST_Q)],
        ids=["smallest", "largest"],
    )
    def test_rows_match_per_cell_solves(self, policy, root_policy, tmp_path):
        # the sweep solves each w once at the largest n; every row must equal
        # the one a separate solve of its own G(n; w) gives
        code, text = run(
            ["sweep", "--n-range", "2:9:3", "--w-list", "1.5,3,1e18,3", "--policy", policy],
            tmp_path,
        )
        assert code == EXIT_OK
        expected = []
        for n in (2, 5, 8):
            for w in (1.5, 3.0, 1e18, 3.0):
                params = GameParams(n, w)
                eq = solve_equilibrium(params, root_policy)
                opt = solve_opt(params)
                report = bounds_report(eq, opt)
                values = [
                    eq.profile.q(QueueState(n, 0)),
                    eq.per_player_cost,
                    eq.total_cost,
                    opt.total_cost,
                    sc_unrestricted(n),
                    report.ratios["ratio_eq_sc"],
                    report.ratios["ratio_eq_opt"],
                    report.ratios["ratio_opt_sc"],
                ]
                expected.append(
                    [str(n), f"{w:.12g}", eq.policy.value]
                    + [f"{v:.12g}" for v in values]
                    + [str(len(report.hard_failures))]
                )
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == SWEEP_COLUMNS
        assert rows[1:] == expected

    def test_prices_heuristics_once_per_w(self, tmp_path, monkeypatch):
        # two heuristic profiles per distinct w > 2, priced at the largest n,
        # not two per cell; test_rows_match_per_cell_solves pins the values
        calls = []
        price = bounds_mod._empty_queue_totals

        def counting(p, w):
            calls.append((len(p) - 1, w))
            return price(p, w)

        monkeypatch.setattr(bounds_mod, "_empty_queue_totals", counting)
        code, text = run(
            ["sweep", "--n-range", "2:9", "--w-list", "2.5,3,1.5,10,3"], tmp_path
        )
        assert code == EXIT_OK
        assert len(text.splitlines()) == 1 + 8 * 5
        assert sorted(calls) == [(9, w) for w in (2.5, 2.5, 3.0, 3.0, 10.0, 10.0)]

    def test_bad_range(self, tmp_path):
        assert main(["sweep", "--n-range", "5:2", "--w-list", "3"]) == EXIT_BAD_INPUT

    @pytest.mark.parametrize("w_list", [",", ""])
    def test_empty_w_list(self, w_list, tmp_path):
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--n-range", "2:4", "--w-list", w_list, "--out", str(out)]
        assert main(args) == EXIT_BAD_INPUT
        assert not out.exists()


class TestVerify:
    def test_pass(self, tmp_path):
        code, text = run(
            ["verify", "--n", "3", "--w", "10", "--samples", "2000", "--nmax", "30"], tmp_path
        )
        assert code == EXIT_OK
        assert "FAIL" not in text

    def test_oracle_small_instance(self, tmp_path):
        code, _ = run(
            ["verify", "--n", "4", "--w", "2.5", "--samples", "2000", "--nmax", "20"], tmp_path
        )
        assert code == EXIT_OK

    def test_mutant_profile_fails(self, tmp_path):
        params = GameParams(2, 8.0)
        doc = profile_document(solve_equilibrium(params).profile, params)
        doc["entries"] = [
            {**e, "q": 0.6} if (e["m"], e["k"]) == (2, 0) else e for e in doc["entries"]
        ]
        pfile = tmp_path / "mutant.json"
        pfile.write_text(json.dumps(doc))
        out = tmp_path / "verify.txt"
        code = main(
            [
                "verify",
                "--n",
                "2",
                "--w",
                "8",
                "--samples",
                "500",
                "--nmax",
                "10",
                "--profile",
                str(pfile),
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_CHECK_FAILED
        assert "state (2,0)" in out.read_text()

    def test_failing_profile_text(self, tmp_path, monkeypatch):
        # the text recorded before the checks were kept as arrays; only the
        # failing states' checks are built
        q = {(2, 0): 0.6, (2, 1): 0.0, (3, 0): 1.0}
        doc = {"n": 3, "w": 3.0, "entries": [{"m": m, "k": k, "q": v} for (m, k), v in q.items()]}
        pfile = tmp_path / "bad.json"
        pfile.write_text(json.dumps(doc))
        built = []
        monkeypatch.setattr(eqsolver, "StateCheck", lambda *a: built.append(a[0]) or StateCheck(*a))
        args = ["verify", "--n", "3", "--w", "3", "--samples", "100", "--nmax", "5"]
        code, text = run(args + ["--profile", str(pfile)], tmp_path)
        assert code == EXIT_CHECK_FAILED
        assert text.splitlines()[:3] == [
            "[FAIL] equilibrium conditions: worst residual 1.000e+00",
            "    state (2,0): not indifferent at interior q=0.6; profitable deviation worth 0.219",
            "    state (3,0): entering is not a best response at q=1; profitable deviation worth 1",
        ]
        assert built == [QueueState(2, 0), QueueState(3, 0)]

    def test_never_entering_profile_exits_bad_input(self, tmp_path):
        # q = 0 at the empty queue (2, 0): the profile's costs diverge
        doc = {"n": 2, "w": 8.0, "entries": [{"m": 2, "k": 0, "q": 0.0}]}
        pfile = tmp_path / "never.json"
        pfile.write_text(json.dumps(doc))
        args = ["verify", "--n", "2", "--w", "8", "--profile", str(pfile)]
        assert main(args + ["--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
