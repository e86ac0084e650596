import math
import os
import subprocess
import sys

import numpy as np
import pytest

from bneck.model import (
    DivergentCostError,
    EntryProfile,
    GameParams,
    InvalidParameterError,
    total_cost_evaluate,
)
from bneck import optsolver
from bneck.optsolver import (
    heuristic_profile_large_w,
    heuristic_profile_small_w,
    opt_closed_form_2p,
    opt_stage_cost,
    sc_unrestricted,
    solve_opt,
)
from bneck.bounds import opt_recursive_upper

import oracles


class TestStageCost:
    def test_two_player_formula(self):
        for p in (0.05, 0.3, 0.41, 0.8, 1.0):
            got = opt_stage_cost(2, p, 8.0, [0.0, 0.0])
            expected = (2 - 2 * p + p * p * 8.0) / (p * (2 - p))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_lone_agent(self):
        assert opt_stage_cost(1, 1.0, 17.0, [0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_collision(self):
        assert opt_stage_cost(2, 1.0, 8.0, [0.0, 0.0]) == pytest.approx(8.0)

    def test_divergent(self):
        with pytest.raises(DivergentCostError):
            opt_stage_cost(2, 0.0, 8.0, [0.0, 0.0])


class TestStageCostBitIdentity:
    """The per-stage kernel must equal the frozen scalar loop exactly (==)."""

    @staticmethod
    def _prefix(rng, m):
        # increasing continuation values, as solve_opt produces
        return [0.0, 0.0] + [j * (j - 1) / 2.0 * rng.uniform(1.0, 3.0) for j in range(2, m)]

    def test_random_cases(self):
        rng = np.random.default_rng(20261018)
        cases = 0
        for w in (2.5, 3.0, 100.0, 1e18):
            for _ in range(60):
                m = int(rng.integers(1, 161))
                prefix = self._prefix(rng, m)
                kernel = optsolver._StageCost(m, optsolver._stage_increments(m, w, prefix))
                ps = [1.0, 1e-12] + rng.uniform(0.0, 1.0, 8).tolist()
                for p in ps:
                    if p == 0.0:
                        continue
                    want = oracles.opt_stage_cost_loop(m, p, w, prefix)
                    assert opt_stage_cost(m, p, w, prefix) == want, (m, p, w)
                    # solve_opt reuses one kernel across all probes of a stage
                    assert kernel(p) == want, (m, p, w)
                    cases += 1
        assert cases >= 2000

    def test_underflowed_weight_times_infinite_increment(self):
        # w*i(i-1)/2 overflows to inf where the pmf weight underflows to 0;
        # the loop skips such terms instead of making 0*inf = nan
        for p in (1e-200, 1e-12, 0.5, 1.0):
            want = oracles.opt_stage_cost_loop(3, p, 1e308, [0.0, 0.0, 1.0])
            assert opt_stage_cost(3, p, 1e308, [0.0, 0.0, 1.0]) == want
        assert math.isfinite(opt_stage_cost(3, 1e-200, 1e308, [0.0, 0.0, 1.0]))


class TestBlockedStageGrid:
    """The stage grid in row blocks against one full pmf matrix per stage.

    The grid check is a tolerance and not ==: blocked BLAS gemv is not
    row-stable.  A row of the product can change in its last bit with the
    height of the block it sits in.  Measured with OpenBLAS on one machine,
    heights of _BLOCK // (m+1) rows, mostly not multiples of 4, changed rows
    for 262 of the 418 m in 2..419.  The multiple-of-_BLOCK_ROWS heights the
    solver uses gave == everywhere measured, but that is a property of one
    BLAS build, not a guarantee.  The grid only chooses the brackets that
    golden section refines, so p and opt are pinned with == instead; they
    stayed == on all 159 games of the benchmark's reference.
    """

    @pytest.mark.parametrize("grid_points", [2, 3, 2048, 4097])
    @pytest.mark.parametrize("m", [2, 15, 16, 150, 400])
    def test_matches_unblocked_formula(self, m, grid_points):
        rng = np.random.default_rng(m * 10_000 + grid_points)
        ps = optsolver._stage_grid(m, grid_points)
        assert ps[-1] == 1.0  # the last grid row is p = 1, an all-enter unit row
        prefix = [0.0, 0.0] + [j * (j - 1) / 2.0 * rng.uniform(1.0, 3.0) for j in range(2, m)]
        bufs = np.empty((2, optsolver._BLOCK))
        for w in (2.5, 3.0, 100.0, 1e18):
            stage = optsolver._StageCost(m, optsolver._stage_increments(m, w, prefix))
            got = optsolver._stage_cost_grid(stage, ps, bufs)
            want = oracles.stage_cost_grid_unblocked(m, ps, stage.inc)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("w", [2.5, 3.0, 100.0, 1e18])
    def test_solve_opt_equals_unblocked_loop(self, w):
        params = GameParams(200, w)
        got, want = solve_opt(params), oracles.solve_opt_unblocked(params)
        assert got.p[1:] == want.p[1:]  # p[0] is an unused nan
        assert got.opt == want.opt


class TestClosedForm:
    def test_w8(self):
        p, opt = opt_closed_form_2p(8.0)
        assert p == pytest.approx(0.41042619231534527, rel=1e-14)
        assert opt == pytest.approx(math.sqrt(15.0), rel=1e-14)

    def test_boundary_w_to_1(self):
        p, opt = opt_closed_form_2p(1 + 1e-6)
        assert p == pytest.approx(1.0, abs=1e-5)
        assert opt == pytest.approx(math.sqrt(1 + 2e-6), rel=1e-9)

    def test_w200_5(self):
        p, opt = opt_closed_form_2p(200.5)
        assert p == pytest.approx(19.0 / 199.5, rel=1e-12)
        assert opt == pytest.approx(20.0, rel=1e-12)

    def test_minimizes_its_own_objective(self):
        # dense grid oracle around the printed closed form
        for w in (2.5, 8.0, 100.0):
            p_star, opt = opt_closed_form_2p(w)
            ps = np.linspace(1e-4, 1.0, 100_000)
            vals = oracles.opt_stage(2, ps, w, [0.0, 0.0])
            assert opt <= vals.min() + 1e-6
            assert abs(ps[np.argmin(vals)] - p_star) < 1e-4


class TestSolveOpt:
    @pytest.mark.parametrize("w", [2.5, 8.0, 100.0, 1e4, 1e8])
    def test_two_player_matches_closed_form(self, w):
        sol = solve_opt(GameParams(2, w))
        p, opt = opt_closed_form_2p(w)
        assert sol.p[2] == pytest.approx(p, abs=1e-6)
        assert sol.opt[2] == pytest.approx(opt, rel=1e-6)

    def test_two_point_grid_reaches_p_one(self):
        # the coarsest grid the settings accept still scans up to p = 1
        sol = solve_opt(GameParams(2, 3.0), grid_points=2)
        p, opt = opt_closed_form_2p(3.0)
        assert sol.p[2] == pytest.approx(p, abs=1e-6)
        assert sol.opt[2] == pytest.approx(opt, rel=1e-12)

    def test_tiny_tol_returns(self):
        # a bracket cannot shrink below about one ulp, so the search must stop there;
        # a child process turns a hang into a failure after 60 s
        code = (
            "from bneck.model import GameParams\n"
            "from bneck.optsolver import solve_opt\n"
            "print(repr(solve_opt(GameParams(2, 3.0), tol=1e-17).p[2]))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) == pytest.approx(opt_closed_form_2p(3.0)[0], abs=1e-6)

    def test_n1(self):
        sol = solve_opt(GameParams(1, 5.0))
        assert sol.opt == (0.0, 0.0)
        assert sol.p[1] == 1.0

    def test_invariants(self):
        for n, w in ((5, 3.0), (8, 40.0), (6, 1e5)):
            sol = solve_opt(GameParams(n, w))
            assert sol.opt[0] == 0.0 and sol.opt[1] == 0.0
            for m in range(2, n + 1):
                assert sol.opt[m] > sol.opt[m - 1]
                assert sol.opt[m] >= sol.opt[m - 1] + m - 1 - 1e-9
                assert 0.0 < sol.p[m] <= 1.0
            assert sol.opt[n] >= n * (n - 1) / 2.0 - 1e-9

    def test_increment_bound_at_computed_p(self):
        for n, w in ((4, 9.0), (6, 25.0), (5, 1e4)):
            sol = solve_opt(GameParams(n, w))
            for m in range(2, n + 1):
                alpha = sol.p[m] * m
                if not 0.0 < alpha < m:
                    continue
                bound = opt_recursive_upper(m, w, alpha)
                assert sol.opt[m] - sol.opt[m - 1] <= bound + 1e-9

    def test_dominated_by_heuristics(self):
        for n, w in ((4, 8.0), (7, 3.0), (5, 1e4)):
            params = GameParams(n, w)
            sol = solve_opt(params)
            for prof_fn in (heuristic_profile_small_w, heuristic_profile_large_w):
                profile = EntryProfile.from_empty_queue_probs(prof_fn(n, w), n)
                _, cost = total_cost_evaluate(profile, params)
                assert sol.opt[n] <= cost + 1e-9 * max(1.0, cost)

    @pytest.mark.parametrize("n,w", [(3, 10.0), (4, 2.5)])
    def test_against_nested_grid_oracle(self, n, w):
        p_o, opt_o = oracles.optimum(n, w, points=4000)
        sol = solve_opt(GameParams(n, w))
        for m in range(2, n + 1):
            assert sol.p[m] == pytest.approx(p_o[m], abs=1e-4)
            assert sol.opt[m] == pytest.approx(opt_o[m], rel=1e-4)


class TestHeuristics:
    def test_small_w_values(self):
        p = heuristic_profile_small_w(10, 8.0)
        assert p[1] == 1.0
        assert p[2] == pytest.approx(0.17328679513998633, rel=1e-12)
        assert len(p) == 11
        assert all(0.0 < x <= 1.0 for x in p[1:])

    def test_large_w_values(self):
        p = heuristic_profile_large_w(2, 9.0)
        assert p[2] == pytest.approx(0.25, rel=1e-14)
        p = heuristic_profile_large_w(5, 101.0)
        assert p[5] == pytest.approx(0.056568542494923802, rel=1e-12)
        big = heuristic_profile_large_w(2, 1e12)
        assert big[2] < 1e-5

    def test_clamped_to_one(self):
        p = heuristic_profile_large_w(4, 1.0 + 1e-9)
        assert max(p[1:]) == 1.0

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            heuristic_profile_small_w(1, 8.0)
        with pytest.raises(InvalidParameterError):
            heuristic_profile_small_w(4, 2.0)


class TestScUnrestricted:
    def test_examples(self):
        assert sc_unrestricted(2) == 1.0
        assert sc_unrestricted(1) == 0.0
        assert sc_unrestricted(10) == 45.0
        with pytest.raises(InvalidParameterError):
            sc_unrestricted(0)
