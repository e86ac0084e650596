import dataclasses
import math
import warnings

import numpy as np
import pytest

from bneck import eqsolver
from bneck.eqsolver import (
    RootPolicy,
    _certifies_no_entry,
    eq_closed_form_2p,
    profile_cost_table,
    solve_equilibrium,
    solve_state,
    verify_equilibrium,
    verify_profile,
)
from bneck.model import (
    CostRole,
    CostTable,
    EntryProfile,
    GameParams,
    InvalidParameterError,
    QueueState,
    _successor_values,
    cost_enter,
    enumerate_states,
    total_cost_evaluate,
)
from bneck.bounds import entry_prob_lower
from bneck.optsolver import solve_opt

import oracles
from oracles import indifference_gap

S = QueueState
SQRT5 = math.sqrt(5.0)

# frozen oracle values (mpmath root of the (3,0) indifference at w=10)
Q30_W10 = 0.36402069239437449
C30_W10 = 3.6402069239437449
TOTAL3_W10 = 10.920620771831235


class TestIndifferenceGap:
    def test_zero_at_closed_form_root(self):
        assert indifference_gap(S(2, 0), 0.5, 8.0, {S(1, 0): 0.0}) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_positive_when_waiting_wins(self):
        cont = {S(2, 0): SQRT5, S(1, 1): 1.0}
        assert indifference_gap(S(2, 1), 0.0, 10.0, cont) == pytest.approx(
            6.7639320225002103, rel=1e-14
        )

    def test_at_q_one(self):
        assert indifference_gap(S(2, 0), 1.0, 8.0, {S(1, 0): 0.0}) == pytest.approx(3.0)


class TestGapProbeBitIdentity:
    """The solver's gap probe must equal the reference indifference_gap exactly (==)."""

    @staticmethod
    def _continuation(rng, m, k):
        # random non-negative costs at every successor (m-i, k+i-1), i = 0..m-1
        return {
            S(m - i, k + i - 1): float(rng.uniform(0.0, 3.0 * (m + k)))
            for i in range(m)
            if k + i - 1 >= 0
        }

    def test_random_cases(self):
        rng = np.random.default_rng(8)
        cases = 0
        for w in (2.5, 3.0, 100.0, 1e18):
            for _ in range(40):
                m = int(rng.integers(2, 61))
                k = int(rng.integers(0, 4)) if rng.uniform() < 0.7 else 0
                cont = self._continuation(rng, m, k)
                rows = eqsolver._BinomRows(m, 64, eqsolver._scan_grid(1, eqsolver._SCAN_LO, 64))
                ev = eqsolver._GapEvaluator(rows, k, w, _successor_values(cont, m, k))
                qs = [1.0, 1e-300, 3e-300, 1e-200, 1e-12] + rng.uniform(0.0, 1.0, 6).tolist()
                if k >= 1:
                    qs.append(0.0)
                for q in qs:
                    gap, enter = ev.probe(q)
                    assert gap == indifference_gap(S(m, k), q, w, cont), (m, k, q, w)
                    assert enter == cost_enter(S(m, k), q, w)
                    cases += 1
        assert cases >= 1500


class TestSolveState:
    def test_two_player_empty(self):
        q, c, roots = solve_state(S(2, 0), 8.0, {S(1, 0): 0.0})
        assert q == pytest.approx(0.5, abs=1e-11)
        assert c == pytest.approx(2.0, rel=1e-11)
        assert roots == 1

    def test_corner_wait(self):
        cont = {S(2, 0): SQRT5, S(1, 1): 1.0}
        q, c, roots = solve_state(S(2, 1), 10.0, cont)
        assert q == 0.0
        assert c == pytest.approx(1 + SQRT5, rel=1e-12)
        assert roots == 0

    def test_three_player_root(self):
        cont = {S(2, 0): SQRT5, S(1, 1): 1.0}
        q, c, roots = solve_state(S(3, 0), 10.0, cont)
        assert q == pytest.approx(Q30_W10, abs=1e-9)
        assert c == pytest.approx(C30_W10, rel=1e-9)
        assert roots == 1

    def test_m1_rejected(self):
        with pytest.raises(InvalidParameterError):
            solve_state(S(1, 0), 8.0, {})

    @pytest.mark.parametrize(
        "grid, tol", [(0, 1e-12), (1, 1e-12), (512, 0.0), (512, math.nan), (512, math.inf)]
    )
    def test_bad_settings_rejected(self, grid, tol):
        with pytest.raises(InvalidParameterError):
            solve_state(S(2, 0), 8.0, {S(1, 0): 0.0}, grid_points=grid, tol=tol)



class TestSolveStateContinuation:
    """A continuation Mapping is read through the table type: a lacking or nan
    successor is bad input, not a KeyError or a solver inconsistency."""

    def test_missing_successor_is_named(self):
        with pytest.raises(InvalidParameterError, match=r"QueueState\(m=1, k=1\)"):
            solve_state(S(3, 0), 5.0, {S(2, 0): 1.0})

    def test_nan_continuation_rejected(self):
        with pytest.raises(InvalidParameterError, match=r"QueueState\(m=1, k=1\)"):
            solve_state(S(3, 0), 5.0, {S(2, 0): 1.0, S(1, 1): math.nan})

class TestSolveEquilibrium:
    def test_two_player(self):
        sol = solve_equilibrium(GameParams(2, 8.0))
        assert sol.profile.q(S(2, 0)) == pytest.approx(0.5, abs=1e-12)
        assert sol.total_cost == pytest.approx(4.0, rel=1e-12)

    def test_small_w_all_enter(self):
        sol = solve_equilibrium(GameParams(3, 1.5))
        assert sol.profile.q(S(3, 0)) == 1.0
        assert sol.profile.q(S(2, 0)) == 1.0
        assert sol.total_cost == pytest.approx(4.5, rel=1e-15)

    def test_three_player_w10(self):
        sol = solve_equilibrium(GameParams(3, 10.0))
        assert sol.profile.q(S(3, 0)) == pytest.approx(Q30_W10, abs=1e-9)
        assert sol.total_cost == pytest.approx(TOTAL3_W10, rel=1e-9)
        assert sol.profile.q(S(2, 1)) == 0.0
        assert sol.per_player[S(2, 1)] == pytest.approx(1 + SQRT5, rel=1e-9)

    def test_total_is_n_times_per_player(self):
        sol = solve_equilibrium(GameParams(4, 7.0))
        assert sol.total_cost == sol.params.n * sol.per_player_cost

    def test_degenerate_n1(self):
        sol = solve_equilibrium(GameParams(1, 5.0))
        assert sol.total_cost == 0.0
        assert sol.per_player[S(1, 0)] == 0.0

    def test_deterministic(self):
        a = solve_equilibrium(GameParams(5, 9.0))
        b = solve_equilibrium(GameParams(5, 9.0))
        assert a.profile.entries == b.profile.entries
        assert a.total_cost == b.total_cost


class TestPrefixProperty:
    """G(n; w) is a prefix of G(N; w): ``bneck sweep`` solves each w once, at the largest n."""

    @pytest.mark.parametrize("policy", list(RootPolicy))
    @pytest.mark.parametrize("w", [1.5, 3.0, 100.0, 1e18])
    def test_small_game_equals_prefix_of_large(self, w, policy):
        big_eq = solve_equilibrium(GameParams(19, w), policy)
        big_opt = solve_opt(GameParams(19, w))
        for n in (2, 7, 12):
            eq = solve_equilibrium(GameParams(n, w), policy)
            for s in enumerate_states(n):
                assert eq.profile.q(s) == big_eq.profile.q(s)
                assert eq.per_player[s] == big_eq.per_player[s]
                assert eq.diagnostics[s] == big_eq.diagnostics[s]
            assert eq.total_cost == n * big_eq.per_player[S(n, 0)]
            opt = solve_opt(GameParams(n, w))
            assert opt.p[1 : n + 1] == big_opt.p[1 : n + 1]  # p[0] is an unused nan
            assert opt.opt[: n + 1] == big_opt.opt[: n + 1]


class TestRowCertificate:
    """Per-row gather and certificate: equal (==) to one gather and test per state."""

    @staticmethod
    def _assert_same(got, want):
        assert repr(got.profile) == repr(want.profile)
        assert repr(got.per_player) == repr(want.per_player)
        assert repr(got.diagnostics) == repr(want.diagnostics)

    @pytest.mark.parametrize("policy", list(RootPolicy))
    @pytest.mark.parametrize("w", [1.5, 2.5, 3.0, 10.0, 100.0, 1e18])
    @pytest.mark.parametrize("n", [2, 3, 17, 40])
    def test_equals_per_state_loop(self, n, w, policy):
        params = GameParams(n, w)
        self._assert_same(
            solve_equilibrium(params, policy), oracles.solve_equilibrium_per_state(params, policy)
        )

    def test_equals_per_state_loop_n150(self):
        params = GameParams(150, 3.0)
        self._assert_same(solve_equilibrium(params), oracles.solve_equilibrium_per_state(params))


class TestClosedForm2p:
    def test_examples(self):
        assert eq_closed_form_2p(8.0) == pytest.approx((0.5, 4.0))
        q, total = eq_closed_form_2p(200.0)
        assert q == pytest.approx(0.1)
        assert total == pytest.approx(20.0)
        q, _ = eq_closed_form_2p(2 + 1e-9)
        assert q == pytest.approx(1.0, abs=1e-9)

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            eq_closed_form_2p(2.0)

    @pytest.mark.parametrize("w", [2.5, 3.0, 8.0, 100.0, 1e6])
    def test_cross_oracle(self, w):
        sol = solve_equilibrium(GameParams(2, w))
        q, total = eq_closed_form_2p(w)
        assert sol.profile.q(S(2, 0)) == pytest.approx(q, abs=1e-9)
        assert sol.total_cost == pytest.approx(total, rel=1e-9)


class TestRegimeInvariants:
    @pytest.mark.parametrize("w", [1.1, 1.5, 2.0])
    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_small_w_exact_total(self, n, w):
        sol = solve_equilibrium(GameParams(n, w))
        for m in range(2, n + 1):
            assert sol.profile.q(S(m, 0)) == 1.0
        assert sol.total_cost == pytest.approx(w * n * (n - 1) / 2.0, rel=1e-15)

    @pytest.mark.parametrize("n,w", [(3, 2.5), (5, 10.0), (7, 50.0), (4, 1e4)])
    def test_large_w_probabilities_interior(self, n, w):
        sol = solve_equilibrium(GameParams(n, w))
        for s in enumerate_states(n):
            if s.m < 2:
                continue
            q = sol.profile.q(s)
            assert q < 1.0
            if s.k == 0:
                assert q > 0.0
            assert q >= entry_prob_lower(s.m, s.k, w) - 1e-9

    @pytest.mark.parametrize("n,w", [(3, 2.5), (5, 10.0), (7, 50.0), (4, 1e4)])
    def test_simple_lower_bound(self, n, w):
        sol = solve_equilibrium(GameParams(n, w))
        for s in enumerate_states(n):
            assert sol.per_player[s] >= s.total - 1 - 1e-9
        assert sol.total_cost >= n * (n - 1) - 1e-9

    def test_monotone_in_w_diagnostic(self):
        # sanity trend, not a proven guarantee: warn instead of failing
        totals = [solve_equilibrium(GameParams(4, w)).total_cost for w in (2.5, 4, 8, 16, 64)]
        if any(b < a for a, b in zip(totals, totals[1:])):
            warnings.warn(f"equilibrium total not monotone in w: {totals}")


class TestVerify:
    def test_solver_output_passes(self):
        for n, w in ((2, 8.0), (3, 10.0), (4, 2.5), (3, 1.5)):
            sol = solve_equilibrium(GameParams(n, w))
            report = verify_equilibrium(sol, tol=1e-9)
            assert report.passed, report.failing_states

    def test_mutant_fails_with_residual(self):
        profile = EntryProfile({S(2, 0): 0.6, S(1, 0): 1.0, S(1, 1): 1.0})
        report = verify_profile(profile, GameParams(2, 8.0))
        assert not report.passed
        assert report.failing_states == [S(2, 0)]
        assert report.worst_residual == pytest.approx(0.6 * 4 - 1 / 0.6, rel=1e-6)

    def test_cost_below_floor_fails(self):
        sol = solve_equilibrium(GameParams(5, 3.0))
        costs = dict(sol.per_player.values)
        costs[S(3, 1)] = 2.5  # floor m + k - 1 = 3
        costs[S(2, 2)] = 3.0 - 1e-12  # within tol of the floor
        bad = dataclasses.replace(sol, per_player=CostTable(CostRole.PER_OUTSIDE_PLAYER, costs))
        report = verify_equilibrium(bad)
        assert not report.passed
        assert report.failing_states == [S(3, 1)]
        extra = report.checks[-1]
        assert (extra.cost, extra.residual, extra.q) == (2.5, 0.5, sol.profile.q(S(3, 1)))
        assert extra.reason == "per-player cost below floor 3"
        assert report.worst_residual == 0.5

    def test_profile_cost_table_matches_solver(self):
        sol = solve_equilibrium(GameParams(4, 9.0))
        table = profile_cost_table(sol.profile, sol.params)
        for s in enumerate_states(4):
            assert table[s] == pytest.approx(sol.per_player[s], rel=1e-9, abs=1e-9)

    def test_total_eval_consistency(self):
        # total social cost of the equilibrium profile equals n * c(n, 0)
        params = GameParams(5, 12.0)
        sol = solve_equilibrium(params)
        _, total = total_cost_evaluate(sol.profile, params)
        assert total == pytest.approx(sol.total_cost, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_total_eval_consistency_off_equilibrium(self, n):
        # by symmetry T(n, 0) = n * v(n, 0) for every full profile, not only
        # equilibria; interior q at k >= 1 puts weight on every successor
        rng = np.random.default_rng(100 + n)
        for _ in range(4):
            params = GameParams(n, 1.5 + 20.0 * float(rng.random()))
            profile = EntryProfile(
                {
                    s: 1.0 if s.m == 1 else 0.02 + 0.96 * float(rng.random())
                    for s in enumerate_states(n)
                }
            )
            _, total = total_cost_evaluate(profile, params)
            per_player = profile_cost_table(profile, params)[S(n, 0)]
            assert total == pytest.approx(n * per_player, rel=1e-12)


def _perturbed(profile, changes):
    entries = dict(profile.entries)
    entries.update(changes)
    return EntryProfile(entries)


class TestVerifyAgainstPerState:
    """``verify_profile``'s array tests against the frozen per-state loop.

    Per state the verdict and the reason must be equal; q, enter cost and
    residual come from two pricings that differ in the last digits, so the
    residual agrees to 1e-12 of the state's cost scale, the scale the check
    itself uses.
    """

    def assert_same(self, profile, params):
        got = verify_profile(profile, params)
        want = oracles.verify_profile_per_state(profile, params)
        assert got.passed == want.passed
        assert [c.state for c in got.checks] == [c.state for c in want.checks]
        for a, b in zip(got.checks, want.checks):
            assert (a.passed, a.reason) == (b.passed, b.reason), a.state
            assert a.q == b.q and a.enter_cost == b.enter_cost
            scale = max(1.0, abs(b.cost))
            assert abs(a.residual - b.residual) <= 1e-12 * scale, a.state
            assert a.cost == pytest.approx(b.cost, rel=1e-13)
            assert a.wait_cost == pytest.approx(b.wait_cost, rel=1e-13)
        assert got.worst_residual == pytest.approx(want.worst_residual, rel=1e-12, abs=1e-12)
        return {r.split(" ")[0] for c in got.checks for r in c.reason.split("; ") if r}

    @pytest.mark.parametrize("n, w", [(2, 8.0), (5, 1.5), (12, 3.0), (40, 10.0), (60, 100.0)])
    def test_equilibrium_profiles(self, n, w):
        params = GameParams(n, w)
        assert self.assert_same(solve_equilibrium(params).profile, params) == set()

    def test_every_reason_branch(self):
        kinds = set()
        params = GameParams(8, 3.0)
        eq = solve_equilibrium(params).profile
        interior = next(s for s in enumerate_states(8) if 0.0 < eq.q(s) < 1.0 and s.k >= 1)
        kinds |= self.assert_same(_perturbed(eq, {interior: eq.q(interior) * 1.2}), params)
        # all enter at w = 1.5, but nobody at (2, 1): entering there costs 1.5
        params = GameParams(4, 1.5)
        kinds |= self.assert_same(_perturbed(EntryProfile.all_enter(4), {S(2, 1): 0.0}), params)
        # everybody enters a queue of one at w = 10
        params = GameParams(6, 10.0)
        eq = solve_equilibrium(params).profile
        kinds |= self.assert_same(_perturbed(eq, {S(3, 1): 1.0}), params)
        assert kinds == {"not", "waiting", "entering", "profitable"}

    @pytest.mark.parametrize("seed", range(4))
    def test_random_profiles(self, seed):
        rng = np.random.default_rng(50 + seed)
        n = int(rng.integers(2, 30))
        params = GameParams(n, float(1.2 + 30.0 * rng.random()))
        entries = {
            s: 1.0 if s.m == 1 else 0.05 + 0.95 * float(rng.random()) if s.k == 0
            else float(rng.choice([0.0, 1.0, rng.random()]))
            for s in enumerate_states(n)
        }
        self.assert_same(EntryProfile(entries), params)


class TestPolicies:
    def test_both_policies_verify(self):
        for policy in (RootPolicy.SMALLEST_Q, RootPolicy.LARGEST_Q):
            sol = solve_equilibrium(GameParams(4, 6.0), policy=policy)
            assert verify_equilibrium(sol, tol=1e-9).passed

    def test_policy_recorded(self):
        sol = solve_equilibrium(GameParams(3, 5.0), policy=RootPolicy.LARGEST_Q)
        assert sol.policy is RootPolicy.LARGEST_Q


class TestAgainstBruteForce:
    def test_three_player_oracle_quick(self):
        n, w = 3, 10.0
        prob, cost = oracles.equilibrium(n, w, points=200_000)
        sol = solve_equilibrium(GameParams(n, w))
        for s in enumerate_states(n):
            assert sol.profile.q(s) == pytest.approx(prob[(s.m, s.k)], abs=1e-5)
            assert sol.per_player[s] == pytest.approx(
                cost[(s.m, s.k)], rel=1e-4, abs=1e-4
            )

    @pytest.mark.parametrize("w", [2.5, 10.0, 1e3])
    def test_root_sets_match(self, w):
        # the scan grid finds the same per-state root set as a dense grid
        sol = solve_equilibrium(GameParams(4, w))
        costs = {(s.m, s.k): sol.per_player[s] for s in enumerate_states(4)}
        for s in enumerate_states(4):
            if s.m < 2:
                continue
            cont = [
                costs[(s.m - i, s.k + i - 1)] if s.k + i - 1 >= 0 else 0.0
                for i in range(s.m)
            ]
            roots, _ = oracles.state_roots(s.m, s.k, w, cont, points=200_000)
            assert sol.diagnostics[s].root_count == len(roots)
            if roots:
                mine = sol.profile.q(s)
                target = roots[0]  # SMALLEST_Q default
                assert mine == pytest.approx(target, abs=1e-5)


def _continuation(sol, s):
    """cont[i] = c(m-i, k+i-1) from the solution's own cost table (0 at k+i-1 < 0)."""
    return [
        sol.per_player[S(s.m - i, s.k + i - 1)] if s.k + i - 1 >= 0 else 0.0
        for i in range(s.m)
    ]


class TestStandaloneAgreement:
    @pytest.mark.parametrize("n,w", [(12, 2.5), (30, 3.0), (30, 100.0), (25, 1e18)])
    def test_every_state_matches_solve_state(self, n, w):
        # backward induction (per-m matrix reuse, dense gather) against the
        # standalone per-state path fed with the solution's own cost table
        sol = solve_equilibrium(GameParams(n, w))
        for s in enumerate_states(n):
            if s.m < 2:
                continue
            q, c, roots = solve_state(s, w, sol.per_player.values)
            assert q == sol.profile.q(s), s
            assert c == sol.per_player[s], s
            assert roots == sol.diagnostics[s].root_count, s


class TestNoEntryCertificate:
    QS = np.unique(np.concatenate([np.geomspace(1e-6, 1.0, 400), np.linspace(1e-6, 1.0, 4001)]))

    @pytest.mark.parametrize("w", [3.0, 100.0])
    def test_sound_against_oracle(self, w):
        n = 30
        sol = solve_equilibrium(GameParams(n, w))
        certified = 0
        for s in enumerate_states(n):
            if s.m < 2 or s.k < 1:
                continue
            cont = _continuation(sol, s)
            exact = s.k * w > 1.0 + max(cont)
            # the solver's certificate may be stricter, never looser
            assert exact or not _certifies_no_entry(s.k, w, max(cont)), s
            if exact:
                certified += 1
                gaps = oracles.gap_values(s.m, s.k, w, self.QS, cont)
                assert (gaps > 0.0).all(), s
                assert sol.profile.q(s) == 0.0
                assert sol.per_player[s] == 1.0 + cont[0]
        assert certified > 0

    def test_covers_most_no_entry_states(self):
        n, w = 30, 100.0
        sol = solve_equilibrium(GameParams(n, w))
        q0 = [s for s in enumerate_states(n) if s.m >= 2 and sol.profile.q(s) == 0.0]
        fired = [
            s for s in q0 if _certifies_no_entry(s.k, w, max(_continuation(sol, s)))
        ]
        assert len(fired) >= 0.9 * len(q0), (len(fired), len(q0))
