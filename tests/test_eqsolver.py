import math
import warnings

import numpy as np
import pytest

from bneck.eqsolver import (
    RootPolicy,
    _certifies_no_entry,
    eq_closed_form_2p,
    indifference_gap,
    profile_cost_table,
    solve_equilibrium,
    solve_state,
    verify_equilibrium,
    verify_profile,
)
from bneck.model import (
    EntryProfile,
    GameParams,
    InvalidParameterError,
    QueueState,
    enumerate_states,
    total_cost_evaluate,
)
from bneck.bounds import entry_prob_lower

import oracles

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
            assert exact or not _certifies_no_entry(s.k, w, np.array(cont)), s
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
            s for s in q0 if _certifies_no_entry(s.k, w, np.array(_continuation(sol, s)))
        ]
        assert len(fired) >= 0.9 * len(q0), (len(fired), len(q0))
