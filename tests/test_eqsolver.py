import dataclasses
import gc
import itertools
import math
import tracemalloc
import warnings
from collections.abc import Mapping

import numpy as np
import pytest

from bneck import eqsolver, model
from bneck.eqsolver import (
    RootPolicy,
    StateCheck,
    StateDiagnostics,
    VerificationReport,
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
                pmf = eqsolver._Pmf(m - 1)
                ev = eqsolver._GapEvaluator(pmf, k, w, _successor_values(cont, m, k))
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


class TestDiagnosticsView:
    """``EquilibriumSolution.diagnostics`` behaves as the dict it replaced."""

    @pytest.mark.parametrize("policy", list(RootPolicy))
    def test_mapping_contract(self, policy):
        params = GameParams(40, 3.0)
        got = solve_equilibrium(params, policy).diagnostics
        want = oracles.solve_equilibrium_per_state(params, policy).diagnostics
        assert isinstance(want, dict) and isinstance(got, Mapping)
        assert got == want and want == got and dict(got) == want
        assert got != {**want, S(2, 0): StateDiagnostics(9, 0.0)}
        assert repr(got) == repr(want)
        assert len(got) == len(want) == 40 * 41 // 2
        assert list(got) == list(want) == enumerate_states(40)
        assert all(s in got and got[s] == want[s] for s in want)
        for state in (S(0, 0), S(0, 3), S(2, 39), S(40, 1), S(41, 0), S(1, 40)):
            assert state not in got
            with pytest.raises(KeyError):
                got[state]
        assert got.get(S(0, 1)) is None
        with pytest.raises(TypeError):
            got[S(2, 0)] = StateDiagnostics(0, 0.0)
        with pytest.raises(ValueError):
            got._a[2, 0] = 1.0

    @pytest.mark.parametrize("w", [2.5, 3.0, 1e18])
    def test_prefix_view(self, w):
        big = solve_equilibrium(GameParams(40, w)).diagnostics
        for n in (2, 17, 40):
            view = big.prefix(n)
            want = dict(itertools.islice(big.items(), n * (n + 1) // 2))
            assert view == want and list(view) == list(want)
            assert repr(view) == repr(want) and len(view) == len(want)
            assert S(n + 1, 0) not in view and S(1, n) not in view
            assert view == solve_equilibrium(GameParams(n, w)).diagnostics


def _eager_checks(profile, params, tol=1e-9):
    """``verify_profile``'s checks, built at once from the columns of ``_check_states``."""
    ms, ks = model._decision_states(params.n)
    *fields, reasons = eqsolver._check_states(profile, params, ms, ks, tol)[2:]
    why = [reasons.get(j, "") for j in range(len(ms))]
    states = map(QueueState, ms.tolist(), ks.tolist())
    return tuple(map(StateCheck, states, *(a.tolist() for a in fields), why))


class TestColumnarReport:
    """A report keeps its check arrays: ``checks`` is the tuple the verifiers used to build."""

    # verify_profile of this G(3; 3) profile, recorded before the checks were kept as arrays
    PROFILE3 = {S(1, 0): 1.0, S(1, 1): 1.0, S(1, 2): 1.0, S(2, 0): 0.6, S(2, 1): 0.0, S(3, 0): 1.0}
    CHECKS3 = (
        "(StateCheck(state=QueueState(m=2, k=0), q=0.6, cost=1.119047619047619, "
        "enter_cost=0.8999999999999999, wait_cost=1.6666666666666667, residual=0.7666666666666668, "
        "passed=False, reason='not indifferent at interior q=0.6; profitable deviation worth 0.219'), "
        "StateCheck(state=QueueState(m=2, k=1), q=0.0, cost=2.119047619047619, enter_cost=3.0, "
        "wait_cost=2.119047619047619, residual=0.0, passed=True, reason=''), "
        "StateCheck(state=QueueState(m=3, k=0), q=1.0, cost=3.0, enter_cost=3.0, wait_cost=2.0, "
        "residual=1.0, passed=False, reason='entering is not a best response at q=1; "
        "profitable deviation worth 1'))"
    )

    def test_failing_profile(self):
        params = GameParams(3, 3.0)
        report = verify_profile(EntryProfile(self.PROFILE3), params)
        assert report.failing_states == [S(2, 0), S(3, 0)]
        assert report.passed is False and report.worst_residual == 1.0
        assert repr(report.checks) == self.CHECKS3
        again = VerificationReport(params=params, checks=report.checks, passed=False, worst_residual=1.0)
        assert again == report and repr(again) == repr(report)
        assert again.failing_states == report.failing_states

    @pytest.mark.parametrize("n, w", [(12, 3.0), (40, 10.0), (30, 1.5)])
    def test_checks_equal_eager_build(self, n, w):
        params = GameParams(n, w)
        rng = np.random.default_rng(n)
        profile = _perturbed(
            solve_equilibrium(params).profile,
            {s: float(rng.random()) for s in enumerate_states(n) if s.m >= 2 and rng.random() < 0.3},
        )
        report = verify_profile(profile, params)
        want = _eager_checks(profile, params)
        assert report.failing_states == [c.state for c in want if not c.passed]
        assert report.checks == want and repr(report.checks) == repr(want)
        assert report.passed == all(c.passed for c in want)
        assert report.worst_residual == max(0.0, *(c.residual for c in want))

    def test_floor_failures_come_last(self):
        sol = solve_equilibrium(GameParams(5, 3.0))
        costs = dict(sol.per_player.values)
        costs[S(3, 1)] = 2.5
        costs[S(2, 2)] = 3.0 - 1e-12  # within tol of the floor
        costs[S(1, 3)] = 2.0
        bad = dataclasses.replace(sol, per_player=CostTable(CostRole.PER_OUTSIDE_PLAYER, costs))
        report = verify_equilibrium(bad)
        assert report.failing_states == [S(1, 3), S(3, 1)]
        assert report.passed is False and report.worst_residual == 1.0
        head = _eager_checks(sol.profile, sol.params)
        assert len(report.checks) == len(head) + 2 and report.checks[: len(head)] == head
        assert repr(report.checks[-2:]) == (
            "(StateCheck(state=QueueState(m=1, k=3), q=1.0, cost=2.0, enter_cost=nan, wait_cost=nan, "
            "residual=1.0, passed=False, reason='per-player cost below floor 3'), "
            "StateCheck(state=QueueState(m=3, k=1), q=0.06085913693096423, cost=2.5, enter_cost=nan, "
            "wait_cost=nan, residual=0.5, passed=False, reason='per-player cost below floor 3'))"
        )

    def test_verdicts_build_no_checks(self, monkeypatch):
        built = []
        monkeypatch.setattr(eqsolver, "StateCheck", lambda *a: built.append(a[0]) or StateCheck(*a))
        sol = solve_equilibrium(GameParams(60, 3.0))
        report = verify_equilibrium(sol)
        assert report.passed and report.failing_states == [] and report.worst_residual >= 0.0
        assert built == []
        # no state moves to (n, 0), so only it fails
        report = verify_profile(_perturbed(sol.profile, {S(60, 0): 0.5}), sol.params)
        assert report.failing_states == built == [S(60, 0)]


class TestColumnarMemory:
    def test_solution_and_verify_memory(self):
        # the state cache is shared by every game, so it is warmed first;
        # before the diagnostics and checks were kept as arrays the solution
        # retained 2.2 MB and verify_equilibrium peaked at 3.9 MB
        params = GameParams(150, 3.0)
        model._states(150)
        solve_equilibrium(params)
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            sol = solve_equilibrium(params)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - start
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            report = verify_equilibrium(sol)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert report.passed
        assert retained < 1.0e6
        assert peak < 3.7e6 / 2


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


UPPER = eqsolver._scan_grid(1, eqsolver._SCAN_LO, eqsolver.DEFAULT_GRID_POINTS)


def _scan(m, k, w, cont, policy=RootPolicy.SMALLEST_Q):
    """``_scan_state``'s tuple and the sign-change cells of its scan gaps."""
    pmf, points = eqsolver._Pmf(m - 1), eqsolver.DEFAULT_GRID_POINTS
    result = eqsolver._scan_state(pmf, k, w, cont, points, policy, eqsolver.DEFAULT_TOL)
    gaps = eqsolver._GapEvaluator(pmf, k, w, cont).gap(UPPER, pmf.rows(UPPER))
    with np.errstate(over="ignore"):
        cells = np.flatnonzero(gaps[:-1] * gaps[1:] < 0.0).tolist()
    return result, cells


class TestBernsteinCertificate:
    """The gamma sign classes of the diagonal solver against the scan they stand in for."""

    WS = (1.01, 1.5, 2.5, 3.0, 100.0, 1e18)

    @staticmethod
    def _classify(m, k, w, cont):
        cont = np.asarray(cont, dtype=float)
        changes, neg0, slack = eqsolver._gamma_signs(
            np.array([m]), np.array([k]), w, cont[None, :], np.array([cont.max()])
        )
        return int(changes[0]), bool(neg0[0]), float(slack[0])

    @staticmethod
    def _random_cont(rng, m, k, w):
        # continuations around the enter cost line k*w + w*i/2 - 1, so that the
        # gap has zero, one or several sign changes
        i = np.arange(m)
        line = k * w + w * i / 2.0 - 1.0
        kind = rng.integers(4)
        if kind == 0:
            return rng.uniform(0.0, 2.0 * line.max() + 2.0, m)
        if kind == 1:  # one crossing of the line
            cut = rng.uniform(-0.2, 1.2) * m
            return np.maximum(line + np.where(i < cut, 1, -1) * rng.uniform(0.01, 1.0) * (1 + line), 0.0)
        if kind == 2:  # a straight line crossing the enter line
            a, b = rng.uniform(0.0, 2.0 * line.max() + 2.0, 2)
            return np.maximum(a + (b - a) * i / max(m - 1, 1), 0.0)
        return line + rng.normal(0.0, 0.05 * (1 + line.max()), m) ** 3  # near-zero gammas

    def assert_class(self, m, k, w, cont):
        """The state's number of gamma sign changes, and whether its replay was checked."""
        cont = np.asarray(cont, dtype=float)
        replayed = False
        changes, neg0, slack = self._classify(m, k, w, cont)
        result, cells = _scan(m, k, w, cont)
        if changes == 0:
            c1 = (m - 1) / 2.0 * 1.0 * w + k * w
            want = (1.0, c1, 0, c1 - (1.0 + cont[-1])) if neg0 else (0.0, 1.0 + cont[0], 0, 0.0)
            assert result == want, (m, k, w)
        elif changes == 1:
            assert result[2] == 1 and len(cells) == 1, (m, k, w)
            probes = eqsolver._GapProbes(np.array([m]), np.array([k]), w, cont[None, :])
            got, cert = eqsolver._enclose(
                probes, np.array([cont.max()]), np.array([neg0]), np.array([slack]), UPPER
            )
            assert got[0] in (-1, cells[0]), (m, k, w)
            if got[0] >= 0:
                q, gap, enter = eqsolver._bisect_lockstep(
                    probes, np.array([0]), UPPER[got], UPPER[got + 1], np.array([neg0]),
                    eqsolver.DEFAULT_TOL, cert,
                )
                if not math.isnan(gap[0]):
                    assert (q[0], enter[0], 1, gap[0]) == result, (m, k, w)
                    replayed = True
        return changes, replayed

    def test_random_continuations(self):
        rng = np.random.default_rng(19)
        seen, replayed = {}, 0
        for case in range(1800):
            w = self.WS[case % len(self.WS)]
            m, k = int(rng.integers(2, 61)), int(rng.integers(1, 6))
            changes, checked = self.assert_class(m, k, w, self._random_cont(rng, m, k, w))
            seen[min(changes, 2)] = seen.get(min(changes, 2), 0) + 1
            replayed += checked
        assert set(seen) == {-1, 0, 1, 2}, seen
        assert seen[1] >= 200, seen
        # certified states whose lockstep replay was checked against the scan
        assert replayed >= 200, replayed

    def test_built_cases(self):
        w, k, m = 3.0, 1, 31
        line = k * w + w * np.arange(m) / 2.0 - 1.0
        i = np.arange(m)
        # gamma of two and three sign changes: the scan decides
        for cuts in ((8, 20), (5, 14, 25)):
            sign = (-1) ** np.searchsorted(cuts, i, side="right")
            cont = line + sign * 0.5
            changes, _, _ = self._classify(m, k, w, cont)
            assert changes == len(cuts)
            self.assert_class(m, k, w, cont)
        # gamma exactly 0 at some i: within the slack, the scan decides
        cont = line + np.where(i < 10, -0.5, 0.5)
        cont[[3, 17]] = line[[3, 17]]
        gamma = k * w + w * i / 2.0 - (1.0 + cont)
        assert (gamma[[3, 17]] == 0.0).all()
        assert self._classify(m, k, w, cont)[0] == -1
        self.assert_class(m, k, w, cont)

    @pytest.mark.parametrize("policy", list(RootPolicy))
    def test_empty_queue_states(self, policy):
        # (m, 0): the degree-m form's classes against the scan, tuple for tuple
        rng = np.random.default_rng(0)
        for case in range(300):
            w = self.WS[case % len(self.WS)]
            m = int(rng.integers(2, 61))
            cont = self._random_cont(rng, m, 1, w)
            cont[0] = 0.0  # the divided-out self-loop
            pmf, tol = eqsolver._Pmf(m - 1), eqsolver.DEFAULT_TOL
            points = eqsolver.DEFAULT_GRID_POINTS
            want = eqsolver._scan_state(pmf, 0, w, cont, points, policy, tol)
            assert eqsolver._empty_queue_state(pmf, w, cont, points, policy, tol) == want, (m, w)

    @pytest.mark.parametrize("w", [1.5, 3.0, 100.0])
    def test_unclassified_states_reach_the_scan(self, w):
        # a diagonal whose open states cover all classes: every state that
        # gamma does not settle is among the columns left to the scan
        rng = np.random.default_rng(int(w))
        t = 40
        prev = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0 * t, t - 1))])
        ms = np.arange(2, t)
        cmax = np.maximum.accumulate(prev[1:])[ms - 1]
        cols = np.flatnonzero(~eqsolver._certifies_no_entry(t - ms, w, cmax))
        out = np.zeros((4, t - 1))
        left = eqsolver._settle_open(out, cols, prev, w, cmax[cols], UPPER, eqsolver.DEFAULT_TOL)
        for col in cols.tolist():
            m = col + 2
            changes = self._classify(m, t - m, w, prev[m:0:-1])[0]
            if changes not in (0, 1):
                assert col in left


class TestGapProbes:
    """The batched probe equals ``_GapEvaluator.probe`` (==) on every row."""

    def test_random_batches(self):
        rng = np.random.default_rng(150)
        qs_fixed = [1e-300, 1e-12, 1.0 - 2.0**-52]
        cases = 0
        for w in (1.01, 3.0, 100.0, 1e18):
            for _ in range(6):
                size = int(rng.integers(1, 30))
                ms = rng.integers(2, 151, size)
                ks = rng.integers(1, 20, size)
                conts = np.zeros((size, ms.max()))
                for j, m in enumerate(ms.tolist()):
                    conts[j, :m] = rng.uniform(0.0, 3.0 * (m + ks[j]), m)
                probes = eqsolver._GapProbes(ms, ks, w, conts)
                for _ in range(4):
                    rows = sorted(rng.choice(size, int(rng.integers(1, size + 1)), replace=False).tolist())
                    qs = [qs_fixed[r % 4] if r % 4 < 3 else float(rng.uniform()) for r in rows]
                    gaps, enters = probes(rows, qs)
                    for r, q, gap, enter in zip(rows, qs, gaps, enters):
                        m = int(ms[r])
                        ev = eqsolver._GapEvaluator(
                            eqsolver._Pmf(m - 1), int(ks[r]), w, conts[r, :m].copy()
                        )
                        assert (gap, enter) == ev.probe(q), (m, q, w)
                        cases += 1
        assert cases >= 500


class TestBisectLockstep:
    """``_bisect_lockstep`` against ``_bisect``, bracket for bracket (==).

    Brackets need not hold a root: both follow the sign of the gap at the
    left end, so random brackets also run out of rounds or of midpoints.
    """

    @pytest.mark.parametrize("rounds", [eqsolver._MAX_BISECT, 3])
    def test_against_scalar_bisect(self, rounds, monkeypatch):
        monkeypatch.setattr(eqsolver, "_MAX_BISECT", rounds)
        rng = np.random.default_rng(rounds)
        size, w, tol = 40, 3.0, eqsolver.DEFAULT_TOL
        ms, ks = rng.integers(2, 40, size), rng.integers(1, 4, size)
        conts = np.zeros((size, ms.max()))
        for j, m in enumerate(ms.tolist()):
            conts[j, :m] = rng.uniform(0.0, 3.0 * (m + ks[j]), m)
        a = rng.uniform(0.0, 0.9, size)
        b = a + rng.uniform(1e-9, 0.1, size)
        b[:4] = np.nextafter(a[:4], 1.0)  # no midpoint strictly inside
        neg = rng.uniform(size=size) < 0.5
        probes = eqsolver._GapProbes(ms, ks, w, conts)
        q, gap, enter = eqsolver._bisect_lockstep(probes, np.arange(size), a, b, neg, tol)
        left_open = 0
        for j, m in enumerate(ms.tolist()):
            ev = eqsolver._GapEvaluator(
                eqsolver._Pmf(m - 1), int(ks[j]), w, conts[j, :m].copy()
            )
            fa = -1.0 if neg[j] else 1.0
            want_q, want_gap = eqsolver._bisect(ev, float(a[j]), float(b[j]), fa, -fa, tol)
            assert q[j] == want_q, j
            if math.isnan(gap[j]):
                left_open += 1
                assert ev.probe(want_q)[0] == want_gap
            else:
                assert (gap[j], enter[j]) == (want_gap, ev.enter(want_q)), j
        assert left_open >= 4


class TestDiagonalSolver:
    """The diagonal solver against the frozen per-state loop, where its fallbacks live."""

    @pytest.mark.parametrize("policy", list(RootPolicy))
    def test_n150_w1_5(self, policy):
        params = GameParams(150, 1.5)
        TestRowCertificate._assert_same(
            solve_equilibrium(params, policy), oracles.solve_equilibrium_per_state(params, policy)
        )

    @pytest.mark.parametrize("policy", list(RootPolicy))
    @pytest.mark.parametrize("w", [1 + 1e-12, 1.01, 2 - 1e-12, 2 + 1e-12])
    def test_n60_near_w_edges(self, w, policy):
        params = GameParams(60, w)
        TestRowCertificate._assert_same(
            solve_equilibrium(params, policy), oracles.solve_equilibrium_per_state(params, policy)
        )

    @pytest.mark.parametrize("policy", list(RootPolicy))
    @pytest.mark.parametrize("w", [1.5, 3.0])
    @pytest.mark.parametrize("rounds", [3, 24])
    def test_brackets_out_of_steps(self, rounds, w, policy, monkeypatch):
        # few bisection steps leave lockstep brackets open, so the solve
        # fills in their last probes as _bisect does; the frozen loop runs
        # with the same step count
        monkeypatch.setattr(eqsolver, "_MAX_BISECT", rounds)
        params = GameParams(60, w)
        TestRowCertificate._assert_same(
            solve_equilibrium(params, policy), oracles.solve_equilibrium_per_state(params, policy)
        )

    @pytest.mark.parametrize("policy", list(RootPolicy))
    def test_scan_is_a_fallback(self, policy, monkeypatch):
        # on these games every open k >= 1 state is settled by gamma's signs
        # or the lockstep, whatever the size of its diagonal.  By the prefix
        # property G(40; w) solves every state of G(n; w), n = 2..40, as they
        # do.  Every scan, through _scan_state or not, goes through _scan.
        calls = []
        scan = eqsolver._scan

        def counted(ev, *args):
            calls.append((ev.m, ev.k))
            return scan(ev, *args)

        monkeypatch.setattr(eqsolver, "_scan", counted)
        for n, w in [(40, 10.0), (40, 100.0), (40, 1e18), (150, 100.0), (150, 1e4)]:
            solve_equilibrium(GameParams(n, w), policy)
            assert not [s for s in calls if s[1] >= 1], (n, w)
        assert calls  # the k = 0 states at w = 1e18 are scanned, so the wrapper is live


def _exact_gap(m, k, w, cont, q):
    """The gap at (m, k >= 1) and a float q in (0, 1), in mpmath at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        d, q = m - 1, mpmath.mpf(q)
        ratio, p, wait = q / (1 - q), (1 - q) ** d, mpmath.mpf(1)
        for i, c in enumerate(np.asarray(cont, dtype=float).tolist()):
            wait += p * c
            p = p * (d - i) / (i + 1) * ratio
        return mpmath.mpf(d) / 2 * q * w + k * w - wait


class TestRoundingBound:
    """E bounds every computed gap against the exact one, in both log families."""

    def test_against_mpmath(self):
        import mpmath

        rng = np.random.default_rng(21)
        edge_qs = (1e-300, 1e-12, 0.5, 1.0 - 2.0**-52)
        worst = 0.0
        for case in range(2000):
            w = (1.01, 3.0, 100.0, 1e18)[case % 4]
            m = int(np.exp(rng.uniform(math.log(2), math.log(401))))  # log-uniform on 2..400
            k = int(rng.integers(1, 401))
            cont = rng.uniform(0.0, float(rng.choice([1.0, m + k, w * (m + k)])), m)
            if case % 50 == 0:
                q = edge_qs[case // 50 % 4]
            else:
                q = float(10.0 ** rng.uniform(-16, 0)) if case % 2 else float(rng.uniform(1e-9, 1.0))
            bound = eqsolver._rounding_bound(
                np.array([m]), np.array([k]), w, np.array([cont.max()])
            )[0]
            pmf = eqsolver._Pmf(m - 1)
            ev = eqsolver._GapEvaluator(pmf, k, w, cont)
            qs = np.array([q])
            got = (
                ev.probe(q)[0],  # math.log rows and one dot, as _GapProbes
                float(ev.gap(qs, pmf.rows(qs))[0]),  # np.log rows, the scan's product
            )
            exact = _exact_gap(m, k, w, cont, q)
            for gap in got:
                err = float(abs(mpmath.mpf(gap) - exact))
                assert err <= bound, (m, k, w, q, err, bound)
                worst = max(worst, err / bound)
        assert worst > 1e-4, worst  # the bound is not vacuous


def _monotone_batch(rng, w, size, m_max):
    """k >= 1 states whose gamma is strictly monotone with one sign change."""
    ms = rng.integers(2, m_max + 1, size)
    ks = rng.integers(1, 12, size)
    conts = np.zeros((size, ms.max()))
    for j, (m, k) in enumerate(zip(ms.tolist(), ks.tolist())):
        x = np.arange(m) / (m - 1)
        # gamma near a line, as in the game, so that most enclosures hold
        f = x + (0.0, 1e-6, 1e-3, 0.1)[j % 4] * np.sin(3.0 * x)
        x0 = rng.uniform(0.05, 0.95)
        at = float(np.interp(x0, x, f))
        line = k * w + w * np.arange(m) / 2.0 - 1.0
        gamma = (1 if j % 3 else -1) * rng.uniform(0.05, 0.45) * (k * w - 1.0) * (f - at)
        conts[j, :m] = line - gamma
    return ms, ks, conts


def _exact_root(m, k, w, cont, a, b):
    """Adjacent floats around the exact root in [a, b], whose exact gaps differ in sign."""
    neg = _exact_gap(m, k, w, cont, a) < 0
    while True:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            return a, b
        if (_exact_gap(m, k, w, cont, mid) < 0) == neg:
            a = mid
        else:
            b = mid


class TestCertifiedReplay:
    """``_bisect_lockstep`` with ``_enclose``'s certificates against ``_bisect`` (==)."""

    TOL = eqsolver.DEFAULT_TOL

    def _assert_replay(self, ms, ks, w, conts, cells, neg0, cert):
        probes = eqsolver._GapProbes(ms, ks, w, conts)
        q, gap, enter = eqsolver._bisect_lockstep(
            probes, np.arange(len(ms)), UPPER[cells], UPPER[cells + 1], neg0, self.TOL, cert
        )
        for j, m in enumerate(ms.tolist()):
            ev = eqsolver._GapEvaluator(
                eqsolver._Pmf(m - 1), int(ks[j]), w, conts[j, :m].copy()
            )
            fa = -1.0 if neg0[j] else 1.0
            a, b = float(UPPER[cells[j]]), float(UPPER[cells[j] + 1])
            want_q, want_gap = eqsolver._bisect(ev, a, b, fa, -fa, self.TOL)
            assert q[j] == want_q, j
            if math.isnan(gap[j]):
                assert ev.probe(want_q)[0] == want_gap
            else:
                assert (gap[j], enter[j]) == (want_gap, ev.enter(want_q)), j

    # these brackets stop after 16 to 30 steps, so at 24 many run out of
    # steps after both skipped and probed ones
    @pytest.mark.parametrize("rounds", [eqsolver._MAX_BISECT, 3, 24])
    @pytest.mark.parametrize("w", [1.01, 3.0, 100.0, 1e18])
    def test_against_scalar_bisect(self, w, rounds, monkeypatch):
        monkeypatch.setattr(eqsolver, "_MAX_BISECT", rounds)
        rng = np.random.default_rng(int(w) + rounds)
        ms, ks, conts = _monotone_batch(rng, w, 60, 120)
        cmax = conts.max(axis=1)
        changes, neg0, slack = eqsolver._gamma_signs(ms, ks, w, conts, cmax)
        assert (changes == 1).all()
        probes = eqsolver._GapProbes(ms, ks, w, conts)
        cells, cert = eqsolver._enclose(probes, cmax, neg0, slack, UPPER)
        held = cells >= 0
        assert held.sum() >= 30, held.sum()
        for j in np.flatnonzero(held).tolist():  # the scan bisects the same cell
            m = int(ms[j])
            assert _scan(m, int(ks[j]), w, conts[j, :m])[1] == [cells[j]]
        self._assert_replay(
            ms[held], ks[held], w, conts[held], cells[held], neg0[held],
            tuple(x[held] for x in cert),
        )

    @pytest.mark.parametrize("rounds", [eqsolver._MAX_BISECT, 3])
    def test_roots_in_doubt(self, rounds, monkeypatch):
        # certificates whose ends lie within the doubt radius E/L of the
        # exact root: the replay stays bit for bit
        monkeypatch.setattr(eqsolver, "_MAX_BISECT", rounds)
        rng = np.random.default_rng(5)
        w = 3.0
        ms, ks, conts = _monotone_batch(rng, w, 16, 40)
        cmax = conts.max(axis=1)
        _, neg0, slack = eqsolver._gamma_signs(ms, ks, w, conts, cmax)
        probes = eqsolver._GapProbes(ms, ks, w, conts)
        cells, cert = eqsolver._enclose(probes, cmax, neg0, slack, UPPER)
        held = cells >= 0
        assert held.sum() >= 8, held.sum()
        ms, ks, conts, cells, neg0 = ms[held], ks[held], conts[held], cells[held], neg0[held]
        lo, hi, slope, bound = (x[held] for x in cert)
        radius = bound / slope
        roots = np.array([
            _exact_root(int(m), int(k), w, conts[j, :m], lo[j], hi[j])
            for j, (m, k) in enumerate(zip(ms.tolist(), ks.tolist()))
        ]).T
        assert (hi - lo > radius).all() and (np.nextafter(roots[0], 1.0) == roots[1]).all()
        for near_lo, near_hi in ((0.0, 0.0), (0.01, 0.99), (0.99, 0.5), (0.5, 0.01)):
            cert = (roots[0] - near_lo * radius, roots[1] + near_hi * radius, slope, bound)
            self._assert_replay(ms, ks, w, conts, cells, neg0, cert)

    def test_roots_near_grid_points(self):
        # roots moved within the doubt radius of a scan-grid point: an
        # enclosure that holds the point is refused, one that does not has
        # the scan's cell, and a replay from the scan's own cell with an
        # exact certificate stays bit for bit
        rng = np.random.default_rng(7)
        w = 3.0
        ms, ks, conts = _monotone_batch(rng, w, 12, 40)
        cmax = conts.max(axis=1)
        _, neg0, slack = eqsolver._gamma_signs(ms, ks, w, conts, cmax)
        probes = eqsolver._GapProbes(ms, ks, w, conts)
        _, (_, _, slope, bound) = eqsolver._enclose(probes, cmax, neg0, slack, UPPER)
        moved = conts.copy()
        grid_at = rng.integers(40, len(UPPER) - 40, len(ms))
        for j, (m, k) in enumerate(zip(ms.tolist(), ks.tolist())):
            shift = float(_exact_gap(m, k, w, conts[j, :m], float(UPPER[grid_at[j]])))
            shift -= (j % 5 - 2) * 0.2 * float(bound[j])  # root within 0.4 E/L of the point
            moved[j, :m] += shift
        cmax = moved.max(axis=1)
        changes, neg0, slack = eqsolver._gamma_signs(ms, ks, w, moved, cmax)
        one = changes == 1
        assert one.sum() >= 8, one.sum()
        ms, ks, moved, grid_at = ms[one], ks[one], moved[one], grid_at[one]
        neg0, slack, cmax = neg0[one], slack[one], cmax[one]
        got, (lo, hi, slope, bound) = eqsolver._enclose(
            eqsolver._GapProbes(ms, ks, w, moved), cmax, neg0, slack, UPPER
        )
        g = UPPER[grid_at]
        assert ((got < 0) == (np.isnan(lo) | ((lo < g) & (g < hi)))).all()
        assert (got < 0).sum() >= 4
        cells = np.array([
            _scan(int(m), int(k), w, moved[j, :m])[1][0]
            for j, (m, k) in enumerate(zip(ms.tolist(), ks.tolist()))
        ])
        assert (cells[got >= 0] == got[got >= 0]).all()
        roots = np.array([
            _exact_root(int(m), int(k), w, moved[j, :m], g[j] * (1 - 1e-6), g[j] * (1 + 1e-6))
            for j, (m, k) in enumerate(zip(ms.tolist(), ks.tolist()))
        ]).T
        assert (np.abs(roots[0] - g) < bound / slope).all()
        self._assert_replay(ms, ks, w, moved, cells, neg0, (roots[0], roots[1], slope, bound))
