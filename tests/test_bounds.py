import math
import sys
import warnings

import pytest

from bneck import bounds as bounds_mod
from bneck.bounds import (
    _E_RATIO,
    BoundsReport,
    aux_lemma_validators,
    bounds_report,
    entry_prob_lower,
    eq_lower_large_w,
    eq_lower_simple,
    eq_upper_large_w,
    eq_upper_small_w,
    nice_function_check,
    opt_bounds_large_w,
    opt_recursive_upper,
    phi_harmonic,
    phi_sqrt,
    prob_vanishing_check,
    ratio_targets,
    NiceBoundFunction,
)
from bneck.eqsolver import solve_equilibrium, verify_equilibrium
from bneck.model import (
    EntryProfile,
    GameParams,
    InvalidParameterError,
    QueueState,
    enumerate_states,
    total_cost_evaluate,
)
from bneck.optsolver import heuristic_profile_large_w, heuristic_profile_small_w, solve_opt

import oracles
from oracles import prob_vanishing_trend

S = QueueState


class TestClosedForms:
    def test_eq_lower_simple(self):
        assert eq_lower_simple(2) == 1.0
        assert eq_lower_simple(1) == 0.0
        assert eq_lower_simple(50) == 49.0

    def test_eq_upper_small_w(self):
        assert eq_upper_small_w(3, 10.0) == pytest.approx(18.493061443340548, rel=1e-12)
        assert eq_upper_small_w(2, 2.5) == pytest.approx(5.3664339756999316, rel=1e-12)

    def test_eq_upper_large_w(self):
        assert eq_upper_large_w(3, 10.0, 1.0) == pytest.approx(
            20.014757350943897, rel=1e-12
        )
        assert eq_upper_large_w(2, 8.0, 1.0) == pytest.approx(
            2 * math.e / (math.e - 1) + 2 * math.sqrt(8.0) * 2.0, rel=1e-12
        )

    def test_eq_lower_large_w(self):
        sum_form, simple = eq_lower_large_w(2, 1e6, 0.01)
        assert sum_form == pytest.approx(0.98 * 500.0 * 0.5, rel=1e-12)
        # observed two-player cost sqrt(w/2) dominates the advisory floor
        assert math.sqrt(1e6 / 2) >= sum_form
        tiny = eq_lower_large_w(3, 4.0, 1e-12)[0]
        assert tiny == pytest.approx(
            math.sqrt(4.0) / 2 * (0.5 + 1 / (1 + math.sqrt(2))), rel=1e-9
        )

    def test_entry_prob_lower(self):
        assert entry_prob_lower(3, 0, 10.0) == pytest.approx(0.2)
        assert entry_prob_lower(3, 1, 10.0) == 0.0
        with pytest.raises(InvalidParameterError):
            entry_prob_lower(1, 0, 10.0)

    def test_opt_recursive_upper(self):
        # frozen high-precision evaluation of the stated expression
        assert opt_recursive_upper(2, 9.0, 0.5) == pytest.approx(
            9.4206246071025177, rel=1e-12
        )
        assert math.sqrt(17.0) <= opt_recursive_upper(2, 9.0, 0.5)
        assert opt_recursive_upper(5, 9.0, 1e-9) > 1e9  # diverges like m/alpha
        with pytest.raises(InvalidParameterError):
            opt_recursive_upper(2, 9.0, 2.0)

    def test_opt_bounds_large_w(self):
        ob = opt_bounds_large_w(2, 1e6, 0.05)
        assert ob.lower_closed == pytest.approx(
            0.95 * math.sqrt(2e6) * (2.0 / 3.0), rel=1e-12
        )
        observed = math.sqrt(2e6 - 1)
        assert ob.lower_sum <= observed <= ob.upper_sum
        near = opt_bounds_large_w(3, 25.0, 1e-9)
        assert near.lower_closed == pytest.approx(
            math.sqrt(50.0) * (2.0 / 3.0) * 2 * math.sqrt(2.0), rel=1e-6
        )

    def test_ratio_targets(self):
        t = ratio_targets(4, 1e6)
        assert t.fixed_w == 2.0
        assert t.large_w_eq_sc == pytest.approx(1000.0)
        assert t.large_w_eq_opt == pytest.approx(1.0606601717798212, rel=1e-12)


class TestNiceFunctions:
    @pytest.mark.parametrize("w", [2.5, 10.0, 1e4])
    def test_harmonic_passes(self, w):
        assert nice_function_check(phi_harmonic(w), 50).passed

    @pytest.mark.parametrize("w", [2.5, 10.0, 1e4])
    def test_sqrt_passes(self, w):
        assert nice_function_check(phi_sqrt(w, 1.0), 50).passed

    def test_mutant_fails_condition1(self):
        mutant = NiceBoundFunction("drops-k", 0.0, lambda m: float(m))
        result = nice_function_check(mutant, 10)
        assert not result.passed
        assert any(wit[0] == "condition1" and wit[1][1] >= 1 for wit in result.witnesses)

    def test_mutant_fails_condition2(self):
        # decreasing in m violates the move-to-queue monotonicity
        mutant = NiceBoundFunction("anti-monotone", 10.0, lambda m: -11.0 * m)
        result = nice_function_check(mutant, 10)
        assert not result.passed

    def test_witnesses(self):
        falls = NiceBoundFunction("falls", -1.0, lambda m: -float(m > 3))
        assert nice_function_check(falls, 10).witnesses == (
            ("condition1", (1, 1), (1, 0), -1.0, 1.0),
            ("condition2", (1, 1), (1, 0), -1.0, 0.0),
            ("condition2", (4, 0), (3, 1), -1.0, 0.0),
        )

    @pytest.mark.parametrize("n_max", [10, 50])
    @pytest.mark.parametrize(
        "phi",
        [make(w) for make in (phi_harmonic, phi_sqrt) for w in (2.5, 10.0, 1e4, 1e15)]
        + [
            NiceBoundFunction("drops-k", 0.0, lambda m: float(m)),
            NiceBoundFunction("anti-monotone", 10.0, lambda m: -11.0 * m),
        ],
        ids=lambda phi: phi.name,
    )
    def test_matches_grid_oracle(self, phi, n_max):
        result = nice_function_check(phi, n_max)
        passed, witnesses = oracles.nice_check_grid(phi, n_max)
        assert result.passed == passed
        assert {wit[0] for wit in result.witnesses} == {wit[0] for wit in witnesses}

    @pytest.mark.parametrize(
        "make, w",
        [(phi_harmonic, 1e16), (phi_harmonic, 1e30), (phi_harmonic, 1e300)]
        + [(phi_sqrt, 1e30), (phi_sqrt, 1e300)],
    )
    def test_exact_where_the_grid_rounds_k_away(self, make, w):
        # phi(m, k) - phi(m, 0) rounds below k once phi(m, 0) swamps k (from
        # w = 1e16 for the harmonic ceiling, 1e30 for the sqrt one), so the
        # float grid reports condition-1 witnesses for a nice function
        phi = make(w)
        assert nice_function_check(phi, 50).passed
        _, witnesses = oracles.nice_check_grid(phi, 50)
        assert any(wit[0] == "condition1" for wit in witnesses)

    def test_structured_values(self):
        # the structured form keeps the sqrt ceiling's arithmetic, and moves
        # the harmonic one by rounding only
        w, eps = 10.0, 0.5
        for m in range(1, 30):
            for k in range(30):
                sq = _E_RATIO * (m + k) + (1.0 + eps) * math.sqrt(w) * math.sqrt(
                    m + 2.0 * math.sqrt(m - 1.0)
                )
                assert phi_sqrt(w, eps)(m, k) == sq
                harm = m + k + math.sqrt(w / 2.0) + sum(w / (2.0 * i) for i in range(1, m))
                assert phi_harmonic(w)(m, k) == pytest.approx(harm, rel=1e-15)


class TestAuxLemmas:
    def test_all_pass(self):
        results = aux_lemma_validators(20_000, seed=42)
        assert set(results) == {
            "pow_sandwich",
            "small_prob",
            "large_prob",
            "sqrt_step",
            "sum_inv_sqrt",
        }
        for name, res in results.items():
            assert res.passed, (name, res.witnesses)

    def test_frozen_spot_values(self):
        # (1-p)^2 at p=.5 hits the upper endpoint exactly
        assert (1 - 0.5) ** 2 == 0.25
        # small-prob lemma at p=.1, n=3
        assert 1 / (1 - 0.9**3) == pytest.approx(3.6900369003690037, rel=1e-12)
        assert (1 / 1.8) * (2 / 0.3) == pytest.approx(3.7037037037037037, rel=1e-12)
        # sum-vs-integral lemma at m=4 (frozen mpmath values)
        lhs = sum(1 / (1 + math.sqrt(i)) for i in range(1, 5))
        rhs = 2 * (math.sqrt(5) - math.log(1 + math.sqrt(5)) - 1 + math.log(2))
        assert lhs == pytest.approx(1.613572299490867, rel=1e-12)
        assert rhs == pytest.approx(1.5097123048803725, rel=1e-12)
        assert lhs >= rhs


class TestProbVanishing:
    def test_inner_states_zero_at_moderate_w(self):
        eq = solve_equilibrium(GameParams(3, 10.0))
        entries = {e.state: e for e in prob_vanishing_check(eq, eps=0.1)}
        assert entries[S(2, 1)].satisfied  # q = 0 already

    def test_threshold_not_reached_at_small_w(self):
        eq = solve_equilibrium(GameParams(2, 8.0))
        entries = {e.state: e for e in prob_vanishing_check(eq, eps=0.1)}
        e = entries[S(2, 0)]
        assert e.value == pytest.approx(0.5, abs=1e-9)
        assert not e.satisfied

    def test_vanishes_at_large_w(self):
        eq = solve_equilibrium(GameParams(3, 1e6))
        entries = prob_vanishing_check(eq, eps=0.1)
        assert all(e.satisfied for e in entries)

    def test_trend_decreasing_in_w(self):
        ok, worsts = prob_vanishing_trend(3, [10.0, 100.0, 1000.0, 10000.0], eps=0.1)
        assert ok, worsts


def _largest_accepted_w(n: int) -> float:
    """The largest float w with w*n*(n-1) finite."""
    w = sys.float_info.max / (n * (n - 1))
    while math.isfinite(w * n * (n - 1)):
        w = math.nextafter(w, math.inf)
    while not math.isfinite(w * n * (n - 1)):
        w = math.nextafter(w, 0.0)
    return w


class TestBoundsReport:
    def test_hard_bounds_pass(self):
        for n, w in ((3, 10.0), (5, 100.0), (4, 2.5)):
            params = GameParams(n, w)
            report = bounds_report(solve_equilibrium(params), solve_opt(params), eps=0.3)
            assert report.passed, [e.name for e in report.hard_failures]

    def test_small_w_branch(self):
        params = GameParams(3, 1.5)
        report = bounds_report(solve_equilibrium(params), solve_opt(params))
        names = {e.name for e in report.entries}
        assert "small_w_total" in names
        assert report.passed
        assert report.ratios["ratio_eq_sc"] == pytest.approx(1.5, rel=1e-12)

    def test_two_player_ratios(self):
        params = GameParams(2, 8.0)
        report = bounds_report(solve_equilibrium(params), solve_opt(params))
        assert report.ratios["ratio_eq_sc"] == pytest.approx(4.0, rel=1e-9)
        assert report.ratios["target_large_w_eq_sc"] == pytest.approx(4.0)
        assert report.ratios["ratio_opt_sc"] == pytest.approx(math.sqrt(15.0), rel=1e-6)

    @pytest.mark.parametrize("w", [1.5, 2.5, 3.0, 1e18])
    def test_heuristics_priced_at_a_larger_n(self, w):
        # bneck sweep prices the heuristic profiles once, at the largest n;
        # every cell's report must equal the one priced at its own n
        big = bounds_mod._heuristic_totals(19, w)
        for n in (2, 7, 12, 19):
            params = GameParams(n, w)
            eq, opt = solve_equilibrium(params), solve_opt(params)
            got = bounds_mod._bounds_report(eq, opt, 0.5, bounds_mod.DEFAULT_REL_TOL, big)
            assert repr(got) == repr(bounds_report(eq, opt))

    @pytest.mark.parametrize("n, w", [(2, 8.0), (7, 2.5), (12, 3.0), (30, 10.0), (40, 1e18)])
    def test_array_rows_match_per_state_minimum(self, n, w):
        # the worst state is the smallest (margin, state) pair, ties to the smaller state
        params = GameParams(n, w)
        eq = solve_equilibrium(params)
        entries = {e.name: e for e in bounds_report(eq, solve_opt(params)).entries}
        _, s = min((eq.per_player[s] - (s.total - 1), s) for s in enumerate_states(n))
        e = entries["per_player_floor"]
        assert (e.note, e.bound, e.observed) == (f"worst state {s}", s.total - 1, eq.per_player[s])
        _, s = min(
            (eq.profile.q(s) - entry_prob_lower(s.m, s.k, w), s)
            for s in enumerate_states(n)
            if s.m >= 2
        )
        e = entries["entry_prob_floor"]
        assert (e.note, e.bound, e.observed) == (
            f"worst state {s}",
            entry_prob_lower(s.m, s.k, w),
            eq.profile.q(s),
        )
        vanish = []
        for s in enumerate_states(n):
            if s.m >= 2:
                q = eq.profile.q(s)
                value = q * (s.m - 1) if s.k == 0 else q
                vanish.append((s, value, value <= (0.5 if s.k == 0 else 1e-9)))
        got = prob_vanishing_check(eq, 0.5)
        assert [(v.state, v.value, v.satisfied) for v in got] == vanish
        e = entries["prob_vanishing"]
        assert e.observed == max(v[1] for v in vanish)
        assert e.note == f"{sum(v[2] for v in vanish)}/{len(vanish)} states in vanishing regime"

    def test_no_float_warnings_at_huge_w(self):
        # at the largest w that G(n; w) accepts; the next float up, like
        # 1.7e308, makes w*n*(n-1) overflow and is rejected
        for n in (2, 3, 6, 10, 40):
            w = _largest_accepted_w(n)
            for bad in (math.nextafter(w, math.inf), 1.7e308):
                with pytest.raises(InvalidParameterError, match=f"n={n}"):
                    GameParams(n, bad)
            params = GameParams(n, w)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                eq, opt = solve_equilibrium(params), solve_opt(params)
                assert verify_equilibrium(eq).passed
                report = bounds_report(eq, opt)
                total = total_cost_evaluate(eq.profile, params)[1]
            assert report.entries[0].name == "per_player_floor"
            assert total == pytest.approx(eq.total_cost, rel=1e-9)

    def test_parameter_mismatch(self):
        eq = solve_equilibrium(GameParams(3, 10.0))
        opt = solve_opt(GameParams(4, 10.0))
        with pytest.raises(InvalidParameterError):
            bounds_report(eq, opt)

    def test_expected_wait_chain_entry(self):
        params = GameParams(6, 5.0)
        report = bounds_report(solve_equilibrium(params), solve_opt(params))
        entry = next(e for e in report.entries if e.name == "expected_wait_chain")
        assert entry.passed and not entry.advisory

    def test_n1_rejected(self):
        params = GameParams(1, 3.0)
        with pytest.raises(InvalidParameterError):
            bounds_report(solve_equilibrium(params), solve_opt(params))

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("w", [1.5, 3.0])
    def test_bad_eps_rejected(self, w, eps):
        params = GameParams(3, w)
        with pytest.raises(InvalidParameterError):
            bounds_report(solve_equilibrium(params), solve_opt(params), eps)


_ADVISORY_EPS_ROWS = {
    1.0: [],
    0.9: [("eq_upper_large_w_eps", True)],
    0.3: [
        ("eq_upper_large_w_eps", True),
        ("eq_lower_large_w", True),
        ("eq_lower_large_w_simple", True),
    ],
}


class TestReportLayout:
    """Which entries each branch reports, in order, with their advisory flags."""

    def layout(self, w, eps):
        params = GameParams(4, w)
        report = bounds_report(solve_equilibrium(params), solve_opt(params), eps)
        return [(e.name, e.advisory) for e in report.entries]

    def test_small_w(self):
        assert self.layout(1.5, 0.5) == [
            ("small_w_total", False),
            ("small_w_ratio", False),
            ("opt_lower_sc", False),
        ]

    @pytest.mark.parametrize("eps", sorted(_ADVISORY_EPS_ROWS))
    def test_large_w(self, eps):
        assert self.layout(3.0, eps) == [
            ("per_player_floor", False),
            ("entry_prob_floor", False),
            ("eq_upper_small_w", False),
            ("eq_upper_large_w", False),
            *_ADVISORY_EPS_ROWS[eps],
            ("expected_wait_chain", False),
            ("prob_vanishing", True),
            ("opt_lower_sc", False),
            ("opt_upper_heuristic_small_w", False),
            ("opt_upper_heuristic_large_w", False),
            ("opt_increment_upper", False),
            ("opt_large_w_lower", True),
            ("opt_large_w_upper", True),
        ]


class TestHeuristicTotals:
    """The heuristic profiles priced by the optimum's stage recursion."""

    @pytest.mark.parametrize("w", [2.5, 3.0, 10.0, 100.0, 1e18])
    @pytest.mark.parametrize("prof_fn", [heuristic_profile_small_w, heuristic_profile_large_w])
    def test_matches_the_profile_cost_table(self, prof_fn, w):
        # T(n', 0) of G(150; w) is T(n', 0) of G(n'; w): one pass checks every n'
        p = prof_fn(150, w)
        totals = bounds_mod._empty_queue_totals(p, w)
        table, _ = total_cost_evaluate(EntryProfile.from_empty_queue_probs(p, 150), GameParams(150, w))
        for n in list(range(2, 41)) + [150]:
            assert totals[n] == pytest.approx(table[S(n, 0)], rel=1e-13, abs=0.0)
        if w <= 100.0:
            for n in (2, 3, 10, 40, 150):
                assert totals[n] == pytest.approx(oracles.total_cost_direct(p, n, w), rel=1e-10)

    @pytest.mark.parametrize("prof_fn", [heuristic_profile_small_w, heuristic_profile_large_w])
    def test_matches_exact_recursion_at_huge_w(self, prof_fn):
        # at w = 1e18, p_m is about 1e-9 and total_cost_direct's naive
        # 1 - (1-p)^m loses about 7 digits, so the oracle runs in mpmath
        w = 1e18
        p = prof_fn(60, w)
        totals = bounds_mod._empty_queue_totals(p, w)
        for n in (2, 3, 10, 60):
            assert totals[n] == pytest.approx(oracles.empty_queue_totals_exact(p, n, w), rel=1e-12)

    def test_prefix_property(self):
        big = bounds_mod._heuristic_totals(40, 3.0)
        for n in (2, 9, 40):
            small = bounds_mod._heuristic_totals(n, 3.0)
            assert {tag: t[n] for tag, t in small.items()} == {tag: t[n] for tag, t in big.items()}

    def test_none_at_small_w(self):
        assert bounds_mod._heuristic_totals(10, 2.0) == {}
