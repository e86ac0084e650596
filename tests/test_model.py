import math

import numpy as np
import pytest

from bneck import model
from bneck.eqsolver import profile_cost_table, solve_equilibrium, verify_profile
from bneck.model import (
    CostRole,
    CostTable,
    DivergentCostError,
    EntryProfile,
    GameParams,
    InvalidParameterError,
    NonTerminatingProfileError,
    QueueState,
    binom_pmf,
    cost_enter,
    enumerate_states,
    total_cost_evaluate,
)
from bneck.optsolver import heuristic_profile_large_w, heuristic_profile_small_w

import oracles
from oracles import cost_wait, step_cost_total

S = QueueState
SQRT5 = math.sqrt(5.0)


class TestTypes:
    def test_params_validation(self):
        GameParams(1, 1.5)
        with pytest.raises(InvalidParameterError):
            GameParams(0, 8.0)
        with pytest.raises(InvalidParameterError):
            GameParams(3, 1.0)

    def test_state_validation(self):
        with pytest.raises(InvalidParameterError):
            S(-1, 0)
        assert S(2, 1).total == 3

    def test_profile_probability_range(self):
        with pytest.raises(InvalidParameterError):
            EntryProfile({S(2, 0): 1.5})
        with pytest.raises(InvalidParameterError):
            EntryProfile({S(1, 1): 0.3})  # m = 1 states store q = 1

    def test_cost_table_validation(self):
        with pytest.raises(InvalidParameterError):
            CostTable(CostRole.PER_OUTSIDE_PLAYER, {S(0, 1): 1.0})
        with pytest.raises(InvalidParameterError):
            CostTable(CostRole.TOTAL_SOCIAL, {S(1, 0): -0.5})
        assert CostTable(CostRole.TOTAL_SOCIAL, {S(0, 2): 3.0})[S(0, 2)] == 3.0


class TestEnumerateStates:
    def test_n1(self):
        assert enumerate_states(1) == [S(1, 0)]

    def test_n2(self):
        assert enumerate_states(2) == [S(1, 0), S(1, 1), S(2, 0)]

    def test_n3_count_and_last(self):
        states = enumerate_states(3)
        assert len(states) == 6  # n(n+1)/2
        assert states[-1] == S(3, 0)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_continuations_precede(self, n):
        states = enumerate_states(n)
        assert len(states) == n * (n + 1) // 2
        pos = {s: j for j, s in enumerate(states)}
        for s in states:
            for i in range(s.m):
                if s.k + i - 1 < 0 or s.m - i < 1:
                    continue
                succ = S(s.m - i, s.k + i - 1)
                assert pos[succ] < pos[s]

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            enumerate_states(0)

    def test_caller_mutation_does_not_leak(self):
        first = enumerate_states(4)
        expected = list(first)
        first.reverse()
        first.append(S(9, 9))
        del first[0]
        assert enumerate_states(4) == expected
        assert enumerate_states(4) is not enumerate_states(4)

    def test_cache_holds_one_n(self):
        # one cache at the largest n asked for; smaller n are slices of it
        big = enumerate_states(30)
        cache = model._state_cache
        for n in (3, 30, 7, 29, 1, 12, 30):
            states, m, k = model._states(n)
            assert model._state_cache is cache, n
            assert states == tuple(enumerate_states(n)), n
            assert all(a is b for a, b in zip(states, big)), n
            assert m.tolist() == [s.m for s in states] and k.tolist() == [s.k for s in states]
            for a in (m, k):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 1


class TestCachedArraysReadOnly:
    """Arrays kept across calls or probes must not be writable by a caller."""

    @staticmethod
    def _assert_read_only(a):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0

    def test_pmf_row_constants(self):
        pmf = model._Pmf(7)
        for a in (pmf._i, pmf._rest, pmf._logc):
            self._assert_read_only(a)

    def test_logfact_table(self):
        self._assert_read_only(model._logfact(20))


class TestPmfRow:
    @pytest.mark.parametrize("m", [1, 2, 7, 40, 160])
    def test_pmf_row_matches_binom_row(self, m):
        pmf = model._Pmf(m)
        for q in (1e-300, 1e-12, 0.3, 0.5, 0.9999, 0.0, 1.0, 0.7, math.nan):
            assert np.array_equal(pmf(q), oracles.binom_row_plain(m, q), equal_nan=True), q


class TestBinomMatrix:
    @pytest.mark.parametrize("m", [1, 2, 40, 150, 600])
    def test_equals_one_exp_over_the_matrix(self, m):
        # the entries below the exp floor are 0 either way; all others are np.exp's own
        qs = np.concatenate([[0.0, 1e-300, 1e-12], np.geomspace(1e-9, 1.0, 300), [0.5, 1.0]])
        assert np.array_equal(model._Pmf(m).rows(qs), oracles.binom_matrix_plain(m, qs))


class TestExpInto:
    def test_out_may_be_logv(self):
        # m = 87, q = 1e-12: most of the degree-86 row lies below the exp
        # floor, so the masked path runs
        pmf = model._Pmf(86)
        logv = pmf.log_into(*pmf.log_columns(np.array([1e-12])), np.empty((1, 87)), np.empty((1, 87)))
        want = model._exp_into(logv, np.empty_like(logv))
        assert 8 * np.count_nonzero(want) <= 7 * want.size
        got = model._exp_into(logv, logv)
        assert got is logv
        assert np.array_equal(got, want)


class TestSuccessors:
    @pytest.mark.parametrize("w", [3.0, 100.0])
    def test_block_is_successor_values_past_slot_0(self, w):
        n = 12
        cost = solve_equilibrium(GameParams(n, w)).per_player.values.dense(n)
        for s in enumerate_states(n):
            if s.m < 2:
                continue
            block = model._successors(cost, s.m, np.array([s.k, s.k]))
            expected = model._successor_values(cost, s.m, s.k)[1:]
            assert block.shape == (2, s.m - 1), s
            assert np.array_equal(block[0], expected) and np.array_equal(block[1], expected), s


class TestBinomPmf:
    def test_examples(self):
        assert binom_pmf(3, 0, 0.5) == pytest.approx(0.125, abs=0)
        assert binom_pmf(0, 0, 0.7) == 1.0
        # high-precision oracle value (mpmath, 50 digits)
        assert binom_pmf(100, 2, 1e-6) == pytest.approx(4.9495149235265971e-9, rel=1e-12)

    def test_errors(self):
        with pytest.raises(InvalidParameterError):
            binom_pmf(3, 4, 0.5)
        with pytest.raises(InvalidParameterError):
            binom_pmf(3, -1, 0.5)
        with pytest.raises(InvalidParameterError):
            binom_pmf(3, 1, 1.5)

    def test_against_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(5)
        for _ in range(300):
            m = int(rng.integers(0, 400))
            i = int(rng.integers(0, m + 1))
            q = float(rng.random())
            assert binom_pmf(m, i, q) == pytest.approx(
                float(stats.binom.pmf(i, m, q)), rel=1e-10, abs=1e-300
            )

    def test_against_mpmath_extremes(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        cases = [
            (10_000, 3, 1e-15),
            (10_000, 0, 1e-15),
            (10_000, 17, 1e-6),
            (2_000, 1000, 0.5),
            (1_000, 999, 1 - 1e-9),
            (512, 511, 0.75),
        ]
        for m, i, q in cases:
            exact = mp.binomial(m, i) * mp.mpf(q) ** i * (1 - mp.mpf(q)) ** (m - i)
            got = binom_pmf(m, i, q)
            assert got >= 0.0 and math.isfinite(got)
            assert got == pytest.approx(float(exact), rel=1e-10, abs=1e-290)

    @pytest.mark.parametrize("m", [1, 2, 5, 17, 100, 419, 1000])
    def test_sums_to_one(self, m):
        for q in (1e-15, 1e-6, 0.1, 0.5, 0.9, 1 - 1e-6, 0.0, 1.0):
            total = math.fsum(binom_pmf(m, i, q) for i in range(m + 1))
            assert abs(total - 1.0) <= 1e-12


class TestCostEnter:
    def test_examples(self):
        assert cost_enter(S(2, 0), 0.5, 8.0) == pytest.approx(2.0)
        assert cost_enter(S(1, 4), 0.7, 9.0) == pytest.approx(4 * 9.0)
        assert cost_enter(S(3, 1), 0.2, 10.0) == pytest.approx(12.0)

    def test_linear_in_q(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m, k = int(rng.integers(1, 30)), int(rng.integers(0, 10))
            w = 2.0 + float(rng.random()) * 50
            q1, q2 = sorted(rng.random(2))
            lam = float(rng.random())
            mid = lam * q1 + (1 - lam) * q2
            lhs = cost_enter(S(m, k), mid, w)
            rhs = lam * cost_enter(S(m, k), q1, w) + (1 - lam) * cost_enter(S(m, k), q2, w)
            assert lhs == pytest.approx(rhs, rel=1e-12)
        assert cost_enter(S(7, 3), 0.0, 11.0) == 3 * 11.0


class TestCostWait:
    def test_two_player_empty_queue(self):
        cont = {S(1, 0): 0.0}
        assert cost_wait(S(2, 0), 0.5, 8.0, cont) == pytest.approx(2.0)

    def test_lone_agent_recursion(self):
        for k in range(1, 6):
            cont = {S(1, k - 1): float(k - 1)}
            assert cost_wait(S(1, k), 0.33, 5.0, cont) == pytest.approx(float(k))

    def test_queue_of_one_at_q0(self):
        cont = {S(2, 0): SQRT5, S(1, 1): 1.0}
        assert cost_wait(S(2, 1), 0.0, 10.0, cont) == pytest.approx(1 + SQRT5, rel=1e-14)

    def test_divergent_at_zero(self):
        with pytest.raises(DivergentCostError):
            cost_wait(S(3, 0), 0.0, 8.0, {S(2, 0): 1.0, S(1, 1): 1.0})

    def test_diverges_as_q_to_zero(self):
        cont = {S(2, 0): 2.0, S(1, 1): 1.0}
        assert cost_wait(S(3, 0), 1e-9, 8.0, cont) > 1e6
        assert cost_wait(S(3, 0), 1e-300, 8.0, cont) > 1e250

    def test_continuous_in_q_for_nonempty_queue(self):
        cont = {S(3, 0): 3.0, S(2, 1): 2.5, S(1, 2): 2.0}
        qs = np.linspace(0, 1, 1001)
        vals = [cost_wait(S(3, 1), float(q), 7.0, cont) for q in qs]
        diffs = np.abs(np.diff(vals))
        assert diffs.max() < 0.05  # Lipschitz on a fine grid, no jumps


class TestStepCostTotal:
    def test_examples(self):
        assert step_cost_total(S(2, 0), 2, 8.0) == pytest.approx(8.0)
        assert step_cost_total(S(5, 0), 0, 3.0) == pytest.approx(5.0)
        assert step_cost_total(S(0, 3), 0, 5.0) == pytest.approx(10.0)

    def test_drain_sums_to_closed_form(self):
        w, k = 5.0, 3
        total = sum(step_cost_total(S(0, j), 0, w) for j in range(1, k + 1))
        assert total == pytest.approx(w * k * (k - 1) / 2.0)

    def test_errors(self):
        with pytest.raises(InvalidParameterError):
            step_cost_total(S(2, 0), 3, 8.0)


class TestTotalCostEvaluate:
    def test_all_enter_small_w(self):
        table, total = total_cost_evaluate(EntryProfile.all_enter(3), GameParams(3, 1.5))
        assert total == pytest.approx(4.5, rel=1e-14)
        assert table[S(0, 2)] == pytest.approx(1.5)

    def test_two_player_parametric(self):
        w = 8.0
        for p in (0.05, 0.3, 0.5, 0.9, 1.0):
            profile = EntryProfile({S(2, 0): p, S(1, 0): 1.0, S(1, 1): 1.0})
            _, total = total_cost_evaluate(profile, GameParams(2, w))
            expected = (2 - 2 * p + p * p * w) / (p * (2 - p))
            assert total == pytest.approx(expected, rel=1e-12)

    def test_two_player_collision(self):
        profile = EntryProfile.all_enter(2)
        _, total = total_cost_evaluate(profile, GameParams(2, 8.0))
        assert total == pytest.approx(8.0)

    def test_non_terminating(self):
        profile = EntryProfile({S(2, 0): 0.0, S(1, 0): 1.0, S(1, 1): 1.0})
        with pytest.raises(NonTerminatingProfileError):
            total_cost_evaluate(profile, GameParams(2, 8.0))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_matches_direct_recursion(self, n):
        rng = np.random.default_rng(n)
        w = 2.0 + 10 * float(rng.random())
        for _ in range(4):
            p = [math.nan, 1.0] + [0.02 + 0.9 * float(x) for x in rng.random(n - 1)]
            profile = EntryProfile.from_empty_queue_probs(p, n)
            _, total = total_cost_evaluate(profile, GameParams(n, w))
            assert total == pytest.approx(
                oracles.total_cost_direct(p, n, w), rel=1e-10
            )

    def test_unreachable_never_entering_states_are_infinite(self):
        # (3, 0) sends everybody in at once, so the never-entering (2, 0) and
        # the (2, 1) that reaches it are off the path of play
        entries = {S(3, 0): 1.0, S(2, 0): 0.0, S(2, 1): 0.5}
        entries.update((S(1, k), 1.0) for k in range(3))
        profile, params = EntryProfile(entries), GameParams(3, 8.0)
        table, total = total_cost_evaluate(profile, params)
        assert total == pytest.approx(3 * 8.0, rel=1e-14)
        assert table[S(2, 0)] == math.inf
        assert table[S(2, 1)] == math.inf
        with pytest.raises(DivergentCostError):
            profile_cost_table(profile, params)

    def test_lone_agent_rule_zero_cost_for_heads_off_path(self):
        # T(1, k) must price the wait-out behavior: k + w k(k-1)/2
        profile = EntryProfile.all_enter(4)
        table, _ = total_cost_evaluate(profile, GameParams(4, 3.0))
        for k in range(0, 4):
            assert table[S(1, k)] == pytest.approx(k + 3.0 * k * (k - 1) / 2.0)


_DENSE_WS = [1.5, 2.5, 3.0, 10.0, 100.0, 1e18]


@pytest.fixture(scope="module")
def eq150():
    """Equilibrium profiles of G(150; w); a profile prices G(n; w), n <= 150, as is."""
    return {w: solve_equilibrium(GameParams(150, w)).profile for w in _DENSE_WS}


def _random_profile(n, rng):
    """q = 0, interior or 1 at k >= 1; interior or 1 at k = 0, so every state is finite."""
    entries = {}
    for s in enumerate_states(n):
        u = float(rng.random())
        if s.m == 1:
            entries[s] = 1.0
        elif s.k == 0:
            entries[s] = 1.0 if u < 0.2 else 0.01 + 0.98 * float(rng.random())
        else:
            entries[s] = 0.0 if u < 0.35 else 1.0 if u < 0.55 else float(rng.random())
    return EntryProfile(entries)


class TestDenseRowPass:
    """``model._profile_costs`` against the frozen per-state loop it replaced.

    The row pass sums each continuation in another order, so v and the
    waiting cost agree to rel 1e-13 (worst seen 5.2e-15 and 1.3e-14, at
    G(150; 3)), with the same +inf states.
    """

    def assert_close(self, profile, params):
        got = model._profile_costs(model._dense_q(profile, params.n), params.w)
        want = oracles.profile_costs_per_state(profile, params)
        for a, b in zip(got, want):
            n = params.n
            tri = np.add.outer(np.arange(n + 1), np.arange(n + 1)) <= n
            a, b = a[tri], b[tri]
            assert np.array_equal(np.isinf(a), np.isinf(b))
            fin = np.isfinite(b)
            np.testing.assert_allclose(a[fin], b[fin], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("w", _DENSE_WS)
    @pytest.mark.parametrize("n", [2, 3, 17, 40, 150])
    def test_equilibrium_profiles(self, eq150, n, w):
        self.assert_close(eq150[w], GameParams(n, w))

    @pytest.mark.parametrize("w", [2.5, 3.0, 10.0, 100.0, 1e18])
    @pytest.mark.parametrize("n", [2, 17, 150])
    def test_heuristic_profiles(self, n, w):
        for prof_fn in (heuristic_profile_small_w, heuristic_profile_large_w):
            profile = EntryProfile.from_empty_queue_probs(prof_fn(n, w), n)
            self.assert_close(profile, GameParams(n, w))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_profiles(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 41))
        w = float(1.2 + 50.0 * rng.random())
        self.assert_close(_random_profile(n, rng), GameParams(n, w))

    def test_off_path_never_entering_states(self):
        entries = {S(3, 0): 1.0, S(2, 0): 0.0, S(2, 1): 0.5}
        entries.update((S(1, k), 1.0) for k in range(3))
        self.assert_close(EntryProfile(entries), GameParams(3, 8.0))


class TestMissingState:
    """A profile that lacks a state of the game is rejected, never given a default q."""

    def lacking(self):
        entries = {S(3, 0): 0.5, S(2, 0): 0.5}
        entries.update((S(1, k), 1.0) for k in range(3))
        return EntryProfile(entries), GameParams(3, 8.0)  # no (2, 1)

    def test_total_cost_evaluate(self):
        with pytest.raises(InvalidParameterError, match=r"QueueState\(m=2, k=1\)"):
            total_cost_evaluate(*self.lacking())

    def test_profile_cost_table(self):
        with pytest.raises(InvalidParameterError, match=r"QueueState\(m=2, k=1\)"):
            profile_cost_table(*self.lacking())

    def test_verify_profile(self):
        with pytest.raises(InvalidParameterError, match=r"QueueState\(m=2, k=1\)"):
            verify_profile(*self.lacking())

    def test_names_the_first_missing_state(self):
        entries = {S(1, k): 1.0 for k in range(4)}
        entries[S(2, 0)] = 0.5
        with pytest.raises(InvalidParameterError, match=r"QueueState\(m=2, k=1\)"):
            total_cost_evaluate(EntryProfile(entries), GameParams(4, 8.0))

    def test_lone_agent_states_default_to_one(self):
        profile = EntryProfile({S(2, 0): 0.5})
        _, total = total_cost_evaluate(profile, GameParams(2, 8.0))
        assert total == pytest.approx((2 - 1 + 0.25 * 8.0) / 0.75, rel=1e-12)

    def test_states_beyond_n_are_ignored(self):
        profile = EntryProfile.all_enter(5)
        table, total = total_cost_evaluate(profile, GameParams(3, 1.5))
        assert total == pytest.approx(4.5, rel=1e-14)
        assert S(3, 1) not in table.values


class TestNanValue:
    """nan marks an absent state in a table, so a nan value is rejected."""

    def test_cost_table(self):
        with pytest.raises(InvalidParameterError, match=r"QueueState\(m=1, k=0\)"):
            CostTable(CostRole.PER_OUTSIDE_PLAYER, {S(1, 0): math.nan})

    def test_profile(self):
        with pytest.raises(InvalidParameterError, match=r"QueueState\(m=2, k=0\)"):
            EntryProfile({S(1, 0): 1.0, S(2, 0): math.nan})

    def test_from_empty_queue_probs(self):
        with pytest.raises(InvalidParameterError, match=r"QueueState\(m=2, k=0\)"):
            EntryProfile.from_empty_queue_probs([0.0, 1.0, math.nan], 2)


# every table the package builds iterates over row m = 0, then in
# enumerate_states order
ORDER3 = [S(1, 0), S(1, 1), S(2, 0), S(1, 2), S(2, 1), S(3, 0)]


class TestStateTable:
    """``EntryProfile.entries`` and ``CostTable.values`` behave as the dicts they replaced."""

    def table(self):
        values = {S(2, 0): 0.25, S(0, 1): 3.0, S(1, 0): 0.0, S(1, 1): 1.5, S(0, 0): 0.0}
        return values, CostTable(CostRole.TOTAL_SOCIAL, values).values

    def test_equals_its_dict(self):
        values, table = self.table()
        assert table == values and values == table
        assert dict(table) == values
        assert table != {**values, S(2, 0): 0.5}
        assert table != {S(1, 0): 0.0}

    def test_repr_is_the_dicts(self):
        values, table = self.table()
        assert repr(table) == repr({s: values[s] for s in table})
        profile = solve_equilibrium(GameParams(4, 3.0)).profile
        assert repr(profile.entries) == repr(dict(profile.entries))

    def test_contains_and_len(self):
        values, table = self.table()
        assert len(table) == 5
        assert all(s in table for s in values)
        assert S(0, 2) not in table and S(2, 1) not in table and S(9, 9) not in table

    def test_absent_and_out_of_range_states_raise_key_error(self):
        _, table = self.table()
        for state in (S(0, 2), S(2, 1), S(3, 0), S(0, 40), S(40, 0)):
            with pytest.raises(KeyError):
                table[state]
        assert table.get(S(2, 1)) is None

    def test_iteration_order(self):
        _, table = self.table()
        assert list(table) == [S(0, 0), S(0, 1), S(1, 0), S(1, 1), S(2, 0)]
        assert list(EntryProfile({s: 1.0 for s in reversed(ORDER3)}).entries) == ORDER3

    def test_array_is_read_only(self):
        _, table = self.table()
        with pytest.raises(ValueError):
            table._a[1, 0] = 5.0
        q = np.ones((3, 3))
        profile = EntryProfile(model._mask_off_game(q, 1))
        assert profile.entries._a is q and not q.flags.writeable
        assert EntryProfile(profile.entries).entries._a is q

    def test_dense(self):
        _, table = self.table()
        for n in (1, 2, 3):
            d = table.dense(n)
            assert d.shape == (n + 1, n + 1) and d.flags.writeable
            m, k = np.indices(d.shape)
            assert np.isnan(d[m + k > n]).all()
            for s in enumerate_states(n) + [S(0, k) for k in range(n + 1)]:
                assert (d[s.m, s.k] == table[s]) if s in table else np.isnan(d[s.m, s.k])
        d[0, 0] = 7.0  # a copy
        assert table[S(0, 0)] == 0.0

    def test_profile_round_trips_through_dict(self):
        p = solve_equilibrium(GameParams(6, 3.0)).profile
        assert EntryProfile(dict(p.entries)) == p

    def test_key_order_of_every_builder(self):
        params = GameParams(3, 3.0)
        eq = solve_equilibrium(params)
        assert list(eq.profile.entries) == ORDER3
        assert list(eq.per_player.values) == ORDER3
        assert list(eq.diagnostics) == ORDER3
        row0 = [S(0, 0), S(0, 1), S(0, 2), S(0, 3)]
        assert list(total_cost_evaluate(eq.profile, params)[0].values) == row0 + ORDER3
        assert list(profile_cost_table(eq.profile, params).values) == ORDER3
        assert list(EntryProfile.from_empty_queue_probs([0.0, 1.0, 0.5, 0.4], 3).entries) == ORDER3
        assert list(EntryProfile.all_enter(3).entries) == ORDER3
