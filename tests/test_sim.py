import math

import numpy as np
import pytest

import oracles
from bneck.eqsolver import solve_equilibrium
from bneck.model import (
    EntryProfile,
    GameParams,
    InvalidParameterError,
    NonTerminatingProfileError,
    QueueState,
    total_cost_evaluate,
)
from bneck.optsolver import solve_opt
from bneck.sim import _BLOCK, _position_costs, simulate, simulate_once, trial_rng

S = QueueState

# the profile of test_mixed_entry_profile_priced_correctly: it also enters at
# non-empty queues, so the block path makes every kind of move
MIXED = EntryProfile(
    {
        S(3, 0): 0.6,
        S(2, 0): 0.5,
        S(2, 1): 0.4,
        S(2, 2): 0.0,
        S(1, 0): 1.0,
        S(1, 1): 1.0,
        S(1, 2): 1.0,
    }
)


class TestSimulateOnce:
    def test_all_enter_deterministic(self):
        params = GameParams(3, 2.0)
        profile = EntryProfile.all_enter(3)
        for t in range(20):
            total, per_agent, steps, truncated = simulate_once(
                profile, params, trial_rng(11, t)
            )
            assert total == pytest.approx(6.0)  # w n(n-1)/2
            assert not truncated
            assert sorted(per_agent.tolist()) == pytest.approx([0.0, 2.0, 4.0])

    def test_single_agent(self):
        params = GameParams(1, 5.0)
        profile = EntryProfile({S(1, 0): 1.0})
        total, per_agent, steps, truncated = simulate_once(profile, params, trial_rng(0, 0))
        assert total == 0.0
        assert steps == 1
        assert not truncated

    def test_forced_collision(self):
        params = GameParams(2, 8.0)
        profile = EntryProfile.all_enter(2)
        for t in range(10):
            total, _, _, truncated = simulate_once(profile, params, trial_rng(3, t))
            assert total == pytest.approx(8.0)
            assert not truncated

    def test_truncation_flag(self):
        params = GameParams(4, 50.0)
        profile = solve_equilibrium(params).profile
        hits = 0
        for t in range(50):
            *_, truncated = simulate_once(profile, params, trial_rng(1, t), max_steps=2)
            hits += truncated
        assert hits > 0

    def test_saturated_idle_wait_is_truncated(self):
        # q(2, 0) = 1e-300 makes the idle wait about 5e299 steps, past the
        # int64 ceiling at which rng.geometric saturates
        params = GameParams(2, 8.0)
        profile = EntryProfile.from_empty_queue_probs([0.0, 1.0, 1e-300], 2)
        *_, truncated = simulate_once(profile, params, trial_rng(0, 0))
        assert truncated


class TestSimulate:
    def test_reproducible(self):
        params = GameParams(3, 10.0)
        profile = solve_equilibrium(params).profile
        a = simulate(profile, params, 500, seed=7)
        b = simulate(profile, params, 500, seed=7)
        assert a == b
        c = simulate(profile, params, 500, seed=8)
        assert c.mean_total != a.mean_total

    def test_matches_analytic_equilibrium(self):
        params = GameParams(2, 8.0)
        profile = solve_equilibrium(params).profile
        rep = simulate(profile, params, 20_000, seed=5)
        assert rep.max_steps_hit == 0
        assert abs(rep.mean_total - 4.0) <= 3 * rep.std_error

    def test_matches_analytic_optimum(self):
        params = GameParams(2, 8.0)
        profile = EntryProfile.from_empty_queue_probs(solve_opt(params).p, 2)
        rep = simulate(profile, params, 20_000, seed=11)
        assert abs(rep.mean_total - math.sqrt(15.0)) <= 3 * rep.std_error

    def test_matches_total_cost_evaluate(self):
        params = GameParams(4, 6.0)
        profile = solve_equilibrium(params).profile
        _, analytic = total_cost_evaluate(profile, params)
        rep = simulate(profile, params, 20_000, seed=2)
        assert abs(rep.mean_total - analytic) <= 3 * rep.std_error

    def test_exchangeable_agents(self):
        params = GameParams(3, 10.0)
        profile = solve_equilibrium(params).profile
        rep = simulate(profile, params, 30_000, seed=13)
        per_agent_se = rep.std_error * math.sqrt(params.n)  # rough scale
        spread = max(rep.agent_means) - min(rep.agent_means)
        assert spread <= 3 * per_agent_se

    def test_per_agent_mean(self):
        params = GameParams(3, 10.0)
        profile = solve_equilibrium(params).profile
        rep = simulate(profile, params, 2_000, seed=1)
        assert rep.per_agent_mean == pytest.approx(rep.mean_total / 3)
        assert sum(rep.agent_means) == pytest.approx(rep.mean_total, rel=1e-9)

    def test_non_terminating_rejected(self):
        profile = EntryProfile({S(2, 0): 0.0, S(1, 0): 1.0, S(1, 1): 1.0})
        with pytest.raises(NonTerminatingProfileError):
            simulate(profile, GameParams(2, 8.0), 10, seed=0)

    def test_mixed_entry_profile_priced_correctly(self):
        # entering at a non-empty queue is allowed for exploration profiles
        params = GameParams(3, 4.0)
        profile = EntryProfile(
            {
                S(3, 0): 0.6,
                S(2, 0): 0.5,
                S(2, 1): 0.4,
                S(2, 2): 0.0,
                S(1, 0): 1.0,
                S(1, 1): 1.0,
                S(1, 2): 1.0,
            }
        )
        _, analytic = total_cost_evaluate(profile, params)
        rep = simulate(profile, params, 60_000, seed=99)
        assert abs(rep.mean_total - analytic) <= 3 * rep.std_error

    def test_lone_agent_rule_costs(self):
        # force 2-of-3 simultaneous entry often: remaining agent pays k, not k*w
        params = GameParams(3, 10.0)
        profile = solve_equilibrium(params).profile
        _, analytic = total_cost_evaluate(profile, params)
        rep = simulate(profile, params, 40_000, seed=21)
        # would be ~0.3 off scaled by w if the lone agent entered a non-empty queue
        assert abs(rep.mean_total - analytic) <= 3 * rep.std_error

    def test_negative_step_cap_rejected(self):
        params = GameParams(3, 10.0)
        profile = solve_equilibrium(params).profile
        with pytest.raises(InvalidParameterError):
            simulate(profile, params, 10, seed=0, max_steps=-5)


class TestSimulateBlocks:
    """The lockstep block path against the scalar reference ``simulate_once``."""

    def test_truncations_counted(self):
        params = GameParams(4, 50.0)
        profile = solve_equilibrium(params).profile
        rep = simulate(profile, params, 50, seed=1, max_steps=2)
        assert rep.max_steps_hit > 0

    def test_saturated_idle_wait_truncates_every_trial(self):
        params = GameParams(2, 8.0)
        profile = EntryProfile.from_empty_queue_probs([0.0, 1.0, 1e-300], 2)
        rep = simulate(profile, params, 300, seed=0)
        assert rep.max_steps_hit == 300

    def test_zero_cap_charges_up_to_the_cap(self):
        rep = simulate(EntryProfile.all_enter(3), GameParams(3, 2.0), 40, seed=0, max_steps=0)
        assert rep.mean_total == 4.0
        assert rep.std_error == 0.0
        assert rep.max_steps_hit == 40

    def test_zero_cap_charges_agents_outside(self):
        # q(2, 0) = 1/2, w = 8, cap 0: no entry at step 0 costs 0 (prob 1/4);
        # one entrant leaves the other outside for 1 step (1/2); two entrants
        # make the second wait w (1/4).  Mean 2.5; a 5-SE gate
        params = GameParams(2, 8.0)
        profile = EntryProfile.from_empty_queue_probs([0.0, 1.0, 0.5], 2)
        rep = simulate(profile, params, 20_000, seed=6, max_steps=0)
        assert rep.max_steps_hit == 20_000
        assert abs(rep.mean_total - 2.5) <= 5 * rep.std_error

    @pytest.mark.parametrize("n", [2, 3, 7, 20])
    def test_all_enter_exact(self, n):
        w = 2.5
        rep = simulate(EntryProfile.all_enter(n), GameParams(n, w), 1500, seed=3)
        assert rep.mean_total == w * n * (n - 1) / 2
        assert rep.std_error == 0.0
        assert rep.max_steps_hit == 0

    def test_single_agent_costs_nothing(self):
        rep = simulate(EntryProfile({S(1, 0): 1.0}), GameParams(1, 5.0), 10, seed=0)
        assert rep.mean_total == 0.0
        assert rep.agent_means == (0.0,)

    @pytest.mark.parametrize("trials", [1, _BLOCK + 3])
    def test_partial_block_reproducible(self, trials):
        params = GameParams(3, 10.0)
        profile = solve_equilibrium(params).profile
        a = simulate(profile, params, trials, seed=4)
        assert a == simulate(profile, params, trials, seed=4)
        assert a.trials == trials
        assert sum(a.agent_means) == pytest.approx(a.mean_total, rel=1e-9)
        if trials == 1:
            assert a.std_error == 0.0

    @pytest.mark.parametrize("case", ["mixed", "lone_agent_3_10"])
    def test_same_law_as_scalar_reference(self, case):
        # two-sample z of the block path against a loop of simulate_once
        if case == "mixed":
            params, profile = GameParams(3, 4.0), MIXED
        else:
            params = GameParams(3, 10.0)
            profile = solve_equilibrium(params).profile
        rep = simulate(profile, params, 40_000, seed=31)
        scalar = np.array(
            [simulate_once(profile, params, trial_rng(32, t))[0] for t in range(8_000)]
        )
        se = math.hypot(rep.std_error, np.std(scalar, ddof=1) / math.sqrt(len(scalar)))
        assert abs(rep.mean_total - scalar.mean()) <= 4 * se


class TestTrialRng:
    def test_pure_function_of_seed_and_index(self):
        a = trial_rng(42, 7).random(5)
        b = trial_rng(42, 7).random(5)
        assert np.array_equal(a, b)
        c = trial_rng(42, 8).random(5)
        assert not np.array_equal(a, c)


def _random_entry_steps(rng, n):
    """Non-decreasing entry steps of up to n positions: ties, steps and gaps."""
    return np.cumsum(rng.integers(0, 3, size=int(rng.integers(0, n + 1)))).tolist()


class TestPositionCosts:
    def test_matches_replay_on_finished_trials(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            w = float(rng.uniform(1.0, 50.0))
            t = _random_entry_steps(rng, n)
            t += [t[-1] if t else 0] * (n - len(t))
            end = t[-1] + n  # past the last service
            want = oracles.fifo_replay(t, n, w, end)
            assert _position_costs(t, n, w, end) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_matches_replay_on_truncated_trials(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            w = float(rng.uniform(1.0, 50.0))
            t = _random_entry_steps(rng, n)
            end = int(rng.integers(t[-1] + 1 if t else 0, (t[-1] if t else 0) + n + 2))
            want = oracles.fifo_replay(t, n, w, end)
            assert _position_costs(t, n, w, end) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_lone_agent_drain(self):
        # three enter at step 2, leaving (1, 2) at step 3: the lone agent
        # enters at 3 + k = 5, once the queue has drained
        t, w = [2, 2, 2, 5], 10.0
        costs = _position_costs(t, 4, w, 6)
        assert costs.tolist() == pytest.approx(oracles.fifo_replay(t, 4, w, 6), rel=1e-12)
        assert costs.tolist() == pytest.approx([2.0, 2.0 + w, 2.0 + 2 * w, 5.0])

    def test_truncated_trial_charges_up_to_the_cap(self):
        # all three enter at step 0; the cap stops the clock after that step,
        # so the two still queued have paid w once each
        params = GameParams(3, 2.0)
        total, per_agent, steps, truncated = simulate_once(
            EntryProfile.all_enter(3), params, trial_rng(0, 0), max_steps=0
        )
        assert truncated and steps == 1
        assert total == 4.0
        assert sorted(per_agent.tolist()) == [0.0, 2.0, 2.0]


class TestProfileLackingAState:
    """A profile that lacks a state of the game is rejected, naming the state."""

    LACKING = EntryProfile({S(2, 0): 0.5, S(1, 0): 1.0, S(1, 1): 1.0})  # at n = 3

    @pytest.mark.parametrize("max_steps", [None, 100])
    def test_simulate(self, max_steps):
        with pytest.raises(InvalidParameterError, match=r"QueueState\(m=2, k=1\)"):
            simulate(self.LACKING, GameParams(3, 5.0), 10, seed=0, max_steps=max_steps)

    def test_min_empty_queue_prob(self):
        with pytest.raises(InvalidParameterError, match=r"QueueState\(m=2, k=1\)"):
            self.LACKING.min_empty_queue_prob(3)
        assert self.LACKING.min_empty_queue_prob(2) == 0.5
