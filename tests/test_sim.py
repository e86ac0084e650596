import math

import numpy as np
import pytest

import oracles
from bneck.eqsolver import solve_equilibrium
from bneck.model import (
    EntryProfile,
    GameParams,
    NonTerminatingProfileError,
    QueueState,
    total_cost_evaluate,
)
from bneck.optsolver import solve_opt
from bneck.sim import _position_costs, simulate, simulate_once, trial_rng

S = QueueState


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
