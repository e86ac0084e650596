"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with the observed values and elapsed time.  Trend checks that are
advisory by design emit warnings instead of failing.
"""

import math
import time
import warnings
from typing import Optional

import pytest

from bneck.bounds import (
    aux_lemma_validators,
    eq_upper_large_w,
    eq_upper_small_w,
    nice_function_check,
    phi_harmonic,
    phi_sqrt,
)
from bneck.eqsolver import eq_closed_form_2p, solve_equilibrium
from bneck.model import (
    EntryProfile,
    GameParams,
    QueueState,
    binom_pmf,
    enumerate_states,
    total_cost_evaluate,
)
from bneck.optsolver import (
    heuristic_profile_large_w,
    heuristic_profile_small_w,
    opt_closed_form_2p,
    sc_unrestricted,
    solve_opt,
)
from bneck.sim import simulate

import oracles

S = QueueState


def report(num: int, message: str, started: float, budget: Optional[float] = None):
    """Print the pass line; with a time budget, also enforce it and show the headroom."""
    elapsed = time.time() - started
    if budget is None:
        print(f"[PASS] criterion {num}: {message} ({elapsed:.1f}s)")
        return
    timing = f"elapsed {elapsed:.1f} s / {budget:g} s"
    assert elapsed < budget, f"criterion {num} over its time budget: {timing}"
    print(f"[PASS] criterion {num}: {message} ({timing})")


def test_criterion_01_two_player_equilibrium_closed_form():
    t0 = time.time()
    worst_q = worst_total = 0.0
    for w in (2.5, 3.0, 8.0, 100.0, 1e4, 1e8):
        sol = solve_equilibrium(GameParams(2, w))
        q_ref, total_ref = eq_closed_form_2p(w)
        dq = abs(sol.profile.q(S(2, 0)) - q_ref)
        dtot = abs(sol.total_cost - total_ref) / total_ref
        worst_q, worst_total = max(worst_q, dq), max(worst_total, dtot)
        assert dq <= 1e-9
        assert dtot <= 1e-9
    report(
        1,
        f"2-player equilibrium: worst |dq|={worst_q:.2e}, rel dtotal={worst_total:.2e}",
        t0,
        budget=1.0,
    )


def test_criterion_02_two_player_optimum():
    t0 = time.time()
    worst_p = worst_opt = 0.0
    for w in (2.5, 8.0, 100.0, 1e4, 1e8):
        sol = solve_opt(GameParams(2, w))
        p_ref, opt_ref = opt_closed_form_2p(w)
        dp = abs(sol.p[2] - p_ref)
        dopt = abs(sol.opt[2] - opt_ref) / opt_ref
        worst_p, worst_opt = max(worst_p, dp), max(worst_opt, dopt)
        assert dp <= 1e-6
        assert dopt <= 1e-6
    report(
        2, f"2-player optimum: worst |dp|={worst_p:.2e}, rel dOPT={worst_opt:.2e}", t0, budget=1.0
    )


def test_criterion_03_small_w_all_enter():
    t0 = time.time()
    for w in (1.1, 1.5, 2.0):
        for n in range(2, 11):
            sol = solve_equilibrium(GameParams(n, w))
            for m in range(2, n + 1):
                assert sol.profile.q(S(m, 0)) == 1.0
            expected = w * n * (n - 1) / 2.0
            assert sol.total_cost == pytest.approx(expected, rel=1e-15)
    report(3, "all-enter regime exact for w in {1.1, 1.5, 2.0}, n in 2..10", t0)


def test_criterion_04_hard_bound_suite():
    t0 = time.time()
    tol = 1e-9
    for w in (2.5, 3.0, 5.0, 10.0, 50.0, 100.0):
        for n in range(2, 41):
            params = GameParams(n, w)
            eq = solve_equilibrium(params)
            for s in enumerate_states(n):
                assert eq.per_player[s] >= s.total - 1 - tol
            assert eq.profile.q(S(n, 0)) >= 2.0 / w - tol
            c_n = eq.per_player_cost
            assert c_n <= eq_upper_small_w(n, w) + tol
            assert c_n <= eq_upper_large_w(n, w, 1.0) + tol
            opt = solve_opt(params)
            assert opt.total_cost >= n * (n - 1) / 2.0 - tol
            for prof_fn in (heuristic_profile_small_w, heuristic_profile_large_w):
                profile = EntryProfile.from_empty_queue_probs(prof_fn(n, w), n)
                _, cost = total_cost_evaluate(profile, params)
                assert opt.total_cost <= cost + tol
    report(4, "hard bounds hold on n in 2..40 x six w values", t0, budget=120.0)


def test_criterion_05_fixed_w_poa_trend():
    t0 = time.time()
    w = 3.0
    ratios = []
    for n in (50, 100, 200):
        eq = solve_equilibrium(GameParams(n, w))
        ratio = eq.total_cost / sc_unrestricted(n)
        assert ratio >= 2.0 - 1e-9
        assert ratio <= 2.0 * (n + w * (2.0 + math.log(n)) / 2.0) / (n - 1) + 1e-9
        ratios.append(ratio)
    if not all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:])):
        warnings.warn(f"PoA trend not non-increasing (advisory): {ratios}")
    report(5, f"fixed-w PoA at w=3: ratios {[f'{r:.6f}' for r in ratios]}", t0, budget=600.0)


def test_criterion_06_large_w_scaling_trend():
    t0 = time.time()
    n = 5
    scaled = []
    for w in (1e4, 1e6, 1e8):
        eq = solve_equilibrium(GameParams(n, w))
        value = eq.per_player_cost / math.sqrt(w * n)
        bound = (
            math.e / (math.e - 1.0) * n / math.sqrt(w * n)
            + 2.0 * math.sqrt(1.0 + 2.0 * math.sqrt(n - 1.0) / n)
            + 1e-9
        )
        assert value <= bound
        scaled.append(value)
    drift = abs(scaled[-1] - scaled[-2]) / scaled[-2]
    if drift >= 0.05:
        warnings.warn(f"large-w scaling has not converged (advisory): {scaled}")
    report(6, f"c(5,0)/sqrt(wn) over w decades: {[f'{v:.6f}' for v in scaled]}, drift {drift:.2e}", t0)


def test_criterion_07_eq_vs_opt_ratio_target():
    t0 = time.time()
    params = GameParams(40, 1e8)
    eq = solve_equilibrium(params)
    opt = solve_opt(params)
    ratio = eq.total_cost / opt.total_cost
    assert math.isfinite(ratio)
    if not 0.90 <= ratio <= 1.25:
        warnings.warn(f"eq/opt ratio outside advisory window: {ratio}")
    report(
        7,
        f"eq/opt at n=40, w=1e8: {ratio:.4f} (target 3/(2 sqrt 2) = 1.0607, advisory)",
        t0,
    )


def test_criterion_08_oracle_equivalence():
    t0 = time.time()
    for w in (2.5, 10.0, 1e3):
        for n in (2, 3, 4):
            prob_o, cost_o = oracles.equilibrium(n, w, points=10**6)
            eq = solve_equilibrium(GameParams(n, w))
            for s in enumerate_states(n):
                assert eq.profile.q(s) == pytest.approx(prob_o[(s.m, s.k)], abs=1e-5)
                assert eq.per_player[s] == pytest.approx(
                    cost_o[(s.m, s.k)], rel=1e-4, abs=1e-4
                )
            p_o, opt_o = oracles.optimum(n, w, points=10**4)
            opt = solve_opt(GameParams(n, w))
            for m in range(2, n + 1):
                assert opt.p[m] == pytest.approx(p_o[m], abs=1e-5)
                assert opt.opt[m] == pytest.approx(opt_o[m], rel=1e-4)
    report(8, "solver matches brute-force grids for n <= 4, w in {2.5, 10, 1e3}", t0, budget=300.0)


def test_criterion_09_simulator_agreement():
    t0 = time.time()
    lines = []
    for idx, (n, w) in enumerate(((2, 8.0), (3, 10.0), (5, 100.0))):
        params = GameParams(n, w)
        eq = solve_equilibrium(params)
        opt = solve_opt(params)
        cases = (
            ("eq", eq.profile, eq.total_cost),
            ("opt", EntryProfile.from_empty_queue_probs(opt.p, n), opt.total_cost),
        )
        for jdx, (tag, profile, analytic) in enumerate(cases):
            rep = simulate(profile, params, 100_000, seed=1000 + 10 * idx + jdx)
            assert rep.max_steps_hit == 0
            err = abs(rep.mean_total - analytic)
            assert err <= 3.0 * rep.std_error, (n, w, tag, rep.mean_total, analytic)
            lines.append(f"({n},{w:g},{tag}): z={err / rep.std_error:.2f}")
    report(
        9, "Monte Carlo within 3 SE, zero truncations: " + ", ".join(lines), t0, budget=120.0
    )


def test_criterion_10_property_suites():
    t0 = time.time()
    for w in (2.5, 10.0, 1e4):
        assert nice_function_check(phi_harmonic(w), 100).passed
        assert nice_function_check(phi_sqrt(w, 1.0), 100).passed
    lemmas = aux_lemma_validators(100_000, seed=2024)
    assert len(lemmas) == 5
    for name, res in lemmas.items():
        assert res.passed, (name, res.witnesses)
    for m in (1, 2, 3, 7, 10, 64, 100, 500, 1000):
        for q in (1e-15, 1e-6, 0.25, 0.5, 0.75, 1 - 1e-6):
            total = math.fsum(binom_pmf(m, i, q) for i in range(m + 1))
            assert abs(total - 1.0) <= 1e-12
    report(10, "nice bounds to n=100, five lemma validators at 1e5 samples, pmf sums", t0)
