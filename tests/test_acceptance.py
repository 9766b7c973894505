"""End-to-end acceptance gate: eight criteria, one pass/fail line each.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with
``pytest -s`` or in the failure report) and then asserts the same condition.
Optimizer settings are chosen to stay inside the stated runtime budgets;
headline accuracy uses the full default grid.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from passivekey import (
    OptimizationSpec,
    SampleBudget,
    asymptotic_rate,
    check_lemma3,
    check_lemma4,
    evaluate_bounds,
    chi_low_orders,
    key_length,
    max_distance,
    optimize_rate,
    simulate_observables,
    transmittance,
)
from passivekey.decoy_bounds import x_range
from passivekey.phase_error import _tail_condition_lhs
from passivekey.photonics import (
    nontrigger_prob,
    photon_prob,
    series_sum,
    trigger_prob,
)

from conftest import make_channel

# moderate grid for the distance searches (criteria 2 and 4): accuracy in
# max distance is dominated by the bisection, not the inner grid density
SEARCH = OptimizationSpec(
    coarse_points=(12, 12), refine_rounds=2, refine_points=(5, 5),
    x_grid_points=100,
)


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def optimized_rate(L_km: float, N: float, src, sec,
                   spec: OptimizationSpec = OptimizationSpec(),
                   p_pe: float | None = None) -> float:
    from passivekey import sweep_point

    if p_pe is not None:  # equal bounds pin p_pe
        spec = replace(spec, p_pe_bounds=(p_pe, p_pe))
    row = sweep_point(L_km, N, "finite", src, make_channel(L_km), sec, spec)
    return row.rate


def test_criterion_1_headline_rate(src, sec):
    start = time.monotonic()
    out = optimize_rate(50.0, 1e9, src, make_channel(50.0), sec)
    elapsed = time.monotonic() - start
    reference = 5.397e-4
    ok = (
        out.rate >= 5.0e-4
        and 0.8 * out.rate <= reference <= 1.2 * out.rate
        and elapsed < 300.0
    )
    report(1, "headline rate", ok,
           f"rate(50 km, 1e9) = {out.rate:.4e} (reference {reference:.3e}), "
           f"{elapsed:.1f}s")


def test_criterion_2_reach(src, sec):
    start = time.monotonic()
    d13 = max_distance(1e13, src, make_channel(0.0), sec, SEARCH,
                       step_km=16.0, L_max_km=240.0)
    d15 = max_distance(1e15, src, make_channel(0.0), sec, SEARCH,
                       step_km=16.0, L_max_km=240.0)
    elapsed = time.monotonic() - start
    ok = 160.0 <= d13 <= 200.0 and d15 >= 182.0 and elapsed < 900.0
    report(2, "maximum reach", ok,
           f"max_distance(1e13) = {d13:.1f} km, max_distance(1e15) = "
           f"{d15:.1f} km, {elapsed:.0f}s")


def test_criterion_3_minimum_viable_N(src, sec):
    r9 = optimized_rate(100.0, 1e9, src, sec, SEARCH)
    r8 = optimized_rate(100.0, 1e8, src, sec, SEARCH)
    ok = r9 > 0.0 and (r8 == 0.0 or r8 < 0.1 * r9)
    report(3, "minimum viable N", ok,
           f"rate(100 km, 1e9) = {r9:.3e}, rate(100 km, 1e8) = {r8:.3e}")


def test_criterion_4_pe_fraction_ordering(src, sec):
    rates = {
        p: optimized_rate(120.0, 1e13, src, sec, SEARCH, p_pe=p)
        for p in (0.01, 0.1, 0.9)
    }
    d90 = max_distance(1e13, src, make_channel(0.0), sec,
                       OptimizationSpec(coarse_points=(12, 1), refine_rounds=2,
                                        refine_points=(5, 1),
                                        p_pe_bounds=(0.9, 0.9),
                                        x_grid_points=100),
                       step_km=16.0, L_max_km=240.0)
    d96 = max_distance(1e13, src, make_channel(0.0), sec,
                       OptimizationSpec(coarse_points=(12, 1), refine_rounds=2,
                                        refine_points=(5, 1),
                                        p_pe_bounds=(0.96, 0.96),
                                        x_grid_points=100),
                       step_km=16.0, L_max_km=240.0)
    ok = rates[0.01] < rates[0.1] < rates[0.9] and abs(d96 - d90) <= 2.0
    report(4, "PE-fraction ordering", ok,
           f"rates {rates[0.01]:.3e} < {rates[0.1]:.3e} < {rates[0.9]:.3e}; "
           f"reach p_pe=0.9: {d90:.1f} km vs p_pe=0.96: {d96:.1f} km")


def test_criterion_5_asymptotic_dominance(src, sec):
    worst = 0.0
    dominated = True
    for L in (10.0, 50.0, 100.0, 150.0):
        ch = make_channel(L)
        obs = simulate_observables(src, ch)
        asym = asymptotic_rate(src, ch)
        for N in (1e8, 1e10, 1e13, 1e16):
            for p_pe in (0.1, 0.5, 0.9):
                fin = key_length(src, obs, N=N, p_pe=p_pe, sec=sec).rate
                if fin > asym + 1e-15:
                    dominated = False
                    worst = max(worst, fin - asym)
    ch50 = make_channel(50.0)
    obs50 = simulate_observables(src, ch50)
    asym50 = asymptotic_rate(src, ch50)
    fin50 = key_length(src, obs50, N=1e18, p_pe=0.5, sec=sec).rate
    gap = abs(fin50 - asym50) / asym50
    ok = dominated and gap <= 0.01
    report(5, "asymptotic dominance/convergence", ok,
           f"dominated everywhere: {dominated}; 50 km relative gap at "
           f"N=1e18: {gap:.2e}")


def test_criterion_6_oracle_suite():
    start = time.monotonic()
    failures = []
    for n1 in (100, 1000, 10000):
        for n2 in (100, 1000, 10000):
            for eps in (0.1, 0.01):
                r = check_lemma4(n1, n2, outcome_rate=0.1, eps=eps,
                                 trials=100_000, seed=20260826)
                if r.rate > eps:
                    failures.append((n1, n2, eps, r.rate))
    r3 = check_lemma3(n=500, l=500, true_error_fraction=0.03, eps_sec=1e-3,
                      trials=100_000, seed=20260826)
    elapsed = time.monotonic() - start
    ok = not failures and r3.violations == 0 and elapsed < 600.0
    report(6, "oracle suite", ok,
           f"two-sample grid exceedances within eps: {not failures}; "
           f"sampling-bound violations: {r3.violations}/{r3.trials}; "
           f"{elapsed:.0f}s")


def test_criterion_7_soundness_on_simulated_truth(src, sec):
    bad = []
    for L in (10.0, 50.0, 100.0):
        ch = make_channel(L)
        obs = simulate_observables(src, ch)
        eta = transmittance(ch)
        pd2 = (1.0 - 6e-7) ** 2
        click1 = 1.0 - (1.0 - eta) * pd2
        err1 = click1 - (1.0 - 6e-7) * (
            (1.0 - eta * 0.005) - (1.0 - eta + eta * 0.005)
        )
        for N in (1e10, 1e13):
            opt = optimize_rate(L, N, src, ch, sec, SEARCH)
            mu_src = type(src)(opt.mu, src.eta_A, src.d_A)
            obs_mu = simulate_observables(mu_src, ch)
            q1_nt_true = (photon_prob(mu_src, 1)
                          * nontrigger_prob(mu_src, 1) * click1)
            e1_true = err1 / (2.0 * click1)
            # the x the optimizer selects is the winning strategy's minimizer
            res = opt.result
            which = "T" if res.ell_T >= res.ell_B else "B"
            x_star = res.x_opt_T if which == "T" else res.x_opt_B
            split = 10.0 if which == "T" else 15.0
            budget = SampleBudget(N=N, p_pe=opt.p_pe,
                                  eps_pe=sec.eps_sec / split)
            b = evaluate_bounds(x_star, mu_src, budget, obs_mu,
                                chi=chi_low_orders(mu_src, budget, obs_mu))
            if q1_nt_true / obs_mu.Q_nt < float(b.zeta):
                bad.append((L, N, which, "zeta"))
            if e1_true > min(float(b.w_t), float(b.w_nt)):
                bad.append((L, N, which, "W"))
    ok = not bad
    report(7, "soundness on simulated truth", ok,
           f"violations: {bad if bad else 'none'} across 3 distances x 2 N "
           f"at the selected x*")


def test_criterion_8_numerical_identities(src, channel_50km):
    from passivekey.decoy_bounds import asymptotic_e1, asymptotic_q1_nt

    obs = simulate_observables(src, channel_50km)
    huge = SampleBudget(N=1e40, p_pe=0.5, eps_pe=1e-11)
    lo, hi = x_range(src, obs)
    worst = 0.0
    for x in np.linspace(lo, 0.9 * hi, 7):
        b = evaluate_bounds(float(x), src, huge, obs)
        q1_lim = float(b.zeta) * obs.Q_nt
        worst = max(worst, abs(q1_lim - asymptotic_q1_nt(float(x), src, obs))
                    / abs(asymptotic_q1_nt(float(x), src, obs)))
        e1_lim = min(float(b.w_t), float(b.w_nt))
        e1_ref = asymptotic_e1(float(x), src, obs)
        worst = max(worst, abs(e1_lim - e1_ref) / abs(e1_ref))

    norm = abs(series_sum(lambda n: photon_prob(src, n)).value - 1.0)
    herald = max(
        abs(trigger_prob(src, n) + nontrigger_prob(src, n) - 1.0)
        for n in range(0, 200, 5)
    )

    from passivekey import PhaseErrorInputs, solve_omega

    resid = 0.0
    for n, l in ((1e4, 1e4), (1e6, 2e5)):
        w = solve_omega(PhaseErrorInputs(n=n, l=l, e_ob=0.0, eps_sec=1e-10))
        target = 1e-10**2 / 16.0
        resid = max(resid, abs(float(_tail_condition_lhs(w, n, l)) - target)
                    / target)

    ok = worst <= 1e-10 and norm <= 1e-12 and herald <= 1e-12 and resid <= 1e-9
    report(8, "numerical identities", ok,
           f"N->inf bound limits: {worst:.1e}; photon normalization: "
           f"{norm:.1e}; omega residual: {resid:.1e}")
