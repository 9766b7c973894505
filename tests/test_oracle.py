"""The Monte Carlo bound-checking harness."""

import numpy as np
import pytest
import scipy.stats

from passivekey import check_lemma3, check_lemma4, oracle, phase_error
from passivekey.decoy_bounds import serfling_xi
from passivekey.phase_error import PhaseErrorInputs, phase_error_bound


class TestCheckLemma4:
    def test_reproducible(self):
        a = check_lemma4(1000, 1000, 0.1, 0.01, trials=5000, seed=42)
        b = check_lemma4(1000, 1000, 0.1, 0.01, trials=5000, seed=42)
        assert a == b

    def test_seed_changes_draws(self):
        a = check_lemma4(100, 100, 0.1, 0.1, trials=5000, seed=1)
        b = check_lemma4(100, 100, 0.1, 0.1, trials=5000, seed=2)
        assert (a.violations, a.seed) != (b.violations, b.seed)

    def test_holds_at_small_sizes(self):
        r = check_lemma4(100, 100, 0.1, 0.1, trials=20000, seed=7)
        assert r.rate <= 0.1
        assert r.ci_upper_95 > r.rate

    def test_bound_not_hopelessly_loose_check(self):
        # xi stays meaningful: the empirical width is a nonzero fraction of it
        xi = serfling_xi(0.1, 100, 100)
        assert 0.0 < xi < 0.5

    def test_report_fields(self):
        r = check_lemma4(200, 300, 0.1, 0.05, trials=1000, seed=3)
        assert r.trials == 1000
        assert r.bound == 0.05
        assert r.rng == "numpy-PCG64"
        assert 0.0 <= r.rate <= 1.0


class TestCheckLemma3:
    def test_reproducible(self):
        a = check_lemma3(500, 500, 0.03, 1e-3, trials=5000, seed=42)
        b = check_lemma3(500, 500, 0.03, 1e-3, trials=5000, seed=42)
        assert a == b

    def test_no_violations_typical(self):
        r = check_lemma3(500, 500, 0.03, 1e-3, trials=20000, seed=11)
        assert r.violations == 0

    def test_matches_exact_tail(self):
        # analytic failure probability equals the Monte Carlo estimate in law;
        # with P_fail <= eps and 2e4 trials, observing > 10 hits is absurd
        r = check_lemma3(500, 500, 0.03, 1e-3, trials=20000, seed=5)
        assert r.violations <= 10

    def test_violation_count_matches_exact_failure_probability(self):
        # at eps_sec = 0.9 the bound is loose enough to fail often: the
        # observed rate must sit within 4 sigma of the exact probability,
        # the hypergeometric mass of the counts c with (marked - c)/n > e_p(c)
        n, l, fraction, eps, trials = 5, 5, 0.4, 0.9, 20000
        r = check_lemma3(n, l, fraction, eps, trials=trials, seed=1)
        marked = 4
        c = np.arange(min(marked, l) + 1)
        e_p = np.array([
            phase_error_bound(PhaseErrorInputs(n, l, min(k / l, 0.5), eps))
            for k in c
        ])
        fails = (marked - c) / n > e_p
        p = float(scipy.stats.hypergeom.pmf(c[fails], n + l, marked, l).sum())
        assert p == pytest.approx(0.2619, abs=1e-4)
        assert r.violations == 5283
        assert abs(r.rate - p) <= 4 * np.sqrt(p * (1 - p) / trials)

    def test_ci_upper_positive(self):
        r = check_lemma3(500, 500, 0.03, 1e-3, trials=2000, seed=9)
        assert r.ci_upper_95 > 0.0
        assert r.ci_upper_95 == pytest.approx(
            float(scipy.stats.beta.ppf(0.95, r.violations + 1,
                                       r.trials - r.violations)),
            rel=1e-12,
        )

    def test_ci_upper_is_1_when_every_trial_fails(self):
        assert oracle._ci_upper_95(7, 7) == 1.0


CHECKS = pytest.mark.parametrize("check, args", [
    (check_lemma3, (500, 500, 0.03, 1e-3)),
    (check_lemma4, (100, 100, 0.1, 0.1)),
], ids=["lemma3", "lemma4"])


@pytest.mark.parametrize("trials", [0, -1, 2.5, True])
@CHECKS
def test_trials_below_1_rejected(check, args, trials):
    # the empirical rate violations / trials needs at least one trial, and a
    # count that is no integer must be named before it reaches the RNG
    with pytest.raises(ValueError, match="trials"):
        check(*args, trials=trials, seed=1)


@pytest.mark.parametrize("seed", [1.5, -1, None])
@CHECKS
def test_seed_must_be_a_nonnegative_integer(check, args, seed):
    # every report carries its seed so that the run replays
    with pytest.raises(ValueError, match="seed"):
        check(*args, trials=10, seed=seed)


@pytest.mark.parametrize("check, args, name", [
    (check_lemma3, (2.5, 500, 0.03, 1e-3), "n"),
    (check_lemma3, (-1, 500, 0.03, 1e-3), "n"),
    (check_lemma3, (500, 0, 0.03, 1e-3), "l"),
    (check_lemma3, (500, 2.5, 0.03, 1e-3), "l"),
    (check_lemma3, (500, 500, 1.5, 1e-3), "true_error_fraction"),
    (check_lemma3, (500, 500, -0.1, 1e-3), "true_error_fraction"),
    (check_lemma3, (500, 500, float("nan"), 1e-3), "true_error_fraction"),
    (check_lemma4, (2.5, 100, 0.1, 0.1), "n1"),
    (check_lemma4, (0, 100, 0.1, 0.1), "n1"),
    (check_lemma4, (100, 0, 0.1, 0.1), "n2"),
    (check_lemma4, (100, True, 0.1, 0.1), "n2"),
    (check_lemma4, (100, 100, 1.5, 0.1), "outcome_rate"),
    (check_lemma4, (100, 100, -0.1, 0.1), "outcome_rate"),
    (check_lemma3, (0, 500, 0.03, 2.0), "eps_sec"),
    (check_lemma3, (500, 500, 0.03, 1e-300), "eps_sec"),
    (check_lemma3, (0, 500, 0.03, 1e-300), "eps_sec"),
])
def test_bad_sizes_and_fractions_rejected_by_name(check, args, name):
    # a size that is no count, or a fraction outside [0, 1], is named before
    # the RNG or the bound sees it
    with pytest.raises(ValueError, match=f"^{name} must be"):
        check(*args, trials=10, seed=1)


def test_lemma3_with_nothing_hidden_reports_no_violation():
    # n = 0 is a valid size: every bit is sampled and nothing is predicted
    report = check_lemma3(0, 500, 0.03, 1e-3, trials=10, seed=1)
    assert (report.violations, report.rate) == (0, 0.0)


def test_lemma3_bounds_all_counts_in_one_array_call(monkeypatch):
    # the oracle replays the chain's array bound, once per report, over the
    # distinct observed counts; with nothing hidden it needs no bound at all
    calls = []

    def counting(*args):
        calls.append(args)
        return phase_error._phase_error_arrays(*args)

    monkeypatch.setattr(oracle, "_phase_error_arrays", counting)
    check_lemma3(500, 500, 0.03, 1e-3, trials=2000, seed=3)
    assert len(calls) == 1
    check_lemma3(0, 500, 0.03, 1e-3, trials=2000, seed=3)
    assert len(calls) == 1
    assert not hasattr(oracle, "phase_error_bound")
    assert not hasattr(oracle, "PhaseErrorInputs")


@CHECKS
def test_numpy_integer_counts_replay(check, args):
    # integer-like counts are converted, not rejected, and give the same report
    report = check(*args, trials=np.int64(50), seed=np.uint8(3))
    assert report == check(*args, trials=50, seed=3)
    assert type(report.trials) is int and type(report.seed) is int


class TestRandomizedHypergeomAgreement:
    def test_empirical_matches_exact(self):
        # the exact tail should sit inside the Monte Carlo confidence band
        pop, marked, draw, t = 400, 60, 100, 20
        rng = np.random.default_rng(123)
        draws = rng.hypergeometric(marked, pop - marked, draw, size=200000)
        emp = float(np.mean(draws >= t))
        exact = float(scipy.stats.hypergeom.sf(t - 1, pop, marked, draw))
        assert emp == pytest.approx(exact, abs=4 * np.sqrt(exact / 200000) + 1e-4)
