import math
import pathlib
import re

import numpy as np
import pytest

import sworgrad as sg
from conftest import random_dist
from sworgrad import Objective, Rng
from sworgrad import estimators as est
from sworgrad import oracle
from sworgrad.errors import (
    BaselineSizeMismatch,
    InconsistentThreshold,
    InvalidSampleSize,
    InvalidSplit,
    NeedTwoSamples,
    NoPathwiseGradient,
    SpaceTooLarge,
)

RUNNING_EXPECTATION = 1.7  # 0.5*1 + 0.3*2 + 0.2*3


class TestUnorderedSet:
    def test_full_domain_is_exact(self, running_dist, running_f):
        got = sg.unordered_set_estimate(running_dist, (0, 1, 2), running_f)
        np.testing.assert_allclose(got, RUNNING_EXPECTATION, atol=1e-12)

    def test_uniform_reduces_to_sample_mean(self):
        d = sg.from_logits(np.zeros(5))
        f = np.array([2.0, -1.0, 0.5, 3.0, 0.0])
        got = sg.unordered_set_estimate(d, (0, 3), f)
        np.testing.assert_allclose(got, (2.0 + 3.0) / 2, atol=1e-12)

    def test_running_example(self, running_dist, running_f):
        got = sg.unordered_set_estimate(running_dist, (0, 1), running_f)
        np.testing.assert_allclose(got, 7.0 / 12.0 + 2 * 5.0 / 12.0, atol=1e-8)

    def test_unbiased_by_enumeration(self):
        gen = np.random.default_rng(20)
        for _ in range(20):
            n = int(gen.integers(3, 6))
            d = random_dist(gen, n)
            f = gen.normal(0, 1, n)
            k = int(gen.integers(1, n + 1))
            mean, _ = oracle.estimator_moments(est.UNORDERED_SET, d, f, k)
            assert abs(mean - oracle.exact_expectation(d, f)) < 1e-10


class TestStochSumAndSample:
    def test_running_example_orderings(self, running_dist, running_f):
        got01 = sg.stoch_sum_and_sample(running_dist, (0, 1), running_f, m=1)
        got10 = sg.stoch_sum_and_sample(running_dist, (1, 0), running_f, m=1)
        np.testing.assert_allclose(got01, 1.5, atol=1e-12)
        np.testing.assert_allclose(got10, 1.3, atol=1e-12)

    def test_conditional_mean_over_orderings_is_set_estimate(
        self, running_dist, running_f
    ):
        """Averaging over orderings of {0,1} weighted by P(B|S) collapses the
        ordered estimator onto the unordered one."""
        p01 = (0.5 * 0.3 / 0.5) / (18.0 / 35.0)
        p10 = (0.3 * 0.5 / 0.7) / (18.0 / 35.0)
        mixed = p01 * 1.5 + p10 * 1.3
        us = sg.unordered_set_estimate(running_dist, (0, 1), running_f)
        np.testing.assert_allclose(mixed, us, atol=1e-12)
        np.testing.assert_allclose(mixed, 1.4166666667, atol=1e-8)

    @pytest.mark.parametrize("m", [1, 2])
    def test_conditional_mean_general(self, m):
        gen = np.random.default_rng(21)
        for _ in range(10):
            n = int(gen.integers(4, 6))
            k = int(gen.integers(m + 1, min(4, n) + 1))
            d = random_dist(gen, n)
            f = gen.normal(0, 1, n)
            cond = {}
            for b, p in zip(*oracle.enumerate_ordered(d, k)):
                key = tuple(sorted(b.tolist()))
                val = sg.stoch_sum_and_sample(d, b, f, m=m)
                tot, acc = cond.get(key, (0.0, 0.0))
                cond[key] = (tot + p, acc + p * val)
            for key, (tot, acc) in cond.items():
                us = sg.unordered_set_estimate(d, key, f)
                assert abs(acc / tot - us) < 1e-10

    def test_unbiased_by_enumeration(self):
        gen = np.random.default_rng(22)
        for _ in range(10):
            n = int(gen.integers(3, 6))
            d = random_dist(gen, n)
            f = gen.normal(0, 1, n)
            for m in (1, 2):
                if m + 1 > n:
                    continue
                k = int(gen.integers(m + 1, n + 1))
                mean, _ = oracle.estimator_moments(est.stoch_sas_id(m), d, f, k)
                assert abs(mean - oracle.exact_expectation(d, f)) < 1e-10

    def test_invalid_split(self, running_dist, running_f):
        with pytest.raises(InvalidSplit):
            sg.stoch_sum_and_sample(running_dist, (0, 1), running_f, m=2)
        with pytest.raises(InvalidSplit):
            sg.stoch_sum_and_sample(running_dist, (0, 1), running_f, m=0)


class TestDetSumAndSample:
    def test_values_and_mean(self, running_dist, running_f):
        """With k=2 the head is {0}; the sampled tail gives 1.5 or 2.0, and the
        restricted-draw mixture recovers the exact expectation."""
        vals = {sg.det_sum_and_sample(running_dist, running_f, 2, Rng(s)) for s in range(200)}
        assert all(abs(v - 1.5) < 1e-12 or abs(v - 2.0) < 1e-12 for v in vals)
        mean, _ = oracle.estimator_moments(est.DET_SUM_AND_SAMPLE, running_dist, running_f, 2)
        np.testing.assert_allclose(mean, RUNNING_EXPECTATION, atol=1e-12)

    def test_near_full_head_has_zero_variance(self, running_dist, running_f):
        mean, var = oracle.estimator_moments(
            est.DET_SUM_AND_SAMPLE, running_dist, running_f, 3
        )
        np.testing.assert_allclose(mean, RUNNING_EXPECTATION, atol=1e-12)
        assert var == 0.0

    def test_unbiased_by_enumeration(self):
        gen = np.random.default_rng(23)
        for _ in range(20):
            n = int(gen.integers(3, 7))
            d = random_dist(gen, n)
            f = gen.normal(0, 1, n)
            k = int(gen.integers(2, n + 1))
            mean, _ = oracle.estimator_moments(est.DET_SUM_AND_SAMPLE, d, f, k)
            assert abs(mean - oracle.exact_expectation(d, f)) < 1e-10


# Calls on an empty sample: each returned a silent 0 (risk_grad with a
# RuntimeWarning).
EMPTY_SAMPLE_CALLS = {
    "importance_weighted": lambda d, f: est.importance_weighted(d, [], 0.0, f),
    "iwpg": lambda d, f: est.iwpg(d, [], 0.0, f),
    "risk_grad": lambda d, f: est.risk_grad(d, [], f),
    "conditional_iw_mean": lambda d, f: oracle.conditional_iw_mean(d, [], f),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(EMPTY_SAMPLE_CALLS))
def test_empty_sample_raises(name):
    dist, f = oracle._random_instance(np.random.default_rng(0), 4)
    with pytest.raises(InvalidSampleSize):
        EMPTY_SAMPLE_CALLS[name](dist, f)


class TestImportanceWeighted:
    def test_sentinel_full_domain(self, running_dist, running_f):
        got = sg.importance_weighted(running_dist, (0, 1, 2), sg.Threshold(None), running_f)
        np.testing.assert_allclose(got, RUNNING_EXPECTATION, atol=1e-12)

    def test_monte_carlo_unbiased(self, running_dist, running_f):
        """Mean over the joint (set, threshold) law within 3 standard errors,
        with the batch formula cross-checked against the operation itself."""
        draws = 10**6
        idx, vals, kappa = sg.gumbel_top_k(Rng(30), running_dist, 2, size=draws)
        lp = running_dist.log_probs
        q = -np.expm1(-np.exp(lp[idx] - kappa[:, None]))
        e = np.sum(np.exp(lp[idx]) / q * running_f[idx], axis=1)
        se = e.std(ddof=1) / math.sqrt(draws)
        assert abs(e.mean() - RUNNING_EXPECTATION) < 3 * se
        for row in range(300):
            direct = sg.importance_weighted(
                running_dist, idx[row], float(kappa[row]), running_f
            )
            assert abs(direct - e[row]) < 1e-12

    def test_conditional_mean_matches_set_estimate(self, running_dist, running_f):
        got = oracle.conditional_iw_mean(running_dist, (0, 1), running_f)
        want = sg.unordered_set_estimate(running_dist, (0, 1), running_f)
        assert abs(got - want) < 1e-6

    def test_inconsistent_threshold_rejected(self, running_dist, running_f):
        sample, threshold = sg.gumbel_top_k(Rng(31), running_dist, 2)
        bad = float(np.max(sample.perturbed_logprobs)) + 1.0
        with pytest.raises(InconsistentThreshold):
            sg.importance_weighted(running_dist, sample, bad, running_f)


def _exact_gradient_check(kind, seed, cases=15, tol=1e-10, **kwargs):
    gen = np.random.default_rng(seed)
    for _ in range(cases):
        n = int(gen.integers(3, 6))
        d = random_dist(gen, n)
        f = gen.normal(0, 1, n)
        k = int(gen.integers(kwargs.pop("min_k", 1), n + 1)) if "min_k" in kwargs else int(gen.integers(2, n + 1))
        mean, _ = oracle.estimator_moments(kind, d, f, k)
        exact = oracle.exact_gradient(d, f)
        assert np.max(np.abs(mean - exact)) < tol


class TestUspg:
    def test_constant_objective_has_zero_mean(self):
        gen = np.random.default_rng(24)
        d = random_dist(gen, 4)
        mean, _ = oracle.estimator_moments(est.UNORDERED_SET_PG, d, np.full(4, 3.3), 2)
        assert np.max(np.abs(mean)) < 1e-12

    def test_full_domain_is_exact(self, running_dist, running_f):
        g = sg.uspg(running_dist, (0, 1, 2), running_f)
        np.testing.assert_allclose(
            g.grad, oracle.exact_gradient(running_dist, running_f), atol=1e-12
        )
        assert g.estimator_id == "unordered-set-pg"
        assert g.k == 3 and g.evals == 3

    def test_unbiased_by_enumeration(self):
        _exact_gradient_check(est.UNORDERED_SET_PG, seed=25)


class TestUspgBaseline:
    def test_constant_objective_vanishes_per_draw(self):
        """The baseline weights sum to one, so a constant objective cancels
        exactly inside every bracket."""
        gen = np.random.default_rng(26)
        for _ in range(20):
            n = int(gen.integers(3, 6))
            d = random_dist(gen, n)
            k = int(gen.integers(2, n + 1))
            S = tuple(sorted(gen.choice(n, size=k, replace=False).tolist()))
            g = sg.uspg_baseline(d, S, np.full(n, -2.5))
            assert np.max(np.abs(g.grad)) < 1e-13

    def test_unbiased_by_enumeration(self):
        _exact_gradient_check(est.UNORDERED_SET_PG_BL, seed=27)

    def test_control_variate_zero_mean(self):
        gen = np.random.default_rng(28)
        for _ in range(15):
            n = int(gen.integers(3, 6))
            d = random_dist(gen, n)
            f = gen.normal(0, 1, n)
            k = int(gen.integers(2, n + 1))
            sets, probs = oracle.enumerate_unordered(d, k)
            cv = sum(
                p * sg.uspg_baseline_control_variate(d, s, f)
                for s, p in zip(sets, probs)
            )
            assert np.max(np.abs(cv / math.fsum(probs))) < 1e-10

    def test_needs_two_samples(self, running_dist, running_f):
        with pytest.raises(NeedTwoSamples):
            sg.uspg_baseline(running_dist, (1,), running_f)


class TestFullUspg:
    def test_zero_param_grad_equals_uspg(self, running_dist, running_f):
        obj = Objective(running_f, np.zeros((3, 3)))
        g_full = sg.fuspg(running_dist, (0, 1), obj)
        g_plain = sg.uspg(running_dist, (0, 1), running_f)
        np.testing.assert_allclose(g_full.grad, g_plain.grad, atol=1e-14)

    def test_full_domain_total_gradient(self, running_dist, running_f):
        grad_table = np.arange(9.0).reshape(3, 3)
        obj = Objective(running_f, grad_table)
        g = sg.fuspg(running_dist, (0, 1, 2), obj)
        np.testing.assert_allclose(
            g.grad, oracle.exact_gradient(running_dist, obj), atol=1e-12
        )

    def test_unbiased_with_pathwise_term(self):
        gen = np.random.default_rng(29)
        for _ in range(15):
            n = int(gen.integers(3, 6))
            d = random_dist(gen, n)
            obj = Objective(gen.normal(0, 1, n), gen.normal(0, 1, (n, n)))
            k = int(gen.integers(1, n + 1))
            mean, _ = oracle.estimator_moments(est.FULL_UNORDERED_SET_PG, d, obj, k)
            assert np.max(np.abs(mean - oracle.exact_gradient(d, obj))) < 1e-10

    def test_requires_param_grad(self, running_dist, running_f):
        with pytest.raises(NoPathwiseGradient):
            sg.fuspg(running_dist, (0, 1), running_f)

    def test_one_coefs_call_gives_the_two_call_bits(self, monkeypatch):
        """The weights at f = 1 times f are the coefs at f, bit for bit, so
        ``fuspg`` builds its leave-one-out table once."""
        spec = est.ESTIMATORS[est.FULL_UNORDERED_SET_PG]
        calls = []
        loo = est._loo_ratios
        monkeypatch.setattr(est, "_loo_ratios", lambda *args: calls.append(args) or loo(*args))
        gen = np.random.default_rng(31)
        for _ in range(20):
            n = int(gen.integers(3, 7))
            d = random_dist(gen, n)
            obj = Objective(gen.normal(0, 1, n), gen.normal(0, 1, (n, n)))
            S = np.sort(gen.choice(n, size=int(gen.integers(1, n + 1)), replace=False))
            calls.clear()
            got = sg.fuspg(d, S, obj).grad
            assert len(calls) == 1
            # The two-call form: the coefs at f give the score term, the
            # coefs at f = 1 the pathwise term's weights.
            rows = S[None]
            elements, coefs = spec.coefs(d, rows, obj.values_at(rows).reshape(rows.shape), None)
            want = est._score_sum(d, elements, coefs)
            _, w = spec.coefs(d, rows, np.ones(rows.shape), None)
            for col, ws in zip(elements.T, w.T):
                want = want + ws[:, None] * np.array([obj.param_grad_at(s) for s in col.tolist()])
            assert got.tobytes() == want[0].tobytes()


class TestReinforceWithReplacement:
    def test_constant_objective_vanishes_with_baseline(self, running_dist):
        g = sg.reinforce_wr(running_dist, [0, 0, 2], np.full(3, 1.25), baseline=True)
        assert np.max(np.abs(g.grad)) < 1e-14

    def test_unbiased_by_enumeration(self):
        for kind in (est.REINFORCE_WR, est.REINFORCE_WR_BL):
            gen = np.random.default_rng(31)
            for _ in range(10):
                d = random_dist(gen, 3)
                f = gen.normal(0, 1, 3)
                mean, _ = oracle.estimator_moments(kind, d, f, 2)
                assert np.max(np.abs(mean - oracle.exact_gradient(d, f))) < 1e-10

    def test_single_sample_no_baseline(self, running_dist, running_f):
        g = sg.reinforce_wr(running_dist, [1], running_f, baseline=False)
        expected = running_f[1] * sg.grad_log_prob(running_dist, 1)
        np.testing.assert_allclose(g.grad, expected, atol=1e-14)

    def test_baseline_needs_two(self, running_dist, running_f):
        with pytest.raises(NeedTwoSamples):
            sg.reinforce_wr(running_dist, [0], running_f, baseline=True)

    @pytest.mark.parametrize("X", [[-1, 0], [5, 0]])
    @pytest.mark.parametrize("baseline", [False, True])
    def test_draws_out_of_range_rejected(self, running_dist, running_f, X, baseline):
        """A negative index must not wrap round to the last element."""
        with pytest.raises(ValueError, match="out of range"):
            sg.reinforce_wr(running_dist, X, running_f, baseline=baseline)


class TestReinforceSampledBaseline:
    def test_constant_objective_vanishes(self, running_dist):
        g = sg.reinforce_sampled_baseline(running_dist, [0, 1], [2, 0], np.full(3, 4.0))
        assert np.max(np.abs(g.grad)) < 1e-14

    def test_unbiased_by_enumeration(self):
        gen = np.random.default_rng(32)
        for k in (1, 2):
            for _ in range(5):
                d = random_dist(gen, 3)
                f = gen.normal(0, 1, 3)
                mean, _ = oracle.estimator_moments(est.REINFORCE_SAMPLED_BL, d, f, k)
                assert np.max(np.abs(mean - oracle.exact_gradient(d, f))) < 1e-10

    def test_evals_bookkeeping(self, running_dist, running_f):
        g = sg.reinforce_sampled_baseline(running_dist, [0, 1], [1, 2], running_f)
        assert g.evals == 4 and g.k == 2

    def test_size_mismatch(self, running_dist, running_f):
        with pytest.raises(BaselineSizeMismatch):
            sg.reinforce_sampled_baseline(running_dist, [0, 1], [1], running_f)

    @pytest.mark.parametrize("X, X_baseline", [([-1, 0], [0, 1]), ([0, 1], [5, 0])])
    def test_draws_out_of_range_rejected(self, running_dist, running_f, X, X_baseline):
        with pytest.raises(ValueError, match="out of range"):
            sg.reinforce_sampled_baseline(running_dist, X, X_baseline, running_f)


class TestRisk:
    def test_forms_agree(self):
        gen = np.random.default_rng(33)
        for _ in range(100):
            d = random_dist(gen, 6)
            f = gen.normal(0, 1, 6)
            S = tuple(sorted(gen.choice(6, size=3, replace=False).tolist()))
            gd = sg.risk_grad(d, S, f, form="direct").grad
            gb = sg.risk_grad(d, S, f, form="baseline").grad
            assert np.max(np.abs(gd - gb)) < 1e-10

    def test_full_domain_reduces_to_exact(self, running_dist, running_f):
        """With S = D the normalizer is 1 and both forms, as well as the
        baseline-corrected set estimator, equal the exact gradient."""
        exact = oracle.exact_gradient(running_dist, running_f)
        gd = sg.risk_grad(running_dist, (0, 1, 2), running_f, form="direct").grad
        gb = sg.risk_grad(running_dist, (0, 1, 2), running_f, form="baseline").grad
        gu = sg.uspg_baseline(running_dist, (0, 1, 2), running_f).grad
        np.testing.assert_allclose(gd, exact, atol=1e-12)
        np.testing.assert_allclose(gb, exact, atol=1e-12)
        np.testing.assert_allclose(gu, exact, atol=1e-12)

    def test_constant_objective_vanishes(self, running_dist):
        for form in ("direct", "baseline"):
            g = sg.risk_grad(running_dist, (0, 2), np.full(3, 2.0), form=form)
            assert np.max(np.abs(g.grad)) < 1e-12


class TestIwpg:
    def test_sentinel_reduces_to_exact(self, running_dist, running_f):
        exact = oracle.exact_gradient(running_dist, running_f)
        S = (0, 1, 2)
        for kwargs in (
            dict(baseline=False),
            dict(baseline=True),
            dict(baseline=True, normalized=True),
        ):
            g = sg.iwpg(running_dist, S, sg.Threshold(None), running_f, **kwargs)
            np.testing.assert_allclose(g.grad, exact, atol=1e-12)

    def test_baseline_form_unbiased_by_quadrature(self):
        gen = np.random.default_rng(34)
        for _ in range(5):
            d = random_dist(gen, 4)
            f = gen.normal(0, 1, 4)
            mean, _ = oracle.estimator_moments(est.IW_PG_BL, d, f, 2)
            assert np.max(np.abs(mean - oracle.exact_gradient(d, f))) < 1e-9

    def test_baseline_form_unbiased_by_monte_carlo(self):
        """10^6 joint draws, mean within 3 standard errors per component; the
        batch formula is bridged to the operation itself."""
        gen = np.random.default_rng(35)
        d = random_dist(gen, 4)
        f = gen.normal(0, 1, 4)
        draws = 10**6
        idx, vals, kappa = sg.gumbel_top_k(Rng(36), d, 2, size=draws)
        lp = d.log_probs
        p_el = np.exp(lp[idx])
        q = -np.expm1(-np.exp(lp[idx] - kappa[:, None]))
        r = p_el / q
        fv = f[idx]
        B = np.sum(r * fv, axis=1, keepdims=True)
        coefs = r * (fv * (1.0 - p_el + r) - B)
        grads = np.zeros((draws, 4))
        np.put_along_axis(grads, idx, coefs, axis=1)
        grads -= coefs.sum(axis=1, keepdims=True) * d.probs
        exact = oracle.exact_gradient(d, f)
        se = grads.std(axis=0, ddof=1) / math.sqrt(draws)
        assert np.all(np.abs(grads.mean(axis=0) - exact) < 3 * se)
        for row in range(200):
            g = sg.iwpg(d, idx[row], float(kappa[row]), f, baseline=True)
            np.testing.assert_allclose(g.grad, grads[row], atol=1e-12)

    def test_constant_objective_zero_mean_by_quadrature(self):
        gen = np.random.default_rng(37)
        d = random_dist(gen, 4)
        mean, _ = oracle.estimator_moments(est.IW_PG_BL, d, np.full(4, 1.7), 2)
        assert np.max(np.abs(mean)) < 1e-10


class TestBaselineInvariance:
    def test_constant_shift_leaves_estimates_unchanged(self):
        """Adding c to the objective must not move baseline-corrected
        estimators (per draw, not just in expectation)."""
        gen = np.random.default_rng(38)
        for _ in range(25):
            n = int(gen.integers(3, 7))
            d = random_dist(gen, n)
            f = gen.normal(0, 1, n)
            c = float(gen.normal(0, 10))
            k = int(gen.integers(2, n + 1))
            S = tuple(sorted(gen.choice(n, size=k, replace=False).tolist()))
            X = gen.integers(0, n, size=k)

            a = sg.uspg_baseline(d, S, f).grad
            b = sg.uspg_baseline(d, S, f + c).grad
            assert np.max(np.abs(a - b)) < 1e-9

            a = sg.reinforce_wr(d, X, f, baseline=True).grad
            b = sg.reinforce_wr(d, X, f + c, baseline=True).grad
            assert np.max(np.abs(a - b)) < 1e-9

            for form in ("direct", "baseline"):
                a = sg.risk_grad(d, S, f, form=form).grad
                b = sg.risk_grad(d, S, f + c, form=form).grad
                assert np.max(np.abs(a - b)) < 1e-9


class TestRaoBlackwellOrdering:
    def test_set_estimator_never_worse(self, running_dist, running_f):
        _, var_us = oracle.estimator_moments(est.UNORDERED_SET, running_dist, running_f, 2)
        _, var_ss = oracle.estimator_moments(est.SINGLE_SAMPLE, running_dist, running_f, 2)
        _, var_sas = oracle.estimator_moments(
            est.stoch_sas_id(1), running_dist, running_f, 2
        )
        _, var_iw = oracle.estimator_moments(
            est.IMPORTANCE_WEIGHTED, running_dist, running_f, 2
        )
        assert var_us <= var_ss + 1e-10
        assert var_us <= var_sas + 1e-10
        assert var_us <= var_iw + 1e-10


class TestEstimatorIds:
    def test_stoch_sas_id_roundtrip(self):
        assert est.parse_stoch_sas(est.stoch_sas_id(3)) == 3
        assert est.parse_stoch_sas("unordered-set") is None

    def test_readme_lists_the_table(self):
        """The README's estimator id paragraph names exactly the table's ids."""
        readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
        paragraph = readme.split("Estimator ids", 1)[1].split("\n\n")[1]
        listed = set(re.findall(r"`([a-z0-9{}-]+)`", paragraph))
        assert listed == set(est.ESTIMATORS) | {"stoch-sum-and-sample-m{m}"}

    def test_grad_estimate_ids(self, running_dist, running_f):
        pairs = [
            (sg.uspg(running_dist, (0, 1), running_f), "unordered-set-pg"),
            (sg.uspg_baseline(running_dist, (0, 1), running_f), "unordered-set-pg-bl"),
            (sg.risk_grad(running_dist, (0, 1), running_f), "risk"),
            (
                sg.iwpg(running_dist, (0, 1, 2), sg.Threshold(None), running_f),
                "iw-pg-bl",
            ),
            (sg.reinforce_wr(running_dist, [0, 1], running_f), "reinforce-wr-bl"),
        ]
        for grad_est, eid in pairs:
            assert grad_est.estimator_id == eid


def _batch_space(spec, dist, k, gen):
    """Up to 12 random samples of the spec's law at size k as a (B, points)
    batch, with one row of importance weights each for the threshold law."""
    if spec.law == est.THRESHOLD:
        points, _ = oracle.enumerate_unordered(dist, k)
    else:
        points, _ = oracle._SPACES[spec.law](dist, k)
    points = points[np.sort(gen.choice(len(points), size=min(len(points), 12), replace=False))]
    if spec.law != est.THRESHOLD:
        return points, None
    kappa = None if k == dist.n else float(gen.normal(-1.0, 1.0))
    return points, np.array([est.importance_weights(dist, S, kappa)[1] for S in points])


_BATCH_IDS = [*est.ESTIMATORS, est.stoch_sas_id(1), est.stoch_sas_id(2)]


class TestBatchRows:
    """Every row of a batched ``_estimate`` equals, bit for bit, the same
    sample's estimate as a batch of one, which is what every one-sample
    function computes.  Random n in 3..6, every valid k up to n, with a
    pathwise objective, with and without a projection."""

    @pytest.mark.parametrize("eid", _BATCH_IDS)
    def test_rows_equal_one_sample(self, eid):
        spec = est.estimator_spec(eid)
        m = est.parse_stoch_sas(eid) or 0
        needs_two = eid in (est.UNORDERED_SET_PG_BL, est.REINFORCE_WR_BL, est.DET_SUM_AND_SAMPLE)
        gen = np.random.default_rng(60 + _BATCH_IDS.index(eid))
        for n in (3, 4, 5, 6):
            dist = random_dist(gen, n)
            obj = Objective(gen.normal(0.0, 1.0, n), gen.normal(0.0, 1.0, (n, n)))
            project = gen.normal(0.0, 1.0, n)
            for k in range(max(m + 1, 2 if needs_two else 1), n + 1):
                try:
                    points, r = _batch_space(spec, dist, k, gen)
                except SpaceTooLarge:
                    continue
                batch = est._estimate(spec, dist, points, obj, r)
                projected = oracle._project(batch, project)
                for b, row in enumerate(points):
                    one = est._estimate_one(spec, dist, row, obj, None if r is None else r[b])
                    np.testing.assert_array_equal(batch[b], one)
                    if spec.output != est.VALUE:
                        assert projected[b] == float(np.dot(one, project))
