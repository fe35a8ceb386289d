import json
import math

import numpy as np
import pytest

from sworgrad import (
    CategoricalDist,
    FactorizedDist,
    Objective,
    dist_from_dict,
    from_logits,
    grad_log_prob,
    restricted_log_prob,
)
from sworgrad.errors import (
    DegenerateRestriction,
    DomainTooLarge,
    InvalidIndices,
    InvalidLogits,
    InvalidRestriction,
    NoParameterization,
)


class TestFromLogits:
    def test_symmetric_pair(self):
        d = from_logits([0.0, 0.0])
        np.testing.assert_allclose(d.log_probs, [math.log(0.5)] * 2, atol=1e-15)

    def test_shift_invariance(self):
        """Softmax is invariant to a common shift: (c,c,c,c) is uniform."""
        for c in (-3.0, 0.0, 17.5):
            d = from_logits([c] * 4)
            np.testing.assert_allclose(d.probs, 0.25, atol=1e-15)

    def test_already_normalized_logits(self):
        d = from_logits(np.log([0.5, 0.3, 0.2]))
        np.testing.assert_allclose(d.probs, [0.5, 0.3, 0.2], atol=1e-15)

    def test_normalization_invariant(self):
        gen = np.random.default_rng(0)
        for _ in range(200):
            d = from_logits(gen.normal(0, 3, int(gen.integers(1, 30))))
            assert abs(np.sum(np.exp(d.log_probs)) - 1.0) < 1e-12

    def test_logits_retained_exactly(self):
        gen = np.random.default_rng(1)
        logits = gen.normal(0, 2, 7)
        d = from_logits(logits)
        np.testing.assert_array_equal(d.logits, logits)
        lse = d.logits - d.log_probs
        np.testing.assert_allclose(lse, lse[0], atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidLogits):
            from_logits([0.0, math.nan])
        with pytest.raises(InvalidLogits):
            from_logits([math.inf, 0.0])
        with pytest.raises(InvalidLogits):
            from_logits([])

    def test_probability_floor(self):
        """Extreme logits are floored; no log-probability reaches -inf."""
        d = from_logits([0.0, -2000.0])
        assert np.all(np.isfinite(d.log_probs))
        assert abs(np.sum(np.exp(d.log_probs)) - 1.0) < 1e-12


class TestCategoricalDist:
    @pytest.mark.parametrize("bad", [-math.inf, math.nan, math.inf])
    def test_non_finite_log_prob_rejected(self, bad):
        """A zero-probability entry used to reach the exact kernel, which
        divided by a zero outside mass (ZeroDivisionError or NaN ratios)."""
        with pytest.raises(InvalidLogits):
            CategoricalDist(log_probs=np.array([math.log(0.5), math.log(0.5), bad]))

    def test_probs_are_cached_and_read_only(self):
        d = from_logits([0.3, -1.2, 2.0])
        assert d.probs is d.probs
        np.testing.assert_array_equal(d.probs, np.exp(d.log_probs))
        with pytest.raises(ValueError):
            d.probs[0] = 1.0

    def test_caller_arrays_stay_writeable(self):
        """Building a distribution used to make the caller's own array
        read-only.  The distribution keeps a read-only copy, so a later
        write into the caller's array changes nothing in it."""
        a = np.array([0.1, 0.2, 0.3])
        b = np.array([0.4, -0.5])
        c = np.log(np.array([0.5, 0.25, 0.25]))
        dists = (from_logits(a), FactorizedDist((b,)), CategoricalDist(log_probs=c))
        views = (dists[0].logits, dists[1].per_dim_logits[0], dists[2].log_probs)
        for caller, view in zip((a, b, c), views):
            want = caller.copy()
            caller[0] = 7.0
            assert view.tobytes() == want.tobytes()
            assert not view.flags.writeable

    def test_owned_read_only_arrays_are_not_copied(self):
        log_probs = np.log(np.array([0.5, 0.25, 0.25]))
        log_probs.setflags(write=False)
        assert CategoricalDist(log_probs=log_probs).log_probs is log_probs


class TestRestrictedLogProb:
    def test_empty_restriction(self, running_dist):
        assert restricted_log_prob(running_dist, (), 1) == running_dist.log_prob(1)

    def test_running_example(self, running_dist):
        """Removing element 0 renormalizes: 0.3 / (1 - 0.5) = 0.6."""
        got = restricted_log_prob(running_dist, (0,), 1)
        np.testing.assert_allclose(got, math.log(0.6), atol=1e-14)

    def test_single_remaining_element(self, running_dist):
        got = restricted_log_prob(running_dist, (0, 1), 2)
        np.testing.assert_allclose(got, 0.0, atol=1e-12)

    def test_renormalization_sums_to_one(self):
        gen = np.random.default_rng(2)
        for _ in range(100):
            n = int(gen.integers(3, 12))
            d = from_logits(gen.normal(0, 2, n))
            C = tuple(gen.choice(n, size=int(gen.integers(1, n - 1)), replace=False))
            total = sum(
                math.exp(restricted_log_prob(d, C, x)) for x in range(n) if x not in C
            )
            assert abs(total - 1.0) < 1e-10

    def test_element_inside_restriction_rejected(self, running_dist):
        with pytest.raises(InvalidRestriction):
            restricted_log_prob(running_dist, (0, 1), 0)

    def test_degenerate_restriction_rejected(self):
        d = from_logits([0.0, -60.0])
        with pytest.raises(DegenerateRestriction):
            restricted_log_prob(d, (0,), 1)


class TestGradLogProb:
    def test_uniform_two(self):
        d = from_logits([0.0, 0.0])
        np.testing.assert_allclose(grad_log_prob(d, 0), [0.5, -0.5], atol=1e-15)

    def test_running_example(self, running_dist):
        np.testing.assert_allclose(
            grad_log_prob(running_dist, 2), [-0.5, -0.3, 0.8], atol=1e-14
        )

    def test_components_sum_to_zero(self):
        gen = np.random.default_rng(3)
        for _ in range(50):
            d = from_logits(gen.normal(0, 2, int(gen.integers(2, 10))))
            x = int(gen.integers(d.n))
            assert abs(np.sum(grad_log_prob(d, x))) < 1e-12

    def test_matches_finite_differences(self):
        """Analytic gradient vs central differences of log p(x) w.r.t. logits."""
        gen = np.random.default_rng(4)
        step = 1e-5
        for _ in range(20):
            n = int(gen.integers(2, 8))
            logits = gen.normal(0, 1.5, n)
            x = int(gen.integers(n))
            analytic = grad_log_prob(from_logits(logits), x)
            fd = np.empty(n)
            for j in range(n):
                hi = logits.copy()
                hi[j] += step
                lo = logits.copy()
                lo[j] -= step
                fd[j] = (
                    from_logits(hi).log_prob(x) - from_logits(lo).log_prob(x)
                ) / (2 * step)
            np.testing.assert_allclose(analytic, fd, atol=1e-6)

    def test_requires_logits(self):
        d = CategoricalDist(log_probs=np.log([0.5, 0.5]))
        with pytest.raises(NoParameterization):
            grad_log_prob(d, 0)


class TestFactorizedDist:
    def test_single_dim_identity(self):
        fd = FactorizedDist((np.array([0.1, -0.7, 2.0]),))
        flat = fd.flatten()
        np.testing.assert_allclose(
            flat.log_probs, from_logits([0.1, -0.7, 2.0]).log_probs, atol=1e-15
        )

    def test_product_of_uniforms(self):
        fd = FactorizedDist((np.zeros(2), np.zeros(2)))
        np.testing.assert_allclose(fd.flatten().probs, 0.25, atol=1e-15)

    def test_three_fair_coins(self):
        fd = FactorizedDist(tuple(np.zeros(2) for _ in range(3)))
        np.testing.assert_allclose(fd.flatten().probs, 1.0 / 8.0, atol=1e-15)

    def test_joint_equals_sum_of_dims(self):
        gen = np.random.default_rng(5)
        for _ in range(20):
            sizes = gen.integers(2, 5, size=int(gen.integers(1, 5)))
            fd = FactorizedDist(tuple(gen.normal(0, 1, s) for s in sizes))
            flat = fd.flatten()
            assert flat.n <= 10**4
            for idx in range(flat.n):
                assignment = fd.index_to_assignment(idx)
                expected = sum(
                    fd.dim_log_probs(d)[a] for d, a in enumerate(assignment)
                )
                assert abs(flat.log_prob(idx) - expected) < 1e-12
                assert fd.assignment_to_index(assignment) == idx

    def test_row_major_order(self):
        fd = FactorizedDist((np.zeros(2), np.zeros(3)))
        assert fd.assignment_to_index((1, 0)) == 3
        assert fd.assignment_to_index((0, 2)) == 2
        assert fd.index_to_assignment(5) == (1, 2)

    def test_out_of_range_index_and_assignment_raise(self):
        fd = FactorizedDist((np.zeros(2), np.zeros(3)))
        for idx in (6, 7, -1, -6):
            with pytest.raises(InvalidIndices):
                fd.index_to_assignment(idx)
        for assignment in ((5, 0), (2, 0), (0, 3), (-1, 0), (0, -1), (1,), (1, 0, 0), ()):
            with pytest.raises(InvalidIndices):
                fd.assignment_to_index(assignment)

    def test_flatten_cap(self):
        fd = FactorizedDist(tuple(np.zeros(10) for _ in range(7)))
        with pytest.raises(DomainTooLarge):
            fd.flatten()

    def test_domain_size_is_exact(self):
        """np.prod wrapped at 2^64: these read 0 and 7766279631452241920."""
        assert FactorizedDist(tuple(np.zeros(2) for _ in range(64))).domain_size == 2**64
        assert FactorizedDist(tuple(np.zeros(10) for _ in range(20))).domain_size == 10**20

    def test_flatten_cap_holds_past_int64(self):
        fd = FactorizedDist(tuple(np.zeros(2) for _ in range(64)))
        with pytest.raises(DomainTooLarge):
            fd.flatten()

    def test_dim_log_probs_are_normalized_once_and_read_only(self):
        fd = FactorizedDist((np.array([0.1, -0.7, 2.0]), np.array([3.0, 1.0])))
        for d, logits in enumerate(fd.per_dim_logits):
            lp = fd.dim_log_probs(d)
            assert lp is fd.dim_log_probs(d)
            np.testing.assert_array_equal(lp, from_logits(logits).log_probs)
            with pytest.raises(ValueError):
                lp[0] = 0.0


class TestSerialization:
    def test_categorical_roundtrip(self):
        d = from_logits([0.4, -1.0, 2.2])
        again = CategoricalDist.from_json(d.to_json())
        np.testing.assert_allclose(again.log_probs, d.log_probs, atol=1e-15)

    def test_factorized_roundtrip(self):
        fd = FactorizedDist((np.array([0.0, 1.0]), np.array([0.5, -0.5, 0.1])))
        again = dist_from_dict(json.loads(json.dumps(fd.to_dict())))
        np.testing.assert_allclose(
            again.flatten().log_probs, fd.flatten().log_probs, atol=1e-15
        )

    def test_dispatch_on_keys(self):
        assert isinstance(dist_from_dict({"logits": [0.0, 1.0]}), CategoricalDist)
        assert isinstance(dist_from_dict({"dims": [[0.0, 1.0]]}), FactorizedDist)


class TestObjective:
    def test_callable_is_cached(self):
        calls = []

        def f(x):
            calls.append(x)
            return float(x)

        obj = Objective(f)
        assert obj.value(3) == 3.0
        assert obj.value(3) == 3.0
        assert calls == [3]

    def test_param_grad(self):
        obj = Objective(np.arange(4.0), np.eye(4))
        assert obj.has_param_grad
        np.testing.assert_array_equal(obj.param_grad_at(2), np.eye(4)[2])

    def test_non_finite_table_rejected(self):
        with pytest.raises(ValueError):
            Objective(np.array([1.0, math.nan]))
