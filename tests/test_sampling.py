import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare

import sworgrad as sg
from sworgrad import Rng, gumbel_perturb, gumbel_top_k, sequential_swor, stochastic_beam_search
from sworgrad.errors import InvalidSampleSize
from sworgrad.oracle import enumerate_ordered

EULER_MASCHERONI = 0.5772156649015329


def _tv(counts, expected, total):
    return 0.5 * sum(abs(counts.get(k, 0) / total - p) for k, p in expected.items())


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).generator.random(100)
        b = Rng(42).generator.random(100)
        np.testing.assert_array_equal(a, b)

    def test_split_streams_differ(self):
        parent = Rng(7)
        a = parent.split(0).generator.random(10)
        b = parent.split(1).generator.random(10)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, Rng(7).split(0).generator.random(10))

    def test_spawn_key_stream_is_the_split_stream(self):
        for seed, r in ((0, 0), (7, 3), (123456789, 99999)):
            direct = Rng(seed, (r,))
            split = Rng(seed).split(r)
            assert direct.spawn_key == split.spawn_key
            np.testing.assert_array_equal(direct.uniform_open(50), split.uniform_open(50))
            np.testing.assert_array_equal(
                direct.generator.integers(0, 2**62, 20), split.generator.integers(0, 2**62, 20)
            )

    def test_uniform_open_interval(self):
        u = Rng(0).uniform_open(10**6)
        assert np.all(u > 0.0)
        assert np.all(u < 1.0)


class TestGumbelPerturb:
    def test_noise_has_gumbel_mean(self, running_dist):
        g = gumbel_perturb(Rng(0), running_dist, size=10**6)
        noise = g - running_dist.log_probs
        assert abs(noise.mean() - EULER_MASCHERONI) < 0.01

    def test_deterministic_given_seed(self, running_dist):
        np.testing.assert_array_equal(
            gumbel_perturb(Rng(3), running_dist), gumbel_perturb(Rng(3), running_dist)
        )

    def test_argmax_distributed_as_p(self):
        """The Gumbel-max property: argmax of perturbed values ~ p."""
        gen = np.random.default_rng(1)
        d = sg.from_logits(gen.normal(0, 1, 5))
        g = gumbel_perturb(Rng(4), d, size=10**6)
        counts = Counter(np.argmax(g, axis=1).tolist())
        expected = {i: d.probs[i] for i in range(5)}
        assert _tv(counts, expected, 10**6) < 0.01
        obs = np.array([counts[i] for i in range(5)])
        assert chisquare(obs, d.probs * 10**6).pvalue > 0.001


class TestGumbelTopK:
    def test_full_domain_is_permutation(self, running_dist):
        sample, threshold = gumbel_top_k(Rng(5), running_dist, 3)
        assert sorted(sample.indices.tolist()) == [0, 1, 2]
        assert threshold.is_sentinel

    def test_perturbed_values_strictly_decreasing(self, running_dist):
        for seed in range(50):
            sample, _ = gumbel_top_k(Rng(seed), running_dist, 2)
            assert np.all(np.diff(sample.perturbed_logprobs) < 0)

    def test_threshold_below_retained(self, running_dist):
        _, vals, kappa = gumbel_top_k(Rng(6), running_dist, 2, size=20000)
        assert np.all(kappa < vals.min(axis=1))

    def test_ordered_law_matches_chain_rule(self, running_dist):
        """Empirical ordered-pair frequencies vs the sequential chain-rule
        probabilities, n=3, k=2."""
        idx, _, _ = gumbel_top_k(Rng(7), running_dist, 2, size=10**6)
        counts = Counter(map(tuple, idx.tolist()))
        expected = {
            tuple(b.tolist()): p
            for b, p in zip(*enumerate_ordered(running_dist, 2))
        }
        assert _tv(counts, expected, 10**6) < 0.01
        keys = sorted(expected)
        obs = np.array([counts.get(k, 0) for k in keys])
        exp = np.array([expected[k] * 10**6 for k in keys])
        assert chisquare(obs, exp).pvalue > 0.001

    def test_set_law_matches_p_set(self, running_dist):
        idx, _, _ = gumbel_top_k(Rng(8), running_dist, 2, size=10**6)
        counts = Counter(tuple(sorted(t)) for t in idx.tolist())
        expected = {
            S: math.exp(sg.p_set_naive(running_dist, S))
            for S in itertools.combinations(range(3), 2)
        }
        assert _tv(counts, expected, 10**6) < 0.01

    def test_invalid_k(self, running_dist):
        with pytest.raises(InvalidSampleSize):
            gumbel_top_k(Rng(0), running_dist, 0)
        with pytest.raises(InvalidSampleSize):
            gumbel_top_k(Rng(0), running_dist, 4)


class TestSequentialSwor:
    def test_k1_is_plain_categorical(self, running_dist):
        idx = sequential_swor(Rng(9), running_dist, 1, size=10**6)
        counts = Counter(idx[:, 0].tolist())
        expected = {i: running_dist.probs[i] for i in range(3)}
        assert _tv(counts, expected, 10**6) < 0.01

    def test_two_element_ordering_probability(self):
        d = sg.from_probs([0.9, 0.1])
        idx = sequential_swor(Rng(10), d, 2, size=10**6)
        frac = np.mean((idx[:, 0] == 0) & (idx[:, 1] == 1))
        assert abs(frac - 0.9) < 0.01

    def test_distinct_indices(self, running_dist):
        idx = sequential_swor(Rng(11), running_dist, 3, size=1000)
        for row in idx:
            assert len(set(row.tolist())) == 3

    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
    def test_distinct_at_extreme_uniforms(self, u):
        """At the ends of [0, 1) the draw must still land on an index that
        carries weight, so batched rows never repeat an earlier draw."""

        class FixedUniform(Rng):
            @property
            def generator(self):
                return self

            def random(self, size):
                return np.full(size, u)

        gen = np.random.default_rng(21)
        for _ in range(2000):
            n = int(gen.integers(3, 12))
            d = sg.from_probs(gen.random(n))
            idx = sequential_swor(FixedUniform(0), d, n, size=2)
            assert all(len(set(row)) == n for row in idx.tolist())

    @pytest.mark.parametrize("n", [3, 4])
    def test_ordering_law_equals_gumbel_top_k(self, n):
        """Both samplers share the successive-renormalization law over all
        n! orderings of the full domain (two-sample chi-square)."""
        gen = np.random.default_rng(n)
        d = sg.from_logits(gen.normal(0, 1, n))
        draws = 10**6
        g_idx, _, _ = gumbel_top_k(Rng(12 + n), d, n, size=draws)
        s_idx = sequential_swor(Rng(13 + n), d, n, size=draws)
        gc = Counter(map(tuple, g_idx.tolist()))
        sc = Counter(map(tuple, s_idx.tolist()))
        keys = sorted(set(gc) | set(sc))
        table = np.array([[gc.get(k, 0) for k in keys], [sc.get(k, 0) for k in keys]])
        assert chi2_contingency(table).pvalue > 0.001


class TestStochasticBeamSearch:
    def test_single_dim_matches_flat_top_k(self):
        fd = sg.FactorizedDist((np.array([0.0, 0.9, -0.4]),))
        flat = fd.flatten()
        draws = 500_000
        i1, _, _ = stochastic_beam_search(Rng(14), fd, 2, size=draws)
        i2, _, _ = gumbel_top_k(Rng(15), flat, 2, size=draws)
        c1 = Counter(map(tuple, i1.tolist()))
        c2 = Counter(map(tuple, i2.tolist()))
        keys = sorted(set(c1) | set(c2))
        table = np.array([[c1.get(k, 0) for k in keys], [c2.get(k, 0) for k in keys]])
        assert chi2_contingency(table).pvalue > 0.001

    def test_two_by_two_set_law(self):
        fd = sg.FactorizedDist((np.array([0.2, 1.1]), np.array([-0.3, 0.7])))
        flat = fd.flatten()
        draws = 10**6
        idx, _, _ = stochastic_beam_search(Rng(16), fd, 2, size=draws)
        counts = Counter(tuple(sorted(t)) for t in idx.tolist())
        expected = {
            S: math.exp(sg.p_set_exact(flat, S))
            for S in itertools.combinations(range(4), 2)
        }
        assert _tv(counts, expected, draws) < 0.01

    def test_full_domain(self):
        fd = sg.FactorizedDist((np.zeros(2), np.zeros(2)))
        for seed in range(20):
            sample, threshold = stochastic_beam_search(Rng(seed), fd, 4)
            assert sorted(sample.indices.tolist()) == [0, 1, 2, 3]
            assert threshold.is_sentinel

    def test_distinct_and_threshold(self):
        fd = sg.FactorizedDist((np.array([0.0, 0.5, -0.5]), np.array([0.3, -0.3])))
        idx, vals, kappa = stochastic_beam_search(Rng(17), fd, 3, size=5000)
        assert all(len(set(row)) == 3 for row in idx.tolist())
        assert np.all(kappa < vals.min(axis=1))
        assert np.all(np.diff(vals, axis=1) < 0)

    def test_deterministic_given_seed(self):
        fd = sg.FactorizedDist((np.array([0.0, 0.5]), np.array([0.3, -0.3])))
        a, ta = stochastic_beam_search(Rng(18), fd, 2)
        b, tb = stochastic_beam_search(Rng(18), fd, 2)
        np.testing.assert_array_equal(a.indices, b.indices)
        assert ta.kappa == tb.kappa

    def test_invalid_k(self):
        fd = sg.FactorizedDist((np.zeros(2), np.zeros(2)))
        with pytest.raises(InvalidSampleSize):
            stochastic_beam_search(Rng(0), fd, 5)


class TestSampleTypes:
    def test_ordered_rejects_duplicates(self):
        with pytest.raises(ValueError):
            sg.OrderedSample(np.array([1, 1, 2]))

    def test_unordered_requires_sorted(self):
        with pytest.raises(ValueError):
            sg.UnorderedSample(np.array([2, 1]))

    def test_ordered_to_unordered(self):
        s = sg.OrderedSample(np.array([3, 0, 2])).to_unordered()
        np.testing.assert_array_equal(s.indices, [0, 2, 3])
