import math

import numpy as np
import pytest

from conftest import random_dist
from sworgrad import (
    FactorizedDist,
    Rng,
    from_logits,
    from_probs,
    gumbel_top_k,
    loo_ratios,
    p_set_exact,
    p_set_integral,
    p_set_naive,
    stochastic_beam_search,
)
from sworgrad.errors import TooManyPermutations, TooManySubsets

RUNNING_P_SET = 18.0 / 35.0  # two-permutation sum: 0.5*0.3/0.5 + 0.3*0.5/0.7


class TestNaive:
    def test_single_element(self, running_dist):
        assert abs(math.exp(p_set_naive(running_dist, (0,))) - 0.5) < 1e-15

    def test_whole_domain(self, running_dist):
        assert p_set_naive(running_dist, (0, 1, 2)) == 0.0

    def test_running_example(self, running_dist):
        np.testing.assert_allclose(
            math.exp(p_set_naive(running_dist, (0, 1))), RUNNING_P_SET, atol=1e-15
        )

    def test_permutation_guard(self):
        d = from_logits(np.zeros(12))
        with pytest.raises(TooManyPermutations):
            p_set_naive(d, tuple(range(9)))


class TestExact:
    def test_agrees_with_naive(self, running_dist):
        got = math.exp(p_set_exact(running_dist, (0, 1)))
        np.testing.assert_allclose(got, RUNNING_P_SET, atol=1e-12)

    def test_uniform_closed_form(self):
        d = from_logits(np.zeros(4))
        np.testing.assert_allclose(
            math.exp(p_set_exact(d, (1, 3))), 1.0 / 6.0, atol=1e-14
        )

    def test_restricted_single_element(self, running_dist):
        """p^{D\\{0}}({1}) for S={0,1}: 0.3/0.5."""
        got = math.exp(p_set_exact(running_dist, (0, 1), C=(0,)))
        np.testing.assert_allclose(got, 0.6, atol=1e-14)

    def test_subset_guard(self):
        d = from_logits(np.zeros(30))
        with pytest.raises(TooManySubsets):
            p_set_exact(d, tuple(range(21)))

    def test_small_probability_conditioning(self):
        """The alternating sum stays accurate when p(S) is many orders below
        the individual terms (uniform n=50, k=10 cancels down to ~1e-11)."""
        d = from_logits(np.zeros(50))
        closed = -math.log(math.comb(50, 10))
        got = p_set_exact(d, tuple(range(10)))
        np.testing.assert_allclose(got, closed, rtol=1e-12)


class TestIntegral:
    def test_matches_exact_small_sets(self):
        gen = np.random.default_rng(10)
        for _ in range(100):
            n = int(gen.integers(8, 13))
            d = random_dist(gen, n, scale=1.5)
            k = int(gen.integers(1, 7))
            S = tuple(sorted(gen.choice(n, size=k, replace=False).tolist()))
            le = p_set_exact(d, S)
            li = p_set_integral(d, S)
            assert abs(le - li) <= 1e-8 * max(abs(le), 1.0)

    def test_matches_exact_up_to_twelve(self):
        gen = np.random.default_rng(11)
        for _ in range(100):
            n = int(gen.integers(14, 31))
            d = random_dist(gen, n, scale=1.5)
            k = int(gen.integers(2, 13))
            S = tuple(sorted(gen.choice(n, size=k, replace=False).tolist()))
            le = p_set_exact(d, S)
            li = p_set_integral(d, S)
            assert abs(le - li) <= 1e-8 * abs(le)

    def test_whole_domain(self, running_dist):
        assert abs(math.exp(p_set_integral(running_dist, (0, 1, 2))) - 1.0) < 1e-10

    def test_uniform_fifty_choose_ten(self):
        d = from_logits(np.zeros(50))
        closed = 1.0 / math.comb(50, 10)
        got = math.exp(p_set_integral(d, tuple(range(10))))
        assert abs(got - closed) / closed < 1e-6

    def test_restricted_matches_exact(self):
        gen = np.random.default_rng(12)
        for _ in range(50):
            n = int(gen.integers(6, 12))
            d = random_dist(gen, n)
            k = int(gen.integers(2, 6))
            S = tuple(sorted(gen.choice(n, size=k, replace=False).tolist()))
            C = S[: int(gen.integers(1, k))]
            le = p_set_exact(d, S, C=C)
            li = p_set_integral(d, S, C=C)
            assert abs(le - li) <= 1e-7 * max(abs(le), 1.0)


class TestBackendAgreement:
    def test_three_way(self):
        """All three backends agree on log p(S) for n <= 12, k <= 6."""
        gen = np.random.default_rng(13)
        for _ in range(100):
            n = int(gen.integers(4, 13))
            d = random_dist(gen, n, scale=1.2)
            k = int(gen.integers(1, min(7, n + 1)))
            S = tuple(sorted(gen.choice(n, size=k, replace=False).tolist()))
            ln = p_set_naive(d, S)
            le = p_set_exact(d, S)
            li = p_set_integral(d, S)
            scale = max(abs(le), 1.0)
            assert abs(ln - le) <= 1e-10 * scale
            assert abs(le - li) <= 1e-8 * scale

    def test_probability_in_unit_interval(self):
        gen = np.random.default_rng(14)
        for _ in range(100):
            n = int(gen.integers(3, 10))
            d = random_dist(gen, n)
            k = int(gen.integers(1, n + 1))
            S = tuple(sorted(gen.choice(n, size=k, replace=False).tolist()))
            lp = p_set_exact(d, S)
            assert lp <= 0.0
            assert math.exp(lp) > 0.0


def _restricted_reindexed(dist, C):
    """Explicitly renormalized distribution over D \\ C, with the index map."""
    keep = [i for i in range(dist.n) if i not in set(C)]
    probs = np.exp(dist.log_probs[keep])
    return from_probs(probs / probs.sum()), {g: j for j, g in enumerate(keep)}


class TestRestrictedConsistency:
    def test_exact_with_c_equals_naive_on_renormalized(self):
        gen = np.random.default_rng(15)
        for _ in range(60):
            n = int(gen.integers(4, 10))
            d = random_dist(gen, n)
            k = int(gen.integers(2, min(7, n + 1)))
            S = tuple(sorted(gen.choice(n, size=k, replace=False).tolist()))
            C = S[: int(gen.integers(1, k))]
            restricted, remap = _restricted_reindexed(d, C)
            S_rest = tuple(sorted(remap[s] for s in S if s not in set(C)))
            got = p_set_exact(d, S, C=C)
            want = p_set_naive(restricted, S_rest)
            assert abs(got - want) <= 1e-10 * max(abs(want), 1.0)


class TestLooRatios:
    def test_single_element(self, running_dist):
        lr = loo_ratios(running_dist, (1,))
        np.testing.assert_allclose(lr.ratios, [1.0 / 0.3], rtol=1e-12)
        np.testing.assert_allclose(lr.log_p_set, math.log(0.3), atol=1e-12)

    def test_uniform_symmetry(self):
        d = from_logits(np.zeros(4))
        lr = loo_ratios(d, (0, 2))
        np.testing.assert_allclose(lr.ratios, 2.0, rtol=1e-12)

    def test_running_example(self, running_dist):
        lr = loo_ratios(running_dist, (0, 1))
        np.testing.assert_allclose(lr.ratios, [7.0 / 6.0, 25.0 / 18.0], rtol=1e-12)
        posterior = np.exp(running_dist.log_probs[lr.elements]) * lr.ratios
        np.testing.assert_allclose(np.sum(posterior), 1.0, atol=1e-12)

    def test_posterior_normalization(self):
        gen = np.random.default_rng(16)
        for _ in range(100):
            n = int(gen.integers(3, 12))
            d = random_dist(gen, n, scale=1.5)
            k = int(gen.integers(1, min(7, n + 1)))
            S = tuple(sorted(gen.choice(n, size=k, replace=False).tolist()))
            lr = loo_ratios(d, S)
            posterior = np.exp(d.log_probs[lr.elements]) * lr.ratios
            assert abs(np.sum(posterior) - 1.0) < 1e-8
            assert np.all(lr.ratios > 0)

    def test_second_order_normalization(self):
        """For each s, the second-order ratios weight a conditional
        distribution: sum_{s' != s} p(s')/(1-p(s)) R2[s, s'] = 1."""
        gen = np.random.default_rng(17)
        for _ in range(50):
            n = int(gen.integers(3, 10))
            d = random_dist(gen, n)
            k = int(gen.integers(2, min(6, n + 1)))
            S = tuple(sorted(gen.choice(n, size=k, replace=False).tolist()))
            lr = loo_ratios(d, S, order=2)
            probs = np.exp(d.log_probs[lr.elements])
            np.testing.assert_allclose(np.diag(lr.second_order), 1.0, atol=1e-14)
            for i in range(k):
                others = [j for j in range(k) if j != i]
                total = np.sum(
                    probs[others] / (1.0 - probs[i]) * lr.second_order[i, others]
                )
                assert abs(total - 1.0) < 1e-8

    def test_recursion_matches_direct(self):
        gen = np.random.default_rng(18)
        for _ in range(60):
            n = int(gen.integers(3, 11))
            d = random_dist(gen, n)
            k = int(gen.integers(1, min(7, n + 1)))
            S = tuple(sorted(gen.choice(n, size=k, replace=False).tolist()))
            lr = loo_ratios(d, S)
            direct = p_set_exact(d, S)
            assert abs(lr.log_p_set - direct) <= 1e-10 * max(abs(direct), 1.0)

    def test_whole_domain_shortcut(self, running_dist):
        lr = loo_ratios(running_dist, (0, 1, 2), order=2)
        assert lr.log_p_set == 0.0
        np.testing.assert_array_equal(lr.ratios, 1.0)
        np.testing.assert_array_equal(lr.second_order, 1.0)

    def test_backends_agree_through_ratios(self, running_dist):
        for backend in ("naive", "exact", "integral"):
            lr = loo_ratios(running_dist, (0, 1), backend=backend)
            np.testing.assert_allclose(
                lr.ratios, [7.0 / 6.0, 25.0 / 18.0], rtol=1e-7
            )

    def test_excluded_domain(self, running_dist):
        """Ratios on D \\ {0}: the restricted posterior still sums to one."""
        lr = loo_ratios(running_dist, (0, 1, 2), exclude=(0,))
        probs = np.exp(running_dist.log_probs[lr.elements]) / 0.5
        posterior = probs * lr.ratios
        np.testing.assert_allclose(np.sum(posterior), 1.0, atol=1e-12)

    @pytest.mark.parametrize("S", [(0, 1), (0, 1, 2)])
    def test_unknown_backend_rejected(self, running_dist, S):
        """Checked before the whole-domain shortcut as well."""
        with pytest.raises(ValueError, match="unknown backend"):
            loo_ratios(running_dist, S, backend="bogus")

    def test_exact_subset_guard(self):
        d = from_logits(np.zeros(30))
        with pytest.raises(TooManySubsets):
            loo_ratios(d, tuple(range(21)), backend="exact")

    @pytest.mark.parametrize("backend", ["auto", "naive", "exact", "integral"])
    def test_too_few_nodes_rejected(self, running_dist, backend):
        with pytest.raises(ValueError):
            loo_ratios(running_dist, (0, 1), backend=backend, nodes=1)
        with pytest.raises(ValueError):
            p_set_integral(running_dist, (0, 1), nodes=1)

    def test_naive_matches_exact_with_exclusion(self):
        """The chain-rule kernel drops each query's excluded elements on top
        of C, as inclusion-exclusion does."""
        gen = np.random.default_rng(21)
        for _ in range(40):
            n = int(gen.integers(3, 10))
            d = random_dist(gen, n, scale=1.5)
            k = int(gen.integers(2, min(6, n) + 1))
            S = tuple(sorted(gen.choice(n, size=k, replace=False).tolist()))
            C = S[: int(gen.integers(0, k - 1))]
            naive = loo_ratios(d, S, order=2, backend="naive", exclude=C)
            exact = loo_ratios(d, S, order=2, backend="exact", exclude=C)
            np.testing.assert_array_equal(naive.elements, exact.elements)
            np.testing.assert_allclose(naive.ratios, exact.ratios, rtol=1e-10)
            np.testing.assert_allclose(naive.log_p_set, exact.log_p_set, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(naive.second_order, exact.second_order, rtol=1e-10)


def _sampled_set(domain, k):
    """A fixed high-probability set: Gumbel top-k on a 64-outcome softmax, or
    a stochastic beam search over a 3 x 10 factorized domain (n = 1000)."""
    gen = np.random.default_rng(19)
    if domain == "n64":
        dist = from_logits(gen.normal(0.0, 1.0, 64))
        sample, _ = gumbel_top_k(Rng(20), dist, k)
        return dist, sample.indices
    fd = FactorizedDist(tuple(gen.normal(0.0, 1.0, 10) for _ in range(3)))
    sample, _ = stochastic_beam_search(Rng(20), fd, k)
    return fd.flatten(), sample.indices


class TestLargeSets:
    """``auto`` past the inclusion-exclusion crossover, and ``exact`` on large
    domains where the alternating sum cancels, against fine quadrature."""

    @pytest.mark.parametrize(
        "backend,domain,k",
        [("auto", "n64", 16), ("auto", "n64", 20), ("auto", "n1000", 8), ("auto", "n1000", 16),
         ("auto", "n1000", 20), ("exact", "n64", 16), ("exact", "n1000", 16)],
    )
    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_fine_quadrature(self, backend, domain, k, order):
        dist, S = _sampled_set(domain, k)
        got = loo_ratios(dist, S, order=order, backend=backend)
        want = loo_ratios(dist, S, order=order, backend="integral", nodes=4001)
        np.testing.assert_array_equal(got.elements, want.elements)
        np.testing.assert_allclose(got.ratios, want.ratios, rtol=1e-6)
        np.testing.assert_allclose(got.log_p_set, want.log_p_set, rtol=1e-6)
        if order == 2:
            np.testing.assert_allclose(got.second_order, want.second_order, rtol=1e-6)

    def test_cancelled_exact_is_the_integral(self):
        """On the n = 1000 domain inclusion-exclusion cancels below the floor,
        and p_set_exact returns the default quadrature's value unchanged."""
        dist, S = _sampled_set("n1000", 8)
        assert p_set_exact(dist, S) == p_set_integral(dist, S)


class TestBatchedKernel:
    """``loo_ratios`` on a (B, k) batch of sets: each row equals, bit for
    bit, the one-set call on that row."""

    @staticmethod
    def _assert_rows_match(dist, rows, order, exclude=()):
        batch = loo_ratios(dist, rows, order=order, exclude=exclude)
        for b, S in enumerate(rows):
            one = loo_ratios(dist, S, order=order, exclude=exclude[b] if len(exclude) else ())
            np.testing.assert_array_equal(batch.elements[b], one.elements)
            np.testing.assert_array_equal(batch.ratios[b], one.ratios)
            assert batch.log_p_set[b] == one.log_p_set
            if order == 2:
                np.testing.assert_array_equal(batch.second_order[b], one.second_order)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("excluded", [0, 1, 2])
    def test_rows_equal_one_set(self, order, excluded):
        gen = np.random.default_rng(70 + 3 * order + excluded)
        for _ in range(8):
            n = int(gen.integers(3, 9))
            k = int(gen.integers(excluded + 1, min(6, n) + 1))
            d = random_dist(gen, n, scale=1.5)
            rows = np.array([gen.permutation(n)[:k] for _ in range(int(gen.integers(1, 7)))])
            exclude = rows[:, :excluded] if excluded else ()
            self._assert_rows_match(d, rows, order, exclude)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("excluded", [False, True])
    def test_cancelled_row_between_ordinary_rows(self, order, excluded):
        """On the n = 1000 domain the beam set's inclusion-exclusion sums
        cancel below the floor and go to quadrature (see TestLargeSets); the
        eight most probable elements, and the next eight, do not."""
        dist, beam = _sampled_set("n1000", 8)
        by_prob = np.argsort(-dist.probs)
        rows = np.array([by_prob[:8], beam, by_prob[8:16]])
        exclude = rows[:, :1] if excluded else ()
        self._assert_rows_match(dist, rows, order, exclude)

    def test_batch_arguments_checked(self, running_dist):
        with pytest.raises(ValueError, match="distinct"):
            loo_ratios(running_dist, np.array([[0, 1], [2, 2]]))
        with pytest.raises(ValueError, match="out of range"):
            loo_ratios(running_dist, np.array([[0, 1], [1, 3]]))
        with pytest.raises(ValueError, match="contained"):
            loo_ratios(running_dist, np.array([[0, 1], [1, 2]]), exclude=np.array([[0], [0]]))

    def test_exclusion_rows_match_sets(self, running_dist):
        """A 2-D ``exclude`` has one row per set, or one row for all of them."""
        with pytest.raises(ValueError, match="2 rows for 1 sets"):
            loo_ratios(running_dist, [0, 1], exclude=np.array([[0], [1]]))
        with pytest.raises(ValueError, match="3 rows for 2 sets"):
            loo_ratios(running_dist, np.array([[0, 1], [0, 2]]), exclude=np.array([[0], [0], [0]]))
        rows = np.array([[0, 1], [0, 2]])
        shared = loo_ratios(running_dist, rows, exclude=np.array([[0]]))
        flat = loo_ratios(running_dist, rows, exclude=[0])
        np.testing.assert_array_equal(shared.ratios, flat.ratios)
        np.testing.assert_array_equal(shared.log_p_set, flat.log_p_set)
