import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_dist
from sworgrad import oracle, setprob
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

    def test_dominant_element_keeps_its_denominators(self):
        """Once the drawn element holds nearly all the mass, 1 minus a
        running sum cancels: p(S) read 0.118965 and R(S, 0) of {0, 1, 3}
        2.4798.  The values are mpmath's, and the oracle's ordering sum
        agrees to 2e-15."""
        d = from_logits([-25.97, -24.02, -25.65, 19.34])
        got = math.exp(p_set_naive(d, (0, 3)))
        assert abs(got - 0.1063172051893974) <= 1e-12 * 0.1063172051893974
        ratios = loo_ratios(d, [0, 1, 3], backend="naive").ratios
        np.testing.assert_allclose(ratios, [2.0735363783414226, 1.0431931825840366, 1.0], rtol=1e-12)

    def test_matches_the_ordering_sum_at_sigma_20(self):
        """Logits N(0, 20^2): of these 300 instances, 12 raised a math domain
        error and 72 were off by more than 1e-9."""
        gen = np.random.default_rng(5)
        for _ in range(300):
            n = int(gen.integers(4, 8))
            k = int(gen.integers(2, min(n, 7)))
            d = from_logits(gen.normal(0.0, 20.0, n))
            S = np.sort(gen.choice(n, k, replace=False))
            want = oracle._set_prob_by_orderings(d, S)
            assert abs(math.exp(p_set_naive(d, S)) - want) <= 1e-9 * want


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
    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: the quadrature complement branch (alpha < 2), which "
        "exact falls back to, cannot represent a small p(S) and gives 3.8e-6",
    )
    def test_low_mass_set_beside_a_dominant_element(self):
        """p(S) = 9.999e-19 by the oracle's ordering sum; ``exact`` cancels
        into quadrature, and quadrature computes 1 minus a number near 1."""
        d = from_probs([0.99, 1e-20, 0.00999999999999999999])
        want = oracle._set_prob_by_orderings(d, [0, 1])
        for got in (p_set_exact(d, (0, 1)), p_set_integral(d, (0, 1)), loo_ratios(d, [0, 1]).log_p_set):
            assert abs(math.exp(got) - want) <= 1e-9 * want

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

    @pytest.mark.xfail(
        strict=True,
        reason="auto's quadrature complement branch (alpha < 2) misses high-mass sets "
        "by up to 1e-2 in p(S); see the CHANGES.md FOUND line on auto",
    )
    def test_auto_matches_exact_on_high_mass_sets(self):
        """n = 30 and m = 12 free elements, so ``auto`` answers by quadrature.
        Each S has its logits shifted up by 6 to 8 and leaves about 1.1e-3 of
        the mass outside; ``exact`` agrees there with a 40-digit integral to
        1e-15."""
        gen = np.random.default_rng(1)
        for _ in range(3):
            logits = gen.normal(size=30)
            S = np.sort(gen.choice(30, 12, replace=False))
            logits[S] += gen.uniform(6.0, 8.0, size=12)
            dist = from_logits(logits)
            got = loo_ratios(dist, S)
            want = loo_ratios(dist, S, backend="exact")
            np.testing.assert_allclose(math.exp(got.log_p_set), math.exp(want.log_p_set), atol=1e-8)
            np.testing.assert_allclose(got.ratios, want.ratios, atol=1e-8)

    def test_cancelled_exact_is_the_integral(self):
        """On the n = 1000 domain inclusion-exclusion cancels below the floor,
        and p_set_exact returns the default quadrature's value unchanged."""
        dist, S = _sampled_set("n1000", 8)
        assert p_set_exact(dist, S) == p_set_integral(dist, S)


def _rational_log_p_set(dist, S) -> float:
    """log p(S) from the inclusion-exclusion sum over subsets c of S,
    sum_c (-1)^|c| m0 / (m0 + mass(c)), in exact rational arithmetic on the
    float probabilities: no rounding, so no cancellation."""
    p = [Fraction(x) for x in dist.probs.tolist()]
    inside = set(S.tolist())
    m0 = sum(x for i, x in enumerate(p) if i not in inside)
    masses, signs = [Fraction(0)], [1]
    for s in S.tolist():
        masses += [mass + p[s] for mass in masses]
        signs += [-sign for sign in signs]
    total = sum(sign * m0 / (m0 + mass) for sign, mass in zip(signs, masses))
    return math.log(total.numerator) - math.log(total.denominator)


def _rational_case(kind, gen):
    """One set of m in [2, 10] free elements in an n in [13, 60) domain."""
    n = int(gen.integers(13, 60))
    m = int(gen.integers(2, 11))
    logits = gen.normal(0.0, {"sigma 20": 20.0, "shifted": 3.0}.get(kind, 1.0), n)
    S = np.sort(gen.choice(n, m, replace=False))
    if kind == "shifted":
        logits[S] += gen.uniform(10.0, 30.0)
    if kind == "pushed down":
        logits[S[: m // 2]] -= 40.0
    return from_logits(logits), S


_ITEM_2 = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the alpha < 2 complement branch of the quadrature, which "
    "integral runs and exact falls back to, cannot represent a small p(S)",
)


class TestRationalReference:
    """Set probabilities past enumeration, against exact rational
    inclusion-exclusion (ROADMAP item 6).  The tolerance is 1e-6 in log p:
    at DEFAULT_NODES the quadrature, and exact's fallback to it, are off by
    up to about 2e-8 on the two plain classes."""

    @pytest.mark.parametrize(
        "kind",
        ["sigma 1", pytest.param("sigma 20", marks=_ITEM_2), pytest.param("shifted", marks=_ITEM_2),
         "pushed down"],
    )
    def test_backends_match_the_rational_sum(self, kind):
        gen = np.random.default_rng([11, ["sigma 1", "sigma 20", "shifted", "pushed down"].index(kind)])
        misses = []
        for _ in range(40):
            dist, S = _rational_case(kind, gen)
            want = _rational_log_p_set(dist, S)
            for name, got in (("exact", p_set_exact(dist, S)), ("integral", p_set_integral(dist, S)),
                              ("loo_ratios", loo_ratios(dist, S).log_p_set)):
                if abs(got - want) > 1e-6:
                    misses.append(f"{name} on m = {len(S)} off by {abs(got - want):.2g}")
        assert not misses, misses


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


def _doubling_table(p_elems):
    """The subset-sum table and signed quotient terms as the exact kernel
    built them with copies: one ``_two_sum`` per element, a Veltkamp
    ``_two_prod``, and the signed halves concatenated."""
    B, m = p_elems.shape
    hi = np.zeros((B, 1 << m))
    lo = np.zeros((B, 1 << m))
    signs = np.ones(1 << m)
    for j in range(m):
        size = 1 << j
        a, b = hi[:, :size], p_elems[:, j : j + 1]
        s = a + b
        bb = s - a
        err = (a - (s - bb)) + (b - bb)
        hi[:, size : 2 * size] = s
        lo[:, size : 2 * size] = lo[:, :size] + err
        signs[size : 2 * size] = -signs[:size]
    return hi, lo, signs


def _doubling_terms(m0, hi, lo, signs):
    def two_sum(a, b):
        s = a + b
        bb = s - a
        return s, (a - (s - bb)) + (b - bb)

    def split(x):
        c = 134217729.0 * x
        xh = c - (c - x)
        return xh, x - xh

    d, d_err = two_sum(m0, hi)
    d_lo = d_err + lo
    q = m0 / d
    prod = q * d
    (qh, ql), (dh, dl) = split(q), split(d)
    prod_err = ((qh * dh - prod) + qh * dl + ql * dh) + ql * dl
    residual = (m0 - prod) - prod_err
    q_lo = (residual - q * d_lo) / d
    return np.concatenate((signs * q, signs * q_lo), axis=1)


class TestSubsetTable:
    """The in-place subset table and signed quotients of the exact kernel
    equal the copying doubling loop above bit for bit.  Every m up to
    EXACT_MAX_K runs at B = 1; B = 3 and B = 256 run while the table has at
    most 2^20 entries, and the quotients while it has at most 2^16, which
    keeps the test's memory small.  The Python-float row builder
    ``_row_terms`` equals the same loop at B = 1 and B = 3, for every m up to
    one past the largest table it builds."""

    @staticmethod
    def _logits(kind, gen, n):
        if kind == "uniform":
            return np.zeros(n)
        if kind == "lognormal":
            return gen.normal(0.0, 20.0, n)
        # floored: half the domain at PROB_FLOOR
        return np.concatenate([np.full(n // 2, -1000.0), gen.normal(0.0, 1.0, n - n // 2)])

    @classmethod
    def _probabilities(cls, kind, gen, B, m):
        """(p_elems, m0) of B random m-sets of an (m + 3)-element domain."""
        n = m + 3
        dist = from_logits(cls._logits(kind, gen, n))
        S = np.sort(np.array([gen.permutation(n)[:m] for _ in range(B)]), axis=1)
        return setprob._math_exp(dist.log_probs[S]), setprob._complement_masses(dist, S)[:, None]

    @pytest.mark.parametrize("kind", ["uniform", "lognormal", "floored"])
    @pytest.mark.parametrize("B", [1, 3, 256])
    def test_matches_the_doubling_loop_bitwise(self, kind, B):
        gen = np.random.default_rng(["uniform", "lognormal", "floored"].index(kind) * 7 + B)
        for m in range(1, setprob.EXACT_MAX_K + 1):
            if B << m > 1 << 20 and B > 1:
                break
            p, m0 = self._probabilities(kind, gen, B, m)
            if kind == "floored" and m >= 5:  # a set misses 3 elements, so holds a floored one
                assert np.min(p) < 1e-299
            hi, lo = setprob._subset_masses(p)
            want_hi, want_lo, signs = _doubling_table(p)
            assert hi.tobytes() == want_hi.tobytes(), m
            assert lo.tobytes() == want_lo.tobytes(), m
            assert setprob._subset_signs(m).tobytes() == signs.tobytes(), m
            want_terms = _doubling_terms(m0, want_hi, want_lo, signs) if B << m <= 1 << 16 else None
            if want_terms is not None:
                terms = setprob._signed_quotients(m0, hi, lo, signs).reshape(B, -1)
                assert terms.tobytes() == want_terms.tobytes(), m
            if B in (1, 3) and 1 << m <= 2 * setprob._ROW_TABLE_MAX:
                rows = [setprob._row_terms(row_m0, row_p) for row_m0, row_p in zip(m0[:, 0].tolist(), p.tolist())]
                assert np.array(rows).tobytes() == want_terms.tobytes(), m


def _per_query_logs(dist, S, rest, rel_excludes, nodes=setprob.DEFAULT_NODES):
    """The exact kernel's query loop before the gathered form: each query
    takes an (m + 2)-d view of the term table, its excluded axes at 0, and
    copies it with ``reshape`` and ``tolist``."""
    B, m = rest.shape
    m0 = setprob._complement_masses(dist, S)
    mass_hi, mass_lo = setprob._subset_masses(setprob._math_exp(dist.log_probs[rest]))
    terms = setprob._signed_quotients(m0[:, None], mass_hi, mass_lo, setprob._subset_signs(m))
    terms = terms.reshape((B, 2) + (2,) * m)
    logs = np.zeros((B, len(rel_excludes)))
    cancelled = {}
    for i, rel in enumerate(rel_excludes):
        if len(rel) == m:
            continue
        index = [slice(None)] * (m + 2)
        for pos in rel:
            index[m + 1 - pos] = 0
        for b, row in enumerate(terms[tuple(index)].reshape(B, -1).tolist()):
            total = math.fsum(row)
            if total < setprob.CANCELLATION_FLOOR:
                cancelled.setdefault(b, []).append(i)
            else:
                logs[b, i] = min(math.log(total), 0.0)
    for b, queries in cancelled.items():
        requery = [rel_excludes[i] for i in queries]
        logs[b, queries] = setprob._integral_restricted_logs(dist, S[b], rest[b], requery, nodes)
    return logs


# The query sets of the kernel: p_set's one query, and loo_ratios' at order 1 and 2.
_QUERIES = {
    "p_set": lambda m: ((),),
    "order 1": lambda m: setprob._loo_queries(m, 1)[0],
    "order 2": lambda m: setprob._loo_queries(m, 2)[0],
}


class TestGatheredKernel:
    """The exact kernel gathers each query's terms of every row at once, at
    its ``_query_positions``; its logs equal the per-query loop above bit
    for bit.  m runs up to EXACT_MAX_K while the table has at most 2^20
    entries at B = 1 and 2^16 at B > 1, and the queries hold at most 2^21
    terms per row-table entry: B = 1 reaches m = 20 for p_set and m = 16 at
    order 1, past the m at which the positions are cached."""

    @staticmethod
    def _sets(kind, gen, B, m, c):
        """dist, the sets S and their free elements: B random sets of m free
        elements and c excluded ones, in an (m + c + 3)-element domain."""
        n = m + c + 3
        draws = np.array([gen.permutation(n)[: m + c] for _ in range(B)])
        dist = from_logits(TestSubsetTable._logits(kind, gen, n))
        return dist, np.sort(draws, axis=1), np.sort(draws[:, c:], axis=1)

    @pytest.mark.parametrize("kind", ["uniform", "lognormal", "floored"])
    @pytest.mark.parametrize("B", [1, 3, 256])
    @pytest.mark.parametrize("queries", sorted(_QUERIES))
    def test_matches_the_per_query_loop_bitwise(self, monkeypatch, kind, B, queries):
        """Cancelled rows (most lognormal ones) get a stand-in quadrature
        that names the row and the query, so that each answer must land in
        its place; the next test runs the real one."""
        def stand_in(dist, S, rest, rels, nodes):
            return [-1.0 - int(S.sum()) - sum(2.0**-(p + 1) for p in rel) for rel in rels]

        monkeypatch.setattr(setprob, "_integral_restricted_logs", stand_in)
        gen = np.random.default_rng([B, len(kind), len(queries)])
        for m in range(1, setprob.EXACT_MAX_K + 1):
            rels = _QUERIES[queries](m)
            if B << m > (1 << 20 if B == 1 else 1 << 16) or B * len(rels) << m > 1 << 21:
                break
            c = 2 * (m % 2)  # odd m exclude two more elements from each set
            dist, S, rest = self._sets(kind, gen, B, m, c)
            got = setprob._exact_restricted_logs(dist, S, rest, rels, setprob.DEFAULT_NODES)
            assert got.tobytes() == _per_query_logs(dist, S, rest, rels).tobytes(), m
            last = m
        if B == 1:
            assert last == {"p_set": setprob.EXACT_MAX_K, "order 1": 16, "order 2": 14}[queries]

    @pytest.mark.parametrize("queries", ["order 1", "order 2"])
    @pytest.mark.parametrize("c", [0, 1])
    def test_cancelled_rows_match_the_per_query_loop_bitwise(self, monkeypatch, queries, c):
        """n = 1000 factorized rows whose sums cancel into quadrature, between
        rows that do not (see TestBatchedKernel)."""
        dist, beam = _sampled_set("n1000", 8)
        by_prob = np.argsort(-dist.probs)
        S = np.sort(np.array([by_prob[:8], beam, by_prob[8:16]]), axis=1)
        rest = S[:, c:]
        rels = _QUERIES[queries](8 - c)
        requeried = []
        integral = setprob._integral_restricted_logs

        def counted(dist, S, rest, rels, nodes):
            requeried.append(S.tolist())
            return integral(dist, S, rest, rels, nodes)

        monkeypatch.setattr(setprob, "_integral_restricted_logs", counted)
        got = setprob._exact_restricted_logs(dist, S, rest, rels, setprob.DEFAULT_NODES)
        assert requeried == [S[1].tolist()]
        assert got.tobytes() == _per_query_logs(dist, S, rest, rels).tobytes()

    @pytest.mark.parametrize("queries", sorted(_QUERIES))
    def test_small_tables_match_the_numpy_table_bitwise(self, monkeypatch, queries):
        """A row alone, at most ``_ROW_TABLE_MAX`` table entries, is built on
        Python floats; the same row repeated past the cut goes through the
        numpy table.  Every row answers with the same bytes on both sides,
        for m up to one past the cut, and so does a row of six of the least
        probable of 1000 elements, whose sums cancel into quadrature.  So
        does a batch of three m = 4 rows on Python floats from the n = 1000
        factorized domain, whose middle row (its four least probable
        elements) cancels and the others do not."""
        builds = []
        row_terms, subset_masses = setprob._row_terms, setprob._subset_masses

        def counted_rows(*args):
            builds.append("rows")
            return row_terms(*args)

        def counted_numpy(*args):
            builds.append("numpy")
            return subset_masses(*args)

        monkeypatch.setattr(setprob, "_row_terms", counted_rows)
        monkeypatch.setattr(setprob, "_subset_masses", counted_numpy)
        gen = np.random.default_rng(len(queries))
        cases = []
        for m in range(1, 8):
            for kind in ("uniform", "lognormal", "floored"):
                dist, S, rest = TestGatheredKernel._sets(kind, gen, 1, m, m % 2)
                cases.append((dist, S, rest))
        dist = from_logits(gen.normal(0.0, 1.0, 1000))
        rare = np.sort(np.argsort(dist.probs)[:6])[None, :]
        cases.append((dist, rare, rare))
        factorized, _ = _sampled_set("n1000", 8)
        by_prob = np.argsort(-factorized.probs)
        batch = np.sort(np.array([by_prob[:4], by_prob[-4:], by_prob[4:8]]), axis=1)
        cases.append((factorized, batch, batch))
        for dist, S, rest in cases:
            B, m = rest.shape
            rels = _QUERIES[queries](m)
            copies = setprob._ROW_TABLE_MAX // (B << m) + 1
            builds.clear()
            alone = setprob._exact_restricted_logs(dist, S, rest, rels, setprob.DEFAULT_NODES)
            repeated = setprob._exact_restricted_logs(
                dist, np.repeat(S, copies, axis=0), np.repeat(rest, copies, axis=0), rels,
                setprob.DEFAULT_NODES)
            assert builds == (["rows"] * B if B << m <= setprob._ROW_TABLE_MAX else ["numpy"]) + ["numpy"], m
            assert repeated.tobytes() == np.repeat(alone, copies, axis=0).tobytes(), m
            assert alone.tobytes() == _per_query_logs(dist, S, rest, rels).tobytes(), m
        requeried = []
        integral = setprob._integral_restricted_logs

        def counted(dist, S, rest, rels, nodes):
            requeried.append(S.tolist())
            return integral(dist, S, rest, rels, nodes)

        monkeypatch.setattr(setprob, "_integral_restricted_logs", counted)
        setprob._exact_restricted_logs(dist, rare, rare, _QUERIES[queries](6), setprob.DEFAULT_NODES)
        assert requeried == [rare[0].tolist()]
        requeried.clear()
        setprob._exact_restricted_logs(factorized, batch, batch, _QUERIES[queries](4), setprob.DEFAULT_NODES)
        assert requeried == [batch[1].tolist()]

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("backend", ["auto", "naive", "exact", "integral"])
    def test_queries_that_keep_nothing_reach_no_kernel(self, monkeypatch, order, backend):
        """With one free element, every loo_ratios query excludes it: sets of
        size 1, and sum-and-sample with split m = 1.  The answers are those
        of the per-query loop, and no subset table is built, on Python
        floats or with numpy."""
        from sworgrad import estimators as est

        gen = np.random.default_rng(5 + order)
        dist = random_dist(gen, 7, scale=2.0)
        draws = np.array([gen.permutation(7)[:4] for _ in range(5)])

        def ratios(lr):
            return (lr.ratios, lr.log_p_set, lr.second_order)

        calls = {
            "one set": lambda: ratios(loo_ratios(dist, [3], order, backend=backend)),
            "sets of one": lambda: ratios(loo_ratios(dist, draws[:, :1], order, backend=backend)),
            "exclusion": lambda: ratios(loo_ratios(dist, np.sort(draws, axis=1), order,
                                                   backend=backend, exclude=draws[:, :3])),
            "sum-and-sample": lambda: est.sum_and_sample_weights(dist, draws, 1),
        }
        with monkeypatch.context() as patch:
            patch.setattr(setprob, "_restricted_logs",
                          lambda dist, S, rest, rels, backend, nodes: _per_query_logs(dist, S, rest, rels))
            want = {name: call() for name, call in calls.items()}

        def refuse(*args):
            raise AssertionError("a call whose queries keep nothing built a subset table")

        monkeypatch.setattr(setprob, "_subset_masses", refuse)
        monkeypatch.setattr(setprob, "_row_terms", refuse)
        for name, call in calls.items():
            got = call()
            for g, w in zip(got, want[name]):
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), name
        with pytest.raises(AssertionError, match="built a subset table"):
            loo_ratios(dist, [2, 3], order, backend="exact")
