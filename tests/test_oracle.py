import itertools
import math

import numpy as np
import pytest

import sworgrad as sg
from conftest import random_dist
from sworgrad import oracle, setprob
from sworgrad import estimators as est
from sworgrad.distributions import as_objective
from sworgrad.errors import InvalidConfig, InvalidSampleSize, SpaceTooLarge
from sworgrad.setprob import p_set_exact, p_set_integral, p_set_naive


class TestExactValues:
    def test_running_expectation(self, running_dist, running_f):
        np.testing.assert_allclose(
            oracle.exact_expectation(running_dist, running_f), 1.7, atol=1e-14
        )

    def test_constant_objective(self):
        d = sg.from_logits(np.zeros(5))
        assert abs(oracle.exact_expectation(d, np.full(5, 3.0)) - 3.0) < 1e-14
        assert np.max(np.abs(oracle.exact_gradient(d, np.full(5, 3.0)))) < 1e-14

    def test_gradient_matches_finite_differences(self):
        gen = np.random.default_rng(40)
        step = 1e-5
        for _ in range(15):
            n = int(gen.integers(2, 7))
            logits = gen.normal(0, 1, n)
            f = gen.normal(0, 1, n)
            analytic = oracle.exact_gradient(sg.from_logits(logits), f)
            fd = np.empty(n)
            for j in range(n):
                hi = logits.copy()
                hi[j] += step
                lo = logits.copy()
                lo[j] -= step
                fd[j] = (
                    oracle.exact_expectation(sg.from_logits(hi), f)
                    - oracle.exact_expectation(sg.from_logits(lo), f)
                ) / (2 * step)
            np.testing.assert_allclose(analytic, fd, atol=1e-6)


class TestEnumeration:
    def test_ordered_completeness(self, running_dist):
        points, probs = oracle.enumerate_ordered(running_dist, 2)
        assert len(points) == 6
        assert abs(math.fsum(probs) - 1.0) < 1e-12

    def test_full_length_orderings(self, running_dist):
        points, _ = oracle.enumerate_ordered(running_dist, 3)
        assert len(points) == 6
        sets, probs = oracle.enumerate_unordered(running_dist, 3)
        assert len(sets) == 1
        assert abs(probs[0] - 1.0) < 1e-12

    def test_unordered_mass_matches_naive(self, running_dist):
        sets, probs = oracle.enumerate_unordered(running_dist, 2)
        masses = {tuple(s.tolist()): p for s, p in zip(sets, probs)}
        np.testing.assert_allclose(masses[(0, 1)], 18.0 / 35.0, atol=1e-14)

    def test_aggregation_matches_every_backend(self):
        """Ordering sums reproduce each set-probability backend, n <= 8.

        The integral backend is run at a converged node count so that the
        comparison tests consistency rather than its default quadrature
        budget (which the acceptance suite covers at its own tolerance).
        """
        gen = np.random.default_rng(41)
        for _ in range(10):
            n = int(gen.integers(4, 9))
            d = random_dist(gen, n)
            k = int(gen.integers(1, min(4, n) + 1))
            for s, p in zip(*oracle.enumerate_unordered(d, k)):
                S = tuple(s.tolist())
                assert abs(math.exp(p_set_naive(d, S)) - p) < 1e-10
                assert abs(math.exp(p_set_exact(d, S)) - p) < 1e-10
                assert abs(math.exp(p_set_integral(d, S, nodes=4000)) - p) < 1e-10

    def test_space_cap(self):
        d = sg.from_logits(np.zeros(50))
        with pytest.raises(SpaceTooLarge):
            oracle.enumerate_ordered(d, 5)
        with pytest.raises(SpaceTooLarge):
            oracle.conditional_iw_mean(d, range(10), np.zeros(50))

    @pytest.mark.parametrize("S", [[0, 0], [-1, 0]])
    def test_conditional_iw_mean_rejects_bad_sets(self, running_dist, running_f, S):
        """A repeated or negative index is not a sampled set."""
        with pytest.raises(ValueError):
            oracle.conditional_iw_mean(running_dist, S, running_f)


class TestLowEntropy:
    """Chain-rule denominators at low entropy: once the drawn elements hold
    all the float mass, 1 minus a running sum reads 0."""

    def test_sets_after_a_dominant_element(self):
        dist = sg.from_logits([0.0, -800.0, -800.0, -800.0])
        with np.errstate(divide="raise", invalid="raise"):
            sets, probs = oracle.enumerate_unordered(dist, 2)
        assert sets.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
        np.testing.assert_allclose(probs, [1 / 3, 1 / 3, 1 / 3, 0.0, 0.0, 0.0], rtol=1e-15, atol=0)

    def test_chunked_rows_give_the_same_bytes(self, monkeypatch):
        """The not-yet-drawn mask is built a chunk of rows at a time."""
        dist = random_dist(np.random.default_rng(43), 6)
        _, whole = oracle.enumerate_ordered(dist, 3)
        monkeypatch.setattr(oracle, "_MASK_ENTRIES", 7 * dist.n)
        points, chunked = oracle.enumerate_ordered(dist, 3)
        assert len(points) % 7
        np.testing.assert_array_equal(chunked, whole)

    def test_unordered_set_unbiased_at_sigma_20(self):
        """Logits N(0, 20^2): 28 of these 300 instances gave NaN moments."""
        gen = np.random.default_rng(5)
        for _ in range(300):
            n = int(gen.integers(4, 8))
            k = int(gen.integers(2, n))
            dist = sg.from_logits(gen.normal(0.0, 20.0, n))
            f = gen.normal(0.0, 1.0, n)
            mean, var = oracle.estimator_moments(est.UNORDERED_SET, dist, f, k)
            assert abs(mean - oracle.exact_expectation(dist, f)) < 1e-10
            assert np.isfinite(var)


class TestPosterior:
    def test_running_example(self, running_dist):
        np.testing.assert_allclose(
            sg.posterior_weights(running_dist, (0, 1))[1],
            [7.0 / 12.0, 5.0 / 12.0],
            rtol=1e-10,
        )

    def test_uniform_and_singleton(self):
        d = sg.from_logits(np.zeros(4))
        np.testing.assert_allclose(sg.posterior_weights(d, (1, 3))[1], 0.5, atol=1e-12)
        np.testing.assert_allclose(sg.posterior_weights(d, (2,))[1], [1.0], atol=1e-14)

    def test_matches_ordering_enumeration(self):
        """The closed-form posterior equals the normalized frequency of
        orderings that start with each element."""
        gen = np.random.default_rng(42)
        for _ in range(10):
            n = int(gen.integers(3, 7))
            d = random_dist(gen, n)
            k = int(gen.integers(2, min(4, n) + 1))
            by_set = {}
            for b, p in zip(*oracle.enumerate_ordered(d, k)):
                key = tuple(sorted(b.tolist()))
                vec = by_set.setdefault(key, dict.fromkeys(key, 0.0))
                vec[int(b[0])] += p
            for key, vec in by_set.items():
                total = sum(vec.values())
                want = np.array([vec[s] / total for s in key])
                got = sg.posterior_weights(d, key)[1]
                np.testing.assert_allclose(got, want, atol=1e-10)


class TestEstimatorMoments:
    def test_set_estimator_mean_any_k(self, running_dist, running_f):
        for k in (1, 2, 3):
            mean, _ = oracle.estimator_moments(est.UNORDERED_SET, running_dist, running_f, k)
            np.testing.assert_allclose(mean, 1.7, atol=1e-12)

    def test_full_domain_variance_exactly_zero(self, running_dist, running_f):
        _, var = oracle.estimator_moments(est.UNORDERED_SET, running_dist, running_f, 3)
        assert var == 0.0

    def test_rao_blackwell_inequality(self, running_dist, running_f):
        _, var_us = oracle.estimator_moments(est.UNORDERED_SET, running_dist, running_f, 2)
        _, var_sas = oracle.estimator_moments(est.stoch_sas_id(1), running_dist, running_f, 2)
        assert var_us <= var_sas + 1e-10

    def test_iw_variance_matches_brute_force(self, running_dist, running_f):
        """Threshold quadrature vs a dense direct integral in threshold space."""
        mean, var = oracle.estimator_moments(
            est.IMPORTANCE_WEIGHTED, running_dist, running_f, 2
        )
        lp = running_dist.log_probs
        m1 = m2 = 0.0
        for S in itertools.combinations(range(3), 2):
            S = np.array(S)
            phi_c = running_dist.complement_log_mass(S)
            kap = np.linspace(phi_c - 40, phi_c + 40, 2_000_001)
            pdf = np.exp(-(kap - phi_c)) * np.exp(-np.exp(-(kap - phi_c)))
            q = -np.expm1(-np.exp(np.minimum(lp[S][None, :] - kap[:, None], 700.0)))
            e = (np.exp(lp[S]) * running_f[S] / q).sum(axis=1)
            w = pdf * np.prod(q, axis=1)
            m1 += np.trapezoid(w * e, kap)
            m2 += np.trapezoid(w * e * e, kap)
        assert abs(mean - m1) < 1e-8
        assert abs(var - (m2 - m1**2)) < 1e-6

    def test_iw_infinite_variance_flagged_for_single_sample(self, running_dist, running_f):
        _, var = oracle.estimator_moments(
            est.IMPORTANCE_WEIGHTED, running_dist, running_f, 1
        )
        assert math.isinf(var)

    def test_projection_gives_scalar_moments(self, running_dist, running_f):
        project = np.array([0.3, -0.2, 1.0])
        mean, var = oracle.estimator_moments(
            est.UNORDERED_SET_PG, running_dist, running_f, 2, project=project
        )
        assert np.isscalar(mean) and var >= 0.0
        vec_mean, _ = oracle.estimator_moments(
            est.UNORDERED_SET_PG, running_dist, running_f, 2
        )
        np.testing.assert_allclose(mean, float(np.dot(vec_mean, project)), atol=1e-12)

    def test_unknown_kind_rejected(self, running_dist, running_f):
        with pytest.raises(ValueError):
            oracle.estimator_moments("not-an-estimator", running_dist, running_f, 2)

    @pytest.mark.parametrize("kind", [*est.ESTIMATORS, est.stoch_sas_id(1)])
    def test_sample_size_checked(self, running_dist, running_f, kind):
        """k = 0 is never a sample size; k > n is none for the laws that draw
        distinct elements (their sample space is empty)."""
        with pytest.raises(InvalidSampleSize):
            oracle.estimator_moments(kind, running_dist, running_f, 0)
        k = running_dist.n + 1
        if est.estimator_spec(kind).law in (est.SET, est.ORDERED, est.THRESHOLD, est.DET_SPLIT):
            with pytest.raises(InvalidSampleSize):
                oracle.estimator_moments(kind, running_dist, running_f, k)
        else:
            mean, var = oracle.estimator_moments(kind, running_dist, running_f, k)
            assert np.all(np.isfinite(mean)) and math.isfinite(var)


def _romberg_row(vals):
    """Richardson-extrapolated trapezoid over [0, 1] from values on a whole
    uniform grid whose interval count is a multiple of 8; each trapezoid sum
    is exact (math.fsum), so only the extrapolation rounds."""
    def trap(v, h):
        cols = v.reshape(len(v), -1).T.tolist()
        sums = np.array([math.fsum(c) for c in cols]).reshape(v.shape[1:])
        return h * (sums - 0.5 * (v[0] + v[-1]))

    h = 1.0 / (len(vals) - 1)
    row = [trap(vals[::s], s * h) for s in (1, 2, 4, 8)]
    for level in range(1, 4):
        factor = 4.0**level
        row = [(factor * fine - coarse) / (factor - 1.0) for fine, coarse in zip(row, row[1:])]
    return row[0]


def _full_grid_ladder(func, tol, start_nodes=129, max_nodes=65537):
    """Reference ladder that evaluates every node of every rung and sums each
    rung's whole grid afresh."""
    nodes = start_nodes
    prev = None
    while True:
        u = np.clip(np.linspace(0.0, 1.0, nodes), oracle._U_CLIP, 1.0 - oracle._U_CLIP)
        total = _romberg_row(func(u))
        if prev is not None:
            err = np.max(np.abs(total - prev))
            if err <= tol * max(float(np.max(np.abs(total))), 1e-30):
                return total
        if nodes >= max_nodes:
            return total
        prev = total
        nodes = 2 * (nodes - 1) + 1


class _Counted:
    """Wraps an integrand and records the nodes of every call."""

    def __init__(self, func):
        self.func = func
        self.calls = []

    def __call__(self, v):
        self.calls.append(np.array(v))
        return self.func(v)


def _first_integrand(monkeypatch, call):
    """The integrand and tolerance of the first ladder that ``call`` runs."""
    seen = []
    ladder = oracle._adaptive_trapezoid

    def capture(func, tol, **kwargs):
        seen.append((func, tol))
        return ladder(func, tol, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(oracle, "_adaptive_trapezoid", capture)
        call()
    return seen[0]


def _polynomial(v):
    return np.stack([v**60, 3.0 * v**45 - v], axis=1)


class TestThresholdQuadrature:
    """The ladder keeps running trapezoid sums, so it adds up the nodes in
    another order than the reference, which sums each rung's whole grid
    exactly: results agree to rounding (1e-15 of the largest component), not
    bit for bit."""

    def _check_ladder(self, func, tol):
        """Each node once, and the reference's value; returns the ladder's."""
        counted = _Counted(func)
        got = oracle._adaptive_trapezoid(counted, tol)
        final = sum(len(v) for v in counted.calls)
        rungs = math.log2((final - 1) // 128) + 1
        assert rungs == int(rungs) and rungs >= 3
        grid = np.clip(np.linspace(0.0, 1.0, final), oracle._U_CLIP, 1.0 - oracle._U_CLIP)
        np.testing.assert_array_equal(np.sort(np.concatenate(counted.calls)), grid)
        ref = _full_grid_ladder(func, tol)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
        return got

    def test_polynomial_nodes_evaluated_once(self):
        got = self._check_ladder(_polynomial, 1e-13)
        np.testing.assert_allclose(got, [1.0 / 61.0, 3.0 / 46.0 - 0.5], rtol=1e-12)

    def test_iw_integrand_nodes_evaluated_once(self, monkeypatch):
        dist, f = oracle._random_instance(np.random.default_rng(3), 5)
        func, tol = _first_integrand(
            monkeypatch, lambda: oracle.conditional_iw_mean(dist, (0, 2, 4), f)
        )
        self._check_ladder(func, tol)

    def test_iw_gradient_integrand_nodes_evaluated_once(self, monkeypatch):
        dist, f = oracle._random_instance(np.random.default_rng(4), 5)
        func, tol = _first_integrand(
            monkeypatch, lambda: oracle.estimator_moments(est.IW_PG, dist, f, 3)
        )
        self._check_ladder(func, tol)

    def test_integrand_calls_are_bounded(self):
        """Past 4097 nodes the midpoints come in chunks: no call exceeds 4096
        nodes, and the ladder still reaches its 65537-node cap."""
        counted = _Counted(_polynomial)
        oracle._adaptive_trapezoid(counted, 0.0)
        assert max(len(v) for v in counted.calls) == 4096
        grid = np.clip(np.linspace(0.0, 1.0, 65537), oracle._U_CLIP, 1.0 - oracle._U_CLIP)
        np.testing.assert_array_equal(np.sort(np.concatenate(counted.calls)), grid)

    @pytest.mark.parametrize("n, k", [(4, 2), (5, 3)])
    def test_shared_pass_gives_conditional_iw_mean(self, n, k):
        """The report divides each set's integral from the one threshold pass
        by the set's chain-rule probability; that is conditional_iw_mean."""
        spec = est.ESTIMATORS[est.IMPORTANCE_WEIGHTED]
        gen = np.random.default_rng(n)
        for _ in range(3):
            dist, f = oracle._random_instance(gen, n)
            sets, probs = oracle.enumerate_unordered(dist, k)
            means, _ = oracle._threshold_pass(spec, dist, as_objective(f), sets, None, 1e-9)
            assert len(means) == len(sets)
            for mean, S, p in zip(means, sets, probs):
                want = oracle.conditional_iw_mean(dist, S, f)
                assert abs(mean / p - want) <= 1e-12


class TestTheoremReport:
    @pytest.mark.parametrize("cases", [0, -3])
    def test_fewer_than_one_case_raises(self, cases):
        """A report over no instance would pass every check it did not run."""
        with pytest.raises(InvalidConfig, match=f"cases must be at least 1, got {cases}"):
            oracle.theorem_report(n=4, k=2, cases=cases, seed=0)

    def test_all_checks_pass(self):
        report = oracle.theorem_report(n=4, k=2, cases=5, seed=0)
        assert report["all_passed"]
        names = {c["name"] for c in report["checks"]}
        assert "variance-dominance" in names
        assert "first-draw-posterior-matches-set-estimate" in names
        for c in report["checks"]:
            assert c["max_abs_err"] <= c["tolerance"]

    @pytest.mark.parametrize("n, k", [(4, 2), (5, 3)])
    def test_independent_of_naive_kernel(self, monkeypatch, n, k):
        """The report takes its chain-rule references from the oracle's own
        enumeration, never from the permutation-sum kernel it checks."""
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called the naive set-probability kernel")

        monkeypatch.setattr(setprob, "_naive_restricted_logs", refuse)
        monkeypatch.setattr(setprob, "p_set_naive", refuse)
        assert oracle.theorem_report(n=n, k=k, cases=3, seed=0)["all_passed"]
