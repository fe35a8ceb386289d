import gc
import math
import re
import tracemalloc

import numpy as np
import pytest

import sworgrad as sg
from sworgrad import Rng, bench
from sworgrad import estimators as est
from sworgrad.errors import InvalidSampleSize, NeedTwoSamples, SworgradError
from sworgrad.sampling import sample_with_replacement


class TestToyProblem:
    def test_neutral_parameter_gives_uniform_domain(self):
        toy = bench.make_toy(0.0)
        np.testing.assert_allclose(toy.flat.probs, 1.0 / 8.0, atol=1e-14)

    def test_objective_values(self):
        toy = bench.make_toy(0.3)
        idx = bench.DOMAIN - 1  # all bits set
        want = (1 - 0.6) ** 2 + (1 - 0.51) ** 2 + (1 - 0.48) ** 2
        np.testing.assert_allclose(toy.f_values[idx], want, atol=1e-14)
        np.testing.assert_allclose(
            toy.f_values[0], 0.6**2 + 0.51**2 + 0.48**2, atol=1e-14
        )

    @pytest.mark.parametrize("eta", [0.0, -4.0, 2.5, 0.3, -37.5, 40.0])
    def test_tables_equal_the_per_outcome_reference_bitwise(self, eta):
        """The toy's vectors are the same floats as building the factorized
        distribution and looping over the outcomes."""
        toy = bench.make_toy(eta)
        log_sig = -math.log1p(math.exp(-eta)) if eta >= 0 else eta - math.log1p(math.exp(eta))
        bit = np.array([log_sig - eta, log_sig])
        flat = sg.FactorizedDist((bit,) * bench.NUM_BITS).flatten()
        sig = bench.sigmoid(eta)
        f_vals, jac = [], []
        for idx in range(bench.DOMAIN):
            bits = bench.outcome_bits(idx)
            f_vals.append(sum((b - t) ** 2 for b, t in zip(bits, bench.TARGETS)))
            jac.append(sum(b - sig for b in bits))
        centered = np.array(jac) - float(np.dot(flat.probs, jac))
        assert toy.flat.log_probs.tolist() == flat.log_probs.tolist()
        assert toy.flat.logits.tolist() == flat.logits.tolist()
        assert toy.f_values.tolist() == f_vals
        assert toy.eta_jacobian.tolist() == jac
        assert toy.centered_jacobian.tolist() == centered.tolist()
        assert toy.score_objective.tolist() == (centered * np.array(f_vals)).tolist()

    def test_exact_gradient_matches_finite_differences(self):
        step = 1e-5
        for eta in (0.0, -4.0, 1.7, -0.6):
            g = bench.toy_scalar_grad("exact", eta, bench.DOMAIN, Rng(0))
            fd = (bench.exact_loss(eta + step) - bench.exact_loss(eta - step)) / (2 * step)
            assert abs(g - fd) < 1e-6

    def test_k_too_large_rejected(self):
        with pytest.raises(InvalidSampleSize):
            bench.toy_scalar_grad("unordered-set-pg", 0.0, 9, Rng(0))

    @pytest.mark.parametrize("kind", ["unordered-set-pg-bl", "reinforce-wr-bl"])
    @pytest.mark.parametrize("eta", [0.0, -4.0])
    def test_builtin_baseline_needs_two_samples(self, kind, eta):
        """At k = 1 the sample would be its own baseline, which biases the
        gradient; the toy must refuse it as the library does."""
        with pytest.raises(NeedTwoSamples):
            bench.toy_scalar_grad(kind, eta, 1, Rng(0))


class TestFullDomainDeterminism:
    @pytest.mark.parametrize("eta", [0.0, -4.0])
    def test_set_estimator_at_full_domain_is_exact_bitwise(self, eta):
        """A full-domain sample leaves nothing random: the estimate must equal
        the exact gradient bit for bit, independent of the stream."""
        exact = bench.toy_scalar_grad("exact", eta, bench.DOMAIN, Rng(0))
        for seed in range(10):
            got = bench.toy_scalar_grad("unordered-set-pg", eta, bench.DOMAIN, Rng(seed))
            assert got == exact

    @pytest.mark.parametrize("kind", ["unordered-set-pg", "unordered-set-pg-bl"])
    @pytest.mark.parametrize("eta", [0.0, -4.0])
    def test_full_domain_zero_variance(self, kind, eta):
        vals = np.array(
            [bench.toy_scalar_grad(kind, eta, bench.DOMAIN, Rng(0).split(r)) for r in range(200)]
        )
        assert float(np.var(vals, ddof=1)) <= 1e-20
        _, exact_var = bench.toy_exact_moments(kind, eta, bench.DOMAIN)
        assert exact_var == 0.0


def _vector_estimate(kind, toy, k, seed):
    """The logit-space gradient of ``kind`` from the public estimator API, on
    the sample the toy draws from Rng(seed)."""
    flat, f = toy.flat, toy.f_values
    rng = Rng(seed)
    if kind == "exact":
        return sg.uspg(flat, np.arange(bench.DOMAIN), f)
    if kind.startswith("reinforce"):
        X = sample_with_replacement(rng, flat, k)
        if kind == "reinforce-sampled-bl":
            return sg.reinforce_sampled_baseline(flat, X, sample_with_replacement(rng, flat, k), f)
        return sg.reinforce_wr(flat, X, f, baseline=kind == "reinforce-wr-bl")
    S, thr = sg.gumbel_top_k(rng, flat, k)
    by_set = {
        "unordered-set-pg": lambda: sg.uspg(flat, S.indices, f),
        "unordered-set-pg-bl": lambda: sg.uspg_baseline(flat, S.indices, f),
        "full-unordered-set-pg": lambda: sg.fuspg(
            flat, S.indices, sg.Objective(f, np.zeros((bench.DOMAIN, bench.DOMAIN)))
        ),
        "iw-pg": lambda: sg.iwpg(flat, S.to_unordered(), thr, f, baseline=False),
        "iw-pg-bl": lambda: sg.iwpg(flat, S.to_unordered(), thr, f, baseline=True),
        "iw-pg-norm": lambda: sg.iwpg(flat, S.to_unordered(), thr, f, normalized=True),
        "risk": lambda: sg.risk_grad(flat, S.indices, f, form="direct"),
        "risk-bl-form": lambda: sg.risk_grad(flat, S.indices, f, form="baseline"),
    }
    return by_set[kind]()


class TestScalarChainRule:
    def test_gradient_paths_agree_with_vector_estimators(self):
        """For every gradient id in the table, the scalar harness must match
        dotting the logit-space gradient estimator with the chain-rule
        vector, on the same draws."""
        grad_ids = sorted(i for i, spec in est.ESTIMATORS.items() if spec.output != est.VALUE)
        gen = np.random.default_rng(50)
        for eta in (0.0, -1.2):
            toy = bench.make_toy(eta)
            for _ in range(20):
                k = int(gen.integers(2, 8))
                seed = int(gen.integers(10**6))
                for kind in grad_ids:
                    got = bench.toy_scalar_grad(kind, eta, k, Rng(seed))
                    g = _vector_estimate(kind, toy, k, seed)
                    assert g.estimator_id == kind or kind == "exact"
                    assert abs(got - float(np.dot(g.grad, toy.eta_jacobian))) < 1e-12, kind

    def test_exact_moments_unbiased(self):
        for kind in (
            "unordered-set-pg",
            "unordered-set-pg-bl",
            "full-unordered-set-pg",
            "stoch-sum-and-sample-m1",
            "det-sum-and-sample",
            "importance-weighted",
            "iw-pg",
            "iw-pg-bl",
            "reinforce-wr",
            "reinforce-wr-bl",
            "reinforce-sampled-bl",
            "single-sample",
        ):
            for eta in (0.0, -4.0):
                mean, var = bench.toy_exact_moments(kind, eta, 3)
                exact = bench.toy_scalar_grad("exact", eta, bench.DOMAIN, Rng(0))
                assert abs(mean - exact) < 1e-8, kind
                assert var >= 0.0


class TestLowEntropyDominance:
    @pytest.mark.parametrize("k", [2, 4])
    def test_builtin_baseline_beats_with_replacement(self, k):
        """At eta = -4 the without-replacement baseline estimator dominates
        REINFORCE-with-replacement-with-baseline at equal sample size."""
        _, var_us = bench.toy_exact_moments("unordered-set-pg-bl", -4.0, k)
        _, var_rf = bench.toy_exact_moments("reinforce-wr-bl", -4.0, k)
        assert var_us <= var_rf + 1e-10


class TestVarianceSweep:
    def test_report_shape_and_roundtrip(self):
        config = {
            "estimators": ["unordered-set-pg", "reinforce-wr-bl"],
            "k": [2, 8],
            "eta": [0.0, -4.0],
            "replications": 200,
            "seed": 0,
        }
        report = bench.variance_sweep(config)
        assert len(report.rows) == 8
        again = bench.VarianceReport.from_csv(report.to_csv())
        assert again.rows == report.rows
        for row in report.rows:
            assert row.variance >= 0.0
            assert row.evals == row.k

    def test_eval_accounting(self):
        config = {
            "estimators": ["reinforce-sampled-bl", "single-sample", "exact"],
            "k": [4],
            "eta": [0.0],
            "replications": 50,
            "seed": 1,
        }
        rows = bench.variance_sweep(config).rows
        by_est = {r.estimator: r for r in rows}
        assert by_est["reinforce-sampled-bl"].evals == 8
        assert by_est["single-sample"].evals == 1
        assert by_est["exact"].evals == bench.DOMAIN

    def test_grouping_by_budget(self):
        report = bench.VarianceReport(
            [
                bench.VarianceRow("a", 2, 4, 0.0, 1.0, 0.0, 10, 0),
                bench.VarianceRow("b", 4, 4, 0.0, 2.0, 0.3, 10, 0),
                bench.VarianceRow("c", 8, 8, 0.0, 3.0, 0.5, 10, 0),
            ]
        )
        groups = report.group_by_evals()
        assert sorted(groups) == [4, 8]
        assert {r.estimator for r in groups[4]} == {"a", "b"}

    def test_empirical_matches_exact_within_three_standard_errors(self):
        """Replicated sweep variance converges on the enumerated value."""
        replications = 10**5
        for kind, k in (("reinforce-wr-bl", 2), ("unordered-set-pg", 2)):
            config = {
                "estimators": [kind],
                "k": [k],
                "eta": [0.0],
                "replications": replications,
                "seed": 3,
            }
            row = bench.variance_sweep(config).rows[0]
            _, exact_var = bench.toy_exact_moments(kind, 0.0, k)
            vals = bench._replicate(kind, 0.0, k, 3, 20000)
            centered = vals - vals.mean()
            fourth = float(np.mean(centered**4))
            se = math.sqrt(max(fourth - exact_var**2, 0.0) / replications)
            assert abs(row.variance - exact_var) < 3 * se


SWEEP_IDS = sorted(est.ESTIMATORS) + ["stoch-sum-and-sample-m1", "stoch-sum-and-sample-m2"]


class TestChunkInvariance:
    @pytest.mark.parametrize("kind", SWEEP_IDS)
    def test_replicate_matches_its_one_draw_call_bitwise(self, kind, monkeypatch):
        """Replicate r of a sweep cell is toy_scalar_grad on the stream
        Rng(seed).split(r), bit for bit, whatever the chunk size; a k the
        estimator refuses raises the one-draw call's error at every size."""
        replications, seed = 20, 5
        for k in range(1, bench.DOMAIN + 1):
            for eta in (0.0, -4.0):
                try:
                    want = [
                        bench.toy_scalar_grad(kind, eta, k, Rng(seed).split(r))
                        for r in range(replications)
                    ]
                except SworgradError as exc:
                    for chunk in (1, 7, replications):
                        monkeypatch.setattr(bench, "_CHUNK_REPLICATES", chunk)
                        with pytest.raises(type(exc), match=re.escape(str(exc))):
                            bench._replicate(kind, eta, k, seed, replications)
                    continue
                for chunk in (1, 7, replications, 10**6):
                    monkeypatch.setattr(bench, "_CHUNK_REPLICATES", chunk)
                    got = bench._replicate(kind, eta, k, seed, replications)
                    assert got.tolist() == want, (kind, k, eta, chunk)

    def test_cell_memory_is_bounded_by_the_chunk(self, monkeypatch):
        """A cell's allocation peak is one chunk's working set plus the
        output: ten times the replicates add their 8-byte values, and
        otherwise only the garbage that the collector has not yet freed."""
        monkeypatch.setattr(bench, "_CHUNK_REPLICATES", 16)
        peaks = []
        for replications in (32, 320):
            bench._replicate("unordered-set-pg", 0.0, 6, 0, 1)
            gc.collect()
            tracemalloc.start()
            try:
                bench._replicate("unordered-set-pg", 0.0, 6, 0, replications)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0] + 8 * (320 - 32)


class TestOptimize:
    def test_divergence_flagged(self):
        run = bench.optimize(
            {"estimator": "exact", "k": 8, "eta0": 0.0, "step_size": 1e5, "steps": 10, "seed": 0}
        )
        assert run.diverged
        assert len(run.steps) < 11

    def test_exact_run_monotone_to_grid_minimum(self):
        """The loss decreases every step and approaches the grid-searched
        minimum over sigmoid(eta); a large step size is safe because the loss
        is monotone in eta."""
        run = bench.optimize(
            {"estimator": "exact", "k": 8, "eta0": 0.0, "step_size": 100.0, "steps": 20000, "seed": 0}
        )
        losses = [s[2] for s in run.steps]
        assert all(a >= b for a, b in zip(losses, losses[1:]))
        assert not run.diverged
        assert run.final_loss - bench.loss_lower_bound() < 1e-6

    @pytest.mark.parametrize("kind", SWEEP_IDS)
    def test_run_is_the_per_step_stream_loop_bitwise(self, kind, monkeypatch):
        """Step t of a run is toy_scalar_grad on the stream Rng(seed, (t,)),
        bit for bit, with the steps' uniforms computed in chunks."""
        config = {"estimator": kind, "k": 3, "eta0": -1.0, "step_size": 0.5,
                  "steps": 20, "seed": 9}
        eta, want = config["eta0"], [config["eta0"]]
        for t in range(config["steps"]):
            eta -= config["step_size"] * bench.toy_scalar_grad(kind, eta, 3, Rng(9, (t,)))
            want.append(eta)
        for chunk in (1, 7, 256):
            monkeypatch.setattr(bench, "_CHUNK_REPLICATES", chunk)
            run = bench.optimize(config)
            assert not run.diverged
            assert run.etas.tolist() == want, (kind, chunk)

    def test_full_domain_run_matches_exact_bitwise(self):
        base = {"k": 8, "eta0": 0.0, "step_size": 0.1, "steps": 100, "seed": 0}
        r_exact = bench.optimize({**base, "estimator": "exact"})
        r_us = bench.optimize({**base, "estimator": "unordered-set-pg", "seed": 123})
        np.testing.assert_array_equal(r_exact.etas, r_us.etas)

    def test_csv_format(self):
        run = bench.optimize(
            {"estimator": "exact", "k": 8, "eta0": 0.0, "step_size": 0.1, "steps": 3, "seed": 0}
        )
        lines = run.to_csv().splitlines()
        assert lines[0] == bench.OPTIMIZE_CSV_VERSION
        assert lines[1] == "step,eta,loss"
        assert len(lines) == 6
