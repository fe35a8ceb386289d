"""Acceptance suite.

One test per numbered criterion, each enforced at its stated tolerance and
printing a single pass/fail line (run with ``pytest -s`` to see them inline).
"""
import itertools
import json
import math
import time
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

import sworgrad as sg
from conftest import random_instances
from sworgrad import Objective, Rng, bench, cli, oracle
from sworgrad import estimators as est
from sworgrad.setprob import p_set_exact, p_set_integral, p_set_naive


def _report(num: int, name: str, ok: bool):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def instances():
    return random_instances(seed=2024, count=50)


def test_criterion_1_unbiasedness(instances):
    """Enumeration means of every unbiased estimator reproduce the exact
    expectation or gradient within 1e-9; runtime under 30 s."""
    t0 = time.monotonic()
    worst = 0.0
    gen = np.random.default_rng(7)
    for dist, f, k in instances:
        exact_e = oracle.exact_expectation(dist, f)
        exact_g = oracle.exact_gradient(dist, f)

        mean, _ = oracle.estimator_moments(est.UNORDERED_SET, dist, f, k)
        worst = max(worst, abs(mean - exact_e))

        for kind in (est.UNORDERED_SET_PG, est.UNORDERED_SET_PG_BL):
            mean, _ = oracle.estimator_moments(kind, dist, f, k)
            worst = max(worst, float(np.max(np.abs(mean - exact_g))))

        obj = Objective(f, gen.normal(0.0, 1.0, (dist.n, dist.n)))
        mean, _ = oracle.estimator_moments(est.FULL_UNORDERED_SET_PG, dist, obj, k)
        worst = max(worst, float(np.max(np.abs(mean - oracle.exact_gradient(dist, obj)))))

        for m in [1] + ([2] if k >= 3 else []):
            mean, _ = oracle.estimator_moments(est.stoch_sas_id(m), dist, f, k)
            worst = max(worst, abs(mean - exact_e))

        mean, _ = oracle.estimator_moments(est.DET_SUM_AND_SAMPLE, dist, f, k)
        worst = max(worst, abs(mean - exact_e))

        for kind in (est.REINFORCE_WR, est.REINFORCE_WR_BL):
            mean, _ = oracle.estimator_moments(kind, dist, f, k)
            worst = max(worst, float(np.max(np.abs(mean - exact_g))))

    elapsed = time.monotonic() - t0
    _report(1, f"unbiasedness (worst {worst:.2e}, {elapsed:.1f}s)",
            worst <= 1e-9 and elapsed < 30.0)


def test_criterion_2_rao_blackwell_identities(instances):
    """(a) first-draw posterior recovers the set estimate; (b) the ordered
    sum-and-sample estimator collapses onto it when averaged over orderings;
    (c) so does the importance-weighted estimator averaged over thresholds."""
    t0 = time.monotonic()
    worst_post = worst_cond = worst_iw = 0.0
    for dist, f, k in instances:
        us_vals = {}
        by_set_first = {}
        splits = [1] + ([2] if k >= 3 else [])
        cond = {m: {} for m in splits}
        for b, p in zip(*oracle.enumerate_ordered(dist, k)):
            key = tuple(sorted(b.tolist()))
            vec = by_set_first.setdefault(key, dict.fromkeys(key, 0.0))
            vec[int(b[0])] += p
            for m in splits:
                val = est.stoch_sum_and_sample(dist, b, f, m=m)
                tot, acc = cond[m].get(key, (0.0, 0.0))
                cond[m][key] = (tot + p, acc + p * val)

        for key, vec in by_set_first.items():
            us = sg.unordered_set_estimate(dist, key, f)
            us_vals[key] = us
            mass = math.fsum(vec.values())
            post_val = math.fsum(vec[s] / mass * f[s] for s in key)
            worst_post = max(worst_post, abs(post_val - us))
            for m in splits:
                tot, acc = cond[m][key]
                worst_cond = max(worst_cond, abs(acc / tot - us))
            iw_cond = oracle.conditional_iw_mean(dist, key, f)
            worst_iw = max(worst_iw, abs(iw_cond - us))

    elapsed = time.monotonic() - t0
    _report(
        2,
        f"rao-blackwell identities (posterior {worst_post:.2e}, "
        f"orderings {worst_cond:.2e}, threshold {worst_iw:.2e}, {elapsed:.1f}s)",
        worst_post <= 1e-10 and worst_cond <= 1e-10 and worst_iw <= 1e-6
        and elapsed < 60.0,
    )


def test_criterion_3_variance_dominance(instances):
    """The set estimator's variance never exceeds that of the single-sample,
    sum-and-sample (every split), or importance-weighted estimators."""
    worst_gap = -math.inf
    for dist, f, k in instances:
        _, var_us = oracle.estimator_moments(est.UNORDERED_SET, dist, f, k)
        competitors = [oracle.estimator_moments(est.SINGLE_SAMPLE, dist, f, k)[1]]
        for m in [1] + ([2] if k >= 3 else []):
            competitors.append(oracle.estimator_moments(est.stoch_sas_id(m), dist, f, k)[1])
        var_iw = oracle.estimator_moments(est.IMPORTANCE_WEIGHTED, dist, f, k)[1]
        if math.isfinite(var_iw):
            competitors.append(var_iw)
        worst_gap = max(worst_gap, max(var_us - v for v in competitors))
    _report(3, f"variance dominance (worst excess {worst_gap:.2e})", worst_gap <= 1e-10)


def test_criterion_4_control_variate_zero_mean(instances):
    worst = 0.0
    for dist, f, k in instances:
        sets, probs = oracle.enumerate_unordered(dist, k)
        cv = sum(
            p * sg.uspg_baseline_control_variate(dist, s, f)
            for s, p in zip(sets, probs)
        )
        worst = max(worst, float(np.max(np.abs(cv / math.fsum(probs)))))
    _report(4, f"control variate zero mean (worst {worst:.2e})", worst <= 1e-10)


def test_criterion_5_risk_form_equivalence():
    gen = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(4, 7))
        dist = sg.from_logits(gen.normal(0.0, 1.0, n))
        f = gen.normal(0.0, 1.0, n)
        k = min(int(gen.integers(2, 4)), n)
        S = tuple(sorted(gen.choice(n, size=k, replace=False).tolist()))
        gd = sg.risk_grad(dist, S, f, form="direct").grad
        gb = sg.risk_grad(dist, S, f, form="baseline").grad
        worst = max(worst, float(np.max(np.abs(gd - gb))))
    _report(5, f"risk form equivalence (worst {worst:.2e})", worst <= 1e-10)


def test_criterion_6_set_probability_backends():
    t0 = time.monotonic()
    gen = np.random.default_rng(123)
    worst_small = worst_large = 0.0
    for _ in range(60):
        n = int(gen.integers(8, 13))
        dist = sg.from_logits(gen.normal(0.0, 1.5, n))
        k = int(gen.integers(1, 7))
        S = tuple(sorted(gen.choice(n, size=k, replace=False).tolist()))
        ln, le, li = p_set_naive(dist, S), p_set_exact(dist, S), p_set_integral(dist, S)
        scale = max(abs(ln), abs(le), abs(li))
        worst_small = max(worst_small, abs(ln - le) / scale, abs(le - li) / scale)
    for _ in range(40):
        n = int(gen.integers(14, 31))
        dist = sg.from_logits(gen.normal(0.0, 1.5, n))
        k = int(gen.integers(2, 13))
        S = tuple(sorted(gen.choice(n, size=k, replace=False).tolist()))
        le, li = p_set_exact(dist, S), p_set_integral(dist, S)
        worst_large = max(worst_large, abs(le - li) / max(abs(le), abs(li)))

    uniform = sg.from_logits(np.zeros(50))
    closed = 1.0 / math.comb(50, 10)
    got = math.exp(p_set_integral(uniform, tuple(range(10))))
    uniform_rel = abs(got - closed) / closed

    elapsed = time.monotonic() - t0
    _report(
        6,
        f"set-probability backends (k<=6 {worst_small:.2e}, k<=12 {worst_large:.2e}, "
        f"uniform {uniform_rel:.2e}, {elapsed:.1f}s)",
        worst_small <= 1e-8 and worst_large <= 1e-6 and uniform_rel <= 1e-6
        and elapsed < 60.0,
    )


def test_criterion_7_sampler_laws(running_dist):
    draws = 10**6
    idx, _, _ = sg.gumbel_top_k(Rng(2024), running_dist, 2, size=draws)

    ordered_counts = Counter(map(tuple, idx.tolist()))
    ordered_expected = {
        tuple(b.tolist()): p
        for b, p in zip(*oracle.enumerate_ordered(running_dist, 2))
    }
    keys = sorted(ordered_expected)
    p_ordered = chisquare(
        np.array([ordered_counts.get(key, 0) for key in keys]),
        np.array([ordered_expected[key] * draws for key in keys]),
    ).pvalue

    set_counts = Counter(tuple(sorted(t)) for t in idx.tolist())
    set_expected = {
        S: math.exp(p_set_naive(running_dist, S))
        for S in itertools.combinations(range(3), 2)
    }
    keys = sorted(set_expected)
    p_sets = chisquare(
        np.array([set_counts.get(key, 0) for key in keys]),
        np.array([set_expected[key] * draws for key in keys]),
    ).pvalue

    fd = sg.FactorizedDist((np.array([0.2, 1.1]), np.array([-0.3, 0.7])))
    flat = fd.flatten()
    sbs_idx, _, _ = sg.stochastic_beam_search(Rng(2025), fd, 2, size=draws)
    sbs_counts = Counter(tuple(sorted(t)) for t in sbs_idx.tolist())
    tv = 0.5 * sum(
        abs(sbs_counts.get(S, 0) / draws - math.exp(p_set_exact(flat, S)))
        for S in itertools.combinations(range(4), 2)
    )

    _report(
        7,
        f"sampler laws (ordered p={p_ordered:.3f}, sets p={p_sets:.3f}, sbs tv={tv:.4f})",
        p_ordered > 0.001 and p_sets > 0.001 and tv < 0.01,
    )


def test_criterion_8_toy_zero_variance_at_full_domain():
    ok = True
    details = []
    for kind in ("unordered-set-pg", "unordered-set-pg-bl"):
        for eta in (0.0, -4.0):
            vals = np.array(
                [bench.toy_scalar_grad(kind, eta, bench.DOMAIN, Rng(0).split(r))
                 for r in range(1000)]
            )
            empirical = float(np.var(vals, ddof=1))
            _, enumerated = bench.toy_exact_moments(kind, eta, bench.DOMAIN)
            details.append(f"{kind}@{eta}: emp={empirical:.1e} enum={enumerated:.1e}")
            ok = ok and empirical <= 1e-20 and enumerated <= 1e-20
    _report(8, f"toy full-domain zero variance ({'; '.join(details)})", ok)


def test_criterion_9_optimization():
    t0 = time.monotonic()
    base = {"k": 8, "eta0": 0.0, "step_size": 0.1, "steps": 200, "seed": 0}
    run_exact = bench.optimize({**base, "estimator": "exact"})
    run_full = bench.optimize({**base, "estimator": "unordered-set-pg", "seed": 17})
    bitwise = np.array_equal(run_exact.etas, run_full.etas)

    cfg = {"estimator": "exact", "k": 8, "eta0": 0.0, "step_size": 0.02,
           "steps": 500, "seed": 0}
    exact_final = bench.optimize(cfg).final_loss
    finals = [
        bench.optimize({**cfg, "estimator": "unordered-set-pg", "k": 3, "seed": s}).final_loss
        for s in range(10)
    ]
    gap = abs(float(np.mean(finals)) - exact_final)
    elapsed = time.monotonic() - t0
    _report(
        9,
        f"optimization (bitwise={bitwise}, k=3 final-loss gap {gap:.2e}, {elapsed:.1f}s)",
        bitwise and gap <= 1e-3 and elapsed < 30.0,
    )


def test_criterion_10_cli_determinism(tmp_path):
    check_argv = ["check", "--n", "4", "--k", "2", "--cases", "4", "--seed", "0"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.run(check_argv + ["--out", str(a)]) == 0
    assert cli.run(check_argv + ["--out", str(b)]) == 0
    check_same = a.read_bytes() == b.read_bytes()

    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"estimators": ["unordered-set-pg", "reinforce-wr-bl"], "k": [2, 8],
             "eta": [0.0, -4.0], "replications": 200, "seed": 0}
        )
    )
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert cli.run(["variance", "--config", str(cfg), "--out", str(c)]) == 0
    assert cli.run(["variance", "--config", str(cfg), "--out", str(d)]) == 0
    var_same = c.read_bytes() == d.read_bytes()

    _report(10, f"cli determinism (check={check_same}, variance={var_same})",
            check_same and var_same)
