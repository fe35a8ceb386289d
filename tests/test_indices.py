"""Every public entry point that takes indices rejects a bad index with
``InvalidIndices``: never an untyped ``IndexError``, a negative index that
wraps round to the last element, or a returned value."""
import numpy as np

import sworgrad as sg
from sworgrad import estimators as est
from sworgrad import oracle
from sworgrad.errors import InvalidIndices

KAPPA = -1.0


def _set_entries(dist, f, outside):
    """Entry points taking one set S (distinct elements), as S -> call;
    ``outside`` is an element that no S holds."""
    n = dist.n
    return {
        "loo_ratios": lambda S: sg.loo_ratios(dist, S),
        "loo_ratios order 2": lambda S: sg.loo_ratios(dist, S, order=2),
        "loo_ratios batch": lambda S: sg.loo_ratios(dist, np.stack([np.arange(len(S)), S])),
        "loo_ratios exclude": lambda S: sg.loo_ratios(dist, np.arange(n), exclude=S),
        "p_set_naive": lambda S: sg.p_set_naive(dist, S),
        "p_set_exact": lambda S: sg.p_set_exact(dist, S),
        "p_set_integral": lambda S: sg.p_set_integral(dist, S),
        "p_set_exact exclude": lambda S: sg.p_set_exact(dist, np.arange(n), S),
        "posterior_weights": lambda S: est.posterior_weights(dist, S),
        "posterior_weights batch": lambda S: est.posterior_weights(
            dist, np.stack([np.arange(len(S)), S])),
        "sum_and_sample_weights": lambda S: est.sum_and_sample_weights(dist, S),
        "sum_and_sample_weights batch": lambda S: est.sum_and_sample_weights(
            dist, np.stack([np.arange(len(S)), S])),
        "unordered_set_estimate": lambda S: sg.unordered_set_estimate(dist, S, f),
        "stoch_sum_and_sample": lambda S: sg.stoch_sum_and_sample(dist, S, f),
        "importance_weighted": lambda S: sg.importance_weighted(dist, S, KAPPA, f),
        "importance_weights": lambda S: est.importance_weights(dist, S, KAPPA),
        "uspg": lambda S: sg.uspg(dist, S, f),
        "uspg_baseline": lambda S: sg.uspg_baseline(dist, S, f),
        "uspg_baseline_control_variate": lambda S: sg.uspg_baseline_control_variate(dist, S, f),
        "fuspg": lambda S: sg.fuspg(dist, S, sg.Objective(f, np.zeros((n, n)))),
        "risk_grad": lambda S: sg.risk_grad(dist, S, f),
        "risk_grad baseline": lambda S: sg.risk_grad(dist, S, f, form="baseline"),
        "iwpg": lambda S: sg.iwpg(dist, S, KAPPA, f),
        "iwpg no baseline": lambda S: sg.iwpg(dist, S, KAPPA, f, baseline=False),
        "iwpg normalized": lambda S: sg.iwpg(dist, S, KAPPA, f, normalized=True),
        "restricted_log_prob C": lambda S: sg.restricted_log_prob(dist, S, outside),
        "conditional_iw_mean": lambda S: oracle.conditional_iw_mean(dist, S, f),
    }


def _draw_entries(dist, f):
    """Entry points taking draws X (repeats allowed), as X -> call."""
    return {
        "reinforce_wr": lambda X: sg.reinforce_wr(dist, X, f),
        "reinforce_wr no baseline": lambda X: sg.reinforce_wr(dist, X, f, baseline=False),
        "reinforce_sampled_baseline X": lambda X: sg.reinforce_sampled_baseline(dist, X, X * 0, f),
        "reinforce_sampled_baseline X_baseline": lambda X: sg.reinforce_sampled_baseline(
            dist, X * 0, X, f),
        "inclusion_probs": lambda X: est.inclusion_probs(dist, X, KAPPA),
    }


def _element_entries(dist):
    """Entry points taking one element x, as x -> call."""
    return {
        "restricted_log_prob x": lambda x: sg.restricted_log_prob(dist, (), x),
        "grad_log_prob": lambda x: sg.grad_log_prob(dist, x),
    }


def _wrong_row_counts(dist):
    """Exclusions whose row count fits neither one row nor one per set."""
    rows = np.array([[0, 1], [0, 2]])
    return {
        "loo_ratios 2 rows for 1 set": lambda: sg.loo_ratios(dist, [0, 1], exclude=[[0], [1]]),
        "loo_ratios 3 rows for 2 sets": lambda: sg.loo_ratios(dist, rows, exclude=[[0], [0], [0]]),
        "p_set_exact 2 rows for 1 set": lambda: sg.p_set_exact(dist, [0, 1], [[0], [1]]),
        "p_set_integral 2 rows for 1 set": lambda: sg.p_set_integral(dist, [0, 1], [[0], [1]]),
    }


def _outcome(call):
    try:
        value = call()
    except InvalidIndices:
        return None
    except Exception as exc:  # noqa: BLE001 - any other outcome is the failure
        return f"raised {type(exc).__name__}: {exc}"
    return f"returned {value!r:.60}"


def test_bad_indices_raise_invalid_indices():
    """A seeded loop over domains and samples: each valid sample has one
    position set to -1, to n, or (for sets) to another element's value."""
    gen = np.random.default_rng(2026)
    failures = {}
    for _ in range(12):
        n = int(gen.integers(3, 9))
        k = int(gen.integers(2, n))
        dist = sg.from_logits(gen.normal(0.0, 1.0, n))
        f = gen.normal(0.0, 1.0, n)
        S = gen.choice(n, size=k, replace=False)
        pos = int(gen.integers(k))
        outside = int(np.setdiff1d(np.arange(n), S)[0])
        bad_values = {"-1": -1, "n": n, "repeat": int(S[(pos + 1) % k])}
        for entries, kinds in ((_set_entries(dist, f, outside), ("-1", "n", "repeat")),
                               (_draw_entries(dist, f), ("-1", "n"))):
            for name, call in entries.items():
                for kind in kinds:
                    bad = S.copy()
                    bad[pos] = bad_values[kind]
                    outcome = _outcome(lambda: call(bad))
                    if outcome:
                        failures.setdefault(f"{name} [{kind}]", outcome)
        for name, call in _element_entries(dist).items():
            for kind in ("-1", "n"):
                outcome = _outcome(lambda: call(bad_values[kind]))
                if outcome:
                    failures.setdefault(f"{name} [{kind}]", outcome)
        for name, call in _wrong_row_counts(dist).items():
            outcome = _outcome(call)
            if outcome:
                failures.setdefault(name, outcome)
    assert not failures, "\n".join(f"{name}: {what}" for name, what in sorted(failures.items()))


def test_each_public_call_checks_its_indices_once(monkeypatch):
    """A public call makes one ``_index_rows`` pass.  The coefs functions take
    rows already checked, so the toy harness's batched draws make none."""
    from sworgrad import bench, distributions, setprob

    passes = []
    check = distributions._index_rows

    def counted(*args, **kwargs):
        passes.append(args)
        return check(*args, **kwargs)

    for module in (distributions, est, setprob):
        monkeypatch.setattr(module, "_index_rows", counted)
    gen = np.random.default_rng(4)
    dist = sg.from_logits(gen.normal(0.0, 1.0, 8))
    f = gen.normal(0.0, 1.0, 8)
    S, X = [1, 4, 6], [6, 1, 4]
    sets, draws = np.array([S, [0, 2, 7]]), np.array([X, [7, 0, 2]])
    calls = {
        "uspg": lambda: sg.uspg(dist, S, f),
        "uspg_baseline": lambda: sg.uspg_baseline(dist, S, f),
        "stoch_sum_and_sample": lambda: sg.stoch_sum_and_sample(dist, X, f),
        "stoch_sum_and_sample m = 2": lambda: sg.stoch_sum_and_sample(dist, X, f, m=2),
        "posterior_weights": lambda: est.posterior_weights(dist, S),
        "posterior_weights batch": lambda: est.posterior_weights(dist, sets),
        "sum_and_sample_weights": lambda: est.sum_and_sample_weights(dist, X),
        "sum_and_sample_weights batch": lambda: est.sum_and_sample_weights(dist, draws),
        "loo_ratios": lambda: sg.loo_ratios(dist, S),
        "loo_ratios order 2": lambda: sg.loo_ratios(dist, sets, order=2),
    }
    counts = {}
    for name, call in calls.items():
        passes.clear()
        call()
        counts[name] = len(passes)
    assert counts == dict.fromkeys(calls, 1)

    toy = bench.make_toy(-1.0)
    for kind in ("unordered-set-pg", "unordered-set-pg-bl", "stoch-sum-and-sample-m1",
                 "stoch-sum-and-sample-m2", "iw-pg-bl", "reinforce-wr-bl"):
        spec = est.estimator_spec(kind)
        u = gen.random((5, spec.law.uniforms(4, bench.DOMAIN)))
        passes.clear()
        bench._scalar_grads(spec, toy, 4, u)
        assert not passes, kind
