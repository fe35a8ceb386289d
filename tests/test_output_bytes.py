"""SHA-256 digests of ``variance`` and ``optimize`` CLI outputs, one config
per sampling law, and of ``stochastic_beam_search`` and
``FactorizedDist.flatten`` outputs on a few factorized domains.  Any change to a replicate's stream, its draw or its
arithmetic moves these bytes; a change that moves them on purpose must say
so and update the digests.

Each variance config runs 300 replications, two chunks of the sweep, and
each optimize run 300 steps, so both cross a chunk boundary.
"""
import hashlib
import json

import numpy as np
import pytest

import sworgrad as sg
from sworgrad import cli

# (estimator, valid ks): one id per sampling law of the estimator table.
LAW_CONFIGS = [
    ("unordered-set-pg", [2, 4, 8]),       # set
    ("stoch-sum-and-sample-m1", [2, 5]),   # ordered
    ("iw-pg-bl", [4, 7, 8]),               # threshold
    ("reinforce-wr-bl", [2, 4]),           # with replacement
    ("reinforce-sampled-bl", [1, 3]),      # paired
    ("det-sum-and-sample", [2, 6]),        # deterministic split
    ("single-sample", [1]),                # single
    ("exact", [8]),                        # full domain
]
ETAS = [0.0, -4.0]

VARIANCE_SHA256 = {
    "unordered-set-pg": "95f209efbd03b102bccb5e0afc0a5efb86b32cc139991b3cb08d0a7fe284e0ab",
    "stoch-sum-and-sample-m1": "cedabbf5df27d7f537dca584db4c4eb3a1df356e803250251412692cf1367b6a",
    "iw-pg-bl": "c7b8c687a266f36791d40f5f4677616d309a17f2f22d6163fa15972d83ddeb03",
    "reinforce-wr-bl": "5f773000b84bc78813fb5137f926546b1652959451206b49de688b8d047755d8",
    "reinforce-sampled-bl": "181de09b928bcb54770a7b5f478b28e4620cf892f18d600a707634fb2e29a4e1",
    "det-sum-and-sample": "2450fed2421c5d1e5b32be26e7e4a1274b88cb9c1d34381dbe089998b9c68bef",
    "single-sample": "5bfdb5bbbadabaa52273abb7af5eb5ae176aa629e73dc1342b486c157c89c1a7",
    "exact": "3f012c9222213b9f1e495221f276b0295d5c3bca62ed6a1612e0d665354e28a9",
}

# Keyed by (estimator, eta0); each run uses the config's smallest k, since a
# full-domain sample draws nothing random.
OPTIMIZE_SHA256 = {
    ("unordered-set-pg", 0.0): "762abbd36b391202f2c438e9cb9b154b33972c9f5c7837c0532a0866fee075a1",
    ("unordered-set-pg", -4.0): "356d93b674a52f8830ae7b64f32b5b91892db0906c98aa34736325aabe5b33f0",
    ("stoch-sum-and-sample-m1", 0.0): "71c790d77767605792bac9a17508810a8f14f0f9832d852d76961ef980f6227c",
    ("stoch-sum-and-sample-m1", -4.0): "297a78c084b19a42b4f4169f811954e8715cc2b0fc2c2e2606c7d92bcc8f3a6e",
    ("iw-pg-bl", 0.0): "cb53681cf57d7da5b7a1d7a2f4a981aa85655260db83fd3375d277fb80f36658",
    ("iw-pg-bl", -4.0): "6d390c32642580dc74dc85ad2095c9fe0a3c4bf515333733b1328a7622eeca10",
    ("reinforce-wr-bl", 0.0): "bcbe79f6d9ddaf7e4488582f2bdf3aaacfe5f107aeb6a36c43fa04ba8436bbf4",
    ("reinforce-wr-bl", -4.0): "97f0083d0c9a96cb51ace5a531534771ff30a9de88483a3fb210195de9a21a53",
    ("reinforce-sampled-bl", 0.0): "303830fcf104ca041fa1ba9f8654757f1aba157b036a87531bd231b2ab361582",
    ("reinforce-sampled-bl", -4.0): "1c41aedf5eb4cef6e43866adfc20f9b0f6d06f7e7257a7e597b76fb95101c008",
    ("det-sum-and-sample", 0.0): "a9b4ddf5924d645d4784be25204115c3ec0ea87a7a849c6d393301baf70eba3b",
    ("det-sum-and-sample", -4.0): "f2bb4cc3fcf37acb5dad44f65da2232775976c601159d9bf0e1924e967877ac3",
    ("single-sample", 0.0): "52b91b3b355aa12305447a7e17b7bc45e98a2e168f249e0c8580e71245404dac",
    ("single-sample", -4.0): "8502eefc11e272629f6d828efb2536dda2afa2bbb4cc4e724dffa7580378543f",
    ("exact", 0.0): "b279daf25fa3f9e781162ae1c14ba4103f0995938714d522659a44041852c84f",
    ("exact", -4.0): "4f9c046649577be23416f5144d55b4411a4de669d6b0e02d24b91007d444b1db",
}


def _digest(tmp_path, command, config) -> str:
    cfg, out = tmp_path / "config.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps(config))
    assert cli.run([command, "--config", str(cfg), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind,ks", LAW_CONFIGS)
def test_variance_bytes(tmp_path, kind, ks):
    config = {"estimators": [kind], "k": ks, "eta": ETAS, "replications": 300, "seed": 7}
    assert _digest(tmp_path, "variance", config) == VARIANCE_SHA256[kind]


@pytest.mark.parametrize("kind,ks", LAW_CONFIGS)
@pytest.mark.parametrize("eta0", ETAS)
def test_optimize_bytes(tmp_path, kind, ks, eta0):
    config = {"estimator": kind, "k": ks[0], "eta0": eta0, "step_size": 0.1,
              "steps": 300, "seed": 11}
    assert _digest(tmp_path, "optimize", config) == OPTIMIZE_SHA256[(kind, eta0)]


# Factorized domains for the beam-search digests: per-dimension sizes and the
# logit scale.  Small domains run every k up to the domain size; the 10 x 10 x
# 10 domain (the n = 1000 policy-gradient domain's shape) runs a few.
BEAM_LAYOUTS = [
    ((4,), 1.0, None),
    ((2, 3), 5.0, None),
    ((3, 1, 4), 1.0, None),
    ((1, 5), 30.0, None),
    ((2, 2, 2, 2), 5.0, None),
    ((6, 7), 30.0, None),
    ((10, 10, 10), 1.0, (1, 2, 8, 20)),
]

BEAM_SHA256 = {
    (4,): "4846bb1b7caa0c40b9d535d840574cbab02340bad0ee3b66cf654212f96ecaf7",
    (2, 3): "27ec397da8ebf0473c364edc5f7c91cfd268a79f046fb0caac357c634efcade4",
    (3, 1, 4): "dd89a86e8971c54e60fb16fc26945f7789d34c307427b8fba000ed600b7b19bd",
    (1, 5): "7544c0ad6b5d1685e0782db15c8b008a9a54eafd9bcbae43583f098b2cfbc22f",
    (2, 2, 2, 2): "2fd4d54c1d0a78a9bf9cd898ac053add5ec78973942622c9b233e600ee1f638d",
    (6, 7): "27b1949691b501c64a8e5edef743fc4dddace924ac9bf8a1d0e6888dafc62fdf",
    (10, 10, 10): "223ee232fc85bb6cb128d802018b6dab2c9d17628d1d04e4494c5ab097198365",
}

FLATTEN_SHA256 = {
    (4,): "c1b68d938267f0a321f54ae67b0c3fb9051ea7fb1db30cfafab398ff95f1625c",
    (2, 3): "2be9aefcdf2c3c05da081f2c67c1edd52c43faa1a856d3b9f2e9a4d026855b61",
    (3, 1, 4): "fa9c1ea673e8b4eabeddd9baed084dcb34f5d0b17d0d19114f7d56ede5985ca5",
    (1, 5): "96c079796b63d9fe2717c04734d84b1d41a00822b2ac31772c2b99062af490fb",
    (2, 2, 2, 2): "6c71caeed27dd36fd80ad75b8f49d705a24ddeac6b5cce7922f182b5a8748ccf",
    (6, 7): "3ee8e468119c510f314ab341a44119cfc7cb6bc38e0b0866818f8efd2fef8433",
    (10, 10, 10): "b6a3963788a22dd743eeba8865cd3791026df7c555f3c1182d8852486989a33e",
}


def _beam_domain(layout_id: int):
    sizes, scale, ks = BEAM_LAYOUTS[layout_id]
    gen = np.random.default_rng(layout_id)
    fd = sg.FactorizedDist(tuple(gen.normal(0.0, scale, s) for s in sizes))
    return fd, ks or range(1, fd.domain_size + 1)


def _beam_digest(fd, ks) -> str:
    h = hashlib.sha256()
    for k in ks:
        sample, threshold = sg.stochastic_beam_search(sg.Rng(100 + k), fd, k)
        h.update(np.asarray(sample.indices, dtype="<i8").tobytes())
        h.update(np.asarray(sample.perturbed_logprobs, dtype="<f8").tobytes())
        h.update(repr(threshold.kappa).encode())
        for size in (1, 3):
            idx, vals, kappa = sg.stochastic_beam_search(sg.Rng(200 + k), fd, k, size=size)
            for arr, dtype in ((idx, "<i8"), (vals, "<f8"), (kappa, "<f8")):
                h.update(np.asarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("layout_id", range(len(BEAM_LAYOUTS)))
def test_beam_search_bytes(layout_id):
    fd, ks = _beam_domain(layout_id)
    assert _beam_digest(fd, ks) == BEAM_SHA256[BEAM_LAYOUTS[layout_id][0]]


@pytest.mark.parametrize("layout_id", range(len(BEAM_LAYOUTS)))
def test_flatten_bytes(layout_id):
    fd, _ = _beam_domain(layout_id)
    flat = fd.flatten()
    h = hashlib.sha256(np.asarray(flat.log_probs, dtype="<f8").tobytes())
    h.update(np.asarray(flat.logits, dtype="<f8").tobytes())
    assert h.hexdigest() == FLATTEN_SHA256[BEAM_LAYOUTS[layout_id][0]]
