"""Feature enumeration, exact weak learning, boosting, and cascade training."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import bincount_weak_search, brute_features, count_features, exhaustive_best_error
from speedcam import imaging, mblbp, trainer
from speedcam.errors import ConfigError
from speedcam.imaging import Frame
from speedcam.mblbp import (
    MbLbpFeature,
    load_model,
    save_model,
    subset_contains,
    subset_from_codes,
)
from speedcam.trainer import (
    NEGATIVE,
    POSITIVE,
    TrainConfig,
    TrainSample,
    best_weak,
    boost_round,
    build_cache,
    enumerate_features,
    feature_count,
    train_cascade,
    train_stage,
)


def _frame(rows):
    px = np.asarray(rows, np.uint8)
    return Frame(px.shape[1], px.shape[0], px)


def _sample(rows, label, weight=1.0):
    return TrainSample(_frame(rows), label, weight)


def _separable_samples(n_pos=6, n_neg=6, seed=41, size=(6, 6)):
    """Positives carry a bright center block, negatives are noise."""
    rng = np.random.default_rng(seed)
    h, w = size
    pos = []
    for _ in range(n_pos):
        px = rng.integers(0, 60, (h, w), np.uint8)
        px[h // 3 : 2 * h // 3, w // 3 : 2 * w // 3] = 255
        pos.append(TrainSample(Frame(w, h, px), POSITIVE))
    neg = [
        TrainSample(Frame(w, h, rng.integers(0, 60, (h, w), np.uint8)), NEGATIVE)
        for _ in range(n_neg)
    ]
    return pos, neg


# --- feature enumeration ---


def test_enumerate_counts():
    assert len(enumerate_features(3, 3)) == 1
    assert len(enumerate_features(6, 3)) == count_features(6, 3, 1)
    assert len(enumerate_features(6, 3)) == 5
    assert len(enumerate_features(48, 24, 2)) == count_features(48, 24, 2)
    assert len(enumerate_features(48, 24, 2)) == 9216


def test_enumerate_matches_oracle_on_random_windows():
    rng = np.random.default_rng(42)
    for _ in range(15):
        w = int(rng.integers(3, 20))
        h = int(rng.integers(3, 20))
        stride = int(rng.integers(1, 4))
        feats = enumerate_features(w, h, stride)
        assert len(feats) == count_features(w, h, stride)
        assert [tuple(row) for row in feats.tolist()] == brute_features(w, h, stride)


def test_feature_count_matches_oracle():
    for w in range(1, 16):
        for h in range(1, 16):
            for stride in range(1, 5):
                assert feature_count(w, h, stride) == count_features(w, h, stride)
    assert feature_count(48, 24, 2) == len(enumerate_features(48, 24, 2))


def test_enumerate_order_is_bh_bw_by_bx():
    feats = enumerate_features(6, 6)
    assert feats.dtype == np.int64 and feats.shape == (len(feats), 4)
    as_tuples = [(bh, bw, by, bx) for bx, by, bw, bh in feats.tolist()]
    assert as_tuples == sorted(as_tuples)
    assert feats[0].tolist() == [0, 0, 1, 1]
    assert feats[-1].tolist() == [0, 0, 2, 2]


def test_enumerate_stride_quantizes_anchors_not_sizes():
    feats = enumerate_features(9, 9, 3).tolist()
    assert all(bx % 3 == 0 and by % 3 == 0 for bx, by, _, _ in feats)
    assert {bw for _, _, bw, _ in feats} == {1, 2, 3}


def test_enumerate_every_feature_fits():
    for bx, by, bw, bh in enumerate_features(10, 7, 2).tolist():
        assert bx + 3 * bw <= 10
        assert by + 3 * bh <= 7


@pytest.mark.parametrize("window", [(24, 12, 2), (48, 24, 1), (60, 60, 1)])
def test_enumerate_peak_stays_within_the_counted_feature_bytes(window):
    enumerate_features(*window)  # numpy's first-call allocations stay out
    tracemalloc.start()
    try:
        table = enumerate_features(*window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.nbytes == 32 * len(table)
    assert table.nbytes < peak <= feature_count(*window) * trainer.FEATURE_BYTES


def test_enumerate_rejects_tiny_window():
    with pytest.raises(ConfigError):
        enumerate_features(2, 9)
    with pytest.raises(ConfigError):
        enumerate_features(9, 9, 0)


# --- sample cache ---


def test_build_cache_codes_match_scalar_path():
    rng = np.random.default_rng(43)
    samples = [
        TrainSample(Frame(6, 6, rng.integers(0, 256, (6, 6), np.uint8)), POSITIVE),
        TrainSample(Frame(6, 6, rng.integers(0, 256, (6, 6), np.uint8)), NEGATIVE),
    ]
    features = enumerate_features(6, 6)
    cache = build_cache(samples, features)
    assert cache.codes.shape == (2, len(features))
    assert cache.positive.tolist() == [True, False]
    for i, s in enumerate(samples):
        ii = imaging.integral(s.window)
        for j, row in enumerate(features.tolist()):
            assert cache.codes[i, j] == mblbp.lbp_code(ii, MbLbpFeature(*row), (0, 0))


def test_build_cache_refuses_codes_over_the_memory_ceiling():
    # 1800 samples x 67,600 stride-1 features of a 40x40 window need 1.02 GiB;
    # every sample shares one frame and the refusal comes before any table
    frame = Frame(40, 40, np.zeros((40, 40), np.uint8))
    samples = [TrainSample(frame, POSITIVE)] * 900 + [TrainSample(frame, NEGATIVE)] * 900
    features = enumerate_features(40, 40)
    assert len(samples) * len(features) * 9 > trainer.CACHE_MAX_BYTES
    refusal = r"1800 samples x 67600 features.*--feature-stride"
    with pytest.raises(ConfigError, match=refusal):
        build_cache(samples, features)
    with pytest.raises(ConfigError, match="67600 features"):
        train_cascade(samples[:900], samples[900:], TrainConfig(1, 1))


def test_train_cascade_refuses_oversized_cache_before_enumerating(monkeypatch):
    # two 640x360 samples have 1,468,166,400 stride-1 features; building that
    # table alone would take minutes and over 100 GB
    def enumerate_nothing(*args):
        raise AssertionError("enumerate_features called before the size check")

    monkeypatch.setattr(trainer, "enumerate_features", enumerate_nothing)
    frame = Frame(640, 360, np.zeros((360, 640), np.uint8))
    pos, neg = [TrainSample(frame, POSITIVE)], [TrainSample(frame, NEGATIVE)]
    with pytest.raises(ConfigError, match=r"2 samples x 1468166400 features"):
        train_cascade(pos, neg, TrainConfig(1, 1))


def test_train_cascade_counts_the_weak_search_tables(monkeypatch):
    # two 60x60 samples have 348,100 stride-1 features: about 54 MB of codes
    # and feature table, but best_weak's three (features, 256) float64
    # tables take another 2 GiB
    def enumerate_nothing(*args):
        raise AssertionError("enumerate_features called before the size check")

    monkeypatch.setattr(trainer, "enumerate_features", enumerate_nothing)
    n_features = feature_count(60, 60)
    assert n_features * (2 * 9 + trainer.FEATURE_BYTES) < trainer.CACHE_MAX_BYTES
    frame = Frame(60, 60, np.zeros((60, 60), np.uint8))
    pos, neg = [TrainSample(frame, POSITIVE)], [TrainSample(frame, NEGATIVE)]
    with pytest.raises(ConfigError, match=rf"2 samples x {n_features} features"):
        train_cascade(pos, neg, TrainConfig(1, 1))


def _window_heavy_samples():
    """1000 positive and 1000 negative 60x60 samples over four random frames.

    At feature_stride 60 a 60x60 window has 400 features, one per block
    size, so their codes, feature table and search tables need 16.1 MB,
    while the samples' prefix tables and pixel stack need 66.7 MB.
    """
    rng = np.random.default_rng(68)
    frames = [Frame(60, 60, rng.integers(0, 256, (60, 60), np.uint8)) for _ in range(4)]
    pos = [TrainSample(frames[k % 4], POSITIVE) for k in range(1000)]
    neg = [TrainSample(frames[k % 4], NEGATIVE) for k in range(1000)]
    return pos, neg


def test_cache_size_counts_each_samples_prefix_table(monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("enumerate_features called before the size check")

    pos, neg = _window_heavy_samples()
    features = enumerate_features(60, 60, 60)
    assert len(features) == 400
    monkeypatch.setattr(trainer, "CACHE_MAX_BYTES", 32 << 20)
    # a count without the per-sample tables would admit these samples
    per_feature = 2000 * trainer.SAMPLE_FEATURE_BYTES + trainer.FEATURE_BYTES
    assert 400 * (per_feature + trainer.SEARCH_FEATURE_BYTES) < trainer.CACHE_MAX_BYTES
    refusal = r"2000 samples x 400 features need 0\.1 GiB of prefix tables"
    with pytest.raises(ConfigError, match=refusal):
        build_cache(pos + neg, features)
    monkeypatch.setattr(trainer, "enumerate_features", enumerate_nothing)
    with pytest.raises(ConfigError, match=refusal):
        train_cascade(pos, neg, TrainConfig(1, 1, feature_stride=60))


def test_build_cache_peak_stays_within_the_counted_bytes():
    pos, neg = _window_heavy_samples()
    features = enumerate_features(60, 60, 60)
    tables = 2000 * 61 * 61 * 4
    tracemalloc.start()
    try:
        build_cache(pos + neg, features)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the prefix tables are most of the peak, and the count covers them
    assert tables < peak <= trainer._cache_bytes(2000, 400, 60, 60)


@pytest.mark.parametrize("size", [6, 9])
def test_build_cache_peak_counts_the_code_plane_temporaries(size):
    # 20,000 small samples at stride 1: the 1x1-block plane's _codes
    # temporaries (about 90 bytes per origin and sample) outweigh the tables
    rng = np.random.default_rng(70)
    frames = [Frame(size, size, rng.integers(0, 256, (size, size), np.uint8)) for _ in range(4)]
    samples = [TrainSample(frames[k % 4], POSITIVE) for k in range(20_000)]
    features = enumerate_features(size, size)
    tracemalloc.start()
    try:
        build_cache(samples, features)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= trainer._cache_bytes(20_000, len(features), size, size)


def test_build_cache_codes_are_c_ordered_samples_by_features():
    pos, neg = _noise_samples(3, (11, 17), seed=69)
    features = enumerate_features(17, 11)
    cache = build_cache(pos + neg, features)
    assert cache.codes.shape == (6, len(features))
    assert cache.codes.dtype == np.uint8 and cache.codes.flags.c_contiguous


def test_build_cache_rejects_mixed_window_sizes():
    a = TrainSample(Frame(6, 6, np.zeros((6, 6), np.uint8)), POSITIVE)
    b = TrainSample(Frame(9, 6, np.zeros((6, 9), np.uint8)), NEGATIVE)
    with pytest.raises(ConfigError):
        build_cache([a, b], enumerate_features(6, 6))
    with pytest.raises(ConfigError):
        build_cache([], enumerate_features(6, 6))


def test_sample_validation():
    with pytest.raises(ConfigError):
        _sample([[0] * 3] * 3, "maybe")
    with pytest.raises(ConfigError):
        _sample([[0] * 3] * 3, POSITIVE, weight=0.0)


# --- weak learning ---


def test_best_weak_separable_data_has_zero_error():
    pos, neg = _separable_samples()
    samples = pos + neg
    n = len(samples)
    samples = [TrainSample(s.window, s.label, 1.0 / n) for s in samples]
    features = enumerate_features(6, 6)
    cache = build_cache(samples, features)
    weak, err = best_weak(samples, features, cache)
    assert err == 0.0
    lut_hits = [
        subset_contains(weak.subset, int(cache.codes[i, weak.feature_index]))
        for i in range(n)
    ]
    assert lut_hits == [s.label == POSITIVE for s in samples]


def test_best_weak_identical_windows_error_half():
    px = [[7] * 6] * 6
    samples = [_sample(px, POSITIVE, 0.5), _sample(px, NEGATIVE, 0.5)]
    features = enumerate_features(6, 6)
    cache = build_cache(samples, features)
    weak, err = best_weak(samples, features, cache)
    assert err == pytest.approx(0.5)
    # tie masses: the code must NOT join the subset
    assert not subset_contains(weak.subset, int(cache.codes[0, weak.feature_index]))


def test_best_weak_matches_exhaustive_search():
    rng = np.random.default_rng(44)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        samples = [
            TrainSample(
                Frame(4, 4, rng.integers(0, 256, (4, 4), np.uint8)),
                POSITIVE if rng.random() < 0.5 else NEGATIVE,
            )
            for _ in range(n)
        ]
        if len({s.label for s in samples}) < 2:
            samples[0] = TrainSample(samples[0].window, POSITIVE)
            samples[1] = TrainSample(samples[1].window, NEGATIVE)
        w = rng.uniform(0.1, 1.0, n)
        w /= w.sum()
        samples = [TrainSample(s.window, s.label, float(v)) for s, v in zip(samples, w)]
        features = enumerate_features(4, 4)
        cache = build_cache(samples, features)
        _, err = best_weak(samples, features, cache)
        weights = np.array([s.weight for s in samples])
        expected = exhaustive_best_error(cache.codes, cache.positive, weights)
        assert err == pytest.approx(expected, abs=1e-12)


def test_best_weak_prefers_first_feature_on_ties():
    # uniform windows share code 255 on every feature, so all features tie
    # at error 0.5 and the first one must win
    samples = [_sample([[9] * 6] * 6, POSITIVE, 0.5), _sample([[2] * 6] * 6, NEGATIVE, 0.5)]
    features = enumerate_features(6, 6)
    cache = build_cache(samples, features)
    weak, err = best_weak(samples, features, cache)
    assert err == pytest.approx(0.5)
    assert weak.feature_index == 0
    assert not subset_contains(weak.subset, 255)  # tied mass stays out


def _weighted(samples, weights):
    return [TrainSample(s.window, s.label, float(w)) for s, w in zip(samples, weights)]


def _assert_matches_bincount_search(samples, features, cache):
    weak, err = best_weak(samples, features, cache)
    weights = np.array([s.weight for s in samples])
    f, in_codes, want = bincount_weak_search(cache.codes, cache.positive, weights)
    assert weak.feature_index == f
    assert weak.subset == subset_from_codes(in_codes)
    assert err.hex() == want.hex()


def test_best_weak_is_bit_identical_to_bincount_search():
    rng = np.random.default_rng(60)
    pos, neg = _noise_samples(30, (7, 8), seed=61)
    samples = pos + neg
    features = enumerate_features(8, 7)
    for _ in range(5):
        weighted = _weighted(samples, rng.uniform(0.01, 1.0, len(samples)))
        _assert_matches_bincount_search(weighted, features, build_cache(weighted, features))


def test_best_weak_is_bit_identical_on_ties():
    # identical windows under both labels and negative twins of positives:
    # many bins tie or differ only in the last bit of their sums
    rng = np.random.default_rng(62)
    flat = Frame(6, 6, np.full((6, 6), 9, np.uint8))
    pos, neg = _separable_samples(8, 8, seed=63)
    samples = (
        pos
        + [TrainSample(flat, POSITIVE)] * 5
        + neg
        + [TrainSample(p.window, NEGATIVE) for p in pos]
        + [TrainSample(flat, NEGATIVE)] * 5
    )
    features = enumerate_features(6, 6)
    for weights in (
        np.full(len(samples), 1.0 / len(samples)),
        np.full(len(samples), 0.1),
        rng.choice([0.1, 0.2, 0.3], len(samples)),
    ):
        weighted = _weighted(samples, weights)
        _assert_matches_bincount_search(weighted, features, build_cache(weighted, features))


def test_best_weak_carries_no_state_between_calls():
    # one cache searched under a sequence of weights answers each call as a
    # fresh cache and the reference do
    rng = np.random.default_rng(64)
    pos, neg = _noise_samples(20, (6, 7), seed=65)
    samples = pos + neg
    features = enumerate_features(7, 6)
    cache = build_cache(samples, features)
    for k in range(6):
        # uniform first, then ever more uneven
        weighted = _weighted(samples, rng.uniform(0.01, 1.0, len(samples)) ** (4 * k))
        fresh = build_cache(weighted, features)
        assert best_weak(weighted, features, cache) == best_weak(weighted, features, fresh)
        _assert_matches_bincount_search(weighted, features, cache)


def test_best_weak_reuses_its_tables_after_the_first_call():
    pos, neg = _noise_samples(20, (12, 12), seed=66)
    samples = pos + neg
    features = enumerate_features(12, 12)
    table_bytes = len(features) * 256 * 8
    cache = build_cache(samples, features)
    rng = np.random.default_rng(67)
    tracemalloc.start()
    try:
        best_weak(samples, features, cache)
        for _ in range(3):
            weighted = _weighted(samples, rng.uniform(0.01, 1.0, len(samples)))
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            best_weak(weighted, features, cache)
            _, peak = tracemalloc.get_traced_memory()
            assert peak - before < table_bytes
    finally:
        tracemalloc.stop()


# --- boosting ---


def _ring_window(center_below=True):
    """6x6 window whose top-left 3x3 grid yields code 170 (or 0)."""
    px = np.full((6, 6), 4, np.uint8)
    if center_below:
        px[:3, :3] = [[9, 1, 9], [1, 5, 1], [9, 1, 9]]  # code 170
    else:
        px[:3, :3] = [[1, 1, 1], [1, 9, 1], [1, 1, 1]]  # code 0
    return Frame(6, 6, px)


def test_boost_round_alpha_and_mass_balance():
    # one positive/negative pair shares code 170 (a tie, excluded from the
    # subset): error is exactly 0.25 and alpha = 0.5*ln(3); after the
    # update the misclassified mass must be exactly one half
    samples = [
        TrainSample(_ring_window(True), POSITIVE, 0.25),
        TrainSample(_frame([[7] * 6] * 6), POSITIVE, 0.25),
        TrainSample(_ring_window(True), NEGATIVE, 0.25),
        TrainSample(_ring_window(False), NEGATIVE, 0.25),
    ]
    features = enumerate_features(6, 6)[:1]
    cache = build_cache(samples, features)
    assert cache.codes[:, 0].tolist() == [170, 255, 170, 0]
    weak, err = best_weak(samples, features, cache)
    assert err == pytest.approx(0.25)
    assert subset_contains(weak.subset, 255)
    assert not subset_contains(weak.subset, 170)
    alpha, updated = boost_round(samples, weak, err, cache)
    assert alpha == pytest.approx(0.5 * math.log(3.0))
    lut_hits = np.array(
        [subset_contains(weak.subset, int(c)) for c in cache.codes[:, weak.feature_index]]
    )
    correct = lut_hits == cache.positive
    new_w = np.array([s.weight for s in updated])
    assert new_w.sum() == pytest.approx(1.0, abs=1e-12)
    assert new_w[~correct].sum() == pytest.approx(0.5, abs=1e-12)


def _boost_round_with_replace(samples, weak, error, cache):
    """The boosting update with the samples rebuilt by dataclasses.replace."""
    eps = min(max(error, trainer.EPSILON_CLAMP), 1.0 - trainer.EPSILON_CLAMP)
    alpha = 0.5 * math.log((1.0 - eps) / eps)
    predicted_pos = mblbp.subset_mask(weak.subset)[cache.codes[:, weak.feature_index]]
    correct = predicted_pos == cache.positive
    weights = np.array([s.weight for s in samples], dtype=np.float64)
    weights = weights * np.where(correct, math.exp(-alpha), math.exp(alpha))
    weights /= weights.sum()
    return alpha, [replace(s, weight=float(w)) for s, w in zip(samples, weights)]


def test_boost_round_weights_equal_a_replace_reference():
    pos, neg = _noise_samples(15, (12, 12), seed=70)
    features = enumerate_features(12, 12, 2)
    cache = build_cache(pos + neg, features)
    rng = np.random.default_rng(71)
    for _ in range(5):
        samples = _weighted(pos + neg, rng.uniform(0.01, 1.0, len(cache.positive)))
        weak, err = best_weak(samples, features, cache)
        alpha, updated = boost_round(samples, weak, err, cache)
        want_alpha, want = _boost_round_with_replace(samples, weak, err, cache)
        assert alpha == want_alpha
        assert [type(s.weight) for s in updated] == [float] * len(want)
        got_w = np.array([s.weight for s in updated]).tobytes()
        assert got_w == np.array([s.weight for s in want]).tobytes()
        assert all(u.window is s.window and u.label == s.label for u, s in zip(updated, samples))


def test_boost_round_specific_alpha_value():
    # hand-set error of exactly 1/4
    samples = [
        _sample([[10] * 6] * 6, POSITIVE, 0.25),
        _sample([[20] * 6] * 6, POSITIVE, 0.25),
        _sample([[30] * 6] * 6, POSITIVE, 0.25),
        _sample([[40] * 6] * 6, NEGATIVE, 0.25),
    ]
    features = enumerate_features(6, 6)[:1]
    cache = build_cache(samples, features)
    # uniform windows all share code 255: subset stays empty, so every
    # positive is wrong: error 0.75... build the weak by hand instead
    weak = mblbp.WeakClassifier(0, mblbp.subset_from_codes([255]), 1.0, -1.0)
    alpha, updated = boost_round(samples, weak, 0.25, cache)
    assert alpha == pytest.approx(0.5 * math.log(3.0))


def test_boost_round_clamps_zero_error():
    pos, neg = _separable_samples()
    samples = pos + neg
    n = len(samples)
    samples = [TrainSample(s.window, s.label, 1.0 / n) for s in samples]
    features = enumerate_features(6, 6)
    cache = build_cache(samples, features)
    weak, err = best_weak(samples, features, cache)
    assert err == 0.0
    alpha, updated = boost_round(samples, weak, err, cache)
    assert math.isfinite(alpha)
    assert alpha == pytest.approx(0.5 * math.log((1 - 1e-10) / 1e-10))
    assert all(math.isfinite(s.weight) and s.weight > 0 for s in updated)


# --- stage training ---


def test_train_stage_separates_training_data():
    pos, neg = _separable_samples()
    samples = pos + neg
    features = enumerate_features(6, 6)
    config = TrainConfig(max_weaks_per_stage=4, n_stages=1, stage_tpr_target=1.0)
    cache = build_cache(samples, features)
    stage = train_stage(samples, features, config, cache)
    assert len(stage.weaks) == 1  # perfect weak stops the loop
    scores = trainer._stage_scores(stage, cache)
    passed = scores >= stage.threshold
    assert passed[cache.positive].all()
    assert not passed[~cache.positive].any()


def test_train_stage_threshold_is_min_positive_score_at_full_tpr():
    pos, neg = _separable_samples(5, 5, seed=46)
    samples = pos + neg
    features = enumerate_features(6, 6)
    config = TrainConfig(max_weaks_per_stage=3, n_stages=1, stage_tpr_target=1.0)
    cache = build_cache(samples, features)
    stage = train_stage(samples, features, config, cache)
    scores = trainer._stage_scores(stage, cache)
    assert stage.threshold == pytest.approx(scores[cache.positive].min())


def test_train_stage_reaches_tpr_target_on_noisy_labels():
    rng = np.random.default_rng(47)
    samples = [
        TrainSample(
            Frame(6, 6, rng.integers(0, 256, (6, 6), np.uint8)),
            POSITIVE if i % 2 else NEGATIVE,
        )
        for i in range(40)
    ]
    features = enumerate_features(6, 6)
    config = TrainConfig(max_weaks_per_stage=5, n_stages=1, stage_tpr_target=0.9)
    cache = build_cache(samples, features)
    stage = train_stage(samples, features, config, cache)
    scores = trainer._stage_scores(stage, cache)
    tpr = (scores[cache.positive] >= stage.threshold).mean()
    assert tpr >= 0.9
    assert 1 <= len(stage.weaks) <= 5


def test_train_stage_weak_leaves_carry_alpha():
    pos, neg = _separable_samples()
    config = TrainConfig(max_weaks_per_stage=2, n_stages=1)
    features = enumerate_features(6, 6)
    stage = train_stage(pos + neg, features, config, build_cache(pos + neg, features))
    for w in stage.weaks:
        assert w.leaf_in > 0
        assert w.leaf_out == -w.leaf_in


def test_train_stage_requires_both_labels():
    pos, _ = _separable_samples()
    features = enumerate_features(6, 6)
    with pytest.raises(ConfigError):
        train_stage(pos, features, TrainConfig(2, 1), build_cache(pos, features))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(0, 1)
    with pytest.raises(ConfigError):
        TrainConfig(1, 0)
    with pytest.raises(ConfigError):
        TrainConfig(1, 1, stage_tpr_target=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(1, 1, feature_stride=0)


# --- cascade training ---


def test_train_cascade_separable_end_to_end():
    pos, neg = _separable_samples(8, 8, seed=48)
    config = TrainConfig(max_weaks_per_stage=4, n_stages=3, stage_tpr_target=1.0)
    model = train_cascade(pos, neg, config)
    assert (model.window_w, model.window_h) == (6, 6)
    for s in pos:
        assert mblbp.eval_window(imaging.integral(s.window), model, (0, 0))
    for s in neg:
        assert not mblbp.eval_window(imaging.integral(s.window), model, (0, 0))


def test_train_cascade_stops_when_negatives_exhausted():
    pos, neg = _separable_samples(8, 8, seed=49)
    config = TrainConfig(max_weaks_per_stage=4, n_stages=5, stage_tpr_target=1.0)
    model = train_cascade(pos, neg, config)
    # the first stage already rejects every negative, so training stops
    assert len(model.stages) == 1


def test_train_cascade_compacts_feature_table():
    pos, neg = _separable_samples(8, 8, seed=50)
    config = TrainConfig(max_weaks_per_stage=3, n_stages=2)
    model = train_cascade(pos, neg, config)
    used = {w.feature_index for st in model.stages for w in st.weaks}
    assert used == set(range(len(model.features)))


def test_train_cascade_round_trips_through_json():
    pos, neg = _separable_samples(8, 8, seed=51)
    config = TrainConfig(max_weaks_per_stage=3, n_stages=2, stage_tpr_target=1.0)
    model = train_cascade(pos, neg, config)
    again = load_model(save_model(model))
    assert again == model
    for s in pos + neg:
        ii = imaging.integral(s.window)
        assert mblbp.eval_window(ii, again, (0, 0)) == mblbp.eval_window(ii, model, (0, 0))


def test_train_cascade_requires_both_pools():
    pos, neg = _separable_samples()
    with pytest.raises(ConfigError):
        train_cascade(pos, [], TrainConfig(2, 1))
    with pytest.raises(ConfigError):
        train_cascade([], neg, TrainConfig(2, 1))


# --- one cache per cascade ---


def _noise_samples(n, size, seed):
    rng = np.random.default_rng(seed)
    h, w = size

    def make(label):
        return TrainSample(Frame(w, h, rng.integers(0, 256, (h, w), np.uint8)), label)

    return [make(POSITIVE) for _ in range(n)], [make(NEGATIVE) for _ in range(n)]


def _stages_rebuilding_cache(pos, neg, config):
    """Reference cascade: a fresh cache over the surviving samples at every stage."""
    w, h = pos[0].window.width, pos[0].window.height
    features = enumerate_features(w, h, config.feature_stride)
    stages = []
    active = list(neg)
    for _ in range(config.n_stages):
        samples = list(pos) + active
        cache = build_cache(samples, features)
        stage = train_stage(samples, features, config, cache)
        stages.append(stage)
        scores = trainer._stage_scores(stage, cache)[len(pos) :]
        active = [s for s, score in zip(active, scores) if score >= stage.threshold]
        if not active:
            break
    return features, stages


def _assert_same_cascade(model, features, stages):
    assert len(model.stages) == len(stages)
    for got, want in zip(model.stages, stages):
        assert got.threshold == want.threshold
        assert [model.features[w.feature_index] for w in got.weaks] == [
            MbLbpFeature(*features[w.feature_index].tolist()) for w in want.weaks
        ]
        assert [replace(w, feature_index=0) for w in got.weaks] == [
            replace(w, feature_index=0) for w in want.weaks
        ]


def _twin_samples():
    """Twin negatives equal some positives, so no stage can reject them all."""
    pos, neg = _separable_samples(8, 8, seed=52)
    return pos, neg + [TrainSample(p.window, NEGATIVE) for p in pos[:3]]


def test_train_cascade_equals_per_stage_caches_when_every_stage_trains():
    pos, neg = _twin_samples()
    config = TrainConfig(max_weaks_per_stage=2, n_stages=3, stage_tpr_target=1.0)
    features, stages = _stages_rebuilding_cache(pos, neg, config)
    assert len(stages) == 3
    _assert_same_cascade(train_cascade(pos, neg, config), features, stages)


def test_train_cascade_equals_per_stage_caches_when_negatives_run_out():
    pos, neg = _noise_samples(40, (4, 4), seed=0)
    config = TrainConfig(max_weaks_per_stage=1, n_stages=6, stage_tpr_target=0.9)
    features, stages = _stages_rebuilding_cache(pos, neg, config)
    assert 1 < len(stages) < 6  # stages shrank the pool before it emptied
    _assert_same_cascade(train_cascade(pos, neg, config), features, stages)


def test_train_cascade_builds_one_cache(monkeypatch):
    calls = []
    real = trainer.build_cache

    def counting(samples, features):
        calls.append(len(samples))
        return real(samples, features)

    monkeypatch.setattr(trainer, "build_cache", counting)
    pos, neg = _twin_samples()
    model = train_cascade(pos, neg, TrainConfig(2, 3, stage_tpr_target=1.0))
    assert len(model.stages) == 3
    assert calls == [len(pos) + len(neg)]


def test_train_cascade_builds_feature_objects_only_for_the_model(monkeypatch):
    built = []

    def counting(*row):
        built.append(row)
        return MbLbpFeature(*row)

    monkeypatch.setattr(trainer, "MbLbpFeature", counting)
    # negative twins of positives keep every weak imperfect and both stages training
    pos, neg = _separable_samples(12, 12, seed=71, size=(12, 24))
    neg += [TrainSample(p.window, NEGATIVE) for p in pos[:4]]
    assert feature_count(24, 12, 2) == 576
    model = train_cascade(pos, neg, TrainConfig(3, 2, feature_stride=2))
    assert len(model.stages) == 2
    assert len(built) == len(model.features) > 1
    assert tuple(MbLbpFeature(*row) for row in built) == model.features
