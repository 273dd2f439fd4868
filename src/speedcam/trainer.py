"""Desk-scale AdaBoost training of block-pattern cascades.

Weak learning is exact for a fixed feature: each 8-bit code goes into
the subset iff the positive weight mass at that code exceeds the
negative mass, which minimizes weighted 0-1 loss directly. Boosting is
the discrete variant with alphas folded into the leaf votes, so trained
models evaluate through the ordinary cascade path. Between stages,
negatives the cascade already rejects are dropped (a light stand-in for
full hard-negative mining).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from speedcam import kernels
from speedcam.errors import ConfigError
from speedcam.imaging import Frame, prefix_sums
from speedcam.mblbp import (
    CascadeModel,
    MbLbpFeature,
    Stage,
    WeakClassifier,
    scaled_feature_arrays,
    subset_from_codes,
    subset_mask,
    vote_table,
)

POSITIVE = "positive"
NEGATIVE = "negative"

# ceiling on the samples' prefix tables, the feature table, a cache's codes
# and best_weak's search arrays
CACHE_MAX_BYTES = 1 << 30

# one enumerated MbLbpFeature with its list slot (112 B on 64-bit CPython, by
# tracemalloc) plus its four int64 entries in the scaled_feature_arrays
# build_cache places the features with
FEATURE_BYTES = 112 + 4 * 8

# per sample and feature: the uint8 code, best_weak's int64 bin key and its
# float64 weight plane
SAMPLE_FEATURE_BYTES = 1 + 8 + 8

# per feature: best_weak's (2, nf, 256) float64 mass table and its
# (nf, 256) minimum
SEARCH_FEATURE_BYTES = 3 * 256 * 8

# boosting clamps a weak's error into [EPSILON_CLAMP, 1 - EPSILON_CLAMP],
# so a perfect weak gets a finite alpha
EPSILON_CLAMP = 1e-10


@dataclass
class TrainSample:
    """One window-sized example with its boosting weight."""

    window: Frame
    label: str
    weight: float = 1.0

    def __post_init__(self):
        if self.label not in (POSITIVE, NEGATIVE):
            raise ConfigError(f"label {self.label!r} must be {POSITIVE} or {NEGATIVE}")
        if self.weight <= 0:
            raise ConfigError(f"weight {self.weight} must be positive")


@dataclass(frozen=True)
class TrainConfig:
    max_weaks_per_stage: int
    n_stages: int
    stage_tpr_target: float = 0.995
    feature_stride: int = 1

    def __post_init__(self):
        if self.max_weaks_per_stage < 1:
            raise ConfigError("max_weaks_per_stage must be at least 1")
        if self.n_stages < 1:
            raise ConfigError("n_stages must be at least 1")
        if not (0.0 < self.stage_tpr_target <= 1.0):
            raise ConfigError(
                f"stage_tpr_target {self.stage_tpr_target} outside (0, 1]"
            )
        if self.feature_stride < 1:
            raise ConfigError("feature_stride must be at least 1")


def enumerate_features(window_w: int, window_h: int, stride: int = 1) -> list[MbLbpFeature]:
    """Every 3x3 block grid that fits the window, anchors on the stride grid.

    Block sizes take every integer value; only the anchor positions are
    stride-quantized. Order is bh-major, then bw, by, bx.
    """
    if window_w < 3 or window_h < 3:
        raise ConfigError(f"window {window_w}x{window_h} smaller than 3x3")
    if stride < 1:
        raise ConfigError("stride must be at least 1")
    features = []
    for bh in range(1, window_h // 3 + 1):
        for bw in range(1, window_w // 3 + 1):
            for by in range(0, window_h - 3 * bh + 1, stride):
                for bx in range(0, window_w - 3 * bw + 1, stride):
                    features.append(MbLbpFeature(bx, by, bw, bh))
    return features


def feature_count(window_w: int, window_h: int, stride: int = 1) -> int:
    """len(enumerate_features(window_w, window_h, stride)), without enumerating.

    A feature's x choices (bw, then bx) do not depend on its y choices (bh,
    then by), so the count is the product of one sum per axis.
    """

    def anchors(size):
        return sum((size - 3 * b) // stride + 1 for b in range(1, size // 3 + 1))

    return anchors(window_w) * anchors(window_h)


def _cache_bytes(n_samples: int, n_features: int, window_w: int, window_h: int) -> int:
    """Bytes a cache over these samples and features holds at most, with the
    search arrays ``best_weak`` derives from it."""
    # build_cache's (h+1, w+1) prefix table of each sample, and the uint8
    # pixel stack it is summed from
    table_bytes = np.dtype(kernels.TABLE_DTYPE).itemsize
    per_sample = (window_h + 1) * (window_w + 1) * table_bytes + window_h * window_w
    per_feature = n_samples * SAMPLE_FEATURE_BYTES + FEATURE_BYTES + SEARCH_FEATURE_BYTES
    # codes_stack's code-plane temporaries, held within one fixed budget
    return n_samples * per_sample + n_features * per_feature + kernels.CODES_STACK_BYTES


def _check_cache_size(n_samples: int, n_features: int, window_w: int, window_h: int) -> None:
    """Refuse with ConfigError when a cache would exceed CACHE_MAX_BYTES."""
    need = _cache_bytes(n_samples, n_features, window_w, window_h)
    if need > CACHE_MAX_BYTES:
        raise ConfigError(
            f"{n_samples} samples x {n_features} features need "
            f"{need / 2**30:.1f} GiB of prefix tables, features, codes and "
            f"weak-search tables, over "
            f"the {CACHE_MAX_BYTES / 2**30:g} GiB limit; use a larger --feature-stride"
        )


@dataclass(eq=False)
class SampleCache:
    """Precomputed per-feature codes of every sample.

    ``search`` holds ``best_weak``'s arrays, built by its first call on the
    cache and refilled in place by later ones, so a cache that is never
    searched never holds them.
    """

    codes: np.ndarray  # (n, n_features) uint8
    positive: np.ndarray  # (n,) bool
    search: "_WeakSearch | None" = field(default=None, init=False, repr=False)


class _WeakSearch:
    """Flat bin keys of one cache and the scratch one weak search fills.

    ``keys[i, f]`` is ``f * 256 + code``, offset by ``nf * 256`` on negative
    rows, so one pass over it fills the positive and negative mass tables.
    """

    def __init__(self, cache: SampleCache):
        n, nf = cache.codes.shape
        self.keys = cache.codes.astype(np.int64)
        self.keys += np.arange(nf, dtype=np.int64) * 256
        self.keys[~cache.positive] += nf * 256
        self.plane = np.empty((n, nf), dtype=np.float64)
        self.masses = np.empty((2, nf, 256), dtype=np.float64)
        self.mins = np.empty((nf, 256), dtype=np.float64)


def build_cache(samples: list[TrainSample], features: list[MbLbpFeature]) -> SampleCache:
    """Stack the sample pixels, take their prefix sums and evaluate every
    feature on every sample.

    Refuses with ConfigError, before allocating, when the prefix tables, the
    feature table, the codes and the arrays ``best_weak`` derives from them
    would exceed ``CACHE_MAX_BYTES`` (``_check_cache_size``).
    """
    if not samples:
        raise ConfigError("no samples")
    if not features:
        raise ConfigError("no features")
    w0, h0 = samples[0].window.width, samples[0].window.height
    for s in samples:
        if (s.window.width, s.window.height) != (w0, h0):
            raise ConfigError(
                f"sample window {s.window.width}x{s.window.height} "
                f"does not match {w0}x{h0}"
            )
    _check_cache_size(len(samples), len(features), w0, h0)
    table = prefix_sums(np.stack([s.window.pixels for s in samples], axis=-1), kernels.TABLE_DTYPE)
    codes = kernels.codes_stack(table, *scaled_feature_arrays(features, 1.0))
    positive = np.array([s.label == POSITIVE for s in samples], dtype=bool)
    return SampleCache(codes=codes, positive=positive)


def best_weak(
    samples: list[TrainSample],
    features: list[MbLbpFeature],
    cache: SampleCache,
):
    """Minimal weighted-error weak over all features; ties take the first.

    For each feature, code c joins the subset iff positive mass at c
    strictly exceeds negative mass; the error is then the total of the
    losing masses, sum(min(pos_mass, neg_mass)). The masses are summed in
    sample order (``np.add.at`` adds in C order of the keys), so ties fall
    the same way on every call.
    """
    weights = np.array([s.weight for s in samples], dtype=np.float64)
    if cache.search is None:
        cache.search = _WeakSearch(cache)
    search = cache.search
    search.plane[...] = weights[:, None]
    search.masses.fill(0.0)
    np.add.at(search.masses.reshape(-1), search.keys.reshape(-1), search.plane.reshape(-1))
    pos_mass, neg_mass = search.masses
    errors = np.minimum(pos_mass, neg_mass, out=search.mins).sum(axis=1)
    fbest = int(np.argmin(errors))  # first occurrence keeps enumeration order
    in_codes = np.nonzero(pos_mass[fbest] > neg_mass[fbest])[0]
    weak = WeakClassifier(
        feature_index=fbest,
        subset=subset_from_codes(int(c) for c in in_codes),
        leaf_in=1.0,
        leaf_out=-1.0,
    )
    return weak, float(errors[fbest])


def boost_round(
    samples: list[TrainSample],
    weak: WeakClassifier,
    error: float,
    cache: SampleCache,
):
    """One discrete boosting update: (alpha, reweighted samples).

    alpha = half the log odds of the clamped error; correct samples
    scale by e^-alpha, mistakes by e^alpha, then weights renormalize.
    """
    eps = min(max(error, EPSILON_CLAMP), 1.0 - EPSILON_CLAMP)
    alpha = 0.5 * math.log((1.0 - eps) / eps)
    predicted_pos = subset_mask(weak.subset).take(cache.codes[:, weak.feature_index])
    correct = predicted_pos == cache.positive
    weights = np.array([s.weight for s in samples], dtype=np.float64)
    weights = weights * np.where(correct, math.exp(-alpha), math.exp(alpha))
    weights /= weights.sum()
    updated = [TrainSample(s.window, s.label, w) for s, w in zip(samples, weights.tolist())]
    return alpha, updated


def _stage_scores(stage: Stage, cache: SampleCache) -> np.ndarray:
    scores = np.zeros(cache.codes.shape[0], dtype=np.float64)
    for votes, w in zip(vote_table(stage.weaks), stage.weaks):
        scores += votes.take(cache.codes[:, w.feature_index])
    return scores


def train_stage(
    samples: list[TrainSample],
    features: list[MbLbpFeature],
    config: TrainConfig,
    cache: SampleCache | None = None,
) -> Stage:
    """Boost weaks until the cap (or a perfect weak), then set the threshold.

    Weights start uniform. The threshold is the largest value passing at
    least stage_tpr_target of the positive training samples: the k-th
    highest positive score with k = ceil(target * n_pos).
    """
    labels = {s.label for s in samples}
    if labels != {POSITIVE, NEGATIVE}:
        raise ConfigError("training a stage needs both positive and negative samples")
    if cache is None:
        cache = build_cache(samples, features)
    n = len(samples)
    current = [TrainSample(s.window, s.label, 1.0 / n) for s in samples]
    folded = []
    for _ in range(config.max_weaks_per_stage):
        weak, err = best_weak(current, features, cache)
        alpha, current = boost_round(current, weak, err, cache)
        folded.append(replace(weak, leaf_in=alpha, leaf_out=-alpha))
        if err < EPSILON_CLAMP:
            break
    stage = Stage(threshold=0.0, weaks=tuple(folded))
    scores = _stage_scores(stage, cache)
    pos_scores = np.sort(scores[cache.positive])[::-1]
    k = math.ceil(config.stage_tpr_target * pos_scores.size)
    threshold = float(pos_scores[k - 1])
    return Stage(threshold=threshold, weaks=tuple(folded))


def train_cascade(
    pos: list[TrainSample], neg: list[TrainSample], config: TrainConfig
) -> CascadeModel:
    """Train stages sequentially, dropping already-rejected negatives between.

    Stops at n_stages or as soon as no negative survives the cascade.
    The returned model's feature table holds only the features some weak
    actually uses, in first-use order.
    """
    if not pos or not neg:
        raise ConfigError("training needs at least one positive and one negative")
    window_w = pos[0].window.width
    window_h = pos[0].window.height
    # refuse an oversized cache before the feature table is built
    _check_cache_size(
        len(pos) + len(neg),
        feature_count(window_w, window_h, config.feature_stride),
        window_w,
        window_h,
    )
    features = enumerate_features(window_w, window_h, config.feature_stride)

    # one cache over the positives then every negative; each stage trains
    # on a row subset: the positives and the still-active negatives, in order
    full = build_cache(list(pos) + list(neg), features)
    n_pos = len(pos)
    active = np.arange(len(neg))
    stages = []
    for _ in range(config.n_stages):
        rows = np.concatenate([np.arange(n_pos), n_pos + active])
        cache = SampleCache(full.codes[rows], full.positive[rows])
        samples = list(pos) + [neg[i] for i in active]
        stage = train_stage(samples, features, config, cache)
        stages.append(stage)
        neg_scores = _stage_scores(stage, cache)[n_pos:]
        active = active[neg_scores >= stage.threshold]
        if not active.size:
            break

    index_map = {}
    used = []
    remapped_stages = []
    for stage in stages:
        weaks = []
        for w in stage.weaks:
            if w.feature_index not in index_map:
                index_map[w.feature_index] = len(used)
                used.append(features[w.feature_index])
            weaks.append(replace(w, feature_index=index_map[w.feature_index]))
        remapped_stages.append(Stage(stage.threshold, tuple(weaks)))
    return CascadeModel(
        tuple(used), tuple(remapped_stages), window_w=window_w, window_h=window_h
    )
