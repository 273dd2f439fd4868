"""Scale ladder, sliding-window scan, grouping, and vehicle selection."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from oracles import closure_partition, round_half_up, similar_rects
from speedcam import detector, imaging, mblbp
from speedcam.detector import Detection, DetectorParams, group_rects, scale_schedule, select_vehicle
from speedcam.errors import ConfigError, NoScaleError
from speedcam.imaging import Frame, Rect
from speedcam.mblbp import CascadeModel, MbLbpFeature, Stage, WeakClassifier


def test_params_validation():
    DetectorParams()  # defaults are legal
    with pytest.raises(ConfigError):
        DetectorParams(min_size_fraction=0.0)
    with pytest.raises(ConfigError):
        DetectorParams(min_size_fraction=1.5)
    with pytest.raises(ConfigError):
        DetectorParams(scale_factor=1.0)
    with pytest.raises(ConfigError):
        DetectorParams(stride_base=0)
    with pytest.raises(ConfigError):
        DetectorParams(min_neighbors=0)
    with pytest.raises(ConfigError):
        DetectorParams(group_eps=-0.1)
    # a NaN compares false and an infinity overflows the ladder: both are refused
    for name in ("scale_factor", "group_eps"):
        for bad in [math.nan, math.inf]:
            with pytest.raises(ConfigError, match=f"{name} {bad} must be finite"):
                DetectorParams(**{name: bad})


# --- scale schedule ---


def test_schedule_starts_at_min_size_fraction():
    scales = scale_schedule(1920, 1080, 48, 24, DetectorParams())
    assert scales[0] == pytest.approx(0.3 * 1080 / 24)  # 13.5


def test_schedule_single_scale_when_window_fills_frame():
    params = DetectorParams(min_size_fraction=1.0)
    assert scale_schedule(24, 24, 24, 24, params) == [1.0]


def test_schedule_matches_recurrence_and_stays_inside_frame():
    params = DetectorParams()
    scales = scale_schedule(1920, 1080, 48, 24, params)
    expected = []
    s = params.min_size_fraction * 1080 / 24
    while round_half_up(48 * s) <= 1920 and round_half_up(24 * s) <= 1080:
        expected.append(s)
        s *= params.scale_factor
    assert scales == expected
    assert round_half_up(24 * scales[-1]) <= 1080
    overshoot = scales[-1] * params.scale_factor
    assert (
        round_half_up(48 * overshoot) > 1920 or round_half_up(24 * overshoot) > 1080
    )


def test_schedule_is_geometric():
    scales = scale_schedule(1920, 1080, 48, 24, DetectorParams(scale_factor=1.25))
    ratios = [b / a for a, b in zip(scales, scales[1:])]
    assert ratios == pytest.approx([1.25] * len(ratios))


def test_schedule_rejects_subwindow_minimum():
    # 0.3 * 24 / 24 = 0.3: smaller than the model window itself
    with pytest.raises(NoScaleError):
        scale_schedule(640, 24, 48, 24, DetectorParams())


def test_schedule_width_can_be_the_binding_constraint():
    params = DetectorParams(min_size_fraction=0.12)
    scales = scale_schedule(300, 1000, 48, 24, params)
    assert scales == pytest.approx([5.0, 5.5, 6.05])
    nxt = scales[-1] * params.scale_factor
    assert round_half_up(48 * nxt) > 300
    assert round_half_up(24 * nxt) <= 1000  # height alone would have allowed it


def test_schedule_ends_where_the_next_scale_overflows():
    assert scale_schedule(640, 360, 48, 24, DetectorParams(scale_factor=1e308)) == [4.5]


def test_schedule_refuses_a_ladder_longer_than_max_scales(monkeypatch):
    n = len(scale_schedule(1920, 1080, 48, 24, DetectorParams()))
    monkeypatch.setattr(detector, "MAX_SCALES", n)
    assert len(scale_schedule(1920, 1080, 48, 24, DetectorParams())) == n
    monkeypatch.setattr(detector, "MAX_SCALES", n - 1)
    with pytest.raises(ConfigError, match=f"scale_factor 1.1 gives more than {n - 1} scales"):
        scale_schedule(1920, 1080, 48, 24, DetectorParams())
    monkeypatch.undo()
    # the ladder grows as 1/ln(scale_factor): this one would hold about 10^7 scales
    start = time.monotonic()
    with pytest.raises(ConfigError, match="scale_factor 1.0000001 gives more than 1024"):
        scale_schedule(640, 360, 48, 24, DetectorParams(scale_factor=1.0000001))
    assert time.monotonic() - start < 1


def test_schedule_rejects_frame_narrower_than_first_window():
    # s0 = 12.5 gives a 600px-wide window, frame is 100px wide
    with pytest.raises(NoScaleError):
        scale_schedule(100, 1000, 48, 24, DetectorParams())


# --- scan ---


def _reject_all_model():
    return CascadeModel(
        (MbLbpFeature(0, 0, 1, 1),),
        (Stage(0.0, (WeakClassifier(0, (0,) * 8, 1.0, -1.0),)),),
        3,
        3,
    )


def test_scan_uniform_frame_finds_nothing():
    frame = Frame(64, 32, np.full((32, 64), 50, np.uint8))
    params = DetectorParams(min_size_fraction=0.5, scale_factor=2.0)
    assert detector.scan(frame, _reject_all_model(), params) == []


def test_scan_finds_patch_at_exact_origin(patch_case):
    case = patch_case()
    rects = detector.scan(case.frames[0], case.model, case.params)
    assert Rect(20, 150, 96, 48) in rects
    for r in rects:
        # locked to the patch: nothing accepted away from it
        assert abs(r.x - 20) <= case.params.stride_base
        assert abs(r.y - 150) <= case.params.stride_base


def test_scan_is_deterministic(patch_case):
    case = patch_case()
    first = detector.scan(case.frames[0], case.model, case.params)
    second = detector.scan(case.frames[0], case.model, case.params)
    assert first == second


def test_scan_orders_scale_major_then_rows(patch_case):
    case = patch_case()
    rects = detector.scan(case.frames[0], case.model, case.params)
    keys = [(r.w, r.y, r.x) for r in rects]
    assert keys == sorted(keys)


def test_scan_survives_feature_grid_rounding_overshoot():
    # bx=15, bw=11 fits the 48px window exactly; at scale 1.15 the grid
    # rounds to 17 + 3*13 = 56 > 55, so origins must be clamped tighter.
    model = CascadeModel(
        (MbLbpFeature(15, 0, 11, 8),),
        (Stage(-10.0, (WeakClassifier(0, (0,) * 8, 1.0, -1.0),)),),
        48,
        24,
    )
    params = DetectorParams(min_size_fraction=0.92, scale_factor=8.0)
    rng = np.random.default_rng(21)
    frame = Frame(80, 30, rng.integers(0, 256, (30, 80), np.uint8))
    scales = scale_schedule(80, 30, 48, 24, params)
    assert scales == pytest.approx([1.15])
    rects = detector.scan(frame, model, params)  # must not fault
    for r in rects:
        assert r.x + 56 <= 80  # origin range respected the wider grid extent


def test_scan_plan_is_built_once_per_model_params_and_size(patch_case, monkeypatch):
    case = patch_case(n_frames=3)
    built = []
    build = detector._build_plan

    def counted(*args):
        built.append(args[2:])
        return build(*args)

    monkeypatch.setattr(detector, "_build_plan", counted)
    monkeypatch.setattr(detector, "_last_plan", None)
    for frame in case.frames:
        detector.detect(frame, case.model, case.params)
    assert built == [(640, 360)]
    plan = detector.scan_plan(case.model, case.params, 640, 360)
    equal = DetectorParams(**vars(case.params))
    assert detector.scan_plan(case.model, equal, 640, 360) is plan
    assert len(built) == 1
    twin = CascadeModel(case.model.features, case.model.stages, 48, 24)
    assert detector.scan_plan(twin, case.params, 640, 360) is not plan  # another object
    assert detector.scan_plan(twin, case.params, 600, 360).size == (600, 360)
    other = DetectorParams(**{**vars(case.params), "stride_base": 3})
    assert detector.scan_plan(twin, other, 600, 360).params == other
    assert len(built) == 4


# --- grouping ---


def test_group_empty_input():
    assert group_rects([], DetectorParams()) == []


def test_group_identical_rects_fuse():
    rects = [Rect(10, 20, 40, 20)] * 3
    dets = group_rects(rects, DetectorParams(min_neighbors=3), window_h=20)
    assert dets == [Detection(Rect(10, 20, 40, 20), 1.0, 3)]


def test_group_discards_undersupported_class():
    rects = [Rect(10, 20, 40, 20), Rect(11, 21, 40, 20), Rect(9, 19, 40, 20), Rect(200, 200, 40, 20)]
    dets = group_rects(rects, DetectorParams(min_neighbors=3), window_h=20)
    assert len(dets) == 1
    assert dets[0].neighbors == 3
    assert dets[0].rect == Rect(10, 20, 40, 20)
    both = group_rects(rects, DetectorParams(min_neighbors=1), window_h=20)
    assert len(both) == 2


def test_group_closes_transitively():
    # a~b and b~c but a and c differ by 12 > eps*mean width
    a, b, c = Rect(0, 0, 40, 40), Rect(6, 0, 40, 40), Rect(12, 0, 40, 40)
    params = DetectorParams(min_neighbors=3, group_eps=0.2)
    dets = group_rects([a, b, c], params)
    assert len(dets) == 1
    assert dets[0].rect == Rect(6, 0, 40, 40)


def test_group_matches_closure_oracle_on_random_rects():
    rng = np.random.default_rng(22)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        rects = [
            Rect(
                int(rng.integers(0, 60)),
                int(rng.integers(0, 60)),
                int(rng.integers(8, 40)),
                int(rng.integers(8, 40)),
            )
            for _ in range(n)
        ]
        eps = float(rng.uniform(0.05, 0.5))
        params = DetectorParams(min_neighbors=1, group_eps=eps)
        expected_classes = closure_partition(
            rects, lambda r, q: similar_rects(r, q, eps)
        )
        expected = []
        for members_idx in expected_classes:
            members = [rects[i] for i in members_idx]
            k = len(members)
            expected.append(
                (
                    Rect(
                        round_half_up(sum(r.x for r in members) / k),
                        round_half_up(sum(r.y for r in members) / k),
                        round_half_up(sum(r.w for r in members) / k),
                        round_half_up(sum(r.h for r in members) / k),
                    ),
                    k,
                )
            )
        got = group_rects(rects, params)
        key = lambda item: (item[0].x, item[0].y, item[0].w, item[0].h, item[1])
        assert sorted(((d.rect, d.neighbors) for d in got), key=key) == sorted(
            expected, key=key
        )


def _touching_clusters(rng, n_clusters=40, per=30):
    """Shuffled clusters of jittered rects; clusters 9 or 12 px apart chain together."""
    rects = []
    cx = 0
    for _ in range(n_clusters):
        cx += int(rng.choice([9, 12, 40]))
        for _ in range(per):
            w = int(rng.integers(28, 36))
            x = cx + int(rng.integers(-4, 5))
            rects.append(Rect(x, int(rng.integers(-3, 4)) + 10, w, w // 2))
    return [rects[i] for i in rng.permutation(len(rects))]


def _det_key(d):
    return (d.rect.x, d.rect.y, d.rect.w, d.rect.h, d.neighbors, d.scale)


def test_group_matches_closure_oracle_on_dense_touching_clusters():
    rects = _touching_clusters(np.random.default_rng(5))
    eps = 0.2
    classes = closure_partition(rects, lambda r, q: similar_rects(r, q, eps))
    assert len(rects) >= 1000 and 1 < len(classes) < len(rects) // 30
    expected = []
    for members_idx in classes:
        members = [rects[i] for i in members_idx]
        k = len(members)
        mean = [round_half_up(sum(getattr(r, f) for r in members) / k) for f in "xywh"]
        expected.append(Detection(Rect(*mean), 1.0, k))
    got = group_rects(rects, DetectorParams(min_neighbors=1, group_eps=eps))
    assert sorted(map(_det_key, got)) == sorted(map(_det_key, expected))


def test_group_is_independent_of_input_order():
    rng = np.random.default_rng(6)
    rects = _touching_clusters(rng, n_clusters=12, per=10)
    params = DetectorParams(min_neighbors=3)
    want = sorted(map(_det_key, group_rects(rects, params, window_h=24)))
    assert len(want) > 1
    for _ in range(5):
        shuffled = [rects[i] for i in rng.permutation(len(rects))]
        assert sorted(map(_det_key, group_rects(shuffled, params, window_h=24))) == want


def test_group_memory_stays_within_blocks_of_the_frontier():
    # 20k 32x16 rects with x in 0..12: each is similar to those within 6 px
    # (eps 0.2 of 32), so rect 0 at x=0 reaches x <= 6 and the next frontier,
    # about 10k rects, reaches the 9k rects beyond. Compared all at once that
    # frontier would make about 1e8 pairs.
    n = 20_000
    xs = np.random.default_rng(12).integers(0, 13, n)
    xs[0] = 0
    rects = [Rect(int(x), 0, 32, 16) for x in xs]
    tracemalloc.start()
    try:
        dets = group_rects(rects, DetectorParams(min_neighbors=1, group_eps=0.2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [d.neighbors for d in dets] == [n]
    # the stated budget: one int64 per pair of 256 frontier rects and all n
    assert peak <= 256 * n * 8, f"peak {peak / 1e6:.1f} MB"


def test_group_sorts_by_area_then_position():
    far = [Rect(100, 100, 30, 30)] * 3
    near = [Rect(0, 0, 30, 30)] * 3
    big = [Rect(50, 50, 60, 60)] * 3
    dets = group_rects(big + far + near, DetectorParams(min_neighbors=3))
    assert [d.rect for d in dets] == [
        Rect(50, 50, 60, 60),
        Rect(0, 0, 30, 30),
        Rect(100, 100, 30, 30),
    ]


def test_group_scale_uses_window_height():
    dets = group_rects([Rect(0, 0, 96, 48)] * 3, DetectorParams(min_neighbors=3), window_h=24)
    assert dets[0].scale == 2.0


# --- detect and selection ---


def test_detect_keeps_rects_inside_frame(monkeypatch):
    # mean of x=5 and x=6 rounds half-up to 6; 6+8 exceeds the 13px frame
    frame = Frame(13, 8, np.zeros((8, 13), np.uint8))
    model = _reject_all_model()
    params = DetectorParams(min_neighbors=2, group_eps=0.2)
    monkeypatch.setattr(
        detector, "scan", lambda *a, **k: [Rect(5, 0, 8, 8), Rect(6, 0, 8, 8)]
    )
    dets = detector.detect(frame, model, params)
    assert len(dets) == 1
    assert dets[0].rect == Rect(5, 0, 8, 8)
    assert dets[0].neighbors == 2


def test_detect_patch_case_single_lock(patch_case):
    case = patch_case()
    frame = case.frames[0]
    before = frame.pixels.copy()
    dets = detector.detect(frame, case.model, case.params)
    assert len(dets) == 1
    d = dets[0]
    assert (d.rect.x, d.rect.y) == (20, 150)
    assert (d.rect.w, d.rect.h) == (96, 48)
    assert d.scale == pytest.approx(2.0)
    assert np.array_equal(frame.pixels, before)
    assert detector.detect(frame, case.model, case.params) == dets


def test_detect_tracks_moving_patch(patch_case):
    case = patch_case(n_frames=8)
    for k, frame in enumerate(case.frames):
        best = select_vehicle(detector.detect(frame, case.model, case.params))
        assert best is not None
        expected_x = round_half_up(20 + 10.0 * k)
        assert abs(best.rect.x - expected_x) <= case.params.stride_base
        assert abs(best.rect.y - 150) <= case.params.stride_base


def test_select_vehicle_rules():
    assert select_vehicle([]) is None
    small = Detection(Rect(0, 0, 10, 10), 1.0, 3)
    big = Detection(Rect(90, 90, 20, 20), 1.0, 3)
    assert select_vehicle([small, big]) is big
    upper = Detection(Rect(50, 10, 10, 10), 1.0, 3)
    lower = Detection(Rect(10, 50, 10, 10), 1.0, 3)
    assert select_vehicle([lower, upper]) is upper
    left = Detection(Rect(10, 10, 10, 10), 1.0, 3)
    right = Detection(Rect(50, 10, 10, 10), 1.0, 3)
    assert select_vehicle([right, left]) is left
