"""Window speeds, medians, sessions, calibration, and unit conversion."""

import json
import math
import statistics

import numpy as np
import pytest

from speedcam import speedpipe
from speedcam.errors import ConfigError, InsufficientDataError, TimeOrderError
from speedcam.speedpipe import (
    COLLECTING,
    COMPLETE,
    WINDOW_CLOSED,
    CalibrationProfile,
    SpeedSession,
    TrackSample,
    calibrate,
    calibration_from_doc,
    convert_ground_speed,
    feed,
    finalize,
    median,
    window_speed,
)


def _cal(px_per_m=149.91):
    return calibrate(px_per_m, 1.0, 10.0, (1920, 1080))


def _session_with_windows(speeds, **kwargs):
    session = SpeedSession(**kwargs)
    session.window_speeds = list(speeds)
    session.raw_window_speeds = [float(s) for s in speeds]
    return session


# --- window speed ---


def test_window_speed_straight_line():
    assert window_speed((0, 0), 0, (50, 0), 100) == pytest.approx(500.0)
    assert window_speed((0, 0), 0, (30, 40), 100) == pytest.approx(500.0)
    assert window_speed((10, 10), 1000, (40, 10), 1100) == pytest.approx(300.0)


def test_window_speed_x_only_ignores_vertical_drift():
    assert window_speed((0, 0), 0, (30, 40), 100, "x_only") == pytest.approx(300.0)
    assert window_speed((30, 0), 0, (0, 40), 100, "x_only") == pytest.approx(300.0)


def test_window_speed_requires_advancing_time():
    with pytest.raises(TimeOrderError):
        window_speed((0, 0), 100, (10, 0), 100)
    with pytest.raises(TimeOrderError):
        window_speed((0, 0), 100, (10, 0), 50)


def test_window_speed_rejects_unknown_axis_mode():
    with pytest.raises(ConfigError):
        window_speed((0, 0), 0, (10, 0), 100, "diagonal")


def test_window_speed_translation_invariant():
    rng = np.random.default_rng(31)
    for _ in range(50):
        p1 = rng.uniform(-100, 100, 2)
        p2 = rng.uniform(-100, 100, 2)
        shift = rng.uniform(-50, 50, 2)
        t1, dt = int(rng.integers(0, 1000)), int(rng.integers(1, 500))
        base = window_speed(tuple(p1), t1, tuple(p2), t1 + dt)
        moved = window_speed(tuple(p1 + shift), t1, tuple(p2 + shift), t1 + dt)
        assert moved == pytest.approx(base)
        assert window_speed(tuple(p1), t1, tuple(p2), t1 + dt, "x_only") <= base + 1e-9


# --- median ---


def test_median_odd_and_even():
    assert median([3, 1, 2]) == 2.0
    assert median([1, 2, 3, 10]) == 2.5
    assert median([7]) == 7.0


def test_median_empty_is_an_error():
    with pytest.raises(InsufficientDataError):
        median([])


def test_median_matches_statistics_module():
    rng = np.random.default_rng(32)
    for _ in range(100):
        vals = [float(v) for v in rng.normal(300, 80, int(rng.integers(1, 15)))]
        got = median(vals)
        assert got == pytest.approx(statistics.median(vals))
        assert min(vals) <= got <= max(vals)


# --- session feeding ---


def _feed_uniform(session, n, px_per_frame=10.0, dt_ms=33):
    results = []
    for k in range(n):
        sample = TrackSample((20 + px_per_frame * k, 150), k * dt_ms)
        results.append(feed(session, sample))
    return results


def test_feed_closes_window_on_fifth_sample():
    session = SpeedSession()
    results = _feed_uniform(session, 5)
    assert [r.status for r in results[:4]] == [COLLECTING] * 4
    assert results[4].status == WINDOW_CLOSED
    # 40 px over 132 ms = 303.03 px/s, stored half-up as 303
    assert results[4].window_speed == 303
    assert session.window_speeds == [303]
    assert session.raw_window_speeds[0] == pytest.approx(40 / 0.132, rel=1e-9)


def test_feed_completes_after_four_windows():
    session = SpeedSession()
    results = _feed_uniform(session, 20)
    assert session.complete
    assert results[19].status == COMPLETE
    assert len(session.window_speeds) == 4
    assert [r for r in results if r.window_speed is not None] == [
        results[4],
        results[9],
        results[14],
        results[19],
    ]


def test_feed_still_collecting_with_three_samples():
    session = SpeedSession()
    results = _feed_uniform(session, 3)
    assert all(r.status == COLLECTING for r in results)
    assert session.window_speeds == []


def test_feed_rejects_non_advancing_timestamps():
    session = SpeedSession()
    feed(session, TrackSample((0, 0), 100))
    with pytest.raises(TimeOrderError):
        feed(session, TrackSample((5, 0), 100))
    with pytest.raises(TimeOrderError):
        feed(session, TrackSample((5, 0), 99))
    # the failed feeds must not have been recorded
    assert len(session.samples) == 1


def test_feed_window_count_invariant():
    rng = np.random.default_rng(33)
    for _ in range(20):
        window_len = int(rng.integers(2, 7))
        n = int(rng.integers(0, 30))
        session = SpeedSession(window_len=window_len, windows_needed=3)
        t = 0
        for _ in range(n):
            t += int(rng.integers(1, 60))
            feed(session, TrackSample((float(rng.uniform(0, 500)), float(rng.uniform(0, 300))), t))
        assert len(session.window_speeds) == n // window_len
        assert len(session.raw_window_speeds) == len(session.window_speeds)
        assert all(isinstance(s, int) for s in session.window_speeds)


def test_feed_keeps_accepting_after_complete():
    session = SpeedSession()
    results = _feed_uniform(session, 25)
    assert len(session.window_speeds) == 5
    assert results[24].status == COMPLETE
    assert results[24].window_speed == session.window_speeds[-1]
    assert results[21].status == COMPLETE  # no window closed, still complete


def test_feed_windows_are_disjoint():
    # varying speed per window: window k covers samples 5k..5k+4 only
    session = SpeedSession()
    t = 0
    x = 0.0
    for k in range(10):
        step = 10.0 if k < 5 else 30.0
        if k:
            x += step
            t += 33
        feed(session, TrackSample((x, 0), t))
    # window 1 spans samples 0..4 (40 px / 132 ms); window 2 spans samples
    # 5..9 only (4 steps of 30 px / 132 ms), untouched by the seam step
    assert session.window_speeds == [303, 909]
    assert session.raw_window_speeds[1] == pytest.approx(120 / 0.132, rel=1e-9)


def test_session_validation():
    with pytest.raises(ConfigError):
        SpeedSession(window_len=1)
    with pytest.raises(ConfigError):
        SpeedSession(windows_needed=0)
    with pytest.raises(ConfigError):
        SpeedSession(axis_mode="sideways")


# --- calibration ---


def test_calibrate_divides_lengths():
    cal = calibrate(449.73, 3.0, 10.0, (1920, 1080))
    assert cal.px_per_m == pytest.approx(149.91, abs=0.005)
    assert calibrate(400.0, 4.0, 10.0, (640, 360)).px_per_m == pytest.approx(100.0)


def test_calibrate_keeps_reference():
    cal = calibrate(449.73, 3.0, 10.0, (1920, 1080))
    assert cal.reference.object_px_len == 449.73
    assert cal.reference.object_len_m == 3.0
    assert cal.reference.vehicle_distance_m == 10.0
    assert cal.reference.frame == (1920, 1080)


def test_calibrate_rejects_degenerate_inputs():
    with pytest.raises(ConfigError):
        calibrate(0.0, 3.0, 10.0, (1920, 1080))
    with pytest.raises(ConfigError):
        calibrate(449.73, -3.0, 10.0, (1920, 1080))
    with pytest.raises(ConfigError):
        calibrate(449.73, 3.0, 0.0, (1920, 1080))
    with pytest.raises(ConfigError):
        calibrate(449.73, 3.0, 10.0, (0, 1080))
    # not finite, or a quotient past float range
    for args in [
        (math.nan, 3.0, 10.0),
        (449.73, math.inf, 10.0),
        (449.73, 3.0, -math.inf),
        (449.73, 3.0, math.nan),
        (1e300, 1e-300, 10.0),
    ]:
        with pytest.raises(ConfigError, match="finite and positive"):
            calibrate(*args, (1920, 1080))


def test_calibration_doc_round_trip():
    cal = calibrate(449.73, 3.0, 10.0, (1920, 1080))
    assert calibration_from_doc(cal.to_doc()) == cal
    assert calibration_from_doc(json.loads(json.dumps(cal.to_doc()))) == cal
    with pytest.raises(ConfigError):
        calibration_from_doc({"pxPerM": 100.0})
    with pytest.raises(ConfigError):
        calibration_from_doc({**cal.to_doc(), "frame": [1920]})
    # each number must be finite and positive, whichever field holds it
    for key in ["pxPerM", "objectPxLen", "objectLenM", "vehicleDistanceM"]:
        for bad in [0, -5, math.nan, math.inf]:
            with pytest.raises(ConfigError, match=f"{key} must be finite and positive"):
                calibration_from_doc({**cal.to_doc(), key: bad})
    for frame in [[0, 1080], [1920, -1], [math.inf, 1080], [1920, math.nan]]:
        with pytest.raises(ConfigError):
            calibration_from_doc({**cal.to_doc(), "frame": frame})
    # a field of another JSON type is refused, not coerced
    for key, value in [
        ("frame", [1920.7, 1080]),
        ("frame", [True, True]),
        ("frame", [1920, 1080, 1]),
        ("pxPerM", "150"),
        ("objectLenM", True),
    ]:
        with pytest.raises(ConfigError, match=f'field "{key}"'):
            calibration_from_doc({**cal.to_doc(), key: value})
    with pytest.raises(ConfigError, match="not a JSON object"):
        calibration_from_doc([cal.to_doc()])


# --- finalize ---


def test_finalize_median_and_conversions():
    est = finalize(_session_with_windows([692, 692, 692, 692]), _cal())
    assert est.median_px_s == 692.0
    assert est.m_s == pytest.approx(4.616, abs=0.001)
    assert est.km_h == pytest.approx(3.6 * est.m_s)
    assert est.mi_h == pytest.approx(est.km_h / 1.609344)
    assert est.app_reading == 173.0  # exactly 0.25 * 692


def test_finalize_known_coefficient_table():
    for px_s, m_s in [(692, 4.616), (790, 5.270), (920, 6.137)]:
        est = finalize(_session_with_windows([px_s] * 4), _cal())
        assert est.m_s == pytest.approx(m_s, abs=0.005)
        assert est.app_reading == 0.25 * px_s


def test_finalize_median_of_mixed_windows():
    est = finalize(_session_with_windows([301, 301, 299, 301]), _cal())
    assert est.median_px_s == 301.0
    assert est.window_speeds_px_s == (301, 301, 299, 301)


def test_finalize_partial_session():
    est = finalize(_session_with_windows([500]), _cal(100.0))
    assert est.median_px_s == 500.0
    assert est.m_s == pytest.approx(5.0)


def test_finalize_without_windows_is_an_error():
    with pytest.raises(InsufficientDataError):
        finalize(SpeedSession(), _cal())


def test_finalize_scales_inversely_with_px_per_m():
    rng = np.random.default_rng(34)
    for _ in range(20):
        speeds = [int(v) for v in rng.integers(100, 1000, 4)]
        k = float(rng.uniform(1.5, 4.0))
        base = finalize(_session_with_windows(speeds), _cal(100.0))
        scaled = finalize(_session_with_windows(speeds), _cal(100.0 * k))
        assert scaled.m_s == pytest.approx(base.m_s / k)
        assert scaled.app_reading == base.app_reading  # px-domain, unaffected


def test_finalize_custom_legacy_coefficient():
    est = finalize(_session_with_windows([400, 400, 400, 400]), _cal(), legacy_coefficient=0.5)
    assert est.app_reading == 200.0
    assert est.legacy_coefficient == 0.5


def test_estimate_json_document_shape():
    est = finalize(_session_with_windows([301, 301, 299, 301]), _cal())
    doc = json.loads(est.to_json())
    assert sorted(doc) == [
        "appReading",
        "calibration",
        "kmH",
        "mS",
        "medianPxS",
        "miH",
        "windowSpeedsPxS",
    ]
    assert doc["windowSpeedsPxS"] == [301, 301, 299, 301]
    assert doc["medianPxS"] == 301.0
    assert doc["calibration"]["pxPerM"] == pytest.approx(149.91)
    assert sorted(doc["calibration"]) == [
        "frame",
        "objectLenM",
        "objectPxLen",
        "pxPerM",
        "vehicleDistanceM",
    ]


def test_convert_ground_speed():
    assert convert_ground_speed(5.0) == pytest.approx(8.04672)
    assert convert_ground_speed(10.0) == pytest.approx(16.09344)
    assert convert_ground_speed(20.0) == pytest.approx(32.18688)
    assert convert_ground_speed(0.0) == 0.0


def test_full_pipeline_five_px_per_frame():
    # 10 px per 33 ms tracked for 20 frames at 100 px/m
    session = SpeedSession()
    _feed_uniform(session, 20)
    est = finalize(session, _cal(100.0))
    assert est.window_speeds_px_s == (303, 303, 303, 303)
    assert est.median_px_s == 303.0
    assert est.m_s == pytest.approx(3.03)
    assert est.km_h == pytest.approx(10.908)
    assert est.app_reading == pytest.approx(75.75)
