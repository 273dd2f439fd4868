"""Speed estimation from tracked positions, plus metric calibration.

Tracked top-left points accumulate into a session; every window_len-th
detection closes a window whose speed is the first-to-last displacement
over elapsed time (so a 5-detection window spans 4 intervals). Window
speeds are rounded to integer px/s before the median, mirroring the
integer accumulation of the original mobile implementation; raw values
are kept alongside for diagnostics. After windows_needed windows the
session is complete, but a vehicle leaving frame early can be finalized
over however many windows closed.

Metric conversion divides the median px/s by a calibrated
pixels-per-metre coefficient. The historical 0.25 reading coefficient is
reproduced only as app_reading; it carries no physical meaning.
"""

import json
import math
from dataclasses import dataclass, field

from speedcam.errors import ConfigError, InsufficientDataError, TimeOrderError, json_field
from speedcam.imaging import round_half_up

KM_PER_MI = 1.609344

LEGACY_COEFFICIENT = 0.25

AXIS_MODES = ("euclidean", "x_only")

COLLECTING = "collecting"
WINDOW_CLOSED = "window_closed"
COMPLETE = "complete"


@dataclass(frozen=True)
class TrackSample:
    """One tracked detection: top-left point (x, y) at t_ms milliseconds."""

    point: tuple
    t_ms: int


@dataclass
class SpeedSession:
    """Accumulates samples and closed-window speeds for one vehicle pass."""

    window_len: int = 5
    windows_needed: int = 4
    axis_mode: str = "euclidean"
    samples: list = field(default_factory=list)
    window_speeds: list = field(default_factory=list)  # int px/s per closed window
    raw_window_speeds: list = field(default_factory=list)  # unrounded diagnostics

    def __post_init__(self):
        if self.window_len < 2:
            raise ConfigError(f"window_len {self.window_len} must be at least 2")
        if self.windows_needed < 1:
            raise ConfigError(f"windows_needed {self.windows_needed} must be at least 1")
        if self.axis_mode not in AXIS_MODES:
            raise ConfigError(
                f"axis_mode {self.axis_mode!r} must be one of {AXIS_MODES}"
            )

    @property
    def complete(self) -> bool:
        return len(self.window_speeds) >= self.windows_needed


@dataclass(frozen=True)
class FeedResult:
    """Session status after a feed; window_speed set when a window closed."""

    status: str
    window_speed: int | None = None


def _require_finite_positive(**numbers) -> None:
    """Refuse any calibration number that is not finite and above zero."""
    for name, value in numbers.items():
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"calibration {name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class CalibrationReference:
    """Provenance of a calibration: what was measured, where, on what frame."""

    object_px_len: float
    object_len_m: float
    vehicle_distance_m: float
    frame: tuple

    def __post_init__(self):
        _require_finite_positive(
            objectPxLen=self.object_px_len,
            objectLenM=self.object_len_m,
            vehicleDistanceM=self.vehicle_distance_m,
        )
        if min(self.frame) < 1:
            raise ConfigError(f"frame dimensions {self.frame} must be positive")


@dataclass(frozen=True)
class CalibrationProfile:
    """Pixels-per-metre at the calibrated vehicle distance.

    Every number in a profile and its reference is finite and positive, so
    converting a speed never divides by zero or yields NaN or a negative.
    """

    px_per_m: float
    reference: CalibrationReference

    def __post_init__(self):
        _require_finite_positive(pxPerM=self.px_per_m)

    def to_doc(self) -> dict:
        return {
            "pxPerM": self.px_per_m,
            "objectPxLen": self.reference.object_px_len,
            "objectLenM": self.reference.object_len_m,
            "vehicleDistanceM": self.reference.vehicle_distance_m,
            "frame": list(self.reference.frame),
        }


def calibration_from_doc(doc) -> CalibrationProfile:
    """Parse the JSON shape produced by CalibrationProfile.to_doc."""
    where = "bad calibration document"
    return CalibrationProfile(
        px_per_m=json_field(doc, "pxPerM", float, ConfigError, where),
        reference=CalibrationReference(
            object_px_len=json_field(doc, "objectPxLen", float, ConfigError, where),
            object_len_m=json_field(doc, "objectLenM", float, ConfigError, where),
            vehicle_distance_m=json_field(doc, "vehicleDistanceM", float, ConfigError, where),
            frame=json_field(doc, "frame", int, ConfigError, where, length=2),
        ),
    )


@dataclass(frozen=True)
class SpeedEstimate:
    """Median-of-windows speed in px/s with metric conversions."""

    median_px_s: float
    window_speeds_px_s: tuple
    m_s: float
    km_h: float
    mi_h: float
    app_reading: float
    legacy_coefficient: float
    calibration: CalibrationProfile

    def to_doc(self) -> dict:
        return {
            "medianPxS": self.median_px_s,
            "windowSpeedsPxS": list(self.window_speeds_px_s),
            "mS": self.m_s,
            "kmH": self.km_h,
            "miH": self.mi_h,
            "appReading": self.app_reading,
            "calibration": self.calibration.to_doc(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2) + "\n"


def window_speed(p1, t1: int, p2, t2: int, axis_mode: str = "euclidean") -> float:
    """Displacement between two tracked points over elapsed time, in px/s.

    euclidean uses straight-line distance; x_only uses |dx| alone, which
    suits a camera set square to the road.
    """
    if t2 <= t1:
        raise TimeOrderError(f"t2 {t2} must exceed t1 {t1}")
    if axis_mode not in AXIS_MODES:
        raise ConfigError(f"axis_mode {axis_mode!r} must be one of {AXIS_MODES}")
    dx = p2[0] - p1[0]
    dy = p2[1] - p1[1]
    dist = abs(dx) if axis_mode == "x_only" else math.hypot(dx, dy)
    return dist / (t2 - t1) * 1000.0


def median(values) -> float:
    """Sorted middle element; even counts average the middle pair."""
    vals = sorted(values)
    if not vals:
        raise InsufficientDataError("median of an empty list")
    n = len(vals)
    if n % 2 == 1:
        return float(vals[n // 2])
    return (vals[n // 2 - 1] + vals[n // 2]) / 2.0


def feed(session: SpeedSession, sample: TrackSample) -> FeedResult:
    """Append a sample; close a window on every window_len-th detection.

    The window speed runs from the window's first sample to its last and
    is stored rounded to the nearest integer px/s (half up). Status is
    "complete" once windows_needed windows have closed; extra samples
    keep accumulating windows without changing completeness.
    """
    if session.samples and sample.t_ms <= session.samples[-1].t_ms:
        raise TimeOrderError(
            f"sample at {sample.t_ms} ms does not follow {session.samples[-1].t_ms} ms"
        )
    session.samples.append(sample)
    if len(session.samples) % session.window_len == 0:
        first = session.samples[len(session.samples) - session.window_len]
        raw = window_speed(
            first.point, first.t_ms, sample.point, sample.t_ms, session.axis_mode
        )
        session.raw_window_speeds.append(raw)
        session.window_speeds.append(round_half_up(raw))
        status = COMPLETE if session.complete else WINDOW_CLOSED
        return FeedResult(status, session.window_speeds[-1])
    return FeedResult(COMPLETE if session.complete else COLLECTING, None)


def calibrate(
    object_px_len: float,
    object_len_m: float,
    vehicle_distance_m: float,
    frame_dims,
) -> CalibrationProfile:
    """Derive px/m from a known-length object measured in the frame."""
    w, h = frame_dims
    reference = CalibrationReference(
        object_px_len=float(object_px_len),
        object_len_m=float(object_len_m),
        vehicle_distance_m=float(vehicle_distance_m),
        frame=(int(w), int(h)),
    )
    # the reference is checked first, so this division sees a positive divisor
    return CalibrationProfile(px_per_m=object_px_len / object_len_m, reference=reference)


def finalize(
    session: SpeedSession,
    cal: CalibrationProfile,
    legacy_coefficient: float = LEGACY_COEFFICIENT,
) -> SpeedEstimate:
    """Median the closed windows and convert to metric units.

    Works over however many windows closed (a vehicle may leave frame
    before the session completes); zero closed windows is an error.
    """
    if not session.window_speeds:
        raise InsufficientDataError("no closed windows to estimate from")
    med = median(session.window_speeds)
    m_s = med / cal.px_per_m
    km_h = 3.6 * m_s
    return SpeedEstimate(
        median_px_s=med,
        window_speeds_px_s=tuple(session.window_speeds),
        m_s=m_s,
        km_h=km_h,
        mi_h=km_h / KM_PER_MI,
        app_reading=legacy_coefficient * med,
        legacy_coefficient=legacy_coefficient,
        calibration=cal,
    )


def convert_ground_speed(mi_h: float) -> float:
    """Miles per hour to kilometres per hour."""
    return mi_h * KM_PER_MI
