"""Multi-scale sliding-window detection and rectangle grouping.

The scan slides the model window over the frame at a geometric ladder of
scales, evaluating the cascade at each origin via the array kernels.
Accepted windows are grouped into similarity classes; classes with
enough support fuse to a single averaged Detection. The tracked vehicle
is the largest-area detection.
"""

import math
from dataclasses import dataclass

import numpy as np

from speedcam import kernels
from speedcam.errors import ConfigError, NoScaleError
from speedcam.imaging import Frame, Rect, integral, round_half_up
from speedcam.mblbp import CascadeModel, scaled_feature_arrays

# longest scale ladder: a plan holds arrays per scale and feature, so a factor
# just above 1 would otherwise ask for millions of scales
MAX_SCALES = 1024


@dataclass(frozen=True)
class DetectorParams:
    """Scan geometry and grouping knobs.

    min_size_fraction: smallest window height as a fraction of frame height.
    scale_factor: ratio between consecutive window scales.
    stride_base: slide step floor; the step is max(stride_base, round(scale)).
    min_neighbors: similarity-class support needed to keep a detection.
    group_eps: edge tolerance for grouping, relative to mean rect size.
    """

    min_size_fraction: float = 0.3
    scale_factor: float = 1.1
    stride_base: int = 2
    min_neighbors: int = 3
    group_eps: float = 0.2

    def __post_init__(self):
        if not (0.0 < self.min_size_fraction <= 1.0):
            raise ConfigError(f"min_size_fraction {self.min_size_fraction} outside (0, 1]")
        for name in ("scale_factor", "group_eps"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} {getattr(self, name)} must be finite")
        if self.scale_factor <= 1.0:
            raise ConfigError(f"scale_factor {self.scale_factor} must exceed 1")
        if self.stride_base < 1:
            raise ConfigError(f"stride_base {self.stride_base} must be at least 1")
        if self.min_neighbors < 1:
            raise ConfigError(f"min_neighbors {self.min_neighbors} must be at least 1")
        if self.group_eps < 0.0:
            raise ConfigError(f"group_eps {self.group_eps} must be non-negative")


@dataclass(frozen=True)
class Detection:
    """A grouped detection; scale is rect height over model window height."""

    rect: Rect
    scale: float
    neighbors: int


def _det_order(d: Detection):
    return (-d.rect.area, d.rect.y, d.rect.x)


def scale_schedule(
    frame_w: int, frame_h: int, window_w: int, window_h: int, params: DetectorParams
) -> list[float]:
    """Ascending window scales from the minimum vehicle size up to frame size.

    s0 makes the window height min_size_fraction of the frame height;
    each next scale multiplies by scale_factor; generation stops once the
    scaled window exceeds the frame in either dimension or overflows. A
    ladder longer than MAX_SCALES is an error.
    """
    s0 = params.min_size_fraction * frame_h / window_h
    if s0 < 1.0:
        raise NoScaleError(
            f"minimum window {params.min_size_fraction:g} x frame height "
            f"{frame_h} is below the {window_w}x{window_h} model window"
        )
    scales = []
    s = s0
    while (
        math.isfinite(max(window_w, window_h) * s)
        and round_half_up(window_w * s) <= frame_w
        and round_half_up(window_h * s) <= frame_h
    ):
        if len(scales) == MAX_SCALES:
            raise ConfigError(
                f"scale_factor {params.scale_factor} gives more than {MAX_SCALES} scales"
            )
        scales.append(s)
        s *= params.scale_factor
    if not scales:
        raise NoScaleError(
            f"frame {frame_w}x{frame_h} cannot hold the minimum scan window"
        )
    return scales


@dataclass(frozen=True, eq=False)
class ScanPlan(kernels.ScanPlan):
    """A kernel scan plan, plus the parameters and frame size it was built
    for and the window sizes: win_w[s] x win_h[s] at scale index s.
    """

    params: DetectorParams
    size: tuple[int, int]
    win_w: np.ndarray
    win_h: np.ndarray


# one-entry memo: a sequence scans every frame with the same plan
_last_plan = None


def scan_plan(model: CascadeModel, params: DetectorParams, width: int, height: int) -> ScanPlan:
    """The scan plan for a model, parameters and frame size.

    The last plan is kept and handed out again while the model is the same
    object and the parameters and size are equal.
    """
    global _last_plan
    plan = _last_plan
    if (
        plan is None
        or plan.model is not model
        or plan.params != params
        or plan.size != (width, height)
    ):
        plan = _last_plan = _build_plan(model, params, width, height)
    return plan


def _build_plan(model, params, width, height) -> ScanPlan:
    """The plan over the scales of the schedule that have a lattice on this
    frame size. ``np.floor(x + 0.5)`` is ``round_half_up`` of the same
    float64 products, element by element."""
    scales = np.array(scale_schedule(width, height, model.window_w, model.window_h, params))
    win_w = np.floor(model.window_w * scales + 0.5).astype(np.int64)
    win_h = np.floor(model.window_h * scales + 0.5).astype(np.int64)
    stride = np.maximum(params.stride_base, np.floor(scales + 0.5).astype(np.int64))
    grid = np.stack(scaled_feature_arrays(model.features, scales))  # (4, n_scales, nf)
    fx, fy, fbw, fbh = grid
    # independent rounding can push a scaled feature grid past the scaled
    # window edge; shrink the origin range to whichever is wider
    nx = (width - np.maximum(win_w, np.max(fx + 3 * fbw, axis=1, initial=0))) // stride + 1
    ny = (height - np.maximum(win_h, np.max(fy + 3 * fbh, axis=1, initial=0))) // stride + 1
    fits = (nx >= 1) & (ny >= 1)
    return ScanPlan(
        model, stride[fits], nx[fits], ny[fits], grid[:, fits],
        params=params, size=(width, height), win_w=win_w[fits], win_h=win_h[fits],
    )


def scan(frame: Frame, model: CascadeModel, params: DetectorParams) -> list[Rect]:
    """All window rects the cascade accepts, scale-major then row-major."""
    plan = scan_plan(model, params, frame.width, frame.height)
    idx = np.flatnonzero(kernels.scan_impl()(integral(frame, kernels.TABLE_DTYPE), plan))
    s, x, y = plan.origins(idx)
    return [
        Rect(*r)
        for r in zip(x.tolist(), y.tolist(), plan.win_w[s].tolist(), plan.win_h[s].tolist())
    ]


# frontier-by-open-rect pairs compared at once; bounds grouping's temporaries
GROUP_BLOCK_PAIRS = 1 << 18


def group_rects(
    cands: list[Rect], params: DetectorParams, window_h: int | None = None
) -> list[Detection]:
    """Fuse similar rects into Detections with at least min_neighbors support.

    Two rects are similar when each edge lies within group_eps of the
    pair's mean size. Similarity is closed transitively by a breadth-first
    search that expands a class by whole frontiers: each step compares the
    frontier's rects with every rect not yet in a class, in blocks of at
    most GROUP_BLOCK_PAIRS pairs (and at least one frontier rect), so
    memory is O(GROUP_BLOCK_PAIRS + n) and time O(n^2). Classes come out
    in order of their smallest index. Each surviving class becomes one
    Detection at the member-wise mean rect, sorted by descending area then
    ascending (y, x). window_h, when given, anchors the reported scale;
    otherwise scale is 1.0.
    """
    r = np.array([(c.x, c.y, c.w, c.h) for c in cands], dtype=np.int64).reshape(-1, 4)
    x, y, w, h = r.T
    x2, y2 = x + w, y + h
    eps = params.group_eps
    seen = np.zeros(len(r), dtype=bool)
    dets = []
    for start in range(len(r)):
        if seen[start]:
            continue
        seen[start] = True
        members = frontier = np.array([start])
        while frontier.size:
            found = []
            lo = 0
            while lo < frontier.size:
                open_ = np.flatnonzero(~seen)
                rows = max(1, GROUP_BLOCK_PAIRS // max(open_.size, 1))
                b = frontier[lo : lo + rows, None]
                lo += rows
                dw = eps * (w[b] + w[open_]) / 2.0
                dh = eps * (h[b] + h[open_]) / 2.0
                near = (
                    (np.abs(x[b] - x[open_]) <= dw)
                    & (np.abs(x2[b] - x2[open_]) <= dw)
                    & (np.abs(y[b] - y[open_]) <= dh)
                    & (np.abs(y2[b] - y2[open_]) <= dh)
                )
                near = open_[near.any(axis=0)]
                seen[near] = True
                found.append(near)
            frontier = np.concatenate(found)
            members = np.concatenate([members, frontier])
        k = members.size
        if k < params.min_neighbors:
            continue
        # exact int64 sums, so each mean is the correctly rounded sum / k
        rect = Rect(*(round_half_up(s / k) for s in r[members].sum(axis=0).tolist()))
        scale = rect.h / window_h if window_h else 1.0
        dets.append(Detection(rect, scale, k))
    dets.sort(key=_det_order)
    return dets


def detect(frame: Frame, model: CascadeModel, params: DetectorParams) -> list[Detection]:
    """Scan then group; every returned rect lies inside the frame."""
    dets = group_rects(scan(frame, model, params), params, window_h=model.window_h)
    fixed = []
    for d in dets:
        r = d.rect
        # averaging with half-up rounding can overshoot an edge by a pixel
        x = min(max(r.x, 0), frame.width - r.w)
        y = min(max(r.y, 0), frame.height - r.h)
        if (x, y) != (r.x, r.y):
            d = Detection(Rect(x, y, r.w, r.h), d.scale, d.neighbors)
        fixed.append(d)
    return fixed


def select_vehicle(dets: list[Detection]):
    """The tracked vehicle: largest area, ties to smallest (y, x); None if empty."""
    if not dets:
        return None
    return min(dets, key=_det_order)
