"""Pinned outputs: sha256 digests of ``detector.scan`` rects and
``detector.detect`` detections on seeded inputs this file builds itself.

The digests were taken before any change they guard. A change to the scan
that keeps its outputs keeps them; one that must move a digest says why.
Each input set asserts the scan paths it reaches, so that a digest cannot
pass by skipping the path it was meant to pin.
"""

import hashlib

import numpy as np
import pytest

from speedcam import detector, imaging, kernels, mblbp
from speedcam.imaging import Frame

WINDOW_W, WINDOW_H = 24, 12

# a 48x24 textured patch (the window at scale 2) crossing a noisy road
PATCH_W, PATCH_H = 48, 24
SEQ_W, SEQ_H = 200, 120
SEQ_FRAMES = 6
SEQ_VELOCITY = (14, 4)

# textured vehicles on a flat background, under a permissive random cascade
CROWD_W, CROWD_H = 240, 150
CROWD_FRAMES = 3
CROWD_STAGES = (6, 6, 6, 6)
CROWD_FEATURES = 14


def _moving_patch():
    """A seeded sequence of a patch moving over noise, and a two-stage
    cascade that accepts the codes its texture shows at scale 2."""
    rng = np.random.default_rng(2601)
    texture = rng.integers(96, 256, (PATCH_H, PATCH_W), np.uint8)
    features = []
    while len(features) < 6:
        bw, bh = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        f = mblbp.MbLbpFeature(
            int(rng.integers(0, WINDOW_W - 3 * bw + 1)),
            int(rng.integers(0, WINDOW_H - 3 * bh + 1)), bw, bh,
        )
        if f not in features:
            features.append(f)
    patch = imaging.integral(Frame(PATCH_W, PATCH_H, texture))
    codes = [mblbp.lbp_code(patch, f, (0, 0), 2.0) for f in features]
    weaks = [
        mblbp.WeakClassifier(i, mblbp.subset_from_codes([c]), 1.0, -1.0)
        for i, c in enumerate(codes)
    ]
    stages = (mblbp.Stage(2.0, tuple(weaks[:2])), mblbp.Stage(4.0, tuple(weaks[2:])))
    model = mblbp.CascadeModel(tuple(features), stages, WINDOW_W, WINDOW_H)
    frames = []
    x0, y0 = 6, 10
    for k in range(SEQ_FRAMES):
        px = rng.integers(0, 40, (SEQ_H, SEQ_W), np.uint8)
        x, y = x0 + k * SEQ_VELOCITY[0], y0 + k * SEQ_VELOCITY[1]
        px[y : y + PATCH_H, x : x + PATCH_W] = texture
        frames.append(Frame(SEQ_W, SEQ_H, px, timestamp_ms=33 * k))
    params = detector.DetectorParams(
        min_size_fraction=0.15, scale_factor=1.1, stride_base=2, min_neighbors=1
    )
    return frames, model, params


def _crowd():
    """Seeded frames of four textured vehicles on a flat background, and a
    random cascade that no flat grid's code (255) passes."""
    rng = np.random.default_rng(2602)
    features = []
    for _ in range(CROWD_FEATURES):
        bw, bh = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        features.append(mblbp.MbLbpFeature(
            int(rng.integers(0, WINDOW_W - 3 * bw + 1)),
            int(rng.integers(0, WINDOW_H - 3 * bh + 1)), bw, bh,
        ))
    stages = []
    for n in CROWD_STAGES:
        weaks = []
        for _ in range(n):
            words = [int(v) for v in rng.integers(0, 2**32, 8, dtype=np.uint64)]
            words[7] &= ~(1 << 31)
            weaks.append(mblbp.WeakClassifier(
                int(rng.integers(0, CROWD_FEATURES)), tuple(words), 1.0, -1.0
            ))
        stages.append(mblbp.Stage(0.0, tuple(weaks)))
    model = mblbp.CascadeModel(tuple(features), tuple(stages), WINDOW_W, WINDOW_H)
    frames = []
    vw, vh = CROWD_W // 2 - 16, CROWD_H // 2 - 12
    for k in range(CROWD_FRAMES):
        px = np.full((CROWD_H, CROWD_W), 8, np.uint8)
        for cell in range(4):
            x = (cell % 2) * (CROWD_W // 2) + 8 + int(rng.integers(-4, 5))
            y = (cell // 2) * (CROWD_H // 2) + 6 + int(rng.integers(-4, 5))
            px[y : y + vh, x : x + vw] = rng.integers(96, 256, (vh, vw), np.uint8)
        frames.append(Frame(CROWD_W, CROWD_H, px, timestamp_ms=33 * k))
    params = detector.DetectorParams(
        min_size_fraction=0.1, scale_factor=1.15, stride_base=2, min_neighbors=3
    )
    return frames, model, params


def _rect(r):
    return (r.x, r.y, r.w, r.h)


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode("ascii")).hexdigest()


def _survivors(monkeypatch):
    """Windows per scan that reach the later weaks, through kernels._later_weaks."""
    counts = []
    later = kernels._later_weaks

    def counted(sums, plan, idx, *rest):
        counts[-1] += idx.size
        return later(sums, plan, idx, *rest)

    monkeypatch.setattr(kernels, "_later_weaks", counted)
    scan = kernels.scan_lattices

    def scanned(sums, plan):
        counts.append(0)
        return scan(sums, plan)

    monkeypatch.setattr(kernels, "scan_lattices", scanned)
    return counts


# (scan rects, detections) digests per input set
GOLDEN = {
    "moving_patch": (
        "dd97ac2a170a34173e4380af6b9de5cadbc96669a007289eddf5f51ef00b8704",
        "b8e34cbd37c1b5d29b0632767c737a751857fafbac822853aff91a9f6a8e5ef4",
    ),
    "crowd": (
        "9f29f7c1d34058b224e6e9e3d4f22d3fe780b0a68dadad1f918f8de17c59818c",
        "ed66e950c1f6b6ebc85f0d7f1cde5ba6a911bbb09d81da5428d96c0ae4fa92ca",
    ),
}
INPUTS = {"moving_patch": _moving_patch, "crowd": _crowd}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_scan_and_detect_outputs_are_pinned(case):
    frames, model, params = INPUTS[case]()
    rects = [[_rect(r) for r in detector.scan(f, model, params)] for f in frames]
    dets = [
        [(_rect(d.rect), d.scale, d.neighbors) for d in detector.detect(f, model, params)]
        for f in frames
    ]
    assert all(rects) and all(dets)  # every frame has a detection
    assert (_digest(rects), _digest(dets)) == GOLDEN[case]


def test_the_golden_inputs_reach_every_scan_path(monkeypatch):
    plans = [
        detector.scan_plan(model, params, frames[0].width, frames[0].height)
        for frames, model, params in (make() for make in INPUTS.values())
    ]
    lattice = np.concatenate([p.lattice.reshape(-1) for p in plans])
    narrow = np.concatenate([p.narrow.reshape(-1) for p in plans])
    assert lattice.any() and not lattice.all()  # lattice and corner reads
    assert narrow.any() and not narrow.all()  # 16- and 32-bit block reads
    crowd = plans[1]
    assert crowd.dense > 1
    # later weaks whose feature a dense weak, or an earlier gathered one, read
    wfeat, dense = crowd.wfeat.tolist(), crowd.dense
    assert any(f in wfeat[:dense] for f in wfeat[dense:])
    assert any(f in wfeat[dense:k] for k, f in enumerate(wfeat) if k > dense)
    # more windows survive the dense step of a crowd frame than one chunk holds
    frames, model, params = _crowd()
    counts = _survivors(monkeypatch)
    for f in frames:
        detector.scan(f, model, params)
    assert min(counts) > kernels.SCAN_CHUNK
