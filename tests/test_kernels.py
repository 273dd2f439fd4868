"""The array kernels against the scalar reference in mblbp."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedcam import detector, imaging, kernels, mblbp, trainer
from speedcam.errors import BoundsError
from speedcam.imaging import Frame, Rect, round_half_up


def _lattice_plan(model, stride, nx, ny, scale=1.0):
    """A one-lattice scan plan: origins (ix*stride, iy*stride), ix < nx, iy < ny."""
    grid = np.stack(mblbp.scaled_feature_arrays(model.features, scale))[:, None]
    lattice = (np.array([v], np.int64) for v in (stride, nx, ny))
    return kernels.ScanPlan(model, *lattice, grid)


def _scan_lattice(ii, model, stride, nx, ny, scale=1.0):
    """Acceptance mask of one lattice as bool (ny, nx), through scan_lattices."""
    return kernels.scan_lattices(ii, _lattice_plan(model, stride, nx, ny, scale)).reshape(ny, nx)


def _random_model(rng, n_stages=2, n_weaks=3, window=(12, 9)):
    w, h = window
    features = []
    for _ in range(4):
        bw = int(rng.integers(1, w // 3 + 1))
        bh = int(rng.integers(1, h // 3 + 1))
        bx = int(rng.integers(0, w - 3 * bw + 1))
        by = int(rng.integers(0, h - 3 * bh + 1))
        features.append(mblbp.MbLbpFeature(bx, by, bw, bh))
    stages = []
    for _ in range(n_stages):
        weaks = tuple(
            mblbp.WeakClassifier(
                int(rng.integers(0, len(features))),
                tuple(int(v) for v in rng.integers(0, 2**32, 8, dtype=np.uint64)),
                float(rng.normal()),
                float(rng.normal()),
            )
            for _ in range(n_weaks)
        )
        stages.append(mblbp.Stage(float(rng.normal()), weaks))
    return mblbp.CascadeModel(tuple(features), tuple(stages), w, h)


def test_codes_at_matches_scalar_path():
    rng = np.random.default_rng(2)
    px = rng.integers(0, 256, (30, 44), np.uint8)
    ii = imaging.integral(Frame(44, 30, px))
    wrapped = imaging.integral(Frame(44, 30, px), kernels.TABLE_DTYPE)
    # held buffers, at first too small for a gather of 196 windows
    buffers = kernels.GatherBuffers(60)
    for bw, bh in [(1, 1), (3, 2), (5, 7)]:
        xs = np.arange(0, 44 - 3 * bw + 1, 3, dtype=np.int64)
        ys = np.arange(0, 30 - 3 * bh + 1, 2, dtype=np.int64)
        gx = np.repeat(xs, ys.size)
        gy = np.tile(ys, xs.size)
        got = kernels.codes_at(ii, gx, gy, bw, bh)
        want = [
            mblbp.lbp_code(ii, mblbp.MbLbpFeature(0, 0, bw, bh), (int(x), int(y)))
            for x, y in zip(gx, gy)
        ]
        assert got.tolist() == want
        for table in (ii, wrapped):
            assert kernels.codes_at(table, gx, gy, bw, bh, buffers=buffers).tolist() == want
    assert buffers.index.size == 16 * 196


@pytest.mark.parametrize(
    "shift",
    [None, (-1, 0), (0, -1), (1, 0), (0, 1)],
    ids=["fits", "x<0", "y<0", "x+1", "y+1"],
)
def test_codes_at_rejects_grids_outside_the_table(shift):
    # 13x10 frame, 3x2 blocks: the last grid that fits starts at (4, 4)
    rng = np.random.default_rng(6)
    ii = imaging.integral(Frame(13, 10, rng.integers(0, 256, (10, 13), np.uint8)))
    x = np.array([0, 2, 4], np.int64)
    y = np.array([0, 3, 4], np.int64)
    if shift is None:
        got = kernels.codes_at(ii, x, y, 3, 2)
        f = mblbp.MbLbpFeature(0, 0, 3, 2)
        assert got.tolist() == [mblbp.lbp_code(ii, f, (int(a), int(b))) for a, b in zip(x, y)]
        return
    # only one grid leaves the table: the corner one, or the origin one
    k = 2 if shift[0] + shift[1] > 0 else 0
    x[k] += shift[0]
    y[k] += shift[1]
    with pytest.raises(BoundsError):
        kernels.codes_at(ii, x, y, 3, 2)


def test_codes_stack_matches_scalar_path():
    rng = np.random.default_rng(3)
    frames = [Frame(12, 9, rng.integers(0, 256, (9, 12), np.uint8)) for _ in range(6)]
    sums = np.stack([imaging.integral(f) for f in frames], axis=-1)
    feats = [
        mblbp.MbLbpFeature(0, 0, 4, 3),
        mblbp.MbLbpFeature(1, 0, 2, 2),
        mblbp.MbLbpFeature(3, 2, 3, 1),
    ]
    got = kernels.codes_stack(sums, *mblbp.scaled_feature_arrays(feats, 1.0))
    for i, frame in enumerate(frames):
        ii = imaging.integral(frame)
        for j, f in enumerate(feats):
            assert got[i, j] == mblbp.lbp_code(ii, f, (0, 0))


def test_codes_stack_groups_interleaved_block_sizes():
    # stride-2 anchors in shuffled order: block sizes interleave, so each
    # block-size plane must gather its features back into their own columns
    rng = np.random.default_rng(5)
    frames = [Frame(13, 10, rng.integers(0, 256, (10, 13), np.uint8)) for _ in range(4)]
    sums = np.stack([imaging.integral(f) for f in frames], axis=-1)
    feats = trainer.enumerate_features(13, 10, 2)
    feats = [feats[k] for k in rng.permutation(len(feats))]
    sizes = [(f.bw, f.bh) for f in feats]
    runs = 1 + sum(a != b for a, b in zip(sizes, sizes[1:]))
    assert runs > len(set(sizes))  # some block size recurs after another
    got = kernels.codes_stack(sums, *mblbp.scaled_feature_arrays(feats, 1.0))
    for i, frame in enumerate(frames):
        ii = imaging.integral(frame)
        assert got[i].tolist() == [mblbp.lbp_code(ii, f, (0, 0)) for f in feats]


@pytest.mark.parametrize(
    "feat",
    # (x, y, bw, bh) one pixel past the right, bottom and left edge, each
    # with the grid one pixel back, which fits
    [((1, 0, 2, 1), (0, 0, 2, 1)), ((0, 0, 1, 4), (0, 0, 1, 3)), ((-1, 0, 1, 1), (0, 0, 1, 1))],
)
def test_codes_stack_rejects_grids_outside_the_table(feat):
    sums = np.zeros((10, 7, 2), np.int64)  # two 6x9 windows
    outside, fits = ([np.array([v], np.int64) for v in grid] for grid in feat)
    assert kernels.codes_stack(sums, *fits).shape == (2, 1)
    with pytest.raises(BoundsError):
        kernels.codes_stack(sums, *outside)


def test_codes_stack_matches_lbp_code_on_an_odd_window_at_stride_one():
    # every block size and anchor of a 17x11 window, so the planes range
    # from 15x9 origins (1x1 blocks) to one origin (5x3 blocks)
    rng = np.random.default_rng(8)
    frames = [Frame(17, 11, rng.integers(0, 256, (11, 17), np.uint8)) for _ in range(5)]
    feats = trainer.enumerate_features(17, 11)
    assert {(f.bw, f.bh) for f in feats} == {(bw, bh) for bw in range(1, 6) for bh in range(1, 4)}
    table = imaging.prefix_sums(np.stack([f.pixels for f in frames], axis=-1))
    got = kernels.codes_stack(table, *mblbp.scaled_feature_arrays(feats, 1.0))
    assert got.shape == (5, len(feats)) and got.dtype == np.uint8 and got.flags.c_contiguous
    for i, frame in enumerate(frames):
        ii = imaging.integral(frame)
        assert got[i].tolist() == [mblbp.lbp_code(ii, f, (0, 0)) for f in feats]


def test_scan_lattices_matches_eval_window_at_every_origin():
    rng = np.random.default_rng(4)
    accepted = windows = 0
    # 72x48 frames at strides 1-3, then frames one origin wide (nx == 1) or
    # one origin high (ny == 1), with stride - 1 pixels to spare
    cases = [(1 + trial // 12, None) for trial in range(36)]
    cases += [(stride, axis) for axis in "xy" for stride in (2, 3, 4)]
    for trial, (stride, thin) in enumerate(cases):
        model = _random_model(rng)
        scale = (1.0, 1.5, 2.0, 2.5)[trial % 4]
        fx, fy, fbw, fbh = mblbp.scaled_feature_arrays(model.features, scale)
        eff_w = int(np.max(fx + 3 * fbw))
        eff_h = int(np.max(fy + 3 * fbh))
        width = eff_w + stride - 1 if thin == "x" else 72
        height = eff_h + stride - 1 if thin == "y" else 48
        px = rng.integers(0, 256, (height, width), np.uint8)
        ii = imaging.integral(Frame(width, height, px))
        nx = (width - eff_w) // stride + 1
        ny = (height - eff_h) // stride + 1
        assert (nx == 1, ny == 1) == (thin == "x", thin == "y")
        got = _scan_lattice(ii, model, stride, nx, ny, scale)
        xs, ys = range(0, nx * stride, stride), range(0, ny * stride, stride)
        want = np.array([[mblbp.eval_window(ii, model, (x, y), scale) for x in xs] for y in ys])
        assert np.array_equal(got, want), f"trial {trial} (scale {scale}, stride {stride})"
        accepted += int(want.sum())
        windows += want.size
    assert 0 < accepted < windows  # both outcomes are exercised


def _brute_force_scan(frame, model, params):
    """Accepted rects, scale by scale and row by row, from mblbp.eval_window
    at every stride-lattice origin whose window and feature grids fit."""
    ii = imaging.integral(frame)
    width, height = frame.width, frame.height
    out = []
    ladder = detector.scale_schedule(width, height, model.window_w, model.window_h, params)
    for scale in ladder:
        win_w = round_half_up(model.window_w * scale)
        win_h = round_half_up(model.window_h * scale)
        stride = max(params.stride_base, round_half_up(scale))
        for y in range(0, height, stride):
            for x in range(0, width, stride):
                grids = [mblbp.scaled_grid(f, (x, y), scale) for f in model.features]
                fits = x + win_w <= width and y + win_h <= height and all(
                    gx + 3 * bw <= width and gy + 3 * bh <= height for gx, gy, bw, bh in grids
                )
                if fits and mblbp.eval_window(ii, model, (x, y), scale):
                    out.append(Rect(x, y, win_w, win_h))
    return out


@pytest.mark.parametrize("chunk", [None, 5])
def test_scan_matches_eval_window_over_every_scale(monkeypatch, chunk):
    if chunk is not None:  # later stages then run over several chunks
        monkeypatch.setattr(kernels, "SCAN_CHUNK", chunk)
    rng = np.random.default_rng(31)
    # a 12x9 window scanned at 1.3^k (6 scales) over 60x40 frames
    params = detector.DetectorParams(min_size_fraction=0.225, scale_factor=1.3, stride_base=1)
    overshoots = accepted = 0
    sizes = set()
    for trial in range(8):
        model = _random_model(rng, n_stages=3, n_weaks=2)
        # 3 + 3*3 fills the window's width; at scales 2.2 and 2.9 the rounded
        # grid ends two pixels past the rounded window
        features = (mblbp.MbLbpFeature(3, 0, 3, 2),) + model.features[1:]
        model = mblbp.CascadeModel(features, model.stages, 12, 9)
        px = rng.integers(0, 256, (40, 60), np.uint8)
        frame = Frame(60, 40, px)
        want = _brute_force_scan(frame, model, params)
        assert detector.scan(frame, model, params) == want, f"trial {trial}"
        accepted += len(want)
        ladder = detector.scale_schedule(60, 40, 12, 9, params)
        assert len(ladder) >= 3
        overshoots += sum(
            round_half_up(3 * s) + 3 * round_half_up(3 * s) > round_half_up(12 * s)
            for s in ladder
        )
        sizes.update((r.w, r.h) for r in want)
    assert overshoots > 0
    assert len(sizes) >= 3  # accepted windows at several scales
    assert accepted > 3 * 5  # with chunk 5, the survivors fill several chunks



@pytest.mark.parametrize(
    "size",
    # at the largest scale of 36x26, 1.3^4, the 12x9 window is 34x26 and
    # fits the frame, but a rounded feature grid reaches row 27
    [(60, 40), (36, 26)],
    ids=["every-scale", "largest-has-no-lattice"],
)
def test_build_plan_geometry_equals_a_per_scale_recomputation(size):
    width, height = size
    rng = np.random.default_rng(32)
    params = detector.DetectorParams(min_size_fraction=0.225 * 40 / height, scale_factor=1.3)
    model = _random_model(rng, n_stages=1, n_weaks=2)
    # grids that end past the rounded window at scales 1.69, 2.2 and 2.9
    model = mblbp.CascadeModel(
        (mblbp.MbLbpFeature(3, 0, 3, 2),) + model.features[1:], model.stages, 12, 9
    )
    want = []
    for scale in detector.scale_schedule(width, height, 12, 9, params):
        win_w, win_h = round_half_up(12 * scale), round_half_up(9 * scale)
        stride = max(params.stride_base, round_half_up(scale))
        grid = [mblbp.scaled_grid(f, (0, 0), scale) for f in model.features]
        eff_w = max([win_w] + [x + 3 * bw for x, _, bw, _ in grid])
        eff_h = max([win_h] + [y + 3 * bh for _, y, _, bh in grid])
        nx, ny = (width - eff_w) // stride + 1, (height - eff_h) // stride + 1
        if nx >= 1 and ny >= 1:
            want.append((stride, nx, ny, win_w, win_h, grid))
    plan = detector._build_plan(model, params, width, height)
    got = list(zip(
        plan.stride.tolist(), plan.nx.tolist(), plan.ny.tolist(),
        plan.win_w.tolist(), plan.win_h.tolist(),
        [list(map(tuple, g)) for g in plan.grid.transpose(1, 2, 0).tolist()],
    ))
    assert got == want
    n_scales = len(detector.scale_schedule(width, height, 12, 9, params))
    assert len(want) == (n_scales if width == 60 else n_scales - 1)


# leaves whose float64 sums depend on the order of addition
_NASTY_LEAVES = (0.1, 0.2, 0.7, -0.1, -0.7, 1e16, -1e16)


def _tie_model(rng, frame_code):
    """Random cascade of 1-3 stages of 1-5 weaks, with leaves from
    _NASTY_LEAVES, each threshold a sequential sum of one vote per weak.

    Half the thresholds sum the votes a window of all frame_code codes
    gets, so such a window ties with the threshold.
    """
    w, h = 12, 9
    features = [
        mblbp.MbLbpFeature(int(rng.integers(0, 4)), int(rng.integers(0, 4)),
                           int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        for _ in range(3)
    ]
    stages = []
    for _ in range(int(rng.integers(1, 4))):
        weaks = []
        for _ in range(int(rng.integers(1, 6))):
            words = rng.integers(0, 2**32, 8, dtype=np.uint64)
            if rng.random() < 0.5:  # a subset of all or no codes: one vote only
                words[:] = 0 if rng.random() < 0.5 else 2**32 - 1
            leaf_in, leaf_out = (float(v) for v in rng.choice(_NASTY_LEAVES, 2))
            weaks.append(mblbp.WeakClassifier(
                int(rng.integers(0, len(features))), tuple(int(v) for v in words),
                leaf_in, leaf_out,
            ))
        tie = rng.random() < 0.5
        thr = 0.0
        for wk in weaks:
            if tie:
                hit = mblbp.subset_contains(wk.subset, frame_code)
            else:
                hit = rng.random() < 0.5
            thr += wk.leaf_in if hit else wk.leaf_out
        stages.append(mblbp.Stage(thr, tuple(weaks)))
    return mblbp.CascadeModel(tuple(features), tuple(stages), w, h)


def test_scan_lattices_rejection_is_exact_on_nonassociative_leaves_and_ties():
    rng = np.random.default_rng(14)
    stride, width, height = 2, 20, 15
    nx, ny = (width - 12) // stride + 1, (height - 9) // stride + 1
    flat = np.full((height, width), 77, np.uint8)
    outcomes = set()
    for trial in range(300):
        noisy = trial % 2 == 1
        px = rng.integers(0, 256, (height, width), np.uint8) if noisy else flat
        ii = imaging.integral(Frame(width, height, px))
        model = _tie_model(rng, frame_code=255)  # a flat grid's code
        got = _scan_lattice(ii, model, stride, nx, ny)
        xs, ys = range(0, nx * stride, stride), range(0, ny * stride, stride)
        want = np.array([[mblbp.eval_window(ii, model, (x, y)) for x in xs] for y in ys])
        assert np.array_equal(got, want), f"trial {trial}"
        outcomes.update(np.unique(want).tolist())
    assert outcomes == {False, True}


def _patch_scan_case():
    """A 60x40 frame, flat but for one textured 20x10 patch at (30, 20), and a
    one-feature cascade that accepts the patch's code at (30, 20)."""
    rng = np.random.default_rng(8)
    px = np.full((40, 60), 128, np.uint8)
    px[20:30, 30:50] = rng.integers(0, 256, (10, 20), np.uint8)
    ii = imaging.integral(Frame(60, 40, px))
    feature = mblbp.MbLbpFeature(1, 1, 4, 2)
    code = mblbp.lbp_code(ii, feature, (30, 20))
    assert code != mblbp.lbp_code(ii, feature, (0, 0))
    # stage 1 reads the same grid as a second feature, which the dense step
    # has not read, so survivors of stage 0 reach codes_at
    stages = tuple(
        mblbp.Stage(0.5, (mblbp.WeakClassifier(i, mblbp.subset_from_codes([code]), 1.0, 0.0),))
        for i in range(2)
    )
    model = mblbp.CascadeModel((feature, feature), stages, 20, 10)
    return ii, model


def _patch_lattice():
    """(stride, nx, ny) of every origin whose feature grid fits the frame."""
    # feature grids span 1 + 3 * 4 = 13 by 1 + 3 * 2 = 7 pixels from the origin
    return 2, (60 - 13) // 2 + 1, (40 - 7) // 2 + 1


@pytest.mark.parametrize("rows", [1, 3, 5])
def test_scan_lattices_bands_equal_one_band(monkeypatch, rows):
    ii, model = _patch_scan_case()
    lattice = _patch_lattice()
    whole = _scan_lattice(ii, model, *lattice)
    assert whole[10, 15]  # origin (30, 20)
    survivors = [int(whole[top : top + rows].sum()) for top in range(0, whole.shape[0], rows)]
    assert 0 in survivors  # the flat rows above the patch make empty bands
    monkeypatch.setattr(kernels, "SCAN_CHUNK", rows * whole.shape[1])
    monkeypatch.setattr(kernels, "BAND_CHUNKS", 1)  # bands of `rows` rows
    gathered = []
    codes_at = kernels.codes_at

    def counted(sums, x, *rest, **kwargs):
        gathered.append(x.size)
        return codes_at(sums, x, *rest, **kwargs)

    monkeypatch.setattr(kernels, "codes_at", counted)
    banded = _scan_lattice(ii, model, *lattice)
    assert np.array_equal(banded, whole)
    # stage 1 runs once over the survivors of every band, which fit one
    # chunk of SCAN_CHUNK
    assert sum(survivors) <= rows * whole.shape[1]
    assert gathered == [sum(survivors)]


def _count_codes_at(monkeypatch):
    """Count codes_at calls: the returned list collects the origins (x, y) of each."""
    calls = []
    codes_at = kernels.codes_at

    def counted(sums, x, y, *rest, **kwargs):
        calls.append((x, y))
        return codes_at(sums, x, y, *rest, **kwargs)

    monkeypatch.setattr(kernels, "codes_at", counted)
    return calls


def _counted_scan(monkeypatch, ii, model, lattice=None):
    """scan_lattices over a lattice (the patch lattice by default), with the
    origins of each codes_at call."""
    calls = _count_codes_at(monkeypatch)
    return _scan_lattice(ii, model, *(lattice or _patch_lattice())), calls


def test_scan_lattices_scores_later_weaks_on_survivors_only(monkeypatch):
    ii, model = _patch_scan_case()
    first = model.stages[0].weaks[0]
    # weak 0's leaf_out leaves weak 1 unable to reach 2.0, so its misses drop
    other = mblbp.WeakClassifier(1, (2**32 - 1,) * 8, 1.0, -1.0)
    weak0 = mblbp.WeakClassifier(0, first.subset, 1.0, -1.0)
    feats = (model.features[0], mblbp.MbLbpFeature(2, 0, 3, 2))
    model = mblbp.CascadeModel(feats, (mblbp.Stage(2.0, (weak0, other)),), 20, 10)
    got, calls = _counted_scan(monkeypatch, ii, model)
    stride, nx, ny = _patch_lattice()
    hits = {
        (x, y)
        for y in range(0, ny * stride, stride)
        for x in range(0, nx * stride, stride)
        if mblbp.eval_weak(ii, weak0, model, (x, y)) == 1.0
    }
    assert 0 < len(hits) < nx * ny
    assert len(calls) == 1  # one band, one gathered weak
    x, y = calls[0]
    assert sorted(zip((x - 2).tolist(), y.tolist())) == sorted(hits)
    iy, ix = np.nonzero(got)  # weak 1 holds every code, so the hits are accepted
    assert sorted(zip((ix * stride).tolist(), (iy * stride).tolist())) == sorted(hits)


def test_scan_lattices_reads_a_stage_densely_until_a_check_drops_an_origin(monkeypatch):
    ii, model = _patch_scan_case()
    feats = (model.features[0], mblbp.MbLbpFeature(2, 0, 3, 2), mblbp.MbLbpFeature(0, 2, 2, 1))
    weaks = tuple(
        mblbp.WeakClassifier(i, model.stages[0].weaks[0].subset, 1.0, -1.0) for i in range(3)
    )
    # bounds after weaks 0 and 1 are at least -1 + 2 and -2 + 1, so only
    # the stage end, where a window with three misses sums to -3, can fail
    model = mblbp.CascadeModel(feats, (mblbp.Stage(-2.0, weaks),), 20, 10)
    assert _lattice_plan(model, *_patch_lattice()).wcheck.tolist() == [False, False, True]
    got, calls = _counted_scan(monkeypatch, ii, model)
    stride, nx, ny = _patch_lattice()
    xs, ys = range(0, nx * stride, stride), range(0, ny * stride, stride)
    want = np.array([[mblbp.eval_window(ii, model, (x, y)) for x in xs] for y in ys])
    assert np.array_equal(got, want)
    assert 0 < want.sum() < want.size
    assert calls == []


def test_scan_lattices_gathers_a_later_weak_once_over_every_scale(monkeypatch):
    ii, model = _patch_scan_case()
    # weak 0 is stage 0's first check; weak 1, after it, holds every code
    weak0 = mblbp.WeakClassifier(0, model.stages[0].weaks[0].subset, 1.0, -1.0)
    other = mblbp.WeakClassifier(1, (2**32 - 1,) * 8, 1.0, -1.0)
    feats = (model.features[0], mblbp.MbLbpFeature(2, 0, 3, 2))
    model = mblbp.CascadeModel(feats, (mblbp.Stage(2.0, (weak0, other)),), 20, 10)
    # the same geometry at strides 2 and 1: the patch origin lies on both
    lattices = [_patch_lattice(), (1, 60 - 13 + 1, 40 - 7 + 1)]
    grid = np.stack(mblbp.scaled_feature_arrays(feats, np.ones(2)))
    plan = kernels.ScanPlan(model, *(np.array(v, np.int64) for v in zip(*lattices)), grid)
    assert plan.wcheck.tolist() == [True, True]
    hits = [
        [
            (x, y)
            for y in range(0, ny * stride, stride)
            for x in range(0, nx * stride, stride)
            if mblbp.eval_weak(ii, weak0, model, (x, y)) == 1.0
        ]
        for stride, nx, ny in lattices
    ]
    assert all(0 < len(h) < nx * ny for h, (_, nx, ny) in zip(hits, lattices))
    calls = _count_codes_at(monkeypatch)
    got = kernels.scan_lattices(ii, plan)
    # one gather over the survivors of both scales, scale-major
    assert len(calls) == 1
    x, y = calls[0]
    assert list(zip((x - 2).tolist(), y.tolist())) == hits[0] + hits[1]
    s, gx, gy = plan.origins(np.flatnonzero(got))
    assert list(zip(gx.tolist(), gy.tolist())) == hits[0] + hits[1]
    assert np.bincount(s).tolist() == [len(h) for h in hits]


def test_scan_lattices_gathers_the_rest_of_stage_0_after_a_band_that_drops_nothing(monkeypatch):
    # the top rows are flat, and every flat grid's code (255) passes weak 0;
    # the bottom rows are noise, where weak 0 drops some windows
    rng = np.random.default_rng(15)
    px = np.full((40, 60), 128, np.uint8)
    px[20:] = rng.integers(0, 256, (20, 60), np.uint8)
    ii = imaging.integral(Frame(60, 40, px))
    feats = (mblbp.MbLbpFeature(0, 0, 2, 2), mblbp.MbLbpFeature(1, 1, 1, 1))
    high = mblbp.subset_from_codes(c for c in range(256) if c & 128)
    odd = mblbp.subset_from_codes(c for c in range(256) if c & 1)
    weaks = (mblbp.WeakClassifier(0, high, 1.0, -1.0), mblbp.WeakClassifier(1, odd, 1.0, -1.0))
    model = mblbp.CascadeModel(feats, (mblbp.Stage(0.5, weaks),), 6, 6)
    stride, nx, ny = 2, (60 - 6) // 2 + 1, (40 - 6) // 2 + 1
    xs, ys = range(0, nx * stride, stride), range(0, ny * stride, stride)
    first = np.array(
        [[mblbp.eval_weak(ii, weaks[0], model, (x, y)) == 1.0 for x in xs] for y in ys]
    )
    want = np.array([[mblbp.eval_window(ii, model, (x, y)) for x in xs] for y in ys])
    # bands of 4 rows: the first two are flat, the later ones lose windows
    monkeypatch.setattr(kernels, "SCAN_CHUNK", 4 * nx)
    monkeypatch.setattr(kernels, "BAND_CHUNKS", 1)
    assert first[:8].all() and not first[8:].all()
    got, calls = _counted_scan(monkeypatch, ii, model, (stride, nx, ny))
    assert np.array_equal(got, want)
    assert 0 < want.sum() < first.sum()
    # weak 1 reads every window that passed weak 0, the flat bands' too
    assert sum(x.size for x, _ in calls) == first.sum()


def test_scan_lattices_gathers_each_feature_once_a_chunk(monkeypatch):
    rng = np.random.default_rng(44)
    # distinct block sizes, so that a gather's block size names its feature
    feats = (
        mblbp.MbLbpFeature(0, 0, 2, 2), mblbp.MbLbpFeature(1, 1, 3, 1),
        mblbp.MbLbpFeature(0, 2, 1, 2), mblbp.MbLbpFeature(2, 0, 1, 1),
        mblbp.MbLbpFeature(3, 3, 2, 1),
    )
    by_size = {(f.bw, f.bh): i for i, f in enumerate(feats)}

    def weak(f):
        words = tuple(int(v) for v in rng.integers(0, 2**32, 8, dtype=np.uint64))
        return mblbp.WeakClassifier(f, words, 1.0, -1.0)

    # votes of +1 or -1: stage 0's bound first can fail after weak 2, so
    # weaks 0-2 are dense and weak 3 reads weak 0's feature again. Stage 1
    # reads features 3 and 4 twice each, and the dense features 1 and 2;
    # its bound first can fail after its fifth weak
    stages = (
        mblbp.Stage(-1.0, tuple(weak(f) for f in (0, 1, 2, 0))),
        mblbp.Stage(-2.0, tuple(weak(f) for f in (3, 1, 3, 4, 2, 4))),
    )
    model = mblbp.CascadeModel(feats, stages, 12, 9)
    nx, ny = 60 - 12 + 1, 40 - 9 + 1
    plan = _lattice_plan(model, 1, nx, ny)
    assert plan.dense == 3
    assert np.flatnonzero(plan.wcheck).tolist() == [2, 3, 8, 9]
    monkeypatch.setattr(kernels, "SCAN_CHUNK", 256)
    chunks = []
    later, codes_at = kernels._later_weaks, kernels.codes_at

    def chunk(*args):
        chunks.append([])
        return later(*args)

    def counted(sums, x, y, bw, bh, *rest, **kwargs):
        chunks[-1].append(by_size[int(bw[0]), int(bh[0])])
        return codes_at(sums, x, y, bw, bh, *rest, **kwargs)

    monkeypatch.setattr(kernels, "_later_weaks", chunk)
    monkeypatch.setattr(kernels, "codes_at", counted)
    ii = imaging.integral(Frame(60, 40, rng.integers(0, 256, (40, 60), np.uint8)))
    got = kernels.scan_lattices(ii, plan).reshape(ny, nx)
    want = np.array([[mblbp.eval_window(ii, model, (x, y)) for x in range(nx)] for y in range(ny)])
    assert np.array_equal(got, want)
    assert 0 < want.sum() < want.size
    assert len(chunks) > 1
    # a chunk gathers feature 3, then 4, once each, while it has windows
    # left; the dense features are never gathered
    assert all(c == [3, 4][: len(c)] for c in chunks)
    assert chunks.count([3, 4]) > 1


def _half_pass_model(rng):
    """A random 12x9 cascade of three stages of four weaks, with votes of
    +1 or -1 and random subsets: each stage passes about 11 in 16 random
    windows, and its first three weaks are dense in stage 0."""
    features = _random_model(rng).features
    stages = tuple(
        mblbp.Stage(0.0, tuple(
            mblbp.WeakClassifier(
                int(rng.integers(0, len(features))),
                tuple(int(v) for v in rng.integers(0, 2**32, 8, dtype=np.uint64)),
                1.0, -1.0,
            )
            for _ in range(4)
        ))
        for _ in range(3)
    )
    return mblbp.CascadeModel(features, stages, 12, 9)


_HALF_PASS_PARAMS = detector.DetectorParams(
    min_size_fraction=0.2, scale_factor=1.2, stride_base=1
)


def test_a_second_frame_of_the_same_size_gathers_into_the_held_buffers(monkeypatch):
    rng = np.random.default_rng(45)
    model = _half_pass_model(rng)
    frames = [Frame(96, 64, rng.integers(0, 256, (64, 96), np.uint8)) for _ in range(2)]
    peaks, sizes = [], []
    gather = kernels._gather

    def measured(sums, x, *rest):
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = gather(sums, x, *rest)
        peaks[-1] = max(peaks[-1], tracemalloc.get_traced_memory()[1] - start)
        sizes.append(x.size)
        return out

    monkeypatch.setattr(kernels, "_gather", measured)
    tracemalloc.start()
    try:
        for frame in frames:
            peaks.append(0)
            detector.scan(frame, model, _HALF_PASS_PARAMS)
    finally:
        tracemalloc.stop()
    # the gathers are large enough that a (4, 4, n) int64 index would pass
    # 64 KiB; the first frame makes the plan's uint32 corners
    assert 16 * 8 * max(sizes) > 64 << 10
    assert peaks[0] >= kernels.SCAN_CHUNK * 16 * 4
    # the gathers of a second frame of the same size make no array above 64 KiB
    assert peaks[1] <= 64 << 10


def test_plans_of_two_frame_sizes_and_two_table_dtypes_share_no_buffer():
    rng = np.random.default_rng(46)
    model = _half_pass_model(rng)
    sizes = [(96, 64), (80, 56)]
    frames = {
        (w, h): Frame(w, h, rng.integers(0, 256, (h, w), np.uint8)) for w, h in sizes
    }

    def mask(plan, size, dtype):
        return kernels.scan_lattices(imaging.integral(frames[size], dtype), plan)

    # each scan changes the frame size from the last one, and every other
    # one the table dtype
    cases = [(size, dtype) for dtype in (np.uint32, np.int64) for size in sizes]
    # a plan whose buffers no scan has used, as in a fresh process
    want = [mask(detector._build_plan(model, _HALF_PASS_PARAMS, *size), size, dtype)
            for size, dtype in cases]
    assert all(0 < m.sum() < m.size for m in want)
    plans = {size: detector._build_plan(model, _HALF_PASS_PARAMS, *size) for size in sizes}
    for _ in range(2):
        for (size, dtype), m in zip(cases, want):
            assert np.array_equal(mask(plans[size], size, dtype), m)
    held = [b for p in plans.values() for b in (p.buffers.index, *p.buffers.corners.values())]
    assert len(held) == 6  # an index, and corners of both dtypes, per plan
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(held, 2))


@pytest.mark.parametrize(
    "n_weaks, threshold, checks, dense",
    [
        (6, -1.0, [False] * 3 + [True] * 3, 4),  # the shape of crowd's stage 0
        (2, 0.5, [True, True], 1),  # track's: its first weak can fail a window
        (6, -7.0, [False] * 6, 6),  # no weak can fail: all of stage 0
    ],
    ids=["crowd", "track", "none"],
)
def test_scan_plan_reads_stage_0_densely_through_its_first_check(n_weaks, threshold, checks, dense):
    # votes of +1 or -1: the bound after weak k is -(k + 1) + (n_weaks - 1 - k)
    weak = mblbp.WeakClassifier(0, (1,) + (0,) * 7, 1.0, -1.0)
    stages = (mblbp.Stage(threshold, (weak,) * n_weaks), mblbp.Stage(0.5, (weak,)))
    model = mblbp.CascadeModel((mblbp.MbLbpFeature(0, 0, 1, 1),), stages, 3, 3)
    plan = _lattice_plan(model, 1, 1, 1)
    assert plan.wcheck[:n_weaks].tolist() == checks
    assert plan.dense == dense


def test_scan_lattices_gathers_in_chunks_when_every_window_survives_the_first_check():
    # a flat frame: weak 0 accepts every window's code, 255, so the later
    # weaks gather all 298 x 298 windows. They read the same grid as a
    # second feature, which the dense step has not read
    ii = imaging.integral(Frame(300, 300, np.full((300, 300), 9, np.uint8)))
    feats = (mblbp.MbLbpFeature(0, 0, 1, 1),) * 2
    weak = mblbp.WeakClassifier(0, mblbp.subset_from_codes([255]), 1.0, -1.0)
    later = mblbp.WeakClassifier(1, weak.subset, 1.0, -1.0)

    def peak(stages):
        model = mblbp.CascadeModel(feats, stages, 3, 3)
        plan = _lattice_plan(model, 1, 298, 298)
        assert plan.dense == 1
        tracemalloc.start()
        try:
            mask = kernels.scan_lattices(ii, plan)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mask.all()
        return top

    prefix = peak((mblbp.Stage(0.5, (weak,)),))
    later = peak((mblbp.Stage(2.5, (weak,) + (later,) * 2), mblbp.Stage(0.5, (later,))))
    # a gather holds the plan's (4, 4, n) int64 index and corners, then
    # (3, 4, n) int64 strips and (3, 3, n) int64 blocks: under 512 bytes a
    # window
    assert later - prefix < kernels.SCAN_CHUNK * 512
    assert kernels.SCAN_CHUNK * 512 < 298 * 298 * 256


def _wrapped(table, offset):
    """table plus offset mod 2**32, as uint32: every block sum is unchanged."""
    return (table.astype(np.uint64) + offset).astype(np.uint32)


def test_a_table_that_wraps_past_2_32_gives_the_int64_codes_and_mask():
    rng = np.random.default_rng(40)
    frames = [Frame(60, 40, rng.integers(0, 256, (40, 60), np.uint8)) for _ in range(3)]
    ii = imaging.integral(frames[0])
    # entries from the center entry's value up wrap past 2**32 and those
    # below it do not, so many blocks have corners on both sides of the wrap
    k = int(ii[20, 30])
    wrapped = _wrapped(ii, 2**32 - k)
    assert np.array_equal(wrapped < 2**32 - k, ii >= k)  # the entries that wrapped
    assert 0 < np.count_nonzero(ii >= k) < ii.size
    gx, gy = np.meshgrid(np.arange(0, 46), np.arange(0, 32))
    x, y = gx.reshape(-1), gy.reshape(-1)
    for bw, bh in [(1, 1), (3, 2), (4, 3)]:
        fits = (x + 3 * bw <= 60) & (y + 3 * bh <= 40)
        assert np.array_equal(
            kernels.codes_at(wrapped, x[fits], y[fits], bw, bh),
            kernels.codes_at(ii, x[fits], y[fits], bw, bh),
        )
    outcomes = set()
    for _ in range(8):
        model = _random_model(rng)
        want = _scan_lattice(ii, model, 2, 24, 16)
        assert np.array_equal(_scan_lattice(wrapped, model, 2, 24, 16), want)
        outcomes.update(np.unique(want).tolist())
    assert outcomes == {False, True}
    stack = imaging.prefix_sums(np.stack([f.pixels for f in frames], axis=-1))
    feats = trainer.enumerate_features(12, 9)
    arrays = mblbp.scaled_feature_arrays(feats, 1.0)
    want = kernels.codes_stack(stack, *arrays)
    assert np.array_equal(kernels.codes_stack(_wrapped(stack, 2**32 - k), *arrays), want)


def test_max_dim_keeps_every_block_sum_below_2_32():
    # a 3x3 grid lies inside its frame, so a block has at most a third of
    # each side: raising MAX_DIM past this bound makes uint32 block sums wrap
    assert 255 * (imaging.MAX_DIM // 3) ** 2 < 2**32


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(14, 40), st.integers(11, 30), st.integers(1, 3),
    st.integers(0, 2**32 - 1), st.integers(1, 2**17),
)
def test_scan_mask_from_a_uint32_table_equals_the_int64_mask(width, height, stride, seed, k):
    rng = np.random.default_rng(seed)
    frame = Frame(width, height, rng.integers(0, 256, (height, width), np.uint8))
    model = _random_model(rng, n_stages=int(rng.integers(1, 4)))
    fx, fy, fbw, fbh = mblbp.scaled_feature_arrays(model.features, 1.0)
    nx = (width - max(12, int(np.max(fx + 3 * fbw)))) // stride + 1
    ny = (height - max(9, int(np.max(fy + 3 * fbh)))) // stride + 1
    want = _scan_lattice(imaging.integral(frame), model, stride, nx, ny)
    table = imaging.integral(frame, np.uint32)
    assert table.dtype == np.uint32
    assert np.array_equal(_scan_lattice(table, model, stride, nx, ny), want)
    # offset by 2**32 - k, the entries from k up wrap past 2**32
    assert np.array_equal(_scan_lattice(_wrapped(table, 2**32 - k), model, stride, nx, ny), want)


def _lattice_geometry(stride, mx, my, kx, ky):
    """Block size whose gcd with the stride is the stride (m = True) or 1
    (m = False) on each axis: k strides, plus one pixel where coprime."""
    return stride * kx + (not mx), stride * ky + (not my)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 12), st.booleans(), st.booleans(), st.integers(1, 2), st.integers(1, 2),
    st.integers(1, 4), st.integers(1, 4), st.integers(0, 3), st.integers(0, 2**32 - 1),
)
def test_lattice_blocks_give_the_codes_of_the_corner_view(
    stride, mx, my, kx, ky, nx, ny, x0, seed
):
    bw, bh = _lattice_geometry(stride, mx, my, kx, ky)
    gx, gy = np.gcd(stride, bw), np.gcd(stride, bh)
    assert (gx == stride, gy == stride) == (mx or stride == 1, my or stride == 1)
    width, height = x0 + (nx - 1) * stride + 3 * bw, 2 + (ny - 1) * stride + 3 * bh
    rng = np.random.default_rng(seed)
    ii = imaging.integral(Frame(width, height, rng.integers(0, 256, (height, width), np.uint8)))
    want = kernels._codes(kernels._corner_view(ii, x0, 2, stride, stride, nx, ny, bw, bh))
    blocks = kernels._lattice_blocks(ii, x0, 2, stride, nx, ny, bw, bh)
    assert blocks.shape == (3, 3, ny, nx)
    assert np.array_equal(kernels._pattern(blocks), want)
    if bw * bh <= kernels.NARROW_PIXELS:
        narrow = ii.astype(np.uint16)
        got = kernels._pattern(kernels._lattice_blocks(narrow, x0, 2, stride, nx, ny, bw, bh))
        assert np.array_equal(got, want)


def _one_weak_plan(feature, window, accept, stride=1, nx=1, ny=1):
    """A one-lattice plan of one weak that accepts the codes in accept."""
    weak = mblbp.WeakClassifier(0, mblbp.subset_from_codes(accept), 1.0, -1.0)
    model = mblbp.CascadeModel((feature,), (mblbp.Stage(0.5, (weak,)),), *window)
    return _lattice_plan(model, stride, nx, ny)


@pytest.mark.parametrize("bw, bh, narrow", [(257, 1, True), (129, 2, False)])
def test_blocks_of_257_pixels_are_read_in_16_bits_and_of_258_in_32(bw, bh, narrow):
    # the center block is 255s and its neighbours 254s: code 0. A 257-pixel
    # block of 255s sums to 65,535, the largest uint16; 258 of them wrap it
    px = np.full((3 * bh, 3 * bw), 254, np.uint8)
    px[bh : 2 * bh, bw : 2 * bw] = 255
    ii = imaging.integral(Frame(3 * bw, 3 * bh, px), kernels.TABLE_DTYPE)
    feature = mblbp.MbLbpFeature(0, 0, bw, bh)
    assert mblbp.lbp_code(imaging.integral(Frame(3 * bw, 3 * bh, px)), feature, (0, 0)) == 0
    plan = _one_weak_plan(feature, (3 * bw, 3 * bh), [0])
    assert plan.narrow.tolist() == [[narrow]]
    assert kernels.scan_lattices(ii, plan).tolist() == [True]
    # read mod 2**16, the 258-pixel center wraps below its neighbours
    wrapped = kernels._pattern(
        kernels._lattice_blocks(ii.astype(np.uint16), 0, 0, 1, 1, 1, bw, bh)
    )
    assert wrapped.tolist() == [[0 if narrow else 255]]


@pytest.mark.parametrize("wrap", [2**16, 2**32])
def test_dense_reads_of_a_table_that_wraps_give_the_int64_codes(wrap):
    rng = np.random.default_rng(41)
    ii = imaging.integral(Frame(80, 60, rng.integers(0, 256, (60, 80), np.uint8)))
    # offset by wrap - k, the entries from k up pass the wrap; the uint16
    # copy of either table wraps at 2**16 many times over
    k = int(ii[10, 10])
    assert 0 < np.count_nonzero(ii >= k) < ii.size and k < 2**16
    table = _wrapped(ii, wrap - k)
    narrow = table.astype(np.uint16)
    for stride, bw, bh in [(1, 1, 1), (2, 4, 3), (3, 3, 5), (4, 8, 4), (5, 2, 2)]:
        nx, ny = (80 - 3 * bw) // stride + 1, (60 - 3 * bh) // stride + 1
        want = kernels._codes(kernels._corner_view(ii, 0, 0, stride, stride, nx, ny, bw, bh))
        for sums in (table, narrow):
            for read in (kernels._lattice_blocks, kernels._corner_blocks):
                got = kernels._pattern(read(sums, 0, 0, stride, nx, ny, bw, bh))
                assert np.array_equal(got, want), (stride, bw, bh, sums.dtype, read)
    for _ in range(4):
        model = _random_model(rng)
        want = _scan_lattice(ii, model, 2, 30, 20)
        assert np.array_equal(_scan_lattice(table, model, 2, 30, 20), want)


@pytest.mark.parametrize("read", ["_lattice_blocks", "_corner_blocks"])
@pytest.mark.parametrize(
    "shift", [(-1, 0), (0, -2), (1, 0), (0, 1)], ids=["x<0", "y<0", "x+1", "y+1"]
)
def test_a_dense_band_that_leaves_the_table_is_a_bounds_error(read, shift):
    ii = imaging.integral(Frame(40, 30, np.zeros((30, 40), np.uint8)), kernels.TABLE_DTYPE)
    # stride 2, 2x3 blocks: the last grid, at (34, 21), ends at the table's
    # edge, so a shift of one pixel right or down leaves it
    read = getattr(kernels, read)
    assert read(ii, 0, 1, 2, 18, 11, 2, 3).shape == (3, 3, 11, 18)
    with pytest.raises(BoundsError):
        read(ii, shift[0], 1 + shift[1], 2, 18, 11, 2, 3)


def test_a_plan_for_a_larger_frame_than_the_table_is_a_bounds_error():
    rng = np.random.default_rng(42)
    model = _random_model(rng, window=(24, 12))
    params = detector.DetectorParams()
    plan = detector.scan_plan(model, params, 64, 40)
    assert plan.reach[0] <= 64 and plan.reach[1] <= 40
    frame = Frame(64, 40, rng.integers(0, 256, (40, 64), np.uint8))
    kernels.scan_lattices(imaging.integral(frame, kernels.TABLE_DTYPE), plan)
    for w, h in [(63, 40), (64, 39), (32, 20)]:
        table = imaging.integral(Frame(w, h, frame.pixels[:h, :w]), kernels.TABLE_DTYPE)
        with pytest.raises(BoundsError, match="past the"):
            kernels.scan_lattices(table, plan)


def test_a_dense_band_holds_no_more_than_a_full_gather():
    # 22x20-pixel blocks at stride 3 (9 table entries a window, 440 pixels)
    # take the corner read of the uint32 table, the costliest; 21x24 blocks
    # take the lattice read, still of the uint32 table
    stride, width, height = 3, 3 * 256 + 72, 3 * 128 + 72
    rng = np.random.default_rng(43)
    frame = Frame(width, height, rng.integers(0, 256, (height, width), np.uint8))
    ii = imaging.integral(frame, kernels.TABLE_DTYPE)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return top

    for bw, bh, lattice in [(22, 20, False), (21, 24, True)]:
        plan = _one_weak_plan(
            mblbp.MbLbpFeature(0, 0, bw, bh), (3 * bw, 3 * bh), [0], stride,
            (width - 3 * bw) // stride + 1, (height - 3 * bh) // stride + 1,
        )
        assert plan.lattice.tolist() == [[lattice]] and plan.narrow.tolist() == [[False]]
        nx = int(plan.nx[0])
        rows = int(kernels._band_rows(nx))
        assert kernels.BAND_CHUNKS * kernels.SCAN_CHUNK - nx < rows * nx <= plan.ny[0] * nx
        band = peak(lambda: kernels._dense_band(ii, None, plan, 0, 0, rows))
        # a full gather: one later weak over SCAN_CHUNK windows of the
        # lattice, into the buffers the plan holds, which count in full
        idx = rng.choice(rows * nx, kernels.SCAN_CHUNK, replace=False)
        _, x, y = plan.origins(np.sort(idx))
        bws, bhs = np.full(x.size, bw), np.full(x.size, bh)

        def gather():
            return kernels.codes_at(ii, x, y, bws, bhs, False, buffers=plan.buffers)

        gather()
        index, corners = plan.buffers.views(kernels.SCAN_CHUNK, ii.dtype)
        held = index.nbytes + corners.nbytes
        assert held == kernels.SCAN_CHUNK * 16 * (8 + 4)
        assert band <= held + peak(gather), (bw, bh, band, held, peak(gather))


def _one_bit_grids():
    """Nine 3x3 one-pixel-block grids, the center and each neighbour
    alone at or above the center (the rest below), with the codes
    ``mblbp.lbp_code`` gives them."""
    grids, codes = [], []
    unit = mblbp.MbLbpFeature(0, 0, 1, 1)
    for k in range(9):
        grid = np.full((3, 3), 5, np.uint8)
        grid[1, 1] = 10
        grid.flat[k] = 10
        grids.append(grid)
        codes.append(mblbp.lbp_code(imaging.integral(Frame(3, 3, grid)), unit, (0, 0)))
    return grids, codes


def test_codes_bit_order_matches_lbp_code_on_every_layout():
    grids, want = _one_bit_grids()
    assert sorted(want) == [0] + [1 << b for b in range(8)]  # the center sets no bit
    # flat (4, 4, n): codes_at at the nine grids of a 3x27 strip
    strip = imaging.integral(Frame(27, 3, np.hstack(grids)))
    x = np.arange(0, 27, 3, dtype=np.int64)
    assert kernels.codes_at(strip, x, np.zeros(9, np.int64), 1, 1).tolist() == want
    # lattice (4, 4, ny, nx): the grids tiled 3 high and 3 wide
    tiles = np.vstack([np.hstack(grids[r * 3 : r * 3 + 3]) for r in range(3)])
    sums = imaging.integral(Frame(9, 9, tiles))
    view = kernels._corner_view(sums, 0, 0, 3, 3, 3, 3, 1, 1)
    assert view.shape == (4, 4, 3, 3)
    assert kernels._codes(view).reshape(-1).tolist() == want
    # stack (4, 4, ny, nx, s): the grids over three samples of one column of
    # three, sample s holding grids s, s+3 and s+6 top to bottom
    stack = np.stack([
        imaging.integral(Frame(3, 9, np.vstack(grids[s::3]))) for s in range(3)
    ], axis=-1)
    view = kernels._corner_view(stack, 0, 0, 3, 3, 1, 3, 1, 1)
    assert view.shape == (4, 4, 3, 1, 3)
    assert kernels._codes(view).reshape(-1).tolist() == want


@pytest.mark.parametrize("axis", ["x", "y"])
def test_scan_lattices_rejects_a_lattice_one_pixel_past_the_table(axis):
    ii, model = _patch_scan_case()
    stride, nx, ny = _patch_lattice()
    if axis == "x":
        nx += 1  # the last grid ends at column 61 of 60
    else:
        ny += 1  # the last grid ends at row 41 of 40
    with pytest.raises(BoundsError):
        _scan_lattice(ii, model, stride, nx, ny)


def test_scan_entry_points():
    # perfbench records selected_backend() and times the scan through scan_impl()
    assert kernels.selected_backend() == "numpy"
    assert kernels.scan_impl() is kernels.scan_lattices


@pytest.mark.parametrize("scale", [1.0, 1.5, 2.5, 0.1])
def test_scaled_feature_arrays_match_scaled_grid(scale):
    feats = [
        mblbp.MbLbpFeature(0, 0, 1, 1),
        mblbp.MbLbpFeature(1, 3, 2, 1),
        mblbp.MbLbpFeature(3, 1, 5, 3),
        mblbp.MbLbpFeature(5, 5, 7, 9),
    ]
    arrays = mblbp.scaled_feature_arrays(feats, scale)
    assert all(a.dtype == np.int64 for a in arrays)
    got = list(zip(*(a.tolist() for a in arrays)))
    assert got == [mblbp.scaled_grid(f, (0, 0), scale) for f in feats]
    if scale == 0.1:
        assert min(arrays[2]) == min(arrays[3]) == 1  # blocks floor at 1 pixel
    # the four scales as one array: row k places the features at scales[k]
    scales = [1.0, 1.5, 2.5, 0.1]
    stacked = mblbp.scaled_feature_arrays(feats, np.array(scales))
    assert all(a.dtype == np.int64 and a.shape == (4, len(feats)) for a in stacked)
    row = scales.index(scale)
    assert list(zip(*(a[row].tolist() for a in stacked))) == got
