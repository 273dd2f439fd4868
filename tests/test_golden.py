"""Pinned outputs: sha256 digests of ``detector.scan`` rects and
``detector.detect`` detections on seeded inputs this file builds itself,
of the ``detect`` TSV and the ``speed`` estimate JSON that the command
line prints over a seeded ``synth`` sequence, of ``save_model`` text of
seeded ``train_cascade`` runs, and of a seeded record store's ``records
list`` stdout, ``records.log`` bytes and upload payload JSON.

The digests were taken before any change they guard. A change to the scan
that keeps its outputs keeps them; one that must move a digest says why.
Each input set asserts the scan paths it reaches, so that a digest cannot
pass by skipping the path it was meant to pin.
"""

import hashlib
from datetime import datetime

import numpy as np
import pytest

from conftest import _build_patch_case

from speedcam import capture, detector, imaging, kernels, mblbp, trainer, uplink
from speedcam.cli import run
from speedcam.imaging import Frame
from speedcam.trainer import NEGATIVE, POSITIVE, TrainConfig, TrainSample

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


# a 96x48 patch moving diagonally over 40 synth frames: detections on every
# other pair of frames, and a speed estimate that completes at frame 37
SYNTH_PATCH = (20, 140)
SYNTH_VELOCITY = (7.5, 1.5)
SYNTH_FRAMES = 40
SYNTH_SEED = 5
# sha256 of stdout per command
CLI_GOLDEN = {
    "detect": "386cf60228167580db71707652b7ec36c890c307506390ed486b9b609a85c02a",
    "speed": "4b206514793fecda02de95d136072b86691655302f1af6d91561154ca18c9ce7",
}


@pytest.fixture(scope="module")
def synth_case(tmp_path_factory):
    """argv naming a seeded ``synth`` sequence, the model and the detector flags."""
    root = tmp_path_factory.mktemp("golden_cli")
    x, y = SYNTH_PATCH
    vx, vy = SYNTH_VELOCITY
    argv = ["synth", "--out", str(root / "seq"), "--patch", str(x), str(y), "96", "48",
            "--velocity", repr(vx), repr(vy), "--frames", str(SYNTH_FRAMES),
            "--seed", str(SYNTH_SEED)]
    assert run(argv) == 0
    case = _build_patch_case(
        velocity=SYNTH_VELOCITY, n_frames=SYNTH_FRAMES, patch_xy=SYNTH_PATCH,
        texture_seed=SYNTH_SEED,
    )
    (root / "model.json").write_text(mblbp.save_model(case.model), encoding="utf-8")
    p = case.params
    return ["--frames", str(root / "seq"), "--model", str(root / "model.json"),
            "--min-size-fraction", repr(p.min_size_fraction),
            "--scale-factor", repr(p.scale_factor), "--stride", str(p.stride_base),
            "--min-neighbors", str(p.min_neighbors), "--group-eps", repr(p.group_eps)]


@pytest.mark.parametrize("command", sorted(CLI_GOLDEN))
def test_cli_stdout_is_pinned(synth_case, capsys, command):
    extra = ["--px-per-m", "37.5"] if command == "speed" else []
    capsys.readouterr()
    assert run([command, *synth_case, *extra]) == 0
    out = capsys.readouterr().out
    assert out  # a detection or an estimate was printed
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CLI_GOLDEN[command]


def _training_set(w, h, n_pos, n_neg, n_twins, seed):
    """Positives with a bright bar across noise, noise negatives, and
    negative twins of the first positives, which no stage can reject."""
    rng = np.random.default_rng(seed)
    pos = []
    for _ in range(n_pos):
        px = rng.integers(0, 80, (h, w), np.uint8)
        px[h // 3 : 2 * h // 3, w // 4 : 3 * w // 4] = rng.integers(160, 256)
        pos.append(TrainSample(Frame(w, h, px), POSITIVE))
    neg = [
        TrainSample(Frame(w, h, rng.integers(0, 256, (h, w), np.uint8)), NEGATIVE)
        for _ in range(n_neg)
    ]
    return pos, neg + [TrainSample(p.window, NEGATIVE) for p in pos[:n_twins]]


# (window w, h, positives, negatives, twins, seed), config, sha256 of save_model
TRAIN_GOLDEN = {
    "twins": (
        (6, 6, 8, 8, 3, 2801), TrainConfig(2, 3, stage_tpr_target=1.0),
        "d1127ccf712eeb28190311e9e3e926982149b0bb994745ba105daca529e5291b",
    ),
    "wide_stride_1": (
        (14, 9, 12, 12, 3, 2802), TrainConfig(3, 4, stage_tpr_target=0.9),
        "2c7652213ab919b69d14e4c085fdde59f23ae87160a21ae35313d275fbbf6c5f",
    ),
    "wide_stride_2": (
        (14, 9, 12, 12, 3, 2802), TrainConfig(3, 4, stage_tpr_target=0.9, feature_stride=2),
        "31f93715325529a93dc0776052fadaee57cfa03a7305249867777ebccd94fbc0",
    ),
}


def _tied_features(monkeypatch):
    """Per best_weak call, how many features reach its minimal error."""
    counts = []
    search = trainer.best_weak

    def counted(samples, features, cache):
        weak, err = search(samples, features, cache)
        weights = np.array([s.weight for s in samples])
        nf = cache.codes.shape[1]
        keys = cache.codes.astype(np.int64) + np.arange(nf) * 256

        def mass(rows):
            w = np.broadcast_to(weights[rows][:, None], keys[rows].shape)
            return np.bincount(keys[rows].ravel(), w.ravel(), nf * 256).reshape(nf, 256)

        errors = np.minimum(mass(cache.positive), mass(~cache.positive)).sum(axis=1)
        counts.append(int(np.count_nonzero(errors == err)))
        return weak, err

    monkeypatch.setattr(trainer, "best_weak", counted)
    return counts


@pytest.mark.parametrize("case", sorted(TRAIN_GOLDEN))
def test_trained_model_text_is_pinned(monkeypatch, case):
    inputs, config, want = TRAIN_GOLDEN[case]
    ties = _tied_features(monkeypatch)
    model = trainer.train_cascade(*_training_set(*inputs), config)
    assert max(ties) > 1  # some weak search picks the first of tied features
    assert len(model.stages) > 1
    text = mblbp.save_model(model)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want


# sha256 of the seeded store's ``records list`` stdout, ``records.log`` and
# ``build_payload`` JSON
STORE_GOLDEN = {
    "records list": "3222f219884778b353d73a6ea2b96c8585a6ad891ddb76dc091185e7ae093a22",
    "records.log": "aaf6a12b31bbeac3ba82ed73b4ed73162fbfeb8f021bdbada037ba538554dc31",
    "payload": "aefdc95ef580510e1c4767dd1098d2cf71720a7a92b3608a15b5227ff7f91534",
}


@pytest.fixture(scope="module")
def seeded_store(synth_case, tmp_path_factory):
    """Two ``speed --capture`` records under a pinned clock, then three
    seeded ones, the last without its image file."""
    store_dir = tmp_path_factory.mktemp("golden_store") / "store"
    for unit, when in (("app-reading", (9, 17, 32)), ("km-h", (10, 5, 1))):
        argv = ["speed", *synth_case, "--px-per-m", "37.5", "--capture",
                "--store", str(store_dir), "--location", "Main St", "--record-unit", unit]
        assert run(argv, clock=lambda: datetime(2016, 9, 26, *when)) == 0
    rng = np.random.default_rng(2803)
    store = capture.RecordStore(store_dir)
    items = [
        (capture.make_record(float(rng.uniform(5, 160)), place, f"2016-09-27_0{k}_3{k}_0{k}"),
         rng.bytes(int(rng.integers(1, 200))))
        for k, place in enumerate(["Elm Rd", "Gro\u00dfe Stra\u00dfe", "A4 \"north\"\tlane"])
    ]
    store.append_batch(items)
    store.image_path(store.list_all()[-1]).unlink()
    return store_dir


def test_record_store_outputs_are_pinned(seeded_store, capsys):
    capsys.readouterr()
    assert run(["records", "list", "--store", str(seeded_store)]) == 0
    listed = capsys.readouterr().out
    assert len(listed.splitlines()) == 5
    payload, warnings = uplink.build_payload(capture.RecordStore(seeded_store))
    assert warnings == [
        "record 5: image vehicle_picture_2016-09-27_02_32_02.jpg missing, "
        "uploading without picture"
    ]
    got = {
        "records list": listed.encode("utf-8"),
        "records.log": (seeded_store / "records.log").read_bytes(),
        "payload": payload.to_json().encode("utf-8"),
    }
    assert {k: hashlib.sha256(v).hexdigest() for k, v in got.items()} == STORE_GOLDEN
