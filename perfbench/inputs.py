"""Input step: every workload's inputs, made from the seed.

Runs before any timed process starts, so its work counts in neither
``setup_s`` nor ``peak_rss_mb``. Frames and samples are written with this
file's own PGM writer; the ingest server store is pre-filled through the
program's ``RecordStore``, so it has whatever layout the program uses.

    python3 perfbench/inputs.py --workload track --seed 1 --out DIR
"""

import argparse
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from checks import naive_code, round_half_up

W, H = 640, 360
FRAME_MS = 1000.0 / 30.0
WINDOW_W, WINDOW_H = 48, 24

# track: a 96x48 vehicle, seen at scale 2 of the 48x24 model window.
TRACK_PATCH_W, TRACK_PATCH_H = 96, 48
TRACK_SCALE = 2
TRACK_VEHICLE_FRAMES = 28  # a pass feeds 20 of them: 4 windows of 5
# (vx, vy) in px per frame. Even, so every position lies on the stride-2 grid.
TRACK_VELOCITIES = ((8, 0), (12, 0), (16, 0), (20, 0), (-14, 0), (14, 6))

CROWD_FRAMES = 25
CROWD_VEHICLE_W, CROWD_VEHICLE_H = 256, 128
CROWD_JITTER = 4
STRESS_MODEL_SEED = 20170217  # fixed: seeds vary the frames, not the cascade
STRESS_STAGES = (6, 6, 6, 6)
STRESS_FEATURES = 20

TRAIN_W, TRAIN_H = 24, 12
TRAIN_POS = 40
TRAIN_HARD_NEG = 40
TRAIN_TWINS = 8
TRAIN_CONFIG = {
    "max_weaks_per_stage": 3,
    "n_stages": 3,
    "stage_tpr_target": 0.98,
    "feature_stride": 2,
}

INGEST_PREFILL = 2000
INGEST_POOL = 256
INGEST_BATCH = 4
THUMB_W, THUMB_H = 64, 36


def pgm_bytes(pixels: np.ndarray) -> bytes:
    h, w = pixels.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.astype(np.uint8).tobytes()


def write_frames(directory: Path, frames, times_ms) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for k, (img, ts) in enumerate(zip(frames, times_ms)):
        name = f"frame_{k:05d}.pgm"
        (directory / name).write_bytes(pgm_bytes(img))
        lines.append(f"{name}\t{ts}\n")
    (directory / "manifest.tsv").write_text("".join(lines), encoding="utf-8")


def frame_time_ms(k: int) -> int:
    return round_half_up(k * FRAME_MS)


def subset_words(codes) -> list:
    words = [0] * 8
    for c in codes:
        words[c >> 5] |= 1 << (c & 31)
    return words


def model_doc(features, stages) -> dict:
    """Model JSON in the program's documented schema; stages are (thr, weaks)."""
    return {
        "window": [WINDOW_W, WINDOW_H],
        "features": [list(f) for f in features],
        "stages": [
            {
                "threshold": thr,
                "weaks": [
                    {"feature": fi, "subset": words, "leafIn": 1.0, "leafOut": -1.0}
                    for fi, words in weaks
                ],
            }
            for thr, weaks in stages
        ],
    }


def make_track(rng, out: Path) -> None:
    """Six passes of one textured vehicle over a noisy road, plus its cascade.

    Each sequence opens with 3-8 frames in which no vehicle is visible and
    holds 8 more vehicle frames than a pass feeds. The cascade accepts
    exactly the six pattern codes the vehicle texture shows at scale 2, so
    nearly every window fails its first stage.
    """
    texture = rng.integers(96, 256, (TRACK_PATCH_H, TRACK_PATCH_W), dtype=np.uint8)
    features = []
    while len(features) < 6:
        bw = int(rng.integers(3, 9))
        bh = int(rng.integers(2, 5))
        f = (int(rng.integers(0, WINDOW_W - 3 * bw + 1)),
             int(rng.integers(0, WINDOW_H - 3 * bh + 1)), bw, bh)
        if f not in features:
            features.append(f)
    codes = [
        naive_code(texture, bx * TRACK_SCALE, by * TRACK_SCALE,
                   bw * TRACK_SCALE, bh * TRACK_SCALE)
        for bx, by, bw, bh in features
    ]
    weaks = [(i, subset_words([c])) for i, c in enumerate(codes)]
    model = model_doc(features, [(2.0, weaks[:2]), (4.0, weaks[2:])])
    (out / "track_model.json").write_text(json.dumps(model, indent=1), encoding="utf-8")

    truth = []
    span = TRACK_VEHICLE_FRAMES - 1
    for k, (vx, vy) in enumerate(TRACK_VELOCITIES):
        lead = int(rng.integers(3, 9))
        x_lo = max(0, -vx * span)
        x_hi = W - TRACK_PATCH_W - max(0, vx * span)
        y_lo = max(0, -vy * span)
        y_hi = H - TRACK_PATCH_H - max(0, vy * span)
        x0 = 2 * int(rng.integers(x_lo // 2, x_hi // 2 + 1))
        y0 = 2 * int(rng.integers(y_lo // 2, y_hi // 2 + 1))
        frames = []
        positions = []
        for n in range(lead + TRACK_VEHICLE_FRAMES):
            img = rng.integers(0, 40, (H, W), dtype=np.uint8)
            if n >= lead:
                x, y = x0 + vx * (n - lead), y0 + vy * (n - lead)
                img[y : y + TRACK_PATCH_H, x : x + TRACK_PATCH_W] = texture
                positions.append([x, y])
            frames.append(img)
        name = f"seq_{k}"
        write_frames(out / name, frames, [frame_time_ms(n) for n in range(len(frames))])
        truth.append({
            "name": name,
            "lead": lead,
            "frames": len(frames),
            "positions": positions,
            "truth_px_s": math.hypot(vx, vy) * 1000.0 / FRAME_MS,
        })
    params = {"min_size_fraction": TRACK_SCALE * WINDOW_H / H, "scale_factor": 1.1,
              "stride_base": 2, "min_neighbors": 1, "group_eps": 0.2}
    (out / "track.json").write_text(
        json.dumps({"sequences": truth, "params": params, "rect": [TRACK_PATCH_W, TRACK_PATCH_H]}),
        encoding="utf-8",
    )


def stress_model() -> dict:
    """Random cascade in which about half of textured windows pass each stage.

    No subset holds code 255, the code of a flat patch, so windows on the
    flat background fail the first stage and candidates cluster on vehicles.
    """
    rng = np.random.default_rng(STRESS_MODEL_SEED)
    features = []
    for _ in range(STRESS_FEATURES):
        bw = int(rng.integers(1, 6))
        bh = int(rng.integers(1, 5))
        features.append((int(rng.integers(0, WINDOW_W - 3 * bw + 1)),
                         int(rng.integers(0, WINDOW_H - 3 * bh + 1)), bw, bh))
    stages = []
    for n in STRESS_STAGES:
        weaks = []
        for _ in range(n):
            words = [int(v) for v in rng.integers(0, 2**32, 8, dtype=np.uint64)]
            words[7] &= ~(1 << 31)
            weaks.append((int(rng.integers(0, STRESS_FEATURES)), words))
        stages.append((0.0, weaks))
    return model_doc(features, stages)


def make_crowd(rng, out: Path) -> None:
    """Distinct frames, each with four textured vehicles on a flat background.

    Each vehicle sits near the middle of its quarter of the frame, moved by
    at most 4 px: wider placement changes how far the candidate clusters of
    neighbouring vehicles overlap, and so the candidate count and the cost
    of grouping, from frame to frame and from seed to seed.
    """
    frames = []
    for _ in range(CROWD_FRAMES):
        img = np.full((H, W), 8, dtype=np.uint8)
        for cell in range(4):
            cx = (cell % 2) * (W // 2) + (W // 2 - CROWD_VEHICLE_W) // 2
            cy = (cell // 2) * (H // 2) + (H // 2 - CROWD_VEHICLE_H) // 2
            x = cx + int(rng.integers(-CROWD_JITTER, CROWD_JITTER + 1))
            y = cy + int(rng.integers(-CROWD_JITTER, CROWD_JITTER + 1))
            img[y : y + CROWD_VEHICLE_H, x : x + CROWD_VEHICLE_W] = rng.integers(
                96, 256, (CROWD_VEHICLE_H, CROWD_VEHICLE_W), dtype=np.uint8
            )
        frames.append(img)
    write_frames(out / "frames", frames, [frame_time_ms(k) for k in range(len(frames))])
    (out / "stress_model.json").write_text(json.dumps(stress_model(), indent=1), encoding="utf-8")
    params = {"min_size_fraction": 0.3, "scale_factor": 1.1, "stride_base": 2,
              "min_neighbors": 3, "group_eps": 0.2}
    (out / "crowd.json").write_text(json.dumps({"params": params}), encoding="utf-8")


def _train_window(rng, parts) -> np.ndarray:
    """A 24x12 vehicle-like crop: darker windscreen band and wheel corners."""
    img = rng.integers(90, 200, (TRAIN_H, TRAIN_W)).astype(np.int16)
    if parts[0]:
        img[TRAIN_H // 4 : TRAIN_H // 2, TRAIN_W // 5 : 4 * TRAIN_W // 5] -= 40
    if parts[1]:
        img[3 * TRAIN_H // 4 :, : TRAIN_W // 4] -= 40
    if parts[2]:
        img[3 * TRAIN_H // 4 :, 3 * TRAIN_W // 4 :] -= 40
    return np.clip(img, 0, 255).astype(np.uint8)


def make_train(rng, out: Path) -> None:
    """Positive crops, hard negatives, and twins that keep every stage busy.

    Hard negatives lack one or all of the vehicle's parts. Twins are
    negatives identical to a positive (a crop cut where a vehicle was), so
    no stage can reject them and training runs all its stages.
    """
    (out / "pos").mkdir(parents=True)
    (out / "neg").mkdir(parents=True)
    positives = [_train_window(rng, (1, 1, 1)) for _ in range(TRAIN_POS)]
    for k, img in enumerate(positives):
        (out / "pos" / f"pos_{k:03d}.pgm").write_bytes(pgm_bytes(img))
    for k in range(TRAIN_HARD_NEG):
        kind = int(rng.integers(0, 4))
        parts = [0, 0, 0] if kind == 3 else [int(i != kind) for i in range(3)]
        (out / "neg" / f"neg_{k:03d}.pgm").write_bytes(pgm_bytes(_train_window(rng, parts)))
    for k, idx in enumerate(rng.choice(TRAIN_POS, TRAIN_TWINS, replace=False)):
        (out / "neg" / f"twin_{k:03d}.pgm").write_bytes(pgm_bytes(positives[int(idx)]))
    (out / "train.json").write_text(json.dumps({"config": TRAIN_CONFIG}), encoding="utf-8")


def make_ingest(rng, out: Path) -> None:
    """A pool of thumbnails to upload, and a server store holding records already."""
    from speedcam import capture

    pool = out / "pool"
    pool.mkdir(parents=True)
    items = []
    for k in range(INGEST_POOL):
        data = pgm_bytes(rng.integers(0, 256, (THUMB_H, THUMB_W), dtype=np.uint8))
        name = f"thumb_{k:03d}.pgm"
        (pool / name).write_bytes(data)
        items.append({"file": name, "speed": round(float(rng.uniform(5, 40)), 2),
                      "location": f"cam-{int(rng.integers(1, 9))}"})
    prefill = []
    store = capture.RecordStore(out / "server")
    for start in range(0, INGEST_PREFILL, 500):
        batch = []
        for k in range(start, min(start + 500, INGEST_PREFILL)):
            data = pgm_bytes(rng.integers(0, 256, (THUMB_H, THUMB_W), dtype=np.uint8))
            rec = capture.make_record(
                float(k % 50), "prefill", prefill_time(k), capture.APP_READING_UNIT
            )
            batch.append((rec, data))
            prefill.append([rec.picture_filename, hashlib.sha256(data).hexdigest()])
        store.append_batch(batch)
    (out / "ingest.json").write_text(
        json.dumps({"pool": items, "batch": INGEST_BATCH, "prefill": prefill}),
        encoding="utf-8",
    )


def _clock(second: int, day0: int) -> str:
    day, rest = divmod(second, 86400)
    hh, rest = divmod(rest, 3600)
    mm, ss = divmod(rest, 60)
    return f"2017-{1 + (day0 + day) // 28:02d}-{1 + (day0 + day) % 28:02d}_{hh:02d}_{mm:02d}_{ss:02d}"


def prefill_time(k: int) -> str:
    """Capture time of the k-th pre-filled record: one second apart, in 2017."""
    return _clock(k, 0)


def upload_time(k: int) -> str:
    """Capture time of the k-th uploaded record: after every pre-filled one."""
    return _clock(k, 28)


MAKERS = {"track": make_track, "crowd": make_crowd, "train": make_train, "ingest": make_ingest}


def make(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(MAKERS).index(workload)])
    MAKERS[workload](rng, out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(MAKERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    make(args.workload, args.seed, Path(args.out))


if __name__ == "__main__":
    main()
