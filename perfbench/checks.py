"""Correctness checks, run after the timed loop.

Each check recomputes from first principles (pixel slicing, a similarity
graph's connected components, the documented scale ladder, the store's
files read directly) or tests a property the method must have. None
compares against a stored copy of earlier output. Each returns a list of
failure messages; an empty list passes.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def read_pgm(data: bytes) -> np.ndarray:
    """Pixels of a P5 file as written by the input step (no comments)."""
    magic, w, h, maxval, raster = data.split(maxsplit=4)
    if magic != b"P5" or maxval != b"255":
        raise ValueError("not an 8-bit P5 file")
    w, h = int(w), int(h)
    return np.frombuffer(raster[: w * h], dtype=np.uint8).reshape(h, w)


def naive_code(pixels, x, y, bw, bh) -> int:
    s = [
        [int(pixels[y + i * bh : y + (i + 1) * bh, x + j * bw : x + (j + 1) * bw].sum())
         for j in range(3)]
        for i in range(3)
    ]
    ring = (s[0][0], s[0][1], s[0][2], s[1][2], s[2][2], s[2][1], s[2][0], s[1][0])
    return sum(1 << bit for bit, v in zip(range(7, -1, -1), ring) if v >= s[1][1])


def scaled(feature, scale):
    bx, by, bw, bh = feature
    return (round_half_up(bx * scale), round_half_up(by * scale),
            max(1, round_half_up(bw * scale)), max(1, round_half_up(bh * scale)))


def stage_score(pixels, doc, stage, origin, scale) -> float:
    total = 0.0
    for weak in stage["weaks"]:
        fx, fy, fbw, fbh = scaled(doc["features"][weak["feature"]], scale)
        code = naive_code(pixels, origin[0] + fx, origin[1] + fy, fbw, fbh)
        inset = (weak["subset"][code >> 5] >> (code & 31)) & 1
        total += weak["leafIn"] if inset else weak["leafOut"]
    return total


def naive_accepts(pixels, doc, origin, scale) -> bool:
    """The cascade's decision at one window, every block summed by slicing."""
    return all(
        stage_score(pixels, doc, stage, origin, scale) >= stage["threshold"]
        for stage in doc["stages"]
    )


# ---------------------------------------------------------------- track


def check_track(passes, truth) -> list:
    """Speed within 2% of the synthesized truth; rect within 2 px of the patch."""
    errors = []
    by_name = {t["name"]: t for t in truth["sequences"]}
    pw, ph = truth["rect"]
    for name, median_px_s, samples in passes:
        t = by_name[name]
        rel = abs(median_px_s - t["truth_px_s"]) / t["truth_px_s"]
        if rel > 0.02:
            errors.append(f"{name}: median {median_px_s} px/s is {rel:.1%} off truth "
                          f"{t['truth_px_s']:.2f}")
        if len(samples) != 20:
            errors.append(f"{name}: {len(samples)} samples fed, expected 20")
        for index, (x, y, w, h) in samples:
            k = index - t["lead"]
            if k < 0:
                errors.append(f"{name}: detection in frame {index}, before the vehicle enters")
                break
            tx, ty = t["positions"][k]
            if max(abs(x - tx), abs(y - ty), abs(w - pw), abs(h - ph)) > 2:
                errors.append(f"{name} frame {index}: tracked ({x},{y},{w},{h}), "
                              f"patch at ({tx},{ty},{pw},{ph})")
                break
    return errors


# ---------------------------------------------------------------- crowd


def ladder(params, frame_w, frame_h, win_w, win_h):
    """The documented scale ladder: s0 from min_size_fraction, times scale_factor."""
    s = params["min_size_fraction"] * frame_h / win_h
    out = []
    while round_half_up(win_w * s) <= frame_w and round_half_up(win_h * s) <= frame_h:
        out.append(s)
        s *= params["scale_factor"]
    return out


def check_windows(pixels, doc, params, candidates, rng, n_each=60) -> list:
    """Scan output against a slicing evaluation on sampled windows.

    Samples accepted windows from the scan's candidates and random grid
    windows from every scale; each must get the same decision from
    ``naive_accepts``.
    """
    frame_h, frame_w = pixels.shape
    win_w, win_h = doc["window"]
    by_size = {}
    for s in ladder(params, frame_w, frame_h, win_w, win_h):
        by_size[(round_half_up(win_w * s), round_half_up(win_h * s))] = s
    accepted = {(r.x, r.y, r.w, r.h) for r in candidates}
    errors = []
    picks = [candidates[i] for i in rng.choice(len(candidates), min(n_each, len(candidates)),
                                               replace=False)]
    for r in picks:
        s = by_size.get((r.w, r.h))
        if s is None:
            errors.append(f"candidate {r} has a size off the scale ladder")
        elif not naive_accepts(pixels, doc, (r.x, r.y), s):
            errors.append(f"candidate {r} is rejected by the slicing evaluation")
    sizes = list(by_size.items())
    for _ in range(n_each):
        (w, h), s = sizes[int(rng.integers(len(sizes)))]
        stride = max(params["stride_base"], round_half_up(s))
        need_w = max([w] + [f[0] + 3 * f[2] for f in (scaled(g, s) for g in doc["features"])])
        need_h = max([h] + [f[1] + 3 * f[3] for f in (scaled(g, s) for g in doc["features"])])
        x = stride * int(rng.integers((frame_w - need_w) // stride + 1))
        y = stride * int(rng.integers((frame_h - need_h) // stride + 1))
        expect = naive_accepts(pixels, doc, (x, y), s)
        if expect != ((x, y, w, h) in accepted):
            errors.append(f"window ({x},{y},{w},{h}) scale {s:.3f}: scan says "
                          f"{not expect}, slicing evaluation says {expect}")
    return errors


def closure_detections(cands, params, frame_w, frame_h):
    """Connected components of the similarity graph, as detection tuples."""
    if not cands:
        return []
    r = np.array([(c.x, c.y, c.w, c.h) for c in cands], dtype=np.float64)
    eps = params["group_eps"]
    dw = eps * (r[:, None, 2] + r[None, :, 2]) / 2.0
    dh = eps * (r[:, None, 3] + r[None, :, 3]) / 2.0
    x2 = r[:, 0] + r[:, 2]
    y2 = r[:, 1] + r[:, 3]
    adj = (
        (np.abs(r[:, None, 0] - r[None, :, 0]) <= dw)
        & (np.abs(x2[:, None] - x2[None, :]) <= dw)
        & (np.abs(r[:, None, 1] - r[None, :, 1]) <= dh)
        & (np.abs(y2[:, None] - y2[None, :]) <= dh)
    )
    seen = np.zeros(len(cands), dtype=bool)
    dets = []
    for start in range(len(cands)):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        members = []
        while stack:
            i = stack.pop()
            members.append(i)
            fresh = np.nonzero(adj[i] & ~seen)[0]
            seen[fresh] = True
            stack.extend(fresh.tolist())
        if len(members) < params["min_neighbors"]:
            continue
        k = len(members)
        x, y, w, h = (round_half_up(sum(int(r[i, j]) for i in members) / k) for j in range(4))
        x = min(max(x, 0), frame_w - w)
        y = min(max(y, 0), frame_h - h)
        dets.append((x, y, w, h, k))
    dets.sort(key=lambda d: (-d[2] * d[3], d[1], d[0]))
    return dets


def check_grouping(detections, cands, params, frame_w, frame_h) -> list:
    got = [(d.rect.x, d.rect.y, d.rect.w, d.rect.h, d.neighbors) for d in detections]
    want = closure_detections(cands, params, frame_w, frame_h)
    if got != want:
        return [f"detect gave {got}, the closure partition of {len(cands)} candidates "
                f"gives {want}"]
    return []


# ---------------------------------------------------------------- train


def check_train(models, roundtrip, sample_dir: Path, config) -> list:
    """Same model every time; >= 3 stages; each stage passes its positive share."""
    errors = []
    if any(m != models[0] for m in models):
        errors.append("train_cascade gave different models for the same samples")
    doc = json.loads(roundtrip[0])
    if roundtrip[1] != models[0]:
        errors.append("load_model(save_model(model)) differs from the model")
    if len(doc["stages"]) < 3:
        errors.append(f"only {len(doc['stages'])} stage(s) trained, expected at least 3")
    positives = [read_pgm(p.read_bytes()) for p in sorted((sample_dir / "pos").glob("*.pgm"))]
    for si, stage in enumerate(doc["stages"]):
        passed = sum(stage_score(px, doc, stage, (0, 0), 1.0) >= stage["threshold"]
                     for px in positives)
        if passed < config["stage_tpr_target"] * len(positives):
            errors.append(f"stage {si} passes {passed}/{len(positives)} positives, "
                          f"target {config['stage_tpr_target']}")
    return errors


# ---------------------------------------------------------------- ingest


def check_store(store_dir: Path, expected) -> list:
    """The server store holds exactly the expected records, ids 1..n, same bytes.

    ``expected`` lists (picture_filename, sha256, fields-or-None) in send
    order, pre-filled records first; fields, when given, are the speed,
    location and capture time that were uploaded.
    """
    lines = (store_dir / "records.log").read_text(encoding="utf-8").splitlines()
    docs = [json.loads(line) for line in lines if line.strip()]
    errors = []
    ids = [d["id"] for d in docs]
    if ids != list(range(1, len(expected) + 1)):
        errors.append(f"store ids are not 1..{len(expected)}: {len(ids)} records, "
                      f"first {ids[:3]}, last {ids[-3:]}")
        return errors
    for doc, (name, digest, fields) in zip(docs, expected):
        if doc["picture_filename"] != name:
            errors.append(f"record {doc['id']} is {doc['picture_filename']}, sent {name}")
            break
        if fields is not None and (doc["vehicle_speed"], doc["location"],
                                   doc["capture_time"]) != fields:
            errors.append(f"record {doc['id']} fields differ from those sent")
            break
        data = (store_dir / "images" / name).read_bytes()
        if hashlib.sha256(data).hexdigest() != digest:
            errors.append(f"record {doc['id']} image differs from the bytes sent")
            break
    return errors
