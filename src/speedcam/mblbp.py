"""Multi-block pattern features, cascade evaluation, and model (de)serialization.

A feature places a 3x3 grid of equal blocks inside a detection window and
encodes, per neighbor block, whether its pixel sum reaches the center
block's sum. Neighbors are read clockwise from the top-left block:
TL=bit7, T=bit6, TR=bit5, R=bit4, BR=bit3, B=bit2, BL=bit1, L=bit0.
Weak classifiers vote by membership of that 8-bit code in a 256-bit
subset; stages sum votes against a threshold with early rejection.

Models serialize to a canonical JSON document and can be imported from
the stage-classifier XML interchange format (stump weaks only).
"""

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

from speedcam.errors import (
    BoundsError,
    FormatError,
    ModelReferenceError,
    UnsupportedModelError,
    json_field,
    json_value,
    parse_json,
)
from speedcam.imaging import Rect, rect_sum, round_half_up

DEFAULT_WINDOW_W = 48
DEFAULT_WINDOW_H = 24

SUBSET_WORDS = 8


@dataclass(frozen=True)
class MbLbpFeature:
    """3x3 block grid anchored at (bx, by) in the window, blocks bw x bh."""

    bx: int
    by: int
    bw: int
    bh: int

    def __post_init__(self):
        if self.bw < 1 or self.bh < 1:
            raise FormatError(f"feature block size {self.bw}x{self.bh} must be positive")
        if self.bx < 0 or self.by < 0:
            raise FormatError(f"feature anchor ({self.bx},{self.by}) must be non-negative")


@dataclass(frozen=True)
class WeakClassifier:
    """Stump voting leaf_in when the window's code is in subset, else leaf_out.

    subset is 8 32-bit words; code c lives at bit c&31 of word c>>5.
    """

    feature_index: int
    subset: tuple
    leaf_in: float
    leaf_out: float

    def __post_init__(self):
        words = tuple(int(w) for w in self.subset)
        if len(words) != SUBSET_WORDS:
            raise FormatError(f"subset must have {SUBSET_WORDS} words, got {len(words)}")
        for w in words:
            if not (0 <= w <= 0xFFFFFFFF):
                raise FormatError(f"subset word {w} outside unsigned 32-bit range")
        object.__setattr__(self, "subset", words)
        if self.feature_index < 0:
            raise ModelReferenceError(f"negative feature index {self.feature_index}")


@dataclass(frozen=True)
class Stage:
    """Ordered weak classifiers summed against an acceptance threshold."""

    threshold: float
    weaks: tuple

    def __post_init__(self):
        weaks = tuple(self.weaks)
        if not weaks:
            raise FormatError("stage has no weak classifiers")
        object.__setattr__(self, "weaks", weaks)


@dataclass(frozen=True)
class CascadeModel:
    """Immutable feature table plus ordered stages over a base window."""

    features: tuple
    stages: tuple
    window_w: int = DEFAULT_WINDOW_W
    window_h: int = DEFAULT_WINDOW_H

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "stages", tuple(self.stages))
        if self.window_w < 3 or self.window_h < 3:
            raise FormatError(
                f"window {self.window_w}x{self.window_h} cannot hold a 3x3 block grid"
            )
        if not self.stages:
            raise FormatError("model has no stages")
        for i, f in enumerate(self.features):
            if f.bx + 3 * f.bw > self.window_w or f.by + 3 * f.bh > self.window_h:
                raise FormatError(
                    f"feature {i} grid ({f.bx},{f.by},{f.bw},{f.bh}) exceeds "
                    f"window {self.window_w}x{self.window_h}"
                )
        n = len(self.features)
        for si, stage in enumerate(self.stages):
            for wi, weak in enumerate(stage.weaks):
                if weak.feature_index >= n:
                    raise ModelReferenceError(
                        f"stage {si} weak {wi} references feature "
                        f"{weak.feature_index}, table has {n}"
                    )


def subset_contains(words, code: int) -> bool:
    """True when 8-bit code's bit is set in the 8-word mask."""
    return (words[code >> 5] >> (code & 31)) & 1 == 1


def subset_mask(words) -> np.ndarray:
    """(256,) bool; entry c is subset_contains(words, c), for every code at once."""
    return np.unpackbits(
        np.asarray(words, dtype="<u4").view(np.uint8), bitorder="little"
    ).astype(bool)


def vote_table(weaks) -> np.ndarray:
    """(len(weaks), 256) float64; row k is weaks[k]'s vote for every code.

    An entry is leaf_in where the weak's subset_mask holds the code, else leaf_out.
    """
    return np.array(
        [np.where(subset_mask(w.subset), w.leaf_in, w.leaf_out) for w in weaks],
        dtype=np.float64,
    ).reshape(-1, 256)


def subset_from_codes(codes) -> tuple:
    """Build the 8-word mask whose set bits are exactly the given codes."""
    words = [0] * SUBSET_WORDS
    for code in codes:
        if not (0 <= code <= 255):
            raise FormatError(f"code {code} outside 0..255")
        words[code >> 5] |= 1 << (code & 31)
    return tuple(words)


def scaled_grid(f: MbLbpFeature, origin, scale: float):
    """Pixel placement of a feature at a scale: (x, y, block_w, block_h).

    Offsets and block dimensions round to nearest (half up); blocks never
    shrink below 1 pixel.
    """
    x = origin[0] + round_half_up(f.bx * scale)
    y = origin[1] + round_half_up(f.by * scale)
    bw = max(1, round_half_up(f.bw * scale))
    bh = max(1, round_half_up(f.bh * scale))
    return x, y, bw, bh


def scaled_feature_arrays(features, scale):
    """(fx, fy, fbw, fbh) int64 arrays placing a feature table at a scale.

    Entry i is scaled_grid(features[i], (0, 0), scale), the array form the
    kernels take: the same float64 products, rounded half up. scale may be
    an array of scales; each array is then (n_scales, n_features).
    """
    table = np.fromiter(
        ((f.bx, f.by, f.bw, f.bh) for f in features), np.dtype((np.int64, 4)), len(features)
    )
    scales = np.expand_dims(np.asarray(scale, dtype=np.float64), -1)
    fx, fy, fbw, fbh = (np.floor(col * scales + 0.5).astype(np.int64) for col in table.T)
    return fx, fy, np.maximum(fbw, 1), np.maximum(fbh, 1)


def lbp_code(ii: np.ndarray, f: MbLbpFeature, origin, scale: float = 1.0) -> int:
    """8-bit pattern code of the feature's scaled 3x3 grid at origin of prefix table ii."""
    x, y, bw, bh = scaled_grid(f, origin, scale)
    height, width = ii.shape[0] - 1, ii.shape[1] - 1
    if x < 0 or y < 0 or x + 3 * bw > width or y + 3 * bh > height:
        raise BoundsError(
            f"scaled grid at ({x},{y}) size {3 * bw}x{3 * bh} exceeds "
            f"image {width}x{height}"
        )
    sums = [
        rect_sum(ii, Rect(x + j * bw, y + i * bh, bw, bh))
        for i in range(3)
        for j in range(3)
    ]
    center = sums[4]
    code = 0
    # clockwise from top-left: indices into the row-major 3x3 sums
    for bit, k in zip(range(7, -1, -1), (0, 1, 2, 5, 8, 7, 6, 3)):
        if sums[k] >= center:
            code |= 1 << bit
    return code


def eval_weak(ii, w: WeakClassifier, model: CascadeModel, origin, scale: float = 1.0) -> float:
    code = lbp_code(ii, model.features[w.feature_index], origin, scale)
    return w.leaf_in if subset_contains(w.subset, code) else w.leaf_out


def eval_window_trace(ii, model: CascadeModel, origin, scale: float = 1.0):
    """(accepted, rejecting_stage) where rejecting_stage is None on accept.

    Stages evaluate in order; the first stage whose vote sum falls below
    its threshold rejects and later stages are never touched.
    """
    for si, stage in enumerate(model.stages):
        total = 0.0
        for w in stage.weaks:
            code = lbp_code(ii, model.features[w.feature_index], origin, scale)
            total += w.leaf_in if subset_contains(w.subset, code) else w.leaf_out
        if total < stage.threshold:
            return False, si
    return True, None


def eval_window(ii, model: CascadeModel, origin, scale: float = 1.0) -> bool:
    accepted, _ = eval_window_trace(ii, model, origin, scale)
    return accepted


def save_model(model: CascadeModel) -> str:
    """Canonical JSON text for a model; load_model inverts it exactly."""
    doc = {
        "window": [model.window_w, model.window_h],
        "features": [[f.bx, f.by, f.bw, f.bh] for f in model.features],
        "stages": [
            {
                "threshold": stage.threshold,
                "weaks": [
                    {
                        "feature": w.feature_index,
                        "subset": list(w.subset),
                        "leafIn": w.leaf_in,
                        "leafOut": w.leaf_out,
                    }
                    for w in stage.weaks
                ],
            }
            for stage in model.stages
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _finite(doc, key, where) -> float:
    number = json_field(doc, key, float, FormatError, where)
    if not math.isfinite(number):
        raise FormatError(f'{where}: field "{key}" must be finite, got {number}')
    return number


def load_model(text: str) -> CascadeModel:
    """Parse the canonical JSON model document."""
    doc = parse_json(text, FormatError, "model document")
    window = json_field(
        doc, "window", int, FormatError, "model", (DEFAULT_WINDOW_W, DEFAULT_WINDOW_H), length=2
    )
    features = [
        MbLbpFeature(*json_value(entry, int, FormatError, f"features[{i}]", length=4))
        for i, entry in enumerate(json_field(doc, "features", list, FormatError, "model"))
    ]
    stages = []
    for si, sdoc in enumerate(json_field(doc, "stages", list, FormatError, "model")):
        where = f"stages[{si}]"
        threshold = _finite(sdoc, "threshold", where)
        weaks = []
        for wi, wdoc in enumerate(json_field(sdoc, "weaks", list, FormatError, where)):
            wwhere = f"{where}.weaks[{wi}]"
            fi = json_field(wdoc, "feature", int, FormatError, wwhere)
            subset = json_field(wdoc, "subset", int, FormatError, wwhere, length=SUBSET_WORDS)
            leaf_in = _finite(wdoc, "leafIn", wwhere)
            leaf_out = _finite(wdoc, "leafOut", wwhere)
            weaks.append(WeakClassifier(fi, subset, leaf_in, leaf_out))
        stages.append(Stage(threshold, tuple(weaks)))

    return CascadeModel(tuple(features), tuple(stages), *window)


def _reverse_bits8(code: int) -> int:
    out = 0
    for b in range(8):
        if code & (1 << b):
            out |= 1 << (7 - b)
    return out


def _remap_subset_reversed(words) -> tuple:
    """Reinterpret a subset stored under the opposite neighbor bit order."""
    return subset_from_codes(
        c for c in range(256) if subset_contains(words, _reverse_bits8(c))
    )


def _line_of(text: str, token: str):
    idx = text.find(token)
    if idx < 0:
        return ""
    return f" (line {text.count(chr(10), 0, idx) + 1})"


def _xml_int(text, token, what):
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"{what} {token!r} is not an integer{_line_of(text, token)}") from None


def _xml_float(text, token, what):
    try:
        number = float(token)
    except ValueError:
        raise FormatError(f"{what} {token!r} is not a number{_line_of(text, token)}") from None
    if not math.isfinite(number):
        raise FormatError(f"{what} {token!r} is not finite{_line_of(text, token)}")
    return number


def import_cascade_xml(text: str, bit_order: str = "canonical") -> CascadeModel:
    """Import a stage-classifier XML document (stump weaks, LBP features).

    bit_order selects how stored subset words map onto pattern codes:
    "canonical" keeps them as written; "reversed" accommodates exporters
    that number the neighbor ring in the opposite direction by remapping
    every code through an 8-bit reversal.
    """
    if bit_order not in ("canonical", "reversed"):
        raise FormatError(f"unknown bit_order {bit_order!r}: use canonical or reversed")
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise FormatError(f"malformed XML: {exc}") from None
    cascade = root if root.tag == "cascade" else root.find(".//cascade")
    if cascade is None:
        raise FormatError("document has no <cascade> element")

    ftype = (cascade.findtext("featureType") or "").strip()
    if ftype != "LBP":
        raise UnsupportedModelError(f"featureType {ftype!r} not supported: expected LBP")

    width = _xml_int(text, (cascade.findtext("width") or "").strip(), "cascade width")
    height = _xml_int(text, (cascade.findtext("height") or "").strip(), "cascade height")

    stages_el = cascade.find("stages")
    if stages_el is None:
        raise FormatError("cascade has no <stages> element")
    stages = []
    for si, stage_el in enumerate(stages_el):
        thr_text = (stage_el.findtext("stageThreshold") or "").strip()
        if not thr_text:
            raise FormatError(f"stage {si} missing stageThreshold")
        threshold = _xml_float(text, thr_text, f"stage {si} threshold")
        weaks_el = stage_el.find("weakClassifiers")
        if weaks_el is None:
            raise FormatError(f"stage {si} has no <weakClassifiers>")
        weaks = []
        for wi, weak_el in enumerate(weaks_el):
            nodes = (weak_el.findtext("internalNodes") or "").split()
            if len(nodes) != 11:
                raise UnsupportedModelError(
                    f"stage {si} weak {wi}: internalNodes has {len(nodes)} tokens, "
                    "expected 11 (stump: left right featureIndex + 8 subset words)"
                )
            for tok in nodes[:2]:
                _xml_int(text, tok, f"stage {si} weak {wi} child index")
            fi = _xml_int(text, nodes[2], f"stage {si} weak {wi} feature index")
            words = tuple(
                _xml_int(text, tok, f"stage {si} weak {wi} subset word") & 0xFFFFFFFF
                for tok in nodes[3:11]
            )
            leaves = (weak_el.findtext("leafValues") or "").split()
            if len(leaves) != 2:
                raise UnsupportedModelError(
                    f"stage {si} weak {wi}: {len(leaves)} leaf values, expected 2"
                )
            leaf_in = _xml_float(text, leaves[0], f"stage {si} weak {wi} leaf value")
            leaf_out = _xml_float(text, leaves[1], f"stage {si} weak {wi} leaf value")
            if bit_order == "reversed":
                words = _remap_subset_reversed(words)
            weaks.append(WeakClassifier(fi, words, leaf_in, leaf_out))
        maxw_text = (stage_el.findtext("maxWeakCount") or "").strip()
        if maxw_text and _xml_int(text, maxw_text, f"stage {si} maxWeakCount") != len(weaks):
            raise FormatError(
                f"stage {si} maxWeakCount {maxw_text} does not match "
                f"{len(weaks)} weak classifiers"
            )
        stages.append(Stage(threshold, tuple(weaks)))

    features_el = cascade.find("features")
    if features_el is None:
        raise FormatError("cascade has no <features> element")
    features = []
    for fi, feat_el in enumerate(features_el):
        rect_text = (feat_el.findtext("rect") or "").split()
        if len(rect_text) != 4:
            raise FormatError(f"feature {fi} rect needs 4 values, got {len(rect_text)}")
        bx, by, bw, bh = (
            _xml_int(text, tok, f"feature {fi} rect value") for tok in rect_text
        )
        features.append(MbLbpFeature(bx, by, bw, bh))

    return CascadeModel(tuple(features), tuple(stages), width, height)
