"""Pattern codes, cascade evaluation, and model serialization."""

import numpy as np
import pytest

from oracles import naive_lbp_code
from speedcam import imaging, mblbp
from speedcam.errors import BoundsError, FormatError, ModelReferenceError, UnsupportedModelError
from speedcam.imaging import Frame
from speedcam.mblbp import (
    CascadeModel,
    MbLbpFeature,
    Stage,
    WeakClassifier,
    import_cascade_xml,
    lbp_code,
    load_model,
    save_model,
    subset_contains,
    subset_from_codes,
    subset_mask,
    vote_table,
)

FULL = (0xFFFFFFFF,) * 8
EMPTY = (0,) * 8


def _ii(rows):
    px = np.asarray(rows, dtype=np.uint8)
    return imaging.integral(Frame(px.shape[1], px.shape[0], px))


def _unit_feature_model(subset, leaf_in=1.0, leaf_out=-1.0, threshold=0.0):
    return CascadeModel(
        (MbLbpFeature(0, 0, 1, 1),),
        (Stage(threshold, (WeakClassifier(0, subset, leaf_in, leaf_out),)),),
        3,
        3,
    )


def _random_model(rng, n_features=4, n_stages=2, n_weaks=3, window=(12, 9)):
    w, h = window
    features = []
    for _ in range(n_features):
        bw = int(rng.integers(1, w // 3 + 1))
        bh = int(rng.integers(1, h // 3 + 1))
        bx = int(rng.integers(0, w - 3 * bw + 1))
        by = int(rng.integers(0, h - 3 * bh + 1))
        features.append(MbLbpFeature(bx, by, bw, bh))
    stages = []
    for _ in range(n_stages):
        weaks = tuple(
            WeakClassifier(
                int(rng.integers(0, n_features)),
                tuple(int(v) for v in rng.integers(0, 2**32, 8, dtype=np.uint64)),
                float(rng.normal()),
                float(rng.normal()),
            )
            for _ in range(n_weaks)
        )
        stages.append(Stage(float(rng.normal()), weaks))
    return CascadeModel(tuple(features), tuple(stages), w, h)


# --- pattern codes ---


def test_code_corner_ring():
    # corners reach the center of 5, edges of 1 do not: 10101010
    ii = _ii([[9, 1, 9], [1, 5, 1], [9, 1, 9]])
    assert lbp_code(ii, MbLbpFeature(0, 0, 1, 1), (0, 0)) == 170


def test_code_uniform_is_all_ones():
    ii = _ii([[7] * 3] * 3)
    assert lbp_code(ii, MbLbpFeature(0, 0, 1, 1), (0, 0)) == 255


def test_code_dominant_center_is_zero():
    ii = _ii([[1, 1, 1], [1, 9, 1], [1, 1, 1]])
    assert lbp_code(ii, MbLbpFeature(0, 0, 1, 1), (0, 0)) == 0


def test_code_tie_counts_as_set():
    ii = _ii([[5, 4, 4], [4, 5, 4], [4, 4, 4]])
    assert lbp_code(ii, MbLbpFeature(0, 0, 1, 1), (0, 0)) == 128


def test_code_matches_naive_oracle():
    rng = np.random.default_rng(11)
    px = rng.integers(0, 256, (40, 56), np.uint8)
    ii = imaging.integral(Frame(56, 40, px))
    for _ in range(200):
        scale = float(rng.choice([1.0, 1.5, 2.0]))
        bw = int(rng.integers(1, 5))
        bh = int(rng.integers(1, 5))
        sbw = max(1, round(bw * scale))
        sbh = max(1, round(bh * scale))
        ox = int(rng.integers(0, 56 - 3 * sbw - 2))
        oy = int(rng.integers(0, 40 - 3 * sbh - 2))
        f = MbLbpFeature(0, 0, bw, bh)
        assert lbp_code(ii, f, (ox, oy), scale) == naive_lbp_code(
            px, 0, 0, bw, bh, (ox, oy), scale
        )


def test_code_rejects_out_of_bounds_grid():
    ii = _ii([[0] * 12] * 9)
    with pytest.raises(BoundsError):
        lbp_code(ii, MbLbpFeature(0, 0, 4, 3), (1, 0))
    with pytest.raises(BoundsError):
        # scaling inflates the 4px blocks to 6px, 18px grid > 12px image
        lbp_code(ii, MbLbpFeature(0, 0, 4, 3), (0, 0), 1.5)


def test_scaled_grid_rounds_half_up_and_floors_at_one():
    f = MbLbpFeature(2, 3, 4, 5)
    assert mblbp.scaled_grid(f, (10, 20), 1.5) == (13, 25, 6, 8)
    tiny = MbLbpFeature(0, 0, 1, 1)
    assert mblbp.scaled_grid(tiny, (0, 0), 0.1) == (0, 0, 1, 1)


# --- subsets ---


def test_subset_word_layout():
    assert subset_from_codes([0]) == (1, 0, 0, 0, 0, 0, 0, 0)
    assert subset_from_codes([37]) == (0, 1 << 5, 0, 0, 0, 0, 0, 0)
    assert subset_from_codes([255]) == (0, 0, 0, 0, 0, 0, 0, 0x80000000)


def test_subset_round_trip_random_sets():
    rng = np.random.default_rng(12)
    for _ in range(50):
        members = set(int(c) for c in rng.integers(0, 256, rng.integers(0, 40)))
        words = subset_from_codes(members)
        for c in range(256):
            assert subset_contains(words, c) == (c in members)


def test_subset_mask_matches_subset_contains():
    rng = np.random.default_rng(13)
    randoms = [
        tuple(int(v) for v in rng.integers(0, 2**32, 8, dtype=np.uint64)) for _ in range(20)
    ]
    for words in [EMPTY, FULL, *randoms]:
        mask = subset_mask(words)
        assert mask.shape == (256,) and mask.dtype == bool
        assert mask.tolist() == [subset_contains(words, c) for c in range(256)]


def test_vote_table_matches_subset_contains():
    rng = np.random.default_rng(14)
    weaks = [WeakClassifier(0, EMPTY, 0.5, -0.25), WeakClassifier(0, FULL, 1.0, -1.0)]
    for _ in range(10):
        words = tuple(int(v) for v in rng.integers(0, 2**32, 8, dtype=np.uint64))
        weaks.append(WeakClassifier(0, words, float(rng.normal()), float(rng.normal())))
    votes = vote_table(weaks)
    assert votes.shape == (len(weaks), 256) and votes.dtype == np.float64
    for row, w in zip(votes, weaks):
        want = [w.leaf_in if subset_contains(w.subset, c) else w.leaf_out for c in range(256)]
        assert row.tolist() == want
    assert vote_table([]).shape == (0, 256)


def test_subset_rejects_out_of_range_code():
    with pytest.raises(FormatError):
        subset_from_codes([256])
    with pytest.raises(FormatError):
        subset_from_codes([-1])


# --- weak and stage evaluation ---


def test_eval_weak_membership_picks_leaf():
    ii = _ii([[9, 1, 9], [1, 5, 1], [9, 1, 9]])
    model = _unit_feature_model(subset_from_codes([170]), 2.5, -1.25)
    weak = model.stages[0].weaks[0]
    assert mblbp.eval_weak(ii, weak, model, (0, 0)) == 2.5
    uniform = _ii([[7] * 3] * 3)
    assert mblbp.eval_weak(uniform, weak, model, (0, 0)) == -1.25


def test_eval_weak_empty_and_full_subsets():
    ii = _ii([[9, 1, 9], [1, 5, 1], [9, 1, 9]])
    model = _unit_feature_model(EMPTY, 2.0, -3.0)
    assert mblbp.eval_weak(ii, model.stages[0].weaks[0], model, (0, 0)) == -3.0
    model = _unit_feature_model(FULL, 2.0, -3.0)
    assert mblbp.eval_weak(ii, model.stages[0].weaks[0], model, (0, 0)) == 2.0


def test_eval_window_trace_reports_rejecting_stage():
    ii = _ii([[7] * 3] * 3)
    accept = _unit_feature_model(FULL)
    assert mblbp.eval_window_trace(ii, accept, (0, 0)) == (True, None)
    assert mblbp.eval_window(ii, accept, (0, 0)) is True
    reject = _unit_feature_model(EMPTY)
    assert mblbp.eval_window_trace(ii, reject, (0, 0)) == (False, 0)
    assert mblbp.eval_window(ii, reject, (0, 0)) is False


def test_eval_window_trace_second_stage_reject():
    ii = _ii([[7] * 3] * 3)
    model = CascadeModel(
        (MbLbpFeature(0, 0, 1, 1),),
        (
            Stage(0.0, (WeakClassifier(0, FULL, 1.0, -1.0),)),
            Stage(0.0, (WeakClassifier(0, EMPTY, 1.0, -1.0),)),
        ),
        3,
        3,
    )
    assert mblbp.eval_window_trace(ii, model, (0, 0)) == (False, 1)


def test_rejection_skips_later_stages(monkeypatch):
    ii = _ii([[7] * 3] * 3)
    model = CascadeModel(
        (MbLbpFeature(0, 0, 1, 1),),
        (
            Stage(0.0, (WeakClassifier(0, EMPTY, 1.0, -1.0),)),
            Stage(-10.0, tuple(WeakClassifier(0, EMPTY, 1.0, -1.0) for _ in range(5))),
        ),
        3,
        3,
    )
    calls = []
    real = mblbp.lbp_code
    monkeypatch.setattr(mblbp, "lbp_code", lambda *a, **k: calls.append(1) or real(*a, **k))
    assert mblbp.eval_window_trace(ii, model, (0, 0)) == (False, 0)
    assert len(calls) == 1

    calls.clear()
    accept_first = CascadeModel(model.features, (Stage(-10.0, model.stages[0].weaks),) + model.stages[1:], 3, 3)
    assert mblbp.eval_window_trace(ii, accept_first, (0, 0)) == (True, None)
    assert len(calls) == 6


def test_trace_agrees_with_exhaustive_evaluation():
    rng = np.random.default_rng(13)
    for _ in range(30):
        model = _random_model(rng)
        px = rng.integers(0, 256, (9, 12), np.uint8)
        ii = imaging.integral(Frame(12, 9, px))
        expected = (True, None)
        for si, stage in enumerate(model.stages):
            total = sum(
                w.leaf_in
                if subset_contains(w.subset, lbp_code(ii, model.features[w.feature_index], (0, 0)))
                else w.leaf_out
                for w in stage.weaks
            )
            if total < stage.threshold:
                expected = (False, si)
                break
        assert mblbp.eval_window_trace(ii, model, (0, 0)) == expected


# --- model validation ---


def test_model_rejects_feature_outside_window():
    with pytest.raises(FormatError, match="exceeds"):
        CascadeModel(
            (MbLbpFeature(1, 0, 4, 3),),
            (Stage(0.0, (WeakClassifier(0, FULL, 1.0, -1.0),)),),
            12,
            9,
        )


def test_model_rejects_dangling_feature_index():
    with pytest.raises(ModelReferenceError):
        CascadeModel(
            (MbLbpFeature(0, 0, 1, 1),),
            (Stage(0.0, (WeakClassifier(3, FULL, 1.0, -1.0),)),),
            3,
            3,
        )


def test_model_rejects_tiny_window_and_empty_stages():
    with pytest.raises(FormatError):
        CascadeModel((), (Stage(0.0, (WeakClassifier(0, FULL, 1, -1),)),), 2, 24)
    with pytest.raises(FormatError):
        CascadeModel((), (), 48, 24)
    with pytest.raises(FormatError):
        Stage(0.0, ())


def test_weak_validation():
    with pytest.raises(FormatError):
        WeakClassifier(0, (1, 2, 3), 1.0, -1.0)
    with pytest.raises(FormatError):
        WeakClassifier(0, (2**32,) + (0,) * 7, 1.0, -1.0)
    with pytest.raises(ModelReferenceError):
        WeakClassifier(-1, EMPTY, 1.0, -1.0)
    with pytest.raises(FormatError):
        MbLbpFeature(0, 0, 0, 1)


# --- JSON serialization ---


def test_save_load_round_trip_random_models():
    rng = np.random.default_rng(14)
    for _ in range(10):
        model = _random_model(rng)
        text = save_model(model)
        again = load_model(text)
        assert again == model
        assert save_model(again) == text


def test_load_defaults_window():
    text = '{"features": [[0, 0, 2, 2]], "stages": [{"threshold": 0.5, "weaks": [{"feature": 0, "subset": [0,0,0,0,0,0,0,0], "leafIn": 1.0, "leafOut": -1.0}]}]}'
    model = load_model(text)
    assert (model.window_w, model.window_h) == (48, 24)


def test_load_error_names_missing_field():
    with pytest.raises(FormatError, match='missing required field "stages"'):
        load_model('{"features": []}')
    with pytest.raises(FormatError, match='missing required field "features"'):
        load_model('{"stages": []}')
    with pytest.raises(FormatError, match='missing required field "subset"'):
        load_model(
            '{"features": [[0,0,1,1]], "stages": [{"threshold": 0, "weaks": '
            '[{"feature": 0, "leafIn": 1, "leafOut": -1}]}]}'
        )


def test_load_rejects_malformed_documents():
    with pytest.raises(FormatError, match="not valid JSON"):
        load_model("{nope")
    # JSON's NaN and infinities parse, but a model number must be finite
    for field in ["threshold", "leafIn", "leafOut"]:
        for bad in ["NaN", "Infinity", "-Infinity"]:
            numbers = {"threshold": "0.5", "leafIn": "1.0", "leafOut": "-1.0", field: bad}
            text = (
                '{"features": [[0,0,2,2]], "stages": [{"threshold": %(threshold)s, "weaks": '
                '[{"feature": 0, "subset": [0,0,0,0,0,0,0,0], "leafIn": %(leafIn)s, '
                '"leafOut": %(leafOut)s}]}]}'
            ) % numbers
            with pytest.raises(FormatError, match=f'"{field}" must be finite'):
                load_model(text)
    with pytest.raises(FormatError):
        load_model("[1, 2]")
    with pytest.raises(FormatError, match="subset"):
        load_model(
            '{"features": [[0,0,1,1]], "stages": [{"threshold": 0, "weaks": '
            '[{"feature": 0, "subset": [1, 2], "leafIn": 1, "leafOut": -1}]}]}'
        )
    with pytest.raises(FormatError, match="window"):
        load_model('{"window": [48], "features": [], "stages": []}')
    with pytest.raises(FormatError, match="number"):
        load_model(
            '{"features": [[0,0,1,1]], "stages": [{"threshold": true, "weaks": '
            '[{"feature": 0, "subset": [0,0,0,0,0,0,0,0], "leafIn": 1, "leafOut": -1}]}]}'
        )


def test_load_surfaces_dangling_reference():
    with pytest.raises(ModelReferenceError):
        load_model(
            '{"features": [[0,0,1,1]], "stages": [{"threshold": 0, "weaks": '
            '[{"feature": 7, "subset": [0,0,0,0,0,0,0,0], "leafIn": 1, "leafOut": -1}]}]}'
        )


# --- XML import ---

XML_FIXTURE = """<?xml version="1.0"?>
<opencv_storage>
<cascade>
  <stageType>BOOST</stageType>
  <featureType>LBP</featureType>
  <height>9</height>
  <width>12</width>
  <stageNum>2</stageNum>
  <stages>
    <_>
      <maxWeakCount>2</maxWeakCount>
      <stageThreshold>-0.5</stageThreshold>
      <weakClassifiers>
        <_>
          <internalNodes>
            0 -1 0 1 0 0 0 0 0 0 0</internalNodes>
          <leafValues>
            -0.9 0.8</leafValues>
        </_>
        <_>
          <internalNodes>
            0 -1 1 -1 -1 -1 -1 -1 -1 -1 -1</internalNodes>
          <leafValues>
            0.25 -0.125</leafValues>
        </_>
      </weakClassifiers>
    </_>
    <_>
      <maxWeakCount>1</maxWeakCount>
      <stageThreshold>0.1</stageThreshold>
      <weakClassifiers>
        <_>
          <internalNodes>
            0 -1 1 -2147483648 0 0 0 0 0 0 37</internalNodes>
          <leafValues>
            1.5 -2.5</leafValues>
        </_>
      </weakClassifiers>
    </_>
  </stages>
  <features>
    <_>
      <rect>0 0 4 3</rect>
    </_>
    <_>
      <rect>1 0 2 2</rect>
    </_>
  </features>
</cascade>
</opencv_storage>
"""

XML_EXPECTED = CascadeModel(
    (MbLbpFeature(0, 0, 4, 3), MbLbpFeature(1, 0, 2, 2)),
    (
        Stage(
            -0.5,
            (
                WeakClassifier(0, (1, 0, 0, 0, 0, 0, 0, 0), -0.9, 0.8),
                WeakClassifier(1, FULL, 0.25, -0.125),
            ),
        ),
        Stage(0.1, (WeakClassifier(1, (0x80000000, 0, 0, 0, 0, 0, 0, 37), 1.5, -2.5),)),
    ),
    12,
    9,
)


def test_xml_import_matches_handbuilt_model():
    assert import_cascade_xml(XML_FIXTURE) == XML_EXPECTED


def test_xml_import_accepts_bare_cascade_root():
    start = XML_FIXTURE.index("<cascade>")
    end = XML_FIXTURE.index("</cascade>") + len("</cascade>")
    assert import_cascade_xml(XML_FIXTURE[start:end]) == XML_EXPECTED


def test_xml_import_normalizes_signed_words():
    stage0 = import_cascade_xml(XML_FIXTURE).stages[0]
    assert stage0.weaks[1].subset == FULL
    assert import_cascade_xml(XML_FIXTURE).stages[1].weaks[0].subset[0] == 0x80000000


def test_xml_import_survives_json_round_trip():
    model = import_cascade_xml(XML_FIXTURE)
    assert load_model(save_model(model)) == model


def test_xml_import_preserves_many_stages_in_order():
    stages = "\n".join(
        f"""<_>
          <maxWeakCount>1</maxWeakCount>
          <stageThreshold>{si}.25</stageThreshold>
          <weakClassifiers><_>
            <internalNodes>0 -1 0 0 0 0 0 0 0 0 {si}</internalNodes>
            <leafValues>1.0 -1.0</leafValues>
          </_></weakClassifiers>
        </_>"""
        for si in range(17)
    )
    text = (
        "<cascade><featureType>LBP</featureType><width>12</width><height>9</height>"
        f"<stages>{stages}</stages>"
        "<features><_><rect>0 0 4 3</rect></_></features></cascade>"
    )
    model = import_cascade_xml(text)
    assert len(model.stages) == 17
    assert [s.threshold for s in model.stages] == [si + 0.25 for si in range(17)]
    assert [s.weaks[0].subset[7] for s in model.stages] == list(range(17))


def test_xml_import_rejects_other_feature_types():
    text = XML_FIXTURE.replace("LBP", "HAAR")
    with pytest.raises(UnsupportedModelError, match="HAAR"):
        import_cascade_xml(text)
    with pytest.raises(UnsupportedModelError):
        import_cascade_xml(XML_FIXTURE.replace("<featureType>LBP</featureType>", ""))


def test_xml_import_rejects_non_stump_trees():
    text = XML_FIXTURE.replace(
        "0 -1 0 1 0 0 0 0 0 0 0", "0 -1 2 -3 0 1 0 0 0 0 0 0 0 0"
    )
    with pytest.raises(UnsupportedModelError, match="11"):
        import_cascade_xml(text)


def test_xml_import_rejects_extra_leaves():
    text = XML_FIXTURE.replace("-0.9 0.8", "-0.9 0.8 0.1")
    with pytest.raises(UnsupportedModelError, match="leaf"):
        import_cascade_xml(text)


def test_xml_import_rejects_weak_count_mismatch():
    text = XML_FIXTURE.replace("<maxWeakCount>2</maxWeakCount>", "<maxWeakCount>3</maxWeakCount>")
    with pytest.raises(FormatError, match="maxWeakCount"):
        import_cascade_xml(text)


def test_xml_import_reports_line_of_bad_number():
    # not a number, or not finite, as a stage threshold or as a leaf value
    for bad in ["1.2.3", "nan", "inf", "-inf", "1e999"]:
        for old, new in [
            ("<stageThreshold>0.1<", f"<stageThreshold>{bad}<"),
            ("0.25 -0.125", f"0.25 {bad}"),
        ]:
            text = XML_FIXTURE.replace(old, new)
            with pytest.raises(FormatError) as err:
                import_cascade_xml(text)
            message = str(err.value)
            assert bad in message
            expected_line = text[: text.index(bad)].count("\n") + 1
            assert f"(line {expected_line})" in message


def test_xml_import_rejects_malformed_documents():
    with pytest.raises(FormatError, match="malformed XML"):
        import_cascade_xml("<cascade><unclosed></cascade>")
    with pytest.raises(FormatError, match="cascade"):
        import_cascade_xml("<opencv_storage><other/></opencv_storage>")
    with pytest.raises(FormatError, match="stages"):
        import_cascade_xml(
            "<cascade><featureType>LBP</featureType><width>12</width>"
            "<height>9</height><features/></cascade>"
        )


def test_xml_import_reversed_bit_order_remaps_codes():
    canonical = import_cascade_xml(XML_FIXTURE)
    reversed_ = import_cascade_xml(XML_FIXTURE, bit_order="reversed")
    for stage_c, stage_r in zip(canonical.stages, reversed_.stages):
        for weak_c, weak_r in zip(stage_c.weaks, stage_r.weaks):
            for code in range(256):
                flipped = int(f"{code:08b}"[::-1], 2)
                assert subset_contains(weak_r.subset, code) == subset_contains(
                    weak_c.subset, flipped
                )
    with pytest.raises(FormatError):
        import_cascade_xml(XML_FIXTURE, bit_order="backwards")
