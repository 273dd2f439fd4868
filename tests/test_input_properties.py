"""Property tests for the parsers of outside input.

Every parser must return a value or raise SpeedcamError, whatever bytes or
text it is given: PGM frames, sequence manifests, model JSON, calibration
JSON, records.log lines, ingest request bodies, cascade XML and Base64
image text. The inputs are random documents and valid documents with
parts replaced by random values.
"""

import json
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedcam import capture, imaging, mblbp, speedpipe, uplink
from speedcam.errors import FormatError, SpeedcamError, parse_json

# deterministic examples, no example database written next to the tests
FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# numeric-looking tokens that parsers must refuse or accept cleanly
TOKENS = st.one_of(
    st.integers(-(2**40), 2**40).map(str),
    st.sampled_from(
        ["", "-0", "1e999", "-1e999", "nan", "inf", "9" * 5000, "0x10", "1_0", "<", "&amp;"]
    ),
    st.text(max_size=8),
)


def _refuses_or_returns(parse, *args):
    try:
        return parse(*args)
    except SpeedcamError:
        return None


# --- PGM frames ---


@st.composite
def pgm_documents(draw):
    magic = draw(st.sampled_from([b"P5", b"P2", b"p5", b""]))
    fields = draw(
        st.lists(
            st.one_of(
                st.integers(-3, 70000).map(lambda v: str(v).encode()),
                st.sampled_from([b"9" * 5000, b"1_0", b"0x1"]),
                st.binary(max_size=4),
            ),
            max_size=4,
        )
    )
    gap = st.sampled_from([b" ", b"\n", b"\t", b"# note\n", b"#"])
    gaps = draw(st.lists(gap, min_size=5, max_size=5))
    header = magic + b"".join(g + f for g, f in zip(gaps, fields))
    return header + draw(st.sampled_from([b"\n", b" ", b""])) + draw(st.binary(max_size=64))


@FUZZ
@given(st.one_of(st.binary(max_size=64), pgm_documents()))
def test_load_pgm_returns_a_frame_or_refuses(data):
    frame = _refuses_or_returns(imaging.load_pgm, data)
    if frame is not None:
        assert frame.pixels.size == frame.width * frame.height


@FUZZ
@given(st.integers(1, 9), st.integers(1, 9), st.data())
def test_load_pgm_inverts_save_pgm(w, h, data):
    px = np.frombuffer(data.draw(st.binary(min_size=w * h, max_size=w * h)), np.uint8)
    frame = imaging.load_pgm(imaging.save_pgm(imaging.Frame(w, h, px)))
    assert (frame.width, frame.height, frame.pixels.tobytes()) == (w, h, px.tobytes())


# --- sequence manifests ---

NAMES = st.one_of(
    st.sampled_from(
        ["a.pgm", "b.pgm", "missing.pgm", ".", "..", "a.pgm/", "x" * 300, "a\x00.pgm", ""]
    ),
    st.text(alphabet=st.characters(blacklist_characters="/"), max_size=12),
)
MANIFEST_LINES = st.one_of(st.tuples(NAMES, TOKENS).map("\t".join), st.text(max_size=20))


# surrogatepass keeps lone surrogates, which the reader must refuse as bad UTF-8
MANIFESTS = st.lists(MANIFEST_LINES, max_size=5).map(
    lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass")
)


@FUZZ
@given(st.one_of(MANIFESTS, st.binary(max_size=40)))
def test_read_sequence_returns_frames_or_refuses(manifest):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name in ("a.pgm", "b.pgm"):
            (d / name).write_bytes(imaging.save_pgm(imaging.Frame(2, 1, np.zeros(2, np.uint8))))
        (d / imaging.MANIFEST_NAME).write_bytes(manifest)
        # a frame is decoded when reached: read every one while the files exist
        frames = _refuses_or_returns(lambda: list(imaging.read_sequence(d)))
    if frames is not None:
        stamps = [f.timestamp_ms for f in frames]
        assert stamps == sorted(set(stamps))


def test_read_sequence_refuses_a_name_too_long_for_the_file_system(tmp_path):
    (tmp_path / imaging.MANIFEST_NAME).write_text("x" * 300 + "\t5\n")
    with pytest.raises(FormatError, match="missing file"):
        imaging.read_sequence(tmp_path)


# --- model JSON ---

MODEL_KEYS = [
    "window", "features", "stages", "threshold", "weaks", "feature", "subset", "leafIn", "leafOut"
]
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(),
        st.text(max_size=5),
        st.sampled_from([10**400, -1, 0, 2**32]),
    ),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(MODEL_KEYS) | st.text(max_size=5), inner, max_size=4),
    max_leaves=10,
)
# values a lax reader would coerce: booleans, numbers as text, fractions for integers
COERCIBLE = st.sampled_from(
    ["true", "false", '"12"', '"nan"', '"-inf"', "1.5", "1920.7", "7", '["x"]', '{"a": 1}']
).map(json.loads)
VALID_MODEL = {
    "window": [12, 9],
    "features": [[0, 0, 4, 3], [1, 0, 2, 2]],
    "stages": [
        {
            "threshold": -0.5,
            "weaks": [
                {"feature": 0, "subset": [1, 0, 0, 0, 0, 0, 0, 0], "leafIn": -0.9, "leafOut": 0.8},
                {"feature": 1, "subset": [0] * 8, "leafIn": 0.25, "leafOut": -0.125},
            ],
        }
    ],
}


def _mutate(data, node):
    """Replace or delete one value somewhere in a JSON tree, in place."""
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return
        key = data.draw(st.sampled_from(keys))
        if isinstance(node[key], (dict, list)) and data.draw(st.booleans()):
            node = node[key]
            continue
        if data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(st.one_of(COERCIBLE, JSON_VALUES))
        return


def _mutated(data, valid) -> str:
    """valid as JSON text with up to three values replaced or deleted, maybe cut short."""
    doc = json.loads(json.dumps(valid))
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(data, doc)
    text = json.dumps(doc)
    return data.draw(st.sampled_from([text, text[: data.draw(st.integers(0, 80))]]))


@FUZZ
@given(st.data())
def test_load_model_returns_a_model_or_refuses(data):
    text = _mutated(data, VALID_MODEL)
    model = _refuses_or_returns(mblbp.load_model, text)
    if model is not None:  # compared as text, so a NaN leaf compares equal
        text = mblbp.save_model(model)
        assert mblbp.save_model(mblbp.load_model(text)) == text


@FUZZ
@given(st.text(max_size=40))
def test_load_model_refuses_text_that_is_not_a_model(text):
    _refuses_or_returns(mblbp.load_model, text)


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100000,  # nesting past the recursion limit
        "1" * 5000,  # an integer past the digit limit
        json.dumps(VALID_MODEL).replace("-0.9", "1" + "0" * 400),  # a leaf past float range
        json.dumps(VALID_MODEL).replace("-0.5", "-1" + "0" * 400),  # likewise a threshold
    ],
    ids=["deep", "digits", "leaf", "threshold"],
)
def test_load_model_refuses_numbers_and_nesting_past_python_limits(text):
    with pytest.raises(FormatError):
        mblbp.load_model(text)


# --- calibration JSON, records.log lines and ingest bodies ---

VALID_CALIBRATION = speedpipe.calibrate(449.73, 3.0, 10.0, (1920, 1080)).to_doc()
TIME = "2016-09-26_09_17_32"
VALID_RECORD = {
    "id": 1,
    "vehicle_speed": 173.0,
    "location": "Main St",
    "capture_time": TIME,
    "picture_filename": capture.picture_filename_for(TIME),
    "speed_unit": capture.APP_READING_UNIT,
}
VALID_BODY = {
    "records": [
        {
            "vehicleSpeed": 12.5,
            "location": "Main St",
            "captureTime": t,
            "pictureFilename": capture.picture_filename_for(t),
            "pictureBase64": uplink.encode_image(b"img"),
        }
        for t in [TIME, "2016-09-26_10_05_01"]
    ]
}


def _float(value):
    """A JSON integer as the float a reader makes of a number; anything else as it is."""
    return float(value) if type(value) is int else value


def _json(value) -> str:
    """JSON text, which tells true from 1 and 1 from 1.0, unlike ==."""
    return json.dumps(value, sort_keys=True)


@FUZZ
@given(st.data())
def test_calibration_from_doc_returns_a_profile_or_refuses(data):
    text = _mutated(data, VALID_CALIBRATION)
    cal = _refuses_or_returns(
        lambda t: speedpipe.calibration_from_doc(parse_json(t, FormatError, "calibration")), text
    )
    if cal is not None:
        doc = json.loads(text)
        want = {k: v if k == "frame" else _float(v) for k, v in doc.items()}
        assert _json(cal.to_doc()) == _json(want)


@FUZZ
@given(st.data())
def test_records_log_line_loads_a_record_or_refuses(data):
    text = _mutated(data, VALID_RECORD)
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / capture.LOG_NAME).write_text(text + "\n", encoding="utf-8")
        store = _refuses_or_returns(capture.RecordStore, tmp)
    if store is not None and text.strip():
        [record] = store.list_all()
        doc = json.loads(text)
        want = {**doc, "vehicle_speed": _float(doc["vehicle_speed"])}
        assert _json({key: getattr(record, key) for key in doc}) == _json(want)


@FUZZ
@given(st.data())
def test_ingest_body_parses_to_records_or_refuses(data):
    text = _mutated(data, VALID_BODY)
    items = _refuses_or_returns(
        lambda t: uplink._parse_payload_records(parse_json(t, FormatError, "payload")), text
    )
    if items is not None:
        entries = json.loads(text)["records"]
        assert len(items) == len(entries)
        for (record, image), entry in zip(items, entries):
            got = [record.vehicle_speed, record.location, record.capture_time, record.picture_filename]
            want = [_float(entry["vehicleSpeed"])]
            want += [entry["location"], entry["captureTime"], entry["pictureFilename"]]
            assert _json(got) == _json(want)
            assert image == uplink.decode_image(entry["pictureBase64"])


# --- cascade XML ---

XML_TEMPLATE = (
    "<cascade><featureType>{}</featureType><width>{}</width><height>{}</height>"
    "<stages><_><maxWeakCount>{}</maxWeakCount><stageThreshold>{}</stageThreshold>"
    "<weakClassifiers><_><internalNodes>{}</internalNodes><leafValues>{}</leafValues>"
    "</_></weakClassifiers></_></stages><features><_><rect>{}</rect></_></features></cascade>"
)
XML_SLOTS = ["LBP", "12", "9", "1", "-0.5", "0 -1 0 1 0 0 0 0 0 0 0", "-0.9 0.8", "0 0 4 3"]


@FUZZ
@given(st.data())
def test_import_cascade_xml_returns_a_model_or_refuses(data):
    slots = [
        data.draw(st.one_of(st.just(slot), st.lists(TOKENS, max_size=12).map(" ".join)))
        for slot in XML_SLOTS
    ]
    text = XML_TEMPLATE.format(*slots)
    text = data.draw(st.sampled_from([text, text[: data.draw(st.integers(0, len(text)))]]))
    bit_order = data.draw(st.sampled_from(["canonical", "reversed", "other"]))
    _refuses_or_returns(mblbp.import_cascade_xml, text, bit_order)


@FUZZ
@given(st.text(max_size=60))
def test_import_cascade_xml_refuses_text_that_is_not_a_cascade(text):
    _refuses_or_returns(mblbp.import_cascade_xml, text)


# --- Base64 image text ---

B64_CHARS = string.ascii_letters + string.digits + "+_=/"


@FUZZ
@given(st.one_of(st.text(max_size=40), st.text(alphabet=B64_CHARS, max_size=40)))
def test_decode_image_returns_bytes_or_refuses(text):
    data = _refuses_or_returns(uplink.decode_image, text)
    assert data is None or isinstance(data, bytes)


@FUZZ
@given(st.binary(max_size=200))
def test_decode_image_inverts_encode_image(data):
    assert uplink.decode_image(uplink.encode_image(data)) == data
