"""End-to-end command-line workflows over temporary directories."""

import json
import shutil
from datetime import datetime
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import _build_patch_case
from test_imaging import _counted_load_pgm
from test_mblbp import XML_EXPECTED, XML_FIXTURE

from speedcam import capture, cli, detector, imaging, mblbp, speedpipe, trainer
from speedcam.capture import make_record
from speedcam.cli import run

TIMES = [
    "2016-09-26_09_17_32",
    "2016-09-26_10_05_01",
    "2016-09-26_11_30_59",
    "2016-09-26_12_47_43",
    "2016-09-26_13_00_00",
]

SUBCOMMANDS = {
    "synth": ["--out", "--patch", "--velocity", "--frames", "--fps", "--seed"],
    "train": ["--pos", "--neg", "--stages", "--max-weaks", "--tpr", "--out"],
    "detect": ["--frames", "--model", "--min-neighbors", "--scale-factor"],
    "speed": ["--px-per-m", "--calibration", "--axis", "--capture", "--record-unit"],
    "calibrate": ["--object-px", "--object-m", "--distance-m", "--frame"],
    "records": ["--store", "--time", "--yes"],
    "upload": ["--store", "--endpoint", "--max-bytes"],
    "serve": ["--bind", "--data", "--max-bytes"],
    "import-cascade": ["--in", "--out", "--bit-order"],
}


def _det_args(params):
    return [
        "--min-size-fraction",
        repr(params.min_size_fraction),
        "--scale-factor",
        repr(params.scale_factor),
        "--stride",
        str(params.stride_base),
        "--min-neighbors",
        str(params.min_neighbors),
        "--group-eps",
        repr(params.group_eps),
    ]


@pytest.fixture(scope="module")
def workflow(tmp_path_factory):
    """A synthesized sequence on disk plus a model JSON that tracks its patch."""
    root = tmp_path_factory.mktemp("workflow")
    case = _build_patch_case(n_frames=20)
    seq = root / "seq"
    rc = run(
        [
            "synth",
            "--out",
            str(seq),
            "--patch",
            "20",
            "150",
            "96",
            "48",
            "--velocity",
            "10",
            "0",
            "--frames",
            "20",
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    model_path = root / "model.json"
    model_path.write_text(mblbp.save_model(case.model))
    return SimpleNamespace(root=root, seq=seq, model=model_path, case=case)


def test_every_subcommand_documents_its_flags(capsys):
    for name, flags in SUBCOMMANDS.items():
        with pytest.raises(SystemExit) as exc:
            run([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in flags:
            assert flag in out, f"{name} help missing {flag}"


def test_flag_defaults_match_the_library_defaults():
    parse = cli.build_parser().parse_args
    seq = ["--frames", "seq", "--model", "m.json"]
    for args in (parse(["detect", *seq]), parse(["speed", *seq])):
        assert cli._detector_params(args) == detector.DetectorParams()
    args = parse(["speed", *seq])
    session = speedpipe.SpeedSession()
    assert (args.window_len, args.windows) == (session.window_len, session.windows_needed)
    assert args.legacy_coeff == speedpipe.LEGACY_COEFFICIENT
    args = parse(["train", "--pos", "p", "--neg", "n", "--out", "m.json"])
    config = trainer.TrainConfig(args.max_weaks, args.stages)
    assert (args.tpr, args.feature_stride) == (
        config.stage_tpr_target,
        config.feature_stride,
    )
    args = parse(["synth", "--out", "seq", "--patch", "0", "0", "8", "8"])
    synth = imaging.SynthConfig(8, 8, imaging.Rect(0, 0, 8, 8), (0.0, 0.0), 1)
    assert args.background == synth.background


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--out", "x"])  # --patch is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("content", [None, b"\xff\xfe"], ids=["missing", "non-utf8"])
@pytest.mark.parametrize("flag", ["--model", "--config"])
def test_unreadable_model_or_config_is_an_error(workflow, capsys, tmp_path, flag, content):
    path = tmp_path / "input"
    if content is not None:
        path.write_bytes(content)
    if flag == "--model":
        argv = ["detect", "--frames", str(workflow.seq), "--model", str(path)]
    else:
        argv = ["--config", str(path), "detect", "--frames", str(workflow.seq)]
        argv += ["--model", str(workflow.model)]
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err
    assert "Traceback" not in err


def _unreadable_input(case, root, workflow):
    """argv for one unreadable input, and the path the error must name."""
    bad = b"\xff\xfe not utf-8\n"
    deep = b"[" * 200_000  # nesting past the recursion limit
    seq_args = ["--frames", str(workflow.seq), "--model", str(workflow.model)]
    if case in ("manifest-detect", "manifest-speed"):
        seq = root / "seq"
        seq.mkdir()
        path = seq / imaging.MANIFEST_NAME
        path.write_bytes(bad)
        command = case.split("-")[1]
        argv = [command, "--frames", str(seq), "--model", str(workflow.model)]
        return argv + (["--px-per-m", "10"] if command == "speed" else []), path
    if case.startswith("records-log"):
        path = root / "store" / capture.LOG_NAME
        path.parent.mkdir()
        path.write_bytes(deep + b"\n" if case == "records-log-deep" else bad)
        return ["records", "list", "--store", str(path.parent)], path
    if case == "config-deep":
        path = root / "speedcam.cfg"
        path.write_bytes(b"min-neighbors = " + deep + b"\n")
        return ["--config", str(path), "detect", *seq_args], path
    if case == "train-sample-directory":
        pos, neg = root / "pos", root / "neg"
        path = pos / "sub.pgm"
        path.mkdir(parents=True)
        neg.mkdir()
        argv = ["train", "--pos", str(pos), "--neg", str(neg), "--out", str(root / "m.json")]
        return argv, path
    if case == "frame-directory-no-manifest":
        seq = root / "seq"
        path = seq / "frame_00001.pgm"
        path.mkdir(parents=True)
        argv = ["detect", "--frames", str(seq), "--fps", "30", "--model", str(workflow.model)]
        return argv, path
    if case.startswith("calibration"):
        path = root / "cal.json"
        if case == "calibration-not-json":
            path.write_text("{\"pxPerM\": ", encoding="utf-8")
        elif case == "calibration-deep":
            path.write_bytes(deep)
        return ["speed", *seq_args, "--calibration", str(path)], path
    path = root / "cascade.xml"
    if case == "cascade-non-utf8":
        path.write_bytes(bad)
    return ["import-cascade", "--in", str(path)], path


@pytest.mark.parametrize(
    "case",
    [
        "manifest-detect",
        "manifest-speed",
        "records-log",
        "records-log-deep",
        "config-deep",
        "calibration-missing",
        "calibration-not-json",
        "calibration-deep",
        "cascade-missing",
        "cascade-non-utf8",
        "train-sample-directory",
        "frame-directory-no-manifest",
    ],
)
def test_unreadable_input_files_are_errors(workflow, capsys, tmp_path, case):
    argv, path = _unreadable_input(case, tmp_path, workflow)
    capsys.readouterr()
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and str(path) in captured.err
    assert "Traceback" not in captured.out + captured.err


def _unwritable_output(case, root, workflow):
    """argv for one unwritable output path, and the path the error must name."""
    command, kind = case.split(":")
    path = {
        "missing-parent": root / "nodir" / "out",
        "directory": root / "adir",
        "file": root / "afile",
        "frame-directory": root / "seq" / "frame_00000.pgm",
    }[kind]
    if kind == "file":
        path.write_bytes(b"")
    elif kind != "missing-parent":
        path.mkdir(parents=True)
    if command == "calibrate":
        argv = ["calibrate", "--object-px", "100", "--object-m", "1", "--distance-m", "5"]
        return argv + ["--frame", "640x360", "--out", str(path)], path
    if command == "train":
        for label in ("pos", "neg"):
            (root / label).mkdir()
            frame = imaging.Frame(6, 6, np.full((6, 6), 40 if label == "pos" else 0, np.uint8))
            (root / label / "s.pgm").write_bytes(imaging.save_pgm(frame))
        argv = ["train", "--pos", str(root / "pos"), "--neg", str(root / "neg")]
        return argv + ["--stages", "1", "--max-weaks", "1", "--out", str(path)], path
    if command == "import-cascade":
        xml = root / "cascade.xml"
        xml.write_text(XML_FIXTURE)
        return ["import-cascade", "--in", str(xml), "--out", str(path)], path
    if command == "synth":
        out = path.parent if kind == "frame-directory" else path
        return ["synth", "--out", str(out), "--patch", "0", "0", "8", "8", "--frames", "2"], path
    if command == "speed":
        argv = ["speed", "--frames", str(workflow.seq), "--model", str(workflow.model)]
        argv += ["--px-per-m", "100", "--capture", "--store", str(path)]
        return argv + _det_args(workflow.case.params), path
    store_flag = {"records": ["list", "--store"], "upload": ["--store"], "serve": ["--data"]}
    argv = [command, *store_flag[command], str(path)]
    extra = {"upload": ["--endpoint", "http://127.0.0.1:9"], "serve": ["--bind", "127.0.0.1:0"]}
    return argv + extra.get(command, []), path


@pytest.mark.parametrize(
    "case",
    [
        "calibrate:missing-parent",
        "calibrate:directory",
        "train:missing-parent",
        "train:directory",
        "import-cascade:missing-parent",
        "import-cascade:directory",
        "synth:file",
        "synth:frame-directory",
        "records:file",
        "upload:file",
        "serve:file",
        "speed:file",
    ],
)
def test_unwritable_output_paths_are_errors(workflow, capsys, tmp_path, case):
    argv, path = _unwritable_output(case, tmp_path, workflow)
    capsys.readouterr()
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and str(path) in captured.err
    assert "Traceback" not in captured.out + captured.err
    if case == "speed:file":
        # the estimate is printed before the capture store is opened
        assert "appReading" in json.loads(captured.out)


@pytest.mark.parametrize("line", ["func = 1", "scale_factr = 1.2"])
def test_config_file_rejects_unknown_keys(workflow, capsys, tmp_path, line):
    cfg = tmp_path / "speedcam.cfg"
    cfg.write_text(f"# detector\nmin-neighbors = 3\n{line}\n")
    argv = ["--config", str(cfg), "detect", "--frames", str(workflow.seq)]
    capsys.readouterr()
    assert run(argv + ["--model", str(workflow.model)]) == 1
    key = line.split(" =")[0]
    assert f"error: {cfg}:3: unknown key {key!r}" in capsys.readouterr().err


def test_synth_writes_readable_sequence(workflow):
    frames = imaging.read_sequence(workflow.seq)
    assert len(frames) == 20
    assert (frames[0].width, frames[0].height) == (640, 360)
    assert np.array_equal(frames[0].pixels, workflow.case.frames[0].pixels)
    assert frames[3].timestamp_ms == workflow.case.frames[3].timestamp_ms


def test_detect_prints_tsv_rows(workflow, capsys):
    capsys.readouterr()
    rc = run(
        ["detect", "--frames", str(workflow.seq), "--model", str(workflow.model)]
        + _det_args(workflow.case.params)
    )
    assert rc == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 20
    assert all(len(r) == 6 for r in rows)
    assert [int(r[0]) for r in rows] == list(range(20))
    first = [int(v) for v in rows[0]]
    assert first == [0, 20, 150, 96, 48, 1]
    xs = [int(r[1]) for r in rows]
    assert all(abs((b - a) - 10) <= 2 for a, b in zip(xs, xs[1:]))


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--scale-factor", "nan"),
        ("--scale-factor", "inf"),
        ("--scale-factor", "1.0000001"),
        ("--group-eps", "nan"),
        ("--group-eps", "inf"),
    ],
)
def test_detect_refuses_detector_flags_it_cannot_scan_with(workflow, capsys, flag, value):
    argv = ["detect", "--frames", str(workflow.seq), "--model", str(workflow.model)]
    capsys.readouterr()
    assert run(argv + [flag, value]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and flag[2:].replace("-", "_") in err
    assert "Traceback" not in err


def test_speed_reports_four_window_estimate(workflow, capsys):
    capsys.readouterr()
    rc = run(
        [
            "speed",
            "--frames",
            str(workflow.seq),
            "--model",
            str(workflow.model),
            "--px-per-m",
            "100",
        ]
        + _det_args(workflow.case.params)
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["windowSpeedsPxS"] == [301, 301, 299, 301]
    assert doc["medianPxS"] == 301.0
    assert doc["mS"] == pytest.approx(3.01)
    assert doc["kmH"] == pytest.approx(10.836)
    assert doc["appReading"] == pytest.approx(75.25)
    assert doc["calibration"]["pxPerM"] == 100.0


def test_speed_axis_modes_agree_on_horizontal_motion(workflow, capsys):
    capsys.readouterr()
    base_args = [
        "speed",
        "--frames",
        str(workflow.seq),
        "--model",
        str(workflow.model),
        "--px-per-m",
        "100",
    ] + _det_args(workflow.case.params)
    assert run(base_args) == 0
    euclid = json.loads(capsys.readouterr().out)
    assert run(base_args + ["--axis", "x-only"]) == 0
    x_only = json.loads(capsys.readouterr().out)
    assert euclid["windowSpeedsPxS"] == x_only["windowSpeedsPxS"]


def test_speed_capture_persists_record_and_image(workflow, capsys, tmp_path):
    capsys.readouterr()
    store_dir = tmp_path / "store"
    rc = run(
        [
            "speed",
            "--frames",
            str(workflow.seq),
            "--model",
            str(workflow.model),
            "--px-per-m",
            "100",
            "--capture",
            "--store",
            str(store_dir),
            "--location",
            "Main St",
        ]
        + _det_args(workflow.case.params),
        clock=lambda: datetime(2016, 9, 26, 9, 17, 32),
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    store = capture.RecordStore(store_dir)
    records = store.list_all()
    assert len(records) == 1
    rec = records[0]
    assert rec.id == 1
    assert rec.capture_time == "2016-09-26_09_17_32"
    assert rec.picture_filename == "vehicle_picture_2016-09-26_09_17_32.jpg"
    assert rec.location == "Main St"
    assert rec.speed_unit == "app_reading"
    assert rec.vehicle_speed == pytest.approx(doc["appReading"])
    image = imaging.load_pgm(store.image_path(rec).read_bytes())
    assert (image.width, image.height) == (640, 360)


def test_speed_capture_record_unit_selects_value(workflow, capsys, tmp_path):
    capsys.readouterr()
    store_dir = tmp_path / "store"
    rc = run(
        [
            "speed",
            "--frames",
            str(workflow.seq),
            "--model",
            str(workflow.model),
            "--px-per-m",
            "100",
            "--capture",
            "--store",
            str(store_dir),
            "--record-unit",
            "km-h",
        ]
        + _det_args(workflow.case.params),
        clock=lambda: datetime(2016, 9, 26, 10, 5, 1),
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    rec = capture.RecordStore(store_dir).list_all()[0]
    assert rec.vehicle_speed == pytest.approx(doc["kmH"])
    assert rec.speed_unit == "km_h"


def test_speed_requires_exactly_one_calibration_source(workflow, capsys, tmp_path):
    base = [
        "speed",
        "--frames",
        str(workflow.seq),
        "--model",
        str(workflow.model),
    ] + _det_args(workflow.case.params)
    assert run(base) == 1
    cal_path = tmp_path / "cal.json"
    assert (
        run(
            [
                "calibrate",
                "--object-px",
                "300",
                "--object-m",
                "3",
                "--distance-m",
                "10",
                "--frame",
                "640x360",
                "--out",
                str(cal_path),
            ]
        )
        == 0
    )
    assert run(base + ["--px-per-m", "100", "--calibration", str(cal_path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_speed_accepts_calibration_file(workflow, capsys, tmp_path):
    cal_path = tmp_path / "cal.json"
    rc = run(
        [
            "calibrate",
            "--object-px",
            "449.73",
            "--object-m",
            "3.0",
            "--distance-m",
            "10",
            "--frame",
            "640x360",
            "--out",
            str(cal_path),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    rc = run(
        [
            "speed",
            "--frames",
            str(workflow.seq),
            "--model",
            str(workflow.model),
            "--calibration",
            str(cal_path),
        ]
        + _det_args(workflow.case.params)
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["calibration"]["pxPerM"] == pytest.approx(149.91)
    assert doc["mS"] == pytest.approx(301 / 149.91)


@pytest.mark.parametrize("source", ["doc:0", "doc:-5", "doc:NaN", "flag:nan"])
def test_speed_refuses_calibration_numbers_that_are_not_finite_and_positive(
    workflow, capsys, tmp_path, source
):
    kind, value = source.split(":")
    if kind == "doc":
        cal = speedpipe.calibrate(300.0, 3.0, 10.0, (640, 360)).to_doc()
        cal_path = tmp_path / "cal.json"
        # json writes a NaN float as NaN
        cal_path.write_text(json.dumps({**cal, "pxPerM": float(value)}))
        cal_args = ["--calibration", str(cal_path)]
    else:
        cal_args = ["--px-per-m", value]
    base = ["speed", "--frames", str(workflow.seq), "--model", str(workflow.model)]
    capsys.readouterr()
    assert run(base + cal_args + _det_args(workflow.case.params)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err and "must be finite and positive" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value",
    [("frame", [1920.7, 1080]), ("frame", [True, True]), ("pxPerM", "150"), ("objectLenM", True)],
)
def test_speed_refuses_calibration_fields_of_another_json_type(
    workflow, capsys, tmp_path, key, value
):
    cal = speedpipe.calibrate(300.0, 3.0, 10.0, (640, 360)).to_doc()
    cal_path = tmp_path / "cal.json"
    cal_path.write_text(json.dumps({**cal, key: value}))
    base = ["speed", "--frames", str(workflow.seq), "--model", str(workflow.model)]
    capsys.readouterr()
    assert run(base + ["--calibration", str(cal_path)] + _det_args(workflow.case.params)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and f'field "{key}"' in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("frame", [640.5, 360], 'field "frame"[0] must be an integer'),
        ("pxPerM", 0, "pxPerM must be finite and positive, got 0.0"),
    ],
)
def test_speed_calibration_errors_name_the_file(workflow, capsys, tmp_path, key, value, message):
    cal = speedpipe.calibrate(300.0, 3.0, 10.0, (640, 360)).to_doc()
    cal_path = tmp_path / "cal.json"
    cal_path.write_text(json.dumps({**cal, key: value}))
    base = ["speed", "--frames", str(workflow.seq), "--model", str(workflow.model)]
    capsys.readouterr()
    assert run(base + ["--calibration", str(cal_path)] + _det_args(workflow.case.params)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: calibration {cal_path}: ") and message in err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--px-per-m", "1e-320"], "calibration pxPerM 1e-320"),
        (["--px-per-m", "100", "--legacy-coeff", "nan"], "legacy coefficient nan"),
    ],
    ids=["px-per-m", "legacy-coeff"],
)
@pytest.mark.parametrize("capture", [False, True], ids=["print", "capture"])
def test_speed_refuses_an_estimate_that_is_not_finite(
    workflow, capsys, tmp_path, flags, named, capture
):
    # each flag is accepted on its own, but its product with the median
    # speed is infinite or NaN, which JSON cannot hold
    argv = ["speed", "--frames", str(workflow.seq), "--model", str(workflow.model), *flags]
    if capture:
        argv += ["--capture", "--store", str(tmp_path / "store"), "--record-unit", "m-s"]
    capsys.readouterr()
    assert run(argv + _det_args(workflow.case.params)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {named} gives ") and len(err.splitlines()) == 1
    assert not (tmp_path / "store").exists() or not list((tmp_path / "store").iterdir())


@pytest.mark.parametrize("command", ["detect", "speed"])
def test_a_manifest_that_names_no_frames_is_an_error(workflow, capsys, tmp_path, command):
    seq = tmp_path / "seq"
    seq.mkdir()
    (seq / imaging.MANIFEST_NAME).write_text("\n")
    frame = imaging.Frame(8, 8, np.zeros((8, 8), np.uint8))
    (seq / "frame_00000.pgm").write_bytes(imaging.save_pgm(frame))  # not named
    argv = [command, "--frames", str(seq), "--model", str(workflow.model)]
    if command == "speed":
        argv += ["--px-per-m", "100"]
    capsys.readouterr()
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {seq / imaging.MANIFEST_NAME} names no frames\n"


def _corrupt_copy(workflow, root, index):
    """A copy of the workflow sequence whose frame `index` is not a PGM."""
    seq = root / "seq"
    shutil.copytree(workflow.seq, seq)
    bad = seq / f"frame_{index:05d}.pgm"
    bad.write_bytes(b"P2 640 360 255\n")
    return seq, bad


@pytest.mark.parametrize("command", ["detect", "speed"])
@pytest.mark.parametrize(
    "manifest, error",
    [
        ("frame_00000.pgm\t0\nframe_00001.pgm\t0\n", "does not exceed previous 0"),
        ("frame_00000.pgm\t0\nmissing.pgm\t33\n", "missing file missing.pgm"),
        ("frame_00000.pgm\t0\n../seq/frame_00001.pgm\t33\n", "no directory part"),
        ("frame_00000.pgm\tsoon\n", "not an integer"),
        (None, "fps 5000 gives frame_00000.pgm and frame_00001.pgm the same"),
    ],
)
def test_sequence_errors_fail_before_any_frame_is_decoded(
    workflow, capsys, tmp_path, monkeypatch, command, manifest, error
):
    seq, _ = _corrupt_copy(workflow, tmp_path, 1)
    argv = [command, "--frames", str(seq), "--model", str(workflow.model)]
    if manifest is None:
        (seq / imaging.MANIFEST_NAME).unlink()
        argv += ["--fps", "5000"]
    else:
        (seq / imaging.MANIFEST_NAME).write_text(manifest, encoding="utf-8")
    decoded = _counted_load_pgm(monkeypatch)
    capsys.readouterr()
    assert run(argv + (["--px-per-m", "100"] if command == "speed" else [])) == 1
    out, err = capsys.readouterr()
    assert out == "" and decoded == []
    assert err.startswith("error:") and error in err and err.count("\n") == 1


def test_detect_prints_the_frames_before_a_corrupt_one(workflow, capsys, tmp_path):
    argv = ["--model", str(workflow.model)] + _det_args(workflow.case.params)
    capsys.readouterr()
    assert run(["detect", "--frames", str(workflow.seq), *argv]) == 0
    clean = capsys.readouterr().out.splitlines()
    seq, bad = _corrupt_copy(workflow, tmp_path, 7)
    assert run(["detect", "--frames", str(seq), *argv]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [line for line in clean if int(line.split("\t")[0]) < 7]
    assert err == f"error: {bad}: bad magic b'P2': expected binary graymap 'P5'\n"


def test_speed_prints_no_estimate_when_a_frame_before_complete_is_corrupt(
    workflow, capsys, tmp_path
):
    seq, bad = _corrupt_copy(workflow, tmp_path, 7)
    argv = ["speed", "--frames", str(seq), "--model", str(workflow.model), "--px-per-m", "100"]
    capsys.readouterr()
    assert run(argv + _det_args(workflow.case.params)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {bad}: bad magic") and "Traceback" not in err


def test_speed_decodes_no_frame_after_complete(workflow, capsys, tmp_path, monkeypatch):
    # two windows of five detections complete at frame 9 of the 20
    argv = ["--model", str(workflow.model), "--px-per-m", "100", "--windows", "2"]
    argv += _det_args(workflow.case.params)
    capsys.readouterr()
    assert run(["speed", "--frames", str(workflow.seq), *argv]) == 0
    clean = capsys.readouterr().out
    seq, _ = _corrupt_copy(workflow, tmp_path, 10)
    decoded = _counted_load_pgm(monkeypatch)
    assert run(["speed", "--frames", str(seq), *argv]) == 0
    assert capsys.readouterr().out == clean
    assert len(decoded) == 10  # frames 0-9, each once


@pytest.mark.parametrize("value", ["nan", "0", "-5", "inf"])
def test_speed_px_per_m_refusal_names_the_flag(workflow, capsys, value):
    base = ["speed", "--frames", str(workflow.seq), "--model", str(workflow.model)]
    capsys.readouterr()
    assert run(base + ["--px-per-m", value] + _det_args(workflow.case.params)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: --px-per-m must be finite and positive, got {float(value)}" in err
    assert "objectPxLen" not in err


def test_calibrate_prints_to_stdout(capsys):
    capsys.readouterr()
    rc = run(
        [
            "calibrate",
            "--object-px",
            "449.73",
            "--object-m",
            "3.0",
            "--distance-m",
            "10",
            "--frame",
            "1920x1080",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pxPerM"] == pytest.approx(149.91)
    assert doc["frame"] == [1920, 1080]


def test_calibrate_rejects_bad_frame_string(capsys):
    assert (
        run(
            [
                "calibrate",
                "--object-px",
                "1",
                "--object-m",
                "1",
                "--distance-m",
                "1",
                "--frame",
                "1920by1080",
            ]
        )
        == 1
    )
    assert "error:" in capsys.readouterr().err


def test_records_list_search_delete_cycle(capsys, tmp_path):
    store_dir = tmp_path / "store"
    store = capture.RecordStore(store_dir)
    for k, t in enumerate(TIMES):
        store.append(make_record(100.0 + k, "loc", t), b"img" + bytes([k]))

    capsys.readouterr()
    assert run(["records", "list", "--store", str(store_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[0].split("\t")[0] == "1"
    assert "vehicle_picture_2016-09-26_09_17_32.jpg" in lines[0]

    assert run(["records", "search", "--store", str(store_dir), "--time", "12_47"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert "2016-09-26_12_47_43" in lines[0]

    assert run(["records", "search", "--store", str(store_dir), "--time", "1999"]) == 0
    assert capsys.readouterr().out == ""

    # refusal without --yes leaves everything in place
    assert run(["records", "delete", "--store", str(store_dir)]) == 1
    assert "error:" in capsys.readouterr().err
    assert len(capture.RecordStore(store_dir).list_all()) == 5

    assert run(["records", "delete", "--store", str(store_dir), "--yes"]) == 0
    assert "deleted 5" in capsys.readouterr().err
    assert run(["records", "list", "--store", str(store_dir)]) == 0
    assert capsys.readouterr().out == ""


def test_upload_command_against_live_server(capsys, tmp_path):
    from speedcam.uplink import serve_ingest

    client_dir = tmp_path / "client"
    store = capture.RecordStore(client_dir)
    for k, t in enumerate(TIMES):
        store.append(make_record(100.0 + k, "loc", t), b"img" + bytes([k]))
    with serve_ingest("127.0.0.1:0", tmp_path / "server") as server:
        capsys.readouterr()
        rc = run(["upload", "--store", str(client_dir), "--endpoint", server.endpoint])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("5\t")
        landed = server.store.list_all()
    assert [r.capture_time for r in landed] == TIMES


def test_upload_oversize_is_a_domain_error(capsys, tmp_path):
    client_dir = tmp_path / "client"
    store = capture.RecordStore(client_dir)
    store.append(make_record(1.0, "loc", TIMES[0]), b"x" * 4096)
    rc = run(
        [
            "upload",
            "--store",
            str(client_dir),
            "--endpoint",
            "http://127.0.0.1:1",
            "--max-bytes",
            "100",
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_serve_round_trips_an_upload(capsys, tmp_path, monkeypatch):
    client_dir = tmp_path / "client"
    store = capture.RecordStore(client_dir)
    for k, t in enumerate(TIMES):
        store.append(make_record(100.0 + k, "loc", t), b"img" + bytes([k]))
    seen = {}

    def upload_then_return():
        banner = capsys.readouterr().out
        seen["banner"] = banner
        endpoint = banner.strip().rsplit(" ", 1)[-1]
        seen["upload_rc"] = run(["upload", "--store", str(client_dir), "--endpoint", endpoint])

    monkeypatch.setattr(cli, "_wait_forever", upload_then_return)
    rc = run(["serve", "--bind", "127.0.0.1:0", "--data", str(tmp_path / "server")])
    assert rc == 0
    assert seen["banner"].startswith("listening on http://127.0.0.1:")
    assert seen["upload_rc"] == 0
    landed = capture.RecordStore(tmp_path / "server").list_all()
    assert len(landed) == 5


def test_serve_handles_keyboard_interrupt(capsys, tmp_path, monkeypatch):
    def interrupt():
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_wait_forever", interrupt)
    rc = run(["serve", "--bind", "127.0.0.1:0", "--data", str(tmp_path / "server")])
    assert rc == 0
    captured = capsys.readouterr()
    assert "listening on" in captured.out
    assert "shutting down" in captured.err


def test_import_cascade_to_file_and_stdout(capsys, tmp_path):
    xml_path = tmp_path / "cascade.xml"
    xml_path.write_text(XML_FIXTURE)
    out_path = tmp_path / "model.json"
    rc = run(["import-cascade", "--in", str(xml_path), "--out", str(out_path)])
    assert rc == 0
    assert mblbp.load_model(out_path.read_text()) == XML_EXPECTED

    capsys.readouterr()
    rc = run(["import-cascade", "--in", str(xml_path)])
    assert rc == 0
    assert mblbp.load_model(capsys.readouterr().out) == XML_EXPECTED


def test_import_cascade_rejects_haar(capsys, tmp_path):
    xml_path = tmp_path / "cascade.xml"
    xml_path.write_text(XML_FIXTURE.replace("LBP", "HAAR"))
    assert run(["import-cascade", "--in", str(xml_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_train_command_produces_loadable_model(capsys, tmp_path):
    rng = np.random.default_rng(71)
    pos_dir = tmp_path / "pos"
    neg_dir = tmp_path / "neg"
    pos_dir.mkdir()
    neg_dir.mkdir()
    for k in range(6):
        px = rng.integers(0, 60, (6, 6), np.uint8)
        px[2:4, 2:4] = 255
        (pos_dir / f"p{k}.pgm").write_bytes(imaging.save_pgm(imaging.Frame(6, 6, px)))
        nx = rng.integers(0, 60, (6, 6), np.uint8)
        (neg_dir / f"n{k}.pgm").write_bytes(imaging.save_pgm(imaging.Frame(6, 6, nx)))
    out = tmp_path / "trained.json"
    rc = run(
        [
            "train",
            "--pos",
            str(pos_dir),
            "--neg",
            str(neg_dir),
            "--stages",
            "2",
            "--max-weaks",
            "3",
            "--tpr",
            "1.0",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    model = mblbp.load_model(out.read_text())
    assert (model.window_w, model.window_h) == (6, 6)
    assert "trained" in capsys.readouterr().err
    # the trained cascade separates its own training data
    for path in pos_dir.glob("*.pgm"):
        frame = imaging.load_pgm(path.read_bytes())
        assert mblbp.eval_window(imaging.integral(frame), model, (0, 0))


def test_train_empty_directory_is_a_domain_error(capsys, tmp_path):
    (tmp_path / "pos").mkdir()
    (tmp_path / "neg").mkdir()
    rc = run(
        [
            "train",
            "--pos",
            str(tmp_path / "pos"),
            "--neg",
            str(tmp_path / "neg"),
            "--out",
            str(tmp_path / "m.json"),
        ]
    )
    assert rc == 1
    assert "no .pgm samples" in capsys.readouterr().err


def test_config_file_overrides_defaults(capsys, tmp_path):
    cfg = tmp_path / "speedcam.cfg"
    cfg.write_text(
        "# defaults for small test rigs\nwidth=320\nheight=180\nfps=25\nvelocity=[8, 0]\n"
    )
    seq = tmp_path / "seq"
    rc = run(
        [
            "--config",
            str(cfg),
            "synth",
            "--out",
            str(seq),
            "--patch",
            "10",
            "20",
            "30",
            "15",
            "--frames",
            "3",
        ]
    )
    assert rc == 0
    frames = imaging.read_sequence(seq)
    assert (frames[0].width, frames[0].height) == (320, 180)
    assert frames[1].timestamp_ms == 40  # 25 fps from the config file
    # explicit flags still beat the config file
    seq2 = tmp_path / "seq2"
    rc = run(
        [
            "--config",
            str(cfg),
            "synth",
            "--out",
            str(seq2),
            "--width",
            "200",
            "--patch",
            "10",
            "20",
            "30",
            "15",
            "--frames",
            "2",
        ]
    )
    assert rc == 0
    assert imaging.read_sequence(seq2)[0].width == 200
    capsys.readouterr()


@pytest.mark.parametrize(
    "line",
    [
        "stride = 2.5",
        "min-neighbors = true",
        "record-unit = furlongs",
        'record-unit = "furlongs"',
        "capture = 1",
        "velocity = [4]",
        "velocity = 4 0",
        "fps = null",
    ],
)
def test_config_values_get_the_flags_own_checks(workflow, capsys, tmp_path, line):
    cfg = tmp_path / "speedcam.cfg"
    cfg.write_text(f"# detector\n{line}\n")
    argv = ["--config", str(cfg), "speed", "--frames", str(workflow.seq)]
    argv += ["--model", str(workflow.model), "--px-per-m", "100", "--capture"]
    argv += ["--store", str(tmp_path / "store")]
    capsys.readouterr()
    assert run(argv) == 1
    out, err = capsys.readouterr()
    key = line.split(" =")[0]
    assert out == "" and err.startswith(f"error: {cfg}:2: value of {key!r} must be")
    assert "Traceback" not in err


def test_config_file_rejects_malformed_lines(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("width 320\n")
    rc = run(
        ["--config", str(cfg), "synth", "--out", "x", "--patch", "0", "0", "3", "3"]
    )
    assert rc == 1
    assert "key=value" in capsys.readouterr().err


def test_config_integer_past_the_digit_limit_is_kept_as_a_string(capsys, tmp_path):
    # json refuses it with a ValueError, so it reaches the flag as text,
    # which the flag's own type then refuses
    cfg = tmp_path / "long.cfg"
    cfg.write_text("width = " + "1" * 5000 + "\n")
    argv = ["--config", str(cfg), "synth", "--out", str(tmp_path / "x")]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--patch", "0", "0", "3", "3"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, values",
    [
        ("--fps", ["0"]),
        ("--fps", ["nan"]),
        ("--fps", ["1e-320"]),
        ("--velocity", ["nan", "0"]),
        ("--velocity", ["inf", "0"]),
    ],
)
def test_synth_refuses_a_rate_or_velocity_that_is_not_finite(capsys, tmp_path, flag, values):
    argv = ["synth", "--out", str(tmp_path / "seq"), "--patch", "0", "0", "8", "8"]
    capsys.readouterr()
    assert run(argv + [flag, *values]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "seq").exists()


@pytest.mark.parametrize("command", ["detect", "speed"])
@pytest.mark.parametrize("fps", ["nan", "1e-320", "inf", "0"])
def test_a_sequence_without_manifest_refuses_a_rate_that_is_not_finite(
    workflow, capsys, tmp_path, command, fps
):
    seq = tmp_path / "seq"
    seq.mkdir()
    frame = imaging.Frame(8, 8, np.zeros((8, 8), np.uint8))
    for k in range(2):
        (seq / f"frame_{k:05d}.pgm").write_bytes(imaging.save_pgm(frame))
    argv = [command, "--frames", str(seq), "--model", str(workflow.model), "--fps", fps]
    if command == "speed":
        argv += ["--px-per-m", "100"]
    capsys.readouterr()
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: fps {float(fps)}")
    assert "Traceback" not in err


def test_detect_at_a_rate_that_repeats_a_timestamp_is_one_error_line(workflow, capsys, tmp_path):
    seq = tmp_path / "seq"
    seq.mkdir()
    frame = imaging.Frame(8, 8, np.zeros((8, 8), np.uint8))
    for k in range(3):
        (seq / f"f{k}.pgm").write_bytes(imaging.save_pgm(frame))
    capsys.readouterr()
    argv = ["detect", "--frames", str(seq), "--model", str(workflow.model), "--fps", "5000"]
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: fps 5000 gives f0.pgm and f1.pgm the same")
    assert "Traceback" not in err


def test_detect_without_manifest_or_fps_is_a_domain_error(workflow, capsys, tmp_path):
    seq = tmp_path / "seq"
    seq.mkdir()
    frame = imaging.Frame(8, 8, np.zeros((8, 8), np.uint8))
    (seq / "frame_00000.pgm").write_bytes(imaging.save_pgm(frame))
    rc = run(["detect", "--frames", str(seq), "--model", str(workflow.model)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
