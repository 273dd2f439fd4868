"""Command-line entry point tying the toolkit into one workflow.

Subcommands: synth, train, detect, speed, calibrate, records
(list/search/delete), upload, serve, import-cascade. Estimates and other
machine-readable results go to stdout; progress and warnings to stderr.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

import argparse
import itertools
import json
import math
import sys
import threading
from datetime import datetime
from pathlib import Path

from speedcam import capture, detector, imaging, mblbp, speedpipe, trainer, uplink
from speedcam.errors import (
    ConfigError,
    FormatError,
    SpeedcamError,
    StorageError,
    json_value,
    parse_json,
    read_file,
    write_file,
)

TIME_FORMAT = "%Y-%m-%d_%H_%M_%S"

_RECORD_UNITS = ("app-reading", "px-s", "m-s", "km-h", "mi-h")


def _log(message: str):
    print(message, file=sys.stderr)


def _load_model(path) -> mblbp.CascadeModel:
    return mblbp.load_model(read_file(path, FormatError, "model"))


def _detector_params(args) -> detector.DetectorParams:
    return detector.DetectorParams(
        min_size_fraction=args.min_size_fraction,
        scale_factor=args.scale_factor,
        stride_base=args.stride,
        min_neighbors=args.min_neighbors,
        group_eps=args.group_eps,
    )


def _add_detector_args(sp):
    g = sp.add_argument_group("detector")
    defaults = detector.DetectorParams
    g.add_argument(
        "--min-size-fraction",
        type=float,
        default=defaults.min_size_fraction,
        help="smallest window height as a fraction of frame height (default %(default)s)",
    )
    g.add_argument(
        "--scale-factor",
        type=float,
        default=defaults.scale_factor,
        help="ratio between consecutive scan scales (default %(default)s)",
    )
    g.add_argument(
        "--stride",
        type=int,
        default=defaults.stride_base,
        help="slide step floor in pixels; actual step is max(stride, round(scale)) "
        "(default %(default)s)",
    )
    g.add_argument(
        "--min-neighbors",
        type=int,
        default=defaults.min_neighbors,
        help="grouped-detection support threshold (default %(default)s)",
    )
    g.add_argument(
        "--group-eps",
        type=float,
        default=defaults.group_eps,
        help="edge tolerance for rectangle grouping (default %(default)s)",
    )


def _add_frames_args(sp):
    sp.add_argument("--frames", required=True, help="frame sequence directory")
    sp.add_argument(
        "--fps",
        type=float,
        default=None,
        help="frame rate when the sequence has no manifest.tsv",
    )


def cmd_synth(args, clock):
    cfg = imaging.SynthConfig(
        frame_w=args.width,
        frame_h=args.height,
        patch=imaging.Rect(*args.patch),
        velocity=tuple(args.velocity),
        n_frames=args.frames,
        frame_interval_ms=1000.0 / imaging.finite_positive("--fps", args.fps),
        texture_seed=args.seed,
        background=args.background,
    )
    frames = imaging.synth_sequence(cfg)
    imaging.write_sequence(args.out, frames)
    _log(
        f"wrote {len(frames)} frames to {args.out} "
        f"(ground truth {cfg.ground_truth_px_s():.2f} px/s)"
    )
    return 0


def _load_train_dir(path, label) -> list:
    directory = Path(path)
    windows = sorted(directory.glob("*.pgm"))
    if not windows:
        raise ConfigError(f"no .pgm samples in {directory}")
    return [
        trainer.TrainSample(
            imaging.load_pgm(read_file(p, FormatError, "sample", binary=True)), label
        )
        for p in windows
    ]


def cmd_train(args, clock):
    pos = _load_train_dir(args.pos, trainer.POSITIVE)
    neg = _load_train_dir(args.neg, trainer.NEGATIVE)
    config = trainer.TrainConfig(
        max_weaks_per_stage=args.max_weaks,
        n_stages=args.stages,
        stage_tpr_target=args.tpr,
        feature_stride=args.feature_stride,
    )
    model = trainer.train_cascade(pos, neg, config)
    write_file(args.out, mblbp.save_model(model), StorageError, "model")
    _log(
        f"trained {len(model.stages)} stage(s), "
        f"{sum(len(s.weaks) for s in model.stages)} weak(s) over "
        f"{len(pos)} positive / {len(neg)} negative samples -> {args.out}"
    )
    return 0


def cmd_detect(args, clock):
    frames = imaging.read_sequence(args.frames, fps=args.fps)
    model = _load_model(args.model)
    params = _detector_params(args)
    for index, frame in enumerate(frames):
        for det in detector.detect(frame, model, params):
            r = det.rect
            print(f"{index}\t{r.x}\t{r.y}\t{r.w}\t{r.h}\t{det.neighbors}")
    return 0


def _calibration_from_args(args, frame_dims) -> speedpipe.CalibrationProfile:
    if (args.px_per_m is None) == (args.calibration is None):
        raise ConfigError("provide exactly one of --px-per-m or --calibration")
    if args.calibration is not None:
        text = read_file(args.calibration, ConfigError, "calibration")
        where = f"calibration {args.calibration}"
        doc = parse_json(text, ConfigError, where)
        try:
            return speedpipe.calibration_from_doc(doc)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if not (math.isfinite(args.px_per_m) and args.px_per_m > 0):
        raise ConfigError(f"--px-per-m must be finite and positive, got {args.px_per_m}")
    # direct coefficient: record it as a 1-metre reference object
    return speedpipe.calibrate(args.px_per_m, 1.0, 1.0, frame_dims)


def cmd_speed(args, clock):
    frames = iter(imaging.read_sequence(args.frames, fps=args.fps))
    model = _load_model(args.model)
    params = _detector_params(args)
    first = next(frames)  # read_sequence refuses a sequence of no frames
    cal = _calibration_from_args(args, (first.width, first.height))
    axis = args.axis.replace("-", "_")
    session = speedpipe.SpeedSession(
        window_len=args.window_len, windows_needed=args.windows, axis_mode=axis
    )
    last_hit = None
    # each frame is decoded once, and none after the session completes
    for frame in itertools.chain([first], frames):
        vehicle = detector.select_vehicle(detector.detect(frame, model, params))
        if vehicle is None:
            continue
        last_hit = (frame, vehicle)
        sample = speedpipe.TrackSample(
            (float(vehicle.rect.x), float(vehicle.rect.y)), frame.timestamp_ms
        )
        result = speedpipe.feed(session, sample)
        if result.status == speedpipe.COMPLETE:
            break
    estimate = speedpipe.finalize(session, cal, legacy_coefficient=args.legacy_coeff)
    sys.stdout.write(estimate.to_json())
    if args.capture:
        _store_capture(args, clock, estimate, last_hit)
    return 0


def _store_capture(args, clock, estimate, last_hit):
    frame, vehicle = last_hit
    unit = args.record_unit
    value = {
        "app-reading": estimate.app_reading,
        "px-s": estimate.median_px_s,
        "m-s": estimate.m_s,
        "km-h": estimate.km_h,
        "mi-h": estimate.mi_h,
    }[unit]
    record = capture.make_record(
        speed=value,
        location=args.location,
        capture_time=clock().strftime(TIME_FORMAT),
        speed_unit=unit.replace("-", "_"),
    )
    annotated = imaging.draw_rect(frame, vehicle.rect)
    store = capture.RecordStore(args.store)
    assigned = store.append(record, imaging.save_pgm(annotated))
    _log(f"captured record {assigned} ({unit} {value:g}) in {args.store}")


def cmd_calibrate(args, clock):
    try:
        w_text, h_text = args.frame.lower().split("x")
        frame_dims = (int(w_text), int(h_text))
    except ValueError:
        raise ConfigError(f"--frame {args.frame!r} must look like 1920x1080") from None
    cal = speedpipe.calibrate(args.object_px, args.object_m, args.distance_m, frame_dims)
    text = json.dumps(cal.to_doc(), indent=2) + "\n"
    if args.out:
        write_file(args.out, text, StorageError, "calibration")
        _log(f"wrote calibration ({cal.px_per_m:.4f} px/m) to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _print_records(records):
    for r in records:
        print(
            f"{r.id}\t{r.vehicle_speed:g}\t{r.location}\t{r.capture_time}\t"
            f"{r.picture_filename}\t{r.speed_unit}"
        )


def cmd_records(args, clock):
    store = capture.RecordStore(args.store)
    if args.action == "list":
        _print_records(store.list_all())
    elif args.action == "search":
        _print_records(store.search_by_time(args.time))
    else:  # delete
        count = store.delete_all(confirm=args.yes)
        _log(f"deleted {count} record(s)")
    return 0


def cmd_upload(args, clock):
    store = capture.RecordStore(args.store)
    payload, warnings = uplink.build_payload(store)
    for warning in warnings:
        _log(f"warning: {warning}")
    response = uplink.post_upload(args.endpoint, payload, max_bytes=args.max_bytes)
    print(f"{response.received}\t{response.message}")
    return 0


def _wait_forever():
    threading.Event().wait()


def cmd_serve(args, clock):
    server = uplink.serve_ingest(args.bind, args.data, max_bytes=args.max_bytes)
    print(f"listening on {server.endpoint}", flush=True)
    try:
        _wait_forever()
    except KeyboardInterrupt:
        _log("shutting down")
    finally:
        server.shutdown()
    return 0


def cmd_import_cascade(args, clock):
    model = mblbp.import_cascade_xml(
        read_file(args.infile, FormatError, "cascade"), bit_order=args.bit_order
    )
    text = mblbp.save_model(model)
    if args.out:
        write_file(args.out, text, StorageError, "model")
        _log(
            f"imported {len(model.stages)} stage(s), "
            f"{len(model.features)} feature(s) -> {args.out}"
        )
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speedcam",
        description="Vehicle speed measurement from monocular frame sequences.",
    )
    parser.add_argument(
        "--config",
        default=None,
        help="key=value file overriding flag defaults (values parsed as JSON "
        "when possible)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = sub.add_parser("synth", help="generate a synthetic moving-patch sequence")
    sp.add_argument("--out", required=True, help="output sequence directory")
    sp.add_argument("--width", type=int, default=640, help="frame width (default 640)")
    sp.add_argument("--height", type=int, default=360, help="frame height (default 360)")
    sp.add_argument(
        "--patch",
        type=int,
        nargs=4,
        metavar=("X", "Y", "W", "H"),
        required=True,
        help="initial patch rectangle",
    )
    sp.add_argument(
        "--velocity",
        type=float,
        nargs=2,
        metavar=("VX", "VY"),
        default=[4.0, 0.0],
        help="patch velocity in px/frame (default 4 0)",
    )
    sp.add_argument("--frames", type=int, default=30, help="frame count (default 30)")
    sp.add_argument("--fps", type=float, default=30.0, help="frame rate (default 30)")
    sp.add_argument("--seed", type=int, default=0, help="texture seed (default 0)")
    sp.add_argument(
        "--background",
        type=int,
        default=imaging.SynthConfig.background,
        help="background gray level (default %(default)s)",
    )
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("train", help="train a cascade from window-sized PGM samples")
    sp.add_argument("--pos", required=True, help="directory of positive samples")
    sp.add_argument("--neg", required=True, help="directory of negative samples")
    sp.add_argument("--stages", type=int, default=3, help="stage count (default 3)")
    sp.add_argument(
        "--max-weaks", type=int, default=8, help="weak classifiers per stage (default 8)"
    )
    sp.add_argument(
        "--tpr",
        type=float,
        default=trainer.TrainConfig.stage_tpr_target,
        help="per-stage positive pass-rate target (default %(default)s)",
    )
    sp.add_argument(
        "--feature-stride",
        type=int,
        default=trainer.TrainConfig.feature_stride,
        help="feature anchor grid stride (default %(default)s)",
    )
    sp.add_argument("--out", required=True, help="output model JSON path")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("detect", help="dump grouped detections as TSV")
    _add_frames_args(sp)
    sp.add_argument("--model", required=True, help="cascade model JSON")
    _add_detector_args(sp)
    sp.set_defaults(func=cmd_detect)

    sp = sub.add_parser("speed", help="estimate vehicle speed over a sequence")
    _add_frames_args(sp)
    sp.add_argument("--model", required=True, help="cascade model JSON")
    sp.add_argument(
        "--px-per-m", type=float, default=None, help="calibration coefficient, px per metre"
    )
    sp.add_argument(
        "--calibration", default=None, help="calibration JSON file (from 'calibrate')"
    )
    sp.add_argument(
        "--axis",
        choices=("euclidean", "x-only"),
        default="euclidean",
        help="displacement measure (default euclidean)",
    )
    sp.add_argument(
        "--window-len",
        type=int,
        default=speedpipe.SpeedSession.window_len,
        help="detections per window (default %(default)s)",
    )
    sp.add_argument(
        "--windows",
        type=int,
        default=speedpipe.SpeedSession.windows_needed,
        help="windows before complete (default %(default)s)",
    )
    sp.add_argument(
        "--legacy-coeff",
        type=float,
        default=speedpipe.LEGACY_COEFFICIENT,
        help="reporting-only app-reading coefficient (default %(default)s)",
    )
    sp.add_argument(
        "--capture",
        action="store_true",
        help="persist a capture record with the annotated final detection frame",
    )
    sp.add_argument("--store", default="records", help="record store directory")
    sp.add_argument("--location", default="", help="location text for the record")
    sp.add_argument(
        "--record-unit",
        choices=_RECORD_UNITS,
        default="app-reading",
        help="which value the record stores (default app-reading)",
    )
    _add_detector_args(sp)
    sp.set_defaults(func=cmd_speed)

    sp = sub.add_parser("calibrate", help="derive px/m from a known-length object")
    sp.add_argument("--object-px", type=float, required=True, help="object length in pixels")
    sp.add_argument("--object-m", type=float, required=True, help="object length in metres")
    sp.add_argument(
        "--distance-m", type=float, required=True, help="vehicle distance in metres"
    )
    sp.add_argument("--frame", required=True, help="frame size as WxH, e.g. 1920x1080")
    sp.add_argument("--out", default=None, help="write calibration JSON here (default stdout)")
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("records", help="list, search, or delete stored records")
    sp.add_argument("action", choices=("list", "search", "delete"))
    sp.add_argument("--store", default="records", help="record store directory")
    sp.add_argument("--time", default="", help="capture-time substring for search")
    sp.add_argument("--yes", action="store_true", help="confirm deletion")
    sp.set_defaults(func=cmd_records)

    sp = sub.add_parser("upload", help="POST all records to an ingest endpoint")
    sp.add_argument("--store", default="records", help="record store directory")
    sp.add_argument("--endpoint", required=True, help="server base URL")
    sp.add_argument(
        "--max-bytes",
        type=int,
        default=uplink.DEFAULT_MAX_BYTES,
        help="client-side payload ceiling (default 4 MiB)",
    )
    sp.set_defaults(func=cmd_upload)

    sp = sub.add_parser("serve", help="run the local ingest mirror server")
    sp.add_argument("--bind", default="127.0.0.1:8800", help="host:port (default 127.0.0.1:8800)")
    sp.add_argument("--data", required=True, help="server store directory")
    sp.add_argument(
        "--max-bytes",
        type=int,
        default=uplink.DEFAULT_MAX_BYTES,
        help="request size ceiling (default 4 MiB)",
    )
    sp.set_defaults(func=cmd_serve)

    sp = sub.add_parser("import-cascade", help="convert interchange XML to model JSON")
    sp.add_argument("--in", dest="infile", required=True, help="cascade XML path")
    sp.add_argument("--out", default=None, help="output model JSON (default stdout)")
    sp.add_argument(
        "--bit-order",
        choices=("canonical", "reversed"),
        default="canonical",
        help="subset bit order used by the exporting tool (default canonical)",
    )
    sp.set_defaults(func=cmd_import_cascade)

    # subcommands parse into a fresh namespace whose defaults overwrite the
    # parent's, so config-file overrides must reach every parser directly
    parser.config_targets = [parser, *sub.choices.values()]
    return parser


def _config_default(action: argparse.Action, value, where: str):
    """A config value as the default of action, checked as the flag checks its words.

    argparse converts a text default with the flag's type as it parses, but
    checks no other default: so a switch takes true or false, a flag of
    nargs N a list of N values, and any other value must have the JSON type
    of the flag's type and lie among its choices.
    """
    kind = action.type if action.type in (int, float) else str
    if action.nargs == 0:
        return json_value(value, bool, ConfigError, where)
    if isinstance(action.nargs, int):
        return list(json_value(value, kind, ConfigError, where, action.nargs))
    if not isinstance(value, str):
        value = json_value(value, kind, ConfigError, where)
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"{where} must be one of {', '.join(map(repr, action.choices))}")
    return value


def _apply_config_file(parser: argparse.ArgumentParser, argv):
    """Pre-scan for --config and fold its key=value pairs into defaults."""
    path = None
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif arg.startswith("--config="):
            path = arg.split("=", 1)[1]
    if path is None:
        return
    text = read_file(path, ConfigError, "config")
    actions = {}  # dest -> (parser, action) for each parser with that flag
    for target in parser.config_targets:
        for action in target._actions:
            if action.default is not argparse.SUPPRESS:
                actions.setdefault(action.dest, []).append((target, action))
    overrides = {target: {} for target in parser.config_targets}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest not in actions:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        where = f"{path}:{lineno}: value of {key!r}"
        try:
            value = json.loads(value)
        except ValueError:  # not JSON: the value is a string
            pass
        except RecursionError:
            raise ConfigError(f"{where} is nested too deep") from None
        for target, action in actions[dest]:
            if not action.required:  # a required flag's default is never used
                overrides[target][dest] = _config_default(action, value, where)
    for target, defaults in overrides.items():
        target.set_defaults(**defaults)


def run(argv=None, clock=None) -> int:
    """Parse argv and execute; returns the process exit code.

    clock is an injectable zero-argument callable returning a datetime,
    used for capture timestamps.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args, clock or datetime.now)
    except SpeedcamError as exc:
        _log(f"error: {exc}")
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
