"""One workload in a fresh process: set-up, warm-up, timed loop, checks.

Started by run.py, never by hand. ``--t0`` is the parent's monotonic clock
just before it started this process, so ``setup_s`` runs from process start
(imports included) to the start of the first timed operation. In ``probe``
mode the process stops there. The result goes to ``--out`` as JSON.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import checks
import inputs
import layers

from speedcam import capture, detector, imaging, mblbp, speedpipe, trainer, uplink

perf = time.perf_counter
RSS_OPS = 100  # every workload does at least this many operations in a run


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Track:
    """One op: next frame of a pass, detect, select_vehicle, feed (as ``speed``)."""

    def __init__(self, d: Path, seed: int):
        self.doc = json.loads((d / "track.json").read_text(encoding="utf-8"))
        self.model = mblbp.load_model((d / "track_model.json").read_text(encoding="utf-8"))
        self.params = detector.DetectorParams(**self.doc["params"])
        self.cal = speedpipe.calibrate(100.0, 1.0, 1.0, (inputs.W, inputs.H))
        self.dirs = [d / s["name"] for s in self.doc["sequences"]]
        self.next_seq = seed % len(self.dirs)
        self.passes = []
        self.units = {"passes": 0, "frames": 0, "fed": 0}

    def warmup(self):
        frame = imaging.load_pgm((self.dirs[0] / "frame_00000.pgm").read_bytes())
        detector.select_vehicle(detector.detect(frame, self.model, self.params))

    def round(self, op_ms):
        """One pass: a sequence from its first frame until the session completes."""
        seq = self.dirs[self.next_seq]
        self.next_seq = (self.next_seq + 1) % len(self.dirs)
        start = perf()
        session = speedpipe.SpeedSession()
        frames = None
        samples = []
        index = 0
        while True:
            t = perf()
            if frames is None:
                frames = iter(imaging.read_sequence(seq))
            frame = next(frames, None)
            if frame is None:
                break
            vehicle = detector.select_vehicle(detector.detect(frame, self.model, self.params))
            status = None
            if vehicle is not None:
                r = vehicle.rect
                status = speedpipe.feed(
                    session, speedpipe.TrackSample((float(r.x), float(r.y)), frame.timestamp_ms)
                ).status
            op_ms.append((perf() - t) * 1000.0)
            if vehicle is not None:
                samples.append((index, (r.x, r.y, r.w, r.h)))
            index += 1
            if status == speedpipe.COMPLETE:
                break
        estimate = speedpipe.finalize(session, self.cal)
        elapsed = perf() - start
        self.passes.append((seq.name, estimate.median_px_s, samples))
        self.units["passes"] += 1
        self.units["frames"] += index
        self.units["fed"] += index
        return index, elapsed

    def check(self, rng):
        return checks.check_track(self.passes, self.doc)


class Crowd:
    """One op: ``detect`` on one frame; a round is every frame of the sequence."""

    def __init__(self, d: Path, seed: int):
        self.model_text = (d / "stress_model.json").read_text(encoding="utf-8")
        self.model = mblbp.load_model(self.model_text)
        self.param_doc = json.loads((d / "crowd.json").read_text(encoding="utf-8"))["params"]
        self.params = detector.DetectorParams(**self.param_doc)
        self.frames = imaging.read_sequence(d / "frames")
        self.d = d
        self.seed = seed
        self.units = {"frames": 0, "fed": len(self.frames)}

    def warmup(self):
        detector.detect(self.frames[0], self.model, self.params)

    def round(self, op_ms):
        start = perf()
        for frame in self.frames:
            t = perf()
            detector.detect(frame, self.model, self.params)
            op_ms.append((perf() - t) * 1000.0)
        self.units["frames"] += len(self.frames)
        return len(self.frames), perf() - start

    def check(self, rng):
        k = self.seed % len(self.frames)
        frame = self.frames[k]
        pixels = checks.read_pgm((self.d / "frames" / f"frame_{k:05d}.pgm").read_bytes())
        cands = detector.scan(frame, self.model, self.params)
        dets = detector.detect(frame, self.model, self.params)
        doc = json.loads(self.model_text)
        return checks.check_windows(pixels, doc, self.param_doc, cands, rng) + checks.check_grouping(
            dets, cands, self.param_doc, frame.width, frame.height
        )


class Train:
    """One op: ``train_cascade`` over the samples loaded at set-up (as ``train``)."""

    def __init__(self, d: Path, seed: int):
        self.d = d
        self.config_doc = json.loads((d / "train.json").read_text(encoding="utf-8"))["config"]
        self.config = trainer.TrainConfig(**self.config_doc)
        self.pos = self._load(d / "pos", trainer.POSITIVE)
        self.neg = self._load(d / "neg", trainer.NEGATIVE)
        self.models = []
        self.units = {"cascades": 0, "stages": 0, "weaks": 0}

    @staticmethod
    def _load(directory, label):
        return [
            trainer.TrainSample(imaging.load_pgm(p.read_bytes()), label)
            for p in sorted(directory.glob("*.pgm"))
        ]

    def warmup(self):
        trainer.train_cascade(self.pos, self.neg, self.config)

    def round(self, op_ms):
        t = perf()
        model = trainer.train_cascade(self.pos, self.neg, self.config)
        elapsed = perf() - t
        op_ms.append(elapsed * 1000.0)
        self.models.append(model)
        self.units["cascades"] += 1
        self.units["stages"] += len(model.stages)
        self.units["weaks"] += sum(len(s.weaks) for s in model.stages)
        return 1, elapsed

    def check(self, rng):
        text = mblbp.save_model(self.models[0])
        return checks.check_train(
            self.models, (text, mblbp.load_model(text)), self.d, self.config_doc
        )


class Ingest:
    """One op: ``build_payload`` over a small local store, then ``post_upload``.

    The server is ``serve_ingest`` on loopback over a copy of the pre-filled
    store. Between ops, outside the timing, the local store is cleared and
    the next batch of captures is appended to it. Capture k (counted from
    ``first``, so that processes sharing a store never collide) takes pool
    item k mod the pool size, so what was sent is known from the count alone.
    """

    def __init__(self, d: Path, seed: int, scratch: Path, store: Path, first: int, tracer):
        doc = json.loads((d / "ingest.json").read_text(encoding="utf-8"))
        self.pool = [(item, (d / "pool" / item["file"]).read_bytes()) for item in doc["pool"]]
        self.batch = doc["batch"]
        self.prefill = doc["prefill"]
        self.store = store
        self.client = capture.RecordStore(scratch / "client")
        self.server = uplink.serve_ingest("127.0.0.1:0", store)
        if tracer is not None:
            # the handler calls self.server.store.append_batch
            tracer.wrap(self.server.store, "append_batch", "capture.append_batch")
        self.first = self.next = first
        self.errors = []
        self.units = {"requests": 0}
        self._restock()

    def _capture(self, k):
        item, data = self.pool[k % len(self.pool)]
        return capture.make_record(item["speed"], item["location"], inputs.upload_time(k)), data

    def _restock(self):
        self.client.append_batch([self._capture(k) for k in range(self.next, self.next + self.batch)])
        self.next += self.batch

    def _upload(self):
        payload, warnings = uplink.build_payload(self.client)
        reply = uplink.post_upload(self.server.endpoint, payload)
        if warnings or reply.received != self.batch:
            self.errors.append(f"upload {self.units['requests']}: received {reply.received} "
                               f"of {self.batch}, warnings {warnings}")
        return reply.received

    def _settle(self):
        self.client.delete_all(confirm=True)
        self._restock()

    def warmup(self):
        self._upload()
        self._settle()

    def round(self, op_ms):
        t = perf()
        received = self._upload()
        elapsed = perf() - t
        op_ms.append(elapsed * 1000.0)
        self.units["requests"] += 1
        self._settle()
        return received, elapsed

    def finish(self):
        self.units["store_records"] = len(self.server.store.list_all())
        self.server.shutdown()

    def check(self, rng):
        expected = [(name, digest, None) for name, digest in self.prefill]
        # the last batch was stocked but never sent
        for k in range(self.first, self.next - self.batch):
            rec, data = self._capture(k)
            expected.append((rec.picture_filename, hashlib.sha256(data).hexdigest(),
                             (rec.vehicle_speed, rec.location, rec.capture_time)))
        return self.errors + checks.check_store(self.store, expected)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--store", help="ingest: the server store directory")
    ap.add_argument("--index", type=int, default=0, help="which process of the run this is")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--mode", choices=("probe", "run"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    d = Path(args.inputs)
    scratch = Path(args.scratch)

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer)
    if args.workload == "ingest":
        wl = Ingest(d, args.seed, scratch, Path(args.store), 100000 * args.index, tracer)
    else:
        wl = {"track": Track, "crowd": Crowd, "train": Train}[args.workload](d, args.seed)
    setup_stats = tracer.take() if tracer else None
    wl.warmup()
    if tracer:
        tracer.take()
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.mode == "probe":
        if hasattr(wl, "finish"):
            wl.finish()
    else:
        op_ms = []
        items = 0
        timed = 0.0
        start = perf()
        while perf() - start < args.seconds:
            n, elapsed = wl.round(op_ms)
            items += n
            timed += elapsed
            # Memory is read after a fixed amount of work: the ingest server
            # store keeps every record in memory, so a later reading would
            # grow with the speed of the machine and of the program.
            if "peak_rss_mb" not in result and len(op_ms) >= RSS_OPS:
                result["peak_rss_mb"] = peak_rss_mb()
        result.setdefault("peak_rss_mb", peak_rss_mb())
        loop_stats = tracer.take() if tracer else None
        if hasattr(wl, "finish"):
            wl.finish()
        p50, p90 = np.percentile(op_ms, [50, 90])
        result.update(
            ops=len(op_ms),
            items=items,
            items_per_s=items / timed,
            op_ms_p50=float(p50),
            op_ms_p90=float(p90),
            errors=wl.check(np.random.default_rng(args.seed)),
        )
        if tracer:
            result["per_layer"] = layers.per_layer(tracer, setup_stats, loop_stats, wl.units)
            result["absent"] = sorted(tracer.absent)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
