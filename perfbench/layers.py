"""Per-layer timing for the traced run, from outside the program.

Each public function is timed by replacing the attribute its caller looks
up (``detector.integral`` rather than ``imaging.integral``, because
``detector.scan`` calls it by that name). A function that no longer exists
is recorded as absent, and every metric built on it is left out.
"""

from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    """Summed milliseconds, call counts and work counts per wrapped function."""

    def __init__(self):
        self.ms = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.absent = set()

    def take(self) -> dict:
        """The totals so far, cleared for the next phase."""
        snap = {"ms": dict(self.ms), "calls": dict(self.calls), "counts": dict(self.counts)}
        self.ms.clear()
        self.calls.clear()
        self.counts.clear()
        return snap

    def _timed(self, key, fn, count=None):
        def timed(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            self.ms[key] += (perf_counter() - start) * 1000.0
            self.calls[key] += 1
            if count is not None:
                count(self.counts, args, result)
            return result

        return timed

    def wrap(self, owner, attr, key, count=None) -> None:
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.absent.add(key)
            return
        setattr(owner, attr, self._timed(key, fn, count))

    def wrap_scan_impl(self, kernels) -> None:
        """Time the scan callable that ``kernels.scan_impl`` hands out."""
        fn = getattr(kernels, "scan_impl", None)
        if not callable(fn):
            self.absent.add("kernels.scan")
            return

        def count(counts, args, mask):
            counts["kernels.windows"] += int(np.size(mask))
            counts["kernels.survivors"] += int(np.count_nonzero(mask))

        def scan_impl(*args, **kwargs):
            return self._timed("kernels.scan", fn(*args, **kwargs), count)

        kernels.scan_impl = scan_impl


def _len_result(key):
    def count(counts, args, result):
        counts[key] += len(result)

    return count


def _codes_count(counts, args, result):
    counts["kernels.codes"] += int(np.size(result))


def _payload_bytes(counts, args, result):
    counts["uplink.payload_bytes"] += len(result.encode("utf-8"))


def install(tracer: Tracer) -> None:
    """Wrap every public function the workloads reach. Call before set-up."""
    from speedcam import detector, imaging, kernels, mblbp, speedpipe, trainer, uplink

    tracer.wrap(imaging, "read_sequence", "imaging.read_sequence")
    tracer.wrap(imaging, "load_pgm", "imaging.load_pgm")
    tracer.wrap(detector, "integral", "imaging.integral")
    tracer.wrap(mblbp, "load_model", "mblbp.load_model")
    tracer.wrap_scan_impl(kernels)
    tracer.wrap(kernels, "codes_at", "kernels.codes_at", _codes_count)
    tracer.wrap(kernels, "codes_stack", "kernels.codes_stack")
    tracer.wrap(detector, "detect", "detector.detect", _len_result("detector.detections"))
    tracer.wrap(detector, "scan", "detector.scan", _len_result("detector.candidates"))
    tracer.wrap(detector, "group_rects", "detector.group_rects")
    tracer.wrap(speedpipe, "feed", "speedpipe.feed")
    tracer.wrap(speedpipe, "finalize", "speedpipe.finalize")
    tracer.wrap(trainer, "build_cache", "trainer.build_cache")
    tracer.wrap(trainer, "best_weak", "trainer.best_weak")
    tracer.wrap(trainer, "boost_round", "trainer.boost_round")
    # serve_ingest opens its store as uplink.RecordStore
    tracer.wrap(uplink, "RecordStore", "capture.open")
    tracer.wrap(uplink, "build_payload", "uplink.build_payload")
    tracer.wrap(uplink, "post_upload", "uplink.post_upload")
    tracer.wrap(uplink, "decode_image", "uplink.decode_image")
    tracer.wrap(getattr(uplink, "UploadPayload", None), "to_json", "uplink.to_json", _payload_bytes)


def _per(total, n):
    return total / n if n else 0.0


def per_layer(tracer: Tracer, setup: dict, loop: dict, units: dict) -> dict:
    """Every per-layer metric value, from the set-up and timed-loop totals.

    ``units`` counts what the timed loop did: passes, frames (given to
    detect), fed (distinct frames used, for the decode ratio), cascades,
    stages, weaks, requests and store_records. A metric is left out when a
    function it is built on was absent.
    """
    ms, calls, counts = loop["ms"], loop["calls"], loop["counts"]
    sms = setup["ms"]
    # sequences are read at set-up (crowd) or in the loop (track)
    both = {k: setup["calls"].get(k, 0) + calls.get(k, 0)
            for k in set(setup["calls"]) | set(calls)}
    both_ms = {k: sms.get(k, 0.0) + ms.get(k, 0.0) for k in set(sms) | set(ms)}
    frames = units.get("frames", 0)
    passes = units.get("passes", 0)
    cascades = units.get("cascades", 0)
    requests = units.get("requests", 0)
    windows = counts.get("kernels.windows", 0)
    reads = both.get("imaging.read_sequence", 0)
    decoded = both.get("imaging.load_pgm", 0) if reads else 0

    def m(d, k):
        return d.get(k, 0)

    table = [
        ("imaging.read_sequence_ms", ("imaging.read_sequence",),
         lambda: _per(m(both_ms, "imaging.read_sequence"), reads)),
        ("imaging.frames_decoded", ("imaging.read_sequence", "imaging.load_pgm"),
         lambda: _per(decoded, reads)),
        ("imaging.decode_use_ratio", ("imaging.read_sequence", "imaging.load_pgm"),
         lambda: _per(units.get("fed", 0), decoded)),
        ("imaging.integral_ms", ("imaging.integral",),
         lambda: _per(m(ms, "imaging.integral"), frames)),
        ("imaging.load_pgm_ms", ("imaging.load_pgm",),
         lambda: _per(m(both_ms, "imaging.load_pgm"), m(both, "imaging.load_pgm"))),
        ("mblbp.load_model_ms", ("mblbp.load_model",), lambda: m(sms, "mblbp.load_model")),
        ("kernels.scan_ms", ("kernels.scan",), lambda: _per(m(ms, "kernels.scan"), frames)),
        ("kernels.windows", ("kernels.scan",), lambda: _per(windows, frames)),
        ("kernels.survivors", ("kernels.scan",),
         lambda: _per(m(counts, "kernels.survivors"), frames)),
        ("kernels.accept_ratio", ("kernels.scan",),
         lambda: _per(m(counts, "kernels.survivors"), windows)),
        ("kernels.codes_at_ms", ("kernels.codes_at",),
         lambda: _per(m(ms, "kernels.codes_at"), frames)),
        ("kernels.codes", ("kernels.codes_at", "kernels.scan"),
         lambda: _per(m(counts, "kernels.codes"), windows)),
        ("kernels.codes_stack_ms", ("kernels.codes_stack",),
         lambda: _per(m(ms, "kernels.codes_stack"), cascades)),
        ("detector.detect_ms", ("detector.detect",),
         lambda: _per(m(ms, "detector.detect"), frames)),
        ("detector.scan_self_ms", ("detector.scan", "imaging.integral", "kernels.scan"),
         lambda: _per(m(ms, "detector.scan") - m(ms, "imaging.integral")
                      - m(ms, "kernels.scan"), frames)),
        ("detector.candidates", ("detector.scan",),
         lambda: _per(m(counts, "detector.candidates"), frames)),
        ("detector.detections", ("detector.detect",),
         lambda: _per(m(counts, "detector.detections"), frames)),
        ("detector.group_rects_ms", ("detector.group_rects",),
         lambda: _per(m(ms, "detector.group_rects"), frames)),
        ("speedpipe.frames_fed", ("speedpipe.feed",),
         lambda: _per(m(calls, "speedpipe.feed"), passes)),
        ("speedpipe.feed_ms", ("speedpipe.feed",),
         lambda: _per(m(ms, "speedpipe.feed"), m(calls, "speedpipe.feed"))),
        ("speedpipe.finalize_ms", ("speedpipe.finalize",),
         lambda: _per(m(ms, "speedpipe.finalize"), m(calls, "speedpipe.finalize"))),
        ("trainer.build_cache_calls", ("trainer.build_cache",),
         lambda: _per(m(calls, "trainer.build_cache"), cascades)),
        ("trainer.build_cache_ms", ("trainer.build_cache",),
         lambda: _per(m(ms, "trainer.build_cache"), cascades)),
        ("trainer.best_weak_ms", ("trainer.best_weak",),
         lambda: _per(m(ms, "trainer.best_weak"), m(calls, "trainer.best_weak"))),
        ("trainer.boost_round_ms", ("trainer.boost_round",),
         lambda: _per(m(ms, "trainer.boost_round"), m(calls, "trainer.boost_round"))),
        ("trainer.stages", (), lambda: _per(units.get("stages", 0), cascades)),
        ("trainer.weaks", (), lambda: _per(units.get("weaks", 0), cascades)),
        ("capture.open_ms", ("capture.open",), lambda: m(sms, "capture.open")),
        ("capture.append_batch_ms", ("capture.append_batch",),
         lambda: _per(m(ms, "capture.append_batch"), requests)),
        ("capture.store_records", (), lambda: units.get("store_records", 0)),
        ("uplink.build_payload_ms", ("uplink.build_payload",),
         lambda: _per(m(ms, "uplink.build_payload"), requests)),
        ("uplink.payload_bytes", ("uplink.to_json",),
         lambda: _per(m(counts, "uplink.payload_bytes"), requests)),
        ("uplink.post_upload_ms", ("uplink.post_upload",),
         lambda: _per(m(ms, "uplink.post_upload"), requests)),
        ("uplink.decode_image_ms", ("uplink.decode_image",),
         lambda: _per(m(ms, "uplink.decode_image"), requests)),
        ("uplink.transport_ms", ("uplink.post_upload", "capture.append_batch", "uplink.decode_image"),
         lambda: _per(m(ms, "uplink.post_upload") - m(ms, "capture.append_batch")
                      - m(ms, "uplink.decode_image"), requests)),
    ]
    return {name: value() for name, deps, value in table if not tracer.absent.intersection(deps)}
