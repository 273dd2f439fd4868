#!/usr/bin/env python3
"""speedcam benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload track --seed 1 --seconds 20 --trace 0

Makes the workload's inputs from the seed, then runs the workload in fresh
processes of the program built from this checkout's ``src``. With
``--trace 0`` it prints the end-to-end metrics; ``setup_s`` is the median
over several fresh processes. With ``--trace 1`` it prints the per-layer
metrics of one traced process. The last line of stdout is the JSON result;
a run record (environment and result) goes to ``.perfbench/runs/``. See
README.md in this directory for the workloads and the metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("track", "crowd", "train", "ingest")
SETUP_SAMPLES = 5  # fresh processes whose set-up time is taken; the last one runs
CHILD_TIMEOUT_S = 150


def metric_table(key: str) -> list:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[key]


def environment(seed: int) -> dict:
    from speedcam import kernels

    import numpy

    try:
        import numba  # noqa: F401

        numba_ok = True
    except ImportError:
        numba_ok = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "backend": kernels.selected_backend(),
        "numba_importable": numba_ok,
        "seed": seed,
    }


def run_child(workload, work: Path, index: int, args, mode: str, trace: int) -> dict:
    scratch = work / f"child{index}"
    scratch.mkdir()
    # The measured process gets its own copy of the pre-filled server store,
    # so its checks see exactly what it sent; set-up probes share one copy,
    # each adding only its warm-up batch.
    store = work / ("store-probe" if mode == "probe" else f"store-{index}")
    if workload == "ingest" and not store.exists():
        shutil.copytree(work / "in" / "server", store)
    out = scratch / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", workload, "--inputs", str(work / "in"), "--scratch", str(scratch),
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
        "--mode", mode, "--out", str(out), "--store", str(store),
        "--index", str(index),
    ]
    os.sync()  # inputs and copies reach the disk before the process starts
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, stdout=sys.stderr,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} process exited with {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def measure(args, work: Path) -> tuple:
    """(result of the measured process, metrics dict) for this run."""
    if args.trace:
        res = run_child(args.workload, work, 0, args, "run", 1)
        values = res["per_layer"]
        table = metric_table("per_layer")
    else:
        setups = [run_child(args.workload, work, i, args, "probe", 0)["setup_s"]
                  for i in range(SETUP_SAMPLES - 1)]
        res = run_child(args.workload, work, SETUP_SAMPLES - 1, args, "run", 0)
        setups.append(res["setup_s"])
        values = {
            "op_ms_p50": res["op_ms_p50"],
            "op_ms_p90": res["op_ms_p90"],
            "items_per_s": res["items_per_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        res["setup_samples_s"] = setups
        table = metric_table("end_to_end")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in table if m["name"] in values}
    return res, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "speedcam" / "__init__.py").is_file():
        print(f"error: no speedcam package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        start = time.perf_counter()
        inputs.make(args.workload, args.seed, work / "in")
        input_s = time.perf_counter() - start
        env = environment(args.seed)
        res, metrics = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        # Flush now what the run wrote and freed (the ingest stores hold
        # thousands of files), so that the write-back and the discards do
        # not land in the timed loop of the next run.
        os.sync()
    errors = res.pop("errors")
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    result = {"correct": not errors, "attempted": res["ops"], "failed": 0, "metrics": metrics}
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": env, "input_s": input_s, "process": res, "result": result}
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (runs / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
