"""semlink benchmark: one workload per process, one JSON result line at the end.

    python3 benchmarks/run.py --workload train-robust --seed 1 --seconds 15 --trace 0

With --trace 0 the result carries the end-to-end metrics, measured with no
tracing installed. With --trace 1 the workload first runs untraced for half of
--seconds, then repeats the same cycles with spans around semlink's public
calls; the result carries the per-layer metrics and the tracing overhead.
Metric names and units come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("train-robust", "link-mc", "eval-adaptive"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads(np) -> int | None:
    """Thread count of the OpenBLAS that numpy links, if it can be asked."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "git_commit": git_commit(),
        "processes": 1,
    }


def measure(wl, seconds: float, first_cycle: int = 0, cycles: int | None = None):
    """Run whole cycles until `seconds` pass (at least one), or exactly `cycles`."""
    ops = []
    start = time.perf_counter()
    done = 0
    while (done < cycles) if cycles is not None else (
            done == 0 or time.perf_counter() - start < seconds):
        ops += [wl.run(first_cycle + done, i) for i in range(wl.ops_per_cycle)]
        done += 1
    return ops, done


def cycle_seconds(wl, ops) -> float:
    return statistics.median(sum(op.seconds for op in c) for c in wl.cycles(ops))


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.dont_write_bytecode = True  # leave the checkout as it was
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import semlink
    except ImportError as exc:
        print(f"error: cannot import semlink from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    if Path(semlink.__file__).resolve().parent != (SRC / "semlink").resolve():
        print(f"error: semlink was imported from {semlink.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    print("provenance " + json.dumps(provenance(args)))
    wl = workloads.WORKLOADS[args.workload](args.seed)
    errors = []

    setup_tracer = tracing.Tracer()
    setup_times, setup_digests = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        with tracing.installed(setup_tracer) if args.trace else contextlib.nullcontext():
            setup_digests.append(wl.setup())
        setup_times.append(time.perf_counter() - t0)
    if len(set(setup_digests)) != 1:
        errors.append(f"set-up digests differ across repeats: {setup_digests}")
    print(f"setup digest {setup_digests[0]}; import {import_s:.4f} s, "
          f"set-up repeats {', '.join(f'{t:.4f}' for t in setup_times)} s")

    # one untimed cycle first, so that lazy allocation and thread start-up
    # are not charged to the first timed cycle
    warmup, _ = measure(wl, 0.0, cycles=1)
    if args.trace:
        plain, n_cycles = measure(wl, args.seconds / 2, first_cycle=1)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced, _ = measure(wl, 0.0, first_cycle=1 + n_cycles, cycles=n_cycles)
        timed = plain + traced
        metrics = tracing.layer_metrics(tracer, n_cycles)
        metrics["datasets.synth_s"] = setup_tracer.totals()[0]["datasets.synth"] / SETUP_REPS
        untraced_s = cycle_seconds(wl, plain)
        metrics["trace.overhead_s"] = cycle_seconds(wl, traced) - untraced_s
        print(f"traced {n_cycles} cycle(s) after {n_cycles} untraced; per-layer figures "
              f"are per cycle; {len(tracer.spans)} spans; tracing overhead "
              f"{metrics['trace.overhead_s']:.4f} s per cycle of {untraced_s:.4f} s")
        wanted = spec["per_layer"]
    else:
        timed, n_cycles = measure(wl, args.seconds, first_cycle=1)
        wanted = spec["end_to_end"]
    ops = warmup + timed
    quality, lines = wl.summarize(ops)
    failed = sum(1 for op in ops if op.errors)
    if not args.trace:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "items_per_s": wl.throughput(timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - failed / len(ops),
            "accuracy": quality["accuracy"],
        }
        name, unit, scale = wl.rate
        calibration = statistics.median(op.calibration for op in timed)
        lines.append(f"{name} = {metrics['items_per_s'] * scale:.6g} {unit} at nominal "
                     f"machine speed; {wl.throughput(timed, normalized=False) * scale:.6g} "
                     f"{unit} as timed, with the calibration loop at {calibration:.6g}/s "
                     f"(nominal {wl.nominal_calibration:.6g}/s)")
        lines.append(f"fail_ratio = {failed / len(ops):.6g} ({failed} of {len(ops)})")
        if "spectral_efficiency" in quality:
            lines.append(f"spectral_efficiency = {quality['spectral_efficiency']:.6g} bits/symbol")

    times = sorted(op.seconds for op in timed)
    lines.append(f"{len(ops)} operations in {len(wl.cycles(ops))} cycles, one of them "
                 f"warm-up; timed op seconds min "
                 f"{times[0]:.4f} median {statistics.median(times):.4f} max {times[-1]:.4f}")
    lines.append("cycle digest " + workloads.digest_of(
        [op.digest for op in ops[: wl.ops_per_cycle]]))
    for op in ops:
        errors += op.errors
    for line in lines:
        print(line)
    for err in dict.fromkeys(errors):
        print("FAIL " + err)

    result = {}
    for m in wanted:
        if m["name"] not in metrics:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 2
        result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": len(ops), "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
