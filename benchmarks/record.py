"""Run every workload on several seeds and write the medians and quartiles.

    python3 benchmarks/record.py --seeds 101-110 --out benchmarks/baseline.json

Runs are made one at a time, each in its own process, with the run length from
BENCHMARK.json. The spread of a metric is the distance between its first and
third quartile (statistics.quantiles, n=4) as a share of its median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, help="FIRST-LAST, inclusive")
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"run_seconds": spec["run_seconds"], "seeds": [first, last], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in range(first, last + 1):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(out.stdout, file=sys.stderr)
                return 1
            machine = json.loads(lines[0].split(" ", 1)[1])
            for key in ("workload", "seed", "seconds", "trace"):
                machine.pop(key)
            report.setdefault("provenance", machine)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v[-1]:.6g}" for k, v in values.items()), flush=True)
        report["workloads"][workload] = {k: summarize(v) for k, v in values.items()}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
