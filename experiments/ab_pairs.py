"""Alternating pairs of benchmark runs from two checkouts of the repository.

    python3 experiments/ab_pairs.py PARENT CHANGE --workload train-robust --seeds 401-410

Each pair runs `benchmarks/run.py --trace 0` once from each checkout, with the
pair's seed, one process at a time. The parent goes first on even pairs and
the change first on odd ones, so a drift in the host's speed falls on both
sides alike. Each run prints its items_per_s, setup_s and peak_rss_mb, its
wall time, and the CPU time of its process (a getrusage(RUSAGE_CHILDREN)
delta; CPU over wall above 1 means that more than one core worked). The end
gives each side's median and quartiles of items_per_s and of setup_s, and the
change's win count on items_per_s. The quartiles are those of
statistics.quantiles(n=4), as in benchmarks/record.py. setup_s includes the
import of the package, so its spread shows how far import time alone moves it.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

METRICS = ("items_per_s", "setup_s", "peak_rss_mb")


def parse_seeds(spec: str) -> list[int]:
    """FIRST-LAST (inclusive) or a comma-separated list."""
    if "-" in spec:
        first, last = (int(s) for s in spec.split("-"))
        return list(range(first, last + 1))
    return [int(s) for s in spec.split(",")]


def spread(values: list[float]) -> dict:
    """Median and quartiles of at least two figures."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(parent: list[float], change: list[float]) -> dict:
    """Medians, quartiles and wins of paired higher-is-better figures.

    A pair is won when the change's figure is above the parent's. The gap
    clears the parent's spread when the change's median exceeds the parent's
    by more than the parent's quartile distance.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equally long lists of at least 2 figures")
    sides = {"parent": spread(parent), "change": spread(change)}
    gap = sides["change"]["median"] - sides["parent"]["median"]
    return {
        **sides,
        "wins": sum(c > p for p, c in zip(parent, change)),
        "pairs": len(parent),
        "ratio": sides["change"]["median"] / sides["parent"]["median"],
        "clears_spread": gap > sides["parent"]["q3"] - sides["parent"]["q1"],
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its end-to-end metrics, wall time and CPU time."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout} seed {seed} failed its checks:\n{out.stdout}")
    run = {name: result["metrics"][name]["value"] for name in METRICS}
    run["wall_s"] = wall
    run["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="FIRST-LAST or a comma-separated list")
    p.add_argument("--seconds", type=float, default=20.0)
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    figures = {"parent": [], "change": []}
    setups = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: run_once(getattr(args, side), args.workload, seed, args.seconds)
                for side in order}
        for side in order:
            r = runs[side]
            figures[side].append(r["items_per_s"])
            setups[side].append(r["setup_s"])
            print(f"seed {seed} {side}: items_per_s {r['items_per_s']:.6g} setup_s "
                  f"{r['setup_s']:.4f} peak_rss_mb {r['peak_rss_mb']:.2f} wall_s "
                  f"{r['wall_s']:.2f} cpu_s {r['cpu_s']:.2f} "
                  f"(cpu/wall {r['cpu_s'] / r['wall_s']:.2f})", flush=True)
        print(f"seed {seed} ratio change/parent "
              f"{runs['change']['items_per_s'] / runs['parent']['items_per_s']:.3f}", flush=True)
    s = summarize(figures["parent"], figures["change"])
    for side in ("parent", "change"):
        print(f"{side}: median {s[side]['median']:.6g} quartiles {s[side]['q1']:.6g} "
              f"{s[side]['q3']:.6g}")
    for side in ("parent", "change"):
        setup = spread(setups[side])
        print(f"{side}: setup_s median {setup['median']:.4f} quartiles {setup['q1']:.4f} "
              f"{setup['q3']:.4f}")
    print(f"change won {s['wins']} of {s['pairs']} pairs; median ratio {s['ratio']:.3f}; "
          f"the gap {'clears' if s['clears_spread'] else 'does not clear'} the parent's "
          f"quartile distance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
