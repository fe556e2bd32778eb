"""Does the link Monte Carlo's draw-ahead worker overlap the carry? Threaded
against inline draws, in one process.

    PYTHONPATH=src python3 experiments/link_overlap.py --order 6 --chunks 1,2,16,160 --rounds 5

harness.run_link_montecarlo draws chunk k + 1's bits and noise on a worker
thread while chunk k is carried (numerics.drawn_ahead); here it runs at 6 dB
and a = 0.5. The inline variant patches a plain generator, which draws each
chunk when the loop asks for it, into harness in place of drawn_ahead, so the
same draws run in the same order without a second thread. Each round runs
both variants at every chunk count, threaded first on even rounds and inline
first on odd ones. A run of n chunks carries n full chunks of bits. Each run
reports its wall time, its process CPU time (time.process_time, all threads)
and their ratio: a ratio near 1 means that the worker never ran beside the
main thread. The end gives each variant's
median per chunk count and the threaded/inline wall time ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import statistics
import sys
import time

from semlink import harness
from semlink.numerics import RandomSource

VARIANTS = ("threaded", "inline")
SNR_DB, OFFSET = 6.0, 0.5  # the link point of the benchmark's quoted Mbit/s


@contextlib.contextmanager
def draws(variant: str):
    """harness as it is (threaded) or drawing each chunk inline (inline)."""
    if variant == "threaded":
        yield
        return
    saved = harness.drawn_ahead
    harness.drawn_ahead = lambda draw, jobs: (draw(job) for job in jobs)
    try:
        yield
    finally:
        harness.drawn_ahead = saved


def run(variant: str, order: int, n_chunks: int, seed: int) -> dict:
    """One link Monte Carlo run of n_chunks full chunks: stats, wall and CPU."""
    n_bits = n_chunks * (harness.CHUNK_ENTRIES // order) * order
    with draws(variant):
        wall, cpu = time.perf_counter(), time.process_time()
        stats = harness.run_link_montecarlo(order, SNR_DB, OFFSET, n_bits, RandomSource(seed))
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    return {"stats": stats, "wall_s": wall, "cpu_s": cpu}


def compare(order: int, chunk_counts, rounds: int, seed: int, report=None) -> dict:
    """{(variant, n_chunks): [run, ...]} over alternating rounds; every run of
    a chunk count uses the same seed, so both variants carry the same bits."""
    runs = {(v, n): [] for v in VARIANTS for n in chunk_counts}
    for r in range(rounds):
        order_of_variants = VARIANTS if r % 2 == 0 else VARIANTS[::-1]
        for n in chunk_counts:
            for variant in order_of_variants:
                result = run(variant, order, n, seed + n)
                runs[variant, n].append(result)
                if report:
                    report(f"round {r} chunks {n} {variant}: wall_s {result['wall_s']:.4f} "
                           f"cpu_s {result['cpu_s']:.4f} "
                           f"(cpu/wall {result['cpu_s'] / result['wall_s']:.2f})")
    return runs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--chunks", default="1,2,16,160", help="comma-separated chunk counts")
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    chunk_counts = [int(c) for c in args.chunks.split(",")]
    runs = compare(args.order, chunk_counts, args.rounds, args.seed,
                   report=lambda line: print(line, flush=True))
    for n in chunk_counts:
        medians = {}
        for variant in VARIANTS:
            rs = runs[variant, n]
            wall = statistics.median(r["wall_s"] for r in rs)
            cpu = statistics.median(r["cpu_s"] for r in rs)
            ratio = statistics.median(r["cpu_s"] / r["wall_s"] for r in rs)
            medians[variant] = wall
            print(f"chunks {n} {variant}: median wall_s {wall:.4f} cpu_s {cpu:.4f} "
                  f"cpu/wall {ratio:.2f} ({rs[0]['stats'].n_bits / wall / 1e6:.1f} Mbit/s)")
        print(f"chunks {n}: threaded/inline wall {medians['threaded'] / medians['inline']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
