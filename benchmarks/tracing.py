"""Spans around semlink's public calls, installed only for a traced run.

Each span records its name, start, end and parent. Spans stay in memory; the
per-layer metrics are derived from them when the run ends. A layer's ``*_s``
metric is the total duration of its spans (children included); a ``*_self_s``
metric subtracts the time covered by the span's direct children.

Functions are patched where they are looked up: ``harness`` and ``jscc``
import most of what they call by name, so those module attributes are
replaced, while ``forward``, ``backward``, ``step``, ``classify`` and the
random-stream draws are class methods and are replaced on the class.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

import numpy as np

from semlink import datasets, demod, harness, jscc, nn, numerics

RNG_METHODS = ("random", "std_normal", "bits", "permutation", "uniform",
               "bernoulli", "normal_pair")


class Tracer:
    """In-memory span log plus counters taken at the same call boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """Return fn wrapped in a span; count(counts, args, result) runs after."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if count is not None:
                count(counts, args, out)
            return out

        return traced

    def totals(self) -> tuple[Counter, Counter]:
        """Per span name: (total duration, total self time) in seconds."""
        total: Counter = Counter()
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            own[name] += end - start - covered
        return total, own


def _dense_flops(model, batch: int) -> int:
    # one (batch, in) x (in, out) product costs 2 * batch * in * out flops
    return sum(2 * batch * w.shape[0] * w.shape[1]
               for w in (layer.weight for layer in model.layers))


def _count_forward(counts, args, out):
    model, x = args[0], args[1]
    counts["nn.matmul_flops"] += _dense_flops(model, np.atleast_2d(x).shape[0])


def _count_backward(counts, args, out):
    # gradient w.r.t. the weights and w.r.t. the input: two products per layer
    model, grad = args[0], args[1]
    counts["nn.matmul_flops"] += 2 * _dense_flops(model, np.atleast_2d(grad).shape[0])


def _count_draws(counts, args, out):
    counts["numerics.rng_draws"] += int(np.size(out))


def _count_classify(counts, args, out):
    counts["demod.classify_calls"] += 1
    counts["demod.coords"] += int(np.size(args[1]))


def _count_plan(counts, args, plan):
    counts["adaptmod.plans"] += 1
    for order in (2, 4, 6):
        counts[f"adaptmod.bits_order{order}"] += plan.orders.count(order)


def _count_transport(counts, args, out):
    bits, plan = np.atleast_2d(args[0]), args[1]
    rows = bits.shape[0]
    counts["harness.transport_calls"] += 1
    counts["adaptmod.padding_slots"] += rows * plan.padding_bits
    counts["adaptmod.bit_slots"] += rows * (len(plan.orders) + plan.padding_bits)


def _targets():
    """(owner, attribute, span name, counter) for every traced call."""
    rng = [(numerics.RandomSource, m, "numerics.rng", _count_draws) for m in RNG_METHODS]
    return rng + [
        (datasets, "synth_dataset", "datasets.synth", None),
        (nn.DenseModel, "forward", "nn.forward", _count_forward),
        (nn.DenseModel, "backward", "nn.backward", _count_backward),
        (nn.AdamState, "step", "nn.adam", None),
        (jscc, "train", "jscc.train", None),
        (jscc, "eval_under_bsec", "jscc.eval", None),
        (jscc, "sample_mu_matrix", "bsec.sample", None),
        (jscc, "erasure_from_mu_array", "bsec.sample", None),
        (jscc, "noisy_latent_sample", "jscc.latent_sample", None),
        (harness, "sample_latent_bits", "jscc.latent_sample", None),
        (harness, "build_constellation", "constellation.map", None),
        (harness, "pack_bits", "constellation.map", None),
        (harness, "transmit", "channel.transmit", None),
        (harness, "equalize", "channel.equalize", None),
        (harness, "build_regions", "demod.regions", None),
        (harness, "demod_robust", "demod.robust", None),
        (demod.BitRegions, "classify", "demod.classify", _count_classify),
        (harness, "threshold_table", "adaptmod.plan", None),
        (harness, "plan_from_thresholds", "adaptmod.plan", _count_plan),
        (harness, "transport_block", "harness.transport", _count_transport),
        (harness, "run_link_montecarlo", "harness.link", None),
        (harness, "run_end_to_end", "harness.end_to_end", None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every target with a span wrapper; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, count in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, cycles: int) -> dict[str, float]:
    """Per-layer metrics per workload cycle, from the recorded spans."""
    total, own = tracer.totals()
    c = tracer.counts

    def per(v):
        return v / cycles

    coords = c["demod.coords"]
    slots = c["adaptmod.bit_slots"]
    return {
        "nn.forward_s": per(total["nn.forward"]),
        "nn.backward_s": per(total["nn.backward"]),
        "nn.adam_s": per(total["nn.adam"]),
        "nn.matmul_gflop": per(c["nn.matmul_flops"]) / 1e9,
        "bsec.sample_s": per(total["bsec.sample"]),
        "jscc.latent_sample_s": per(total["jscc.latent_sample"]),
        "jscc.self_s": per(own["jscc.train"]),
        "numerics.rng_s": per(total["numerics.rng"]),
        "numerics.rng_draws": per(c["numerics.rng_draws"]),
        "constellation.map_s": per(total["constellation.map"]),
        "channel.transmit_s": per(total["channel.transmit"]),
        "channel.equalize_s": per(total["channel.equalize"]),
        "demod.classify_s": per(total["demod.classify"]),
        "demod.classify_calls": per(c["demod.classify_calls"]),
        "demod.coords": per(coords),
        "demod.ns_per_coord": total["demod.classify"] * 1e9 / coords if coords else 0.0,
        "adaptmod.plan_s": per(total["adaptmod.plan"]),
        "adaptmod.plans": per(c["adaptmod.plans"]),
        "adaptmod.bits_order2": per(c["adaptmod.bits_order2"]),
        "adaptmod.bits_order4": per(c["adaptmod.bits_order4"]),
        "adaptmod.bits_order6": per(c["adaptmod.bits_order6"]),
        "adaptmod.padding_ratio": c["adaptmod.padding_slots"] / slots if slots else 0.0,
        "harness.transport_s": per(total["harness.transport"]),
        "harness.transport_calls": per(c["harness.transport_calls"]),
        "harness.transport_self_s": per(own["harness.transport"]),
        "harness.link_self_s": per(own["harness.link"]),
    }
