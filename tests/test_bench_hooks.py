"""Every call the benchmark tracer patches still exists where it looks it up,
and the counted calls still feed their counters.

benchmarks/tracing.py replaces each target found as owner.__dict__[attr], so a
library change that deletes or moves one of them breaks traced benchmark runs.
Its counters read the traced calls' arguments and results, so a changed
signature breaks them too. The two cheap workload set-ups are pinned by their
digests, so a change to the benchmark's inputs also fails here.
"""

import sys
from pathlib import Path

import pytest

from semlink import harness
from semlink.adaptmod import HETEROGENEOUS_BETAS, threshold_table
from semlink.bsec import RobustnessProfile
from semlink.channel import UniformMagnitude
from semlink.datasets import synth_dataset
from semlink.jscc import TrainingConfig, build_models
from semlink.numerics import RandomSource

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import tracing  # noqa: E402
import workloads  # noqa: E402

TARGETS = [(owner, attr) for owner, attr, _, _ in tracing._targets()]


@pytest.mark.parametrize("owner,attr", TARGETS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in TARGETS])
def test_trace_target_exists(owner, attr):
    assert attr in owner.__dict__


def test_counted_calls_record_spans_and_counts():
    profile = RobustnessProfile.linear_ramp(12, 0.29, 0.45, a=0.5)
    table = threshold_table(profile, HETEROGENEOUS_BETAS)
    bits = RandomSource(1).bits(2 * 12).reshape(2, 12)
    with tracing.installed(tracing.Tracer()) as tracer:
        plan = harness.plan_from_thresholds(1.0, table)
        harness.transport_block(bits, plan, profile.a_offsets, 1.0, RandomSource(2))
    assert {"adaptmod.plan", "harness.transport"} <= {span[0] for span in tracer.spans}
    for name in ("harness.transport_calls", "adaptmod.plans", "adaptmod.bit_slots"):
        assert tracer.counts[name] > 0, name


def test_traced_runs_equal_plain_runs():
    # the workloads' two channel jobs: a traced run returns what a plain run
    # does and records the spans of its stages
    profile = RobustnessProfile.linear_ramp(12, 0.29, 0.45, a=0.5)
    ds = synth_dataset(3, 8, 20, 1.0, RandomSource(3))
    models = build_models(8, 3, TrainingConfig(profile=profile), RandomSource(4))

    def run():
        return (harness.run_end_to_end(models, UniformMagnitude(0.37, 2.5), profile,
                                       HETEROGENEOUS_BETAS, True, ds, RandomSource(5),
                                       images_per_block=7),
                harness.run_link_montecarlo(6, 3.0, 0.5, 70000, RandomSource(6)))  # two chunks

    plain = run()
    with tracing.installed(tracing.Tracer()) as tracer:
        traced = run()
    assert traced == plain
    assert {"harness.end_to_end", "harness.link", "nn.forward", "demod.classify"} <= \
        {span[0] for span in tracer.spans}


def test_cheap_setups_keep_their_digests():
    # the inputs the benchmark feeds its workloads: a refactor that moves them
    # fails here rather than only in a benchmark run
    assert workloads.WORKLOADS["link-mc"](101).setup() == "9eefb5fd99bc305c"
    assert workloads.WORKLOADS["train-robust"](101).setup() == "fe68814bf71179f1"
