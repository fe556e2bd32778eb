"""Every call the benchmark tracer patches still exists where it looks it up,
and the counted calls still feed their counters.

benchmarks/tracing.py replaces each target found as owner.__dict__[attr], so a
library change that deletes or moves one of them breaks traced benchmark runs.
Its counters read the traced calls' arguments and results, so a changed
signature breaks them too.
"""

import sys
from pathlib import Path

import pytest

from semlink import harness
from semlink.adaptmod import HETEROGENEOUS_BETAS, threshold_table
from semlink.bsec import RobustnessProfile
from semlink.numerics import RandomSource

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import tracing  # noqa: E402

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
        harness.transport_block(bits, plan, profile.a_offsets, 1.0, 1.0, RandomSource(2))
    assert {"adaptmod.plan", "harness.transport"} <= {span[0] for span in tracer.spans}
    for name in ("harness.transport_calls", "adaptmod.plans", "adaptmod.bit_slots"):
        assert tracer.counts[name] > 0, name
