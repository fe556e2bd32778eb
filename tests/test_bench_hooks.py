"""Every call the benchmark tracer patches still exists where it looks it up.

benchmarks/tracing.py replaces each target found as owner.__dict__[attr], so a
library change that deletes or moves one of them breaks traced benchmark runs.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import tracing  # noqa: E402

TARGETS = [(owner, attr) for owner, attr, _, _ in tracing._targets()]


@pytest.mark.parametrize("owner,attr", TARGETS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in TARGETS])
def test_trace_target_exists(owner, attr):
    assert attr in owner.__dict__
