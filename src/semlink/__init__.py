"""Digital semantic links: ternary demodulation, BSEC-robust training,
and per-bit channel-adaptive modulation."""

__version__ = "0.1.0"

# Loads every module but the CLI, so `import semlink` makes semlink.harness
# and the rest resolve. Each caller imports what it uses from its module.
from . import (
    adaptmod,
    bsec,
    channel,
    constellation,
    datasets,
    demod,
    errors,
    harness,
    jscc,
    nn,
    numerics,
)
