"""Digital semantic links: ternary demodulation, BSEC-robust training,
and per-bit channel-adaptive modulation."""

__version__ = "0.1.0"

from .adaptmod import (
    BetaAdjusters,
    HETEROGENEOUS_BETAS,
    HOMOGENEOUS_BETAS,
    ModPlan,
    capacity_uniform,
    tau,
)
from .bsec import BsecParams, RobustnessProfile, analytic_params
from .channel import ChannelRealization, FixedSnr, UniformMagnitude, draw_channel, equalize, transmit
from .constellation import Constellation, build_constellation
from .datasets import Dataset, load_idx, synth_dataset
from .demod import DecisionRegions, a_from_rho, build_regions, demod_llr, demod_robust, llr_exact, rho_from_a
from .errors import ConfigError, DomainError, FormatError, SemlinkError, StateError, TrainingError
from .harness import LinkStats, run_end_to_end, run_link_montecarlo
from .jscc import ModelTriple, TrainingConfig, eval_under_bsec, train
from .nn import AdamState, DenseModel, Layer, ce_loss, init_model, load_model, mse_loss, save_model
from .numerics import RandomSource, q_function, q_inverse
