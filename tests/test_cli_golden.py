"""CLI goldens: every command's CSV and the saved model files, byte for byte.

Repeated-run determinism (criterion 10) only compares a build with itself;
these goldens pin the output across refactors. A change that is meant to alter
output regenerates them with `python tests/test_cli_golden.py` and says why.
"""

import sys
from pathlib import Path

import pytest

from semlink.cli import MODEL_FILES, main

GOLDENS = Path(__file__).parent / "goldens"
RAMP96 = GOLDENS / "ramp96.profile"
MIXED = GOLDENS / "mixed_a.profile"
MODEL_DIR = GOLDENS / "train_models"
TINY_DATA = ["--classes", "3", "--dim", "8", "--per-class", "40", "--noise-sigma", "1.0"]

CASES = {
    **{f"demod_regions_order{m}.csv": ["demod-regions", "--order", str(m), "--a", "0.5"]
       for m in (2, 4, 6)},
    "simulate_ber.csv": ["simulate-ber", "--order", "4", "--a", "0.5",
                         "--snr-db", "0:6:3", "--n-bits", "30000", "--seed", "5"],
    "bsec_table_order2.csv": ["bsec-table", "--order", "2", "--a", "0.5",
                              "--snr-db", "0:6:3", "--n-bits", "20000", "--seed", "1"],
    "adaptive_plan.csv": ["adaptive-plan", "--snr-db", "0", "--profile", str(RAMP96)],
    "eval_adaptive.csv": ["eval", "--model-dir", str(MODEL_DIR), *TINY_DATA,
                          "--adaptive", "--uniform", "0.37:2.5", "--profile", str(MIXED),
                          "--images-per-block", "2", "--seed", "6"],
    # three full 2**16-bit link chunks and a partial one
    "simulate_ber_chunks.csv": ["simulate-ber", "--order", "6", "--a", "0.5",
                                "--snr-db", "0:6:6", "--n-bits", "200000", "--seed", "7"],
    # two evaluation chunks, the second ending in a short block
    "eval_adaptive_chunks.csv": ["eval", "--model-dir", str(MODEL_DIR),
                                 *TINY_DATA[:4], "--per-class", "1000", "--noise-sigma", "1.0",
                                 "--adaptive", "--uniform", "0.37:2.5", "--profile", str(MIXED),
                                 "--images-per-block", "7", "--seed", "8"],
    # the fixed-SNR path (channel.FixedSnr) at fixed and adaptive orders
    **{name: ["eval", "--model-dir", str(MODEL_DIR), *TINY_DATA, "--snr-db=-3:9:6",
              "--profile", str(MIXED), "--images-per-block", "3", "--seed", "9", *mode]
       for name, mode in (("eval_fixed.csv", ["--fixed-order", "4"]),
                          ("eval_fixed_adaptive.csv", ["--adaptive"]))},
}
TRAIN = ["train", *TINY_DATA, "--profile", str(MIXED), "--epochs", "4",
         "--warmup-epochs", "1", "--batch-size", "16", "--seed", "2"]
# a homogeneous a = 0.5 profile; 120 examples leave a short last batch of 24
TRAIN_A05 = ["train", *TINY_DATA, "--latent-bits", "12", "--alpha", "0.4", "--a", "0.5",
             "--epochs", "4", "--warmup-epochs", "1", "--batch-size", "32", "--seed", "3"]
TRAIN_RUNS = {"train.csv": (TRAIN, MODEL_DIR),
              "train_a05.csv": (TRAIN_A05, GOLDENS / "train_a05_models")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_command_golden(name, tmp_path):
    out = tmp_path / name
    assert main([*CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDENS / name).read_bytes()


def _check_train(name, tmp_path):
    argv, model_dir = TRAIN_RUNS[name]
    out = tmp_path / name
    assert main([*argv, "--model-dir", str(tmp_path), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDENS / name).read_bytes()
    for model in MODEL_FILES:
        assert (tmp_path / model).read_bytes() == (model_dir / model).read_bytes(), model


def test_train_golden(tmp_path):
    _check_train("train.csv", tmp_path)


def test_train_a05_golden(tmp_path):
    _check_train("train_a05.csv", tmp_path)


def regenerate() -> None:
    for name, (argv, model_dir) in TRAIN_RUNS.items():
        assert main([*argv, "--model-dir", str(model_dir),
                     "--out", str(GOLDENS / name)]) == 0
    for name, argv in CASES.items():
        assert main([*argv, "--out", str(GOLDENS / name)]) == 0


if __name__ == "__main__":
    sys.exit(regenerate())
