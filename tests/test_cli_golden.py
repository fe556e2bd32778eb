"""CLI goldens: every command's CSV and the saved model files, byte for byte.

Repeated-run determinism (criterion 10) only compares a build with itself;
these goldens pin the output across refactors. A change that is meant to alter
output rewrites the goldens it moves with `python tests/test_cli_golden.py
NAME...` and says why; with no name, or an unknown one, the script lists the
known names and exits 2. A train golden's name also rewrites its model files,
and train goldens are rewritten first, since the eval goldens read
`train_models`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":  # pytest's pythonpath setting does not reach a script run
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from semlink.cli import MODEL_FILES, main  # noqa: E402

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
    "capacity.csv": ["capacity", "--g1", "0.37", "--g2", "2.5"],
    # the order-4 boundary tables, analytic_params and the link closure
    "selfcheck.txt": ["selfcheck", "--seed", "7"],
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
# every epoch noiseless: the mu draws it skips are 175 and 140 doubles long
TRAIN_ALPHA0 = ["train", *TINY_DATA, "--latent-bits", "7", "--alpha", "0", "--a", "0.5",
                "--epochs", "3", "--warmup-epochs", "1", "--batch-size", "25", "--seed", "4"]
TRAIN_RUNS = {"train.csv": (TRAIN, MODEL_DIR),
              "train_a05.csv": (TRAIN_A05, GOLDENS / "train_a05_models"),
              "train_alpha0.csv": (TRAIN_ALPHA0, GOLDENS / "train_alpha0_models")}


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


def test_train_alpha0_golden(tmp_path):
    _check_train("train_alpha0.csv", tmp_path)


def test_goldens_hold_with_one_blas_thread(tmp_path):
    # byte identity rests on a product's bits not depending on the BLAS thread
    # count; pytest's own process runs with the default count
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    runs = {"train.csv": [*TRAIN, "--model-dir", str(tmp_path)],
            "eval_adaptive.csv": CASES["eval_adaptive.csv"]}
    for name, argv in runs.items():
        done = subprocess.run([sys.executable, "-m", "semlink.cli", *argv,
                               "--out", str(tmp_path / name)], env=env, capture_output=True)
        assert done.returncode == 0, done.stderr.decode()
        assert (tmp_path / name).read_bytes() == (GOLDENS / name).read_bytes(), name
    for model in MODEL_FILES:
        assert (tmp_path / model).read_bytes() == (MODEL_DIR / model).read_bytes(), model


def test_regenerate_needs_known_names(capsys):
    assert regenerate([]) == 2
    assert regenerate(["train.csv", "nope.csv"]) == 2
    err = capsys.readouterr().err
    assert "nope.csv" in err and "train_alpha0.csv" in err and "simulate_ber.csv" in err


def test_script_runs_without_pythonpath(tmp_path):
    # the docstring's command, with no names: the script finds src itself,
    # prints the usage and writes nothing
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    stamps = {path: path.stat().st_mtime_ns for path in GOLDENS.rglob("*")}
    done = subprocess.run([sys.executable, str(Path(__file__).resolve())], env=env,
                          cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.splitlines()[0] == "usage: python tests/test_cli_golden.py NAME..."
    assert list(tmp_path.iterdir()) == []
    assert {path: path.stat().st_mtime_ns for path in GOLDENS.rglob("*")} == stamps


def regenerate(names: list[str]) -> int:
    """Rewrite the named goldens, or list the known names and return 2."""
    known = [*TRAIN_RUNS, *CASES]
    unknown = [name for name in names if name not in known]
    if not names or unknown:
        print("usage: python tests/test_cli_golden.py NAME...", file=sys.stderr)
        if unknown:
            print(f"unknown goldens: {' '.join(unknown)}", file=sys.stderr)
        print(f"known goldens: {' '.join(known)}", file=sys.stderr)
        return 2
    for name in known:  # train runs first: the eval goldens read their models
        if name not in names:
            continue
        if name in TRAIN_RUNS:
            argv, model_dir = TRAIN_RUNS[name]
            argv = [*argv, "--model-dir", str(model_dir)]
        else:
            argv = CASES[name]
        assert main([*argv, "--out", str(GOLDENS / name)]) == 0
    return 0


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
