"""CLI contract: CSV schemas, exit codes, reproducibility, config files."""

import contextlib
import io
import shutil
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlink.cli import MODEL_FILES, main, parse_sweep, load_profile, load_config_file
from semlink.datasets import IDX_IMAGES_MAGIC
from semlink.errors import ConfigError
from semlink.nn import MODEL_MAGIC, init_model, save_model
from semlink.numerics import RandomSource


GOLDEN_MODELS = Path(__file__).parent / "goldens" / "train_models"
RAMP96 = Path(__file__).parent / "goldens" / "ramp96.profile"
# the data the golden models were trained on: 8 features, 3 classes, 12 latent bits
GOLDEN_DATA = ("--classes", "3", "--dim", "8", "--per-class", "4", "--noise-sigma", "1.0")
TINY_TRAIN = ("--classes", "2", "--dim", "4", "--per-class", "4", "--latent-bits", "4",
              "--epochs", "1", "--warmup-epochs", "0")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def flag_or_config_line(tmp_path, argv, key, value, via_config):
    """argv plus `--key=value`, or plus a --config file holding `key = value`."""
    if not via_config:
        return (*argv, f"--{key}={value}")
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = {value}\n")
    return (*argv, "--config", str(conf))


def assert_one_line_error(code, out, err, message):
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert message in err


class TestParsingHelpers:
    def test_sweep_inclusive(self):
        np.testing.assert_allclose(parse_sweep("-3:6:3"), [-3, 0, 3, 6])
        np.testing.assert_allclose(parse_sweep("1:1:1"), [1])

    def test_sweep_invalid(self):
        with pytest.raises(ConfigError):
            parse_sweep("5:1:1")
        with pytest.raises(ConfigError):
            parse_sweep("1:2")

    @pytest.mark.parametrize("spec", ["nan:1:1", "0:inf:1", "0:1:nan", "-inf:0:1"])
    def test_sweep_non_finite_rejected(self, spec):
        with pytest.raises(ConfigError, match="finite"):
            parse_sweep(spec)

    def test_profile_file(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("# bit, robustness, offset\n0,0.29,0.5\n1,0.45,0.5\n")
        profile = load_profile(path)
        np.testing.assert_allclose(profile.alphas, [0.29, 0.45])
        np.testing.assert_allclose(profile.a_offsets, [0.5, 0.5])

    def test_profile_one_based_indices(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("1,0.3,0.5\n2,0.4,0.5\n")
        assert len(load_profile(path)) == 2

    def test_profile_gap_rejected(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("0,0.3,0.5\n2,0.4,0.5\n")
        with pytest.raises(ConfigError):
            load_profile(path)

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("# comment\nn-bits = 5000\nseed = 9\n")
        assert load_config_file(path) == {"n_bits": "5000", "seed": "9"}


class TestCommands:
    def test_capacity_value(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--g1", "0.37", "--g2", "2.5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "g1,g2,capacity"
        assert abs(float(lines[1].split(",")[2]) - 1.57) <= 0.005

    def test_unknown_subcommand_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err.lower() or "invalid" in err.lower()

    def test_domain_error_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "capacity", "--g1", "2.5", "--g2", "0.37")
        assert code == 1
        assert err == "error: require 0 <= g1 < g2, got [2.5, 0.37]\n"

    def test_missing_profile_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "adaptive-plan", "--snr-db", "0",
                               "--profile", str(tmp_path / "missing.csv"))
        assert code == 2

    def test_demod_regions_fig_values(self, capsys):
        code, out, _ = run_cli(capsys, "demod-regions", "--order", "4", "--a", "0.5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "bit,output,lower,upper"
        d = np.sqrt(6.0 / 15.0)
        bit2 = [l.split(",") for l in lines[1:] if l.split(",")[0] == "2"]
        bands = [row for row in bit2 if row[1] == "0.5"]
        lows = sorted(float(row[2]) for row in bands)
        assert lows == pytest.approx([-1.25 * d, 0.75 * d], abs=1e-7)

    def test_seed_reproducibility_byte_identical(self, capsys):
        args = ("simulate-ber", "--order", "4", "--a", "0.5",
                "--snr-db", "0:6:3", "--n-bits", "20000", "--seed", "5")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_different_seed_changes_output(self, capsys):
        base = ("simulate-ber", "--order", "2", "--a", "0",
                "--snr-db", "0:0:1", "--n-bits", "20000")
        _, out1, _ = run_cli(capsys, *base, "--seed", "1")
        _, out2, _ = run_cli(capsys, *base, "--seed", "2")
        assert out1 != out2

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "cap.csv"
        code, out, _ = run_cli(capsys, "capacity", "--g1", "0.5", "--g2", "1.5",
                               "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("g1,g2,capacity")

    def test_bsec_table_schema(self, capsys):
        code, out, _ = run_cli(capsys, "bsec-table", "--order", "2", "--a", "0.5",
                               "--snr-db", "0:3:3", "--n-bits", "20000", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "snr_db,mu,d,r,empirical_mu,empirical_d,empirical_r,n_bits"
        assert len(lines) == 3
        first = [float(v) for v in lines[1].split(",")]
        assert abs(first[1] - 0.0668072) <= 1e-6
        assert abs(first[4] - first[1]) <= 0.01

    def test_adaptive_plan_schema(self, capsys, tmp_path):
        profile = tmp_path / "profile.csv"
        profile.write_text("".join(f"{i},{0.29 + 0.16 * i / 95:.6f},0.5\n" for i in range(96)))
        code, out, _ = run_cli(capsys, "adaptive-plan", "--snr-db", "0",
                               "--profile", str(profile))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "bit,alpha,tau2,tau4,tau6,order"
        orders = [int(l.split(",")[5]) for l in lines[1:]]
        assert sorted(set(orders)) == [2, 4, 6]
        assert orders == sorted(orders)

    def test_zero_alpha_bit_plans_order_2(self, capsys, tmp_path):
        # a zero flip budget meets no order's threshold at any SNR
        profile = tmp_path / "profile.csv"
        profile.write_text("0,0.3,0.5\n1,0,0.5\n")
        code, out, _ = run_cli(capsys, "adaptive-plan", "--snr-db", "40",
                               "--profile", str(profile))
        assert code == 0
        assert out.splitlines()[1:] == ["0,0.3,0.349600342,1.0528937,1.99243971,6",
                                        "1,0,inf,inf,inf,2"]

    def test_zero_alpha_models_evaluate_adaptively(self, capsys):
        # the train_alpha0 golden's models with their own profile: every bit
        # rides order 2, so the adaptive pass is the fixed order-2 pass
        argv = ("eval", "--model-dir", str(GOLDEN_MODELS.parent / "train_alpha0_models"),
                "--classes", "3", "--dim", "8", "--per-class", "40", "--noise-sigma", "1.0",
                "--alpha", "0", "--a", "0.5", "--uniform", "0.37:2.5", "--adaptive")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[1].startswith("uniform,,0.375,7.18505371,1.75,")
        assert run_cli(capsys, *argv, "false") == (0, out, "")

    def test_config_file_defaults_and_override(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("g1 = 0.37\ng2 = 2.5\n")
        code, out, _ = run_cli(capsys, "capacity", "--config", str(conf))
        assert code == 0
        assert "1.56925312" in out
        code, out, _ = run_cli(capsys, "capacity", "--config", str(conf),
                               "--g2", "3.0")
        assert code == 0
        assert out.splitlines()[1].split(",")[1] == "3"

    def test_config_equals_form(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("g1 = 0.37\ng2 = 2.5\n")
        code, out, _ = run_cli(capsys, "capacity", f"--config={conf}")
        assert code == 0
        assert "1.56925312" in out

    def test_trailing_config_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "capacity", "--g1", "0.37", "--g2", "2.5",
                                 "--config")
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert "error: argument --config: expected one argument" in err

    @pytest.mark.parametrize("argv", [
        ("simulate-ber", "--order", "2", "--snr-db", "nan:1:1", "--n-bits", "10"),
        ("bsec-table", "--order", "2", "--a", "0.5", "--snr-db", "0:inf:1",
         "--n-bits", "10"),
        ("train", "--classes", "2", "--dim", "4", "--per-class", "4",
         "--latent-bits", "4", "--epochs", "1", "--alpha", "nan"),
        ("train", "--classes", "2", "--dim", "4", "--per-class", "4",
         "--latent-bits", "4", "--epochs", "1", "--a", "nan"),
    ])
    def test_non_finite_input_is_a_one_line_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,message", [
        (("simulate-ber", "--order", "2", "--snr-db=-1e30:0:1", "--n-bits", "10"),
         "more than 10000 points"),
        (("simulate-ber", "--order", "2", "--snr-db", "0:1e30:1e30", "--n-bits", "10"),
         "above 3000 dB"),
        (("train", *TINY_TRAIN, "--learning-rate", "nan"), "learning rate"),
        (("train", *TINY_TRAIN, "--learning-rate", "-1"), "learning rate"),
        (("train", *TINY_TRAIN, "--loss-weight", "nan"), "loss weight"),
        (("train", *TINY_TRAIN, "--loss-weight", "inf"), "loss weight"),
        (("train", *TINY_TRAIN, "--noise-sigma", "nan"), "noise_sigma"),
        (("train", *TINY_TRAIN, "--noise-sigma", "inf"), "noise_sigma"),
        (("train", *TINY_TRAIN, "--latent-bits", "0"), "at least 1 bit"),
        (("train", *TINY_TRAIN, "--per-class", "99999999999999999999"),
         "error: n_classes x n_per_class x dim must be at most 10000000, "
         "got 2 x 99999999999999999999 x 4"),
        (("train", *TINY_TRAIN, "--classes", "99999999999999999999"),
         "error: n_classes x n_per_class x dim must be at most 10000000, "
         "got 99999999999999999999 x 4 x 4"),
        (("train", *TINY_TRAIN, "--dim", "99999999999999999999"),
         "error: n_classes x n_per_class x dim must be at most 10000000, "
         "got 2 x 4 x 99999999999999999999"),
        (("train", *TINY_TRAIN, "--latent-bits", "99999999999999999999"),
         "error: a profile holds at most 10000 bits, got 99999999999999999999"),
        (("train", *TINY_TRAIN, "--latent-bits", "99999999999999999999", "--alpha-last", "0.45"),
         "error: a profile holds at most 10000 bits, got 99999999999999999999"),
        (("train", *TINY_TRAIN, "--per-class", "3000000000", "--classes", "3000000000"),
         "error: n_classes x n_per_class x dim must be at most 10000000, "
         "got 3000000000 x 3000000000 x 4"),
        (("train", *TINY_TRAIN, "--warmup-epochs", "-2"), "warmup_epochs=-2"),
        (("capacity", "--g1", "0", "--g2", "1e200"), "g2^2 must be finite"),
        (("simulate-ber", "--order", "2", "--snr-db", "0:0:1", "--n-bits", "1000000000000000"),
         "n_bits must be in [1, 100000000]"),
        (("bsec-table", "--order", "2", "--a", "0.5", "--snr-db", "0:0:1",
          "--n-bits", "1000000000000000000000"), "n_bits must be in [1, 100000000]"),
        (("simulate-ber", "--order", "2", "--snr-db", "a:b:c", "--n-bits", "10"),
         "invalid sweep"),
        (("adaptive-plan", "--snr-db", "3001", "--profile", str(RAMP96)), "above 3000 dB"),
        (("train", *TINY_TRAIN, "--batch-size", "0"), "batch_size"),
        (("eval", "--model-dir", str(GOLDEN_MODELS), *GOLDEN_DATA, "--adaptive",
          "--uniform", "0.37:2.5", "--profile", str(RAMP96)),
         "encoder emits 12 bits, profile has 96"),
        (("adaptive-plan", "--snr-db", "0", "--profile", str(RAMP96), "--betas", "1,0.6"),
         "error: betas must be B2,B4,B6, got '1,0.6'"),
        (("adaptive-plan", "--snr-db", "0", "--profile", str(RAMP96), "--betas", "1,x,0.5"),
         "error: invalid betas '1,x,0.5': could not convert string to float: 'x'"),
        (("adaptive-plan", "--snr-db", "0", "--profile", str(RAMP96), "--betas", "0,0.6,0.5"),
         "error: beta2=0.0 outside (0, 1]"),
        (("simulate-ber", "--order", "2", "--snr-db", "0:1"),
         "error: sweep must be LO:HI:STEP, got '0:1'"),
    ], ids=["sweep-too-long", "sweep-above-ceiling", "lr-nan", "lr-negative", "loss-weight-nan",
            "loss-weight-inf", "noise-sigma-nan", "noise-sigma-inf", "zero-latent-bits",
            "per-class-huge", "classes-huge", "dim-huge", "latent-bits-huge", "ramp-bits-huge",
            "dataset-too-large", "negative-warmup",
            "capacity-g2-square-overflows", "simulate-ber-n-bits-huge", "bsec-table-n-bits-huge",
            "sweep-not-numeric", "plan-snr-above-ceiling", "zero-batch-size",
            "eval-profile-longer-than-encoder", "betas-two-fields", "betas-not-numeric",
            "betas-out-of-domain", "sweep-two-fields"])
    def test_bad_value_is_a_one_line_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("argv,text,message", [
        (("adaptive-plan", "--snr-db", "0", "--profile"), "0,0.3\n", "expected `index,alpha,a`"),
        (("adaptive-plan", "--snr-db", "0", "--profile"), "0,x,0.5\n", "could not convert"),
        (("adaptive-plan", "--snr-db", "0", "--profile"), "0,0.3,0.5\n0,0.4,0.5\n",
         "duplicate index 0"),
        (("adaptive-plan", "--snr-db", "0", "--profile"), "# nothing\n# here\n", "empty profile"),
        (("capacity", "--g1", "0.37", "--g2", "2.5", "--config"), "seed 5\n",
         "expected `key = value`"),
        (("adaptive-plan", "--snr-db", "0", "--profile"), "1,0.3,0.5\n2,0.7,0.5\n",
         "input.txt: robustness levels must lie in [0, 0.5], got 0.7 at bit 1"),
        (("adaptive-plan", "--snr-db", "0", "--profile"), "0,0.3,0.5\n1,0.3,nan\n",
         "input.txt: boundary offsets must lie in [0, 1], got nan at bit 1"),
    ], ids=["profile-two-fields", "profile-not-numeric", "profile-duplicate-index",
            "profile-only-comments", "config-without-equals", "profile-alpha-out-of-range",
            "profile-offset-out-of-range"])
    def test_bad_input_file_is_a_one_line_error(self, capsys, tmp_path, argv, text, message):
        path = tmp_path / "input.txt"
        path.write_text(text)
        assert_one_line_error(*run_cli(capsys, *argv, str(path)), message)

    @pytest.mark.parametrize("argv", [
        ("adaptive-plan", "--snr-db", "0", "--profile"),
        ("capacity", "--g1", "0.37", "--g2", "2.5", "--config"),
    ], ids=["profile", "config"])
    def test_non_utf8_input_file_is_a_one_line_format_error(self, capsys, tmp_path, argv):
        path = tmp_path / "input.txt"
        path.write_bytes(b"# fine so far\n\xff\n")
        code, out, err = run_cli(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: byte 14 is not valid UTF-8 (invalid start byte)\n"

    def test_overflowing_ramp_is_one_error_line_without_warning(self, capsys):
        # the ramp's span overflows; its endpoints are rejected before it is built
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "train", *TINY_TRAIN[:-2],
                                     "--alpha=-1e308", "--alpha-last", "1e308")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "robustness levels must lie in [0, 0.5]" in err

    @pytest.mark.parametrize("ramp,message", [
        (("--alpha", "0.7", "--alpha-last", "0.1"), "got alpha_first 0.7"),
        (("--alpha", "0.1", "--alpha-last", "0.7"), "got alpha_last 0.7"),
    ], ids=["first", "last"])
    def test_ramp_endpoint_out_of_range_is_named(self, capsys, ramp, message):
        code, out, err = run_cli(capsys, "train", *TINY_TRAIN[:-2], *ramp)
        assert (code, out) == (1, "")
        assert err == f"error: robustness levels must lie in [0, 0.5], {message}\n"

    @pytest.mark.parametrize("argv", [
        ("train", "--latent-bits", "4", "--epochs", "1", "--warmup-epochs", "0"),
        ("eval", "--model-dir", str(GOLDEN_MODELS), "--snr-db", "0:0:1"),
    ], ids=["train", "eval"])
    def test_empty_idx_is_one_error_line_without_warning(self, capsys, tmp_path, argv):
        path = tmp_path / "empty-images.idx"
        path.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 0, 28, 28))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv, "--idx-images", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{path}: holds no pixels" in err

    @pytest.mark.parametrize("argv", [
        ("train", "--latent-bits", "4", "--epochs", "1", "--warmup-epochs", "0"),
        ("eval", "--model-dir", str(GOLDEN_MODELS), "--snr-db", "0:0:1"),
    ], ids=["train", "eval"])
    def test_idx_labels_without_images_is_a_one_line_error(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv, "--idx-labels", str(tmp_path / "missing.idx"))
        assert_one_line_error(code, out, err, "--idx-labels needs --idx-images")
        assert err.startswith("error: ")

    def test_divergent_training_is_one_error_line_without_warning(self, capsys):
        # the updates overflow before the loss turns non-finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "train", *TINY_TRAIN[:-4], "--epochs", "2",
                                     "--warmup-epochs", "0", "--learning-rate=1e300")
        assert_one_line_error(code, out, err, "loss became non-finite at epoch 1")

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    @pytest.mark.parametrize("argv,key,value,message", [
        (("simulate-ber", "--order", "2", "--snr-db", "0:0:1", "--n-bits", "10"),
         "seed", "abc", "invalid int value"),
        (("capacity", "--g1", "0.37", "--g2", "2.5"), "frobnicate", "3",
         "unrecognized arguments: --frobnicate=3"),
        (("demod-regions", "--a", "0.5"), "order", "3", "invalid choice"),
        (("train", *TINY_TRAIN[:-2]), "warmup-epochs", "-2", "warmup_epochs=-2"),
        (("simulate-ber", "--order", "2", "--snr-db", "0:0:1", "--n-bits", "10"),
         "se", "5", "unrecognized arguments: --se=5"),
        (("train", *TINY_TRAIN), "c", "3", "unrecognized arguments: --c=3"),
        # every subcommand refuses a prefix of --out, which the --config merge relies on
        (("capacity", "--g1", "0.37", "--g2", "2.5"), "ou", "x",
         "unrecognized arguments: --ou=x"),
        (("demod-regions", "--order", "4", "--a", "0.5"), "ou", "x",
         "unrecognized arguments: --ou=x"),
        (("bsec-table", "--order", "2", "--a", "0.5", "--snr-db", "0:0:1", "--n-bits", "10"),
         "ou", "x", "unrecognized arguments: --ou=x"),
        (("adaptive-plan", "--snr-db", "0", "--profile", str(RAMP96)), "ou", "x",
         "unrecognized arguments: --ou=x"),
        (("eval", "--model-dir", str(GOLDEN_MODELS), *GOLDEN_DATA, "--snr-db", "0:0:1"),
         "ou", "x", "unrecognized arguments: --ou=x"),
        (("selfcheck",), "ou", "x", "unrecognized arguments: --ou=x"),
    ], ids=["seed-abc", "unknown-key", "order-3", "negative-warmup", "prefix-of-seed",
            "prefix-of-config", "prefix-of-out-capacity", "prefix-of-out-demod-regions",
            "prefix-of-out-bsec-table", "prefix-of-out-adaptive-plan", "prefix-of-out-eval",
            "prefix-of-out-selfcheck"])
    def test_flag_and_config_line_fail_alike(self, capsys, tmp_path, argv, key, value,
                                             message, via_config):
        argv = flag_or_config_line(tmp_path, argv, key, value, via_config)
        assert_one_line_error(*run_cli(capsys, *argv), message)

    def test_nan_snr_plan_is_a_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("0,0.3,0.5\n1,0.4,0.5\n")
        code, out, err = run_cli(capsys, "adaptive-plan", "--snr-db", "nan",
                                 "--profile", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: snr must be positive") and err.count("\n") == 1

    @pytest.mark.parametrize("a", ["2", "nan", "-0.1"])
    @pytest.mark.parametrize("command", ["bsec-table", "simulate-ber"])
    def test_bad_offset_has_one_message(self, capsys, command, a):
        argv = (command, "--order", "2", f"--a={a}", "--snr-db", "0:0:1", "--n-bits", "10")
        assert_one_line_error(*run_cli(capsys, *argv),
                              f"error: boundary offset must lie in [0, 1], got {float(a)}\n")

    def test_non_ascending_thresholds_name_the_first_bit(self, capsys):
        # these betas fail the ramp's first bit already
        code, out, err = run_cli(capsys, "adaptive-plan", "--snr-db", "0", "--profile",
                                 str(RAMP96), "--betas", "0.01,0.99,0.99")
        assert (code, out) == (1, "")
        assert err == ("error: thresholds not ascending for alpha=0.29, a=0.5: "
                       "tau2=1.83925, tau4=0.444434, tau6=0.0599541\n")

    @pytest.mark.parametrize("argv", [
        ("adaptive-plan", "--snr-db", "0"),
        ("train", *TINY_TRAIN),
        ("eval", "--model-dir", str(GOLDEN_MODELS), *GOLDEN_DATA, "--snr-db", "0:0:1"),
    ], ids=["adaptive-plan", "train", "eval"])
    @pytest.mark.parametrize("text,message", [
        ("0,0.3,0.5\n1,0.3,0.5\n2,0.6,0.5\n",
         "robustness levels must lie in [0, 0.5], got 0.6 at bit 2"),
        ("0,0.3,0.5\n1,0.3,1.5\n", "boundary offsets must lie in [0, 1], got 1.5 at bit 1"),
    ], ids=["alpha", "offset"])
    def test_out_of_range_profile_names_file_and_bit(self, capsys, tmp_path, argv, text,
                                                      message):
        path = tmp_path / "bad.profile"
        path.write_text(text)
        code, out, err = run_cli(capsys, *argv, "--profile", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: {message}\n"

    def test_selfcheck_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selfcheck", "--seed", "11")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.strip().splitlines())

    def test_selfcheck_out_matches_stdout(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "selfcheck", "--seed", "7")
        assert code == 0
        path = tmp_path / "selfcheck.txt"
        assert run_cli(capsys, "selfcheck", "--seed", "7", "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == out.encode()


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("models")
    code = main([
        "train", "--epochs", "30", "--warmup-epochs", "5", "--batch-size", "32",
        "--latent-bits", "16", "--classes", "4", "--dim", "16",
        "--per-class", "30", "--noise-sigma", "1.0",
        "--model-dir", str(base), "--seed", "3",
        "--out", str(base / "metrics.csv"),
    ])
    assert code == 0
    return base



def _patch_last_parameter(path, value):
    blob = bytearray(path.read_bytes())
    blob[-8:] = np.array([value], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))


class TestModelFileErrors:
    """Every bad model file ends with exit 2 and one error line naming the file."""

    @pytest.fixture
    def models(self, tmp_path):
        for name in MODEL_FILES:
            shutil.copy(GOLDEN_MODELS / name, tmp_path / name)
        return tmp_path

    def run_eval(self, capsys, models, *data):
        return run_cli(capsys, "eval", "--model-dir", str(models), *(data or GOLDEN_DATA),
                       "--uniform", "0.37:2.5", "--adaptive")

    def test_golden_models_evaluate(self, capsys, models):
        assert self.run_eval(capsys, models)[0] == 0

    @pytest.mark.parametrize("corrupt,message", [
        (lambda d: _patch_last_parameter(d / "encoder.bin", np.nan),
         "encoder.bin: non-finite parameters start at layer 2 bias[11] (nan)"),
        (lambda d: _patch_last_parameter(d / "classifier.bin", -np.inf),
         "classifier.bin: non-finite parameters start at layer 2 bias[2] (-inf)"),
        (lambda d: (d / "decoder.bin").write_bytes((d / "decoder.bin").read_bytes() + b"\0"),
         "decoder.bin: 1 bytes after the payload"),
        (lambda d: (d / "classifier.bin").write_bytes(MODEL_MAGIC + bytes(4)),
         "classifier.bin: a model needs at least one layer"),
        (lambda d: shutil.copy(d / "classifier.bin", d / "decoder.bin"),
         "decoder.bin: input dim 8 does not match the encoder's output dim 12"),
        (lambda d: save_model(init_model([12, 5], ["identity"], RandomSource(1)),
                              d / "decoder.bin"),
         "decoder.bin: output dim 5 does not match the dataset's feature dim 8"),
        (lambda d: save_model(init_model([5, 3], ["identity"], RandomSource(1)),
                              d / "classifier.bin"),
         "classifier.bin: input dim 5 does not match the decoder's output dim 8"),
        (lambda d: (d / "encoder.bin").write_bytes(MODEL_MAGIC + bytes(2)),
         "encoder.bin: truncated header at byte 10"),
        (lambda d: (d / "encoder.bin").write_bytes(MODEL_MAGIC + struct.pack("<I", 1) + bytes(3)),
         "encoder.bin: truncated layer header at byte 12"),
    ], ids=["nan-encoder", "inf-classifier", "trailing-byte", "zero-layers",
            "classifier-as-decoder", "decoder-output", "classifier-input", "truncated-header",
            "truncated-layer-header"])
    def test_bad_model_file_is_a_one_line_error(self, capsys, models, corrupt, message):
        corrupt(models)
        code, out, err = self.run_eval(capsys, models)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("data,message", [
        (("--classes", "3", "--dim", "16", "--per-class", "4"),
         "encoder.bin: input dim 8 does not match the dataset's feature dim 16"),
        (("--classes", "4", "--dim", "8", "--per-class", "4"),
         "classifier.bin: 3 outputs for a dataset of 4 classes"),
    ], ids=["feature-dim", "classes"])
    def test_models_that_do_not_fit_the_data(self, capsys, models, data, message):
        code, out, err = self.run_eval(capsys, models, *data)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestTrainEvalPipeline:

    def test_models_written(self, model_dir):
        for name in ("encoder.bin", "decoder.bin", "classifier.bin"):
            assert (model_dir / name).stat().st_size > 0
        header = (model_dir / "metrics.csv").read_text().splitlines()[0]
        assert header == "epoch,loss,mse,ce,accuracy"

    def test_eval_fixed_sweep(self, capsys, model_dir):
        code, out, _ = run_cli(
            capsys, "eval", "--model-dir", str(model_dir),
            "--classes", "4", "--dim", "16", "--per-class", "30",
            "--noise-sigma", "1.0", "--snr-db", "0:6:6", "--seed", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("channel,snr_db,accuracy")
        assert len(lines) == 3

    def test_eval_uniform_adaptive(self, capsys, model_dir):
        code, out, _ = run_cli(
            capsys, "eval", "--model-dir", str(model_dir),
            "--classes", "4", "--dim", "16", "--per-class", "30",
            "--noise-sigma", "1.0", "--uniform", "0.37:2.5", "--adaptive",
            "--alpha", "0.29", "--alpha-last", "0.45", "--seed", "4",
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[0] == "uniform"
        se = float(row[4])
        assert 2.0 <= se <= 6.0

    def test_eval_requires_channel_spec(self, capsys, model_dir):
        code, _, err = run_cli(
            capsys, "eval", "--model-dir", str(model_dir),
            "--classes", "4", "--dim", "16", "--per-class", "30",
        )
        assert code == 1
        assert "snr-db" in err or "uniform" in err

    @pytest.mark.parametrize("per_block", ["0", "-3"])
    def test_images_per_block_must_be_positive(self, capsys, model_dir, per_block):
        code, out, err = run_cli(
            capsys, "eval", "--model-dir", str(model_dir),
            "--classes", "4", "--dim", "16", "--per-class", "30",
            "--snr-db", "3:3:1", "--images-per-block", per_block,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: images_per_block") and err.count("\n") == 1

    @pytest.mark.parametrize("per_block", ["99999999999999999999", "9223372036854775808"],
                             ids=["1e20", "2**63"])
    def test_images_per_block_above_dataset_size_is_one_block(self, capsys, per_block):
        # GOLDEN_DATA holds 12 images
        argv = ("eval", "--model-dir", str(GOLDEN_MODELS), *GOLDEN_DATA, "--uniform",
                "0.37:2.5", "--adaptive", "--seed", "3", "--images-per-block")
        whole = run_cli(capsys, *argv, "12")
        assert whole[0] == 0
        assert run_cli(capsys, *argv, per_block) == whole

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    @pytest.mark.parametrize("channel,key,value,message", [
        ((), "uniform", "0:inf", "g2"),
        ((), "uniform", "0:1e300", "g2"),
        ((), "uniform", "", "range must be G1:G2"),
        (("--uniform", "0.37:2.5"), "snr-db", "0:0:1", "not allowed with argument"),
        (("--uniform", "0.37:2.5"), "adaptive", "maybe", "expected true or false"),
        ((), "uniform", "0:1e-300", "channel gain |h|^2 must be positive"),
        (("--adaptive",), "uniform", "0:1e-300", "channel gain |h|^2 must be positive"),
        # |h|^2 is subnormal, so 1/|h|^2 overflows the equalizer gain
        ((), "uniform", "0:1e-160", "equalizer gain conj(h)/|h|^2 must be finite"),
        (("--adaptive",), "uniform", "0:1e-160", "equalizer gain conj(h)/|h|^2 must be finite"),
        ((), "uniform", "x:1", "invalid range"),
    ], ids=["uniform-inf", "uniform-1e300", "uniform-empty", "both-channels", "adaptive-maybe",
            "uniform-zero-gain", "uniform-zero-gain-adaptive", "uniform-inf-gain",
            "uniform-inf-gain-adaptive", "uniform-not-numeric"])
    def test_bad_eval_input_is_a_one_line_error(self, capsys, tmp_path, model_dir, channel,
                                                key, value, message, via_config):
        argv = ("eval", "--model-dir", str(model_dir), "--classes", "4", "--dim", "16",
                "--per-class", "30", *channel)
        argv = flag_or_config_line(tmp_path, argv, key, value, via_config)
        assert_one_line_error(*run_cli(capsys, *argv), message)

    @pytest.mark.parametrize("value,adaptive", [("true", True), ("1", True), ("no", False)])
    def test_adaptive_takes_a_boolean(self, capsys, tmp_path, model_dir, value, adaptive):
        argv = ("eval", "--model-dir", str(model_dir), "--classes", "4", "--dim", "16",
                "--per-class", "30", "--uniform", "0.37:2.5", "--seed", "4")
        expected = run_cli(capsys, *argv, *(("--adaptive",) if adaptive else ()))
        assert expected[0] == 0
        assert run_cli(capsys, *flag_or_config_line(tmp_path, argv, "adaptive", value,
                                                    via_config=True)) == expected
        assert run_cli(capsys, *argv, f"--adaptive={value}") == expected

    def test_eval_train_reproducible(self, capsys, model_dir):
        args = ("eval", "--model-dir", str(model_dir), "--classes", "4",
                "--dim", "16", "--per-class", "30", "--noise-sigma", "1.0",
                "--snr-db", "3:3:1", "--seed", "8")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_dataset_pinned_by_data_seed_not_run_seed(self, capsys, model_dir):
        # models must be evaluated on the data they were trained on even when
        # the run seed differs; only --data-seed may change the dataset
        base = ("eval", "--model-dir", str(model_dir), "--classes", "4",
                "--dim", "16", "--per-class", "30", "--noise-sigma", "1.0",
                "--snr-db", "30:30:1")
        _, out_a, _ = run_cli(capsys, *base, "--seed", "8")
        _, out_b, _ = run_cli(capsys, *base, "--seed", "9")
        acc_a = float(out_a.splitlines()[1].split(",")[2])
        acc_b = float(out_b.splitlines()[1].split(",")[2])
        assert abs(acc_a - acc_b) <= 0.1
        _, out_c, _ = run_cli(capsys, *base, "--seed", "8", "--data-seed", "555")
        acc_c = float(out_c.splitlines()[1].split(",")[2])
        assert acc_c < acc_a  # foreign templates are unlearnable for this model

    def test_version_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0


# Each flag draws one of its valid values or, if optional, is left out. Up to two
# flags instead take a value from a pool of malformed, non-finite, negative,
# zero, huge and empty strings, so most runs get past argument parsing.
FUZZ_BAD = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e30", "", "a:b"])


def fuzz_flag(*valid, required=False):
    return st.sampled_from(valid if required else (None, *valid))


def fuzz_tuple(sep, n, parts, *valid, required=False):
    """A whole valid value, or n parts each valid or malformed."""
    return st.one_of(fuzz_flag(*valid, required=required), st.tuples(
        *[st.one_of(st.sampled_from(parts), FUZZ_BAD)] * n).map(sep.join))


# File names resolve inside the fuzz directory, where no "missing" file exists
FUZZ_FILE_FLAGS = ("--config", "--profile", "--model-dir")
FUZZ_CONFIG = st.one_of(st.none(), st.sampled_from(
    ["valid.conf", "unknown.conf", "bad-seed.conf", "bad-adaptive.conf", "missing.conf"]))
FUZZ_SNR_PARTS = ["-3", "0", "0.5", "6"]
FUZZ_SNR_DB = fuzz_tuple(":", 3, FUZZ_SNR_PARTS, "0:6:3", "-3:0:1")
FUZZ_BETAS = fuzz_tuple(",", 3, ["1", "0.6", "0.5"], "1,0.6,0.5")
FUZZ_LINK = {
    "--order": fuzz_flag("2", "4", "6"),
    "--a": fuzz_flag("0", "0.25", "0.5", "1"),
    "--snr-db": FUZZ_SNR_DB,
    # --n-bits stays at or below 2000: bounded memory at any --n-bits is a
    # separate ROADMAP item, so huge bit counts are not drawn here
    "--n-bits": fuzz_flag("1", "7", "2000"),
    "--seed": fuzz_flag("0", "7"),
}
# train and eval always get tiny sizes, so no draw falls back to the default
# 2000-image, 100-epoch run
FUZZ_MODEL_RUN = {
    "--classes": fuzz_flag("2", "3", required=True),
    "--dim": fuzz_flag("4", required=True),
    "--per-class": fuzz_flag("1", "4", required=True),
    "--noise-sigma": fuzz_flag("0", "1"),
    "--data-seed": fuzz_flag("0", "7"),
    "--profile": fuzz_flag("good.csv"),
    "--alpha": fuzz_flag("0", "0.29", "0.5"),
    "--alpha-last": fuzz_flag("0.45"),
    "--a": FUZZ_LINK["--a"],
    "--seed": FUZZ_LINK["--seed"],
}
FUZZ_COMMANDS = {
    "capacity": {"--g1": fuzz_flag("0", "0.37"), "--g2": fuzz_flag("2.5", "4")},
    "demod-regions": {"--order": FUZZ_LINK["--order"], "--a": FUZZ_LINK["--a"]},
    "adaptive-plan": {"--snr-db": fuzz_flag("-3", "0", "6", "20"),
                      "--profile": fuzz_flag("good.csv", required=True),
                      "--betas": FUZZ_BETAS},
    "simulate-ber": FUZZ_LINK,
    "bsec-table": FUZZ_LINK,
    "train": {**FUZZ_MODEL_RUN,
              "--latent-bits": fuzz_flag("1", "3", required=True),
              "--epochs": fuzz_flag("1", "2", required=True),
              "--warmup-epochs": fuzz_flag("0", "1", required=True),
              "--batch-size": fuzz_flag("1", "3"),
              "--learning-rate": fuzz_flag("0.001", "0.1"),
              "--loss-weight": fuzz_flag("0", "0.2")},
    "selfcheck": {"--seed": FUZZ_LINK["--seed"]},
}
FUZZ_EVAL = {**FUZZ_MODEL_RUN,
             "--model-dir": fuzz_flag("models", required=True),
             "--adaptive": fuzz_flag(True, "true", "no"),
             "--fixed-order": FUZZ_LINK["--order"],
             "--betas": FUZZ_BETAS,
             "--images-per-block": fuzz_flag("1", "10")}
# eval takes exactly one channel flag, so each gets its own entry
FUZZ_COMMANDS["eval --snr-db"] = {
    **FUZZ_EVAL, "--snr-db": fuzz_tuple(":", 3, FUZZ_SNR_PARTS, "0:6:3", "-3:0:1",
                                        required=True)}
FUZZ_COMMANDS["eval --uniform"] = {
    **FUZZ_EVAL, "--uniform": fuzz_tuple(":", 2, ["0", "0.37", "2.5", "1e300", "inf"],
                                         "0.37:2.5", required=True)}


@st.composite
def fuzz_argv(draw):
    entry = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    flags = {**FUZZ_COMMANDS[entry], "--config": FUZZ_CONFIG}
    bad = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    argv = [entry.split()[0]]
    for flag, values in flags.items():
        value = draw(FUZZ_BAD if flag in bad else values)
        if value is True:
            argv.append(flag)
        elif value is not None:
            argv.append(f"{flag}={value}")  # the = form lets "-1" and "" through
    return argv


def fuzz_path(arg, base):
    flag, _, name = arg.partition("=")
    return f"{flag}={base / name}" if flag in FUZZ_FILE_FLAGS and name else arg


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    (base / "good.csv").write_text("0,0.29,0.5\n1,0.37,0.5\n2,0.45,0.25\n")
    for name, text in {"valid": "# a run\nseed = 3\n", "unknown": "frobnicate = 3\n",
                       "bad-seed": "seed = abc\n", "bad-adaptive": "adaptive = maybe\n"}.items():
        (base / f"{name}.conf").write_text(text)
    assert main(["train", *TINY_TRAIN, "--profile", str(base / "good.csv"),
                 "--model-dir", str(base / "models"), "--out", str(base / "train.csv")]) == 0
    return base


class TestArgvFuzz:
    @given(argv=fuzz_argv())
    @settings(max_examples=500, deadline=None)
    def test_exit_code_and_one_error_line(self, fuzz_dir, argv):
        argv = [fuzz_path(arg, fuzz_dir) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code != 0:
            assert sum("error:" in line for line in err.getvalue().splitlines()) == 1
