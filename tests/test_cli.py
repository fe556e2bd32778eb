"""CLI contract: CSV schemas, exit codes, reproducibility, config files."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlink.cli import main, parse_sweep, load_profile, load_config_file
from semlink.errors import ConfigError


TINY_TRAIN = ("--classes", "2", "--dim", "4", "--per-class", "4", "--latent-bits", "4",
              "--epochs", "1", "--warmup-epochs", "0")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert "error" in err

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
        (("train", *TINY_TRAIN, "--noise-sigma", "nan"), "noise_sigma"),
        (("train", *TINY_TRAIN, "--latent-bits", "0"), "at least 1 bit"),
    ], ids=["sweep-too-long", "sweep-above-ceiling", "lr-nan", "lr-negative", "loss-weight-nan",
            "noise-sigma-nan", "zero-latent-bits"])
    def test_bad_value_is_a_one_line_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_nan_snr_plan_is_a_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("0,0.3,0.5\n1,0.4,0.5\n")
        code, out, err = run_cli(capsys, "adaptive-plan", "--snr-db", "nan",
                                 "--profile", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: snr must be positive") and err.count("\n") == 1

    def test_selfcheck_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selfcheck", "--seed", "11")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.strip().splitlines())


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


# Each flag draws from its own valid values or from a pool of malformed,
# non-finite, negative, zero, huge and empty strings, or is left out.
FUZZ_BAD = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e30", "", "a:b"])


def fuzz_flag(*valid):
    return st.one_of(st.none(), st.sampled_from(valid), FUZZ_BAD)


def fuzz_triple(sep, *valid):
    return st.one_of(fuzz_flag(*valid), st.tuples(
        *[st.one_of(st.sampled_from(["-3", "0", "0.5", "6"]), FUZZ_BAD)] * 3).map(sep.join))


FUZZ_LINK = {
    "--order": fuzz_flag("2", "4", "6"),
    "--a": fuzz_flag("0", "0.25", "0.5", "1"),
    "--snr-db": fuzz_triple(":", "0:6:3", "-3:0:1"),
    # --n-bits stays at or below 2000: bounded memory at any --n-bits is a
    # separate ROADMAP item, so huge bit counts are not drawn here
    "--n-bits": fuzz_flag("1", "7", "2000"),
    "--seed": fuzz_flag("0", "7"),
}
FUZZ_COMMANDS = {
    "capacity": {"--g1": fuzz_flag("0", "0.37"), "--g2": fuzz_flag("2.5", "4")},
    "demod-regions": {"--order": FUZZ_LINK["--order"], "--a": FUZZ_LINK["--a"]},
    "adaptive-plan": {"--snr-db": fuzz_flag("-3", "0", "6", "20"),
                      "--profile": st.sampled_from(["good", "missing", ""]),
                      "--betas": fuzz_triple(",", "1,0.6,0.5")},
    "simulate-ber": FUZZ_LINK,
    "bsec-table": FUZZ_LINK,
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    argv = [command]
    for flag, values in FUZZ_COMMANDS[command].items():
        value = draw(values)
        if value is not None:
            argv.append(f"{flag}={value}")  # the = form lets "-1" and "" through
    return argv


@pytest.fixture(scope="module")
def fuzz_profile(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "profile.csv"
    path.write_text("0,0.29,0.5\n1,0.37,0.5\n2,0.45,0.25\n")
    return path


class TestArgvFuzz:
    @given(argv=fuzz_argv())
    @settings(max_examples=500, deadline=None)
    def test_exit_code_and_one_error_line(self, fuzz_profile, argv):
        paths = {"--profile=good": f"--profile={fuzz_profile}",
                 "--profile=missing": f"--profile={fuzz_profile.with_name('missing.csv')}"}
        argv = [paths.get(a, a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code != 0:
            assert sum("error:" in line for line in err.getvalue().splitlines()) == 1
