"""Command-line interface.

Every command writes CSV (header row first; selfcheck writes PASS/FAIL lines)
to stdout or --out, formats numbers to 9 significant digits, and is
byte-reproducible given --seed. No subcommand accepts a prefix of a flag.
Exit codes: 0 success, 1 domain/configuration error, 2 I/O or file-format
error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .adaptmod import (
    HETEROGENEOUS_BETAS,
    BetaAdjusters,
    capacity_uniform,
    orders_from_thresholds,
    threshold_table,
)
from .bsec import RobustnessProfile, analytic_params
from .channel import FixedSnr, UniformMagnitude
from .constellation import SUPPORTED_ORDERS, build_constellation
from .datasets import load_idx, synth_dataset
from .demod import a_from_rho, build_regions
from .errors import ConfigError, DomainError, FormatError, SemlinkError
from .harness import (
    chi_square_homogeneity,
    run_end_to_end,
    run_link_montecarlo,
    trit_histogram_bsec,
)
from .jscc import ModelTriple, TrainingConfig, train
from .nn import load_model, save_model
from .numerics import RandomSource

MODEL_FILES = ("encoder.bin", "decoder.bin", "classifier.bin")
MAX_SWEEP_POINTS = 10_000
MAX_SNR_DB = 3000.0  # 10^(3000/10) = 1e300 still fits a float
# the --betas default: HETEROGENEOUS_BETAS as B2,B4,B6, each written to read back exactly
DEFAULT_BETAS = ",".join(repr(b) for b in (HETEROGENEOUS_BETAS.beta2, HETEROGENEOUS_BETAS.beta4,
                                           HETEROGENEOUS_BETAS.beta6))


def fmt(x) -> str:
    """Fixed 9-significant-digit rendering for CSV cells."""
    if isinstance(x, float):
        return format(x, ".9g")
    return str(x)


def write_output(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def emit_csv(header: list[str], rows: list[list], out_path: str | None) -> None:
    lines = [",".join(header), *(",".join(fmt(v) for v in row) for row in rows)]
    write_output("\n".join(lines) + "\n", out_path)


def parse_floats(spec: str, what: str, form: str) -> list[float]:
    """The numbers of spec, split on the separator that form uses (`:` or `,`)."""
    sep = ":" if ":" in form else ","
    parts = spec.split(sep)
    if len(parts) != form.count(sep) + 1:
        raise ConfigError(f"{what} must be {form}, got {spec!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"invalid {what} {spec!r}: {exc}") from exc


def parse_sweep(spec: str) -> np.ndarray:
    """LO:HI:STEP inclusive sweep of SNRs in dB."""
    lo, hi, step = parse_floats(spec, "sweep", "LO:HI:STEP")
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ConfigError(f"sweep bounds must be finite, got {spec!r}")
    if step <= 0 or hi < lo:
        raise ConfigError(f"invalid sweep {spec!r}")
    if hi > MAX_SNR_DB:
        raise ConfigError(f"sweep {spec!r} goes above {MAX_SNR_DB:g} dB")
    span = (hi - lo) / step + 1e-9
    if not span < MAX_SWEEP_POINTS:  # also catches a span that overflows to inf
        raise ConfigError(f"sweep {spec!r} has more than {MAX_SWEEP_POINTS} points")
    return lo + step * np.arange(int(math.floor(span)) + 1)


def _records(path):
    """(line number, raw line, line less its # comment) for each line not left blank."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: byte {exc.start} is not valid UTF-8 ({exc.reason})") from None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, raw, line


def load_profile(path) -> RobustnessProfile:
    """Line-oriented profile file: `index,alpha,a` records, # comments."""
    entries = {}
    for ln, raw, line in _records(path):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"{path}:{ln}: expected `index,alpha,a`, got {raw!r}")
        try:
            idx = int(parts[0])
            alpha_a = (float(parts[1]), float(parts[2]))
        except ValueError as exc:
            raise ConfigError(f"{path}:{ln}: {exc}") from exc
        if idx in entries:
            raise ConfigError(f"{path}:{ln}: duplicate index {idx}")
        entries[idx] = alpha_a
    if not entries:
        raise ConfigError(f"{path}: empty profile")
    base = min(entries)
    if base not in (0, 1) or sorted(entries) != list(range(base, base + len(entries))):
        raise ConfigError(f"{path}: indices must be contiguous from 0 or 1")
    ordered = [entries[i] for i in sorted(entries)]
    try:
        return RobustnessProfile(np.array([alpha for alpha, _ in ordered]),
                                 np.array([a for _, a in ordered]))
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None


def load_config_file(path) -> dict[str, str]:
    """`key = value` lines, UTF-8, # comments."""
    out = {}
    for ln, raw, line in _records(path):
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected `key = value`, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def parse_bool(text: str) -> bool:
    value = text.lower()
    if value not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return value in ("1", "true", "yes", "on")


def _profile_from_args(args, n_bits: int) -> RobustnessProfile:
    if args.profile:
        return load_profile(args.profile)
    if args.alpha_last is not None:
        return RobustnessProfile.linear_ramp(n_bits, args.alpha, args.alpha_last, a=args.a)
    return RobustnessProfile.homogeneous(n_bits, args.alpha, a=args.a)


# ---------------------------------------------------------------- commands


def cmd_capacity(args) -> int:
    emit_csv(["g1", "g2", "capacity"],
             [[args.g1, args.g2, capacity_uniform(UniformMagnitude(args.g1, args.g2))]], args.out)
    return 0


def cmd_demod_regions(args) -> int:
    c = build_constellation(args.order)
    regions = build_regions(c, args.a)
    rows = []
    for br in regions.bits:
        for iv in br.intervals:
            rows.append([br.bit + 1, iv.output, iv.lower, iv.upper])
    emit_csv(["bit", "output", "lower", "upper"], rows, args.out)
    return 0


def _sweep(args):
    """(snr_db, snr, child stream) for each point of the --snr-db sweep."""
    rng = RandomSource(args.seed)
    sweep = parse_sweep(args.snr_db)
    for snr_db, child in zip(sweep, rng.split(len(sweep))):
        yield float(snr_db), 10.0 ** (snr_db / 10.0), child


def cmd_bsec_table(args) -> int:
    rows = []
    for snr_db, snr, child in _sweep(args):
        p = analytic_params(args.order, snr, args.a)  # its errors come before the link's
        stats = run_link_montecarlo(args.order, snr_db, args.a, args.n_bits, child)
        rows.append([snr_db, p.mu, p.d, p.r, stats.flip_rate, stats.erasure_rate,
                     stats.correct_rate, stats.n_bits])
    emit_csv(["snr_db", "mu", "d", "r", "empirical_mu", "empirical_d", "empirical_r",
              "n_bits"], rows, args.out)
    return 0


def cmd_simulate_ber(args) -> int:
    rows = []
    for snr_db, _, child in _sweep(args):
        stats = run_link_montecarlo(args.order, snr_db, args.a, args.n_bits, child)
        rows.append([snr_db, args.order, args.a, stats.n_bits, stats.flip_rate,
                     stats.erasure_rate])
    emit_csv(["snr_db", "order", "a", "n_bits", "ber", "erasure_rate"], rows, args.out)
    return 0


def cmd_adaptive_plan(args) -> int:
    if args.snr_db > MAX_SNR_DB:
        raise ConfigError(f"snr-db {args.snr_db} is above {MAX_SNR_DB:g} dB")
    profile = load_profile(args.profile)
    betas = BetaAdjusters(*parse_floats(args.betas, "betas", "B2,B4,B6"))
    table = threshold_table(profile, betas)
    snr = 10.0 ** (args.snr_db / 10.0)
    orders = orders_from_thresholds([snr], table)[0].tolist()
    rows = []
    for i, (alpha, (t2, t4, t6), order) in enumerate(zip(profile.alphas, table, orders)):
        rows.append([i, float(alpha), float(t2), float(t4), float(t6), order])
    emit_csv(["bit", "alpha", "tau2", "tau4", "tau6", "order"], rows, args.out)
    return 0


def _load_dataset(args):
    if args.idx_labels and not args.idx_images:
        raise ConfigError("--idx-labels needs --idx-images")
    if args.idx_images:
        return load_idx(args.idx_images, args.idx_labels)
    return synth_dataset(args.classes, args.dim, args.per_class, args.noise_sigma,
                         RandomSource(args.data_seed))


def cmd_train(args) -> int:
    dataset = _load_dataset(args)
    profile = _profile_from_args(args, args.latent_bits)
    config = TrainingConfig(
        profile=profile,
        epochs=args.epochs,
        warmup_epochs=args.warmup_epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        loss_weight=args.loss_weight,
        seed=args.seed,
    )
    result = train(dataset, config)
    if args.model_dir:
        out_dir = Path(args.model_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        models = result.models
        for name, model in zip(MODEL_FILES,
                               (models.encoder, models.decoder, models.classifier)):
            save_model(model, out_dir / name)
    rows = [[m.epoch, m.loss, m.mse, m.ce, m.accuracy] for m in result.metrics]
    emit_csv(["epoch", "loss", "mse", "ce", "accuracy"], rows, args.out)
    return 0


def _load_models(model_dir, dataset) -> ModelTriple:
    """Load the three model files and check that they chain with the dataset."""
    paths = [Path(model_dir) / name for name in MODEL_FILES]
    enc, dec, clf = (load_model(path) for path in paths)
    dim = dataset.features.shape[1]
    for path, what, got, want, source in (
        (paths[0], "input", enc.in_dim, dim, "the dataset's feature dim"),
        (paths[1], "input", dec.in_dim, enc.out_dim, "the encoder's output dim"),
        (paths[1], "output", dec.out_dim, dim, "the dataset's feature dim"),
        (paths[2], "input", clf.in_dim, dec.out_dim, "the decoder's output dim"),
    ):
        if got != want:
            raise FormatError(f"{path}: {what} dim {got} does not match {source} {want}")
    if clf.out_dim < dataset.n_classes:
        raise FormatError(f"{paths[2]}: {clf.out_dim} outputs for a dataset of "
                          f"{dataset.n_classes} classes")
    return ModelTriple(enc, dec, clf)


def cmd_eval(args) -> int:
    dataset = _load_dataset(args)
    models = _load_models(args.model_dir, dataset)
    profile = _profile_from_args(args, models.encoder.out_dim)
    betas = BetaAdjusters(*parse_floats(args.betas, "betas", "B2,B4,B6"))
    if args.uniform is not None:
        g1, g2 = parse_floats(args.uniform, "range", "G1:G2")
        runs = [("uniform", "", UniformMagnitude(g1, g2), RandomSource(args.seed))]
    else:
        runs = [("fixed", snr_db, FixedSnr(snr=snr), child)
                for snr_db, snr, child in _sweep(args)]
    metric_names = ["accuracy", "mse", "spectral_efficiency", "flip_rate",
                    "erasure_rate", "bit_bias"]
    rows = []
    for channel, snr_db, distribution, stream in runs:
        metrics = run_end_to_end(models, distribution, profile, betas, args.adaptive,
                                 dataset, stream, images_per_block=args.images_per_block,
                                 fixed_order=args.fixed_order)
        rows.append([channel, snr_db, *(metrics[k] for k in metric_names)])
    emit_csv(["channel", "snr_db", *metric_names], rows, args.out)
    return 0


def cmd_selfcheck(args) -> int:
    rng = RandomSource(args.seed)
    checks: list[tuple[str, bool, str]] = []

    cc = capacity_uniform(UniformMagnitude(0.37, 2.5))
    checks.append(("capacity-uniform", abs(cc - 1.57) <= 0.005, f"C={cc:.6f}"))

    anchor = all(a_from_rho(s, 2, s) == 0.5 for s in (0.1, 1.0, 10.0))
    checks.append(("offset-anchor", anchor, "a(rho=snr, order 2) == 0.5"))

    c4 = build_constellation(4)
    br = build_regions(c4, 0.5).bits[1]
    d = c4.d_min
    sets_ok = (br.index_set(0.0) == (-1, 3) and br.index_set(1.0) == (1,)
               and br.index_set(0.5) == (0, 2))
    ends = sorted(abs(v) / d for iv in br.intervals if iv.output == 0.5
                  for v in (iv.lower, iv.upper))
    ends_ok = np.allclose(ends, [0.75, 0.75, 1.25, 1.25], atol=1e-12)
    checks.append(("boundary-tables", sets_ok and ends_ok, "order-4 bit-2 regions"))

    p = analytic_params(2, 1.0, 0.5)
    stats = run_link_montecarlo(2, 0.0, 0.5, 10**5, rng.split(1)[0])
    tol = 4.0 * math.sqrt(p.mu * (1 - p.mu) / stats.n_bits)
    closure = abs(stats.flip_rate - p.mu) <= tol
    checks.append(("link-closure", closure,
                   f"flip {stats.flip_rate:.5f} vs {p.mu:.5f}"))

    link = run_link_montecarlo(2, 0.0, 0.5, 10**5, rng.split(1)[0])
    h2 = trit_histogram_bsec(1.0, 0.5, 10**5, rng.split(1)[0])
    _, pval = chi_square_homogeneity([link.flips, link.erasures, link.corrects], h2)
    checks.append(("train-test-match", pval > 0.01, f"p={pval:.4f}"))

    lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n" for name, ok, detail in checks]
    write_output("".join(lines), args.out)
    return 0 if all(ok for _, ok, _ in checks) else 1


# ---------------------------------------------------------------- parser


def _add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
    p.add_argument("--out", default=None, help="write output to a file instead of stdout")
    p.add_argument("--config", default=None,
                   help="file of key = value lines, each read as --key=value "
                        "ahead of the other flags")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="random seed")


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--idx-images", default=None, help="IDX image file")
    p.add_argument("--idx-labels", default=None, help="IDX label file")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--per-class", type=int, default=200)
    p.add_argument("--noise-sigma", type=float, default=2.0)
    p.add_argument("--data-seed", type=int, default=100,
                   help="seed of the synthetic dataset itself; keep it equal "
                        "between train and eval so they see the same data")


def _add_profile_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", default=None, help="profile file: index,alpha,a lines")
    p.add_argument("--alpha", type=float, default=0.4, help="robustness level")
    p.add_argument("--alpha-last", type=float, default=None,
                   help="ramp robustness linearly from --alpha to this value")
    p.add_argument("--a", type=float, default=0.5, help="erasure boundary offset")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semlink",
        allow_abbrev=False,
        description="Ternary-demodulated digital links with robustly trained "
                    "autoencoders and per-bit adaptive modulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, epilog=None) -> argparse.ArgumentParser:
        # no prefixes: a --config key is inserted as a flag and must match it in full
        p = sub.add_parser(name, help=help, epilog=epilog, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p = command("capacity", cmd_capacity, "ergodic capacity for sqrt(SNR) ~ U[g1, g2]",
                "CSV columns: g1, g2, capacity")
    p.add_argument("--g1", type=float, required=True)
    p.add_argument("--g2", type=float, required=True)
    _add_common(p, seed=False)

    p = command("demod-regions", cmd_demod_regions, "decision interval table per bit (CSV)",
                "CSV columns: bit (1-based), output (0/0.5/1), "
                "lower, upper (interval bounds, +/-inf at the ends)")
    p.add_argument("--order", type=int, required=True, choices=SUPPORTED_ORDERS)
    p.add_argument("--a", type=float, required=True)
    _add_common(p, seed=False)

    p = command("bsec-table", cmd_bsec_table, "analytic vs empirical channel parameters",
                "CSV columns: snr_db, mu, d, r (closed form), "
                "empirical_mu, empirical_d, empirical_r, n_bits")
    p.add_argument("--order", type=int, required=True, choices=SUPPORTED_ORDERS)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--snr-db", required=True, help="sweep LO:HI:STEP in dB")
    p.add_argument("--n-bits", type=int, default=100000)
    _add_common(p)

    p = command("simulate-ber", cmd_simulate_ber, "link Monte Carlo flip/erasure rates",
                "CSV columns: snr_db, order, a, n_bits, ber, erasure_rate")
    p.add_argument("--order", type=int, required=True, choices=SUPPORTED_ORDERS)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--snr-db", required=True, help="sweep LO:HI:STEP in dB")
    p.add_argument("--n-bits", type=int, default=100000)
    _add_common(p)

    p = command("adaptive-plan", cmd_adaptive_plan, "per-bit thresholds and chosen orders",
                "CSV columns: bit (0-based), alpha, tau2, tau4, tau6, "
                "order (selected bits per symbol)")
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--profile", required=True, help="profile file: index,alpha,a lines")
    p.add_argument("--betas", default=DEFAULT_BETAS, help="B2,B4,B6 adjusting factors")
    _add_common(p, seed=False)

    p = command("train", cmd_train, "train encoder/decoder/classifier over sampled BSECs",
                "CSV columns: epoch, loss, mse, ce, accuracy")
    _add_dataset_args(p)
    _add_profile_args(p)
    p.add_argument("--latent-bits", type=int, default=64,
                   help="encoder output width; a --profile file overrides it")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--warmup-epochs", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--learning-rate", type=float, default=0.001)
    p.add_argument("--loss-weight", type=float, default=0.2,
                   help="weight of the reconstruction loss term")
    p.add_argument("--model-dir", default=None, help="directory for saved models")
    _add_common(p)

    p = command("eval", cmd_eval, "end-to-end evaluation over a physical link",
                "CSV columns: channel (fixed/uniform), snr_db, accuracy, "
                "mse, spectral_efficiency, flip_rate, erasure_rate, "
                "bit_bias (mean sampled encoder bit)")
    _add_dataset_args(p)
    _add_profile_args(p)
    p.add_argument("--model-dir", required=True)
    channel = p.add_mutually_exclusive_group(required=True)
    channel.add_argument("--snr-db", help="sweep LO:HI:STEP in dB")
    channel.add_argument("--uniform", help="G1:G2 channel magnitude range")
    p.add_argument("--adaptive", nargs="?", const=True, default=False, type=parse_bool,
                   metavar="BOOL", help="per-bit order selection (true/false, bare = true)")
    p.add_argument("--fixed-order", type=int, default=2, choices=SUPPORTED_ORDERS)
    p.add_argument("--betas", default=DEFAULT_BETAS)
    p.add_argument("--images-per-block", type=int, default=10,
                   help="images sharing one channel draw")
    _add_common(p)

    _add_common(command("selfcheck", cmd_selfcheck, "run quick internal consistency checks"))

    return parser


def _with_config_lines(argv: list[str]) -> list[str]:
    """Insert each `key = value` line of --config FILE as `--key=value`.

    The tokens go right after the command name, so argparse checks them like
    any flag and flags given later on the command line win.
    """
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False, allow_abbrev=False)
    pre.add_argument("--config")
    try:
        cfg_path = pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        return argv  # a malformed --config is reported by the full parser
    if cfg_path is None or not argv or argv[0].startswith("-"):
        return argv
    lines = load_config_file(cfg_path)
    return [argv[0], *(f"--{key.replace('_', '-')}={value}" for key, value in lines.items()),
            *argv[1:]]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_with_config_lines(argv))
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract reserves 2 for I/O
        return 0 if exc.code in (0, None) else 1
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SemlinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
