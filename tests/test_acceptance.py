"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line per
criterion. Criteria with runtime budgets assert them.
"""

import math
import time

import numpy as np
import pytest

from semlink.adaptmod import (
    HETEROGENEOUS_BETAS,
    capacity_uniform,
    plan_from_thresholds,
    threshold_table,
)
from semlink.bsec import RobustnessProfile, analytic_params
from semlink.channel import FixedSnr, UniformMagnitude
from semlink.cli import main
from semlink.constellation import build_constellation
from semlink.datasets import synth_dataset
from semlink.demod import a_from_rho, build_regions, demod_robust
from semlink.harness import (
    chi_square_homogeneity,
    run_end_to_end,
    run_link_montecarlo,
    trit_histogram_bsec,
)
from semlink.jscc import TrainingConfig, eval_under_bsec, train, warmup_only_config
from semlink.nn import init_model, mse_loss
from semlink.numerics import RandomSource

from oracles import (
    demod_llr,
    exact_params,
    mean_adaptive_se,
    nearest_words,
    rho_from_a,
    unpack_words,
)


def verdict(ok: bool, name: str, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_capacity_reproduction():
    dist = UniformMagnitude(0.37, 2.5)
    capacity_uniform(dist)  # warm the code path before timing
    t0 = time.perf_counter()
    c = capacity_uniform(dist)
    elapsed = time.perf_counter() - t0
    ok = abs(c - 1.57) <= 0.005 and elapsed < 1e-3
    verdict(ok, "criterion-1 capacity",
            f"C={c:.6f} (target 1.57 +/- 0.005), {elapsed * 1e6:.0f} us")


def test_criterion_02_offset_anchor():
    values = {snr: a_from_rho(snr, 2, snr) for snr in (0.1, 1.0, 10.0)}
    ok = all(v == 0.5 for v in values.values())
    verdict(ok, "criterion-2 threshold-offset anchor",
            f"a(rho=snr) = {sorted(set(values.values()))} (exactly 0.5 required)")


def test_criterion_03_boundary_tables():
    c = build_constellation(4)
    br = build_regions(c, 0.5).bits[1]
    d = c.d_min
    sets_ok = (
        br.index_set(0.0) == (-1, 3)
        and br.index_set(1.0) == (1,)
        and br.index_set(0.5) == (0, 2)
    )
    bands = sorted(
        (iv.lower, iv.upper) for iv in br.intervals if iv.output == 0.5
    )
    expected = [(-1.25 * d, -0.75 * d), (0.75 * d, 1.25 * d)]
    ends_ok = all(
        abs(got[0] - want[0]) <= 1e-12 and abs(got[1] - want[1]) <= 1e-12
        for got, want in zip(bands, expected)
    )
    verdict(sets_ok and ends_ok, "criterion-3 boundary-index sets",
            f"index sets {br.index_set(0.0)}/{br.index_set(1.0)}/{br.index_set(0.5)}, "
            f"band edges at +/-0.75d, +/-1.25d")


def test_criterion_04_analytic_empirical_closure():
    # Order 2: the closed form is exact there, so flips and erasures must sit
    # within 3 binomial sigma of it. Orders 4 and 6, at the points where the
    # paper's nearest-boundary closed form puts mu in [1e-3, 0.2]: the link's
    # exact map exact_params must match the simulated flip rate within the
    # 0.15 band and 3 sigma, and its erasure rate within 3 sigma. The closed
    # form itself is held to the 0.15 band at order 4 only; at order 6 its
    # relative error there is 0.18-0.29, since it leaves out the crossings
    # past the nearest boundary, so it is printed alongside the exact and
    # empirical rates.
    t0 = time.perf_counter()
    failures = []
    rng = RandomSource(20260808)
    n = 10**6
    for a in (0.0, 0.5):
        for snr_db in (-3.0, 0.0, 3.0, 6.0):
            stats = run_link_montecarlo(2, snr_db, a, n, rng.split(1)[0])
            p = analytic_params(2, 10 ** (snr_db / 10), a)
            tol_mu = 3 * math.sqrt(p.mu * (1 - p.mu) / stats.n_bits)
            tol_d = 3 * math.sqrt(max(p.d * (1 - p.d), 1e-12) / stats.n_bits)
            if abs(stats.flip_rate - p.mu) > tol_mu:
                failures.append(f"order2 a={a} {snr_db}dB flip")
            if abs(stats.erasure_rate - p.d) > tol_d + 1e-9:
                failures.append(f"order2 a={a} {snr_db}dB erasure")
    checked = 0
    print("\norder a snr_db | flip: empirical exact nearest (rel) | "
          "erasure: empirical exact nearest")
    for order in (4, 6):
        for a in (0.0, 0.5):
            for snr_db in (-3.0, 0.0, 3.0, 6.0):
                snr = 10 ** (snr_db / 10)
                p = analytic_params(order, snr, a)
                if not (1e-3 <= p.mu <= 0.2):
                    continue
                checked += 1
                stats = run_link_montecarlo(order, snr_db, a, n, rng.split(1)[0])
                e = exact_params(order, snr, a)
                rel_exact = abs(stats.flip_rate - e.mu) / e.mu
                rel_nearest = abs(stats.flip_rate - p.mu) / p.mu
                print(f"{order} {a} {snr_db:+.0f} | {stats.flip_rate:.5f} {e.mu:.5f} "
                      f"{p.mu:.5f} ({rel_nearest:.3f}) | {stats.erasure_rate:.5f} "
                      f"{e.d:.5f} {p.d:.5f}")
                tol_mu = 3 * math.sqrt(e.mu * (1 - e.mu) / stats.n_bits)
                tol_d = 3 * math.sqrt(max(e.d * (1 - e.d), 1e-12) / stats.n_bits)
                if rel_exact > 0.15 or abs(stats.flip_rate - e.mu) > tol_mu:
                    failures.append(f"order{order} a={a} {snr_db}dB exact flip "
                                    f"{e.mu:.5f} vs empirical {stats.flip_rate:.5f}")
                if abs(stats.erasure_rate - e.d) > tol_d + 1e-9:
                    failures.append(f"order{order} a={a} {snr_db}dB exact erasure "
                                    f"{e.d:.5f} vs empirical {stats.erasure_rate:.5f}")
                if order == 4 and rel_nearest > 0.15:
                    failures.append(f"order4 a={a} {snr_db}dB nearest-boundary "
                                    f"rel={rel_nearest:.3f}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    verdict(ok, "criterion-4 analytic/empirical closure",
            f"{16 + checked} comparisons in {elapsed:.1f}s; "
            f"failures={failures or 'none'}")


def test_criterion_05_demodulator_equivalence():
    disagreements = 0
    pairs = 0
    rng = RandomSource(55)
    for order in (2, 4, 6):
        c = build_constellation(order)
        for a in (0.0, 0.25, 0.5, 1.0):
            y = 1.5 * (rng.std_normal(10**5) + 1j * rng.std_normal(10**5))
            snr = 2.2
            by_regions = demod_robust(y, build_regions(c, a), a)
            by_llr = demod_llr(y, c, snr, rho_from_a(a, order, snr))
            disagreements += int(np.sum(by_regions != by_llr))
            pairs += 1
            if a == 0.0:
                hard = unpack_words(nearest_words(y, c), order).astype(float)
                disagreements += int(np.sum(by_regions != hard))
    verdict(disagreements == 0, "criterion-5 demodulator equivalence",
            f"{pairs} (order, a) pairs x 1e5 samples, {disagreements} disagreements")


def test_criterion_06_staircase():
    profile = RobustnessProfile.linear_ramp(96, 0.29, 0.45, a=0.5)
    table = threshold_table(profile, HETEROGENEOUS_BETAS)
    seen = []
    for s in np.arange(0.05, 2.6, 0.005):
        comp = tuple(sorted(set(plan_from_thresholds(float(s * s), table).orders)))
        if not seen or seen[-1] != comp:
            seen.append(comp)
    expected = [(2,), (2, 4), (2, 4, 6), (4, 6), (6,)]
    verdict(seen == expected, "criterion-6 staircase",
            f"composition sequence {seen}")


def test_criterion_07_adaptive_se_band():
    t0 = time.perf_counter()
    profile = RobustnessProfile.linear_ramp(96, 0.29, 0.45, a=0.5)
    se = mean_adaptive_se(UniformMagnitude(0.37, 2.5), profile,
                          HETEROGENEOUS_BETAS, 20000, RandomSource(7))
    elapsed = time.perf_counter() - t0
    ok = 3.6 <= se <= 4.0 and elapsed < 10.0
    verdict(ok, "criterion-7 adaptive spectral efficiency",
            f"mean SE {se:.4f} in [3.6, 4.0], {elapsed:.1f}s")


def test_criterion_08_gradient_integrity():
    rng = RandomSource(88)
    checks = 0
    worst = 0.0
    for _ in range(100):
        n_layers = int(rng.uniform(1, 3.999))
        dims = [int(rng.uniform(2, 32.999)) for _ in range(n_layers + 1)]
        pool = ("relu", "sigmoid", "identity")
        acts = [pool[int(rng.uniform(0, 2.999))] for _ in range(n_layers)]
        model = init_model(dims, acts, rng)
        x = rng.std_normal((4, dims[0]))
        target = rng.std_normal((4, dims[-1]))
        out = model.forward(x)
        _, grad_out = mse_loss(target, out)
        model.backward(grad_out)

        def loss():
            return mse_loss(target, model.forward(x))[0]

        layer = model.layers[int(rng.uniform(0, n_layers - 1e-9))]
        idx = (
            int(rng.uniform(0, layer.weight.shape[0] - 1e-9)),
            int(rng.uniform(0, layer.weight.shape[1] - 1e-9)),
        )
        eps = 1e-6
        orig = layer.weight[idx]
        layer.weight[idx] = orig + eps
        up = loss()
        layer.weight[idx] = orig - eps
        down = loss()
        layer.weight[idx] = orig
        fd = (up - down) / (2 * eps)
        analytic = layer.grad_weight[idx]
        rel = abs(analytic - fd) / max(1e-7, abs(fd))
        worst = max(worst, rel)
        checks += 1
        if rel > 1e-4:
            verdict(False, "criterion-8 gradient integrity",
                    f"check {checks}: rel err {rel:.2e}")
    verdict(checks == 100 and worst <= 1e-4, "criterion-8 gradient integrity",
            f"{checks} random checks, worst relative error {worst:.2e}")


@pytest.fixture(scope="module")
def criterion9_models():
    """Criterion 9's dataset and its robust and warm-up-only models per
    training seed, trained once for criteria 9 and 12."""
    dataset = synth_dataset(10, 64, 200, 2.0, RandomSource(100))
    profile = RobustnessProfile.homogeneous(64, 0.4, a=0.5)
    models = {}
    for seed in (1, 2, 3):
        config = TrainingConfig(profile=profile, epochs=100, warmup_epochs=5,
                                batch_size=256, seed=seed)
        t0 = time.perf_counter()
        robust = train(dataset, config)
        t_robust = time.perf_counter() - t0
        t0 = time.perf_counter()
        baseline = train(dataset, warmup_only_config(config))
        t_base = time.perf_counter() - t0
        assert max(t_robust, t_base) < 300.0, "training run exceeded 5 minutes"
        models[seed] = (robust.models, baseline.models)
    return dataset, profile, models


def test_criterion_09_robustness_payoff(criterion9_models):
    dataset, _, models = criterion9_models
    gaps = []
    details = []
    for seed, (robust, baseline) in models.items():
        acc_robust, _ = eval_under_bsec(robust, dataset, 0.2, 0.0, RandomSource(1000 + seed))
        acc_base, _ = eval_under_bsec(baseline, dataset, 0.2, 0.0, RandomSource(2000 + seed))
        gaps.append(acc_robust - acc_base)
        details.append(f"seed{seed}: {acc_robust:.3f} vs {acc_base:.3f}")
    mean_gap = float(np.mean(gaps))
    verdict(mean_gap >= 0.10, "criterion-9 robustness payoff",
            f"mean gap {mean_gap * 100:.1f} points ({'; '.join(details)})")


def test_criterion_12_link_robustness_payoff(criterion9_models):
    """Criterion 9's payoff over the digital link with the erasure demodulator:
    adaptively over |h| ~ U[0.37, 2.5], at fixed order 6 and 3 dB, and under
    that point's exact-map BSEC. Seeds and SNRs were fixed before the gaps
    were looked at."""
    dataset, profile, models = criterion9_models
    snr = 10 ** 0.3
    exact = exact_params(6, snr, 0.5)
    routes = {
        "adaptive": lambda m, s: run_end_to_end(
            m, UniformMagnitude(0.37, 2.5), profile, HETEROGENEOUS_BETAS, True, dataset,
            RandomSource(3000 + s))["accuracy"],
        "order-6 3 dB": lambda m, s: run_end_to_end(
            m, FixedSnr(snr), profile, HETEROGENEOUS_BETAS, False, dataset,
            RandomSource(4000 + s), fixed_order=6)["accuracy"],
        "exact BSEC": lambda m, s: eval_under_bsec(
            m, dataset, exact.mu, exact.d, RandomSource(5000 + s))[0],
    }
    details = []
    ok = True
    for name, accuracy in routes.items():
        gaps = [accuracy(robust, s) - accuracy(baseline, s)
                for s, (robust, baseline) in models.items()]
        mean_gap = float(np.mean(gaps))
        ok = ok and mean_gap >= 0.10
        details.append(f"{name} {mean_gap * 100:.1f}")
    verdict(ok, "criterion-12 link robustness payoff",
            f"mean gaps in points: {'; '.join(details)} (>= 10 each)")


def test_criterion_10_cli_determinism(capsys, tmp_path):
    tiny = ["--classes", "3", "--dim", "8", "--per-class", "20",
            "--noise-sigma", "1.0", "--latent-bits", "8"]
    model_dir = tmp_path / "models"
    cases = [
        ["capacity", "--g1", "0.37", "--g2", "2.5"],
        ["simulate-ber", "--order", "4", "--a", "0.5", "--snr-db", "0:6:3",
         "--n-bits", "30000", "--seed", "21"],
        ["bsec-table", "--order", "2", "--a", "0.5", "--snr-db", "0:3:3",
         "--n-bits", "30000", "--seed", "22"],
        ["demod-regions", "--order", "6", "--a", "0.25"],
        ["selfcheck", "--seed", "23"],
        ["train", *tiny, "--epochs", "3", "--warmup-epochs", "1",
         "--model-dir", str(model_dir), "--seed", "24"],
        ["eval", *tiny[:-2], "--model-dir", str(model_dir),
         "--snr-db", "0:3:3", "--seed", "25"],
    ]
    profile = tmp_path / "profile.csv"
    profile.write_text("".join(f"{i},{0.29 + 0.16 * i / 95:.6f},0.5\n" for i in range(96)))
    cases.append(["adaptive-plan", "--snr-db", "0", "--profile", str(profile)])
    all_ok = True
    for argv in cases:
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        all_ok = all_ok and code1 == code2 == 0 and out1 == out2 and out1
    verdict(bool(all_ok), "criterion-10 CLI determinism",
            f"{len(cases)} commands byte-identical across repeated runs")


def test_criterion_11_train_test_statistical_equivalence():
    link = run_link_montecarlo(2, 0.0, 0.5, 10**5, RandomSource(777))
    h_link = [link.flips, link.erasures, link.corrects]
    h_bsec = trit_histogram_bsec(1.0, 0.5, 10**5, RandomSource(778))
    stat, p = chi_square_homogeneity(h_link, h_bsec)
    verdict(p > 0.01, "criterion-11 train/test equivalence",
            f"chi2={stat:.3f}, p={p:.4f} (> 0.01 required); "
            f"link={h_link} model={h_bsec.tolist()}")
