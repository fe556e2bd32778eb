"""Order-selection thresholds, symbol planning, and the capacity formula."""

import math
import warnings

import numpy as np
import pytest

from semlink.adaptmod import (
    BetaAdjusters,
    HETEROGENEOUS_BETAS,
    ModPlan,
    capacity_uniform,
    orders_from_thresholds,
    plan_from_thresholds,
    symbol_runs,
    threshold_table,
)
from semlink.bsec import RobustnessProfile, analytic_params
from semlink.channel import UniformMagnitude
from semlink.constellation import SUPPORTED_ORDERS
from semlink.errors import ConfigError, DomainError
from oracles import (
    beta_for,
    exact_params,
    plan_groups,
    plan_symbol_count,
    q_inverse,
    tau_scalar,
    thresholds_scalar,
)

# the largest betas: orders 4 and 6 then reach arguments above 1/2 at alpha <= 0.5
UNIT_BETAS = BetaAdjusters(1.0, 1.0, 1.0)

# the reference adjusters for uniform robustness levels; the library keeps
# only the ramp's, HETEROGENEOUS_BETAS
HOMOGENEOUS_BETAS = BetaAdjusters(0.6599, 0.6003, 0.5553)


def grid_profile(alphas, offsets) -> RobustnessProfile:
    """Every (alpha, a) pair, alpha-major: threshold_table's rows reshape to
    (len(alphas), len(offsets), 3)."""
    return RobustnessProfile(np.repeat(alphas, len(offsets)), np.tile(offsets, len(alphas)))


# Scalar per-bit planner, kept as the oracle for plan_from_thresholds.
class BelowFloorWarning(UserWarning):
    """sqrt(SNR) fell below the order-2 threshold; order 2 used anyway."""


def select_order(snr: float, alpha: float, a: float, betas: BetaAdjusters) -> int:
    """Highest order whose threshold sqrt(SNR) clears; order 2 is the floor."""
    if snr <= 0:
        raise DomainError(f"snr must be positive, got {snr}")
    t2, t4, t6 = threshold_table(RobustnessProfile([alpha], [a]), betas)[0]
    s = math.sqrt(snr)
    if s >= t6:
        return 6
    if s >= t4:
        return 4
    if s < t2:
        warnings.warn(
            f"sqrt(snr)={s:.4g} below the order-2 threshold {t2:.4g}; using order 2",
            BelowFloorWarning,
            stacklevel=2,
        )
    return 2


def plan_assignment(snr: float, profile: RobustnessProfile, betas: BetaAdjusters) -> ModPlan:
    """Select a per-bit order from the channel and pack bits into symbols."""
    orders = tuple(
        select_order(snr, float(alpha), float(a), betas)
        for alpha, a in zip(profile.alphas, profile.a_offsets)
    )
    return ModPlan(orders)


class TestBerApprox:
    def test_order2_values(self):
        assert analytic_params(2, 1.0, 0.0).mu == pytest.approx(0.1586553, abs=1e-7)
        assert analytic_params(2, 1.0, 0.5).mu == pytest.approx(0.0668072, abs=1e-7)

    def test_vanishes_at_high_snr(self):
        assert analytic_params(6, 1e6, 0.0).mu <= 1e-12


class TestTau:
    def test_simplified_forms(self):
        # tau_2 = Qinv(b2 a)/(1+a); tau_4 = sqrt(5) Qinv(4 b4 a / 3)/(1+a);
        # tau_6 = sqrt(21) Qinv(12 b6 a / 7)/(1+a)
        betas = BetaAdjusters(0.9, 0.7, 0.6)
        for alpha in (0.3, 0.4, 0.45):
            for a in (0.0, 0.5):
                forms = (q_inverse(0.9 * alpha) / (1 + a),
                         math.sqrt(5) * q_inverse(4 * 0.7 * alpha / 3) / (1 + a),
                         math.sqrt(21) * q_inverse(12 * 0.6 * alpha / 7) / (1 + a))
                profile = RobustnessProfile([alpha], [a])
                if alpha < 0.45:
                    assert tuple(threshold_table(profile, betas)[0]) == \
                        pytest.approx(forms, abs=1e-12)
                    continue
                # tau_6 falls below tau_4 here; the error shows all three
                with pytest.raises(ConfigError) as err:
                    threshold_table(profile, betas)
                assert str(err.value) == (
                    f"thresholds not ascending for alpha={alpha}, a={a}: "
                    "tau2={:.6g}, tau4={:.6g}, tau6={:.6g}".format(*forms))

    def test_homogeneous_reference(self):
        t2 = threshold_table(RobustnessProfile.homogeneous(1, 0.4), HOMOGENEOUS_BETAS)[0, 0]
        assert t2 == pytest.approx(0.4209, abs=5e-4)
        assert 10 * math.log10(t2**2) == pytest.approx(-7.52, abs=0.02)

    def test_heterogeneous_reference(self):
        t2, t4, t6 = threshold_table(RobustnessProfile.homogeneous(1, 0.45),
                                     HETEROGENEOUS_BETAS)[0]
        assert t2 == pytest.approx(0.0838, abs=5e-4)
        assert t4 == pytest.approx(0.5344, abs=5e-4)
        assert t6 == pytest.approx(0.8875, abs=5e-4)

    def test_budget_met_at_threshold(self):
        profile = RobustnessProfile([0.3, 0.45], [0.5, 0.5])
        for betas in (HOMOGENEOUS_BETAS, HETEROGENEOUS_BETAS):
            for alpha, row in zip(profile.alphas, threshold_table(profile, betas)):
                for m, t in zip(SUPPORTED_ORDERS, row):
                    if t > 0:
                        snr = t * t
                        assert analytic_params(m, snr, 0.5).mu == pytest.approx(
                            beta_for(m, betas) * alpha, rel=1e-9
                        )

    def test_exact_flip_rate_within_alpha_at_threshold(self):
        # the betas absorb the closed form's missing crossings: at the
        # threshold the link's exact flip rate stays within alpha
        profile = grid_profile(np.linspace(0.29, 0.45, 17), [0.0, 0.5])
        for betas in (HOMOGENEOUS_BETAS, HETEROGENEOUS_BETAS):
            table = threshold_table(profile, betas)
            for m in (4, 6):
                for alpha, a, t in zip(profile.alphas, profile.a_offsets, table):
                    snr = t[SUPPORTED_ORDERS.index(m)] ** 2
                    assert exact_params(m, snr, float(a)).mu <= alpha

    def test_alpha_above_half_rejected(self):
        # alpha = 0.5 is the profile's largest level and gives a zero root at
        # order 2; the profile rejects any level above it
        table = threshold_table(RobustnessProfile.homogeneous(1, 0.5, 0.0), UNIT_BETAS)
        assert table[0, 0] == pytest.approx(q_inverse(0.5), abs=1e-12)
        with pytest.raises(DomainError) as err:
            RobustnessProfile([0.3, 0.5, 0.51], [0.0, 0.0, 0.0])
        assert str(err.value) == "robustness levels must lie in [0, 0.5], got 0.51 at bit 2"

    def test_negative_threshold_clamped(self):
        # argument in (0.5, 1) would give a negative root; clamp to zero
        table = threshold_table(RobustnessProfile.homogeneous(1, 0.5, 0.0), UNIT_BETAS)
        assert table.tolist() == [[0.0, 0.0, 0.0]]
        # at alpha 0.45 only orders 4 and 6 clamp, so the row does not ascend
        with pytest.raises(ConfigError) as err:
            threshold_table(RobustnessProfile.homogeneous(1, 0.45, 0.0), UNIT_BETAS)
        assert str(err.value) == ("thresholds not ascending for alpha=0.45, a=0.0: "
                                  "tau2=0.125661, tau4=0, tau6=0")

    def test_nonincreasing_in_alpha(self):
        profile = RobustnessProfile(np.linspace(0.29, 0.45, 30), np.full(30, 0.5))
        t = threshold_table(profile, HETEROGENEOUS_BETAS)
        assert np.all(t[1:] <= t[:-1])

    def test_ordering_over_alpha_grid(self):
        profile = RobustnessProfile(np.linspace(0.29, 0.45, 33), np.full(33, 0.5))
        for betas in (HOMOGENEOUS_BETAS, HETEROGENEOUS_BETAS):
            for t2, t4, t6 in threshold_table(profile, betas):
                assert t2 <= t4 <= t6

    def test_heterogeneous_interleaving(self):
        t_low, t_high = threshold_table(RobustnessProfile([0.29, 0.45], [0.5, 0.5]),
                                        HETEROGENEOUS_BETAS)
        # tau2(low) <= tau4(high) <= tau6(high) <= tau4(low) <= tau6(low)
        assert t_low[0] <= t_high[1] <= t_high[2] <= t_low[1] <= t_low[2]


class TestArrayThresholds:
    """threshold_table equals the scalar oracle byte for byte."""

    # every alpha a profile can plan with: 0 gives an infinite threshold, and
    # 0.5, the largest, a zero root at order 2 with unit betas
    ALPHAS = np.r_[0.0, np.linspace(0.01, 0.5, 50)]
    OFFSETS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])

    def ascending(self, betas) -> np.ndarray:
        """Mask of the ALPHAS whose rows the scalar oracle accepts at every offset."""
        mask = []
        for alpha in self.ALPHAS:
            try:
                for a in self.OFFSETS:
                    thresholds_scalar(float(alpha), float(a), betas)
            except ConfigError:
                mask.append(False)
            else:
                mask.append(True)
        return np.array(mask)

    @pytest.mark.parametrize("betas", [HOMOGENEOUS_BETAS, HETEROGENEOUS_BETAS, UNIT_BETAS],
                             ids=["homogeneous", "heterogeneous", "unit"])
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_tau_matches_scalar_oracle(self, m, betas):
        expected = np.array([[tau_scalar(m, float(alpha), float(a), betas)
                              for a in self.OFFSETS] for alpha in self.ALPHAS])
        # at the largest alphas some rows do not ascend (with unit betas, orders
        # 4 and 6 clamp to 0 before order 2), and threshold_table rejects them
        ascending = self.ascending(betas)
        got = threshold_table(grid_profile(self.ALPHAS[ascending], self.OFFSETS), betas)
        assert got[:, SUPPORTED_ORDERS.index(m)].tobytes() == expected[ascending].tobytes()
        if not ascending.all():
            with pytest.raises(ConfigError, match="thresholds not ascending"):
                threshold_table(grid_profile(self.ALPHAS[~ascending], self.OFFSETS), betas)
        # alpha <= 0.5 keeps the argument at most 1/2, 2/3 and 6/7 at orders 2,
        # 4 and 6 (betas of 1), so only orders 4 and 6 reach a negative root
        root = math.sqrt(1 << m)
        arg = m * root / (4.0 * (root - 1.0)) * beta_for(m, betas) * self.ALPHAS
        assert np.all(arg < 1.0)
        clamped = arg > 0.5
        assert np.any(clamped) == (m > 2 and betas is UNIT_BETAS)
        assert np.all(expected[clamped] == 0.0)

    @pytest.mark.parametrize("betas", [HOMOGENEOUS_BETAS, HETEROGENEOUS_BETAS],
                             ids=["homogeneous", "heterogeneous"])
    def test_table_matches_scalar_oracle(self, betas):
        alphas = np.linspace(0.01, 0.45, 45)
        got = threshold_table(grid_profile(alphas, self.OFFSETS), betas)
        expected = np.array([[thresholds_scalar(float(alpha), float(a), betas)
                              for a in self.OFFSETS] for alpha in alphas])
        assert got.shape == (45 * 5, 3)
        assert got.tobytes() == expected.tobytes()
        profile = RobustnessProfile(alphas, np.resize(self.OFFSETS, 45))
        expected = np.array([thresholds_scalar(float(alpha), float(a), betas)
                             for alpha, a in zip(profile.alphas, profile.a_offsets)])
        assert threshold_table(profile, betas).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("alpha,a,betas,bit,message", [
        ([0.3, -0.1, 0.2, 0.0], [0.5] * 4, HETEROGENEOUS_BETAS, 1,
         "robustness levels must lie in [0, 0.5], got -0.1 at bit 1"),
        ([0.3, 0.4, 0.2], [0.5, 1.5, 2.0], HETEROGENEOUS_BETAS, 1,
         "boundary offsets must lie in [0, 1], got 1.5 at bit 1"),
        ([0.3, 0.5, 0.51, 0.9], [0.5] * 4, HETEROGENEOUS_BETAS, 2,
         "robustness levels must lie in [0, 0.5], got 0.51 at bit 2"),
        # the betas of test_ordering_violation_rejected fail every bit
        ([0.4, 0.3], [0.5] * 2, BetaAdjusters(0.01, 0.99, 0.99), 0, None),
        # these pass at alpha 0.1 and 0.2 and fail from 0.29 on
        ([0.1, 0.2, 0.35, 0.45], [0.5] * 4, BetaAdjusters(0.6, 1.0, 1.0), 2, None),
    ], ids=["alpha-negative", "offset-out-of-range", "alpha-above-half", "not-ascending",
            "not-ascending-later-bit"])
    def test_errors_name_the_first_offending_bit(self, alpha, a, betas, bit, message):
        # a bit out of range is the profile's to reject; a row that does not
        # ascend is threshold_table's, in the scalar oracle's words
        if message is not None:
            with pytest.raises(DomainError) as got:
                RobustnessProfile(alpha, a)
            assert str(got.value) == message
            return
        for i in range(bit):
            thresholds_scalar(alpha[i], a[i], betas)
        with pytest.raises(ConfigError) as expected:
            thresholds_scalar(alpha[bit], a[bit], betas)
        with pytest.raises(ConfigError) as got:
            threshold_table(RobustnessProfile(alpha, a), betas)
        assert str(got.value) == str(expected.value)


class TestSelectOrder:
    def test_reference_decisions(self):
        alpha, a = 0.45, 0.5
        assert select_order(0.7**2, alpha, a, HETEROGENEOUS_BETAS) == 4
        assert select_order(100.0, alpha, a, HETEROGENEOUS_BETAS) == 6
        assert select_order(0.2**2, alpha, a, HETEROGENEOUS_BETAS) == 2

    def test_below_floor_warns_and_returns_2(self):
        with pytest.warns(BelowFloorWarning):
            order = select_order(1e-6, 0.29, 0.5, HETEROGENEOUS_BETAS)
        assert order == 2

    def test_nondecreasing_in_snr(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BelowFloorWarning)
            orders = [
                select_order(s * s, 0.4, 0.5, HETEROGENEOUS_BETAS)
                for s in np.linspace(0.01, 3.0, 400)
            ]
        assert all(a <= b for a, b in zip(orders, orders[1:]))

    def test_order_nondecreasing_in_alpha(self):
        for s in (0.6, 0.9, 1.3):
            orders = [
                select_order(s * s, float(alpha), 0.5, HETEROGENEOUS_BETAS)
                for alpha in np.linspace(0.29, 0.45, 50)
            ]
            assert all(a <= b for a, b in zip(orders, orders[1:]))

    def test_budget_satisfied_above_floor(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            alpha = rng.uniform(0.29, 0.45)
            a = 0.5
            t2, _, _ = threshold_table(RobustnessProfile([alpha], [a]), HETEROGENEOUS_BETAS)[0]
            s = rng.uniform(max(t2, 0.05), 3.0)
            m = select_order(s * s, alpha, a, HETEROGENEOUS_BETAS)
            assert analytic_params(m, s * s, a).mu <= beta_for(m, HETEROGENEOUS_BETAS) * alpha + 1e-12

    def test_ordering_violation_rejected(self):
        bad = BetaAdjusters(0.01, 0.99, 0.99)
        with pytest.raises(ConfigError):
            select_order(1.0, 0.4, 0.5, bad)


class TestPlanning:
    def test_all_order2(self):
        plan = ModPlan((2,) * 96)
        n_sym = plan_symbol_count(plan.orders)
        assert n_sym == 48
        assert plan.padding_bits == 0
        assert 96 / n_sym == pytest.approx(2.0)

    def test_all_order6_no_padding(self):
        n_sym = plan_symbol_count((6,) * 96)
        assert n_sym == 16
        assert 96 / n_sym == pytest.approx(6.0)

    def test_ceiling_padding(self):
        plan = ModPlan((4,) * 5)
        assert len(plan_groups(plan.orders)) == 1
        assert plan.padding_bits == 3
        assert plan_symbol_count(plan.orders) == 2

    def test_mixed_half_half(self):
        profile = RobustnessProfile(
            np.concatenate([np.full(48, 0.3), np.full(48, 0.45)]),
            np.full(96, 0.5),
        )
        # pick an SNR where low-alpha bits ride order 2 and high-alpha order 4
        t4 = threshold_table(profile, HETEROGENEOUS_BETAS)[:, 1]
        s = 0.5 * (t4[-1] + t4[0])
        plan = plan_assignment(s * s, profile, HETEROGENEOUS_BETAS)
        assert sorted(set(plan.orders)) == [2, 4]
        n_sym = plan_symbol_count(plan.orders)
        assert n_sym == 24 + 12
        assert 96 / n_sym == pytest.approx(96 / 36)

    def test_groups_partition_bits(self):
        profile = RobustnessProfile.linear_ramp(96, 0.29, 0.45)
        plan = plan_assignment(1.0, profile, HETEROGENEOUS_BETAS)
        groups = plan_groups(plan.orders)
        seen = [i for _, idxs in groups for i in idxs]
        assert seen == list(range(96))
        assert len(groups) <= 3
        for order, idxs in groups:
            assert (len(idxs) + (-len(idxs)) % order) % order == 0

    def test_threshold_table_matches_plan_assignment(self):
        profile = RobustnessProfile.linear_ramp(32, 0.29, 0.45)
        table = threshold_table(profile, HETEROGENEOUS_BETAS)
        for snr in (0.3, 0.9, 2.2, 5.0):
            assert plan_from_thresholds(snr, table) == plan_assignment(
                snr, profile, HETEROGENEOUS_BETAS
            )

    def test_order_matrix_rows_match_plan_assignment(self):
        profile = RobustnessProfile(np.linspace(0.29, 0.45, 32), np.resize([0.0, 0.5, 1.0], 32))
        table = threshold_table(profile, HETEROGENEOUS_BETAS)
        snrs = [0.3, 0.9, 2.2, 5.0, 1e9]
        orders = orders_from_thresholds(snrs, table)
        assert orders.shape == (5, 32)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BelowFloorWarning)  # snr 0.3 is below some floors
            for snr, row in zip(snrs, orders):
                assert tuple(row) == plan_assignment(snr, profile, HETEROGENEOUS_BETAS).orders

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_order_matrix_rejects_nonpositive_snr(self, bad):
        table = threshold_table(RobustnessProfile.homogeneous(4, 0.4), HETEROGENEOUS_BETAS)
        with pytest.raises(DomainError, match="snr must be positive"):
            orders_from_thresholds([1.0, bad], table)

    def test_staircase_composition_sequence(self):
        profile = RobustnessProfile.linear_ramp(96, 0.29, 0.45, a=0.5)
        table = threshold_table(profile, HETEROGENEOUS_BETAS)
        seen = []
        for s in np.arange(0.05, 2.6, 0.005):
            comp = tuple(sorted(set(plan_from_thresholds(s * s, table).orders)))
            if not seen or seen[-1] != comp:
                seen.append(comp)
        assert seen == [(2,), (2, 4), (2, 4, 6), (4, 6), (6,)]

    @pytest.mark.parametrize("n_bits", [1, 2, 5, 37])
    def test_symbol_runs_match_plan_groups(self, n_bits):
        # rows with one, two and three orders, as random mixes and as staircases
        rng = np.random.default_rng(n_bits)
        rows = [np.full(n_bits, m) for m in (2, 4, 6)]
        for choices in ((2, 4), (4, 6), (2, 6), (2, 4, 6)):
            rows.append(rng.choice(choices, n_bits))
            rows.append(np.sort(rng.choice(choices, n_bits)))
        orders = np.array(rows)
        row, start, length, order, symbols = symbol_runs(orders)
        assert np.array_equal(row, np.sort(row))
        for r, orders_r in enumerate(orders):
            sel = row == r
            groups = plan_groups(tuple(int(o) for o in orders_r))
            assert [(int(m), int(s), int(n)) for m, s, n in
                    zip(order[sel], start[sel], length[sel])] == \
                [(m, idxs[0], len(idxs)) for m, idxs in groups]
            assert symbols[sel].tolist() == \
                [(len(idxs) + (-len(idxs)) % m) // m for m, idxs in groups]
            padding = [(-len(idxs)) % m for m, idxs in groups]
            assert (symbols[sel] * order[sel] - length[sel]).tolist() == padding
            assert ModPlan(tuple(int(o) for o in orders_r)).padding_bits == sum(padding)


class TestCapacity:
    def test_reference_value(self):
        assert capacity_uniform(UniformMagnitude(0.37, 2.5)) == pytest.approx(1.57, abs=0.005)

    def test_degenerate_limit_is_pointwise_capacity(self):
        for g in (0.5, 1.0, 2.0):
            c = capacity_uniform(UniformMagnitude(g, g + 1e-6))
            assert c == pytest.approx(math.log2(1 + g * g), abs=1e-4)

    def test_monotone_in_upper_endpoint(self):
        caps = [capacity_uniform(UniformMagnitude(0.37, g2)) for g2 in np.linspace(0.5, 4.0, 40)]
        assert all(a < b for a, b in zip(caps, caps[1:]))

    def test_domain(self):
        # the distribution's constructor is the range check
        for g1, g2 in ((2.0, 1.0), (-0.5, 1.0), (math.nan, 1.0)):
            with pytest.raises(DomainError) as err:
                UniformMagnitude(g1, g2)
            assert str(err.value) == f"require 0 <= g1 < g2, got [{g1}, {g2}]"
        for g2 in (1e200, math.inf):  # g2 * g2 overflows
            with pytest.raises(DomainError) as err:
                UniformMagnitude(0.0, g2)
            assert str(err.value) == f"g2^2 must be finite, got g2={g2}"

    def test_large_finite_range(self):
        assert capacity_uniform(UniformMagnitude(0.0, 1e154)) == pytest.approx(1020.26846,
                                                                               abs=1e-5)


def test_beta_validation():
    with pytest.raises(DomainError):
        BetaAdjusters(0.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        BetaAdjusters(0.5, 0.5, 1.5)
    assert HETEROGENEOUS_BETAS.beta2 == 1.0
