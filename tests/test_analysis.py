import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vccsat.analysis import (
    alpha2_closed_form,
    avg_sum_rate_closed_form,
    best_rate_closed_form,
    effective_gain_closed_form,
    intra_interference_term,
    xi_moments_closed_form,
)
from vccsat.channel import SCENARIOS, ShadowingParams
from vccsat.linkphy import SystemConfig


def make_config(**kwargs):
    base = dict(
        l_antennas=8,
        g_groups=6,
        q_mux=4,
        p_t=10.0,
        shadowing=SCENARIOS["AS"],
        sigma_e2=0.125,
        t_coherence=10_000,
        theta_pilot=12,
    )
    base.update(kwargs)
    return SystemConfig(**base)


config_strategy = st.builds(
    make_config,
    l_antennas=st.integers(1, 32),
    g_groups=st.integers(1, 8),
    q_mux=st.integers(2, 8),
    p_t=st.floats(1e-3, 1e3),
    sigma_e2=st.sampled_from([0.0, 0.05, 0.125, 0.25]),
    shadowing=st.sampled_from([SCENARIOS["FHS"], SCENARIOS["AS"], SCENARIOS["ILS"]]),
)


class TestAlpha2:
    def test_unit_denominator(self):
        config = make_config(
            g_groups=1,
            q_mux=1,
            l_antennas=1,
            p_t=1.0,
            sigma_e2=0.0,
            shadowing=ShadowingParams(m=1.0, beta=0.5, omega=0.0),
        )
        assert alpha2_closed_form(config) == pytest.approx(1.0)

    def test_hand_evaluated_as_point(self):
        config = make_config(p_t=1.0)
        assert alpha2_closed_form(config) == pytest.approx(1.0 / (6 * 4 * 8 * 1.212), rel=1e-12)
        assert alpha2_closed_form(config) == pytest.approx(4.298e-3, rel=1e-3)

    def test_baseline_factor_scales_with_g(self):
        vcc = make_config()
        base = make_config(g_groups=1)
        assert alpha2_closed_form(base) == pytest.approx(6 * alpha2_closed_form(vcc))

    @pytest.mark.parametrize("sigma_e2", [0.0, 0.125])
    def test_zero_power_channel_rejected(self, sigma_e2):
        # with sigma_e2 > 0 the estimate has power although the channel has none
        config = make_config(shadowing=ShadowingParams(m=1.0, beta=0.0, omega=0.0), sigma_e2=sigma_e2)
        with pytest.raises(ValueError, match="mean channel power is zero"):
            alpha2_closed_form(config)


class TestXiMoments:
    def test_xi2_perfect_csit(self):
        p = SCENARIOS["ILS"]
        moments = xi_moments_closed_form(make_config(shadowing=p, sigma_e2=0.0, l_antennas=8))
        assert moments.xi2 == pytest.approx(8 * p.element_power() ** 2)

    def test_xi1_rayleigh_limit(self):
        # omega = 0: xi1 = 4 beta^2 L (L + 1)
        p = ShadowingParams(m=1.0, beta=0.35, omega=0.0)
        for l_antennas in (1, 4, 9):
            moments = xi_moments_closed_form(make_config(shadowing=p, sigma_e2=0.1, l_antennas=l_antennas))
            assert moments.xi1 == pytest.approx(4 * 0.35**2 * l_antennas * (l_antennas + 1))

    def test_desired_moment_extends_xi1(self):
        p = SCENARIOS["AS"]
        moments = xi_moments_closed_form(make_config(shadowing=p, sigma_e2=0.125, l_antennas=8))
        assert moments.desired == pytest.approx(moments.xi1 + 0.125 * 8 * p.element_power())

    @given(config=config_strategy)
    @settings(max_examples=50, deadline=None)
    def test_xi1_jensen_lower_bound(self, config):
        moments = xi_moments_closed_form(config)
        mean_norm2 = config.l_antennas * config.shadowing.element_power()
        assert moments.xi1 >= mean_norm2**2 - 1e-9


class TestAvgSumRate:
    def test_single_user_has_no_interference_term(self):
        config = make_config(g_groups=1, q_mux=1)
        a2 = alpha2_closed_form(config)
        expected = config.xi * np.log2(
            1 + a2 * xi_moments_closed_form(config).desired
        )
        assert avg_sum_rate_closed_form(config) == pytest.approx(expected, rel=1e-12)

    def test_pinned_value_as_l8_g6_q4(self):
        # frozen from an independent pre-implementation evaluation of the
        # closed form; the Monte Carlo cross-check lives in the acceptance suite
        assert avg_sum_rate_closed_form(make_config()) == pytest.approx(31.4598, rel=1e-4)

    def test_rate_increases_with_power(self):
        rates = [avg_sum_rate_closed_form(make_config(p_t=p)) for p in (0.1, 1.0, 10.0, 100.0)]
        assert all(a < b for a, b in zip(rates, rates[1:]))


class TestIntraInterferenceTerm:
    def test_single_slot_vanishes(self):
        assert intra_interference_term(make_config(q_mux=1)) == 0.0

    def test_hand_evaluated_as_point(self):
        # P_t (Q-1) (2 beta + omega) / (G Q) for AS, G=6, Q=4, P_t=1
        config = make_config(p_t=1.0)
        assert intra_interference_term(config) == pytest.approx(3 * 1.087 / 24, rel=1e-12)

    @given(config=config_strategy)
    @settings(max_examples=100, deadline=None)
    def test_identity_with_alpha2_and_xi2(self, config):
        product = (
            alpha2_closed_form(config)
            * (config.q_mux - 1)
            * xi_moments_closed_form(config).xi2
        )
        term = intra_interference_term(config)
        assert abs(product - term) <= 1e-12 * term

    def test_independent_of_csit_error_bitwise(self):
        values = {
            intra_interference_term(make_config(sigma_e2=s)) for s in (0.0, 0.125, 0.25)
        }
        assert len(values) == 1


class TestEffectiveGain:
    def test_self_ratio_is_one(self):
        config = make_config(g_groups=1)
        res = effective_gain_closed_form(config, q_max=8, q_max_baseline=8)
        assert res.gain == pytest.approx(1.0, rel=1e-12)
        assert res.best_q_vcc == res.best_q_baseline

    def test_fhs_anchor_at_15_db(self):
        config = make_config(shadowing=SCENARIOS["FHS"], p_t=10**1.5)
        res = effective_gain_closed_form(config, q_max=8, q_max_baseline=8)
        assert 2.7 <= res.gain <= 3.3
        # frozen from an independent pre-implementation evaluation
        assert res.gain == pytest.approx(3.023929, rel=1e-5)
        assert res.best_q_vcc == 8 and res.best_q_baseline == 8

    def test_gain_consistent_with_rates(self):
        res = effective_gain_closed_form(make_config(), q_max=8, q_max_baseline=8)
        assert res.gain == pytest.approx(res.rate_vcc / res.rate_baseline)

    def test_tie_break_prefers_smaller_q(self):
        q, _ = best_rate_closed_form(make_config(), q_max=2)
        assert q == 2

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            effective_gain_closed_form(make_config(), q_max=1)
        with pytest.raises(ValueError):
            effective_gain_closed_form(make_config(), q_max=11)

    def test_best_q_within_grid(self):
        res = effective_gain_closed_form(make_config(), q_max=5, q_max_baseline=3)
        assert 2 <= res.best_q_vcc <= 5
        assert 2 <= res.best_q_baseline <= 3
