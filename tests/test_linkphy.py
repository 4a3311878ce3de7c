import numpy as np
import pytest

from reference import (
    block_sinr,
    effective_sum_rate,
    gram_powers,
    full_signal_roundtrip,
    inter_group_component,
    intra_group_reference,
    sample_block,
    transmit_vector,
)
from vccsat.channel import SCENARIOS, scenario, substream
from vccsat.linkphy import SystemConfig, sinr_batch


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


def unit_symbols(rng, shape):
    g = rng.standard_normal(shape + (2,))
    return np.sqrt(0.5) * (g[..., 0] + 1j * g[..., 1])


class TestSystemConfig:
    def test_xi_overhead_arithmetic(self):
        assert make_config().xi == pytest.approx(1 - 288 / 10_000)
        baseline = make_config(g_groups=1, q_mux=8, t_coherence=1_000)
        assert baseline.xi == pytest.approx(0.904)

    def test_overhead_must_fit_in_block(self):
        with pytest.raises(ValueError, match="G\\*Q\\*Theta must be < T"):
            make_config(t_coherence=288)

    def test_q_bounds(self):
        with pytest.raises(ValueError, match="q_mux"):
            make_config(q_mux=11)
        with pytest.raises(ValueError, match="q_mux"):
            make_config(q_mux=0)

    def test_n_users(self):
        assert make_config().n_users == 24

    @pytest.mark.parametrize(
        "field,value",
        [("p_t", np.inf), ("p_t", np.nan), ("sigma_e2", np.inf), ("sigma_e2", np.nan), ("sigma_e2", -0.1)],
    )
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_config(**{field: value})


class TestMfPrecoder:
    # matched-filter precoding: the transmit vector is alpha * Hhat^H s, so
    # user b's precoder is the conjugate of its estimate row
    def test_unit_vector_self_precodes(self):
        e1 = np.zeros((1, 4), dtype=complex)
        e1[0, 0] = 1.0
        x = transmit_vector(e1[None], 1.0, np.ones((1, 1)))
        assert x.shape == (4,)
        assert np.array_equal(x, e1[0])

    def test_columns_are_conjugated_rows(self):
        rng = substream(0, 1)
        est = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        for b in range(3):
            symbols = np.zeros((1, 3))
            symbols[0, b] = 1.0
            x = transmit_vector(est[None], 1.0, symbols)
            assert np.array_equal(x, est[b].conj())

    def test_matched_inner_product_identity(self):
        # h^T v_b = ||h||^2 + h^T err^* when the estimate is h + err
        rng = substream(0, 2)
        h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        err = 0.1 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
        x = transmit_vector((h + err)[None, None], 1.0, np.ones((1, 1)))
        lhs = h @ x
        rhs = np.linalg.norm(h) ** 2 + h @ err.conj()
        assert lhs == pytest.approx(rhs)

    def test_symbol_average_power_is_conditioned_on_estimate(self):
        # E_s ||x||^2 = alpha^2 sum_k ||hhat_k||^2 for one fixed estimate
        # block: the identity the engine's power contract samples directly
        config = make_config(g_groups=2, q_mux=3, l_antennas=4)
        rng = substream(0, 3)
        _, h_hat = sample_block(config, rng)
        powers = []
        for _ in range(20_000):
            x = transmit_vector(h_hat, 0.4, unit_symbols(rng, (2, 3)))
            powers.append(np.vdot(x, x).real)
        mean, se = np.mean(powers), np.std(powers, ddof=1) / np.sqrt(len(powers))
        assert abs(mean - 0.4 * np.vdot(h_hat, h_hat).real) <= 4 * se


class TestSinr:
    # sinr_batch reads Gram powers |h_b^T hhat_c^*|^2 shaped (..., Q, Q)
    def test_single_user_has_no_interference(self):
        config = make_config(g_groups=1, q_mux=1, shadowing=scenario("ILS"))
        rng = substream(1, 0)
        h, h_hat = sample_block(config, rng)
        sinr = sinr_batch(gram_powers(h, h_hat), alpha2=0.5)
        assert sinr.shape == (1, 1)
        assert sinr[0, 0] == pytest.approx(0.5 * abs(h[0, 0] @ h_hat[0, 0].conj()) ** 2)

    def test_all_ones_perfect_csit(self):
        h = np.ones((1, 1, 4), dtype=complex)
        sinr = sinr_batch(gram_powers(h, h.copy()), alpha2=1.0)
        assert sinr[0, 0] == pytest.approx(16.0)

    def test_interference_only_from_same_group(self):
        # orthogonal groups: zeroing the other groups' channels changes nothing
        config = make_config(g_groups=2, q_mux=2, l_antennas=4)
        rng = substream(1, 1)
        h, h_hat = sample_block(config, rng)
        sinr_full = sinr_batch(gram_powers(h, h_hat), 0.3)
        keep = np.array([1.0, 0.0])[:, None, None]
        sinr_isolated = sinr_batch(gram_powers(h * keep, h_hat * keep), 0.3)
        assert np.allclose(sinr_full[0], sinr_isolated[0])

    def test_monotone_in_alpha2_single_user(self):
        config = make_config(g_groups=1, q_mux=1)
        rng = substream(1, 2)
        power = gram_powers(*sample_block(config, rng))
        values = [sinr_batch(power, a2)[0, 0] for a2 in (0.1, 1.0, 10.0)]
        assert values[0] < values[1] < values[2]

    def test_interference_limited_ceiling(self):
        config = make_config(g_groups=1, q_mux=3, l_antennas=4)
        rng = substream(1, 3)
        h, h_hat = sample_block(config, rng)
        power = np.abs(h[0] @ h_hat[0].conj().T) ** 2
        ceiling = power[0, 0] / (power[0, 1:].sum())
        big = sinr_batch(power, 1e9)[0]
        assert big == pytest.approx(ceiling, rel=1e-6)
        assert sinr_batch(power, 1.0)[0] < ceiling

    def test_batch_matches_single_block(self):
        config = make_config(g_groups=3, q_mux=2, l_antennas=4)
        rng = substream(1, 4)
        powers = [gram_powers(*sample_block(config, rng)) for _ in range(5)]
        batched = sinr_batch(np.stack(powers), 0.7)
        for i, power in enumerate(powers):
            assert np.allclose(batched[i], sinr_batch(power, 0.7))

    def test_matches_per_block_reference(self):
        config = make_config(g_groups=3, q_mux=4, l_antennas=8)
        h, h_hat = sample_block(config, substream(1, 5))
        assert np.allclose(sinr_batch(gram_powers(h, h_hat), 0.7), block_sinr(h, h_hat, 0.7), rtol=1e-13, atol=0)

    def test_power_grid_is_one_call_per_power(self):
        # an alpha2 shaped (P, 1, 1) evaluates every power of a grid with the
        # bits of one call per power; alpha2 = 0 gives SINR 0
        config = make_config(g_groups=3, q_mux=4, l_antennas=8)
        power = gram_powers(*sample_block(config, substream(1, 6)))
        alpha2 = np.array([0.0, 5e-324, 0.01, 1.0, 1e9])
        grid = sinr_batch(power, alpha2[:, None, None])
        assert grid.shape == (5, 3, 4)
        for row, a2 in zip(grid, alpha2):
            assert np.array_equal(row, sinr_batch(power, a2))
        assert np.all(grid[0] == 0.0)


class TestEffectiveSumRate:
    def test_zero_sinr_gives_zero_rate(self):
        config = make_config()
        assert effective_sum_rate(np.zeros((6, 4)), config) == 0.0

    def test_overhead_scaling(self):
        config = make_config()
        sinr = np.full((6, 4), 1.0)
        assert effective_sum_rate(sinr, config) == pytest.approx(0.9712 * 24.0)


class TestSignalRoundtrip:
    def test_single_group_is_noop(self):
        config = make_config(g_groups=1, q_mux=2, l_antennas=4)
        rng = substream(2, 0)
        h, h_hat = sample_block(config, rng)
        symbols = unit_symbols(rng, (1, 2))
        noise = unit_symbols(rng, (1, 2))
        y_prime = full_signal_roundtrip(h, h_hat, 0.4, symbols, noise)
        y = np.einsum("gbl,l->gb", h, transmit_vector(h_hat, 0.4, symbols)) + noise
        assert np.array_equal(y_prime, y)

    def test_residual_matches_direct_intra_expression(self):
        config = make_config(g_groups=3, q_mux=2, l_antennas=4)
        rng = substream(2, 1)
        h, h_hat = sample_block(config, rng)
        symbols = unit_symbols(rng, (3, 2))
        noise = unit_symbols(rng, (3, 2))
        y_prime = full_signal_roundtrip(h, h_hat, 0.4, symbols, noise)
        ref = intra_group_reference(h, h_hat, 0.4, symbols, noise)
        assert np.max(np.abs(y_prime - ref)) / np.max(np.abs(ref)) < 1e-10

    def test_zero_noise_two_groups_single_slot(self):
        config = make_config(g_groups=2, q_mux=1, l_antennas=4)
        rng = substream(2, 2)
        h, h_hat = sample_block(config, rng)
        symbols = unit_symbols(rng, (2, 1))
        noise = np.zeros((2, 1), dtype=complex)
        y_prime = full_signal_roundtrip(h, h_hat, 0.25, symbols, noise)
        for g in range(2):
            expected = 0.5 * (h[g, 0] @ h_hat[g, 0].conj()) * symbols[g, 0]
            assert y_prime[g, 0] == pytest.approx(expected)

    def test_regenerated_term_is_bit_stable(self):
        config = make_config(g_groups=4, q_mux=2, l_antennas=8)
        rng = substream(2, 3)
        h, h_hat = sample_block(config, rng)
        symbols = unit_symbols(rng, (4, 2))
        first = inter_group_component(h, h_hat, 0.4, symbols)
        second = inter_group_component(h, h_hat, 0.4, symbols)
        assert np.array_equal(first, second)
