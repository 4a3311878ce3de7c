import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reference import block_sinr, effective_sum_rate, make_config, moment_samples, q1_rate, sample_block
from vccsat import experiments
from vccsat.analysis import (
    alpha2_closed_form,
    avg_sum_rate_closed_form,
    effective_gain_closed_form,
    xi_moments_closed_form,
)
from vccsat.channel import SCENARIOS, DynamicScenario, ShadowingParams, estimation_noise, substream
from vccsat.experiments import (
    _STREAM_RATE,
    BATCH_TRIALS,
    CHUNK_USERS,
    _estimate,
    _rate_table_raw,
    mc_gain_table,
    mc_moment_oracle,
    mc_sum_rate,
    mc_transmit_power,
    oracle_suite,
    sweep,
)


# every public Monte Carlo estimator, as estimate(trials, workers)
ESTIMATORS = [
    pytest.param(lambda trials, workers: mc_sum_rate(make_config(), trials, 5, workers), id="mc_sum_rate"),
    pytest.param(lambda trials, workers: mc_transmit_power(make_config(), trials, 5, workers), id="mc_transmit_power"),
    pytest.param(
        lambda trials, workers: mc_moment_oracle(make_config(), trials, 5, workers), id="mc_moment_oracle"
    ),
    pytest.param(
        lambda trials, workers: mc_gain_table(make_config(), [1.0, 10.0], 4, 4, trials, 5, workers), id="mc_gain_table"
    ),
]


def _no_draw(*args):
    raise AssertionError("a substream was drawn")


class TestEstimate:
    @staticmethod
    def samples(rng, n):
        # two rows of per-trial values with different means and spreads
        return rng.standard_normal((2, n)) * [[1.0], [3.0]] + [[5.0], [-2.0]]

    @pytest.mark.parametrize("trials", [BATCH_TRIALS - 1, 2 * BATCH_TRIALS, 2 * BATCH_TRIALS + 17])
    def test_matches_mean_and_std_of_concatenated_batches(self, trials):
        sizes = [min(BATCH_TRIALS, trials - a) for a in range(0, trials, BATCH_TRIALS)]
        x = np.concatenate([self.samples(substream(3, 9, j), n) for j, n in enumerate(sizes)], axis=-1)
        mean, se = _estimate(self.samples, trials, 3, 9, 1)
        np.testing.assert_allclose(mean, x.mean(axis=-1), rtol=1e-12, atol=0)
        np.testing.assert_allclose(se, x.std(axis=-1, ddof=1) / np.sqrt(trials), rtol=1e-12, atol=0)
        mean3, se3 = _estimate(self.samples, trials, 3, 9, 3)
        assert (mean3 == mean).all() and (se3 == se).all()

    def test_constant_samples_give_zero_std_error(self):
        # a one-pass sum of squares left an SE of 1.5e-11 (0.1) and 2.9e-10
        # (1.1) at 8192 trials here
        for trials in (BATCH_TRIALS - 1, 2 * BATCH_TRIALS):
            for value in (0.1, 1.1):
                mean, se = _estimate(lambda rng, n: np.full(n, value), trials, 0, 0, 1)
                assert (mean, se) == (value, 0.0), (trials, value)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        x=hnp.arrays(
            np.float64,
            st.integers(100, 600),
            elements=st.floats(-1e6, 1e6, allow_subnormal=False),
        ),
        batch=st.integers(1, 600),
    )
    def test_any_batch_split_matches_two_pass(self, x, batch):
        # well-conditioned samples: the spread is not lost below the mean's
        # rounding, where any two variance algorithms may disagree
        var = np.var(x, ddof=1)
        assume(var == 0.0 or var > 1e-8 * np.mean(x) ** 2)
        with pytest.MonkeyPatch.context() as patch:
            # batch j of `batch` trials reads x from its offset j * batch
            patch.setattr(experiments, "BATCH_TRIALS", batch)
            patch.setattr(experiments, "substream", lambda seed, stream, j: j * batch)
            mean, se = _estimate(lambda offset, n: x[offset : offset + n], x.size, 0, 0, 1)
        np.testing.assert_allclose(mean, x.mean(), rtol=1e-12, atol=1e-12 * np.abs(x).max())
        np.testing.assert_allclose(se**2 * x.size, var, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("estimate", ESTIMATORS)
    def test_floors_rejected_before_any_draw(self, monkeypatch, estimate):
        monkeypatch.setattr(experiments, "substream", _no_draw)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            estimate(10_000, 0)
        with pytest.raises(ValueError, match="trials must be >="):
            estimate(50, 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_batch_cancels_queued_batches(self, monkeypatch, workers):
        # the pool's map cancels the batches not yet started once one raises,
        # so a value that overflows in batch 0 of 25 ends the run early
        started = []
        real = experiments.substream

        def spy(seed, stream, j):
            started.append(j)
            return j, real(seed, stream, j)

        def samples(batch, n):
            j, rng = batch
            if j == 0:
                raise FloatingPointError("overflow encountered in multiply")
            return self.samples(rng, n)

        monkeypatch.setattr(experiments, "substream", spy)
        with pytest.raises(ValueError, match="not finite"):
            _estimate(samples, 25 * BATCH_TRIALS, 0, 0, workers)
        assert len(started) < 10, started

    @pytest.mark.parametrize(
        "call",
        [
            lambda: _rate_table_raw(make_config(), [2, 4], [], 8192, 0, 1, _STREAM_RATE),
            lambda: _rate_table_raw(make_config(), [], [1.0], 8192, 0, 1, _STREAM_RATE),
            lambda: mc_gain_table(make_config(), [], trials=8192),
        ],
        ids=["no-power", "no-q", "gain-table-no-power"],
    )
    def test_empty_grid_rejected_before_any_draw(self, monkeypatch, call):
        monkeypatch.setattr(experiments, "substream", _no_draw)
        with pytest.raises(ValueError, match="rate grid must be nonempty"):
            call()


class TestDeterminism:
    @pytest.mark.parametrize("estimate", ESTIMATORS)
    def test_worker_count_does_not_change_results(self, estimate):
        trials = 3 * BATCH_TRIALS + 17
        a, b, c = (estimate(trials, workers) for workers in (1, 2, 4))
        assert a == b == c

    @pytest.mark.parametrize(
        "channel",
        [{}, {"sigma_e2": 0.0}, {"shadowing": DynamicScenario()}],
        ids=["as", "perfect-csit", "mixture"],
    )
    def test_chunks_draw_channels_then_noise(self, monkeypatch, channel):
        # stream v6: batch j draws, from substream(seed, stream, j), each
        # chunk's channels and then that chunk's estimation noise; the trial
        # count leaves a partial batch that ends in a partial chunk
        config = make_config(l_antennas=2, g_groups=2, q_mux=3, **channel)
        chunk = CHUNK_USERS // (config.g_groups * 3)
        trials = BATCH_TRIALS + chunk + 17
        seen = []
        chunks = experiments._chunks

        def spy(*args):
            for a, h, h_hat in chunks(*args):
                # copied as yielded: the rate kernel conjugates h_hat in place
                seen.append((h.copy(), h_hat.copy()))
                yield a, h, h_hat

        monkeypatch.setattr(experiments, "_chunks", spy)
        mc_sum_rate(config, trials, 5)
        replay = []
        for j, n in enumerate((BATCH_TRIALS, chunk + 17)):
            rng = substream(5, _STREAM_RATE, j)
            for a in range(0, n, chunk):
                m = min(chunk, n - a)
                h = config.shadowing.draw(rng, 2, (m, 6)).reshape(m, 2, 3, 2)
                replay.append((h, h + estimation_noise(h.shape, config.sigma_e2, rng)))
        assert [len(h) for h, _ in seen] == [chunk] * (BATCH_TRIALS // chunk + 1) + [17]
        for (h, h_hat), (h_ref, h_hat_ref) in zip(seen, replay, strict=True):
            assert np.array_equal(h.view(float), h_ref.view(float))
            assert np.array_equal(h_hat.view(float), h_hat_ref.view(float))

    def test_seed_changes_results(self):
        config = make_config()
        a = mc_sum_rate(config, trials=2000, seed=5)
        b = mc_sum_rate(config, trials=2000, seed=6)
        assert a.mean != b.mean


class TestBatchMemory:
    @pytest.mark.parametrize(
        "config",
        [
            make_config(q_mux=8),
            make_config(g_groups=1, q_mux=8),
            make_config(l_antennas=16, q_mux=8, shadowing=DynamicScenario()),
        ],
        ids=["as-l8", "baseline-l8", "mixture-l16"],
    )
    @pytest.mark.parametrize(
        "estimate",
        [
            lambda config, trials: _rate_table_raw(config, range(2, 9), [1.0, 100.0], trials, 0, 1, _STREAM_RATE),
            lambda config, trials: mc_transmit_power(config, trials, 0, 1),
        ],
        ids=["rate-table", "transmit-power"],
    )
    def test_peak_set_by_one_chunk(self, config, estimate):
        # a batch draws its channels one chunk at a time, so its peak is a
        # few times one chunk's channel array, 6144 users x L complex128
        # whatever G (4.7-5.6x measured), and at most the peak of a
        # one-chunk batch plus the previous chunk, held while the next one is
        # drawn, and the batch's per-trial values (1.31-1.58x measured); a
        # batch-sized channel array is 5.3 (G=1) to 32 (G=6) chunks' worth
        def peak(trials):
            tracemalloc.start()
            try:
                estimate(config, trials)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        chunk = CHUNK_USERS // (config.g_groups * 8)
        estimate(config, chunk)  # the first call in a process makes one-time allocations
        chunk_peak, batch_peak = peak(chunk), peak(BATCH_TRIALS)
        chunk_h_nbytes = CHUNK_USERS * config.l_antennas * 16
        assert batch_peak < 1.6 * chunk_peak, batch_peak / chunk_peak
        assert batch_peak < 5.75 * chunk_h_nbytes, batch_peak / chunk_h_nbytes


class TestEstimatorBehaviour:
    def test_vanishing_power_gives_vanishing_rate(self):
        config = make_config(p_t=1e-9)
        est = mc_sum_rate(config, trials=1000, seed=0)
        assert est.mean < 1e-6

    def test_std_error_shrinks_with_trials(self):
        config = make_config()
        small = mc_sum_rate(config, trials=20_000, seed=1)
        large = mc_sum_rate(config, trials=80_000, seed=1)
        ratio = large.std_error / small.std_error
        assert 0.5 * 0.8 <= ratio <= 0.5 * 1.2

    def test_trials_floor_enforced(self):
        with pytest.raises(ValueError):
            mc_sum_rate(make_config(), trials=50)
        with pytest.raises(ValueError):
            mc_moment_oracle(make_config(), trials=5000)
        with pytest.raises(ValueError):
            mc_transmit_power(make_config(), trials=50)

    @pytest.mark.parametrize("sigma_e2", [float("nan"), float("inf"), -0.1])
    def test_non_finite_or_negative_error_variance_rejected(self, sigma_e2):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="sigma_e2"):
            estimation_noise((2,), sigma_e2, rng)
        assert rng.bit_generator.state == state

    def test_rate_matches_closed_form_at_operating_point(self):
        # moderate-SNR cell where the log-of-means approximation is tight
        config = make_config(q_mux=8, p_t=10**1.81)
        est = mc_sum_rate(config, trials=100_000, seed=2)
        cf = avg_sum_rate_closed_form(config)
        assert abs(cf - est.mean) / est.mean <= 0.05

    def test_rate_agrees_with_per_block_path_where_closed_form_is_loosest(self):
        # ILS, G=1, Q=2, 21 dB: the cell where the log-of-means closed form
        # is furthest from Monte Carlo.  The batched engine and the per-block
        # reference path (sample_block -> block_sinr -> effective_sum_rate)
        # agree, so the gap belongs to the approximation, not the engine.
        config = make_config(shadowing=SCENARIOS["ILS"], g_groups=1, q_mux=2, p_t=10**2.1)
        engine = mc_sum_rate(config, trials=20_000, seed=0)
        alpha2 = alpha2_closed_form(config)
        rng = substream(0, 97)
        rates = np.array([
            effective_sum_rate(block_sinr(*sample_block(config, rng), alpha2), config)
            for _ in range(20_000)
        ])
        block_mean = rates.mean()
        block_se = rates.std(ddof=1) / np.sqrt(rates.size)
        combined_se = np.hypot(engine.std_error, block_se)
        assert abs(engine.mean - block_mean) <= 4 * combined_se


class TestExactQ1Rate:
    """At Q = 1 the rate has an exact law (`reference.q1_rate`), a third
    route beside the closed form and Monte Carlo: L=8, 18.1 dB, sigma^2 =
    0.125."""

    MODELS = [SCENARIOS["FHS"], SCENARIOS["AS"], SCENARIOS["ILS"], DynamicScenario()]
    MODEL_IDS = ["FHS", "AS", "ILS", "mixture"]

    @staticmethod
    def config(model, g_groups):
        return make_config(shadowing=model, g_groups=g_groups, q_mux=1, p_t=10**1.81)

    @pytest.mark.parametrize("name, rate", [("AS", 37.25454651), ("ILS", 41.11960859), ("FHS", 15.74053212)])
    def test_reproduces_reference_values(self, name, rate):
        # the values of an independent evaluation at G=6, to 8 digits
        assert round(q1_rate(self.config(SCENARIOS[name], 6)), 8) == rate

    @pytest.mark.parametrize("g_groups", [1, 6])
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_monte_carlo_within_3se(self, model, g_groups):
        config = self.config(model, g_groups)
        est = mc_sum_rate(config, trials=100_000, seed=1)
        assert abs(est.mean - q1_rate(config)) <= 3 * est.std_error

    @pytest.mark.parametrize("g_groups", [1, 6])
    @pytest.mark.parametrize("model", MODELS[:3], ids=MODEL_IDS[:3])
    def test_closed_form_is_a_jensen_bound(self, model, g_groups):
        # log2(1 + alpha^2 E|h^T hhat^*|^2) >= E log2(1 + alpha^2 |h^T hhat^*|^2)
        config = self.config(model, g_groups)
        assert avg_sum_rate_closed_form(config) >= q1_rate(config)


class TestMomentOracle:
    def test_moments_match_closed_forms(self):
        config = make_config(shadowing=SCENARIOS["FHS"], sigma_e2=0.125, l_antennas=8)
        xi1, xi2, desired = mc_moment_oracle(config, trials=200_000, seed=7)
        cf = xi_moments_closed_form(config)
        assert abs(xi1.mean - cf.xi1) <= 3 * xi1.std_error
        assert abs(xi2.mean - cf.xi2) <= 3 * xi2.std_error
        assert abs(desired.mean - cf.desired) <= 3 * desired.std_error

    def test_zero_channel_rejected_before_any_draw(self, monkeypatch):
        # the oracle is an operating point, whose power factor needs a
        # channel of positive mean power
        monkeypatch.setattr(experiments, "substream", _no_draw)
        config = make_config(shadowing=ShadowingParams(1.0, 0.0, 0.0), sigma_e2=0.0, l_antennas=4)
        with pytest.raises(ValueError, match="mean channel power is zero"):
            mc_moment_oracle(config, trials=10_000, seed=0)

    @pytest.mark.parametrize(
        "config, trials",
        [(make_config(q_mux=8, p_t=10**1.81), 8192), (make_config(g_groups=1, q_mux=1, p_t=10**1.81), 50_000)],
        ids=["validate-point", "g1-q1"],
    )
    def test_operating_point_moments_match_two_user_reference(self, config, trials):
        # the pooled per-trial means of the operating point's draw against
        # independent samples of one user and a second one, within 4 combined SE
        moments = experiments._operating_point(config, trials, 3, 1)[3:]
        samples = moment_samples(config, substream(3, 98), 200_000)
        ref_mean = samples.mean(axis=1)
        ref_se = samples.std(axis=1, ddof=1) / np.sqrt(samples.shape[1])
        for (mean, se), r_mean, r_se in zip(moments, ref_mean, ref_se):
            assert abs(mean - r_mean) <= 4 * np.hypot(se, r_se), (mean, r_mean)


class TestPowerContract:
    def test_static_power_matches_target(self):
        config = make_config()
        res = mc_transmit_power(config, trials=50_000, seed=8)
        assert abs(res.mean - config.p_t) <= 3 * res.std_error

    def test_baseline_power_matches_target(self):
        config = make_config(g_groups=1, q_mux=8)
        res = mc_transmit_power(config, trials=50_000, seed=9)
        assert abs(res.mean - config.p_t) <= 3 * res.std_error

    def test_dynamic_power_matches_target(self):
        config = make_config(l_antennas=4, shadowing=DynamicScenario())
        res = mc_transmit_power(config, trials=50_000, seed=10)
        assert abs(res.mean - config.p_t) <= 3 * res.std_error

    def test_dynamic_alpha2_uses_mixture_power(self):
        config = make_config(shadowing=SCENARIOS["ILS"])
        a_static = alpha2_closed_form(config)
        a_dyn = alpha2_closed_form(replace(config, shadowing=DynamicScenario()))
        # mixture power is slightly below the pure-LOS scenario power
        assert a_dyn > a_static
        assert a_dyn == pytest.approx(a_static, rel=0.02)


class TestGainEstimation:
    def test_cacheless_template_self_gain_is_one(self):
        # both sides of the ratio estimate the same G=1 rate, on
        # independent substreams, so the ratio is 1 up to Monte Carlo error
        config = make_config(g_groups=1, q_mux=2)
        res = mc_gain_table(config, [config.p_t], q_max=4, q_max_baseline=4, trials=40_000, seed=4)[0]
        assert abs(res.gain - 1.0) <= 4 * res.gain_stderr

    def test_fhs_gain_near_three_at_15_db(self):
        config = make_config(shadowing=SCENARIOS["FHS"], p_t=10**1.5)
        res = mc_gain_table(config, [config.p_t], q_max=8, q_max_baseline=8, trials=20_000, seed=4)[0]
        assert res.gain == pytest.approx(3.0, abs=0.3)

    def test_rate_table_matches_scalar_estimates(self):
        config = make_config(q_mux=2)
        means, ses = _rate_table_raw(config, [2, 4], [5.0, 20.0], 2000, 6, 1, _STREAM_RATE)
        assert means.shape == ses.shape == (2, 2)
        # indexed [pt][q]: the q=4 cells draw at the width mc_sum_rate uses
        # for q=4, so they equal its estimates bit for bit
        for pi, pt in enumerate([5.0, 20.0]):
            est = mc_sum_rate(replace(config, q_mux=4, p_t=pt), trials=2000, seed=6)
            assert (means[pi, 1], ses[pi, 1]) == est
        # q grid of width 4: rates at q=4 dominate q=2 cells at equal power here
        assert means[1, 1] > means[1, 0]

    def test_gain_sweep_tracks_closed_form_within_tolerance(self):
        # Q-optimised gains: analytic vs Monte Carlo per grid point
        config = make_config(q_mux=2)
        pairs = sweep(config, [1.0, 10**0.9, 10**1.8], trials=50_000, seed=0, workers=2)
        for analytic, mc in pairs:
            assert analytic is not None
            assert abs(analytic.gain - mc.gain) / mc.gain <= 0.05


class TestDynamicGain:
    def test_degenerate_disk_matches_static_ils(self):
        # a vanishing coverage disk pins every user at the zenith, where the
        # mixture is almost surely the LOS (ILS) branch
        config = make_config(l_antennas=4, q_mux=2, shadowing=SCENARIOS["ILS"])
        dyn_config = replace(config, shadowing=DynamicScenario(radius_km=1e-6))
        dyn = mc_gain_table(dyn_config, [dyn_config.p_t], q_max=4, q_max_baseline=4, trials=20_000, seed=11)[0]
        static = mc_gain_table(config, [config.p_t], q_max=4, q_max_baseline=4, trials=20_000, seed=11)[0]
        tol = 4 * np.hypot(dyn.gain_stderr, static.gain_stderr)
        assert abs(dyn.gain - static.gain) <= tol


class TestSweep:
    def test_single_point_grid(self):
        pairs = sweep(make_config(), [10.0], monte_carlo=False)
        assert len(pairs) == 1
        analytic, mc = pairs[0]
        assert analytic is not None and mc is None
        assert analytic.gain > 1

    def test_closed_form_on_mixture_recorded_in_row(self):
        # the LOS/NLOS mixture has no closed form, so its pairs carry None
        config = make_config(shadowing=DynamicScenario())
        pairs = sweep(config, [10.0], monte_carlo=False)
        assert pairs[0] == (None, None)

    def test_closed_form_error_propagates(self):
        # q = 7 needs 6*7*12 = 504 pilot symbols, more than T = 500
        config = make_config(q_mux=2, t_coherence=500)
        with pytest.raises(ValueError, match="G\\*Q\\*Theta must be < T"):
            sweep(config, [10.0], monte_carlo=False)

    def test_power_sweep_fast_path_matches_per_point_calls(self):
        config = make_config()
        pt_values = [10**0.3, 10**1.2]
        pairs = sweep(config, pt_values, q_max=4, trials=4000, seed=13)
        for pt, (analytic, mc) in zip(pt_values, pairs):
            cfg = replace(config, p_t=pt)
            direct = mc_gain_table(cfg, [cfg.p_t], q_max=4, q_max_baseline=4, trials=4000, seed=13)[0]
            assert mc == direct
            assert analytic == effective_gain_closed_form(cfg, 4, 4)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(make_config(), [])

    def test_non_finite_power_rejected(self):
        with pytest.raises(ValueError, match="p_t"):
            sweep(make_config(), [10.0, float("inf")])

    def test_monte_carlo_error_propagates(self):
        with pytest.raises(ValueError, match="trials must be >= 100"):
            sweep(make_config(), [10.0], trials=50)


class TestOracleSuite:
    def test_suite_passes_at_default_operating_point(self):
        config = make_config(q_mux=8, p_t=10**1.81)
        checks = oracle_suite(config, trials=20_000, seed=0)
        names = {c.name for c in checks}
        assert {
            "power-contract-vcc",
            "power-contract-baseline",
            "moment-xi1",
            "moment-xi2",
            "moment-desired",
            "rate-approximation",
            "interference-identity",
        } <= names
        failed = [c for c in checks if not c.passed]
        assert not failed, [f"{c.name}: {c.detail}" for c in failed]

    def test_power_contract_fails_without_estimation_error_power(self, monkeypatch):
        # alpha^2 from the true-channel element power (no sigma_e2) overdrives
        # the transmitter by 11%, which the conditioned contract must catch
        # at validate's operating point and benchmark trial count
        monkeypatch.setattr(
            ShadowingParams, "element_power", lambda self, sigma_e2=0.0: 2.0 * self.beta + self.omega
        )
        config = make_config(q_mux=8, p_t=10**1.81)
        checks = oracle_suite(config, trials=8192, seed=0)
        status = {c.name: c.passed for c in checks}
        assert status["power-contract-vcc"] is False
        assert status["power-contract-baseline"] is False

    def test_one_link_draw_per_batch_and_no_baseline_draw(self, monkeypatch):
        # the rate, both power contracts and the moments read the same G = 6
        # draw, of width max(Q, 2), so the suite opens one link draw per
        # batch and no G = 1 or moment channel is ever drawn
        draws = []
        chunks = experiments._chunks

        def spy(config, q_width, rng, n):
            draws.append((config.g_groups, q_width, n))
            return chunks(config, q_width, rng, n)

        monkeypatch.setattr(experiments, "_chunks", spy)
        for q_mux, width, n_checks in ((8, 8, 7), (1, 2, 6)):
            draws.clear()
            checks = oracle_suite(make_config(q_mux=q_mux, p_t=10**1.81), trials=2 * BATCH_TRIALS + 17, seed=0)
            assert len(checks) == n_checks
            assert draws == [(6, width, BATCH_TRIALS), (6, width, BATCH_TRIALS), (6, width, 17)]

    def test_xi2_with_the_gram_diagonal_fails(self, monkeypatch):
        # an xi2 that averages all G w^2 Gram entries, the diagonal (each
        # user with its own estimate) included, fails only moment-xi2 at
        # validate's operating point and benchmark trial count
        source = inspect.getsource(experiments._operating_point)
        mutated = source.replace(
            "(power.sum(axis=(1, 2, 3)) - diagonal) / (config.g_groups * width * (width - 1))",
            "power.sum(axis=(1, 2, 3)) / (config.g_groups * width * width)",
        )
        assert mutated != source
        namespace = dict(vars(experiments))
        exec(mutated, namespace)
        monkeypatch.setattr(experiments, "_operating_point", namespace["_operating_point"])
        checks = oracle_suite(make_config(q_mux=8, p_t=10**1.81), trials=8192, seed=0)
        assert [c.name for c in checks if not c.passed] == ["moment-xi2"]

    def test_csit_invariance_fails_with_xi2_without_csit_error(self, monkeypatch):
        # an xi2 that leaves sigma_e2 out no longer cancels the sigma_e2 of
        # a2, so the product form moves with the CSIT error
        def xi_without_csit_error(config):
            # L (2b + w)^2 in place of L (2b + w) (2b + sigma_e2 + w)
            xi2 = config.l_antennas * config.shadowing.element_power() ** 2
            return xi_moments_closed_form(config)._replace(xi2=xi2)

        monkeypatch.setattr(experiments.analysis, "xi_moments_closed_form", xi_without_csit_error)
        checks = oracle_suite(make_config(q_mux=8, p_t=10**1.81), trials=1000, seed=0)
        (identity,) = [c for c in checks if c.name == "interference-identity"]
        assert not identity.passed
        assert identity.detail.endswith("csit-invariant=False")

    def test_group0_baseline_power_matches_an_independent_baseline_draw(self):
        # group 0 of the G = 6 draw is distributed as a G = 1 draw: same mean
        # within 4 combined SE, and its own sampling error, not the VCC
        # line's, which pools 6 groups
        config = make_config(q_mux=8, p_t=10**1.81)
        _, vcc, group0 = experiments._operating_point(config, 50_000, 11, 1)[:3]
        independent = mc_transmit_power(replace(config, g_groups=1), 50_000, 12, 1)
        assert abs(group0.mean - independent.mean) <= 4 * np.hypot(group0.std_error, independent.std_error)
        assert group0.std_error == pytest.approx(independent.std_error, rel=0.1)
        assert group0.std_error > 2 * vcc.std_error

    def test_mixture_rejected_with_value_error(self, monkeypatch):
        # the suite has no closed form to check the mixture against, so it
        # draws nothing; the oracle alone estimates the mixture's moments
        config = make_config(shadowing=DynamicScenario())
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "substream", _no_draw)
            with pytest.raises(ValueError, match="no closed-form"):
                oracle_suite(config, trials=1000, seed=0)
        moments = mc_moment_oracle(config, trials=10_000, seed=0)
        assert all(np.isfinite(m.mean) and m.mean > 0 and np.isfinite(m.std_error) for m in moments)
