import hashlib

import numpy as np
import pytest
from scipy import stats

from reference import norm2_cdf
from vccsat.channel import (
    SCENARIOS,
    DynamicScenario,
    ShadowingParams,
    _rician,
    disk_mean_los_probability,
    estimation_noise,
    sample_channel_array,
    sample_dynamic_channel_array,
    substream,
)
from vccsat.linkphy import SystemConfig


def se_of_mean(samples):
    return samples.std(ddof=1) / np.sqrt(samples.size)


class TestShadowingParams:
    def test_presets_match_table(self):
        assert SCENARIOS["FHS"] == ShadowingParams(0.739, 0.063, 8.97e-4)
        assert SCENARIOS["AS"] == ShadowingParams(10.1, 0.126, 0.835)
        assert SCENARIOS["ILS"] == ShadowingParams(19.4, 0.158, 1.29)

    @pytest.mark.parametrize(
        "m,beta,omega",
        [
            (0.0, 0.1, 0.1),
            (-1.0, 0.1, 0.1),
            (1.0, -0.1, 0.1),
            (1.0, 0.1, -0.1),
            (np.inf, 0.1, 0.1),
            (np.nan, 0.1, 0.1),
            (1.0, np.inf, 0.1),
            (1.0, np.nan, 0.1),
            (1.0, 0.1, np.inf),
            (1.0, 0.1, np.nan),
        ],
    )
    def test_invalid_parameters_rejected(self, m, beta, omega):
        with pytest.raises(ValueError):
            ShadowingParams(m, beta, omega)

    def test_mean_element_power(self):
        assert SCENARIOS["AS"].element_power() == pytest.approx(1.087)

    def test_estimated_statistics_add_error_to_scatter(self):
        assert SCENARIOS["AS"].element_power(0.125) == pytest.approx(1.087 + 0.125)
        assert SCENARIOS["AS"].element_power() == 2 * 0.126 + 0.835


def los_amplitudes(m, omega, rng, size):
    """Nakagami-m LOS amplitudes |h_l| = Z, drawn as channels without scatter."""
    return np.abs(ShadowingParams(m, 0.0, omega).draw(rng, 1, (size,))[:, 0])


class TestNakagami:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ShadowingParams(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ShadowingParams(np.inf, 0.0, 1.0)

    def test_degenerate_for_large_shape(self):
        # m -> inf concentrates Z^2 at omega
        rng = np.random.default_rng(1)
        z = los_amplitudes(1e6, 1.0, rng, 1_000_000)
        assert np.var(z**2) < 1e-5

    def test_second_moment_ils(self):
        rng = np.random.default_rng(2)
        z2 = los_amplitudes(19.4, 1.29, rng, 1_000_000) ** 2
        assert abs(z2.mean() - 1.29) <= 3 * se_of_mean(z2)

    def test_fourth_moment_fhs(self):
        m, omega = 0.739, 8.97e-4
        rng = np.random.default_rng(3)
        z4 = los_amplitudes(m, omega, rng, 1_000_000) ** 4
        expected = (1 + 1 / m) * omega**2
        assert abs(z4.mean() - expected) <= 3 * se_of_mean(z4)


class TestChannelSampling:
    def test_no_los_no_scatter_gives_zero_vector(self):
        rng = np.random.default_rng(0)
        h = ShadowingParams(m=1.0, beta=0.0, omega=0.0).draw(rng, 4, ())
        assert h.shape == (4,)
        assert np.all(h == 0)

    def test_los_amplitude_shared_across_antennas(self):
        # without scatter every element has modulus Z; Z differs per draw
        rng = np.random.default_rng(1)
        ils = SCENARIOS["ILS"]
        h = ShadowingParams(ils.m, 0.0, ils.omega).draw(rng, 8, (3,))
        assert h.shape == (3, 8)
        z = np.abs(h)
        assert np.allclose(z, z[:, :1], rtol=1e-12)
        assert len(set(z[:, 0])) == 3

    def test_mean_vector_power_as(self):
        # E[||h||^2] = L (2 beta + omega)
        rng = np.random.default_rng(4)
        h = sample_channel_array(SCENARIOS["AS"], 8, rng, size=(100_000,))
        p = (np.abs(h) ** 2).sum(axis=1)
        assert abs(p.mean() - 8.696) <= 3 * se_of_mean(p)

    def test_mean_element_power_fhs_single_antenna(self):
        rng = np.random.default_rng(5)
        h = sample_channel_array(SCENARIOS["FHS"], 1, rng, size=(200_000,))
        p = np.abs(h[:, 0]) ** 2
        assert abs(p.mean() - 0.126897) <= 3 * se_of_mean(p)

    @pytest.mark.parametrize("name", ["FHS", "AS", "ILS"])
    def test_element_moment_closure(self, name):
        # E|h|^2 = 2b+w and E|h|^4 = (4b^2+4bw+w^2/m) + (2b+w)^2, per element
        params = SCENARIOS[name]
        m, b, w = params.m, params.beta, params.omega
        rng = np.random.default_rng(6)
        h = sample_channel_array(params, 1, rng, size=(400_000,))[:, 0]
        p2 = np.abs(h) ** 2
        p4 = p2**2
        assert abs(p2.mean() - (2 * b + w)) <= 3 * se_of_mean(p2)
        expected4 = (4 * b * b + 4 * b * w + w * w / m) + (2 * b + w) ** 2
        assert abs(p4.mean() - expected4) <= 3 * se_of_mean(p4)

    def test_phasor_mean_vanishes(self):
        rng = np.random.default_rng(7)
        h = sample_channel_array(SCENARIOS["ILS"], 1, rng, size=(400_000,))[:, 0]
        se = np.sqrt(h.real.var(ddof=1) + h.imag.var(ddof=1)) / np.sqrt(h.size)
        assert abs(h.mean()) <= 3 * se

    def test_phasor_precision(self):
        # the float32 phasor of 1e6 uniform phases and of phases next to 0
        # and 2*pi, fed to the sampler by a generator stub with no scatter:
        # the phases' uniforms, then zeros, which give the Box-Muller
        # scatter radius 0
        ulp = 2.0**-53  # spacing of the generator's uniforms on [0, 1)
        u = np.concatenate(
            [
                np.random.default_rng(11).random(1_000_000),
                np.arange(1000) * ulp,
                1.0 - np.arange(1, 1001) * ulp,
                np.linspace(0.0, 1e-6, 1000) / (2.0 * np.pi),
                1.0 - np.linspace(1e-9, 1e-6, 1000) / (2.0 * np.pi),
            ]
        )
        draws = iter([u, np.zeros(2 * u.size)])

        class Uniforms:
            def random(self, shape):
                return next(draws).reshape(shape)

        phasor = _rician(np.ones(u.size), 0.0, 1, Uniforms())[:, 0]
        assert np.abs(phasor - np.exp(2j * np.pi * u)).max() <= 4e-7
        assert np.abs(np.abs(phasor) - 1.0).max() <= 1e-15

    def test_cross_element_uncorrelated(self):
        # shared Z but independent phases: E[h_l conj(h_k)] = 0 for l != k
        rng = np.random.default_rng(8)
        h = sample_channel_array(SCENARIOS["ILS"], 2, rng, size=(400_000,))
        prod = h[:, 0] * h[:, 1].conj()
        se = np.sqrt(prod.real.var(ddof=1) + prod.imag.var(ddof=1)) / np.sqrt(prod.shape[0])
        assert abs(prod.mean()) <= 3 * se

    @pytest.mark.parametrize("n_antennas", [0, -1])
    @pytest.mark.parametrize("model", [SCENARIOS["AS"], DynamicScenario()], ids=["static", "dynamic"])
    def test_antenna_count_validated(self, model, n_antennas):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=f"n_antennas must be >= 1, got {n_antennas}"):
            model.draw(rng, n_antennas, (3,))


class TestEstimationError:
    def test_zero_variance_is_identity(self):
        rng = np.random.default_rng(0)
        h = SCENARIOS["AS"].draw(rng, 8, ())
        state = rng.bit_generator.state
        assert np.array_equal(h + estimation_noise(h.shape, 0.0, rng), h)
        assert rng.bit_generator.state == state  # no draws consumed

    def test_negative_variance_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            estimation_noise((8,), -0.1, rng)

    def test_estimated_vector_power(self):
        # E[||h_hat||^2] = L (2 beta + sigma_e2 + omega)
        rng = np.random.default_rng(9)
        h = sample_channel_array(SCENARIOS["AS"], 8, rng, size=(100_000,))
        hh = h + estimation_noise(h.shape, 0.125, rng)
        p = (np.abs(hh) ** 2).sum(axis=1)
        assert abs(p.mean() - 9.696) <= 3 * se_of_mean(p)

    def test_error_variance_and_independence(self):
        rng = np.random.default_rng(10)
        h = sample_channel_array(SCENARIOS["AS"], 8, rng, size=(100_000,))
        err = estimation_noise(h.shape, 0.125, rng)
        v = (np.abs(err) ** 2).ravel()
        assert abs(v.mean() - 0.125) <= 3 * se_of_mean(v)
        corr = np.abs((err.ravel() * h.ravel().conj()).mean()) / np.sqrt(v.mean() * (np.abs(h) ** 2).mean())
        assert corr < 0.01


class TestComplexNormals:
    """The Box-Muller draw behind the scatter and the estimation noise, as
    `estimation_noise` gives it: CN(0, sigma_e2), so with s^2 = sigma_e2 / 2
    the power of each part, |n|^2 / (2 s^2) is Exp(1), arg n is uniform and
    E[n^2] = 0."""

    SIGMA_E2 = 0.125

    @pytest.fixture(scope="class")
    def noise(self):
        return estimation_noise((200_000,), self.SIGMA_E2, substream(15, 0))

    def test_power_exponential(self, noise):
        assert stats.kstest(np.abs(noise) ** 2 / self.SIGMA_E2, "expon").pvalue > 1e-3

    def test_angle_uniform(self, noise):
        assert stats.kstest(np.angle(noise), stats.uniform(-np.pi, 2.0 * np.pi).cdf).pvalue > 1e-3

    def test_circular(self, noise):
        square = noise * noise
        se = np.sqrt(square.real.var(ddof=1) + square.imag.var(ddof=1)) / np.sqrt(square.size)
        assert abs(square.mean()) <= 3 * se


class TestNormLaw:
    """||h||^2 of L = 8 antennas against its exact law (`reference.norm2_cdf`):
    a Kolmogorov-Smirnov test at a fixed seed that passes at p > 1e-3, and
    that rejects a draw with a wrong shadowing shape."""

    @staticmethod
    def norm2(draw):
        h = draw(substream(21, 0), 8, (20_000,))
        return (h.real**2 + h.imag**2).sum(axis=-1)

    @pytest.mark.parametrize("name", ["FHS", "AS", "ILS"])
    def test_static(self, name):
        params = SCENARIOS[name]
        assert stats.kstest(self.norm2(params.draw), lambda x: norm2_cdf(params, 8, x)).pvalue > 1e-3

    def test_disk_mixture(self):
        # on the 600 km disk each branch is drawn with its area-mean
        # probability, whatever each user's own
        scen = DynamicScenario(radius_km=600.0)
        p = disk_mean_los_probability(scen)

        def cdf(x):
            return p * norm2_cdf(scen.los_params, 8, x) + (1.0 - p) * norm2_cdf(scen.nlos_params, 8, x)

        assert stats.kstest(self.norm2(scen.draw), cdf).pvalue > 1e-3

    def test_wrong_shape_rejected(self):
        as_ = SCENARIOS["AS"]
        doubled = ShadowingParams(2.0 * as_.m, as_.beta, as_.omega)
        assert stats.kstest(self.norm2(doubled.draw), lambda x: norm2_cdf(as_, 8, x)).pvalue < 1e-3


class TestGeometry:
    def test_los_probability_values(self):
        scen = DynamicScenario()
        assert scen.los_probability(0.0) == 1.0
        # the disk edge, seen at elevation arctan(600 / 10) = 89.045 deg
        assert scen.los_probability(10.0) == pytest.approx(np.exp(-0.35 * 10.0 / 600.0), rel=1e-12)
        assert scen.los_probability(10.0) == pytest.approx(0.99419, abs=1e-5)
        # radius = altitude: elevation 45 deg, cot = 1
        assert scen.los_probability(600.0) == pytest.approx(np.exp(-0.35), rel=1e-12)
        assert scen.los_probability(600.0) == pytest.approx(0.70469, abs=1e-5)

    def test_los_probability_decreasing_in_radius(self):
        p = DynamicScenario().los_probability(np.linspace(0.0, 600.0, 50))
        assert np.all(np.diff(p) < 0)


class TestUserPositions:
    def test_positions_inside_disk(self):
        rng = np.random.default_rng(0)
        r = DynamicScenario(radius_km=10.0).user_radii(rng, (1,))
        assert r.shape == (1,)
        assert 0.0 <= r[0] <= 10.0

    def test_mean_radius_uniform_disk(self):
        rng = np.random.default_rng(11)
        r = DynamicScenario(radius_km=10.0).user_radii(rng, (1_000_000,))
        assert abs(r.mean() - 20.0 / 3.0) <= 3 * se_of_mean(r)

    def test_quarter_mass_inside_half_radius(self):
        rng = np.random.default_rng(12)
        r = DynamicScenario(radius_km=10.0).user_radii(rng, (1_000_000,))
        frac = (r <= 5.0).astype(float)
        assert abs(frac.mean() - 0.25) <= 3 * se_of_mean(frac)


class TestDynamicChannel:
    def test_zenith_always_los(self):
        scen = DynamicScenario(radius_km=1e-9)
        rng = np.random.default_rng(0)
        h = sample_dynamic_channel_array(scen, 1, rng, size=(50_000,))
        p = np.abs(h[:, 0]) ** 2
        target = scen.los_params.element_power()
        assert abs(p.mean() - target) <= 3 * se_of_mean(p)

    def test_huge_eta_always_nlos(self):
        scen = DynamicScenario(eta=1e6)
        rng = np.random.default_rng(1)
        h = sample_dynamic_channel_array(scen, 1, rng, size=(50_000,))
        p = np.abs(h[:, 0]) ** 2
        target = scen.nlos_params.element_power()
        assert abs(p.mean() - target) <= 3 * se_of_mean(p)

    def test_branch_frequency_matches_probability(self):
        # without scatter |h| is the LOS amplitude: ILS ones concentrate near
        # sqrt(1.29) while FHS ones are below ~0.2, so it classifies the
        # sampled branch exactly; on the 600 km disk the LOS probability
        # spans [exp(-0.35), 1], and its area mean is the branch frequency
        ils, fhs = SCENARIOS["ILS"], SCENARIOS["FHS"]
        scen = DynamicScenario(
            radius_km=600.0,
            los_params=ShadowingParams(ils.m, 0.0, ils.omega),
            nlos_params=ShadowingParams(fhs.m, 0.0, fhs.omega),
        )
        prob = disk_mean_los_probability(scen)
        rng = np.random.default_rng(2)
        n_draws = 2000
        los = np.abs(sample_dynamic_channel_array(scen, 1, rng, size=(n_draws,))[:, 0]) > 0.5
        assert abs(los.mean() - prob) <= 3 * np.sqrt(prob * (1 - prob) / n_draws)

    def test_disk_mixture_moment(self):
        scen = DynamicScenario(radius_km=10.0, altitude_km=600.0, eta=0.35)
        rng = np.random.default_rng(3)
        h = scen.draw(rng, 1, (100_000,))
        p = np.abs(h[:, 0]) ** 2
        assert abs(p.mean() - scen.element_power()) <= 3 * se_of_mean(p)

    def test_disk_mixture_moment_wide_disk(self):
        # at radius = altitude the LOS probability falls from 1 to exp(-eta)
        # across the disk, so the mean power depends on users being uniform
        # in area (radius ~ sqrt(uniform)); uniform radii would give a mean
        # about 0.08 higher, some 30 standard errors here
        scen = DynamicScenario(radius_km=600.0, altitude_km=600.0, eta=0.35)
        rng = np.random.default_rng(4)
        h = scen.draw(rng, 1, (200_000,))
        p = np.abs(h[:, 0]) ** 2
        assert abs(p.mean() - scen.element_power()) <= 3 * se_of_mean(p)

    @pytest.mark.parametrize(
        "field,value",
        [("radius_km", np.inf), ("radius_km", np.nan), ("altitude_km", np.inf), ("eta", np.inf), ("eta", np.nan)],
    )
    def test_non_finite_geometry_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            DynamicScenario(**{field: value})

    def test_disk_mean_los_probability_against_quadrature(self):
        scen = DynamicScenario(radius_km=10.0, altitude_km=600.0, eta=0.35)
        r = np.linspace(0.0, 10.0, 200_001)
        density = 2.0 * r / 10.0**2
        numeric = np.trapezoid(scen.los_probability(r) * density, r)
        assert disk_mean_los_probability(scen) == pytest.approx(numeric, rel=1e-9)

    # x = eta * radius / altitude = 5e-5 takes the series branch, 1e-2 the
    # closed form; just above the 1e-4 switch the closed form cancels (its
    # relative error is about 3e-8 at x = 1.01e-4), so no point sits there
    @pytest.mark.parametrize("x", [5e-5, 1e-2], ids=["series", "direct"])
    def test_disk_mean_los_probability_branches(self, x):
        scen = DynamicScenario(radius_km=x * 600.0 / 0.35)
        # Gauss-Legendre in r is exact to rounding for this smooth integrand
        nodes, weights = np.polynomial.legendre.leggauss(40)
        r = 0.5 * scen.radius_km * (nodes + 1.0)
        density = 2.0 * r / scen.radius_km**2
        numeric = 0.5 * scen.radius_km * np.sum(weights * density * scen.los_probability(r))
        assert disk_mean_los_probability(scen) == pytest.approx(numeric, rel=1e-12)


def snr_config(p_t, params):
    return SystemConfig(l_antennas=8, g_groups=6, q_mux=8, p_t=p_t, shadowing=params)


class TestSnrOffsets:
    @pytest.mark.parametrize(
        "name,offset", [("FHS", -9.0), ("AS", 0.4), ("ILS", 2.1)]
    )
    def test_offsets_match_reported_values(self, name, offset):
        assert snr_config(1.0, SCENARIOS[name]).snr_ave_db == pytest.approx(offset, abs=0.05)

    def test_power_scaling(self):
        p = SCENARIOS["AS"]
        assert snr_config(100.0, p).snr_ave_db == pytest.approx(snr_config(1.0, p).snr_ave_db + 20.0)


class TestSubstreams:
    def test_same_key_reproduces(self):
        a = substream(123, 4, 5).standard_normal(8)
        b = substream(123, 4, 5).standard_normal(8)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = substream(123, 4, 5).standard_normal(8)
        b = substream(123, 4, 6).standard_normal(8)
        c = substream(124, 4, 5).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestDrawBitIdentity:
    """The samplers evaluate every phasor in float32, add the LOS term by
    parts in blocks and write the Box-Muller normals over their uniforms.
    Written out here are the plain expressions they replace; at fixed
    substreams both give the same bits.  The sizes span several blocks and
    end in a partial one.  Given `phasor_v1`, the references take the float64
    phasor amplitude * exp(1j * angle) of stream version 1 instead, to pin
    that only the phasors' rounding moved from it."""

    @staticmethod
    def cos_sin32(angle):
        # float32 cos/sin of the float32-rounded angle, widened
        a32 = angle.astype(np.float32)
        return np.cos(a32).astype(float), np.sin(a32).astype(float)

    @classmethod
    def los(cls, z, phases, phasor_v1=None):
        if phasor_v1:
            return phasor_v1(z[..., None], phases)
        # the unit-modulus rescale folded into z
        c, s = cls.cos_sin32(phases)
        return z[..., None] / np.sqrt(c * c + s * s) * (c + 1j * s)

    @classmethod
    def complex_normals(cls, scale, shape, rng, phasor_v1=None):
        # polar Box-Muller: the radius from u1, the angle from u2
        u = rng.random(shape + (2,))
        angle = 2.0 * np.pi * u[..., 1]
        if phasor_v1:
            return phasor_v1(scale * np.sqrt(-2.0 * np.log1p(-u[..., 0])), angle)
        c, s = cls.cos_sin32(angle)
        return np.sqrt(-2.0 * np.log1p(-u[..., 0]) / (c * c + s * s)) * scale * (c + 1j * s)

    @classmethod
    def static_reference(cls, params, n_antennas, rng, size, phasor_v1=None):
        if params.omega == 0.0:
            z = np.zeros(size)
        else:
            z = np.sqrt(rng.gamma(shape=params.m, scale=params.omega / params.m, size=size))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=size + (n_antennas,))
        scatter = cls.complex_normals(np.sqrt(params.beta), size + (n_antennas,), rng, phasor_v1)
        return cls.los(z, phases, phasor_v1) + scatter

    @classmethod
    def dynamic_reference(cls, scen, n_antennas, rng, size, phasor_v1=None):
        radii = scen.radius_km * np.sqrt(rng.random(size))
        # the LOS probability through the elevation angle, exp(-eta * cot)
        zeta = np.radians(np.degrees(np.arctan2(scen.altitude_km, radii)))
        p = np.exp(-scen.eta * np.cos(zeta) / np.sin(zeta))
        states = rng.random(size) < p
        lp, nlp = scen.los_params, scen.nlos_params
        z_los = np.sqrt(rng.gamma(shape=lp.m, scale=lp.omega / lp.m, size=size))
        z_nlos = np.sqrt(rng.gamma(shape=nlp.m, scale=nlp.omega / nlp.m, size=size))
        z = np.where(states, z_los, z_nlos)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=size + (n_antennas,))
        std = np.where(states, np.sqrt(lp.beta), np.sqrt(nlp.beta))
        scatter = cls.complex_normals(std[..., None], size + (n_antennas,), rng, phasor_v1)
        return cls.los(z, phases, phasor_v1) + scatter

    @staticmethod
    def assert_same_bits(actual, expected):
        assert actual.dtype == expected.dtype == np.complex128
        assert actual.shape == expected.shape
        assert np.array_equal(actual.view(float), expected.view(float))

    @pytest.mark.parametrize(
        "params",
        [
            SCENARIOS["FHS"],
            SCENARIOS["AS"],
            SCENARIOS["ILS"],
            ShadowingParams(m=2.0, beta=0.1, omega=0.0),
            ShadowingParams(m=2.0, beta=0.0, omega=1.0),
        ],
        ids=["FHS", "AS", "ILS", "omega0", "beta0"],
    )
    @pytest.mark.parametrize("n_antennas,size", [(8, (3000, 12)), (16, (5,)), (3, ())])
    def test_static_draw(self, params, n_antennas, size):
        actual = sample_channel_array(params, n_antennas, substream(11, 0), size=size)
        expected = self.static_reference(params, n_antennas, substream(11, 0), size)
        self.assert_same_bits(actual, expected)

    @pytest.mark.parametrize("sigma_e2", [0.0, 0.125])
    def test_estimation_noise(self, sigma_e2):
        shape = (2000, 6, 8)
        actual = estimation_noise(shape, sigma_e2, substream(12, 0))
        if sigma_e2 == 0.0:
            expected = np.zeros(shape, dtype=complex)
        else:
            expected = self.complex_normals(np.sqrt(0.5 * sigma_e2), shape, substream(12, 0))
        self.assert_same_bits(actual, expected)

    @pytest.mark.parametrize("scen", [DynamicScenario(), DynamicScenario(radius_km=600.0)], ids=["10km", "600km"])
    def test_dynamic_draw(self, scen):
        actual = scen.draw(substream(13, 0), 16, (500, 24))
        expected = self.dynamic_reference(scen, 16, substream(13, 0), (500, 24))
        self.assert_same_bits(actual, expected)

    # the float32 cos/sin and float64 log1p bits the golden outputs rest
    # on: the phasors and the Box-Muller radii; they belong to a NumPy build
    # and CPU SIMD class, and a change there fails here first
    TRIG_DIGEST = "916bd121b6bc108df726adb044fa882715f1c035ac57c3f39e258d184070f3a2"
    LOG1P_DIGEST = "9bc3dcd743cef685c180e4aac3109162e746a4d825be2bd5c3cb51da33721211"

    def test_float32_trig_bits_pinned(self):
        phases = substream(11, 0).uniform(0.0, 2.0 * np.pi, size=100_000).astype(np.float32)
        digest = hashlib.sha256(np.cos(phases).tobytes() + np.sin(phases).tobytes()).hexdigest()
        assert digest == self.TRIG_DIGEST

    def test_float64_log1p_bits_pinned(self):
        u = substream(11, 0).random(100_000)
        assert hashlib.sha256(np.log1p(-u).tobytes()).hexdigest() == self.LOG1P_DIGEST

    @classmethod
    def assert_only_phasor_rounding_moved(cls, draw, draw_v1):
        """`draw(rng)` is a sampler and `draw_v1(rng, phasor)` its reference
        with the float64 phasor of stream version 1: from one substream both
        must leave the generator in the same state, and differ by at most the
        float32 phasor's 4e-7 times the LOS amplitude Z plus the scatter's
        Box-Muller radius."""
        amplitudes = []

        def phasor_v1(amplitude, angle):
            amplitudes.append(amplitude)
            return amplitude * np.exp(1j * angle)

        rng, rng_v1 = substream(14, 0), substream(14, 0)
        actual = draw(rng)
        expected = draw_v1(rng_v1, phasor_v1)
        assert rng.bit_generator.state == rng_v1.bit_generator.state
        radius, z = amplitudes
        assert np.all(np.abs(actual - expected) <= 4e-7 * (z + radius))

    @pytest.mark.parametrize("params", [SCENARIOS["FHS"], SCENARIOS["ILS"]], ids=["FHS", "ILS"])
    def test_static_stream_unchanged(self, params):
        self.assert_only_phasor_rounding_moved(
            lambda rng: sample_channel_array(params, 8, rng, size=(3000, 12)),
            lambda rng, phasor: self.static_reference(params, 8, rng, (3000, 12), phasor),
        )

    def test_dynamic_stream_unchanged(self):
        scen = DynamicScenario(radius_km=600.0)
        self.assert_only_phasor_rounding_moved(
            lambda rng: scen.draw(rng, 16, (500, 24)),
            lambda rng, phasor: self.dynamic_reference(scen, 16, rng, (500, 24), phasor),
        )
