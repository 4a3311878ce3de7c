"""Rician-shadowed satellite-to-ground channel sampling.

Each channel element is h_l = Z * exp(j*theta_l) + h'_l where Z is a single
Nakagami-m line-of-sight amplitude shared by all L antennas, the phases
theta_l are i.i.d. uniform on [0, 2*pi) per coherence block, and the scatter
h'_l is i.i.d. complex Gaussian with per-element power 2*beta (real and
imaginary parts each of variance beta).  AWGN power is normalised to 1, so
the transmit power P_t absorbs pathloss and antenna gains.

Two channel models share one interface: `ShadowingParams` (one shadowing
scenario) and `DynamicScenario` (an elevation-dependent LOS/NLOS mixture
over a coverage disk) both provide `draw(rng, n_antennas, size)` and
`element_power(sigma_e2)`, so the Monte Carlo engine and the power
normalisation take either one as `SystemConfig.shadowing`.

The LOS phasor exp(j*theta_l) is evaluated from float32 cos/sin of the
float64 phase, widened to float64 and rescaled to unit modulus (see
`_rician`): its modulus is 1 to within 1e-15 and its angle within 4e-7 rad
of theta_l.

All samplers are pure given an explicit numpy Generator; use `substream` to
derive named, order-independent generators from one master seed.  The bits
a seed gives are named by `STREAM_VERSION`, which every seeded manifest
records: 1 was the float64 libm phasor, 2 the float32 one, with the same
random draws; 3 conditioned the power contract on the estimate, same draws;
4 has the power contracts read the rate draw, same draws; 5 reads the
moments from the operating point's draw, two users per group wide at Q = 1
(`mc_moment_oracle` is a G = 1, Q = 2 operating point), so only the moments
and Q = 1 operating points move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# version of the numbers a seed produces; bumped by any change that moves them
STREAM_VERSION = 5


@dataclass(frozen=True)
class ShadowingParams:
    """Rician-shadowed fading triple (m, beta, omega).

    m     : Nakagami shape of the LOS amplitude (m -> inf: unobstructed LOS).
    beta  : half the scattering power; per-element scatter power is 2*beta.
    omega : average LOS power E[Z^2].
    """

    m: float
    beta: float
    omega: float

    def __post_init__(self):
        if not 0 < self.m < math.inf:
            raise ValueError(f"shadowing shape m must be finite and > 0, got {self.m}")
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"scatter power parameter beta must be finite and >= 0, got {self.beta}")
        if not 0 <= self.omega < math.inf:
            raise ValueError(f"LOS power omega must be finite and >= 0, got {self.omega}")

    def element_power(self, sigma_e2: float = 0.0) -> float:
        """E[|hhat_l|^2] = 2*beta + omega + sigma_e2 of an estimate with error
        power sigma_e2; sigma_e2 = 0 gives the channel's own E[|h_l|^2]."""
        return 2.0 * self.beta + self.omega + sigma_e2

    def draw(self, rng, n_antennas: int, size) -> np.ndarray:
        """Channels of shape (*size, n_antennas); see `sample_channel_array`."""
        return sample_channel_array(self, n_antennas, rng, size=size)


# Frequent heavy / average / infrequent light shadowing presets.
SCENARIOS = {
    "FHS": ShadowingParams(m=0.739, beta=0.063, omega=8.97e-4),
    "AS": ShadowingParams(m=10.1, beta=0.126, omega=0.835),
    "ILS": ShadowingParams(m=19.4, beta=0.158, omega=1.29),
}


def scenario(name: str) -> ShadowingParams:
    """Look up a shadowing preset by name (FHS, AS or ILS)."""
    try:
        return SCENARIOS[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown shadowing scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None


def substream(seed: int, *key: int) -> np.random.Generator:
    """Named RNG substream: deterministic in (seed, key), independent of the
    order in which substreams are created or consumed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _los_amplitudes(params: ShadowingParams, size, rng) -> np.ndarray:
    if params.omega == 0.0:
        return np.zeros(size)
    return np.sqrt(rng.gamma(shape=params.m, scale=params.omega / params.m, size=size))


def _complex_normals(scale, shape, rng) -> np.ndarray:
    """Complex Gaussians of the given shape, real and imaginary parts each
    `scale` times a standard normal; `scale` broadcasts against `shape`.

    The (..., 2) normals are scaled in place and viewed as complex128, which
    gives the same bits as `scale * (g[..., 0] + 1j * g[..., 1])` without its
    complex temporaries."""
    g = rng.standard_normal(tuple(shape) + (2,))
    g *= np.asarray(scale)[..., None]
    return g.view(np.complex128)[..., 0]


# Rows of the LOS term per block: its five buffers (the float32 phases and
# four float64 arrays of cos, sin, amplitude and a square) of 128 KiB each
# stay inside a typical L2 cache, where whole-batch temporaries would raise
# the peak memory of a draw.
_LOS_BLOCK_BYTES = 1 << 17


def _rician(z: np.ndarray, scatter_std, n_antennas: int, rng) -> np.ndarray:
    """Channels z * exp(j*theta_l) + scatter of shape (*z.shape, n_antennas):
    draws the float64 phases, then the scatter, then adds the LOS term into
    the scatter by parts, block by block.

    The phasor is evaluated in float32, where NumPy's cos/sin run on SIMD
    instead of scalar libm: with c and s the float32 cos and sin of the
    float32-rounded phase, widened to float64,

        h.real += c * (z / sqrt(c*c + s*s)),  h.imag += s * (z / sqrt(c*c + s*s)).

    The rescale gives every phasor unit modulus to within 1e-15, so |h_l| of
    a scatter-free channel is z for every antenna; its angle is within 4e-7
    rad of theta (3e-7 measured).  Only this rounding differs from
    `z[..., None] * np.exp(1j * phases) + scatter`: the random draws are
    the same calls in the same order (tests/test_channel.py pins both the
    bits and the generator state)."""
    shape = z.shape + (n_antennas,)
    phases = rng.uniform(0.0, TWO_PI, size=shape).reshape(-1, n_antennas)
    h = _complex_normals(scatter_std, shape, rng)
    rows, z_col = h.reshape(-1, n_antennas), z.reshape(-1, 1)
    step = max(1, _LOS_BLOCK_BYTES // (8 * n_antennas))
    n = min(step, len(rows))
    phase32 = np.empty((n, n_antennas), dtype=np.float32)
    cos, sin, amp, square = (np.empty((n, n_antennas)) for _ in range(4))
    for a in range(0, len(rows), step):
        block = slice(a, min(a + step, len(rows)))
        k = block.stop - a
        p, c, s, w, t = phase32[:k], cos[:k], sin[:k], amp[:k], square[:k]
        p[...] = phases[block]
        np.cos(p, out=c, dtype=np.float32)
        np.sin(p, out=s, dtype=np.float32)
        np.multiply(c, c, out=w)
        w += np.multiply(s, s, out=t)
        np.sqrt(w, out=w)
        np.divide(z_col[block], w, out=w)
        c *= w
        rows.real[block] += c
        s *= w
        rows.imag[block] += s
    return h


def sample_channel_array(params: ShadowingParams, n_antennas: int, rng, size=()) -> np.ndarray:
    """Vectorised channel draw of shape (*size, n_antennas).

    Draw order is fixed (LOS amplitudes, phases, scatter) so results are
    reproducible for a given generator state.
    """
    if n_antennas < 1:
        raise ValueError(f"n_antennas must be >= 1, got {n_antennas}")
    z = _los_amplitudes(params, size, rng)
    return _rician(z, np.sqrt(params.beta), n_antennas, rng)


def estimation_noise(shape, sigma_e2, rng) -> np.ndarray:
    """i.i.d. CN(0, sigma_e2) estimation-error samples."""
    if not 0 <= sigma_e2 < math.inf:
        raise ValueError(f"sigma_e2 must be finite and >= 0, got {sigma_e2}")
    if sigma_e2 == 0.0:
        return np.zeros(shape, dtype=complex)
    return _complex_normals(np.sqrt(0.5 * sigma_e2), np.atleast_1d(shape), rng)


# ---------------------------------------------------------------------------
# Dynamic LOS/NLOS channel over a coverage disk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DynamicScenario:
    """Coverage geometry plus LOS/NLOS fading models for the dynamic channel.

    Users are uniform on a disk of radius `radius_km`; the serving satellite
    sits at the zenith of the disk centre at `altitude_km`.  Per user and per
    block the channel is LOS (params `los_params`) with probability
    exp(-eta * cot(elevation)) and NLOS (params `nlos_params`) otherwise.
    """

    radius_km: float = 10.0
    altitude_km: float = 600.0
    eta: float = 0.35
    los_params: ShadowingParams = SCENARIOS["ILS"]
    nlos_params: ShadowingParams = SCENARIOS["FHS"]

    def __post_init__(self):
        for name in ("radius_km", "altitude_km", "eta"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")

    def element_power(self, sigma_e2: float = 0.0) -> float:
        """Position-averaged mean element power of the (estimated) channel."""
        p = disk_mean_los_probability(self)
        los = self.los_params.element_power(sigma_e2)
        nlos = self.nlos_params.element_power(sigma_e2)
        return p * los + (1.0 - p) * nlos

    def user_radii(self, rng, size) -> np.ndarray:
        """Distances (km) from the disk centre of users uniform in area."""
        return self.radius_km * np.sqrt(rng.random(size))

    def draw(self, rng, n_antennas: int, size) -> np.ndarray:
        """Channels of shape (*size, n_antennas) for users uniform on the
        disk: the radius sets the elevation, which sets the LOS probability."""
        radii = self.user_radii(rng, size)
        elevations = elevation_angle(radii, self.altitude_km)
        return sample_dynamic_channel_array(self, elevations, n_antennas, rng)


def elevation_angle(horizontal_distance_km, altitude_km):
    """Elevation angle in degrees seen by a ground user at the given
    horizontal distance from the sub-satellite point; 90 deg at distance 0."""
    if not np.all(np.asarray(altitude_km) > 0):
        raise ValueError("altitude_km must be > 0")
    if np.any(np.asarray(horizontal_distance_km) < 0):
        raise ValueError("horizontal_distance_km must be >= 0")
    return np.degrees(np.arctan2(altitude_km, horizontal_distance_km))


def los_probability(eta, elevation_deg):
    """LOS probability exp(-eta * cot(elevation)); 1 at zenith, increasing in
    elevation."""
    elevation = np.asarray(elevation_deg, dtype=float)
    if not eta > 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    if np.any(elevation <= 0) or np.any(elevation > 90):
        raise ValueError("elevation_deg must lie in (0, 90]")
    zeta = np.radians(elevation)
    cot = np.cos(zeta) / np.sin(zeta)
    out = np.exp(-eta * cot)
    return float(out) if np.isscalar(elevation_deg) else out


def sample_dynamic_channel_array(scen: DynamicScenario, elevations_deg, n_antennas: int, rng) -> np.ndarray:
    """Vectorised mixture draw: elevations_deg of shape `size` gives channels
    of shape (*size, n_antennas).

    Only the selected branch of the mixture is observed, so the LOS and NLOS
    branches may share phase/scatter noise sources without changing the
    sampled distribution.
    """
    elev = np.asarray(elevations_deg, dtype=float)
    p = los_probability(scen.eta, elev)
    states = rng.random(elev.shape) < p
    z_los = _los_amplitudes(scen.los_params, elev.shape, rng)
    z_nlos = _los_amplitudes(scen.nlos_params, elev.shape, rng)
    z = np.where(states, z_los, z_nlos)
    scatter_std = np.where(states, np.sqrt(scen.los_params.beta), np.sqrt(scen.nlos_params.beta))
    return _rician(z, scatter_std[..., None], n_antennas, rng)


def disk_mean_los_probability(scen: DynamicScenario) -> float:
    """LOS probability averaged over a uniform user position on the disk.

    With a = eta / altitude, E[exp(-a r)] over the radial density 2r/D^2 is
    (2 / (a D)^2) * (1 - exp(-a D) (1 + a D)).
    """
    x = scen.eta * scen.radius_km / scen.altitude_km
    if x < 1e-4:
        # series expansion; the direct formula loses precision for tiny x
        return 1.0 - 2.0 * x / 3.0 + x * x / 4.0
    return 2.0 / (x * x) * (1.0 - np.exp(-x) * (1.0 + x))
