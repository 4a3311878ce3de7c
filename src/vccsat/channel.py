"""Rician-shadowed satellite-to-ground channel sampling.

Each channel element is h_l = Z * exp(j*theta_l) + h'_l where Z is a single
Nakagami-m line-of-sight amplitude shared by all L antennas, the phases
theta_l are i.i.d. uniform on [0, 2*pi) per coherence block, and the scatter
h'_l is i.i.d. complex Gaussian with per-element power 2*beta (real and
imaginary parts each of variance beta).  AWGN power is normalised to 1, so
the transmit power P_t absorbs pathloss and antenna gains.

Two channel models share one interface: `ShadowingParams` (one shadowing
scenario) and `DynamicScenario` (a LOS/NLOS mixture over a coverage disk,
LOS with probability exp(-eta * r / h) at distance r from the centre) both
provide `draw(rng, n_antennas, size)` and `element_power(sigma_e2)`, so the
Monte Carlo engine and the power normalisation take either one as
`SystemConfig.shadowing`.  Their samplers `sample_channel_array` and
`sample_dynamic_channel_array` share the signature
`(model, n_antennas, rng, size=())`.

Every phasor, the LOS term's exp(j*theta_l) and the scatter's, is
evaluated from float32 cos/sin of the float64 angle, widened to float64 and
rescaled to unit modulus (`_phasors`): its modulus is 1 to within
1e-15 and its angle within 4e-7 rad of the float64 angle.  The complex
Gaussians of the scatter and of the estimation noise are polar Box-Muller
(`_complex_normals`): from uniforms u1, u2 in [0, 1), the radius
s * sqrt(-2 log1p(-u1)) is computed in float64 and the angle is 2 pi u2.
Since u1 <= 1 - 2**-53, |n| <= sqrt(106 ln 2) s = 8.57 s, where s is the
standard deviation of each part; the Gaussian law puts 1.1e-16 of its mass
beyond that.

All samplers are pure given an explicit numpy Generator; use `substream` to
derive named, order-independent generators from one master seed.  The bits
a seed gives are named by `STREAM_VERSION`, which every seeded manifest
records: 1 was the float64 libm phasor, 2 the float32 one, with the same
random draws; 3 conditioned the power contract on the estimate, same draws;
4 has the power contracts read the rate draw, same draws; 5 reads the
moments from the operating point's draw, two users per group wide at Q = 1
(`mc_moment_oracle` is a G = 1, Q = 2 operating point), so only the moments
and Q = 1 operating points move; 6 draws each chunk's channels, then its
estimation noise, chunk by chunk (`experiments._chunks`), so every Monte
Carlo value moves; 7 draws every complex Gaussian by Box-Muller from a pair
of uniforms, where 6 drew a pair of ziggurat normals at the same point of
the draw order, so again every Monte Carlo value moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

TWO_PI = 2.0 * np.pi

# version of the numbers a seed produces; bumped by any change that moves them
STREAM_VERSION = 7


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


# Rows per block of the block loops below: each of their float64 buffers
# stays at 128 KiB, so all five fit a typical L2 cache.  Whole-chunk
# temporaries instead raised fig6's peak RSS by 2 MiB and doubled its minor
# faults.  64 KiB buffers drew a chunk 10% slower; they lowered a batch's
# traced peak (`TestBatchMemory`) from 1.58 to 1.52 times a one-chunk batch's.
_BLOCK_BYTES = 1 << 17


def _phasors(u: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield `(rows, cos, sin, norm2, scratch)` for consecutive row slices of the
    uniforms `u`, shaped (n_rows, width), of at most `_BLOCK_BYTES` of float64
    each: `cos` and `sin` the float32 cos and sin of the float32-rounded angle
    2 pi u[rows], widened to float64, `norm2` = cos*cos + sin*sin, and a
    float64 `scratch` of the same shape.  The buffers are allocated once for
    all blocks; a caller may overwrite them.

    NumPy's float32 cos/sin run on SIMD instead of scalar libm.  A caller
    scales both parts by amplitude / sqrt(norm2): that rescale gives every
    phasor unit modulus to within 1e-15, and its angle is within 4e-7 rad of
    the float64 angle 2 pi u (3e-7 measured)."""
    n_rows, width = u.shape
    step = max(1, _BLOCK_BYTES // (8 * max(width, 1)))
    n = min(step, n_rows)
    angle = np.empty((n, width), dtype=np.float32)
    cos, sin, norm2, square = (np.empty((n, width)) for _ in range(4))
    for a in range(0, n_rows, step):
        rows = slice(a, min(a + step, n_rows))
        c, s, n2, sq, ang = (b[: rows.stop - a] for b in (cos, sin, norm2, square, angle))
        ang[...] = np.multiply(u[rows], TWO_PI, out=c)
        np.cos(ang, out=c, dtype=np.float32)
        np.sin(ang, out=s, dtype=np.float32)
        np.multiply(c, c, out=n2)
        n2 += np.multiply(s, s, out=sq)
        yield rows, c, s, n2, sq


def _complex_normals(scale, shape, rng) -> np.ndarray:
    """Complex Gaussians of the given shape, real and imaginary parts each
    `scale` times a standard normal; `scale` broadcasts against `shape`.

    Polar Box-Muller from one `rng.random(shape + (2,))` draw of (u1, u2)
    pairs: the squared radius -2 log1p(-u1) in float64 and the `_phasors` of
    u2, written back over the pairs block by block and viewed as complex128.
    So the draw gives the bits of

        sqrt(-2 log1p(-u1) / (c*c + s*s)) * scale * (c + 1j*s)

    with c, s the widened float32 cos/sin of the float32-rounded angle
    2 pi u2, and allocates nothing of its size but the draw itself; a
    per-element `scale` is read per block, never broadcast to `shape`."""
    shape = tuple(shape)
    pairs = rng.random(shape + (2,))
    u = pairs.reshape(math.prod(shape[:-1]), shape[-1], 2)
    scale_rows = np.broadcast_to(scale, shape).reshape(len(u), shape[-1])
    for rows, cos, sin, norm2, square in _phasors(u[:, :, 1]):
        u1, u2 = u[rows, :, 0], u[rows, :, 1]
        # the radius over the phasor's modulus, under one square root
        np.negative(u1, out=square)
        np.log1p(square, out=square)
        square *= -2.0
        square /= norm2
        np.sqrt(square, out=square)
        square *= scale_rows[rows]
        np.multiply(cos, square, out=u1)
        np.multiply(sin, square, out=u2)
    return pairs.view(np.complex128)[..., 0]


def _rician(z: np.ndarray, scatter_std, n_antennas: int, rng) -> np.ndarray:
    """Channels z * exp(j*theta_l) + scatter of shape (*z.shape, n_antennas):
    draws the uniforms of the phases theta_l = 2 pi u, then the scatter, then
    adds the LOS term into the scatter by parts, block by block.

    The LOS phasor is `_phasors`', scaled by z / sqrt(c*c + s*s), so |h_l| of
    a scatter-free channel is z for every antenna.  Only the rounding of the
    float32 phasors, the LOS term's and the scatter's, differs from the
    float64 `np.exp(1j * angle)`: the random draws are the same calls in the
    same order (tests/test_channel.py pins both the bits and the generator
    state)."""
    if n_antennas < 1:
        raise ValueError(f"n_antennas must be >= 1, got {n_antennas}")
    shape = z.shape + (n_antennas,)
    phases = rng.random(shape).reshape(-1, n_antennas)
    h = _complex_normals(scatter_std, shape, rng)
    rows, z_col = h.reshape(-1, n_antennas), z.reshape(-1, 1)
    for block, cos, sin, norm, _ in _phasors(phases):
        np.sqrt(norm, out=norm)
        np.divide(z_col[block], norm, out=norm)
        cos *= norm
        rows.real[block] += cos
        sin *= norm
        rows.imag[block] += sin
    return h


def sample_channel_array(params: ShadowingParams, n_antennas: int, rng, size=()) -> np.ndarray:
    """Vectorised channel draw of shape (*size, n_antennas).

    Draw order is fixed (LOS amplitudes, phases, scatter) so results are
    reproducible for a given generator state.
    """
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
    `los_probability(r)` = exp(-eta * r / altitude_km) at distance r from the
    centre, and NLOS (params `nlos_params`) otherwise.
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

    def los_probability(self, radius_km):
        """LOS probability exp(-eta * r / h) of a user at `radius_km` from the
        disk centre: exp(-eta * cot(elevation)), since cot(elevation) = r / h
        under the satellite at altitude h; 1 at the centre, decreasing in r."""
        return np.exp(-self.eta * radius_km / self.altitude_km)

    def user_radii(self, rng, size) -> np.ndarray:
        """Distances (km) from the disk centre of users uniform in area."""
        return self.radius_km * np.sqrt(rng.random(size))

    def draw(self, rng, n_antennas: int, size) -> np.ndarray:
        """Channels of shape (*size, n_antennas); see `sample_dynamic_channel_array`."""
        return sample_dynamic_channel_array(self, n_antennas, rng, size=size)


def sample_dynamic_channel_array(scen: DynamicScenario, n_antennas: int, rng, size=()) -> np.ndarray:
    """Vectorised mixture draw of shape (*size, n_antennas) for users uniform
    on the disk: each user's radius sets its LOS probability.

    Draw order is fixed (radii, LOS/NLOS states, LOS-branch amplitudes,
    NLOS-branch amplitudes, phases, scatter).  Only the selected branch of
    the mixture is observed, so the LOS and NLOS branches may share
    phase/scatter noise sources without changing the sampled distribution.
    """
    radii = scen.user_radii(rng, size)
    states = rng.random(size) < scen.los_probability(radii)
    z_los = _los_amplitudes(scen.los_params, size, rng)
    z_nlos = _los_amplitudes(scen.nlos_params, size, rng)
    z = np.where(states, z_los, z_nlos)
    scatter_std = np.where(states, np.sqrt(scen.los_params.beta), np.sqrt(scen.nlos_params.beta))
    return _rician(z, scatter_std[..., None], n_antennas, rng)


def disk_mean_los_probability(scen: DynamicScenario) -> float:
    """Area mean of `DynamicScenario.los_probability` over the disk.

    With a = eta / altitude, E[exp(-a r)] over the radial density 2r/D^2 is
    (2 / (a D)^2) * (1 - exp(-a D) (1 + a D)).
    """
    x = scen.eta * scen.radius_km / scen.altitude_km
    if x < 1e-4:
        # series expansion; the direct formula loses precision for tiny x
        return 1.0 - 2.0 * x / 3.0 + x * x / 4.0
    return 2.0 / (x * x) * (1.0 - np.exp(-x) * (1.0 + x))
