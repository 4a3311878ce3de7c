"""Per-block reference path that the batched Monte Carlo engine is checked
against: one block of channels at a time, the transmit vector built
explicitly, and the inter-group term regenerated and cancelled as each
receiver would, and the SINR formed user by user from the channels, not
from the engine's Gram powers.  Channels are plain (G, Q, L) arrays `h` and
`h_hat`.  `norm2_cdf` is the exact law of ||h||^2 that the samplers are
tested against, and `q1_rate` the exact Q = 1 rate built on it.
`make_config` is the operating point the unit tests start from."""

import numpy as np
from scipy import special, stats

from vccsat.analysis import alpha2_closed_form
from vccsat.channel import SCENARIOS, DynamicScenario, disk_mean_los_probability, estimation_noise
from vccsat.linkphy import SystemConfig


def make_config(scenario="AS", **kwargs):
    """L=8, G=6, Q=4, P_t=10, sigma_e2=0.125, T=10000, Theta=12 at the named
    scenario; keyword arguments replace any `SystemConfig` field."""
    base = dict(
        l_antennas=8,
        g_groups=6,
        q_mux=4,
        p_t=10.0,
        shadowing=SCENARIOS[scenario],
        sigma_e2=0.125,
        t_coherence=10_000,
        theta_pilot=12,
    )
    base.update(kwargs)
    return SystemConfig(**base)


def sample_block(config, rng):
    """One block of true channels and their CSIT estimates."""
    h = config.shadowing.draw(rng, config.l_antennas, (config.g_groups, config.q_mux))
    return h, h + estimation_noise(h.shape, config.sigma_e2, rng)


def gram_powers(h, h_hat):
    """|h_gb^T hhat_gc^*|^2 of every pair of users of each group, shaped
    (..., G, Q, Q), for channels shaped (..., G, Q, L)."""
    return np.abs(np.einsum("...bl,...cl->...bc", h, h_hat.conj())) ** 2


def block_sinr(h, h_hat, alpha2):
    """Post-cancellation SINR of every user of blocks shaped (..., G, Q, L):
    alpha^2 |h_gb^T hhat_gb^*|^2 over 1 + alpha^2 times the sum of
    |h_gb^T hhat_gc^*|^2 over the other users c of the same group."""
    power = gram_powers(h, h_hat)
    signal = np.einsum("...bb->...b", power)
    return alpha2 * signal / (1.0 + alpha2 * (power.sum(axis=-1) - signal))


def effective_sum_rate(sinr, config) -> float:
    """xi * sum log2(1 + SINR) over all users, in bits/s/Hz."""
    return config.xi * float(np.log2(1.0 + sinr).sum())


def transmit_vector(h_hat, alpha2, symbols):
    """Superimposed transmit signal x = alpha * sum_g Hhat_g^H s_g, shape (L,)."""
    return np.sqrt(alpha2) * np.einsum("gql,gq->l", h_hat.conj(), symbols)


def inter_group_component(h, h_hat, alpha2, symbols):
    """The term each receiver regenerates from cached symbols and composite
    CSI: alpha * h_gb^T sum_{f != g} Hhat_f^H s_f, shape (G, Q)."""
    # contrib[g, b, f] = h_gb^T Hhat_f^H s_f
    contrib = np.einsum("gbl,fcl,fc->gbf", h, h_hat.conj(), symbols)
    return np.sqrt(alpha2) * (contrib.sum(axis=2) - np.einsum("gbg->gb", contrib))


def full_signal_roundtrip(h, h_hat, alpha2, symbols, noise):
    """Push x through every user's channel and subtract the regenerated
    inter-group term: the post-cancellation signals, shape (G, Q).  With one
    group the subtracted term is exactly zero."""
    y = np.einsum("gbl,l->gb", h, transmit_vector(h_hat, alpha2, symbols)) + noise
    return y - inter_group_component(h, h_hat, alpha2, symbols)


def intra_group_reference(h, h_hat, alpha2, symbols, noise):
    """Desired-plus-intra-group signal computed term by term, which
    `full_signal_roundtrip` must reproduce to rounding error."""
    # own-group composite coefficients h_gb^T hhat_gc^*
    coeff = np.einsum("gbl,gcl->gbc", h, h_hat.conj())
    return np.sqrt(alpha2) * np.einsum("gbc,gc->gb", coeff, symbols) + noise


def moment_samples(config, rng, n):
    """n independent samples of the three moments, shape (3, n): ||h||^4 of
    one user, |h^T hhat'^*|^2 with the estimate of a second, independent
    user (xi2), and |h^T hhat^*|^2 with the user's own estimate (desired)."""
    h, h_other = config.shadowing.draw(rng, config.l_antennas, (2, n))
    h_hat_own = h + estimation_noise(h.shape, config.sigma_e2, rng)
    h_hat_other = h_other + estimation_noise(h.shape, config.sigma_e2, rng)
    norm2 = (np.abs(h) ** 2).sum(axis=1)
    own = np.einsum("nl,nl->n", h, h_hat_own.conj())
    cross = np.einsum("nl,nl->n", h, h_hat_other.conj())
    return np.stack([norm2 * norm2, np.abs(cross) ** 2, np.abs(own) ** 2])


def _norm2_law(params, n_antennas, tail):
    """||h||^2 of one user's L-antenna `ShadowingParams` channel as a mixture
    of gamma laws (Abdi et al., IEEE TWC 2003): given Z, ||h||^2 / beta is
    noncentral chi-square with 2L degrees of freedom and noncentrality
    L Z^2 / beta, a Poisson(L Z^2 / (2 beta)) mixture of central ones; Z^2 is
    Gamma(m, omega / m), so the Poisson count K is negative binomial with
    r = m and theta = L omega / (2 beta m), and ||h||^2 is the K-mixture of
    Gamma(L + K, scale 2 beta) laws.  Returns the weights P(K = k), the
    shapes L + k and the scale, for k up to where the tail of K is below
    `tail`."""
    m, beta, omega = params.m, params.beta, params.omega
    theta = n_antennas * omega / (2.0 * beta * m)
    count = stats.nbinom(m, 1.0 / (1.0 + theta))
    k = np.arange(int(count.isf(tail)) + 1)
    return count.pmf(k), n_antennas + k, 2.0 * beta


def norm2_cdf(params, n_antennas, x):
    """Exact CDF of ||h||^2 (see `_norm2_law`), the mixture cut where the
    tail of K is below 1e-15."""
    weights, shapes, scale = _norm2_law(params, n_antennas, 1e-15)
    x = np.asarray(x, dtype=float)
    gamma_cdfs = special.gammainc(shapes[:, None], x.ravel() / scale)
    return (weights @ gamma_cdfs).reshape(x.shape)


def _q1_user_rate(params, n_antennas, sigma_e2, alpha2):
    """E log2(1 + alpha2 |h^T hhat^*|^2) of one user of a `ShadowingParams`
    channel."""
    weights, shapes, scale = _norm2_law(params, n_antennas, 1e-16)
    # N = ||h||^2 on 200 Gauss-Legendre points of [0, the largest law's
    # 1e-16 upper quantile], weighted by the mixture's density
    top = stats.gamma.isf(1e-16, shapes[-1], scale=scale)
    t, t_weights = np.polynomial.legendre.leggauss(200)
    n = 0.5 * top * (t + 1.0)
    density = weights @ stats.gamma.pdf(n, shapes[:, None], scale=scale)
    # given h, h^T hhat^* = N + s (x + j y), s = sqrt(sigma_e2 N / 2), x and y
    # independent standard normals: 48 x 48 Gauss-Hermite points
    x, x_weights = np.polynomial.hermite_e.hermegauss(48)
    x_weights = x_weights / np.sqrt(2.0 * np.pi)
    s = np.sqrt(0.5 * sigma_e2 * n)[:, None, None]
    gain2 = (n[:, None, None] + s * x[:, None]) ** 2 + (s * x) ** 2
    rate_given_n = np.einsum("nxy,x,y->n", np.log1p(alpha2 * gain2), x_weights, x_weights)
    return 0.5 * top * (density * t_weights) @ rate_given_n / np.log(2.0)


def q1_rate(config):
    """Exact effective sum rate xi G E log2(1 + alpha^2 |h^T hhat^*|^2) of a
    Q = 1 operating point, at the closed-form alpha^2: a sum over the
    negative-binomial index K of ||h||^2 of a 1-D gamma integral and a 2-D
    Gaussian one, evaluated as one Gauss-Legendre integral of their mixture
    density (stable to 10 digits against 400 and 64 x 64 points).  A LOS/NLOS
    mixture is the p-bar-weighted pair of its two laws, p-bar its disk-mean
    LOS probability."""
    assert config.q_mux == 1
    alpha2 = alpha2_closed_form(config)
    model = config.shadowing
    if isinstance(model, DynamicScenario):
        p = disk_mean_los_probability(model)
        laws = [(p, model.los_params), (1.0 - p, model.nlos_params)]
    else:
        laws = [(1.0, model)]
    user = sum(w * _q1_user_rate(params, config.l_antennas, config.sigma_e2, alpha2) for w, params in laws)
    return config.xi * config.g_groups * user
