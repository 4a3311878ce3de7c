"""Matched-filter precoding and per-block SINR / effective-rate evaluation.

One coherence block serves g_groups * q_mux users at once.  The transmit
vector superimposes one matched-filter-precoded signal per group; receivers
cancel the other groups' contributions using cached content plus composite
CSI, leaving the intra-group interference channel whose SINR is evaluated
here.  The power factor alpha^2 is the statistical normalisation from
`analysis.alpha2_closed_form`, never a per-realisation rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import DynamicScenario, ShadowingParams, estimation_noise

MAX_Q = 10  # spot-beam spatial resolution caps the multiplexed users per group


@dataclass(frozen=True)
class SystemConfig:
    """Operating point of one link-level evaluation.

    p_t is linear transmit power (AWGN power is 1).  g_groups = 1 is the
    cacheless MU-MISO baseline.  theta_pilot is the pilot length per user per
    block; the fraction of the block left for data is the `xi` property.
    `shadowing` is either channel model of `vccsat.channel`.
    """

    l_antennas: int
    g_groups: int
    q_mux: int
    p_t: float
    shadowing: ShadowingParams | DynamicScenario
    sigma_e2: float = 0.125
    t_coherence: int = 10_000
    theta_pilot: int = 12

    def __post_init__(self):
        if self.l_antennas < 1:
            raise ValueError(f"l_antennas must be >= 1, got {self.l_antennas}")
        if self.g_groups < 1:
            raise ValueError(f"g_groups must be >= 1, got {self.g_groups}")
        if not 1 <= self.q_mux <= MAX_Q:
            raise ValueError(f"q_mux must be in [1, {MAX_Q}], got {self.q_mux}")
        if not 0 < self.p_t < math.inf:
            raise ValueError(f"p_t must be finite and > 0, got {self.p_t}")
        if not 0 <= self.sigma_e2 < math.inf:
            raise ValueError(f"sigma_e2 must be finite and >= 0, got {self.sigma_e2}")
        if self.t_coherence < 1 or self.theta_pilot < 1:
            raise ValueError("t_coherence and theta_pilot must be >= 1")
        overhead = self.g_groups * self.q_mux * self.theta_pilot
        if overhead >= self.t_coherence:
            raise ValueError(
                f"G*Q*Theta must be < T: got {self.g_groups}*{self.q_mux}*"
                f"{self.theta_pilot} = {overhead} >= T = {self.t_coherence}"
            )

    @property
    def n_users(self) -> int:
        return self.g_groups * self.q_mux

    @property
    def xi(self) -> float:
        """Fraction of the coherence block left after CSI acquisition."""
        return 1.0 - self.g_groups * self.q_mux * self.theta_pilot / self.t_coherence


@dataclass(frozen=True)
class ChannelBlock:
    """True and estimated channels of all served users for one block,
    shaped (g_groups, q_mux, l_antennas)."""

    true_h: np.ndarray
    est_h: np.ndarray

    def __post_init__(self):
        if self.true_h.shape != self.est_h.shape or self.true_h.ndim != 3:
            raise ValueError(
                f"true_h and est_h must share shape (G, Q, L); got {self.true_h.shape} and {self.est_h.shape}"
            )


def sample_block(config: SystemConfig, rng) -> ChannelBlock:
    """Draw one block of true channels plus their CSIT estimates."""
    shape = (config.g_groups, config.q_mux)
    h = config.shadowing.draw(rng, config.l_antennas, shape)
    h_hat = h + estimation_noise(h.shape, config.sigma_e2, rng)
    return ChannelBlock(true_h=h, est_h=h_hat)


def sinr_batch(true_h: np.ndarray, est_h: np.ndarray, alpha2: float) -> np.ndarray:
    """Post-cancellation SINR per user for arrays shaped (..., G, Q, L).

    For user (g, b): alpha^2 |h_gb^T hhat_gb^*|^2 over 1 + alpha^2 times the
    intra-group sum over the other q_mux - 1 users of the same group; the
    inter-group terms are absent by cache-aided cancellation.  Noise power 1.
    """
    if not alpha2 > 0:
        raise ValueError(f"alpha2 must be > 0, got {alpha2}")
    inner = true_h @ est_h.conj().swapaxes(-1, -2)
    power = inner.real**2 + inner.imag**2
    signal = np.diagonal(power, axis1=-2, axis2=-1)
    interference = power.sum(axis=-1) - signal
    return alpha2 * signal / (1.0 + alpha2 * interference)


def compute_sinr(block: ChannelBlock, config: SystemConfig, alpha2: float) -> np.ndarray:
    """SINR of each served user in one block, shaped (G, Q)."""
    if block.true_h.shape != (config.g_groups, config.q_mux, config.l_antennas):
        raise ValueError(
            f"block shape {block.true_h.shape} does not match config "
            f"({config.g_groups}, {config.q_mux}, {config.l_antennas})"
        )
    return sinr_batch(block.true_h, block.est_h, alpha2)


def effective_sum_rate(sinr_values: np.ndarray, config: SystemConfig) -> float:
    """Effective sum rate xi * sum log2(1 + SINR) over all G*Q users, in
    bits/s/Hz."""
    sinr = np.asarray(sinr_values)
    if sinr.size != config.n_users:
        raise ValueError(f"expected {config.n_users} SINR values, got {sinr.size}")
    return config.xi * float(np.log2(1.0 + sinr).sum())


def transmit_vector(block: ChannelBlock, alpha2: float, symbols: np.ndarray) -> np.ndarray:
    """Superimposed transmit signal x = alpha * sum_g Hhat_g^H s_g, shape (L,)."""
    alpha = np.sqrt(alpha2)
    return alpha * np.einsum("gql,gq->l", block.est_h.conj(), symbols)


def inter_group_component(block: ChannelBlock, alpha2: float, symbols: np.ndarray) -> np.ndarray:
    """The inter-group term each receiver regenerates from cached symbols and
    composite CSI: alpha * h_gb^T sum_{f != g} Hhat_f^H s_f, shape (G, Q)."""
    alpha = np.sqrt(alpha2)
    # contrib[g, b, f] = h_gb^T Hhat_f^H s_f
    contrib = np.einsum("gbl,fcl,fc->gbf", block.true_h, block.est_h.conj(), symbols)
    total = contrib.sum(axis=2)
    own = np.einsum("gbg->gb", contrib)
    return alpha * (total - own)


def full_signal_roundtrip(
    block: ChannelBlock,
    config: SystemConfig,
    alpha2: float,
    symbols: np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    """Build x, push it through every user's channel, subtract the regenerated
    inter-group term, and return the post-cancellation signals (G, Q).

    With g_groups = 1 the cancellation is a no-op and y' = y.
    """
    symbols = np.asarray(symbols)
    noise = np.asarray(noise)
    shape = (config.g_groups, config.q_mux)
    if symbols.shape != shape or noise.shape != shape:
        raise ValueError(f"symbols and noise must have shape {shape}")
    x = transmit_vector(block, alpha2, symbols)
    y = np.einsum("gbl,l->gb", block.true_h, x) + noise
    if config.g_groups == 1:
        return y
    return y - inter_group_component(block, alpha2, symbols)


def intra_group_reference(
    block: ChannelBlock, alpha2: float, symbols: np.ndarray, noise: np.ndarray
) -> np.ndarray:
    """Desired-plus-intra-group signal computed term by term, the algebraic
    reference that `full_signal_roundtrip` must reproduce to rounding error."""
    alpha = np.sqrt(alpha2)
    # own-group composite coefficients h_gb^T hhat_gc^*
    coeff = np.einsum("gbl,gcl->gbc", block.true_h, block.est_h.conj())
    return alpha * np.einsum("gbc,gc->gb", coeff, symbols) + noise
