"""Operating point of one link-level evaluation and the post-cancellation
SINR of matched-filter precoding.

One coherence block serves g_groups * q_mux users at once.  The transmit
vector superimposes one matched-filter-precoded signal per group; receivers
cancel the other groups' contributions using cached content plus composite
CSI, leaving the intra-group interference channel.  The power factor alpha^2
is the statistical normalisation from `analysis.alpha2_closed_form`, never a
per-realisation rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import DynamicScenario, ShadowingParams

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

    @property
    def snr_ave_db(self) -> float:
        """Average single-antenna downlink SNR, 10*log10(P_t * E|h_l|^2)."""
        return float(10.0 * np.log10(self.p_t * self.shadowing.element_power()))


def sinr_batch(power: np.ndarray, alpha2) -> np.ndarray:
    """Post-cancellation SINR of every user of a group from the group's Gram
    powers power[..., b, c] = |h_b^T hhat_c^*|^2, shaped (..., Q, Q).

    For user b: alpha^2 power[..., b, b] over 1 + alpha^2 times the intra-group
    interference, the sum of power[..., b, c] over the other Q - 1 users c;
    the inter-group terms are absent by cache-aided cancellation.  Noise
    power 1.  `alpha2` (0 allowed) broadcasts against the (..., Q) result,
    so one call evaluates a whole power grid: a few large ufunc calls rather
    than a few per power, so two workers seldom wait on each other for the GIL.
    """
    signal = np.diagonal(power, axis1=-2, axis2=-1).copy()
    interference = power.sum(axis=-1) - signal
    denominator = alpha2 * interference
    np.add(1.0, denominator, out=denominator)
    sinr = alpha2 * signal
    np.divide(sinr, denominator, out=sinr)
    return sinr
