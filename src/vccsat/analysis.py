"""Closed-form average sum rate, channel moments, and effective gain.

The average-rate expression replaces the expectation of log2(1 + SINR) by the
log of the ratio of expected signal and interference powers (Lemma 1 of Zhang,
Jin, Wong, Zhu and Matthaiou, IEEE JSTSP 2014).  The approximation is loose
on single rates where one exponentially distributed interferer dominates
(Q=2 at high SNR), and more antennas shrink that gap only slowly; the
Q-optimised gain formed from two such rates is much closer to Monte Carlo.
Acceptance check c03 reports both gaps.  The moments and power factor are
exact, and every formula here is validated against Monte Carlo oracles in
`experiments` rather than trusted blindly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, NamedTuple

import numpy as np

from .channel import ShadowingParams
from .linkphy import MAX_Q, SystemConfig


class Moments(NamedTuple):
    """xi1 = E[||h||^4]; xi2 = E[|h^T hhat'^*|^2] for two distinct users;
    desired = E[|h^T hhat^*|^2] for a user's own estimate.  The closed forms
    are floats, the Monte Carlo oracle's are `experiments.Estimate`s."""

    xi1: Any
    xi2: Any
    desired: Any


@dataclass(frozen=True)
class GainResult:
    """Q-optimised spectral-efficiency gain of caching over the cacheless
    baseline, with the maximising multiplexing orders and the two rates."""

    gain: float
    best_q_vcc: int
    best_q_baseline: int
    rate_vcc: float
    rate_baseline: float
    rate_vcc_stderr: float | None = None
    rate_baseline_stderr: float | None = None
    gain_stderr: float | None = None


def alpha2_closed_form(config: SystemConfig) -> float:
    """Squared power-control factor P_t / (G Q L (2 beta + sigma_e2 + omega)).

    Setting g_groups = 1 gives the cacheless baseline factor.  For the
    LOS/NLOS mixture the element power is its position average, which keeps
    E[||x||^2] = P_t over channels, states and positions.  A channel of zero
    mean power is rejected even when the CSIT error keeps the estimate's
    power positive: every rate and SNR of it would be zero.
    """
    if not config.shadowing.element_power() > 0:
        raise ValueError("degenerate parameters: mean channel power is zero")
    return config.p_t / (config.n_users * config.l_antennas * config.shadowing.element_power(config.sigma_e2))


def xi_moments_closed_form(config: SystemConfig) -> Moments:
    """Second/fourth-order channel moments of the shadowing triple (m, b, w)
    at L antennas and CSIT error sigma_e2:

    xi1 = L[(4b^2 + 4b*w + w^2/m) + (2b + w)^2]
          + L(L-1)[(1 + 1/m) w^2 + 4b*w + 4b^2]
    xi2 = L (2b + w) (2b + sigma_e2 + w)
    desired = xi1 + sigma_e2 L (2b + w)

    The L(L-1) cross term carries the (1 + 1/m) w^2 factor because the LOS
    amplitude is one scalar shared by all antennas.  The LOS/NLOS mixture
    has no closed form and is rejected.
    """
    params, sigma_e2, l_antennas = config.shadowing, config.sigma_e2, config.l_antennas
    if not isinstance(params, ShadowingParams):
        raise ValueError(
            f"{type(params).__name__} has no closed-form moments; the LOS/NLOS "
            "mixture is evaluated by Monte Carlo only"
        )
    m, b, w = params.m, params.beta, params.omega
    per_element = (4 * b * b + 4 * b * w + w * w / m) + (2 * b + w) ** 2
    cross = (1 + 1 / m) * w * w + 4 * b * w + 4 * b * b
    xi1 = l_antennas * per_element + l_antennas * (l_antennas - 1) * cross
    xi2 = l_antennas * (2 * b + w) * (2 * b + sigma_e2 + w)
    desired = xi1 + sigma_e2 * l_antennas * params.element_power()
    return Moments(xi1=xi1, xi2=xi2, desired=desired)


def avg_sum_rate_closed_form(config: SystemConfig) -> float:
    """Average effective sum rate
    xi_{G,Q} G Q log2(1 + a2 (xi1 + sigma_e2 L (2b+w)) / (1 + a2 (Q-1) xi2)),
    with log2(1 + x) taken as log1p(x) / log(2), which stays positive where
    1 + x rounds to 1, as in the Monte Carlo kernel.

    A log-of-expectations approximation of E[sum log2(1 + SINR)]: loose on
    single rates where one interferer dominates (Q=2, high SNR), closer on
    the Q-optimised gain that `effective_gain_closed_form` forms from it.
    Acceptance check c03 reports the measured gaps.  A power so large that
    the rate is not finite is rejected.
    """
    a2 = alpha2_closed_form(config)
    moments = xi_moments_closed_form(config)
    numerator = a2 * moments.desired
    denominator = 1.0 + a2 * (config.q_mux - 1) * moments.xi2
    rate = float(config.xi * config.n_users * np.log1p(numerator / denominator) / np.log(2.0))
    if not math.isfinite(rate):
        raise ValueError(
            f"closed-form rate is not finite ({rate}) at p_t={config.p_t:g}, G={config.g_groups}, Q={config.q_mux}"
        )
    return rate


def intra_interference_term(config: SystemConfig) -> float:
    """The interference part of the rate denominator, a2 (Q-1) xi2, in its
    cancelled form P_t (Q-1) (2 beta + omega) / (G Q).

    The L and (2 beta + sigma_e2 + omega) factors cancel between a2 and xi2,
    so the term is independent of the CSIT error.
    """
    return config.p_t * (config.q_mux - 1) * config.shadowing.element_power() / config.n_users


def gain_q_grid(q_max: int) -> range:
    """Multiplexing orders searched in gain comparisons: {2, ..., q_max}."""
    if not 2 <= q_max <= MAX_Q:
        raise ValueError(f"q_max must be in [2, {MAX_Q}], got {q_max}")
    return range(2, q_max + 1)


def q_optimised_gain(q_vcc, rates_vcc, q_base, rates_base, se_vcc=None, se_base=None) -> GainResult:
    """The gain of caching from each side's rates (and, if given, their
    standard errors), indexed like that side's ascending q grid.  Each side
    takes its largest rate, ties going to the smaller q (lower CSI overhead
    at equal rate), and the gain is their ratio.  A baseline whose best rate
    is below the smallest normal double is rejected: 0 once alpha^2 itself
    underflows, and a subnormal rate keeps too few bits for its ratio to
    mean anything."""
    vi, bi = int(np.argmax(rates_vcc)), int(np.argmax(rates_base))
    rate_v, rate_b = float(rates_vcc[vi]), float(rates_base[bi])
    if not rate_b >= np.finfo(float).tiny:
        raise ValueError(f"the baseline's best rate is {rate_b}, so the gain is undefined")
    gain = rate_v / rate_b
    if se_vcc is None:
        return GainResult(gain, q_vcc[vi], q_base[bi], rate_v, rate_b)
    se_v, se_b = float(se_vcc[vi]), float(se_base[bi])
    gain_se = abs(gain) * np.hypot(se_v / rate_v, se_b / rate_b)
    return GainResult(gain, q_vcc[vi], q_base[bi], rate_v, rate_b, se_v, se_b, gain_se)


def effective_gain_closed_form(
    config: SystemConfig, q_max: int = 8, q_max_baseline: int = 8
) -> GainResult:
    """Ratio of Q-optimised rates: caching (g_groups from config) over the
    cacheless baseline (g_groups = 1), each optimised on its own q grid."""
    qs_vcc = gain_q_grid(q_max)
    rates_vcc = [avg_sum_rate_closed_form(replace(config, q_mux=q)) for q in qs_vcc]
    qs_base = gain_q_grid(q_max_baseline)
    rates_base = [avg_sum_rate_closed_form(replace(config, g_groups=1, q_mux=q)) for q in qs_base]
    return q_optimised_gain(qs_vcc, rates_vcc, qs_base, rates_base)
