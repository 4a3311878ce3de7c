"""Monte Carlo engine: rate/gain estimation, moment oracles, power sweep.

Every Monte Carlo mean goes through one batch-and-reduce function,
`_estimate`, to which an estimator gives only its per-trial values.  Batch j
of the fixed-size batches draws from the named substream (seed, stream-tag,
j) and partial sums are combined in batch-index order, so results are
bit-identical for a given seed at any worker count.  Channel draws are reused
across a q grid (the draw width is the largest q) and across transmit-power
grids (power only rescales alpha^2), which also pins the Q argmax to one set
of realisations.

Within a batch the CSIT estimates exist only per chunk of `CHUNK_TRIALS`
trials: the channel is drawn for the whole batch, then each chunk's
estimation noise is drawn just before the chunk is evaluated.  The noise is
the last draw of a batch and `standard_normal` fills trials in order, so the
chunks read the same normals as one batch-sized draw; per-trial values are
reduced once per batch, so the chunk size moves no output bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import analysis
from .channel import (
    ShadowingParams,
    estimation_noise,
    sample_channel_array,
    substream,
)
from .linkphy import SystemConfig

BATCH_TRIALS = 4096  # fixed: changing it changes the draw stream
# trials per estimate chunk: bounds a batch's estimate and Gram arrays; any
# size gives the same bits
CHUNK_TRIALS = 512

# stream tags keep the independent estimators on disjoint substreams
_STREAM_RATE = 0
_STREAM_BASELINE = 1
_STREAM_MOMENTS = 2
_STREAM_POWER = 3

_INV_LN2 = 1.0 / np.log(2.0)


class Estimate(NamedTuple):
    """Monte Carlo mean with its standard error."""

    mean: float
    std_error: float


def _estimate(
    samples: Callable[[np.random.Generator, int], np.ndarray], trials: int, seed: int, stream: int, workers: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over `trials` trials of `samples(rng, n)`,
    which returns the values of n trials along its last axis.

    Batch j of `BATCH_TRIALS` trials draws from `substream(seed, stream, j)`,
    on a pool of `workers` threads if more than one.  Each batch's sum and
    sum of squares are added in batch order, so the result does not depend
    on the worker count."""
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    def batch(j: int) -> np.ndarray:
        x = samples(substream(seed, stream, j), min(BATCH_TRIALS, trials - j * BATCH_TRIALS))
        return np.stack([x.sum(axis=-1), (x * x).sum(axis=-1)])

    batches = range(-(-trials // BATCH_TRIALS))
    # one worker runs the batches here rather than on a one-thread pool: the
    # bits are the same, but a pool raised validate's peak RSS from 76 to
    # 103-117 MiB (likely the pool thread's own malloc arena; not verified)
    if workers == 1:
        parts = [batch(j) for j in batches]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(batch, batches))
    sums, sumsq = sum(parts[1:], parts[0])
    mean = sums / trials
    var = np.maximum(sumsq - trials * mean**2, 0.0) / (trials - 1)
    return mean, np.sqrt(var / trials)


def _chunks(
    config: SystemConfig, q_width: int, rng: np.random.Generator, n: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Draw `config.shadowing` for n trials of G groups of q_width users, then
    yield `(offset, h, h_hat)` per chunk of `CHUNK_TRIALS` trials, both shaped
    (chunk, G, q_width, L): `h` a view of the batch's channels and `h_hat` a
    fresh CSIT estimate array that the caller may overwrite.  Each chunk's
    estimation noise is drawn only when the chunk is asked for, which gives
    the bits of one batch-sized draw (see the module docstring)."""
    shape = (n, config.g_groups, q_width, config.l_antennas)
    h = config.shadowing.draw(rng, config.l_antennas, (n, config.g_groups * q_width)).reshape(shape)
    for a in range(0, n, CHUNK_TRIALS):
        h_chunk = h[a : a + CHUNK_TRIALS]
        h_hat = estimation_noise(h_chunk.shape, config.sigma_e2, rng)
        h_hat += h_chunk
        yield a, h_chunk, h_hat


def _rate_table_raw(
    config: SystemConfig,
    q_grid: Sequence[int],
    pt_values: Sequence[float],
    trials: int,
    seed: int,
    workers: int,
    stream: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of the effective sum rate on a (pt, q) grid,
    sharing one set of channel draws of width max(q_grid) per batch."""
    q_grid = list(q_grid)
    pt_values = [float(p) for p in pt_values]
    if not q_grid or not pt_values:
        raise ValueError(f"rate grid must be nonempty, got {len(pt_values)} powers and {len(q_grid)} q values")
    # validate every cell up front; alpha2 and xi depend on (pt, q) only
    alpha2 = np.empty((len(pt_values), len(q_grid)))
    xi = np.empty(len(q_grid))
    for qi, q in enumerate(q_grid):
        cfg_q = replace(config, q_mux=q)
        xi[qi] = cfg_q.xi
        for pi, pt in enumerate(pt_values):
            alpha2[pi, qi] = analysis.alpha2_closed_form(replace(cfg_q, p_t=pt))
    # alpha2 of q index qi for every power, shaped to broadcast over (P, chunk, G, q)
    alpha2_b = alpha2[:, :, None, None, None]

    def samples(rng: np.random.Generator, n: int) -> np.ndarray:
        # per-trial rates of the batch, reduced once by `_estimate`, so the
        # summation order does not depend on the chunk size
        rates = np.empty((len(pt_values), len(q_grid), n))
        for a, h, h_hat in _chunks(config, max(q_grid), rng, n):
            trials_c = slice(a, a + len(h))
            # inner[n, g, b, c] = h_gb^T hhat_gc^*, via batched matmul; the
            # estimates are conjugated in place, as nothing else reads them
            inner = h @ np.conjugate(h_hat, out=h_hat).swapaxes(-1, -2)
            power = inner.real**2 + inner.imag**2
            for qi, q in enumerate(q_grid):
                pq = power[:, :, :q, :q]
                signal = np.diagonal(pq, axis1=2, axis2=3).copy()
                interference = pq.sum(axis=3) - signal
                # sinr = a2 * signal / (1 + a2 * interference) for every power
                # at once: a few large ufunc calls per chunk and q, not a few
                # per power, so two workers seldom wait on each other for the GIL
                a2 = alpha2_b[:, qi]
                denominator = a2 * interference
                np.add(1.0, denominator, out=denominator)
                sinr = a2 * signal
                np.divide(sinr, denominator, out=sinr)
                np.log1p(sinr, out=sinr)
                rates[:, qi, trials_c] = xi[qi] * _INV_LN2 * sinr.sum(axis=(2, 3))
        return rates

    return _estimate(samples, trials, seed, stream, workers)


def mc_sum_rate(
    config: SystemConfig,
    trials: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> Estimate:
    """Monte Carlo mean of the effective sum rate at the given operating
    point, using the statistical power factor of the closed-form analysis."""
    means, ses = _rate_table_raw(config, [config.q_mux], [config.p_t], trials, seed, workers, _STREAM_RATE)
    return Estimate(float(means[0, 0]), float(ses[0, 0]))


def mc_gain_table(
    config: SystemConfig,
    pt_values: Sequence[float],
    q_max: int = 8,
    q_max_baseline: int = 8,
    trials: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> list[analysis.GainResult]:
    """Q-optimised Monte Carlo gain at each transmit power.

    The same seed (hence the same channel realisations) is shared by every
    grid point of one side, so the argmax over q is not noise-driven.
    """
    qs_vcc = list(analysis.gain_q_grid(q_max))
    qs_base = list(analysis.gain_q_grid(q_max_baseline))
    v_mean, v_se = _rate_table_raw(config, qs_vcc, pt_values, trials, seed, workers, _STREAM_RATE)
    b_mean, b_se = _rate_table_raw(
        replace(config, g_groups=1), qs_base, pt_values, trials, seed, workers, _STREAM_BASELINE
    )
    results = []
    for pi in range(len(pt_values)):
        vi = int(np.argmax(v_mean[pi]))
        bi = int(np.argmax(b_mean[pi]))
        rate_v, se_v = float(v_mean[pi, vi]), float(v_se[pi, vi])
        rate_b, se_b = float(b_mean[pi, bi]), float(b_se[pi, bi])
        gain = rate_v / rate_b
        results.append(
            analysis.GainResult(
                gain=gain,
                best_q_vcc=qs_vcc[vi],
                best_q_baseline=qs_base[bi],
                rate_vcc=rate_v,
                rate_baseline=rate_b,
                rate_vcc_stderr=se_v,
                rate_baseline_stderr=se_b,
                gain_stderr=abs(gain) * np.hypot(se_v / rate_v, se_b / rate_b),
            )
        )
    return results


def mc_moment_oracle(
    params: ShadowingParams,
    sigma_e2: float,
    l_antennas: int,
    trials: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
) -> analysis.Moments:
    """Empirical counterparts of the closed-form moments, as `Estimate`s.

    xi1 from ||h||^4 samples, xi2 from |h^T hhat'^*|^2 with the estimate of a
    second, independent user, and the desired-signal moment |h^T hhat^*|^2
    with the user's own estimate.
    """
    if trials < 10_000:
        raise ValueError(f"trials must be >= 10000, got {trials}")
    if not 0 <= sigma_e2 < math.inf:
        raise ValueError(f"sigma_e2 must be finite and >= 0, got {sigma_e2}")

    def samples(rng: np.random.Generator, n: int) -> np.ndarray:
        h = sample_channel_array(params, l_antennas, rng, size=(n,))
        h_hat_own = estimation_noise(h.shape, sigma_e2, rng)
        h_hat_own += h
        h_other = sample_channel_array(params, l_antennas, rng, size=(n,))
        h_hat_other = estimation_noise(h.shape, sigma_e2, rng)
        h_hat_other += h_other
        norm2 = (h.real**2 + h.imag**2).sum(axis=1)
        xi1_s = norm2 * norm2
        own = np.einsum("nl,nl->n", h, h_hat_own.conj())
        desired_s = own.real**2 + own.imag**2
        cross = np.einsum("nl,nl->n", h, h_hat_other.conj())
        xi2_s = cross.real**2 + cross.imag**2
        return np.stack([xi1_s, xi2_s, desired_s])

    means, ses = _estimate(samples, trials, seed, _STREAM_MOMENTS, workers)
    return analysis.Moments(*(Estimate(float(m), float(se)) for m, se in zip(means, ses)))


def mc_transmit_power(
    config: SystemConfig,
    trials: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> Estimate:
    """Empirical E[||x||^2] of the matched-filter signal, conditioned on the
    channel estimate: for unit-power symbols E_s||x||^2 = alpha^2 sum_k
    ||hhat_k||^2 exactly, which must average to P_t under the power factor."""
    alpha2 = analysis.alpha2_closed_form(config)

    def samples(rng: np.random.Generator, n: int) -> np.ndarray:
        pw = np.empty(n)
        for a, _, h_hat in _chunks(config, config.q_mux, rng, n):
            # the real and imaginary parts of each trial's estimates, as a view
            parts = h_hat.reshape(len(h_hat), -1).view(np.float64)
            pw[a : a + len(h_hat)] = np.einsum("ni,ni->n", parts, parts)
        pw *= alpha2
        return pw

    mean, se = _estimate(samples, trials, seed, _STREAM_POWER, workers)
    return Estimate(float(mean), float(se))


# ---------------------------------------------------------------------------
# Power sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """One transmit power of a gain sweep: the closed-form and Monte Carlo
    Q-optimised gains, None where not evaluated."""

    pt_db: float
    analytic: analysis.GainResult | None
    mc: analysis.GainResult | None


def sweep(
    config: SystemConfig,
    pt_db_values: Sequence[float],
    q_max: int = 8,
    trials: int = 100_000,
    seed: int = 0,
    workers: int = 1,
    monte_carlo: bool = True,
) -> list[SweepRow]:
    """Closed-form and (unless `monte_carlo` is false) Monte Carlo
    Q-optimised gain at each transmit power in dB, with q capped at `q_max`
    on both sides.

    The closed form is evaluated only for a `ShadowingParams` channel; the
    LOS/NLOS mixture has none, so its rows carry None.  Every error
    propagates.  The Monte Carlo side is one `mc_gain_table` pass, so one set
    of channel draws serves the whole grid (power only rescales alpha^2).
    """
    if len(pt_db_values) == 0:
        raise ValueError("sweep grid must be nonempty")
    configs = [replace(config, p_t=10.0 ** (float(v) / 10.0)) for v in pt_db_values]
    analytic = [
        analysis.effective_gain_closed_form(cfg, q_max, q_max)
        if isinstance(config.shadowing, ShadowingParams)
        else None
        for cfg in configs
    ]
    mc = (
        mc_gain_table(config, [cfg.p_t for cfg in configs], q_max, q_max, trials, seed, workers)
        if monte_carlo
        else [None] * len(configs)
    )
    return [SweepRow(pt_db=float(v), analytic=a, mc=m) for v, a, m in zip(pt_db_values, analytic, mc)]


# ---------------------------------------------------------------------------
# Oracle suite: every closed form checked against its Monte Carlo estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def oracle_suite(config: SystemConfig, trials: int = 100_000, seed: int = 0, workers: int = 1) -> list[CheckResult]:
    """Validate the closed forms at one operating point: transmit-power
    contract conditioned on the channel estimate (3 standard errors; see
    `mc_transmit_power`), xi1/xi2/desired moments (3 standard errors, on
    ten times `trials` and at least 100,000 trials), the average-rate
    approximation (5% relative), and the interference-term identity (1e-12,
    bit-identical across CSIT error).

    The closed-form moments are evaluated first, so a channel model without
    them (the LOS/NLOS mixture) raises `ValueError` before any draw."""
    cf = analysis.xi_moments_closed_form(config.shadowing, config.sigma_e2, config.l_antennas)
    checks: list[CheckResult] = []

    for label, cfg in (("vcc", config), ("baseline", replace(config, g_groups=1))):
        est = mc_transmit_power(cfg, trials, seed, workers)
        err = abs(est.mean - cfg.p_t)
        ok = err <= 3.0 * est.std_error
        checks.append(
            CheckResult(
                f"power-contract-{label}",
                ok,
                f"E[|x|^2]={est.mean:.6g} target={cfg.p_t:.6g} err={err:.3g} (3se={3*est.std_error:.3g})",
            )
        )

    moments = mc_moment_oracle(
        config.shadowing, config.sigma_e2, config.l_antennas, max(trials, 10_000) * 10, seed, workers
    )
    for name, (mc_val, se), cf_val in zip(cf._fields, moments, cf):
        ok = abs(mc_val - cf_val) <= 3.0 * se
        checks.append(
            CheckResult(f"moment-{name}", ok, f"mc={mc_val:.6g} closed={cf_val:.6g} (3se={3*se:.3g})")
        )

    est = mc_sum_rate(config, trials, seed, workers)
    cf_rate = analysis.avg_sum_rate_closed_form(config)
    rel = abs(cf_rate - est.mean) / est.mean
    rate_rel_tol = 0.05
    checks.append(
        CheckResult(
            "rate-approximation",
            rel <= rate_rel_tol,
            f"closed={cf_rate:.6g} mc={est.mean:.6g} rel={rel:.4f} (tol {rate_rel_tol})",
        )
    )

    if config.q_mux >= 2:
        a2 = analysis.alpha2_closed_form(config)
        product = a2 * (config.q_mux - 1) * cf.xi2
        term = analysis.intra_interference_term(config)
        rel_id = abs(product - term) / term if term else abs(product - term)
        invariant = len(
            {analysis.intra_interference_term(replace(config, sigma_e2=s)) for s in (0.0, 0.125, 0.25)}
        ) == 1
        checks.append(
            CheckResult(
                "interference-identity",
                rel_id <= 1e-12 and invariant,
                f"a2(Q-1)xi2={product:.12g} closed={term:.12g} rel={rel_id:.2e} csit-invariant={invariant}",
            )
        )
    return checks
