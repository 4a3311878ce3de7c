"""Monte Carlo engine: rate/gain estimation, moment oracles, power sweep.

Trials are split into fixed-size batches; batch j draws from the named
substream (seed, stream-tag, j) and partial sums are combined in batch-index
order, so results are bit-identical for a given seed regardless of how many
workers evaluate the batches.  Channel draws are reused across a q grid (the
draw width is the largest q) and across transmit-power grids (power only
rescales alpha^2), which also pins the Q argmax to one set of realisations.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

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

# stream tags keep the independent estimators on disjoint substreams
_STREAM_RATE = 0
_STREAM_BASELINE = 1
_STREAM_MOMENTS = 2
_STREAM_POWER = 3

_INV_LN2 = 1.0 / np.log(2.0)


@dataclass(frozen=True)
class RateEstimate:
    """Monte Carlo mean of the effective sum rate with its standard error."""

    mean: float
    std_error: float
    trials: int
    config: SystemConfig


@dataclass(frozen=True)
class ScalarEstimate:
    mean: float
    std_error: float
    trials: int


@dataclass(frozen=True)
class MomentOracleResult:
    """Empirical xi1, xi2 and desired-signal moments with standard errors."""

    xi1: float
    xi1_stderr: float
    xi2: float
    xi2_stderr: float
    desired: float
    desired_stderr: float
    trials: int


def _batches(trials: int) -> list[tuple[int, int]]:
    out = []
    j, left = 0, trials
    while left > 0:
        n = min(BATCH_TRIALS, left)
        out.append((j, n))
        j += 1
        left -= n
    return out


def _run_batches(worker: Callable[[int, int], np.ndarray], trials: int, workers: int) -> np.ndarray:
    """Evaluate batches (possibly concurrently) and reduce partial sums in
    fixed batch order."""
    batches = _batches(trials)
    if workers <= 1:
        parts = [worker(j, n) for j, n in batches]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda jn: worker(*jn), batches))
    total = parts[0].copy()
    for part in parts[1:]:
        total += part
    return total


def _mean_se(sums: np.ndarray, sumsq: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    mean = sums / n
    var = np.maximum(sumsq - n * mean**2, 0.0) / (n - 1)
    return mean, np.sqrt(var / n)


def _draw(config: SystemConfig, q_width: int):
    """Channel draw of `config.shadowing` for G groups of q_width users, with
    the CSIT estimates; either array is shaped (n, G, q_width, L)."""
    n_users = config.g_groups * q_width
    shape = (config.g_groups, q_width, config.l_antennas)

    def draw(rng, n):
        h = config.shadowing.draw(rng, config.l_antennas, (n, n_users))
        h_hat = estimation_noise(h.shape, config.sigma_e2, rng)
        h_hat += h
        return h.reshape((n,) + shape), h_hat.reshape((n,) + shape)

    return draw


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
    # validate every cell up front; alpha2 and xi depend on (pt, q) only
    alpha2 = np.empty((len(pt_values), len(q_grid)))
    xi = np.empty(len(q_grid))
    for qi, q in enumerate(q_grid):
        cfg_q = replace(config, q_mux=q)
        xi[qi] = cfg_q.xi
        for pi, pt in enumerate(pt_values):
            alpha2[pi, qi] = analysis.alpha2_closed_form(replace(cfg_q, p_t=pt))
    draw = _draw(config, max(q_grid))

    def worker(j: int, n: int) -> np.ndarray:
        rng = substream(seed, stream, j)
        h, h_hat = draw(rng, n)
        # inner[n, g, b, c] = h_gb^T hhat_gc^*, via batched matmul; the
        # estimates are conjugated in place, as nothing else reads them
        inner = h @ np.conjugate(h_hat, out=h_hat).swapaxes(-1, -2)
        power = inner.real**2 + inner.imag**2
        out = np.empty((len(pt_values), len(q_grid), 2))
        for qi, q in enumerate(q_grid):
            pq = power[:, :, :q, :q]
            signal = np.diagonal(pq, axis1=2, axis2=3).copy()
            interference = pq.sum(axis=3) - signal
            sinr, denominator = np.empty_like(signal), np.empty_like(signal)
            for pi in range(len(pt_values)):
                # sinr = a2 * signal / (1 + a2 * interference), into reused buffers
                a2 = alpha2[pi, qi]
                np.multiply(a2, interference, out=denominator)
                np.add(1.0, denominator, out=denominator)
                np.multiply(a2, signal, out=sinr)
                np.divide(sinr, denominator, out=sinr)
                np.log1p(sinr, out=sinr)
                rates = xi[qi] * _INV_LN2 * sinr.sum(axis=(1, 2))
                out[pi, qi, 0] = rates.sum()
                out[pi, qi, 1] = (rates * rates).sum()
        return out

    totals = _run_batches(worker, trials, workers)
    return _mean_se(totals[..., 0], totals[..., 1], trials)


def mc_sum_rate(
    config: SystemConfig,
    trials: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> RateEstimate:
    """Monte Carlo mean of the effective sum rate at the given operating
    point, using the statistical power factor of the closed-form analysis."""
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    means, ses = _rate_table_raw(
        config, [config.q_mux], [config.p_t], trials, seed, workers, _STREAM_RATE
    )
    return RateEstimate(mean=float(means[0, 0]), std_error=float(ses[0, 0]), trials=trials, config=config)


def mc_rate_table(
    config: SystemConfig,
    q_grid: Sequence[int],
    pt_values: Sequence[float],
    trials: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> list[list[RateEstimate]]:
    """Sum-rate estimates on a (transmit power, q) grid, indexed
    [pt][q], sharing one set of channel draws of width max(q_grid)."""
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    means, ses = _rate_table_raw(config, q_grid, pt_values, trials, seed, workers, _STREAM_RATE)
    return [
        [
            RateEstimate(
                mean=float(means[pi, qi]),
                std_error=float(ses[pi, qi]),
                trials=trials,
                config=replace(config, q_mux=q, p_t=float(pt)),
            )
            for qi, q in enumerate(q_grid)
        ]
        for pi, pt in enumerate(pt_values)
    ]


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
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
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


def mc_effective_gain(
    config: SystemConfig,
    q_max: int = 8,
    q_max_baseline: int = 8,
    trials: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> analysis.GainResult:
    """Monte Carlo effective gain at the config's own transmit power."""
    return mc_gain_table(config, [config.p_t], q_max, q_max_baseline, trials, seed, workers)[0]


def mc_moment_oracle(
    params: ShadowingParams,
    sigma_e2: float,
    l_antennas: int,
    trials: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
) -> MomentOracleResult:
    """Empirical counterparts of the closed-form moments.

    xi1 from ||h||^4 samples, xi2 from |h^T hhat'^*|^2 with the estimate of a
    second, independent user, and the desired-signal moment |h^T hhat^*|^2
    with the user's own estimate.
    """
    if trials < 10_000:
        raise ValueError(f"trials must be >= 10000, got {trials}")

    def worker(j: int, n: int) -> np.ndarray:
        rng = substream(seed, _STREAM_MOMENTS, j)
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
        return np.array(
            [
                [xi1_s.sum(), (xi1_s * xi1_s).sum()],
                [xi2_s.sum(), (xi2_s * xi2_s).sum()],
                [desired_s.sum(), (desired_s * desired_s).sum()],
            ]
        )

    totals = _run_batches(worker, trials, workers)
    means, ses = _mean_se(totals[:, 0], totals[:, 1], trials)
    return MomentOracleResult(
        xi1=float(means[0]),
        xi1_stderr=float(ses[0]),
        xi2=float(means[1]),
        xi2_stderr=float(ses[1]),
        desired=float(means[2]),
        desired_stderr=float(ses[2]),
        trials=trials,
    )


def mc_transmit_power(
    config: SystemConfig,
    trials: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> ScalarEstimate:
    """Empirical E[||x||^2] of the superimposed matched-filter signal with
    unit-power Gaussian symbols; must match P_t under the statistical
    power factor."""
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    alpha = np.sqrt(analysis.alpha2_closed_form(config))
    draw = _draw(config, config.q_mux)
    shape = (config.g_groups, config.q_mux)

    def worker(j: int, n: int) -> np.ndarray:
        rng = substream(seed, _STREAM_POWER, j)
        _, h_hat = draw(rng, n)
        g = rng.standard_normal((n,) + shape + (2,))
        symbols = np.sqrt(0.5) * (g[..., 0] + 1j * g[..., 1])
        x = alpha * np.einsum("ngql,ngq->nl", h_hat.conj(), symbols)
        pw = (x.real**2 + x.imag**2).sum(axis=1)
        return np.array([pw.sum(), (pw * pw).sum()])

    totals = _run_batches(worker, trials, workers)
    means, ses = _mean_se(totals[0], totals[1], trials)
    return ScalarEstimate(mean=float(means), std_error=float(ses), trials=trials)


# ---------------------------------------------------------------------------
# Power sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """One transmit power of a gain sweep: the closed-form and Monte Carlo
    Q-optimised gains, None where not evaluated; `error` says why the closed
    form is missing."""

    pt_db: float
    analytic: analysis.GainResult | None
    mc: analysis.GainResult | None
    error: str | None


def sweep(
    config: SystemConfig,
    pt_db_values: Sequence[float],
    q_max: int = 8,
    q_max_baseline: int = 8,
    trials: int = 100_000,
    seed: int = 0,
    workers: int = 1,
    monte_carlo: bool = True,
) -> list[SweepRow]:
    """Closed-form and (unless `monte_carlo` is false) Monte Carlo
    Q-optimised gain at each transmit power in dB.

    The Monte Carlo side is one `mc_gain_table` pass, so one set of channel
    draws serves the whole grid (power only rescales alpha^2).  A
    `ValueError` from the closed form, such as the LOS/NLOS mixture's missing
    moments, is recorded in its row; every other error, Monte Carlo ones
    included, propagates.
    """
    if len(pt_db_values) == 0:
        raise ValueError("sweep grid must be nonempty")
    configs = [replace(config, p_t=10.0 ** (float(v) / 10.0)) for v in pt_db_values]
    analytic: list[analysis.GainResult | None] = []
    errors: list[str | None] = []
    for cfg in configs:
        try:
            analytic.append(analysis.effective_gain_closed_form(cfg, q_max, q_max_baseline))
            errors.append(None)
        except ValueError as exc:
            analytic.append(None)
            errors.append(str(exc))
    mc = (
        mc_gain_table(config, [cfg.p_t for cfg in configs], q_max, q_max_baseline, trials, seed, workers)
        if monte_carlo
        else [None] * len(configs)
    )
    return [
        SweepRow(pt_db=float(v), analytic=a, mc=m, error=e)
        for v, a, m, e in zip(pt_db_values, analytic, mc, errors)
    ]


# ---------------------------------------------------------------------------
# Oracle suite: every closed form checked against its Monte Carlo estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def oracle_suite(
    config: SystemConfig,
    rate_trials: int = 100_000,
    moment_trials: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
    rate_rel_tol: float = 0.05,
) -> list[CheckResult]:
    """Validate the closed forms at one operating point: transmit-power
    contract (3 standard errors), xi1/xi2/desired moments (3 standard
    errors), the average-rate approximation (relative tolerance), and the
    interference-term identity (1e-12, bit-identical across CSIT error).

    The closed-form moments are evaluated first, so a channel model without
    them (the LOS/NLOS mixture) raises `ValueError` before any draw."""
    cf = analysis.xi_moments_closed_form(config.shadowing, config.sigma_e2, config.l_antennas)
    des = analysis.desired_signal_moment(config.shadowing, config.sigma_e2, config.l_antennas)
    checks: list[CheckResult] = []

    for label, cfg in (("vcc", config), ("baseline", replace(config, g_groups=1))):
        est = mc_transmit_power(cfg, rate_trials, seed, workers)
        err = abs(est.mean - cfg.p_t)
        ok = err <= 3.0 * est.std_error
        checks.append(
            CheckResult(
                f"power-contract-{label}",
                ok,
                f"E[|x|^2]={est.mean:.6g} target={cfg.p_t:.6g} err={err:.3g} (3se={3*est.std_error:.3g})",
            )
        )

    mom = mc_moment_oracle(config.shadowing, config.sigma_e2, config.l_antennas, moment_trials, seed, workers)
    for name, mc_val, se, cf_val in (
        ("moment-xi1", mom.xi1, mom.xi1_stderr, cf.xi1),
        ("moment-xi2", mom.xi2, mom.xi2_stderr, cf.xi2),
        ("moment-desired", mom.desired, mom.desired_stderr, des),
    ):
        ok = abs(mc_val - cf_val) <= 3.0 * se
        checks.append(
            CheckResult(name, ok, f"mc={mc_val:.6g} closed={cf_val:.6g} (3se={3*se:.3g})")
        )

    est = mc_sum_rate(config, rate_trials, seed, workers)
    cf_rate = analysis.avg_sum_rate_closed_form(config)
    rel = abs(cf_rate - est.mean) / est.mean
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
