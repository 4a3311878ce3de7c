"""Monte Carlo engine: rate/gain estimation, moment oracles, power sweep.

Every Monte Carlo mean goes through one batch-and-reduce function,
`_estimate`, to which an estimator gives only its per-trial values.  Batch j
of the fixed-size batches draws from the named substream (seed, stream-tag,
j) and the batches' moments are merged in batch-index order, so results are
bit-identical for a given seed at any worker count.  Channel draws are reused
across a q grid (the draw width is the largest q) and across transmit-power
grids (power only rescales alpha^2), which also pins the Q argmax to one set
of realisations.  At one operating point, the rate, both transmit-power
contracts and the three channel moments read the same draw
(`_operating_point`), so `validate` makes one draw and the moment oracle is
that estimator at G = 1, Q = 2.

A batch is drawn and evaluated one chunk of `CHUNK_USERS` users at a time
(`_chunks`): each chunk's channels, then its estimation noise, are drawn from
the batch's substream just before the chunk is evaluated.  So the channels,
estimates and Gram terms exist per chunk, the per-trial values are the only
batch-sized arrays, and the chunk size, like the batch size, is part of the
random stream.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import analysis
# unused here, but perfbench/tests/test_perfbench_tracer.py checks that the
# tracer rebinds it in this module
from .channel import ShadowingParams, estimation_noise, sample_channel_array, substream  # noqa: F401
from .linkphy import SystemConfig, sinr_batch

BATCH_TRIALS = 4096  # fixed: changing it changes the draw stream
# users (trials x G x draw width) per chunk, which bounds a batch's channel,
# estimate and Gram arrays whatever G: 128 trials of fig2's 6 x 8 users, 768
# of its 8-user baseline.  Fixed: changing it changes the draw stream.  At 2x
# and 4x this size glibc returned each chunk's freed arrays to the OS and
# faulted them back in (10x the minor faults per fig2 batch); at half of it
# the per-chunk calls slowed fig2, and so did 128 trials at every G, through
# the baseline's 6x more chunks.
CHUNK_USERS = 6144

# stream tags keep the independent estimators on disjoint substreams: the
# rate grid and the operating point (rate, power and moments), and the
# gain's baseline side
_STREAM_RATE = 0
_STREAM_BASELINE = 1

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
    on a pool of `workers` threads if more than one.  Each batch gives its
    count, mean and sum of squared deviations M2, two-pass, and these are
    merged in batch order after Chan, Golub and LeVeque (1979), so the
    result does not depend on the worker count.  An overflow or invalid
    value, in a batch or in their merge, raises `ValueError`."""
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    def batch(j: int) -> tuple[int, np.ndarray, np.ndarray]:
        # set per batch: a pool thread does not inherit the caller's errstate
        with np.errstate(over="raise", invalid="raise"):
            n = min(BATCH_TRIALS, trials - j * BATCH_TRIALS)
            x = samples(substream(seed, stream, j), n)
            # the deviations from the first-pass mean, whose own mean corrects
            # it: so constant samples give their value and M2 = 0 exactly
            mean = x.sum(axis=-1) / n
            d = x - mean[..., None]
            correction = d.sum(axis=-1) / n
            d -= correction[..., None]
            d *= d
            return n, mean + correction, d.sum(axis=-1)

    batches = range(-(-trials // BATCH_TRIALS))
    try:
        # one worker runs the batches here rather than on a one-thread pool:
        # the bits are the same, but a pool raised validate's peak RSS from 76
        # to 103-117 MiB (likely the pool thread's own malloc arena; not verified)
        if workers == 1:
            parts = [batch(j) for j in batches]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(batch, batches))
        with np.errstate(over="raise", invalid="raise"):
            n, mean, m2 = parts[0]
            for n_b, mean_b, m2_b in parts[1:]:
                delta = mean_b - mean
                mean = mean + delta * (n_b / (n + n_b))
                m2 = m2 + m2_b + delta * delta * (n * n_b / (n + n_b))
                n += n_b
            var = m2 / (trials - 1)
    except FloatingPointError as exc:
        raise ValueError(f"Monte Carlo values are not finite ({exc}); is p_t too large?") from None
    return mean, np.sqrt(var / trials)


def _chunks(
    config: SystemConfig, q_width: int, rng: np.random.Generator, n: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield `(offset, h, h_hat)` for each chunk of n trials of G groups of
    q_width users, `CHUNK_USERS` // (G q_width) trials (at least one) per
    chunk, both shaped (chunk, G, q_width, L): `h` the chunk's draw of
    `config.shadowing` and `h_hat` its CSIT estimate, which the caller may
    overwrite.  The chunk's channels, then its estimation noise, are drawn
    from `rng` only when the chunk is asked for.

    The previous chunk stays referenced while the next one is drawn.
    Releasing it first cut a batch's traced peak by up to a quarter, but
    glibc then trimmed the heap after every chunk: fig6 took 4x the minor
    faults and 15% more wall time."""
    step = max(1, CHUNK_USERS // (config.g_groups * q_width))
    for a in range(0, n, step):
        m = min(step, n - a)
        h = config.shadowing.draw(rng, config.l_antennas, (m, config.g_groups * q_width))
        h = h.reshape(m, config.g_groups, q_width, config.l_antennas)
        h_hat = estimation_noise(h.shape, config.sigma_e2, rng)
        h_hat += h
        yield a, h, h_hat


def _rate_kernel(config: SystemConfig, q_grid: list[int], pt_values: list[float]) -> Callable[..., np.ndarray]:
    """Validate a (pt, q) rate grid and return `rates(h, h_hat, out)`, which
    writes one chunk's per-trial effective sum rates of every cell into
    `out`, shaped (pt, q, chunk), conjugates `h_hat` in place and returns the
    Gram powers |h_gb^T hhat_gc^*|^2, shaped (chunk, G, width, width)."""
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

    def rates(h: np.ndarray, h_hat: np.ndarray, out: np.ndarray) -> np.ndarray:
        # inner[n, g, b, c] = h_gb^T hhat_gc^*, via batched matmul
        inner = h @ np.conjugate(h_hat, out=h_hat).swapaxes(-1, -2)
        power = inner.real**2 + inner.imag**2
        for qi, q in enumerate(q_grid):
            # every power at once: alpha2 of q index qi, shaped (P, 1, 1, 1)
            sinr = sinr_batch(power[:, :, :q, :q], alpha2[:, qi, None, None, None])
            np.log1p(sinr, out=sinr)
            out[:, qi] = xi[qi] * _INV_LN2 * sinr.sum(axis=(2, 3))
        return power

    return rates


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
    rates_of = _rate_kernel(config, q_grid, pt_values)

    def samples(rng: np.random.Generator, n: int) -> np.ndarray:
        # per-trial rates of the batch, reduced once by `_estimate`
        rates = np.empty((len(pt_values), len(q_grid), n))
        for a, h, h_hat in _chunks(config, max(q_grid), rng, n):
            rates_of(h, h_hat, rates[:, :, a : a + len(h)])
        return rates

    return _estimate(samples, trials, seed, stream, workers)


def _operating_point(config: SystemConfig, trials: int, seed: int, workers: int) -> tuple[Estimate, ...]:
    """Effective sum rate, VCC and baseline transmit power, and the moments
    xi1, xi2 and desired at one operating point, from one draw on
    `_STREAM_RATE` of G groups of w = max(Q, 2) users.

    The rate and both powers read the first Q users of each group.  Each
    power is conditioned on the channel estimate: for unit-power symbols
    E_s||x||^2 = alpha^2 sum_k ||hhat_k||^2 exactly, which must average to
    P_t.  The VCC power sums all G groups; the baseline power reads group 0,
    which is distributed exactly as a G = 1 draw, at the baseline's alpha^2.

    Per trial, xi1 is the mean of ||h_k||^4 over the G w users, desired the
    mean of the Gram diagonal |h_k^T hhat_k^*|^2, and xi2 the mean of its
    G w (w - 1) off-diagonal entries, each a pair of independent users
    (hence w >= 2)."""
    q, width = config.q_mux, max(config.q_mux, 2)
    rates_of = _rate_kernel(config, [q], [config.p_t])
    alpha2 = analysis.alpha2_closed_form(config)
    alpha2_baseline = analysis.alpha2_closed_form(replace(config, g_groups=1))

    def samples(rng: np.random.Generator, n: int) -> np.ndarray:
        x = np.empty((6, n))
        for a, h, h_hat in _chunks(config, width, rng, n):
            trials_c = slice(a, a + len(h))
            # the real and imaginary parts of each group's estimates (a view
            # unless Q < w)
            parts = h_hat[:, :, :q].reshape(len(h_hat), config.g_groups, -1).view(np.float64)
            group_power = np.einsum("ngi,ngi->ng", parts, parts)
            x[1, trials_c] = group_power.sum(axis=1)
            x[2, trials_c] = group_power[:, 0]
            h_parts = h.view(np.float64)
            norm2 = np.einsum("ngki,ngki->ngk", h_parts, h_parts)
            x[3, trials_c] = (norm2 * norm2).mean(axis=(1, 2))
            # row 0 as the one (pt, q) cell of the kernel's output
            power = rates_of(h, h_hat, x[None, :1, trials_c])
            diagonal = np.diagonal(power, axis1=2, axis2=3).sum(axis=(1, 2))
            x[4, trials_c] = (power.sum(axis=(1, 2, 3)) - diagonal) / (config.g_groups * width * (width - 1))
            x[5, trials_c] = diagonal / (config.g_groups * width)
        x[1] *= alpha2
        x[2] *= alpha2_baseline
        return x

    means, ses = _estimate(samples, trials, seed, _STREAM_RATE, workers)
    return tuple(Estimate(float(m), float(se)) for m, se in zip(means, ses))


def mc_sum_rate(config: SystemConfig, trials: int = 100_000, seed: int = 0, workers: int = 1) -> Estimate:
    """Monte Carlo mean of the effective sum rate at the given operating
    point, using the statistical power factor of the closed-form analysis."""
    return _operating_point(config, trials, seed, workers)[0]


def mc_transmit_power(config: SystemConfig, trials: int = 100_000, seed: int = 0, workers: int = 1) -> Estimate:
    """Empirical E[||x||^2] of the matched-filter signal, conditioned on the
    channel estimate, over the draw `mc_sum_rate` reads (see
    `_operating_point`)."""
    return _operating_point(config, trials, seed, workers)[1]


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
    qs_vcc = analysis.gain_q_grid(q_max)
    qs_base = analysis.gain_q_grid(q_max_baseline)
    v_mean, v_se = _rate_table_raw(config, qs_vcc, pt_values, trials, seed, workers, _STREAM_RATE)
    b_mean, b_se = _rate_table_raw(
        replace(config, g_groups=1), qs_base, pt_values, trials, seed, workers, _STREAM_BASELINE
    )
    return [
        analysis.q_optimised_gain(qs_vcc, v, qs_base, b, se_v, se_b)
        for v, b, se_v, se_b in zip(v_mean, b_mean, v_se, b_se)
    ]


def mc_moment_oracle(
    config: SystemConfig, trials: int = 1_000_000, seed: int = 0, workers: int = 1
) -> analysis.Moments:
    """Empirical counterparts of the closed-form moments, as `Estimate`s:
    those of the G = 1, Q = 2 operating point at `config`'s channel, power
    and CSIT error (see `_operating_point`)."""
    if trials < 10_000:
        raise ValueError(f"trials must be >= 10000, got {trials}")
    return analysis.Moments(*_operating_point(replace(config, g_groups=1, q_mux=2), trials, seed, workers)[3:])


# ---------------------------------------------------------------------------
# Power sweep
# ---------------------------------------------------------------------------

def sweep(
    config: SystemConfig,
    pt_values: Sequence[float],
    q_max: int = 8,
    trials: int = 100_000,
    seed: int = 0,
    workers: int = 1,
    monte_carlo: bool = True,
) -> list[tuple[analysis.GainResult | None, analysis.GainResult | None]]:
    """Closed-form and (unless `monte_carlo` is false) Monte Carlo
    Q-optimised gain at each linear transmit power, with q capped at `q_max`
    on both sides, as one `(analytic, mc)` pair per power; None where not
    evaluated.

    The closed form is evaluated only for a `ShadowingParams` channel; the
    LOS/NLOS mixture has none.  Every error propagates.  The Monte Carlo side
    is one `mc_gain_table` pass, so one set of channel draws serves the whole
    grid (power only rescales alpha^2).
    """
    if len(pt_values) == 0:
        raise ValueError("sweep grid must be nonempty")
    configs = [replace(config, p_t=float(p)) for p in pt_values]
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
    return list(zip(analytic, mc))


# ---------------------------------------------------------------------------
# Oracle suite: every closed form checked against its Monte Carlo estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def oracle_suite(config: SystemConfig, trials: int = 100_000, seed: int = 0, workers: int = 1) -> list[CheckResult]:
    """Validate the closed forms at one operating point: the transmit-power
    contract conditioned on the channel estimate, for VCC and for the
    baseline (3 standard errors), xi1/xi2/desired moments (3 standard
    errors), the average-rate approximation (5% relative), and the
    interference-term identity (1e-12, and the product form a2 (Q-1) xi2
    within 1e-12 relative of itself across CSIT errors 0, 0.125 and 0.25).

    Every Monte Carlo line reads one draw of the operating point (see
    `_operating_point`): the baseline's power is that of group 0, which is
    distributed exactly as a G = 1 draw, so it keeps its own sampling error
    instead of rescaling the VCC line, and the moments are those of the
    draw's G max(Q, 2) users.

    The closed forms are evaluated first, so a channel model without
    moments (the LOS/NLOS mixture) or without power, or a rate that is not
    finite, raises `ValueError` before any draw."""
    cf = analysis.xi_moments_closed_form(config)
    a2 = analysis.alpha2_closed_form(config)
    cf_rate = analysis.avg_sum_rate_closed_form(config)
    point = _operating_point(config, trials, seed, workers)
    rate, powers, moments = point[0], point[1:3], point[3:]
    checks: list[CheckResult] = []

    # both sides target the same P_t
    for label, est in zip(("vcc", "baseline"), powers):
        err = abs(est.mean - config.p_t)
        ok = err <= 3.0 * est.std_error
        checks.append(
            CheckResult(
                f"power-contract-{label}",
                ok,
                f"E[|x|^2]={est.mean:.6g} target={config.p_t:.6g} err={err:.3g} (3se={3*est.std_error:.3g})",
            )
        )

    for name, (mc_val, se), cf_val in zip(cf._fields, moments, cf):
        ok = abs(mc_val - cf_val) <= 3.0 * se
        checks.append(
            CheckResult(f"moment-{name}", ok, f"mc={mc_val:.6g} closed={cf_val:.6g} (3se={3*se:.3g})")
        )

    rel = abs(cf_rate - rate.mean) / rate.mean
    rate_rel_tol = 0.05
    checks.append(
        CheckResult(
            "rate-approximation",
            rel <= rate_rel_tol,
            f"closed={cf_rate:.6g} mc={rate.mean:.6g} rel={rel:.4f} (tol {rate_rel_tol})",
        )
    )

    if config.q_mux >= 2:
        product = a2 * (config.q_mux - 1) * cf.xi2
        term = analysis.intra_interference_term(config)
        rel_id = abs(product - term) / term if term else abs(product - term)
        # the sigma_e2 of xi2 cancels the one of a2 only if both forms carry it
        products = [
            analysis.alpha2_closed_form(c) * (c.q_mux - 1) * analysis.xi_moments_closed_form(c).xi2
            for c in (replace(config, sigma_e2=s) for s in (0.0, 0.125, 0.25))
        ]
        invariant = max(products) - min(products) <= 1e-12 * term
        checks.append(
            CheckResult(
                "interference-identity",
                rel_id <= 1e-12 and invariant,
                f"a2(Q-1)xi2={product:.12g} closed={term:.12g} rel={rel_id:.2e} csit-invariant={invariant}",
            )
        )
    return checks
