"""Monte Carlo engine: rate/gain estimation, moment oracles, power sweep.

Every Monte Carlo mean goes through one batch-and-reduce function,
`_estimate`, to which an estimator gives only its per-trial values.  Batch j
of the fixed-size batches draws from the named substream (seed, stream-tag,
j) and partial sums are combined in batch-index order, so results are
bit-identical for a given seed at any worker count.  Channel draws are reused
across a q grid (the draw width is the largest q) and across transmit-power
grids (power only rescales alpha^2), which also pins the Q argmax to one set
of realisations.  At one operating point, the rate, both transmit-power
contracts and the three channel moments read the same draw
(`_operating_point`), so `validate` makes one draw and the moment oracle is
that estimator at G = 1, Q = 2.

Within a batch the CSIT estimates exist only per chunk of `CHUNK_TRIALS`
trials: the channel is drawn for the whole batch, then each chunk's
estimation noise is drawn just before the chunk is evaluated.  The noise is
the last draw of a batch and `standard_normal` fills trials in order, so the
chunks read the same normals as one batch-sized draw; per-trial values are
reduced once per batch, so the chunk size moves no output bit.
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
from .linkphy import SystemConfig

BATCH_TRIALS = 4096  # fixed: changing it changes the draw stream
# trials per estimate chunk: bounds a batch's estimate and Gram arrays; any
# size gives the same bits
CHUNK_TRIALS = 512

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
    on a pool of `workers` threads if more than one.  Each batch's sum and
    sum of squares are added in batch order, so the result does not depend
    on the worker count.  An overflow or invalid value, in a batch or in
    their total, raises `ValueError`."""
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    def batch(j: int) -> np.ndarray:
        # set per batch: a pool thread does not inherit the caller's errstate
        with np.errstate(over="raise", invalid="raise"):
            x = samples(substream(seed, stream, j), min(BATCH_TRIALS, trials - j * BATCH_TRIALS))
            return np.stack([x.sum(axis=-1), (x * x).sum(axis=-1)])

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
            sums, sumsq = sum(parts[1:], parts[0])
            mean = sums / trials
            var = np.maximum(sumsq - trials * mean**2, 0.0) / (trials - 1)
    except FloatingPointError as exc:
        raise ValueError(f"Monte Carlo values are not finite ({exc}); is p_t too large?") from None
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
    # alpha2 of q index qi for every power, shaped to broadcast over (P, chunk, G, q)
    alpha2_b = alpha2[:, :, None, None, None]

    def rates(h: np.ndarray, h_hat: np.ndarray, out: np.ndarray) -> np.ndarray:
        # inner[n, g, b, c] = h_gb^T hhat_gc^*, via batched matmul
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
        # per-trial rates of the batch, reduced once by `_estimate`, so the
        # summation order does not depend on the chunk size
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
    interference-term identity (1e-12, bit-identical across CSIT error).

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
