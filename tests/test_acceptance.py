"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
pytest -s, or in the captured output of failing tests) before asserting.
Monte Carlo checks use fixed seeds and the stated trial counts, so the suite
is deterministic.
"""

import time
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from reference import full_signal_roundtrip, intra_group_reference, make_config

from vccsat import analysis, experiments
from vccsat.caching import CacheLayout, build_schedule, verify_completeness
from vccsat.channel import (
    SCENARIOS,
    DynamicScenario,
    sample_channel_array,
    estimation_noise,
    substream,
)
from vccsat.cli import main as cli_main

pytestmark = pytest.mark.slow  # deselect with -m "not slow" for a fast loop

WORKERS = 2
PT_GRID_DB = [0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0]
PT_TABLE_II_DB = 18.1


def report(number: int, name: str, passed: bool, detail: str = "") -> bool:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number:2d} {name}: {status}"
    if detail:
        line += f" — {detail}"
    print(line)
    return passed


def db(x):
    return 10.0 ** (x / 10.0)


def test_c01_moment_oracles():
    """xi1, xi2 and the desired-signal moment within 3 standard errors of the
    closed forms, for every scenario, L in {8, 16}, sigma_e2 in {0, 0.125},
    at 1e6 trials and under one minute per cell."""
    failures = []
    slowest = 0.0
    for name, l_antennas, sigma_e2 in product(SCENARIOS, (8, 16), (0.0, 0.125)):
        config = make_config(name, l_antennas=l_antennas, sigma_e2=sigma_e2)
        start = time.time()
        moments = experiments.mc_moment_oracle(config, trials=1_000_000, seed=0, workers=WORKERS)
        elapsed = time.time() - start
        slowest = max(slowest, elapsed)
        cf = analysis.xi_moments_closed_form(config)
        for label, (mc_val, se), cf_val in zip(cf._fields, moments, cf):
            sigmas = abs(mc_val - cf_val) / se
            if sigmas > 3.0:
                failures.append(f"{name} L={l_antennas} s={sigma_e2} {label}: {sigmas:.2f} sigma")
        if elapsed >= 60.0:
            failures.append(f"{name} L={l_antennas} s={sigma_e2}: took {elapsed:.1f}s")
    ok = report(
        1,
        "moment oracles (12 cells x 3 moments, 3se)",
        not failures,
        f"slowest cell {slowest:.1f}s" + (f"; violations: {failures}" if failures else ""),
    )
    assert ok, failures


def test_c02_power_contract():
    """Empirical E[||x||^2] equals P_t within 3 standard errors at 1e5 blocks
    for the cache-aided (G=6) and baseline (G=1) configurations."""
    failures = []
    for label, config in (
        ("vcc-G6", make_config()),
        ("baseline-G1", make_config(g_groups=1, q_mux=8)),
    ):
        est = experiments.mc_transmit_power(config, trials=100_000, seed=0, workers=WORKERS)
        gap = abs(est.mean - config.p_t)
        if gap > 3 * est.std_error:
            failures.append(f"{label}: E||x||^2={est.mean:.5f} vs {config.p_t} (3se={3*est.std_error:.2g})")
    ok = report(2, "transmit-power contract (3se, 1e5 blocks)", not failures, "; ".join(failures))
    assert ok, failures


def test_c03_rate_approximation_tightness():
    """|analytic - MC| / MC <= 5% for the Q-optimised effective gain of G=6
    over G=1, each side maximised over Q in {2,4,8}, across P_t in {0..21} dB
    and all scenarios, L=8, 1e5 trials per point.

    The per-cell sum-rate gap is reported but not bounded.  The closed form
    replaces E[log2(1 + SINR)] by the log of expected powers (Lemma 1 of
    Zhang et al., IEEE JSTSP 2014); on this grid its gap has either sign and
    no tolerance with a stated basis holds for it, so the abstract's claim
    that the rate itself is tightly validated is not tested here.
    """
    qs = [2, 4, 8]
    pts = [db(p) for p in PT_GRID_DB]
    rate_over = 0
    worst_rate = (0.0, "")
    best = {}  # (scenario, G, pt index) -> (best MC rate, best analytic rate)
    for name, g_groups in product(SCENARIOS, (1, 6)):
        config = make_config(name, g_groups=g_groups, q_mux=2)
        means, _ = experiments._rate_table_raw(
            config, qs, pts, 100_000, 0, WORKERS, experiments._STREAM_RATE
        )
        for (pi, pt_db), (qi, q) in product(enumerate(PT_GRID_DB), enumerate(qs)):
            mc = means[pi, qi]
            cf = analysis.avg_sum_rate_closed_form(replace(config, q_mux=q, p_t=pts[pi]))
            rel = abs(cf - mc) / mc
            if rel > worst_rate[0]:
                worst_rate = (rel, f"{name} G={g_groups} Q={q} pt={pt_db:g}dB rel={rel:.3f}")
            rate_over += rel > 0.05
            mc_best, cf_best = best.get((name, g_groups, pi), (0.0, 0.0))
            best[name, g_groups, pi] = (max(mc_best, mc), max(cf_best, cf))
    violations = []
    worst_gain = (0.0, "")
    for name, (pi, pt_db) in product(SCENARIOS, enumerate(PT_GRID_DB)):
        (mc_vcc, cf_vcc), (mc_base, cf_base) = best[name, 6, pi], best[name, 1, pi]
        mc_gain, cf_gain = mc_vcc / mc_base, cf_vcc / cf_base
        rel = abs(cf_gain - mc_gain) / mc_gain
        cell = f"{name} pt={pt_db:g}dB analytic={cf_gain:.4f} mc={mc_gain:.4f} rel={rel:.3f}"
        if rel > worst_gain[0]:
            worst_gain = (rel, cell)
        if rel > 0.05:
            violations.append(cell)
    detail = (
        f"24 gain cells, worst {worst_gain[1]}; "
        f"144 rate cells, worst {worst_rate[1]}, {rate_over} over 5%"
    )
    if violations:
        detail += f"; {len(violations)} gain cells exceed 5%"
    ok = report(3, "closed-form gain tightness (<=5% vs MC)", not violations, detail)
    assert ok, f"{len(violations)} of 24 gain cells exceed the 5% tolerance: {violations}"


def test_c04_snr_offsets():
    """Average-SNR dB offsets match the reported -9.0 / +0.4 / +2.1 within
    0.05 dB."""
    targets = {"FHS": -9.0, "AS": 0.4, "ILS": 2.1}
    offsets = {name: make_config(name, p_t=1.0).snr_ave_db for name in targets}
    gaps = {name: abs(offsets[name] - t) for name, t in targets.items()}
    failures = [f"{n}: off by {g:.3f} dB" for n, g in gaps.items() if g > 0.05]
    ok = report(
        4,
        "average-SNR offsets (+-0.05 dB)",
        not failures,
        ", ".join(f"{n}={offsets[n]:+.3f}dB" for n in targets),
    )
    assert ok, failures


def test_c05_fhs_gain_anchor_15db():
    """Analytic effective gain for FHS, L=8, caps 8, at P_t = 15 dB lies in
    [2.7, 3.3] (the reported 3x spectral-efficiency gain)."""
    config = make_config("FHS", p_t=db(15.0))
    res = analysis.effective_gain_closed_form(config, q_max=8, q_max_baseline=8)
    ok = report(5, "FHS 15 dB gain anchor (3x)", 2.7 <= res.gain <= 3.3, f"gain={res.gain:.4f}")
    assert ok, res


def test_c06_link_budget_gain_anchors():
    """Gains at the P_t = 18.1 dB link-budget point, L=8: >= 4 (FHS),
    >= 5 (AS), >= 5.5 (ILS), for both the analytic and Monte Carlo routes."""
    thresholds = {"FHS": 4.0, "AS": 5.0, "ILS": 5.5}
    failures = []
    details = []
    for name, threshold in thresholds.items():
        config = make_config(name, p_t=db(PT_TABLE_II_DB))
        cf = analysis.effective_gain_closed_form(config, q_max=8, q_max_baseline=8).gain
        mc = experiments.mc_gain_table(
            config, [config.p_t], q_max=8, q_max_baseline=8, trials=100_000, seed=0, workers=WORKERS
        )[0].gain
        details.append(f"{name}: analytic={cf:.4f} mc={mc:.4f} (>= {threshold})")
        if cf < threshold:
            failures.append(f"{name} analytic {cf:.4f} < {threshold}")
        if mc < threshold:
            failures.append(f"{name} mc {mc:.4f} < {threshold}")
    ok = report(6, "18.1 dB link-budget gain anchors", not failures, "; ".join(details))
    assert ok, failures


def test_c07_short_block_gain_anchor():
    """AS, L=16, T=1e3, P_t=18.1 dB: analytic gain > 3.5 for caps 4 and 8;
    and the T=1e3 gain is below the T=1e4 gain at every grid power."""
    failures = []
    details = []
    for cap in (4, 8):
        config = make_config("AS", l_antennas=16, t_coherence=1_000, p_t=db(PT_TABLE_II_DB))
        gain = analysis.effective_gain_closed_form(config, q_max=cap, q_max_baseline=cap).gain
        details.append(f"cap {cap}: gain={gain:.4f}")
        if gain <= 3.5:
            failures.append(f"cap {cap}: gain {gain:.4f} <= 3.5")
        for pt_db in PT_GRID_DB:
            short = analysis.effective_gain_closed_form(
                make_config("AS", l_antennas=16, t_coherence=1_000, p_t=db(pt_db)),
                q_max=cap,
                q_max_baseline=cap,
            ).gain
            long = analysis.effective_gain_closed_form(
                make_config("AS", l_antennas=16, t_coherence=10_000, p_t=db(pt_db)),
                q_max=cap,
                q_max_baseline=cap,
            ).gain
            if not short < long:
                failures.append(f"cap {cap} pt={pt_db}: gain(T=1e3)={short:.4f} !< gain(T=1e4)={long:.4f}")
    ok = report(7, "T=1e3 gain anchor and overhead degradation", not failures, "; ".join(details))
    assert ok, failures


def test_c08_interference_term_identity():
    """alpha2 (Q-1) xi2 equals the cancelled interference closed form to
    relative 1e-12 on randomised configurations, and the product form agrees
    with itself to relative 1e-12 across sigma_e2 in {0, 0.125, 0.25}."""

    def product_form(config):
        return (
            analysis.alpha2_closed_form(config)
            * (config.q_mux - 1)
            * analysis.xi_moments_closed_form(config).xi2
        )

    rng = substream(0, 99)
    failures = []
    for _ in range(500):
        config = make_config(
            scenario=["FHS", "AS", "ILS"][rng.integers(3)],
            l_antennas=int(rng.integers(1, 64)),
            g_groups=int(rng.integers(1, 10)),
            q_mux=int(rng.integers(2, 11)),
            p_t=float(10 ** rng.uniform(-2, 3)),
            sigma_e2=float(rng.choice([0.0, 0.05, 0.125, 0.25])),
        )
        term = analysis.intra_interference_term(config)
        if abs(product_form(config) - term) > 1e-12 * term:
            failures.append(f"identity off at {config}")
        # the product's sigma_e2 cancels between a2 and xi2; the spread is a
        # few ulp, so exact equality is not asked for
        csit_values = [product_form(replace(config, sigma_e2=s)) for s in (0.0, 0.125, 0.25)]
        if max(csit_values) - min(csit_values) > 1e-12 * term:
            failures.append(f"CSIT dependence at {config}")
    ok = report(8, "interference-term identity (1e-12, CSIT-invariant)", not failures,
                "500 randomised configs")
    assert ok, failures[:5]


def test_c09_csit_insensitivity():
    """AS, L=16: the gain moves by less than 5% of its sigma_e2=0 value for
    sigma_e2 up to 0.25, at every grid power."""
    worst = 0.0
    for pt_db in PT_GRID_DB:
        base = analysis.effective_gain_closed_form(
            make_config("AS", l_antennas=16, sigma_e2=0.0, p_t=db(pt_db)), 8, 8
        ).gain
        for sigma in (0.125, 0.25):
            gain = analysis.effective_gain_closed_form(
                make_config("AS", l_antennas=16, sigma_e2=sigma, p_t=db(pt_db)), 8, 8
            ).gain
            worst = max(worst, abs(gain - base) / base)
    ok = report(9, "CSIT insensitivity (<5% up to sigma_e2=0.25)", worst < 0.05,
                f"worst relative change {worst:.4f}")
    assert ok, worst


def test_c10_antenna_monotonicity():
    """AS: the effective gain with L=16 exceeds the L=8 gain at every grid
    power in [6, 18] dB."""
    gaps = {}
    for pt_db in (6.0, 9.0, 12.0, 15.0, 18.0):
        g8 = analysis.effective_gain_closed_form(make_config("AS", p_t=db(pt_db)), 8, 8).gain
        g16 = analysis.effective_gain_closed_form(
            make_config("AS", l_antennas=16, p_t=db(pt_db)), 8, 8
        ).gain
        gaps[pt_db] = g16 - g8
    failures = [f"pt={p}: {d:+.4f}" for p, d in gaps.items() if d <= 0]
    ok = report(10, "gain grows with antennas (L=16 > L=8)", not failures,
                ", ".join(f"{p:g}dB:{d:+.3f}" for p, d in gaps.items()))
    assert ok, failures


def test_c11_delivery_correctness_exhaustive():
    """Every needed subfile is delivered exactly once for all layouts with
    up to 8 cache states, every 1 <= t < states, Q in {1, 2} and group sizes
    Q and 2Q."""
    checked = 0
    failures = []
    for n_states in range(2, 9):
        for t in range(1, n_states):
            for q in (1, 2):
                for users_per_group in (q, 2 * q):
                    layout = CacheLayout(
                        n_states=n_states,
                        t=t,
                        n_files=n_states * users_per_group,
                        users_per_group=users_per_group,
                    )
                    demands = {u: u for u in range(1, layout.n_users + 1)}
                    schedule = build_schedule(layout, q, demands)
                    rep = verify_completeness(schedule, layout, demands)
                    checked += 1
                    if not rep.complete:
                        failures.append(f"(states={n_states}, t={t}, q={q}, B={users_per_group}): {rep.summary()}")
    ok = report(11, "exhaustive delivery completeness", not failures, f"{checked} layouts verified")
    assert ok, failures


def test_c12_cancellation_exactness():
    """Regenerated inter-group cancellation agrees with the direct
    intra-group expression to relative 1e-10 over 1000 random blocks with
    G <= 6, Q <= 4, L <= 16."""
    rng = substream(0, 98)
    worst = 0.0
    for _ in range(1000):
        g_groups = int(rng.integers(1, 7))
        q_mux = int(rng.integers(1, 5))
        l_antennas = int(rng.integers(1, 17))
        params = SCENARIOS[["FHS", "AS", "ILS"][rng.integers(3)]]
        config = make_config(
            g_groups=g_groups, q_mux=q_mux, l_antennas=l_antennas, shadowing=params
        )
        h = sample_channel_array(params, l_antennas, rng, size=(g_groups, q_mux))
        h_hat = h + estimation_noise(h.shape, 0.125, rng)
        raw = rng.standard_normal((2, g_groups, q_mux, 2))
        symbols = np.sqrt(0.5) * (raw[0, ..., 0] + 1j * raw[0, ..., 1])
        noise = np.sqrt(0.5) * (raw[1, ..., 0] + 1j * raw[1, ..., 1])
        alpha2 = analysis.alpha2_closed_form(config)
        y_prime = full_signal_roundtrip(h, h_hat, alpha2, symbols, noise)
        ref = intra_group_reference(h, h_hat, alpha2, symbols, noise)
        scale = np.max(np.abs(ref))
        worst = max(worst, float(np.max(np.abs(y_prime - ref)) / scale))
    ok = report(12, "inter-group cancellation exactness (<1e-10)", worst < 1e-10,
                f"worst relative residual {worst:.2e}")
    assert ok, worst


def test_c13_dynamic_matches_static():
    """Dynamic-channel configuration (L=16, D=10 km, H=600 km, eta=0.35):
    the dynamic gain is within 5% of the static ILS gain at every grid power,
    1e5 trials."""
    scen = DynamicScenario(radius_km=10.0, altitude_km=600.0, eta=0.35)
    config = make_config("ILS", l_antennas=16, q_mux=2)
    pts = [db(p) for p in PT_GRID_DB]
    static = experiments.mc_gain_table(config, pts, 8, 8, trials=100_000, seed=0, workers=WORKERS)
    dynamic = experiments.mc_gain_table(
        replace(config, shadowing=scen), pts, 8, 8, trials=100_000, seed=0, workers=WORKERS
    )
    rels = [abs(d.gain - s.gain) / s.gain for d, s in zip(dynamic, static)]
    failures = [f"pt={p:g}dB rel={r:.4f}" for p, r in zip(PT_GRID_DB, rels) if r > 0.05]
    ok = report(13, "dynamic channel tracks static ILS (<=5%)", not failures,
                f"worst relative gap {max(rels):.4f}")
    assert ok, failures


def test_c14_csv_determinism_across_workers(tmp_path):
    """Rerunning figure and simulate commands with the same seed produces
    byte-identical CSV output for any worker count."""
    mismatches = []
    fig_args = ["figure", "1", "--trials", "2000", "--seed", "11"]
    for workers, sub in (("1", "w1"), ("2", "w2"), ("4", "w4")):
        assert cli_main(fig_args + ["--outdir", str(tmp_path / sub), "--workers", workers]) == 0
    ref = (tmp_path / "w1" / "fig1_fhs_l8.csv").read_bytes()
    for sub in ("w2", "w4"):
        if (tmp_path / sub / "fig1_fhs_l8.csv").read_bytes() != ref:
            mismatches.append(f"figure workers={sub}")

    sim_args = ["simulate", "--trials", "9000", "--seed", "12", "--gain",
                "--q-max", "3", "--q-max-baseline", "3"]
    for workers, sub in (("1", "s1"), ("3", "s3")):
        out = tmp_path / sub / "run"
        assert cli_main(sim_args + ["--out", str(out), "--workers", workers]) == 0
    if (tmp_path / "s1" / "run.csv").read_bytes() != (tmp_path / "s3" / "run.csv").read_bytes():
        mismatches.append("simulate workers=3")
    ok = report(14, "byte-identical CSV across worker counts", not mismatches, "; ".join(mismatches))
    assert ok, mismatches
