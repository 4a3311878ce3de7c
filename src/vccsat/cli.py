"""Command-line front end: analyze, simulate, figure, schedule, validate.

Configuration comes from an optional flat key=value file plus flags (flags
win).  Power is given in dB (pt_db) or linear (pt_linear).  All result files
are accompanied by a JSON manifest recording the resolved configuration,
seed and tool version; rerunning a command with the same arguments and seed
reproduces every CSV byte for byte, for any worker count.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, analysis, experiments
from .caching import CacheLayout, build_schedule, schedule_to_dict, verify_completeness
from .channel import SCENARIOS, DynamicScenario, ShadowingParams, scenario, snr_ave_db
from .linkphy import SystemConfig

PT_GRID_DB = [0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0]
# figure output additionally carries the 18.1 dB link-budget operating point
FIGURE_PT_GRID_DB = sorted(PT_GRID_DB + [18.1])

FIGURE_SCHEMA = [
    "pt_db",
    "snr_ave_db",
    "scenario",
    "L",
    "G",
    "Q_best_vcc",
    "Q_best_base",
    "rate_vcc",
    "rate_base",
    "gain_analytic",
    "gain_mc",
    "mc_stderr",
    "seed",
]

_CONFIG_KEYS = {
    "scenario": str,
    "m": float,
    "beta": float,
    "omega": float,
    "l": int,
    "g": int,
    "q": int,
    "pt_db": float,
    "pt_linear": float,
    "sigma_e2": float,
    "t": int,
    "theta": int,
    "q_max": int,
    "q_max_baseline": int,
    "trials": int,
    "seed": int,
    "workers": int,
}

_DEFAULTS = {
    "scenario": "AS",
    "l": 8,
    "g": 6,
    "q": 8,
    "pt_db": 18.1,
    "sigma_e2": 0.125,
    "t": 10_000,
    "theta": 12,
    "q_max": 8,
    "q_max_baseline": 8,
    "trials": 100_000,
    "seed": 0,
    "workers": 1,
}


def parse_config_file(path: str | Path) -> dict:
    """Flat key = value text; blank lines and # comments ignored."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip().lower()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](text.strip())
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: cannot parse {key} value {text.strip()!r} as {_CONFIG_KEYS[key].__name__}"
            ) from None
    return values


def _resolved(args: argparse.Namespace) -> dict:
    """defaults < config file < command-line flags.

    A config file may set only the keys the command registers as flags; any
    other key would be ignored, so it is rejected."""
    values = dict(_DEFAULTS)
    if getattr(args, "config", None):
        from_file = parse_config_file(args.config)
        unread = sorted(set(from_file) - set(vars(args)))
        if unread:
            raise ValueError(
                f"{args.config}: vccsat {args.command} does not read config key(s) {', '.join(unread)}"
            )
        values.update(from_file)
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    # a power flag overrides the other unit; an explicit linear value beats
    # the dB default
    if getattr(args, "pt_db", None) is not None:
        values.pop("pt_linear", None)
    elif "pt_linear" in values:
        values.pop("pt_db", None)
    return values


def _shadowing_from(values: dict) -> ShadowingParams:
    custom = [k for k in ("m", "beta", "omega") if k in values]
    if custom:
        if len(custom) != 3:
            raise ValueError(
                f"custom shadowing requires all of m, beta, omega; got only {custom}"
            )
        return ShadowingParams(values["m"], values["beta"], values["omega"])
    return scenario(values["scenario"])


def _scenario_label(values: dict) -> str:
    if all(k in values for k in ("m", "beta", "omega")):
        return "custom"
    return values["scenario"]


def _pt_linear(values: dict) -> float:
    if "pt_linear" in values:
        return float(values["pt_linear"])
    return 10.0 ** (float(values["pt_db"]) / 10.0)


def _system_config(values: dict) -> SystemConfig:
    return SystemConfig(
        l_antennas=values["l"],
        g_groups=values["g"],
        q_mux=values["q"],
        p_t=_pt_linear(values),
        shadowing=_shadowing_from(values),
        sigma_e2=values["sigma_e2"],
        t_coherence=values["t"],
        theta_pilot=values["theta"],
    )


@dataclass
class RunManifest:
    command: str
    resolved: dict
    seed: int | None
    outputs: list[str]
    created_utc: str
    version: str

    @classmethod
    def create(cls, command: str, resolved: dict, seed: int | None, outputs: list[str]) -> "RunManifest":
        return cls(
            command=command,
            resolved=resolved,
            seed=seed,
            outputs=outputs,
            created_utc=datetime.now(timezone.utc).isoformat(),
            version=__version__,
        )

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=2, default=str) + "\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(path: Path, columns: list[str], rows: list[dict], manifest_name: str) -> None:
    lines = [f"# manifest: {manifest_name}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in columns))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args: argparse.Namespace) -> int:
    values = _resolved(args)
    config = _system_config(values)
    if args.gain and config.q_mux < 2:
        raise ValueError(
            "Q must be >= 2 for gain comparisons (precoding-free operation is excluded)"
        )

    a2 = analysis.alpha2_closed_form(config)
    moments = analysis.xi_moments_closed_form(config.shadowing, config.sigma_e2, config.l_antennas)
    rate = analysis.avg_sum_rate_closed_form(config)
    mode = "baseline (cacheless, G=1)" if config.g_groups == 1 else f"cache-aided (G={config.g_groups})"
    print(f"mode            : {mode}")
    print(f"snr_ave_db      : {snr_ave_db(config.p_t, config.shadowing):.4f}")
    print(f"alpha2          : {a2:.6g}")
    print(f"xi              : {config.xi:.6g}")
    print(f"xi1             : {moments.xi1:.6g}")
    print(f"xi2             : {moments.xi2:.6g}")
    print(f"avg_sum_rate    : {rate:.6g}")
    out = {
        "mode": mode,
        "alpha2": a2,
        "xi": config.xi,
        "xi1": moments.xi1,
        "xi2": moments.xi2,
        "avg_sum_rate": rate,
    }
    if args.gain:
        res = analysis.effective_gain_closed_form(config, values["q_max"], values["q_max_baseline"])
        print(
            f"effective_gain  : {res.gain:.6g} "
            f"(Q*={res.best_q_vcc}, Q'*={res.best_q_baseline}, "
            f"rate_vcc={res.rate_vcc:.6g}, rate_base={res.rate_baseline:.6g})"
        )
        out["effective_gain"] = asdict(res)
    if args.json:
        payload = {
            "manifest": asdict(RunManifest.create("analyze", values, None, [args.json])),
            "results": out,
        }
        Path(args.json).write_text(json.dumps(payload, indent=2, default=str) + "\n")
    return 0


# ---------------------------------------------------------------------------
# simulate / validate
# ---------------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    values = _resolved(args)
    config = _system_config(values)
    if args.gain and config.q_mux < 2:
        raise ValueError(
            "Q must be >= 2 for gain comparisons (precoding-free operation is excluded)"
        )
    seed, trials, workers = values["seed"], values["trials"], values["workers"]
    est = experiments.mc_sum_rate(config, trials, seed, workers)
    cf = analysis.avg_sum_rate_closed_form(config)
    row = {
        "pt_db": 10.0 * np.log10(config.p_t),
        "snr_ave_db": snr_ave_db(config.p_t, config.shadowing),
        "scenario": _scenario_label(values),
        "L": config.l_antennas,
        "G": config.g_groups,
        "Q": config.q_mux,
        "rate_analytic": cf,
        "rate_mc": est.mean,
        "mc_stderr": est.std_error,
        "trials": trials,
        "seed": seed,
    }
    columns = list(row)
    results: dict = {"rate": row}
    if args.gain:
        res = experiments.mc_effective_gain(
            config, values["q_max"], values["q_max_baseline"], trials, seed, workers
        )
        cf_gain = analysis.effective_gain_closed_form(config, values["q_max"], values["q_max_baseline"])
        row.update(
            {
                "Q_best_vcc": res.best_q_vcc,
                "Q_best_base": res.best_q_baseline,
                "rate_vcc": res.rate_vcc,
                "rate_base": res.rate_baseline,
                "gain_analytic": cf_gain.gain,
                "gain_mc": res.gain,
                "gain_mc_stderr": res.gain_stderr,
            }
        )
        columns = list(row)
        results["gain"] = {k: row[k] for k in ("gain_analytic", "gain_mc", "gain_mc_stderr")}

    stem = Path(args.out)
    stem.parent.mkdir(parents=True, exist_ok=True)
    csv_path = stem.with_suffix(".csv")
    json_path = stem.with_suffix(".json")
    manifest = RunManifest.create("simulate", values, seed, [csv_path.name, json_path.name])
    _write_csv(csv_path, columns, [row], json_path.name)
    json_path.write_text(
        json.dumps({"manifest": asdict(manifest), "results": results}, indent=2, default=str) + "\n"
    )
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    values = _resolved(args)
    checks = experiments.oracle_suite(
        _system_config(values),
        rate_trials=values["trials"],
        moment_trials=max(values["trials"], 10_000) * 10,
        seed=values["seed"],
        workers=values["workers"],
    )
    failures = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
        failures += 0 if check.passed else 1
    print(f"oracle suite: {len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------

def _figure_curves(fig: int, values: dict) -> list[dict]:
    """Figure reproductions: curve name, label, config template and q caps."""
    t, theta = values["t"], values["theta"]

    def cfg(scn, l_antennas, sigma=0.125, t_coh=None):
        return SystemConfig(
            l_antennas=l_antennas,
            g_groups=6,
            q_mux=2,
            p_t=1.0,
            shadowing=SCENARIOS[scn] if isinstance(scn, str) else scn,
            sigma_e2=sigma,
            t_coherence=t_coh if t_coh is not None else t,
            theta_pilot=theta,
        )

    if fig == 1:
        return [dict(name="fhs_l8", label="FHS", config=cfg("FHS", 8), q_max=8, q_max_baseline=8)]
    if fig == 2:
        return [
            dict(name=f"{s.lower()}_l8", label=s, config=cfg(s, 8), q_max=8, q_max_baseline=8)
            for s in ("FHS", "AS", "ILS")
        ]
    if fig == 3:
        return [
            dict(name=f"as_l{l}", label="AS", config=cfg("AS", l), q_max=8, q_max_baseline=8)
            for l in (8, 16)
        ]
    if fig == 4:
        return [
            dict(
                name=f"as_l16_sigma{s:g}",
                label="AS",
                config=cfg("AS", 16, sigma=s),
                q_max=8,
                q_max_baseline=8,
            )
            for s in (0.0, 0.125, 0.25)
        ]
    if fig == 5:
        return [
            dict(
                name=f"as_l16_T{t_coh}_cap{cap}",
                label="AS",
                config=cfg("AS", 16, t_coh=t_coh),
                q_max=cap,
                q_max_baseline=cap,
            )
            for t_coh in (1_000, 10_000)
            for cap in (4, 8)
        ]
    if fig == 6:
        dyn = DynamicScenario(radius_km=10.0, altitude_km=600.0, eta=0.35)
        return [
            dict(name="ils_l16_static", label="ILS", config=cfg("ILS", 16), q_max=8, q_max_baseline=8),
            dict(name="dynamic_l16", label="DYNAMIC", config=cfg(dyn, 16), q_max=8, q_max_baseline=8),
        ]
    raise ValueError(f"unknown figure id {fig}; expected 1..6")


def cmd_figure(args: argparse.Namespace) -> int:
    values = _resolved(args)
    curves = _figure_curves(args.figure, values)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    seed, trials, workers = values["seed"], values["trials"], values["workers"]

    outputs = []
    manifest_name = f"fig{args.figure}_manifest.json"
    for curve in curves:
        config = curve["config"]
        offset = snr_ave_db(1.0, config.shadowing)
        # a curve without a closed form (the LOS/NLOS mixture) leaves its
        # analytic columns empty
        rows = []
        for r in experiments.sweep(
            config,
            FIGURE_PT_GRID_DB,
            q_max=curve["q_max"],
            q_max_baseline=curve["q_max_baseline"],
            trials=trials,
            seed=seed,
            workers=workers,
            monte_carlo=not args.analytic_only,
        ):
            best = r.mc or r.analytic
            rows.append(
                {
                    "pt_db": r.pt_db,
                    "snr_ave_db": r.pt_db + offset,
                    "scenario": curve["label"],
                    "L": config.l_antennas,
                    "G": config.g_groups,
                    "Q_best_vcc": getattr(best, "best_q_vcc", None),
                    "Q_best_base": getattr(best, "best_q_baseline", None),
                    "rate_vcc": getattr(best, "rate_vcc", None),
                    "rate_base": getattr(best, "rate_baseline", None),
                    "gain_analytic": getattr(r.analytic, "gain", None),
                    "gain_mc": getattr(r.mc, "gain", None),
                    "mc_stderr": getattr(r.mc, "gain_stderr", None),
                    "seed": seed,
                }
            )
        path = outdir / f"fig{args.figure}_{curve['name']}.csv"
        _write_csv(path, FIGURE_SCHEMA, rows, manifest_name)
        outputs.append(path.name)
        print(f"wrote {path}")

    manifest = RunManifest.create(f"figure {args.figure}", values, seed, outputs)
    manifest.write(outdir / manifest_name)
    return 0


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def cmd_schedule(args: argparse.Namespace) -> int:
    layout = CacheLayout(
        n_states=args.states,
        t=args.t,
        n_files=args.files if args.files is not None else args.states * args.users_per_group,
        users_per_group=args.users_per_group,
    )
    if args.demands:
        raw = json.loads(Path(args.demands).read_text())
        demands = {int(u): int(f) for u, f in raw.items()}
    else:
        demands = {u: u for u in range(1, layout.n_users + 1)}

    schedule = build_schedule(layout, args.q, demands)
    report = verify_completeness(schedule, layout, demands)
    payload = {
        "manifest": asdict(
            RunManifest.create(
                "schedule",
                {
                    "states": args.states,
                    "t": args.t,
                    "users_per_group": args.users_per_group,
                    "q": args.q,
                    "n_files": layout.n_files,
                },
                None,
                [str(args.out)],
            )
        ),
        "layout": {
            "n_states": layout.n_states,
            "t": layout.t,
            "n_files": layout.n_files,
            "users_per_group": layout.users_per_group,
            "caching_gain": layout.caching_gain,
            "cache_fraction": layout.cache_fraction,
        },
        "schedule": schedule_to_dict(schedule),
        "verification": {
            "complete": report.complete,
            "summary": report.summary(),
            "missing": {str(u): [[l.file_index, list(l.index_set)] for l in ls] for u, ls in report.missing.items()},
            "duplicated": {str(u): [[l.file_index, list(l.index_set)] for l in ls] for u, ls in report.duplicated.items()},
        },
    }
    Path(args.out).write_text(json.dumps(payload, indent=2, default=str) + "\n")
    print(f"wrote {args.out}: {report.summary()}")
    return 0 if report.complete else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_config_flags(parser: argparse.ArgumentParser, point: bool = True, caps: bool = True, mc: bool = True) -> None:
    # a command registers only the flags it reads
    parser.add_argument("--config", help="flat key=value config file")
    if point:
        parser.add_argument("--scenario", choices=sorted(SCENARIOS) + [s.lower() for s in SCENARIOS], help="shadowing preset")
        parser.add_argument("--m", type=float, help="custom Nakagami shape")
        parser.add_argument("--beta", type=float, help="custom half scattering power")
        parser.add_argument("--omega", type=float, help="custom LOS power")
        parser.add_argument("--L", dest="l", type=int, help="transmit antennas")
        parser.add_argument("--G", dest="g", type=int, help="caching gain (groups per stage; 1 = baseline)")
        parser.add_argument("--Q", dest="q", type=int, help="multiplexed users per group")
        parser.add_argument("--pt-db", dest="pt_db", type=float, help="transmit power in dB")
        parser.add_argument("--pt-linear", dest="pt_linear", type=float, help="transmit power, linear")
        parser.add_argument("--sigma-e2", dest="sigma_e2", type=float, help="CSIT error variance")
    parser.add_argument("--T", dest="t", type=int, help="coherence block length in symbols")
    parser.add_argument("--theta", type=int, help="pilot symbols per user per block")
    if caps:
        parser.add_argument("--q-max", dest="q_max", type=int, help="VCC multiplexing cap for gain search")
        parser.add_argument("--q-max-baseline", dest="q_max_baseline", type=int, help="baseline multiplexing cap")
    if mc:
        parser.add_argument("--trials", type=int, help="Monte Carlo trials")
        parser.add_argument("--seed", type=int, help="master seed")
        parser.add_argument("--workers", type=int, help="parallel batch workers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vccsat",
        description="Vector coded caching in multi-beam satellite downlinks: closed forms and Monte Carlo",
    )
    parser.add_argument("--version", action="version", version=f"vccsat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="closed-form quantities at one operating point")
    _add_config_flags(p, mc=False)
    p.add_argument("--gain", action="store_true", help="also optimise Q and report the effective gain")
    p.add_argument("--json", help="write results to this JSON file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo rate (and gain) at one operating point")
    _add_config_flags(p)
    p.add_argument("--gain", action="store_true", help="also estimate the Q-optimised effective gain")
    p.add_argument("--out", default="simulate", help="output path stem for .csv/.json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("figure", help="reproduce the data behind one of the six result figures")
    p.add_argument("figure", type=int, help="figure id, 1..6")
    _add_config_flags(p, point=False, caps=False)
    p.add_argument("--outdir", default="figures", help="output directory")
    p.add_argument("--analytic-only", action="store_true", help="skip the Monte Carlo columns")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("schedule", help="build and verify a placement/delivery schedule")
    p.add_argument("--states", type=int, required=True, help="number of cache states")
    p.add_argument("--t", type=int, required=True, help="subfile label size (states * cache fraction)")
    p.add_argument("--users-per-group", dest="users_per_group", type=int, required=True)
    p.add_argument("--q", type=int, required=True, help="users served per group per round")
    p.add_argument("--files", type=int, help="library size (default: one file per user)")
    p.add_argument("--demands", help="JSON file mapping user id -> file index")
    p.add_argument("--out", default="schedule.json", help="output JSON path")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("validate", help="run the closed-form-vs-Monte-Carlo oracle suite")
    _add_config_flags(p, caps=False)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
