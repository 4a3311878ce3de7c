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
import math
import os
import sys
from collections import Counter
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, analysis, experiments
from .caching import CacheLayout, build_schedule, schedule_to_dict, verify_completeness
from .channel import SCENARIOS, STREAM_VERSION, DynamicScenario, ShadowingParams, scenario
from .linkphy import SystemConfig

# 3 dB steps plus the 18.1 dB link-budget operating point
FIGURE_PT_GRID_DB = [0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 18.1, 21.0]

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


class _Option(NamedTuple):
    flag: str
    type: type
    default: object  # None: the key is unset unless a file or flag gives it
    help: str
    choices: list[str] | None = None

    @property
    def key(self) -> str:
        """The config key: the flag without its dashes, in lower case."""
        return self.flag[2:].lower().replace("-", "_")


# every config key and its flag, by the key groups that commands read
_OPTIONS = {
    "point": [
        _Option(
            "--scenario", str, "AS", "shadowing preset", sorted(SCENARIOS) + [s.lower() for s in SCENARIOS]
        ),
        _Option("--m", float, None, "custom Nakagami shape"),
        _Option("--beta", float, None, "custom half scattering power"),
        _Option("--omega", float, None, "custom LOS power"),
        _Option("--L", int, 8, "transmit antennas"),
        _Option("--G", int, 6, "caching gain (groups per stage; 1 = baseline)"),
        _Option("--Q", int, 8, "multiplexed users per group"),
        _Option("--pt-db", float, 18.1, "transmit power in dB"),
        _Option("--pt-linear", float, None, "transmit power, linear"),
        _Option("--sigma-e2", float, 0.125, "CSIT error variance"),
    ],
    "block": [
        _Option("--T", int, 10_000, "coherence block length in symbols"),
        _Option("--theta", int, 12, "pilot symbols per user per block"),
    ],
    "caps": [
        _Option("--q-max", int, 8, "VCC multiplexing cap for gain search"),
        _Option("--q-max-baseline", int, 8, "baseline multiplexing cap"),
    ],
    "mc": [
        _Option("--trials", int, 100_000, "Monte Carlo trials"),
        _Option("--seed", int, 0, "master seed"),
        _Option("--workers", int, 1, "parallel batch workers"),
    ],
}
_KEYS = {o.key: o for group in _OPTIONS.values() for o in group}


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
        if key not in _KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
        kind = _KEYS[key].type
        try:
            values[key] = kind(text.strip())
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: cannot parse {key} value {text.strip()!r} as {kind.__name__}"
            ) from None
    return values


def _resolved(args: argparse.Namespace) -> dict:
    """defaults < config file < command-line flags.

    A config file may set only the keys the command registers as flags; any
    other key would be ignored, so it is rejected."""
    values = {key: o.default for key, o in _KEYS.items() if o.default is not None}
    if getattr(args, "config", None):
        from_file = parse_config_file(args.config)
        unread = sorted(set(from_file) - set(vars(args)))
        if unread:
            raise ValueError(
                f"{args.config}: vccsat {args.command} does not read config key(s) {', '.join(unread)}"
            )
        values.update(from_file)
    for key in _KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    # checked here, before any work, for every command that takes them
    # (figure --analytic-only runs no batch but records them in its manifest)
    if "trials" in vars(args):
        for key, low in (("trials", 100), ("workers", 1), ("seed", 0)):
            if values[key] < low:
                raise ValueError(f"{key} must be >= {low}, got {values[key]}")
    # a power flag overrides the other unit; an explicit linear value beats
    # the dB default
    if getattr(args, "pt_db", None) is not None:
        values.pop("pt_linear", None)
    elif "pt_linear" in values:
        values.pop("pt_db", None)
    return values


def _system_config(values: dict) -> SystemConfig:
    custom = [k for k in ("m", "beta", "omega") if k in values]
    if custom and len(custom) != 3:
        raise ValueError(f"custom shadowing requires all of m, beta, omega; got only {custom}")
    try:
        p_t = float(values["pt_linear"]) if "pt_linear" in values else 10.0 ** (float(values["pt_db"]) / 10.0)
    except OverflowError:  # pt_db above about 3083: SystemConfig rejects it as not finite
        p_t = math.inf
    return SystemConfig(
        l_antennas=values["l"],
        g_groups=values["g"],
        q_mux=values["q"],
        p_t=p_t,
        shadowing=ShadowingParams(*(values[k] for k in custom)) if custom else scenario(values["scenario"]),
        sigma_e2=values["sigma_e2"],
        t_coherence=values["t"],
        theta_pilot=values["theta"],
    )


def _manifest(command: str, resolved: dict, seed: int | None, outputs: list[str]) -> dict:
    """A seeded manifest also names the stream version its seed was drawn under."""
    stream = {} if seed is None else {"stream_version": STREAM_VERSION}
    return {
        "command": command,
        "resolved": resolved,
        "seed": seed,
        **stream,
        "outputs": outputs,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
    }


def _write_json(path: str | Path, payload: dict, indent: int | None = 2) -> None:
    Path(path).write_text(json.dumps(payload, indent=indent, default=str) + "\n")


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
    moments = analysis.xi_moments_closed_form(config)
    rate = analysis.avg_sum_rate_closed_form(config)
    # computed before the report, so a bad q cap fails with nothing printed
    caps = (values["q_max"], values["q_max_baseline"])
    res = analysis.effective_gain_closed_form(config, *caps) if args.gain else None
    mode = "baseline (cacheless, G=1)" if config.g_groups == 1 else f"cache-aided (G={config.g_groups})"
    print(f"mode            : {mode}")
    print(f"snr_ave_db      : {config.snr_ave_db:.4f}")
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
    if res is not None:
        print(
            f"effective_gain  : {res.gain:.6g} "
            f"(Q*={res.best_q_vcc}, Q'*={res.best_q_baseline}, "
            f"rate_vcc={res.rate_vcc:.6g}, rate_base={res.rate_baseline:.6g})"
        )
        out["effective_gain"] = asdict(res)
    if args.json:
        _write_json(args.json, {"manifest": _manifest("analyze", values, None, [args.json]), "results": out})
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
    caps = (values["q_max"], values["q_max_baseline"])
    # computed before any Monte Carlo, so bad caps or rates fail before the draws
    cf_gain = analysis.effective_gain_closed_form(config, *caps) if args.gain else None
    cf = analysis.avg_sum_rate_closed_form(config)
    est = experiments.mc_sum_rate(config, trials, seed, workers)
    row = {
        "pt_db": 10.0 * np.log10(config.p_t),
        "snr_ave_db": config.snr_ave_db,
        "scenario": "custom" if "m" in values else values["scenario"],
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
        res = experiments.mc_gain_table(config, [config.p_t], *caps, trials, seed, workers)[0]
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
    manifest = _manifest("simulate", values, seed, [csv_path.name, json_path.name])
    _write_csv(csv_path, columns, [row], json_path.name)
    _write_json(json_path, {"manifest": manifest, "results": results})
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    values = _resolved(args)
    checks = experiments.oracle_suite(_system_config(values), values["trials"], values["seed"], values["workers"])
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

# the channels of the figure curves, by the label their CSVs carry
_CHANNELS = {**SCENARIOS, "DYNAMIC": DynamicScenario()}

# one row per curve: figure id, file name, channel, L, sigma_e2, fixed T
# (None: --T) and the q cap of both sides; every curve has G = 6
_FIGURES = [
    (1, "fhs_l8", "FHS", 8, 0.125, None, 8),
    (2, "fhs_l8", "FHS", 8, 0.125, None, 8),
    (2, "as_l8", "AS", 8, 0.125, None, 8),
    (2, "ils_l8", "ILS", 8, 0.125, None, 8),
    (3, "as_l8", "AS", 8, 0.125, None, 8),
    (3, "as_l16", "AS", 16, 0.125, None, 8),
    (4, "as_l16_sigma0", "AS", 16, 0.0, None, 8),
    (4, "as_l16_sigma0.125", "AS", 16, 0.125, None, 8),
    (4, "as_l16_sigma0.25", "AS", 16, 0.25, None, 8),
    (5, "as_l16_T1000_cap4", "AS", 16, 0.125, 1_000, 4),
    (5, "as_l16_T1000_cap8", "AS", 16, 0.125, 1_000, 8),
    (5, "as_l16_T10000_cap4", "AS", 16, 0.125, 10_000, 4),
    (5, "as_l16_T10000_cap8", "AS", 16, 0.125, 10_000, 8),
    (6, "ils_l16_static", "ILS", 16, 0.125, None, 8),
    (6, "dynamic_l16", "DYNAMIC", 16, 0.125, None, 8),
]


def cmd_figure(args: argparse.Namespace) -> int:
    values = _resolved(args)
    # each template sits at its q cap, so SystemConfig rejects a T or theta
    # that leaves no room for the largest q before anything is written
    curves = [
        (name, label, cap, SystemConfig(
            l_antennas=l_antennas, g_groups=6, q_mux=cap, p_t=1.0, shadowing=_CHANNELS[label],
            sigma_e2=sigma_e2, t_coherence=t or values["t"], theta_pilot=values["theta"],
        ))
        for fig, name, label, l_antennas, sigma_e2, t, cap in _FIGURES
        if fig == args.figure
    ]
    if not curves:
        raise ValueError(f"unknown figure id {args.figure}; expected 1..6")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    seed, trials, workers = values["seed"], values["trials"], values["workers"]

    outputs = []
    manifest_name = f"fig{args.figure}_manifest.json"
    for name, label, cap, config in curves:
        offset = config.snr_ave_db  # the template's p_t is 1
        # a curve without a closed form (the LOS/NLOS mixture) leaves its
        # analytic columns empty
        rows = []
        for r in experiments.sweep(
            config,
            FIGURE_PT_GRID_DB,
            q_max=cap,
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
                    "scenario": label,
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
        path = outdir / f"fig{args.figure}_{name}.csv"
        _write_csv(path, FIGURE_SCHEMA, rows, manifest_name)
        outputs.append(path.name)
        print(f"wrote {path}")

    # an analytic-only run draws nothing, so its manifest names no seed or stream
    manifest = _manifest(f"figure {args.figure}", values, None if args.analytic_only else seed, outputs)
    _write_json(outdir / manifest_name, manifest)
    return 0


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def _read_demands(path: str) -> dict[int, int]:
    """A JSON object mapping plain decimal user ids to integer file indices.

    A key such as "01" or " 1" would name the same user as "1", and a repeated
    key would overwrite the first; either way a demand would vanish unseen."""

    def unique_keys(pairs: list) -> dict:
        repeated = [k for k, c in Counter(k for k, _ in pairs).items() if c > 1]
        if repeated:
            raise ValueError(f"{path}: user id(s) {', '.join(map(repr, repeated))} given more than once")
        return dict(pairs)

    try:
        raw = json.loads(Path(path).read_text(), object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON: {exc}") from None
    if not isinstance(raw, dict) or any(type(f) is not int for f in raw.values()):
        raise ValueError(f"{path}: expected a JSON object mapping user id to an integer file index")
    for key in raw:
        if not (key.isascii() and key.isdigit() and str(int(key)) == key):
            raise ValueError(f"{path}: user id {key!r} is not a plain decimal integer")
    return {int(u): f for u, f in raw.items()}


def cmd_schedule(args: argparse.Namespace) -> int:
    layout = CacheLayout(
        n_states=args.states,
        t=args.t,
        n_files=args.files if args.files is not None else args.states * args.users_per_group,
        users_per_group=args.users_per_group,
    )
    if args.demands:
        demands = _read_demands(args.demands)
    else:
        demands = {u: u for u in range(1, layout.n_users + 1)}

    schedule = build_schedule(layout, args.q, demands)
    report = verify_completeness(schedule, layout, demands)
    resolved = {
        "states": args.states,
        "t": args.t,
        "users_per_group": args.users_per_group,
        "q": args.q,
        "n_files": layout.n_files,
    }
    payload = {
        "manifest": _manifest("schedule", resolved, None, [str(args.out)]),
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
            "missing": report.missing,
            "duplicated": report.duplicated,
            "unexpected": report.unexpected,
        },
    }
    # one line through the C encoder: indent=2 makes json use its pure-Python
    # encoder, which took most of the command's time on large layouts
    _write_json(args.out, payload, indent=None)
    print(f"wrote {args.out}: {report.summary()}")
    return 0 if report.complete else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_config_flags(parser: argparse.ArgumentParser, *groups: str) -> None:
    # a command registers only the flags of the key groups it reads
    parser.add_argument("--config", help="flat key=value config file")
    for group in groups:
        for o in _OPTIONS[group]:
            parser.add_argument(o.flag, dest=o.key, type=o.type, choices=o.choices, help=o.help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vccsat",
        description="Vector coded caching in multi-beam satellite downlinks: closed forms and Monte Carlo",
    )
    parser.add_argument("--version", action="version", version=f"vccsat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="closed-form quantities at one operating point")
    _add_config_flags(p, "point", "block", "caps")
    p.add_argument("--gain", action="store_true", help="also optimise Q and report the effective gain")
    p.add_argument("--json", help="write results to this JSON file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo rate (and gain) at one operating point")
    _add_config_flags(p, "point", "block", "caps", "mc")
    p.add_argument("--gain", action="store_true", help="also estimate the Q-optimised effective gain")
    p.add_argument("--out", default="simulate", help="output path stem for .csv/.json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("figure", help="reproduce the data behind one of the six result figures")
    p.add_argument("figure", type=int, help="figure id, 1..6")
    _add_config_flags(p, "block", "mc")
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
    _add_config_flags(p, "point", "block", "mc")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout left early (`| head`): end quietly, as SIGPIPE
        # would, and point stdout at devnull so the exit-time flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
