"""The vccsat benchmark.

    python3 perfbench/run.py --workload fig2|validate|fig6|schedule|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; vccsat is run from its src/ with
no install.  One caller runs one command at a time to completion, each in a
fresh process (a closed loop), repeating the workload's command for
--seconds and reporting medians.  Set-up time is the median of several
fresh `vccsat --version` processes.  Every command's outputs are checked
against perfbench/reference/.

With --trace 0 the commands run untraced and the end-to-end metrics of
BENCHMARK.json are reported.  With --trace 1 the same command alternates
between untraced and traced processes and the per-layer metrics are
reported, including the tracing overhead.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks  # noqa: E402
from perfbench.environment import environment  # noqa: E402
from perfbench.layers import COUNT_METRICS, layer_metrics  # noqa: E402
from perfbench.proc import ROOT, SRC, CommandRun, child_env, run_command, vccsat_argv  # noqa: E402
from perfbench.spans import Recorder, load_spans, now_ns  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

WORK_DIR = Path(__file__).resolve().parent / ".work"

SETUP_REPEATS = 3  # before the first command; one more follows every command
MIN_REPS = {0: 3, 1: 2}  # untraced commands per run, by --trace
TARGET_REL_SE = 1e-3  # the accuracy time_to_target_se_s is stated for


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(workload: Workload, setup: list[float], runs: list[tuple[CommandRun, checks.Outcome]]) -> dict:
    def ttt(run: CommandRun, outcome: checks.Outcome) -> float:
        # an exact result (schedule) reaches any accuracy in one run
        rse = outcome.worst_rel_se
        return run.wall_s * (rse / TARGET_REL_SE) ** 2 if rse else run.wall_s

    return {
        "wall_s": _median(r.wall_s for r, _ in runs),
        "work_per_s": _median((workload.mc_trials or o.assignments) / r.wall_s for r, o in runs),
        "cpu_s": _median(r.cpu_s for r, _ in runs),
        "peak_rss_mib": _median(r.peak_rss_mib for r, _ in runs),
        "time_to_target_se_s": _median(ttt(r, o) for r, o in runs),
        "setup_s": _median(setup),
    }


def per_layer(untraced: list, traced: list, layer_runs: list[dict]) -> dict:
    metrics = {k: _median(m[k] for m in layer_runs) for k in layer_runs[0]}
    first = traced[0][0]
    metrics["cli.bytes_written"] = len(first.stdout) + sum(len(d) for d in first.outputs.values())
    outcomes = [o for _, o in untraced + traced]
    compared = sum(o.digests_compared for o in outcomes)
    metrics["cli.csv_digest_match"] = sum(o.digests_matched for o in outcomes) / compared if compared else 0.0
    metrics["trace.overhead_s"] = _median(r.wall_s for r, _ in traced) - _median(r.wall_s for r, _ in untraced)
    return metrics


def run_workload(workload: Workload, seed: int, seconds: float, trace: int) -> tuple[dict, list[checks.Check], dict]:
    """Metrics, every check made, and the per-command samples behind the
    medians."""
    workers = workload.local_workers() or 1
    ref = checks.load_reference(workload, seed)
    argv = workload.command(seed, workers)
    workdir = WORK_DIR / f"{workload.name}-{os.getpid()}"
    recorder = Recorder()
    all_checks: list[checks.Check] = []
    untraced, traced, layer_runs = [], [], []
    try:
        version = vccsat_argv(["--version"])
        # the first process after a checkout also writes bytecode caches
        warm = run_command(version, workdir, recorder, "warmup")
        setup = [run_command(version, workdir, recorder, "setup") for _ in range(SETUP_REPEATS)]
        start = last = now_ns()
        # a command starts only if one more like the last ends within --seconds
        while len(untraced) < MIN_REPS[trace] or 2 * now_ns() - start - last <= seconds * 1e9:
            last = now_ns()
            # set-up is sampled through the whole run, so that a drift in the
            # machine's speed reaches it as it reaches the commands
            setup.append(run_command(version, workdir, recorder, "setup"))
            run = run_command(vccsat_argv(argv), workdir, recorder, "untraced")
            outcome = checks.check(workload.kind, run.stdout, run.outputs, run.returncode, ref)
            untraced.append((run, outcome))
            all_checks += outcome.checks
            if not trace:
                continue
            spans_path = workdir / "spans.json"
            spans_path.unlink(missing_ok=True)
            trun = run_command(vccsat_argv(argv, spans_path), workdir, recorder, "traced")
            toutcome = checks.check(workload.kind, trun.stdout, trun.outputs, trun.returncode, ref)
            traced.append((trun, toutcome))
            all_checks += toutcome.checks
            same = checks.stable_digests(workload.kind, trun.stdout, trun.outputs) == checks.stable_digests(
                workload.kind, run.stdout, run.outputs
            )
            all_checks.append(checks.Check("traced-output-identical", same, "traced outputs differ from untraced"))
            if not spans_path.exists():
                all_checks.append(checks.Check("traced:spans-written", False, "no spans file"))
                continue
            spans, info = load_spans(spans_path)
            all_checks.append(checks.Check("traced:bindings-restored", not info["unrestored"], str(info["unrestored"])))
            layer_runs.append(layer_metrics(spans, workers))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_checks += [
        checks.Check("setup:returncode", r.returncode == 0, f"returncode {r.returncode}") for r in [warm] + setup
    ]
    samples = {
        "setup_s": [r.wall_s for r in setup],
        "wall_s": [r.wall_s for r, _ in untraced],
        "cpu_s": [r.cpu_s for r, _ in untraced],
        "peak_rss_mib": [r.peak_rss_mib for r, _ in untraced],
        "traced_wall_s": [r.wall_s for r, _ in traced],
    }
    if not trace:
        return end_to_end(workload, samples["setup_s"], untraced), all_checks, samples
    if not layer_runs:
        return {}, all_checks, samples
    repeat = all(m[k] == layer_runs[0][k] for m in layer_runs for k in COUNT_METRICS)
    all_checks.append(checks.Check("traced:counts-repeat", repeat, "a count differs between traced runs"))
    return per_layer(untraced, traced, layer_runs), all_checks, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "vccsat" / "cli.py").is_file():
        print(f"error: no vccsat sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(ROOT, child_env(), {n: WORKLOADS[n].local_workers() for n in names})
    print("environment " + json.dumps(env, sort_keys=True))

    correct, attempted, failed, reported = True, 0, 0, {}
    for name in names:
        metrics, results, samples = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
        bad = [c for c in results if not c.ok]
        if set(metrics) != set(units):
            bad.append(checks.Check("metrics-complete", False, f"computed {sorted(metrics)}"))
            results.append(bad[-1])
        attempted += len(results)
        failed += len(bad)
        correct = correct and not bad
        print(
            f"{name}: seed {args.seed}, medians of {len(samples['wall_s'])} untraced and "
            f"{len(samples['traced_wall_s'])} traced commands, {len(results)} checks, {len(bad)} failed"
        )
        for c in bad[:20]:
            print(f"  FAILED {c.name}: {c.detail}")
        for key in units:
            if key in metrics:
                print(f"  {key:<28} {metrics[key]:.6g} {units[key]}")
        if not args.trace:
            print(f"  {'error_rate':<28} {len(bad) / len(results):.6g} ratio")
        prefix = f"{name}." if args.workload == "all" else ""
        reported.update({prefix + k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics})
        result = {
            "workload": name,
            "seed": args.seed,
            "trace": args.trace,
            "environment": env,
            "metrics": metrics,
            "samples": samples,
            "failed_checks": [c.__dict__ for c in bad],
        }
        WORK_DIR.mkdir(exist_ok=True)
        (WORK_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
