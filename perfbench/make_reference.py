"""Write perfbench/reference/<workload>.json: the outputs each workload's
command produces at every vccsat seed 0..REFERENCE_SEEDS-1.

The checks in checks.py compare every benchmark run with these files.  They
are regenerated only by a change that moves the random stream or the output
format on purpose, and that change says so by name.

    python3 perfbench/make_reference.py [workload ...]
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.checks import REFERENCE_DIR, summarize_schedule  # noqa: E402
from perfbench.proc import run_command, vccsat_argv  # noqa: E402
from perfbench.spans import Recorder  # noqa: E402
from perfbench.workloads import REFERENCE_SEEDS, WORKLOADS  # noqa: E402


def reference_for(workload, workdir: Path) -> dict:
    recorder = Recorder()
    workers = workload.local_workers() or 1
    if workload.kind == "schedule":
        run = run_command(vccsat_argv(workload.command(0, workers)), workdir, recorder, workload.name)
        name = Path(workload.args[-1]).name
        return {"returncode": run.returncode, "file": name, **summarize_schedule(run.outputs[name])}
    seeds = {}
    for seed in range(REFERENCE_SEEDS):
        run = run_command(vccsat_argv(workload.command(seed, workers)), workdir, recorder, workload.name)
        entry = {"returncode": run.returncode}
        if workload.kind == "figure":
            entry["files"] = {name: data.decode() for name, data in run.outputs.items()}
        else:
            entry["stdout"] = run.stdout.decode()
        seeds[str(seed)] = entry
        print(f"{workload.name} seed {seed}: returncode {run.returncode}", file=sys.stderr)
    return {"command": workload.command(0, workers), "seeds": seeds}


def main(names: list[str]) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or list(WORKLOADS):
        with tempfile.TemporaryDirectory(dir=REFERENCE_DIR.parent) as tmp:
            ref = reference_for(WORKLOADS[name], Path(tmp))
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
