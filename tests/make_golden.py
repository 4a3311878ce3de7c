"""Write tests/golden/<run>/: every output of a fixed set of vccsat commands,
which tests/test_golden.py requires to stay the same byte for byte.

Each command runs in process through `vccsat.cli.main`, in an empty
temporary working directory and with relative output paths, because the
`analyze` manifest records the --json path it was given.  The manifests'
`created_utc` time stamp is masked; stdout is kept as `stdout.txt`.  The
fixtures are regenerated only by a change that moves the random stream or
the output format on purpose, and that change says so by name.

    python3 tests/make_golden.py [run ...]

Regenerating reports the drift on stderr: for every fixture that changed,
the largest relative change of each numeric CSV column (or that a
non-CSV file changed), then the fixtures that stayed byte-identical.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN_DIR.parent.parent / "src"))

from vccsat import cli  # noqa: E402

_MC = ["--trials", "600", "--seed", "3", "--workers", "2"]
RUNS = {
    **{f"figure{n}": ["figure", str(n), *_MC, "--outdir", "."] for n in range(1, 7)},
    **{f"figure{n}_analytic": ["figure", str(n), "--analytic-only", "--outdir", "."] for n in range(1, 7)},
    "simulate_gain": ["simulate", "--gain", "--trials", "600", "--seed", "2", "--out", "simulate"],
    "analyze_gain": ["analyze", "--gain", "--json", "analyze.json"],
    "validate": ["validate", "--trials", "600", "--seed", "3"],
    "schedule": ["schedule", "--states", "5", "--t", "2", "--users-per-group", "2", "--q", "2", "--out", "schedule.json"],
    # three batches on two workers: pins the batch-order reduction
    "figure6_batches": ["figure", "6", "--trials", "8500", "--seed", "3", "--workers", "2", "--outdir", "."],
}
_CREATED_UTC = re.compile(rb'"created_utc": "[^"]*"')


def run_outputs(argv: list[str]) -> dict[str, bytes]:
    """Run one command; return every file it wrote, plus its stdout."""
    stdout = io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
        finally:
            os.chdir(home)
        if code != 0:
            raise RuntimeError(f"vccsat {' '.join(argv)} exited with {code}")
        outputs = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}
    outputs["stdout.txt"] = stdout.getvalue().encode()
    return {name: _CREATED_UTC.sub(b'"created_utc": "<masked>"', data) for name, data in outputs.items()}


def golden_outputs(run: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((GOLDEN_DIR / run).iterdir())}


def _csv_columns(data: bytes) -> dict[str, list[str]]:
    rows = list(csv.reader(line for line in data.decode().splitlines() if not line.startswith("#")))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def _largest_relative_change(old: list[str], new: list[str]) -> str:
    worst = 0.0
    for a, b in zip(old, new):
        if a == b:
            continue
        try:
            x, y = float(a), float(b)
        except ValueError:
            return "changed"
        worst = max(worst, abs(y - x) / abs(x) if x else math.inf)
    return f"{worst:.2g}"


def _drift(name: str, old: bytes | None, new: bytes) -> str:
    """One line describing how fixture `name` moved from `old` to `new`."""
    if old is None:
        return f"{name}: new"
    if not name.endswith(".csv"):
        return f"{name}: changed"
    before, after = _csv_columns(old), _csv_columns(new)
    if list(before) != list(after) or any(len(before[c]) != len(after[c]) for c in before):
        return f"{name}: columns or rows changed"
    changes = ", ".join(f"{c} {_largest_relative_change(before[c], after[c])}" for c in before)
    return f"{name}: largest relative change by column: {changes}"


def main(names: list[str]) -> int:
    identical = []
    for run in names or list(RUNS):
        target = GOLDEN_DIR / run
        old = golden_outputs(run) if target.is_dir() else {}
        new = run_outputs(RUNS[run])
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for name, data in new.items():
            (target / name).write_bytes(data)
            if old.get(name) == data:
                identical.append(f"{run}/{name}")
            else:
                print(_drift(f"{run}/{name}", old.get(name), data), file=sys.stderr)
        for name in sorted(set(old) - set(new)):
            print(f"{run}/{name}: removed", file=sys.stderr)
        print(f"wrote {target.relative_to(GOLDEN_DIR.parent.parent)}", file=sys.stderr)
    print(f"byte-identical: {', '.join(identical) or 'none'}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
