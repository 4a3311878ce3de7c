"""Write tests/golden/<run>/: every output of a fixed set of vccsat commands,
which tests/test_golden.py requires to stay the same byte for byte.

Each command runs in process through `vccsat.cli.main`, in an empty
temporary working directory and with relative output paths, because the
`analyze` manifest records the --json path it was given.  The manifests'
`created_utc` time stamp is masked; stdout is kept as `stdout.txt`.  The
fixtures are regenerated only by a change that moves the random stream or
the output format on purpose, and that change says so by name.

    python3 tests/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
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


def main(names: list[str]) -> int:
    for run in names or list(RUNS):
        target = GOLDEN_DIR / run
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for name, data in run_outputs(RUNS[run]).items():
            (target / name).write_bytes(data)
        print(f"wrote {target}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
