"""Run one vccsat command in a fresh process and collect what it wrote."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

from .spans import Recorder
from .workloads import OUTDIR

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_MAIN = Path(__file__).resolve().parent / "traced.py"

COMMAND_TIMEOUT_S = 40.0  # a command takes a few seconds; three hung ones still end a run in time

# BLAS is pinned to one thread, so a command runs on its --workers threads
_ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in _ONE_THREAD:
        env[var] = "1"
    return env


def vccsat_argv(args: list[str], spans_path: Path | None = None) -> list[str]:
    """The real CLI, or the same CLI under the tracer when `spans_path` is set."""
    if spans_path is None:
        return [sys.executable, "-m", "vccsat.cli", *args]
    return [sys.executable, str(TRACED_MAIN), str(spans_path), "--", *args]


@dataclass
class CommandRun:
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    returncode: int
    stdout: bytes
    outputs: dict[str, bytes]  # file name -> bytes, for every file under OUTDIR


def run_command(argv: list[str], workdir: Path, recorder: Recorder, name: str) -> CommandRun:
    """Run `argv` in `workdir` after emptying its output directory; the wall
    time is the span of the process, CPU time and peak RSS come from its
    rusage."""
    out = workdir / OUTDIR
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    stdout_path = workdir / "stdout.txt"
    env = child_env()
    with open(stdout_path, "wb") as stdout, recorder.span(name) as span:
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=stdout)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CommandRun(
        wall_s=span.duration_ns / 1e9,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mib=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=stdout_path.read_bytes(),
        outputs={p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()},
    )
