"""Where a run happened: interpreter, NumPy, BLAS and its thread count, CPU
count and model, and the revision of the code under test.

Run as a script it prints what a command's process sees (NumPy, BLAS);
`environment()` runs it under the commands' own environment and adds what
the harness knows.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

_BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
)


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def probe() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"git_revision": None, "git_dirty": None}
    try:
        rev = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
        status = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return {"git_revision": None, "git_dirty": None}
    return {"git_revision": rev.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def environment(root: Path, env: dict[str, str], workers: dict[str, int | None]) -> dict:
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())], env=env, capture_output=True, text=True, timeout=60
    )
    seen = json.loads(child.stdout) if child.returncode == 0 else {"probe_error": child.stderr.strip()[-500:]}
    return {
        **seen,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **_git(root),
        "workers": workers,
    }


if __name__ == "__main__":
    print(json.dumps(probe()))
