"""perfbench's tracer reads the arguments of the estimators it counts by
name (`COUNTS` in `perfbench/tracer.py`), so renaming `config` or `trials`
in one of them breaks only the benchmark's traced runs.  Each command that
reaches a counted estimator runs here under the tracer."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.spans import Recorder  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from vccsat.cli import main  # noqa: E402


@pytest.mark.parametrize(
    "argv, counted",
    [
        (["simulate", "--gain", "--trials", "100"], {"experiments.mc_sum_rate", "experiments.mc_gain_table"}),
        (["validate", "--trials", "100"], {"experiments.mc_moment_oracle"}),
    ],
    ids=["simulate-gain", "validate"],
)
def test_traced_command_binds_counted_arguments(capsys, tmp_path, monkeypatch, argv, counted):
    monkeypatch.chdir(tmp_path)
    recorder = Recorder()
    tracer = Tracer(recorder)
    tracer.install()
    try:
        code = main(argv)
    finally:
        problems = tracer.restore()
    assert code == 0
    assert problems == []
    assert {s.name for s in recorder.spans if "trials" in s.attrs} == counted
