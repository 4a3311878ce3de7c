"""perfbench's tracer reads the arguments of the estimators it counts by
name (`COUNTS` in `perfbench/tracer.py`), so renaming `config` or `trials`
in one of them breaks only the benchmark's traced runs.  Each command runs
here under the tracer, and so does the one counted estimator no command
reaches, `mc_moment_oracle`.  Figure 6 runs too: it is the only command on
the mixture sampler, whose span counts the elements of its result."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.spans import Recorder  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from vccsat import experiments  # noqa: E402
from vccsat.channel import SCENARIOS  # noqa: E402
from vccsat.cli import main  # noqa: E402
from vccsat.linkphy import SystemConfig  # noqa: E402


@pytest.mark.parametrize(
    "argv, counted",
    [
        (["simulate", "--gain", "--trials", "100"], {"experiments.mc_sum_rate", "experiments.mc_gain_table"}),
        # validate reads `_operating_point`, which no counted span wraps
        (["validate", "--trials", "100"], set()),
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


def test_traced_moment_oracle_binds_trials():
    config = SystemConfig(l_antennas=8, g_groups=6, q_mux=8, p_t=64.0, shadowing=SCENARIOS["AS"])
    recorder = Recorder()
    tracer = Tracer(recorder)
    tracer.install()
    try:
        # through the module, whose binding the tracer replaces
        experiments.mc_moment_oracle(config, trials=10_000)
    finally:
        problems = tracer.restore()
    assert problems == []
    assert [s.attrs["trials"] for s in recorder.spans if "trials" in s.attrs] == [10_000]


def test_traced_figure6_counts_mixture_draws(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorder = Recorder()
    tracer = Tracer(recorder)
    tracer.install()
    try:
        code = main(["figure", "6", "--trials", "100"])
    finally:
        problems = tracer.restore()
    assert code == 0
    assert problems == []
    # 100 trials x 48 cache-aided (G=6, Q=8) or 8 baseline users x L=16
    elements = {s.attrs["elements"] for s in recorder.spans if s.name == "channel.sample_dynamic_channel_array"}
    assert elements == {100 * 48 * 16, 100 * 8 * 16}
