"""A traced run restores every binding it wrapped and changes no output."""

import sys

from perfbench.layers import layer_metrics
from perfbench.proc import SRC
from perfbench.spans import Recorder
from perfbench.tracer import TARGETS, Tracer, vccsat_modules

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import vccsat.cli  # noqa: E402

ARGS = ["figure", "2", "--trials", "200", "--workers", "2", "--seed", "3"]


def _bindings() -> dict:
    return {(m.__name__, a): v for m in vccsat_modules() for a, v in vars(m).items()}


def _csvs(outdir) -> dict:
    return {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))}


def test_traced_run_restores_bindings_and_keeps_outputs(tmp_path):
    assert vccsat.cli.main(ARGS + ["--outdir", str(tmp_path / "plain")]) == 0
    before = _bindings()

    recorder = Recorder()
    tracer = Tracer(recorder)
    tracer.install()
    # every target is wrapped where it is defined and where it is imported
    assert vccsat.experiments.sample_channel_array is not before[("vccsat.channel", "sample_channel_array")]
    assert vccsat.experiments.ThreadPoolExecutor is not before[("vccsat.experiments", "ThreadPoolExecutor")]
    assert tracer.wrapped > sum(len(names) for names in TARGETS.values())
    try:
        assert vccsat.cli.main(ARGS + ["--outdir", str(tmp_path / "traced")]) == 0
    finally:
        problems = tracer.restore()

    assert problems == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert _csvs(tmp_path / "traced") == _csvs(tmp_path / "plain")

    names = {s.name for s in recorder.spans}
    assert {"cli.main", "experiments.sweep", "experiments.mc_gain_table", "pool.task"} <= names
    metrics = layer_metrics(recorder.spans, workers=2)
    assert metrics["experiments.trials"] == 3 * 2 * 200
    assert metrics["experiments.batches"] == 3 * 2
    assert metrics["experiments.sinr_cells"] == 3 * 200 * 9 * (6 * sum(range(2, 9)) + sum(range(2, 9)))
    assert metrics["channel.elements"] == 3 * 2 * 200 * (6 * 8 + 8) * 8
    assert 0 < metrics["experiments.kernel_self_s"] and 0 < metrics["cli.self_s"]
