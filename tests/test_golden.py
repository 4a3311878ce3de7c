"""Every output of the commands in make_golden.RUNS equals its fixture in
tests/golden/ byte for byte (time stamps masked), and every fixture manifest
names the stream version of the draws it records."""

import json

import pytest

from make_golden import RUNS, golden_outputs, run_outputs
from vccsat.channel import STREAM_VERSION

# the runs whose fixtures hold a manifest, bare or under a "manifest" key
MANIFEST_RUNS = [run for run in RUNS if any(name.endswith(".json") for name in golden_outputs(run))]


@pytest.mark.parametrize("run", list(RUNS))
def test_outputs_match_golden(run):
    expected = golden_outputs(run)
    actual = run_outputs(RUNS[run])
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"{run}: {changed} differ from tests/golden/{run}/"


@pytest.mark.parametrize("run", MANIFEST_RUNS)
def test_manifest_names_the_stream_version_of_its_draws(run):
    # a stream move that leaves the fixtures as they were fails here by
    # name, not as a byte diff; a run that draws nothing names no stream
    argv = RUNS[run]
    draws = argv[0] in ("simulate", "figure") and "--analytic-only" not in argv
    for name, data in golden_outputs(run).items():
        if name.endswith(".json"):
            payload = json.loads(data)
            manifest = payload.get("manifest", payload)
            if draws:
                assert manifest["seed"] is not None, name
                assert manifest.get("stream_version") == STREAM_VERSION, name
            else:
                assert manifest["seed"] is None, name
                assert "stream_version" not in manifest, name
