"""Every output of the commands in make_golden.RUNS equals its fixture in
tests/golden/ byte for byte (time stamps masked)."""

import pytest

from make_golden import RUNS, golden_outputs, run_outputs


@pytest.mark.parametrize("run", list(RUNS))
def test_outputs_match_golden(run):
    expected = golden_outputs(run)
    actual = run_outputs(RUNS[run])
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"{run}: {changed} differ from tests/golden/{run}/"
