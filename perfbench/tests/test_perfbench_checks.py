"""The output checks pass the reference and flag corrupted outputs."""

import json

from perfbench.checks import REFERENCE_DIR, check, parse_figure_csv, summarize_schedule


def _reference(name: str, seed: int = 0) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())["seeds"][str(seed)]


def _files(ref: dict) -> dict[str, bytes]:
    return {name: text.encode() for name, text in ref["files"].items()}


def _failed(outcome) -> list[str]:
    return [c.name for c in outcome.checks if not c.ok]


def test_reference_outputs_pass():
    ref = _reference("fig2")
    outcome = check("figure", b"", _files(ref), 0, ref)
    assert _failed(outcome) == []
    assert outcome.digests_matched == outcome.digests_compared == 3
    assert 0 < outcome.worst_rel_se < 0.01


def test_another_seed_passes_within_standard_errors():
    # a named stream change gives independent draws: the MC columns move by
    # a few standard errors, the closed forms not at all
    ref, other = _reference("fig2", 0), _reference("fig2", 1)
    files = _files(ref)
    for name, text in other["files"].items():
        if name.endswith(".csv"):
            files[name] = text.replace(",1\n", ",0\n").encode()  # the seed column
    outcome = check("figure", b"", files, 0, ref)
    assert _failed(outcome) == []
    assert outcome.digests_matched == 0


def test_perturbed_gain_row_is_flagged():
    ref = _reference("fig2")
    files = _files(ref)
    name = "fig2_as_l8.csv"
    first, header, rows = parse_figure_csv(ref["files"][name])
    rows[4]["gain_mc"] = repr(float(rows[4]["gain_mc"]) * 1.05)
    lines = [first, ",".join(header)] + [",".join(r[c] for c in header) for r in rows]
    files[name] = ("\n".join(lines) + "\n").encode()
    outcome = check("figure", b"", files, 0, ref)
    assert _failed(outcome) == [f"{name}:row4"]


def test_missing_file_is_flagged():
    ref = _reference("fig6")
    files = _files(ref)
    del files["fig6_dynamic_l16.csv"]
    assert _failed(check("figure", b"", files, 0, ref)) == ["fig6_dynamic_l16.csv:exists"]


def test_flipped_oracle_line_is_flagged():
    ref = _reference("validate")
    assert _failed(check("validate", ref["stdout"].encode(), {}, ref["returncode"], ref)) == []
    flipped = ref["stdout"].replace("[PASS] moment-xi2", "[FAIL] moment-xi2", 1)
    assert flipped != ref["stdout"]
    outcome = check("validate", flipped.encode(), {}, ref["returncode"], ref)
    assert _failed(outcome) == ["oracle:moment-xi2"]
    assert outcome.digests_matched == 0


def test_wrong_closed_form_is_flagged():
    ref = _reference("validate")
    lines = ref["stdout"].splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if "moment-xi1" in line)
    head, _, tail = lines[i].partition("closed=")
    value, _, rest = tail.partition(" ")
    lines[i] = f"{head}closed={float(value) * (1 + 1e-9):.12g} {rest}"
    outcome = check("validate", "".join(lines).encode(), {}, ref["returncode"], ref)
    assert _failed(outcome) == ["oracle:moment-xi1"]


def test_incomplete_schedule_is_flagged():
    payload = {
        "manifest": {"command": "schedule", "created_utc": "2000-01-01T00:00:00+00:00"},
        "layout": {"n_states": 3, "t": 1},
        "schedule": {"stages": [{"groups": [1, 2], "rounds": [[{"user": 1, "file": 1, "subfile": [2]}]]}]},
        "verification": {"complete": True},
    }
    data = json.dumps(payload, indent=2).encode()
    ref = {"returncode": 0, "file": "schedule.json", **summarize_schedule(data)}
    outcome = check("schedule", b"", {"schedule.json": data.replace(b"2000", b"2001")}, 0, ref)
    assert _failed(outcome) == []
    assert outcome.digests_matched == 1 and outcome.assignments == 1
    payload["verification"]["complete"] = False
    outcome = check("schedule", b"", {"schedule.json": json.dumps(payload).encode()}, 1, ref)
    assert _failed(outcome) == ["returncode", "complete"]
    assert _failed(check("schedule", b"", {}, 0, ref)) == ["schedule.json:exists"]
