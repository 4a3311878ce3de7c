"""Output checks behind `correct`, `attempted` and `failed`.

Every command's outputs are compared with the reference outputs in
perfbench/reference/, which the same command wrote at the same vccsat seed
and trial count (see make_reference.py):

- every expected file exists and parses with the reference's columns;
- closed-form values equal the reference to CLOSED_FORM_RTOL relative;
- each Monte Carlo value lies within MC_SE_MULTIPLE combined standard
  errors of the reference, so a change that moves the random stream on
  purpose passes while a wrong kernel fails;
- `validate` reports the reference's checks with the same PASS/FAIL;
- `schedule` reports `complete` and the reference's schedule digest.

Byte identity with the reference is reported as a share, not gated.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .workloads import REFERENCE_SEEDS, Workload

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

CLOSED_FORM_RTOL = 1e-12
MC_SE_MULTIPLE = 6.0
SE_RATIO_RANGE = (0.5, 2.0)

EXACT_COLUMNS = ("pt_db", "scenario", "L", "G", "seed")
CLOSED_FORM_COLUMNS = ("gain_analytic", "snr_ave_db")
MC_COLUMNS = ("gain_mc", "rate_vcc", "rate_base")
Q_COLUMNS = ("Q_best_vcc", "Q_best_base")
Q_RANGE = range(2, 9)  # the q grid of every figure-2 and figure-6 curve (q_max = 8)

# closed-form sides of the oracle lines, by the key `validate` prints them under
ORACLE_CLOSED_KEYS = ("target", "closed", "a2(Q-1)xi2")

_ORACLE_LINE = re.compile(r"^\[(PASS|FAIL)\] ([^:]+): (.*)$")
_ORACLE_SUMMARY = re.compile(r"^oracle suite: \d+/\d+ checks passed$")
_TIMESTAMP = re.compile(rb'"created_utc": "[^"]*"')


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    checks: list[Check] = field(default_factory=list)
    digests_matched: int = 0  # outputs byte-identical to the reference
    digests_compared: int = 0
    worst_rel_se: float | None = None  # over the MC estimates; None without MC
    assignments: int = 0  # delivered assignments (schedule only)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), "" if ok else detail))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _untimed_sha256(data: bytes) -> str:
    return sha256(_TIMESTAMP.sub(b'"created_utc": ""', data))


def load_reference(workload: Workload, seed: int) -> dict:
    ref = json.loads((REFERENCE_DIR / f"{workload.name}.json").read_text())
    return ref["seeds"][str(seed % REFERENCE_SEEDS)] if workload.seeded else ref


def stable_digests(kind: str, stdout: bytes, outputs: dict[str, bytes]) -> dict[str, str]:
    """Digests of the outputs that repeat byte for byte at one seed: the
    figure CSVs, the validate report, the schedule JSON without the time of
    the run."""
    if kind == "figure":
        return {n: sha256(d) for n, d in outputs.items() if n.endswith(".csv")}
    if kind == "validate":
        return {"stdout": sha256(stdout)}
    return {n: _untimed_sha256(d) for n, d in outputs.items()}


def _reference_digests(kind: str, ref: dict) -> dict[str, str]:
    if kind == "figure":
        return {n: sha256(t.encode()) for n, t in ref["files"].items() if n.endswith(".csv")}
    if kind == "validate":
        return {"stdout": sha256(ref["stdout"].encode())}
    return {ref["file"]: ref["output_sha256"]}


def _rel_close(value: str, ref: str, rtol: float) -> bool:
    if value == "" or ref == "":
        return value == ref
    x, y = float(value), float(ref)
    return abs(x - y) <= rtol * abs(y)


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------

def parse_figure_csv(text: str) -> tuple[str, list[str], list[dict]]:
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# manifest: "):
        raise ValueError("expected a '# manifest: ...' line and a header")
    reader = csv.reader(lines[1:])
    header = next(reader)
    rows = []
    for cells in reader:
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} cells, header has {len(header)}")
        rows.append(dict(zip(header, cells)))
    return lines[0], header, rows


def _row_problems(row: dict, ref: dict) -> list[str]:
    problems = []
    for col in EXACT_COLUMNS:
        if row[col] != ref[col]:
            problems.append(f"{col}={row[col]!r}, reference {ref[col]!r}")
    for col in CLOSED_FORM_COLUMNS:
        if not _rel_close(row[col], ref[col], CLOSED_FORM_RTOL):
            problems.append(f"{col}={row[col]!r}, reference {ref[col]!r}")
    for col in Q_COLUMNS:
        if int(row[col]) not in Q_RANGE:
            problems.append(f"{col}={row[col]!r} outside {Q_RANGE.start}..{Q_RANGE.stop - 1}")
    if ref["gain_mc"] == "":
        for col in MC_COLUMNS + ("mc_stderr",):
            if row[col] != "":
                problems.append(f"{col}={row[col]!r}, reference has none")
        return problems
    se, se_ref = float(row["mc_stderr"]), float(ref["mc_stderr"])
    ratio = se / se_ref
    if not SE_RATIO_RANGE[0] <= ratio <= SE_RATIO_RANGE[1]:
        problems.append(f"mc_stderr={se:.6g} is {ratio:.3g}x the reference {se_ref:.6g}")
    # the rates share the gain's relative SE as an upper bound on their own
    rel_tol = MC_SE_MULTIPLE * math.hypot(se / float(row["gain_mc"]), se_ref / float(ref["gain_mc"]))
    for col in MC_COLUMNS:
        x, r = float(row[col]), float(ref[col])
        if not abs(x - r) <= rel_tol * abs(r):
            problems.append(f"{col}={x:.12g}, reference {r:.12g}, tolerance {rel_tol * abs(r):.3g}")
    return problems


def _check_manifest(out: Outcome, name: str, data: bytes, ref_text: str) -> None:
    try:
        manifest = json.loads(data)
    except json.JSONDecodeError as exc:
        out.add(f"{name}:parses", False, str(exc))
        return
    ref = json.loads(ref_text)
    problems = [f"missing key {k!r}" for k in ref if k not in manifest]
    for key in ("command", "seed", "outputs"):
        if key in manifest and manifest[key] != ref[key]:
            problems.append(f"{key}={manifest[key]!r}, reference {ref[key]!r}")
    resolved = {k: v for k, v in manifest.get("resolved", {}).items() if k != "workers"}
    if resolved != {k: v for k, v in ref["resolved"].items() if k != "workers"}:
        problems.append("resolved configuration differs from the reference")
    out.add(f"{name}:manifest", not problems, "; ".join(problems))


def _check_figure(files: dict[str, bytes], ref: dict, out: Outcome) -> Outcome:
    extra = sorted(set(files) - set(ref["files"]))
    out.add("no-unexpected-files", not extra, f"unexpected {extra}")
    worst = 0.0
    for name, ref_text in sorted(ref["files"].items()):
        data = files.get(name)
        out.add(f"{name}:exists", data is not None, "missing")
        if data is None:
            continue
        if name.endswith(".json"):
            _check_manifest(out, name, data, ref_text)
            continue
        ref_first, ref_header, ref_rows = parse_figure_csv(ref_text)
        try:
            first, header, rows = parse_figure_csv(data.decode())
        except (UnicodeDecodeError, ValueError) as exc:
            out.add(f"{name}:parses", False, str(exc))
            continue
        schema_ok = first == ref_first and header == ref_header and len(rows) == len(ref_rows)
        out.add(f"{name}:schema", schema_ok, f"header {header}, {len(rows)} rows")
        if not schema_ok:
            continue
        for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            try:
                problems = _row_problems(row, ref_row)
            except (ValueError, ZeroDivisionError) as exc:
                problems = [f"unparsable value: {exc}"]
            out.add(f"{name}:row{i}", not problems, "; ".join(problems))
            if row["gain_mc"] and not problems:
                worst = max(worst, float(row["mc_stderr"]) / abs(float(row["gain_mc"])))
    out.worst_rel_se = worst or None
    return out


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def parse_oracle_lines(text: str) -> tuple[dict[str, tuple[str, dict[str, float]]], list[str]]:
    """Check name -> (PASS or FAIL, numbers of its detail), and the summary
    lines."""
    checks, summary = {}, []
    for line in text.splitlines():
        m = _ORACLE_LINE.match(line)
        if m:
            status, name, detail = m.groups()
            numbers = {}
            for token in detail.split():
                key, eq, value = token.strip("()").partition("=")
                if eq:
                    try:
                        numbers[key] = float(value)
                    except ValueError:
                        pass
            checks[name] = (status, numbers)
        elif _ORACLE_SUMMARY.match(line):
            summary.append(line)
    return checks, summary


def _check_validate(stdout: bytes, ref: dict, out: Outcome) -> Outcome:
    checks, summary = parse_oracle_lines(stdout.decode(errors="replace"))
    ref_checks, ref_summary = parse_oracle_lines(ref["stdout"])
    extra = sorted(set(checks) - set(ref_checks))
    out.add("no-unexpected-checks", not extra, f"unexpected {extra}")
    out.add("summary", summary == ref_summary, f"{summary}, reference {ref_summary}")
    worst = 0.0
    for name, (ref_status, ref_numbers) in ref_checks.items():
        if name not in checks:
            out.add(f"oracle:{name}", False, "missing")
            continue
        status, numbers = checks[name]
        problems = [] if status == ref_status else [f"{status}, reference {ref_status}"]
        for key in ORACLE_CLOSED_KEYS:
            if key in ref_numbers and not (
                abs(numbers.get(key, math.nan) - ref_numbers[key]) <= CLOSED_FORM_RTOL * abs(ref_numbers[key])
            ):
                problems.append(f"{key}={numbers.get(key)}, reference {ref_numbers[key]}")
        out.add(f"oracle:{name}", not problems, "; ".join(problems))
        estimate = numbers.get("mc", numbers.get("E[|x|^2]"))
        if "3se" in numbers and estimate:
            worst = max(worst, numbers["3se"] / 3.0 / abs(estimate))
    out.worst_rel_se = worst or None
    return out


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def summarize_schedule(data: bytes) -> dict:
    """What the schedule checks compare: the verification flag, the layout,
    a digest of the schedule section, and the number of assignments."""
    payload = json.loads(data)
    schedule = payload["schedule"]
    canonical = json.dumps(schedule, sort_keys=True, separators=(",", ":")).encode()
    return {
        "keys": sorted(payload),
        "complete": payload["verification"]["complete"],
        "layout": payload["layout"],
        "schedule_sha256": sha256(canonical),
        "output_sha256": _untimed_sha256(data),
        "assignments": sum(len(r) for stage in schedule["stages"] for r in stage["rounds"]),
    }


def _check_schedule(files: dict[str, bytes], ref: dict, out: Outcome) -> Outcome:
    data = files.get(ref["file"])
    out.add(f"{ref['file']}:exists", data is not None, "missing")
    if data is None:
        return out
    try:
        got = summarize_schedule(data)
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        out.add(f"{ref['file']}:parses", False, repr(exc))
        return out
    out.add("keys", set(ref["keys"]) <= set(got["keys"]), f"keys {got['keys']}")
    out.add("complete", got["complete"] is True, f"complete={got['complete']!r}")
    out.add("layout", got["layout"] == ref["layout"], f"layout {got['layout']}")
    out.add("schedule-digest", got["schedule_sha256"] == ref["schedule_sha256"], "schedule section differs")
    out.assignments = got["assignments"]
    return out


def check(kind: str, stdout: bytes, outputs: dict[str, bytes], returncode: int, ref: dict) -> Outcome:
    """Check one command of a workload of the given kind."""
    out = Outcome()
    out.add("returncode", returncode == ref["returncode"], f"{returncode}, reference {ref['returncode']}")
    if kind == "figure":
        _check_figure(outputs, ref, out)
    elif kind == "validate":
        _check_validate(stdout, ref, out)
    else:
        _check_schedule(outputs, ref, out)
    got, want = stable_digests(kind, stdout, outputs), _reference_digests(kind, ref)
    out.digests_matched = sum(got.get(name) == digest for name, digest in want.items())
    out.digests_compared = len(want)
    return out
