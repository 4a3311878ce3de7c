"""Combinatorial cache placement and delivery scheduling.

Files are split into C(n_states, t) subfiles labelled by t-subsets of the
cache states [1..n_states]; the group caching state g stores every subfile
whose label contains g.  Delivery runs one stage per (t+1)-subset of states,
with users of each selected group served q at a time in ascending id order.
Subfiles are symbolic labels only; the physical layer maps one label to one
unit-power symbol per round.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, NamedTuple


@dataclass(frozen=True)
class CacheLayout:
    """Placement geometry: n_states cache states, subfile labels of size t,
    n_files library files, users_per_group users sharing each state."""

    n_states: int
    t: int
    n_files: int
    users_per_group: int

    def __post_init__(self):
        if self.n_states < 2:
            raise ValueError(f"n_states must be >= 2, got {self.n_states}")
        if not 1 <= self.t < self.n_states:
            raise ValueError(f"t must satisfy 1 <= t < n_states, got t={self.t}, n_states={self.n_states}")
        if self.n_files < 1:
            raise ValueError(f"n_files must be >= 1, got {self.n_files}")
        if self.users_per_group < 1:
            raise ValueError(f"users_per_group must be >= 1, got {self.users_per_group}")

    @property
    def caching_gain(self) -> int:
        """Groups served per stage, G = t + 1."""
        return self.t + 1

    @property
    def n_users(self) -> int:
        return self.n_states * self.users_per_group

    @property
    def cache_fraction(self) -> float:
        """Fraction of each file stored per user, t / n_states."""
        return self.t / self.n_states

    def group_of(self, user: int) -> int:
        if not 1 <= user <= self.n_users:
            raise ValueError(f"user id {user} out of range [1, {self.n_users}]")
        return (user - 1) // self.users_per_group + 1

    def group_members(self, group: int) -> range:
        if not 1 <= group <= self.n_states:
            raise ValueError(f"group {group} out of range [1, {self.n_states}]")
        start = (group - 1) * self.users_per_group + 1
        return range(start, start + self.users_per_group)


# a delivered subfile: (file, sorted state set)
_Label = tuple[int, tuple[int, ...]]


def enumerate_stages(layout: CacheLayout) -> list[tuple[int, ...]]:
    """All C(n_states, t+1) stage state-subsets in lexicographic order."""
    return list(combinations(range(1, layout.n_states + 1), layout.caching_gain))


class Assignment(NamedTuple):
    """User `user` in slot `slot` of group `group` receives the subfile of
    file `file` labelled by the sorted state set `subfile`.  The fields are
    the assignment's keys in the exported schedule."""

    group: int
    slot: int
    user: int
    file: int
    subfile: tuple[int, ...]


@dataclass(frozen=True)
class StagePlan:
    groups: tuple[int, ...]
    rounds: tuple[tuple[Assignment, ...], ...]


@dataclass(frozen=True)
class DeliverySchedule:
    g: int
    q: int
    stages: tuple[StagePlan, ...]

    @property
    def n_stages(self) -> int:
        return len(self.stages)


def _check_demands(layout: CacheLayout, demands: Mapping[int, int]) -> None:
    users = set(demands)
    expected = set(range(1, layout.n_users + 1))
    if users != expected:
        raise ValueError(
            f"demands must cover exactly users 1..{layout.n_users}; "
            f"missing {sorted(expected - users)}, extra {sorted(users - expected)}"
        )
    files = list(demands.values())
    if len(set(files)) != len(files):
        raise ValueError("demands must request distinct files")
    bad = [f for f in files if not 1 <= f <= layout.n_files]
    if bad:
        raise ValueError(f"demanded file indices out of range [1, {layout.n_files}]: {sorted(bad)}")


def build_schedule(layout: CacheLayout, q: int, demands: Mapping[int, int]) -> DeliverySchedule:
    """Full delivery plan: for every stage (a (t+1)-subset of states) and
    round, serve q users per selected group, in ascending user-id order, each
    receiving the subfile of its demanded file labelled by the stage set
    minus its own group."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if q > layout.users_per_group:
        raise ValueError(f"q={q} exceeds users_per_group={layout.users_per_group}")
    if layout.users_per_group % q != 0:
        raise ValueError(
            f"users_per_group={layout.users_per_group} not divisible by q={q}"
        )
    _check_demands(layout, demands)

    n_rounds = layout.users_per_group // q
    stages = []
    for stage_set in enumerate_stages(layout):
        # each selected group's label set and members serve every round
        served = [
            (group, tuple(s for s in stage_set if s != group), layout.group_members(group))
            for group in stage_set
        ]
        rounds = []
        for r in range(n_rounds):
            assignments = []
            for group, label_set, members in served:
                for slot in range(1, q + 1):
                    user = members[r * q + slot - 1]
                    assignments.append(Assignment(group, slot, user, demands[user], label_set))
            rounds.append(tuple(assignments))
        stages.append(StagePlan(groups=stage_set, rounds=tuple(rounds)))
    return DeliverySchedule(g=layout.caching_gain, q=q, stages=tuple(stages))


@dataclass
class CompletenessReport:
    """Outcome of the exhaustive per-user delivery audit: per user, the
    sorted (file, states) labels missing, delivered more than once, or not
    needed."""

    complete: bool
    missing: dict[int, list[_Label]] = field(default_factory=dict)
    duplicated: dict[int, list[_Label]] = field(default_factory=dict)
    unexpected: dict[int, list[_Label]] = field(default_factory=dict)

    def summary(self) -> str:
        if self.complete:
            return "complete: every needed subfile delivered exactly once"
        return (
            f"incomplete: {sum(len(v) for v in self.missing.values())} missing, "
            f"{sum(len(v) for v in self.duplicated.values())} duplicated, "
            f"{sum(len(v) for v in self.unexpected.values())} unexpected deliveries"
        )


def _add_labels(target: dict[int, list[_Label]], user: int, labels) -> None:
    """Record the (file, states) labels, if any, sorted."""
    labels = sorted(labels)
    if labels:
        target[user] = labels


def verify_completeness(
    schedule: DeliverySchedule, layout: CacheLayout, demands: Mapping[int, int]
) -> CompletenessReport:
    """Check that for every user the delivered labels are exactly the labels
    of its demanded file that its cache state lacks, each delivered once."""
    _check_demands(layout, demands)
    delivered: dict[int, list[_Label]] = {u: [] for u in range(1, layout.n_users + 1)}
    for stage in schedule.stages:
        for round_assignments in stage.rounds:
            for a in round_assignments:
                delivered[a.user].append((a.file, a.subfile))

    all_sets = list(combinations(range(1, layout.n_states + 1), layout.t))
    # the label sets each group's cache lacks, shared by its users
    lacking = {
        g: frozenset(tset for tset in all_sets if g not in tset) for g in range(1, layout.n_states + 1)
    }
    report = CompletenessReport(complete=True)
    for user, labels in delivered.items():
        file = demands[user]
        needed = lacking[layout.group_of(user)]
        got = {s for f, s in labels if f == file}
        _add_labels(report.missing, user, ((file, s) for s in needed - got))
        unexpected = [(file, s) for s in got - needed]
        if len(got) < len(labels):
            # a label delivered twice, or one of another file
            counts = Counter(labels)
            _add_labels(report.duplicated, user, (label for label, c in counts.items() if c > 1))
            unexpected += [label for label in counts if label[0] != file]
        _add_labels(report.unexpected, user, unexpected)
    report.complete = not (report.missing or report.duplicated or report.unexpected)
    return report


def schedule_to_dict(schedule: DeliverySchedule) -> dict:
    """JSON-ready structure: stages -> rounds -> assignments, each an
    `Assignment` as a dict; JSON writes the sorted state tuples as arrays."""
    return {
        "g": schedule.g,
        "q": schedule.q,
        "n_stages": schedule.n_stages,
        "stages": [
            {"groups": stage.groups, "rounds": [[a._asdict() for a in r] for r in stage.rounds]}
            for stage in schedule.stages
        ],
    }
