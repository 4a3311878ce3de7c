import json
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vccsat.caching import (
    Assignment,
    CacheLayout,
    DeliverySchedule,
    StagePlan,
    build_schedule,
    enumerate_stages,
    schedule_to_dict,
    verify_completeness,
)


def distinct_demands(layout):
    return {u: u for u in range(1, layout.n_users + 1)}


def label_audit(schedule, layout, demands):
    """The delivery audit written label by label: the reference that
    verify_completeness is checked against.  Returns the missing, duplicated
    and unexpected (file, states) labels per user."""
    delivered = {u: [] for u in range(1, layout.n_users + 1)}
    for stage in schedule.stages:
        for round_assignments in stage.rounds:
            for a in round_assignments:
                delivered[a.user].append((a.file, a.subfile))
    all_sets = list(combinations(range(1, layout.n_states + 1), layout.t))
    missing, duplicated, unexpected = {}, {}, {}
    for user, labels in delivered.items():
        group = layout.group_of(user)
        needed = {(demands[user], tset) for tset in all_sets if group not in tset}
        for target, found in (
            (missing, needed - set(labels)),
            (duplicated, {l for l in labels if labels.count(l) > 1}),
            (unexpected, set(labels) - needed),
        ):
            if found:
                target[user] = sorted(found)
    return missing, duplicated, unexpected


def delivery_counts(schedule):
    """Labels delivered to each user, counted from the schedule."""
    return Counter(a.user for stage in schedule.stages for rnd in stage.rounds for a in rnd)


class TestCacheLayout:
    def test_invariants(self):
        layout = CacheLayout(n_states=5, t=2, n_files=10, users_per_group=2)
        assert layout.caching_gain == 3
        assert layout.n_users == 10
        assert layout.cache_fraction == pytest.approx(0.4)

    @pytest.mark.parametrize("n_states,t", [(3, 0), (3, 3), (3, 4), (1, 1)])
    def test_rejects_bad_t(self, n_states, t):
        with pytest.raises(ValueError):
            CacheLayout(n_states=n_states, t=t, n_files=1, users_per_group=1)

    def test_group_membership(self):
        layout = CacheLayout(n_states=3, t=1, n_files=6, users_per_group=2)
        assert list(layout.group_members(1)) == [1, 2]
        assert list(layout.group_members(3)) == [5, 6]
        assert layout.group_of(4) == 2
        with pytest.raises(ValueError):
            layout.group_of(7)


class TestCacheContents:
    @pytest.mark.parametrize("n_states", range(2, 9))
    def test_budget_exact_for_all_layouts(self, n_states):
        # a state caches the C(n-1, t-1) of C(n, t) labels that contain it,
        # a share of exactly t / n, the layout's cache_fraction
        for t in range(1, n_states):
            assert comb(n_states - 1, t - 1) * n_states == comb(n_states, t) * t


class TestEnumerateStages:
    def test_pairs_for_three_states(self):
        layout = CacheLayout(n_states=3, t=1, n_files=3, users_per_group=1)
        assert enumerate_stages(layout) == [(1, 2), (1, 3), (2, 3)]

    def test_ten_stages_for_five_choose_three(self):
        layout = CacheLayout(n_states=5, t=2, n_files=5, users_per_group=1)
        assert len(enumerate_stages(layout)) == 10

    def test_single_stage_when_g_equals_states(self):
        layout = CacheLayout(n_states=6, t=5, n_files=6, users_per_group=1)
        assert enumerate_stages(layout) == [(1, 2, 3, 4, 5, 6)]


class TestBuildSchedule:
    def test_three_state_singleton_layout(self):
        layout = CacheLayout(n_states=3, t=1, n_files=3, users_per_group=1)
        schedule = build_schedule(layout, 1, distinct_demands(layout))
        assert schedule.n_stages == 3
        assert all(len(s.rounds) == 1 for s in schedule.stages)
        assert all(len(r) == 2 for s in schedule.stages for r in s.rounds)
        # stage {1,2}: the group-1 user gets its file's subfile {2}, and vice versa
        first = schedule.stages[0]
        assert first.groups == (1, 2)
        by_group = {a.group: a for a in first.rounds[0]}
        assert (by_group[1].file, by_group[1].subfile) == (1, (2,))
        assert (by_group[2].file, by_group[2].subfile) == (2, (1,))

    def test_five_state_two_slot_layout(self):
        layout = CacheLayout(n_states=5, t=2, n_files=10, users_per_group=2)
        schedule = build_schedule(layout, 2, distinct_demands(layout))
        assert schedule.n_stages == 10
        assert all(len(s.rounds) == 1 for s in schedule.stages)
        assert all(len(r) == 6 for s in schedule.stages for r in s.rounds)  # G * q users

    def test_round_user_order_is_ascending(self):
        layout = CacheLayout(n_states=2, t=1, n_files=4, users_per_group=2)
        schedule = build_schedule(layout, 1, distinct_demands(layout))
        for stage in schedule.stages:
            served = [[a.user for a in rnd if a.group == 1] for rnd in stage.rounds]
            assert served == [[1], [2]]

    def test_q_larger_than_group_rejected(self):
        layout = CacheLayout(n_states=3, t=1, n_files=3, users_per_group=1)
        with pytest.raises(ValueError, match="exceeds users_per_group"):
            build_schedule(layout, 2, distinct_demands(layout))

    def test_indivisible_round_size_rejected(self):
        layout = CacheLayout(n_states=3, t=1, n_files=9, users_per_group=3)
        with pytest.raises(ValueError, match="not divisible"):
            build_schedule(layout, 2, distinct_demands(layout))

    def test_duplicate_demands_rejected(self):
        layout = CacheLayout(n_states=3, t=1, n_files=3, users_per_group=1)
        with pytest.raises(ValueError, match="distinct"):
            build_schedule(layout, 1, {1: 1, 2: 1, 3: 2})

    def test_partial_demands_rejected(self):
        layout = CacheLayout(n_states=3, t=1, n_files=3, users_per_group=1)
        with pytest.raises(ValueError, match="cover exactly users"):
            build_schedule(layout, 1, {1: 1, 2: 2})


class TestVerifyCompleteness:
    def test_valid_schedule_is_complete(self):
        layout = CacheLayout(n_states=3, t=1, n_files=3, users_per_group=1)
        demands = distinct_demands(layout)
        schedule = build_schedule(layout, 1, demands)
        report = verify_completeness(schedule, layout, demands)
        assert report.complete
        # each user receives C(2, 1) = 2 subfiles over the stages containing its group
        counts = delivery_counts(schedule)
        assert sorted(counts) == [1, 2, 3] and all(count == 2 for count in counts.values())

    def test_deleting_a_stage_is_reported(self):
        layout = CacheLayout(n_states=3, t=1, n_files=3, users_per_group=1)
        demands = distinct_demands(layout)
        schedule = build_schedule(layout, 1, demands)
        truncated = DeliverySchedule(g=schedule.g, q=schedule.q, stages=schedule.stages[1:])
        report = verify_completeness(truncated, layout, demands)
        assert not report.complete
        # dropped stage (1, 2) serves one user of group 1 and one of group 2,
        # so exactly those two users each miss exactly one label
        assert set(report.missing) == {1, 2}
        assert report.missing[1] == [(1, (2,))]
        assert report.missing[2] == [(2, (1,))]
        assert not report.duplicated

    def test_duplicated_delivery_is_reported(self):
        layout = CacheLayout(n_states=3, t=1, n_files=3, users_per_group=1)
        demands = distinct_demands(layout)
        schedule = build_schedule(layout, 1, demands)
        doubled = DeliverySchedule(
            g=schedule.g, q=schedule.q, stages=schedule.stages + schedule.stages[:1]
        )
        report = verify_completeness(doubled, layout, demands)
        assert not report.complete
        # the repeated stage (1, 2) serves user 1 label {2} and user 2 label {1}
        assert report.duplicated == {1: [(1, (2,))], 2: [(2, (1,))]}
        assert not report.missing and not report.unexpected
        assert delivery_counts(doubled) == {1: 3, 2: 3, 3: 2}

    def test_unexpected_delivery_is_reported(self):
        layout = CacheLayout(n_states=3, t=1, n_files=3, users_per_group=1)
        demands = distinct_demands(layout)
        schedule = build_schedule(layout, 1, demands)
        # user 1 (group 1) already caches label {1} of its file, and file 3
        # is user 3's demand
        extra = StagePlan(
            groups=(1,),
            rounds=(
                (
                    Assignment(group=1, slot=1, user=1, file=3, subfile=(2,)),
                    Assignment(group=1, slot=1, user=1, file=1, subfile=(1,)),
                    Assignment(group=1, slot=1, user=1, file=3, subfile=(2,)),
                ),
            ),
        )
        padded = DeliverySchedule(g=schedule.g, q=schedule.q, stages=schedule.stages + (extra,))
        report = verify_completeness(padded, layout, demands)
        assert not report.complete
        assert report.unexpected == {1: [(1, (1,)), (3, (2,))]}
        assert report.duplicated == {1: [(3, (2,))]}
        assert not report.missing
        assert delivery_counts(padded) == {1: 5, 2: 2, 3: 2}
        assert report.summary() == "incomplete: 0 missing, 1 duplicated, 2 unexpected deliveries"

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_label_by_label_reference(self, data):
        n_states = data.draw(st.integers(2, 5), label="n_states")
        t = data.draw(st.integers(1, n_states - 1), label="t")
        q = data.draw(st.sampled_from([1, 2]), label="q")
        users_per_group = q * data.draw(st.sampled_from([1, 2]), label="rounds")
        n_files = n_states * users_per_group + 2
        layout = CacheLayout(n_states=n_states, t=t, n_files=n_files, users_per_group=users_per_group)
        files = data.draw(st.permutations(range(1, n_files + 1)), label="files")
        demands = {u: files[u - 1] for u in range(1, layout.n_users + 1)}
        schedule = build_schedule(layout, q, demands)
        assignments = [a for stage in schedule.stages for rnd in stage.rounds for a in rnd]
        # drop, repeat, or deliver another file, label set or user
        for kind in data.draw(st.lists(st.integers(0, 4), max_size=4), label="edits"):
            i = data.draw(st.integers(0, len(assignments) - 1))
            a = assignments[i]
            if kind == 0:
                del assignments[i]
            elif kind == 1:
                assignments.append(a)
            elif kind == 2:
                f = data.draw(st.integers(1, n_files))
                assignments[i] = Assignment(a.group, a.slot, a.user, f, a.subfile)
            elif kind == 3:
                states = data.draw(st.sets(st.integers(1, n_states), min_size=1))
                assignments[i] = Assignment(a.group, a.slot, a.user, a.file, tuple(sorted(states)))
            else:
                user = data.draw(st.integers(1, layout.n_users))
                assignments[i] = Assignment(a.group, a.slot, user, a.file, a.subfile)
            if not assignments:
                break
        edited = DeliverySchedule(
            g=schedule.g, q=schedule.q, stages=(StagePlan(groups=(1,), rounds=(tuple(assignments),)),)
        )
        report = verify_completeness(edited, layout, demands)
        expected = label_audit(edited, layout, demands)
        assert (report.missing, report.duplicated, report.unexpected) == expected
        assert report.complete == (expected == ({}, {}, {}))

    def test_eight_state_delivery_count(self):
        layout = CacheLayout(n_states=8, t=3, n_files=16, users_per_group=2)
        demands = distinct_demands(layout)
        schedule = build_schedule(layout, 2, demands)
        report = verify_completeness(schedule, layout, demands)
        assert report.complete
        # needed-per-user count C(7, 3) equals the number of stages containing
        # the user's group, C(7, G-1)
        counts = delivery_counts(schedule)
        assert len(counts) == layout.n_users and all(count == comb(7, 3) for count in counts.values())
        assert comb(7, 3) == comb(7, layout.caching_gain - 1)

    @pytest.mark.parametrize("n_states", [2, 3, 4, 5])
    def test_exact_once_delivery_small_layouts(self, n_states):
        for t in range(1, n_states):
            for q in (1, 2):
                for users_per_group in (q, 2 * q):
                    layout = CacheLayout(
                        n_states=n_states,
                        t=t,
                        n_files=n_states * users_per_group,
                        users_per_group=users_per_group,
                    )
                    demands = distinct_demands(layout)
                    schedule = build_schedule(layout, q, demands)
                    report = verify_completeness(schedule, layout, demands)
                    assert report.complete, (n_states, t, q, users_per_group, report.summary())


class TestScheduleExport:
    def test_json_round_trip_structure(self):
        layout = CacheLayout(n_states=5, t=2, n_files=10, users_per_group=2)
        demands = distinct_demands(layout)
        schedule = build_schedule(layout, 2, demands)
        data = json.loads(json.dumps(schedule_to_dict(schedule)))
        assert data["g"] == 3 and data["q"] == 2 and data["n_stages"] == 10
        first = data["stages"][0]
        assert first["groups"] == [1, 2, 3]
        assert len(first["rounds"][0]) == 6
        entry = first["rounds"][0][0]
        assert sorted(entry) == ["file", "group", "slot", "subfile", "user"]
        assert entry["subfile"] == sorted(entry["subfile"])

    def test_dof_accounting(self):
        # deliveries per stage-round equal G * Q
        layout = CacheLayout(n_states=5, t=2, n_files=10, users_per_group=2)
        schedule = build_schedule(layout, 2, distinct_demands(layout))
        for stage in schedule.stages:
            for rnd in stage.rounds:
                assert len(rnd) == schedule.g * schedule.q
                assert len({a.user for a in rnd}) == schedule.g * schedule.q
