"""Self time, busy time and layer metrics on synthetic spans over two threads."""

import json
from pathlib import Path

from perfbench.layers import batches, layer_metrics
from perfbench.spans import Recorder, Span, busy_ns, covered_ns, self_ns, union_ns

MAIN, POOL = 1, 2


def _tree() -> list[Span]:
    # cli.main on the main thread runs a sweep whose estimator hands one
    # batch to a pool thread and waits for it
    return [
        Span(1, "cli.main", 0, 100, None, MAIN),
        Span(2, "experiments.sweep", 10, 90, 1, MAIN),
        Span(3, "experiments.mc_gain_table", 15, 85, 2, MAIN, {"trials": 200, "sinr_cells": 1000}),
        Span(4, "pool.task", 20, 60, 3, POOL),
        Span(5, "channel.substream", 20, 22, 4, POOL),
        Span(6, "channel.sample_channel_array", 25, 40, 4, POOL, {"elements": 10, "nbytes": 160}),
        Span(7, "channel.estimation_noise", 35, 45, 4, POOL, {"elements": 10, "nbytes": 160}),
        Span(8, "analysis.alpha2_closed_form", 12, 14, 2, MAIN),
    ]


def test_union_and_cover():
    assert union_ns([(0, 10), (5, 15), (20, 30)]) == 25
    assert union_ns([]) == 0
    assert covered_ns((10, 25), [(0, 12), (20, 40)]) == 7


def test_self_time_is_per_thread():
    spans = _tree()
    by_id = {s.id: s for s in spans}
    # main loses the sweep (10..90) and the closed form under it is the
    # sweep's own child, not main's
    assert self_ns(by_id[1], spans) == 20
    # the pool task runs on another thread, so it hides none of the
    # estimator's wait
    assert self_ns(by_id[3], spans) == 70
    assert self_ns(by_id[2], spans) == 80 - 70 - 2
    # on the pool thread the draws overlap each other: 20 ns covered, not 25
    assert self_ns(by_id[4], spans) == 40 - 2 - 20


def test_busy_time_sums_threads_and_merges_overlap():
    spans = _tree()
    assert busy_ns([spans[0], spans[3]]) == 100 + 40
    assert busy_ns([spans[5], spans[6]]) == 20


def test_batches_end_at_next_substream_or_parent_end():
    spans = [
        Span(1, "experiments.mc_sum_rate", 0, 100, None, MAIN),
        Span(2, "channel.substream", 10, 11, 1, MAIN),
        Span(3, "channel.substream", 50, 51, 1, MAIN),
    ]
    assert batches(spans) == [(MAIN, 10, 50), (MAIN, 50, 100)]
    assert batches(_tree()) == [(POOL, 20, 60)]


def test_layer_metrics_on_two_threads():
    m = layer_metrics(_tree(), workers=2)
    assert m["channel.calls"] == 2
    assert m["channel.elements"] == 20
    assert m["channel.bytes_computed"] == 320
    assert m["channel.draw_s"] == 15e-9
    assert m["channel.noise_s"] == 10e-9
    assert m["experiments.trials"] == 200
    assert m["experiments.batches"] == 1
    # batch 20..60 minus the channel spans it covers (20..22, 25..45)
    assert m["experiments.kernel_self_s"] == 18e-9
    assert m["experiments.ns_per_sinr_cell"] == 18 / 1000
    assert m["experiments.pool_busy_ratio"] == 40 / (2 * 70)
    assert m["analysis.calls"] == 1
    assert m["cli.self_s"] == 20e-9
    assert m["linkphy.sinr_calls"] == 0


def test_recorder_parents_and_dump(tmp_path):
    rec = Recorder()
    with rec.span("outer") as outer:
        with rec.span("inner") as inner:
            pass
    with rec.span("task", parent=outer.id) as task:
        pass
    assert inner.parent == outer.id and outer.parent is None and task.parent == outer.id
    rec.dump(tmp_path / "spans.json", unrestored=[])
    payload = json.loads(Path(tmp_path / "spans.json").read_text())
    assert [s["name"] for s in payload["spans"]] == ["inner", "outer", "task"]
    assert payload["unrestored"] == []
