"""Per-layer metrics of one traced command, computed from its spans.

Times are busy times summed over threads; counts come from the call
arguments and results the tracer recorded.  A batch starts at a `substream`
call and ends at the next `substream` call under the same parent span (the
estimator on the calling thread, or the pool task on a pool thread), or
where that parent ends.
"""

from __future__ import annotations

from .spans import Span, busy_ns, covered_ns, self_ns

DRAWS = {"channel.sample_channel_array", "channel.sample_dynamic_channel_array"}
NOISE = {"channel.estimation_noise"}
SUBSTREAM = "channel.substream"
ESTIMATORS = {
    "experiments.mc_gain_table",
    "experiments.mc_sum_rate",
    "experiments.mc_transmit_power",
    "experiments.mc_moment_oracle",
}

# the metrics whose values are counts; they must repeat exactly
COUNT_METRICS = (
    "channel.calls",
    "channel.elements",
    "channel.bytes_computed",
    "experiments.trials",
    "experiments.batches",
    "experiments.sinr_cells",
    "analysis.calls",
    "linkphy.sinr_calls",
    "caching.assignments",
)


def _outermost(spans: list[Span], names: set[str], by_id: dict[int, Span]) -> list[Span]:
    """Spans named in `names` that have no ancestor named in `names`."""

    def nested(span: Span) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name in names:
                return True
            parent = by_id.get(parent.parent)
        return False

    return [s for s in spans if s.name in names and not nested(s)]


def batches(spans: list[Span]) -> list[tuple[int, int, int]]:
    """(thread, start_ns, end_ns) of every MC batch."""
    by_id = {s.id: s for s in spans}
    marks_by_parent: dict[int | None, list[Span]] = {}
    for s in spans:
        if s.name == SUBSTREAM:
            marks_by_parent.setdefault(s.parent, []).append(s)
    out = []
    for parent_id, marks in marks_by_parent.items():
        marks.sort(key=lambda s: s.start_ns)
        parent = by_id.get(parent_id)
        ends = [m.start_ns for m in marks[1:]] + [parent.end_ns if parent else marks[-1].end_ns]
        out += [(m.thread, m.start_ns, end) for m, end in zip(marks, ends)]
    return out


def _ns_per(ns: int, count: int) -> float:
    return ns / count if count else 0.0


def layer_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    by_id = {s.id: s for s in spans}

    def named(names) -> list[Span]:
        return [s for s in spans if s.name in names]

    def layer(prefix: str) -> list[Span]:
        return [s for s in spans if s.name.startswith(prefix + ".")]

    draw_ns, noise_ns = busy_ns(named(DRAWS)), busy_ns(named(NOISE))
    samplers = _outermost(spans, DRAWS | NOISE, by_id)
    elements = sum(s.attrs.get("elements", 0) for s in samplers)

    estimators = _outermost(spans, ESTIMATORS, by_id)
    sinr_cells = sum(s.attrs.get("sinr_cells", 0) for s in estimators)
    batch_list = batches(spans)
    # the kernel is batch time on a thread not covered by channel or
    # analysis spans on that thread
    not_kernel: dict[int, list[tuple[int, int]]] = {}
    for s in layer("channel") + layer("analysis"):
        not_kernel.setdefault(s.thread, []).append((s.start_ns, s.end_ns))
    kernel_ns = sum(
        (end - start) - covered_ns((start, end), not_kernel.get(thread, ())) for thread, start, end in batch_list
    )
    batch_ns = sum(end - start for _, start, end in batch_list)
    mc_wall_ns = sum(s.duration_ns for s in estimators)

    caching = {
        name: busy_ns(named({f"caching.{name}"}))
        for name in ("build_schedule", "verify_completeness", "schedule_to_dict")
    }
    assignments = sum(s.attrs.get("assignments", 0) for s in _outermost(spans, {"caching.build_schedule"}, by_id))

    return {
        "channel.draw_s": draw_ns / 1e9,
        "channel.noise_s": noise_ns / 1e9,
        "channel.calls": len(named(DRAWS | NOISE)),
        "channel.elements": elements,
        "channel.bytes_computed": sum(s.attrs.get("nbytes", 0) for s in samplers),
        "channel.ns_per_element": _ns_per(draw_ns + noise_ns, elements),
        "experiments.trials": sum(s.attrs.get("trials", 0) for s in estimators),
        "experiments.batches": len(batch_list),
        "experiments.sinr_cells": sinr_cells,
        "experiments.kernel_self_s": kernel_ns / 1e9,
        "experiments.ns_per_sinr_cell": _ns_per(kernel_ns, sinr_cells),
        "experiments.pool_busy_ratio": batch_ns / (workers * mc_wall_ns) if mc_wall_ns else 0.0,
        "analysis.calls": len(layer("analysis")),
        "analysis.busy_s": busy_ns(layer("analysis")) / 1e9,
        "linkphy.sinr_calls": len(named({"linkphy.sinr_batch"})),
        "linkphy.busy_s": busy_ns(layer("linkphy")) / 1e9,
        "caching.build_s": caching["build_schedule"] / 1e9,
        "caching.verify_s": caching["verify_completeness"] / 1e9,
        "caching.export_s": caching["schedule_to_dict"] / 1e9,
        "caching.assignments": assignments,
        "caching.ns_per_assignment": _ns_per(sum(caching.values()), assignments),
        "cli.self_s": sum(self_ns(s, spans) for s in named({"cli.main"})) / 1e9,
    }
