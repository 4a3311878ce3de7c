"""Wrap the public functions of every vccsat layer in spans, from outside.

Each target is wrapped wherever it is bound in any loaded vccsat module, so
calls through `from .channel import ...` names inside `experiments` are
caught, and a later refactor that moves a call stays measured.  The thread
pool class the engine uses is replaced by a subclass whose tasks record a
span, parented to the span that submitted them.  `restore` puts every
binding back and reports any it could not.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from concurrent.futures import ThreadPoolExecutor

TARGETS = {
    "channel": ("sample_channel_array", "sample_dynamic_channel_array", "estimation_noise", "substream"),
    "linkphy": ("sinr_batch",),
    "analysis": (
        "alpha2_closed_form",
        "xi_moments_closed_form",
        "avg_sum_rate_closed_form",
        "effective_gain_closed_form",
    ),
    "experiments": (
        "mc_gain_table",
        "mc_sum_rate",
        "mc_transmit_power",
        "mc_moment_oracle",
        "sweep",
        "oracle_suite",
    ),
    "caching": ("build_schedule", "verify_completeness", "schedule_to_dict"),
    "cli": ("main",),
}
POOL_TASK = "pool.task"


def _array_counts(args: dict, result) -> dict:
    return {"elements": int(result.size), "nbytes": int(result.nbytes)}


def _gain_table_counts(args: dict, result) -> dict:
    from vccsat.analysis import gain_q_grid

    trials, config = args["trials"], args["config"]
    per_trial = config.g_groups * sum(gain_q_grid(args["q_max"])) + sum(gain_q_grid(args["q_max_baseline"]))
    return {"trials": 2 * trials, "sinr_cells": trials * len(args["pt_values"]) * per_trial}


def _sum_rate_counts(args: dict, result) -> dict:
    config = args["config"]
    return {"trials": args["trials"], "sinr_cells": args["trials"] * config.g_groups * config.q_mux}


def _trial_counts(args: dict, result) -> dict:
    return {"trials": args["trials"], "sinr_cells": 0}


def _assignment_counts(args: dict, result) -> dict:
    return {"assignments": sum(len(r) for stage in result.stages for r in stage.rounds)}


# counts recorded on a span from the call's arguments and result
COUNTS = {
    "channel.sample_channel_array": _array_counts,
    "channel.sample_dynamic_channel_array": _array_counts,
    "channel.estimation_noise": _array_counts,
    "experiments.mc_gain_table": _gain_table_counts,
    "experiments.mc_sum_rate": _sum_rate_counts,
    "experiments.mc_transmit_power": _trial_counts,
    "experiments.mc_moment_oracle": _trial_counts,
    "caching.build_schedule": _assignment_counts,
}


def vccsat_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == "vccsat" or n.startswith("vccsat."))]


class Tracer:
    def __init__(self, recorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []
        self._replacements: list[object] = []

    @property
    def wrapped(self) -> int:
        """Bindings currently replaced."""
        return len(self._saved)

    def install(self) -> None:
        originals = {}
        for layer, names in TARGETS.items():
            module = importlib.import_module(f"vccsat.{layer}")
            for name in names:
                originals[f"{layer}.{name}"] = getattr(module, name)
        modules = vccsat_modules()
        for span_name, original in originals.items():
            self._rebind(modules, original, self._wrap(span_name, original))
        self._rebind(modules, ThreadPoolExecutor, self._traced_pool(ThreadPoolExecutor))

    def restore(self) -> list[str]:
        """Put every replaced binding back; return those still not original."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        problems = [f"{m.__name__}.{a}" for m, a, o in self._saved if getattr(m, a) is not o]
        problems += [
            f"{m.__name__}.{a}"
            for m in vccsat_modules()
            for a, v in vars(m).items()
            if any(v is r for r in self._replacements)
        ]
        self._saved.clear()
        return sorted(set(problems))

    def _rebind(self, modules, original, replacement) -> None:
        self._replacements.append(replacement)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._saved.append((module, attr, original))

    def _wrap(self, name: str, fn):
        recorder = self.recorder
        counts = COUNTS.get(name)
        signature = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with recorder.span(name) as span:
                result = fn(*args, **kwargs)
            if counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs.update(counts(bound.arguments, result))
            return result

        return wrapper

    def _traced_pool(self, base):
        recorder = self.recorder

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = recorder.current()

                def task(*a, **k):
                    with recorder.span(POOL_TASK, parent=parent):
                        return fn(*a, **k)

                return super().submit(task, *args, **kwargs)

        return TracedPool
