"""The four workloads: one vccsat command each, run to completion.

Trial counts and the schedule layout are sized so that one command takes a
few seconds on two cores, which lets a run repeat it several times and
report medians.  Why each workload was chosen, and what each per-layer
metric should move on it, is in perfbench/README.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# The vccsat seed of a run is --seed modulo this; reference/ holds the
# outputs of every one of these seeds, so any --seed has a reference.
REFERENCE_SEEDS = 32

FIG2_TRIALS = 16_384
VALIDATE_TRIALS = 8_192
FIG6_TRIALS = 4_096
SCHEDULE_LAYOUT = ("--states", "12", "--t", "5", "--users-per-group", "8", "--q", "4")

OUTDIR = "out"


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    workers: int | None  # None: the command takes no --workers
    seeded: bool
    mc_trials: int  # MC trials per command over every estimator call and side; 0 if none
    kind: str  # "figure", "validate" or "schedule": how its outputs are checked

    def local_workers(self) -> int | None:
        """The workload's --workers, never more than the CPUs this process may use."""
        if self.workers is None:
            return None
        return min(self.workers, len(os.sched_getaffinity(0)))

    def command(self, seed: int, workers: int) -> list[str]:
        argv = list(self.args)
        if self.seeded:
            argv += ["--seed", str(seed % REFERENCE_SEEDS)]
        if self.workers is not None:
            argv += ["--workers", str(workers)]
        return argv


def _validate_trials(trials: int) -> int:
    # power contract for VCC and for the baseline, one rate, and the moment
    # oracle at ten times the trials (the CLI's own rule)
    return 3 * trials + 10 * max(trials, 10_000)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig2",
            ("figure", "2", "--trials", str(FIG2_TRIALS), "--outdir", OUTDIR),
            workers=2,
            seeded=True,
            mc_trials=3 * 2 * FIG2_TRIALS,  # FHS, AS, ILS; VCC and baseline
            kind="figure",
        ),
        Workload(
            "validate",
            ("validate", "--trials", str(VALIDATE_TRIALS)),
            workers=1,
            seeded=True,
            mc_trials=_validate_trials(VALIDATE_TRIALS),
            kind="validate",
        ),
        Workload(
            "fig6",
            ("figure", "6", "--trials", str(FIG6_TRIALS), "--outdir", OUTDIR),
            workers=1,
            seeded=True,
            mc_trials=2 * 2 * FIG6_TRIALS,  # static and dynamic; VCC and baseline
            kind="figure",
        ),
        Workload(
            "schedule",
            ("schedule",) + SCHEDULE_LAYOUT + ("--out", f"{OUTDIR}/schedule.json"),
            workers=None,
            seeded=False,
            mc_trials=0,
            kind="schedule",
        ),
    )
}
