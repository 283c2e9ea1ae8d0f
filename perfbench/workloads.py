"""Workload definitions: which traces each workload generates from a seed.

Every trace seed is ``100_000 + 1000 * seed + i``, which keeps the benchmark
clear of the acceptance seeds (1000-4049), the test fixture seeds
(5000-5007) and the attack-model seeds (9101-9103).
"""

from __future__ import annotations

from dataclasses import dataclass

SEED_BASE = 100_000
SEEDS_PER_RUN = 1000


@dataclass(frozen=True)
class InputSpec:
    kind: str
    seed: int
    duration: float

    @property
    def filename(self) -> str:
        return f"{self.kind}_{int(self.duration)}s_{self.seed}.jsonl"


@dataclass(frozen=True)
class Workload:
    name: str
    # (kind, duration, count) groups for the detect inputs and for the
    # held-out benign traces that `entwatch profile` fits the baseline on.
    detect_groups: tuple[tuple[str, float, int], ...]
    heldout_groups: tuple[tuple[str, float, int], ...]
    # Library passes and `entwatch detect` runs per cycle (1, 2 or 4). A
    # window's close time is its median over the run's passes, which drops
    # a pass that a scheduling hiccup hit once there are three or more, and
    # two detects per run check that frozen-clock outputs are byte-identical.
    # A 1000 s ransomware pass or detect takes ~14 s, so that workload
    # affords one of each per run; its traced run does the byte comparison.
    library_passes: int
    detect_runs: int

    def inputs(self, seed: int) -> tuple[list[InputSpec], list[InputSpec]]:
        base = SEED_BASE + SEEDS_PER_RUN * (seed % 10 ** 9)
        counter = iter(range(SEEDS_PER_RUN))

        def expand(groups):
            return [InputSpec(kind, base + next(counter), duration)
                    for kind, duration, count in groups for _ in range(count)]

        detect = expand(self.detect_groups)
        heldout = expand(self.heldout_groups)
        return detect, heldout


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="corpus_mixed",
            detect_groups=(("ransomware", 100.0, 8), ("benign_edit", 100.0, 8),
                           ("compressor", 100.0, 8)),
            heldout_groups=(("benign_edit", 100.0, 8),),
            library_passes=4,
            detect_runs=2,
        ),
        Workload(
            name="wide_ransomware",
            detect_groups=(("ransomware", 1000.0, 1),),
            heldout_groups=(("benign_edit", 1000.0, 1),),
            library_passes=1,
            detect_runs=1,
        ),
        Workload(
            name="wide_benign",
            detect_groups=(("benign_edit", 1000.0, 1), ("compressor", 1000.0, 1)),
            heldout_groups=(("benign_edit", 1000.0, 1),),
            library_passes=4,
            detect_runs=2,
        ),
    )
}
