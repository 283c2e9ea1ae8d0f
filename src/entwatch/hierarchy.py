"""Weighted level structure: routing sources to levels and aggregating entropy.

A hierarchy is a fixed, ordered, non-empty list of levels (filesystem, process, network)
with non-negative weights. Source paths are routed to the first level whose
glob pattern matches (fnmatch semantics, ``*`` crosses path separators);
unmatched sources fall back to the first filesystem level. A level's entropy
is the mean of its members' latest entropies, and the aggregate is the
weighted mean over the levels that have a value: their weights are rescaled
to sum to 1 over just those levels. The config is immutable after
construction and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Mapping, Sequence

from .errors import EmptyLevel, checked, shown

LEVEL_KINDS = ("filesystem", "process", "network")


@dataclass(frozen=True)
class LevelConfig:
    level_id: str
    kind: str
    weight: float
    path_patterns: tuple[str, ...] = ()

    def __post_init__(self):
        checked(self.level_id, "level_id", str)
        if self.kind not in LEVEL_KINDS:
            raise ValueError(f"unknown level kind {shown(self.kind)}, expected one of {LEVEL_KINDS}")
        object.__setattr__(self, "weight", checked(self.weight, "level weight", float))
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ValueError(f"level weight must be finite and non-negative, got {self.weight}")
        # Not any iterable: a string would be one pattern per character, "*" among them.
        object.__setattr__(self, "path_patterns", checked(self.path_patterns, "path_patterns", (str,)))


@dataclass(frozen=True)
class HierarchyConfig:
    levels: tuple[LevelConfig, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("a hierarchy needs at least one level")
        ids = [lvl.level_id for lvl in self.levels]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate level ids in hierarchy: {shown(ids)}")
        # Every weight is finite, but their sum can pass the float range; each
        # weight over an infinite sum is 0, and the aggregate would be 0 always.
        # A finite sum bounds the sum over any subset of the levels as well.
        weight_sum = sum(lvl.weight for lvl in self.levels)
        if not math.isfinite(weight_sum):
            raise ValueError(f"level weights must have a finite sum, got {weight_sum}")


def default_hierarchy() -> HierarchyConfig:
    """Three-level default: user files dominate, then system files, then network.

    The weights are heuristic defaults meant to make higher-impact components
    count for more; tune them per deployment through the run config.
    """
    return HierarchyConfig(
        levels=(
            LevelConfig("fs-user", "filesystem", 0.5, ("/home/**", "/Users/**", "C:/Users/**")),
            LevelConfig("fs-system", "filesystem", 0.3,
                        ("/etc/**", "/var/**", "/usr/**", "/opt/**", "/bin/**", "/srv/**")),
            LevelConfig("net", "network", 0.2, ("net:**", "proc:**")),
        ),
    )


def route_source(config: HierarchyConfig, source_path: str) -> str:
    """Id of the first level whose pattern matches, else the default level.

    The default is the first filesystem level (first level overall when no
    filesystem level exists). Declaration order breaks ties.
    """
    for lvl in config.levels:
        if any(fnmatchcase(source_path, pat) for pat in lvl.path_patterns):
            return lvl.level_id
    for lvl in config.levels:
        if lvl.kind == "filesystem":
            return lvl.level_id
    return config.levels[0].level_id


def route_kind(config: HierarchyConfig, kind: str) -> str | None:
    """Id of the first level of the given kind, if any."""
    for lvl in config.levels:
        if lvl.kind == kind:
            return lvl.level_id
    return None


def level_entropy(member_entropies: Sequence[float]) -> float:
    """Mean of a level's current member-source entropies."""
    if not member_entropies:
        raise EmptyLevel("a level mean needs at least one member entropy")
    return sum(member_entropies) / len(member_entropies)


def aggregate_entropy(config: HierarchyConfig, level_values: Mapping[str, float]) -> float | None:
    """Weighted mean of the entropies of the levels present in ``level_values``.

    Levels without a value are left out, and the weights of the present
    levels are divided by their sum, so they add up to 1. None when that sum
    is 0, as it is when no level is present.
    """
    present = [lvl for lvl in config.levels if lvl.level_id in level_values]
    weight_sum = sum(lvl.weight for lvl in present)
    if weight_sum <= 0:
        return None
    total = 0.0
    for lvl in present:
        total += lvl.weight / weight_sum * level_values[lvl.level_id]
    return total
