"""Weighted level structure: routing sources to levels and averaging their entropy.

A hierarchy is a fixed, ordered, non-empty list of levels (filesystem, process, network)
with non-negative weights. A source goes to the first level of its record's
level hint kind, when some level has that kind; else to the first level
whose glob pattern matches (fnmatch semantics, ``*`` crosses path
separators); else to the first filesystem level. ``LevelMeans`` keeps each
level's mean of its members' latest entropies and the aggregate: the
weighted mean over the levels that have members, their weights rescaled to
sum to 1 over just those levels.
The config is immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fnmatch import fnmatchcase

from .errors import checked, shown

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


def route_source(config: HierarchyConfig, source_path: str, kind: str | None = None) -> str:
    """Id of the level a source belongs to.

    That is the first level of the given ``kind`` (a record's level hint),
    else the first level whose pattern matches ``source_path``, else the
    first filesystem level (first level overall when no filesystem level
    exists). Declaration order breaks ties.
    """
    if kind is not None:
        for lvl in config.levels:
            if lvl.kind == kind:
                return lvl.level_id
    for lvl in config.levels:
        if any(fnmatchcase(source_path, pat) for pat in lvl.path_patterns):
            return lvl.level_id
    for lvl in config.levels:
        if lvl.kind == "filesystem":
            return lvl.level_id
    return config.levels[0].level_id


class LevelMeans:
    """Each level's mean of its members' latest entropies, and their weighted mean.

    A level's mean is the sum of its members' values over their count. The
    weighted mean is over the levels that have members, in hierarchy order:
    each weight divided by their weight sum, then ``weight * mean`` added
    from 0.0. The levels and weights are planned again only when a level
    gets its first member.
    """

    def __init__(self, config: HierarchyConfig):
        self.config = config
        self._values: dict[str, list[float]] = {}  # per level, its members' latest values
        # The levels with members, in hierarchy order: (level id, values, rescaled weight).
        self._levels: list[tuple[str, list[float], float]] = []
        self._weight_sum = 0.0

    def update(self, level_id: str, slot: int | None, value: float) -> int:
        """Set a member's latest value and return its slot; a ``slot`` of
        None adds a new member to the level."""
        if slot is not None:
            self._values[level_id][slot] = value
            return slot
        values = self._values.get(level_id)
        if values is None:
            values = self._values[level_id] = []
            present = [lvl for lvl in self.config.levels if lvl.level_id in self._values]
            weight_sum = self._weight_sum = sum(lvl.weight for lvl in present)
            self._levels = [(lvl.level_id, self._values[lvl.level_id],
                             lvl.weight / weight_sum if weight_sum > 0 else 0.0)
                            for lvl in present]
        values.append(value)
        return len(values) - 1

    def means(self, start: float, samples: list) -> float | None:
        """Append each level's ``(level_id, start, mean)`` to ``samples``, in
        hierarchy order, and return the weighted mean; None while the levels'
        weights sum to 0, as they do before any member."""
        total = 0.0
        for level_id, values, weight in self._levels:
            mean = sum(values) / len(values)
            samples.append((level_id, start, mean))
            total += weight * mean
        return total if self._weight_sum > 0 else None
