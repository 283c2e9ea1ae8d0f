"""Weighted level structure: routing sources to levels and aggregating entropy.

A hierarchy is a fixed, ordered list of levels (filesystem, process, network)
with non-negative weights. Source paths are routed to the first level whose
glob pattern matches (fnmatch semantics, ``*`` crosses path separators);
unmatched sources fall back to the first filesystem level. The config is
immutable after construction and safe to share; each LevelState has a single
writer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Mapping, Sequence

from .entropy import EntropySeries, WindowConfig
from .errors import EmptyLevel, MissingLevelValue, NoLevels

LEVEL_KINDS = ("filesystem", "process", "network")


@dataclass(frozen=True)
class LevelConfig:
    level_id: str
    kind: str
    weight: float
    path_patterns: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in LEVEL_KINDS:
            raise ValueError(f"unknown level kind {self.kind!r}, expected one of {LEVEL_KINDS}")
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ValueError(f"level weight must be finite and non-negative, got {self.weight}")
        object.__setattr__(self, "path_patterns", tuple(self.path_patterns))


@dataclass(frozen=True)
class HierarchyConfig:
    levels: tuple[LevelConfig, ...]
    normalize: bool = True

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        ids = [lvl.level_id for lvl in self.levels]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate level ids in hierarchy: {ids}")

    def effective_weights(self) -> dict[str, float]:
        """Raw weights, or weights scaled to sum to 1 when normalize is set."""
        if not self.levels:
            raise NoLevels("hierarchy has no levels")
        raw = {lvl.level_id: lvl.weight for lvl in self.levels}
        if not self.normalize:
            return raw
        total = sum(raw.values())
        if total <= 0:
            raise ValueError("cannot normalize a hierarchy whose weights sum to 0")
        return {k: w / total for k, w in raw.items()}

    def subset(self, level_ids) -> "HierarchyConfig":
        """Hierarchy restricted to the given levels, declaration order kept."""
        keep = set(level_ids)
        return HierarchyConfig(
            tuple(lvl for lvl in self.levels if lvl.level_id in keep),
            normalize=self.normalize,
        )


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
        normalize=True,
    )


@dataclass
class LevelState:
    """Live aggregate entropy series for one level."""

    level_id: str
    series: EntropySeries
    source_count: int = 0

    def __post_init__(self):
        if self.series.level_id != self.level_id:
            raise ValueError(
                f"series level {self.series.level_id!r} does not match state level {self.level_id!r}"
            )

    @classmethod
    def create(cls, level_id: str, window: WindowConfig | None = None) -> "LevelState":
        return cls(level_id, EntropySeries(f"level:{level_id}", level_id, window))


def route_source(config: HierarchyConfig, source_path: str) -> str:
    """Id of the first level whose pattern matches, else the default level.

    The default is the first filesystem level (first level overall when no
    filesystem level exists). Declaration order breaks ties.
    """
    if not config.levels:
        raise NoLevels("cannot route on an empty hierarchy")
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


def level_entropy(state: LevelState, member_entropies: Sequence[float],
                  timestamp: float | None = None) -> float:
    """Mean of the current member-source entropies, appended to the level series.

    When ``timestamp`` is omitted the sample lands one nominal interval after
    the latest one (or at 0 for an empty series).
    """
    members = list(member_entropies)
    if not members:
        raise EmptyLevel(f"level {state.level_id!r} has no member entropies")
    value = sum(members) / len(members)
    if timestamp is None:
        samples = state.series.samples
        timestamp = samples[-1].timestamp + state.series.window.dt if samples else 0.0
    state.series.append(timestamp, value)
    state.source_count = len(members)
    return value


def aggregate_entropy(config: HierarchyConfig, level_values: Mapping[str, float]) -> float:
    """Weighted sum of per-level entropies using effective weights."""
    weights = config.effective_weights()
    total = 0.0
    for lvl in config.levels:
        if lvl.level_id not in level_values:
            raise MissingLevelValue(f"no entropy value supplied for level {lvl.level_id!r}")
        total += weights[lvl.level_id] * level_values[lvl.level_id]
    return total
