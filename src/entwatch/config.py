"""Run configuration: one JSON document holding a ``hierarchy`` and a ``detector``.

Which traces to read, the baseline and the report directory are command-line
arguments only, so each setting has one place.
"""

from __future__ import annotations

import json

from .detector import DetectorConfig
from .errors import ConfigError, shown
from .hierarchy import HierarchyConfig, LevelConfig, default_hierarchy

CONFIG_KEYS = ("hierarchy", "detector")


def hierarchy_from_dict(obj: dict) -> HierarchyConfig:
    """JSON keys are ``HierarchyConfig`` and ``LevelConfig`` fields; others are rejected."""
    try:
        levels = tuple(LevelConfig(**entry) for entry in obj["levels"])
        return HierarchyConfig(**{**obj, "levels": levels})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid hierarchy config: {exc}") from exc


def detector_from_dict(obj: dict) -> DetectorConfig:
    """JSON keys are ``DetectorConfig`` fields; others are rejected."""
    try:
        return DetectorConfig(**obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid detector config: {exc}") from exc


def load_run_config(path) -> tuple[HierarchyConfig, DetectorConfig]:
    """The hierarchy and detector a config file sets; a key it leaves out keeps its default."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting past the recursion limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = [key for key in doc if key not in CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"config {path} has unknown keys {shown(unknown)}; "
                          f"it holds only {', '.join(CONFIG_KEYS)}")

    hierarchy = hierarchy_from_dict(doc["hierarchy"]) if "hierarchy" in doc else default_hierarchy()
    return hierarchy, detector_from_dict(doc.get("detector", {}))
