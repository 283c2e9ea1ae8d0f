"""Run configuration: one JSON document holding a ``hierarchy`` and a ``detector``.

Which traces to read, the baseline and the report directory are command-line
arguments only, so each setting has one place.
"""

from __future__ import annotations

import json

from .detector import DetectorConfig
from .errors import ConfigError, opened, shown
from .hierarchy import HierarchyConfig, LevelConfig, default_hierarchy

CONFIG_KEYS = ("hierarchy", "detector")


def load_run_config(path) -> tuple[HierarchyConfig, DetectorConfig]:
    """The hierarchy and detector a config file sets; a key it leaves out keeps its default."""
    try:
        with opened(path, "r", f"cannot read config {path}", ConfigError, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting past the recursion limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = [key for key in doc if key not in CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"config {path} has unknown keys {shown(unknown)}; "
                          f"it holds only {', '.join(CONFIG_KEYS)}")

    # Hierarchy keys are ``HierarchyConfig`` and ``LevelConfig`` fields; others
    # are rejected, as a TypeError, and a missing ``levels`` is a KeyError.
    try:
        if "hierarchy" in doc:
            obj = doc["hierarchy"]
            levels = tuple(LevelConfig(**entry) for entry in obj["levels"])
            hierarchy = HierarchyConfig(**{**obj, "levels": levels})
        else:
            hierarchy = default_hierarchy()
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config {path}: invalid hierarchy config: {exc}") from exc
    try:
        return hierarchy, DetectorConfig(**doc.get("detector", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config {path}: invalid detector config: {exc}") from exc
