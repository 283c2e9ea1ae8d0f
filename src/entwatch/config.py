"""Run configuration: one JSON document combining hierarchy, detector, and run fields."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .detector import DetectorConfig
from .errors import ConfigError, checked
from .hierarchy import HierarchyConfig, LevelConfig, default_hierarchy


@dataclass(frozen=True)
class RunConfig:
    hierarchy: HierarchyConfig
    detector: DetectorConfig
    baseline_path: str | None = None
    inputs: tuple[str, ...] = ()
    report_dir: str | None = None

    def __post_init__(self):
        checked(self.baseline_path, "baseline_path", str, optional=True)
        checked(self.report_dir, "report_dir", str, optional=True)
        object.__setattr__(self, "inputs", checked(self.inputs, "inputs", (str,)))


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


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")

    hierarchy = hierarchy_from_dict(doc["hierarchy"]) if "hierarchy" in doc else default_hierarchy()
    detector = detector_from_dict(doc.get("detector", {}))
    try:
        return RunConfig(**{**doc, "hierarchy": hierarchy, "detector": detector})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc
