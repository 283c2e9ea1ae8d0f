"""Run configuration: one JSON document combining hierarchy, detector, and run fields."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .detector import DetectorConfig
from .errors import ConfigError
from .hierarchy import HierarchyConfig, LevelConfig, default_hierarchy


@dataclass(frozen=True)
class RunConfig:
    hierarchy: HierarchyConfig
    detector: DetectorConfig
    baseline_path: str | None = None
    inputs: tuple[str, ...] = ()
    report_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))


def hierarchy_from_dict(obj: dict) -> HierarchyConfig:
    try:
        levels = tuple(
            LevelConfig(
                level_id=entry["level_id"],
                kind=entry["kind"],
                weight=entry["weight"],
                path_patterns=tuple(entry.get("path_patterns", ())),
            )
            for entry in obj["levels"]
        )
        normalize = obj.get("normalize", True)
        if not isinstance(normalize, bool):
            raise ValueError(f"normalize must be true or false, got {normalize!r}")
        return HierarchyConfig(levels, normalize=normalize)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid hierarchy config: {exc}") from exc


_DETECTOR_FIELDS = ("kl_threshold", "posterior_threshold", "convexity_run",
                    "window_seconds", "outlier_weight")


def detector_from_dict(obj: dict) -> DetectorConfig:
    try:
        kwargs = {k: obj[k] for k in _DETECTOR_FIELDS if k in obj}
        return DetectorConfig(**kwargs)
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
    return RunConfig(
        hierarchy=hierarchy,
        detector=detector,
        baseline_path=doc.get("baseline_path"),
        inputs=tuple(doc.get("inputs", ())),
        report_dir=doc.get("report_dir"),
    )
