"""entwatch: multi-level entropy-disruption detection for encryption-like behavior."""

from .baseline import (
    BaselineProfile,
    empirical_distribution,
    fit_baseline,
    load_profile,
    save_profile,
)
from .clustering import Dendrogram, FeatureVector, OutlierReport, agglomerate, outliers
from .detector import (
    Alert,
    DetectorConfig,
    Verdict,
    convexity_signal,
    fuse_and_decide,
    likelihood_ratio,
    posterior,
)
from .entropy import (
    BinnedDistribution,
    ByteHistogram,
    histogram_from_bytes,
    kl_divergence,
    second_difference,
    shannon_entropy,
)
from .hierarchy import (
    HierarchyConfig,
    LevelConfig,
    aggregate_entropy,
    default_hierarchy,
    level_entropy,
    route_source,
)
from .metrics import MetricsReport, PerTraceRow, compute_metrics
from .pipeline import TraceProcessor, TraceResult, collect_trace_deviations, fit_attack_model
from .simulate import ScenarioSpec, simulate_scenario
from .traces import EventRecord, Trace, TraceMeta, read_trace, scan_directory, write_trace

__version__ = "0.1.0"
