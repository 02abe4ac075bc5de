"""Streaming evaluation of online process-outcome classifiers.

Replays labeled event logs as streams, continuously evaluates per-prefix
models over moving windows of completed cases, and quantifies performance
stability through drop frequency, volatility, drop magnitude, and recovery
rate, plus a scenario-based ranking of competing configurations.
"""

from .advisor import SCENARIO_PROFILES, ConfigSummary, ScenarioProfile, pool_summaries, rank
from .classifiers import (
    DecisionTree,
    IncrementalNaiveBayes,
    LearnerParams,
    StaticModel,
    UpdatePolicy,
    WindowRetrainModel,
)
from .errors import (
    ConfigError,
    EmptyLogError,
    LogFormatError,
    LogValueError,
    NotReadyError,
    SettingError,
    StabilityMeterError,
)
from .evaluation import (
    METRICS,
    PerformanceSeries,
    ResolvedPair,
    RunResult,
    metrics_from_confusion,
    run_stream,
)
from .event_model import EventLog, parse_log
from .prefixing import (
    MISSING_CODE,
    BucketConfig,
    default_k_max,
    encode,
)
from .stability import (
    MetaMeasures,
    MovingStats,
    SeriesAnnotation,
    SignificantDrop,
    annotate_series,
    detect_drops,
    drop_mask,
    meta_measures,
    moving_stats,
)
from .synthgen import DriftLogSpec, case_regime, generate, oracle_label

__version__ = "0.1.0"
