"""Convenience re-exports of the primary public API.

``repro.core`` is the single import most downstream users need: the
explainer, its configuration, the block/feature types it consumes and the
cost models shipped with the reproduction.
"""

from repro.bb.block import BasicBlock, BlockCategory
from repro.cache.fingerprint import result_fingerprint
from repro.cache.store import CacheStats, ResultCache, TierStats
from repro.bb.features import (
    DependencyFeature,
    Feature,
    FeatureKind,
    InstructionFeature,
    NumInstructionsFeature,
    extract_features,
)
from repro.explain.config import ExplainerConfig
from repro.explain.explainer import CometExplainer, explain_block
from repro.explain.explanation import Explanation
from repro.models.analytical import AnalyticalCostModel, ground_truth_explanations
from repro.models.base import CachedCostModel, CostModel
from repro.models.ithemal import IthemalConfig, IthemalCostModel, train_ithemal
from repro.models.uica import UiCACostModel
from repro.perturb.config import PerturbationConfig
from repro.runtime.backend import (
    BackendRetryPolicy,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    resolve_backend,
)
from repro.runtime.pool import PoolStats, SessionPool
from repro.runtime.session import ExplanationSession, SessionStats
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.core import (
    ExplanationRequest,
    ExplanationService,
    RequestStatus,
    ServiceResult,
    ServiceStats,
)
from repro.service.router import HashRing, Router, route_stream, routing_key
from repro.service.scheduler import Scheduler, SchedulerStats
from repro.service.transport import SocketServer
from repro.utils.cancellation import CancelToken
from repro.utils.errors import (
    CacheError,
    CheckpointError,
    DeadlineExceededError,
    RequestCancelledError,
    ServiceTimeoutError,
)

__all__ = [
    "BasicBlock",
    "BlockCategory",
    "Feature",
    "FeatureKind",
    "InstructionFeature",
    "DependencyFeature",
    "NumInstructionsFeature",
    "extract_features",
    "ExplainerConfig",
    "CometExplainer",
    "explain_block",
    "Explanation",
    "AnalyticalCostModel",
    "ground_truth_explanations",
    "CostModel",
    "CachedCostModel",
    "IthemalCostModel",
    "IthemalConfig",
    "train_ithemal",
    "UiCACostModel",
    "PerturbationConfig",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "BackendRetryPolicy",
    "resolve_backend",
    "ExplanationSession",
    "SessionStats",
    "CheckpointError",
    "CancelToken",
    "ServiceTimeoutError",
    "RequestCancelledError",
    "DeadlineExceededError",
    "RetryPolicy",
    "ExplanationService",
    "ExplanationRequest",
    "ServiceResult",
    "ServiceStats",
    "RequestStatus",
    "ServiceClient",
    "SocketServer",
    "Scheduler",
    "SchedulerStats",
    "SessionPool",
    "PoolStats",
    "ResultCache",
    "CacheStats",
    "TierStats",
    "CacheError",
    "result_fingerprint",
    "HashRing",
    "Router",
    "route_stream",
    "routing_key",
]
