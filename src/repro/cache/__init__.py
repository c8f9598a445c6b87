"""Persistent tiered memoization of whole explanations.

An explanation is a pure function of *(block, model, uarch, config, seed)*;
this package turns that purity into an operable cache: a canonical
:func:`result_fingerprint` identity, and a :class:`ResultCache` that layers
an in-process LRU (tier 0) over an append-only, crash-tolerant on-disk log
(tier 1) shared safely between processes.  Sessions and the explanation
service wire it into ``explain``/``explain_many`` and the fused batching
tick, and checkpointed ``explain_many`` runs keep their progress in a store
of their own; a torn record costs a recompute, and a corrupt entry or
foreign file is refused with :class:`~repro.utils.errors.CacheError`,
never silently served.
"""

from repro.cache.fingerprint import CACHE_VERSION, cacheable_seed, result_fingerprint
from repro.cache.store import (
    RECORD_MAGIC,
    STORE_MAGIC,
    CacheStats,
    ResultCache,
    TierStats,
    resolve_result_cache,
)
from repro.utils.errors import CacheError

__all__ = [
    "CACHE_VERSION",
    "CacheError",
    "CacheStats",
    "RECORD_MAGIC",
    "ResultCache",
    "STORE_MAGIC",
    "TierStats",
    "cacheable_seed",
    "resolve_result_cache",
    "result_fingerprint",
]
