"""The unified declarative query API.

The paper's taxonomy of consensus queries -- each distance function paired
with an exact PTIME algorithm, an approximation, or an NP-hardness result
-- is exposed through three pieces:

* :class:`ConsensusQuery` (:data:`Query`) -- immutable, hashable query
  descriptions built fluently:
  ``Query.topk(k=10).distance("kendall").epsilon(0.01)``.
* :class:`Planner` -- inspects the target (model layout, size, sharding,
  backend) and the hardness map to choose the execution path: exact
  kernels for PTIME distances, the paper's approximations, or the batched
  Monte-Carlo engine with CI-driven sample sizing for NP-hard ones.
  :meth:`ExecutionPlan.explain` renders the choice, the paper result
  behind it, a cost estimate and the session artifacts it will reuse.
* :func:`connect` / :class:`Connection` -- one facade over local, sharded
  and served deployments; every query executes identically through any of
  them and returns a :class:`QueryAnswer` with provenance and timing.
"""

from repro.query.answers import PlanSummary, QueryAnswer
from repro.query.wire import (
    decode_value,
    encode_value,
    query_from_dict,
    query_to_dict,
)
from repro.query.calibration import host_fingerprint
from repro.query.builder import (
    FAMILIES,
    MODES,
    RANKING_SEMANTICS,
    STATISTICS,
    TOPK_DISTANCES,
    WORLD_DISTANCES,
    ConsensusQuery,
    Query,
)
from repro.query.compat import (
    LEGACY_KINDS,
    query_for_kind,
    required_max_rank,
)
from repro.query.connection import Connection, connect
from repro.query.plan import (
    ExecutionPlan,
    ExecutionResult,
    HardnessEntry,
    TargetProfile,
)
from repro.query.planner import (
    DEFAULT_PLANNER,
    HARDNESS_MAP,
    Planner,
    hardness_of,
    layout_of_tree,
    resolve_session,
)
from repro.query.results import (
    ResultCache,
    ResultCacheStats,
    answer_key,
    result_cache_for,
)

__all__ = [
    "ConsensusQuery",
    "Query",
    "QueryAnswer",
    "PlanSummary",
    "encode_value",
    "decode_value",
    "query_to_dict",
    "query_from_dict",
    "Connection",
    "connect",
    "Planner",
    "DEFAULT_PLANNER",
    "ExecutionPlan",
    "ExecutionResult",
    "HardnessEntry",
    "TargetProfile",
    "HARDNESS_MAP",
    "hardness_of",
    "layout_of_tree",
    "resolve_session",
    "ResultCache",
    "ResultCacheStats",
    "answer_key",
    "result_cache_for",
    "host_fingerprint",
    "LEGACY_KINDS",
    "query_for_kind",
    "required_max_rank",
    "FAMILIES",
    "MODES",
    "STATISTICS",
    "TOPK_DISTANCES",
    "WORLD_DISTANCES",
    "RANKING_SEMANTICS",
]
