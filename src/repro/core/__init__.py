"""The paper's primary contribution: the NPD-index and distributed querying.

Public entry points:

* :class:`DisksEngine` — partition a road network, build per-fragment
  NPD-indexes and answer SGKQ / RKQ / Q-class queries distributedly.
* :func:`sgkq`, :func:`rkq`, :class:`QClassQuery` — query constructors.
* :class:`NPDIndex`, :func:`build_npd_index` — the index itself, usable
  stand-alone.
"""

from repro.core.fragment import Fragment, build_fragments
from repro.core.npd import NPDIndex, DLNodePolicy
from repro.core.builder import NPDBuildConfig, build_npd_index, build_all_indexes
from repro.core.dfunction import SetOp, DFunction
from repro.core.queries import (
    CoverageTerm,
    KeywordSource,
    NodeSource,
    QClassQuery,
    sgkq,
    sgkq_extended,
    rkq,
)
from repro.core.coverage import FragmentRuntime, local_coverage
from repro.core.executor import FragmentTaskResult, execute_fragment_task
from repro.core.planner import QueryPlan, plan_query
from repro.core.engine import BatchReport, DisksEngine, EngineConfig, QueryReport
from repro.core.bilevel import BiLevelIndex
from repro.core.cost import theorem5_cost, unbalance_factor, makespan
from repro.core.topk import TopKQuery, TopKResult, execute_topk_task, merge_topk
from repro.core.maintenance import KeywordMaintainer, node_dl_contributions
from repro.core.language import QueryParseError, parse_query
from repro.core.report import DeploymentReport, FragmentReport, deployment_report
from repro.core.validate import validate_index

__all__ = [
    "Fragment",
    "build_fragments",
    "NPDIndex",
    "DLNodePolicy",
    "NPDBuildConfig",
    "build_npd_index",
    "build_all_indexes",
    "SetOp",
    "DFunction",
    "CoverageTerm",
    "KeywordSource",
    "NodeSource",
    "QClassQuery",
    "sgkq",
    "sgkq_extended",
    "rkq",
    "FragmentRuntime",
    "local_coverage",
    "FragmentTaskResult",
    "execute_fragment_task",
    "QueryPlan",
    "plan_query",
    "DisksEngine",
    "EngineConfig",
    "QueryReport",
    "BatchReport",
    "TopKQuery",
    "TopKResult",
    "execute_topk_task",
    "merge_topk",
    "KeywordMaintainer",
    "node_dl_contributions",
    "parse_query",
    "QueryParseError",
    "DeploymentReport",
    "FragmentReport",
    "deployment_report",
    "validate_index",
    "BiLevelIndex",
    "theorem5_cost",
    "unbalance_factor",
    "makespan",
]
