"""sonsim: deterministic simulator for super-peer semantic overlay networks.

Builds a synthetic overlay of peers grouped under super-peers, routes queries
either by two-level semantic mapping or through decision-tree indices held by
knowledge nodes, and measures response time, precision and recall against an
exhaustive relevance oracle.
"""

__version__ = "0.1.0"

from .config import Config, ConfigError, substream
from .model import (
    Expertise,
    ExpertiseElement,
    Query,
    capacity,
    element,
    is_relevant,
    oracle_relevant_peers,
    relevant_mask,
)
from .netgen import Network, Peer, SuperPeer, build_son
from .baseline import (
    LogRecord,
    QueryLog,
    RoutingResult,
    generate_queries,
    route_baseline,
    run_baseline_epoch,
)
from .dtree import (
    Instance,
    Leaf,
    Node,
    arff_export,
    arff_import,
    build_tree,
    entropy,
    render_tree,
)
from .ksp import KspGroup, KspOverlay, form_groups, refresh_knowledge, route_kb, train_indices
from .engine import (
    ExperimentReport,
    QueryMetrics,
    score,
    sweep,
)
