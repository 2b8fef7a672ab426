"""Matching core: the Matching type, paths, conflict graphs, verification."""

from .conflict import ConflictGraph, build_conflict_graph
from .core import Matching, MatchingError, matching_from_edges
from .cover import greedy_vertex_cover, is_vertex_cover, koenig_cover
from .paths import (
    alternating_bfs,
    augment_all,
    canonical_path,
    enumerate_alternating_cycles,
    enumerate_augmenting_paths,
    maximal_disjoint_paths,
    paths_conflict,
    shortest_augmenting_path_length,
)
from .verify import (
    Certificate,
    certify,
    has_augmenting_path_shorter_than,
    is_maximal,
    verify_matching,
)

__all__ = [
    "ConflictGraph",
    "build_conflict_graph",
    "Matching",
    "MatchingError",
    "greedy_vertex_cover",
    "is_vertex_cover",
    "koenig_cover",
    "matching_from_edges",
    "alternating_bfs",
    "augment_all",
    "canonical_path",
    "enumerate_alternating_cycles",
    "enumerate_augmenting_paths",
    "maximal_disjoint_paths",
    "paths_conflict",
    "shortest_augmenting_path_length",
    "Certificate",
    "certify",
    "has_augmenting_path_shorter_than",
    "is_maximal",
    "verify_matching",
]
