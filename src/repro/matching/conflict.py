"""The conflict graph of augmenting paths (Definition 3.1).

Nodes of ``C_M(ell)`` are the augmenting paths w.r.t. ``M`` of length at most
``ell``; two nodes are adjacent iff their paths share a physical node.  The
paper's generic algorithm (Algorithm 1) computes an MIS of this graph; its
Algorithm 2 builds it by flooding local views and assigning each path to the
endpoint with the smaller identifier as *leader*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from ..graphs.graph import Graph
from .core import Matching
from .paths import Path, enumerate_augmenting_paths


@dataclass
class ConflictGraph:
    """An explicit conflict graph ``C_M(ell)``.

    ``paths[i]`` is the augmenting path represented by conflict-graph node
    ``i``; ``adjacency[i]`` lists the conflict-graph neighbors of ``i``;
    ``leader[i]`` is the physical node that owns path ``i`` (its endpoint of
    smaller id, per Algorithm 2 step 3).
    """

    ell: int
    paths: List[Path]
    adjacency: List[List[int]]
    leader: List[int]
    _by_phys_node: Dict[int, List[int]] = field(default_factory=dict, repr=False)

    @classmethod
    def from_paths(cls, paths: List[Path], ell: int) -> "ConflictGraph":
        """The conflict graph whose nodes are ``paths``, in order.

        Two paths are adjacent iff they share a physical node; each path's
        leader is its endpoint of smaller id.
        """
        by_phys: Dict[int, List[int]] = {}
        for i, p in enumerate(paths):
            for v in p:
                by_phys.setdefault(v, []).append(i)
        adjacency: List[Set[int]] = [set() for _ in paths]
        for members in by_phys.values():
            for a in members:
                for b in members:
                    if a != b:
                        adjacency[a].add(b)
        return cls(
            ell=ell,
            paths=paths,
            adjacency=[sorted(s) for s in adjacency],
            leader=[min(p[0], p[-1]) for p in paths],
            _by_phys_node=by_phys,
        )

    @property
    def num_nodes(self) -> int:
        return len(self.paths)

    def paths_through(self, phys_node: int) -> List[int]:
        """Conflict-graph nodes whose paths traverse the physical node."""
        return self._by_phys_node.get(phys_node, [])

    def as_graph(self) -> Graph:
        """The conflict graph as a plain :class:`Graph` (for running MIS)."""
        g = Graph()
        g.add_nodes(range(self.num_nodes))
        for i, nbrs in enumerate(self.adjacency):
            for j in nbrs:
                if i < j:
                    g.add_edge(i, j)
        return g

    def independent(self, selection: Sequence[int]) -> bool:
        """Check that the selected conflict-graph nodes are independent."""
        chosen = set(selection)
        return all(chosen.isdisjoint(self.adjacency[i]) for i in chosen)


def build_conflict_graph(graph: Graph, matching: Matching, ell: int) -> ConflictGraph:
    """Construct ``C_M(ell)`` explicitly (Definition 3.1).

    This is the reference construction used by the LOCAL-model algorithms and
    by tests; it is exponential in ``ell`` in the worst case, exactly like
    the local views the paper's Algorithm 2 floods.
    """
    return ConflictGraph.from_paths(
        enumerate_augmenting_paths(graph, matching, ell), ell)
