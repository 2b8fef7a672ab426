"""Exact maximum-weight bipartite matching (Hungarian algorithm).

The Kuhn-Munkres algorithm with potentials, O(n^3).  Non-edges are padded
with weight 0, so the result is the maximum-weight (not necessarily perfect)
matching: zero-weight assignments are dropped from the output.  Used as the
exact reference for weighted experiments on bipartite instances (T5, T9).
"""

from __future__ import annotations

from ...graphs.graph import Graph, GraphError
from ..core import Matching

_INF = float("inf")


def max_weight_bipartite(graph: Graph) -> Matching:
    """Maximum-weight matching of a bipartite graph via Kuhn-Munkres.

    Minimizes ``-(weight)`` over perfect matchings of a zero-padded square
    matrix; because pads cost 0 and true weights are positive, this is
    exactly the maximum-weight matching with unmatched nodes allowed.
    """
    split = graph.bipartition()
    if split is None:
        raise GraphError("the Hungarian algorithm requires a bipartite graph")
    left, right = sorted(split[0]), sorted(split[1])
    n = max(len(left), len(right))
    if n == 0 or graph.num_edges == 0:
        return Matching()

    right_index = {v: j for j, v in enumerate(right)}
    cost = [[0.0] * n for _ in range(n)]
    for i, u in enumerate(left):
        for v in graph.neighbors(u):
            cost[i][right_index[v]] = -graph.weight(u, v)

    # classic 1-indexed formulation with row/column potentials
    u_pot = [0.0] * (n + 1)
    v_pot = [0.0] * (n + 1)
    p = [0] * (n + 1)    # p[j] = row matched to column j (0 = free)
    way = [0] * (n + 1)  # way[j] = previous column on the alternating path

    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [_INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = _INF
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u_pot[i0] - v_pot[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u_pot[p[j]] += delta
                    v_pot[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    result = Matching()
    for j in range(1, n + 1):
        i = p[j]
        if i == 0 or i - 1 >= len(left) or j - 1 >= len(right):
            continue
        u, v = left[i - 1], right[j - 1]
        if graph.has_edge(u, v):
            result.add(u, v)
    return result
