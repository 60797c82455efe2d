"""The paper's social networks (Section VII.B).

Two datasets:

* **Zachary's karate club** [Zachary 1977] — the classic 34-node,
  78-edge friendship network, taken verbatim from
  :func:`networkx.karate_club_graph` (identical to the paper's).

* **A dolphins-like network** — the paper uses Lusseau's 62-node,
  159-edge dolphin social network, which is not distributable offline.
  As documented in DESIGN.md, we substitute a *fixed-seed synthetic
  network with the same shape*: 62 nodes, exactly 159 edges, two
  communities (the real network famously splits in two), built with a
  stochastic block model and patched to the exact edge count.  What drives
  the paper's Fig. 9 is the motif structure and the edge-probability
  profile, both of which are preserved.

Edge probabilities model "degree of belief in friendship": drawn from a
seeded uniform range — high confidence (``(0.5, 0.99)``) for the dolphin
network ("very credible for dolphins"), a wider range for the karate club
("varying degrees of friendship").
"""

from __future__ import annotations

import itertools
import random
from typing import List, Optional, Tuple

from .graphs import ProbabilisticGraph, graph_from_edges

__all__ = [
    "karate_club_network",
    "dolphins_like_network",
    "SOCIAL_NETWORKS",
]


def _attach_probabilities(
    edges: List[Tuple[int, int]],
    probability_range: Tuple[float, float],
    seed: int,
) -> List[Tuple[int, int, float]]:
    rng = random.Random(seed)
    low, high = probability_range
    return [(u, v, rng.uniform(low, high)) for (u, v) in sorted(edges)]


def karate_club_network(
    *,
    probability_range: Tuple[float, float] = (0.3, 0.95),
    seed: int = 34,
) -> ProbabilisticGraph:
    """Zachary's karate club with seeded per-edge belief probabilities."""
    # Imported here: networkx is large, and only this dataset needs it.
    import networkx as nx

    graph = nx.karate_club_graph()
    edges = [(min(u, v), max(u, v)) for u, v in graph.edges()]
    return graph_from_edges(
        _attach_probabilities(edges, probability_range, seed)
    )


def dolphins_like_network(
    *,
    probability_range: Tuple[float, float] = (0.5, 0.99),
    seed: int = 62,
) -> ProbabilisticGraph:
    """A 62-node / 159-edge two-community stand-in for the dolphin network.

    Built deterministically: a stochastic block model with two communities
    of 31 nodes (dense inside, sparse across), then edges are added or
    removed — preferring high-degree nodes, as in the real network's hubs
    — until exactly 159 edges remain.
    """
    rng = random.Random(seed)
    node_count, target_edges = 62, 159
    half = node_count // 2
    blocks = [range(0, half), range(half, node_count)]

    edges = set()
    # Dense-ish intra-community edges, sparse inter-community bridges.
    for block in blocks:
        for u, v in itertools.combinations(block, 2):
            if rng.random() < 0.105:
                edges.add((u, v))
    for u in blocks[0]:
        for v in blocks[1]:
            if rng.random() < 0.004:
                edges.add((u, v))

    # Patch to the exact edge count, keeping the graph connected-ish by
    # preferring to attach isolated/low-degree nodes first.
    def degree_map() -> dict:
        degrees = {node: 0 for node in range(node_count)}
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        return degrees

    while len(edges) < target_edges:
        degrees = degree_map()
        u = min(range(node_count), key=lambda n: (degrees[n], n))
        community = range(0, half) if u < half else range(half, node_count)
        candidates = [
            v
            for v in community
            if v != u and (min(u, v), max(u, v)) not in edges
        ]
        if not candidates:
            candidates = [
                v
                for v in range(node_count)
                if v != u and (min(u, v), max(u, v)) not in edges
            ]
        v = rng.choice(candidates)
        edges.add((min(u, v), max(u, v)))
    while len(edges) > target_edges:
        degrees = degree_map()
        # Drop an edge between two high-degree nodes (safest removal).
        u, v = max(
            edges, key=lambda edge: (degrees[edge[0]] + degrees[edge[1]], edge)
        )
        edges.remove((u, v))

    return graph_from_edges(
        _attach_probabilities(sorted(edges), probability_range, seed)
    )


#: Name → constructor, as used by the Fig. 9 benchmark.
SOCIAL_NETWORKS = {
    "karate": karate_club_network,
    "dolphins": dolphins_like_network,
}
