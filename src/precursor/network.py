"""Blog citation graph and structural popularity metrics.

The graph is built from post-level citation links (self-links were already
dropped at ingest).  In-degree counts distinct citing blogs; PageRank runs
on the binarized edge set with uniform teleport and uniform redistribution
of dangling mass.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus

DAMPING = 0.85
PR_TOL = 1e-10
PR_MAX_ITER = 200


class NotConverged(RuntimeWarning):
    pass


@dataclass
class CitationGraph:
    nodes: tuple[str, ...]  # sorted blog ids
    weights: Counter = field(default_factory=Counter)  # (src, dst) -> posts citing

    def edges(self) -> list[tuple[str, str, int]]:
        return [(s, d, c) for (s, d), c in sorted(self.weights.items())]


def build_graph(corpus: Corpus) -> CitationGraph:
    weights: Counter = Counter()
    for post in corpus.posts:
        for target in post.out_links:
            weights[(post.blog_id, target)] += 1
    return CitationGraph(nodes=tuple(sorted(corpus.blogs)), weights=weights)


def in_degree(graph: CitationGraph, blog: str) -> int:
    """Number of distinct blogs linking to `blog` at least once."""
    return len({src for (src, dst) in graph.weights if dst == blog})


def in_degrees(graph: CitationGraph) -> dict[str, int]:
    incoming: dict[str, set[str]] = {b: set() for b in graph.nodes}
    for (src, dst) in graph.weights:
        if dst in incoming:
            incoming[dst].add(src)
    return {b: len(srcs) for b, srcs in incoming.items()}


def pagerank(graph: CitationGraph, damping: float = DAMPING,
             tol: float = PR_TOL, max_iter: int = PR_MAX_ITER) -> dict[str, float]:
    """Power-iteration PageRank on the binarized citation graph.

    Converged when the L1 change drops below tol; otherwise a NotConverged
    warning is emitted and the last iterate is returned.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must lie in (0, 1)")
    nodes = graph.nodes
    n = len(nodes)
    if n == 0:
        return {}
    index = {b: i for i, b in enumerate(nodes)}
    out_neighbors: list[list[int]] = [[] for _ in range(n)]
    for (src, dst) in sorted(graph.weights):
        out_neighbors[index[src]].append(index[dst])

    rank = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for _ in range(max_iter):
        nxt = np.full(n, teleport)
        dangling = 0.0
        for i, targets in enumerate(out_neighbors):
            if targets:
                share = damping * rank[i] / len(targets)
                for j in targets:
                    nxt[j] += share
            else:
                dangling += rank[i]
        nxt += damping * dangling / n
        if np.abs(nxt - rank).sum() < tol:
            rank = nxt
            break
        rank = nxt
    else:
        warnings.warn(f"PageRank did not converge in {max_iter} iterations",
                      NotConverged)
    return {b: float(rank[index[b]]) for b in nodes}
