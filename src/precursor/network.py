"""Blog citation graph and structural popularity metrics.

The graph is built from post-level citation links (self-links were already
dropped at ingest).  Its nodes are the corpus blogs and every cited blog,
so links kept to blogs outside the corpus (`keep_external_links`) add
nodes too.  In-degree counts distinct citing blogs; PageRank runs
on the binarized edge set with uniform teleport and uniform redistribution
of dangling mass.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig
from .corpus import Corpus


class NotConverged(RuntimeWarning):
    pass


@dataclass
class CitationGraph:
    nodes: tuple[str, ...]  # sorted ids of the corpus and cited blogs
    weights: Counter = field(default_factory=Counter)  # (src, dst) -> posts citing

    def edges(self) -> list[tuple[str, str, int]]:
        return [(s, d, c) for (s, d), c in sorted(self.weights.items())]


def build_graph(corpus: Corpus) -> CitationGraph:
    weights: Counter = Counter()
    for post in corpus.posts:
        for target in post.out_links:
            weights[(post.blog_id, target)] += 1
    cited = {target for _, target in weights}
    return CitationGraph(nodes=tuple(sorted(corpus.blogs | cited)),
                         weights=weights)


def in_degrees(graph: CitationGraph) -> dict[str, int]:
    """Per node, the number of distinct blogs linking to it at least once."""
    cited = Counter(dst for _, dst in graph.weights)  # a key per citing blog
    return {b: cited[b] for b in graph.nodes}


def pagerank(graph: CitationGraph, damping: float = PipelineConfig.damping,
             tol: float = 1e-10, max_iter: int = 200) -> dict[str, float]:
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
    edges = np.array([(index[s], index[d]) for s, d in sorted(graph.weights)],
                     np.int64).reshape(-1, 2)
    src, dst = edges[:, 0], edges[:, 1]
    out_degree = np.bincount(src, minlength=n)
    dangling = out_degree == 0

    rank = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for _ in range(max_iter):
        # np.add.at adds one share at a time in sorted edge order, and cumsum
        # sums the dangling mass node by node (np.sum is pairwise), so every
        # sum is taken in the order of a loop over the nodes
        nxt = np.full(n, teleport)
        share = damping * rank / np.maximum(out_degree, 1)
        np.add.at(nxt, dst, share[src])
        mass = np.cumsum(rank[dangling])[-1] if dangling.any() else 0.0
        nxt += damping * mass / n
        if np.abs(nxt - rank).sum() < tol:
            rank = nxt
            break
        rank = nxt
    else:
        warnings.warn(f"PageRank did not converge in {max_iter} iterations",
                      NotConverged)
    return {b: float(rank[index[b]]) for b in nodes}
