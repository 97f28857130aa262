"""Merging redundant n-gram bursts into topics.

A burst defined by a long n-gram is generalized by a burst whose n-gram is a
contiguous subsequence of it and whose time interval contains its interval.
Bursts are traversed in descending order of n-gram length; each burst that
finds generalizations ahead of it is discarded as a standalone candidate.
Topics are the connected components of "found as generalizations of one
burst", kept in a union-find.

Generalizations are looked up, not scanned for: the bursts are indexed once
by lemma sequence, and a burst of length n asks the index for its at most
n(n+1)/2 distinct contiguous sub-sequences, keeping only the bursts later in
the traversal order whose interval contains its own.  Merging n bursts costs
O(n · n_max² · bucket) for n-grams of at most n_max lemmas (bucket: the
bursts sharing one lemma sequence), not a scan's n²/2 pairwise tests.

A topic is the tuple (n-gram set, start, end) plus bookkeeping: the member
bursts in (start, end, lemmas) order, the first giving the topic's start
and first n-gram, and per participating blog its earliest occurrence time.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass

from .bursts import Burst
from .config import PipelineConfig
from .ngrams import Ngram


@dataclass(frozen=True)
class Topic:
    topic_id: str
    ngrams: tuple[Ngram, ...]
    start: int
    end: int
    bursts: tuple[Burst, ...]
    participations: dict[str, int]


def _contiguous_subsequences(lemmas: tuple[str, ...]) -> set[tuple[str, ...]]:
    """Every distinct contiguous piece of lemmas, lemmas itself included."""
    n = len(lemmas)
    return {lemmas[a:b] for a in range(n) for b in range(a + 1, n + 1)}


def is_generalization(ga: Burst, gb: Burst) -> bool:
    """True iff gb generalizes ga: subsequence words, containing interval."""
    return (gb.ngram.lemmas in _contiguous_subsequences(ga.ngram.lemmas)
            and gb.start <= ga.start and gb.end >= ga.end)


def _participations(bursts: list[Burst]) -> dict[str, int]:
    first: dict[str, int] = {}
    for burst in bursts:
        for occ in burst.occurrences:
            prev = first.get(occ.blog_id)
            if prev is None or occ.timestamp < prev:
                first[occ.blog_id] = occ.timestamp
    return first


def merge_bursts(bursts: list[Burst],
                 keep_singletons: bool = PipelineConfig.keep_singletons
                 ) -> list[Topic]:
    """Collapse filtered bursts into topics.

    Bursts that are never generalized and never generalize anything become
    singleton topics only when keep_singletons is set; by default they are
    dropped, treating topics strictly as merge products.

    The candidates for a burst's generalizations are the later bursts (in
    the traversal order) whose lemma sequence is one of its contiguous
    sub-sequences, found through an index from lemma sequence to traversal
    positions; `is_generalization` then decides each candidate.
    """
    order = sorted(range(len(bursts)),
                   key=lambda i: (-len(bursts[i].ngram),
                                  bursts[i].ngram.lemmas, bursts[i].start))
    positions: dict[tuple[str, ...], list[int]] = defaultdict(list)
    for pos, i in enumerate(order):
        positions[bursts[i].ngram.lemmas].append(pos)
    parent: dict[int, int] = {}
    discarded: set[int] = set()

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for pos, i in enumerate(order):
        later: list[int] = []
        for sub in _contiguous_subsequences(bursts[i].ngram.lemmas):
            bucket = positions.get(sub, ())
            later.extend(bucket[bisect_right(bucket, pos):])
        found = [order[p] for p in sorted(later)
                 if is_generalization(bursts[i], bursts[order[p]])]
        if not found:
            continue
        discarded.add(i)
        for j in found:
            parent.setdefault(j, j)
            parent[root(j)] = root(found[0])

    components: dict[int, list[int]] = defaultdict(list)
    for i in parent:  # in the order found: by each component's first finder
        components[root(i)].append(i)
    groups = [sorted(idxs) for idxs in components.values()]
    if keep_singletons:
        groups += [[i] for i in range(len(bursts))
                   if i not in parent and i not in discarded]

    topics = []
    for idxs in groups:
        members = sorted((bursts[i] for i in idxs),
                         key=lambda b: (b.start, b.end, b.ngram.lemmas))
        topics.append((max(b.end for b in members), members))
    # Two topics can share this key (a case is in tests/test_topics.py); the
    # stable sort then keeps them in the order of their first finders.
    topics.sort(key=lambda t: (t[1][0].start, t[0], t[1][0].ngram.lemmas))
    return [Topic(f"T{seq:04d}", tuple(dict.fromkeys(b.ngram for b in ms)),
                  ms[0].start, end, tuple(ms), _participations(ms))
            for seq, (end, ms) in enumerate(topics, start=1)]
