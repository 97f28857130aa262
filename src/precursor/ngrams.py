"""Candidate n-gram enumeration and the per-n-gram occurrence index.

An n-gram is a contiguous window of 2..max_len lemmas taken inside one
punctuation-delimited chunk after discarding every token that is not a noun,
verb, adjective or number (the surviving tokens become adjacent).  A window
is kept only if it contains at least one noun and none of its lemmas is a
stop word.  Each post contributes at most one occurrence per n-gram.

An n-gram's identity is its lemma tuple: two windows with the same lemmas
and different part-of-speech tags are one n-gram.  The index maps every
n-gram with two or more retained occurrences and at least `min_blogs`
distinct blogs to its time-ordered occurrence list, with runs of
consecutive same-blog occurrences collapsed to the earliest one, so that a
burst can only be sustained by several blogs.  These are exactly the
n-grams the bursts stage can keep a burst of.

Windows are arrays, not objects (`_Windows`):

- The tokens of every post, title then body, are laid end to end once.
  Each token object gets a code, and its lemma, chunk value, tag and
  stop-word status are read once per distinct object (the loader shares
  one `Token` per distinct token, so there are few).
- A segment, one chunk value inside one title or body, starts where a
  token's chunk value differs from its neighbour's or a title or body
  begins.  Chunk values are only compared, never cast, so any integers
  work.
- Only content tokens are kept, and a window is named by the content
  position it starts at and its length.  The windows of length L are those
  of length L-1 grown by the next token, when that token is in the same
  segment and is not a stop word.  Each gets the dense rank of (its rank at
  length L-1, the next lemma), so equal ranks mean equal lemma tuples.
- Cost: one stable sort per length, over at most one window per content
  token.  Enumeration stops at the first length with no valid window,
  since every valid window holds a valid window one token shorter.

After the sort, the windows of one n-gram are adjacent and in corpus
order.  So the first of them is its first-seen window, whose words (lemma
and tag pairs) the n-gram carries: the first post in corpus order with the
lemma tuple, and in that post the window that starts first.  The
occurrence list keeps each window whose blog differs from the previous
window's, which drops a post's second window of an n-gram and collapses
same-blog runs in one pass.  One sort of (n-gram, blog) codes counts each
n-gram's distinct blogs.  `Ngram` objects and occurrence lists are built
only for the n-grams kept.

This relies on the `Corpus` order invariant: posts are sorted by
(timestamp, post_id), so corpus order is occurrence order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from itertools import chain, count
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .config import PipelineConfig
from .corpus import CONTENT_POS, Corpus, Pos, Post


@dataclass(frozen=True, slots=True)
class Ngram:
    """Word sequence; equality and hashing use the lemma sequence only,
    which is built once, with the n-gram."""

    words: tuple[tuple[str, Pos], ...] = field(compare=False)
    lemmas: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lemmas", tuple([w[0] for w in self.words]))

    def __len__(self) -> int:
        return len(self.words)


class Occurrence(NamedTuple):
    timestamp: int
    blog_id: str
    post_id: str


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stop-word file: one lowercase lemma per line, '#' comments."""
    words = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                words.add(line.lower())
    return frozenset(words)


def default_stopwords() -> frozenset[str]:
    """The packaged stop-word list."""
    with resources.as_file(resources.files("precursor").joinpath(
            "data/stopwords_default.txt")) as path:
        return load_stopwords(path)


class _Windows:
    """The windows of some posts, as arrays over their content tokens in
    corpus order (title, then body, of each post)."""

    def __init__(self, posts: tuple[Post, ...], max_len: int,
                 stopwords: frozenset[str]):
        self.max_len = max_len
        streams = [s for p in posts for s in (p.title_tokens, p.body_tokens)]
        sizes = np.fromiter(map(len, streams), np.int64, count=len(streams))
        flat = list(chain.from_iterable(streams))
        n = len(flat)
        # each token object's code is the position of its first occurrence,
        # then its rank among the distinct objects
        first: dict[int, int] = {}
        code = np.fromiter(map(first.setdefault, map(id, flat), count()),
                           np.int64, count=n)
        tokens = [flat[i] for i in first.values()]
        k = len(tokens)
        dense = np.zeros(n, np.int64)
        dense[np.fromiter(first.values(), np.int64, count=k)] = np.arange(k)
        code = dense[code]

        def per_token(values, dtype=np.int64) -> np.ndarray:
            # one value per distinct token, read at every position
            return np.fromiter(values, dtype, count=k)[code]

        # equal lemmas, and equal chunk values, share the code of the first
        # distinct token that has them
        lemmas: dict[str, int] = {}
        chunks: dict = {}
        lemma = per_token(map(lemmas.setdefault, [t.lemma for t in tokens],
                              count()))
        chunk = per_token(map(chunks.setdefault, [t.chunk for t in tokens],
                              count()))
        content = per_token((t.pos in CONTENT_POS for t in tokens), bool)
        new_segment = np.ones(n, bool)
        new_segment[1:] = chunk[1:] != chunk[:-1]
        offsets = np.cumsum(sizes) - sizes
        new_segment[offsets[offsets < n]] = True
        self.segment = np.cumsum(new_segment)[content]
        self.lemma = lemma[content]
        self.noun = per_token((t.pos is Pos.NOUN for t in tokens), bool)[content]
        self.stop = per_token((t.lemma in stopwords for t in tokens),
                              bool)[content]
        self.post = np.repeat(np.arange(len(posts)),
                              sizes[0::2] + sizes[1::2])[content]
        self.code = code[content]
        self.words = [(t.lemma, t.pos) for t in tokens]
        self.radix = max(k, 1)  # lemma codes are below it

    def by_length(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """For each length L from 2: the start of every valid window of
        length L and its rank (equal ranks, equal lemma tuples), ordered by
        rank and, within a rank, by start."""
        n, segment, stop, noun = (len(self.lemma), self.segment, self.stop,
                                  self.noun)
        start = np.flatnonzero(~stop)
        rank, has_noun = self.lemma[start], noun[start]
        for length in range(2, self.max_len + 1):
            end = start + (length - 1)
            grows = end < n
            grows[grows] = ((segment[end[grows]] == segment[start[grows]])
                            & ~stop[end[grows]])
            start, end = start[grows], end[grows]
            has_noun = has_noun[grows] | noun[end]
            key = rank[grows] * self.radix + self.lemma[end]
            order = np.argsort(key, kind="stable")
            rank = np.empty_like(key)
            rank[order] = np.cumsum(run_heads(key[order])) - 1
            valid = order[has_noun[order]]
            if not len(valid):
                return
            yield length, start[valid], rank[valid]

    def ngrams(self, starts: np.ndarray, length: int) -> list[Ngram]:
        """The n-grams of the windows of one length at these starts."""
        rows = self.code[starts[:, None] + np.arange(length)].tolist()
        word = self.words.__getitem__
        return [Ngram(tuple(map(word, row))) for row in rows]


def run_heads(values: np.ndarray) -> np.ndarray:
    """True where a run of equal values starts."""
    head = np.ones(len(values), bool)
    head[1:] = values[1:] != values[:-1]
    return head


def build_index(corpus: Corpus, max_len: int = PipelineConfig.max_ngram_len,
                stopwords: frozenset[str] | None = None,
                min_blogs: int = PipelineConfig.min_blogs
                ) -> dict[Ngram, list[Occurrence]]:
    """Time-ordered occurrence lists per n-gram of 2..max_len lemmas, none
    of them in `stopwords` (the packaged list when None).

    Occurrences are sorted by (timestamp, post_id); a single left-to-right
    pass then drops any occurrence whose blog equals the previous retained
    occurrence's blog, keeping the earliest of each same-blog run.  An
    n-gram is kept only with two or more retained occurrences and
    `min_blogs` or more distinct blogs: a burst's blogs are a subset of its
    n-gram's, so no other n-gram can yield a burst that the filters keep.
    Each n-gram keeps the words of its first-seen window, and the index
    lists the n-grams in lemma order, the order `write_index_artifact`
    writes them in.
    """
    if stopwords is None:
        stopwords = default_stopwords()
    posts = corpus.posts
    windows = _Windows(posts, max_len, stopwords)
    # a blog's code is the position of its first post, so below the radix
    blogs: dict[str, int] = {}
    blog_of = np.fromiter(map(blogs.setdefault, [p.blog_id for p in posts],
                              count()), np.int64, count=len(posts))
    radix = len(posts)
    occurrence = [Occurrence(p.timestamp, p.blog_id, p.post_id) for p in posts]
    ngrams, occurrences = [], []
    for length, starts, rank in windows.by_length():
        post = windows.post[starts]
        head = run_heads(rank)
        group = np.cumsum(head) - 1
        # a window whose blog is the previous window's is a second window
        # of one post or a later post of one same-blog run
        blog = blog_of[post]
        kept = head.copy()
        kept[1:] |= blog[1:] != blog[:-1]
        sizes = np.bincount(group[kept])
        # distinct blogs per n-gram, from the run heads of its sorted
        # (n-gram, blog) codes; only n-grams with as many occurrences count
        many = sizes >= max(min_blogs, 2)
        pairs = kept & many[group]
        codes = np.sort(group[pairs] * radix + blog[pairs])
        many &= np.bincount(codes[run_heads(codes)] // radix,
                            minlength=len(sizes)) >= min_blogs
        kept &= many[group]
        ngrams += windows.ngrams(starts[head][many], length)
        occs = [occurrence[p] for p in post[kept].tolist()]
        ends = np.cumsum(sizes[many]).tolist()
        occurrences += [occs[lo:hi] for lo, hi in zip([0] + ends, ends)]
    return dict(sorted(zip(ngrams, occurrences),
                       key=lambda item: item[0].lemmas))
