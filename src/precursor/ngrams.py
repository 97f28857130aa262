"""Candidate n-gram enumeration and the per-n-gram occurrence index.

An n-gram is a contiguous window of 2..max_len lemmas taken inside one
punctuation-delimited chunk after discarding every token that is not a noun,
verb, adjective or number (the surviving tokens become adjacent).  A window
is kept only if it contains at least one noun and none of its lemmas is a
stop word.  Each post contributes at most one occurrence per n-gram.

An n-gram's identity is its lemma tuple: two windows with the same lemmas
and different part-of-speech tags are one n-gram.  The occurrence index is
built in a table keyed by that tuple, so a window costs tuple slices and
dict lookups, and an `Ngram` is built only for an n-gram that is kept.  The
words (lemma and tag pairs) an n-gram carries are those of its first-seen
window: the first post in corpus order that has the lemma tuple, and in
that post the first window in enumeration order (title chunks, then body
chunks; start, then end position).

The index maps every surviving n-gram to its time-ordered occurrence list,
with runs of consecutive same-blog occurrences collapsed to the earliest
one, so that a burst can only be sustained by several blogs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, NamedTuple

from .corpus import CONTENT_POS, Corpus, Pos, Post, collector_paused


@dataclass(frozen=True, eq=False, slots=True)
class Ngram:
    """Word sequence; equality and hashing use the lemma sequence only,
    which is built once, with the n-gram."""

    words: tuple[tuple[str, Pos], ...]
    lemmas: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lemmas", tuple([w[0] for w in self.words]))

    def __len__(self) -> int:
        return len(self.words)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ngram):
            return NotImplemented
        return self.lemmas == other.lemmas

    def __hash__(self) -> int:
        return hash(self.lemmas)

    def __str__(self) -> str:
        return " ".join(self.lemmas)


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
    text = resources.files("precursor").joinpath(
        "data/stopwords_default.txt").read_text(encoding="utf-8")
    return frozenset(
        line.strip().lower()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#"))


@dataclass
class NgramConfig:
    max_len: int = 5
    stopwords: frozenset[str] = field(default_factory=default_stopwords)


def _chunks(post: Post) -> Iterable[tuple[tuple[str, Pos], ...]]:
    # title chunks and body chunks are enumerated independently
    for stream in (post.title_tokens, post.body_tokens):
        current: list[tuple[str, Pos]] = []
        current_idx = None
        for tok in stream:
            if current_idx is not None and tok.chunk != current_idx:
                if current:
                    yield tuple(current)
                current = []
            current_idx = tok.chunk
            if tok.pos in CONTENT_POS:
                current.append((tok.lemma, tok.pos))
        if current:
            yield tuple(current)


def _windows(post: Post, config: NgramConfig
             ) -> dict[tuple[str, ...], tuple[tuple[str, Pos], ...]]:
    """The post's n-grams as lemma tuple -> words of its first window."""
    found: dict[tuple[str, ...], tuple[tuple[str, Pos], ...]] = {}
    stopwords, max_len, noun = config.stopwords, config.max_len, Pos.NOUN
    for survivors in _chunks(post):
        lemmas = tuple(lemma for lemma, _ in survivors)
        n = len(survivors)
        for start in range(n - 1):
            has_noun = False
            for end in range(start, min(start + max_len, n)):
                lemma, pos = survivors[end]
                if lemma in stopwords:
                    break
                if pos is noun:
                    has_noun = True
                if end > start and has_noun:
                    key = lemmas[start:end + 1]
                    if key not in found:
                        found[key] = survivors[start:end + 1]
        # windows that hit a stop word are abandoned at that point; windows
        # starting after the stop word are generated by later start values
    return found


def enumerate_ngrams(post: Post, config: NgramConfig | None = None) -> set[Ngram]:
    """All n-grams of one post under the filter rules, deduplicated."""
    return {Ngram(words)
            for words in _windows(post, config or NgramConfig()).values()}


@collector_paused
def build_index(corpus: Corpus,
                config: NgramConfig | None = None) -> dict[Ngram, list[Occurrence]]:
    """Time-ordered occurrence lists per n-gram.

    Occurrences are sorted by (timestamp, post_id); a single left-to-right
    pass then drops any occurrence whose blog equals the previous retained
    occurrence's blog, keeping the earliest of each same-blog run.  N-grams
    with fewer than two retained occurrences are removed.  Each n-gram keeps
    the words of its first-seen window.
    """
    config = config or NgramConfig()
    raw: dict[tuple[str, ...], tuple[tuple, list[Occurrence]]] = {}
    for post in corpus.posts:
        occ = Occurrence(post.timestamp, post.blog_id, post.post_id)
        for lemmas, words in _windows(post, config).items():
            entry = raw.get(lemmas)
            if entry is None:
                raw[lemmas] = (words, [occ])
            else:
                entry[1].append(occ)
    index: dict[Ngram, list[Occurrence]] = {}
    for words, occs in raw.values():
        if len(occs) < 2:
            continue
        occs.sort(key=lambda o: (o.timestamp, o.post_id))
        kept = collapse_same_blog_runs(occs)
        if len(kept) >= 2:
            index[Ngram(words)] = kept
    return index


def collapse_same_blog_runs(occs: list[Occurrence]) -> list[Occurrence]:
    """Keep the earliest occurrence of each consecutive same-blog run."""
    kept: list[Occurrence] = []
    for occ in occs:
        if kept and kept[-1].blog_id == occ.blog_id:
            continue
        kept.append(occ)
    return kept
