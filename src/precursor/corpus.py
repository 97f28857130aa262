"""Corpus ingestion, validation and time-windowed post counting.

Input is a line-delimited file of JSON records (one post per line) with
fields ``post_id``, ``blog_id``, ``timestamp`` (integer epoch seconds or an
ISO-8601 string), ``title`` and ``body`` (arrays of ``{l, p, c}`` token
objects: lemma, part-of-speech tag, chunk index) and ``links`` (array of
cited blog ids).  The loader normalizes lemmas to lowercase, coerces unknown
part-of-speech tags to OTHER, drops self-links and (by default) links to
blogs that never post in the corpus, and sorts posts by (timestamp, post_id).
A blog id or link target that contains a carriage return is refused: the
CSV artifacts end their lines with a bare newline, so such a field would
not be quoted and its row would read back split in two.

Tokens are looked up in a table keyed by their raw ``(l, p, c)`` values, so
a repeated token costs one dict lookup and every occurrence shares one
`Token`.  Only raw values of exactly (str, str, int) are entered: JSON
``1``, ``1.0`` and ``true`` are one dict key but give different lemmas, so
any other value is converted on every occurrence.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .config import PipelineConfig

# One record and one token object as `json.dumps(..., sort_keys=True,
# ensure_ascii=False)` writes them, for writers that emit the keys in order:
# each %s takes a `json.encoder.encode_basestring` string, or a ", "-joined
# list of such strings or of filled token objects.
RECORD_LINE = ('{"blog_id": %s, "body": [%s], "links": [%s], "post_id": %s, '
               '"timestamp": %d, "title": [%s]}\n')
TOKEN_OBJECT = '{"c": %d, "l": %s, "p": %s}'

# All durations are integer seconds.
HOUR = 3600
DAY = 86400


class Pos(str, Enum):
    NOUN = "NOUN"
    VERB = "VERB"
    ADJ = "ADJ"
    NUM = "NUM"
    OTHER = "OTHER"


#: Tags that survive n-gram enumeration.
CONTENT_POS = frozenset({Pos.NOUN, Pos.VERB, Pos.ADJ, Pos.NUM})

_POS_BY_NAME = {p.value: p for p in Pos}


class CorpusError(Exception):
    """Base class for ingest failures."""


class MalformedRecord(CorpusError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class EmptyCorpus(CorpusError):
    pass


class NonMonotonicWindow(CorpusError):
    pass


class Token(NamedTuple):
    lemma: str
    pos: Pos
    chunk: int = 0


@dataclass(frozen=True)
class Post:
    post_id: str
    blog_id: str
    timestamp: int
    title_tokens: tuple[Token, ...] = ()
    body_tokens: tuple[Token, ...] = ()
    out_links: frozenset[str] = frozenset()


@dataclass
class LoadReport:
    """Counters accumulated while loading; pos_warnings counts coerced tags."""

    records_read: int = 0
    posts_loaded: int = 0
    pos_warnings: int = 0
    empty_lemma_tokens: int = 0
    out_of_window: int = 0
    self_links: int = 0
    external_links: int = 0


@dataclass
class Corpus:
    """Posts, put in (timestamp, post_id) order on construction:
    `posts_by_blog` and `ngrams.build_index` rely on that order."""

    posts: tuple[Post, ...]
    blogs: frozenset[str]
    window: tuple[int, int]
    report: LoadReport = field(default_factory=LoadReport)
    _blog_times: dict[str, list[int]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.posts = tuple(sorted(self.posts,
                                  key=lambda p: (p.timestamp, p.post_id)))
        if not self._blog_times:
            for p in self.posts:
                self._blog_times.setdefault(p.blog_id, []).append(p.timestamp)
            # posts are sorted globally, so each per-blog list is sorted too

    def posts_by_blog(self, blog: str) -> list[int]:
        return self._blog_times.get(blog, [])


def _parse_timestamp(raw, line: int) -> int:
    if isinstance(raw, bool):
        raise MalformedRecord(line, f"bad timestamp {raw!r}")
    if isinstance(raw, (int, float)):
        try:
            return int(raw)
        except (ValueError, OverflowError):  # NaN, or an infinity
            raise MalformedRecord(line, f"bad timestamp {raw!r}") from None
    if isinstance(raw, str):
        try:
            dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
        except ValueError:
            raise MalformedRecord(line, f"bad timestamp {raw!r}") from None
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return int(dt.timestamp())
    raise MalformedRecord(line, f"bad timestamp {raw!r}")


def _token_entry(raw: tuple, line: int, assume_nouns: bool,
                 table: dict) -> tuple[Token | None, bool]:
    """The token for raw (lemma, tag, chunk) values, None for an empty lemma,
    and whether the tag was coerced to OTHER.  The entry is kept in `table`
    under the raw values only when they are exactly (str, str, int): 1, 1.0
    and True are one dict key but normalise to different lemmas."""
    lemma, tag, chunk = raw
    try:
        index = int(chunk)
    except (TypeError, ValueError, OverflowError):
        raise MalformedRecord(line, f"bad chunk index {chunk!r}") from None
    text = str(lemma).strip().lower()
    if not text:
        entry = None, False
    elif assume_nouns:
        entry = Token(text, Pos.NOUN, index), False
    else:
        pos = _POS_BY_NAME.get(str(tag).upper())
        if pos is None:
            entry = Token(text, Pos.OTHER, index), True
        else:
            entry = Token(text, pos, index), False
    if type(lemma) is str and type(tag) is str and type(chunk) is int:
        table[raw] = entry
    return entry


def iter_records(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, record) pairs from a line-delimited JSON file."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(line_no, f"invalid JSON ({exc.msg})") from None
            if not isinstance(record, dict):
                raise MalformedRecord(line_no, "object expected")
            yield line_no, record


def corpus_from_records(records: Iterable[tuple[int, dict]],
                        cfg: PipelineConfig | None = None) -> Corpus:
    """The records' corpus, under the window, link and noun keys of `cfg`."""
    cfg = cfg or PipelineConfig()
    start, end = cfg.window_start, cfg.window_end
    if start is not None and end is not None and start > end:
        raise NonMonotonicWindow(f"window start {start} > end {end}")

    records_read = pos_warnings = empty_lemma_tokens = 0
    out_of_window = self_links = external_links = 0
    # (post_id, blog_id, timestamp, title, body, links) per record
    parsed: list[tuple] = []
    seen_ids: set[str] = set()
    table: dict = {}
    for line_no, record in records:
        records_read += 1
        post_id = record.get("post_id")
        blog_id = record.get("blog_id")
        if not post_id or not isinstance(post_id, str):
            raise MalformedRecord(line_no, "missing post_id")
        if not blog_id or not isinstance(blog_id, str):
            raise MalformedRecord(line_no, "missing blog_id")
        if "\r" in blog_id:
            raise MalformedRecord(line_no, "carriage return in blog_id")
        if "timestamp" not in record:
            raise MalformedRecord(line_no, "missing timestamp")
        if post_id in seen_ids:
            raise MalformedRecord(line_no, f"duplicate post_id {post_id!r}")
        seen_ids.add(post_id)
        ts = _parse_timestamp(record["timestamp"], line_no)
        streams = []
        for raw in (record.get("title"), record.get("body")):
            if raw is None:
                streams.append(())
                continue
            if not isinstance(raw, list):
                raise MalformedRecord(line_no, "token array expected")
            tokens = []
            prev_chunk = None
            for item in raw:
                if not isinstance(item, dict):
                    raise MalformedRecord(line_no, "token object expected")
                key = (item.get("l", ""), item.get("p", ""), item.get("c", 0))
                try:
                    token, coerced = table[key]
                except (KeyError, TypeError):  # unseen, or a list value
                    token, coerced = _token_entry(key, line_no,
                                                  cfg.assume_nouns, table)
                if token is None:
                    empty_lemma_tokens += 1
                    continue
                pos_warnings += coerced
                if prev_chunk is not None and token.chunk < prev_chunk:
                    raise MalformedRecord(
                        line_no, "chunk indices must be non-decreasing")
                prev_chunk = token.chunk
                tokens.append(token)
            streams.append(tuple(tokens))
        links = record.get("links") or []
        if not isinstance(links, list):
            raise MalformedRecord(line_no, "links array expected")
        if any("\r" in str(target) for target in links):
            raise MalformedRecord(line_no, "carriage return in a link target")
        parsed.append((post_id, blog_id, ts, *streams, links))

    if start is not None or end is not None:
        lo = start if start is not None else min((p[2] for p in parsed),
                                                 default=0)
        hi = end if end is not None else max((p[2] for p in parsed), default=0)
        kept = [p for p in parsed if lo <= p[2] <= hi]
        out_of_window = len(parsed) - len(kept)
        parsed = kept
        window = (lo, hi)
    elif parsed:
        times = [p[2] for p in parsed]
        window = (min(times), max(times))
    else:
        window = (0, 0)

    if not parsed:
        raise EmptyCorpus("no valid posts")

    blogs = frozenset(p[1] for p in parsed)
    keep_external = cfg.keep_external_links
    posts = []
    for post_id, blog_id, ts, title, body, links in parsed:
        cleaned = set()
        for target in map(str, links):
            if target == blog_id:
                self_links += 1
            elif target not in blogs and not keep_external:
                external_links += 1
            else:
                cleaned.add(target)
        posts.append(Post(post_id, blog_id, ts, title, body,
                          frozenset(cleaned)))
    report = LoadReport(records_read=records_read, posts_loaded=len(posts),
                        pos_warnings=pos_warnings,
                        empty_lemma_tokens=empty_lemma_tokens,
                        out_of_window=out_of_window, self_links=self_links,
                        external_links=external_links)
    return Corpus(posts=tuple(posts), blogs=blogs, window=window, report=report)


def load_corpus(path: str | Path, cfg: PipelineConfig | None = None) -> Corpus:
    """Load and validate a line-delimited corpus file (`corpus_from_records`).

    Raises MalformedRecord (with the offending line number) on the first
    unparseable or incomplete record, EmptyCorpus when no valid post
    survives, and NonMonotonicWindow for an inverted observation window.
    """
    return corpus_from_records(iter_records(path), cfg)


def post_count(corpus: Corpus, blog: str, t: int, t2: int) -> int:
    """Number of posts by `blog` with timestamp in the inclusive range [t, t2]."""
    if t > t2:
        raise ValueError(f"t={t} > t2={t2}")
    times = corpus.posts_by_blog(blog)
    return bisect_right(times, t2) - bisect_left(times, t)
