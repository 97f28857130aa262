"""Corpus ingestion, validation and time-windowed post counting.

A corpus is a line-delimited file of JSON records, one post per line.  Each
field, its JSON type, what absent or null means, and its normalisation:

- ``post_id``: non-empty string, unique; required.
- ``blog_id``: non-empty string without a carriage return; required.
- ``timestamp``: epoch seconds as a number (truncated to an integer), or an
  ISO-8601 string (UTC if it gives no offset); required.
- ``title``, ``body``: arrays of token objects; absent or null: no tokens.
- token ``l`` (lemma): string; absent: "".  Lowercased and stripped; a
  token whose lemma is then empty is dropped.
- token ``p`` (tag): string; absent: "".  A `Pos` name in any case, else
  OTHER (counted as a pos warning); every tag is NOUN under assume_nouns.
- token ``c`` (chunk index): integer, not a boolean; absent: 0.  Must not
  decrease within a title or body.
- ``links``: array of blog id strings without a carriage return; absent or
  null: no links.  Self-links are dropped, and so are links to blogs that
  never post in the corpus unless keep_external_links is set.

Any other value raises `MalformedRecord` naming the line and the field, as
does a string with a lone surrogate (from a `\\ud800`-`\\udfff` escape; no
UTF-8 artifact can hold it) or a line that is not one JSON object (also one
too deep, or with too long an integer, for the decoder).  Posts are `Post`
NamedTuples sorted by (timestamp, post_id).  The CSV artifacts end lines with
a bare newline, so a carriage return, left unquoted, would split a row.

`write_records` writes the format for `synth`; the pipeline writes no
corpus records, as its `corpus.jsonl` is a byte copy of the input.  The
writer and the loader key tokens by their raw (lemma, tag, chunk) values,
which a `Token` equals and hashes as, so each distinct token is encoded
once and built once.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from functools import cache
from json.encoder import encode_basestring
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

from .config import PipelineConfig

# One record and one token object as `json.dumps(..., sort_keys=True,
# ensure_ascii=False)` writes them, for `write_records` to fill.
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
_lone_surrogate = re.compile("[\ud800-\udfff]").search


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


class Post(NamedTuple):
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
    _blog_times: dict[str, list[int]] = field(init=False, repr=False)

    def __post_init__(self):
        self.posts = tuple(sorted(self.posts,
                                  key=lambda p: (p.timestamp, p.post_id)))
        # posts are sorted globally, so each per-blog list is sorted too
        self._blog_times = {}
        for p in self.posts:
            self._blog_times.setdefault(p.blog_id, []).append(p.timestamp)

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


def _check_text(line: int, name: str, text: str) -> None:
    if _lone_surrogate(text):
        raise MalformedRecord(line, f"bad {name} {text!r}: lone surrogate")


def _token_entry(raw: tuple, line: int, assume_nouns: bool,
                 table: dict) -> tuple[Token | None, bool]:
    """The token for raw (lemma, tag, chunk) values whose chunk is an int,
    None for an empty lemma, and whether the tag was coerced to OTHER; the
    entry is also kept in `table` under the raw values."""
    lemma, tag, chunk = raw
    if type(lemma) is not str:
        raise MalformedRecord(line, f"bad lemma {lemma!r}: not a string")
    if type(tag) is not str:
        raise MalformedRecord(line, f"bad tag {tag!r}: not a string")
    if not (lemma.isascii() and tag.isascii()):
        _check_text(line, "lemma", lemma)
        _check_text(line, "tag", tag)
    text = lemma.strip().lower()
    if not text:
        entry = None, False
    else:
        pos = Pos.NOUN if assume_nouns else _POS_BY_NAME.get(tag.upper())
        entry = Token(text, pos or Pos.OTHER, chunk), pos is None
    table[raw] = entry
    return entry


_raw_decode = json.JSONDecoder().raw_decode


def iter_records(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, record) pairs from a line-delimited JSON file.

    A stripped line holds no whitespace that `json.loads` would skip, so one
    `raw_decode` that ends at the line's end reads what `json.loads` reads.
    Any other line goes to `json.loads`, whose error names the fault.
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record, end = _raw_decode(line)
            except (ValueError, RecursionError):
                end = None
            if end != len(line):
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedRecord(line_no, f"invalid JSON ({exc.msg})") from None
                except ValueError as exc:  # an integer too long to convert
                    raise MalformedRecord(line_no, f"invalid JSON ({exc})") from None
                except RecursionError:
                    raise MalformedRecord(
                        line_no, "invalid JSON (nested too deeply)") from None
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
    self_links = external_links = 0
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
        if not (post_id.isascii() and blog_id.isascii()):
            _check_text(line_no, "post_id", post_id)
            _check_text(line_no, "blog_id", blog_id)
        if "timestamp" not in record:
            raise MalformedRecord(line_no, "missing timestamp")
        if post_id in seen_ids:
            raise MalformedRecord(line_no, f"duplicate post_id {post_id!r}")
        seen_ids.add(post_id)
        ts = _parse_timestamp(record["timestamp"], line_no)
        streams = []
        for raw in (record.get("title"), record.get("body")):
            if raw is None:
                raw = ()
            elif not isinstance(raw, list):
                raise MalformedRecord(line_no, "token array expected")
            tokens = []
            prev_chunk = None
            for item in raw:
                if not isinstance(item, dict):
                    raise MalformedRecord(line_no, "token object expected")
                chunk = item.get("c", 0)
                if type(chunk) is not int:  # 1.0 or true finds chunk 1's entry
                    raise MalformedRecord(
                        line_no, f"bad chunk index {chunk!r}: not an integer")
                key = (item.get("l", ""), item.get("p", ""), chunk)
                try:
                    token, coerced = table[key]
                except (KeyError, TypeError):  # unseen, or an unhashable value
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
        links = record.get("links")
        if links is None:
            links = ()
        elif type(links) is not list:
            raise MalformedRecord(line_no, f"bad links {links!r}: not an array")
        for target in links:
            if type(target) is not str:
                raise MalformedRecord(
                    line_no, f"bad link target {target!r}: not a string")
            if "\r" in target:
                raise MalformedRecord(line_no,
                                      "carriage return in a link target")
            if not target.isascii():
                _check_text(line_no, "link target", target)
        parsed.append((post_id, blog_id, ts, *streams, links))

    times = [p[2] for p in parsed]
    lo = start if start is not None else min(times, default=0)
    hi = end if end is not None else max(times, default=0)
    kept = [p for p in parsed if lo <= p[2] <= hi]
    if not kept:
        raise EmptyCorpus("no valid posts")

    blogs = frozenset(p[1] for p in kept)
    keep_external = cfg.keep_external_links
    posts = []
    for post_id, blog_id, ts, title, body, links in kept:
        cleaned = set()
        for target in links:
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
                        out_of_window=len(parsed) - len(kept),
                        self_links=self_links, external_links=external_links)
    return Corpus(posts=tuple(posts), blogs=blogs, window=(lo, hi),
                  report=report)


def load_corpus(path: str | Path, cfg: PipelineConfig | None = None) -> Corpus:
    """Load and validate a line-delimited corpus file (`corpus_from_records`).

    Raises MalformedRecord (with the offending line number) on the first
    unparseable, incomplete or mistyped record, EmptyCorpus when no post
    survives, and NonMonotonicWindow for an inverted observation window.
    """
    return corpus_from_records(iter_records(path), cfg)


def write_records(fh: IO[str], records: Iterable[tuple]) -> None:
    """Each (blog_id, body, links, post_id, timestamp, title) record, its
    links in the order given, as a `json.dumps(..., sort_keys=True,
    ensure_ascii=False)` line.  A body or title holds `Token`s or raw
    (lemma, tag, chunk) tuples."""
    token_object = cache(lambda token: TOKEN_OBJECT % (
        token[2], encode_basestring(token[0]), encode_basestring(token[1])))
    join = ", ".join
    for blog_id, body, links, post_id, timestamp, title in records:
        fh.write(RECORD_LINE % (
            encode_basestring(blog_id), join(map(token_object, body)),
            join(map(encode_basestring, links)), encode_basestring(post_id),
            timestamp, join(map(token_object, title))))


def post_count(corpus: Corpus, blog: str, t: int, t2: int) -> int:
    """Number of posts by `blog` with timestamp in the inclusive range [t, t2]."""
    if t > t2:
        raise ValueError(f"t={t} > t2={t2}")
    times = corpus.posts_by_blog(blog)
    return bisect_right(times, t2) - bisect_left(times, t)
