"""Shared fixtures and independent reference oracles.

The oracles here deliberately re-implement the operations under test from
first principles (itertools enumeration, direct linear solves, nearest-center
scans) so the library paths are checked against something they do not share
code with.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from precursor.config import PipelineConfig
from precursor.corpus import (_POS_BY_NAME, _parse_timestamp, CONTENT_POS,
                              Corpus, EmptyCorpus, LoadReport,
                              MalformedRecord, NonMonotonicWindow, Pos, Post,
                              Token)
from precursor.ngrams import Ngram, Occurrence
from precursor.bursts import Burst, _gaps, _theta, burst_ratio
from precursor.scoring import DegenerateLikelihood, build_dyad_context, gamma
from precursor.topics import Topic


# ------------------------------------------------------------ constructors

def tok(lemma: str, pos: str = "NOUN", chunk: int = 0) -> Token:
    return Token(lemma, Pos(pos), chunk)


def post(post_id: str, blog: str, ts: int, body: list[Token] = (),
         title: list[Token] = (), links: set[str] = frozenset()) -> Post:
    return Post(post_id=post_id, blog_id=blog, timestamp=ts,
                title_tokens=tuple(title), body_tokens=tuple(body),
                out_links=frozenset(links))


def corpus_of(posts: list[Post]) -> Corpus:
    ordered = sorted(posts, key=lambda p: (p.timestamp, p.post_id))
    return Corpus(posts=tuple(ordered),
                  blogs=frozenset(p.blog_id for p in ordered),
                  window=(ordered[0].timestamp, ordered[-1].timestamp))


def ngram_of(*lemmas: str) -> Ngram:
    return Ngram(tuple((lemma, Pos.NOUN) for lemma in lemmas))


def burst_of(lemmas: tuple[str, ...], start: int, end: int,
             occurrences: list[tuple[int, str, str]] | None = None) -> Burst:
    if occurrences is None:
        occurrences = [(start, "blog_a", f"p{start}"), (end, "blog_b", f"p{end}")]
    occs = tuple(Occurrence(t, b, p) for t, b, p in occurrences)
    return Burst(ngram=ngram_of(*lemmas), start=start, end=end, occurrences=occs)


def topic_of(topic_id: str, start: int, end: int,
             participations: dict[str, int],
             bursts: tuple[Burst, ...] = ()) -> Topic:
    return Topic(topic_id=topic_id, ngrams=tuple(b.ngram for b in bursts) or
                 (ngram_of("w1", "w2"),), start=start, end=end,
                 bursts=bursts, participations=participations)


# ----------------------------------------------------------------- oracles

def brute_force_likelihood(p: float, a_topics, y_topics, c):
    """Literal sum over explicit subsets of Y built with itertools."""
    total = 0.0
    y = list(y_topics)
    for size in range(len(y) + 1):
        for z in itertools.combinations(y, size):
            z_set = set(z)
            r_set = set(y) - z_set
            term = p ** len(z_set) * (1.0 - p) ** (len(a_topics) - len(z_set))
            for r in r_set:
                term *= c[r]
            for r in a_topics:
                if r not in r_set:
                    term *= 1.0 - c[r]
            total += term
    return total


def grid_gamma(a_topics, y_topics, c, n_grid: int = 2001):
    """Deterministic gamma by trapezoidal quadrature on a fine p grid."""
    ps = np.linspace(0.0, 1.0, n_grid)
    lam = brute_force_likelihood(ps, a_topics, y_topics, c)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2
    num = trapezoid(lam * ps, ps)
    den = trapezoid(lam, ps)
    return num / den


def split_polynomial(y_topics, c):
    """coeffs[k]: sum of the Y factors over splits with |Z| = k, in plain
    Python floats, adding one topic of Y at a time."""
    coeffs = [1.0]
    for r in y_topics:
        z = 1.0 - c[r]
        coeffs = ([coeffs[0] * c[r]]
                  + [coeffs[k] * c[r] + coeffs[k - 1] * z
                     for k in range(1, len(coeffs))]
                  + [coeffs[-1] * z])
    return coeffs


def reference_gamma(ctx) -> float:
    """gamma of one dyad with its own log-space DP: one numpy step per topic
    of Y, then the Beta-weighted mean of (k+1)/(n+2)."""
    n_a = len(ctx.a_topics)
    if n_a == 0:
        return 0.5
    c_y = np.array([ctx.c[r] for r in ctx.y_topics], dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_z, log_r = np.log(1.0 - c_y), np.log(c_y)
    log_c = np.zeros(1)
    for lz, lr in zip(log_z.tolist(), log_r.tolist()):
        nxt = np.empty(log_c.size + 1)
        nxt[0], nxt[-1] = log_c[0] + lr, log_c[-1] + lz
        np.logaddexp(log_c[1:] + lr, log_c[:-1] + lz, out=nxt[1:-1])
        log_c = nxt
    in_y = set(ctx.y_topics)
    if any(ctx.c[r] >= 1.0 for r in ctx.a_topics if r not in in_y) \
            or not np.isfinite(log_c).any():
        warnings.warn("likelihood vanishes for every p; returning 0.5",
                      DegenerateLikelihood)
        return 0.5
    log_w = log_c + np.array([math.lgamma(k + 1) + math.lgamma(n_a - k + 1)
                              for k in range(log_c.size)])
    weights = np.exp(log_w - log_w.max())
    means = np.arange(1, log_c.size + 1) / (n_a + 2)
    return float(weights @ means / weights.sum())


def mpmath_gamma(ctx, dps: int = 50) -> float:
    """gamma as the Beta-weighted mean of (k+1)/(n+2) over the split
    coefficients c_k, all in `dps`-digit mpmath arithmetic."""
    import mpmath

    n_a = len(ctx.a_topics)
    with mpmath.workdps(dps):
        coeffs = split_polynomial(ctx.y_topics, {r: mpmath.mpf(c)
                                                 for r, c in ctx.c.items()})
        weights = [ck * mpmath.beta(k + 1, n_a - k + 1)
                   for k, ck in enumerate(coeffs)]
        mean = mpmath.fsum(w * (k + 1) for k, w in enumerate(weights))
        return float(mean / (n_a + 2) / mpmath.fsum(weights))


def alternative_gamma(n_a: int, n_y: int, c: float, dps: int = 30) -> float:
    """The posterior mean of p, under a flat prior, of the alternative
    likelihood that gives b's lead in a topic the chance p + (1 - p) C,
    with one C on every topic: (1 - p)^(n_a - n_y) (C + (1 - C) p)^n_y.
    The binomial expansion of its second factor makes both integrals sums
    of Beta functions, taken in `dps`-digit mpmath arithmetic."""
    import mpmath

    with mpmath.workdps(dps):
        c = mpmath.mpf(c)
        weights = [mpmath.binomial(n_y, j) * c ** (n_y - j) * (1 - c) ** j
                   for j in range(n_y + 1)]
        mass = [mpmath.fsum(w * mpmath.beta(j + e + 1, n_a - n_y + 1)
                            for j, w in enumerate(weights)) for e in (0, 1)]
        return float(mass[1] / mass[0])


def quad_gamma(a_topics, y_topics, c):
    """gamma by adaptive scipy quadrature of the split polynomial in p.

    The factor over A\\Y cancels from the ratio; the likelihood is divided
    by its largest value on a grid so that quad's error control sees O(1)
    values even at |A| in the hundreds.
    """
    from scipy.integrate import quad

    coeffs = split_polynomial(y_topics, c)
    n = len(a_topics)

    def lik(p):
        return math.fsum(ck * p ** k * (1.0 - p) ** (n - k)
                         for k, ck in enumerate(coeffs))

    grid = np.linspace(0.0, 1.0, 1001)
    values = [lik(p) for p in grid]
    peak, mode = max(values), float(grid[int(np.argmax(values))])
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=500, points=[mode])
    num = quad(lambda p: p * lik(p) / peak, 0.0, 1.0, **opts)[0]
    den = quad(lambda p: lik(p) / peak, 0.0, 1.0, **opts)[0]
    return num / den


def _factors(ctx):
    """C_r over Y, in Y's order, and base = prod over A\\Y of (1-C_r)."""
    c_y = np.array([ctx.c[r] for r in ctx.y_topics], dtype=np.float64)
    base = 1.0
    in_y = set(ctx.y_topics)
    for r in ctx.a_topics:
        if r not in in_y:
            base *= 1.0 - ctx.c[r]
    return c_y, base


def likelihood(p: float, ctx) -> float:
    """Exact likelihood of gamma = p, from its product form over Y."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    c_y, base = _factors(ctx)
    rest = len(ctx.a_topics) - len(ctx.y_topics)
    return float(base * (1.0 - p) ** rest
                 * np.prod(p * (1.0 - c_y) + (1.0 - p) * c_y))


def likelihood_sampled(p: float, ctx, n_subsets: int, seed: int) -> float:
    """The paper's split-sampling estimate of the likelihood: the mean split
    term over uniform splits of Y, times 2^|Y|."""
    rng = np.random.default_rng(seed)
    c_y, base = _factors(ctx)
    n_y = len(ctx.y_topics)
    bits = rng.random((n_subsets, n_y)) < 0.5
    terms = np.where(bits, p * (1.0 - c_y), (1.0 - p) * c_y).prod(axis=1)
    scale = base * (1.0 - p) ** (len(ctx.a_topics) - n_y)
    return float(terms.mean() * 2.0 ** n_y * scale)


def pr_h(corpus: Corpus, topics, b: str, b2: str) -> float:
    """Fraction of b2's posts that participate in topics shared with b.

    A post participates in a topic when it appears as an occurrence in one
    of the topic's member bursts.
    """
    total = len(corpus.posts_by_blog(b2))
    if total == 0:
        return 0.0
    participating: set[str] = set()
    for topic in topics:
        if b in topic.participations and b2 in topic.participations:
            for burst in topic.bursts:
                participating.update(o.post_id for o in burst.occurrences
                                     if o.blog_id == b2)
    return len(participating) / total


@dataclass(frozen=True)
class DyadScore:
    """One scored dyad as a row."""

    b: str
    b2: str
    a_size: int
    y_size: int
    gamma: float
    pr_h: float
    omega: float


def dyad_rows(scores) -> list[DyadScore]:
    """The rows of a `DyadScores`, each column's values as Python numbers
    and the blog codes as blog ids."""
    return [DyadScore(scores.blogs[b], scores.blogs[b2], *rest)
            for b, b2, *rest in zip(*(c.tolist() for c in scores[1:]))]


def reference_score_dyad(corpus: Corpus, topics, b: str, b2: str) -> DyadScore:
    """One dyad's score from its `build_dyad_context`, the library's `gamma`
    and `pr_h`; omega = gamma * Pr(H)."""
    ctx = build_dyad_context(corpus, topics, b, b2)
    g = gamma(ctx)
    h = pr_h(corpus, topics, b, b2)
    return DyadScore(b=b, b2=b2, a_size=len(ctx.a_topics),
                     y_size=len(ctx.y_topics), gamma=g, pr_h=h, omega=g * h)


def reference_global_scores(rows, blogs) -> dict[str, tuple[float, float]]:
    """Per-blog P and L by a plain loop over the dyad rows: each blog's
    outgoing and incoming omega summed in row order, over n - 1 dyads."""
    n = len(blogs)
    out = {b: 0.0 for b in blogs}
    inc = {b: 0.0 for b in blogs}
    for row in rows:
        if row.b in out and row.b2 in inc:
            out[row.b] += row.omega
            inc[row.b2] += row.omega
    if n < 2:
        return {b: (0.0, 0.0) for b in blogs}
    return {b: (out[b] / (n - 1), inc[b] / (n - 1)) for b in blogs}


def reference_csv(header, rows) -> str:
    """A CSV artifact's text: each row comma-separated and ended by a
    newline, a field quoted (its quotes doubled) when it holds a comma, a
    quote or a newline; None as an empty field, every float (np.float64
    too) as repr(float(v)) and anything else as str(v).  Rows hold no
    carriage return, which csv quotes by a rule of its own, and no row of
    one empty field, which it writes as ""."""
    def field(v):
        text = ("" if v is None else repr(float(v)) if isinstance(v, float)
                else str(v))
        if any(c in text for c in ',"\n'):
            return '"' + text.replace('"', '""') + '"'
        return text
    return "".join(",".join(map(field, row)) + "\n"
                   for row in [header, *rows])


def reference_corpus_line(post: Post) -> str:
    """A post's `corpus.jsonl` line: one dict per token and per post, encoded
    by `json.dumps` with sorted keys."""
    def toks(tokens):
        return [{"l": t.lemma, "p": t.pos.value, "c": t.chunk} for t in tokens]
    record = {"post_id": post.post_id, "blog_id": post.blog_id,
              "timestamp": post.timestamp, "title": toks(post.title_tokens),
              "body": toks(post.body_tokens), "links": sorted(post.out_links)}
    return json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"


def reference_index_line(ngram: Ngram, occurrences) -> str:
    """An n-gram's `index.jsonl` line: one dict per n-gram and one list per
    occurrence, encoded by `json.dumps` with sorted keys."""
    record = {"lemmas": list(ngram.lemmas),
              "pos": [pos.value for _, pos in ngram.words],
              "occurrences": [[o.timestamp, o.blog_id, o.post_id]
                              for o in occurrences]}
    return json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"


def _reference_burst_record(burst: Burst) -> dict:
    return {"lemmas": list(burst.ngram.lemmas),
            "pos": [pos.value for _, pos in burst.ngram.words],
            "start": burst.start, "end": burst.end,
            "occurrences": [[o.timestamp, o.blog_id, o.post_id]
                            for o in burst.occurrences]}


def reference_burst_line(burst: Burst) -> str:
    """A burst's `bursts.jsonl` line: one dict per burst, encoded by
    `json.dumps` with sorted keys."""
    return json.dumps(_reference_burst_record(burst), sort_keys=True,
                      ensure_ascii=False) + "\n"


def reference_topic_line(topic: Topic) -> str:
    """A topic's `topics.jsonl` line: one dict per topic holding its bursts'
    dicts, encoded by `json.dumps` with sorted keys."""
    record = {"topic_id": topic.topic_id,
              "ngrams": [{"lemmas": list(n.lemmas),
                          "pos": [pos.value for _, pos in n.words]}
                         for n in topic.ngrams],
              "start": topic.start, "end": topic.end,
              "participations": dict(sorted(topic.participations.items())),
              "bursts": [_reference_burst_record(b) for b in topic.bursts]}
    return json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"


def reference_iter_records(path):
    """iter_records as `json.loads` of each stripped, non-empty line."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(line_no,
                                      f"invalid JSON ({exc.msg})") from None
            if not isinstance(record, dict):
                raise MalformedRecord(line_no, "object expected")
            yield line_no, record


def _reference_text(line, name, value):
    """A string read from a record, refused if it holds a lone surrogate:
    only a JSON escape in \\ud800-\\udfff can write one, and no UTF-8
    artifact can hold it."""
    if any(0xD800 <= ord(ch) <= 0xDFFF for ch in value):
        raise MalformedRecord(line, f"bad {name} {value!r}: lone surrogate")


def _reference_tokens(raw, line, config, report):
    """Tokens of one title or body, each raw value's type checked before
    use: the chunk first, then the lemma and the tag."""
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise MalformedRecord(line, "token array expected")
    tokens = []
    prev_chunk = None
    for item in raw:
        if not isinstance(item, dict):
            raise MalformedRecord(line, "token object expected")
        lemma, tag, chunk = (item.get("l", ""), item.get("p", ""),
                             item.get("c", 0))
        if isinstance(chunk, bool) or not isinstance(chunk, int):
            raise MalformedRecord(line, f"bad chunk index {chunk!r}: "
                                        "not an integer")
        for name, value in (("lemma", lemma), ("tag", tag)):
            if not isinstance(value, str):
                raise MalformedRecord(line, f"bad {name} {value!r}: "
                                            "not a string")
        _reference_text(line, "lemma", lemma)
        _reference_text(line, "tag", tag)
        lemma = lemma.strip().lower()
        if not lemma:
            report.empty_lemma_tokens += 1
            continue
        if config.assume_nouns:
            token = Token(lemma, Pos.NOUN, chunk)
        else:
            pos = _POS_BY_NAME.get(tag.upper())
            if pos is None:
                report.pos_warnings += 1
                pos = Pos.OTHER
            token = Token(lemma, pos, chunk)
        if prev_chunk is not None and token.chunk < prev_chunk:
            raise MalformedRecord(line, "chunk indices must be non-decreasing")
        prev_chunk = token.chunk
        tokens.append(token)
    return tuple(tokens)


def reference_corpus_from_records(records, config=None) -> Corpus:
    """corpus_from_records with a `LoadReport` updated in place, one `Post`
    per record rebuilt after link cleaning, and no token table."""
    config = config or PipelineConfig()
    if (config.window_start is not None and config.window_end is not None
            and config.window_start > config.window_end):
        raise NonMonotonicWindow(
            f"window start {config.window_start} > end {config.window_end}")
    report = LoadReport()
    parsed = []
    seen_ids = set()
    for line_no, record in records:
        report.records_read += 1
        post_id = record.get("post_id")
        blog_id = record.get("blog_id")
        if not post_id or not isinstance(post_id, str):
            raise MalformedRecord(line_no, "missing post_id")
        if not blog_id or not isinstance(blog_id, str):
            raise MalformedRecord(line_no, "missing blog_id")
        if "\r" in blog_id:
            raise MalformedRecord(line_no, "carriage return in blog_id")
        _reference_text(line_no, "post_id", post_id)
        _reference_text(line_no, "blog_id", blog_id)
        if "timestamp" not in record:
            raise MalformedRecord(line_no, "missing timestamp")
        if post_id in seen_ids:
            raise MalformedRecord(line_no, f"duplicate post_id {post_id!r}")
        seen_ids.add(post_id)
        ts = _parse_timestamp(record["timestamp"], line_no)
        title = _reference_tokens(record.get("title"), line_no, config, report)
        body = _reference_tokens(record.get("body"), line_no, config, report)
        links = record.get("links")
        if links is None:
            links = []
        if not isinstance(links, list):
            raise MalformedRecord(line_no, f"bad links {links!r}: not an array")
        for target in links:
            if not isinstance(target, str):
                raise MalformedRecord(
                    line_no, f"bad link target {target!r}: not a string")
            if "\r" in target:
                raise MalformedRecord(line_no,
                                      "carriage return in a link target")
            _reference_text(line_no, "link target", target)
        parsed.append((Post(post_id=post_id, blog_id=blog_id, timestamp=ts,
                            title_tokens=title, body_tokens=body),
                       links))
    if config.window_start is not None or config.window_end is not None:
        lo = config.window_start if config.window_start is not None else min(
            (p.timestamp for p, _ in parsed), default=0)
        hi = config.window_end if config.window_end is not None else max(
            (p.timestamp for p, _ in parsed), default=0)
        kept = []
        for p, links in parsed:
            if lo <= p.timestamp <= hi:
                kept.append((p, links))
            else:
                report.out_of_window += 1
        parsed = kept
        window = (lo, hi)
    elif parsed:
        times = [p.timestamp for p, _ in parsed]
        window = (min(times), max(times))
    else:
        window = (0, 0)
    if not parsed:
        raise EmptyCorpus("no valid posts")
    blogs = frozenset(p.blog_id for p, _ in parsed)
    posts = []
    for p, links in parsed:
        cleaned = set()
        for target in links:
            if target == p.blog_id:
                report.self_links += 1
            elif target not in blogs and not config.keep_external_links:
                report.external_links += 1
            else:
                cleaned.add(target)
        posts.append(Post(p.post_id, p.blog_id, p.timestamp, p.title_tokens,
                          p.body_tokens, frozenset(cleaned)))
    posts.sort(key=lambda p: (p.timestamp, p.post_id))
    report.posts_loaded = len(posts)
    return Corpus(posts=tuple(posts), blogs=blogs, window=window, report=report)


# characters JSON escapes, or that only ensure_ascii would escape
TRICKY = st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é",
                          "\u2028", "\u2029", "漢", "\U0001f600", " "])
json_text = st.text(st.one_of(TRICKY, st.characters(
    blacklist_categories=("Cs",))), max_size=6)
#: characters a property over a JSON writer should have met
JSON_ODD = ('"', "\\", "\x00", "\u2028", "é")


# ---------------------------------------------------- generator references

def reference_noise_tokens(vocab: list[str], rng) -> list[dict]:
    """A noise post's tokens with one `rng.choice(5, p=...)` per tag."""
    tokens = []
    pos_choices = ["NOUN", "VERB", "ADJ", "NUM", "OTHER"]
    pos_weights = [0.55, 0.2, 0.15, 0.03, 0.07]
    for chunk in range(2):
        n = int(rng.integers(3, 6))
        lemmas = rng.choice(len(vocab), size=min(n, len(vocab)), replace=False)
        for li in lemmas:
            pos = pos_choices[int(rng.choice(5, p=pos_weights))]
            tokens.append({"l": vocab[int(li)], "p": pos, "c": chunk})
    return tokens


def reference_entry_order(participants, rates, rng) -> list[str]:
    """Plackett-Luce order with one `rng.choice(k, p=...)` per position."""
    remaining = list(participants)
    weights = list(rates)
    order = []
    while remaining:
        w = np.array(weights) / sum(weights)
        idx = int(rng.choice(len(remaining), p=w))
        order.append(remaining.pop(idx))
        weights.pop(idx)
    return order


def reference_add_links(records, blogs, link_prob, rng) -> None:
    """Links drawn by index into a fresh list of every other blog."""
    for record in records:
        if rng.random() < link_prob:
            n_links = 1 + int(rng.random() < 0.25)
            others = [b for b in blogs if b != record["blog_id"]]
            chosen = rng.choice(len(others), size=min(n_links, len(others)),
                                replace=False)
            record["links"] = sorted(others[int(i)] for i in chosen)


def brute_force_windows(post, max_len, stopwords):
    """Every n-gram window of a post as its (lemma, pos) words, duplicates
    included, in enumeration order: title chunks then body chunks, start
    position, then length.  Straight from the rules: a chunk's content
    tokens, any 2..max_len run of them with a noun and no stop word."""
    for stream in (post.title_tokens, post.body_tokens):
        for _, chunk in itertools.groupby(stream, key=lambda t: t.chunk):
            words = [(t.lemma, t.pos) for t in chunk if t.pos in CONTENT_POS]
            for start in range(len(words)):
                for end in range(start + 2,
                                 min(start + max_len, len(words)) + 1):
                    window = tuple(words[start:end])
                    if (not any(lemma in stopwords for lemma, _ in window)
                            and any(pos is Pos.NOUN for _, pos in window)):
                        yield window


def brute_force_index(corpus, max_len, stopwords, min_blogs):
    """build_index through a set of Ngram per post and a dict keyed by Ngram.

    Ngram objects are equal when their lemmas are, so the first one added
    for a lemma sequence (the first post's, and in it the first window's)
    is the key that keeps its words.  An n-gram is kept with two or more
    occurrences left after the collapse and at least `min_blogs` distinct
    blogs among its posts.
    """
    raw: dict[Ngram, list[Occurrence]] = {}
    for p in corpus.posts:
        found: set[Ngram] = set()
        for window in brute_force_windows(p, max_len, stopwords):
            found.add(Ngram(window))
        for ngram in found:
            raw.setdefault(ngram, []).append(
                Occurrence(p.timestamp, p.blog_id, p.post_id))
    index = {}
    for ngram, occs in raw.items():
        occs.sort(key=lambda o: (o.timestamp, o.post_id))
        kept = [o for k, o in enumerate(occs)
                if k == 0 or o.blog_id != occs[k - 1].blog_id]
        if len(kept) >= 2 and len({o.blog_id for o in occs}) >= min_blogs:
            index[ngram] = kept
    return index


def reference_collapse(occs):
    """Keep the earliest occurrence of each consecutive same-blog run."""
    kept = []
    for occ in occs:
        if kept and kept[-1].blog_id == occ.blog_id:
            continue
        kept.append(occ)
    return kept


def _reference_chunks(post):
    # title chunks and body chunks are enumerated independently
    for stream in (post.title_tokens, post.body_tokens):
        current = []
        current_idx = None
        for t in stream:
            if current_idx is not None and t.chunk != current_idx:
                if current:
                    yield tuple(current)
                current = []
            current_idx = t.chunk
            if t.pos in CONTENT_POS:
                current.append((t.lemma, t.pos))
        if current:
            yield tuple(current)


def _reference_windows(post, max_len, stopwords):
    """The post's n-grams as lemma tuple -> words of its first window."""
    found = {}
    for survivors in _reference_chunks(post):
        lemmas = tuple(lemma for lemma, _ in survivors)
        n = len(survivors)
        for start in range(n - 1):
            has_noun = False
            for end in range(start, min(start + max_len, n)):
                lemma, pos = survivors[end]
                if lemma in stopwords:
                    break
                if pos is Pos.NOUN:
                    has_noun = True
                if end > start and has_noun:
                    key = lemmas[start:end + 1]
                    if key not in found:
                        found[key] = survivors[start:end + 1]
    return found


def reference_build_index(corpus, max_len, stopwords, min_blogs):
    """build_index as a loop over posts, chunks and windows into a table keyed
    by lemma tuple, in the table's first-seen order; an n-gram is kept with
    two or more occurrences after the collapse and `min_blogs` or more
    distinct blogs."""
    raw = {}
    for p in corpus.posts:
        occ = Occurrence(p.timestamp, p.blog_id, p.post_id)
        for lemmas, words in _reference_windows(p, max_len, stopwords).items():
            entry = raw.get(lemmas)
            if entry is None:
                raw[lemmas] = (words, [occ])
            else:
                entry[1].append(occ)
    index = {}
    for words, occs in raw.values():
        occs.sort(key=lambda o: (o.timestamp, o.post_id))
        kept = reference_collapse(occs)
        if len(kept) >= 2 and len(set(o.blog_id for o in kept)) >= min_blogs:
            index[Ngram(words)] = kept
    return index


def _scan_merge(bursts):
    """The quadratic merge: test every later burst of the traversal order.

    Returns the topic member lists, the topic of each member, the bursts
    that found generalizations, and how many times two topics were merged.
    """
    def generalizes(gb, ga):
        sub, full = gb.ngram.lemmas, ga.ngram.lemmas
        return (any(full[k:k + len(sub)] == sub
                    for k in range(len(full) - len(sub) + 1))
                and gb.start <= ga.start and gb.end >= ga.end)

    order = sorted(range(len(bursts)),
                   key=lambda i: (-len(bursts[i].ngram),
                                  bursts[i].ngram.lemmas, bursts[i].start))
    topic_of, members, discarded = {}, {}, set()
    next_tid = conflicts = 0
    for pos, i in enumerate(order):
        found = [j for j in order[pos + 1:] if generalizes(bursts[j], bursts[i])]
        if not found:
            continue
        discarded.add(i)
        existing = sorted({topic_of[j] for j in found if j in topic_of})
        if existing:
            target = existing[0]
            for other in existing[1:]:
                conflicts += 1
                for k in members.pop(other):
                    topic_of[k] = target
                    members[target].append(k)
        else:
            target = next_tid
            next_tid += 1
            members[target] = []
        for j in found:
            if topic_of.get(j) != target:
                topic_of[j] = target
                members[target].append(j)
    return members, topic_of, discarded, conflicts


def scan_merge_conflicts(bursts) -> int:
    """How many topic merges the quadratic merge of bursts performs."""
    return _scan_merge(bursts)[3]


def brute_force_merge(bursts, keep_singletons: bool = False) -> list[Topic]:
    """merge_bursts by the quadratic scan, with the same topic bookkeeping."""
    members, topic_of, discarded, _ = _scan_merge(bursts)
    groups = [sorted(set(idxs)) for idxs in members.values() if idxs]
    if keep_singletons:
        groups += [[i] for i in range(len(bursts))
                   if i not in topic_of and i not in discarded]
    topics = []
    for idxs in groups:
        burst_list = sorted((bursts[i] for i in idxs),
                            key=lambda b: (b.start, b.end, b.ngram.lemmas))
        ngrams = []
        for b in burst_list:
            if b.ngram.lemmas not in [n.lemmas for n in ngrams]:
                ngrams.append(b.ngram)
        first = {}
        for b in burst_list:
            for occ in b.occurrences:
                first[occ.blog_id] = min(first.get(occ.blog_id, occ.timestamp),
                                         occ.timestamp)
        topics.append((min(b.start for b in burst_list),
                       max(b.end for b in burst_list),
                       tuple(ngrams), tuple(burst_list), first))
    topics.sort(key=lambda t: (t[0], t[1], t[2][0].lemmas))
    return [Topic(topic_id=f"T{seq:04d}", ngrams=ngrams, start=start, end=end,
                  bursts=burst_list, participations=first)
            for seq, (start, end, ngrams, burst_list, first)
            in enumerate(topics, start=1)]


def reference_detect_bursts(times, alpha: float, beta: float,
                            met: set | None = None) -> np.ndarray:
    """The greedy split of one n-gram as a loop of its own: each step
    rescores every unset gap from theta and accepts the first best one.

    When given, `met` gains the name of each rule the run met.  With no
    admissible trial left, "stopped by alpha" when a trial that passed beta
    had a positive rho below alpha, and "stopped by beta" when a trial whose
    rho passed alpha had a split gap below beta; "stopped on no rise" when
    the best admissible trial only tied or lowered rho; and "largest open
    gaps tied" when an accepted gap equalled another unset one.
    """
    g = np.diff(np.asarray(times, dtype=np.float64))
    n_gaps = g.size
    theta = np.zeros(n_gaps, dtype=np.int64)
    total = g.sum()
    while True:
        k = int(theta.sum())
        s_in = float((g * theta).sum())
        open_gaps = n_gaps - k
        cur_intra = (total - s_in) / open_gaps if k > 0 and open_gaps > 0 else 0.0
        cur_rho = (s_in / k) / cur_intra if k > 0 and cur_intra > 0 else 0.0
        cur_min = g[theta == 1].min() if k > 0 else np.inf
        v_inter = (s_in + g) / (k + 1)
        rem = open_gaps - 1
        if rem > 0:
            v_intra = (total - s_in - g) / rem
        else:
            v_intra = np.zeros_like(g)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.where(v_intra > 0, v_inter / v_intra, 0.0)
        m_int = np.minimum(cur_min, g)
        score = np.where((rho < alpha) | (m_int < beta), 0.0, rho)
        score[theta == 1] = -np.inf
        best = int(np.argmax(score))
        unset = theta == 0
        if score[best] > 0.0 and score[best] > cur_rho:
            if met is not None and np.count_nonzero(g[unset] == g[best]) > 1:
                met.add("largest open gaps tied")
            theta[best] = 1
        else:
            if met is not None and score[best] > 0.0:
                met.add("stopped on no rise")
            elif met is not None:
                met.update(rule for rule, holds in (
                    ("stopped by alpha", (unset & (m_int >= beta) & (rho > 0)
                                          & (rho < alpha)).any()),
                    ("stopped by beta", (unset & (rho >= alpha)
                                         & (m_int < beta)).any())) if holds)
            return theta


class NoSplit(Exception):
    """Raised when an operation needs at least one burst boundary."""


def min_inter_interval(times, theta) -> float:
    """Smallest gap between consecutive bursts."""
    g = _gaps(times)
    th = _theta(theta, g.size)
    if int(th.sum()) == 0:
        raise NoSplit("no burst boundary set")
    return float(g[th == 1].min())


def exhaustive_best_partition(times, alpha: float, beta: float):
    """Max rho over every constraint-satisfying split assignment."""
    n = len(times)
    best = 0.0
    best_theta = (0,) * (n - 1)
    for bits in itertools.product((0, 1), repeat=n - 1):
        if sum(bits) == 0:
            continue
        rho = burst_ratio(times, list(bits))
        if rho < alpha:
            continue
        if min_inter_interval(times, list(bits)) < beta:
            continue
        if rho > best:
            best = rho
            best_theta = bits
    return best, best_theta


def best_partition(times, alpha: float, beta: float):
    """`exhaustive_best_partition` from n - 1 candidates, not 2**(n - 1).

    Among the assignments with k splits, the k largest gaps (the first of
    equal ones) give both the largest rho and the largest minimum split gap,
    so each k needs scoring only there; `burst_ratio` scores them, so the
    roundings are those of the exhaustive search.
    """
    g = _gaps(times)
    theta = np.zeros(g.size, dtype=np.int64)
    best, best_theta = 0.0, (0,) * g.size
    for j in np.argsort(-g, kind="stable").tolist():
        theta[j] = 1
        rho = burst_ratio(times, theta)
        if rho >= alpha and g[j] >= beta and rho > best:
            best, best_theta = rho, tuple(theta.tolist())
    return best, best_theta


def pagerank_linear(graph, damping: float = 0.85) -> dict[str, float]:
    """PageRank as the direct solution of the stationary linear system."""
    nodes = list(graph.nodes)
    n = len(nodes)
    index = {b: i for i, b in enumerate(nodes)}
    p = np.zeros((n, n))
    out = {b: set() for b in nodes}
    for (src, dst) in graph.weights:
        out[src].add(dst)
    for src, targets in out.items():
        i = index[src]
        if targets:
            for dst in targets:
                p[i, index[dst]] = 1.0 / len(targets)
        else:
            p[i, :] = 1.0 / n
    a = np.eye(n) - damping * p.T
    b = np.full(n, (1.0 - damping) / n)
    rank = np.linalg.solve(a, b)
    return {node: float(rank[index[node]]) for node in nodes}


def reference_pagerank(graph, damping: float = 0.85, tol: float = 1e-10,
                       max_iter: int = 200) -> dict[str, float]:
    """Power-iteration PageRank as a loop over each node's sorted targets,
    summing the dangling mass node by node."""
    nodes = graph.nodes
    n = len(nodes)
    index = {b: i for i, b in enumerate(nodes)}
    out_neighbors = [[] for _ in range(n)]
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
    return {b: float(rank[index[b]]) for b in nodes}


def wilcoxon_enumeration(x, y) -> float:
    """Exact two-sided p by enumerating every rank assignment (no ties)."""
    pooled = sorted(list(x) + list(y))
    assert len(set(pooled)) == len(pooled), "oracle requires untied data"
    n1, n2 = len(x), len(y)
    rank_of = {v: i + 1 for i, v in enumerate(pooled)}
    u_obs = sum(rank_of[v] for v in x) - n1 * (n1 + 1) / 2.0
    us = []
    for combo in itertools.combinations(range(1, n1 + n2 + 1), n1):
        us.append(sum(combo) - n1 * (n1 + 1) / 2.0)
    us = np.array(us)
    p_le = np.mean(us <= u_obs)
    p_ge = np.mean(us >= u_obs)
    return min(1.0, 2.0 * min(p_le, p_ge))


def reference_rank_with_ties(values: np.ndarray):
    """Mid-ranks and tie-group sizes by walking the stably sorted values;
    a NaN equals nothing, so it is a group of its own."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    tie_sizes = []
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        tie_sizes.append(j - i + 1)
        i = j + 1
    return ranks, np.array(tie_sizes)


def hexbin_nearest_center(points, size: float):
    """Assign each point to the nearest hex center by direct scan."""
    centers = {}
    for q in range(-60, 61):
        for r in range(-60, 61):
            x = size * math.sqrt(3.0) * (q + r / 2.0)
            y = size * 1.5 * r
            centers[(q, r)] = (x, y)
    counts = {}
    for (px, py, _metric) in points:
        best = min(centers,
                   key=lambda c: (centers[c][0] - px) ** 2 + (centers[c][1] - py) ** 2)
        counts[best] = counts.get(best, 0) + 1
    return counts
