import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from precursor.config import PipelineConfig
from precursor.corpus import (DAY, Corpus, EmptyCorpus, MalformedRecord, NonMonotonicWindow, Pos, Token,
                              corpus_from_records, iter_records, load_corpus,
                              post_count, write_records)
from precursor.synth import generate, leader_follower_spec, write_corpus

from conftest import (corpus_of, json_text, post, reference_corpus_from_records,
                      reference_corpus_line, reference_iter_records, tok)


def write_lines(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def write_posts(corpus, path):
    """The corpus's posts as records, in corpus order, with sorted links."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_records(fh, ((p.blog_id, p.body_tokens, sorted(p.out_links),
                            p.post_id, p.timestamp, p.title_tokens)
                           for p in corpus.posts))


def rec(post_id, blog, ts, body=None, links=None):
    return {"post_id": post_id, "blog_id": blog, "timestamp": ts,
            "title": [], "body": body or [], "links": links or []}


class TestLoadCorpus:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        with pytest.raises(EmptyCorpus):
            load_corpus(path)

    def test_out_of_order_records_resorted(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [rec("p3", "b", 30), rec("p1", "a", 10),
                           rec("p2", "a", 20)])
        corpus = load_corpus(path)
        assert [p.timestamp for p in corpus.posts] == [10, 20, 30]

    def test_timestamp_tie_broken_by_post_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [rec("pz", "b", 10), rec("pa", "a", 10)])
        corpus = load_corpus(path)
        assert [p.post_id for p in corpus.posts] == ["pa", "pz"]

    def test_unknown_pos_coerced_with_warning(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [rec("p1", "a", 10,
                                body=[{"l": "mot", "p": "XYZ", "c": 0}])])
        corpus = load_corpus(path)
        assert corpus.posts[0].body_tokens[0].pos is Pos.OTHER
        assert corpus.report.pos_warnings == 1

    def test_missing_blog_id_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [rec("p1", "a", 10),
                           {"post_id": "p2", "timestamp": 20}])
        with pytest.raises(MalformedRecord) as err:
            load_corpus(path)
        assert err.value.line == 2

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"post_id": "p1", "blog_id": "a", "timestamp": 1}\nnot json\n')
        with pytest.raises(MalformedRecord) as err:
            load_corpus(path)
        assert err.value.line == 2

    def test_deeply_nested_record_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"post_id": "p1", "blog_id": "a", "timestamp": 1}\n'
                        '{"post_id": "p2", "x": ' + "[" * 100_000 + "}\n")
        with pytest.raises(MalformedRecord) as err:
            load_corpus(path)
        assert (err.value.line, err.value.reason) == (
            2, "invalid JSON (nested too deeply)")

    def test_integer_too_long_to_convert_reports_line(self, tmp_path):
        # the decoder raises a plain ValueError past 4,300 digits
        path = tmp_path / "c.jsonl"
        path.write_text('{"post_id": "p1", "blog_id": "a", "timestamp": 1}\n'
                        '{"post_id": "p2", "blog_id": "a", "timestamp": '
                        + "1" * 5000 + "}\n")
        with pytest.raises(MalformedRecord) as err:
            load_corpus(path)
        assert err.value.line == 2
        assert err.value.reason.startswith("invalid JSON (")

    @pytest.mark.parametrize("field, value", [
        (None, None), ("post_id", '"p\\ud800"'), ("blog_id", '"\\uDFFF"'),
        ("lemma", '"\\ud800t000a"'), ("tag", '"NOUN\\udbff"'),
        ("link target", '"\\ude00c"')],
        ids=["pair", "post_id", "blog_id", "lemma", "tag", "link-target"])
    def test_lone_surrogate_reports_line_and_field(self, tmp_path, field,
                                                    value):
        # only an escape writes one; an escaped pair, as in this blog id, is
        # one astral character and loads
        fields = {"post_id": '"p2"', "blog_id": '"\\ud83d\\ude00"',
                  "lemma": '"cat"', "tag": '"NOUN"', "link target": '"a"'}
        fields.update({field: value} if field else {})
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"post_id": "p1", "blog_id": "a", "timestamp": 1}\n'
            '{"post_id": %(post_id)s, "blog_id": %(blog_id)s, "timestamp": 2, '
            '"body": [{"l": %(lemma)s, "p": %(tag)s}], '
            '"links": [%(link target)s]}\n' % fields)
        if field is None:
            assert load_corpus(path).blogs == {"a", "\U0001f600"}
            return
        with pytest.raises(MalformedRecord) as err:
            load_corpus(path)
        assert (err.value.line, err.value.reason) == (
            2, f"bad {field} {json.loads(value)!r}: lone surrogate")

    def test_duplicate_post_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [rec("p1", "a", 10), rec("p1", "b", 20)])
        with pytest.raises(MalformedRecord):
            load_corpus(path)

    def test_iso_timestamp_equivalent_to_epoch(self, tmp_path):
        path = tmp_path / "c.jsonl"
        # an ISO time with no offset reads as UTC
        write_lines(path, [rec("p1", "a", "2009-10-01T00:00:00+00:00"),
                           rec("p2", "a", 1254355200),
                           rec("p3", "a", "2009-10-01T00:00:00")])
        corpus = load_corpus(path)
        assert {p.timestamp for p in corpus.posts} == {1254355200}

    def test_window_filtering_and_report(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [rec("p1", "a", 5), rec("p2", "a", 50),
                           rec("p3", "a", 500)])
        corpus = load_corpus(path, PipelineConfig(window_start=10, window_end=100))
        assert len(corpus.posts) == 1
        assert corpus.report.out_of_window == 2
        assert corpus.window == (10, 100)

    def test_inverted_window_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [rec("p1", "a", 5)])
        with pytest.raises(NonMonotonicWindow):
            load_corpus(path, PipelineConfig(window_start=100, window_end=10))

    def test_self_links_dropped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [rec("p1", "a", 10, links=["a", "b"]),
                           rec("p2", "b", 20)])
        corpus = load_corpus(path)
        assert corpus.posts[0].out_links == frozenset({"b"})
        assert corpus.report.self_links == 1

    def test_external_links_dropped_by_default(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [rec("p1", "a", 10, links=["ghost"])])
        corpus = load_corpus(path)
        assert corpus.posts[0].out_links == frozenset()
        assert corpus.report.external_links == 1
        kept = load_corpus(path, PipelineConfig(keep_external_links=True))
        assert kept.posts[0].out_links == frozenset({"ghost"})

    def test_assume_nouns(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [rec("p1", "a", 10,
                                body=[{"l": "Mot", "p": "XYZ", "c": 0}])])
        corpus = load_corpus(path, PipelineConfig(assume_nouns=True))
        token = corpus.posts[0].body_tokens[0]
        assert token.pos is Pos.NOUN and token.lemma == "mot"
        assert corpus.report.pos_warnings == 0

    def test_decreasing_chunk_index_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [rec("p1", "a", 10,
                                body=[{"l": "x", "p": "NOUN", "c": 1},
                                      {"l": "y", "p": "NOUN", "c": 0}])])
        with pytest.raises(MalformedRecord):
            load_corpus(path)

    def test_repeated_token_is_one_object_counted_each_time(self, tmp_path):
        path = tmp_path / "c.jsonl"
        raw = [{"l": " Mot", "p": "XYZ", "c": 0}, {"l": "", "p": "NOUN", "c": 0},
               {"l": "chat", "p": "noun", "c": 1}]
        write_lines(path, [rec("p1", "a", 10, body=raw),
                           rec("p2", "b", 20, body=[raw[1], raw[0], raw[2]])])
        corpus = load_corpus(path)
        (mot, chat), (mot2, chat2) = (p.body_tokens for p in corpus.posts)
        assert mot == Token("mot", Pos.OTHER, 0) and mot is mot2
        assert chat == Token("chat", Pos.NOUN, 1) and chat is chat2
        assert corpus.report.pos_warnings == 2
        assert corpus.report.empty_lemma_tokens == 2

    def test_decreasing_chunk_of_a_seen_token_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [rec("p1", "a", 10,
                                body=[{"l": "y", "p": "NOUN", "c": 0}]),
                           rec("p2", "a", 20,
                               body=[{"l": "x", "p": "NOUN", "c": 1},
                                     {"l": "y", "p": "NOUN", "c": 0}])])
        with pytest.raises(MalformedRecord) as err:
            load_corpus(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("chunk", ["one", None, [1]])
    def test_bad_chunk_index_reports_line(self, tmp_path, chunk):
        path = tmp_path / "c.jsonl"
        write_lines(path, [rec("p1", "a", 10),
                           rec("p2", "a", 20,
                               body=[{"l": "", "p": "NOUN", "c": chunk}])])
        with pytest.raises(MalformedRecord, match="chunk") as err:
            load_corpus(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity", "1e400",
                                     "null"])
    def test_non_finite_timestamp_reports_line(self, tmp_path, raw):
        # json.loads reads NaN and the infinities, and 1e400 as infinity;
        # null is neither a number nor a string
        path = tmp_path / "c.jsonl"
        path.write_text('{"post_id": "p1", "blog_id": "a", "timestamp": 1}\n'
                        '{"post_id": "p2", "blog_id": "a", "timestamp": %s}\n'
                        % raw)
        with pytest.raises(MalformedRecord, match="bad timestamp") as err:
            load_corpus(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("field, reason", [
        ("blog_id", "carriage return in blog_id"),
        ("links", "carriage return in a link target")])
    def test_carriage_return_in_blog_id_or_link_reports_line(
            self, tmp_path, field, reason):
        # the CSV artifacts end their lines with a bare newline, so an
        # unquoted carriage return would split a blog's row in two
        records, _ = generate(leader_follower_spec(
            n_blogs=10, n_topics=6, window_days=40, seed=2))
        name = "blog\r003"
        for r in records:
            if field == "blog_id" and r["blog_id"] == "blog_003":
                r["blog_id"] = name
            if field == "links":
                r["links"] = [name if t == "blog_003" else t
                              for t in r["links"]]
        first = next(line for line, r in enumerate(records, start=1)
                     if name == r["blog_id"] or name in r["links"])
        path = tmp_path / "c.jsonl"
        write_corpus(records, path)
        with pytest.raises(MalformedRecord) as err:
            load_corpus(path)
        assert (err.value.line, err.value.reason) == (first, reason)

    def test_deterministic(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [rec("p2", "b", 20, links=["a"]), rec("p1", "a", 10)])
        assert load_corpus(path) == load_corpus(path)


class TestPostCount:
    def setup_method(self):
        self.corpus = corpus_of([post(f"p{t}", "a", t) for t in (10, 20, 30)]
                                + [post("q1", "b", 15)])

    def test_inclusive_bounds(self):
        assert post_count(self.corpus, "a", 10, 30) == 3

    def test_strict_interior(self):
        assert post_count(self.corpus, "a", 11, 29) == 1

    def test_posts_given_out_of_order_are_sorted(self):
        corpus = Corpus(posts=(post("p2", "a", 20), post("p1", "a", 20),
                               post("p0", "b", 10), post("p3", "a", 5)),
                        blogs=frozenset("ab"), window=(5, 20))
        assert [p.post_id for p in corpus.posts] == ["p3", "p0", "p1", "p2"]
        assert corpus.posts_by_blog("a") == [5, 20, 20]
        assert post_count(corpus, "a", 0, 10) == 1

    def test_unknown_blog_is_zero(self):
        assert post_count(self.corpus, "nobody", 0, 100) == 0

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            post_count(self.corpus, "a", 30, 10)

    def test_counts_sum_to_total(self):
        lo, hi = self.corpus.window
        total = sum(post_count(self.corpus, b, lo, hi) for b in self.corpus.blogs)
        assert total == len(self.corpus.posts)

    def test_split_additivity(self):
        for mid in (12, 19, 25):
            left = post_count(self.corpus, "a", 10, mid)
            right = post_count(self.corpus, "a", mid + 1, 30)
            assert left + right == post_count(self.corpus, "a", 10, 30)


LEMMAS = ("Cat", " dog ", "été", "", "2", "sat")
TAGS = ("NOUN", "VERB", "ADJ", "NUM", "OTHER", "noun", "XX")
token_arrays = st.lists(
    st.tuples(st.sampled_from(LEMMAS), st.sampled_from(TAGS), st.integers(0, 3)),
    max_size=6).map(lambda raw: [{"l": lemma, "p": tag, "c": chunk}
                                 for lemma, tag, chunk
                                 in sorted(raw, key=lambda t: t[2])])
# None leaves the field out of the record
text_fields = st.one_of(st.none(), st.just([]), token_arrays)
bounds = st.one_of(st.none(), st.integers(0, 20))


@st.composite
def records_and_configs(draw):
    records = []
    for i, (blog, ts, title, body, links) in enumerate(draw(st.lists(st.tuples(
            st.sampled_from("abc"), st.integers(0, 20), text_fields, text_fields,
            st.lists(st.sampled_from(("a", "b", "c", "elsewhere")), max_size=4)),
            min_size=1, max_size=8))):
        record = {"post_id": f"p{i}", "blog_id": blog, "timestamp": ts,
                  "links": links}
        for name, tokens in (("title", title), ("body", body)):
            if tokens is not None:
                record[name] = tokens
        records.append(record)
    lo, hi = draw(bounds), draw(bounds)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    config = PipelineConfig(window_start=lo, window_end=hi,
                            keep_external_links=draw(st.booleans()),
                            assume_nouns=draw(st.booleans()))
    return records, config


def round_trip_cases(corpus) -> set[str]:
    posts, report = corpus.posts, corpus.report
    cases = {
        "post without title or body tokens": any(
            not p.title_tokens and not p.body_tokens for p in posts),
        "title and body tokens": any(
            p.title_tokens and p.body_tokens for p in posts),
        "several chunks": any(
            len({t.chunk for t in p.body_tokens}) > 1 for p in posts),
        "self link dropped": report.self_links > 0,
        "external link dropped": report.external_links > 0,
        "external link kept": any(
            p.out_links - corpus.blogs for p in posts),
        "empty lemma dropped": report.empty_lemma_tokens > 0,
        "unknown tag coerced": report.pos_warnings > 0,
    }
    return {case for case, holds in cases.items() if holds}


def test_written_corpus_loads_back_equal():
    covered = set()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"

        @settings(max_examples=150, deadline=None)
        @given(records_and_configs())
        def check(case):
            records, config = case
            try:
                corpus = corpus_from_records(enumerate(records, start=1), config)
            except EmptyCorpus:
                reject()
            write_posts(corpus, path)
            written = path.read_bytes()
            reloaded = load_corpus(path, config)
            assert reloaded.posts == corpus.posts
            assert reloaded.blogs == corpus.blogs
            assert reloaded.window == corpus.window
            assert all(type(t) is Token for p in reloaded.posts
                       for t in p.title_tokens + p.body_tokens)
            write_posts(reloaded, path)
            assert path.read_bytes() == written
            covered.update(round_trip_cases(corpus))

        check()
    assert covered == {"post without title or body tokens",
                       "title and body tokens", "several chunks",
                       "self link dropped", "external link dropped",
                       "external link kept", "empty lemma dropped",
                       "unknown tag coerced"}


@st.composite
def written_corpora(draw):
    """Posts with ids, lemmas and links drawn from JSON-tricky text; the
    lemmas come from a small pool, so tokens repeat across posts."""
    lemmas = draw(st.lists(json_text, min_size=1, max_size=4))
    tokens = st.lists(st.tuples(st.sampled_from(lemmas), st.sampled_from(Pos),
                                st.integers(0, 3)), max_size=5).map(
        lambda raw: [Token(*t) for t in sorted(raw, key=lambda t: t[2])])
    return corpus_of([
        post(f"{draw(json_text)}#{i}", draw(json_text),
             draw(st.integers(-2 ** 40, 2 ** 40)), body=draw(tokens),
             title=draw(tokens), links=set(draw(st.lists(json_text,
                                                         max_size=4))))
        for i in range(draw(st.integers(1, 6)))])


def written_cases(corpus) -> set[str]:
    posts = corpus.posts
    texts = "".join(p.post_id + p.blog_id + "".join(p.out_links) + "".join(
        t.lemma for t in p.title_tokens + p.body_tokens) for p in posts)
    cases = {
        "empty title or body": any(
            not p.title_tokens or not p.body_tokens for p in posts),
        "several chunks": any(
            len({t.chunk for t in p.body_tokens}) > 1 for p in posts),
        "no links": any(not p.out_links for p in posts),
        "several links": any(len(p.out_links) > 1 for p in posts),
        "repeated token": any(
            len(p.body_tokens) > len(set(p.body_tokens)) for p in posts),
    }
    cases.update({f"text with {c!r}": c in texts
                  for c in ('"', "\\", "\x00", "\u2028", "é")})
    return {case for case, holds in cases.items() if holds}


def raw_tokens_of(tokens) -> list[dict]:
    return [{"l": t.lemma, "p": t.pos.value, "c": t.chunk} for t in tokens]


def test_written_corpus_lines_equal_the_json_dumps_reference():
    covered = set()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"

        @settings(max_examples=200, deadline=None)
        @given(written_corpora())
        def check(corpus):
            expected = "".join(reference_corpus_line(p) for p in corpus.posts)
            write_posts(corpus, path)
            assert path.read_text(encoding="utf-8") == expected
            # the same posts as synth records, with token dicts and tag names
            write_corpus([{"post_id": p.post_id, "blog_id": p.blog_id,
                           "timestamp": p.timestamp,
                           "title": raw_tokens_of(p.title_tokens),
                           "body": raw_tokens_of(p.body_tokens),
                           "links": sorted(p.out_links)}
                          for p in corpus.posts], path)
            assert path.read_text(encoding="utf-8") == expected
            covered.update(written_cases(corpus))

        check()
    assert covered == {"empty title or body", "several chunks", "no links",
                       "several links", "repeated token",
                       "text with '\"'", "text with '\\\\'",
                       "text with '\\x00'", "text with '\\u2028'",
                       "text with 'é'"}


# raw token values the loader accepts: text to normalise, unknown tags, an
# empty lemma, and chunks beyond 64 bits
RAW = {"l": ["Cat", " dog ", "", "1", "été"],
       "p": ["NOUN", "verb", "XX", ""],
       "c": [0, 1, 1, -3, 2 ** 70, -2 ** 70]}
# values for one field of the last record: the faults, and values next to
# them that load.  A lemma, tag or chunk value goes into one token; these
# are all faults, among them each value the loader once converted (a null
# lemma to "none", a chunk of 2.5 to 2, "1" or true to 1)
FAULTS = {"post_id": ["", 7, "p\ud800"], "blog_id": ["", 5, "a\rb", "\udfff"],
          "timestamp": [1.5, True, float("nan"), "2020-01-01T00:00:00Z", "bad"],
          "links": [None, "a", 0, {}, False, ["a", 3], ["b", None],
                    ["b", "\r"], ["b", "\udc00c"]],
          "title": [None, "cat"], "token": ["cat", 3, None],
          "lemma": [None, 1, 1.0, True, ["cat"], "c\ud800t"],
          "tag": [None, 1, True, ["NOUN"], "\udbff"],
          "chunk": [1.0, True, 2.5, "1", "x", None, [1], float("nan"),
                    float("inf")]}
TOKEN_KEYS = {"lemma": "l", "tag": "p", "chunk": "c"}


@st.composite
def raw_tokens(draw):
    """A token object of RAW values, with at most one key left out."""
    item = {key: draw(st.sampled_from(values)) for key, values in RAW.items()}
    for key in draw(st.sets(st.sampled_from("lpc"), max_size=1)):
        del item[key]
    return item


@st.composite
def raw_records(draw, fault):
    """Loadable records; with a fault, the last one has it, so that the
    records before it load and the fault is met."""
    records = []
    token_arrays = st.lists(raw_tokens(), max_size=5).map(
        lambda tokens: sorted(tokens, key=lambda t: t.get("c", 0)))
    n = draw(st.integers(2 if fault == "duplicate" else 1, 5))
    for i in range(n):
        record = {"post_id": f"p{i}", "blog_id": draw(st.sampled_from("ab")),
                  "timestamp": draw(st.sampled_from(range(0, 21, 4))),
                  "links": draw(st.sampled_from([[], ["a"], ["b", "c"]])),
                  "title": draw(token_arrays), "body": draw(token_arrays)}
        records.append(record)
    tokens = record[draw(st.sampled_from(["title", "body"]))]
    if fault == "duplicate":
        record["post_id"] = "p0"
    elif fault == "missing":
        del record[draw(st.sampled_from(sorted(record)))]
    elif fault == "decreasing":
        tokens += [{"l": "late", "c": 2 ** 71}, {"l": "early", "c": -2 ** 71}]
    elif fault == "token" or fault in TOKEN_KEYS:
        bad = draw(st.sampled_from(FAULTS[fault]))
        if fault in TOKEN_KEYS:
            bad = {**draw(raw_tokens()), TOKEN_KEYS[fault]: bad}
        tokens.insert(draw(st.integers(0, len(tokens))), bad)
    elif fault is not None:
        record[fault] = draw(st.sampled_from(FAULTS[fault]))
    lo, hi = draw(bounds), draw(bounds)
    config = PipelineConfig(window_start=lo, window_end=hi,
                            keep_external_links=draw(st.booleans()),
                            assume_nouns=draw(st.booleans()))
    return records, config


def load_outcome(load, records, config):
    """The corpus a loader returns, or the class and details of its error."""
    try:
        return load(enumerate(records, start=1), config)
    except MalformedRecord as exc:
        return MalformedRecord, exc.line, exc.reason
    except (EmptyCorpus, NonMonotonicWindow) as exc:
        return type(exc), str(exc)


def raw_load_cases(records) -> set[str]:
    """The token cases among the records, taken in order.  A token's raw
    values count as cached when an earlier token had equal ones, of exactly
    the types (str, str, int)."""
    cases, cached = set(), set()
    tag_names = {pos.value for pos in Pos}
    for record in records:
        for field in ("title", "body"):
            items = record.get(field)
            for item in items if isinstance(items, list) else ():
                if not isinstance(item, dict):
                    continue
                lemma, tag, chunk = raw = (item.get("l", ""), item.get("p", ""),
                                           item.get("c", 0))
                texts = isinstance(lemma, str) and isinstance(tag, str)
                exact = texts and type(chunk) is int
                cases.update(case for case, holds in {
                    "token key left out": len(item) < 3,
                    "empty lemma": isinstance(lemma, str) and not lemma.strip(),
                    "unknown tag": (isinstance(tag, str)
                                    and tag.upper() not in tag_names),
                    "chunk beyond 64 bits": exact and abs(chunk) >= 2 ** 63,
                    "repeated raw token": exact and raw in cached,
                    "non-integer chunk equal to a cached one": (
                        texts and not exact
                        and isinstance(chunk, (int, float)) and raw in cached),
                }.items() if holds)
                if exact:
                    cached.add(raw)
    return cases


def example_records(*bodies):
    """Records of blog a, 4 s apart, with these bodies and no title."""
    return [{"post_id": f"p{i}", "blog_id": "a", "timestamp": 4 * i,
             "links": [], "title": [], "body": body}
            for i, body in enumerate(bodies)], PipelineConfig()


# records that cover each fault's cases, whatever the random draws
EXAMPLES = {
    None: [example_records(
        [{"l": "", "p": "NOUN", "c": 0}, {"p": "verb", "c": 2 ** 70}],
        [{"l": " Cat", "p": "XX", "c": 1}, {"l": " Cat", "p": "XX", "c": 1}])],
    "chunk": [example_records([{"l": "x", "p": "NOUN", "c": 1}],
                              [{"l": "x", "p": "NOUN", "c": bad}])
              for bad in (1.0, True)],
}
COVERED = {None: {"token key left out", "empty lemma", "unknown tag",
                  "chunk beyond 64 bits", "repeated raw token"},
           "chunk": {"non-integer chunk equal to a cached one"}}


@pytest.mark.parametrize("fault", [None, "decreasing", "duplicate", "missing",
                                   *FAULTS])
def test_loader_equals_reference_on_raw_records(fault):
    covered = set()

    def check(case):
        records, config = case
        outcome = load_outcome(corpus_from_records, records, config)
        expected = load_outcome(reference_corpus_from_records, records, config)
        assert outcome == expected
        if fault in TOKEN_KEYS and outcome[0] is not NonMonotonicWindow:
            assert outcome[:2] == (MalformedRecord, len(records))
            assert outcome[2].startswith(f"bad {fault} ")
        if not isinstance(outcome, tuple):
            assert outcome.report == expected.report
            assert all(type(t.chunk) is int for p in outcome.posts
                       for t in p.title_tokens + p.body_tokens)
        covered.update(raw_load_cases(records))

    check = given(raw_records(fault))(check)
    for case in EXAMPLES.get(fault, ()):
        check = example(case)(check)
    settings(max_examples=150 if fault is None else 15, deadline=None)(check)()
    assert COVERED.get(fault, set()) <= covered


@pytest.mark.parametrize("pos", list(Pos))
def test_token_equals_and_hashes_as_its_raw_values(pos):
    # write_records keys one encoding cache by either form
    raw = ("été", pos.value, 2 ** 70)
    assert Token("été", pos, 2 ** 70) == raw
    assert hash(Token("été", pos, 2 ** 70)) == hash(raw)


def records_outcome(read, path):
    """What a record reader yields from a file, as text (a NaN equals
    itself there), or the line and reason of its error."""
    try:
        return repr(list(read(path)))
    except MalformedRecord as exc:
        return exc.line, exc.reason


RECORD = '{"post_id": "p1", "blog_id": "a", "timestamp": 1}'


@pytest.mark.parametrize("line, reason", [
    (RECORD + " x", "invalid JSON (Extra data)"),
    (RECORD + RECORD, "invalid JSON (Extra data)"),
    (RECORD + " " + RECORD, "invalid JSON (Extra data)"),
    ("\ufeff" + RECORD, "invalid JSON (Unexpected UTF-8 BOM (decode using "
                        "utf-8-sig))"),
    *((pad + RECORD + pad, None) for pad in ("\x0b", "\x0c", "\xa0", "\u2028",
                                             " \t\x0b\r")),
    *((RECORD.replace(" ", pad), "invalid JSON (Expecting value)")
      for pad in ("\x0b", "\x0c", "\xa0", "\u2028")),
    ("NaN", "object expected"),
    ('{"post_id": "p1", "blog_id": "a", "timestamp": NaN}', None),
    ("[1, 2]", "object expected"),
    ("[" + RECORD + "]", "object expected"),
    ('{"post_id": "p1", "blog_id": "a"', "invalid JSON (Expecting ',' "
                                         "delimiter)")])
def test_records_read_as_json_loads_reads_them(tmp_path, line, reason):
    path = tmp_path / "c.jsonl"
    path.write_text('{"post_id": "p0", "blog_id": "a", "timestamp": 0}\n'
                    + line + "\n", encoding="utf-8")
    outcome = records_outcome(iter_records, path)
    assert outcome == records_outcome(reference_iter_records, path)
    if reason is not None:
        assert outcome == (2, reason)


# pieces of JSON records, and the whitespace that JSON or str.strip skips
FRAGMENTS = st.sampled_from([RECORD, "{", "}", "[", "]", '"a"', ":", ",", "1",
                             "NaN", "-Infinity", "1e999", "x", " ", "\t",
                             "\r", "\x0b", "\x0c", "\xa0", "\u2028",
                             "\x1c", "\ufeff"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(FRAGMENTS, max_size=6).map("".join), max_size=4))
def test_records_read_as_json_loads_reads_any_line(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        path.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
        assert (records_outcome(iter_records, path)
                == records_outcome(reference_iter_records, path))
