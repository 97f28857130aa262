import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from precursor.config import PipelineConfig
from precursor.corpus import Pos
from precursor.ngrams import (Ngram, Occurrence, run_heads,
                              _Windows, build_index, default_stopwords,
                              load_stopwords)
from precursor.pipeline import read_index_artifact, write_index_artifact

from conftest import (brute_force_index, brute_force_windows, corpus_of,
                      ngram_of, post, reference_build_index, reference_collapse,
                      tok)


def lemma_sets(ngrams):
    return {" ".join(n.lemmas) for n in ngrams}


CFG = dict(max_len=PipelineConfig.max_ngram_len,
           stopwords=frozenset({"stop"}))


def post_ngrams(p, config):
    """The n-grams of one post under the filter rules, deduplicated, each
    with the words of its first window in the post."""
    windows = _Windows((p,), **config)
    return {ngram for length, starts, rank in windows.by_length()
            for ngram in windows.ngrams(starts[run_heads(rank)], length)}


class TestEnumerate:
    def test_non_content_tokens_dropped(self):
        p = post("p1", "a", 0, body=[tok("le", "OTHER"), tok("grand", "ADJ"),
                                     tok("débat", "NOUN")])
        assert lemma_sets(post_ngrams(p, CFG)) == {"grand débat"}

    def test_paper_example_three_windows(self):
        p = post("p1", "a", 0, body=[tok("apporter", "VERB"),
                                     tok("contribution", "NOUN"),
                                     tok("débat", "NOUN")])
        assert lemma_sets(post_ngrams(p, CFG)) == {
            "apporter contribution", "contribution débat",
            "apporter contribution débat"}

    def test_no_noun_no_ngram(self):
        p = post("p1", "a", 0, body=[tok("courir", "VERB"), tok("vite", "OTHER")])
        assert post_ngrams(p, CFG) == set()

    def test_stopword_blocks_window(self):
        p = post("p1", "a", 0, body=[tok("stop"), tok("mot"), tok("idée")])
        assert lemma_sets(post_ngrams(p, CFG)) == {"mot idée"}

    def test_max_len_cap(self):
        body = [tok(f"w{i}") for i in range(6)]
        found = post_ngrams(post("p1", "a", 0, body=body),
                            dict(max_len=3, stopwords=frozenset()))
        assert max(len(n) for n in found) == 3
        assert min(len(n) for n in found) == 2

    def test_chunks_are_independent(self):
        p = post("p1", "a", 0, body=[tok("un", chunk=0), tok("deux", chunk=1)])
        assert post_ngrams(p, CFG) == set()

    def test_title_is_its_own_chunk(self):
        p = post("p1", "a", 0, title=[tok("titre"), tok("mot")],
                 body=[tok("corps")])
        assert lemma_sets(post_ngrams(p, CFG)) == {"titre mot"}

    def test_duplicates_collapse_within_post(self):
        body = [tok("a", chunk=0), tok("b", chunk=0),
                tok("a", chunk=1), tok("b", chunk=1)]
        found = post_ngrams(post("p1", "a", 0, body=body), CFG)
        assert lemma_sets(found) == {"a b"}
        assert len(found) == 1

    def test_dropping_makes_survivors_adjacent(self):
        body = [tok("un"), tok("et", "OTHER"), tok("deux")]
        assert lemma_sets(post_ngrams(post("p1", "a", 0, body=body),
                                      CFG)) == {"un deux"}

    def test_duplicate_keeps_the_tags_of_its_first_window(self):
        body = [tok("mot", "VERB", 0), tok("clé", "NOUN", 0),
                tok("mot", "NOUN", 1), tok("clé", "NOUN", 1)]
        found = post_ngrams(post("p1", "a", 0, body=body), CFG)
        assert [n.words for n in found] == [(("mot", Pos.VERB),
                                             ("clé", Pos.NOUN))]


class TestNgramIdentity:
    def test_equality_ignores_pos(self):
        a = Ngram((("mot", Pos.NOUN), ("clé", Pos.NOUN)))
        b = Ngram((("mot", Pos.VERB), ("clé", Pos.NOUN)))
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1  # a dict keyed by one tag variant finds the other

    def test_inequality(self):
        assert ngram_of("a", "b") != ngram_of("b", "a")
        ngram = ngram_of("mot", "clé")
        # not equal to its own lemma tuple, which gets NotImplemented
        assert ngram != ("mot", "clé") and ("mot", "clé") != ngram
        assert ngram.__eq__(("mot", "clé")) is NotImplemented

    def test_lemmas_are_built_once(self):
        ngram = Ngram((("mot", Pos.NOUN), ("clé", Pos.NOUN)))
        assert ngram.lemmas == ("mot", "clé")
        assert ngram.lemmas is ngram.lemmas


class TestStopwords:
    def test_default_list_contains_calendar_words(self):
        words = default_stopwords()
        assert {"january", "décembre", "lundi", "christmas"} <= words

    def test_load_stopwords_file(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_text("# comment\nmot\n\nIdée\n", encoding="utf-8")
        assert load_stopwords(path) == {"mot", "idée"}


class TestBuildIndex:
    def test_same_blog_runs_collapse_to_earliest(self):
        posts = [post(f"p{i}", blog, t, body=[tok("un"), tok("deux")])
                 for i, (blog, t) in enumerate(
                     [("A", 1), ("A", 2), ("B", 3), ("B", 4), ("A", 5)])]
        index = build_index(corpus_of(posts), **CFG, min_blogs=2)
        occs = index[ngram_of("un", "deux")]
        assert [(o.blog_id, o.timestamp) for o in occs] == [
            ("A", 1), ("B", 3), ("A", 5)]

    def test_single_occurrence_removed(self):
        posts = [post("p1", "A", 1, body=[tok("un"), tok("deux")]),
                 post("p2", "A", 2, body=[tok("trois"), tok("quatre")]),
                 post("p3", "B", 3, body=[tok("trois"), tok("quatre")])]
        index = build_index(corpus_of(posts), **CFG, min_blogs=1)
        assert ngram_of("un", "deux") not in index
        assert ngram_of("trois", "quatre") in index

    def test_timestamp_tie_broken_by_post_id(self):
        posts = [post("pb", "B", 1, body=[tok("un"), tok("deux")]),
                 post("pa", "A", 1, body=[tok("un"), tok("deux")])]
        index = build_index(corpus_of(posts), **CFG, min_blogs=2)
        occs = index[ngram_of("un", "deux")]
        assert [o.blog_id for o in occs] == ["A", "B"]

    def test_min_blogs_counts_distinct_blogs_not_occurrences(self):
        # four occurrences after the collapse, from three blogs
        posts = [post(f"p{i}", blog, i, body=[tok("un"), tok("deux")])
                 for i, blog in enumerate("ABAC")]
        assert [o.blog_id for o in build_index(
            corpus_of(posts), **CFG, min_blogs=3)[ngram_of("un", "deux")]
                ] == list("ABAC")
        assert build_index(corpus_of(posts), **CFG, min_blogs=4) == {}
        # the default is the pipeline's
        assert build_index(corpus_of(posts), **CFG) == {}

    def test_collapse_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            occs = [Occurrence(int(t), f"b{rng.integers(3)}", f"p{i}")
                    for i, t in enumerate(sorted(rng.integers(0, 100, 12)))]
            once = reference_collapse(occs)
            assert reference_collapse(once) == once


class TestIndexProperties:
    def test_random_corpora_satisfy_rules(self):
        rng = np.random.default_rng(42)
        stop = frozenset({"w3"})
        cfg = dict(max_len=4, stopwords=stop, min_blogs=2)
        pos_pool = ["NOUN", "VERB", "ADJ", "NUM", "OTHER"]
        for trial in range(10):
            posts = []
            for i in range(30):
                body = [tok(f"w{rng.integers(8)}", pos_pool[rng.integers(5)],
                            chunk=int(rng.integers(2)))
                        for _ in range(rng.integers(2, 8))]
                body.sort(key=lambda t: t.chunk)
                posts.append(post(f"p{trial}_{i}", f"b{rng.integers(4)}",
                                  int(rng.integers(0, 1000)), body=body))
            corpus = corpus_of(posts)
            index = build_index(corpus, **cfg)
            lo, hi = corpus.window
            for ngram, occs in index.items():
                assert 2 <= len(ngram) <= 4
                assert any(pos is Pos.NOUN for _, pos in ngram.words)
                assert all(pos in {Pos.NOUN, Pos.VERB, Pos.ADJ, Pos.NUM}
                           for _, pos in ngram.words)
                assert not (set(ngram.lemmas) & stop)
                assert len(occs) >= 2
                assert len({o.blog_id for o in occs}) >= 2
                for a, b in zip(occs, occs[1:]):
                    assert a.blog_id != b.blog_id
                    assert a.timestamp <= b.timestamp
                assert all(lo <= o.timestamp <= hi for o in occs)


VOCAB = ("w0", "w1", "w2")
TAGS = ("NOUN", "NOUN", "VERB", "NUM", "OTHER")


# chunk values in any order, negative, and beyond 64 bits; equal values
# next to each other form one chunk
CHUNKS = (-3, 0, 1, 2 ** 70, 2 ** 70 + 1, -2 ** 70)
token_streams = st.lists(
    st.tuples(st.sampled_from(CHUNKS), st.lists(
        st.tuples(st.sampled_from(VOCAB), st.sampled_from(TAGS)), max_size=8)),
    max_size=3).map(lambda segments: [tok(lemma, tag, chunk)
                                      for chunk, words in segments
                                      for lemma, tag in words])


@st.composite
def corpora_and_configs(draw):
    """Posts whose titles and bodies are often copied from other posts, so
    that long n-grams recur, the windowing config and a `min_blogs`."""
    pool = draw(st.lists(token_streams, min_size=1, max_size=3))
    streams = st.one_of(token_streams, st.sampled_from(pool))
    posts = [post(f"p{i}", blog, ts, title=title, body=body)
             for i, (blog, ts, title, body) in enumerate(draw(st.lists(
                 st.tuples(st.sampled_from("abc"), st.integers(0, 9),
                           streams, streams),
                 min_size=1, max_size=8)))]
    config = dict(max_len=draw(st.integers(1, 8)), stopwords=frozenset(
        draw(st.sets(st.sampled_from(VOCAB), max_size=1))))
    return corpus_of(posts), config, draw(st.integers(1, 6))


def index_coverage(corpus, config, min_blogs, index) -> set[str]:
    """Which of the cases the index property must meet this example has."""
    first_taggings, taggings_in_one_post, posts = {}, set(), {}
    for p in corpus.posts:
        here = {}
        for words in brute_force_windows(p, **config):
            here.setdefault(tuple(lemma for lemma, _ in words), []).append(words)
        for lemmas, windows in here.items():
            first_taggings.setdefault(lemmas, set()).add(windows[0])
            posts.setdefault(lemmas, []).append(p)
            if len(set(windows)) > 1:
                taggings_in_one_post.add(lemmas)
    kept = {n.lemmas: occs for n, occs in index.items()}
    chunks = [[t.chunk for t in s] for p in corpus.posts
              for s in (p.title_tokens, p.body_tokens)]
    cases = {
        "chunk value beyond 64 bits": any(abs(c) >= 2 ** 63
                                          for s in chunks for c in s),
        "negative chunk value": any(c < 0 for s in chunks for c in s),
        "decreasing chunk values": any(a > b for s in chunks
                                       for a, b in zip(s, s[1:])),
        "kept n-gram longer than 5": any(len(n) > 5 for n in index),
        "max_len 1": config["max_len"] == 1,
        "kept n-gram tagged differently in another post": any(
            len(first_taggings[lemmas]) > 1 for lemmas in kept),
        "kept n-gram tagged two ways in one post": any(
            lemmas in taggings_in_one_post for lemmas in kept),
        "same-blog run collapsed": any(
            len(occs) < len(posts[lemmas]) for lemmas, occs in kept.items()),
        "n-gram dropped by the collapse": any(
            lemmas not in kept and len(found) > 1
            and len({p.blog_id for p in found}) == 1
            for lemmas, found in posts.items()),
        "n-gram dropped for too few blogs": any(
            lemmas not in kept and 1 < len({p.blog_id for p in found})
            < min_blogs for lemmas, found in posts.items()),
        "kept n-gram at min_blogs 3": min_blogs == 3 and bool(kept),
    }
    return {case for case, holds in cases.items() if holds}


INDEX_CASES = {"chunk value beyond 64 bits", "negative chunk value",
               "decreasing chunk values", "kept n-gram longer than 5",
               "max_len 1", "kept n-gram tagged differently in another post",
               "kept n-gram tagged two ways in one post",
               "same-blog run collapsed", "n-gram dropped by the collapse",
               "n-gram dropped for too few blogs", "kept n-gram at min_blogs 3"}


def first_windows(p, config):
    """Lemma tuple -> words of its first window in the post."""
    found = {}
    for words in brute_force_windows(p, **config):
        found.setdefault(tuple(lemma for lemma, _ in words), words)
    return found


def index_table(index):
    """The index with each n-gram's words made part of what is compared."""
    return {ngram.lemmas: (ngram.words, occs) for ngram, occs in index.items()}


def test_index_equals_brute_force_index():
    covered = set()
    with tempfile.TemporaryDirectory() as tmp:
        fast_path, slow_path = Path(tmp) / "fast.jsonl", Path(tmp) / "slow.jsonl"

        @settings(max_examples=300, deadline=None)
        @given(corpora_and_configs())
        # six-lemma n-grams in all three blogs, kept at min_blogs 3: the
        # draws reach each case in only 6 to 8 runs of 10
        @example((corpus_of([post(f"p{i}", blog, i, body=[
            tok(f"w{k % 3}") for k in range(6)]) for i, blog in enumerate("abc")]),
                  dict(max_len=8, stopwords=frozenset()), 3))
        def check(case):
            corpus, config, min_blogs = case
            index = build_index(corpus, **config, min_blogs=min_blogs)
            expected = brute_force_index(corpus, **config, min_blogs=min_blogs)
            assert index_table(index) == index_table(expected)
            # in lemma order, each n-gram with its first-seen window's words
            reference = reference_build_index(corpus, **config,
                                              min_blogs=min_blogs)
            assert [(n.words, occs) for n, occs in index.items()] == [
                (n.words, reference[n])
                for n in sorted(reference, key=lambda n: n.lemmas)]
            for p in corpus.posts:
                assert {n.lemmas: n.words for n in post_ngrams(p, config)
                        } == first_windows(p, config)
            write_index_artifact(index, fast_path, min_blogs)
            write_index_artifact(expected, slow_path, min_blogs)
            assert fast_path.read_bytes() == slow_path.read_bytes()
            # a bursts stage run on its own gets the index in this order
            header, read = read_index_artifact(fast_path)
            assert header == min_blogs
            assert [(n.words, occs) for n, occs in index.items()] == [
                (n.words, occs) for n, occs in read.items()]
            covered.update(index_coverage(corpus, config, min_blogs, index))

        check()
    assert covered == INDEX_CASES
