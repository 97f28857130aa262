import argparse
import csv
import gc
import json
import logging
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import astuple, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from precursor import cli
from precursor.cli import main
from precursor.config import PipelineConfig, build_config, parse_config_file
from precursor.corpus import (DAY, HOUR, MalformedRecord, Pos,
                              corpus_from_records, load_corpus)
from precursor.ngrams import Ngram, Occurrence, build_index
from precursor.bursts import Burst, detect_all, filter_bursts
from precursor.scoring import eligible_blogs, score_shared_dyads
from precursor.pipeline import (STAGES, StageError, read_bursts_artifact,
                                read_index_artifact, read_topics_artifact,
                                run_pipeline, run_synth, write_bursts_artifact,
                                write_index_artifact, write_topics_artifact)
from precursor.synth import SynthSpec, blog_ids, generate, leader_follower_spec
from precursor.topics import Topic, merge_bursts
from precursor import pipeline, synth

from conftest import (JSON_ODD, dyad_rows, json_text, ngram_of,
                      reference_burst_line, reference_collapse, reference_csv,
                      reference_index_line, reference_topic_line)


@pytest.fixture(scope="module")
def small_corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("synth") / "corpus.jsonl"
    spec = leader_follower_spec(n_blogs=8, n_topics=3, window_days=30,
                                base_rate=0.6, seed=5)
    records, _ = generate(spec)
    synth.write_corpus(records, path)
    return path


def eligible_from_artifact(workdir, min_posts=7):
    """Blogs with at least min_posts lines in the workdir's corpus.jsonl."""
    with open(workdir / "corpus.jsonl", encoding="utf-8") as fh:
        counts = Counter(json.loads(line)["blog_id"] for line in fh)
    return sorted(b for b, n in counts.items() if n >= min_posts)


def run_all(corpus_file, workdir, jobs=1, seed=1):
    cfg = PipelineConfig(input=str(corpus_file), workdir=str(workdir),
                         seed=seed, jobs=jobs)
    run_pipeline(cfg)
    return workdir


# a full run, and the report stage alone as it is rebuilt on a finished run
COMMANDS = {"run": ["run"], "report": ["run", "--stages", "report"]}


class TestConfig:
    def test_parse_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alpha = 7.5\nkeep-singletons = true\n"
                        "# comment\nmin_blogs = 3\n")
        cfg = build_config(path, {"min_blogs": 6, "seed": None})
        assert cfg.alpha == 7.5
        assert cfg.keep_singletons is True
        assert cfg.min_blogs == 6  # CLI overrides file

    @pytest.mark.parametrize("key", ["likelihood_variant",
                                     "likelihood-variant"])
    def test_removed_variant_key_rejected(self, tmp_path, key):
        # the paper's likelihood is the only one; the key that chose
        # between two is refused, not ignored, in either spelling
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = verbatim\n")
        with pytest.raises(ValueError,
                           match="unknown option 'likelihood_variant'"):
            build_config(path)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_removed_variant_flag_rejected(self, captured_configs, command):
        with pytest.raises(SystemExit) as exc:
            main([*COMMANDS[command], "--likelihood-variant", "verbatim"])
        assert exc.value.code == 2 and not captured_configs

    @pytest.mark.parametrize("name, bad, good", [
        ("alpha", 0.0, 0.5), ("beta_days", -1.0, 0.1),
        ("damping", 1.0, 0.99), ("damping", 0.0, 0.01),
        ("bins", 0, 1), ("hex_grid", 0, 1), ("max_ngram_len", 0, 1),
        ("min_posts", 0, 1), ("min_blogs", 0, 1), ("min_blogs", -3, 1),
        ("min_mean_gap_hours", -0.5, 0.0), ("max_mean_gap_days", 0.0, 0.1),
        ("min_burst_days", -1.0, 0.0), ("max_total_burst_days", 0.0, 0.5),
        ("max_total_burst_days", -1.0, 0.5)])
    def test_out_of_range_values_rejected(self, name, bad, good):
        with pytest.raises(ValueError, match=name):
            build_config(overrides={name: bad})
        assert getattr(build_config(overrides={name: good}), name) == good

    def test_inverted_window_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="window_start"):
            build_config(overrides={"window_start": 10, "window_end": 5})
        path = tmp_path / "run.cfg"
        path.write_text("window_end = 5\n")
        with pytest.raises(ValueError, match="window_start"):
            build_config(path, {"window_start": 6})
        for start, end in ((5, 5), (4, 5), (10, None), (None, -3)):
            cfg = build_config(overrides={"window_start": start,
                                          "window_end": end})
            assert (cfg.window_start, cfg.window_end) == (start, end)

    def test_out_of_range_value_in_file_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alpha = -2\n")
        with pytest.raises(ValueError, match="alpha"):
            build_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("no_such_option = 1\n")
        with pytest.raises(ValueError):
            parse_config_file(path)

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alpha = 7.5\nbins 3\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:2: expected key = value")):
            parse_config_file(path)

    @pytest.mark.parametrize("key, raw", [("alpha", "abc"), ("bins", "2.5"),
                                          ("log_bins", "maybe")])
    def test_badly_typed_value_names_file_line_and_key(self, tmp_path, key,
                                                       raw):
        path = tmp_path / "run.cfg"
        path.write_text(f"# comment\n\nbeta_days = 2\n{key} = {raw}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: {key}: ")):
            parse_config_file(path)


FIELD_NAMES = [f.name for f in fields(PipelineConfig)]


def field_type(name):
    """The declared type of a PipelineConfig field, with None stripped."""
    hint = get_type_hints(PipelineConfig)[name]
    return next((a for a in get_args(hint) if a is not type(None)), hint)


def sample_value(name):
    """(text, value): a valid non-default setting of the field."""
    return {bool: ("true", True), int: ("3", 3), float: ("0.5", 0.5),
            str: ("x", "x")}[field_type(name)]


@pytest.fixture
def captured_configs(monkeypatch, restore_log_level):
    """The configs that `main` hands to run_pipeline, which does nothing."""
    configs = []
    monkeypatch.setattr(cli, "run_pipeline",
                        lambda cfg, **kwargs: configs.append(cfg))
    return configs


class TestConfigSurface:
    """Every PipelineConfig field is settable from `run` and from
    `run --stages report` as --kebab-name, and from a config file as
    snake_name or kebab-name, with the field's type."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_flags_give_defaults(self, command, captured_configs):
        assert main(COMMANDS[command]) == 0
        assert captured_configs == [PipelineConfig()]

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("name", FIELD_NAMES)
    def test_flag_sets_typed_value(self, command, name, captured_configs):
        flag = "--" + name.replace("_", "-")
        text, value = sample_value(name)
        argv = [*COMMANDS[command], flag]
        if value is not True:
            argv.append(text)
        assert main(argv) == 0
        cfg, = captured_configs
        assert type(getattr(cfg, name)) is type(value)
        assert cfg == replace(PipelineConfig(), **{name: value})
        assert cfg != PipelineConfig()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("name", [n for n in FIELD_NAMES
                                      if field_type(n) is bool])
    def test_bool_flag_takes_no_value(self, command, name, captured_configs):
        with pytest.raises(SystemExit) as exc:
            main([*COMMANDS[command], "--" + name.replace("_", "-"), "false"])
        assert exc.value.code == 2 and not captured_configs

    @pytest.mark.parametrize("spelling", ["snake", "kebab"])
    @pytest.mark.parametrize("name", FIELD_NAMES)
    def test_config_file_sets_typed_value(self, tmp_path, name, spelling):
        key = name if spelling == "snake" else name.replace("_", "-")
        text, value = sample_value(name)
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {text}\n")
        parsed = parse_config_file(path)
        assert parsed == {name: value}
        assert type(parsed[name]) is type(value)
        assert build_config(path) == replace(PipelineConfig(), **{name: value})

    @pytest.mark.parametrize("name", [n for n in FIELD_NAMES
                                      if field_type(n) is bool])
    def test_config_file_bool_spellings(self, tmp_path, name):
        path = tmp_path / "run.cfg"
        for words, value in ((("1", "true", "Yes", "ON"), True),
                             (("0", "False", "no", "off"), False)):
            for word in words:
                path.write_text(f"{name} = {word}\n")
                assert parse_config_file(path) == {name: value}
        path.write_text(f"{name} = maybe\n")
        with pytest.raises(ValueError, match=name):
            parse_config_file(path)


class TestArtifacts:
    def test_round_trips(self, small_corpus_file, tmp_path):
        corpus = load_corpus(small_corpus_file)
        index = build_index(corpus)
        path = tmp_path / "index.jsonl"
        write_index_artifact(index, path, 4)
        assert read_index_artifact(path) == (4, index)

        bursts = filter_bursts(detect_all(index))
        bpath = tmp_path / "bursts.jsonl"
        write_bursts_artifact(bursts, bpath)
        assert read_bursts_artifact(bpath) == bursts

        topics = merge_bursts(bursts)
        tpath = tmp_path / "topics.jsonl"
        write_topics_artifact(topics, tpath)
        assert read_topics_artifact(tpath) == topics

    def test_failed_write_keeps_the_old_artifact_and_no_temp_file(
            self, tmp_path):
        path = tmp_path / "x.csv"
        pipeline._write_csv(path, ["blog_id", "P"], [["a", 0.5]])
        before = path.read_bytes()

        def failing(fh):
            fh.write("blog_id,P\n")
            raise ValueError("writer failed")

        with pytest.raises(ValueError, match="writer failed"):
            pipeline._atomic_write(path, failing)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


def test_csv_floats_are_plain_numbers_whatever_their_type(tmp_path):
    path = tmp_path / "scores.csv"
    pipeline._write_csv(path, ["blog_id", "P", "n"],
                        [["a", np.float64(0.77), np.int64(3)],
                         ["b", np.float32(0.5), 7], ["c", 0.1 + 0.2, None]])
    rows = read_rows(path)
    assert rows == [{"blog_id": "a", "P": "0.77", "n": "3"},
                    {"blog_id": "b", "P": "0.5", "n": "7"},
                    {"blog_id": "c", "P": repr(0.1 + 0.2), "n": ""}]
    assert [float(r["P"]) for r in rows] == [0.77, 0.5, 0.1 + 0.2]


# the floats on both sides of the thresholds where repr switches to exponent
# notation, the signed zeros and infinities, nan and the extreme subnormals
_CSV_EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                    -5e-324, 2.225073858507201e-308, *(
                        np.nextafter(x, toward).item() for x in (1e-4, 1e16)
                        for toward in (0.0, x, math.inf))]
_CSV_FLOATS = st.floats() | st.sampled_from(_CSV_EDGE_FLOATS)
_CSV_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\r")
                    | st.sampled_from(',"\n'))


@st.composite
def csv_tables(draw):
    """A header and rows of two or more fields: strings with commas, quotes
    and newlines, int, np.int64, None, and floats as Python floats and as
    np.float64.  No np.float32: `_write_csv` writes its `str()`, float32's
    shortest digits (0.1), where `reference_csv` widens it to float64
    (0.10000000149011612); every float the stages write comes from
    `tolist()` of a float64 array or is a Python float."""
    width = draw(st.integers(2, 5))
    value = st.one_of(_CSV_TEXT, st.integers(), st.none(), _CSV_FLOATS,
                      _CSV_FLOATS.map(np.float64),
                      st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64))
    row = st.lists(value, min_size=width, max_size=width)
    return (draw(st.lists(_CSV_TEXT, min_size=width, max_size=width)),
            draw(st.lists(row, max_size=6)))


def test_csv_bytes_equal_the_reference_writer():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"

        @settings(max_examples=400, deadline=None)
        @given(csv_tables())
        def check(table):
            pipeline._write_csv(path, *table)
            assert path.read_bytes() == reference_csv(*table).encode("utf-8")

        check()


@st.composite
def odd_indexes(draw):
    """Indexes whose lemmas and ids are drawn from a small pool of
    JSON-tricky text; as in `build_index`, every n-gram of a post shares
    that post's one `Occurrence`."""
    text = st.sampled_from(draw(st.lists(json_text, min_size=1, max_size=5)))
    posts = draw(st.lists(st.builds(Occurrence, st.integers(-2 ** 40, 2 ** 40),
                                    text, text), min_size=1, max_size=6))
    keys = draw(st.lists(st.lists(text, min_size=1, max_size=3).map(tuple),
                         unique=True, max_size=6))
    return {Ngram(tuple((lemma, draw(st.sampled_from(Pos)))
                        for lemma in lemmas)):
            draw(st.lists(st.sampled_from(posts), max_size=4))
            for lemmas in keys}


def test_written_index_lines_equal_the_json_dumps_reference():
    covered = set()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.jsonl"

        @settings(max_examples=200, deadline=None)
        @given(odd_indexes(), st.integers(1, 6))
        def check(index, min_blogs):
            write_index_artifact(index, path, min_blogs)
            assert path.read_text(encoding="utf-8") == json.dumps(
                {"min_blogs": min_blogs}) + "\n" + "".join(
                reference_index_line(ngram, index[ngram])
                for ngram in sorted(index, key=lambda n: n.lemmas))
            assert read_index_artifact(path) == (min_blogs, index)
            text = "".join("".join(ngram.lemmas) + "".join(
                o.blog_id + o.post_id for o in occs)
                for ngram, occs in index.items())
            covered.update(c for c in JSON_ODD if c in text)

        check()
    assert covered == set(JSON_ODD)


@st.composite
def odd_topics(draw):
    """Topics over bursts whose lemmas, blogs, posts and topic ids are drawn
    from a small pool of JSON-tricky text; a burst may sit in no topic."""
    text = st.sampled_from(draw(st.lists(json_text, min_size=1, max_size=5)))
    times = st.integers(-2 ** 40, 2 ** 40)
    occurrence = st.builds(Occurrence, times, text, text)
    bursts = draw(st.lists(st.builds(
        Burst, st.lists(st.tuples(text, st.sampled_from(Pos)), min_size=1,
                        max_size=3).map(lambda w: Ngram(tuple(w))),
        times, times, st.lists(occurrence, max_size=4).map(tuple)),
        max_size=6))
    topics = [Topic(topic_id=draw(text), ngrams=tuple(b.ngram for b in group),
                    start=draw(times), end=draw(times), bursts=tuple(group),
                    participations=draw(st.dictionaries(text, times)))
              for group in draw(st.lists(st.lists(st.sampled_from(bursts),
                                                  max_size=3), max_size=4))
              if group] if bursts else []
    return bursts, topics


def test_written_burst_and_topic_lines_equal_the_json_dumps_reference():
    covered = set()
    with tempfile.TemporaryDirectory() as tmp:
        bpath, tpath = Path(tmp) / "bursts.jsonl", Path(tmp) / "topics.jsonl"

        @settings(max_examples=200, deadline=None)
        @given(odd_topics())
        def check(case):
            bursts, topics = case
            write_bursts_artifact(bursts, bpath)
            assert bpath.read_text(encoding="utf-8") == "".join(
                map(reference_burst_line, bursts))
            assert read_bursts_artifact(bpath) == bursts
            write_topics_artifact(topics, tpath)
            assert tpath.read_text(encoding="utf-8") == "".join(
                map(reference_topic_line, topics))
            assert read_topics_artifact(tpath) == topics
            text = "".join("".join(b.ngram.lemmas) + "".join(
                o.blog_id + o.post_id for o in b.occurrences) for b in bursts)
            text += "".join(t.topic_id + "".join(t.participations)
                            for t in topics)
            covered.update(c for c in JSON_ODD if c in text)
            if set(map(id, bursts)) - {id(b) for t in topics for b in t.bursts}:
                covered.add("burst outside every topic")

        check()
    assert covered == set(JSON_ODD) | {"burst outside every topic"}


REPORT_FILES = ("scatter.csv", "scatter.svg",
                *(f"boxplots_{s}_{m}.{ext}" for s in ("precursor", "laggard")
                  for m in ("indegree", "pagerank") for ext in ("csv", "svg")),
                "classes.csv", "significance.csv", "hexbin.csv", "hexbin.svg",
                "corner_lists.csv")


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class TestRunPipeline:
    def test_full_run_writes_all_artifacts(self, small_corpus_file, tmp_path):
        workdir = run_all(small_corpus_file, tmp_path / "out")
        for name in ("corpus.jsonl", "index.jsonl", "bursts.jsonl",
                     "topics.jsonl", "dyadic_scores.csv", "global_scores.csv",
                     "graph_edges.csv", "network_scores.csv"):
            assert (workdir / name).exists(), name
        report = workdir / "report"
        assert sorted(p.name for p in report.iterdir()) == sorted(REPORT_FILES)
        scores = (workdir / "global_scores.csv").read_bytes()
        assert scores.startswith(b"blog_id,P,L,in_degree,pagerank\n")
        assert (report / "scatter.csv").read_bytes() == scores
        links = read_rows(workdir / "network_scores.csv")
        assert list(links[0]) == ["blog_id", "in_degree", "pagerank"]
        # one row per graph node: every blog of the corpus, in sorted order
        assert [r["blog_id"] for r in links] == sorted(
            {json.loads(line)["blog_id"] for line in
             (workdir / "corpus.jsonl").read_text().splitlines()})

    def test_rerun_without_eligible_blogs_rewrites_every_report_file(
            self, small_corpus_file, tmp_path):
        cfg = PipelineConfig(input=str(small_corpus_file),
                             workdir=str(tmp_path / "rerun"))
        run_pipeline(cfg)
        report = Path(cfg.workdir) / "report"
        assert len(read_rows(report / "classes.csv")) == 8
        none_eligible = replace(cfg, min_posts=100000)
        run_pipeline(none_eligible, stages=["score", "network", "report"])
        # every file equals the one a run without eligible blogs writes
        fresh = replace(none_eligible, workdir=str(tmp_path / "fresh"))
        run_pipeline(fresh)
        for name in REPORT_FILES:
            assert ((report / name).read_bytes() == (
                Path(fresh.workdir) / "report" / name).read_bytes()), name
        for name in ("scatter.csv", "classes.csv", "hexbin.csv",
                     "corner_lists.csv"):
            assert not read_rows(report / name), name
        significance = read_rows(report / "significance.csv")
        assert len(significance) == 6
        assert all(r["n_a"] == r["n_b"] == "0" for r in significance)

    def test_score_then_report_after_a_full_run_rewrite_the_same_bytes(
            self, small_corpus_file, tmp_path):
        workdir = run_all(small_corpus_file, tmp_path / "rescore")
        before = artifact_bytes(workdir)
        for stage in ("score", "report"):
            assert main(["run", "--workdir", str(workdir),
                         "--stages", stage]) == 0
            assert artifact_bytes(workdir) == before, stage

    def test_network_stage_needs_only_the_corpus(self, small_corpus_file,
                                                 tmp_path):
        full = run_all(small_corpus_file, tmp_path / "full")
        workdir = tmp_path / "w"
        workdir.mkdir()
        (workdir / "corpus.jsonl").write_bytes(
            (full / "corpus.jsonl").read_bytes())
        assert main(["run", "--workdir", str(workdir),
                     "--stages", "network"]) == 0
        written = artifact_bytes(workdir)
        assert sorted(written) == ["corpus.jsonl", "graph_edges.csv",
                                   "network_scores.csv"]
        assert written == {name: (full / name).read_bytes()
                           for name in written}

    def test_newline_in_blog_id_round_trips(self, tmp_path):
        # csv quotes a field with a newline, so the row reads back whole
        records, _ = generate(leader_follower_spec(
            n_blogs=10, n_topics=6, window_days=40, seed=2))
        name = "blog\n003"
        for r in records:
            if r["blog_id"] == "blog_003":
                r["blog_id"] = name
            r["links"] = [name if t == "blog_003" else t for t in r["links"]]
        synth.write_corpus(records, tmp_path / "corpus.jsonl")
        workdir = run_all(tmp_path / "corpus.jsonl", tmp_path / "run")
        blogs = [r["blog_id"] for r in read_rows(workdir / "global_scores.csv")]
        assert name in blogs and len(blogs) == 10
        assert [r["blog_id"] for r in read_rows(
            workdir / "report" / "classes.csv")] == blogs

    @pytest.mark.parametrize("name, message", [
        ("", "no input corpus file configured"),
        ("missing.jsonl", "input file .*missing.jsonl not found")])
    def test_ingest_needs_an_existing_input(self, tmp_path, name, message):
        cfg = PipelineConfig(input=name and str(tmp_path / name),
                             workdir=str(tmp_path / "w"))
        with pytest.raises(StageError, match=message) as err:
            run_pipeline(cfg, stages=["ingest"])
        assert err.value.stage == "ingest"

    def test_resume_requires_prior_artifacts(self, small_corpus_file, tmp_path):
        cfg = PipelineConfig(input=str(small_corpus_file),
                             workdir=str(tmp_path / "o2"))
        with pytest.raises(StageError) as err:
            run_pipeline(cfg, stages=["topics"])
        assert err.value.stage == "topics"

    def test_stage_rerun_is_byte_identical(self, small_corpus_file, tmp_path):
        workdir = run_all(small_corpus_file, tmp_path / "o3")
        before = (workdir / "bursts.jsonl").read_bytes()
        cfg = PipelineConfig(input=str(small_corpus_file),
                             workdir=str(workdir), seed=1)
        run_pipeline(cfg, stages=["bursts"])
        assert (workdir / "bursts.jsonl").read_bytes() == before

    def test_jobs_do_not_change_scores(self, small_corpus_file, tmp_path):
        w1 = run_all(small_corpus_file, tmp_path / "j1", jobs=1)
        w2 = run_all(small_corpus_file, tmp_path / "j2", jobs=2)
        assert (w1 / "dyadic_scores.csv").read_bytes() == \
            (w2 / "dyadic_scores.csv").read_bytes()

    def test_seed_does_not_change_scores(self, small_corpus_file, tmp_path):
        w1 = run_all(small_corpus_file, tmp_path / "s1", seed=1)
        w2 = run_all(small_corpus_file, tmp_path / "s2", seed=2)
        for name in ("dyadic_scores.csv", "global_scores.csv"):
            assert (w1 / name).read_bytes() == (w2 / name).read_bytes()

    def test_dyadic_scores_list_exactly_the_coparticipating_pairs(
            self, small_corpus_file, tmp_path):
        workdir = run_all(small_corpus_file, tmp_path / "sparse")
        eligible = set(eligible_from_artifact(workdir))
        expected = set()
        with open(workdir / "topics.jsonl", encoding="utf-8") as fh:
            for line in fh:
                members = eligible & set(json.loads(line)["participations"])
                expected |= {(b, b2) for b in members for b2 in members
                             if b != b2}
        rows = (workdir / "dyadic_scores.csv").read_text().splitlines()
        assert rows[0] == "b,b2,a_size,y_size,gamma,pr_h,omega"
        pairs = [tuple(row.split(",")[:2]) for row in rows[1:]]
        assert pairs == sorted(expected)
        for row in read_rows(workdir / "dyadic_scores.csv"):
            assert 0.0 <= float(row["pr_h"]) <= 1.0
            assert float(row["omega"]) <= float(row["gamma"])
        # the fixture has eligible pairs both with and without shared topics
        assert 0 < len(expected) < len(eligible) * (len(eligible) - 1)

    def test_dry_run_writes_nothing(self, small_corpus_file, tmp_path, capsys):
        workdir = tmp_path / "dry"
        cfg = PipelineConfig(input=str(small_corpus_file), workdir=str(workdir))
        run_pipeline(cfg, dry_run=True)
        out = capsys.readouterr().out
        assert "stage plan" in out and "alpha" in out
        assert not workdir.exists()

    def test_unknown_stage_rejected(self, small_corpus_file, tmp_path):
        cfg = PipelineConfig(input=str(small_corpus_file),
                             workdir=str(tmp_path / "x"))
        with pytest.raises(StageError):
            run_pipeline(cfg, stages=["nonsense"])


def artifact_bytes(workdir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(workdir)): p.read_bytes()
            for p in sorted(workdir.rglob("*")) if p.is_file()}


@pytest.fixture
def corpus_loads(monkeypatch):
    """The paths `pipeline.load_corpus` is called with, in order."""
    calls = []
    real = pipeline.load_corpus

    def counting(path, config=None):
        calls.append(Path(path))
        return real(path, config)
    monkeypatch.setattr(pipeline, "load_corpus", counting)
    return calls


class TestCorpusParsedOnce:
    def test_full_run_parses_input_once(self, small_corpus_file, tmp_path,
                                        corpus_loads):
        workdir = run_all(small_corpus_file, tmp_path / "once")
        assert corpus_loads == [small_corpus_file]
        corpus_loads.clear()
        cfg = PipelineConfig(input=str(small_corpus_file), workdir=str(workdir))
        run_pipeline(cfg, stages=["score"])
        assert corpus_loads == [workdir / "corpus.jsonl"]
        corpus_loads.clear()
        run_pipeline(cfg, stages=["ngrams", "bursts", "topics", "score",
                                  "network"])
        assert corpus_loads == [workdir / "corpus.jsonl"]

    def test_stage_by_stage_run_is_byte_identical(self, small_corpus_file,
                                                  tmp_path):
        full = run_all(small_corpus_file, tmp_path / "full")
        cfg = PipelineConfig(input=str(small_corpus_file),
                             workdir=str(tmp_path / "staged"))
        for stage in STAGES:
            run_pipeline(cfg, stages=[stage])
        assert artifact_bytes(tmp_path / "staged") == artifact_bytes(full)

    @pytest.mark.parametrize("window", [(None, None), (150, 900),
                                        (150, None), (None, 900)])
    @pytest.mark.parametrize("keep_external", [False, True])
    @pytest.mark.parametrize("assume_nouns", [False, True])
    def test_ingested_corpus_equals_reloaded_artifact(
            self, tmp_path, window, keep_external, assume_nouns):
        # what lets the later stages skip re-parsing corpus.jsonl
        def tokens(*pairs):
            return [{"l": lemma, "p": pos, "c": i}
                    for i, (lemma, pos) in enumerate(pairs)]
        records = [
            {"post_id": "p1", "blog_id": "a", "timestamp": 100,
             "title": tokens((" Big ", "ADJ")), "links": ["b"]},
            {"post_id": "p2", "blog_id": "a", "timestamp": 200,
             "body": tokens(("Cat", "noun?"), ("", "NOUN"), ("sat", "VERB")),
             "links": ["a", "b", "elsewhere"]},
            {"post_id": "p3", "blog_id": "b", "timestamp": "1970-01-01T00:05:00Z",
             "body": tokens(("dog", "XX"), ("2", "NUM")), "links": ["a", "b"]},
            {"post_id": "p4", "blog_id": "c", "timestamp": 1000,
             "body": tokens(("late", "ADV")), "links": ["a", "nowhere"]},
            {"post_id": "p5", "blog_id": "b", "timestamp": 600,
             "links": ["c", "c", "gone"]}]
        path = tmp_path / "input.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        cfg = PipelineConfig(input=str(path), workdir=str(tmp_path),
                             window_start=window[0], window_end=window[1],
                             keep_external_links=keep_external,
                             assume_nouns=assume_nouns)
        ingested = pipeline.stage_ingest(cfg, tmp_path)
        reloaded = load_corpus(tmp_path / "corpus.jsonl", cfg)
        assert ingested.posts == reloaded.posts
        assert ingested.blogs == reloaded.blogs
        assert ingested.window == reloaded.window
        r = ingested.report
        assert r.self_links > 0 and r.empty_lemma_tokens > 0
        assert (r.external_links > 0) != keep_external
        assert (r.pos_warnings > 0) != assume_nouns
        assert (r.out_of_window > 0) == (window != (None, None))

    def test_corpus_artifact_is_the_input_byte_for_byte(self, tmp_path):
        # an extra key, escaped and plain non-ASCII text, records out of
        # order and out of window, CRLF line ends, a blank line and no
        # final newline: none of it is normalised away
        lines = ['{"post_id": "p2", "blog_id": "b", "timestamp": 500, '
                 '"mood": "x", "links": ["a", "a", "b"], '
                 '"body": [{"l": " Caf\\u00e9 ", "p": "noun"}]}',
                 '{"timestamp": 100, "blog_id": "a", "post_id": "p1", '
                 '"title": [{"l": "café", "c": 0, "p": "XX"}]}',
                 '',
                 '{"post_id": "p3", "blog_id": "a", "timestamp": 9000}']
        path = tmp_path / "input.jsonl"
        path.write_bytes("\r\n".join(lines).encode("utf-8"))
        cfg = PipelineConfig(input=str(path), workdir=str(tmp_path),
                             window_end=1000)
        corpus = pipeline.stage_ingest(cfg, tmp_path)
        assert (corpus.report.records_read, corpus.report.out_of_window) == (3, 1)
        assert (tmp_path / "corpus.jsonl").read_bytes() == path.read_bytes()

    def test_malformed_input_leaves_no_corpus_artifact(self, tmp_path):
        path = tmp_path / "input.jsonl"
        path.write_text('{"post_id": "p1", "blog_id": "a", "timestamp": 1}\n'
                        '{"post_id": "p2", "blog_id": "a"}\n')
        workdir = tmp_path / "w"
        cfg = PipelineConfig(input=str(path), workdir=str(workdir))
        with pytest.raises(MalformedRecord, match="line 2: missing timestamp"):
            run_pipeline(cfg, stages=["ingest"])
        assert list(workdir.iterdir()) == []


@pytest.fixture
def artifact_reads(monkeypatch):
    """How often the index, bursts, topics, network scores and global
    scores artifacts are read, by file."""
    reads = Counter()
    for name in ("read_index_artifact", "read_bursts_artifact",
                 "read_topics_artifact", "read_global_scores"):
        def counting(path, *args, real=getattr(pipeline, name), **kwargs):
            reads[Path(path).name] += 1
            return real(path, *args, **kwargs)
        monkeypatch.setattr(pipeline, name, counting)
    return reads


@pytest.mark.usefixtures("restore_log_level")
class TestInMemoryHandoff:
    def test_full_run_reads_no_stage_artifact(self, small_corpus_file, tmp_path,
                                              artifact_reads):
        run_all(small_corpus_file, tmp_path / "full")
        assert artifact_reads == {}

    def test_stage_run_alone_reads_its_input_once(
            self, small_corpus_file, tmp_path, artifact_reads):
        workdir = run_all(small_corpus_file, tmp_path / "w")
        before = artifact_bytes(workdir)
        assert main(["run", "--workdir", str(workdir), "--stages", "bursts"]) == 0
        assert artifact_reads == {"index.jsonl": 1}
        artifact_reads.clear()
        assert main(["run", "--workdir", str(workdir),
                     "--stages", "bursts,topics,score"]) == 0
        assert artifact_reads == {"index.jsonl": 1, "network_scores.csv": 1}
        artifact_reads.clear()
        assert main(["run", "--workdir", str(workdir),
                     "--stages", "score,network"]) == 0
        assert artifact_reads == {"topics.jsonl": 1}
        artifact_reads.clear()
        assert main(["run", "--workdir", str(workdir),
                     "--stages", "topics,network"]) == 0
        assert artifact_reads == {"bursts.jsonl": 1}
        assert artifact_bytes(workdir) == before

    @pytest.mark.parametrize("stages, reads", [
        ("score,network,report", {"topics.jsonl": 1}),
        ("score,report", {"topics.jsonl": 1, "network_scores.csv": 1}),
        ("network,report", {"global_scores.csv": 1}),
        ("report", {"global_scores.csv": 1})])
    def test_scores_are_read_back_only_by_the_first_stage_of_a_run(
            self, small_corpus_file, tmp_path, artifact_reads, stages, reads):
        workdir = run_all(small_corpus_file, tmp_path / "w")
        before = artifact_bytes(workdir)
        artifact_reads.clear()
        assert main(["run", "--workdir", str(workdir),
                     "--stages", stages]) == 0
        assert artifact_reads == reads
        assert artifact_bytes(workdir) == before


@pytest.fixture
def writes(monkeypatch):
    """(stage, path) of every `_atomic_write` call, in order."""
    calls, running = [], []
    for name, (function, inputs, output) in pipeline._STAGES.items():
        def marked(*args, name=name, function=function):
            running.append(name)
            try:
                return function(*args)
            finally:
                running.pop()
        monkeypatch.setitem(pipeline._STAGES, name, (marked, inputs, output))
    real = pipeline._atomic_write

    def recording(path, writer):
        calls.append((running[-1], Path(path)))
        return real(path, writer)
    monkeypatch.setattr(pipeline, "_atomic_write", recording)
    return calls


def test_every_artifact_is_written_once_by_one_stage(small_corpus_file,
                                                     tmp_path, writes):
    full = run_all(small_corpus_file, tmp_path / "full")
    in_full = [(stage, str(path.relative_to(full))) for stage, path in writes]
    writes.clear()
    staged = tmp_path / "staged"
    cfg = PipelineConfig(input=str(small_corpus_file), workdir=str(staged))
    for stage in STAGES:
        run_pipeline(cfg, stages=[stage])
    in_staged = [(stage, str(path.relative_to(staged)))
                 for stage, path in writes]
    assert in_staged == in_full
    paths = [path for _, path in in_full]
    assert len(paths) == len(set(paths))  # so each has one writing stage
    assert sorted(paths) == sorted(artifact_bytes(full))
    assert {path: stage for stage, path in in_full}["global_scores.csv"] == \
        "score"


@pytest.fixture
def collector_state():
    """Sets the collector's state for a test and restores it afterwards."""
    enabled = gc.isenabled()
    yield lambda on: gc.enable() if on else gc.disable()
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorPause:
    @pytest.mark.parametrize("on", [True, False], ids=["enabled", "disabled"])
    def test_run_leaves_the_collector_as_it_found_it(
            self, small_corpus_file, tmp_path, collector_state, on):
        collector_state(on)
        run_all(small_corpus_file, tmp_path / "w")
        assert gc.isenabled() is on
        cfg = PipelineConfig(workdir=str(tmp_path / "empty"))
        with pytest.raises(StageError, match="missing prerequisite"):
            run_pipeline(cfg, stages=["score"])
        assert gc.isenabled() is on

    def test_collector_is_off_while_the_stages_run(
            self, small_corpus_file, tmp_path, collector_state, monkeypatch):
        collector_state(True)
        seen = []

        def recording(*args, real=pipeline.build_index):
            seen.append(gc.isenabled())
            return real(*args)
        monkeypatch.setattr(pipeline, "build_index", recording)
        run_all(small_corpus_file, tmp_path / "w")
        assert seen == [False] and gc.isenabled()


BLOGS = tuple(f"b{i}" for i in range(8))


clusters = st.lists(st.tuples(st.integers(0, 40),  # days since the last one
                               st.lists(st.integers(HOUR, 2 * DAY),
                                        min_size=2, max_size=12)),
                     min_size=1, max_size=4)


@st.composite
def occurrence_indexes(draw):
    """Indexes shaped as build_index makes them (time-ordered, no same-blog
    runs, two or more occurrences), with occurrences in clusters hours
    apart, so that some bursts pass the default filters."""
    index = {}
    for k in range(draw(st.integers(1, 6))):
        times, t = [], 0
        for days, gaps in draw(clusters):
            t += days * DAY
            for gap in gaps:
                t += gap
                times.append(t)
        pool = BLOGS[:draw(st.integers(2, len(BLOGS)))]
        blogs = draw(st.lists(st.sampled_from(pool), min_size=len(times),
                              max_size=len(times)))
        occs = reference_collapse([Occurrence(t, b, f"n{k}p{i}") for i, (t, b)
                                   in enumerate(zip(times, blogs))])
        if len(occs) >= 2:
            index[ngram_of(f"w{k}", "x")] = occs
    return index


def test_pruned_bursts_stage_keeps_what_full_detection_keeps():
    """The bursts stage, given only the n-grams with min_blogs blogs or
    more (the index `build_index` prunes), keeps exactly the bursts that
    detection over every n-gram keeps."""
    covered = set()
    with tempfile.TemporaryDirectory() as tmp:
        @settings(max_examples=150, deadline=None)
        @given(occurrence_indexes(), st.integers(1, 6))
        # one burst of 39 days: 150 drawn indexes miss the cap about 1 run in 10
        @example({ngram_of("w0", "x"): [Occurrence(HOUR, "b0", "n0p0"),
                                        Occurrence(HOUR + 39 * DAY, "b1",
                                                   "n0p1")]}, 2)
        def check(index, min_blogs):
            cfg = PipelineConfig(workdir=tmp, min_blogs=min_blogs)
            pruned = [n for n, occs in index.items()
                      if len({o.blog_id for o in occs}) < min_blogs]
            kept = pipeline.stage_bursts(cfg, Path(tmp), {
                n: occs for n, occs in index.items() if n not in pruned})
            detected = detect_all(index)
            assert kept == filter_bursts(detected,
                                          PipelineConfig(min_blogs=min_blogs))
            path = Path(tmp) / "bursts.jsonl"
            assert read_bursts_artifact(path) == kept
            assert path.read_text(encoding="utf-8") == "".join(
                map(reference_burst_line, kept))
            capped = [n for n, bursts in detected.items()
                      if sum(b.duration for b in bursts) > 30 * DAY]
            covered.update(case for case, holds in (
                ("bursts kept", kept), ("n-grams pruned", pruned),
                ("kept next to pruned", kept and pruned),
                ("n-gram over the total-duration cap", capped)) if holds)

        check()
    assert covered == {"bursts kept", "n-grams pruned", "kept next to pruned",
                       "n-gram over the total-duration cap"}


@pytest.fixture(scope="module")
def tiered_corpus_file(tmp_path_factory):
    """Planted two-word topics in 4, 5 and 6 of 8 blogs."""
    path = tmp_path_factory.mktemp("tiers") / "corpus.jsonl"
    blogs = blog_ids(8)
    spec = SynthSpec(n_blogs=8, window_days=40, base_rate=0.6, seed=2, topics=[
        synth.PlantedTopic((f"w{n}a", f"w{n}b"), start, 6.0, tuple(blogs[:n]))
        for n, start in ((4, 2.0), (5, 14.0), (6, 26.0))])
    synth.write_corpus(generate(spec)[0], path)
    return path


def run_cli(corpus_file, workdir, *flags) -> int:
    return main(["run", "-q", "--input", str(corpus_file), "--workdir",
                 str(workdir), *flags])


def index_lines(workdir) -> list[str]:
    return (workdir / "index.jsonl").read_text(encoding="utf-8").splitlines()


@pytest.mark.usefixtures("restore_log_level")
class TestIndexPruning:
    def test_index_keeps_the_lines_with_min_blogs_blogs(
            self, tiered_corpus_file, tmp_path):
        # at min_blogs 1 the index prunes only n-grams seen once after the
        # collapse, as before the pruning by blogs
        assert run_cli(tiered_corpus_file, tmp_path / "1", "--min-blogs", "1",
                       "--stages", "ingest,ngrams") == 0
        header, *lines = index_lines(tmp_path / "1")
        assert header == '{"min_blogs": 1}'
        blogs = [len({b for _, b, _ in json.loads(line)["occurrences"]})
                 for line in lines]
        assert sorted(set(blogs)) == [2, 4, 5, 6]
        for m in (3, 4, 5, 6):
            assert run_cli(tiered_corpus_file, tmp_path / str(m),
                           "--min-blogs", str(m),
                           "--stages", "ingest,ngrams") == 0
            assert index_lines(tmp_path / str(m)) == [
                f'{{"min_blogs": {m}}}',
                *(line for line, n in zip(lines, blogs) if n >= m)]

    def test_bursts_below_the_index_min_blogs_are_refused(
            self, tiered_corpus_file, tmp_path, capsys):
        workdir = tmp_path / "w"
        assert run_cli(tiered_corpus_file, workdir) == 0
        before = artifact_bytes(workdir)
        capsys.readouterr()
        assert run_cli(tiered_corpus_file, workdir, "--stages", "bursts",
                       "--min-blogs", "3") == 1
        assert capsys.readouterr().err == (
            f"error: [bursts] min_blogs 3 is below min_blogs 4, which "
            f"{workdir / 'index.jsonl'} was pruned at; run the ngrams stage "
            "again\n")
        assert artifact_bytes(workdir) == before

    def test_bursts_at_a_higher_min_blogs_equal_a_full_run(
            self, tiered_corpus_file, tmp_path):
        workdir, full = tmp_path / "w", tmp_path / "full5"
        assert run_cli(tiered_corpus_file, workdir) == 0
        at_4 = (workdir / "bursts.jsonl").read_bytes()
        assert run_cli(tiered_corpus_file, workdir, "--stages", "bursts",
                       "--min-blogs", "5") == 0
        assert run_cli(tiered_corpus_file, full, "--min-blogs", "5") == 0
        assert ((workdir / "bursts.jsonl").read_bytes()
                == (full / "bursts.jsonl").read_bytes() != at_4)

    def test_index_without_its_header_is_refused(
            self, tiered_corpus_file, tmp_path, capsys):
        workdir = tmp_path / "w"
        assert run_cli(tiered_corpus_file, workdir,
                       "--stages", "ingest,ngrams") == 0
        path = workdir / "index.jsonl"
        lines = index_lines(workdir)[1:]
        for text in ("\n".join(lines) + "\n", ""):
            path.write_text(text, encoding="utf-8")
            capsys.readouterr()
            assert run_cli(tiered_corpus_file, workdir,
                           "--stages", "bursts") == 1
            assert capsys.readouterr().err == (
                f"error: [bursts] malformed artifact {path} (ValueError: "
                'the first line is not a {"min_blogs": n} header)\n')
            assert not (workdir / "bursts.jsonl").exists()


@pytest.mark.usefixtures("restore_log_level")
class TestScoreRefusesInputsOfAnotherWindow:
    """Topics or link metrics built under another window than the score
    stage's are refused before the stage writes anything."""

    @pytest.mark.parametrize("bound", ["start", "end"])
    def test_topic_outside_the_window_is_refused(
            self, small_corpus_file, tmp_path, capsys, bound):
        workdir = tmp_path / "w"
        assert run_cli(small_corpus_file, workdir) == 0
        topics = read_topics_artifact(workdir / "topics.jsonl")
        if bound == "start":
            at = min(t.start for t in topics) + 1
            t = next(t for t in topics if t.start < at)
            crossed = f"starts at {t.start}, before the window start {at}"
        else:
            at = max(t.end for t in topics) - 1
            t = next(t for t in topics if t.end > at)
            crossed = f"ends at {t.end}, after the window end {at}"
        before = artifact_bytes(workdir)
        capsys.readouterr()
        assert run_cli(small_corpus_file, workdir, "--stages", "score",
                       f"--window-{bound}", str(at)) == 1
        assert capsys.readouterr().err == (
            f"error: [score] topic {t.topic_id} of {workdir / 'topics.jsonl'} "
            f"{crossed}; run the ngrams, bursts and topics stages again\n")
        assert artifact_bytes(workdir) == before

    def test_eligible_blog_without_link_metrics_is_refused(
            self, small_corpus_file, tmp_path, capsys):
        workdir = tmp_path / "w"
        assert run_cli(small_corpus_file, workdir) == 0
        assert run_cli(small_corpus_file, workdir, "--stages", "network",
                       "--window-end", str(DAY)) == 0
        linked = {r["blog_id"] for r in read_rows(workdir / "network_scores.csv")}
        missing = [b for b in eligible_from_artifact(workdir) if b not in linked]
        assert missing  # the first day leaves some eligible blog out
        before = artifact_bytes(workdir)
        capsys.readouterr()
        assert run_cli(small_corpus_file, workdir, "--stages", "score") == 1
        assert capsys.readouterr().err == (
            f"error: [score] {workdir / 'network_scores.csv'} has no row for "
            f"eligible blog {missing[0]}; run the network stage again\n")
        assert artifact_bytes(workdir) == before


class TestSynthRunner:
    def test_spec_file_to_corpus(self, tmp_path):
        spec = {"n_blogs": 8, "window_days": 30, "base_rate": 0.5, "seed": 2,
                "topics": [{"words": ["alpha", "beta"], "start_day": 2,
                            "duration_days": 6,
                            "participants": blog_ids(6)}]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        run_synth(spec_path, tmp_path / "synth_out")
        corpus = load_corpus(tmp_path / "synth_out" / "corpus.jsonl")
        assert len(corpus.blogs) == 8
        truth = json.loads((tmp_path / "synth_out" / "ground_truth.json")
                           .read_text())
        assert truth["topics"][0]["words"] == ["alpha", "beta"]
        # a seed given replaces the spec's
        run_synth(spec_path, tmp_path / "seeded", seed=3)
        spec_path.write_text(json.dumps({**spec, "seed": 3}))
        run_synth(spec_path, tmp_path / "spec_seed")
        assert artifact_bytes(tmp_path / "seeded") == \
            artifact_bytes(tmp_path / "spec_seed") != \
            artifact_bytes(tmp_path / "synth_out")

    def test_keys_left_out_take_the_spec_class_defaults(self, tmp_path):
        # no seed, noise_vocab, link_prob, rate_ramp or lead_hours given
        topic = {"words": ["alpha", "beta"], "start_day": 2,
                 "duration_days": 6, "participants": blog_ids(6),
                 "leader": "blog_000"}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"n_blogs": 8, "window_days": 30,
                                         "base_rate": 0.5, "topics": [topic]}))
        run_synth(spec_path, tmp_path / "out")
        records, _ = generate(SynthSpec(
            n_blogs=8, window_days=30.0, base_rate=0.5,
            topics=[synth.PlantedTopic(("alpha", "beta"), 2.0, 6.0,
                                       tuple(blog_ids(6)), "blog_000")]))
        synth.write_corpus(records, tmp_path / "expected.jsonl")
        assert ((tmp_path / "out" / "corpus.jsonl").read_bytes()
                == (tmp_path / "expected.jsonl").read_bytes())

    @pytest.mark.parametrize("path, whole", [
        (("window_days",), 30), (("base_rate",), 1), (("rate_ramp",), 0),
        (("rate_multipliers", "blog_002"), 3), (("topics", 0, "start_day"), 2)])
    def test_float_field_takes_a_json_integer(self, tmp_path, path, whole):
        # a float field given a JSON integer writes what the same value
        # given as a JSON float writes
        outputs = []
        for value in (whole, float(whole)):
            spec = {"n_blogs": 8, "window_days": 30.0, "base_rate": 1.0,
                    "rate_ramp": 0.0, "rate_multipliers": {"blog_002": 3.0},
                    "seed": 2,
                    "topics": [{"words": ["alpha", "beta"], "start_day": 2.0,
                                "duration_days": 6.0,
                                "participants": blog_ids(6)}]}
            *parents, key = path
            target = spec
            for step in parents:
                target = target[step]
            target[key] = value
            spec_path = tmp_path / f"spec_{type(value).__name__}.json"
            spec_path.write_text(json.dumps(spec))
            out = tmp_path / type(value).__name__
            run_synth(spec_path, out)
            outputs.append([(out / name).read_bytes() for name in
                            ("corpus.jsonl", "ground_truth.json")])
        assert outputs[0] == outputs[1]


def no_argument_chain(corpus_file):
    """The library functions called with their defaults alone."""
    corpus = load_corpus(corpus_file)
    bursts = filter_bursts(detect_all(build_index(corpus)))
    topics = merge_bursts(bursts)
    return bursts, topics, score_shared_dyads(corpus, topics,
                                              eligible_blogs(corpus))


def test_library_defaults_are_the_pipeline_defaults(small_corpus_file,
                                                     tmp_path):
    """A default run writes what the library functions give without any
    argument but their inputs: both read one set of defaults."""
    # every sixth planted topic has the same words, so one n-gram bursts
    # five times and alpha, beta and the total-duration cap decide its bursts
    spec = leader_follower_spec(seed=3)
    spec.topics = [replace(t, words=("shared", "words")) if i % 6 == 0 else t
                   for i, t in enumerate(spec.topics)]
    lead_file = tmp_path / "lead.jsonl"
    synth.write_corpus(generate(spec)[0], lead_file)
    for corpus_file in (small_corpus_file, lead_file):
        workdir = run_all(corpus_file, tmp_path / corpus_file.stem)
        bursts, topics, scores = no_argument_chain(corpus_file)
        assert bursts and topics and len(scores.b)
        assert read_bursts_artifact(workdir / "bursts.jsonl") == bursts
        assert read_topics_artifact(workdir / "topics.jsonl") == topics
        with open(workdir / "dyadic_scores.csv", encoding="utf-8") as fh:
            rows = [(b, b2, int(a), int(y), float(g), float(h), float(w))
                    for b, b2, a, y, g, h, w in list(csv.reader(fh))[1:]]
        assert rows == [astuple(s) for s in dyad_rows(scores)]


def first_ngram(obj: dict) -> dict:
    """The first n-gram object of an `index.jsonl`, `bursts.jsonl` or
    `topics.jsonl` line."""
    return obj["ngrams"][0] if "ngrams" in obj else obj


def first_occurrences(obj: dict) -> list:
    """The occurrences of an `index.jsonl` or `bursts.jsonl` line, or of the
    first burst of a `topics.jsonl` line."""
    return (obj["bursts"][0] if "bursts" in obj else obj)["occurrences"]


@pytest.fixture
def restore_log_level():
    """main() sets the package logger's level; put it back afterwards."""
    logger = logging.getLogger("precursor")
    level = logger.level
    yield
    logger.setLevel(level)


def precursor_messages(caplog, level):
    return [r.getMessage() for r in caplog.records
            if r.name == "precursor" and r.levelno == level]


@pytest.mark.usefixtures("restore_log_level")
class TestCli:
    def test_run_and_report_exit_zero(self, small_corpus_file, tmp_path):
        workdir = tmp_path / "cli_out"
        assert main(["run", "--input", str(small_corpus_file),
                     "--workdir", str(workdir), "--seed", "3"]) == 0
        assert (workdir / "global_scores.csv").exists()
        assert main(["run", "--stages", "report", "--workdir", str(workdir),
                     "--bins", "3"]) == 0

    @pytest.mark.parametrize("argv", [
        ["report"], ["synth", "--spec", "s", "--out", "o", "--rate-ramp", "2"]])
    def test_removed_commands_exit_two(self, argv, captured_configs):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and not captured_configs

    def test_every_run_option_has_help(self):
        subparsers, = [a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        actions = subparsers.choices["run"]._actions
        assert len(actions) > len(fields(PipelineConfig))
        assert [a.option_strings for a in actions
                if not (a.help or "").strip()] == []

    def test_missing_artifact_exits_nonzero(self, tmp_path, capsys):
        assert main(["run", "--workdir", str(tmp_path / "void"),
                     "--stages", "score"]) == 1
        assert "[score]" in capsys.readouterr().err

    def test_stage_names_may_have_spaces(self, small_corpus_file, tmp_path):
        workdir = tmp_path / "spaced"
        assert main(["run", "--input", str(small_corpus_file), "--workdir",
                     str(workdir), "--stages", " ingest , ngrams"]) == 0
        assert (workdir / "index.jsonl").exists()
        assert not (workdir / "bursts.jsonl").exists()

    @pytest.mark.parametrize("stages, position", [
        ("ingest,", 2), (",ngrams", 1), ("ingest, ,ngrams", 2), ("", 1),
        (" ", 1)])
    def test_empty_stage_entry_is_named(self, small_corpus_file, tmp_path,
                                        capsys, stages, position):
        workdir = tmp_path / "empty"
        assert main(["run", "--input", str(small_corpus_file), "--workdir",
                     str(workdir), "--stages", stages]) == 1
        assert capsys.readouterr().err == (
            f"error: --stages {stages!r}: entry {position} is empty\n")
        assert not workdir.exists()

    @pytest.mark.parametrize("raw, shown", [
        ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf")])
    def test_non_finite_timestamp_exits_one_naming_its_line(
            self, tmp_path, capsys, raw, shown):
        corpus_file = tmp_path / "c.jsonl"
        corpus_file.write_text(
            '{"post_id": "p1", "blog_id": "a", "timestamp": 100}\n'
            '{"post_id": "p2", "blog_id": "b", "timestamp": %s}\n' % raw)
        assert main(["run", "--input", str(corpus_file), "--workdir",
                     str(tmp_path / "w")]) == 1
        assert capsys.readouterr().err == (
            f"error: line 2: bad timestamp {shown}\n")

    def test_deeply_nested_record_exits_one_naming_its_line(
            self, tmp_path, capsys):
        # the decoder's RecursionError used to escape main as a traceback
        corpus_file = tmp_path / "c.jsonl"
        corpus_file.write_text(
            '{"post_id": "p1", "blog_id": "a", "timestamp": 100}\n'
            '{"post_id": "p2", "x": ' + "[" * 100_000 + "}\n")
        assert main(["run", "--input", str(corpus_file), "--workdir",
                     str(tmp_path / "w")]) == 1
        assert capsys.readouterr().err == (
            "error: line 2: invalid JSON (nested too deeply)\n")

    def test_integer_too_long_exits_one_naming_its_line(self, tmp_path, capsys):
        # the decoder's ValueError past 4,300 digits used to name no line
        corpus_file = tmp_path / "c.jsonl"
        corpus_file.write_text(
            '{"post_id": "p1", "blog_id": "a", "timestamp": 100}\n'
            '{"post_id": "p2", "blog_id": "a", "timestamp": ' + "1" * 5000
            + "}\n")
        assert main(["run", "--input", str(corpus_file), "--workdir",
                     str(tmp_path / "w")]) == 1
        assert capsys.readouterr().err.startswith(
            "error: line 2: invalid JSON (")

    @pytest.mark.parametrize("key, value", [
        ("l", "\ud800t000a"), ("post_id", "p\ud800"), ("blog_id", "\ud800")],
        ids=["lemma", "post_id", "blog_id"])
    def test_lone_surrogate_exits_one_before_writing(self, tmp_path, capsys,
                                                     key, value):
        # refused at ingest: no UTF-8 artifact can hold it, and a stage that
        # met it later would fail naming no line
        record = {"post_id": "p2", "blog_id": "b", "timestamp": 200,
                  "body": [{"l": "cat", "p": "NOUN", "c": 0}]}
        (record["body"][0] if key == "l" else record)[key] = value
        corpus_file = tmp_path / "c.jsonl"
        corpus_file.write_text(
            '{"post_id": "p1", "blog_id": "a", "timestamp": 100}\n'
            + json.dumps(record) + "\n")
        assert main(["run", "--input", str(corpus_file), "--workdir",
                     str(tmp_path / "w")]) == 1
        field = {"l": "lemma"}.get(key, key)
        assert capsys.readouterr().err == (
            f"error: line 2: bad {field} {value!r}: lone surrogate\n")
        assert not (tmp_path / "w" / "corpus.jsonl").exists()

    @pytest.mark.parametrize("key, value, reason", [
        ("l", None, "bad lemma None: not a string"),
        ("l", 1, "bad lemma 1: not a string"),
        ("l", True, "bad lemma True: not a string"),
        ("l", ["cat"], "bad lemma ['cat']: not a string"),
        ("p", None, "bad tag None: not a string"),
        ("p", 1, "bad tag 1: not a string"),
        ("p", True, "bad tag True: not a string"),
        ("p", ["NOUN"], "bad tag ['NOUN']: not a string"),
        ("c", 2.5, "bad chunk index 2.5: not an integer"),
        ("c", True, "bad chunk index True: not an integer"),
        ("c", "1", "bad chunk index '1': not an integer"),
        ("links", ["a", 3], "bad link target 3: not a string"),
        ("links", 0, "bad links 0: not an array"),
        ("links", {}, "bad links {}: not an array")])
    def test_mistyped_value_exits_one_naming_line_and_field(
            self, tmp_path, capsys, key, value, reason):
        token = {"l": "cat", "p": "NOUN", "c": 0}
        record = {"post_id": "p2", "blog_id": "b", "timestamp": 200,
                  "body": [token], "links": ["a"]}
        (token if key in token else record)[key] = value
        corpus_file = tmp_path / "c.jsonl"
        corpus_file.write_text(
            '{"post_id": "p1", "blog_id": "a", "timestamp": 100}\n'
            + json.dumps(record) + "\n")
        assert main(["run", "--input", str(corpus_file), "--workdir",
                     str(tmp_path / "w"), "--stages", "ingest"]) == 1
        assert capsys.readouterr().err == f"error: line 2: {reason}\n"

    @pytest.mark.parametrize("artifact, stage, change, error", [
        *(pytest.param(artifact, stage, lambda obj, key=key: obj.pop(key),
                       f"KeyError: {key!r}", id=f"{artifact}-{key}-{stage}")
          for artifact, key, stage in (("index.jsonl", "occurrences", "bursts"),
                                       ("bursts.jsonl", "start", "topics"),
                                       ("topics.jsonl", "start", "score"))),
        pytest.param("topics.jsonl", "score",
                     lambda obj: obj.update(participations=[1, 2]),
                     "ValueError: participations must be an object",
                     id="topics.jsonl-participations-array-score"),
        *(pytest.param(artifact, stage, change, error,
                       id=f"{artifact}-{fault}-{stage}")
          for artifact, stage in (("index.jsonl", "bursts"),
                                  ("bursts.jsonl", "topics"),
                                  ("topics.jsonl", "score"))
          for fault, change, error in (
              ("pos-one-short", lambda obj: first_ngram(obj)["pos"].pop(),
               "ValueError: zip() argument 2 is shorter than argument 1"),
              ("lemmas-string",
               lambda obj: first_ngram(obj).update(lemmas="ab"),
               "ValueError: lemmas and pos must be arrays"),
              ("lemmas-integers",
               lambda obj: first_ngram(obj).update(lemmas=[1, 1]),
               "ValueError: lemmas must be strings, got [1, 1]"),
              # what a JSON writer other than the artifact's own may write
              *((fault,
                 lambda obj, occ=occ: first_occurrences(obj).__setitem__(0, occ),
                 f"ValueError: occurrence {occ!r} is not [int, str, str]")
                for fault, occ in (("time-float", [86400.9, "b", "p"]),
                                   ("time-string", ["86400", "b", "p"]),
                                   ("time-bool", [True, "b", "p"]),
                                   ("blog-integer", [86400, 1, "p"]),
                                   ("post-integer", [86400, "b", 2]))))),
        *(pytest.param(artifact, stage,
                       lambda obj, key=key, value=value: obj.update({key: value}),
                       f"ValueError: {key}: expected an integer, got {value!r}",
                       id=f"{artifact}-{key}-{fault}-{stage}")
          for artifact, stage in (("bursts.jsonl", "topics"),
                                  ("topics.jsonl", "score"))
          for key, fault, value in (("start", "float", 86400.9),
                                    ("start", "string", "86400"),
                                    ("end", "bool", True))),
        pytest.param("topics.jsonl", "score",
                     lambda obj: obj.update(topic_id=7),
                     "ValueError: topic_id: expected a string, got 7",
                     id="topics.jsonl-topic_id-integer-score"),
        *(pytest.param("topics.jsonl", "score",
                       lambda obj, value=value: obj.update(
                           participations={"b": value}),
                       "ValueError: participations: b: expected an integer, "
                       f"got {value!r}",
                       id=f"topics.jsonl-participation-{fault}-score")
          for fault, value in (("float", 86400.9), ("string", "86400")))])
    def test_malformed_artifact_exits_one_naming_it(
            self, small_corpus_file, tmp_path, capsys, artifact, stage,
            change, error):
        workdir = tmp_path / "w"
        assert main(["run", "--input", str(small_corpus_file),
                     "--workdir", str(workdir),
                     "--stages", "ingest,ngrams,bursts,topics,network"]) == 0
        path = workdir / artifact
        lines = path.read_text(encoding="utf-8").split("\n", 2)
        at = 1 if artifact == "index.jsonl" else 0  # after the header line
        obj = json.loads(lines[at])
        change(obj)
        lines[at] = json.dumps(obj)
        path.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main(["run", "--workdir", str(workdir), "--stages", stage]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.endswith(
            f"error: [{stage}] malformed artifact {path} ({error})\n")

    @pytest.mark.parametrize("stage, artifact, row, column, value, error", [
        pytest.param("score", "network_scores.csv", 0, 1, "indegree",
                     "KeyError: 'in_degree')", id="in_degree-renamed"),
        pytest.param("report", "global_scores.csv", 0, 4, "rank",
                     "KeyError: 'pagerank')", id="pagerank-renamed"),
        pytest.param("score", "network_scores.csv", 1, 1, "abc",
                     "ValueError: invalid literal for int() with base 10: "
                     "'abc')", id="bad-in_degree-score"),
        pytest.param("report", "global_scores.csv", 1, 1, "abc",
                     "ValueError: could not convert string to float: 'abc')",
                     id="bad-P-report"),
        *(pytest.param(stage, artifact, 1, column, value,
                       f"ValueError: {name}: expected a finite number, got "
                       f"{float(value)!r})", id=f"{value}-{name}-{stage}")
          for stage, artifact, column, name, value in (
              ("score", "network_scores.csv", 2, "pagerank", "nan"),
              ("report", "global_scores.csv", 1, "P", "inf"),
              ("report", "global_scores.csv", 2, "L", "-inf"),
              ("report", "global_scores.csv", 4, "pagerank", "nan"))),
        *(pytest.param(stage, artifact, 1, slice(1, None), [],  # the blog id
                       f"TypeError: {kind}() argument must be",  # alone
                       id=f"short-row-{stage}")
          for stage, artifact, kind in (("score", "network_scores.csv", "int"),
                                        ("report", "global_scores.csv",
                                         "float")))])
    def test_malformed_global_scores_exits_one_naming_it(
            self, small_corpus_file, tmp_path, capsys, stage, artifact, row,
            column, value, error):
        workdir = tmp_path / "w"
        assert main(["run", "--input", str(small_corpus_file),
                     "--workdir", str(workdir)]) == 0
        path = workdir / artifact
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[row][column] = value
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        # the first file the stage writes: it must read its input before it
        first_written = {"score": "dyadic_scores.csv",
                         "report": "report/scatter.csv"}[stage]
        (workdir / first_written).unlink()
        capsys.readouterr()
        assert main(["run", "--workdir", str(workdir), "--stages", stage]) == 1
        message = capsys.readouterr().err.splitlines()[-1]
        assert message.startswith(
            f"error: [{stage}] malformed artifact {path} ({error}")
        assert message.endswith(")")
        assert not (workdir / first_written).exists()

    def test_chunk_indices_beyond_64_bits_index_as_small_ones(self, tmp_path):
        def corpus_with_chunks(first, second):
            lines = []
            for i in range(12):
                body = [{"l": lemma, "p": "NOUN", "c": chunk} for lemma, chunk
                        in (("alpha", first), ("beta", first),
                            ("gamma", second), ("delta", second))]
                lines.append(json.dumps({
                    "post_id": f"p{i}", "blog_id": f"b{i % 4}",
                    "timestamp": 1000 + 3600 * i, "body": body}) + "\n")
            return "".join(lines)

        index = {}
        for name, chunks in (("wide", (-3, 10 ** 20)), ("small", (0, 1))):
            corpus_file = tmp_path / f"{name}.jsonl"
            corpus_file.write_text(corpus_with_chunks(*chunks))
            assert main(["run", "--input", str(corpus_file), "--workdir",
                         str(tmp_path / name)]) == 0
            index[name] = (tmp_path / name / "index.jsonl").read_text()
        assert index["wide"] == index["small"]
        assert '"lemmas": ["alpha", "beta"]' in index["wide"]
        assert '"beta", "gamma"' not in index["wide"]

    def test_kept_external_link_joins_the_graph(self, tmp_path):
        corpus_file = tmp_path / "c.jsonl"
        corpus_file.write_text(
            '{"post_id": "p1", "blog_id": "a", "timestamp": 100, '
            '"links": ["outside"]}\n'
            '{"post_id": "p2", "blog_id": "b", "timestamp": 200, '
            '"links": ["a"]}\n')
        workdir = tmp_path / "ext"
        assert main(["run", "--input", str(corpus_file), "--workdir",
                     str(workdir), "--keep-external-links",
                     "--min-posts", "1"]) == 0
        edges = (workdir / "graph_edges.csv").read_text().splitlines()
        assert edges == ["source,target,count", "a,outside,1", "b,a,1"]

    def test_synth_subcommand(self, tmp_path):
        spec = {"n_blogs": 6, "window_days": 20, "base_rate": 0.5, "seed": 1,
                "topics": []}
        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["synth", "--spec", str(spec_path),
                     "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "corpus.jsonl").exists()

    @pytest.mark.parametrize("spec, message", [
        ({"window_days": 20, "base_rate": 0.5}, "missing key 'n_blogs'"),
        ({"n_blogs": 6, "window_days": 20, "base_rate": 0.5,
          "topics": [{"words": ["a", "b"], "start_day": 2,
                      "participants": ["blog_000"] * 4}]},
         "topics: missing key 'duration_days'"),
        ([{"n_blogs": 6, "window_days": 20, "base_rate": 0.5}],
         "expected a JSON object"),
        ({"n_blogs": 6, "window_days": 20, "base_rate": 0.5, "colour": 1},
         "unknown key 'colour'"),
        ({"n_blogs": "six", "window_days": 20, "base_rate": 0.5},
         "n_blogs: expected an integer, got 'six'"),
        ({"n_blogs": 8.7, "window_days": 20, "base_rate": 0.5},
         "n_blogs: expected an integer, got 8.7"),
        ({"n_blogs": 6, "window_days": 20, "base_rate": 0.5, "seed": True},
         "seed: expected an integer, got True"),
        ({"n_blogs": 6, "window_days": 20, "base_rate": 0.5,
          "noise_vocab": "50"},
         "noise_vocab: expected an integer, got '50'"),
        ({"n_blogs": 6, "window_days": 20, "base_rate": 0.5,
          "rate_multipliers": {"blog_001": "x"}},
         "rate_multipliers: expected a number, got 'x'"),
        ({"n_blogs": None, "window_days": 20, "base_rate": 0.5},
         "n_blogs: expected an integer, got None"),
        ({"n_blogs": 6, "window_days": 20, "base_rate": True},
         "base_rate: expected a number, got True"),
        ({"n_blogs": 6, "window_days": "20", "base_rate": 0.5},
         "window_days: expected a number, got '20'"),
        ({"n_blogs": 6, "window_days": 20, "base_rate": 0.5,
          "rate_multipliers": {"blog_001": False}},
         "rate_multipliers: expected a number, got False"),
        ({"n_blogs": 6, "window_days": 20, "base_rate": 0.5,
          "topics": [{"words": ["a", "b"], "start_day": 2, "duration_days": 9,
                      "participants": ["blog_000"] * 4, "lead_hours": True}]},
         "topics: lead_hours: expected a number, got True"),
        ({"n_blogs": 6, "window_days": 20, "base_rate": 0.5,
          "rate_multipliers": [2.0]},
         "rate_multipliers: expected a JSON object"),
        ({"n_blogs": 6, "window_days": 20, "base_rate": 0.5,
          "topics": [{"words": ["a", "b"], "start_day": 2, "duration_days": 9,
                      "participants": ["blog_000"] * 4, "leader": 7}]},
         "topics: leader: expected a string or null, got 7"),
        ({"n_blogs": 6, "window_days": 20, "base_rate": 0.5,
          "topics": [{"words": "tax", "start_day": 2, "duration_days": 9,
                      "participants": ["blog_000"] * 4}]},
         "topics: words: expected an array, got 'tax'"),
        ({"n_blogs": 6, "window_days": 20, "base_rate": 0.5,
          "topics": [{"words": ["a", "b"], "start_day": 2, "duration_days": 9,
                      "participants": ["blog_000", 1, "blog_002", "blog_003"]}]},
         "topics: participants: expected a string, got 1"),
        ({"n_blogs": 6, "window_days": 20, "base_rate": 0.5, "topics": {}},
         "topics: expected an array, got {}"),
        ('{"n_blogs": 6,', "Expecting property name enclosed in double "
                           "quotes: line 1 column 15 (char 14)"),
        # Python's json reads these, RFC 8259 does not
        ('{"n_blogs": 3, "window_days": Infinity, "base_rate": 1.0}',
         "window_days: expected a finite number, got inf"),
        ('{"n_blogs": 3, "window_days": 20, "base_rate": NaN}',
         "base_rate: expected a finite number, got nan"),
    ], ids=["no n_blogs", "topic without duration_days", "top-level array",
            "unknown key", "badly typed value", "fractional count",
            "boolean seed", "numeric string", "non-numeric rate",
            "null count", "boolean rate", "numeric string window",
            "boolean rate multiplier", "boolean lead_hours",
            "rates not an object", "non-string leader", "words not an array",
            "non-string participant", "topics not an array", "not JSON",
            "infinite window", "NaN rate"])
    def test_bad_synth_spec_exits_one_naming_file_and_key(
            self, tmp_path, capsys, spec, message):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
        assert main(["synth", "--spec", str(spec_path),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {spec_path}: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_dry_run_flag(self, small_corpus_file, tmp_path, capsys):
        assert main(["run", "--input", str(small_corpus_file),
                     "--workdir", str(tmp_path / "dd"), "--dry-run"]) == 0
        assert "stage plan" in capsys.readouterr().out

    def test_default_logs_info_with_every_ingest_counter(
            self, small_corpus_file, tmp_path, caplog):
        assert main(["run", "--input", str(small_corpus_file),
                     "--workdir", str(tmp_path / "v0"),
                     "--stages", "ingest"]) == 0
        info = precursor_messages(caplog, logging.INFO)
        assert len(info) == 1 and info[0].startswith("[ingest]")
        for counter in ("records read", "out of window", "pos warnings",
                        "empty-lemma tokens", "self links", "external links"):
            assert counter in info[0]
        assert not precursor_messages(caplog, logging.DEBUG)

    def test_verbose_flag_logs_debug(self, small_corpus_file, tmp_path, caplog):
        assert main(["run", "-v", "--input", str(small_corpus_file),
                     "--workdir", str(tmp_path / "v1"),
                     "--stages", "ingest"]) == 0
        debug = precursor_messages(caplog, logging.DEBUG)
        assert len(debug) == 1 and debug[0].startswith("[ingest] done in")

    def test_verbose_stage_lines_report_cpu_and_rss(
            self, small_corpus_file, tmp_path, caplog):
        assert main(["run", "-v", "--input", str(small_corpus_file),
                     "--workdir", str(tmp_path / "v3")]) == 0
        debug = precursor_messages(caplog, logging.DEBUG)
        pattern = re.compile(r"\[(\w+)\] done in [\d.]+ s "
                             r"\(cpu [\d.]+ s, peak rss ([\d.]+) MiB\)")
        matches = [pattern.fullmatch(line) for line in debug]
        assert all(matches) and len(matches) == len(STAGES)
        assert [m.group(1) for m in matches] == list(STAGES)
        assert all(float(m.group(2)) > 0 for m in matches)
        score_line, = [line for line in precursor_messages(caplog, logging.INFO)
                       if line.startswith("[score]")]
        rows = (tmp_path / "v3" / "dyadic_scores.csv").read_text().splitlines()
        eligible = eligible_from_artifact(tmp_path / "v3")
        assert score_line.startswith(
            f"[score] {len(eligible) * (len(eligible) - 1)} dyads scored "
            f"over {len(eligible)} eligible blogs")
        assert score_line.endswith(f"({len(rows) - 1} with shared topics)")

    def test_out_of_range_flag_fails_before_any_stage(
            self, small_corpus_file, tmp_path, capsys):
        workdir = tmp_path / "bad"
        assert main(["run", "--input", str(small_corpus_file),
                     "--workdir", str(workdir), "--damping", "1.5"]) == 1
        assert "damping" in capsys.readouterr().err
        assert not workdir.exists()

    @pytest.mark.parametrize("flags, names", [
        (["--window-start", "10", "--window-end", "5"], ["window_start"]),
        (["--max-total-burst-days", "-1", "--min-blogs", "-3"],
         ["max_total_burst_days", "min_blogs"])])
    def test_bad_window_or_filter_flags_fail_before_any_stage(
            self, small_corpus_file, tmp_path, capsys, flags, names):
        workdir = tmp_path / "bad"
        assert main(["run", "--input", str(small_corpus_file),
                     "--workdir", str(workdir), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and any(n in err for n in names)
        assert not workdir.exists()

    def test_badly_typed_config_value_names_file_line_and_key(
            self, small_corpus_file, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("min_blogs = 3\nalpha = abc\n")
        workdir = tmp_path / "bad"
        assert main(["run", "--config", str(path), "--input",
                     str(small_corpus_file), "--workdir", str(workdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: alpha: ")
        assert "'abc'" in err and not workdir.exists()

    def test_quiet_flag_drops_info(self, small_corpus_file, tmp_path, caplog):
        assert main(["run", "-q", "--input", str(small_corpus_file),
                     "--workdir", str(tmp_path / "v2"),
                     "--stages", "ingest"]) == 0
        assert (tmp_path / "v2" / "corpus.jsonl").exists()
        assert not precursor_messages(caplog, logging.INFO)


REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in
                                        (REPO / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(REPO / "demos" / demo)],
                          cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def run_in_child(args: list[str], hash_seed: int) -> bool:
    """`precursor` with these arguments in a fresh interpreter under this
    PYTHONHASHSEED, which must exit 0; whether numpy.ma was imported by
    the end."""
    code = ("import sys\nfrom precursor.cli import main\n"
            f"status = main({args!r})\n"
            "print('numpy.ma' in sys.modules)\nsys.exit(status)\n")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1] == "True"


def test_run_never_imports_numpy_ma(small_corpus_file, tmp_path):
    # np.percentile and np.unique import numpy.ma, which costs the report
    # stage most of its time on every workload
    assert not run_in_child(["run", "-q", "--input", str(small_corpus_file),
                             "--workdir", str(tmp_path / "w")], 0)


def test_artifacts_do_not_depend_on_the_string_hash_seed(tmp_path):
    """The batched kernels order n-grams and dyads through dicts and sets of
    strings, whose iteration order follows PYTHONHASHSEED."""
    records, _ = generate(leader_follower_spec(n_blogs=10, n_topics=12,
                                               window_days=60, seed=2))
    synth.write_corpus(records, tmp_path / "corpus.jsonl")
    for seed in (0, 1):
        run_in_child(["run", "-q", "--input", str(tmp_path / "corpus.jsonl"),
                      "--workdir", str(tmp_path / f"hash{seed}")], seed)
    first, second = (artifact_bytes(tmp_path / f"hash{seed}")
                     for seed in (0, 1))
    assert len(first) == 23
    assert first == second
    assert len(first["topics.jsonl"].splitlines()) > 1
    assert len(first["dyadic_scores.csv"].splitlines()) > 1
