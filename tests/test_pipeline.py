import json
import logging
import re
from pathlib import Path

import pytest

from precursor.cli import main
from precursor.config import PipelineConfig, build_config, parse_config_file
from precursor.corpus import IngestConfig, corpus_from_records, load_corpus
from precursor.ngrams import build_index
from precursor.bursts import detect_all, filter_bursts
from precursor.pipeline import (STAGES, StageError, read_bursts_artifact,
                                read_index_artifact, read_topics_artifact,
                                run_pipeline, run_synth, write_bursts_artifact,
                                write_index_artifact, write_topics_artifact)
from precursor.synth import SynthSpec, blog_ids, generate, leader_follower_spec
from precursor.topics import merge_bursts
from precursor import pipeline, synth


@pytest.fixture(scope="module")
def small_corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("synth") / "corpus.jsonl"
    spec = leader_follower_spec(n_blogs=8, n_topics=3, window_days=30,
                                base_rate=0.6, seed=5)
    records, _ = generate(spec)
    synth.write_corpus(records, path)
    return path


def run_all(corpus_file, workdir, jobs=1, seed=1):
    cfg = PipelineConfig(input=str(corpus_file), workdir=str(workdir),
                         seed=seed, jobs=jobs)
    run_pipeline(cfg)
    return workdir


class TestConfig:
    def test_parse_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alpha = 7.5\nkeep-singletons = true\n"
                        "# comment\nmin_blogs = 3\n")
        cfg = build_config(path, {"min_blogs": 6, "seed": None})
        assert cfg.alpha == 7.5
        assert cfg.keep_singletons is True
        assert cfg.min_blogs == 6  # CLI overrides file

    def test_unknown_likelihood_variant_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("likelihood_variant = literal\n")
        with pytest.raises(ValueError, match="verbatim"):
            build_config(path)
        with pytest.raises(ValueError, match="partitioned"):
            build_config(overrides={"likelihood_variant": "Verbatim"})
        assert build_config(overrides={"likelihood_variant": "partitioned"}) \
            .likelihood_variant == "partitioned"

    @pytest.mark.parametrize("name, bad, good", [
        ("alpha", 0.0, 0.5), ("beta_days", -1.0, 0.1),
        ("damping", 1.0, 0.99), ("damping", 0.0, 0.01),
        ("bins", 0, 1), ("hex_grid", 0, 1), ("max_ngram_len", 0, 1),
        ("min_posts", 0, 1)])
    def test_out_of_range_values_rejected(self, name, bad, good):
        with pytest.raises(ValueError, match=name):
            build_config(overrides={name: bad})
        assert getattr(build_config(overrides={name: good}), name) == good

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

    def test_seed_env_fallback(self, monkeypatch):
        monkeypatch.setenv("PRECURSOR_SEED", "77")
        assert PipelineConfig().resolved_seed() == 77
        assert PipelineConfig(seed=3).resolved_seed() == 3
        monkeypatch.delenv("PRECURSOR_SEED")
        assert PipelineConfig().resolved_seed() == 0


class TestArtifacts:
    def test_round_trips(self, small_corpus_file, tmp_path):
        corpus = load_corpus(small_corpus_file)
        index = build_index(corpus)
        path = tmp_path / "index.jsonl"
        write_index_artifact(index, path)
        assert read_index_artifact(path) == index

        bursts = filter_bursts(detect_all(index))
        bpath = tmp_path / "bursts.jsonl"
        write_bursts_artifact(bursts, bpath)
        assert read_bursts_artifact(bpath) == bursts

        topics = merge_bursts(bursts)
        tpath = tmp_path / "topics.jsonl"
        write_topics_artifact(topics, tpath)
        assert read_topics_artifact(tpath) == topics


class TestRunPipeline:
    def test_full_run_writes_all_artifacts(self, small_corpus_file, tmp_path):
        workdir = run_all(small_corpus_file, tmp_path / "out")
        for name in ("corpus.jsonl", "index.jsonl", "bursts.jsonl",
                     "topics.jsonl", "dyadic_scores.csv", "global_scores.csv",
                     "graph_edges.csv"):
            assert (workdir / name).exists(), name
        report = workdir / "report"
        for name in ("scatter.csv", "scatter.svg", "classes.csv",
                     "significance.csv", "hexbin.csv", "hexbin.svg",
                     "corner_lists.csv", "boxplots_precursor_indegree.csv",
                     "boxplots_precursor_pagerank.csv",
                     "boxplots_laggard_indegree.csv",
                     "boxplots_laggard_pagerank.csv",
                     "boxplots_precursor_indegree.svg"):
            assert (report / name).exists(), name
        header = (workdir / "global_scores.csv").read_text().splitlines()[0]
        assert header == "blog_id,P,L,in_degree,pagerank"

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
        reloaded = load_corpus(tmp_path / "corpus.jsonl", IngestConfig(
            window_start=window[0], window_end=window[1],
            keep_external_links=keep_external, assume_nouns=assume_nouns))
        assert ingested.posts == reloaded.posts
        assert ingested.blogs == reloaded.blogs
        assert ingested.window == reloaded.window
        r = ingested.report
        assert r.self_links > 0 and r.empty_lemma_tokens > 0
        assert (r.external_links > 0) != keep_external
        assert (r.pos_warnings > 0) != assume_nouns
        assert (r.out_of_window > 0) == (window != (None, None))


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
        assert main(["report", "--workdir", str(workdir), "--bins", "3"]) == 0

    def test_missing_artifact_exits_nonzero(self, tmp_path, capsys):
        assert main(["run", "--workdir", str(tmp_path / "void"),
                     "--stages", "score"]) == 1
        assert "[score]" in capsys.readouterr().err

    def test_synth_subcommand(self, tmp_path):
        spec = {"n_blogs": 6, "window_days": 20, "base_rate": 0.5, "seed": 1,
                "topics": []}
        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["synth", "--spec", str(spec_path),
                     "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "corpus.jsonl").exists()

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
        n_shared = sum(1 for row in rows[1:] if row.split(",")[2] != "0")
        assert score_line.startswith(f"[score] {len(rows) - 1} dyads scored")
        assert score_line.endswith(f"({n_shared} with shared topics)")

    def test_out_of_range_flag_fails_before_any_stage(
            self, small_corpus_file, tmp_path, capsys):
        workdir = tmp_path / "bad"
        assert main(["run", "--input", str(small_corpus_file),
                     "--workdir", str(workdir), "--damping", "1.5"]) == 1
        assert "damping" in capsys.readouterr().err
        assert not workdir.exists()

    def test_quiet_flag_drops_info(self, small_corpus_file, tmp_path, caplog):
        assert main(["run", "-q", "--input", str(small_corpus_file),
                     "--workdir", str(tmp_path / "v2"),
                     "--stages", "ingest"]) == 0
        assert (tmp_path / "v2" / "corpus.jsonl").exists()
        assert not precursor_messages(caplog, logging.INFO)
