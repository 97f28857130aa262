"""Staged pipeline orchestration with resumable intermediate artifacts.

Stages run in a fixed order (ingest, ngrams, bursts, topics, score, network,
report); each writes its artifacts atomically (temp file + rename) to the
working directory, so any suffix of the pipeline can be re-run without
repeating earlier stages.  Within one `run_pipeline` call the corpus is
parsed once, by the ingest stage or else by the first stage that needs it,
and handed to the ngrams, score and network stages; every other input is
read from the artifacts of the preceding stages.  A stage run on its own
therefore reads `corpus.jsonl` and its other inputs from the working
directory.  No stage draws random numbers, so re-running a stage with
unchanged inputs and config reproduces its artifacts byte for byte, whatever
the seed.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import resource
import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import analysis, network, scoring, svg, synth
from .bursts import Burst, FilterConfig, detect_all, filter_bursts
from .config import PipelineConfig
from .corpus import DAY, HOUR, Corpus, IngestConfig, Pos, Post, load_corpus
from .ngrams import Ngram, NgramConfig, Occurrence, build_index, load_stopwords
from .topics import Topic, merge_bursts

logger = logging.getLogger("precursor")

STAGES = ("ingest", "ngrams", "bursts", "topics", "score", "network", "report")


class StageError(Exception):
    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


def _atomic_write(path: Path, writer: Callable) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        writer(fh)
    os.replace(tmp, path)


def _require(stage: str, *paths: Path) -> None:
    for path in paths:
        if not path.exists():
            raise StageError(stage, f"missing prerequisite artifact {path}")


# ---------------------------------------------------------------- artifacts

def _post_record(post: Post) -> dict:
    def toks(tokens):
        return [{"l": t.lemma, "p": t.pos.value, "c": t.chunk} for t in tokens]
    return {"post_id": post.post_id, "blog_id": post.blog_id,
            "timestamp": post.timestamp, "title": toks(post.title_tokens),
            "body": toks(post.body_tokens), "links": sorted(post.out_links)}


def write_corpus_artifact(corpus: Corpus, path: Path) -> None:
    def writer(fh):
        for post in corpus.posts:
            fh.write(json.dumps(_post_record(post), sort_keys=True,
                                ensure_ascii=False) + "\n")
    _atomic_write(path, writer)


def _ingest_config(cfg: PipelineConfig) -> IngestConfig:
    return IngestConfig(window_start=cfg.window_start,
                        window_end=cfg.window_end,
                        keep_external_links=cfg.keep_external_links,
                        assume_nouns=cfg.assume_nouns)


def _ngram_json(ngram: Ngram) -> dict:
    return {"lemmas": list(ngram.lemmas),
            "pos": [pos.value for _, pos in ngram.words]}


def _ngram_from_json(obj: dict) -> Ngram:
    return Ngram(tuple(zip(obj["lemmas"], (Pos(p) for p in obj["pos"]))))


def _occ_json(occ: Occurrence) -> list:
    return [occ.timestamp, occ.blog_id, occ.post_id]


def write_index_artifact(index: dict[Ngram, list[Occurrence]], path: Path) -> None:
    def writer(fh):
        for ngram in sorted(index, key=lambda n: n.lemmas):
            record = _ngram_json(ngram)
            record["occurrences"] = [_occ_json(o) for o in index[ngram]]
            fh.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")
    _atomic_write(path, writer)


def read_index_artifact(path: Path) -> dict[Ngram, list[Occurrence]]:
    index = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            index[_ngram_from_json(obj)] = [Occurrence(int(t), b, p)
                                            for t, b, p in obj["occurrences"]]
    return index


def _burst_json(burst: Burst) -> dict:
    record = _ngram_json(burst.ngram)
    record["start"] = burst.start
    record["end"] = burst.end
    record["occurrences"] = [_occ_json(o) for o in burst.occurrences]
    return record


def _burst_from_json(obj: dict) -> Burst:
    return Burst(ngram=_ngram_from_json(obj), start=int(obj["start"]),
                 end=int(obj["end"]),
                 occurrences=tuple(Occurrence(int(t), b, p)
                                   for t, b, p in obj["occurrences"]))


def write_bursts_artifact(bursts: Sequence[Burst], path: Path) -> None:
    def writer(fh):
        for burst in bursts:
            fh.write(json.dumps(_burst_json(burst), sort_keys=True,
                                ensure_ascii=False) + "\n")
    _atomic_write(path, writer)


def read_bursts_artifact(path: Path) -> list[Burst]:
    with open(path, encoding="utf-8") as fh:
        return [_burst_from_json(json.loads(line)) for line in fh]


def write_topics_artifact(topics: Sequence[Topic], path: Path) -> None:
    def writer(fh):
        for topic in topics:
            record = {"topic_id": topic.topic_id,
                      "ngrams": [_ngram_json(n) for n in topic.ngrams],
                      "start": topic.start, "end": topic.end,
                      "participations": dict(sorted(topic.participations.items())),
                      "bursts": [_burst_json(b) for b in topic.bursts]}
            fh.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")
    _atomic_write(path, writer)


def read_topics_artifact(path: Path) -> list[Topic]:
    topics = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            bursts = tuple(_burst_from_json(b) for b in obj["bursts"])
            ngrams = tuple(_ngram_from_json(n) for n in obj["ngrams"])
            topics.append(Topic(
                topic_id=obj["topic_id"], ngrams=ngrams, start=int(obj["start"]),
                end=int(obj["end"]), bursts=bursts,
                participations={b: int(t)
                                for b, t in obj["participations"].items()}))
    return topics


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    def writer(fh):
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        for row in rows:
            out.writerow(["" if v is None else
                          (repr(v) if isinstance(v, float) else v)
                          for v in row])
    _atomic_write(path, writer)


# ------------------------------------------------------------------ stages

def stage_ingest(cfg: PipelineConfig, workdir: Path) -> Corpus:
    if not cfg.input:
        raise StageError("ingest", "no input corpus file configured")
    if not Path(cfg.input).exists():
        raise StageError("ingest", f"input file {cfg.input} not found")
    corpus = load_corpus(cfg.input, _ingest_config(cfg))
    write_corpus_artifact(corpus, workdir / "corpus.jsonl")
    r = corpus.report
    logger.info("[ingest] %d posts from %d blogs (%d records read, "
                "%d out of window, %d pos warnings, %d empty-lemma tokens, "
                "%d self links, %d external links)", r.posts_loaded,
                len(corpus.blogs), r.records_read, r.out_of_window,
                r.pos_warnings, r.empty_lemma_tokens, r.self_links,
                r.external_links)
    return corpus


def _load_corpus_artifact(cfg: PipelineConfig, workdir: Path,
                          stage: str) -> Corpus:
    path = workdir / "corpus.jsonl"
    _require(stage, path)
    return load_corpus(path, _ingest_config(cfg))


def _ngram_config(cfg: PipelineConfig) -> NgramConfig:
    if cfg.stopwords:
        return NgramConfig(max_len=cfg.max_ngram_len,
                           stopwords=load_stopwords(cfg.stopwords))
    return NgramConfig(max_len=cfg.max_ngram_len)


def stage_ngrams(cfg: PipelineConfig, workdir: Path, corpus: Corpus) -> None:
    index = build_index(corpus, _ngram_config(cfg))
    write_index_artifact(index, workdir / "index.jsonl")
    total = sum(len(v) for v in index.values())
    logger.info("[ngrams] %d n-grams kept, %d occurrences", len(index), total)


def stage_bursts(cfg: PipelineConfig, workdir: Path) -> None:
    path = workdir / "index.jsonl"
    _require("bursts", path)
    index = read_index_artifact(path)
    detected = detect_all(index, alpha=cfg.alpha, beta=cfg.beta_days * DAY)
    filters = FilterConfig(min_blogs=cfg.min_blogs,
                           min_mean_gap=cfg.min_mean_gap_hours * HOUR,
                           max_mean_gap=cfg.max_mean_gap_days * DAY,
                           min_duration=cfg.min_burst_days * DAY,
                           max_total_duration=cfg.max_total_burst_days * DAY)
    kept = filter_bursts(detected, filters)
    write_bursts_artifact(kept, workdir / "bursts.jsonl")
    n_detected = sum(len(v) for v in detected.values())
    logger.info("[bursts] %d detected, %d kept after filters", n_detected,
                len(kept))


def stage_topics(cfg: PipelineConfig, workdir: Path) -> None:
    path = workdir / "bursts.jsonl"
    _require("topics", path)
    bursts = read_bursts_artifact(path)
    topics = merge_bursts(bursts, keep_singletons=cfg.keep_singletons)
    write_topics_artifact(topics, workdir / "topics.jsonl")
    logger.info("[topics] %d topics from %d bursts", len(topics), len(bursts))


def _scoring_config(cfg: PipelineConfig) -> scoring.ScoringConfig:
    return scoring.ScoringConfig(min_posts=cfg.min_posts,
                                 variant=cfg.likelihood_variant)


def stage_score(cfg: PipelineConfig, workdir: Path, corpus: Corpus) -> None:
    topics_path = workdir / "topics.jsonl"
    _require("score", topics_path)
    topics = read_topics_artifact(topics_path)
    config = _scoring_config(cfg)
    blogs = scoring.eligible_blogs(corpus, config.min_posts)
    shared = scoring.score_shared_dyads(corpus, topics, blogs, config)
    _write_csv(workdir / "dyadic_scores.csv",
               ["b", "b2", "a_size", "y_size", "gamma", "pr_h", "omega"],
               ([s.b, s.b2, s.a_size, s.y_size, s.gamma, s.pr_h, s.omega]
                for s in scoring.all_dyads(blogs, shared)))
    pl = scoring.global_scores(shared, blogs)
    _write_csv(workdir / "global_scores.csv", ["blog_id", "P", "L"],
               [[b, pl[b][0], pl[b][1]] for b in blogs])
    logger.info("[score] %d dyads scored over %d eligible blogs "
                "(%d with shared topics)", len(blogs) * (len(blogs) - 1),
                len(blogs), len(shared))


def read_global_scores(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def stage_network(cfg: PipelineConfig, workdir: Path, corpus: Corpus) -> None:
    scores_path = workdir / "global_scores.csv"
    _require("network", scores_path)
    graph = network.build_graph(corpus)
    _write_csv(workdir / "graph_edges.csv", ["source", "target", "count"],
               [list(edge) for edge in graph.edges()])
    degrees = network.in_degrees(graph)
    ranks = network.pagerank(graph, damping=cfg.damping)
    rows = read_global_scores(scores_path)
    merged = [[row["blog_id"], float(row["P"]), float(row["L"]),
               degrees.get(row["blog_id"], 0),
               ranks.get(row["blog_id"], 0.0)] for row in rows]
    _write_csv(scores_path, ["blog_id", "P", "L", "in_degree", "pagerank"],
               merged)
    logger.info("[network] %d edges, %d nodes", len(graph.weights),
                len(graph.nodes))


def stage_report(cfg: PipelineConfig, workdir: Path) -> None:
    scores_path = workdir / "global_scores.csv"
    _require("report", scores_path)
    rows = read_global_scores(scores_path)
    if rows and "in_degree" not in rows[0]:
        raise StageError("report", "global_scores.csv lacks network metrics; "
                                   "run the network stage first")
    report_dir = workdir / "report"
    report_dir.mkdir(exist_ok=True)

    blogs = [r["blog_id"] for r in rows]
    p_scores = {r["blog_id"]: float(r["P"]) for r in rows}
    l_scores = {r["blog_id"]: float(r["L"]) for r in rows}
    degrees = {r["blog_id"]: int(r["in_degree"]) for r in rows}
    ranks = {r["blog_id"]: float(r["pagerank"]) for r in rows}

    _write_csv(report_dir / "scatter.csv",
               ["blog_id", "P", "L", "in_degree", "pagerank"],
               [[b, p_scores[b], l_scores[b], degrees[b], ranks[b]]
                for b in blogs])
    _atomic_write(report_dir / "scatter.svg", lambda fh: fh.write(
        svg.scatter_svg([(p_scores[b], l_scores[b]) for b in blogs],
                        "precursor score P", "laggard score L",
                        "Precursor vs laggard scores")))

    metric_maps = {"indegree": {b: float(degrees[b]) for b in blogs},
                   "pagerank": ranks}
    score_maps = {"precursor": p_scores, "laggard": l_scores}
    for s_name, s_map in score_maps.items():
        for m_name, m_map in metric_maps.items():
            bins = analysis.binned_summary(s_map, m_map, n_bins=cfg.bins,
                                           log_bins=cfg.log_bins)
            name = f"boxplots_{s_name}_{m_name}"
            _write_csv(report_dir / f"{name}.csv",
                       ["bin", "lo", "hi", "count", "min", "q1", "median",
                        "q3", "max", "mean"],
                       [[i, s.lo, s.hi, s.count, s.minimum, s.q1, s.median,
                         s.q3, s.maximum, s.mean]
                        for i, s in enumerate(bins)])
            _atomic_write(report_dir / f"{name}.svg", lambda fh, b=bins,
                          sn=s_name, mn=m_name: fh.write(
                svg.boxplot_svg(b, f"{sn} score bins", mn,
                                f"{mn} by {sn} score")))

    if blogs:
        partition = analysis.classify({b: (p_scores[b], l_scores[b])
                                       for b in blogs})
        _write_csv(report_dir / "classes.csv",
                   ["blog_id", "P", "L", "cls", "p_threshold", "l_threshold"],
                   [[b, p_scores[b], l_scores[b], partition.assignment[b],
                     partition.thresholds[0], partition.thresholds[1]]
                    for b in blogs])
        table = analysis.significance_table(
            partition, {b: float(degrees[b]) for b in blogs})
        _write_csv(report_dir / "significance.csv",
                   ["class_a", "class_b", "n_a", "n_b", "mean_a", "mean_b",
                    "statistic", "p_value", "stars"],
                   [[r["class_a"], r["class_b"], r["n_a"], r["n_b"],
                     r["mean_a"], r["mean_b"], r["statistic"], r["p_value"],
                     r["stars"]] for r in table])

        points = [(p_scores[b], l_scores[b], float(degrees[b])) for b in blogs]
        cells = analysis.hexbin(points, grid_size=cfg.hex_grid)
        _write_csv(report_dir / "hexbin.csv",
                   ["q", "r", "center_p", "center_l", "count", "mean_metric"],
                   [[c.q, c.r, c.center_x, c.center_y, c.count, c.mean_metric]
                    for c in cells])
        _atomic_write(report_dir / "hexbin.svg", lambda fh: fh.write(
            svg.hexbin_svg(cells, analysis.hex_size_for(points, cfg.hex_grid),
                           "precursor score P", "laggard score L",
                           "Mean in-degree per (P, L) region")))

        corners = analysis.corner_lists(p_scores, degrees)
        corner_rows = []
        for corner in ("ll", "lh", "hl", "hh"):
            for rank, (blog, dist) in enumerate(corners[corner], start=1):
                corner_rows.append([corner, rank, blog, p_scores[blog],
                                    degrees[blog], dist])
        _write_csv(report_dir / "corner_lists.csv",
                   ["corner", "rank", "blog_id", "P", "in_degree", "distance"],
                   corner_rows)
    logger.info("[report] wrote report/ tables and figures for %d blogs",
                len(blogs))


_STAGE_FUNCS = {"ingest": stage_ingest, "ngrams": stage_ngrams,
                "bursts": stage_bursts, "topics": stage_topics,
                "score": stage_score, "network": stage_network,
                "report": stage_report}
_CORPUS_STAGES = ("ngrams", "score", "network")


def run_pipeline(cfg: PipelineConfig, stages: Sequence[str] | None = None,
                 dry_run: bool = False) -> None:
    selected = list(stages) if stages else list(STAGES)
    unknown = [s for s in selected if s not in STAGES]
    if unknown:
        raise StageError(unknown[0], "unknown stage")
    selected = [s for s in STAGES if s in selected]
    workdir = Path(cfg.workdir)
    if dry_run:
        print("dry run; stage plan: " + " -> ".join(selected))
        for f in sorted(vars(cfg)):
            print(f"  {f} = {getattr(cfg, f)}")
        return
    workdir.mkdir(parents=True, exist_ok=True)
    corpus = None
    for stage in selected:
        start, cpu_start = time.perf_counter(), time.process_time()
        if stage == "ingest":
            corpus = stage_ingest(cfg, workdir)
        elif stage in _CORPUS_STAGES:
            if corpus is None:
                corpus = _load_corpus_artifact(cfg, workdir, stage)
            _STAGE_FUNCS[stage](cfg, workdir, corpus)
        else:
            _STAGE_FUNCS[stage](cfg, workdir)
        logger.debug("[%s] done in %.2f s (cpu %.2f s, peak rss %.1f MiB)",
                     stage, time.perf_counter() - start,
                     time.process_time() - cpu_start,  # ru_maxrss is in KiB
                     resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def run_synth(spec_path: str | Path, out_dir: str | Path,
              seed: int | None = None, rate_ramp: float | None = None) -> None:
    """Generate a synthetic corpus + ground truth from a JSON spec file."""
    with open(spec_path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if rate_ramp is not None:
        obj["rate_ramp"] = rate_ramp
    topics = [synth.PlantedTopic(
        words=tuple(t["words"]), start_day=float(t["start_day"]),
        duration_days=float(t["duration_days"]),
        participants=tuple(t["participants"]), leader=t.get("leader"),
        lead_hours=float(t.get("lead_hours", 12.0))) for t in obj.get("topics", [])]
    spec = synth.SynthSpec(
        n_blogs=int(obj["n_blogs"]), window_days=float(obj["window_days"]),
        base_rate=float(obj["base_rate"]), topics=topics,
        rate_multipliers=obj.get("rate_multipliers", {}),
        noise_vocab=int(obj.get("noise_vocab", 400)),
        link_prob=float(obj.get("link_prob", 0.3)),
        rate_ramp=float(obj.get("rate_ramp", 0.0)),
        seed=int(obj["seed"] if seed is None else seed))
    records, truth = synth.generate(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    synth.write_corpus(records, out / "corpus.jsonl")
    with open(out / "ground_truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth.to_json(), fh, indent=2, sort_keys=True)
    logger.info("[synth] %d posts, %d planted topics -> %s", len(records),
                len(truth.topics), out)
