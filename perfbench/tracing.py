"""Traced in-process pipeline run: per-layer times and counts.

The program is not edited. Each layer's public functions are replaced, for
the length of the run, by wrappers that time and count the calls, in the
namespace where the caller looks them up: `pipeline` imports load_corpus,
build_index, detect_all, filter_bursts and merge_bursts by name, while
`score_dyad` calls gamma, build_dyad_context and pr_h as `scoring` globals.
Totals are kept in memory (one sum and one count per name, not one span per
call) and returned when the run ends. A function the program no longer has
is left unwrapped, and its metrics read 0.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from pathlib import Path

from precursor import analysis, bursts, ngrams, network, pipeline, scoring, topics
from precursor.config import PipelineConfig
from precursor.corpus import LoadReport

ARTIFACT_WRITERS = ("write_corpus_artifact", "write_index_artifact",
                    "write_bursts_artifact", "write_topics_artifact")
ARTIFACT_READERS = ("read_index_artifact", "read_bursts_artifact",
                    "read_topics_artifact", "read_global_scores")
REPORT_FUNCS = ("classify", "binned_summary", "significance_table", "hexbin",
                "corner_lists")
LOAD_REPORT_FIELDS = tuple(LoadReport.__dataclass_fields__)
GAMMA_PATHS = ("scoring.gamma_empty", "scoring.gamma_exact", "scoring.gamma_sampled")
# timed names whose call counts are metrics too
COUNTED_CALLS = ("corpus.load_corpus", "ngrams.enumerate_ngrams",
                 "bursts.detect_bursts", *GAMMA_PATHS)
COUNTS = ("ngrams.kept", "ngrams.occurrences", "bursts.detected", "bursts.kept",
          "topics.generalization_checks", "topics.generalization_hits",
          "topics.topics", "scoring.dyads_scored",
          "scoring.dyads_coparticipating", "network.edges")


class Tracer:
    """Replaces module attributes with timing wrappers until restore()."""

    def __init__(self):
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter({k: 0 for k in COUNTS})
        self.load_report: LoadReport | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _patch(self, module, name: str, wrapper_of) -> None:
        original = getattr(module, name, None)
        if original is None:
            return
        self._patched.append((module, name, original))
        setattr(module, name, wrapper_of(original))

    def time(self, module, name: str, key, observe=None, keys=()) -> None:
        """Time every call under key: a name, or a function of the call's
        arguments that returns one of keys."""
        for k in keys or (key,):
            self.seconds[k] += 0.0  # reported even when never called

        def wrapper_of(original):
            def timed(*args, **kwargs):
                start = time.perf_counter()
                result = original(*args, **kwargs)
                elapsed = time.perf_counter() - start
                k = key(*args, **kwargs) if callable(key) else key
                self.seconds[k] += elapsed
                self.calls[k] += 1
                if observe is not None:
                    observe(result)
                return result
            return timed
        self._patch(module, name, wrapper_of)

    def count(self, module, name: str, key: str) -> None:
        """Count calls and truthy results only; used on the hottest calls."""
        def wrapper_of(original):
            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                self.counts[key + "_checks"] += 1
                if result:
                    self.counts[key + "_hits"] += 1
                return result
            return counted
        self._patch(module, name, wrapper_of)

    def restore(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)


def _gamma_path(ctx, *args, exact_limit: int = scoring.EXACT_LIMIT, **kwargs) -> str:
    if not ctx.a_topics:
        return "scoring.gamma_empty"
    if len(ctx.y_topics) > exact_limit:
        return "scoring.gamma_sampled"
    return "scoring.gamma_exact"


def install(tracer: Tracer) -> None:
    t, counts = tracer, tracer.counts

    def on_corpus(corpus):
        if tracer.load_report is None:  # the ingest stage's load of the input
            tracer.load_report = corpus.report

    def on_index(index):
        counts["ngrams.kept"] += len(index)
        counts["ngrams.occurrences"] += sum(len(v) for v in index.values())

    def on_detected(found):
        counts["bursts.detected"] += sum(len(v) for v in found.values())

    def on_scores(scores):
        counts["scoring.dyads_scored"] += len(scores)
        counts["scoring.dyads_coparticipating"] += sum(s.a_size > 0 for s in scores)

    def count_len(key):
        return lambda result: counts.update({key: len(result)})

    t.time(pipeline, "load_corpus", "corpus.load_corpus", on_corpus)
    t.time(pipeline, "build_index", "ngrams.build_index", on_index)
    t.time(ngrams, "enumerate_ngrams", "ngrams.enumerate_ngrams")
    t.time(pipeline, "detect_all", "bursts.detect_all", on_detected)
    t.time(bursts, "detect_bursts", "bursts.detect_bursts")
    t.time(pipeline, "filter_bursts", "bursts.filter_bursts", count_len("bursts.kept"))
    t.time(pipeline, "merge_bursts", "topics.merge_bursts", count_len("topics.topics"))
    t.count(topics, "is_generalization", "topics.generalization")
    t.time(scoring, "score_pairs", "scoring.score_pairs", on_scores)
    t.time(scoring, "build_dyad_context", "scoring.context")
    t.time(scoring, "pr_h", "scoring.pr_h")
    t.time(scoring, "gamma", _gamma_path, keys=GAMMA_PATHS)
    t.time(scoring, "global_scores", "scoring.global_scores")
    t.time(network, "build_graph", "network.build_graph",
           lambda graph: counts.update({"network.edges": len(graph.weights)}))
    t.time(network, "in_degrees", "network.in_degrees")
    t.time(network, "pagerank", "network.pagerank")
    for name in REPORT_FUNCS:
        t.time(analysis, name, "analysis.report")
    for name in ARTIFACT_WRITERS:
        t.time(pipeline, name, "pipeline.artifact_write")
    for name in ARTIFACT_READERS:
        t.time(pipeline, name, "pipeline.artifact_read")


def traced_run(corpus_path: Path, workdir: Path, seed: int) -> dict[str, float]:
    """Run every stage in-process under the tracer; per-layer metrics by name."""
    cfg = PipelineConfig(input=str(corpus_path), workdir=str(workdir),
                         seed=seed, jobs=1)
    tracer = Tracer()
    metrics: dict[str, float] = {}
    install(tracer)
    try:
        for stage in pipeline.STAGES:
            wall, cpu = time.perf_counter(), time.process_time()
            pipeline.run_pipeline(cfg, stages=[stage])
            metrics[f"stage.{stage}.wall_s"] = time.perf_counter() - wall
            metrics[f"stage.{stage}.cpu_s"] = time.process_time() - cpu
    finally:
        tracer.restore()

    counts = tracer.counts
    metrics.update({f"{k}_s": v for k, v in tracer.seconds.items()})
    metrics.update({f"{k}_calls": tracer.calls[k] for k in COUNTED_CALLS})
    metrics.update(counts)
    report = tracer.load_report or LoadReport()
    metrics.update({f"corpus.{f}": getattr(report, f) for f in LOAD_REPORT_FIELDS})
    metrics["pipeline.artifact_bytes"] = sum(
        p.stat().st_size for p in workdir.rglob("*") if p.is_file())
    metrics["bursts.kept_ratio"] = counts["bursts.kept"] / max(counts["bursts.detected"], 1)
    metrics["scoring.coparticipation_ratio"] = (
        counts["scoring.dyads_coparticipating"] / max(counts["scoring.dyads_scored"], 1))
    return metrics
