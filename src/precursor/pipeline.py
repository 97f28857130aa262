"""Staged pipeline orchestration with resumable intermediate artifacts.

Stages run in a fixed order (ingest, ngrams, bursts, topics, network, score,
report); each writes its artifacts atomically (temp file + rename) to the
working directory, so any suffix of the pipeline can be re-run without
repeating earlier stages.  One table, `_STAGES`, declares each stage's
function, the results it takes and the one it hands on.

`run_pipeline` pauses Python's cyclic garbage collector once, around all of
its stages, and restores the state it found when it returns or raises.  The
stages build objects by the hundred thousand and no reference cycle worth
collecting, so a collection would only traverse the growing heap.  No other
code of the package touches the collector: a library function called on its
own runs under whatever state its caller set.

Within one `run_pipeline` call each stage hands its result on in memory,
and a result is released once no later stage of the call needs it: the
corpus (parsed once, by the ingest stage or else by the first stage that
needs it) goes to the ngrams, network and score stages, the index to the
bursts stage, the kept bursts to the topics stage, the topics and the link
metrics to the score stage, and the scores with their link metrics to the
report stage.  A stage whose input no earlier stage of the call produced
reads it from its artifact (`corpus.jsonl`, `index.jsonl`, `bursts.jsonl`,
`topics.jsonl`, `network_scores.csv`, `global_scores.csv`) before it writes
anything; the score stage also refuses (`StageError`) a topic that crosses
the window and an eligible blog with no link metrics, as an earlier stage
run under another window leaves them (such a topic could put Pr(H) above 1).
`corpus.jsonl` holds the input's bytes as they are, so a stage that reads
it applies the current window, link and noun keys to the original records.
Each artifact has one writing stage and changes only when that stage runs:
after `--stages network` alone, `global_scores.csv` and `report/` keep the
old link metrics until score and report run again.
No stage draws random numbers, so re-running a stage with unchanged inputs
and config reproduces its artifacts byte for byte, whatever the seed.

The index holds only the n-grams with `min_blogs` distinct blogs or more,
the only ones whose bursts can be kept, and `index.jsonl` opens with a
{"min_blogs": m} line.  A bursts stage that reads it at a lower `min_blogs`
raises `StageError` (the ngrams stage must run again); at an equal or
higher one it writes the bursts of a full run.  An index without that line
is malformed.

`dyadic_scores.csv` lists only the ordered pairs of eligible blogs that
share a topic (|A| > 0), in (b, b2) order.  Every absent eligible pair has
the fixed row a_size = y_size = 0, gamma = 0.5, pr_h = 0.0, omega = 0.0.
"""

from __future__ import annotations

import csv
import gc
import json
import logging
import os
import shutil
import sys
import time
from dataclasses import MISSING, astuple, fields, is_dataclass
from itertools import chain
from pathlib import Path
from resource import RUSAGE_SELF, getrusage
from typing import (Callable, Collection, Iterable, Sequence, get_args,
                    get_origin, get_type_hints)

from . import analysis, network, scoring, svg, synth
from .bursts import Burst, detect_all, filter_bursts
from .config import PipelineConfig
from .corpus import DAY, Corpus, Pos, load_corpus
from .ngrams import Ngram, Occurrence, build_index, load_stopwords
from .topics import Topic, merge_bursts

logger = logging.getLogger("precursor")


class StageError(Exception):
    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


def _atomic_write(path: Path, writer: Callable) -> None:
    """If `writer` raises, `path` is left as it was and no temp file stays."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            writer(fh)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


# ---------------------------------------------------------------- artifacts

# the objects are built afresh from tuples and lists and hold no cycle
_encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False,
                           check_circular=False).encode


def _write_jsonl(path: Path, objects: Iterable[dict]) -> None:
    """One line per object, as `json.dumps(..., sort_keys=True,
    ensure_ascii=False)` writes it: an `Occurrence` as its array
    [timestamp, blog, post] and a `Pos` as its name."""
    _atomic_write(path, lambda fh: fh.writelines(
        _encode(obj) + "\n" for obj in objects))


def _ngram_json(ngram: Ngram) -> dict:
    return {"lemmas": ngram.lemmas, "pos": [pos for _, pos in ngram.words]}


def _ngram_from_json(obj: dict) -> Ngram:
    lemmas, tags = obj["lemmas"], obj["pos"]
    if not (isinstance(lemmas, list) and isinstance(tags, list)):
        raise ValueError("lemmas and pos must be arrays")
    if not all(type(lemma) is str for lemma in lemmas):
        raise ValueError(f"lemmas must be strings, got {lemmas!r}")
    return Ngram(tuple(zip(lemmas, map(Pos, tags), strict=True)))


def _occurrences(triples: list) -> list[Occurrence]:
    occurrences = [Occurrence(*triple) for triple in triples]
    for t, b, p in occurrences:
        if not (type(t) is int and type(b) is type(p) is str):
            raise ValueError(f"occurrence {[t, b, p]!r} is not [int, str, str]")
    return occurrences


def write_index_artifact(index: dict[Ngram, list[Occurrence]], path: Path,
                         min_blogs: int) -> None:
    """A header line {"min_blogs": m}, the pruning `build_index` applied,
    then one line per n-gram, in lemma order, holding its lemmas, its
    occurrences and its tags."""
    _write_jsonl(path, chain([{"min_blogs": min_blogs}], (
        {**_ngram_json(ngram), "occurrences": index[ngram]}
        for ngram in sorted(index, key=lambda n: n.lemmas))))


def read_index_artifact(path: Path) -> tuple[int, dict[Ngram, list[Occurrence]]]:
    """The `min_blogs` an index was pruned at, from its header line, and
    the index."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(next(fh, "null"))
        if not (isinstance(header, dict) and header.keys() == {"min_blogs"}):
            raise ValueError('the first line is not a {"min_blogs": n} header')
        return (_from_json(int, header["min_blogs"], "min_blogs: "),
                {_ngram_from_json(obj): _occurrences(obj["occurrences"])
                 for obj in map(json.loads, fh)})


def _burst_json(burst: Burst) -> dict:
    return {**_ngram_json(burst.ngram), "start": burst.start,
            "end": burst.end, "occurrences": burst.occurrences}


def _burst_from_json(obj: dict) -> Burst:
    return Burst(ngram=_ngram_from_json(obj),
                 start=_from_json(int, obj["start"], "start: "),
                 end=_from_json(int, obj["end"], "end: "),
                 occurrences=tuple(_occurrences(obj["occurrences"])))


def write_bursts_artifact(bursts: Sequence[Burst], path: Path) -> None:
    """One line per burst, in the given order: its end, lemmas,
    occurrences, tags and start."""
    _write_jsonl(path, map(_burst_json, bursts))


def read_bursts_artifact(path: Path) -> list[Burst]:
    with open(path, encoding="utf-8") as fh:
        return [_burst_from_json(json.loads(line)) for line in fh]


def write_topics_artifact(topics: Sequence[Topic], path: Path) -> None:
    """One line per topic: its member bursts, end, n-grams, first
    participation per blog (sorted by blog), start and id."""
    _write_jsonl(path, ({"bursts": [_burst_json(b) for b in topic.bursts],
                         "end": topic.end,
                         "ngrams": [_ngram_json(n) for n in topic.ngrams],
                         "participations": topic.participations,
                         "start": topic.start, "topic_id": topic.topic_id}
                        for topic in topics))


def read_topics_artifact(path: Path) -> list[Topic]:
    topics = []
    with open(path, encoding="utf-8") as fh:
        for obj in map(json.loads, fh):
            if not isinstance(obj["participations"], dict):
                raise ValueError("participations must be an object")
            topics.append(Topic(
                topic_id=_from_json(str, obj["topic_id"], "topic_id: "),
                ngrams=tuple(map(_ngram_from_json, obj["ngrams"])),
                start=_from_json(int, obj["start"], "start: "),
                end=_from_json(int, obj["end"], "end: "),
                bursts=tuple(map(_burst_from_json, obj["bursts"])),
                participations={b: _from_json(int, t, f"participations: {b}: ")
                                for b, t in obj["participations"].items()}))
    return topics


def _write_csv(path: Path, header: list[str], rows: Iterable[Sequence]) -> None:
    """Each row as `csv.writer` writes it: None as an empty field, any other
    value as its `str()`.  For a Python float or an np.float64 that is the
    shortest repr that reads back equal; no caller passes an np.float32,
    whose `str()` has float32's shortest digits."""
    def writer(fh):
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)
    _atomic_write(path, writer)


# ------------------------------------------------------------------ stages

def stage_ingest(cfg: PipelineConfig, workdir: Path) -> Corpus:
    if not cfg.input:
        raise StageError("ingest", "no input corpus file configured")
    if not Path(cfg.input).exists():
        raise StageError("ingest", f"input file {cfg.input} not found")
    corpus = load_corpus(cfg.input, cfg)
    with open(cfg.input, "rb") as src:  # the input's bytes as they are
        _atomic_write(workdir / "corpus.jsonl",
                      lambda fh: shutil.copyfileobj(src, fh.buffer))
    r = corpus.report
    logger.info("[ingest] %d posts from %d blogs (%d records read, "
                "%d out of window, %d pos warnings, %d empty-lemma tokens, "
                "%d self links, %d external links)", r.posts_loaded,
                len(corpus.blogs), r.records_read, r.out_of_window,
                r.pos_warnings, r.empty_lemma_tokens, r.self_links,
                r.external_links)
    return corpus


def stage_ngrams(cfg: PipelineConfig, workdir: Path,
                 corpus: Corpus) -> dict[Ngram, list[Occurrence]]:
    index = build_index(corpus, cfg.max_ngram_len,
                        load_stopwords(cfg.stopwords) if cfg.stopwords else None,
                        cfg.min_blogs)
    write_index_artifact(index, workdir / "index.jsonl", cfg.min_blogs)
    total = sum(len(v) for v in index.values())
    logger.info("[ngrams] %d n-grams kept, %d occurrences", len(index), total)
    return index


def stage_bursts(cfg: PipelineConfig, workdir: Path,
                 index: dict[Ngram, list[Occurrence]]) -> list[Burst]:
    # every n-gram of the index has min_blogs blogs or more (`build_index`,
    # or `_read_index` for an index pruned at no higher a min_blogs)
    detected = detect_all(index, alpha=cfg.alpha, beta=cfg.beta_days * DAY)
    kept = filter_bursts(detected, cfg)
    write_bursts_artifact(kept, workdir / "bursts.jsonl")
    logger.info("[bursts] %d n-grams examined, %d bursts detected, %d kept "
                "after filters", len(index),
                sum(len(v) for v in detected.values()), len(kept))
    return kept


def stage_topics(cfg: PipelineConfig, workdir: Path,
                 bursts: list[Burst]) -> list[Topic]:
    topics = merge_bursts(bursts, keep_singletons=cfg.keep_singletons)
    write_topics_artifact(topics, workdir / "topics.jsonl")
    logger.info("[topics] %d topics from %d bursts", len(topics), len(bursts))
    return topics


def stage_network(cfg: PipelineConfig, workdir: Path,
                  corpus: Corpus) -> list[tuple]:
    graph = network.build_graph(corpus)
    _write_csv(workdir / "graph_edges.csv", ["source", "target", "count"],
               graph.edges())
    degrees = network.in_degrees(graph)
    ranks = network.pagerank(graph, damping=cfg.damping)
    links = [(b, degrees[b], ranks[b]) for b in graph.nodes]
    _write_csv(workdir / "network_scores.csv", _NETWORK_COLUMNS, links)
    logger.info("[network] %d edges, %d nodes", len(graph.weights),
                len(graph.nodes))
    return links


def stage_score(cfg: PipelineConfig, workdir: Path, corpus: Corpus,
                topics: list[Topic], links: list[tuple]) -> list[tuple]:
    lo, hi = corpus.window
    for t in topics:
        if t.start < lo or t.end > hi:
            crossed = (f"starts at {t.start}, before the window start {lo}"
                       if t.start < lo else
                       f"ends at {t.end}, after the window end {hi}")
            raise StageError("score", f"topic {t.topic_id} of "
                             f"{workdir / 'topics.jsonl'} {crossed}; run the "
                             "ngrams, bursts and topics stages again")
    blogs = scoring.eligible_blogs(corpus, cfg.min_posts)
    metrics = {b: (degree, rank) for b, degree, rank in links}
    if missing := [b for b in blogs if b not in metrics]:
        raise StageError("score", f"{workdir / 'network_scores.csv'} has no "
                         f"row for eligible blog {missing[0]}; run the "
                         "network stage again")
    shared = scoring.score_shared_dyads(corpus, topics, blogs)
    names = shared.blogs
    _write_csv(workdir / "dyadic_scores.csv",
               ["b", "b2", "a_size", "y_size", "gamma", "pr_h", "omega"],
               zip([names[j] for j in shared.b.tolist()],
                   [names[j] for j in shared.b2.tolist()],
                   *(column.tolist() for column in shared[3:])))
    pl = scoring.global_scores(shared)
    linked = [(b, *pl[b], *metrics[b]) for b in blogs]
    _write_csv(workdir / "global_scores.csv", list(_COLUMNS), linked)
    logger.info("[score] %d dyads scored over %d eligible blogs "
                "(%d with shared topics)", len(blogs) * (len(blogs) - 1),
                len(blogs), len(shared.b))
    return linked


# every per-blog column, and the type it reads back as
_COLUMNS = {"blog_id": str, "P": float, "L": float, "in_degree": int,
            "pagerank": float}
_NETWORK_COLUMNS = ["blog_id", "in_degree", "pagerank"]


def read_global_scores(path: Path, columns: Collection[str]) -> list[tuple]:
    """The given columns of each row of `global_scores.csv` or
    `network_scores.csv`, typed by column name and checked by `_from_json`."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [tuple(_from_json(_COLUMNS[n], _COLUMNS[n](row[n]), f"{n}: ")
                      for n in columns) for row in csv.DictReader(fh)]


def _write_text(path: Path, text: str) -> None:
    _atomic_write(path, lambda fh: fh.write(text))


def stage_report(cfg: PipelineConfig, workdir: Path,
                 linked: list[tuple]) -> None:
    """All fifteen files under report/, each rewritten on every run.  With
    no eligible blog the class, hexbin and corner tables hold only their
    header, and the significance table compares six pairs of empty
    classes."""
    report_dir = workdir / "report"
    report_dir.mkdir(exist_ok=True)
    _write_csv(report_dir / "scatter.csv", list(_COLUMNS), linked)

    p_scores, l_scores, degrees, ranks = (
        {row[0]: row[i] for row in linked} for i in range(1, 5))
    blogs = list(p_scores)
    _write_text(report_dir / "scatter.svg", svg.scatter_svg(
        [(p_scores[b], l_scores[b]) for b in blogs], "precursor score P",
        "laggard score L", "Precursor vs laggard scores"))

    for s_name, s_map in {"precursor": p_scores, "laggard": l_scores}.items():
        for m_name, m_map in {"indegree": degrees, "pagerank": ranks}.items():
            bins = analysis.binned_summary(s_map, m_map, n_bins=cfg.bins,
                                           log_bins=cfg.log_bins)
            name = f"boxplots_{s_name}_{m_name}"
            _write_csv(report_dir / f"{name}.csv",
                       ["bin", "lo", "hi", "count", "min", "q1", "median",
                        "q3", "max", "mean"],
                       [[i, *astuple(s)] for i, s in enumerate(bins)])
            _write_text(report_dir / f"{name}.svg", svg.boxplot_svg(
                bins, f"{s_name} score bins", m_name,
                f"{m_name} by {s_name} score"))

    partition = analysis.classify({b: (p_scores[b], l_scores[b])
                                   for b in blogs})
    _write_csv(report_dir / "classes.csv",
               ["blog_id", "P", "L", "cls", "p_threshold", "l_threshold"],
               [[b, p_scores[b], l_scores[b], partition.assignment[b],
                 *partition.thresholds] for b in blogs])
    table = analysis.significance_table(partition, degrees)
    _write_csv(report_dir / "significance.csv", list(table[0]),
               [list(r.values()) for r in table])

    points = [(p_scores[b], l_scores[b], degrees[b]) for b in blogs]
    cells = analysis.hexbin(points, grid_size=cfg.hex_grid)
    _write_csv(report_dir / "hexbin.csv",
               ["q", "r", "center_p", "center_l", "count", "mean_metric"],
               map(astuple, cells))
    _write_text(report_dir / "hexbin.svg", svg.hexbin_svg(
        cells, analysis.hex_size_for(points, cfg.hex_grid),
        "precursor score P", "laggard score L",
        "Mean in-degree per (P, L) region"))

    corners = analysis.corner_lists(p_scores, degrees)
    _write_csv(report_dir / "corner_lists.csv",
               ["corner", "rank", "blog_id", "P", "in_degree", "distance"],
               [[corner, rank, blog, p_scores[blog], degrees[blog], dist]
                for corner, ranked in corners.items()
                for rank, (blog, dist) in enumerate(ranked, start=1)])
    logger.info("[report] wrote report/ tables and figures for %d blogs",
                len(blogs))


# each stage's function, the results it takes (in argument order after cfg
# and workdir) and the one it hands on
_STAGES = {"ingest": (stage_ingest, (), "corpus"),
           "ngrams": (stage_ngrams, ("corpus",), "index"),
           "bursts": (stage_bursts, ("index",), "bursts"),
           "topics": (stage_topics, ("bursts",), "topics"),
           "network": (stage_network, ("corpus",), "links"),
           "score": (stage_score, ("corpus", "topics", "links"), "linked"),
           "report": (stage_report, ("linked",), None)}
STAGES = tuple(_STAGES)

# each result's artifact and reader (a module global, looked up when called)
_INPUTS = {"corpus": ("corpus.jsonl", lambda p, cfg: load_corpus(p, cfg)),
           "index": ("index.jsonl", lambda p, cfg: _read_index(p, cfg)),
           "bursts": ("bursts.jsonl", lambda p, _: read_bursts_artifact(p)),
           "topics": ("topics.jsonl", lambda p, _: read_topics_artifact(p)),
           "links": ("network_scores.csv",
                     lambda p, _: read_global_scores(p, _NETWORK_COLUMNS)),
           "linked": ("global_scores.csv",
                      lambda p, _: read_global_scores(p, _COLUMNS))}


def _read_index(path: Path, cfg: PipelineConfig) -> dict[Ngram, list[Occurrence]]:
    """The index at `path`, unless it was pruned at a higher min_blogs than
    `cfg`'s and so may lack n-grams that the bursts stage would keep."""
    min_blogs, index = read_index_artifact(path)
    if cfg.min_blogs < min_blogs:
        raise StageError("bursts", f"min_blogs {cfg.min_blogs} is below "
                         f"min_blogs {min_blogs}, which {path} was pruned "
                         "at; run the ngrams stage again")
    return index


def _read_input(name: str, cfg: PipelineConfig, workdir: Path, stage: str):
    """A stage input no earlier stage of this run produced, from its artifact."""
    path = workdir / _INPUTS[name][0]
    if not path.exists():
        raise StageError(stage, f"missing prerequisite artifact {path}")
    try:
        return _INPUTS[name][1](path, cfg)
    except (KeyError, TypeError, ValueError) as exc:
        raise StageError(stage, f"malformed artifact {path} "
                                f"({type(exc).__name__}: {exc})") from None


def run_pipeline(cfg: PipelineConfig, stages: Sequence[str] | None = None,
                 dry_run: bool = False) -> None:
    for stage in stages or ():
        if stage not in _STAGES:
            raise StageError(stage, "unknown stage")
    selected = [s for s in STAGES if not stages or s in stages]
    workdir = Path(cfg.workdir)
    if dry_run:
        print("dry run; stage plan: " + " -> ".join(selected))
        for f in sorted(vars(cfg)):
            print(f"  {f} = {getattr(cfg, f)}")
        return
    workdir.mkdir(parents=True, exist_ok=True)
    enabled = gc.isenabled()
    gc.disable()
    try:
        held: dict[str, object] = {}
        for i, stage in enumerate(selected):
            start, cpu_start = time.perf_counter(), time.process_time()
            function, inputs, output = _STAGES[stage]
            held.update({n: _read_input(n, cfg, workdir, stage)
                         for n in inputs if n not in held})
            held[output] = function(cfg, workdir, *(held[n] for n in inputs))
            later = {n for s in selected[i + 1:] for n in _STAGES[s][1]}
            held = {n: value for n, value in held.items() if n in later}
            logger.debug("[%s] done in %.2f s (cpu %.2f s, peak rss %.1f MiB)",
                         stage, time.perf_counter() - start,
                         time.process_time() - cpu_start,  # ru_maxrss in KiB
                         getrusage(RUSAGE_SELF).ru_maxrss / 1024)
    finally:
        if enabled:
            gc.enable()


_JSON_NAMES = {str: "a string", type(None): "null", int: "an integer",
               float: "a number"}
# The parsed JSON types that a number field takes; a bool is never one.
_NUMBERS = {int: (int,), float: (int, float)}


def _from_json(hint, value, where: str):
    """`value`, as parsed from JSON, as type `hint`: a dataclass from an
    object whose keys are its fields (a field left out takes its default),
    a tuple or list from an array and a dict from an object, each element
    or value as its annotated type; an int from a JSON integer, a float
    from a finite JSON integer or float, and a str, or a union of str and
    None, as given.  Anything else raises a ValueError whose message starts
    with `where` and the key."""
    if hint in (int, float, str):  # the readers' hot path
        kind, args = hint, ()
    else:
        kind, args = get_origin(hint) or hint, get_args(hint)
        if (is_dataclass(kind) or kind is dict) and not isinstance(value, dict):
            raise ValueError(f"{where}expected a JSON object")
        if is_dataclass(kind):
            hints = get_type_hints(kind)
            for key in sorted(value.keys() - hints.keys()):
                raise ValueError(f"{where}unknown key {key!r}")
            for f in fields(kind):
                if f.name not in value and f.default is f.default_factory is MISSING:
                    raise ValueError(f"{where}missing key {f.name!r}")
            return kind(**{key: _from_json(hints[key], v, f"{where}{key}: ")
                           for key, v in value.items()})
        if kind is dict:
            return {key: _from_json(args[1], v, where) for key, v in value.items()}
        if kind in (tuple, list):
            if not isinstance(value, list):
                raise ValueError(f"{where}expected an array, got {value!r}")
            return kind(_from_json(args[0], v, where) for v in value)
    accepted = _NUMBERS.get(kind, args or kind)
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{where}expected " + " or ".join(
            _JSON_NAMES[t] for t in args or (kind,)) + f", got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:  # NaN, inf
        raise ValueError(f"{where}expected a finite number, got {value!r}")
    return kind(value) if kind in _NUMBERS else value


def run_synth(spec_path: str | Path, out_dir: str | Path,
              seed: int | None = None) -> None:
    """Generate a synthetic corpus + ground truth from a JSON spec file.

    The spec is an object of `synth.SynthSpec` fields, each topic an object
    of `synth.PlantedTopic` fields; an optional key left out takes its
    default, and `seed`, when given, replaces the spec's.  A spec that is
    not valid JSON, not an object, misses a required key, has an unknown
    one or a value of another type raises ValueError naming the file.
    """
    where = f"{spec_path}: "
    with open(spec_path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # also a spec that is not UTF-8
            raise ValueError(f"{where}{exc}") from None
    spec = _from_json(synth.SynthSpec, obj, where)
    if seed is not None:
        spec.seed = seed
    records, truth = synth.generate(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    synth.write_corpus(records, out / "corpus.jsonl")
    with open(out / "ground_truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth.to_json(), fh, indent=2, sort_keys=True)
    logger.info("[synth] %d posts, %d planted topics -> %s", len(records),
                len(truth.topics), out)
