"""Output checks and accuracy measures for one pipeline run's work directory.

Nothing here compares against pinned values: artifacts are compared only
with those of another run of the same code and seed, and the accuracy
measures are computed from the run's own inputs and an independent oracle.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import Counter
from itertools import permutations
from pathlib import Path

from precursor.config import PipelineConfig
from precursor.corpus import load_corpus
from precursor.pipeline import read_topics_artifact
from precursor.scoring import build_dyad_context

import oracle

LEADER, FOLLOWER = "blog_000", "blog_001"

ARTIFACTS = (
    "corpus.jsonl", "index.jsonl", "bursts.jsonl", "topics.jsonl",
    "dyadic_scores.csv", "global_scores.csv", "graph_edges.csv",
    "report/scatter.csv", "report/scatter.svg",
    *(f"report/boxplots_{s}_{m}.{ext}" for s in ("precursor", "laggard")
      for m in ("indegree", "pagerank") for ext in ("csv", "svg")),
    "report/classes.csv", "report/significance.csv", "report/hexbin.csv",
    "report/hexbin.svg", "report/corner_lists.csv",
)

PAGERANK_SUM_TOL = 1e-9


def artifact_hashes(workdir: Path) -> dict[str, str]:
    """sha256 of every file under workdir, keyed by relative path."""
    return {str(path.relative_to(workdir)):
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(workdir.rglob("*")) if path.is_file()}


def hash_mismatches(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(row: dict, *fields: str) -> bool:
    try:
        return all(math.isfinite(float(row[f])) for f in fields)
    except (KeyError, TypeError, ValueError):
        return False


def eligible_blogs(records: list[dict]) -> set[str]:
    """Blogs with at least the default min_posts posts in the input."""
    counts = Counter(r["blog_id"] for r in records)
    return {b for b, n in counts.items() if n >= PipelineConfig().min_posts}


def topic_recall(truth_topics: list[dict], topics) -> float:
    """Share of planted topics recovered under acceptance criterion 10's rule.

    A planted topic is recovered when some topic carries its n-gram and
    overlaps at least half of the planted interval.
    """
    recovered = 0
    for planted in truth_topics:
        words = tuple(planted["words"])
        span = planted["end"] - planted["start"]
        if any(min(t.end, planted["end"]) - max(t.start, planted["start"])
               >= 0.5 * span and any(n.lemmas == words for n in t.ngrams)
               for t in topics):
            recovered += 1
    return recovered / len(truth_topics)


def check_run(workdir: Path, records: list[dict],
              truth_topics: list[dict]) -> tuple[list[str], dict]:
    """Problems found in a finished run, and its accuracy measures."""
    missing = [name for name in ARTIFACTS if not (workdir / name).is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"], {}
    problems: list[str] = []

    eligible = eligible_blogs(records)
    scores = _read_csv(workdir / "global_scores.csv")
    blogs = [r.get("blog_id") for r in scores]
    if sorted(blogs) != sorted(eligible):
        problems.append(f"global_scores.csv has {len(blogs)} rows for "
                        f"{len(eligible)} eligible blogs")
    bad = [r.get("blog_id") for r in scores
           if not _finite(r, "P", "L", "in_degree", "pagerank")]
    if bad:
        problems.append(f"non-finite global scores for {bad[:5]}")
    else:
        rank_sum = math.fsum(float(r["pagerank"]) for r in scores)
        if abs(rank_sum - 1.0) > PAGERANK_SUM_TOL:
            problems.append(f"PageRank sums to {rank_sum!r}")

    topics = read_topics_artifact(workdir / "topics.jsonl")
    pair_topics = Counter()
    for topic in topics:
        pair_topics.update(permutations(sorted(topic.participations), 2))
    shared = {pair: n for pair, n in pair_topics.items()
              if pair[0] in eligible and pair[1] in eligible}

    dyads = {(r["b"], r["b2"]): r for r in _read_csv(workdir / "dyadic_scores.csv")}
    for pair in ((LEADER, FOLLOWER), (FOLLOWER, LEADER)):
        if pair not in dyads:
            problems.append(f"no dyadic_scores.csv row for {pair}")
    listed = {pair for pair, r in dyads.items() if int(r["a_size"]) > 0}
    if listed != set(shared):
        problems.append(f"{len(listed)} dyads list shared topics where "
                        f"{len(shared)} co-participate")

    corpus = load_corpus(workdir / "corpus.jsonl")
    worst_err, worst_pair = 0.0, None
    miscounted, nonfinite = [], []
    for pair, n_shared in sorted(shared.items()):
        row = dyads.get(pair)
        if row is None:
            continue  # reported above as a listing mismatch
        ctx = build_dyad_context(corpus, topics, *pair)
        if (int(row["a_size"]), int(row["y_size"])) != (n_shared, len(ctx.y_topics)):
            miscounted.append(pair)
        if not _finite(row, "gamma", "pr_h", "omega"):
            nonfinite.append(pair)
            continue
        err = abs(float(row["gamma"]) - oracle.context_gamma(ctx))
        if worst_pair is None or err > worst_err:
            worst_err, worst_pair = err, pair
    if miscounted:
        problems.append(f"|A|, |Y| disagree with the topics for {len(miscounted)} "
                        f"dyads, such as {miscounted[:3]}")
    if nonfinite:
        problems.append(f"non-finite dyadic scores for {len(nonfinite)} dyads, "
                        f"such as {nonfinite[:3]}")

    measures = {"gamma_abs_err_max": worst_err,
                "gamma_worst_dyad": list(worst_pair or ()),
                "planted_topic_recall": topic_recall(truth_topics, topics)}
    lead, follow = dyads.get((LEADER, FOLLOWER)), dyads.get((FOLLOWER, LEADER))
    if lead and follow and _finite(lead, "gamma") and _finite(follow, "gamma"):
        measures["leader_gamma_margin"] = float(lead["gamma"]) - float(follow["gamma"])
    return problems, measures
