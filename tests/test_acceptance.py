"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; the oracles come from conftest and
are independent re-implementations of the operations they check.
"""

import csv
import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from precursor.bursts import burst_ratio, detect_bursts
from precursor.corpus import DAY, corpus_from_records
from precursor.config import PipelineConfig
from precursor.ngrams import build_index
from precursor.bursts import detect_all, filter_bursts
from precursor.pipeline import run_pipeline
from precursor.scoring import DyadContext, gamma
from precursor.synth import (blog_ids, generate, leader_follower_spec,
                             rate_asymmetry_spec)
from precursor.topics import merge_bursts
from precursor import synth

from conftest import (brute_force_likelihood, exhaustive_best_partition,
                      likelihood, likelihood_sampled, min_inter_interval,
                      pagerank_linear, reference_score_dyad,
                      wilcoxon_enumeration)


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {description}: {status}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


def ctx_of(n_a, n_y, c_values):
    topics = tuple(f"t{i}" for i in range(n_a))
    return DyadContext("a", "b", topics, topics[:n_y],
                       {t: float(c) for t, c in zip(topics, c_values)})


def test_criterion_01_burst_detection_oracle():
    start = time.time()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 13))
        times = np.cumsum(rng.integers(3600, 10 * DAY, size=n)).tolist()
        theta = detect_bursts(times)
        rho = burst_ratio(times, theta)
        best, _ = exhaustive_best_partition(times, 5.0, 5 * DAY)
        if rho > best + 1e-9:
            ok = False
        if theta.sum() > 0 and (rho < 5.0
                                or min_inter_interval(times, theta) < 5 * DAY):
            ok = False

    fixtures = [
        ([t * DAY for t in (0, 1, 2, 10, 11, 12)], 5.0, [0, 0, 1, 0, 0]),
        ([t * DAY for t in (0, 1, 2, 3)], 5.0, [0, 0, 0]),
        # the three-cluster fixture needs alpha = 4 for a greedy path to exist
        ([t * DAY for t in (0, 10, 20, 100, 110, 120, 200, 210, 220)], 4.0,
         [0, 0, 1, 0, 0, 1, 0, 0]),
    ]
    for times, alpha, expected in fixtures:
        theta = detect_bursts(times, alpha=alpha)
        if theta.tolist() != expected:
            ok = False
        best, _ = exhaustive_best_partition(times, alpha, 5 * DAY)
        greedy_rho = burst_ratio(times, theta)
        target = best if theta.sum() else 0.0
        if abs(greedy_rho - target) > 1e-9:
            ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    report(1, "greedy burst detection vs exhaustive oracle", ok,
           f"200 random + 3 fixtures in {elapsed:.1f}s")


def test_criterion_02_likelihood_oracle():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        n_a = int(rng.integers(0, 9))
        n_y = int(rng.integers(0, n_a + 1))
        ctx = ctx_of(n_a, n_y, rng.uniform(0.05, 0.95, size=n_a))
        p = float(rng.uniform())
        expected = brute_force_likelihood(p, ctx.a_topics, ctx.y_topics, ctx.c)
        got = likelihood(p, ctx)
        if expected > 0:
            worst = max(worst, abs(got - expected) / expected)
    report(2, "exact likelihood vs brute-force split enumeration",
           worst <= 1e-12, f"worst relative error {worst:.2e}")


def test_criterion_03_analytic_gamma_values():
    flat = gamma(ctx_of(0, 0, []))
    third = gamma(ctx_of(1, 0, [0.5]))
    half = gamma(ctx_of(1, 1, [0.5]))
    ok = (abs(flat - 0.5) <= 1e-12 and abs(third - 1 / 3) <= 1e-12
          and abs(half - 0.5) <= 1e-12)
    report(3, "analytic gamma fixtures (0.5, 1/3, 0.5)", ok,
           f"got {flat:.4f}, {third:.4f}, {half:.4f}")


def test_criterion_04_sampled_likelihood_consistency():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(10):
        ctx = ctx_of(16, 16, rng.uniform(0.35, 0.65, size=16))
        p = float(rng.uniform(0.4, 0.6))
        exact = likelihood(p, ctx)
        sampled = likelihood_sampled(p, ctx, 50_000, seed=int(rng.integers(1 << 30)))
        worst = max(worst, abs(sampled - exact) / exact)
    report(4, "sampled likelihood at |Y| = 16 vs exact likelihood",
           worst <= 0.05, f"worst relative error {worst:.3%}")


# the row of an eligible pair without a shared topic, which the file leaves out
NO_SHARED_TOPIC = {"a_size": "0", "y_size": "0", "gamma": "0.5",
                   "pr_h": "0.0", "omega": "0.0"}


def _read_dyads(workdir: Path) -> dict[tuple[str, str], dict]:
    with open(workdir / "dyadic_scores.csv", encoding="utf-8") as fh:
        return {(row["b"], row["b2"]): row for row in csv.DictReader(fh)}


def test_criterion_05_planted_precursor_recovery(tmp_path):
    hits = 0
    slowest = 0.0
    for trial in range(20):
        spec = leader_follower_spec(seed=trial)
        records, _ = generate(spec)
        corpus_file = tmp_path / f"c{trial}.jsonl"
        synth.write_corpus(records, corpus_file)
        workdir = tmp_path / f"run{trial}"
        cfg = PipelineConfig(input=str(corpus_file), workdir=str(workdir))
        start = time.time()
        run_pipeline(cfg)
        slowest = max(slowest, time.time() - start)
        dyads = _read_dyads(workdir)
        fwd = float(dyads.get(("blog_000", "blog_001"), NO_SHARED_TOPIC)["gamma"])
        rev = float(dyads.get(("blog_001", "blog_000"), NO_SHARED_TOPIC)["gamma"])
        if fwd > 0.6 and fwd - rev > 0.15:
            hits += 1
    ok = hits >= 18 and slowest < 120.0
    report(5, "planted leader recovered by gamma", ok,
           f"{hits}/20 trials, slowest full pipeline {slowest:.1f}s")


def test_criterion_06_rate_asymmetry_discount():
    deviations = []
    for trial in range(20):
        spec = rate_asymmetry_spec(seed=200 + trial)
        records, _ = generate(spec)
        corpus = corpus_from_records(enumerate(records, 1))
        topics = merge_bursts(filter_bursts(detect_all(build_index(corpus))))
        score = reference_score_dyad(corpus, topics, "blog_000", "blog_001")
        deviations.append(abs(score.gamma - 0.5))
    mean_dev = float(np.mean(deviations))
    report(6, "5x posting volume without lead stays near gamma = 0.5",
           mean_dev < 0.12, f"mean |gamma - 0.5| = {mean_dev:.3f}")


def test_criterion_07_pagerank_oracle():
    from precursor.network import pagerank
    from test_network import graph_from_links

    ok = True
    graph = graph_from_links({"a": ["b"], "b": ["c"]})
    ranks = pagerank(graph)
    expected = pagerank_linear(graph)
    ok &= all(abs(ranks[b] - expected[b]) <= 1e-8 for b in graph.nodes)
    ok &= abs(sum(ranks.values()) - 1.0) <= 1e-9

    rng = np.random.default_rng(107)
    for _ in range(10):
        names = [f"b{i}" for i in range(10)]
        links = {src: [t for t in names if t != src and rng.random() < 0.3]
                 for src in names}
        graph = graph_from_links(links, extra_blogs=names)
        ranks = pagerank(graph)
        expected = pagerank_linear(graph)
        ok &= all(abs(ranks[b] - expected[b]) <= 1e-8 for b in graph.nodes)
        ok &= abs(sum(ranks.values()) - 1.0) <= 1e-9
    report(7, "pagerank matches direct linear-system solutions", ok)


def test_criterion_08_wilcoxon_exact_oracle():
    from precursor.analysis import wilcoxon_rank_sum

    ok = True
    _, p_fixture = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
    ok &= p_fixture == pytest.approx(0.1, abs=1e-12)

    for n1 in range(1, 7):
        for n2 in range(1, 7):
            n = n1 + n2
            # every untied fixture of this shape, up to rank order
            for x_ranks in itertools.combinations(range(1, n + 1), n1):
                x = [float(r) for r in x_ranks]
                y = [float(r) for r in range(1, n + 1) if r not in x_ranks]
                _, p = wilcoxon_rank_sum(x, y)
                if abs(p - wilcoxon_enumeration(x, y)) > 1e-12:
                    ok = False
    report(8, "exact Wilcoxon p-values vs full enumeration (n <= 6)", ok,
           "fixture p = 0.1 exact")


def test_criterion_09_determinism_across_jobs(tmp_path):
    spec = leader_follower_spec(n_blogs=10, n_topics=4, window_days=35,
                                base_rate=0.5, seed=9)
    records, _ = generate(spec)
    corpus_file = tmp_path / "corpus.jsonl"
    synth.write_corpus(records, corpus_file)
    outputs = {}
    for jobs in (1, 8):
        workdir = tmp_path / f"jobs{jobs}"
        cfg = PipelineConfig(input=str(corpus_file), workdir=str(workdir),
                             seed=5, jobs=jobs)
        run_pipeline(cfg)
        outputs[jobs] = ((workdir / "dyadic_scores.csv").read_bytes(),
                         (workdir / "global_scores.csv").read_bytes())
    ok = outputs[1] == outputs[8]
    report(9, "byte-identical score artifacts for --jobs 1 vs --jobs 8", ok)


def test_criterion_10_end_to_end_topic_recovery():
    spec = leader_follower_spec(n_topics=10, seed=10)
    records, truth = generate(spec)
    corpus = corpus_from_records(enumerate(records, 1))
    topics = merge_bursts(filter_bursts(detect_all(build_index(corpus))))

    recovered = 0
    matched_ids = set()
    for planted in truth.topics:
        words = tuple(planted["words"])
        span = planted["end"] - planted["start"]
        for topic in topics:
            overlap = (min(topic.end, planted["end"])
                       - max(topic.start, planted["start"]))
            if overlap >= 0.5 * span and any(n.lemmas == words
                                             for n in topic.ngrams):
                recovered += 1
                matched_ids.add(topic.topic_id)
                break
    spurious = len(topics) - len(matched_ids)
    ok = recovered >= 9 and spurious <= 2
    report(10, "planted topics recovered end to end", ok,
           f"{recovered}/10 recovered, {spurious} spurious")
