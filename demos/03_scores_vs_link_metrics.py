"""Comparing precursor/laggard scores with link-structural popularity.

Builds a corpus where the planted precursor is NOT the most-linked blog,
then shows the analysis toolkit: the four-class partition around the score
means, Wilcoxon significance of in-degree differences between classes,
binned five-number summaries, and the corner lists that surface blogs whose
temporal role disagrees with their link popularity.
"""

import numpy as np

from precursor import synth
from precursor.analysis import (binned_summary, classify, corner_lists,
                                significance_table)
from precursor.bursts import detect_all, filter_bursts
from precursor.corpus import corpus_from_records
from precursor.network import build_graph, in_degrees, pagerank
from precursor.ngrams import build_index
from precursor.scoring import eligible_blogs, global_scores, score_shared_dyads
from precursor.topics import merge_bursts

spec = synth.leader_follower_spec(n_blogs=16, n_topics=10, window_days=55,
                                  base_rate=0.5, seed=7)
records, _ = synth.generate(spec)
corpus = corpus_from_records(enumerate(records, 1))

topics = merge_bursts(filter_bursts(detect_all(build_index(corpus))))
blogs = eligible_blogs(corpus)
scores = score_shared_dyads(corpus, topics, blogs)
pl = global_scores(scores)

graph = build_graph(corpus)
degrees = in_degrees(graph)
ranks = pagerank(graph)

partition = classify(pl)
print("class sizes:", {c: len(partition.members(c))
                       for c in ("pl", "Pl", "pL", "PL")})
print("score means: P=%.4f L=%.4f" % partition.thresholds)

print("\nclass comparison of in-degree (Wilcoxon rank sum):")
for row in significance_table(partition, {b: float(degrees[b]) for b in blogs}):
    if row["p_value"] is None:
        continue
    print("  %s vs %s: p=%.3f %s" % (row["class_a"], row["class_b"],
                                     row["p_value"], row["stars"]))

print("\nin-degree by precursor-score bin:")
for i, s in enumerate(binned_summary({b: pl[b][0] for b in blogs},
                                     {b: float(degrees[b]) for b in blogs},
                                     n_bins=4)):
    if s.count:
        print("  bin %d [%.4f, %.4f]: n=%d median=%.1f mean=%.1f"
              % (i, s.lo, s.hi, s.count, s.median, s.mean))
    else:
        print("  bin %d [%.4f, %.4f]: empty" % (i, s.lo, s.hi))

corners = corner_lists({b: pl[b][0] for b in blogs}, degrees, k=3)
labels = {"ll": "low P, low in-degree", "lh": "low P, high in-degree",
          "hl": "high P, low in-degree", "hh": "high P, high in-degree"}
print("\ncorner lists (log-normalized precursor vs in-degree plane):")
for corner, blogs_near in corners.items():
    names = ", ".join(b for b, _ in blogs_near)
    print("  %-25s %s" % (labels[corner] + ":", names))
