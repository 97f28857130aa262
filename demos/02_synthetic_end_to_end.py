"""Full pipeline on a synthetic corpus with a planted precursor.

Generates a 20-blog corpus where blog_000 initiates every planted topic and
blog_001 follows half a day later, runs every stage (ingest, n-grams,
bursts, topics, scoring, network, report), and prints the recovered topics
and the dyadic scores that expose the planted relationship.

Artifacts land in demos/out/ so the CSVs and SVGs can be inspected.
"""

import csv
from pathlib import Path

from precursor import synth
from precursor.config import PipelineConfig
from precursor.pipeline import run_pipeline

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

spec = synth.leader_follower_spec(n_blogs=20, n_topics=12, window_days=60,
                                  lead_hours=12.0, seed=1)
records, truth = synth.generate(spec)
corpus_file = out / "corpus.jsonl"
synth.write_corpus(records, corpus_file)
print("synthetic corpus: %d posts, %d planted topics"
      % (len(records), len(truth.topics)))

cfg = PipelineConfig(input=str(corpus_file), workdir=str(out / "run"))
run_pipeline(cfg)

with open(out / "run" / "topics.jsonl") as fh:
    n_topics = sum(1 for _ in fh)
print("\ndetected topics:", n_topics)

# the file lists only the dyads that share a topic; any other eligible pair
# has the fixed row below
no_shared_topic = {"a_size": "0", "y_size": "0", "gamma": "0.5",
                   "pr_h": "0.0", "omega": "0.0"}
with open(out / "run" / "dyadic_scores.csv") as fh:
    rows = {(r["b"], r["b2"]): r for r in csv.DictReader(fh)}

fwd = rows.get(("blog_000", "blog_001"), no_shared_topic)
rev = rows.get(("blog_001", "blog_000"), no_shared_topic)
print("\nplanted direction  gamma=%.3f omega=%.4f (|A|=%s, |Y|=%s)"
      % (float(fwd["gamma"]), float(fwd["omega"]), fwd["a_size"],
         fwd["y_size"]))
print("reverse direction  gamma=%.3f omega=%.4f (|Y|=%s)"
      % (float(rev["gamma"]), float(rev["omega"]), rev["y_size"]))

with open(out / "run" / "global_scores.csv") as fh:
    scores = list(csv.DictReader(fh))
scores.sort(key=lambda r: -float(r["P"]))
print("\ntop precursors (P) vs laggard score (L):")
for row in scores[:5]:
    print("  %-10s P=%.4f L=%.4f in_degree=%s pagerank=%.4f"
          % (row["blog_id"], float(row["P"]), float(row["L"]),
             row["in_degree"], float(row["pagerank"])))
print("\nreport tables in", out / "run" / "report")
