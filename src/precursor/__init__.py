"""Burst-based topic detection and precursor/laggard scoring.

The pipeline ingests a timestamped, pre-lemmatized blog-post corpus,
enumerates candidate n-grams, partitions each n-gram's occurrences into
temporal bursts, merges redundant bursts into topics, and estimates for
every ordered blog pair the probability that one blog enters shared topics
before the other beyond what their posting volumes explain.  Per-blog
precursor and laggard scores are then compared against link-structural
popularity metrics (in-degree, PageRank).
"""

from .config import PipelineConfig
from .corpus import (Corpus, CorpusError, EmptyCorpus, MalformedRecord,
                     NonMonotonicWindow, Pos, Post, Token, load_corpus,
                     post_count)
from .ngrams import (Ngram, Occurrence, build_index, default_stopwords,
                     load_stopwords)
from .bursts import (Burst, burst_ratio, detect_bursts, filter_bursts,
                     inter_burst_mean, intra_burst_mean, segment_bursts)
from .topics import Topic, is_generalization, merge_bursts
from .scoring import (DyadContext, DyadScores, chance_prob, gamma,
                      global_scores, score_shared_dyads)
from .network import CitationGraph, build_graph, in_degrees, pagerank
from .analysis import (ClassPartition, binned_summary, classify, corner_lists,
                       hexbin, significance_table, wilcoxon_rank_sum)
from .synth import GroundTruth, InfeasibleSpec, PlantedTopic, SynthSpec, generate

__version__ = "0.1.0"
