"""Command line interface: run / synth / report subcommands."""

from __future__ import annotations

import argparse
import logging
import sys

from .config import build_config
from .corpus import CorpusError
from .pipeline import STAGES, StageError, run_pipeline, run_synth
from .scoring import VARIANTS
from .synth import InfeasibleSpec


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    add = parser.add_argument
    add("--input", help="corpus file (line-delimited JSON records)")
    add("--workdir", help="artifact directory (default: out)")
    add("--window-start", type=int, dest="window_start")
    add("--window-end", type=int, dest="window_end")
    add("--assume-nouns", action="store_const", const=True, dest="assume_nouns",
        help="treat every token as a noun (untagged corpora)")
    add("--keep-external-links", action="store_const", const=True,
        dest="keep_external_links")
    add("--max-ngram-len", type=int, dest="max_ngram_len")
    add("--stopwords", help="stop-word list file (one lemma per line)")
    add("--alpha", type=float, help="minimum accepted burst ratio")
    add("--beta-days", type=float, dest="beta_days",
        help="minimum inter-burst gap in days")
    add("--min-blogs", type=int, dest="min_blogs")
    add("--min-mean-gap-hours", type=float, dest="min_mean_gap_hours")
    add("--max-mean-gap-days", type=float, dest="max_mean_gap_days")
    add("--min-burst-days", type=float, dest="min_burst_days")
    add("--max-total-burst-days", type=float, dest="max_total_burst_days")
    add("--keep-singletons", action="store_const", const=True,
        dest="keep_singletons")
    add("--seed", type=int,
        help="global seed (overrides PRECURSOR_SEED); no stage uses it")
    add("--min-posts", type=int, dest="min_posts")
    add("--likelihood-variant", choices=VARIANTS, dest="likelihood_variant")
    add("--damping", type=float)
    add("--bins", type=int, help="score bins for the box-plot summaries")
    add("--hex-grid", type=int, dest="hex_grid")
    add("--log-bins", action="store_const", const=True, dest="log_bins")
    add("--jobs", type=int,
        help="accepted for compatibility; does nothing (scoring runs in "
             "one process)")


_CONFIG_KEYS = ("input", "workdir", "window_start", "window_end",
                "assume_nouns", "keep_external_links", "max_ngram_len",
                "stopwords", "alpha", "beta_days", "min_blogs",
                "min_mean_gap_hours", "max_mean_gap_days", "min_burst_days",
                "max_total_burst_days", "keep_singletons", "seed",
                "min_posts", "likelihood_variant", "damping", "bins",
                "hex_grid", "log_bins", "jobs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="precursor",
        description="Burst-based topic detection and precursor/laggard "
                    "scoring for timestamped blog corpora.")
    verbosity = argparse.ArgumentParser(add_help=False)
    group = verbosity.add_mutually_exclusive_group()
    group.add_argument("-v", "--verbose", action="store_const",
                       const=logging.DEBUG, dest="log_level",
                       help="also log debug messages")
    group.add_argument("-q", "--quiet", action="store_const",
                       const=logging.WARNING, dest="log_level",
                       help="log warnings and errors only")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[verbosity], help="run pipeline stages")
    run.add_argument("--config", help="key = value config file")
    run.add_argument("--stages", help="comma-separated subset of: "
                                      + ",".join(STAGES))
    run.add_argument("--dry-run", action="store_true")
    _add_override_flags(run)

    synth_p = sub.add_parser("synth", parents=[verbosity],
                             help="generate a synthetic corpus")
    synth_p.add_argument("--spec", required=True, help="JSON synth spec file")
    synth_p.add_argument("--out", required=True, help="output directory")
    synth_p.add_argument("--seed", type=int, help="override the spec seed")
    synth_p.add_argument("--rate-ramp", type=float, dest="rate_ramp",
                         help="override the spec's posting-rate ramp")

    report = sub.add_parser("report", parents=[verbosity],
                            help="rebuild report tables and figures")
    report.add_argument("--config", help="key = value config file")
    _add_override_flags(report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="%(message)s")
    logging.getLogger("precursor").setLevel(args.log_level or logging.INFO)
    try:
        if args.command == "synth":
            run_synth(args.spec, args.out, seed=args.seed,
                      rate_ramp=args.rate_ramp)
            return 0
        overrides = {k: getattr(args, k, None) for k in _CONFIG_KEYS}
        cfg = build_config(args.config, overrides)
        if args.command == "report":
            run_pipeline(cfg, stages=["report"])
        else:
            stages = args.stages.split(",") if args.stages else None
            run_pipeline(cfg, stages=stages, dry_run=args.dry_run)
        return 0
    except (StageError, CorpusError, InfeasibleSpec, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
