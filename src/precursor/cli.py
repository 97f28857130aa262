"""Command line interface: run / synth subcommands.

The report tables and figures are rebuilt with `run --stages report`.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields

from .config import FIELD_TYPES, PipelineConfig, build_config
from .corpus import CorpusError
from .pipeline import STAGES, StageError, run_pipeline, run_synth
from .synth import InfeasibleSpec


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    """One --kebab-name flag per PipelineConfig field, typed as the field."""
    for f in fields(PipelineConfig):
        kind = FIELD_TYPES[f.name]
        how = (dict(action="store_const", const=True) if kind is bool
               else dict(type=kind))
        parser.add_argument("--" + f.name.replace("_", "-"), **how,
                            **f.metadata)


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
    run.add_argument("--dry-run", action="store_true",
                     help="print the stage plan and the config, run nothing")
    _add_override_flags(run)

    synth_p = sub.add_parser("synth", parents=[verbosity],
                             help="generate a synthetic corpus")
    synth_p.add_argument("--spec", required=True, help="JSON synth spec file")
    synth_p.add_argument("--out", required=True, help="output directory")
    synth_p.add_argument("--seed", type=int, help="override the spec seed")
    return parser


def _stage_list(spec: str | None) -> list[str] | None:
    """--stages as stripped names; only None (no flag) means every stage."""
    if spec is None:
        return None
    names = [name.strip() for name in spec.split(",")]
    for position, name in enumerate(names, start=1):
        if not name:
            raise ValueError(f"--stages {spec!r}: entry {position} is empty")
    return names


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="%(message)s")
    logging.getLogger("precursor").setLevel(args.log_level or logging.INFO)
    try:
        if args.command == "synth":
            run_synth(args.spec, args.out, seed=args.seed)
            return 0
        overrides = {name: getattr(args, name) for name in FIELD_TYPES}
        run_pipeline(build_config(args.config, overrides),
                     stages=_stage_list(args.stages), dry_run=args.dry_run)
        return 0
    except (StageError, CorpusError, InfeasibleSpec, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
