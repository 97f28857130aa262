"""Pipeline configuration: one flat key=value config file mirroring the CLI.

Precedence: built-in defaults < config file < explicit CLI flags.  The seed
additionally falls back to the PRECURSOR_SEED environment variable when
neither the file nor the command line sets one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path

from .scoring import VARIANTS


@dataclass
class PipelineConfig:
    # ingest
    input: str = ""
    workdir: str = "out"
    window_start: int | None = None
    window_end: int | None = None
    assume_nouns: bool = False
    keep_external_links: bool = False
    # ngrams
    max_ngram_len: int = 5
    stopwords: str | None = None
    # bursts
    alpha: float = 5.0
    beta_days: float = 5.0
    min_blogs: int = 4
    min_mean_gap_hours: float = 1.0
    max_mean_gap_days: float = 1.0
    min_burst_days: float = 3.0
    max_total_burst_days: float = 30.0
    # topics
    keep_singletons: bool = False
    # scoring
    min_posts: int = 7
    likelihood_variant: str = "verbatim"
    # network
    damping: float = 0.85
    # report
    bins: int = 4
    hex_grid: int = 10
    log_bins: bool = False
    # execution
    jobs: int = 1
    seed: int | None = None  # kept for compatibility; no stage is random

    def resolved_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        env = os.environ.get("PRECURSOR_SEED")
        return int(env) if env else 0


_BOOL_FIELDS = {"assume_nouns", "keep_external_links", "keep_singletons",
                "log_bins"}
_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _coerce(name: str, kind, raw: str):
    if name in _BOOL_FIELDS:
        low = raw.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ValueError(f"{name}: expected a boolean, got {raw!r}")
    if kind in ("int", "int | None"):
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def parse_config_file(path: str | Path) -> dict:
    """Read `key = value` lines; '#' starts a comment, blank lines ignored."""
    known = {f.name: f.type for f in fields(PipelineConfig)}
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key = value")
            key, _, raw = line.partition("=")
            key = key.strip().replace("-", "_")
            raw = raw.strip()
            if key not in known:
                raise ValueError(f"{path}:{line_no}: unknown option {key!r}")
            values[key] = _coerce(key, known[key], raw)
    return values


def build_config(file_path: str | Path | None = None,
                 overrides: dict | None = None) -> PipelineConfig:
    config = PipelineConfig()
    layers = []
    if file_path:
        layers.append(parse_config_file(file_path))
    if overrides:
        layers.append({k: v for k, v in overrides.items() if v is not None})
    for layer in layers:
        for key, value in layer.items():
            setattr(config, key, value)
    if config.likelihood_variant not in VARIANTS:
        raise ValueError(f"likelihood_variant: expected one of {VARIANTS}, "
                         f"got {config.likelihood_variant!r}")
    return config
