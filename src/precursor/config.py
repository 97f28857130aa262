"""Pipeline configuration: one flat key=value config file mirroring the CLI.

`PipelineConfig` declares each pipeline parameter and its default once; the
library reads its defaults from the class (`PipelineConfig.alpha`), and this
module imports no other of the package.  Each field is one config key: `cli`
derives its --kebab-name flag from the field (type and help), and
`parse_config_file` reads it as snake_name or kebab-name with the same type.
Precedence: built-in defaults < config file < explicit CLI flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import get_args, get_type_hints


def _key(default, help=None):
    """A config field; its metadata holds the CLI flag's help."""
    return field(default=default, metadata=dict(help=help))


@dataclass
class PipelineConfig:
    # ingest
    input: str = _key("", "corpus file (line-delimited JSON records)")
    workdir: str = _key("out", "artifact directory (default: out)")
    window_start: int | None = _key(
        None, "first second of the observation window, in epoch seconds "
              "(default: the earliest post)")
    window_end: int | None = _key(
        None, "last second of the observation window, in epoch seconds "
              "(default: the latest post)")
    assume_nouns: bool = _key(False,
                              "treat every token as a noun (untagged corpora)")
    keep_external_links: bool = _key(
        False, "keep links to blogs that never post in the corpus (they "
               "join the citation graph as nodes)")
    # ngrams
    max_ngram_len: int = _key(5, "longest n-gram, in lemmas (the shortest "
                                 "is 2)")
    stopwords: str | None = _key(None,
                                 "stop-word list file (one lemma per line)")
    # bursts
    alpha: float = _key(5.0, "minimum accepted burst ratio")
    beta_days: float = _key(5.0, "minimum inter-burst gap in days")
    min_blogs: int = _key(4, "minimum distinct blogs in a kept burst")
    min_mean_gap_hours: float = _key(
        1.0, "minimum mean gap between a kept burst's posts, in hours")
    max_mean_gap_days: float = _key(
        1.0, "maximum mean gap between a kept burst's posts, in days")
    min_burst_days: float = _key(3.0,
                                 "minimum length of a kept burst, in days")
    max_total_burst_days: float = _key(
        30.0, "maximum summed length of all bursts detected for one n-gram, "
              "in days; an n-gram over it keeps none")
    # topics
    keep_singletons: bool = _key(
        False, "keep a burst that merges with no other as a one-burst topic")
    # scoring
    min_posts: int = _key(7, "minimum posts in the window for a blog to be "
                             "scored")
    # network
    damping: float = _key(0.85, "PageRank damping factor, in (0, 1)")
    # report
    bins: int = _key(4, "score bins for the box-plot summaries")
    hex_grid: int = _key(10, "about how many hexagons span the P range of "
                             "the hexbin map")
    log_bins: bool = _key(False, "bin the box-plot scores on a log10 scale")
    # execution
    jobs: int = _key(1, "accepted for compatibility; does nothing (scoring "
                        "runs in one process)")
    seed: int | None = _key(None, "accepted for compatibility; does nothing "
                                  "(no stage is random)")


# Each field's type with None stripped: what a flag or file value converts to.
FIELD_TYPES = {name: next((t for t in get_args(hint) if t is not type(None)),
                          hint)
               for name, hint in get_type_hints(PipelineConfig).items()}
_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _coerce(raw: str, kind: type):
    if kind is not bool:
        return kind(raw)
    if raw.lower() in _TRUE:
        return True
    if raw.lower() in _FALSE:
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def parse_config_file(path: str | Path) -> dict:
    """Read `key = value` lines; '#' starts a comment, blank lines ignored."""
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
            if key not in FIELD_TYPES:
                raise ValueError(f"{path}:{line_no}: unknown option {key!r}")
            try:
                values[key] = _coerce(raw.strip(), FIELD_TYPES[key])
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {key}: {exc}") from None
    return values


# Checked once the config is assembled, so that a bad value fails before any
# stage runs instead of deep inside the stage that reads it.
_CHECKS = (("alpha", lambda v: v > 0, "a value > 0"),
           ("beta_days", lambda v: v > 0, "a value > 0"),
           ("min_blogs", lambda v: v >= 1, "an integer >= 1"),
           ("min_mean_gap_hours", lambda v: v >= 0, "a value >= 0"),
           ("max_mean_gap_days", lambda v: v > 0, "a value > 0"),
           ("min_burst_days", lambda v: v >= 0, "a value >= 0"),
           ("max_total_burst_days", lambda v: v > 0, "a value > 0"),
           ("damping", lambda v: 0 < v < 1, "a value in (0, 1)"),
           ("bins", lambda v: v >= 1, "an integer >= 1"),
           ("hex_grid", lambda v: v >= 1, "an integer >= 1"),
           ("max_ngram_len", lambda v: v >= 1, "an integer >= 1"),
           ("min_posts", lambda v: v >= 1, "an integer >= 1"))


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
    for name, ok, expected in _CHECKS:
        value = getattr(config, name)
        if not ok(value):
            raise ValueError(f"{name}: expected {expected}, got {value!r}")
    start, end = config.window_start, config.window_end
    if start is not None and end is not None and start > end:
        raise ValueError(f"window_start: expected a value <= window_end "
                         f"({end}), got {start}")
    return config
