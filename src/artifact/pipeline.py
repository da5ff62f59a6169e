"""End-to-end orchestration: read alert streams, train a role-model bundle on
the leading window span, then score later windows against the frozen model.

A trained bundle is a plain directory so runs stay auditable:

    metadata.txt           key = value run parameters and counts
    schema.txt             the recursive feature schema (re-applied verbatim)
    role_features.csv      the frozen role-definition matrix F
    grid.csv               the (roles, bits) description-length surface
    registry.tsv           the training nodes' indices and first windows, for audit
    role_descriptions.csv  per-role property scores
    training_summary.txt   human-readable training report
    SHA256SUMS             `sha256sum` digests of the files above, checked on load

Scoring never mutates the bundle; it only reads it. Of registry.tsv it only
checks the digest, since scoring indexes each node as it first appears.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from artifact.dynamics import (
    MembershipSeries,
    WindowScore,
    detect_anomalies,
    score_windows,
    update_series,
    write_anomalies_json,
    write_score_csv,
)
from artifact.features import FeatureSchema, apply_schema, fit_schema
from artifact.graph import ArtifactGraph, Vertex, build_graph, graph_summary
from artifact.ingest import (
    Alerts,
    LAYER_BY_FIELD,
    MAX_TIMESTAMP,
    ParseStats,
    PipelineError,
    WindowSpec,
    layer_for,
    load_hostmap,
    normalize_record,
    parse_utc,
    read_ini,
    read_jsonl_file,
    read_ossec_file,
    read_snort_file,
    window_partition,
)
from artifact.roles import (
    RoleModel,
    grid_csv,
    memberships_fixed_F,
    node_properties,
    role_descriptions,
    select_model,
)

logger = logging.getLogger(__name__)

VALID_SOURCES = ("snort", "ossec")
VALID_LAYERS = tuple(sorted(set(LAYER_BY_FIELD.values())))


@dataclass
class PipelineConfig:
    """Everything one train or score run needs, resolvable from an INI file
    plus command-line overrides."""

    snort_paths: list[Path] = field(default_factory=list)
    ossec_paths: list[Path] = field(default_factory=list)
    jsonl_paths: list[Path] = field(default_factory=list)
    hostmap_path: Path | None = None
    snort_year: int = 2021
    window_hours: float = 8.0
    training_days: float = 7.0
    origin: float | None = None  # None: floor of the first record's window
    threshold: float = 0.05
    max_depth: int = 4
    prune_tolerance: float = 5e-4
    max_roles: int = 10
    max_bits: int = 6
    seed: int = 7
    source: str | None = None
    layer: str | None = None
    out_dir: Path = Path("out")

    @property
    def window_length(self) -> float:
        return self.window_hours * 3600.0

    def input_paths(self) -> list[tuple[str, Path]]:
        return (
            [("snort", p) for p in self.snort_paths]
            + [("ossec", p) for p in self.ossec_paths]
            + [("jsonl", p) for p in self.jsonl_paths]
        )

    def validate(self) -> None:
        for name in ("window_hours", "training_days", "threshold"):
            if not 0 < getattr(self, name) < math.inf:
                raise PipelineError(f"{name} must be finite and positive")
        if not math.isfinite(self.window_length):
            raise PipelineError("window_hours overflows in seconds")
        if not math.isfinite(self.training_days * 86400.0 / self.window_length):
            raise PipelineError("training_days overflows in seconds or in windows")
        try:
            # an origin derived from the input lies in [0, MAX_TIMESTAMP), where
            # 0 leaves the widest span of window indexes to fit
            origin = self.origin or 0.0
            WindowSpec(origin, self.window_length, origin + self.training_days * 86400.0)
        except ValueError as exc:
            raise PipelineError(str(exc)) from None
        if self.max_depth < 0:
            raise PipelineError("max_depth must be >= 0")
        if not 0 < self.prune_tolerance < 1:
            raise PipelineError("prune_tolerance must be in (0, 1)")
        if self.max_roles < 1:
            raise PipelineError("max_roles must be >= 1")
        if not 1 <= self.max_bits <= 16:
            raise PipelineError("max_bits must be in 1..16")
        if self.seed < 0:
            raise PipelineError("seed must be >= 0")
        if self.source is not None and self.source not in VALID_SOURCES:
            raise PipelineError(
                f"unknown source filter {self.source!r}; expected one of {VALID_SOURCES}"
            )
        if self.layer is not None and self.layer not in VALID_LAYERS:
            raise PipelineError(
                f"unknown layer filter {self.layer!r}; expected one of {VALID_LAYERS}"
            )
        for _, path in self.input_paths():
            if not Path(path).exists():
                raise PipelineError(f"input file does not exist: {path}")
        if self.hostmap_path is not None and not Path(self.hostmap_path).exists():
            raise PipelineError(f"hostmap file does not exist: {self.hostmap_path}")
        out = Path(self.out_dir)
        nearest = next((p for p in (out, *out.parents) if p.exists()), None)
        if nearest is not None and not nearest.is_dir():
            raise PipelineError(f"output path is not a directory: {nearest}")


def _paths(text: str) -> list[Path]:
    return [Path(line.strip()) for line in text.splitlines() if line.strip()]


# The INI keys `load_pipeline_config` reads, and the field each one sets.
CONFIG_KEYS = {
    ("input", "snort"): ("snort_paths", _paths),
    ("input", "ossec"): ("ossec_paths", _paths),
    ("input", "jsonl"): ("jsonl_paths", _paths),
    ("input", "hostmap"): ("hostmap_path", Path),
    ("input", "snort_year"): ("snort_year", int),
    ("window", "hours"): ("window_hours", float),
    ("window", "training_days"): ("training_days", float),
    ("window", "origin_utc"): ("origin", parse_utc),
    ("features", "max_depth"): ("max_depth", int),
    ("features", "prune_tolerance"): ("prune_tolerance", float),
    ("model", "max_roles"): ("max_roles", int),
    ("model", "max_bits"): ("max_bits", int),
    ("model", "seed"): ("seed", int),
    ("scoring", "threshold"): ("threshold", float),
    ("scoring", "layer"): ("layer", str),
    ("scoring", "source"): ("source", str),
    ("output", "dir"): ("out_dir", Path),
}


def load_pipeline_config(path: Path | str) -> PipelineConfig:
    """INI layout: [input], [window], [features], [model], [scoring], [output]."""
    return PipelineConfig(**read_ini(path, CONFIG_KEYS, PipelineError))


# -- input loading ---------------------------------------------------------------


def load_records(
    cfg: PipelineConfig, cutoff: float | None = None
) -> tuple[Alerts, ParseStats]:
    """Read every configured input file in one pass each, normalize each
    file's distinct alert keys once, filter by source and sort by time.

    The sort is stable, so alerts with equal timestamps keep file order.
    With a `cutoff`, alerts before it are only counted, in
    `ParseStats.training_span`.
    """
    cfg.validate()
    stats = ParseStats()
    hostmap = load_hostmap(cfg.hostmap_path) if cfg.hostmap_path is not None else None
    alerts = Alerts()
    for fmt, path in cfg.input_paths():
        if fmt == "snort":
            read_snort_file(path, cfg.snort_year, stats, alerts, cutoff=cutoff)
        elif fmt == "ossec":
            read_ossec_file(path, stats, alerts, cutoff=cutoff)
        else:
            read_jsonl_file(path, stats, alerts, cutoff=cutoff)
        logger.info("read %s (%s): %d records so far", path, fmt, len(alerts))

    ids = np.frombuffer(alerts.ids, dtype=np.int64)
    occurrences = np.bincount(ids, minlength=len(alerts.keys)).tolist()
    kept = np.ones(len(alerts.keys), dtype=bool)
    for kid, ((source, fields), n) in enumerate(zip(alerts.keys, occurrences)):
        # A key stands for its n alerts, in the counts too.
        fields, unresolved, collided = normalize_record(fields, hostmap)
        stats.unresolved_hostnames += n * unresolved
        stats.hostname_collisions += n * collided
        alerts.keys[kid] = (source, fields)
        kept[kid] = cfg.source is None or source == cfg.source

    times = np.frombuffer(alerts.times, dtype=np.float64)
    if cfg.source is not None:
        mask = kept[ids]
        ids, times = ids[mask], times[mask]
    # on times already in order the stable sort is the identity
    if np.any(times[1:] < times[:-1]):
        order = np.argsort(times, kind="stable")
        times, ids = times[order], ids[order]
    alerts.times, alerts.ids = times, ids
    return alerts, stats


def derive_window_spec(cfg: PipelineConfig, timestamps: Sequence[float]) -> WindowSpec:
    """Anchor the window grid: an explicit origin wins, otherwise the first
    timestamp floored to a whole window (epoch-aligned)."""
    if cfg.origin is not None:
        origin = cfg.origin
    else:
        if len(timestamps) == 0:
            raise PipelineError("cannot derive a window origin from empty input")
        first = float(np.min(timestamps))
        origin = (first // cfg.window_length) * cfg.window_length
    return WindowSpec(
        origin=origin,
        length=cfg.window_length,
        training_cutoff=origin + cfg.training_days * 86400.0,
    )


def training_graph(
    alerts: Alerts, spec: WindowSpec
) -> tuple[dict[Vertex, int], ArtifactGraph]:
    """Map the training span's nodes to the window of their first alert, in
    order of first appearance, and build the span's co-occurrence graph. The
    span runs from the origin to the training cutoff."""
    start, stop = alerts.before(spec.origin), alerts.before(spec.training_cutoff)
    counts = alerts.field_counts(start, stop)
    _, first = np.unique(alerts.ids[start:stop], return_index=True)
    first_seen: dict[Vertex, int] = {}
    for (fields, _), ts in zip(counts, alerts.times[start + np.sort(first)].tolist()):
        window = spec.window_of(ts)
        for key, value in fields:
            first_seen.setdefault((layer_for(key), value), window)
    return first_seen, build_graph(counts)


def scoring_graphs(
    alerts: Alerts, spec: WindowSpec
) -> Iterator[tuple[int, int, ArtifactGraph]]:
    """(window, alert count, graph) for every occupied window after the
    training cutoff, in window order."""
    first = alerts.before(spec.training_cutoff)
    for window, start, stop in window_partition(alerts.times[first:], spec):
        counts = alerts.field_counts(first + start, first + stop)
        yield window, stop - start, build_graph(counts)


# -- training -----------------------------------------------------------------


@dataclass
class TrainResult:
    bundle_dir: Path
    model: RoleModel
    schema: FeatureSchema
    registry: dict[Vertex, int]  # training node -> first window
    summary: str


# The files `train` writes into a bundle, in the order SHA256SUMS lists them.
BUNDLE_FILES = ("metadata.txt", "schema.txt", "role_features.csv", "grid.csv",
                "registry.tsv", "role_descriptions.csv", "training_summary.txt")
CHECKSUMS = "SHA256SUMS"


def _checksums(files: Mapping[str, bytes]) -> bytes:
    """The `sha256sum` listing of the bundle files' bytes."""
    return "".join(
        f"{hashlib.sha256(files[name]).hexdigest()}  {name}\n" for name in BUNDLE_FILES
    ).encode("ascii")


def _role_csv(columns: Sequence[str], rows: np.ndarray) -> str:
    """One line per role: its id, then its row of floats."""
    lines = ["role," + ",".join(columns) + "\n"]
    for r, row in enumerate(rows):
        lines.append(f"{r}," + ",".join(repr(float(x)) for x in row) + "\n")
    return "".join(lines)


def _registry_tsv(registry: Mapping[Vertex, int]) -> str:
    """One line per node: its index, layer, value and first window."""
    lines = ["index\tlayer\tvalue\tfirst_seen_window\n"]
    for idx, ((layer, value), window) in enumerate(registry.items()):
        lines.append(f"{idx}\t{layer}\t{value}\t{window}\n")
    return "".join(lines)


def _parse_f_csv(text: str) -> np.ndarray:
    rows = [[float(x) for x in line.split(",")[1:]] for line in text.splitlines()[1:]]
    return np.asarray(rows, dtype=float)


def _parse_metadata(text: str) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    return {key.strip(): value.strip() for key, value in pairs}


def train(cfg: PipelineConfig) -> TrainResult:
    """Fit the feature schema and role model on the training span and persist
    the bundle under out_dir/model."""
    alerts, stats = load_records(cfg)
    if not len(alerts):
        raise PipelineError("no records parsed from the configured inputs")
    spec = derive_window_spec(cfg, alerts.times)
    n_before = alerts.before(spec.origin)
    if n_before:
        stats.dropped_before_origin += n_before
        logger.warning("%d records precede window origin %s; dropped", n_before, spec.origin)
    n_training = alerts.before(spec.training_cutoff) - n_before
    if not n_training:
        raise PipelineError("no records fall inside the training span")

    registry, graph = training_graph(alerts, spec)
    summary = graph_summary(graph)
    if not summary.edge_count:
        raise PipelineError("no training alert links two field values: the graph has no edges")
    schema, fm = fit_schema(
        graph, max_depth=cfg.max_depth, prune_tolerance=cfg.prune_tolerance
    )
    model, grid = select_model(
        fm,
        r_range=range(1, min(cfg.max_roles, *fm.values.shape) + 1),
        b_range=range(1, cfg.max_bits + 1),
        seed=cfg.seed,
    )
    best = next(p for p in grid if (p.r, p.b) == (model.n_roles, model.n_bits))

    memberships = memberships_fixed_F(fm, model)
    descriptions = role_descriptions(memberships, node_properties(graph))

    text = [
        "training summary",
        "================",
        f"records parsed: {stats.parsed} (skipped {stats.skipped} of {stats.lines} lines)",
        f"unresolved hostnames: {stats.unresolved_hostnames}",
        f"hostname collisions: {stats.hostname_collisions}",
        *([f"records before origin: {stats.dropped_before_origin}"]
          if stats.dropped_before_origin else []),
        f"records in training span: {n_training}",
        f"training windows: {spec.training_windows}",
        f"graph: {summary.node_count} nodes, {summary.edge_count} edges, "
        f"total weight {summary.total_weight}",
        "layer counts: "
        + ", ".join(f"{k}={v}" for k, v in sorted(summary.layer_counts.items())),
        f"features retained: {len(schema)} (max_depth {cfg.max_depth}, "
        f"prune_tolerance {cfg.prune_tolerance})",
        f"selected roles: {model.n_roles} at {model.n_bits} bits "
        f"(description length {best.total!r})",
    ]
    summary_text = "\n".join(text) + "\n"
    metadata = [
        ("n_roles", model.n_roles),
        ("n_bits", model.n_bits),
        ("seed", model.seed),
        ("n_features", len(schema)),
        ("origin", repr(spec.origin)),
        ("training_cutoff", repr(spec.training_cutoff)),
        ("window_length", repr(spec.length)),
        ("best_total_cost", repr(best.total)),
    ]
    texts = {
        "metadata.txt": "".join(f"{key} = {value}\n" for key, value in metadata),
        "schema.txt": schema.dumps(),
        "role_features.csv": _role_csv([f"f{f.fid}" for f in schema.features], model.F),
        "grid.csv": grid_csv(grid),
        "registry.tsv": _registry_tsv(registry),
        "role_descriptions.csv": _role_csv(descriptions.property_names, descriptions.scores),
        "training_summary.txt": summary_text,
    }
    # Render everything before writing anything, so a failure leaves no
    # half-written bundle.
    files = {name: texts[name].encode("utf-8") for name in BUNDLE_FILES}
    bundle = Path(cfg.out_dir) / "model"
    bundle.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (bundle / name).write_bytes(data)
    (bundle / CHECKSUMS).write_bytes(_checksums(files))
    logger.info("bundle written to %s", bundle)
    return TrainResult(bundle, model, schema, registry, summary_text)


def load_bundle(bundle_dir: Path | str) -> tuple[RoleModel, FeatureSchema, WindowSpec]:
    """A bundle's model, schema and window grid, once its files match its
    SHA256SUMS."""
    bundle = Path(bundle_dir)
    if not (bundle / "metadata.txt").exists():
        raise PipelineError(f"{bundle} is not a model bundle (metadata.txt missing)")
    try:
        files = {name: (bundle / name).read_bytes() for name in BUNDLE_FILES}
        if (bundle / CHECKSUMS).read_bytes() != _checksums(files):
            raise ValueError(f"its files do not match {CHECKSUMS}")
        # The parsers read the very bytes just checked.
        texts = {name: data.decode("utf-8") for name, data in files.items()}
        meta = _parse_metadata(texts["metadata.txt"])
        schema = FeatureSchema.loads(texts["schema.txt"])
        model = RoleModel(
            n_roles=int(meta["n_roles"]),
            n_bits=int(meta["n_bits"]),
            F=_parse_f_csv(texts["role_features.csv"]),
            seed=int(meta["seed"]),
        )
        model.validate()
        if model.F.shape[1] != len(schema):
            raise ValueError(f"F has {model.F.shape[1]} columns, the schema {len(schema)}")
        spec = WindowSpec(
            origin=float(meta["origin"]),
            length=float(meta["window_length"]),
            training_cutoff=float(meta["training_cutoff"]),
        )
    except (LookupError, ValueError, OSError) as exc:
        raise PipelineError(f"corrupt model bundle {bundle}: {exc}") from exc
    return model, schema, spec


# -- scoring -----------------------------------------------------------------


@dataclass
class ScoreResult:
    csv_path: Path
    json_path: Path
    scores: list[WindowScore]
    flagged_windows: list[int]


def score(cfg: PipelineConfig, bundle_dir: Path | str) -> ScoreResult:
    """Score every post-training window in the inputs against a trained bundle.

    The first post-training window only seeds the series (a score needs a
    predecessor); every later window gets a CSV row. An input with nothing
    after the training cutoff yields a header-only CSV.
    """
    model, schema, spec = load_bundle(bundle_dir)
    alerts, stats = load_records(cfg, cutoff=spec.training_cutoff)
    logger.info(
        "read %d lines: %d parsed, %d skipped, %d in the training span",
        stats.lines, stats.parsed, stats.skipped, stats.training_span,
    )
    logger.info("scoring %d post-training records", len(alerts))

    series = MembershipSeries()
    alert_counts: dict[int, int] = {}
    for window, count, graph in scoring_graphs(alerts, spec):
        fm = apply_schema(graph, schema)
        membership = memberships_fixed_F(fm, model)
        series = update_series(series, window, membership)
        alert_counts[window] = count

    scores = score_windows(series, layer=cfg.layer)
    report = detect_anomalies(scores, cfg.threshold)
    spans = {s.window: spec.span(s.window) for s in report.entries}
    for window, (_, end) in spans.items():
        if end >= MAX_TIMESTAMP:
            raise PipelineError(
                f"window {window} ends past 9999-12-31T23:59:59Z, "
                "the last UTC time scores.csv can write"
            )

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "scores.csv"
    json_path = out / "anomalies.json"
    write_score_csv(report, spans, alert_counts, csv_path)
    write_anomalies_json(report, spans, json_path)
    flagged = [e.window for e in report.flagged()]
    logger.info("scored %d windows, flagged %s", len(report.entries), flagged)
    return ScoreResult(csv_path, json_path, report.entries, flagged)
