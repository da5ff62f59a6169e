"""End-to-end orchestration: read alert streams, train a role-model bundle on
the leading window span, then score later windows against the frozen model.

A trained bundle is a plain directory so runs stay auditable:

    metadata.txt           key = value run parameters and counts
    schema.txt             the recursive feature schema (re-applied verbatim)
    role_features.csv      the frozen role-definition matrix F
    grid.csv               the (roles, bits) description-length surface
    registry.tsv           node index with first-seen windows
    role_descriptions.csv  per-role property scores
    training_summary.txt   human-readable training report

Scoring never mutates the bundle; it only reads it.
"""

from __future__ import annotations

import configparser
import logging
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from artifact.dynamics import (
    MembershipSeries,
    NodeRegistry,
    WindowScore,
    detect_anomalies,
    score_windows,
    update_series,
    write_anomalies_json,
    write_score_csv,
)
from artifact.features import FeatureSchema, apply_schema, fit_schema
from artifact.graph import (
    ArtifactGraph,
    FieldTuple,
    build_weighted_graph,
    graph_summary,
)
from artifact.ingest import (
    AlertRecord,
    KeyedAlerts,
    LAYER_BY_FIELD,
    ParseStats,
    WindowSpec,
    layer_for,
    load_hostmap,
    normalize_record,
    read_jsonl_file,
    read_ossec_file,
    read_snort_file,
    window_slices,
)

# Per-record stages that train and score no longer call. The stage tracer in
# perfbench/spans.py still looks them up on this module.
from artifact.graph import build_graph  # noqa: F401
from artifact.ingest import window_partition  # noqa: F401
from artifact.roles import (
    RoleModel,
    memberships_fixed_F,
    node_properties,
    role_descriptions,
    select_model,
    write_grid_csv,
)

logger = logging.getLogger(__name__)

VALID_SOURCES = ("snort", "ossec")
VALID_LAYERS = tuple(sorted(set(LAYER_BY_FIELD.values())))


class PipelineError(ValueError):
    """Configuration or input problem that should abort the run."""


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
        if self.window_hours <= 0:
            raise PipelineError("window_hours must be positive")
        if self.training_days <= 0:
            raise PipelineError("training_days must be positive")
        if self.threshold <= 0:
            raise PipelineError("threshold must be positive")
        if self.max_depth < 0:
            raise PipelineError("max_depth must be >= 0")
        if not 0 < self.prune_tolerance < 1:
            raise PipelineError("prune_tolerance must be in (0, 1)")
        if self.max_roles < 1 or self.max_bits < 1:
            raise PipelineError("max_roles and max_bits must be >= 1")
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


def _parse_utc(text: str) -> float:
    return datetime.fromisoformat(text.replace("Z", "+00:00")).timestamp()


def _paths(section: configparser.SectionProxy, key: str) -> list[Path]:
    raw = section.get(key, "")
    return [Path(line.strip()) for line in raw.splitlines() if line.strip()]


def load_pipeline_config(path: Path | str) -> PipelineConfig:
    """INI layout: [input], [window], [features], [model], [scoring], [output]."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise PipelineError(f"cannot read config file {path}")
    cfg = PipelineConfig()
    if "input" in parser:
        section = parser["input"]
        cfg.snort_paths = _paths(section, "snort")
        cfg.ossec_paths = _paths(section, "ossec")
        cfg.jsonl_paths = _paths(section, "jsonl")
        if "hostmap" in section:
            cfg.hostmap_path = Path(section["hostmap"])
        cfg.snort_year = section.getint("snort_year", cfg.snort_year)
    if "window" in parser:
        section = parser["window"]
        cfg.window_hours = section.getfloat("hours", cfg.window_hours)
        cfg.training_days = section.getfloat("training_days", cfg.training_days)
        if "origin_utc" in section:
            cfg.origin = _parse_utc(section["origin_utc"])
    if "features" in parser:
        section = parser["features"]
        cfg.max_depth = section.getint("max_depth", cfg.max_depth)
        cfg.prune_tolerance = section.getfloat(
            "prune_tolerance", cfg.prune_tolerance
        )
    if "model" in parser:
        section = parser["model"]
        cfg.max_roles = section.getint("max_roles", cfg.max_roles)
        cfg.max_bits = section.getint("max_bits", cfg.max_bits)
        cfg.seed = section.getint("seed", cfg.seed)
    if "scoring" in parser:
        section = parser["scoring"]
        cfg.threshold = section.getfloat("threshold", cfg.threshold)
        cfg.layer = section.get("layer", None) or None
        cfg.source = section.get("source", None) or None
    if "output" in parser:
        cfg.out_dir = Path(parser["output"].get("dir", str(cfg.out_dir)))
    return cfg


# -- input loading ---------------------------------------------------------------


@dataclass
class Alerts:
    """Normalized, source-filtered alerts in time order: per alert a
    timestamp and the id of its distinct normalized (source, fields) tuple."""

    times: np.ndarray  # float64, ascending
    ids: np.ndarray  # int64 indices into `tuples`
    tuples: list[tuple[str, FieldTuple]]

    def __len__(self) -> int:
        return len(self.times)

    def before(self, ts: float) -> int:
        """How many alerts come before `ts`; they are a prefix."""
        return int(np.searchsorted(self.times, ts))

    def field_counts(self, start: int, stop: int) -> list[tuple[FieldTuple, int]]:
        """The distinct field tuples of alerts start..stop-1 with their
        counts, in the order of each tuple's first alert."""
        ids, first, counts = np.unique(
            self.ids[start:stop], return_index=True, return_counts=True
        )
        order = np.argsort(first)
        return [
            (self.tuples[k][1], n)
            for k, n in zip(ids[order].tolist(), counts[order].tolist())
        ]

    def records(self) -> list[AlertRecord]:
        return [
            AlertRecord(self.tuples[k][0], t, dict(self.tuples[k][1]))
            for t, k in zip(self.times.tolist(), self.ids.tolist())
        ]


def read_alerts(cfg: PipelineConfig) -> tuple[Alerts, ParseStats]:
    """Read every configured input file in one pass each, normalize each
    distinct alert key once, filter by source and sort by time.

    The sort is stable, so alerts with equal timestamps keep file order.
    """
    cfg.validate()
    stats = ParseStats()
    hostmap = load_hostmap(cfg.hostmap_path) if cfg.hostmap_path is not None else None
    raw = KeyedAlerts()
    for fmt, path in cfg.input_paths():
        if fmt == "snort":
            read_snort_file(path, cfg.snort_year, stats, raw)
        elif fmt == "ossec":
            read_ossec_file(path, stats, raw)
        else:
            read_jsonl_file(path, stats, raw)
        logger.info("read %s (%s): %d records so far", path, fmt, len(raw))

    raw_ids = np.frombuffer(raw.ids, dtype=np.int64)
    occurrences = np.bincount(raw_ids, minlength=len(raw.keys)).tolist()
    normalized = np.full(len(raw.keys), -1, dtype=np.int64)  # -1: filtered out
    tuples: list[tuple[str, FieldTuple]] = []
    tuple_ids: dict[tuple[str, FieldTuple], int] = {}
    for kid, ((source, fields), n) in enumerate(zip(raw.keys, occurrences)):
        # Normalization reads no timestamp. It counts hostname problems per
        # call, and the key stands for n alerts.
        key_stats = ParseStats()
        record = normalize_record(AlertRecord(source, 0.0, fields), hostmap, key_stats)
        stats.unresolved_hostnames += n * key_stats.unresolved_hostnames
        stats.hostname_collisions += n * key_stats.hostname_collisions
        if cfg.source is not None and record.source != cfg.source:
            continue
        key = (record.source, tuple(record.fields.items()))
        if key not in tuple_ids:
            tuple_ids[key] = len(tuples)
            tuples.append(key)
        normalized[kid] = tuple_ids[key]

    ids = normalized[raw_ids]
    times = np.frombuffer(raw.times, dtype=np.float64)
    if cfg.source is not None:
        kept = ids >= 0
        ids, times = ids[kept], times[kept]
    order = np.argsort(times, kind="stable")
    return Alerts(times[order], ids[order], tuples), stats


def load_records(cfg: PipelineConfig) -> tuple[list[AlertRecord], ParseStats]:
    """Every alert of `read_alerts` as a normalized record, time-sorted."""
    alerts, stats = read_alerts(cfg)
    return alerts.records(), stats


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
    alerts: Alerts, spec: WindowSpec, stats: ParseStats
) -> tuple[NodeRegistry, ArtifactGraph]:
    """Register the training span's nodes window by window, in order of first
    appearance, and build the span's co-occurrence graph. Alerts before the
    origin are counted and left out of the registry, not out of the graph."""
    n_training = alerts.before(spec.training_cutoff)
    registry = NodeRegistry()
    for window, start, stop in window_slices(alerts.times[:n_training], spec, stats):
        for fields, _ in alerts.field_counts(start, stop):
            for key, value in fields:
                registry.get_or_add((layer_for(key), value), window=window)
    return registry, build_weighted_graph(alerts.field_counts(0, n_training))


def scoring_graphs(
    alerts: Alerts, spec: WindowSpec
) -> Iterator[tuple[int, int, ArtifactGraph]]:
    """(window, alert count, graph) for every occupied window after the
    training cutoff, in window order."""
    first = alerts.before(spec.training_cutoff)
    for window, start, stop in window_slices(alerts.times[first:], spec):
        counts = alerts.field_counts(first + start, first + stop)
        yield window, stop - start, build_weighted_graph(counts)


# -- training -----------------------------------------------------------------


@dataclass
class TrainResult:
    bundle_dir: Path
    model: RoleModel
    schema: FeatureSchema
    registry: NodeRegistry
    graph: ArtifactGraph
    summary: str


def _write_f_csv(model: RoleModel, schema: FeatureSchema, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("role," + ",".join(f"f{f.fid}" for f in schema.features) + "\n")
        for r in range(model.n_roles):
            cells = ",".join(repr(float(x)) for x in model.F[r])
            fp.write(f"{r},{cells}\n")


def _read_f_csv(path: Path) -> np.ndarray:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append([float(x) for x in cells[1:]])
    return np.asarray(rows, dtype=float)


def _write_metadata(path: Path, pairs: list[tuple[str, object]]) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for key, value in pairs:
            fp.write(f"{key} = {value}\n")


def _read_metadata(path: Path) -> dict[str, str]:
    meta: dict[str, str] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            meta[key.strip()] = value.strip()
    return meta


def train(cfg: PipelineConfig) -> TrainResult:
    """Fit the feature schema and role model on the training span and persist
    the bundle under out_dir/model."""
    alerts, stats = read_alerts(cfg)
    if not len(alerts):
        raise PipelineError("no records parsed from the configured inputs")
    spec = derive_window_spec(cfg, alerts.times)
    n_training = alerts.before(spec.training_cutoff)
    if not n_training:
        raise PipelineError("no records fall inside the training span")

    registry, graph = training_graph(alerts, spec, stats)
    summary = graph_summary(graph)
    schema, fm = fit_schema(
        graph, max_depth=cfg.max_depth, prune_tolerance=cfg.prune_tolerance
    )
    model, grid = select_model(
        fm,
        r_range=range(1, cfg.max_roles + 1),
        b_range=range(1, cfg.max_bits + 1),
        seed=cfg.seed,
    )
    model.training_span = (spec.origin, spec.training_cutoff)
    best = min(grid, key=lambda p: (p.total, p.r, p.b))

    memberships = memberships_fixed_F(fm, model)
    descriptions = role_descriptions(memberships, node_properties(graph))

    bundle = Path(cfg.out_dir) / "model"
    bundle.mkdir(parents=True, exist_ok=True)
    (bundle / "schema.txt").write_text(schema.dumps(), encoding="utf-8")
    _write_f_csv(model, schema, bundle / "role_features.csv")
    write_grid_csv(grid, bundle / "grid.csv")
    registry.write_tsv(bundle / "registry.tsv")
    descriptions.write_csv(bundle / "role_descriptions.csv")
    _write_metadata(
        bundle / "metadata.txt",
        [
            ("n_roles", model.n_roles),
            ("n_bits", model.n_bits),
            ("seed", model.seed),
            ("schema_fingerprint", schema.fingerprint()),
            ("n_features", len(schema)),
            ("origin", repr(spec.origin)),
            ("training_cutoff", repr(spec.training_cutoff)),
            ("window_length", repr(spec.length)),
            ("best_total_cost", repr(best.total)),
        ],
    )

    text = [
        "training summary",
        "================",
        f"records parsed: {stats.parsed} (skipped {stats.skipped} of {stats.lines} lines)",
        f"unresolved hostnames: {stats.unresolved_hostnames}",
        f"hostname collisions: {stats.hostname_collisions}",
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
    (bundle / "training_summary.txt").write_text(summary_text, encoding="utf-8")
    logger.info("bundle written to %s", bundle)
    return TrainResult(bundle, model, schema, registry, graph, summary_text)


def load_bundle(bundle_dir: Path | str) -> tuple[RoleModel, FeatureSchema, NodeRegistry, dict[str, str]]:
    bundle = Path(bundle_dir)
    if not (bundle / "metadata.txt").exists():
        raise PipelineError(f"{bundle} is not a model bundle (metadata.txt missing)")
    try:
        meta = _read_metadata(bundle / "metadata.txt")
        schema = FeatureSchema.loads(
            (bundle / "schema.txt").read_text(encoding="utf-8")
        )
        if schema.fingerprint() != meta.get("schema_fingerprint"):
            raise PipelineError(
                "bundle schema does not match its recorded fingerprint"
            )
        F = _read_f_csv(bundle / "role_features.csv")
        model = RoleModel(
            n_roles=int(meta["n_roles"]),
            n_bits=int(meta["n_bits"]),
            F=F,
            schema_id=schema.fingerprint(),
            seed=int(meta["seed"]),
            training_span=(float(meta["origin"]), float(meta["training_cutoff"])),
        )
        model.validate()
        registry = NodeRegistry.read_tsv(bundle / "registry.tsv")
    except PipelineError:
        raise
    except (KeyError, ValueError, OSError) as exc:
        raise PipelineError(f"corrupt model bundle {bundle}: {exc}") from exc
    return model, schema, registry, meta


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
    model, schema, registry, meta = load_bundle(bundle_dir)
    alerts, stats = read_alerts(cfg)
    spec = WindowSpec(
        origin=float(meta["origin"]),
        length=float(meta["window_length"]),
        training_cutoff=float(meta["training_cutoff"]),
    )
    first = alerts.before(spec.training_cutoff)
    logger.info(
        "scoring %d post-training records (%d dropped as training-span)",
        len(alerts) - first, first,
    )

    series = MembershipSeries(registry)
    alert_counts: dict[int, int] = {}
    for window, count, graph in scoring_graphs(alerts, spec):
        fm = apply_schema(graph, schema, registry=registry)
        membership = memberships_fixed_F(fm, model)
        series = update_series(series, window, membership)
        alert_counts[window] = count

    scores = score_windows(series, layer=cfg.layer)
    report = detect_anomalies(scores, cfg.threshold)
    spans = {s.window: spec.span(s.window) for s in report.entries}

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "scores.csv"
    json_path = out / "anomalies.json"
    write_score_csv(report, spans, alert_counts, csv_path)
    write_anomalies_json(report, spans, json_path)
    flagged = [e.window for e in report.flagged()]
    logger.info("scored %d windows, flagged %s", len(report.entries), flagged)
    return ScoreResult(csv_path, json_path, report.entries, flagged)
