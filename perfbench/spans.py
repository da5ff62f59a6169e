"""Span and counter tracing around the pipeline's stage calls.

`traced(tracer)` swaps the stage functions that `artifact.cli`,
`artifact.pipeline` and `artifact.roles` look up as module globals for
wrappers, and restores them on exit; no source file is edited. A stage call
records a span (name, start, end, parent, run id). Per-alert calls
(`normalize_record`) only add to counters, because a span each would cost
more than the call. A span's self time is its duration minus the time of its
child spans and of the counted calls made inside it, so the self times of
one run add up to its root spans.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import artifact.cli
import artifact.pipeline
import artifact.roles


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    run: str
    end: float = 0.0
    child_s: float = 0.0  # time of child spans and counted calls

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    run: str = ""
    records: list = field(default_factory=list)  # train's parsed records
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent, self.run)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += record.end - record.start

    def count(self, name: str, seconds: float) -> None:
        """One per-alert call: a counter, no span."""
        self.counters[name + "_s"] += seconds
        self.counters[name + "_calls"] += 1
        if self._stack:
            self.spans[self._stack[-1]].child_s += seconds

    def self_times(self) -> dict[str, float]:
        """Self seconds summed by span name, plus the counted-call times."""
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s.name] += s.self_s
        for key, value in self.counters.items():
            if key.endswith("_s"):
                totals[key[:-2]] += value
        return dict(totals)

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": i, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run": s.run, "self_s": s.self_s}
                for i, s in enumerate(self.spans)
            ],
            "counters": dict(self.counters),
        }


# Stage functions by the module that looks them up, with their span names.
STAGES = {
    artifact.cli: {
        "train": "pipeline.train",
        "score": "pipeline.score",
    },
    artifact.pipeline: {
        "load_records": "ingest.load_records",
        "read_snort_file": "ingest.read",
        "read_ossec_file": "ingest.read",
        "read_jsonl_file": "ingest.read",
        "window_partition": "ingest.window_partition",
        "build_graph": "graph.build",
        "fit_schema": "features.fit",
        "apply_schema": "features.apply",
        "select_model": "roles.select",
        "memberships_fixed_F": "roles.membership",
        "node_properties": "roles.properties",
        "update_series": "dynamics.update",
        "score_windows": "dynamics.score_windows",
        "detect_anomalies": "dynamics.detect",
        "write_score_csv": "dynamics.write",
        "write_anomalies_json": "dynamics.write",
        "load_bundle": "pipeline.load_bundle",
    },
    artifact.roles: {
        "nmf_kl": "roles.nmf",
        "description_length": "roles.description_length",
        "quantize": "roles.quantize",
    },
}
COUNTED = {artifact.pipeline: {"normalize_record": "ingest.normalize"}}


def observe(tracer: Tracer, name: str, args: tuple, result) -> None:
    """Collect the counts of one stage call from its arguments and result."""
    c = tracer.counters
    if name == "ingest.load_records":
        records, stats = result
        c["ingest.records_parsed"] += stats.parsed
        c["ingest.records_skipped"] += stats.skipped
        c["ingest.input_bytes"] += sum(os.path.getsize(p) for _, p in args[0].input_paths())
        c[f"{tracer.run}.records_loaded"] += len(records)
        if tracer.run == "train":
            tracer.records = records
    elif name == "ingest.window_partition" and tracer.run == "score":
        c["score.records_kept"] += len(args[0])
    elif name == "graph.build":
        c["graph.build_calls"] += 1
        c["graph.nodes"] += len(result)
        c["graph.edges"] += result.edge_count
    elif name == "features.fit":
        schema, matrix = result
        c["features.n_features"] = len(schema)
        c["features.cells"] += matrix.values.size
    elif name == "features.apply":
        c["features.apply_calls"] += 1
        c["features.cells"] += result.values.size
    elif name == "roles.nmf":
        c["roles.nmf_calls"] += 1
        c["roles.nmf_iters"] += result.n_iter
    elif name == "roles.quantize":
        c["roles.quantize_calls"] += 1
    elif name == "roles.membership":
        c["roles.membership_rows"] += result.G.shape[0]
    elif name == "roles.select":
        model, grid = result
        rs = sorted({p.r for p in grid})
        bs = sorted({p.b for p in grid})
        c["roles.chosen_roles"] = model.n_roles
        c["roles.chosen_bits"] = model.n_bits
        c["roles.at_grid_edge"] = float(
            model.n_roles in (rs[0], rs[-1]) or model.n_bits in (bs[0], bs[-1]))
    elif name == "dynamics.update":
        c["dynamics.registry_size"] = len(result.registry)
    elif name == "dynamics.score_windows":
        c["dynamics.windows_scored"] += len(result)


def _span_wrapper(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        observe(tracer, name, args, result)
        return result
    return wrapper


def _counted_wrapper(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        tracer.count(name, time.perf_counter() - t0)
        return result
    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Patch every stage for the duration of the block. After each stage
    call, outside its span, `observe` collects its counts."""
    saved = []
    try:
        for table, counted in ((STAGES, False), (COUNTED, True)):
            for module, names in table.items():
                for attr, name in names.items():
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    setattr(module, attr, _counted_wrapper(tracer, name, fn)
                            if counted else _span_wrapper(tracer, name, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# Metrics named after a span whose self time they report, where the plain
# "<span>_s" name would read as the whole stage.
SELF_METRICS = {
    "ingest.load_records": "ingest.load_records_self_s",
    "pipeline.train": "pipeline.train_self_s",
    "pipeline.score": "pipeline.score_self_s",
    "cli.main": "cli.self_s",
}
COUNT_METRICS = (
    "ingest.normalize_calls", "ingest.records_parsed", "ingest.records_skipped",
    "ingest.input_bytes", "graph.build_calls", "graph.nodes", "graph.edges",
    "features.apply_calls", "features.n_features", "features.cells",
    "roles.nmf_calls", "roles.nmf_iters", "roles.quantize_calls",
    "roles.membership_rows", "roles.chosen_roles", "roles.chosen_bits",
    "roles.at_grid_edge", "dynamics.registry_size", "dynamics.windows_scored",
)
SPAN_NAMES = sorted({n for table in (STAGES, COUNTED) for names in table.values()
                     for n in names.values()} | {"cli.main"})


def layer_metrics(tracer: Tracer, spec) -> dict[str, float]:
    """Per-layer metrics of one traced train+score pair. Every `_s` value is
    a self time, so they sum to the wall time of the two `cli.main` spans.
    `spec` is the window grid used to count distinct (window, source,
    fields) tuples."""
    selfs = tracer.self_times()
    metrics = {SELF_METRICS.get(n, n + "_s"): selfs.get(n, 0.0) for n in SPAN_NAMES}
    c = tracer.counters
    metrics.update({k: float(c.get(k, 0.0)) for k in COUNT_METRICS})
    distinct = {
        (spec.window_of(r.timestamp), r.source, tuple(sorted(r.fields.items())))
        for r in tracer.records
    }
    metrics["ingest.distinct_ratio"] = len(distinct) / max(len(tracer.records), 1)
    loaded = c.get("score.records_loaded", 0.0)
    metrics["ingest.score_discard_ratio"] = (
        (loaded - c.get("score.records_kept", 0.0)) / loaded if loaded else 0.0)
    return metrics


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio") or metric == "roles.at_grid_edge":
        return "ratio"
    if metric == "ingest.input_bytes":
        return "B"
    return "count"


def median_dicts(samples: list[dict[str, float]]) -> dict[str, float]:
    keys = set().union(*samples)
    return {k: statistics.median(s.get(k, 0.0) for s in samples) for k in keys}
