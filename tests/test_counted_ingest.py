"""The counted ingest against the per-alert pipeline it replaced.

`read_alerts` keeps one timestamp and one key id per alert, and the graphs
are built from distinct field tuples with counts. The references below are
the per-alert read, normalize, sort, window and graph loops. Both must agree
exactly: records, `ParseStats`, registry order and first-seen windows, and
every graph down to the insertion order of each vertex's neighbors, which the
floating-point neighbor sums of the recursive features depend on.
"""

import itertools
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from artifact.dynamics import NodeRegistry
from artifact.graph import ArtifactGraph
from artifact.ingest import (
    AlertRecord,
    ParseStats,
    layer_for,
    load_hostmap,
    normalize_record,
    window_partition,
)
from artifact.pipeline import (
    PipelineConfig,
    derive_window_spec,
    load_records,
    read_alerts,
    scoring_graphs,
    training_graph,
)

ORIGIN = 1_000_000.0
HOUR = 3600.0


# --- references: one alert at a time -----------------------------------------

def reference_build_graph(records):
    g = ArtifactGraph()
    for record in records:
        vertices = [
            g.add_vertex(layer_for(key), value) for key, value in record.fields.items()
        ]
        for u, v in itertools.combinations(vertices, 2):
            if u != v:
                g.add_cooccurrence(u, v)
    return g


def reference_parse_jsonl(line):
    payload = json.loads(line)
    fields = payload["fields"]
    if not isinstance(fields, dict):
        raise ValueError("'fields' must be an object")
    record = AlertRecord(
        source=str(payload["source"]).strip().lower(),
        timestamp=float(payload["ts"]),
        fields={str(k).strip().lower(): str(v) for k, v in fields.items()},
    )
    if not record.source:
        raise ValueError("empty source")
    record.validate()
    return record


def reference_load(cfg):
    stats = ParseStats()
    hostmap = load_hostmap(cfg.hostmap_path) if cfg.hostmap_path else None
    records = []
    for path in cfg.jsonl_paths:
        for line in Path(path).read_text().splitlines():
            if not line.strip():
                continue
            stats.lines += 1
            try:
                record = reference_parse_jsonl(line)
            except (ValueError, KeyError, TypeError):
                stats.skipped += 1
                continue
            stats.parsed += 1
            records.append(normalize_record(record, hostmap, stats))
    if cfg.source is not None:
        records = [r for r in records if r.source == cfg.source]
    records.sort(key=lambda r: r.timestamp)
    return records, stats


def reference_train(records, spec, stats):
    training = [r for r in records if r.timestamp < spec.training_cutoff]
    registry = NodeRegistry()
    for window, bucket in window_partition(training, spec, stats):
        for record in bucket:
            for key, value in record.fields.items():
                registry.get_or_add((layer_for(key), value), window=window)
    return registry, reference_build_graph(training)


def reference_scoring(records, spec):
    scorable = [r for r in records if r.timestamp >= spec.training_cutoff]
    return [
        (window, len(bucket), reference_build_graph(bucket))
        for window, bucket in window_partition(scorable, spec)
        if bucket
    ]


# --- comparisons ---------------------------------------------------------------

def adjacency(g):
    """Each vertex's neighbors with weights, in insertion order."""
    return {v: list(g.neighbors(v).items()) for v in g.nodes()}


def assert_same_graph(got, want):
    assert got == want
    assert adjacency(got) == adjacency(want)


def record_items(records):
    return [(r.source, r.timestamp, list(r.fields.items())) for r in records]


# --- generated inputs ------------------------------------------------------------

# 1, 1.0 and true compare equal in Python but are three field values. As
# hostnames, "db" and "DB" resolve through the hostmap and "ghost" does not.
VALUES = st.sampled_from(
    ["1", 1, 1.0, True, "10.0.0.1", "10.0.0.2", "db", "DB", "web", "ghost", ""]
)
ALERT = st.fixed_dictionaries(
    {
        "file": st.integers(0, 1),
        # Few distinct stamps, so equal timestamps tie across the two files.
        "ts": st.sampled_from(
            [ORIGIN - HOUR, ORIGIN, ORIGIN + HOUR, ORIGIN + 8 * HOUR, ORIGIN + 25 * HOUR,
             ORIGIN + 30 * HOUR, ORIGIN + 50 * HOUR, float("nan"), -5.0]
        ),
        "source": st.sampled_from(["snort", "ossec", " Snort", "bro", ""]),
        # src_ip and dst_ip share a pool, so some pairs collapse to one vertex.
        "fields": st.dictionaries(
            st.sampled_from(["sig_id", "src_ip", "dst_ip", "rule_id", "SRC_IP", "hostname"]),
            VALUES,
            max_size=4,
        ),
    }
)


def write_inputs(root, alerts, hostmap):
    paths = [root / "a.jsonl", root / "b.jsonl"]
    for i, path in enumerate(paths):
        path.write_text(
            "".join(
                json.dumps({"source": a["source"], "ts": a["ts"], "fields": a["fields"]}) + "\n"
                for a in alerts
                if a["file"] == i
            )
            + "not json\n"
        )
    hostmap_path = None
    if hostmap:
        hostmap_path = root / "hosts.map"
        hostmap_path.write_text("db 10.0.0.1\nweb 10.0.0.9\n")
    return paths, hostmap_path


@settings(deadline=None, max_examples=150)
@given(
    alerts=st.lists(ALERT, max_size=40),
    hostmap=st.booleans(),
    source=st.sampled_from([None, "snort", "ossec"]),
    origin=st.sampled_from([None, ORIGIN]),
)
def test_counted_ingest_matches_per_alert_pipeline(alerts, hostmap, source, origin):
    with tempfile.TemporaryDirectory() as tmp:
        paths, hostmap_path = write_inputs(Path(tmp), alerts, hostmap)
        cfg = PipelineConfig(
            jsonl_paths=paths, hostmap_path=hostmap_path, source=source, origin=origin,
            window_hours=8.0, training_days=1.0,
        )
        counted, stats = read_alerts(cfg)
        records, want_stats = reference_load(cfg)
        assert stats == want_stats
        assert record_items(load_records(cfg)[0]) == record_items(records)
        if not records:
            assert len(counted) == 0
            return

        spec = derive_window_spec(cfg, counted.times)
        assert spec == derive_window_spec(cfg, [r.timestamp for r in records])
        registry, graph = training_graph(counted, spec, stats)
        want_registry, want_graph = reference_train(records, spec, want_stats)
        assert stats == want_stats
        assert registry.nodes() == want_registry.nodes()
        assert [registry.first_seen(v) for v in registry.nodes()] == [
            want_registry.first_seen(v) for v in want_registry.nodes()
        ]
        assert_same_graph(graph, want_graph)

        scoring = list(scoring_graphs(counted, spec))
        want_scoring = reference_scoring(records, spec)
        assert [(w, n) for w, n, _ in scoring] == [(w, n) for w, n, _ in want_scoring]
        for (_, _, got), (_, _, want) in zip(scoring, want_scoring):
            assert_same_graph(got, want)


def test_equal_field_values_stay_distinct_vertices(tmp_path):
    path = tmp_path / "alerts.jsonl"
    path.write_text(
        "".join(
            json.dumps({"source": "snort", "ts": ORIGIN + i, "fields": {"sig_id": v, "src_ip": "a"}})
            + "\n"
            for i, v in enumerate([1, 1.0, True, 1])
        )
    )
    alerts, stats = read_alerts(PipelineConfig(jsonl_paths=[path], origin=ORIGIN))
    assert stats.parsed == 4
    assert alerts.field_counts(0, len(alerts)) == [
        ((("sig_id", "1"), ("src_ip", "a")), 2),
        ((("sig_id", "1.0"), ("src_ip", "a")), 1),
        ((("sig_id", "True"), ("src_ip", "a")), 1),
    ]


def test_equal_timestamps_keep_file_order(tmp_path):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for name, path in zip("ab", paths):
        path.write_text(
            "".join(
                json.dumps({"source": "snort", "ts": ORIGIN + i % 3, "fields": {"sig_id": f"{name}{i}"}})
                + "\n"
                for i in range(300)
            )
        )
    records, _ = load_records(PipelineConfig(jsonl_paths=paths))
    want = sorted(
        ((ORIGIN + i % 3, f"{name}{i}") for name in "ab" for i in range(300)),
        key=lambda pair: pair[0],
    )
    assert [(r.timestamp, r.fields["sig_id"]) for r in records] == want
