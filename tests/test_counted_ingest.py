"""The counted ingest against the per-alert pipeline it replaced.

`load_records` keeps one timestamp and one key id per alert, and the graphs
are built from distinct field tuples with counts. The references below are
the per-alert read, normalize, sort, window and graph loops. Both must agree
exactly: records, `ParseStats`, registry order and first-seen windows, and
every graph down to the insertion order of each vertex's neighbors, which the
floating-point neighbor sums of the recursive features depend on.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from artifact.ingest import (
    AlertRecord,
    ParseStats,
    layer_for,
    load_hostmap,
    normalize_record,
)
from artifact.pipeline import (
    PipelineConfig,
    derive_window_spec,
    load_records,
    scoring_graphs,
    training_graph,
)

from conftest import assert_same_graph, reference_adjacency

ORIGIN = 1_000_000.0
HOUR = 3600.0


# --- references: one alert at a time -----------------------------------------

def reference_build_graph(records):
    """vertex -> {neighbor: weight}, one alert at a time."""
    return reference_adjacency((record.fields.items(), 1) for record in records)


def reference_partition(records, spec):
    """(window, records) per occupied window, in window order, one record at
    a time; records before the origin are in none."""
    buckets = {}
    for record in records:
        window = spec.window_of(record.timestamp)
        if window >= 0:
            buckets.setdefault(window, []).append(record)
    return sorted(buckets.items())


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
            fields, unresolved, collided = normalize_record(
                tuple(record.fields.items()), hostmap
            )
            stats.unresolved_hostnames += unresolved
            stats.hostname_collisions += collided
            records.append(AlertRecord(record.source, record.timestamp, dict(fields)))
    if cfg.source is not None:
        records = [r for r in records if r.source == cfg.source]
    records.sort(key=lambda r: r.timestamp)
    return records, stats


def reference_train(records, spec):
    """The registry and graph of the training span's windows; alerts before
    the origin are in neither."""
    training = [r for r in records if r.timestamp < spec.training_cutoff]
    first_seen = {}
    in_windows = []
    for window, bucket in reference_partition(training, spec):
        in_windows += bucket
        for record in bucket:
            for key, value in record.fields.items():
                first_seen.setdefault((layer_for(key), value), window)
    return first_seen, reference_build_graph(in_windows)


def reference_scoring(records, spec):
    scorable = [r for r in records if r.timestamp >= spec.training_cutoff]
    return [
        (window, len(bucket), reference_build_graph(bucket))
        for window, bucket in reference_partition(scorable, spec)
    ]


# --- comparisons ---------------------------------------------------------------

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


def alert(file, ts, fields, source="snort"):
    return {"file": file, "ts": ts, "source": source, "fields": fields}


@settings(deadline=None, max_examples=150)
@given(
    alerts=st.lists(ALERT, max_size=40),
    hostmap=st.booleans(),
    source=st.sampled_from([None, "snort", "ossec"]),
    origin=st.sampled_from([None, ORIGIN]),
)
# One field tuple through two raw keys: the same alert in both files, with
# an unresolved hostname counted per alert, ...
@example(
    alerts=[alert(i, ORIGIN + 8 * HOUR * i, {"hostname": "ghost", "sig_id": "1"})
            for i in (1, 0, 1)],
    hostmap=True, source=None, origin=None,
)
# ... and SRC_IP next to src_ip (and " Snort" next to "snort") in one file.
@example(
    alerts=[alert(0, ORIGIN + HOUR, {"SRC_IP": "10.0.0.1", "sig_id": "1"}),
            alert(0, ORIGIN + 8 * HOUR, {"dst_ip": "10.0.0.2", "sig_id": "2"}),
            alert(0, ORIGIN + 25 * HOUR, {"src_ip": "10.0.0.1", "sig_id": "1"}, " Snort"),
            alert(0, ORIGIN + 30 * HOUR, {"SRC_IP": "10.0.0.1", "sig_id": "1"})],
    hostmap=False, source="snort", origin=ORIGIN,
)
def test_counted_ingest_matches_per_alert_pipeline(alerts, hostmap, source, origin):
    with tempfile.TemporaryDirectory() as tmp:
        paths, hostmap_path = write_inputs(Path(tmp), alerts, hostmap)
        cfg = PipelineConfig(
            jsonl_paths=paths, hostmap_path=hostmap_path, source=source, origin=origin,
            window_hours=8.0, training_days=1.0,
        )
        counted, stats = load_records(cfg)
        records, want_stats = reference_load(cfg)
        assert stats == want_stats
        assert record_items(load_records(cfg)[0]) == record_items(records)
        if not records:
            assert len(counted) == 0
            return

        spec = derive_window_spec(cfg, counted.times)
        assert spec == derive_window_spec(cfg, [r.timestamp for r in records])
        registry, graph = training_graph(counted, spec)
        want_registry, want_graph = reference_train(records, spec)
        assert list(registry.items()) == list(want_registry.items())
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
    alerts, stats = load_records(PipelineConfig(jsonl_paths=[path], origin=ORIGIN))
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
