"""Pipeline tests on a compact 6-day synthetic run: bundle round trips,
deterministic retraining, scoring behavior on hot and quiet streams, and the
config plumbing. Stream layout comes from the shared conftest fixtures."""

import json
import shutil
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from conftest import SMALL_ORIGIN, SMALL_SIM, small_pipeline_config
from artifact.ingest import AlertRecord, ParseStats, read_jsonl_file, write_jsonl
from artifact.pipeline import (
    PipelineConfig,
    PipelineError,
    VALID_LAYERS,
    VALID_SOURCES,
    derive_window_spec,
    load_bundle,
    load_pipeline_config,
    load_records,
    score,
    train,
)

WINDOW = 8 * 3600.0
ATTACK_WINDOWS = {SMALL_SIM["attack_start_window"], SMALL_SIM["attack_start_window"] + 1}
SPIKE_WINDOW = SMALL_SIM["spike_window"]

BUNDLE_FILES = (
    "metadata.txt",
    "schema.txt",
    "role_features.csv",
    "grid.csv",
    "registry.tsv",
    "role_descriptions.csv",
    "training_summary.txt",
)


@pytest.fixture(scope="module")
def scored(small_streams, small_trained, tmp_path_factory):
    out = tmp_path_factory.mktemp("scored")
    cfg = small_pipeline_config(small_streams, out)
    return score(cfg, small_trained.bundle_dir)


def utc(epoch: float) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


# --- training and the bundle ------------------------------------------------------


def test_bundle_contains_every_artifact(small_trained):
    for name in BUNDLE_FILES:
        assert (small_trained.bundle_dir / name).exists(), name


def test_metadata_round_trips_the_model(small_trained):
    model, schema, registry, meta = load_bundle(small_trained.bundle_dir)
    assert model.n_roles == small_trained.model.n_roles
    assert model.n_bits == small_trained.model.n_bits
    assert model.seed == small_trained.model.seed
    assert np.allclose(model.F, small_trained.model.F)
    assert schema.fingerprint() == small_trained.schema.fingerprint()
    assert int(meta["n_features"]) == len(schema)
    assert float(meta["origin"]) == SMALL_ORIGIN
    assert float(meta["training_cutoff"]) == SMALL_ORIGIN + 2 * 86400.0
    assert float(meta["window_length"]) == WINDOW


def test_bundle_registry_preserves_first_seen(small_trained):
    _, _, registry, _ = load_bundle(small_trained.bundle_dir)
    original = small_trained.registry
    assert registry.nodes() == original.nodes()
    assert all(
        registry.first_seen(n) == original.first_seen(n) for n in original.nodes()
    )


def test_registry_first_seen_inside_training_span(small_trained):
    registry = small_trained.registry
    seen = [registry.first_seen(n) for n in registry.nodes()]
    assert all(s is not None and 0 <= s <= 5 for s in seen)
    assert min(seen) == 0  # the busy background starts in the first window


def test_training_summary_mentions_the_essentials(small_trained):
    text = small_trained.summary
    assert "unresolved hostnames: 0" in text
    assert "training windows: 6" in text
    assert f"selected roles: {small_trained.model.n_roles}" in text


def test_retraining_is_byte_identical(small_streams, small_trained, tmp_path):
    again = train(small_pipeline_config(small_streams, tmp_path))
    for name in ("schema.txt", "role_features.csv", "grid.csv", "registry.tsv"):
        first = (small_trained.bundle_dir / name).read_bytes()
        second = (again.bundle_dir / name).read_bytes()
        assert first == second, name


def test_train_rejects_empty_input(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    cfg = PipelineConfig(jsonl_paths=[empty], out_dir=tmp_path / "out")
    with pytest.raises(PipelineError, match="no records"):
        train(cfg)


def test_train_rejects_empty_training_span(tmp_path):
    late = [
        AlertRecord("snort", SMALL_ORIGIN + 3 * 86400.0 + i, {"sig_id": "1", "src_ip": "10.0.0.1", "dst_ip": "10.0.0.2"})
        for i in range(10)
    ]
    path = tmp_path / "late.jsonl"
    write_jsonl(late, path)
    cfg = PipelineConfig(
        jsonl_paths=[path], origin=SMALL_ORIGIN, training_days=2.0,
        out_dir=tmp_path / "out",
    )
    with pytest.raises(PipelineError, match="training span"):
        train(cfg)


# --- bundle corruption ----------------------------------------------------------


def corrupted_copy(bundle_dir, tmp_path, mutate):
    copy = tmp_path / "bundle"
    shutil.copytree(bundle_dir, copy)
    mutate(copy)
    return copy


def test_load_bundle_rejects_non_bundle_dir(tmp_path):
    with pytest.raises(PipelineError, match="metadata.txt missing"):
        load_bundle(tmp_path)


def test_load_bundle_rejects_tampered_schema(small_trained, tmp_path):
    def chop_schema(copy):
        lines = (copy / "schema.txt").read_text().splitlines(keepends=True)
        (copy / "schema.txt").write_text("".join(lines[:-1]))

    copy = corrupted_copy(small_trained.bundle_dir, tmp_path, chop_schema)
    with pytest.raises(PipelineError):
        load_bundle(copy)


def test_load_bundle_rejects_garbage_role_matrix(small_trained, tmp_path):
    def scribble(copy):
        (copy / "role_features.csv").write_text("role,f0\n0,not-a-number\n")

    copy = corrupted_copy(small_trained.bundle_dir, tmp_path, scribble)
    with pytest.raises(PipelineError, match="corrupt model bundle"):
        load_bundle(copy)


def test_load_bundle_rejects_missing_registry(small_trained, tmp_path):
    copy = corrupted_copy(
        small_trained.bundle_dir, tmp_path, lambda c: (c / "registry.tsv").unlink()
    )
    with pytest.raises(PipelineError, match="corrupt model bundle"):
        load_bundle(copy)


# --- scoring ---------------------------------------------------------------------


def test_score_writes_one_row_per_scored_window(scored):
    lines = scored.csv_path.read_text().splitlines()
    assert lines[0] == (
        "window_start_utc,window_end_utc,score,flagged,alert_count,"
        "aux_argmax_flips,top_contributions"
    )
    # 18 windows, 6 training, one post-training baseline: 11 scored rows
    assert len(lines) == 1 + 11
    starts = [line.split(",")[0] for line in lines[1:]]
    assert starts == [utc(SMALL_ORIGIN + w * WINDOW) for w in range(7, 18)]


def test_score_rows_parse_and_are_consistent(scored):
    lines = scored.csv_path.read_text().splitlines()[1:]
    by_window = {s.window: s for s in scored.scores}
    for line, window in zip(lines, range(7, 18)):
        cells = line.split(",", 6)
        start, end, score_s, flag_s, count_s = cells[:5]
        assert datetime.fromisoformat(end.replace("Z", "+00:00")).timestamp() - \
            datetime.fromisoformat(start.replace("Z", "+00:00")).timestamp() == WINDOW
        assert float(score_s) == by_window[window].score
        assert flag_s in ("0", "1")
        assert int(count_s) > 0


def test_attack_window_flagged_spike_window_not(scored):
    flags = set(scored.flagged_windows)
    assert SMALL_SIM["attack_start_window"] in flags
    assert SPIKE_WINDOW not in flags
    assert flags <= ATTACK_WINDOWS  # no background false positives


def test_spike_scores_below_attack(scored):
    by_window = {s.window: s.score for s in scored.scores}
    assert by_window[SPIKE_WINDOW] < by_window[SMALL_SIM["attack_start_window"]]


def test_scores_are_bounded(scored):
    for s in scored.scores:
        assert 0.0 <= s.score <= 1.0


def test_anomalies_json_structure(scored):
    payload = json.loads(scored.json_path.read_text())
    assert payload["threshold"] == 0.05
    windows = [e["window"] for e in payload["flagged_windows"]]
    assert windows == sorted(scored.flagged_windows)
    for entry in payload["flagged_windows"]:
        assert entry["score"] > 0.05
        assert entry["start_utc"] == utc(SMALL_ORIGIN + entry["window"] * WINDOW)
        assert entry["top_contributors"], "flagged window should name contributors"
        for contributor in entry["top_contributors"]:
            assert contributor["layer"] in VALID_LAYERS
            assert contributor["delta"] > 0.0


def test_quiet_stream_raises_no_flags(small_streams, small_trained, tmp_path):
    cfg = small_pipeline_config(
        small_streams, tmp_path, jsonl_paths=[small_streams["quiet"]]
    )
    result = score(cfg, small_trained.bundle_dir)
    assert result.flagged_windows == []
    assert len(result.scores) == 11


def test_empty_post_training_input_yields_header_only_csv(
    small_streams, small_trained, tmp_path
):
    cutoff = SMALL_ORIGIN + 2 * 86400.0
    training_only = [
        r
        for r in read_jsonl_file(small_streams["full"], ParseStats()).records()
        if r.timestamp < cutoff
    ]
    path = tmp_path / "training_only.jsonl"
    write_jsonl(training_only, path)
    cfg = small_pipeline_config(small_streams, tmp_path, jsonl_paths=[path])
    result = score(cfg, small_trained.bundle_dir)
    assert result.scores == []
    assert result.flagged_windows == []
    assert result.csv_path.read_text().splitlines()[1:] == []


# --- record loading ----------------------------------------------------------------


def test_source_filter_splits_the_stream(small_streams, tmp_path):
    base = small_pipeline_config(small_streams, tmp_path)
    everything, _ = load_records(base)
    snort, _ = load_records(
        small_pipeline_config(small_streams, tmp_path, source="snort")
    )
    ossec, _ = load_records(
        small_pipeline_config(small_streams, tmp_path, source="ossec")
    )
    assert {r.source for r in snort} == {"snort"}
    assert {r.source for r in ossec} == {"ossec"}
    assert len(snort) + len(ossec) == len(everything)
    assert len(snort) > 0 and len(ossec) > 0


def test_records_come_back_time_sorted(small_streams, tmp_path):
    records, _ = load_records(small_pipeline_config(small_streams, tmp_path))
    stamps = [r.timestamp for r in records]
    assert stamps == sorted(stamps)


OSSEC_AGENT_BLOCK = """\
** Alert {epoch}.1: - syslog,authentication_failed,
{stamp} ({host}) 10.9.9.1->/var/log/auth.log
Rule: 5503 (level 5) -> 'User login failed.'
User: root
Mar 01 00:00:0{i} db-host sshd[123]: Failed password for root
"""


def write_agent_blocks(path, hosts):
    blocks = []
    for i, host in enumerate(hosts):
        epoch = int(SMALL_ORIGIN) + i
        blocks.append(
            OSSEC_AGENT_BLOCK.format(
                epoch=epoch, stamp="2021 Mar 01 00:00:0%d" % i, host=host, i=i
            )
        )
    path.write_text("\n".join(blocks))


def test_agent_hostnames_unresolved_without_hostmap(tmp_path):
    path = tmp_path / "alerts.log"
    write_agent_blocks(path, ["db-host", "db-host", "web-host"])
    cfg = PipelineConfig(ossec_paths=[path], out_dir=tmp_path)
    records, stats = load_records(cfg)
    assert stats.unresolved_hostnames == 3
    assert sorted(r.fields["src_ip"] for r in records) == [
        "db-host", "db-host", "web-host",
    ]


def test_agent_hostnames_resolved_with_hostmap(tmp_path):
    path = tmp_path / "alerts.log"
    write_agent_blocks(path, ["db-host", "web-host"])
    hostmap = tmp_path / "hosts.map"
    hostmap.write_text("db-host 10.5.5.5\nweb-host 10.5.5.6\n")
    cfg = PipelineConfig(ossec_paths=[path], hostmap_path=hostmap, out_dir=tmp_path)
    records, stats = load_records(cfg)
    assert stats.unresolved_hostnames == 0
    assert sorted(r.fields["src_ip"] for r in records) == ["10.5.5.5", "10.5.5.6"]


# --- window derivation --------------------------------------------------------------


def test_derive_window_spec_floors_to_the_grid():
    cfg = PipelineConfig(window_hours=8.0, training_days=2.0)
    records = [
        AlertRecord("snort", SMALL_ORIGIN + 30000.0, {"sig_id": "1"}),
        AlertRecord("snort", SMALL_ORIGIN + 40000.0, {"sig_id": "1"}),
    ]
    spec = derive_window_spec(cfg, [r.timestamp for r in records])
    assert spec.origin == SMALL_ORIGIN + WINDOW  # floor of origin + 30000
    assert spec.training_cutoff == spec.origin + 2 * 86400.0
    assert spec.length == WINDOW


def test_derive_window_spec_prefers_explicit_origin():
    cfg = PipelineConfig(origin=SMALL_ORIGIN, window_hours=8.0, training_days=1.0)
    records = [AlertRecord("snort", SMALL_ORIGIN + 999999.0, {"sig_id": "1"})]
    spec = derive_window_spec(cfg, [r.timestamp for r in records])
    assert spec.origin == SMALL_ORIGIN


def test_derive_window_spec_needs_records_without_origin():
    with pytest.raises(PipelineError, match="empty input"):
        derive_window_spec(PipelineConfig(), [])


# --- config ---------------------------------------------------------------------


def test_load_pipeline_config_reads_every_section(tmp_path):
    snort = tmp_path / "a.alert"
    jsonl_a, jsonl_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    ini = tmp_path / "run.ini"
    ini.write_text(
        f"""
[input]
snort = {snort}
jsonl =
    {jsonl_a}
    {jsonl_b}
snort_year = 2020

[window]
hours = 4
training_days = 3.5
origin_utc = 2021-03-01T00:00:00Z

[features]
max_depth = 2
prune_tolerance = 0.001

[model]
max_roles = 8
max_bits = 4
seed = 99

[scoring]
threshold = 0.1
layer = ip
source = snort

[output]
dir = {tmp_path / "results"}
"""
    )
    cfg = load_pipeline_config(ini)
    assert cfg.snort_paths == [snort]
    assert cfg.jsonl_paths == [jsonl_a, jsonl_b]
    assert cfg.snort_year == 2020
    assert cfg.window_hours == 4.0
    assert cfg.training_days == 3.5
    assert cfg.origin == SMALL_ORIGIN
    assert cfg.max_depth == 2
    assert cfg.prune_tolerance == 0.001
    assert cfg.max_roles == 8 and cfg.max_bits == 4 and cfg.seed == 99
    assert cfg.threshold == 0.1
    assert cfg.layer == "ip" and cfg.source == "snort"
    assert cfg.out_dir == tmp_path / "results"


def test_load_pipeline_config_defaults_survive_sparse_file(tmp_path):
    ini = tmp_path / "sparse.ini"
    ini.write_text("[scoring]\nthreshold = 0.2\n")
    cfg = load_pipeline_config(ini)
    assert cfg.threshold == 0.2
    assert cfg.window_hours == 8.0
    assert cfg.training_days == 7.0
    assert cfg.layer is None and cfg.source is None


def test_load_pipeline_config_rejects_missing_file(tmp_path):
    with pytest.raises(PipelineError, match="cannot read"):
        load_pipeline_config(tmp_path / "nope.ini")


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"window_hours": 0.0}, "window_hours"),
        ({"training_days": -1.0}, "training_days"),
        ({"threshold": 0.0}, "threshold"),
        ({"prune_tolerance": 1.5}, "prune_tolerance"),
        ({"max_roles": 0}, "max_roles"),
        ({"source": "zeek"}, "unknown source"),
        ({"layer": "nope"}, "unknown layer"),
        ({"jsonl_paths": [Path("/definitely/not/here.jsonl")]}, "does not exist"),
        ({"hostmap_path": Path("/definitely/not/here.map")}, "hostmap"),
    ],
)
def test_validate_rejects_bad_configs(overrides, message):
    cfg = PipelineConfig(**overrides)
    with pytest.raises(PipelineError, match=message):
        cfg.validate()


def test_source_and_layer_vocabularies():
    assert VALID_SOURCES == ("snort", "ossec")
    assert set(VALID_LAYERS) == {"ip", "signature", "rule", "logfile"}
