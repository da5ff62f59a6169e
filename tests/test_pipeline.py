"""Pipeline tests on a compact 6-day synthetic run: bundle round trips,
deterministic retraining, scoring behavior on hot and quiet streams, and the
config plumbing. Stream layout comes from the shared conftest fixtures."""

import builtins
import hashlib
import json
import shutil
from collections import Counter
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from conftest import SMALL_ORIGIN, SMALL_SIM, read_registry_tsv, small_pipeline_config
import artifact.pipeline
import artifact.roles
from artifact.cli import main
from artifact.ingest import AlertRecord, ParseStats, read_jsonl_file, write_jsonl
from artifact.pipeline import (
    CONFIG_KEYS,
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
    "SHA256SUMS",
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
    model, schema, spec = load_bundle(small_trained.bundle_dir)
    assert model.n_roles == small_trained.model.n_roles
    assert model.n_bits == small_trained.model.n_bits
    assert model.seed == small_trained.model.seed
    assert np.allclose(model.F, small_trained.model.F)
    assert schema.dumps() == small_trained.schema.dumps()
    assert model.F.shape[1] == len(schema)
    assert spec.origin == SMALL_ORIGIN
    assert spec.training_cutoff == SMALL_ORIGIN + 2 * 86400.0
    assert spec.length == WINDOW


def test_checksums_list_every_bundle_file_in_sha256sum_format(small_trained):
    lines = (small_trained.bundle_dir / "SHA256SUMS").read_text().splitlines()
    names = []
    for line in lines:
        digest, name = line.split("  ")
        data = (small_trained.bundle_dir / name).read_bytes()
        assert digest == hashlib.sha256(data).hexdigest(), name
        names.append(name)
    assert names == list(BUNDLE_FILES[:-1])


def test_bundle_registry_preserves_first_seen(small_trained):
    text = (small_trained.bundle_dir / "registry.tsv").read_text(encoding="utf-8")
    assert read_registry_tsv(text) == [
        (idx, layer, value, window)
        for idx, ((layer, value), window) in enumerate(small_trained.registry.items())
    ]


def test_registry_first_seen_inside_training_span(small_trained):
    seen = list(small_trained.registry.values())
    assert all(0 <= s <= 5 for s in seen)
    assert min(seen) == 0  # the busy background starts in the first window


def test_training_summary_mentions_the_essentials(small_trained):
    text = small_trained.summary
    assert "unresolved hostnames: 0" in text
    assert "training windows: 6" in text
    assert f"selected roles: {small_trained.model.n_roles}" in text


def test_retraining_is_byte_identical(small_streams, small_trained, tmp_path):
    again = train(small_pipeline_config(small_streams, tmp_path))
    for name in BUNDLE_FILES:
        first = (small_trained.bundle_dir / name).read_bytes()
        second = (again.bundle_dir / name).read_bytes()
        assert first == second, name


def test_load_bundle_reads_each_file_once(small_trained, monkeypatch):
    opened = Counter()
    path_open, builtin_open = Path.open, builtins.open

    def counted_path_open(self, *args, **kwargs):
        opened[self.name] += 1
        return path_open(self, *args, **kwargs)

    def counted_open(file, *args, **kwargs):
        opened[Path(file).name] += 1
        return builtin_open(file, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counted_path_open)
    monkeypatch.setattr(builtins, "open", counted_open)
    load_bundle(small_trained.bundle_dir)
    assert opened == {name: 1 for name in BUNDLE_FILES}


def test_failed_render_writes_no_bundle(small_streams, tmp_path, monkeypatch):
    def fail(registry):
        raise RuntimeError("cannot render the registry")

    monkeypatch.setattr(artifact.pipeline, "_registry_tsv", fail)
    cfg = small_pipeline_config(small_streams, tmp_path / "out",
                                max_depth=2, max_roles=3, max_bits=2)
    with pytest.raises(RuntimeError, match="cannot render"):
        train(cfg)
    assert not (tmp_path / "out").exists()


def test_huge_max_roles_grids_only_the_feasible_ranks(tmp_path, monkeypatch):
    """Ranks above min(nodes, features) are infeasible: a huge max_roles
    hands select_model no more ranks, and trains the same bundle."""
    path = tmp_path / "alerts.jsonl"
    write_jsonl([
        AlertRecord("snort", SMALL_ORIGIN + 60.0 * i,
                    {"sig_id": str(100 + i % 3), "src_ip": f"10.0.0.{i % 4}",
                     "dst_ip": "10.0.1.1"})
        for i in range(12)
    ], path)
    real = artifact.pipeline.select_model
    shapes = []

    def select_model(V, r_range, **kwargs):
        shapes.append(V.values.shape)
        assert len(r_range) <= min(V.values.shape)
        return real(V, r_range=r_range, **kwargs)

    monkeypatch.setattr(artifact.pipeline, "select_model", select_model)

    def bundle(max_roles):
        cfg = PipelineConfig(jsonl_paths=[path], origin=SMALL_ORIGIN, max_roles=max_roles,
                             out_dir=tmp_path / str(max_roles))
        model = train(cfg).bundle_dir
        return {name: (model / name).read_bytes() for name in BUNDLE_FILES}

    huge = bundle(10**12)
    assert huge == bundle(min(shapes[0]))


def test_training_span_without_links_ends_in_an_error_line(tmp_path, capsys):
    """One-field alerts give a graph without edges, hence no features to fit."""
    path = tmp_path / "lonely.jsonl"
    write_jsonl([AlertRecord("snort", SMALL_ORIGIN + i, {"sig_id": str(i)}) for i in (1, 2)],
                path)
    assert main(["train", "--jsonl", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no training alert links two field values")
    assert not (tmp_path / "out").exists()


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


def test_alert_before_the_origin_is_left_out_of_training(tmp_path):
    """An alert an hour before an explicit origin, with its own signature and
    addresses, is in no window: the graph, the registry and the span count
    are those of the input without it. Only the parse count and the count of
    records before the origin tell them apart."""
    records = [
        AlertRecord("snort", SMALL_ORIGIN + 60.0 * i,
                    {"sig_id": str(100 + i % 3), "src_ip": f"10.0.0.{i % 4}",
                     "dst_ip": "10.0.1.1"})
        for i in range(12)
    ]
    early = AlertRecord("snort", SMALL_ORIGIN - 3600.0,
                        {"sig_id": "999", "src_ip": "10.9.9.9", "dst_ip": "10.9.9.8"})

    def bundle(stream, name):
        path = tmp_path / f"{name}.jsonl"
        write_jsonl(stream, path)
        cfg = PipelineConfig(jsonl_paths=[path], origin=SMALL_ORIGIN, out_dir=tmp_path / name)
        model = train(cfg).bundle_dir
        return {f: (model / f).read_text() for f in BUNDLE_FILES if f != "SHA256SUMS"}

    with_early, without = bundle([early, *records], "early"), bundle(records, "plain")
    assert "records in training span: 12\n" in without["training_summary.txt"]
    assert "records before origin" not in without["training_summary.txt"]
    without["training_summary.txt"] = without["training_summary.txt"].replace(
        "records parsed: 12 (skipped 0 of 12 lines)", "records parsed: 13 (skipped 0 of 13 lines)"
    ).replace("records in training span", "records before origin: 1\nrecords in training span")
    assert with_early == without


def test_boolean_ts_is_a_skipped_line_in_training(tmp_path):
    """A first line whose "ts" is true is skipped: it does not become an
    alert at 1970-01-01T00:00:01 that moves the derived origin to the epoch
    and leaves one alert in the training span. The bundle is that of the
    input without it, apart from the line counts."""
    records = [
        AlertRecord("snort", SMALL_ORIGIN + 60.0 * i,
                    {"sig_id": str(100 + i % 3), "src_ip": f"10.0.0.{i % 4}",
                     "dst_ip": "10.0.1.1"})
        for i in range(12)
    ]
    plain = tmp_path / "plain.jsonl"
    write_jsonl(records, plain)
    boolean = tmp_path / "boolean.jsonl"
    boolean.write_text('{"source":"snort","ts":true,"fields":{"sig_id":"7","src_ip":"10.9.9.9"}}\n'
                       + plain.read_text())

    def bundle(path):
        model = train(PipelineConfig(jsonl_paths=[path], out_dir=tmp_path / path.stem)).bundle_dir
        return {f: (model / f).read_text() for f in BUNDLE_FILES if f != "SHA256SUMS"}

    with_boolean, without = bundle(boolean), bundle(plain)
    assert "records in training span: 12\n" in with_boolean["training_summary.txt"]
    without["training_summary.txt"] = without["training_summary.txt"].replace(
        "records parsed: 12 (skipped 0 of 12 lines)", "records parsed: 12 (skipped 1 of 13 lines)"
    )
    assert with_boolean == without


# --- bundle corruption ----------------------------------------------------------


def corrupted_copy(bundle_dir, tmp_path, mutate):
    """A copy of the bundle with `mutate` applied and SHA256SUMS rewritten to
    match, so that the load reaches the parsers. A deleted file keeps its
    old line."""
    copy = tmp_path / "bundle"
    shutil.copytree(bundle_dir, copy)
    mutate(copy)
    sums = copy / "SHA256SUMS"
    lines = []
    for line in sums.read_text().splitlines():
        digest, name = line.split("  ")
        if (copy / name).exists():
            digest = hashlib.sha256((copy / name).read_bytes()).hexdigest()
        lines.append(f"{digest}  {name}\n")
    sums.write_text("".join(lines))
    return copy


def score_exit(small_streams, bundle, tmp_path, capsys):
    """`artifact score` against `bundle`: its exit code and stderr."""
    rc = main([
        "score", "--jsonl", str(small_streams["full"]),
        "--model", str(bundle), "--out", str(tmp_path / "out"),
    ])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("name, delete", [
    *((name, False) for name in BUNDLE_FILES),
    ("SHA256SUMS", True),
])
def test_unsigned_change_is_a_corrupt_bundle(
    small_streams, small_trained, tmp_path, capsys, name, delete
):
    copy = tmp_path / "bundle"
    shutil.copytree(small_trained.bundle_dir, copy)
    path = copy / name
    if delete:
        path.unlink()
    else:
        data = bytearray(path.read_bytes())
        middle = len(data) // 2
        data[middle] = ord("0") if data[middle] != ord("0") else ord("1")
        path.write_bytes(bytes(data))
    with pytest.raises(PipelineError, match="corrupt model bundle"):
        load_bundle(copy)
    rc, err = score_exit(small_streams, copy, tmp_path, capsys)
    assert rc == 1
    assert "error: corrupt model bundle" in err


@pytest.mark.parametrize("resize", [
    lambda cells: cells[:-1],
    lambda cells: cells + cells[-1:],
], ids=["narrower", "wider"])
def test_role_matrix_off_the_schema_width_is_a_corrupt_bundle(
    small_streams, small_trained, tmp_path, capsys, resize
):
    def reshape(copy):
        path = copy / "role_features.csv"
        lines = path.read_text().splitlines()
        path.write_text("".join(",".join(resize(l.split(","))) + "\n" for l in lines))

    copy = corrupted_copy(small_trained.bundle_dir, tmp_path, reshape)
    rc, err = score_exit(small_streams, copy, tmp_path, capsys)
    assert rc == 1
    assert "error: corrupt model bundle" in err


def test_load_bundle_rejects_non_bundle_dir(tmp_path):
    with pytest.raises(PipelineError, match="metadata.txt missing"):
        load_bundle(tmp_path)


def test_load_bundle_rejects_tampered_schema(small_trained, tmp_path):
    def chop_schema(copy):
        lines = (copy / "schema.txt").read_text().splitlines(keepends=True)
        (copy / "schema.txt").write_text("".join(lines[:-1]))

    copy = corrupted_copy(small_trained.bundle_dir, tmp_path, chop_schema)
    with pytest.raises(PipelineError, match="corrupt model bundle"):
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


@pytest.mark.parametrize("name, text", [
    ("schema.txt", "artifact-feature-schema v1\n"),
    pytest.param("schema.txt", "artifact-feature-schema v1\nprune_tolerance 0.0005\nmax_depth\n",
                 id="schema-header-without-a-value"),
])
def test_truncated_bundle_file_is_a_corrupt_bundle(
    small_streams, small_trained, tmp_path, capsys, name, text
):
    copy = corrupted_copy(
        small_trained.bundle_dir, tmp_path, lambda c: (c / name).write_text(text)
    )
    with pytest.raises(PipelineError, match="corrupt model bundle"):
        load_bundle(copy)
    rc, err = score_exit(small_streams, copy, tmp_path, capsys)
    assert rc == 1
    assert "error: corrupt model bundle" in err


@pytest.mark.parametrize("key", ["origin", "training_cutoff", "window_length"])
def test_bundle_without_its_window_grid_is_a_corrupt_bundle(small_trained, tmp_path, key):
    def drop(bundle):
        meta = bundle / "metadata.txt"
        lines = meta.read_text().splitlines(keepends=True)
        meta.write_text("".join(l for l in lines if not l.startswith(f"{key} = ")))

    with pytest.raises(PipelineError, match="corrupt model bundle"):
        load_bundle(corrupted_copy(small_trained.bundle_dir, tmp_path, drop))


@pytest.mark.parametrize("key, value", [
    ("origin", "nan"),
    ("window_length", "inf"),
    ("training_cutoff", "inf"),
    ("window_length", "1e-300"),
])
def test_window_grid_that_cannot_index_is_a_corrupt_bundle(
    small_streams, small_trained, tmp_path, capsys, key, value
):
    def rewrite(bundle):
        meta = bundle / "metadata.txt"
        lines = meta.read_text().splitlines(keepends=True)
        meta.write_text("".join(f"{key} = {value}\n" if l.startswith(f"{key} = ") else l
                                for l in lines))

    copy = corrupted_copy(small_trained.bundle_dir, tmp_path, rewrite)
    rc, err = score_exit(small_streams, copy, tmp_path, capsys)
    assert rc == 1
    assert "error: corrupt model bundle" in err
    assert not (tmp_path / "out").exists()


# --- scoring ---------------------------------------------------------------------


def test_score_reads_nothing_from_registry_tsv(small_streams, small_trained, scored, tmp_path):
    """Scoring indexes its own nodes: an emptied registry.tsv, re-listed in
    SHA256SUMS, leaves every output byte as it was."""
    copy = corrupted_copy(
        small_trained.bundle_dir, tmp_path, lambda c: (c / "registry.tsv").write_text("")
    )
    again = score(small_pipeline_config(small_streams, tmp_path / "out"), copy)
    assert again.csv_path.read_bytes() == scored.csv_path.read_bytes()
    assert again.json_path.read_bytes() == scored.json_path.read_bytes()


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
        for r in read_jsonl_file(small_streams["full"], ParseStats())
        if r.timestamp < cutoff
    ]
    path = tmp_path / "training_only.jsonl"
    write_jsonl(training_only, path)
    cfg = small_pipeline_config(small_streams, tmp_path, jsonl_paths=[path])
    result = score(cfg, small_trained.bundle_dir)
    assert result.scores == []
    assert result.flagged_windows == []
    assert result.csv_path.read_text().splitlines()[1:] == []


# Inputs of each format whose training span (2021-03-01 and 02) holds valid,
# malformed and pre-origin alerts; two Snort lines and an OSSEC block fall
# after it.
CUTOFF_SNORT = """\
02/28-23:00:00.0 [**] [1:7:1] pre-origin [**] {TCP} 10.0.0.1:1 -> 10.0.0.2:2
03/01-01:00:00.0 [**] [1:7:1] valid [**] {TCP} 10.0.0.1:1 -> 10.0.0.2:2
03/01-24:00:00.0 [**] [1:7:1] hour 24 [**] {TCP} 10.0.0.1:1 -> 10.0.0.2:2
02/30-01:00:00.0 [**] [1:7:1] no such day [**] {TCP} 10.0.0.1:1 -> 10.0.0.2:2
03/01-02:00:00.0 [**] no signature [**] {TCP} 10.0.0.1:1 -> 10.0.0.2:2
03/02-02:00:00.0 [**] [1:7:1] no arrow [**] {TCP} 10.0.0.1:1
03/02-03:00:00.0 [**] [1:7:1] bad address [**] {TCP} 999.0.0.1:1 -> 10.0.0.2:2
01/01/1969-00:00:01.0 [**] [1:7:1] before the epoch [**] {TCP} 10.0.0.1:1 -> 10.0.0.2:2
03/04-09:00:00.0 [**] [1:7:1] scored [**] {TCP} 10.0.0.1:1 -> 10.0.0.2:2
03/05-09:00:00.0 [**] [1:8:1] scored [**] {TCP} 10.0.0.3:1 -> 10.0.0.2:2
"""
CUTOFF_OSSEC_BLOCK = """\
** Alert {epoch}.1: - syslog,
2021 Mar 01 00:00:00 (web1) 10.0.0.5->/var/log/secure
{rule}Src IP: 10.0.0.9
"""


def test_score_reads_the_same_with_and_without_its_cutoff(
    small_streams, small_trained, tmp_path, monkeypatch
):
    """`score` stops reading a line at a timestamp before the bundle's
    training cutoff. Its outputs must be those of a read of every line."""
    snort = tmp_path / "alert"
    snort.write_text(CUTOFF_SNORT)
    ossec = tmp_path / "alerts.log"
    ossec.write_text("\n".join(
        CUTOFF_OSSEC_BLOCK.format(epoch=int(SMALL_ORIGIN + offset), rule=rule)
        for offset, rule in [(-60, "Rule: 5503 (level 5)\n"), (60, "Rule: 5503 (level 5)\n"),
                             (120, ""), (3 * 86400 + 60, "Rule: 5715 (level 3)\n")]
    ))
    jsonl = tmp_path / "alerts.jsonl"
    jsonl.write_text(small_streams["full"].read_text() + "".join(
        json.dumps({"source": "snort", "ts": SMALL_ORIGIN + offset, "fields": fields}) + "\n"
        for offset, fields in [(-3600, {"sig_id": "1"}), (60, {}), (60, {"sig_id": ""}),
                               (60, "x"), (0, {"sig_id": "2"})]
    ) + "not json\n")
    cfg = small_pipeline_config(
        small_streams, tmp_path, jsonl_paths=[jsonl], snort_paths=[snort],
        ossec_paths=[ossec], snort_year=2021,
    )
    load_records = artifact.pipeline.load_records
    seen = []

    def recording(cfg, cutoff=None):
        alerts, stats = load_records(cfg, cutoff=cutoff)
        seen.append(stats)
        return alerts, stats

    monkeypatch.setattr(artifact.pipeline, "load_records", recording)
    cut = score(cfg, small_trained.bundle_dir)
    outputs = cut.csv_path.read_bytes(), cut.json_path.read_bytes()
    monkeypatch.setattr(artifact.pipeline, "load_records", lambda cfg, cutoff=None: recording(cfg))
    full = score(cfg, small_trained.bundle_dir)
    assert (full.csv_path.read_bytes(), full.json_path.read_bytes()) == outputs

    with_cutoff, without = seen
    assert with_cutoff.lines == without.lines
    assert with_cutoff.training_span > 0 and without.training_span == 0
    # The malformed lines before the cutoff are training-span lines now.
    assert with_cutoff.skipped < without.skipped


def test_train_and_score_normalize_keys_and_solve_each_window_once(
    small_streams, tmp_path, monkeypatch
):
    """`train` and `score` normalize each distinct key, so they build no
    `AlertRecord` and one `ParseStats` each. Memberships take one `nnls`
    call per window and role descriptions two."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("an AlertRecord was built")

    stats_built, solves, windows = [], [], []
    stats_init = ParseStats.__init__
    nnls, memberships = artifact.roles.nnls, artifact.pipeline.memberships_fixed_F

    def counted_stats(self, *args, **kwargs):
        stats_built.append(self)
        stats_init(self, *args, **kwargs)

    def counted_nnls(A, B):
        solves.append(np.shape(B))
        return nnls(A, B)

    def counted_memberships(fm, model):
        windows.append(len(fm.nodes))
        return memberships(fm, model)

    monkeypatch.setattr(AlertRecord, "__init__", refuse)
    monkeypatch.setattr(ParseStats, "__init__", counted_stats)
    monkeypatch.setattr(artifact.roles, "nnls", counted_nnls)
    monkeypatch.setattr(artifact.pipeline, "memberships_fixed_F", counted_memberships)
    cfg = small_pipeline_config(small_streams, tmp_path)
    trained = train(cfg)
    assert len(stats_built) == 1
    n_properties = len(artifact.roles.PROPERTY_NAMES)
    assert solves == [(trained.model.F.shape[1], windows[0]),
                      (windows[0], n_properties), (windows[0], n_properties)]

    solves.clear()
    windows.clear()
    result = score(cfg, trained.bundle_dir)
    assert len(stats_built) == 2
    assert len(windows) == len(result.scores) + 1 > 1
    assert solves == [(trained.model.F.shape[1], n) for n in windows]


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


def test_config_table_sets_every_field_once():
    names = [name for name, _ in CONFIG_KEYS.values()]
    assert sorted(names) == sorted(f.name for f in fields(PipelineConfig))


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
        ({"max_bits": 17}, "max_bits"),
        ({"threshold": float("nan")}, "threshold"),
    ],
)
def test_validate_rejects_bad_configs(overrides, message):
    cfg = PipelineConfig(**overrides)
    with pytest.raises(PipelineError, match=message):
        cfg.validate()


def test_source_and_layer_vocabularies():
    assert VALID_SOURCES == ("snort", "ossec")
    assert set(VALID_LAYERS) == {"ip", "signature", "rule", "logfile"}
