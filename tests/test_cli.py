"""CLI tests: every subcommand end to end through main(argv), exit codes on
bad input, and determinism of the rendered outputs. Heavy runs reuse the
session stream; train/score here use shallow quick-model knobs since the CLI
layer under test is the plumbing, not detection quality."""

from pathlib import Path

import pytest

from conftest import SMALL_ORIGIN
from artifact.cli import SCORE_HEADER, main
from artifact.ingest import ParseStats, read_jsonl_file, write_jsonl

ORIGIN_UTC = "2021-03-01T00:00:00Z"

TINY_SCENARIO_INI = f"""
[scenario]
origin_utc = {ORIGIN_UTC}
duration_days = 2
window_hours = 8
training_days = 1
seed = 11
attack_start_window = 4
spike_window = 3
spike_multiplier = 10
"""


@pytest.fixture(scope="module")
def tiny_ini(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("ini") / "scenario.ini"
    path.write_text(TINY_SCENARIO_INI)
    return path


@pytest.fixture(scope="module")
def cli_bundle(small_streams, tmp_path_factory) -> Path:
    """A quick shallow bundle trained through the CLI (1 training day,
    depth-2 features, 3x2 model grid)."""
    out = tmp_path_factory.mktemp("cli_train")
    rc = main([
        "train",
        "--jsonl", str(small_streams["full"]),
        "--origin-utc", ORIGIN_UTC,
        "--training-days", "1",
        "--max-depth", "2",
        "--max-roles", "3",
        "--max-bits", "2",
        "--seed", "7",
        "--out", str(out),
    ])
    assert rc == 0
    return out / "model"


@pytest.fixture(scope="module")
def cli_scores(small_streams, cli_bundle, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("cli_score")
    rc = main([
        "score",
        "--jsonl", str(small_streams["full"]),
        "--model", str(cli_bundle),
        "--out", str(out),
    ])
    assert rc == 0
    return out / "scores.csv"


@pytest.fixture(scope="module")
def training_only_jsonl(small_streams, tmp_path_factory) -> Path:
    """The full stream truncated to the quick bundle's one-day training span:
    nothing left to score."""
    cutoff = SMALL_ORIGIN + 86400.0
    records = [
        r
        for r in read_jsonl_file(small_streams["full"], ParseStats()).records()
        if r.timestamp < cutoff
    ]
    path = tmp_path_factory.mktemp("empty") / "training_only.jsonl"
    write_jsonl(records, path)
    return path


# --- simulate ---------------------------------------------------------------------


def test_simulate_writes_stream_and_announces_injections(tiny_ini, tmp_path, capsys):
    rc = main(["simulate", "--config", str(tiny_ini), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert (tmp_path / "alerts.jsonl").exists()
    assert "attack windows: [4, 5] (300 alerts)" in out
    assert "volume-spike window: 3 (x10)" in out


def test_simulate_is_deterministic(tiny_ini, tmp_path):
    for sub in ("a", "b"):
        assert main(["simulate", "--config", str(tiny_ini),
                     "--out", str(tmp_path / sub)]) == 0
    assert (tmp_path / "a" / "alerts.jsonl").read_bytes() == \
        (tmp_path / "b" / "alerts.jsonl").read_bytes()


def test_simulate_seed_flag_overrides_config(tiny_ini, tmp_path):
    assert main(["simulate", "--config", str(tiny_ini),
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", str(tiny_ini), "--seed", "12",
                 "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "alerts.jsonl").read_bytes() != \
        (tmp_path / "b" / "alerts.jsonl").read_bytes()


def test_simulate_rejects_config_without_scenario_section(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[input]\nsnort_year = 2021\n")
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# --- train ------------------------------------------------------------------------


def test_cli_train_writes_bundle_and_summary(cli_bundle, capsys):
    for name in ("metadata.txt", "schema.txt", "role_features.csv",
                  "grid.csv", "registry.tsv", "training_summary.txt"):
        assert (cli_bundle / name).exists(), name


def test_cli_train_rejects_missing_input(tmp_path, capsys):
    rc = main([
        "train", "--jsonl", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path),
    ])
    assert rc == 1
    assert "does not exist" in capsys.readouterr().err


# --- score ------------------------------------------------------------------------


def test_cli_score_reports_window_count(cli_scores, capsys):
    # 18 windows, 3 in the one-day training span, one baseline: 14 scored
    lines = cli_scores.read_text().splitlines()
    assert lines[0] == ",".join(SCORE_HEADER)
    assert len(lines) == 1 + 14


def test_cli_score_rejects_missing_bundle(small_streams, tmp_path, capsys):
    rc = main([
        "score", "--jsonl", str(small_streams["full"]),
        "--model", str(tmp_path / "nope"), "--out", str(tmp_path),
    ])
    assert rc == 1
    assert "not a model bundle" in capsys.readouterr().err


def test_cli_score_rejects_bad_layer(small_streams, cli_bundle, tmp_path, capsys):
    rc = main([
        "score", "--jsonl", str(small_streams["full"]),
        "--model", str(cli_bundle), "--layer", "bogus", "--out", str(tmp_path),
    ])
    assert rc == 1
    assert "unknown layer" in capsys.readouterr().err


def test_cli_score_empty_span_with_filters(
    training_only_jsonl, cli_bundle, tmp_path, capsys
):
    rc = main([
        "score",
        "--jsonl", str(training_only_jsonl),
        "--model", str(cli_bundle),
        "--source", "snort",
        "--layer", "logfile",
        "--threshold", "99",
        "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "scored 0 windows" in out
    assert "no windows above threshold" in out
    assert (tmp_path / "scores.csv").read_text().splitlines() == [
        ",".join(SCORE_HEADER)
    ]


# --- report ------------------------------------------------------------------------


def test_report_renders_scored_run(cli_scores, tmp_path, capsys):
    rc = main(["report", str(cli_scores), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "windows scored: 14" in out
    plot = (tmp_path / "plot.dat").read_text().splitlines()
    assert plot[0].startswith("# index")
    assert len(plot) == 1 + 14
    assert (tmp_path / "report.txt").exists()


def test_report_is_idempotent(cli_scores, tmp_path):
    for sub in ("a", "b"):
        assert main(["report", str(cli_scores), "--out", str(tmp_path / sub)]) == 0
    for name in ("plot.dat", "report.txt"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_report_rejects_alien_header(tmp_path, capsys):
    bad = tmp_path / "junk.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    rc = main(["report", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "does not look like a scores CSV" in capsys.readouterr().err


def test_report_rejects_short_row(tmp_path, capsys):
    bad = tmp_path / "short.csv"
    bad.write_text(",".join(SCORE_HEADER) + "\n2021-03-01T00:00:00Z,x,0.1\n")
    rc = main(["report", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "cells" in capsys.readouterr().err


def test_report_rejects_unparseable_cell(tmp_path, capsys):
    bad = tmp_path / "cell.csv"
    row = "2021-03-01T00:00:00Z,2021-03-01T08:00:00Z,not-a-score,0,5,0,"
    bad.write_text(",".join(SCORE_HEADER) + "\n" + row + "\n")
    rc = main(["report", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "unreadable cell" in capsys.readouterr().err


def test_report_rejects_empty_file(tmp_path, capsys):
    bad = tmp_path / "empty.csv"
    bad.write_text("")
    rc = main(["report", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "is empty" in capsys.readouterr().err


def test_report_rejects_missing_file(tmp_path, capsys):
    rc = main(["report", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# --- argument errors ---------------------------------------------------------------


def test_score_requires_model_flag():
    with pytest.raises(SystemExit):
        main(["score", "--jsonl", "x.jsonl"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_command_is_required():
    with pytest.raises(SystemExit):
        main([])
