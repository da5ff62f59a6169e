"""CLI tests: every subcommand end to end through main(argv), exit codes on
bad input, and determinism of the rendered outputs. Heavy runs reuse the
session stream; train/score here use shallow quick-model knobs since the CLI
layer under test is the plumbing, not detection quality."""

import argparse
import csv
import functools
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import artifact
import artifact.pipeline
import artifact.roles
from conftest import SMALL_ORIGIN
from artifact.cli import build_parser, main
from artifact.dynamics import SCORE_COLUMNS
from artifact.ingest import (
    MAX_TIMESTAMP,
    AlertRecord,
    ParseStats,
    read_jsonl_file,
    write_jsonl,
)
from artifact.pipeline import PipelineConfig, load_pipeline_config
from artifact.scenario import SpikeSpec, load_scenario_config

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
        for r in read_jsonl_file(small_streams["full"], ParseStats())
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
                  "grid.csv", "registry.tsv", "training_summary.txt",
                  "SHA256SUMS"):
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
    assert lines[0] == ",".join(SCORE_COLUMNS)
    assert len(lines) == 1 + 14


def test_cli_score_rejects_missing_bundle(small_streams, tmp_path, capsys):
    rc = main([
        "score", "--jsonl", str(small_streams["full"]),
        "--model", str(tmp_path / "nope"), "--out", str(tmp_path),
    ])
    assert rc == 1
    assert "not a model bundle" in capsys.readouterr().err


def test_cli_score_nnls_iteration_cap_ends_in_an_error_line(
    small_streams, cli_bundle, tmp_path, monkeypatch, capsys
):
    def capped(A, b, maxiter):
        return np.zeros(A.shape[1]), 0.0, 3  # info 3: the iteration cap

    monkeypatch.setattr(artifact.roles, "_slsqp_nnls", capped)
    rc = main([
        "score", "--jsonl", str(small_streams["full"]),
        "--model", str(cli_bundle), "--out", str(tmp_path),
    ])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: nonnegative least squares hit its iteration cap\n")


def test_cli_score_window_ending_in_year_10000_ends_in_an_error_line(tmp_path, capsys):
    """Alerts in the six days before MAX_TIMESTAMP: the last 7-hour window
    ends in year 10000, which no UTC date can show. `score` names it before
    it writes anything."""
    path = tmp_path / "late.jsonl"
    write_jsonl([
        AlertRecord("snort", MAX_TIMESTAMP - 6 * 86400.0 + 3600.0 * i + 1,
                    {"sig_id": str(100 + i % 3), "src_ip": f"10.0.0.{i % 5}",
                     "dst_ip": f"10.0.1.{i % 2}"})
        for i in range(6 * 24)
    ], path)
    out = tmp_path / "out"
    assert main(["train", "--jsonl", str(path), "--training-days", "2",
                 "--window-hours", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["score", "--jsonl", str(path), "--model", str(out / "model"),
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: window 20 ends past 9999-12-31T23:59:59Z, "
        "the last UTC time scores.csv can write\n")
    assert not (out / "scores.csv").exists() and not (out / "anomalies.json").exists()


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
        ",".join(SCORE_COLUMNS)
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


def test_report_reads_a_scores_csv_with_a_byte_order_mark(cli_scores, tmp_path):
    """A spreadsheet that re-saves scores.csv as UTF-8 starts it with U+FEFF."""
    marked = tmp_path / "marked.csv"
    marked.write_bytes("\ufeff".encode() + cli_scores.read_bytes())
    for csv_path, sub in ((cli_scores, "plain"), (marked, "marked")):
        assert main(["report", str(csv_path), "--out", str(tmp_path / sub)]) == 0
    for name in ("plot.dat", "report.txt"):
        assert (tmp_path / "plain" / name).read_bytes() == \
            (tmp_path / "marked" / name).read_bytes(), name


def test_jsonl_line_nested_past_the_recursion_limit_is_a_skip(tmp_path, capsys, caplog):
    """json.loads raises RecursionError on a fields value nested 200,000
    deep. `train` and `score` count that line as a skip and go on."""
    good = [json.dumps({"source": "snort", "ts": SMALL_ORIGIN + t,
                        "fields": {"sig_id": "1", "src_ip": "10.0.0.1", "dst_ip": "10.0.0.2"}})
            for t in (0.0, 200_000.0)]
    deep = '{"source":"snort","ts":%r,"fields":{"sig_id":%s}}' % (
        SMALL_ORIGIN + 100.0, "[" * 200_000 + "]" * 200_000)
    jsonl = tmp_path / "deep.jsonl"
    jsonl.write_text("\n".join([good[0], deep, good[1]]) + "\n")
    out = tmp_path / "out"
    assert main(["train", "--jsonl", str(jsonl), "--training-days", "1",
                 "--out", str(out)]) == 0
    assert "records parsed: 2 (skipped 1 of 3 lines)" in capsys.readouterr().out
    caplog.set_level("INFO", logger="artifact.pipeline")
    assert main(["score", "--jsonl", str(jsonl), "--model", str(out / "model"),
                 "--out", str(out)]) == 0
    assert "read 3 lines: 1 parsed, 1 skipped, 1 in the training span" in caplog.text


def test_report_reads_a_cell_longer_than_the_csv_default_field_limit(
    small_streams, cli_bundle, tmp_path, capsys
):
    """A value first seen after training reaches top_contributions whole, so
    `score` writes cells past the csv module's default 131,072 characters."""
    logfile = "/var/log/" + "x" * 140_000
    jsonl = tmp_path / "long.jsonl"
    jsonl.write_text(small_streams["full"].read_text() + json.dumps({
        "source": "ossec", "ts": SMALL_ORIGIN + 37 * 3600.0,
        "fields": {"rule_id": "5503", "logfile": logfile, "src_ip": "10.0.0.1"},
    }) + "\n")
    assert main(["score", "--jsonl", str(jsonl), "--model", str(cli_bundle),
                 "--out", str(tmp_path)]) == 0
    assert f"logfile:{logfile}:" in (tmp_path / "scores.csv").read_text()
    capsys.readouterr()
    assert main(["report", str(tmp_path / "scores.csv"), "--out", str(tmp_path)]) == 0
    assert "windows scored: 14" in capsys.readouterr().out


def test_report_ends_a_csv_module_error_in_an_error_line(tmp_path, monkeypatch, capsys):
    # A strict reader stands in for any rejection by the csv module, such
    # as a NUL byte before Python 3.11.
    monkeypatch.setattr(csv, "reader", functools.partial(csv.reader, strict=True))
    bad = tmp_path / "quote.csv"
    bad.write_text(",".join(SCORE_COLUMNS) + '\n"2021-03-01T00:00:00Z"x,,,,,,\n')
    rc = main(["report", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} is not a readable CSV: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_report_rejects_alien_header(tmp_path, capsys):
    bad = tmp_path / "junk.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    rc = main(["report", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "does not look like a scores CSV" in capsys.readouterr().err


def test_report_rejects_short_row(tmp_path, capsys):
    bad = tmp_path / "short.csv"
    bad.write_text(",".join(SCORE_COLUMNS) + "\n2021-03-01T00:00:00Z,x,0.1\n")
    rc = main(["report", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "cells" in capsys.readouterr().err


def test_report_rejects_unparseable_cell(tmp_path, capsys):
    bad = tmp_path / "cell.csv"
    row = "2021-03-01T00:00:00Z,2021-03-01T08:00:00Z,not-a-score,0,5,0,"
    bad.write_text(",".join(SCORE_COLUMNS) + "\n" + row + "\n")
    rc = main(["report", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "unreadable cell" in capsys.readouterr().err


def test_report_rejects_empty_file(tmp_path, capsys):
    bad = tmp_path / "empty.csv"
    bad.write_text("")
    rc = main(["report", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "is empty" in capsys.readouterr().err


def test_report_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "binary.csv"
    bad.write_bytes(b"\xff\xfe" + ",".join(SCORE_COLUMNS).encode("utf-16-le"))
    rc = main(["report", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {bad} is not UTF-8 text")
    assert not (tmp_path / "out").exists()


def test_report_rejects_missing_file(tmp_path, capsys):
    rc = main(["report", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# --- awkward field values ----------------------------------------------------------

# One alert of each in the tiny scenario's training day and one after it.
ODD_TIMES = (SMALL_ORIGIN + 3600.0, SMALL_ORIGIN + 37 * 3600.0)
# Each breaks the tab-separated, UTF-8 registry.tsv: tabs and line breaks
# split it, and a lone surrogate does not encode. Such an alert is a counted
# skip.
BREAKS = ("\t", "\n", "\r", "\ud800")


def odd_jsonl_lines():
    """(kept lines, skipped lines): a logfile holding a comma and a quote,
    and tabs or line breaks in a field value and in a field key."""
    kept, skipped = [], []
    for ts in ODD_TIMES:
        fields = {"rule_id": "5503", "logfile": '/a,b "c"', "src_ip": "10.0.0.1"}
        kept.append({"source": "ossec", "ts": ts, "fields": fields})
        for brk in BREAKS:
            skipped.append({"source": "ossec", "ts": ts,
                            "fields": {"rule_id": "5503", "logfile": f"x{brk}y"}})
            skipped.append({"source": "snort", "ts": ts,
                            "fields": {f"sig{brk}id": "1", "src_ip": "10.0.0.1"}})
    return kept, skipped


def odd_ossec_text():
    """(text, skipped blocks): a hostname holding a tab, next to a block
    whose logfile holds a comma."""
    blocks = []
    for ts in ODD_TIMES:
        for where in ("db\tbox->/var/log/auth.log", "(web1) 10.0.0.9->/var/log/a,b"):
            blocks.append(
                f"** Alert {ts:.0f}.1: - syslog\n2021 Mar 01 01:00:00 {where}\n"
                "Rule: 5715 (level 3) -> 'SSHD authentication success.'\n\n"
            )
    return "".join(blocks), len(ODD_TIMES)


def test_awkward_values_run_through_train_score_report(tiny_ini, tmp_path, capsys):
    assert main(["simulate", "--config", str(tiny_ini), "--out", str(tmp_path)]) == 0
    stream = (tmp_path / "alerts.jsonl").read_text()
    kept, skipped = odd_jsonl_lines()
    jsonl = tmp_path / "odd.jsonl"
    jsonl.write_text(stream + "".join(json.dumps(alert) + "\n" for alert in kept + skipped))
    ossec_text, ossec_skipped = odd_ossec_text()
    ossec = tmp_path / "alerts.log"
    ossec.write_text(ossec_text)
    inputs = ["--jsonl", str(jsonl), "--ossec", str(ossec)]

    assert main(["train", *inputs, "--origin-utc", ORIGIN_UTC, "--training-days", "1",
                 "--max-depth", "2", "--max-roles", "3", "--max-bits", "2",
                 "--seed", "7", "--out", str(tmp_path)]) == 0
    lines = len(stream.splitlines()) + len(kept) + len(skipped)
    blocks = ossec_text.count("** Alert")
    summary = capsys.readouterr().out
    assert f"(skipped {len(skipped) + ossec_skipped} of {lines + blocks} lines)" in summary

    assert main(["score", *inputs, "--model", str(tmp_path / "model"),
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "scores.csv", newline="", encoding="utf-8") as fp:
        rows = list(csv.reader(fp))
    assert all(len(row) == len(SCORE_COLUMNS) for row in rows)
    assert any('logfile:/a,b "c":' in row[-1] for row in rows[1:])

    assert main(["report", str(tmp_path / "scores.csv"), "--out", str(tmp_path)]) == 0


# --- settings ----------------------------------------------------------------------

NO_INPUT = "error: no records parsed from the configured inputs"


@pytest.mark.parametrize("command, ini, flags, code, message", [
    # An empty value leaves the setting at its default; with no inputs set,
    # train then stops at its first real check.
    ("train", "[input]\nhostmap =\n", [], 1, NO_INPUT),
    ("train", "[window]\norigin_utc =\n", [], 1, NO_INPUT),
    ("train", "[input]\nsnort_year =\n", [], 1, NO_INPUT),
    ("train", "[window]\norigin_utc = garbage\n", [], 1,
     "error: {ini}: [window] origin_utc: Invalid isoformat string: 'garbage'"),
    ("train", "[model]\nmax_roles = ten\n", [], 1,
     "error: {ini}: [model] max_roles: invalid literal for int()"),
    ("simulate", "[scenario]\nseed = x\n", [], 1,
     "error: {ini}: [scenario] seed: invalid literal for int()"),
    ("simulate", "[scenario]\nwith_attack = maybe\n", [], 1,
     "error: {ini}: [scenario] with_attack: 'maybe' is not a boolean"),
    ("train", "max_roles = 3\n", [], 1,
     "error: {ini}: cannot read config file: File contains no section headers."),
    ("score", "[scoring]\nthreshhold = 0.1\n", ["--model", "m"], 1,
     "error: {ini}: [scoring] threshhold: unknown key"),
    ("train", None, ["--origin-utc", "garbage"], 2,
     "argument --origin-utc: invalid parse_utc value: 'garbage'"),
], ids=["empty-hostmap", "empty-origin", "empty-snort-year", "bad-origin", "bad-int",
        "bad-seed", "bad-bool", "no-section", "unknown-key", "bad-origin-flag"])
def test_malformed_settings_end_in_an_error_line(
    tmp_path, capsys, command, ini, flags, code, message
):
    argv = [command, *flags, "--out", str(tmp_path / "out")]
    if ini is not None:
        path = tmp_path / "run.ini"
        path.write_text(ini)
        argv += ["--config", str(path)]
        message = message.format(ini=path)
    try:
        rc = main(argv)
    except SystemExit as exc:  # an argparse usage error
        rc = exc.code
    assert rc == code
    assert message in capsys.readouterr().err


@pytest.fixture
def unread_inputs(monkeypatch):
    """Fail the test if a command reads an alert file."""
    def read(*args, **kwargs):
        raise AssertionError("an input file was read")
    monkeypatch.setattr(artifact.pipeline, "read_jsonl_file", read)


def input_flags(command, small_streams, cli_bundle):
    """What `command` needs besides its settings: an input, and a bundle."""
    if command == "simulate":
        return []
    flags = ["--jsonl", str(small_streams["full"])]
    return flags + ["--model", str(cli_bundle)] if command == "score" else flags


def run_with_settings(command, ini, flags, small_streams, cli_bundle, tmp_path):
    """Run `command` with its inputs, `flags` and an INI file holding `ini`."""
    argv = [command, *flags, "--out", str(tmp_path / "out"),
            *input_flags(command, small_streams, cli_bundle)]
    if ini is not None:
        path = tmp_path / "run.ini"
        path.write_text(ini)
        argv += ["--config", str(path)]
    return main(argv)


@pytest.mark.parametrize("command, ini, flags", [
    ("simulate", None, ["--seed", "-1"]),
    ("simulate", "[scenario]\nseed = -1\n", []),
    ("train", None, ["--seed", "-1"]),
    ("train", "[model]\nseed = -1\n", []),
    ("score", None, ["--seed", "-1"]),
], ids=["simulate-flag", "scenario-ini", "train-flag", "train-ini", "score-flag"])
def test_negative_seed_ends_in_an_error_line(
    small_streams, cli_bundle, unread_inputs, tmp_path, capsys, command, ini, flags
):
    assert run_with_settings(command, ini, flags, small_streams, cli_bundle, tmp_path) == 1
    assert "error: seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, ini, flags, message", [
    ("train", None, ["--window-hours", "nan"], "window_hours"),
    ("train", None, ["--window-hours", "inf"], "window_hours"),
    ("train", None, ["--training-days", "nan"], "training_days"),
    ("train", None, ["--training-days", "inf"], "training_days"),
    ("score", None, ["--threshold", "nan"], "threshold"),
    ("score", "[scoring]\nthreshold = inf\n", [], "threshold"),
    ("simulate", "[scenario]\nwindow_hours = nan\n", [], "durations"),
    ("simulate", "[scenario]\nduration_days = inf\n", [], "durations"),
], ids=["window-nan", "window-inf", "training-nan", "training-inf", "threshold-nan",
        "threshold-ini-inf", "scenario-window-nan", "scenario-duration-inf"])
def test_non_finite_settings_end_in_an_error_line(
    small_streams, cli_bundle, unread_inputs, tmp_path, capsys, command, ini, flags, message
):
    assert run_with_settings(command, ini, flags, small_streams, cli_bundle, tmp_path) == 1
    assert f"error: {message} must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, ini, flags, message", [
    ("train", None, ["--training-days", "1e305"], "training_days overflows in seconds"),
    ("train", "[window]\nhours = 1e306\n", [], "window_hours overflows in seconds"),
    ("train", None, ["--window-hours", "1e-320"], "training_days overflows in seconds or in windows"),
    ("simulate", "[scenario]\ntraining_days = 1e305\nduration_days = 1e306\n", [],
     "duration_days overflows in seconds"),
    ("simulate", "[scenario]\nwindow_hours = 1e306\n", [], "window_hours overflows in seconds"),
    ("train", None, ["--window-hours", "1e-300"], "window length is too short"),
    ("simulate", "[scenario]\nwindow_hours = 1e-15\nwith_attack = no\nwith_spike = no\n", [],
     "window length is too short"),
], ids=["training-days", "window-hours-ini", "window-count", "scenario-span", "scenario-window",
        "window-index", "scenario-window-index"])
def test_finite_settings_that_overflow_in_seconds_end_in_an_error_line(
    small_streams, cli_bundle, unread_inputs, tmp_path, capsys, command, ini, flags, message
):
    assert run_with_settings(command, ini, flags, small_streams, cli_bundle, tmp_path) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    (b"host1 10.0.0.1 extra\n", "line 1 needs 'hostname ip'"),
    (b"host1 10.0.0.1\nHOST1 10.0.0.2\n", "line 2 repeats hostname 'host1'"),
    (b"# hosts\nhost1 999.0.0.1\n", "line 2: '999.0.0.1' is not an IPv4 address"),
    (b"host1 10.0.0.1\nh\xf6st2 10.0.0.2\n", "is not UTF-8 text"),
    ("db1 \u0661\u0660.0.0.1\n".encode(), "line 1: '\u0661\u0660.0.0.1' is not an IPv4 address"),
], ids=["three-fields", "duplicate", "not-ipv4", "not-utf8", "non-ascii-digits"])
def test_bad_hostmap_ends_in_an_error_line(
    small_streams, unread_inputs, tmp_path, capsys, text, message
):
    hostmap = tmp_path / "hosts.map"
    hostmap.write_bytes(text)
    assert main(["train", "--jsonl", str(small_streams["full"]), "--hostmap", str(hostmap),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: hostmap {hostmap}") and message in err


@pytest.mark.parametrize("command, out, message", [
    ("train", "taken", "output path is not a directory: {taken}"),
    ("score", "taken", "output path is not a directory: {taken}"),
    ("simulate", "taken", "File exists: '{taken}'"),
    ("train", "taken/sub", "output path is not a directory: {taken}"),
    ("simulate", "taken/sub", "Not a directory: '{taken}/sub'"),
])
def test_output_path_under_a_file_ends_in_an_error_line(
    small_streams, cli_bundle, unread_inputs, tmp_path, capsys, command, out, message
):
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = [command, "--out", str(tmp_path / out),
            *input_flags(command, small_streams, cli_bundle)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message.format(taken=taken) in err
    assert taken.read_text() == ""


def test_readme_config_example_loads_through_both_loaders(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [example] = re.findall(r"```ini\n(.*?)```", readme, re.S)
    ini = tmp_path / "readme.ini"
    ini.write_text(example)
    cfg = load_pipeline_config(ini)
    assert cfg.jsonl_paths == [Path("out/alerts.jsonl")]
    assert cfg.snort_paths == [] and cfg.hostmap_path is None
    assert cfg.origin == SMALL_ORIGIN
    assert cfg.layer is None and cfg.source is None
    assert cfg.out_dir == Path("out")
    scenario = load_scenario_config(ini)
    assert scenario.origin == SMALL_ORIGIN and scenario.seed == 7
    assert scenario.attack.start_window == 54
    assert scenario.spike == SpikeSpec(window=31, multiplier=10)


def test_train_and_score_flags_are_named_after_config_fields():
    names = {f.name for f in fields(PipelineConfig)} | {"config", "verbose", "model"}
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    for command in ("train", "score"):
        dests = {a.dest for a in commands.choices[command]._actions
                 if not isinstance(a, argparse._HelpAction)}
        assert dests <= names, command


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


def test_cli_import_leaves_networkx_out():
    src = Path(artifact.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, artifact.cli; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_scipy_out():
    """Only scipy's compiled NNLS extension loads, by itself: importing the
    scipy package, scipy.sparse or scipy.optimize costs about 0.5 s."""
    src = Path(artifact.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, artifact.cli; "
            "print(*(m in sys.modules for m in ('scipy', 'scipy.sparse', 'scipy.optimize')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False", "False"]


def test_cli_import_leaves_scenario_out():
    """`train` and `score` never generate a scenario; `simulate` imports it."""
    src = Path(artifact.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, artifact.cli; print('artifact.scenario' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_train_and_score_leave_numpy_ma_out(small_streams, tmp_path):
    """numpy 2.4 imports numpy.ma, 10-16 ms, on the first np.unique without
    return_index or return_counts, and so through np.union1d and
    np.quantile; neither command needs it."""
    src = Path(artifact.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    stream, out = str(small_streams["full"]), str(tmp_path)
    commands = [
        ["train", "--jsonl", stream, "--out", out, "--window-hours", "8",
         "--training-days", "2", "--origin-utc", "2021-03-01T00:00:00Z"],
        ["score", "--jsonl", stream, "--out", out, "--model", str(tmp_path / "model")],
    ]
    code = ("import json, sys; from artifact.cli import main; "
            "codes = [main(args) for args in json.loads(sys.argv[1])]; "
            "print(*codes, 'numpy.ma' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1].split() == ["0", "0", "False"]


def test_scenario_import_leaves_pipeline_and_scipy_out():
    """The benchmark imports the scenario before it forks its commands."""
    src = Path(artifact.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, artifact.scenario; "
            "print(*(m in sys.modules for m in ('artifact.pipeline', 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]


def test_package_import_defaults_blas_to_one_thread_unless_set():
    src = Path(artifact.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]), OMP_NUM_THREADS="3")
    code = ("import os, artifact; print(*(os.environ[v] for v in "
            "('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["1", "3", "1"]


def test_naive_origin_is_read_as_utc_in_any_local_zone(tmp_path):
    """A time without an offset means UTC on every path that reads one, here
    in a process whose local zone is five hours west of UTC."""
    ini = tmp_path / "origin.ini"
    ini.write_text("[window]\norigin_utc = 2021-03-01T00:00:00\n"
                   "[scenario]\norigin_utc = 2021-03-01T00:00:00\n")
    src = Path(artifact.__file__).resolve().parents[1]
    env = dict(os.environ, TZ="EST+05", PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = (
        "import sys; from datetime import datetime\n"
        "from artifact.cli import _resolve_config, build_parser\n"
        "from artifact.ingest import parse_utc\n"
        "from artifact.pipeline import load_pipeline_config\n"
        "from artifact.scenario import load_scenario_config\n"
        "naive = '2021-03-01T00:00:00'\n"
        "args = build_parser().parse_args(['train', '--origin-utc', naive])\n"
        "print(datetime.fromisoformat(naive).timestamp(), parse_utc(naive),\n"
        "      _resolve_config(args).origin, load_pipeline_config(sys.argv[1]).origin,\n"
        "      load_scenario_config(sys.argv[1]).origin)\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(ini)], env=env,
                         capture_output=True, text=True, check=True)
    local, *read = map(float, out.stdout.split())
    assert local == SMALL_ORIGIN + 5 * 3600  # the zone is in effect
    assert read == [SMALL_ORIGIN] * 4
