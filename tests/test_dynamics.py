"""Dynamics tests: forward fill, score arithmetic, flagging, serialization.
Expected values come from hand traces and a dict-based reference filler."""

import json

import numpy as np
import pytest

from artifact.dynamics import (
    AnomalyReport,
    MembershipSeries,
    WindowScore,
    detect_anomalies,
    score_windows,
    update_series,
    write_anomalies_json,
    write_score_csv,
)
from artifact.pipeline import _registry_tsv
from artifact.roles import Membership

from conftest import read_registry_tsv

A, B, C = ("ip", "10.0.0.1"), ("ip", "10.0.0.2"), ("rule", "5503")


def member(pairs):
    """Membership whose rows are explicit probability vectors."""
    nodes = [node for node, _ in pairs]
    G = np.array([row for _, row in pairs], dtype=float).reshape(len(pairs), -1)
    return Membership(nodes, G)


def scored(series, layer=None):
    """score_windows entries by window."""
    return {e.window: e for e in score_windows(series, layer=layer)}


def ref_fill(windows):
    """Reference forward filler: carry a plain dict across windows."""
    filled = []
    state = {}
    for t, appearing in windows:
        state = dict(state)
        state.update(appearing)
        filled.append((t, dict(state)))
    return filled


def ref_scores(filled):
    """Reference scorer over the filler's output."""
    out = {}
    for (_, prev), (t, now) in zip(filled, filled[1:]):
        total = sum(abs(p - prev.get(node, 0.0)) for node, p in now.items())
        out[t] = total / len(now) if now else 0.0
    return out


# --- max_membership: a node's P_n is its largest role probability ---------------

def first_appearance(row):
    """The score entry of a window where a node with `row` first appears."""
    series = MembershipSeries()
    update_series(series, 1, member([(B, [1.0] + [0.0] * (len(row) - 1))]))
    update_series(series, 2, member([(B, [1.0] + [0.0] * (len(row) - 1)), (A, row)]))
    (entry,) = score_windows(series)
    return entry


def test_max_membership_basic():
    assert first_appearance([0.2, 0.5, 0.3]).contributions == [(A, 0.5)]


def test_max_membership_tie_goes_to_lowest_role():
    (p,) = [d for _, d in first_appearance([1 / 3, 1 / 3, 1 / 3]).contributions]
    assert p == pytest.approx(1 / 3)
    series = MembershipSeries()
    update_series(series, 1, member([(A, [1 / 3, 1 / 3, 1 / 3])]))
    update_series(series, 2, member([(A, [0.4, 0.3, 0.3])]))  # role 0 again
    update_series(series, 3, member([(A, [0.3, 0.4, 0.3])]))  # role 1
    assert [e.argmax_flips for e in score_windows(series)] == [0, 1]


def test_max_membership_one_hot():
    assert first_appearance([0.0, 0.0, 1.0]).contributions == [(A, 1.0)]


# --- forward fill ---------------------------------------------------------------

def three_window_series():
    """One persistent node, one intermittent, one late arrival."""
    series = MembershipSeries()
    update_series(series, 1, member([(A, [0.5, 0.5, 0.0]), (B, [0.1, 0.9, 0.0])]))
    update_series(series, 2, member([(A, [0.7, 0.3, 0.0])]))  # B absent, fills
    update_series(series, 3, member([
        (A, [0.7, 0.3, 0.0]), (B, [0.4, 0.4, 0.2]), (C, [0.2, 0.2, 0.6]),
    ]))
    return series


def test_three_window_fill_matches_reference():
    filled = ref_fill([
        (1, {A: 0.5, B: 0.9}),
        (2, {A: 0.7}),
        (3, {A: 0.7, B: 0.4, C: 0.6}),
    ])
    expected = ref_scores(filled)
    entries = scored(three_window_series())
    assert sorted(entries) == sorted(expected)
    for t, state in filled[1:]:
        assert entries[t].n_defined == len(state)
        assert entries[t].score == pytest.approx(expected[t])


def test_late_node_is_null_before_first_appearance():
    series = three_window_series()
    entries = scored(series)
    assert entries[2].n_defined == 2  # C is not counted before it appears
    assert (C, pytest.approx(0.6)) in entries[3].contributions
    assert entries[3].n_defined == 3
    assert list(series.registry) == [A, B, C]


def test_absent_node_keeps_previous_probability():
    entries = scored(three_window_series())
    assert B not in dict(entries[2].contributions)  # carried 0.9 forward
    assert entries[2].n_defined == 2
    assert dict(entries[3].contributions)[B] == pytest.approx(0.9 - 0.4)


def test_update_requires_increasing_windows():
    series = three_window_series()
    with pytest.raises(ValueError):
        update_series(series, 3, member([(A, [1.0, 0.0, 0.0])]))


def test_update_registers_new_nodes_with_their_first_window():
    """A node's index first turns up in the update of its first window."""
    series = MembershipSeries()
    update_series(series, 4, member([(B, [1.0, 0.0]), (A, [0.5, 0.5])]))
    update_series(series, 6, member([(C, [1.0, 0.0]), (B, [0.5, 0.5])]))
    assert series.registry == {B: 0, A: 1, C: 2}
    assert series.windows == [4, 6]
    assert [idx.tolist() for idx, _, _ in series.updates] == [[0, 1], [2, 0]]


# --- score arithmetic -------------------------------------------------------------

def test_hand_trace_scores():
    entries = scored(three_window_series())
    # window 2: |0.7-0.5| + |0.9-0.9| over 2 defined nodes
    assert entries[2].score == pytest.approx(0.2 / 2)
    # window 3: 0 + |0.4-0.9| + first-appearance 0.6 over 3 defined nodes
    assert entries[3].score == pytest.approx((0.5 + 0.6) / 3)


def test_scores_match_reference_on_random_series():
    rng = np.random.default_rng(17)
    universe = [("ip", f"10.0.0.{i}") for i in range(12)]
    for _ in range(30):
        series = MembershipSeries()
        windows = []
        for t in range(1, 7):
            count = int(rng.integers(0, len(universe) + 1))
            picks = sorted(rng.choice(len(universe), size=count, replace=False))
            pairs = []
            appearing = {}
            for i in picks:
                row = rng.dirichlet(np.ones(3))
                pairs.append((universe[i], row))
                appearing[universe[i]] = float(row.max())
            windows.append((t, appearing))
            update_series(series, t, member(pairs) if pairs else
                          Membership([], np.zeros((0, 3))))
        expected = ref_scores(ref_fill(windows))
        entries = scored(series)
        for t in range(2, 7):
            got = entries[t].score
            assert got == pytest.approx(expected[t], abs=1e-12)
            assert 0.0 <= got <= 1.0


def test_new_node_among_ten_scores_006():
    # nine stable nodes, one arrival at strength 0.6: score = 0.6/10
    nine = [(("ip", f"10.0.0.{i}"), [0.5, 0.5]) for i in range(9)]
    series = MembershipSeries()
    update_series(series, 1, member(nine))
    update_series(series, 2, member(nine + [(("ip", "10.10.255.40"), [0.4, 0.6])]))
    (entry,) = score_windows(series)
    assert entry.score == pytest.approx(0.06)
    assert entry.score > 0.05  # crosses the default flagging threshold

    report = detect_anomalies(score_windows(series), threshold=0.05)
    assert [e.flagged for e in report.entries] == [True]


def test_identical_windows_score_zero():
    rows = [(A, [0.3, 0.7]), (B, [0.8, 0.2])]
    series = MembershipSeries()
    update_series(series, 1, member(rows))
    update_series(series, 2, member(rows))
    assert scored(series)[2].score == 0.0


def test_role_flip_at_equal_confidence_scores_zero_but_counts_flip():
    series = MembershipSeries()
    update_series(series, 1, member([(A, [1.0, 0.0])]))
    update_series(series, 2, member([(A, [0.0, 1.0])]))
    (entry,) = score_windows(series)
    assert entry.score == 0.0
    assert entry.argmax_flips == 1


def test_never_appearing_node_is_excluded():
    series = MembershipSeries()
    series.registry[("ip", "ghost")] = 0  # registered, never appears
    update_series(series, 1, member([(A, [1.0, 0.0])]))
    update_series(series, 2, member([(A, [0.5, 0.5])]))
    # denominator counts only A; ghost contributes nothing
    (entry,) = score_windows(series)
    assert entry.score == pytest.approx(0.5)
    assert entry.n_defined == 1


def test_empty_window_scores_zero():
    series = MembershipSeries()
    update_series(series, 1, member([(A, [0.6, 0.4]), (B, [0.2, 0.8])]))
    update_series(series, 2, Membership([], np.zeros((0, 2))))
    assert scored(series)[2].score == 0.0


def test_first_window_cannot_be_scored():
    series = MembershipSeries()
    update_series(series, 1, member([(A, [1.0, 0.0])]))
    assert score_windows(series) == []


def test_contribution_sums_reproduce_scores_exactly():
    series = three_window_series()
    for entry in score_windows(series):
        total = sum(d for _, d in entry.contributions)
        assert entry.score == total / entry.n_defined
        deltas = [d for _, d in entry.contributions]
        assert deltas == sorted(deltas, reverse=True)
        assert all(d > 0 for d in deltas)


def two_layer_series():
    """A and B live on the ip layer, C on the rule layer; hand-traced deltas
    at window 2 are A: 0.2, B: 0.0, C: 0.4."""
    series = MembershipSeries()
    update_series(series, 1, member([
        (A, [1.0, 0.0]), (B, [0.6, 0.4]), (C, [0.5, 0.5]),
    ]))
    update_series(series, 2, member([
        (A, [0.8, 0.2]), (B, [0.6, 0.4]), (C, [0.9, 0.1]),
    ]))
    return series


def test_layer_filter_restricts_sum_and_count():
    series = two_layer_series()
    assert scored(series)[2].score == pytest.approx(0.6 / 3)
    assert scored(series, "ip")[2].score == pytest.approx(0.2 / 2)
    assert scored(series, "rule")[2].score == pytest.approx(0.4 / 1)


def test_layer_filter_with_no_matching_nodes_scores_zero():
    (entry,) = score_windows(two_layer_series(), layer="logfile")
    assert entry.score == 0.0
    assert entry.n_defined == 0


def test_score_windows_layer_filter_restricts_contributions():
    series = two_layer_series()
    (entry,) = score_windows(series, layer="ip")
    assert entry.n_defined == 2
    assert entry.contributions == [(A, pytest.approx(0.2))]


# --- detection ---------------------------------------------------------------------

def make_scores(values):
    return [
        WindowScore(window=i + 1, score=v, n_defined=1,
                    contributions=[(A, v)] if v else [], argmax_flips=0)
        for i, v in enumerate(values)
    ]


def test_all_zero_scores_mean_no_flags():
    report = detect_anomalies(make_scores([0.0, 0.0, 0.0]), threshold=0.05)
    assert report.flagged() == []


def test_single_exceedance_flagged():
    report = detect_anomalies(make_scores([0.02, 0.08, 0.04]), threshold=0.05)
    flagged = report.flagged()
    assert len(flagged) == 1
    assert flagged[0].window == 2


def test_threshold_is_strict():
    report = detect_anomalies(make_scores([0.05]), threshold=0.05)
    assert report.flagged() == []


def test_threshold_must_be_positive():
    with pytest.raises(ValueError):
        detect_anomalies(make_scores([0.1]), threshold=0.0)


# --- registry ---------------------------------------------------------------------

def test_registry_indices_are_stable_and_dense():
    series = MembershipSeries()
    update_series(series, 1, member([(A, [1.0, 0.0])]))
    update_series(series, 2, member([(B, [1.0, 0.0]), (A, [0.5, 0.5])]))
    update_series(series, 5, member([(A, [0.5, 0.5]), (C, [1.0, 0.0]), (B, [0.0, 1.0])]))
    assert series.registry == {A: 0, B: 1, C: 2}  # re-appearing never moves


def test_registry_tsv_round_trip():
    text = _registry_tsv({A: 0, C: 3})
    assert text.splitlines()[0] == "index\tlayer\tvalue\tfirst_seen_window"
    assert text.endswith("\n")
    assert read_registry_tsv(text) == [(0, *A, 0), (1, *C, 3)]


def test_registry_round_trips_values_that_splitlines_breaks_on():
    """Only "\\n" ends a registry line; field values may hold the other
    characters `str.splitlines` breaks on."""
    registry = {("logfile", f"/var/log/a{ch}b"): window
                for window, ch in enumerate(("\x85", "\x1c", "\x0b", "\u2028"))}
    text = _registry_tsv(registry)
    assert text.count("\n") == 1 + len(registry)
    assert read_registry_tsv(text) == [
        (idx, *node, window) for idx, (node, window) in enumerate(registry.items())
    ]


# --- writers -----------------------------------------------------------------------

def report_with_spans():
    series = three_window_series()
    report = detect_anomalies(score_windows(series), threshold=0.05)
    spans = {t: (t * 28800.0, (t + 1) * 28800.0) for t in (2, 3)}
    counts = {2: 11, 3: 25}
    return report, spans, counts


def test_score_csv_format(tmp_path):
    report, spans, counts = report_with_spans()
    path = tmp_path / "scores.csv"
    write_score_csv(report, spans, counts, path)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "window_start_utc,window_end_utc,score,flagged,alert_count,"
        "aux_argmax_flips,top_contributions"
    )
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1970-01-01T16:00:00Z"
    assert first[3] in {"0", "1"}
    assert first[4] == "11"
    assert float(first[2]) == pytest.approx(0.1)


def test_anomalies_json(tmp_path):
    report, spans, _ = report_with_spans()
    path = tmp_path / "anomalies.json"
    write_anomalies_json(report, spans, path)
    payload = json.loads(path.read_text())
    assert payload["threshold"] == 0.05
    flagged = payload["flagged_windows"]
    assert [w["window"] for w in flagged] == [e.window for e in report.flagged()]
    for w in flagged:
        assert w["score"] > 0.05
        assert all(c["delta"] > 0 for c in w["top_contributors"])

