"""The replayed scorer against the padded-history scorer it replaced.

`score_windows` replays each window's stored update over two registry-length
vectors. The reference below keeps, as the series used to, a full P and
arg-max vector per window, padded to the registry, and scores a window with a
loop over every registry node. Both must agree exactly: window, score,
n_defined, contributions in order, argmax_flips and the flag.

The reference registry starts seeded, as one loaded from the training span
did: with ghost nodes that never appear and with nodes that appear later,
at other indices. The series under test starts empty. Equal scores show
that no scored quantity depends on the nodes registered before scoring.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from artifact.dynamics import (
    MembershipSeries,
    detect_anomalies,
    score_windows,
    update_series,
)
from artifact.roles import Membership

THRESHOLD = 0.05

# --- reference: the padded per-window history ----------------------------------


class ReferenceSeries:
    def __init__(self, seeded):
        self.registry = {node: i for i, node in enumerate(seeded)}
        self.windows = []
        self._P = []
        self._argmax = []


def reference_update(series, window, membership):
    idx = [series.registry.setdefault(node, len(series.registry)) for node in membership.nodes]
    size = len(series.registry)
    P = np.full(size, np.nan)
    A = np.full(size, -1, dtype=int)
    if series._P:
        prev_P, prev_A = series._P[-1], series._argmax[-1]
        P[: len(prev_P)] = prev_P
        A[: len(prev_A)] = prev_A
    for i, row in zip(idx, membership.G):
        row = np.asarray(row, dtype=float)
        role = int(np.argmax(row))
        P[i] = float(row[role])
        A[i] = role
    series.windows.append(window)
    series._P.append(P)
    series._argmax.append(A)


def reference_window_deltas(series, position, layer=None):
    now = series._P[position]
    prev = series._P[position - 1]
    prev_full = np.full(len(now), np.nan)
    prev_full[: len(prev)] = prev

    deltas = []
    nodes = list(series.registry)
    n_defined = 0
    for idx in range(len(now)):
        if np.isnan(now[idx]):
            continue
        if layer is not None and nodes[idx][0] != layer:
            continue
        n_defined += 1
        base = 0.0 if np.isnan(prev_full[idx]) else float(prev_full[idx])
        delta = abs(float(now[idx]) - base)
        if delta > 0.0:
            deltas.append((nodes[idx], delta))
    deltas.sort(key=lambda pair: (-pair[1], pair[0]))
    return deltas, n_defined


def reference_argmax_flips(series, position):
    now = series._argmax[position]
    prev = series._argmax[position - 1]
    prev_full = np.full(len(now), -1, dtype=int)
    prev_full[: len(prev)] = prev
    both = (now >= 0) & (prev_full >= 0)
    return int(np.count_nonzero(now[both] != prev_full[both]))


def reference_scores(series, layer=None):
    rows = []
    for position in range(1, len(series.windows)):
        deltas, n_defined = reference_window_deltas(series, position, layer)
        total = float(sum(d for _, d in deltas))
        score = total / n_defined if n_defined else 0.0
        rows.append((series.windows[position], score, n_defined, deltas,
                     reference_argmax_flips(series, position), score > THRESHOLD))
    return rows


# --- cases -----------------------------------------------------------------------

UNIVERSE = [("ip", "10.0.0.1"), ("ip", "10.0.0.2"), ("ip", "10.0.0.3"),
            ("rule", "5503"), ("rule", "5715"), ("logfile", "/var/log/secure")]
GHOSTS = [("ip", "10.9.9.9"), ("rule", "1"), ("logfile", "/var/log/none")]


@st.composite
def histories(draw):
    """Seeded registry nodes, some never appearing, then windows with gaps whose
    memberships hold any subset of the universe in any order. Integer weights
    make tied roles, tied deltas across nodes and equal P under a changed
    arg-max common."""
    n_roles = draw(st.integers(1, 3))
    seeded = draw(st.lists(st.sampled_from(GHOSTS + UNIVERSE), unique=True, max_size=5))
    row = st.lists(st.integers(0, 3), min_size=n_roles, max_size=n_roles).filter(any)
    window, updates = -1, []
    for _ in range(draw(st.integers(0, 8))):
        window += draw(st.integers(1, 3))
        nodes = draw(st.permutations(UNIVERSE))[: draw(st.integers(0, len(UNIVERSE)))]
        weights = np.array(draw(st.lists(row, min_size=len(nodes), max_size=len(nodes))),
                           dtype=float).reshape(len(nodes), n_roles)
        G = weights / weights.sum(axis=1, keepdims=True) if len(nodes) else weights
        updates.append((window, Membership(list(nodes), G)))
    return seeded, updates


@settings(deadline=None, max_examples=300)
@given(history=histories(), layer=st.sampled_from([None, "ip", "rule", "logfile"]))
def test_replay_matches_padded_history(history, layer):
    seeded, updates = history
    series = MembershipSeries()
    reference = ReferenceSeries(seeded)
    for window, membership in updates:
        update_series(series, window, membership)
        reference_update(reference, window, membership)
    appeared = [node for _, membership in updates for node in membership.nodes]
    assert list(series.registry) == list(dict.fromkeys(appeared))

    report = detect_anomalies(score_windows(series, layer=layer), THRESHOLD)
    got = [(e.window, e.score, e.n_defined, e.contributions, e.argmax_flips, e.flagged)
           for e in report.entries]
    assert got == reference_scores(reference, layer)
