"""Role-membership dynamics across windows and the anomaly score.

Each node's maximum role-membership probability P_n(t) is tracked over
windows; a node that raised no alerts in a window keeps its previous value
(forward fill), and stays null until its first appearance. A window's score
is the average absolute change in P across all nodes seen so far; a node
appearing for the first time contributes its full probability. Windows whose
score exceeds a constant threshold are flagged.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from artifact.graph import Vertex
from artifact.roles import Membership

logger = logging.getLogger(__name__)


@dataclass
class NodeRegistry:
    """Append-only identity map for nodes; indices are stable forever."""

    _index: dict[Vertex, int] = field(default_factory=dict)
    _first_seen: list[int | None] = field(default_factory=list)

    def get_or_add(self, node: Vertex, window: int | None = None) -> int:
        idx = self._index.get(node)
        if idx is None:
            idx = len(self._first_seen)
            self._index[node] = idx
            self._first_seen.append(window)
        elif window is not None and self._first_seen[idx] is None:
            self._first_seen[idx] = window
        return idx

    def index_of(self, node: Vertex) -> int:
        return self._index[node]

    def first_seen(self, node: Vertex) -> int | None:
        return self._first_seen[self._index[node]]

    def nodes(self) -> list[Vertex]:
        return list(self._index)

    def __contains__(self, node: Vertex) -> bool:
        return node in self._index

    def __len__(self) -> int:
        return len(self._first_seen)

    def write_tsv(self, path: Path | str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write("index\tlayer\tvalue\tfirst_seen_window\n")
            for node, idx in self._index.items():
                seen = self._first_seen[idx]
                seen_s = "" if seen is None else str(seen)
                fp.write(f"{idx}\t{node[0]}\t{node[1]}\t{seen_s}\n")

    @classmethod
    def read_tsv(cls, path: Path | str) -> "NodeRegistry":
        registry = cls()
        with open(path, "r", encoding="utf-8") as fp:
            if not fp.readline():
                raise ValueError(f"{path} is empty")
            for line in fp:
                idx_s, layer, value, seen_s = line.rstrip("\n").split("\t")
                window = int(seen_s) if seen_s else None
                got = registry.get_or_add((layer, value), window)
                if got != int(idx_s):
                    raise ValueError(f"registry file indices out of order: {line!r}")
        return registry


class MembershipSeries:
    """P_n(t) and argmax role per node per processed window.

    Values are stored as arrays aligned to registry indices; NaN marks a node
    that has not appeared yet, and argmax -1 likewise.
    """

    def __init__(self, registry: NodeRegistry | None = None) -> None:
        self.registry = registry if registry is not None else NodeRegistry()
        self.windows: list[int] = []
        self._P: list[np.ndarray] = []
        self._argmax: list[np.ndarray] = []

    def position(self, window: int) -> int:
        return self.windows.index(window)

    def P(self, window: int) -> np.ndarray:
        """P values at a window, padded with NaN to the current registry size."""
        return self._padded(self._P[self.position(window)], np.nan)

    def argmax(self, window: int) -> np.ndarray:
        return self._padded(self._argmax[self.position(window)], -1)

    def _padded(self, arr: np.ndarray, fill) -> np.ndarray:
        out = np.full(len(self.registry), fill, dtype=arr.dtype)
        out[: len(arr)] = arr
        return out


def max_membership(row: np.ndarray) -> tuple[int, float]:
    """Arg-max role and its probability; ties go to the lowest role id."""
    row = np.asarray(row, dtype=float)
    role = int(np.argmax(row))
    return role, float(row[role])


def update_series(
    series: MembershipSeries, window: int, membership: Membership
) -> MembershipSeries:
    """Fold one window's memberships into the series.

    Appeared nodes get fresh values, everyone else carries the previous
    window's value forward, and nodes never seen stay null.
    """
    if series.windows and window <= series.windows[-1]:
        raise ValueError(
            f"window {window} is not after the last processed {series.windows[-1]}"
        )
    for node in membership.nodes:
        series.registry.get_or_add(node, window=window)

    size = len(series.registry)
    P = np.full(size, np.nan)
    A = np.full(size, -1, dtype=int)
    if series._P:
        prev_P, prev_A = series._P[-1], series._argmax[-1]
        P[: len(prev_P)] = prev_P
        A[: len(prev_A)] = prev_A

    for node, row in zip(membership.nodes, membership.G):
        role, p = max_membership(row)
        idx = series.registry.index_of(node)
        P[idx] = p
        A[idx] = role

    series.windows.append(window)
    series._P.append(P)
    series._argmax.append(A)
    return series


@dataclass
class WindowScore:
    """Score and triage detail for one window."""

    window: int
    score: float
    n_defined: int
    contributions: list[tuple[Vertex, float]]  # nonzero |dP|, descending
    argmax_flips: int
    flagged: bool = False


def _window_deltas(series: MembershipSeries, position: int,
                   layer: str | None = None):
    now = series._P[position]
    prev = series._P[position - 1]
    prev_full = np.full(len(now), np.nan)
    prev_full[: len(prev)] = prev

    deltas: list[tuple[Vertex, float]] = []
    nodes = series.registry.nodes()
    n_defined = 0
    for idx in range(len(now)):
        if np.isnan(now[idx]):
            continue  # never appeared: excluded entirely
        if layer is not None and nodes[idx][0] != layer:
            continue
        n_defined += 1
        base = 0.0 if np.isnan(prev_full[idx]) else float(prev_full[idx])
        delta = abs(float(now[idx]) - base)
        if delta > 0.0:
            deltas.append((nodes[idx], delta))
    deltas.sort(key=lambda pair: (-pair[1], pair[0]))
    return deltas, n_defined


def role_change_score(series: MembershipSeries, window: int,
                      layer: str | None = None) -> float:
    """Average |P_n(t) - P_n(t-1)| over nodes that have appeared by t.

    With `layer` set, both the sum and the node count are restricted to
    vertices of that layer.
    """
    position = series.position(window)
    if position == 0:
        raise ValueError("the first processed window has no predecessor to score")
    deltas, n_defined = _window_deltas(series, position, layer)
    if n_defined == 0:
        return 0.0
    return float(sum(d for _, d in deltas)) / n_defined


def argmax_flips(series: MembershipSeries, window: int) -> int:
    """How many nodes changed their argmax role since the previous window.

    Auxiliary diagnostic only: the score tracks probability magnitude, so a
    role swap at equal confidence moves this counter but not the score.
    """
    position = series.position(window)
    if position == 0:
        raise ValueError("the first processed window has no predecessor")
    now = series._argmax[position]
    prev = series._argmax[position - 1]
    prev_full = np.full(len(now), -1, dtype=int)
    prev_full[: len(prev)] = prev
    both = (now >= 0) & (prev_full >= 0)
    return int(np.count_nonzero(now[both] != prev_full[both]))


def score_windows(series: MembershipSeries,
                  layer: str | None = None) -> list[WindowScore]:
    """Score every processed window after the first (the unscored baseline)."""
    scores = []
    for position in range(1, len(series.windows)):
        window = series.windows[position]
        deltas, n_defined = _window_deltas(series, position, layer)
        total = float(sum(d for _, d in deltas))
        score = total / n_defined if n_defined else 0.0
        scores.append(
            WindowScore(
                window=window,
                score=score,
                n_defined=n_defined,
                contributions=deltas,
                argmax_flips=argmax_flips(series, window),
            )
        )
    return scores


@dataclass
class AnomalyReport:
    """Flagged-window report: every scored window plus the threshold used."""

    threshold: float
    entries: list[WindowScore]

    def flagged(self) -> list[WindowScore]:
        return [e for e in self.entries if e.flagged]


def detect_anomalies(
    scores: Sequence[WindowScore], threshold: float
) -> AnomalyReport:
    """Flag windows whose score strictly exceeds the threshold."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    entries = []
    for s in scores:
        entries.append(
            WindowScore(
                window=s.window,
                score=s.score,
                n_defined=s.n_defined,
                contributions=list(s.contributions),
                argmax_flips=s.argmax_flips,
                flagged=s.score > threshold,
            )
        )
    report = AnomalyReport(threshold=threshold, entries=entries)
    for e in report.flagged():
        logger.info("window %d flagged: score %.6f > %.6f",
                    e.window, e.score, threshold)
    return report


# -- serialization -------------------------------------------------------------

def _utc(ts: float) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def _top_contributions(entry: WindowScore, top_k: int) -> str:
    parts = [
        f"{layer}:{value}:{delta!r}"
        for (layer, value), delta in entry.contributions[:top_k]
    ]
    return ";".join(parts)


def write_score_csv(
    report: AnomalyReport,
    spans: Mapping[int, tuple[float, float]],
    alert_counts: Mapping[int, int],
    path: Path | str,
    top_k: int = 5,
) -> None:
    """One row per scored window; aux_argmax_flips is a diagnostic extra that
    is not part of the score."""
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(
            "window_start_utc,window_end_utc,score,flagged,alert_count,"
            "aux_argmax_flips,top_contributions\n"
        )
        for e in report.entries:
            start, end = spans[e.window]
            fp.write(
                f"{_utc(start)},{_utc(end)},{e.score!r},"
                f"{int(e.flagged)},{alert_counts.get(e.window, 0)},"
                f"{e.argmax_flips},{_top_contributions(e, top_k)}\n"
            )


def write_anomalies_json(
    report: AnomalyReport,
    spans: Mapping[int, tuple[float, float]],
    path: Path | str,
    top_k: int = 5,
) -> None:
    payload = {
        "threshold": report.threshold,
        "flagged_windows": [
            {
                "window": e.window,
                "start_utc": _utc(spans[e.window][0]),
                "end_utc": _utc(spans[e.window][1]),
                "score": e.score,
                "aux_argmax_flips": e.argmax_flips,
                "top_contributors": [
                    {"layer": layer, "value": value, "delta": delta}
                    for (layer, value), delta in e.contributions[:top_k]
                ],
            }
            for e in report.flagged()
        ],
    }
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")
