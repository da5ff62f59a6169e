"""Role-membership dynamics across windows and the anomaly score.

Each node's maximum role-membership probability P_n(t) is tracked over
windows; a node that raised no alerts in a window keeps its previous value
(forward fill), and stays null until its first appearance. The series stores
only each window's update, and scoring replays them. A window's score is the
average absolute change in P across all nodes seen so far; a node appearing
for the first time contributes its full probability. Windows whose score
exceeds a constant threshold are flagged.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from artifact.graph import Vertex
from artifact.roles import Membership

logger = logging.getLogger(__name__)


class MembershipSeries:
    """The node registry, each node's index in order of first appearance,
    and, per folded window, that window's update: the registry indices of
    the nodes that appeared in it, each one's maximum role-membership
    probability P_n and its arg-max role."""

    def __init__(self) -> None:
        self.registry: dict[Vertex, int] = {}
        self.windows: list[int] = []
        self.updates: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []


def update_series(
    series: MembershipSeries, window: int, membership: Membership
) -> MembershipSeries:
    """Fold one window's memberships into the series.

    This is where a scored window's nodes enter the registry, new ones at
    the next free index. Arg-max ties go to the lowest role id.
    """
    if series.windows and window <= series.windows[-1]:
        raise ValueError(
            f"window {window} is not after the last processed {series.windows[-1]}"
        )
    registry = series.registry
    idx = np.array(
        [registry.setdefault(node, len(registry)) for node in membership.nodes],
        dtype=np.int64,
    )
    G = np.asarray(membership.G, dtype=float)
    roles = G.argmax(axis=1)
    series.windows.append(window)
    series.updates.append((idx, G[np.arange(len(idx)), roles], roles))
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


def score_windows(series: MembershipSeries,
                  layer: str | None = None) -> list[WindowScore]:
    """Score every processed window after the first (the unscored baseline)
    in one replay of the updates over each node's latest P_n and arg-max role.

    With `layer` set, the sum, the count and the contributions keep only that
    layer's nodes; `argmax_flips`, a diagnostic outside the score, counts
    nodes of every layer.
    """
    nodes = list(series.registry)
    P = np.full(len(nodes), np.nan)
    roles_now = np.full(len(nodes), -1, dtype=np.int64)
    in_layer = np.array([layer is None or v[0] == layer for v in nodes], dtype=bool)
    n_defined = 0
    scores = []
    for position, (window, (idx, p, roles)) in enumerate(
        zip(series.windows, series.updates)
    ):
        prev, prev_roles = P[idx], roles_now[idx]
        P[idx], roles_now[idx] = p, roles
        keep = in_layer[idx]
        n_defined += int(np.count_nonzero(np.isnan(prev) & keep))
        if position == 0:
            continue
        delta = np.abs(p - np.where(np.isnan(prev), 0.0, prev))
        keep &= delta > 0.0
        contributions = sorted(
            ((nodes[i], d) for i, d in zip(idx[keep].tolist(), delta[keep].tolist())),
            key=lambda pair: (-pair[1], pair[0]),
        )
        total = float(sum(d for _, d in contributions))
        scores.append(
            WindowScore(
                window=window,
                score=total / n_defined if n_defined else 0.0,
                n_defined=n_defined,
                contributions=contributions,
                argmax_flips=int(np.count_nonzero((prev_roles >= 0) & (roles != prev_roles))),
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
    entries = [replace(s, flagged=s.score > threshold) for s in scores]
    report = AnomalyReport(threshold=threshold, entries=entries)
    for e in report.flagged():
        logger.info("window %d flagged: score %.6f > %.6f",
                    e.window, e.score, threshold)
    return report


# -- serialization -------------------------------------------------------------

SCORE_COLUMNS = (
    "window_start_utc",
    "window_end_utc",
    "score",
    "flagged",
    "alert_count",
    "aux_argmax_flips",
    "top_contributions",
)
# The node contributions each scored window lists, largest first.
TOP_K = 5


def _utc(ts: float) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def _top_contributions(entry: WindowScore) -> str:
    parts = [
        f"{layer}:{value}:{delta!r}"
        for (layer, value), delta in entry.contributions[:TOP_K]
    ]
    return ";".join(parts)


def write_score_csv(
    report: AnomalyReport,
    spans: Mapping[int, tuple[float, float]],
    alert_counts: Mapping[int, int],
    path: Path | str,
) -> None:
    """One row per scored window; aux_argmax_flips is a diagnostic extra that
    is not part of the score. A cell holding a comma or a quote is quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(SCORE_COLUMNS)
        for e in report.entries:
            start, end = spans[e.window]
            writer.writerow((
                _utc(start), _utc(end), repr(e.score), int(e.flagged),
                alert_counts.get(e.window, 0), e.argmax_flips,
                _top_contributions(e),
            ))


def write_anomalies_json(
    report: AnomalyReport,
    spans: Mapping[int, tuple[float, float]],
    path: Path | str,
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
                    for (layer, value), delta in e.contributions[:TOP_K]
                ],
            }
            for e in report.flagged()
        ],
    }
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")
