"""Recursive structural features over the co-occurrence graph.

Every node gets four primary features (weighted degree, ego interconnectivity,
ego out-degree, transitivity). Recursion then appends neighbor sums and
neighbor means of previously retained features, pruning any candidate that is
approximately linearly dependent on what is already kept. The retained set is
frozen as a FeatureSchema at training time and re-applied verbatim to later
windows, so every window produces a matrix with identical columns.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field

import numpy as np

from artifact.graph import ArtifactGraph, Vertex

logger = logging.getLogger(__name__)

PRIMARY_NAMES = (
    "weighted_degree",
    "ego_interconnectivity",
    "ego_out_degree",
    "transitivity",
)
AGG_OPS = ("neighbor_sum", "neighbor_mean")

SCHEMA_FORMAT = "artifact-feature-schema v1"


class EmptyGraphError(ValueError):
    """Raised when a schema is fitted on a graph with no nodes."""


@dataclass(frozen=True)
class FeatureDef:
    """One feature: a primary name at depth 0, or op(parent feature) deeper."""

    fid: int
    depth: int
    base: str | None = None      # one of PRIMARY_NAMES when depth == 0
    op: str | None = None        # one of AGG_OPS when depth > 0
    parent: int | None = None    # fid of the aggregated feature when depth > 0

    def __post_init__(self) -> None:
        if self.depth == 0:
            if self.base not in PRIMARY_NAMES or self.op or self.parent is not None:
                raise ValueError(f"bad primary feature definition: {self}")
        else:
            if self.op not in AGG_OPS or self.parent is None or self.base:
                raise ValueError(f"bad recursive feature definition: {self}")

    def expression(self) -> str:
        return self.base if self.depth == 0 else f"{self.op}({self.parent})"


@dataclass
class FeatureSchema:
    """Frozen list of feature definitions plus the knobs that produced it."""

    features: list[FeatureDef] = field(default_factory=list)
    prune_tolerance: float = 0.01
    max_depth: int = 3

    def __len__(self) -> int:
        return len(self.features)

    def validate(self) -> None:
        for i, f in enumerate(self.features):
            if f.fid != i:
                raise ValueError(f"feature ids must be dense, got {f.fid} at {i}")
            if f.depth > 0 and not 0 <= f.parent < i:
                raise ValueError(f"feature {i} references undefined parent {f.parent}")
        primaries = [f for f in self.features if f.depth == 0]
        if tuple(f.base for f in primaries) != PRIMARY_NAMES:
            raise ValueError("depth-0 entries must be exactly the four primaries")

    def dumps(self) -> str:
        lines = [
            SCHEMA_FORMAT,
            f"prune_tolerance {self.prune_tolerance!r}",
            f"max_depth {self.max_depth}",
        ]
        for f in self.features:
            lines.append(f"{f.fid}\t{f.depth}\t{f.expression()}")
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "FeatureSchema":
        lines = [l for l in text.splitlines() if l.strip()]
        if not lines or lines[0] != SCHEMA_FORMAT:
            raise ValueError("unrecognized schema format header")
        if len(lines) < 3:
            raise ValueError("schema ends before its prune_tolerance and max_depth")
        tol = float(lines[1].split()[1])
        depth = int(lines[2].split()[1])
        schema = cls(prune_tolerance=tol, max_depth=depth)
        expr_re = re.compile(r"^(neighbor_sum|neighbor_mean)\((\d+)\)$")
        for line in lines[3:]:
            fid_s, d_s, expr = line.split("\t")
            fid, d = int(fid_s), int(d_s)
            if d == 0:
                schema.features.append(FeatureDef(fid, 0, base=expr))
            else:
                m = expr_re.match(expr)
                if m is None:
                    raise ValueError(f"cannot parse feature expression {expr!r}")
                schema.features.append(
                    FeatureDef(fid, d, op=m.group(1), parent=int(m.group(2)))
                )
        schema.validate()
        return schema


@dataclass
class FeatureMatrix:
    """Per-node feature values for one graph, rows aligned to `nodes`."""

    nodes: list[Vertex]
    values: np.ndarray  # shape (len(nodes), n_features), nonnegative

    def validate(self) -> None:
        if self.values.shape[0] != len(self.nodes):
            raise ValueError("row count does not match node list")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature values must be finite")
        if np.any(self.values < 0):
            raise ValueError("feature values must be nonnegative")

    def row_for(self, node: Vertex) -> np.ndarray:
        return self.values[self.nodes.index(node)]


# -- computation ----------------------------------------------------------

def _primary_columns(g: ArtifactGraph) -> np.ndarray:
    """Weighted degree, edges among the neighbors (ego excluded), edges
    leaving the ego net and transitivity, all from exact integer sums."""
    k = g.degree
    wdeg = np.bincount(g.rows, weights=g.weights, minlength=len(k))
    inter = g.triangles()
    # each neighbor m of v has deg(m) edges: one to v, |N(m) & N(v)| inside
    out = g.neighbor_sums(k) - k - 2 * inter
    trans = np.divide(2.0 * inter, k * (k - 1), out=np.zeros(len(k)), where=k >= 2)
    return np.column_stack((wdeg, inter, out, trans))


def primary_features(g: ArtifactGraph) -> FeatureMatrix:
    """The four depth-0 structural features for every node of g."""
    return FeatureMatrix(g.vertices, _primary_columns(g))


def _aggregate(g: ArtifactGraph, column: np.ndarray, op: str) -> np.ndarray:
    """neighbor_sum / neighbor_mean of a column over the unweighted adjacency.

    Each row is reduced on its own, so a sum equals the node's
    `column[neighbors].sum()` bit for bit; a sparse product would sum in
    another order."""
    total = g.neighbor_sums(column)
    if op == "neighbor_sum":
        return total
    k = g.degree
    return np.divide(total, k, out=np.zeros(len(k)), where=k > 0)


def _relative_residual(candidate: np.ndarray, retained: np.ndarray) -> float:
    """Residual norm of candidate after projection onto span(retained),
    relative to the candidate's own norm. Zero columns count as dependent."""
    norm = float(np.linalg.norm(candidate))
    if norm == 0.0:
        return 0.0
    coef, _, _, _ = np.linalg.lstsq(retained, candidate, rcond=None)
    residual = candidate - retained @ coef
    return float(np.linalg.norm(residual)) / norm


def fit_schema(
    g_train: ArtifactGraph,
    max_depth: int = 3,
    prune_tolerance: float = 0.01,
) -> tuple[FeatureSchema, FeatureMatrix]:
    """Grow the recursive feature set on the training graph and freeze it.

    Level d candidates are neighbor_sum / neighbor_mean of every feature
    retained at level d-1. A candidate survives only if its least-squares
    residual against all currently retained columns stays above
    prune_tolerance of its own norm. The four primaries are always kept.
    """
    if len(g_train) == 0:
        raise EmptyGraphError("cannot fit a feature schema on an empty graph")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if not 0 < prune_tolerance < 1:
        raise ValueError("prune_tolerance must be in (0, 1)")

    schema = FeatureSchema(prune_tolerance=prune_tolerance, max_depth=max_depth)
    columns: list[np.ndarray] = []
    primaries = _primary_columns(g_train)
    for j, name in enumerate(PRIMARY_NAMES):
        schema.features.append(FeatureDef(len(schema.features), 0, base=name))
        columns.append(primaries[:, j])

    frontier = list(range(4))  # fids retained at the previous level
    for depth in range(1, max_depth + 1):
        new_frontier: list[int] = []
        for parent in frontier:
            for op in AGG_OPS:
                candidate = _aggregate(g_train, columns[parent], op)
                matrix = np.column_stack(columns)
                rel = _relative_residual(candidate, matrix)
                if rel <= prune_tolerance:
                    logger.debug(
                        "pruned %s(%d) at depth %d (residual %.3e)",
                        op, parent, depth, rel,
                    )
                    continue
                fid = len(schema.features)
                schema.features.append(FeatureDef(fid, depth, op=op, parent=parent))
                columns.append(candidate)
                new_frontier.append(fid)
        logger.info("depth %d retained %d new features", depth, len(new_frontier))
        if not new_frontier:
            break
        frontier = new_frontier

    schema.validate()
    values = np.column_stack(columns)
    return schema, FeatureMatrix(g_train.vertices, values)


def apply_schema(g: ArtifactGraph, schema: FeatureSchema) -> FeatureMatrix:
    """Compute exactly the frozen schema's features on g (no re-pruning)."""
    schema.validate()
    if len(g) == 0:
        return FeatureMatrix([], np.zeros((0, len(schema))))

    columns: list[np.ndarray] = []
    primaries = _primary_columns(g)
    for f in schema.features:
        if f.depth == 0:
            columns.append(primaries[:, PRIMARY_NAMES.index(f.base)])
        else:
            columns.append(_aggregate(g, columns[f.parent], f.op))
    return FeatureMatrix(g.vertices, np.column_stack(columns))
