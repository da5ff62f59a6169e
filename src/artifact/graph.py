"""Undirected, weighted, multilayer co-occurrence graph over alert field values.

A vertex is a (layer, value) pair; two values that co-occur in one alert gain
an edge whose weight counts co-occurrences across alerts. The graph captures
connections between alert artifacts, not network topology.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from artifact.ingest import FieldTuple, layer_for

Vertex = tuple[str, str]  # (layer, value)


class ArtifactGraph:
    """A graph as compressed sparse rows; no self-loops, weights are positive
    integers. Row i is `vertices[i]`, in sorted (layer, value) order; its
    neighbors are `indices[indptr[i]:indptr[i + 1]]` in the order they were
    first linked to it, with the edge weights alongside. Every edge is stored
    in both of its rows."""

    def __init__(self, vertices: list[Vertex], indptr: np.ndarray,
                 indices: np.ndarray, weights: np.ndarray) -> None:
        self.vertices = vertices
        self.indptr = indptr    # int64, len(vertices) + 1
        self.indices = indices  # int64, one entry per (vertex, neighbor) pair
        self.weights = weights  # int64, aligned to indices

    @property
    def degree(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of each stored entry, aligned to `indices`."""
        return np.repeat(np.arange(len(self.vertices)), self.degree)

    @cached_property
    def degree_groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(rows, gather) per nonzero degree d: the rows of degree d and their
        neighbor indices as an n_d x d array, each row in stored order."""
        k = self.degree
        groups = []
        for d in np.unique(k[k > 0]):
            rows = np.flatnonzero(k == d)
            gather = self.indices[self.indptr[rows][:, None] + np.arange(d)]
            groups.append((rows, gather))
        return groups

    def neighbor_sums(self, x: np.ndarray) -> np.ndarray:
        """A @ x over the unweighted adjacency: row i of the result adds up
        x at i's neighbors, and is 0 for a vertex without edges.

        For a 1-D x each row is summed as `x[neighbors].sum()` sums it. For a
        2-D x each row adds one neighbor at a time in stored order, as a CSR
        matrix product does. numpy reduces a lone column pairwise instead, so
        a one-column x is summed next to a zero column."""
        if x.ndim == 2 and x.shape[1] == 1:
            return self.neighbor_sums(np.hstack((x, np.zeros_like(x))))[:, :1]
        out = np.zeros(x.shape, dtype=x.dtype)
        for rows, gather in self.degree_groups:
            out[rows] = np.add.reduce(x[gather], axis=1)
        return out

    def triangles(self) -> np.ndarray:
        """The number of edges among each vertex's neighbors, i.e. of the
        triangles through it. Each triangle is looked up once, from its
        corner of least (degree, row): among the pairs of that corner's
        neighbors that rank above it."""
        n = len(self.vertices)
        rank = self.degree * n + np.arange(n)
        up = rank[self.indices] > rank[self.rows]
        corner, head = self.rows[up], self.indices[up]  # grouped by corner
        position = np.arange(len(corner)) - np.searchsorted(corner, corner)
        later = np.bincount(corner, minlength=n)[corner] - position - 1
        # every (i, j) with j after i in the same corner's list
        i = np.repeat(np.arange(len(corner)), later)
        j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(later) - later, later)
        pairs = head[i] * n + head[j]
        edges = np.sort(self.rows * n + self.indices)
        at = np.minimum(np.searchsorted(edges, pairs), len(edges) - 1)
        found = edges[at] == pairs
        return np.bincount(
            np.concatenate((corner[i][found], head[i][found], head[j][found])),
            minlength=n)

    # -- queries --------------------------------------------------------

    def _row(self, vertex: Vertex) -> int:
        i = bisect_left(self.vertices, vertex)
        if i == len(self.vertices) or self.vertices[i] != vertex:
            raise KeyError(vertex)
        return i

    def __contains__(self, vertex: Vertex) -> bool:
        try:
            self._row(vertex)
        except KeyError:
            return False
        return True

    def __len__(self) -> int:
        return len(self.vertices)

    def nodes(self) -> list[Vertex]:
        """Vertices in deterministic (layer, value) order."""
        return list(self.vertices)

    def neighbors(self, vertex: Vertex) -> dict[Vertex, int]:
        """Neighbor -> weight, in the order the neighbors were first linked."""
        i = self._row(vertex)
        row = slice(self.indptr[i], self.indptr[i + 1])
        return {self.vertices[j]: w for j, w in
                zip(self.indices[row].tolist(), self.weights[row].tolist())}

    def weight(self, u: Vertex, v: Vertex) -> int:
        return self.neighbors(u).get(v, 0) if u in self else 0

    def edges(self) -> Iterator[tuple[Vertex, Vertex, int]]:
        """Each undirected edge once, endpoints in sorted order."""
        upper = self.indices > self.rows
        u, v, w = self.rows[upper], self.indices[upper], self.weights[upper]
        order = np.lexsort((v, u))
        for i, j, x in zip(u[order].tolist(), v[order].tolist(), w[order].tolist()):
            yield self.vertices[i], self.vertices[j], x

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    @property
    def total_weight(self) -> int:
        return int(self.weights.sum()) // 2

    def weighted_degree(self, vertex: Vertex) -> int:
        return sum(self.neighbors(vertex).values())

    def __eq__(self, other: object) -> bool:
        """Same vertices and same weighted edges, whatever their link order."""
        if not isinstance(other, ArtifactGraph):
            return NotImplemented
        return self.vertices == other.vertices and list(self.edges()) == list(other.edges())


class GraphSummary(NamedTuple):
    node_count: int
    edge_count: int
    total_weight: int
    layer_counts: dict[str, int]


def build_graph(field_counts: Iterable[tuple[FieldTuple, int]]) -> ArtifactGraph:
    """Build the co-occurrence graph of one window from its field tuples
    and how many alerts carry each. A tuple may come more than once; its
    counts then add up, as if it came once at its first place.

    Every field value becomes a vertex in its canonical layer. Every unordered
    pair of distinct field keys whose values map to distinct vertices adds the
    tuple's count to that vertex pair's edge weight; pairs that collapse to the
    same vertex (e.g. src_ip == dst_ip) are skipped rather than forming
    self-loops. Each linked pair (u, v) is recorded as u -> v, then v -> u,
    and a row lists its neighbors in the order of their first record. Given
    in first-seen order, the tuples therefore order each row as one alert at
    a time would, which the neighbor sums of the recursive features depend on.
    """
    ids: dict[Vertex, int] = {}  # vertex -> id in order of first appearance
    src: list[int] = []
    dst: list[int] = []
    count: list[int] = []
    for fields, n in field_counts:
        vs = [ids.setdefault((layer_for(key), value), len(ids)) for key, value in fields]
        for a, b in itertools.combinations(vs, 2):
            if a != b:
                src += (a, b)
                dst += (b, a)
                count += (n, n)

    vertices = sorted(ids)
    n_vertices = len(vertices)
    rank = np.empty(n_vertices, dtype=np.int64)
    rank[[ids[v] for v in vertices]] = np.arange(n_vertices)
    rows = rank[np.asarray(src, dtype=np.int64)]
    cols = rank[np.asarray(dst, dtype=np.int64)]
    # one entry per distinct (row, col), at its first record, counts summed
    pairs, first, inverse = np.unique(
        rows * n_vertices + cols, return_index=True, return_inverse=True)
    weights = np.zeros(len(pairs), dtype=np.int64)
    np.add.at(weights, inverse, np.asarray(count, dtype=np.int64))
    rows, cols = np.divmod(pairs, n_vertices)
    order = np.lexsort((first, rows))
    indptr = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_vertices), out=indptr[1:])
    return ArtifactGraph(vertices, indptr, cols[order], weights[order])


def graph_summary(g: ArtifactGraph) -> GraphSummary:
    layer_counts: dict[str, int] = {}
    for layer, _ in g.vertices:
        layer_counts[layer] = layer_counts.get(layer, 0) + 1
    return GraphSummary(len(g), g.edge_count, g.total_weight, layer_counts)
