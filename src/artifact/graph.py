"""Undirected, weighted, multilayer co-occurrence graph over alert field values.

A vertex is a (layer, value) pair; two values that co-occur in one alert gain
an edge whose weight counts co-occurrences across alerts. The graph captures
connections between alert artifacts, not network topology.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

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
    def degree_groups(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """The rows with edges, by degree and in order within a degree, and
        for each degree d that occurs the neighbor indices of its rows as an
        n_d x d array, each row in stored order."""
        k = self.degree
        sizes = np.bincount(k).tolist()  # rows per degree
        rows = np.argsort(k, kind="stable")[sizes[0] if sizes else 0:]
        gathers, start = [], 0
        for d, size in enumerate(sizes[1:], 1):
            if size:
                at = rows[start:start + size]
                gathers.append(self.indices[self.indptr[at][:, None] + np.arange(d)])
                start += size
        return rows, gathers

    def neighbor_sums(self, x: np.ndarray) -> np.ndarray:
        """A @ x over the unweighted adjacency for an n x m array x: row i of
        the result adds up the rows of x at i's neighbors, one neighbor at a
        time in stored order, as a CSR matrix product does, and is 0 for a
        vertex without edges. numpy reduces a lone column pairwise instead,
        so a one-column x is summed next to a zero column."""
        if x.shape[1] == 1:
            return self.neighbor_sums(np.hstack((x, np.zeros_like(x))))[:, :1]
        out = np.zeros(x.shape, dtype=x.dtype)
        rows, gathers = self.degree_groups
        if gathers:
            out[rows] = np.concatenate([np.add.reduce(x[at], axis=1) for at in gathers])
        return out

    def neighbor_row_sums(self, x: np.ndarray) -> np.ndarray:
        """x @ A over the unweighted adjacency for a p x n array x: entry
        (r, i) of the result adds up row r of x at i's neighbors, as
        `x[r, neighbors].sum()` does, and is 0 for a vertex without edges.

        Every row is summed in one reduction per degree over a gather made
        by `take`, which is C-contiguous, so numpy sums each neighbor list
        pairwise as it sums it alone; the strided `x[:, gather]` is summed
        in another order."""
        out = np.zeros(x.shape, dtype=x.dtype)
        rows, gathers = self.degree_groups
        if gathers:
            out[:, rows] = np.concatenate(
                [np.add.reduce(x.take(at, axis=1), axis=-1) for at in gathers], axis=1)
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


class KeyTable(NamedTuple):
    """The graph pieces of every alert key of a run, worked out once.

    `vertices` holds every field value's vertex in sorted (layer, value)
    order, and vertex ids index it. Key k's vertex ids, in field order, are
    `vertex_ids[vertex_ptr[k]:vertex_ptr[k + 1]]`; its linked pairs are the
    rows `pairs[pair_ptr[k]:pair_ptr[k + 1]]`, one (a, b) per pair of its
    fields in `itertools.combinations` order, less the pairs whose two values
    are one vertex (e.g. src_ip == dst_ip), which would be self-loops."""

    vertices: list[Vertex]
    vertex_ptr: np.ndarray  # int64, one more than there are keys
    vertex_ids: np.ndarray  # int64
    pair_ptr: np.ndarray    # int64, one more than there are keys
    pairs: np.ndarray       # int64, shape (pairs, 2)


def key_table(keys: Sequence[FieldTuple]) -> KeyTable:
    """The table of `keys`, each an alert's field tuple, by key id. Every
    field value becomes a vertex in its canonical layer."""
    ids: dict[Vertex, int] = {}  # vertex -> id in order of first appearance
    first_ids: list[int] = []
    sizes: list[int] = []
    pairs: list[int] = []
    pair_sizes: list[int] = []
    for fields in keys:
        vs = [ids.setdefault((layer_for(key), value), len(ids)) for key, value in fields]
        first_ids += vs
        sizes.append(len(vs))
        before = len(pairs)
        for a, b in itertools.combinations(vs, 2):
            if a != b:
                pairs += (a, b)
        pair_sizes.append((len(pairs) - before) // 2)

    vertices = sorted(ids)
    rank = np.empty(len(vertices), dtype=np.int64)
    rank[[ids[v] for v in vertices]] = np.arange(len(vertices))
    return KeyTable(
        vertices,
        _offsets(sizes),
        rank[np.asarray(first_ids, dtype=np.int64)],
        _offsets(pair_sizes),
        rank[np.asarray(pairs, dtype=np.int64)].reshape(-1, 2),
    )


def _offsets(sizes: list[int]) -> np.ndarray:
    ptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    return ptr


def _key_spans(ptr: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions `ptr[k]:ptr[k + 1]` of each of `keys`, one after the
    other, and how many each key has."""
    starts, sizes = ptr[keys], ptr[keys + 1] - ptr[keys]
    # each key's start, less where its positions begin in the result
    shift = np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
    return np.arange(len(shift)) + shift, sizes


def first_vertices(table: KeyTable, key_ids: np.ndarray) -> tuple[list[Vertex], np.ndarray]:
    """The vertices of the keys `key_ids` in the order they first come,
    each key's in field order, and for each the position in `key_ids` of
    the key it first came in."""
    at, sizes = _key_spans(table.vertex_ptr, np.asarray(key_ids, dtype=np.int64))
    vertex_ids = table.vertex_ids[at]
    _, seen = np.unique(vertex_ids, return_index=True)
    seen.sort()
    key_of = np.repeat(np.arange(len(sizes)), sizes)
    return [table.vertices[v] for v in vertex_ids[seen].tolist()], key_of[seen]


def build_graph(table: KeyTable, key_ids: np.ndarray, counts: np.ndarray) -> ArtifactGraph:
    """Build the co-occurrence graph of one window from its key ids in
    `table` and how many alerts carry each. A key may come more than once;
    its counts then add up, as if it came once at its first place.

    The vertices are those of the keys. Each linked pair (a, b) of a key adds
    the key's count to that vertex pair's edge weight; it is recorded as
    a -> b, then b -> a, and a row lists its neighbors in the order of their
    first record. Given in first-seen order, the keys therefore order each
    row as one alert at a time would, which the neighbor sums of the
    recursive features depend on.
    """
    key_ids = np.asarray(key_ids, dtype=np.int64)
    at, _ = _key_spans(table.vertex_ptr, key_ids)
    present = np.zeros(len(table.vertices), dtype=bool)
    present[table.vertex_ids[at]] = True
    row_of = np.cumsum(present) - 1  # a present vertex id's row
    vertices = [table.vertices[i] for i in np.flatnonzero(present).tolist()]
    n_vertices = len(vertices)

    at, sizes = _key_spans(table.pair_ptr, key_ids)
    linked = row_of[table.pairs[at]]
    rows = linked.ravel()           # a, b of each pair in turn
    cols = linked[:, ::-1].ravel()  # b, a
    count = np.repeat(np.asarray(counts, dtype=np.int64), 2 * sizes)
    # one entry per distinct (row, col), at its first record, counts summed
    pairs, first, inverse = np.unique(
        rows * n_vertices + cols, return_index=True, return_inverse=True)
    weights = np.zeros(len(pairs), dtype=np.int64)
    np.add.at(weights, inverse, count)
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
