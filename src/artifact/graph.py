"""Undirected, weighted, multilayer co-occurrence graph over alert field values.

A vertex is a (layer, value) pair; two values that co-occur in one alert gain
an edge whose weight counts co-occurrences across alerts. The graph captures
connections between alert artifacts, not network topology.
"""

from __future__ import annotations

import itertools
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np
from scipy.sparse import csr_array

from artifact.ingest import AlertRecord, layer_for

Vertex = tuple[str, str]  # (layer, value)


class Adjacency(NamedTuple):
    """Compressed sparse rows of a graph. Row i is `nodes[i]`, in sorted
    order; its neighbors are `indices[indptr[i]:indptr[i + 1]]` in the order
    they were first linked to it, with the edge weights alongside."""

    nodes: list[Vertex]
    indptr: np.ndarray   # int64, len(nodes) + 1
    indices: np.ndarray  # int64, one entry per (vertex, neighbor) pair
    weights: np.ndarray  # int64, aligned to indices

    @property
    def degree(self) -> np.ndarray:
        return np.diff(self.indptr)

    def matrix(self, data: np.ndarray) -> csr_array:
        """A sparse matrix with `data` as its entries. It gets its own copy
        of `indices`, because scipy may sort them in place."""
        n = len(self.nodes)
        return csr_array((data, self.indices.copy(), self.indptr), shape=(n, n))


class ArtifactGraph:
    """Adjacency-map graph; no self-loops, weights are positive integers."""

    def __init__(self) -> None:
        self.layers: set[str] = set()
        self._adj: dict[Vertex, dict[Vertex, int]] = {}
        self._csr: Adjacency | None = None

    def add_vertex(self, layer: str, value: str) -> Vertex:
        vertex = (layer, value)
        if vertex not in self._adj:
            self._adj[vertex] = {}
            self.layers.add(layer)
            self._csr = None
        return vertex

    def add_cooccurrence(self, u: Vertex, v: Vertex, weight: int = 1) -> None:
        """Increment the undirected edge weight between two existing vertices."""
        if u == v:
            raise ValueError("self-loops are not allowed")
        if u not in self._adj or v not in self._adj:
            raise KeyError("both endpoints must be added as vertices first")
        self._adj[u][v] = self._adj[u].get(v, 0) + weight
        self._adj[v][u] = self._adj[v].get(u, 0) + weight
        self._csr = None

    # -- queries --------------------------------------------------------

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def nodes(self) -> list[Vertex]:
        """Vertices in deterministic (layer, value) order."""
        return sorted(self._adj)

    def neighbors(self, vertex: Vertex) -> dict[Vertex, int]:
        return self._adj[vertex]

    def weight(self, u: Vertex, v: Vertex) -> int:
        return self._adj.get(u, {}).get(v, 0)

    def edges(self) -> Iterator[tuple[Vertex, Vertex, int]]:
        """Each undirected edge once, endpoints in sorted order."""
        for u in sorted(self._adj):
            for v, w in sorted(self._adj[u].items()):
                if u < v:
                    yield u, v, w

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    @property
    def total_weight(self) -> int:
        return sum(sum(nbrs.values()) for nbrs in self._adj.values()) // 2

    def weighted_degree(self, vertex: Vertex) -> int:
        return sum(self._adj[vertex].values())

    def adjacency(self) -> Adjacency:
        """The graph as compressed sparse rows, built once until the graph
        next changes."""
        if self._csr is None:
            nodes = self.nodes()
            index = {v: i for i, v in enumerate(nodes)}
            nbrs = [self._adj[v] for v in nodes]
            indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
            np.cumsum([len(d) for d in nbrs], out=indptr[1:])
            chain = itertools.chain.from_iterable
            count = int(indptr[-1])
            indices = np.fromiter((index[u] for u in chain(nbrs)),
                                  dtype=np.int64, count=count)
            weights = np.fromiter(chain(d.values() for d in nbrs),
                                  dtype=np.int64, count=count)
            self._csr = Adjacency(nodes, indptr, indices, weights)
        return self._csr

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArtifactGraph):
            return NotImplemented
        return self.layers == other.layers and self._adj == other._adj


class GraphSummary(NamedTuple):
    node_count: int
    edge_count: int
    total_weight: int
    layer_counts: dict[str, int]


FieldTuple = tuple[tuple[str, str], ...]  # an alert's (key, value) pairs, in order


def build_weighted_graph(field_counts: Iterable[tuple[FieldTuple, int]]) -> ArtifactGraph:
    """Build the co-occurrence graph of one window from its distinct field
    tuples and how many alerts carry each.

    Every field value becomes a vertex in its canonical layer. Every unordered
    pair of distinct field keys whose values map to distinct vertices adds the
    tuple's count to that vertex pair's edge weight; pairs that collapse to the
    same vertex (e.g. src_ip == dst_ip) are skipped rather than forming
    self-loops. Given in first-seen order, the tuples insert vertices and
    neighbors in the order one alert at a time would, which the neighbor sums
    of the recursive features depend on.
    """
    g = ArtifactGraph()
    for fields, count in field_counts:
        vertices = [g.add_vertex(layer_for(key), value) for key, value in fields]
        for u, v in itertools.combinations(vertices, 2):
            if u != v:
                g.add_cooccurrence(u, v, count)
    return g


def build_graph(records: Iterable[AlertRecord]) -> ArtifactGraph:
    """Build the co-occurrence graph for one window of normalized records."""
    return build_weighted_graph(
        Counter(tuple(record.fields.items()) for record in records).items()
    )


def graph_summary(g: ArtifactGraph) -> GraphSummary:
    layer_counts: dict[str, int] = {}
    for layer, _ in g.nodes():
        layer_counts[layer] = layer_counts.get(layer, 0) + 1
    return GraphSummary(len(g), g.edge_count, g.total_weight, layer_counts)


# -- exports -------------------------------------------------------------

def write_edge_list(g: ArtifactGraph, path: Path | str) -> None:
    """Tab-separated "layer_u value_u layer_v value_v weight" rows."""
    with open(path, "w", encoding="utf-8") as fp:
        for (lu, vu), (lv, vv), w in g.edges():
            fp.write(f"{lu}\t{vu}\t{lv}\t{vv}\t{w}\n")


def write_dot(g: ArtifactGraph, path: Path | str, name: str = "artifacts") -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(f'graph "{name}" {{\n')
        for layer, value in g.nodes():
            fp.write(f'  "{layer}:{value}" [layer="{layer}"];\n')
        for (lu, vu), (lv, vv), w in g.edges():
            fp.write(f'  "{lu}:{vu}" -- "{lv}:{vv}" [weight={w}];\n')
        fp.write("}\n")
