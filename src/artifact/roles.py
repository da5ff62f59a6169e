"""Role discovery over node-feature matrices.

Training factorizes the node-feature matrix V into nonnegative G (node-role
memberships) and F (role-feature definitions) by minimizing generalized KL
divergence. The role count and quantization width are picked by minimum
description length: model cost bits*r*(N_n+N_f) plus the divergence between V
and the quantized reconstruction. Scoring re-derives memberships for later
windows against the frozen F via nonnegative least squares. Roles are made
readable by regressing interpretable node properties onto the memberships.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from artifact.features import (
    PRIMARY_NAMES,
    EmptyGraphError,
    FeatureMatrix,
    primary_features,
)
from artifact.graph import ArtifactGraph, Vertex
from artifact.ingest import PipelineError

logger = logging.getLogger(__name__)

EPS = 1e-12

PROPERTY_NAMES = (
    "degree",
    "weighted_degree",
    "pagerank",
    "transitivity",
    "diversity",
    "eccentricity",
    "betweenness",
)


class DimensionError(ValueError):
    """Shapes or ranks inconsistent with the requested factorization."""


class NonNegativityError(ValueError):
    """Input matrix contains negative or non-finite entries."""


class SchemaMismatchError(ValueError):
    """Feature matrix does not match the model's frozen schema."""


def _values(V) -> np.ndarray:
    if isinstance(V, FeatureMatrix):
        return V.values
    return np.asarray(V, dtype=float)


def _check_nonnegative(V: np.ndarray) -> None:
    if not np.all(np.isfinite(V)):
        raise NonNegativityError("matrix has non-finite entries")
    if np.any(V < 0):
        raise NonNegativityError("matrix has negative entries")


# -- factorization ---------------------------------------------------------

def _divergence_from(V: np.ndarray) -> Callable[[np.ndarray], float]:
    """`generalized_kl(V, .)` for one V, with V's masks and entries taken
    once. Where V has no zero entry, the terms are summed over the whole
    C-ordered matrix, in the order of the masked gather, without it."""
    pos = V > 0
    if pos.all():
        V = np.ascontiguousarray(V)

        def divergence(W: np.ndarray) -> float:
            W = np.maximum(W, EPS, order="C")
            return float(np.sum(V * np.log(V / W) - V + W))

        return divergence
    nonpos = ~pos
    V_pos = V[pos]

    def divergence(W: np.ndarray) -> float:
        W_pos = np.maximum(W[pos], EPS)
        total = float(np.sum(V_pos * np.log(V_pos / W_pos) - V_pos + W_pos))
        return total + float(np.sum(W[nonpos]))

    return divergence


def generalized_kl(V: np.ndarray, W: np.ndarray) -> float:
    """sum(V*log(V/W) - V + W) with 0*log0 := 0; W clamped to EPS where V > 0."""
    V = np.asarray(V, dtype=float)
    W = np.asarray(W, dtype=float)
    if V.shape != W.shape:
        raise DimensionError(f"shape mismatch {V.shape} vs {W.shape}")
    return _divergence_from(V)(W)


class NMFResult(NamedTuple):
    G: np.ndarray            # N_n x r memberships (unnormalized)
    F: np.ndarray            # r x N_f role definitions
    history: list[float]     # objective value at init and after each iteration
    n_iter: int


def nmf_kl(V, r: int, seed: int = 0, max_iter: int = 200,
           tol: float = 1e-7) -> NMFResult:
    """Multiplicative-update NMF under generalized KL divergence.

    Deterministic for a fixed seed; the objective history is retained so the
    non-increase property can be audited. Stops early when the relative
    objective improvement drops below tol.
    """
    V = _values(V)
    _check_nonnegative(V)
    if V.ndim != 2:
        raise DimensionError("V must be a matrix")
    n, f = V.shape
    if not 1 <= r <= min(n, f):
        raise DimensionError(f"rank {r} invalid for a {n}x{f} matrix")

    if V.sum() == 0.0:
        zero = NMFResult(np.zeros((n, r)), np.zeros((r, f)), [0.0], 0)
        return zero

    rng = np.random.default_rng(seed)
    avg = math.sqrt(V.mean() / r)
    G = avg * np.abs(rng.standard_normal((n, r)))
    F = avg * np.abs(rng.standard_normal((r, f)))

    divergence = _divergence_from(V)
    # the product an objective is taken at is the one the next step starts from
    GF = G @ F
    history = [divergence(GF)]
    for _ in range(max_iter):
        W = np.maximum(GF, EPS)
        F *= (G.T @ (V / W)) / np.maximum(G.sum(axis=0)[:, None], EPS)
        W = np.maximum(G @ F, EPS)
        G *= ((V / W) @ F.T) / np.maximum(F.sum(axis=1)[None, :], EPS)
        GF = G @ F
        d = divergence(GF)
        history.append(d)
        if history[-2] - d < tol * max(history[-2], EPS):
            break
    logger.debug("nmf_kl r=%d seed=%d converged after %d iterations (D=%.6g)",
                 r, seed, len(history) - 1, history[-1])
    return NMFResult(G, F, history, len(history) - 1)


# -- quantization -----------------------------------------------------------

_LLOYD_ROUNDS = 100
# The offsets, back from a cluster boundary, of the last entry before it
# and of the first entry at it.
_BEFORE_AT = np.array([[1], [0]])


def quantize(matrix, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd quantization of a nonnegative matrix to 2**bits levels.

    Centroids start at evenly spaced quantiles of the entries, so the whole
    procedure is deterministic. Ties in assignment go to the lower centroid
    index; empty centroids keep their previous position. The rounds run
    over the entries sorted once (`_lloyd_sorted`); where centroids come
    within a few ulps of each other, the whole call runs the dense loop
    (`_lloyd_dense`) instead, with the same result.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    arr = np.asarray(matrix, dtype=float)
    _check_nonnegative(arr)
    flat = arr.ravel()
    if flat.size == 0:
        return arr.copy(), np.zeros(0)

    k = 2 ** bits
    result = _lloyd_sorted(flat, k)
    if result is None:
        result = _lloyd_dense(flat, k)
    quantized, centroids = result
    return quantized.reshape(arr.shape), centroids


def _lloyd_dense(flat: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's loop over a (k, n) distance buffer: each entry goes to the
    centroid of least float64 |x - c|, the lowest index on a tie, and
    only the centroids of clusters an entry moved into or out of are
    recomputed. Returns the quantized entries and the centroids."""
    centroids = np.quantile(flat, (np.arange(k) + 0.5) / k)
    dist = np.empty((k, flat.size))

    def nearest(c: np.ndarray) -> np.ndarray:
        """Index of each entry's nearest centroid, the lowest on a tie."""
        np.subtract(flat[None, :], c[:, None], out=dist)
        return np.abs(dist, out=dist).argmin(axis=0)

    assignment = nearest(centroids)
    changed = range(k)  # clusters whose member set may differ from last time
    for _ in range(_LLOYD_ROUNDS):
        updated = centroids.copy()
        for j in changed:
            members = flat[assignment == j]
            if members.size:
                # ndarray.mean's pairwise sum and division, without its wrapper
                updated[j] = np.add.reduce(members) / members.size
        if np.array_equal(updated, centroids):
            break
        centroids = updated
        previous, assignment = assignment, nearest(centroids)
        moved = previous != assignment
        changed = np.union1d(previous[moved], assignment[moved])
    return centroids[assignment], centroids


def _lloyd_sorted(flat: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """`_lloyd_dense`'s rounds over the entries sorted once: each cluster is
    a run of sorted positions, found by binary search, and its centroid the
    mean of its members in their original order, so every value is the
    same bit for bit. None where some round's centroids are too close
    together for `_cluster_runs` to decide."""
    perm = np.argsort(flat, kind="stable")
    s = flat[perm]
    centroids = np.quantile(flat, (np.arange(k) + 0.5) / k)
    runs = _cluster_runs(s, centroids)
    if runs is None:
        return None
    table = _run_table(k, *runs)
    changed = range(k)  # clusters whose run may differ from last time
    for _ in range(_LLOYD_ROUNDS):
        updated = centroids.copy()
        start, stop = table.tolist()
        for j in changed:
            if stop[j] > start[j]:
                # the same members in the same order as `flat[assignment == j]`
                members = flat[np.sort(perm[start[j]:stop[j]])]
                updated[j] = np.add.reduce(members) / members.size
        if not (updated != centroids).any():
            break
        centroids = updated
        runs = _cluster_runs(s, centroids)
        if runs is None:
            return None
        table, previous = _run_table(k, *runs), table
        changed = (table != previous).any(axis=0).nonzero()[0].tolist()
    owner, bounds = runs
    quantized = np.empty_like(flat)
    quantized[perm] = np.repeat(centroids[owner], np.diff(bounds))
    return quantized, centroids


def _run_table(k: int, owner: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Each cluster's run [start, stop) as the column of a (2, k) table,
    (0, 0) for a centroid that repeats a lower one's value."""
    table = np.zeros((2, k), dtype=np.int64)
    table[0, owner], table[1, owner] = bounds[:-1], bounds[1:]
    return table


def _cluster_runs(s: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The nearest-centroid clusters of the sorted entries `s`, as
    `_lloyd_dense`'s `nearest` assigns them: `owner`, the lowest index of
    each distinct centroid value in increasing order, and `bounds`, where
    the run of `owner[i]` is `s[bounds[i]:bounds[i + 1]]`.

    An entry's float64 distance to the centroids falls, weakly, over the
    centroids below it and rises over those above, so its nearest are the
    two distinct values around it, unless two neighbouring values are so
    close that their distances round to one float. Each boundary between
    two neighbours is a binary search at their midpoint, moved past the
    entries on either side that the exact rule (|x - c|, lower index on a
    tie) puts elsewhere. None where neighbours are within a few ulps of
    the distances they decide, and a tie with a farther centroid cannot be
    ruled out."""
    order = centroids.argsort(kind="stable")
    c = centroids[order]
    distinct = np.concatenate(([True], c[1:] != c[:-1]))
    owner, u = order[distinct], c[distinct]
    n, m = s.size, u.size
    bounds = np.empty(m + 1, dtype=np.int64)
    bounds[0], bounds[-1] = 0, n
    if m == 1:
        return owner, bounds
    lo, hi = u[:-1], u[1:]
    gap = hi - lo
    # Every distance is at most the largest value, and those a pair decides
    # at most the span from the value below it to the value above it.
    top = max(s[-1], u[-1])
    if gap.min() <= 4.0 * np.spacing(top):
        below = np.concatenate(([min(s[0], u[0])], u[:-2]))
        above = np.concatenate((u[2:], [top]))
        if (gap <= 4.0 * np.spacing(np.maximum(above - lo, hi - below))).any():
            return None
    hi_first = owner[1:] < owner[:-1]

    def to_hi(x: np.ndarray, pair=slice(None)) -> np.ndarray:
        """Whether entry x, between lo[pair] and hi[pair], goes to hi."""
        d_lo, d_hi = np.abs(x - lo[pair]), np.abs(x - hi[pair])
        return (d_hi < d_lo) | ((d_hi == d_lo) & hi_first[pair])

    # the entries in [lo, hi] are s[first:last]; from the boundary on they go to hi
    first = s.searchsorted(lo, "left")
    last = s.searchsorted(hi, "right")
    boundary = np.minimum(np.maximum(s.searchsorted(lo + 0.5 * gap), first), last)
    # the entry before each boundary must go to lo, the one at it to hi
    wrong = to_hi(s[np.minimum(boundary - _BEFORE_AT, n - 1)]) != (_BEFORE_AT == 0)
    wrong[0] &= boundary > first
    wrong[1] &= boundary < last
    if wrong.any():
        # step back over values that go to hi, then on over values that do not
        for back in (True, False):
            while True:
                pair = (boundary > first if back else boundary < last).nonzero()[0]
                x = s[boundary[pair] - back]
                moves = to_hi(x, pair) == back
                if not moves.any():
                    break
                boundary[pair[moves]] = s.searchsorted(x[moves], "left" if back else "right")
    bounds[1:-1] = boundary
    return owner, bounds


# -- description length ------------------------------------------------------

class CostBreakdown(NamedTuple):
    model_cost: float   # M, bits
    error_cost: float   # E, generalized KL against the quantized product
    total: float        # L = M + E


def description_length(V, G: np.ndarray, F: np.ndarray,
                       bits: int) -> CostBreakdown:
    """MDL cost of encoding V through quantized factors at a given bit width."""
    V = _values(V)
    G = np.asarray(G, dtype=float)
    F = np.asarray(F, dtype=float)
    n, f = V.shape
    r = G.shape[1]
    if G.shape[0] != n or F.shape != (r, f):
        raise DimensionError(
            f"inconsistent shapes V{V.shape} G{G.shape} F{F.shape}"
        )
    model_cost = float(bits * r * (n + f))
    G_q, _ = quantize(G, bits)
    F_q, _ = quantize(F, bits)
    error_cost = generalized_kl(V, G_q @ F_q)
    return CostBreakdown(model_cost, error_cost, model_cost + error_cost)


# -- model selection ----------------------------------------------------------

@dataclass
class RoleModel:
    """Frozen role definitions plus the metadata needed to reuse them."""

    n_roles: int
    n_bits: int
    F: np.ndarray              # n_roles x N_f role-feature definitions
    seed: int

    def validate(self) -> None:
        if self.n_roles < 1:
            raise ValueError("n_roles must be >= 1")
        if not 1 <= self.n_bits <= 16:
            raise ValueError("n_bits must be in 1..16")
        _check_nonnegative(self.F)
        if self.F.shape[0] != self.n_roles:
            raise DimensionError("F row count must equal n_roles")
        if np.any(self.F.sum(axis=1) == 0.0):
            raise ValueError("F must have no all-zero row")


class GridPoint(NamedTuple):
    r: int
    b: int
    model_cost: float
    error_cost: float
    total: float


def select_model(
    V,
    r_range: Iterable[int],
    b_range: Iterable[int],
    seed: int = 0,
) -> tuple[RoleModel, list[GridPoint]]:
    """Grid-search role count and bit width for the minimum description length.

    One factorization per candidate rank (with a rank-derived seed so runs
    are independent yet reproducible), then every bit width is costed against
    it. Ties break toward fewer roles, then fewer bits. Ranks exceeding the
    matrix dimensions are skipped.
    """
    values = _values(V)
    n, f = values.shape
    r_list = [r for r in r_range if 1 <= r <= min(n, f)]
    b_list = [b for b in b_range if b >= 1]
    if not r_list or not b_list:
        raise DimensionError("no feasible (roles, bits) grid points")

    grid: list[GridPoint] = []
    best: tuple[float, int, int, np.ndarray] | None = None
    for r in r_list:
        result = nmf_kl(values, r, seed=seed * 1009 + r)
        for b in b_list:
            cost = description_length(values, result.G, result.F, b)
            grid.append(GridPoint(r, b, *cost))
            if best is None or cost.total < best[0]:
                best = (cost.total, r, b, result.F)
    total, n_roles, n_bits, F = best
    logger.info("selected %d roles at %d bits (L=%.6g)", n_roles, n_bits, total)
    model = RoleModel(n_roles=n_roles, n_bits=n_bits, F=F, seed=seed)
    model.validate()
    return model, grid


def grid_csv(grid: Sequence[GridPoint]) -> str:
    """The description-length surface as `grid.csv` text."""
    rows = [f"{p.r},{p.b},{p.model_cost!r},{p.error_cost!r},{p.total!r}\n" for p in grid]
    return "roles,bits,model_cost,error_cost,total\n" + "".join(rows)


# -- nonnegative least squares -------------------------------------------------

def _load_slsqp_nnls():
    """scipy's compiled Lawson-Hanson routine `nnls(A, b, maxiter) -> (x,
    rnorm, info)`, loaded from its extension file without importing the
    scipy.optimize package, which takes about 0.5 s. None where the file is
    missing or its routine does not solve a 1 x 1 problem."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        return None
    folder = Path(scipy_spec.submodule_search_locations[0], "optimize")
    paths = [folder / f"_slsqplib{suffix}"
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        return None
    try:
        spec = importlib.util.spec_from_file_location("scipy.optimize._slsqplib", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        x, _, _ = module.nnls(np.ones((1, 1)), np.array([2.0]), 3)
        solved = x.tolist() == [2.0]
    except (ImportError, AttributeError, TypeError, ValueError):
        return None
    return module.nnls if solved else None


_slsqp_nnls = _load_slsqp_nnls()

_NNLS_CAP = "nonnegative least squares hit its iteration cap"


def nnls(A, B) -> np.ndarray:
    """The X >= 0 that minimizes ||AX - B||, each column as
    `scipy.optimize.nnls(A, b)` finds it from that column of B, with the
    same input checks, made once, and cap of 3 x columns iterations. A
    column that hits the cap ends with a PipelineError."""
    A = np.asarray_chkfinite(A, dtype=np.float64, order="C")
    B = np.asarray_chkfinite(B, dtype=np.float64, order="F")
    # One solution per row of X, returned as X.T: `nnls(F.T, V.T).T` then
    # has C-contiguous rows, which numpy sums in the order a lone row's
    # `sum()` takes, past its 8-wide pairwise block too.
    X = np.empty((B.shape[1], A.shape[1]))
    if _slsqp_nnls is None:
        from scipy.optimize import nnls as public_nnls

        try:
            for x, b in zip(X, B.T):
                x[:] = public_nnls(A, b)[0]
        except RuntimeError:
            raise PipelineError(_NNLS_CAP) from None
        return X.T
    cap = 3 * A.shape[1]
    for x, b in zip(X, B.T):
        x[:], _, info = _slsqp_nnls(A, b, cap)
        if info == 3:
            raise PipelineError(_NNLS_CAP)
    return X.T


# -- memberships under fixed roles --------------------------------------------

@dataclass
class Membership:
    """Per-node role distribution for one window; rows sum to 1."""

    nodes: list[Vertex]
    G: np.ndarray  # len(nodes) x n_roles

    def validate(self) -> None:
        if self.G.shape[0] != len(self.nodes):
            raise ValueError("row count does not match node list")
        if np.any(self.G < 0):
            raise ValueError("memberships must be nonnegative")
        if self.G.size and not np.allclose(self.G.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("membership rows must sum to 1")


def memberships_fixed_F(V_t, model: RoleModel) -> Membership:
    """Project each node's feature row onto the frozen role definitions.

    Nonnegative least squares of every row in one `nnls` call, then L1
    normalization; a row whose projection is identically zero gets the
    uninformative uniform distribution.
    """
    values = _values(V_t)
    nodes = V_t.nodes if isinstance(V_t, FeatureMatrix) else [
        ("", str(i)) for i in range(values.shape[0])
    ]
    if values.ndim != 2 or values.shape[1] != model.F.shape[1]:
        raise SchemaMismatchError(
            f"feature matrix has {values.shape[1] if values.ndim == 2 else '?'} "
            f"columns, model expects {model.F.shape[1]}"
        )
    _check_nonnegative(values)

    G = nnls(model.F.T, values.T).T
    totals = G.sum(axis=1, keepdims=True)
    G = np.divide(G, totals, out=np.full(G.shape, 1.0 / model.n_roles), where=totals > 0.0)
    membership = Membership(list(nodes), G)
    membership.validate()
    return membership


# -- node properties and role descriptions -------------------------------------

@dataclass
class PropertyMatrix:
    """Interpretable per-node graph properties (columns = PROPERTY_NAMES)."""

    nodes: list[Vertex]
    names: tuple[str, ...]
    values: np.ndarray

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.names.index(name)]

    def row_for(self, node: Vertex) -> np.ndarray:
        return self.values[self.nodes.index(node)]


# Sources per breadth-first pass of `_eccentricity_betweenness`; memory is
# O(_BFS_BLOCK x nodes + edges).
_BFS_BLOCK = 64

# PageRank's damping factor, per-node L1 tolerance and iteration cap:
# networkx's defaults.
_PAGERANK_ALPHA = 0.85
_PAGERANK_TOL = 1e-8
_PAGERANK_MAX_ITER = 1000


def _pagerank(g: ArtifactGraph) -> np.ndarray:
    """Weighted PageRank by power iteration, step for step as networkx's
    `_pagerank_scipy` takes it: rows normalized to sum 1, the mass of nodes
    without edges spread uniformly, stop once the L1 change is below N*tol."""
    n = len(g)
    S = np.bincount(g.rows, weights=g.weights, minlength=n)
    S[S != 0] = 1.0 / S[S != 0]
    # the row-normalized matrix's entries, aligned to g.indices
    data = S[g.rows] * g.weights
    x = np.repeat(1.0 / n, n)
    p = np.repeat(1.0 / n, n)
    dangling = np.where(S == 0)[0]
    for _ in range(_PAGERANK_MAX_ITER):
        xlast = x
        # x @ A: each column adds its terms in row order, as scipy does
        xA = np.bincount(g.indices, weights=data * x[g.rows], minlength=n)
        x = _PAGERANK_ALPHA * (xA + sum(x[dangling]) * p) + (1 - _PAGERANK_ALPHA) * p
        if np.absolute(x - xlast).sum() < n * _PAGERANK_TOL:
            return x
    raise ArithmeticError(f"pagerank did not converge in {_PAGERANK_MAX_ITER} iterations")


def _eccentricity_betweenness(g: ArtifactGraph) -> tuple[np.ndarray, np.ndarray]:
    """Eccentricity within each node's component and unnormalized shortest-path
    betweenness, from level-synchronous breadth-first searches over blocks of
    sources (Brandes' accumulation, one BFS level at a time)."""
    n = len(g)
    eccentricity = np.zeros(n)
    betweenness = np.zeros(n)
    for start in range(0, n, _BFS_BLOCK):
        sources = np.arange(start, min(start + _BFS_BLOCK, n))
        cols = np.arange(len(sources))
        # column c holds the search from sources[c]
        dist = np.full((n, len(sources)), -1)
        sigma = np.zeros((n, len(sources)))
        dist[sources, cols] = 0
        sigma[sources, cols] = 1.0
        frontier = dist == 0
        level = 0
        while frontier.any():
            paths = g.neighbor_sums(np.where(frontier, sigma, 0.0))
            frontier = (paths > 0) & (dist < 0)
            level += 1
            dist[frontier] = level
            sigma[frontier] = paths[frontier]
        eccentricity[sources] = dist.max(axis=0)
        # from the deepest level back: delta(v) = sigma(v) * sum over the
        # neighbors w one level further of (1 + delta(w)) / sigma(w)
        delta = np.zeros_like(sigma)
        for lv in range(level - 2, 0, -1):
            ahead = dist == lv + 1
            coeff = np.zeros_like(sigma)
            coeff[ahead] = (1.0 + delta[ahead]) / sigma[ahead]
            pulled = g.neighbor_sums(coeff)
            at = dist == lv
            delta[at] = sigma[at] * pulled[at]
        betweenness += delta.sum(axis=1)
    # each unordered pair is counted from both of its ends
    return eccentricity, betweenness / 2.0


def _layer_diversity(g: ArtifactGraph, i: int) -> float:
    """Normalized entropy of row i's edge weight over its neighbors' layers,
    summed in the row's order."""
    row = slice(g.indptr[i], g.indptr[i + 1])
    by_layer: dict[str, float] = {}
    for j, w in zip(g.indices[row].tolist(), g.weights[row].tolist()):
        layer = g.vertices[j][0]
        by_layer[layer] = by_layer.get(layer, 0.0) + float(w)
    if len(by_layer) <= 1:
        return 0.0
    total = sum(by_layer.values())
    entropy = -sum(
        (w / total) * math.log(w / total) for w in by_layer.values() if w > 0
    )
    return entropy / math.log(len(by_layer))


def node_properties(g: ArtifactGraph) -> PropertyMatrix:
    """Interpretable properties, computed straight from the window graph."""
    if len(g) == 0:
        raise EmptyGraphError("cannot compute properties of an empty graph")
    primaries = primary_features(g).values
    eccentricity, betweenness = _eccentricity_betweenness(g)
    values = np.column_stack((
        g.degree,
        primaries[:, PRIMARY_NAMES.index("weighted_degree")],
        _pagerank(g),
        primaries[:, PRIMARY_NAMES.index("transitivity")],  # unweighted clustering
        [_layer_diversity(g, i) for i in range(len(g))],
        eccentricity,
        betweenness,
    ))
    return PropertyMatrix(g.vertices, PROPERTY_NAMES, values)


@dataclass
class RoleDescription:
    """Role-property contributions and their single-role-normalized scores."""

    property_names: tuple[str, ...]
    E: np.ndarray              # n_roles x n_properties, nonnegative
    E_single: np.ndarray       # n_properties, the one-role baseline
    ratios: np.ndarray         # E / E_single (0 where the baseline is 0)
    scores: np.ndarray         # ratios scaled per role to sum 1

    def validate(self) -> None:
        if np.any(self.E < 0) or not np.all(np.isfinite(self.E)):
            raise ValueError("E entries must be nonnegative and finite")


def role_descriptions(G_nr, M_np) -> RoleDescription:
    """Express each role through node properties.

    Each property column is regressed (nonnegatively) onto the training
    memberships, and onto the trivial single-role membership of all ones;
    the ratio says how much more of the property a role carries than an
    undifferentiated average role would.
    """
    G = G_nr.G if isinstance(G_nr, Membership) else np.asarray(G_nr, dtype=float)
    if isinstance(M_np, PropertyMatrix):
        names, M = M_np.names, M_np.values
        if isinstance(G_nr, Membership) and G_nr.nodes != M_np.nodes:
            raise DimensionError("membership and property node lists differ")
    else:
        M = np.asarray(M_np, dtype=float)
        names = tuple(f"p{j}" for j in range(M.shape[1]))
    if G.shape[0] != M.shape[0]:
        raise DimensionError(
            f"memberships cover {G.shape[0]} nodes, properties {M.shape[0]}"
        )

    E = nnls(G, M)
    E_single = nnls(np.ones((G.shape[0], 1)), M)[0]
    ratios = np.divide(E, E_single, out=np.zeros(E.shape), where=E_single > 0)
    row_sums = ratios.sum(axis=1, keepdims=True)
    scores = np.divide(ratios, row_sums, out=np.zeros(ratios.shape), where=row_sums > 0)

    description = RoleDescription(tuple(names), E, E_single, ratios, scores)
    description.validate()
    return description
