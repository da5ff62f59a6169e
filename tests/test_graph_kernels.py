"""The numpy graph kernels and the loaded NNLS routine against the scipy code
they replaced. Every primary feature, PageRank value, eccentricity and
betweenness has to match the sparse-matrix references bit for bit, and the
NNLS solution has to match `scipy.optimize.nnls`."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from scipy.sparse import csr_array, diags_array

import artifact.roles as roles
from artifact.features import _primary_columns
from artifact.pipeline import (
    PipelineError,
    apply_schema,
    derive_window_spec,
    load_records,
    scoring_graphs,
    training_graph,
)
from artifact.roles import _eccentricity_betweenness, _pagerank, memberships_fixed_F

from conftest import link_graph, small_pipeline_config, weighted_graphs

# The scipy.sparse kernels the numpy ones replaced. Their products and
# summation orders are the ones the kernels must keep.


def ref_matrix(g, data):
    n = len(g)
    return csr_array((data, g.indices.copy(), g.indptr), shape=(n, n))


def ref_primary_columns(g):
    A = ref_matrix(g, np.ones(len(g.indices), dtype=np.int64))
    k = g.degree
    wdeg = ref_matrix(g, g.weights).sum(axis=1)
    inter = (A @ A).multiply(A).sum(axis=1) // 2
    out = A @ k - k - 2 * inter
    trans = np.divide(2.0 * inter, k * (k - 1), out=np.zeros(len(k)), where=k >= 2)
    return np.column_stack((wdeg, inter, out, trans))


def ref_pagerank(g, alpha=0.85, tol=1e-8, max_iter=1000):
    n = len(g)
    A = ref_matrix(g, g.weights.astype(float))
    S = A.sum(axis=1)
    S[S != 0] = 1.0 / S[S != 0]
    A = diags_array(S).tocsr() @ A
    x = np.repeat(1.0 / n, n)
    p = np.repeat(1.0 / n, n)
    dangling = np.where(S == 0)[0]
    for _ in range(max_iter):
        xlast = x
        x = alpha * (x @ A + sum(x[dangling]) * p) + (1 - alpha) * p
        if np.absolute(x - xlast).sum() < n * tol:
            return x
    raise ArithmeticError


def ref_eccentricity_betweenness(g, block=roles._BFS_BLOCK):
    n = len(g)
    A = ref_matrix(g, np.ones(len(g.indices)))
    eccentricity = np.zeros(n)
    betweenness = np.zeros(n)
    for start in range(0, n, block):
        sources = np.arange(start, min(start + block, n))
        cols = np.arange(len(sources))
        dist = np.full((n, len(sources)), -1)
        sigma = np.zeros((n, len(sources)))
        dist[sources, cols] = 0
        sigma[sources, cols] = 1.0
        frontier = dist == 0
        level = 0
        while frontier.any():
            paths = A @ np.where(frontier, sigma, 0.0)
            frontier = (paths > 0) & (dist < 0)
            level += 1
            dist[frontier] = level
            sigma[frontier] = paths[frontier]
        eccentricity[sources] = dist.max(axis=0)
        delta = np.zeros_like(sigma)
        for lv in range(level - 2, 0, -1):
            ahead = dist == lv + 1
            coeff = np.zeros_like(sigma)
            coeff[ahead] = (1.0 + delta[ahead]) / sigma[ahead]
            pulled = A @ coeff
            at = dist == lv
            delta[at] = sigma[at] * pulled[at]
        betweenness += delta.sum(axis=1)
    return eccentricity, betweenness / 2.0


def assert_same_kernels(g):
    assert np.array_equal(_primary_columns(g), ref_primary_columns(g))
    assert np.array_equal(_pagerank(g), ref_pagerank(g))
    got, want = _eccentricity_betweenness(g), ref_eccentricity_betweenness(g)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


# -- graph kernels ----------------------------------------------------------------


@given(weighted_graphs())
@settings(max_examples=60, deadline=None)
def test_kernels_match_the_sparse_products(g):
    assert_same_kernels(g)


def random_graph(n, seed, links_per_node=6, isolated=0):
    """n linked vertices in a shuffled insertion order plus `isolated`
    vertices without edges."""
    rng = np.random.default_rng(seed)
    links = [(("v", str(i)), ("v", str(j)), int(w))
             for i, j, w in zip(rng.integers(0, n, n * links_per_node),
                                rng.integers(0, n, n * links_per_node),
                                rng.integers(1, 9, n * links_per_node))
             if i != j]
    links += [(("v", str(i)), ("v", str(i + 1)), 1) for i in range(n - 1)]
    order = rng.permutation(len(links))
    return link_graph([links[i] for i in order],
                      [("lonely", str(i)) for i in range(isolated)])


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [65, 129])
def test_kernels_match_with_a_one_source_last_block(n, seed):
    """n = 1 (mod 64): the last BFS block holds one source, whose column
    numpy would sum pairwise, and so differently from a CSR product once a
    row has eight or more neighbors."""
    g = random_graph(n, seed)
    assert len(g) % roles._BFS_BLOCK == 1
    assert_same_kernels(g)


def test_kernels_match_with_isolated_vertices():
    g = random_graph(40, seed=3, isolated=5)
    assert (g.degree == 0).sum() == 5
    assert_same_kernels(g)


def test_kernels_match_around_a_hub():
    """A hub of degree 100, past numpy's eight-way unrolled sums, whose
    leaves also link to one another and to a small core."""
    rng = np.random.default_rng(11)
    links = [(("hub", "h"), ("leaf", str(i)), int(rng.integers(1, 9))) for i in range(100)]
    links += [(("leaf", str(i)), ("leaf", str(i + 1)), 2) for i in range(0, 100, 3)]
    links += [(("leaf", str(i)), ("core", str(i % 4)), 1) for i in range(0, 100, 7)]
    g = link_graph([links[i] for i in rng.permutation(len(links))])
    assert g.degree.max() > 64
    assert_same_kernels(g)


# -- NNLS -------------------------------------------------------------------------


def test_nnls_routine_is_loaded_without_the_optimize_package():
    assert roles._slsqp_nnls is not None


def assert_same_nnls(A, b):
    assert np.array_equal(roles.nnls(A, b), scipy.optimize.nnls(A, b)[0])


@pytest.mark.parametrize("seed", range(20))
def test_nnls_matches_scipy_on_random_problems(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 60)), int(rng.integers(1, 12))
    A = rng.gamma(0.5, 2.0, size=(m, n)) * (rng.random((m, n)) < 0.7)
    assert_same_nnls(A, rng.normal(size=m))
    assert_same_nnls(A, np.abs(rng.normal(size=m)))
    assert_same_nnls(A.T.copy().T, np.zeros(m))  # an all-zero row of features


def test_nnls_matches_scipy_on_a_transposed_basis():
    F = np.random.default_rng(4).gamma(0.5, 3.0, size=(6, 40))
    basis = F.T
    assert basis.flags.f_contiguous and not basis.flags.c_contiguous
    for row in np.random.default_rng(5).gamma(1.0, 4.0, size=(20, 40)):
        assert_same_nnls(basis, row)


def test_nnls_matches_scipy_on_trained_feature_rows(small_streams, small_trained, tmp_path):
    cfg = small_pipeline_config(small_streams, tmp_path)
    alerts, _ = load_records(cfg)
    spec = derive_window_spec(cfg, alerts.times)
    graphs = [training_graph(alerts, spec)[1]]
    graphs += [g for _, _, g in scoring_graphs(alerts, spec)]
    basis = small_trained.model.F.T
    rows = 0
    for g in graphs:
        for row in apply_schema(g, small_trained.schema).values:
            assert_same_nnls(basis, row)
            rows += 1
    assert rows > 100


def test_nnls_falls_back_to_scipy_when_the_routine_cannot_be_loaded(monkeypatch):
    def fail(*args, **kwargs):
        raise ImportError("no extension")

    monkeypatch.setattr(roles.importlib.util, "spec_from_file_location", fail)
    assert roles._load_slsqp_nnls() is None
    monkeypatch.setattr(roles, "_slsqp_nnls", None)
    rng = np.random.default_rng(9)
    A, b = rng.random((30, 5)), rng.normal(size=30)
    assert np.array_equal(roles.nnls(A, b), scipy.optimize.nnls(A, b)[0])


def capped(A, b, maxiter):
    return np.zeros(A.shape[1]), 0.0, 3


def test_nnls_iteration_cap_raises_a_pipeline_error(monkeypatch):
    monkeypatch.setattr(roles, "_slsqp_nnls", capped)
    model = roles.RoleModel(n_roles=2, n_bits=2, F=np.eye(2, 3) + 0.5, seed=0)
    with pytest.raises(PipelineError, match="iteration cap"):
        memberships_fixed_F(np.ones((4, 3)), model)
    with pytest.raises(PipelineError, match="iteration cap"):
        roles.role_descriptions(np.ones((4, 2)), np.ones((4, 3)))
