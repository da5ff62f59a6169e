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


def assert_same_nnls(A, B):
    """`roles.nnls(A, B)` is `scipy.optimize.nnls(A, b)` of each column b of
    B, bit for bit."""
    X = roles.nnls(A, B)
    assert X.shape == (A.shape[1], B.shape[1])
    for x, b in zip(X.T, B.T):
        assert x.tobytes() == scipy.optimize.nnls(A, b)[0].tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_nnls_matches_scipy_on_random_problems(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 60)), int(rng.integers(1, 12))
    A = rng.gamma(0.5, 2.0, size=(m, n)) * (rng.random((m, n)) < 0.7)
    assert_same_nnls(A, rng.normal(size=(m, 4)))
    assert_same_nnls(A, np.abs(rng.normal(size=(m, 1))))
    assert_same_nnls(A.T.copy().T, np.zeros((m, 3)))  # all-zero rows of features


def test_nnls_matches_scipy_on_a_transposed_basis():
    F = np.random.default_rng(4).gamma(0.5, 3.0, size=(6, 40))
    basis = F.T
    assert basis.flags.f_contiguous and not basis.flags.c_contiguous
    rows = np.random.default_rng(5).gamma(1.0, 4.0, size=(20, 40))
    assert_same_nnls(basis, rows.T)


def test_nnls_matches_scipy_on_trained_feature_rows(
    small_streams, small_trained, tmp_path, monkeypatch
):
    cfg = small_pipeline_config(small_streams, tmp_path)
    alerts, _ = load_records(cfg)
    spec = derive_window_spec(cfg, alerts.times)
    graphs = [training_graph(alerts, spec)[1]]
    graphs += [g for _, _, g in scoring_graphs(alerts, spec)]
    basis = small_trained.model.F.T
    windows = [apply_schema(g, small_trained.schema).values for g in graphs]
    for values in windows:
        assert_same_nnls(basis, values.T)
    assert sum(map(len, windows)) > 100

    # A cap in the last column of a window's matrix still ends the call.
    solve = roles._slsqp_nnls
    values = windows[-1]

    def capped_last(A, b, maxiter):
        x, rnorm, info = solve(A, b, maxiter)
        return x, rnorm, 3 if b.tobytes() == values[-1].tobytes() else info

    monkeypatch.setattr(roles, "_slsqp_nnls", capped_last)
    with pytest.raises(PipelineError, match="iteration cap"):
        roles.nnls(basis, values.T)


def test_nnls_falls_back_to_scipy_when_the_routine_cannot_be_loaded(monkeypatch):
    def fail(*args, **kwargs):
        raise ImportError("no extension")

    monkeypatch.setattr(roles.importlib.util, "spec_from_file_location", fail)
    assert roles._load_slsqp_nnls() is None
    monkeypatch.setattr(roles, "_slsqp_nnls", None)
    rng = np.random.default_rng(9)
    assert_same_nnls(rng.random((30, 5)), rng.normal(size=(30, 3)))


def capped(A, b, maxiter):
    return np.zeros(A.shape[1]), 0.0, 3


def test_nnls_iteration_cap_raises_a_pipeline_error(monkeypatch):
    monkeypatch.setattr(roles, "_slsqp_nnls", capped)
    model = roles.RoleModel(n_roles=2, n_bits=2, F=np.eye(2, 3) + 0.5, seed=0)
    with pytest.raises(PipelineError, match="iteration cap"):
        memberships_fixed_F(np.ones((4, 3)), model)
    with pytest.raises(PipelineError, match="iteration cap"):
        roles.role_descriptions(np.ones((4, 2)), np.ones((4, 3)))


# The per-row and per-property loops that the one-call solves replaced. Each
# sum runs over the same row, so the outputs must match bit for bit, also
# past numpy's 8-wide pairwise-summation block.


def reference_memberships(values, F):
    G = np.zeros((len(values), F.shape[0]))
    for i, row in enumerate(values):
        g = scipy.optimize.nnls(F.T, row)[0]
        total = g.sum()
        G[i] = g / total if total > 0.0 else 1.0 / F.shape[0]
    return G


def reference_descriptions(G, M):
    E = np.zeros((G.shape[1], M.shape[1]))
    E_single = np.zeros(M.shape[1])
    for j in range(M.shape[1]):
        E[:, j] = scipy.optimize.nnls(G, M[:, j])[0]
        E_single[j] = scipy.optimize.nnls(np.ones((len(G), 1)), M[:, j])[0][0]
    ratios = np.zeros_like(E)
    ratios[:, E_single > 0] = E[:, E_single > 0] / E_single[E_single > 0]
    scores = np.zeros_like(ratios)
    for r, total in enumerate(ratios.sum(axis=1)):
        if total > 0:
            scores[r] = ratios[r] / total
    return E, E_single, ratios, scores


@pytest.mark.parametrize("n_roles", [3, 9, 10])
def test_one_call_memberships_and_descriptions_match_the_loops(n_roles):
    rng = np.random.default_rng(n_roles)
    F = rng.gamma(0.5, 2.0, size=(n_roles, 30))
    values = rng.gamma(1.0, 3.0, size=(40, 30)) * (rng.random((40, 30)) < 0.6)
    values[::7] = 0.0  # rows with an all-zero projection
    model = roles.RoleModel(n_roles=n_roles, n_bits=2, F=F, seed=0)
    G = memberships_fixed_F(values, model).G
    assert G.tobytes() == reference_memberships(values, F).tobytes()

    M = rng.gamma(1.0, 2.0, size=(40, n_roles)) * (rng.random((40, n_roles)) < 0.7)
    M[:, 0] = 0.0  # a property with no single-role baseline
    d = roles.role_descriptions(G, M)
    got = (d.E, d.E_single, d.ratios, d.scores)
    for mine, theirs in zip(got, reference_descriptions(G, M)):
        assert np.ascontiguousarray(mine).tobytes() == theirs.tobytes()
