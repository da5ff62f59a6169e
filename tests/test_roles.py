"""Role module tests: factorization, quantization, MDL selection, fixed-role
memberships, node properties, and role descriptions — each checked against an
analytic or exhaustive oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import link_graph, weighted_graphs
from artifact.features import EmptyGraphError
from artifact.pipeline import _role_csv
from artifact.roles import (
    DimensionError,
    Membership,
    NonNegativityError,
    PROPERTY_NAMES,
    RoleModel,
    SchemaMismatchError,
    description_length,
    generalized_kl,
    grid_csv,
    memberships_fixed_F,
    nmf_kl,
    node_properties,
    quantize,
    role_descriptions,
    select_model,
)


def planted_three_role_matrix(seed, n_nodes=40, n_features=30):
    """Well-separated 3-role product: block-structured F, near-one-hot G."""
    rng = np.random.default_rng(seed)
    block = n_features // 3
    F0 = rng.uniform(0.0, 0.2, size=(3, n_features))
    for k in range(3):
        F0[k, k * block:(k + 1) * block] = rng.uniform(5.0, 10.0, size=block)
    G0 = rng.uniform(0.0, 0.05, size=(n_nodes, 3))
    for i in range(n_nodes):
        G0[i, i % 3] = rng.uniform(0.8, 1.0)
    return G0 @ F0, G0, F0


# --- generalized KL ----------------------------------------------------------

def test_kl_of_identical_matrices_is_zero():
    rng = np.random.default_rng(0)
    V = rng.uniform(0, 5, size=(6, 4))
    assert generalized_kl(V, V) == 0.0


def test_kl_hand_value():
    # sum(v*log(v/w) - v + w) on a single cell: 2*ln2 - 2 + 1
    got = generalized_kl(np.array([[2.0]]), np.array([[1.0]]))
    assert got == pytest.approx(2 * math.log(2) - 1, abs=1e-12)


def test_kl_is_nonnegative_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(20):
        V = rng.uniform(0, 3, size=(8, 5))
        W = rng.uniform(0.01, 3, size=(8, 5))
        assert generalized_kl(V, W) >= -1e-12


def test_kl_zero_entries_contribute_only_w():
    V = np.array([[0.0, 0.0]])
    W = np.array([[0.7, 1.3]])
    assert generalized_kl(V, W) == pytest.approx(2.0, abs=1e-12)


def test_kl_shape_mismatch():
    with pytest.raises(DimensionError):
        generalized_kl(np.zeros((2, 2)), np.zeros((2, 3)))


# --- nmf_kl -------------------------------------------------------------------

def test_nmf_recovers_exact_factor_product():
    rng = np.random.default_rng(0)
    G0 = rng.uniform(0.5, 2.0, size=(30, 3))
    F0 = rng.uniform(0.5, 2.0, size=(3, 12))
    V = G0 @ F0
    res = nmf_kl(V, 3, seed=0, max_iter=3000, tol=0.0)
    assert res.history[-1] < 1e-6 * V.sum()
    assert np.all(res.G >= 0) and np.all(res.F >= 0)


def test_nmf_rank_one_matches_analytic_optimum():
    # for r=1 the KL-optimal reconstruction is outer(row sums, col sums)/total
    rng = np.random.default_rng(3)
    V = rng.uniform(0.1, 4.0, size=(12, 7))
    best = np.outer(V.sum(axis=1), V.sum(axis=0)) / V.sum()
    d_opt = generalized_kl(V, best)
    res = nmf_kl(V, 1, seed=5, max_iter=2000, tol=0.0)
    assert res.history[-1] == pytest.approx(d_opt, rel=1e-6, abs=1e-9)


def test_nmf_all_zero_input():
    res = nmf_kl(np.zeros((5, 4)), 2)
    assert np.all(res.G == 0) and np.all(res.F == 0)
    assert res.history == [0.0]


def test_nmf_objective_never_increases():
    rng = np.random.default_rng(42)
    for seed in range(10):
        V = rng.uniform(0, 10, size=(20, 8))
        res = nmf_kl(V, 4, seed=seed, max_iter=80, tol=0.0)
        for before, after in zip(res.history, res.history[1:]):
            assert after - before <= 1e-10 * max(abs(before), 1.0)


def test_nmf_is_deterministic_per_seed():
    V = np.random.default_rng(7).uniform(0, 5, size=(15, 6))
    a = nmf_kl(V, 3, seed=11, max_iter=50, tol=0.0)
    b = nmf_kl(V, 3, seed=11, max_iter=50, tol=0.0)
    assert np.array_equal(a.G, b.G) and np.array_equal(a.F, b.F)
    assert a.history == b.history


def test_nmf_rejects_bad_rank_and_negative_input():
    V = np.ones((4, 3))
    with pytest.raises(DimensionError):
        nmf_kl(V, 0)
    with pytest.raises(DimensionError):
        nmf_kl(V, 4)  # exceeds min(4, 3)
    with pytest.raises(NonNegativityError):
        nmf_kl(np.array([[1.0, -0.5]]), 1)


def test_nmf_early_stop_on_tolerance():
    V = np.random.default_rng(9).uniform(1, 2, size=(10, 5))
    res = nmf_kl(V, 2, seed=1, max_iter=5000, tol=1e-4)
    assert res.n_iter < 5000


# --- quantize ------------------------------------------------------------------

def test_quantize_exact_when_few_distinct_values():
    rng = np.random.default_rng(2)
    matrix = rng.choice([1.0, 2.0, 3.0, 4.0], size=(10, 6))
    q, codebook = quantize(matrix, 2)
    assert np.array_equal(q, matrix)
    assert len(codebook) == 4


def test_quantized_entries_all_in_codebook():
    rng = np.random.default_rng(4)
    matrix = rng.uniform(0, 10, size=(20, 5))
    q, codebook = quantize(matrix, 3)
    assert np.all(np.isin(q, codebook))
    assert q.shape == matrix.shape


def test_quantize_one_bit_matches_two_means_oracle():
    rng = np.random.default_rng(6)
    matrix = rng.integers(0, 11, size=(12, 8)).astype(float)
    q, _ = quantize(matrix, 1)
    distortion = float(np.sum((q - matrix) ** 2))

    # exhaustive 2-means: try every split point of the sorted multiset
    values = np.sort(matrix.ravel())
    best = math.inf
    for cut in range(1, len(values)):
        left, right = values[:cut], values[cut:]
        sse = float(np.sum((left - left.mean()) ** 2)
                    + np.sum((right - right.mean()) ** 2))
        best = min(best, sse)
    assert distortion == pytest.approx(best, rel=1e-12, abs=1e-9)


def test_quantize_constant_matrix():
    q, codebook = quantize(np.full((3, 3), 7.0), 2)
    assert np.all(q == 7.0)
    assert np.all(codebook == 7.0)


def test_quantize_rejects_bad_input():
    with pytest.raises(ValueError):
        quantize(np.ones((2, 2)), 0)
    with pytest.raises(NonNegativityError):
        quantize(np.array([[-1.0]]), 1)


# --- description length ---------------------------------------------------------

def test_error_cost_zero_for_already_quantized_exact_factors():
    rng = np.random.default_rng(8)
    G = rng.choice([1.0, 2.0], size=(10, 2))
    F = rng.choice([1.0, 3.0], size=(2, 6))
    V = G @ F
    m, e, total = description_length(V, G, F, bits=2)
    assert e == 0.0
    assert total == m


def test_model_cost_formula_exact():
    cases = [(10, 6, 2, 1), (40, 30, 3, 4), (263, 112, 3, 3)]
    for n, f, r, bits in cases:
        rng = np.random.default_rng(n)
        G = rng.uniform(0, 1, size=(n, r))
        F = rng.uniform(0, 1, size=(r, f))
        m, _, _ = description_length(G @ F, G, F, bits)
        assert m == bits * r * (n + f)
    # the 263-node, 112-feature, 3-role, 3-bit point costs exactly 3375 bits
    rng = np.random.default_rng(0)
    G = rng.uniform(0, 1, size=(263, 3))
    F = rng.uniform(0, 1, size=(3, 112))
    m, _, _ = description_length(G @ F, G, F, 3)
    assert m == 3375.0


def test_model_cost_linear_in_bits():
    rng = np.random.default_rng(5)
    G = rng.uniform(0, 1, size=(9, 2))
    F = rng.uniform(0, 1, size=(2, 7))
    V = G @ F
    m1, _, _ = description_length(V, G, F, 2)
    m2, _, _ = description_length(V, G, F, 4)
    assert m2 == 2 * m1


def test_description_length_shape_check():
    with pytest.raises(DimensionError):
        description_length(np.ones((4, 3)), np.ones((4, 2)), np.ones((3, 3)), 2)


# --- select_model ----------------------------------------------------------------

def test_rank_one_matrix_selects_one_role():
    rng = np.random.default_rng(10)
    V = np.outer(rng.uniform(1, 5, 25), rng.uniform(1, 5, 12))
    model, grid = select_model(V, r_range=range(1, 5), b_range=range(1, 5), seed=0)
    assert model.n_roles == 1


def test_planted_three_roles_recovered():
    hits = 0
    for seed in range(3):
        V, _, _ = planted_three_role_matrix(seed)
        model, _ = select_model(V, r_range=range(1, 7), b_range=range(1, 7),
                                seed=seed)
        hits += model.n_roles == 3
    assert hits == 3


def test_grid_is_complete_and_selection_is_its_minimum():
    rng = np.random.default_rng(12)
    V = rng.uniform(0, 5, size=(18, 9))
    r_range, b_range = range(1, 5), range(1, 4)
    model, grid = select_model(V, r_range=r_range, b_range=b_range, seed=3)
    assert len(grid) == len(r_range) * len(b_range)
    assert all(np.isfinite(p.total) for p in grid)
    # tie-break scan: smallest total, then smallest r, then smallest b
    best = min(grid, key=lambda p: (p.total, p.r, p.b))
    assert (model.n_roles, model.n_bits) == (best.r, best.b)
    for p in grid:
        assert p.model_cost == p.b * p.r * (18 + 9)


def test_select_model_skips_infeasible_ranks():
    rng = np.random.default_rng(13)
    V = rng.uniform(0.5, 2, size=(5, 30))
    model, grid = select_model(V, r_range=range(1, 11), b_range=[2], seed=0)
    assert max(p.r for p in grid) == 5
    with pytest.raises(DimensionError):
        select_model(V, r_range=[20], b_range=[2], seed=0)


def test_grid_csv_export():
    rng = np.random.default_rng(14)
    V = rng.uniform(0, 2, size=(8, 6))
    _, grid = select_model(V, r_range=range(1, 3), b_range=range(1, 3), seed=1)
    lines = grid_csv(grid).splitlines()
    assert lines[0] == "roles,bits,model_cost,error_cost,total"
    assert len(lines) == 1 + len(grid)
    r, b, m, e, total = lines[1].split(",")
    assert float(m) + float(e) == pytest.approx(float(total))


# --- memberships under fixed F ---------------------------------------------------

def orthogonal_role_model(n_features=12, n_roles=3):
    F = np.zeros((n_roles, n_features))
    width = n_features // n_roles
    for k in range(n_roles):
        F[k, k * width:(k + 1) * width] = np.linspace(1.0, 2.0, width)
    return RoleModel(n_roles=n_roles, n_bits=3, F=F, seed=0)


def test_membership_concentrates_on_matching_role():
    model = orthogonal_role_model()
    for k in range(3):
        for scale in (1.0, 0.25, 40.0):
            V = (scale * model.F[k])[None, :]
            mem = memberships_fixed_F(V, model)
            assert mem.G[0, k] >= 1 - 1e-6


def test_zero_row_gets_uniform_membership():
    model = orthogonal_role_model()
    mem = memberships_fixed_F(np.zeros((2, 12)), model)
    assert np.allclose(mem.G, 1.0 / 3.0)


def test_planted_memberships_recovered():
    rng = np.random.default_rng(20)
    F = rng.uniform(0.5, 3.0, size=(3, 15))  # full row rank w.h.p.
    assert np.linalg.matrix_rank(F) == 3
    G0 = rng.uniform(0.0, 1.0, size=(25, 3))
    G0 /= G0.sum(axis=1, keepdims=True)
    V = G0 @ F
    model = RoleModel(n_roles=3, n_bits=3, F=F, seed=0)
    mem = memberships_fixed_F(V, model)
    assert np.max(np.abs(mem.G - G0)) < 1e-6


def test_membership_scale_covariance():
    rng = np.random.default_rng(21)
    model = orthogonal_role_model()
    V = rng.uniform(0, 2, size=(6, 12))
    a = memberships_fixed_F(V, model)
    b = memberships_fixed_F(V * 137.0, model)
    assert np.allclose(a.G, b.G, atol=1e-12)


def test_membership_rows_are_distributions():
    rng = np.random.default_rng(22)
    model = orthogonal_role_model()
    mem = memberships_fixed_F(rng.uniform(0, 5, size=(30, 12)), model)
    mem.validate()
    assert np.all(mem.G >= 0)
    assert np.allclose(mem.G.sum(axis=1), 1.0, atol=1e-9)


def test_membership_schema_checks():
    model = orthogonal_role_model()
    with pytest.raises(SchemaMismatchError):
        memberships_fixed_F(np.zeros((2, 5)), model)


# --- node properties ----------------------------------------------------------------

def star_graph(leaves, weight=1):
    center = ("ip", "10.0.0.0")
    return link_graph((center, ("ip", f"10.0.1.{i}"), weight) for i in range(leaves)), center


def test_star_center_properties():
    g, center = star_graph(4)
    props = node_properties(g)
    row = dict(zip(props.names, props.row_for(center)))
    assert row["degree"] == 4
    assert row["weighted_degree"] == 4
    assert row["eccentricity"] == 1
    assert row["transitivity"] == 0
    # center lies on the unique shortest path of each of the C(4,2) leaf pairs
    assert row["betweenness"] == 6.0
    leaf = dict(zip(props.names, props.row_for(("ip", "10.0.1.0"))))
    assert leaf["eccentricity"] == 2
    assert leaf["betweenness"] == 0.0


def test_pagerank_sums_to_one():
    g, _ = star_graph(5)
    props = node_properties(g)
    assert props.column("pagerank").sum() == pytest.approx(1.0, abs=1e-6)
    assert np.all(props.values >= 0)


def test_triangle_symmetry():
    a, b, c = ("ip", "a"), ("ip", "b"), ("ip", "c")
    g = link_graph([(a, b, 2), (b, c, 2), (a, c, 2)])
    props = node_properties(g)
    assert np.allclose(props.values, props.values[0])
    row = dict(zip(props.names, props.values[0]))
    assert row["transitivity"] == 1.0
    assert row["weighted_degree"] == 4.0


def test_diversity_is_layer_entropy():
    ip, sig, rule = ("ip", "10.0.0.1"), ("signature", "215"), ("rule", "5503")
    g = link_graph([(ip, sig, 1), (ip, rule, 1)])
    props = node_properties(g)
    # two neighbor layers, equal weight: maximal entropy = 1.0
    assert props.row_for(ip)[props.names.index("diversity")] == pytest.approx(1.0)
    # neighbors of sig are all in one layer: zero diversity
    assert props.row_for(sig)[props.names.index("diversity")] == 0.0


def test_weighted_degree_differs_from_degree():
    g, center = star_graph(3, weight=5)
    props = node_properties(g)
    row = dict(zip(props.names, props.row_for(center)))
    assert row["degree"] == 3
    assert row["weighted_degree"] == 15


def test_properties_of_empty_graph_raise():
    with pytest.raises(EmptyGraphError):
        node_properties(link_graph())


def test_disconnected_graph_gets_per_component_eccentricity():
    a, c = ("ip", "a"), ("rule", "c")
    g = link_graph([(a, ("ip", "b"), 1)], isolated=[c])
    props = node_properties(g)
    assert props.row_for(a)[props.names.index("eccentricity")] == 1
    assert props.row_for(c)[props.names.index("eccentricity")] == 0


def networkx_properties(g):
    """degree, weighted_degree, pagerank, transitivity, eccentricity and
    betweenness as networkx computes them."""
    nx = pytest.importorskip("networkx")
    nxg = nx.Graph()
    nxg.add_nodes_from(g.nodes())
    for u, v, w in g.edges():
        nxg.add_edge(u, v, weight=float(w))
    pagerank = nx.pagerank(nxg, alpha=0.85, weight="weight", tol=1e-8, max_iter=1000)
    clustering = nx.clustering(nxg)
    betweenness = nx.betweenness_centrality(nxg, normalized=False)
    eccentricity = {}
    for comp in nx.connected_components(nxg):
        eccentricity.update(nx.eccentricity(nxg.subgraph(comp)))
    return {
        "degree": [nxg.degree(v) for v in g.nodes()],
        "weighted_degree": [nxg.degree(v, weight="weight") for v in g.nodes()],
        "pagerank": [pagerank[v] for v in g.nodes()],
        "transitivity": [clustering[v] for v in g.nodes()],
        "eccentricity": [eccentricity[v] for v in g.nodes()],
        "betweenness": [betweenness[v] for v in g.nodes()],
    }


@settings(max_examples=40, deadline=None)
@given(g=weighted_graphs(hub_leaves=st.integers(0, 140)))
def test_properties_match_networkx(g):
    props = node_properties(g)
    expected = networkx_properties(g)
    assert props.nodes == g.nodes()
    for name in ("degree", "weighted_degree", "pagerank", "transitivity", "eccentricity"):
        assert np.array_equal(props.column(name), np.asarray(expected[name], dtype=float)), name
    assert np.allclose(props.column("betweenness"), expected["betweenness"],
                       rtol=1e-12, atol=0)


# --- role descriptions ----------------------------------------------------------------

def test_single_role_ratios_are_one():
    rng = np.random.default_rng(30)
    G = np.ones((20, 1))
    M = rng.uniform(0.5, 3.0, size=(20, 4))
    desc = role_descriptions(G, M)
    assert np.allclose(desc.ratios, 1.0, atol=1e-9)


def test_planted_high_betweenness_role_is_described_by_it():
    rng = np.random.default_rng(31)
    n_per = 10
    G = np.zeros((3 * n_per, 3))
    for k in range(3):
        G[k * n_per:(k + 1) * n_per, k] = 1.0
    M = rng.uniform(0.9, 1.1, size=(3 * n_per, len(PROPERTY_NAMES)))
    betw = PROPERTY_NAMES.index("betweenness")
    M[:n_per, betw] *= 10.0  # role 0 nodes carry 10x betweenness
    desc = role_descriptions(G, np.asarray(M))
    assert desc.scores[0].argmax() == betw
    assert np.all(desc.E >= 0)


def test_description_scores_sum_to_one_per_role():
    rng = np.random.default_rng(32)
    G = rng.uniform(0, 1, size=(15, 2))
    G /= G.sum(axis=1, keepdims=True)
    M = rng.uniform(0.1, 2.0, size=(15, 5))
    desc = role_descriptions(G, M)
    assert np.allclose(desc.scores.sum(axis=1), 1.0, atol=1e-9)


def test_description_node_count_mismatch():
    with pytest.raises(DimensionError):
        role_descriptions(np.ones((4, 2)), np.ones((5, 3)))


def test_description_csv():
    desc = role_descriptions(np.ones((6, 1)), np.full((6, 3), 2.0))
    lines = _role_csv(desc.property_names, desc.scores).splitlines()
    assert lines[0] == "role,p0,p1,p2"
    assert len(lines) == 2
