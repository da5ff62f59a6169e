"""Structural feature tests, checked against hand-traced values and a
test-local reference evaluator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artifact.features import (
    AGG_OPS,
    EmptyGraphError,
    FeatureDef,
    FeatureMatrix,
    FeatureSchema,
    PRIMARY_NAMES,
    _aggregates,
    _relative_residual,
    apply_schema,
    fit_schema,
    primary_features,
)
from artifact.ingest import AlertRecord

from conftest import graph_of, link_graph, make_random_records, weighted_graphs


def ring(n):
    verts = [("ip", f"10.0.0.{i}") for i in range(n)]
    return link_graph((verts[i], verts[(i + 1) % n], 1) for i in range(n))


def star(leaves):
    center = ("ip", "10.0.0.0")
    return link_graph((center, ("ip", f"10.0.1.{i}"), 1) for i in range(leaves)), center


def ref_eval_schema(g, schema):
    """Reference evaluator: compute each schema feature directly from the
    graph, without sharing code with the implementation."""
    nodes = g.nodes()
    cols = {}
    for f in schema.features:
        col = np.zeros(len(nodes))
        for i, v in enumerate(nodes):
            nbrs = set(g.neighbors(v))
            if f.depth == 0:
                if f.base == "weighted_degree":
                    col[i] = sum(g.neighbors(v).values())
                elif f.base == "ego_interconnectivity":
                    col[i] = sum(
                        1 for a in nbrs for b in g.neighbors(a) if b in nbrs
                    ) / 2
                elif f.base == "ego_out_degree":
                    ego = nbrs | {v}
                    col[i] = sum(
                        1 for m in ego for b in g.neighbors(m) if b not in ego
                    )
                else:  # transitivity
                    k = len(nbrs)
                    if k < 2:
                        col[i] = 0.0
                    else:
                        among = sum(
                            1 for a in nbrs for b in g.neighbors(a) if b in nbrs
                        ) / 2
                        col[i] = 2.0 * among / (k * (k - 1))
            else:
                parent = cols[f.parent]
                picks = [parent[nodes.index(u)] for u in nbrs]
                if f.op == "neighbor_sum":
                    col[i] = sum(picks)
                else:
                    col[i] = sum(picks) / len(picks) if picks else 0.0
        cols[f.fid] = col
    return np.column_stack([cols[f.fid] for f in schema.features])


# Per-node loops that the array kernels replaced. Their summation order is
# the one the kernels must keep: every value has to match bit for bit.

def loop_primary_columns(g, nodes):
    cols = np.zeros((len(nodes), 4))
    neighbor_sets = {v: set(g.neighbors(v)) for v in nodes}
    for i, v in enumerate(nodes):
        nbrs = neighbor_sets[v]
        k = len(nbrs)
        wdeg = g.weighted_degree(v)
        inter = 0
        for u in nbrs:
            inter += sum(1 for w in neighbor_sets[u] if w in nbrs and w > u)
        ego = nbrs | {v}
        out = sum(1 for m in ego for w in neighbor_sets[m] if w not in ego)
        trans = 2.0 * inter / (k * (k - 1)) if k >= 2 else 0.0
        cols[i] = (wdeg, inter, out, trans)
    return cols


def loop_aggregate(g, nodes, index, column, op):
    out = np.zeros(len(nodes))
    for i, v in enumerate(nodes):
        nbr_idx = [index[u] for u in g.neighbors(v)]
        if not nbr_idx:
            continue
        total = float(column[nbr_idx].sum())
        out[i] = total if op == "neighbor_sum" else total / len(nbr_idx)
    return out


def loop_fit(g, max_depth=3, prune_tolerance=0.01):
    """fit_schema's growth and pruning over the loop evaluator."""
    nodes = g.nodes()
    index = {v: i for i, v in enumerate(nodes)}
    schema = FeatureSchema(prune_tolerance=prune_tolerance, max_depth=max_depth)
    primaries = loop_primary_columns(g, nodes)
    columns = [primaries[:, j] for j in range(4)]
    schema.features = [FeatureDef(j, 0, base=n) for j, n in enumerate(PRIMARY_NAMES)]
    frontier = list(range(4))
    for depth in range(1, max_depth + 1):
        new_frontier = []
        for parent in frontier:
            for op in AGG_OPS:
                candidate = loop_aggregate(g, nodes, index, columns[parent], op)
                if _relative_residual(candidate, np.column_stack(columns)) <= prune_tolerance:
                    continue
                fid = len(schema.features)
                schema.features.append(FeatureDef(fid, depth, op=op, parent=parent))
                columns.append(candidate)
                new_frontier.append(fid)
        if not new_frontier:
            break
        frontier = new_frontier
    return schema, np.column_stack(columns)


def loop_apply(g, schema):
    nodes = g.nodes()
    index = {v: i for i, v in enumerate(nodes)}
    primaries = loop_primary_columns(g, nodes)
    columns = []
    for f in schema.features:
        if f.depth == 0:
            columns.append(primaries[:, PRIMARY_NAMES.index(f.base)])
        else:
            columns.append(loop_aggregate(g, nodes, index, columns[f.parent], f.op))
    return np.column_stack(columns)


@settings(max_examples=40, deadline=None)
@given(train=weighted_graphs(), fresh=weighted_graphs())
def test_kernels_match_the_loops_bit_for_bit(train, fresh):
    schema, fm = fit_schema(train)
    ref_schema, ref_values = loop_fit(train)
    assert schema.dumps() == ref_schema.dumps()
    assert fm.nodes == train.nodes()
    assert np.array_equal(fm.values, ref_values)
    applied = apply_schema(fresh, schema)
    assert applied.nodes == fresh.nodes()
    assert np.array_equal(applied.values, loop_apply(fresh, schema))


@settings(max_examples=40, deadline=None)
@given(g=weighted_graphs(hub_leaves=st.integers(0, 3)))
def test_kernels_match_the_loops_on_small_graphs(g):
    schema, fm = fit_schema(g)
    ref_schema, ref_values = loop_fit(g)
    assert schema.dumps() == ref_schema.dumps()
    assert np.array_equal(fm.values, ref_values)


def hubs(degrees):
    """Hubs of the given degrees over one pool of leaves, the leaves also
    linked in a path, so many degrees from 2 up to the largest occur."""
    leaves = [("leaf", str(i)) for i in range(max(degrees))]
    links = [(leaves[i], leaves[i + 1], 1) for i in range(len(leaves) - 1)]
    for h, d in enumerate(degrees):
        links += [(("hub", str(h)), leaf, 1) for leaf in leaves[:d]]
    return link_graph(links)


# below numpy's 8-wide pairwise block, within its 128-entry block, and past it
@pytest.mark.parametrize("degrees", [[3, 5, 7], [8, 9, 40, 128], [129, 300]])
def test_level_aggregates_match_the_loop_bit_for_bit(degrees):
    g = hubs(degrees)
    nodes = g.nodes()
    index = {v: i for i, v in enumerate(nodes)}
    rng = np.random.default_rng(len(g))
    # six decades of magnitude, so the order of each sum shows in its bits
    parents = rng.random((5, len(g))) * 10.0 ** rng.integers(-3, 3, (5, len(g)))
    got = _aggregates(g, parents)
    for op in AGG_OPS:
        want = [loop_aggregate(g, nodes, index, column, op) for column in parents]
        assert np.array_equal(got[op], want)
    if max(degrees) >= 8:
        # the strided gather `parents[:, at]` reduces in another order
        rows, gathers = g.degree_groups
        strided = np.zeros_like(parents)
        strided[:, rows] = np.concatenate(
            [np.add.reduce(parents[:, at], axis=-1) for at in gathers], axis=1)
        assert not np.array_equal(strided, got["neighbor_sum"])


# --- primaries -----------------------------------------------------------

def test_isolated_node_is_all_zero():
    g = graph_of([AlertRecord("x", 1.0, {"sig_id": "9"})])
    fm = primary_features(g)
    assert fm.nodes == [("signature", "9")]
    assert fm.values.tolist() == [[0.0, 0.0, 0.0, 0.0]]


def test_triangle_with_weight_two():
    rec = AlertRecord(
        "snort", 1.0, {"sig_id": "5", "src_ip": "10.0.0.1", "dst_ip": "10.0.0.2"}
    )
    g = graph_of([rec, rec])
    fm = primary_features(g)
    for row in fm.values:
        assert row.tolist() == [4.0, 1.0, 0.0, 1.0]


def test_transitivity_rises_when_closing_edge_appears():
    ip1, ip2, rule = ("ip", "10.0.0.1"), ("ip", "10.0.0.2"), ("rule", "5503")
    links = [(ip1, rule, 1), (ip1, ip2, 1)]
    before = primary_features(link_graph(links))
    assert before.row_for(ip1)[3] == 0.0

    after = primary_features(link_graph(links + [(rule, ip2, 1)]))
    assert after.row_for(ip1)[3] == 1.0


def test_star_primaries():
    g, center = star(4)
    fm = primary_features(g)
    assert fm.row_for(center).tolist() == [4.0, 0.0, 0.0, 0.0]
    leaf = ("ip", "10.0.1.0")
    # leaf ego-net = {leaf, center}; edges out go to the other three leaves
    assert fm.row_for(leaf).tolist() == [1.0, 0.0, 3.0, 0.0]


# --- fit / prune -----------------------------------------------------------

def test_fit_on_empty_graph_raises():
    with pytest.raises(EmptyGraphError):
        fit_schema(link_graph())


def test_regular_graph_collapses_to_primaries():
    schema, fm = fit_schema(ring(6), max_depth=3)
    assert len(schema) == 4
    assert [f.base for f in schema.features] == list(PRIMARY_NAMES)
    # all six nodes look identical on a ring
    assert np.allclose(fm.values, fm.values[0])


def test_three_node_path_collapses_by_rank():
    # a-b-c: every aggregate is symmetric (x, y, x) and the primaries already
    # span that two-dimensional space, so recursion retains nothing
    a, b, c = ("ip", "a"), ("ip", "b"), ("ip", "c")
    g = link_graph([(a, b, 1), (b, c, 1)])
    schema, fm = fit_schema(g, max_depth=3)
    assert len(schema) == 4
    assert fm.row_for(b).tolist() == [2.0, 0.0, 0.0, 0.0]
    assert fm.row_for(a).tolist() == [1.0, 0.0, 1.0, 0.0]


def test_recursion_retains_features_on_irregular_graph():
    records = make_random_records(seed=3, count=300)
    schema, fm = fit_schema(graph_of(records), max_depth=3)
    assert len(schema) > 4
    assert max(f.depth for f in schema.features) >= 1
    assert fm.values.shape[1] == len(schema)


def test_pruning_soundness():
    g = graph_of(make_random_records(seed=11, count=300))
    schema, fm = fit_schema(g, max_depth=3, prune_tolerance=0.01)
    retained = fm.values
    kept = {(f.op, f.parent) for f in schema.features if f.depth > 0}
    nodes = g.nodes()
    index = {v: i for i, v in enumerate(nodes)}

    max_level = max(f.depth for f in schema.features)
    for f in schema.features:
        if f.depth == max_level and max_level == schema.max_depth:
            continue  # children of the last level were never generated
        for op in AGG_OPS:
            if (op, f.fid) in kept:
                continue
            # rebuild the pruned candidate and confirm it really is within
            # tolerance of the span of everything that was retained
            parent_col = retained[:, f.fid]
            cand = np.zeros(len(nodes))
            for i, v in enumerate(nodes):
                picks = [parent_col[index[u]] for u in g.neighbors(v)]
                total = float(sum(picks))
                cand[i] = (
                    total if op == "neighbor_sum"
                    else (total / len(picks) if picks else 0.0)
                )
            norm = np.linalg.norm(cand)
            if norm == 0:
                continue
            coef, _, _, _ = np.linalg.lstsq(retained, cand, rcond=None)
            rel = np.linalg.norm(cand - retained @ coef) / norm
            assert rel <= schema.prune_tolerance + 1e-12


def test_feature_count_never_exceeds_generation_cap():
    g = graph_of(make_random_records(seed=5, count=400))
    schema, _ = fit_schema(g, max_depth=3)
    assert len(schema) <= 4 + 8 + 16 + 32


def test_fit_is_deterministic():
    records = make_random_records(seed=21, count=250)
    s1, m1 = fit_schema(graph_of(records))
    s2, m2 = fit_schema(graph_of(records))
    assert s1.dumps() == s2.dumps()
    assert np.array_equal(m1.values, m2.values)


# --- apply -----------------------------------------------------------------

def test_apply_reproduces_training_matrix_exactly():
    g = graph_of(make_random_records(seed=8, count=200))
    schema, fm = fit_schema(g)
    again = apply_schema(g, schema)
    assert again.nodes == fm.nodes
    assert np.array_equal(again.values, fm.values)


def test_apply_matches_reference_evaluator_on_fresh_graph():
    schema, _ = fit_schema(graph_of(make_random_records(seed=8, count=200)))
    g2 = graph_of(make_random_records(seed=9, count=150))
    fm = apply_schema(g2, schema)
    assert fm.values.shape == (len(g2), len(schema))
    expected = ref_eval_schema(g2, schema)
    assert np.allclose(fm.values, expected, rtol=1e-12, atol=0)
    fm.validate()


def test_apply_handles_isolated_nodes_with_recursive_schema():
    schema = FeatureSchema(
        features=[FeatureDef(i, 0, base=n) for i, n in enumerate(PRIMARY_NAMES)]
        + [FeatureDef(4, 1, op="neighbor_sum", parent=0),
           FeatureDef(5, 1, op="neighbor_mean", parent=0)],
    )
    g = graph_of([
        AlertRecord("x", 1.0, {"sig_id": "lonely"}),
        AlertRecord("snort", 2.0, {"sig_id": "5", "src_ip": "1.1.1.1", "dst_ip": "2.2.2.2"}),
    ])
    fm = apply_schema(g, schema)
    lonely = fm.row_for(("signature", "lonely"))
    assert lonely.tolist() == [0.0] * 6
    fm.validate()


def test_apply_on_empty_graph_returns_empty_matrix():
    schema, _ = fit_schema(ring(4))
    fm = apply_schema(link_graph(), schema)
    assert fm.nodes == [] and fm.values.shape == (0, len(schema))


def test_values_finite_and_nonnegative_on_assorted_graphs():
    graphs = [
        ring(5),
        star(6)[0],
        graph_of(make_random_records(seed=2, count=120)),
    ]
    for g in graphs:
        schema, fm = fit_schema(g, max_depth=3)
        fm.validate()
        assert np.all(fm.values >= 0)
        assert np.all(np.isfinite(fm.values))


# --- schema serialization ----------------------------------------------------

@pytest.mark.parametrize("deeper, message", [
    ([FeatureDef(4, 2, op="neighbor_sum", parent=0)], "not a feature one level up"),
    ([FeatureDef(4, 1, op="neighbor_sum", parent=0),
      FeatureDef(5, 2, op="neighbor_sum", parent=4),
      FeatureDef(6, 1, op="neighbor_mean", parent=1)], "comes after a deeper feature"),
])
def test_schema_rejects_features_out_of_level_order(deeper, message):
    """`apply_schema` computes a level at a time from the level above, so a
    schema must list its features by level, as `fit_schema` grows them."""
    schema = FeatureSchema(
        features=[FeatureDef(i, 0, base=n) for i, n in enumerate(PRIMARY_NAMES)] + deeper)
    with pytest.raises(ValueError, match=message):
        schema.validate()


def test_schema_round_trip():
    schema, _ = fit_schema(graph_of(make_random_records(seed=15, count=200)))
    text = schema.dumps()
    back = FeatureSchema.loads(text)
    assert back == schema
    assert back.dumps() == text


def test_schema_rejects_garbage():
    with pytest.raises(ValueError):
        FeatureSchema.loads("not a schema\n")
