"""Co-occurrence graph tests, checked against a brute-force pair counter and
a dict-of-dicts reference."""

import itertools
import random

from hypothesis import example, given, settings, strategies as st

from artifact.graph import build_graph, graph_summary
from artifact.ingest import AlertRecord, layer_for

from conftest import assert_same_graph, graph_of, make_random_records, reference_adjacency


def brute_force_counts(records):
    """Independent pair counter: enumerate key pairs per record directly."""
    weights = {}
    vertices = set()
    for rec in records:
        items = [(layer_for(k), v) for k, v in rec.fields.items()]
        vertices.update(items)
        for (a, b) in itertools.combinations(items, 2):
            if a == b:
                continue
            key = (min(a, b), max(a, b))
            weights[key] = weights.get(key, 0.0) + 1.0
    return vertices, weights


def graph_as_dict(g):
    return {(u, v): w for u, v, w in g.edges()}


# --- the two-alert fusion fixture ---------------------------------------------

SNORT_REC = AlertRecord(
    "snort", 100.0,
    {"sig_id": "215", "src_ip": "10.10.255.77", "dst_ip": "10.10.255.254"},
)
OSSEC_REC = AlertRecord(
    "ossec", 200.0,
    {"rule_id": "5503", "logfile": "/var/log/auth.log", "src_ip": "10.10.255.77"},
)


def test_two_alert_fusion_fixture():
    g = graph_of([SNORT_REC, OSSEC_REC])

    expected_vertices = {
        ("signature", "215"),
        ("ip", "10.10.255.77"),
        ("ip", "10.10.255.254"),
        ("rule", "5503"),
        ("logfile", "/var/log/auth.log"),
    }
    assert set(g.nodes()) == expected_vertices
    assert len(g) == 5

    shared = ("ip", "10.10.255.77")
    expected_edges = {
        tuple(sorted([("signature", "215"), shared])): 1.0,
        tuple(sorted([("signature", "215"), ("ip", "10.10.255.254")])): 1.0,
        tuple(sorted([shared, ("ip", "10.10.255.254")])): 1.0,
        tuple(sorted([("rule", "5503"), ("logfile", "/var/log/auth.log")])): 1.0,
        tuple(sorted([("rule", "5503"), shared])): 1.0,
        tuple(sorted([("logfile", "/var/log/auth.log"), shared])): 1.0,
    }
    assert graph_as_dict(g) == expected_edges
    assert g.edge_count == 6
    assert g.weighted_degree(shared) == 4.0

    summary = graph_summary(g)
    assert summary.node_count == 5
    assert summary.edge_count == 6
    assert summary.total_weight == 6.0
    assert summary.layer_counts == {"ip": 2, "signature": 1, "rule": 1, "logfile": 1}


def test_repeating_fixture_scales_weights_not_nodes():
    for k in (2, 5):
        g = graph_of([SNORT_REC, OSSEC_REC] * k)
        assert len(g) == 5
        assert g.edge_count == 6
        assert g.total_weight == 6.0 * k
        assert all(w == float(k) for _, _, w in g.edges())


def test_empty_input_gives_empty_graph():
    g = graph_of([])
    assert len(g) == 0
    assert g.edge_count == 0
    assert list(g.edges()) == []
    summary = graph_summary(g)
    assert summary.node_count == 0 and summary.total_weight == 0.0


def test_same_vertex_pair_is_skipped_no_self_loop():
    rec = AlertRecord(
        "snort", 1.0, {"sig_id": "7", "src_ip": "10.0.0.1", "dst_ip": "10.0.0.1"}
    )
    g = graph_of([rec])
    assert len(g) == 2  # signature + the single collapsed ip vertex
    assert g.edge_count == 1
    assert g.weight(("ip", "10.0.0.1"), ("ip", "10.0.0.1")) == 0.0
    # the sig pairs with the ip via both keys: one unordered key pair each
    assert g.weight(("signature", "7"), ("ip", "10.0.0.1")) == 2.0


def test_graph_matches_brute_force_on_random_corpus():
    records = make_random_records(seed=7, count=500)
    g = graph_of(records)
    vertices, weights = brute_force_counts(records)
    assert set(g.nodes()) == vertices
    assert graph_as_dict(g) == weights

    # weight conservation: each record with m distinct keys contributes
    # C(m,2) minus the same-vertex pairs it had to skip
    expected_total = 0.0
    for rec in records:
        items = [(layer_for(k), v) for k, v in rec.fields.items()]
        m = len(items)
        skipped = sum(
            1 for a, b in itertools.combinations(items, 2) if a == b
        )
        expected_total += m * (m - 1) / 2 - skipped
    assert g.total_weight == expected_total


def test_build_graph_is_order_invariant():
    records = make_random_records(seed=13, count=200)
    g1 = graph_of(records)
    shuffled = records[:]
    random.Random(99).shuffle(shuffled)
    g2 = graph_of(shuffled)
    assert g1 == g2
    assert graph_as_dict(g1) == graph_as_dict(g2)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_graphs_always_match_brute_force(seed):
    records = make_random_records(seed=seed, count=40)
    g = graph_of(records)
    vertices, weights = brute_force_counts(records)
    assert set(g.nodes()) == vertices
    assert graph_as_dict(g) == weights


def test_neighbors_and_weighted_degree():
    g = graph_of([SNORT_REC])
    sig = ("signature", "215")
    assert set(g.neighbors(sig)) == {("ip", "10.10.255.77"), ("ip", "10.10.255.254")}
    assert g.weighted_degree(sig) == 2.0
    assert g.weighted_degree(("ip", "10.10.255.77")) == 2.0


# --- compressed rows against the dict-of-dicts reference -----------------------

# src_ip and dst_ip share the value pool, so some pairs collapse to one
# vertex; "1" is both a signature and a rule, two distinct vertices.
FIELD_TUPLES = st.dictionaries(
    st.sampled_from(["src_ip", "dst_ip", "sig_id", "rule_id", "logfile"]),
    st.sampled_from(["1", "2", "10.0.0.1", "10.0.0.2"]),
    min_size=1,
    max_size=4,
).map(lambda fields: tuple(fields.items()))


@st.composite
def field_counts(draw):
    """Distinct tuples drawn from a small pool, so tuples repeat, with counts
    past 2**32; sometimes a hub signature with more than 128 neighbors, its
    tuples shuffled among the others."""
    pool = draw(st.lists(FIELD_TUPLES, min_size=1, max_size=8))
    counts = st.integers(1, 2**40)
    drawn = draw(st.lists(st.tuples(st.sampled_from(pool), counts), max_size=30))
    leaves = draw(st.sampled_from([0, 129, 150]))
    hub = [((("sig_id", "hub"), ("dst_ip", f"10.9.0.{i}")), draw(counts))
           for i in range(leaves)]
    return draw(st.permutations(drawn + hub))


@settings(max_examples=200, deadline=None)
@given(counts=field_counts())
@example(counts=[])
def test_weighted_graph_matches_dict_of_dicts_reference(counts):
    g = build_graph(counts)
    assert_same_graph(g, reference_adjacency(counts))
    assert g == build_graph(counts[::-1])
