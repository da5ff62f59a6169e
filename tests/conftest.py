import itertools
import random
from collections import Counter
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from artifact.graph import build_graph, key_table
from artifact.ingest import AlertRecord, layer_for, write_jsonl
from artifact.pipeline import PipelineConfig, train
from artifact.scenario import default_scenario, generate_scenario

DATA_DIR = Path(__file__).parent / "data"

# A compact 6-day variant of the default scenario, shared by the pipeline and
# CLI suites: 18 eight-hour windows, two training days (windows 0-5), a volume
# spike at window 8, and the attack at windows 12-13.
SMALL_ORIGIN = 1614556800.0  # 2021-03-01T00:00:00Z
SMALL_SIM = dict(
    seed=5,
    duration_days=6.0,
    training_days=2.0,
    attack_start_window=12,
    spike_window=8,
)


class SnortYears:
    """Reference years for yearless Snort dates, read in file order.

    A date takes whichever of the running year and the years either side
    puts it nearest the running year's latest month, the running year on a
    tie. A date that exists in that year moves the running year forward and
    resets its latest month, or raises the latest month."""

    def __init__(self, year: int) -> None:
        self.year, self.latest = year, None

    def __call__(self, month: int, day: int) -> int:
        year = self.year
        if self.latest is not None:
            year = min((self.year, self.year - 1, self.year + 1),
                       key=lambda y: abs(12 * (y - self.year) + month - self.latest))
        try:
            datetime(year, month, day)
        except (ValueError, OverflowError):
            return year
        if self.latest is None or year > self.year:
            self.year, self.latest = year, month
        elif year == self.year:
            self.latest = max(self.latest, month)
        return year


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def small_streams(tmp_path_factory) -> dict[str, Path]:
    """JSONL alert streams generated once per test session: the full stream
    (attack + spike) and a quiet one with no injections."""
    root = tmp_path_factory.mktemp("streams")
    full = default_scenario(**SMALL_SIM)
    write_jsonl(generate_scenario(full), root / "alerts.jsonl")
    quiet = default_scenario(with_attack=False, with_spike=False, **SMALL_SIM)
    write_jsonl(generate_scenario(quiet), root / "quiet.jsonl")
    return {"full": root / "alerts.jsonl", "quiet": root / "quiet.jsonl"}


def small_pipeline_config(streams, out_dir, **overrides) -> PipelineConfig:
    kwargs = dict(
        jsonl_paths=[streams["full"]],
        window_hours=8.0,
        training_days=2.0,
        origin=SMALL_ORIGIN,
        seed=7,
        out_dir=Path(out_dir),
    )
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


@pytest.fixture(scope="session")
def small_trained(small_streams, tmp_path_factory):
    """One bundle trained on the small stream, reused by every scoring test.

    The attack and spike land after the training cutoff, so this bundle is
    equally valid for the quiet stream."""
    out = tmp_path_factory.mktemp("trained")
    return train(small_pipeline_config(small_streams, out))


def read_registry_tsv(text: str) -> list[tuple[int, str, str, int]]:
    """A bundle's `registry.tsv` text as (index, layer, value, first window)
    rows, after checking its header. Only "\\n" ends a line."""
    header, *lines = text.removesuffix("\n").split("\n")
    assert header == "index\tlayer\tvalue\tfirst_seen_window"
    rows = [line.split("\t") for line in lines]
    return [(int(idx), layer, value, int(window)) for idx, layer, value, window in rows]


def make_random_records(seed: int, count: int, base_ts: float = 1_000_000.0) -> list[AlertRecord]:
    """Synthetic normalized records mixing snort/ossec shapes; some records
    carry src_ip == dst_ip to exercise the same-vertex skip."""
    rng = random.Random(seed)
    ips = [f"10.0.0.{i}" for i in range(1, 15)]
    sigs = [str(s) for s in (215, 2001, 2002, 3001)]
    rules = [str(r) for r in (5501, 5503, 5715)]
    logs = ["/var/log/auth.log", "/var/log/syslog"]
    records = []
    for i in range(count):
        ts = base_ts + rng.random() * 10_000
        if rng.random() < 0.5:
            src = rng.choice(ips)
            dst = rng.choice(ips) if rng.random() > 0.1 else src
            fields = {"sig_id": rng.choice(sigs), "src_ip": src, "dst_ip": dst}
            records.append(AlertRecord("snort", ts, fields))
        else:
            fields = {"rule_id": rng.choice(rules), "logfile": rng.choice(logs)}
            if rng.random() < 0.7:
                fields["src_ip"] = rng.choice(ips)
            records.append(AlertRecord("ossec", ts, fields))
    return records


def tuple_graph(field_counts):
    """The co-occurrence graph of (field tuple, count) pairs in order, each
    pair as its own key."""
    field_counts = list(field_counts)
    table = key_table([fields for fields, _ in field_counts])
    return build_graph(table, np.arange(len(field_counts)), [n for _, n in field_counts])


def window_counts(alerts, start, stop):
    """The field tuples of alerts start..stop-1 with their counts, in the
    order of each key id's first alert. Equal tuples of two ids come twice."""
    ids, _, counts = alerts.key_counts(start, stop)
    return [(alerts.keys[k][1], n) for k, n in zip(ids.tolist(), counts.tolist())]


def graph_of(records):
    """The co-occurrence graph of normalized records: each distinct field
    tuple once, at its first record, with its record count."""
    return tuple_graph(Counter(tuple(r.fields.items()) for r in records).items())


def link_graph(links=(), isolated=()):
    """A graph from (u, v, weight) links between (layer, value) vertices, in
    order, and vertices without links. A link is a 2-field tuple keyed by its
    layers (`layer_for` keeps a layer name as it is) that occurs `weight`
    times; an isolated vertex is a 1-field tuple."""
    return tuple_graph(
        [((u, v), w) for u, v, w in links] + [((x,), 1) for x in isolated]
    )


def reference_adjacency(field_counts):
    """The co-occurrence graph as a plain dict of dicts, one vertex pair at
    a time: vertex -> {neighbor: weight}, vertices and neighbors in order of
    first appearance."""
    adj = {}
    for fields, count in field_counts:
        vertices = [(layer_for(key), value) for key, value in fields]
        for v in vertices:
            adj.setdefault(v, {})
        for u, v in itertools.combinations(vertices, 2):
            if u != v:
                adj[u][v] = adj[u].get(v, 0) + count
                adj[v][u] = adj[v].get(u, 0) + count
    return adj


def assert_same_graph(g, adj):
    """g holds exactly the reference `adj`: vertices in sorted order, each
    row's neighbors in first-link order, int64 arrays."""
    assert g.nodes() == sorted(adj)
    assert g.indptr.dtype == g.indices.dtype == g.weights.dtype == np.int64
    rows = [
        [(g.vertices[j], w) for j, w in zip(g.indices[a:b].tolist(), g.weights[a:b].tolist())]
        for a, b in itertools.pairwise(g.indptr.tolist())
    ]
    assert rows == [list(adj[v].items()) for v in sorted(adj)]


@st.composite
def weighted_graphs(draw, hub_leaves=st.integers(min_value=129, max_value=150)):
    """Random weighted graphs in shuffled insertion order: one to three
    disjoint blocks of vertices, at least one isolated vertex, and a hub whose
    leaves may also link into the first block. The default hub degree tops
    128, numpy's pairwise-summation block."""
    weight = st.integers(min_value=1, max_value=9)
    links = []
    for block, size in enumerate(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))):
        pair = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1), weight)
        for i, j, w in draw(st.lists(pair, max_size=3 * size)):
            if i != j:
                links.append(((f"b{block}", str(i)), (f"b{block}", str(j)), w))
    leaves = draw(hub_leaves)
    for leaf in range(leaves):
        links.append((("hub", "h"), ("leaf", str(leaf)), draw(weight)))
        core = draw(st.none() | st.integers(0, 3))
        if core is not None:
            links.append((("leaf", str(leaf)), ("b0", str(core)), draw(weight)))
    lonely = [("lonely", str(i)) for i in range(draw(st.integers(1, 3)))]
    return link_graph(draw(st.permutations(links)), lonely)
