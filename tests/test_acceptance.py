"""Acceptance suite: seven first-class behavioral criteria for the package.

Each criterion is one test with its tolerances in the docstring, a wall-clock
budget where one is defined, and a single [PASS]/[FAIL] summary line printed
at the end (run pytest with -s or -rA to see the lines for passing tests).

Criteria 5-7 share one full-scale synthetic run (21 days of alerts, eight-hour
windows, seven training days) prepared once in a module fixture; criterion 5's
five-minute budget covers generation, training, and scoring for the unfiltered
run only, matching how the pipeline is actually invoked.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import graph_of, make_random_records
from artifact.dynamics import (
    MembershipSeries,
    detect_anomalies,
    score_windows,
    update_series,
)
from artifact.graph import build_graph
from artifact.ingest import AlertRecord, layer_for, write_jsonl
from artifact.pipeline import PipelineConfig, score, train
from artifact.roles import (
    Membership,
    RoleModel,
    description_length,
    memberships_fixed_F,
    nmf_kl,
    select_model,
)
from artifact.scenario import default_scenario, generate_background, generate_scenario

ATTACK_START = 54
ATTACK_WINDOWS = {54, 55}
SPIKE_WINDOW = 31


def verdict(name: str, failures: list[str], elapsed: float,
            budget: float | None) -> None:
    """One pass/fail line per criterion; budget overruns are failures too."""
    if budget is not None and elapsed > budget:
        failures = failures + [f"over budget: {elapsed:.1f}s > {budget:.0f}s"]
    status = "PASS" if not failures else "FAIL"
    clock = f"{elapsed:.2f}s" + (f" of {budget:.0f}s budget" if budget else "")
    line = f"[{status}] {name}: {clock}"
    if failures:
        line += " — " + "; ".join(failures)
    print(line)
    assert not failures, line


# --- criterion 1: cross-source fusion fixture --------------------------------------


def test_criterion_1_fusion_fixture_and_cooccurrence_oracle():
    """One snort and one ossec alert sharing IP 10.10.255.77 fuse into a
    5-node, 6-edge unit-weight graph around the shared ip vertex; build_graph
    agrees exactly with a brute-force pair counter on 500 random records.
    Budget: 1 s."""
    t0 = time.perf_counter()
    failures = []

    shared = ("ip", "10.10.255.77")
    records = [
        AlertRecord("snort", 100.0, {
            "sig_id": "2001", "src_ip": "10.10.255.77", "dst_ip": "192.168.0.5",
        }),
        AlertRecord("ossec", 101.0, {
            "rule_id": "5503", "logfile": "/var/log/auth.log",
            "src_ip": "10.10.255.77",
        }),
    ]
    g = graph_of(records)
    if len(g) != 5:
        failures.append(f"expected 5 nodes, built {len(g)}")
    if g.edge_count != 6:
        failures.append(f"expected 6 edges, built {g.edge_count}")
    weights = [w for _, _, w in g.edges()]
    if weights != [1] * len(weights):
        failures.append(f"expected unit weights, got {sorted(set(weights))}")
    if shared not in g or g.weighted_degree(shared) != 4:
        failures.append("shared ip vertex does not bridge both alerts")
    if g.weight(shared, ("signature", "2001")) != 1 or \
            g.weight(shared, ("rule", "5503")) != 1:
        failures.append("shared ip vertex is missing a cross-source edge")

    random_records = make_random_records(seed=123, count=500)
    expected_vertices = set()
    expected_weights: dict[tuple, int] = {}
    for rec in random_records:
        items = [(layer_for(k), v) for k, v in rec.fields.items()]
        expected_vertices.update(items)
        for a, b in itertools.combinations(items, 2):
            if a == b:
                continue
            key = (min(a, b), max(a, b))
            expected_weights[key] = expected_weights.get(key, 0) + 1
    built = graph_of(random_records)
    built_weights = {(u, v): w for u, v, w in built.edges()}
    if set(built.nodes()) != expected_vertices:
        failures.append("vertex set disagrees with the brute-force oracle")
    if built_weights != expected_weights:
        failures.append("edge weights disagree with the brute-force oracle")

    verdict("criterion 1 (fusion fixture + oracle)", failures,
            time.perf_counter() - t0, budget=1.0)


# --- criterion 2: KL-NMF monotonicity ------------------------------------------


def test_criterion_2_nmf_objective_monotone_and_convergent():
    """On 100 seeded random 50x20 nonnegative matrices the KL objective never
    increases by more than 1e-10 relative per iteration; inputs that are exact
    nonnegative products converge below 1e-6 of the matrix mass.
    Budget: 30 s."""
    t0 = time.perf_counter()
    failures = []

    monotone = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        V = rng.uniform(0.0, 10.0, size=(50, 20))
        r = 2 + seed % 7
        res = nmf_kl(V, r, seed=seed, max_iter=60, tol=0.0)
        ok = all(
            after - before <= 1e-10 * max(abs(before), 1.0)
            for before, after in zip(res.history, res.history[1:])
        )
        monotone += ok
    if monotone < 100:
        failures.append(f"objective increased on {100 - monotone}/100 matrices")

    converged = 0
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        r = 1 + seed % 5
        G0 = rng.uniform(0.5, 2.0, size=(50, r))
        F0 = rng.uniform(0.5, 2.0, size=(r, 20))
        V = G0 @ F0
        # multiplicative updates converge sublinearly near the optimum, so the
        # exact-product check gets a deep iteration budget (cheap at 50x20)
        res = nmf_kl(V, r, seed=seed, max_iter=30000, tol=0.0)
        converged += res.history[-1] < 1e-6 * V.sum()
    if converged < 10:
        failures.append(
            f"only {converged}/10 exact products reached D < 1e-6*sum(V)"
        )

    verdict(
        f"criterion 2 (kl-nmf: {monotone}/100 monotone, "
        f"{converged}/10 exact products converged)",
        failures, time.perf_counter() - t0, budget=30.0,
    )


# --- criterion 3: MDL model recovery ----------------------------------------------


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
    return G0 @ F0


def test_criterion_3_mdl_recovers_planted_role_count():
    """select_model picks 3 roles on >= 90% of 20 planted 3-role 40x30
    matrices, and the model-cost term equals bits*roles*(nodes+features) on
    every grid point, including the 263-node/112-feature/3-role/3-bit case
    costing exactly 3375 bits. Budget: 2 min."""
    t0 = time.perf_counter()
    failures = []

    hits = 0
    last_grid = None
    for seed in range(20):
        V = planted_three_role_matrix(seed)
        model, grid = select_model(
            V, r_range=range(1, 7), b_range=range(1, 7), seed=seed
        )
        hits += model.n_roles == 3
        last_grid = grid
    if hits < 18:
        failures.append(f"recovered 3 roles on only {hits}/20 seeds (need 18)")

    bad_points = [
        (p.r, p.b)
        for p in last_grid
        if p.model_cost != p.b * p.r * (40 + 30)
    ]
    if bad_points:
        failures.append(f"model-cost formula wrong at grid points {bad_points}")

    rng = np.random.default_rng(0)
    G = rng.uniform(0.0, 1.0, size=(263, 3))
    F = rng.uniform(0.0, 1.0, size=(3, 112))
    m_cost, _, _ = description_length(G @ F, G, F, bits=3)
    if m_cost != 3375.0:
        failures.append(f"263/112/3-role/3-bit model cost {m_cost}, want 3375")

    verdict(
        f"criterion 3 (mdl recovery: {hits}/20 seeds picked 3 roles)",
        failures, time.perf_counter() - t0, budget=120.0,
    )


# --- criterion 4: membership and role-change contracts ------------------------------


def member(pairs):
    nodes = [node for node, _ in pairs]
    G = np.array([row for _, row in pairs], dtype=float).reshape(len(pairs), -1)
    return Membership(nodes, G)


def test_criterion_4_membership_and_score_contracts():
    """Fixed-F membership recovers a planted row-normalized G within 1e-6
    when F has full row rank; every role-change score lies in [0, 1];
    identical consecutive windows score exactly 0; forward-fill and
    first-appearance arithmetic match a dict-based hand trace, including a
    node appearing at max-membership 0.6 among 10 nodes scoring
    0.6/10 = 0.06 > 0.05. Budget: 10 s."""
    t0 = time.perf_counter()
    failures = []

    # fixed-F recovery
    rng = np.random.default_rng(40)
    F = rng.uniform(0.5, 3.0, size=(3, 15))
    assert np.linalg.matrix_rank(F) == 3
    G0 = rng.uniform(0.0, 1.0, size=(40, 3))
    G0 /= G0.sum(axis=1, keepdims=True)
    model = RoleModel(n_roles=3, n_bits=3, F=F, seed=0)
    recovered = memberships_fixed_F(G0 @ F, model)
    err = float(np.max(np.abs(recovered.G - G0)))
    if err >= 1e-6:
        failures.append(f"planted membership error {err:.2e} >= 1e-6")

    # scores stay in [0, 1] on a randomized series with churn
    series = MembershipSeries()
    pool = [("ip", f"10.0.0.{i}") for i in range(12)]
    for t in range(1, 7):
        picks = rng.choice(12, size=rng.integers(1, 12), replace=False)
        rows = rng.uniform(0.05, 1.0, size=(len(picks), 3))
        rows /= rows.sum(axis=1, keepdims=True)
        update_series(series, t, Membership([pool[i] for i in picks], rows))
    random_scores = score_windows(series)
    out_of_range = [s.score for s in random_scores if not 0.0 <= s.score <= 1.0]
    if out_of_range:
        failures.append(f"scores escaped [0, 1]: {out_of_range}")

    # identical consecutive windows score exactly zero
    twin = MembershipSeries()
    snapshot = [(pool[i], [0.2 + 0.05 * i, 0.8 - 0.05 * i]) for i in range(5)]
    update_series(twin, 1, member(snapshot))
    update_series(twin, 2, member(snapshot))
    if [s.score for s in score_windows(twin)] != [0.0]:
        failures.append("identical windows did not score exactly 0")

    # forward fill against a dict-based reference trace
    trace = MembershipSeries()
    A, B, C = pool[:3]
    update_series(trace, 1, member([(A, [0.5, 0.5]), (B, [0.9, 0.1])]))
    update_series(trace, 2, member([(A, [0.7, 0.3])]))          # B forward-fills
    update_series(trace, 3, member([(A, [0.7, 0.3]), (B, [0.6, 0.4]),
                                    (C, [0.2, 0.8])]))          # C first appears
    state, filled = {}, []
    for t, appearing in ((1, {A: 0.5, B: 0.9}), (2, {A: 0.7}),
                         (3, {A: 0.7, B: 0.6, C: 0.8})):
        state = dict(state)
        state.update(appearing)
        filled.append((t, dict(state)))
    traced = {s.window: s.score for s in score_windows(trace)}
    for (_, prev), (t, now) in zip(filled, filled[1:]):
        want = sum(abs(p - prev.get(n, 0.0)) for n, p in now.items()) / len(now)
        got = traced[t]
        if got != pytest.approx(want, abs=1e-12):
            failures.append(f"window {t} scored {got}, hand trace says {want}")

    # first appearance among ten nodes: 0.6/10 crosses the 0.05 threshold
    appear = MembershipSeries()
    steady = [(pool[i], [0.3 + 0.02 * i, 0.7 - 0.02 * i]) for i in range(9)]
    update_series(appear, 1, member(steady))
    update_series(appear, 2, member(steady + [(("ip", "newcomer"), [0.6, 0.4])]))
    appear_scores = score_windows(appear)
    got = appear_scores[0].score
    if got != pytest.approx(0.06, abs=1e-15):
        failures.append(f"appearance case scored {got}, want 0.6/10 = 0.06")
    report = detect_anomalies(appear_scores, threshold=0.05)
    if [e.window for e in report.flagged()] != [2]:
        failures.append("0.06 appearance window was not flagged at 0.05")

    verdict("criterion 4 (membership + score contracts)", failures,
            time.perf_counter() - t0, budget=10.0)


# --- criteria 5-7: full-scale synthetic run -----------------------------------------


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    """The full 21-day run, executed once: generate the stream, then train and
    score three ways (both sources, snort only, ossec only)."""
    root = tmp_path_factory.mktemp("e2e")
    scenario = default_scenario()
    t0 = time.perf_counter()
    stream = generate_scenario(scenario)
    jsonl = root / "alerts.jsonl"
    write_jsonl(stream, jsonl)

    lo = scenario.origin + SPIKE_WINDOW * scenario.window_length
    hi = lo + scenario.window_length
    spiked_w31 = stream.field_counts(stream.before(lo), stream.before(hi))
    n_alerts = len(stream)
    del stream

    def run(source, out_name):
        cfg = PipelineConfig(
            jsonl_paths=[jsonl],
            origin=scenario.origin,
            window_hours=8.0,
            training_days=7.0,
            source=source,
            out_dir=root / out_name,
        )
        trained = train(cfg)
        return score(cfg, trained.bundle_dir)

    runs = {"both": run(None, "both")}
    t_both = time.perf_counter() - t0
    runs["snort"] = run("snort", "snort")
    runs["ossec"] = run("ossec", "ossec")
    return {
        "scenario": scenario,
        "runs": runs,
        "t_both": t_both,
        "spiked_w31": spiked_w31,
        "n_alerts": n_alerts,
    }


def test_criterion_5_end_to_end_attack_detection(e2e):
    """On the 21-day synthetic run (~1.4M alerts, 8 h windows, 7 training
    days, threshold 0.05) the attack's first window is flagged, at most 5
    windows are flagged in total, and at most 4 of the ~42 scored windows are
    false positives. Budget: 5 min for generation + training + scoring."""
    failures = []
    result = e2e["runs"]["both"]
    scenario = e2e["scenario"]

    expected_rows = scenario.n_windows - scenario.training_windows - 1
    if len(result.scores) != expected_rows:
        failures.append(
            f"scored {len(result.scores)} windows, expected {expected_rows}"
        )
    flags = result.flagged_windows
    if ATTACK_START not in flags:
        failures.append(f"attack window {ATTACK_START} not in flags {flags}")
    if len(flags) > 5:
        failures.append(f"{len(flags)} windows flagged, budget is 5")
    false_positives = [w for w in flags if w not in ATTACK_WINDOWS]
    if len(false_positives) > 4:
        failures.append(f"false positives {false_positives} exceed 4")

    verdict(
        f"criterion 5 (end-to-end: {e2e['n_alerts']} alerts, flagged {flags}, "
        f"{len(false_positives)} false positives in {len(result.scores)} windows)",
        failures, e2e["t_both"], budget=300.0,
    )


def test_criterion_6_volume_spike_control(e2e):
    """The 10x duplication window changes no node or edge set (weights scale
    exactly 10x) and scores strictly below the attack window, so the detector
    is reacting to structure, not alert volume. Runtime rides criterion 5's
    run; the graph assertion itself is untimed."""
    t0 = time.perf_counter()
    failures = []
    scenario = e2e["scenario"]

    background = generate_background(scenario)
    lo = scenario.origin + SPIKE_WINDOW * scenario.window_length
    hi = lo + scenario.window_length
    base_counts = background.field_counts(background.before(lo), background.before(hi))
    del background
    g_base = build_graph(base_counts)
    g_spiked = build_graph(e2e["spiked_w31"])

    if set(g_spiked.nodes()) != set(g_base.nodes()):
        failures.append("duplication changed the node set")
    base_edges = {(u, v): w for u, v, w in g_base.edges()}
    spiked_edges = {(u, v): w for u, v, w in g_spiked.edges()}
    if set(spiked_edges) != set(base_edges):
        failures.append("duplication changed the edge set")
    else:
        off = [k for k, w in base_edges.items() if spiked_edges[k] != 10 * w]
        if off:
            failures.append(f"{len(off)} edge weights are not exactly 10x")

    by_window = {s.window: s.score for s in e2e["runs"]["both"].scores}
    spike_score = by_window[SPIKE_WINDOW]
    attack_score = by_window[ATTACK_START]
    if not spike_score < attack_score:
        failures.append(
            f"spike score {spike_score:.4f} not below attack {attack_score:.4f}"
        )

    verdict(
        f"criterion 6 (volume spike: score {spike_score:.4f} vs "
        f"attack {attack_score:.4f}, graph sets identical)",
        failures, time.perf_counter() - t0, budget=None,
    )


def test_criterion_7_single_source_robustness(e2e):
    """Restricting the input to either IDS alone still flags the attack
    window: the detection does not depend on cross-source fusion being
    available."""
    t0 = time.perf_counter()
    failures = []
    per_source = {}
    for source in ("snort", "ossec"):
        flags = e2e["runs"][source].flagged_windows
        per_source[source] = flags
        if ATTACK_START not in flags:
            failures.append(
                f"--source {source} missed attack window {ATTACK_START}: {flags}"
            )

    verdict(
        f"criterion 7 (single source: snort flags {per_source['snort']}, "
        f"ossec flags {per_source['ossec']})",
        failures, time.perf_counter() - t0, budget=None,
    )
