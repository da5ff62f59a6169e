"""The benchmark's stage tracer (`perfbench/spans.py`) swaps stage functions
by their module-global names and reads counts off their results. A renamed
stage, one that `train` and `score` stop calling, or a changed result would
leave its metrics reading 0."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import artifact.cli
import artifact.pipeline
from artifact.dynamics import MembershipSeries
from artifact.roles import Membership

from conftest import small_pipeline_config

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_every_traced_stage_resolves(spans):
    for table in (spans.STAGES, spans.COUNTED):
        for module, names in table.items():
            for attr in names:
                assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_train_and_score_run_every_traced_stage(spans, small_streams, tmp_path):
    cfg = small_pipeline_config(small_streams, tmp_path)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        artifact.cli.train(cfg)
        result = artifact.cli.score(cfg, tmp_path / "model")
    names = [s.name for s in tracer.spans]
    assert set(names) == {n for table in spans.STAGES.values() for n in table.values()}
    assert tracer.counters["ingest.normalize_calls"] > 0
    assert names.count("graph.build") == len(result.scores) + 2


def test_graph_build_result_has_the_counts_the_tracer_reads(spans):
    counts = [
        ((("sig_id", "1"), ("src_ip", "10.0.0.1"), ("dst_ip", "10.0.0.2")), 1),
        ((("rule_id", "5503"), ("src_ip", "10.0.0.1")), 1),
    ]
    graph = artifact.pipeline.build_graph(counts)
    tracer = spans.Tracer()
    spans.observe(tracer, spans.STAGES[artifact.pipeline]["build_graph"], (counts,), graph)
    assert tracer.counters["graph.build_calls"] == 1
    assert tracer.counters["graph.nodes"] == len(graph) == 4
    assert tracer.counters["graph.edges"] == graph.edge_count == 4


def test_feature_and_role_results_have_the_counts_the_tracer_reads(spans):
    graph = artifact.pipeline.build_graph([
        ((("sig_id", "1"), ("src_ip", "10.0.0.1"), ("dst_ip", "10.0.0.2")), 1),
        ((("sig_id", "2"), ("src_ip", "10.0.0.1"), ("dst_ip", "10.0.0.3")), 1),
        ((("rule_id", "5503"), ("src_ip", "10.0.0.1")), 1),
    ])
    stages = spans.STAGES[artifact.pipeline]
    tracer = spans.Tracer()

    def call(attr, *args, **kwargs):
        result = getattr(artifact.pipeline, attr)(*args, **kwargs)
        spans.observe(tracer, stages[attr], args, result)
        return result

    schema, matrix = call("fit_schema", graph, max_depth=1)
    applied = call("apply_schema", graph, schema)
    model, _ = call("select_model", matrix, r_range=range(1, 3), b_range=range(1, 3))
    call("memberships_fixed_F", applied, model)
    c = tracer.counters
    assert c["features.n_features"] == len(schema) > 0
    assert c["features.cells"] == 2 * matrix.values.size > 0
    assert c["features.apply_calls"] == 1
    assert c["roles.chosen_roles"] == model.n_roles > 0
    assert c["roles.chosen_bits"] == model.n_bits > 0
    assert c["roles.membership_rows"] == len(graph) > 0


def test_dynamics_results_have_the_counts_the_tracer_reads(spans):
    A, B, C = ("ip", "10.0.0.1"), ("ip", "10.0.0.2"), ("rule", "5503")
    stages = spans.STAGES[artifact.pipeline]
    tracer = spans.Tracer()
    series = MembershipSeries()
    for window, nodes in ((1, [A, B]), (2, [B]), (4, [C, A])):
        G = np.full((len(nodes), 2), 0.5)
        series = artifact.pipeline.update_series(series, window, Membership(nodes, G))
        spans.observe(tracer, stages["update_series"], (series, window), series)
    assert tracer.counters["dynamics.registry_size"] == len(series.registry) == 3

    scores = artifact.pipeline.score_windows(series)
    spans.observe(tracer, stages["score_windows"], (series,), scores)
    assert tracer.counters["dynamics.windows_scored"] == len(scores) == 2
