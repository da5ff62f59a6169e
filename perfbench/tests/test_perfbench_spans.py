"""Tracing: self times partition the traced wall time, counts match the
input, and every patched stage is restored afterwards."""

import artifact.cli
import pytest

from artifact.pipeline import PipelineConfig
from artifact.scenario import generate_scenario
from spans import STAGES, Tracer, layer_metrics, traced
from workloads import GRID, WINDOW_HOURS, WORKLOADS, render

PAPER = WORKLOADS["paper-21d-jsonl"]


def test_nested_self_times_sum_to_root():
    tracer = Tracer()
    with tracer.span("root") as root:
        with tracer.span("child"):
            tracer.count("leaf", 0.001)
        tracer.count("leaf", 0.002)
    selfs = tracer.self_times()
    assert sum(selfs.values()) == pytest.approx(root.end - root.start, abs=1e-12)
    assert selfs["leaf"] == pytest.approx(0.003)
    assert tracer.counters["leaf_calls"] == 2
    assert [s.parent for s in tracer.spans] == [None, 0]


def test_traced_pair_accounts_for_its_wall_time(tmp_path):
    stream = generate_scenario(PAPER.scenario(2, 0.01))
    (jsonl,) = render(PAPER, stream, tmp_path)
    cfg = PipelineConfig(jsonl_paths=[jsonl], window_hours=WINDOW_HOURS,
                         training_days=PAPER.training_days, origin=GRID.origin,
                         out_dir=tmp_path)
    originals = {(m, a): getattr(m, a) for m, names in STAGES.items() for a in names}
    tracer = Tracer()
    with traced(tracer):
        for command in ("train", "score"):
            tracer.run = command
            with tracer.span("cli.main"):
                if command == "train":
                    artifact.cli.train(cfg)
                else:
                    artifact.cli.score(cfg, tmp_path / "model")
    assert all(getattr(m, a) is fn for (m, a), fn in originals.items())

    metrics = layer_metrics(tracer, GRID)
    roots = [s for s in tracer.spans if s.parent is None]
    assert len(roots) == 2
    wall = sum(s.end - s.start for s in roots)
    seconds = sum(v for k, v in metrics.items() if k.endswith("_s"))
    assert seconds == pytest.approx(wall, rel=1e-9)
    assert metrics["ingest.records_parsed"] == 2 * len(stream)
    assert metrics["ingest.normalize_calls"] == 2 * len(stream)
    assert metrics["dynamics.windows_scored"] == PAPER.scored_windows
    assert metrics["graph.build_calls"] == 1 + PAPER.scored_windows + 1
    assert 0.0 < metrics["ingest.distinct_ratio"] <= 1.0
