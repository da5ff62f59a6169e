"""Input generators: determinism, and agreement between the native sensor
rendering and the JSONL rendering of the same scenario.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

from collections import Counter
from dataclasses import replace

import pytest

from artifact.pipeline import PipelineConfig, load_records, score, train
from artifact.scenario import generate_scenario
from workloads import GRID, SNORT_YEAR, WINDOW_HOURS, WORKLOADS, digest, render

# Reduced background rates keep each test to a few seconds.
SMALL_SCALE = {"paper-21d-jsonl": 0.01, "sensors-6d-native": 0.05,
               "widenet-6d-jsonl": 0.5}
SENSORS = WORKLOADS["sensors-6d-native"]


def _write(workload, seed, out_dir):
    stream = generate_scenario(workload.scenario(seed, SMALL_SCALE[workload.name]))
    return stream, render(workload, stream, out_dir)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_files(name, tmp_path):
    workload = WORKLOADS[name]
    _, first = _write(workload, 3, tmp_path / "a")
    _, again = _write(workload, 3, tmp_path / "b")
    _, other = _write(workload, 4, tmp_path / "c")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in again]
    assert digest(first) != digest(other)


@pytest.fixture(scope="module")
def sensor_inputs(tmp_path_factory):
    """One scenario rendered both as native sensor logs and as JSONL."""
    root = tmp_path_factory.mktemp("sensors")
    stream, native = _write(SENSORS, 11, root / "native")
    jsonl = render(replace(SENSORS, fmt="jsonl"), stream, root / "jsonl")
    snort, ossec, hostmap = native
    return {
        "native": dict(snort_paths=[snort], ossec_paths=[ossec],
                       hostmap_path=hostmap, snort_year=SNORT_YEAR),
        "jsonl": dict(jsonl_paths=jsonl),
        "root": root,
        "count": len(stream),
    }


def _config(inputs, fmt, out_dir):
    return PipelineConfig(**inputs[fmt], window_hours=WINDOW_HOURS,
                          training_days=SENSORS.training_days,
                          origin=GRID.origin, out_dir=out_dir)


def _tuples(records) -> Counter:
    return Counter(
        (GRID.window_of(r.timestamp), r.source, tuple(sorted(r.fields.items())))
        for r in records
    )


def test_native_rendering_normalizes_like_jsonl(sensor_inputs, tmp_path):
    native, native_stats = load_records(_config(sensor_inputs, "native", tmp_path))
    jsonl, _ = load_records(_config(sensor_inputs, "jsonl", tmp_path))
    assert len(native) == sensor_inputs["count"]
    assert native_stats.skipped == 0
    assert native_stats.unresolved_hostnames == 0
    assert native_stats.hostname_collisions == 0
    assert _tuples(native) == _tuples(jsonl)


def test_native_and_jsonl_flag_the_same_windows(sensor_inputs):
    results = {}
    for fmt in ("native", "jsonl"):
        cfg = _config(sensor_inputs, fmt, sensor_inputs["root"] / f"out-{fmt}")
        bundle = train(cfg).bundle_dir
        results[fmt] = score(cfg, bundle)
    native, jsonl = results["native"], results["jsonl"]
    assert native.flagged_windows == jsonl.flagged_windows
    assert SENSORS.attack_window in native.flagged_windows
    assert [s.window for s in native.scores] == [s.window for s in jsonl.scores]
    for a, b in zip(native.scores, jsonl.scores):
        assert a.score == pytest.approx(b.score, abs=1e-9)
