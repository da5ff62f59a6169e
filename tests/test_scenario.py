"""Scenario generator tests: determinism, stream independence, rate sanity,
injection placement, and config validation."""

import collections
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from artifact.scenario import (
    AlertTemplate,
    AttackSpec,
    AttackWave,
    ConfigError,
    ScenarioConfig,
    SpanError,
    SpikeSpec,
    attack_records,
    default_attack,
    default_scenario,
    default_templates,
    generate_background,
    generate_scenario,
    load_scenario_config,
)

from conftest import tuple_graph, window_counts

ORIGIN = 1614556800.0  # 2021-03-01T00:00:00Z


def small_templates():
    return [
        AlertTemplate(
            "web", "snort", 20.0,
            (("sig_id", ("101", "102")), ("src_ip", ("10.1.0.1", "10.1.0.2")),
             ("dst_ip", ("10.0.0.1",))),
        ),
        AlertTemplate(
            "auth", "ossec", 12.0,
            (("rule_id", ("5501", "5502")), ("logfile", ("/var/log/auth.log",)),
             ("src_ip", ("10.1.0.1", "10.1.0.2", "10.1.0.3"))),
        ),
        AlertTemplate(
            "sys", "ossec", 6.0,
            (("rule_id", ("2901",)), ("logfile", ("/var/log/cron",)),
             ("src_ip", ("10.0.0.1",))),
        ),
    ]


def small_cfg(seed=3, with_attack=False, with_spike=False, **overrides):
    attack = None
    if with_attack:
        attack = AttackSpec(
            start_window=7,
            waves=(
                AttackWave(0, AlertTemplate(
                    "atk", "snort", 1.0,
                    (("sig_id", ("999001", "999002")),
                     ("src_ip", ("203.0.113.9",)),
                     ("dst_ip", ("10.0.0.1",)))), 25),
            ),
        )
    spike = SpikeSpec(window=5, multiplier=10) if with_spike else None
    kwargs = dict(
        duration_days=3.0,
        window_hours=8.0,
        training_days=1.0,
        origin=ORIGIN,
        seed=seed,
        templates=small_templates(),
        attack=attack,
        spike=spike,
    )
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


def record_key(r):
    return (r.source, r.timestamp, tuple(sorted(r.fields.items())))


# -- determinism and stream independence ------------------------------------------


def test_background_deterministic():
    cfg = small_cfg(seed=11)
    assert list(generate_background(cfg)) == list(generate_background(cfg))


def test_full_scenario_deterministic():
    cfg = small_cfg(seed=11, with_attack=True, with_spike=True)
    assert list(generate_scenario(cfg)) == list(generate_scenario(cfg))


def test_different_seeds_differ():
    a = generate_background(small_cfg(seed=1))
    b = generate_background(small_cfg(seed=2))
    assert list(a) != list(b)


# sha256 of the conftest `small_streams` files, as the per-alert generator
# and the json.dumps writer wrote them
SMALL_STREAM_SHA256 = {
    "full": "7482c66849cce627a39ecaa8b839776c788176dff7815720806435b16dd1a4fa",
    "quiet": "3fe11501c2aa41031a6bca037148e075319e4a0fc6b560f6191db5cb998b443f",
}


def test_small_streams_keep_their_bytes(small_streams):
    assert {
        name: hashlib.sha256(small_streams[name].read_bytes()).hexdigest()
        for name in SMALL_STREAM_SHA256
    } == SMALL_STREAM_SHA256


def test_streams_sorted_by_timestamp():
    for flags in ((False, False), (True, False), (True, True)):
        cfg = small_cfg(with_attack=flags[0], with_spike=flags[1])
        stream = generate_scenario(cfg)
        ts = [r.timestamp for r in stream]
        assert ts == sorted(ts)


@pytest.mark.parametrize("with_attack, with_spike",
                         [(False, False), (True, False), (False, True), (True, True)])
def test_scenario_is_background_plus_injections(with_attack, with_spike):
    # the three child RNG streams are independent: toggling the attack or the
    # spike must not perturb a single background draw
    cfg = small_cfg(seed=9, with_attack=with_attack, with_spike=with_spike)
    rest = collections.Counter(record_key(r) for r in generate_scenario(cfg))
    rest.subtract(record_key(r) for r in attack_records(cfg))
    assert min(rest.values(), default=0) >= 0
    rest = +rest
    background = collections.Counter(record_key(r) for r in generate_background(cfg))
    if not with_spike:
        assert rest == background
        return
    start, end = cfg.window_spec().span(cfg.spike.window)

    def inside(counts):
        return collections.Counter({k: n for k, n in counts.items() if start <= k[1] < end})

    assert rest - inside(rest) == background - inside(background)
    assert inside(background) <= inside(rest)


def test_attack_purity_merge_minus_attack_is_background():
    cfg = small_cfg(seed=4, with_attack=True)
    background = generate_background(cfg)
    merged = generate_scenario(cfg)
    injected = attack_records(cfg)
    merged_counts = collections.Counter(record_key(r) for r in merged)
    for r in injected:
        merged_counts[record_key(r)] -= 1
    remaining = +merged_counts
    assert remaining == collections.Counter(record_key(r) for r in background)


# -- rates -------------------------------------------------------------------


def test_single_template_rate_lln():
    template = AlertTemplate(
        "only", "snort", 10.0,
        (("sig_id", ("1",)), ("src_ip", ("10.1.0.1",)), ("dst_ip", ("10.0.0.1",))),
    )
    n_windows = 63  # 21 days of 8-hour windows
    totals = []
    for seed in range(30):
        cfg = ScenarioConfig(
            duration_days=21.0, window_hours=8.0, training_days=7.0,
            origin=ORIGIN, seed=seed, templates=[template],
        )
        totals.append(len(generate_background(cfg)))
    expected = 10.0 * n_windows
    mean = sum(totals) / len(totals)
    assert abs(mean - expected) <= 0.05 * expected


def test_zero_templates_empty_stream():
    cfg = small_cfg()
    cfg.templates = []
    assert list(generate_background(cfg)) == []


def test_all_records_inside_scenario_span():
    cfg = small_cfg(with_attack=True, with_spike=True)
    stream = generate_scenario(cfg)
    end = cfg.origin + cfg.duration_days * 86400.0
    assert all(cfg.origin <= r.timestamp < end for r in stream)


def test_template_fields_drawn_from_pools():
    cfg = small_cfg()
    stream = generate_background(cfg)
    sig_pool = {"101", "102"}
    rule_pool = {"5501", "5502", "2901"}
    for r in stream:
        if r.source == "snort":
            assert r.fields["sig_id"] in sig_pool
        else:
            assert r.fields["rule_id"] in rule_pool


# -- attack placement ---------------------------------------------------------


def test_attack_records_confined_to_declared_windows():
    cfg = small_cfg(with_attack=True)
    spec = cfg.window_spec()
    injected = attack_records(cfg)
    assert len(injected) == 25
    assert {spec.window_of(r.timestamp) for r in injected} == {7}


def test_attack_brings_novel_nodes():
    cfg = small_cfg(with_attack=True)
    background_nodes = {
        (layer_field, value)
        for r in generate_background(cfg)
        for layer_field, value in r.fields.items()
    }
    injected_values = {v for r in attack_records(cfg) for v in r.fields.values()}
    background_values = {v for _, v in background_nodes}
    assert "999001" in injected_values
    assert "999001" not in background_values
    assert "203.0.113.9" not in background_values


def test_default_attack_shape():
    attack = default_attack(start_window=54)
    assert attack.windows() == {54, 55}
    assert attack.total_alerts() == 300
    by_source = collections.Counter(
        w.template.source for w in attack.waves for _ in range(w.count)
    )
    assert by_source["snort"] == 170 and by_source["ossec"] == 130


def test_default_attack_fraction_is_negligible():
    # expected background volume dwarfs the fixed 300-alert attack
    rates = sum(t.rate for t in default_templates())
    cfg = default_scenario()
    expected_background = rates * cfg.n_windows
    assert default_attack().total_alerts() / expected_background < 0.001


def test_no_attack_means_no_records():
    cfg = small_cfg(with_attack=False)
    assert list(attack_records(cfg)) == []


# -- volume spike --------------------------------------------------------------


def test_spike_preserves_node_and_edge_sets():
    cfg = small_cfg(seed=6, with_spike=True)
    spec = cfg.window_spec()
    plain = generate_background(cfg)
    spiked = generate_scenario(cfg)
    lo, hi = spec.span(cfg.spike.window)
    plain_win = (plain.before(lo), plain.before(hi))
    spiked_win = (spiked.before(lo), spiked.before(hi))
    assert spiked_win[1] - spiked_win[0] == 10 * (plain_win[1] - plain_win[0])
    g_plain = tuple_graph(window_counts(plain, *plain_win))
    g_spiked = tuple_graph(window_counts(spiked, *spiked_win))
    assert g_plain.nodes() == g_spiked.nodes()
    plain_edges = {(u, v): w_ for u, v, w_ in g_plain.edges()}
    spiked_edges = {(u, v): w_ for u, v, w_ in g_spiked.edges()}
    assert set(plain_edges) == set(spiked_edges)
    for edge, weight in plain_edges.items():
        assert spiked_edges[edge] == 10 * weight


def test_spike_leaves_other_windows_untouched():
    cfg = small_cfg(seed=6, with_spike=True)
    spec = cfg.window_spec()
    plain = list(generate_background(cfg))
    spiked = list(generate_scenario(cfg))
    for w in range(cfg.n_windows):
        if w == cfg.spike.window:
            continue
        a = [r for r in plain if spec.window_of(r.timestamp) == w]
        b = [r for r in spiked if spec.window_of(r.timestamp) == w]
        assert a == b


def test_scenario_without_injections_is_background():
    cfg = small_cfg(with_spike=False)
    assert list(generate_scenario(cfg)) == list(generate_background(cfg))


# -- validation -----------------------------------------------------------------


def test_spike_inside_training_rejected():
    cfg = small_cfg(with_spike=True)
    cfg.spike = SpikeSpec(window=1, multiplier=10)  # training is windows 0..2
    with pytest.raises(SpanError):
        cfg.validate()


def test_attack_inside_training_rejected():
    cfg = small_cfg(with_attack=True)
    cfg.attack = AttackSpec(start_window=0, waves=cfg.attack.waves)
    with pytest.raises(SpanError):
        cfg.validate()


@pytest.mark.parametrize("injection", [
    {"attack_start_window": 3, "spike_window": 5},
    {"with_attack": False, "spike_window": 3},
])
def test_window_partly_inside_training_rejected(injection):
    # 1.1 training days are 3.3 windows of 8 h: window 3 is partly training.
    with pytest.raises(SpanError):
        default_scenario(duration_days=3, training_days=1.1, seed=1, **injection)


def test_attack_past_end_rejected():
    cfg = small_cfg(with_attack=True)
    cfg.attack = AttackSpec(start_window=9, waves=cfg.attack.waves)
    with pytest.raises(SpanError):
        cfg.validate()


def test_spike_on_attack_window_rejected():
    cfg = small_cfg(with_attack=True, with_spike=True)
    cfg.spike = SpikeSpec(window=7, multiplier=10)
    with pytest.raises(SpanError):
        cfg.validate()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: setattr(c, "duration_days", 0.0),
        lambda c: setattr(c, "training_days", 3.0),  # == duration
        lambda c: setattr(c, "training_days", 0.0),  # not positive
        lambda c: setattr(c, "templates",
                          [AlertTemplate("bad", "snort", -1.0,
                                         (("sig_id", ("1",)),))]),
        lambda c: setattr(c, "templates",
                          [AlertTemplate("bad", "bro", 1.0,
                                         (("sig_id", ("1",)),))]),
        lambda c: setattr(c, "templates",
                          [AlertTemplate("bad", "snort", 1.0,
                                         (("sig_id", ()),))]),
        lambda c: setattr(c, "templates",
                          [AlertTemplate("bad", "snort", 1.0,
                                         (("color", ("red",)),))]),
        lambda c: setattr(c, "spike", SpikeSpec(window=5, multiplier=1)),
        *(lambda c, rate=rate: setattr(c, "templates",
                                        [AlertTemplate("bad", "snort", rate,
                                                       (("sig_id", ("1",)),))])
          for rate in (math.nan, math.inf, 1e20)),
        lambda c: setattr(c, "attack", AttackSpec(7, (AttackWave(
            0, AlertTemplate("bad", "snort", 1.0, (("sig_id", ()),)), 5),))),
    ],
)
def test_config_validation_rejects(mutate):
    cfg = small_cfg()
    mutate(cfg)
    with pytest.raises(ConfigError):
        cfg.validate()


# -- default scenario and config file ------------------------------------------


def test_default_scenario_shape():
    cfg = default_scenario()
    cfg.validate()
    assert cfg.n_windows == 63
    assert cfg.training_windows == 21
    assert cfg.attack.windows() == {54, 55}
    assert cfg.spike.window == 31
    assert len(cfg.templates) > 20


def test_default_templates_are_stable_wiring():
    a = default_templates()
    b = default_templates()
    assert a == b


def test_load_scenario_config_roundtrip(tmp_path: Path):
    ini = tmp_path / "scenario.ini"
    ini.write_text(
        "[scenario]\n"
        "seed = 42\n"
        "duration_days = 21\n"
        "window_hours = 8\n"
        "training_days = 7\n"
        "attack_start_window = 50\n"
        "spike_window = 30\n"
        "spike_multiplier = 12\n"
        "origin_utc = 2021-03-01T00:00:00Z\n"
    )
    cfg = load_scenario_config(ini)
    assert cfg.seed == 42
    assert cfg.origin == ORIGIN
    assert cfg.attack.start_window == 50
    assert cfg.spike == SpikeSpec(window=30, multiplier=12)
    same = default_scenario(seed=42, attack_start_window=50, spike_window=30,
                            spike_multiplier=12)
    assert cfg.templates == same.templates


def test_load_scenario_config_disable_injections(tmp_path: Path):
    ini = tmp_path / "scenario.ini"
    ini.write_text("[scenario]\nwith_attack = no\nwith_spike = no\n")
    cfg = load_scenario_config(ini)
    assert cfg.attack is None and cfg.spike is None


def test_load_scenario_config_missing_section(tmp_path: Path):
    ini = tmp_path / "empty.ini"
    ini.write_text("[other]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_scenario_config(ini)
