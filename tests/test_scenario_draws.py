"""The batch draw of `generate_scenario` against the per-alert draw it replaced.

`generate_scenario` takes each (window, template) batch's words from the bit
generator at once and decodes them in numpy. The reference below is the
per-alert loop: one `uniform` and one `integers` per field for every alert,
each a numpy call. Both must give the same records in the same order, with
the same float timestamps and the same fields in the same order. numpy may
change its Generator streams between versions (NEP 19); these tests are the
tripwire for such a change.
"""

import random
from bisect import bisect_left
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import artifact.scenario as scenario
from artifact.ingest import AlertRecord
from artifact.scenario import (
    AlertTemplate,
    AttackSpec,
    AttackWave,
    ScenarioConfig,
    SpikeSpec,
    default_scenario,
    generate_scenario,
)

from conftest import SMALL_ORIGIN, SMALL_SIM


# --- reference: one numpy call per draw --------------------------------------

def _reference_alerts(template, count, start, length, rng):
    for _ in range(count):
        ts = start + float(rng.uniform(0.0, length))
        fields = {key: pool[int(rng.integers(len(pool)))] for key, pool in template.fields}
        yield AlertRecord(template.source, ts, fields)


def _timestamp(record):
    return record.timestamp


def reference_scenario(cfg):
    """The scenario one alert at a time: background window by window and
    template by template from the first child stream, the attack wave by wave
    from the second, merged in one stable sort; then the spike window's
    alerts copied with times from the third, and sorted again."""
    cfg.validate()
    background_rng, attack_rng, spike_rng = scenario._child_rngs(cfg.seed)
    length = cfg.window_length
    stream = []
    for w in range(cfg.n_windows):
        start = cfg.origin + w * length
        for template in cfg.templates:
            count = int(background_rng.poisson(template.rate))
            stream.extend(_reference_alerts(template, count, start, length, background_rng))
    if cfg.attack is not None:
        for wave in cfg.attack.waves:
            start = cfg.origin + (cfg.attack.start_window + wave.window_offset) * length
            stream.extend(_reference_alerts(wave.template, wave.count, start, length, attack_rng))
    stream.sort(key=_timestamp)
    if cfg.spike is not None:
        start = cfg.origin + cfg.spike.window * length
        lo = bisect_left(stream, start, key=_timestamp)
        hi = bisect_left(stream, start + length, key=_timestamp)
        for record in stream[lo:hi]:
            for _ in range(cfg.spike.multiplier - 1):
                ts = start + float(spike_rng.uniform(0.0, length))
                stream.append(AlertRecord(record.source, ts, dict(record.fields)))
        stream.sort(key=_timestamp)
    return stream


def exact(records):
    """Records as comparable tuples that keep the order of the fields."""
    return [(r.source, r.timestamp, list(r.fields.items())) for r in records]


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the draws that fall back to the per-alert loop."""
    calls = []
    per_alert = scenario._per_alert

    def counted(*args):
        calls.append(args)
        return per_alert(*args)

    monkeypatch.setattr(scenario, "_per_alert", counted)
    return calls


def assert_same_draws(cfg):
    assert exact(generate_scenario(cfg)) == exact(reference_scenario(cfg))


# --- fixed scenarios ---------------------------------------------------------

def test_small_sim_matches_the_per_alert_draw(fallbacks):
    assert_same_draws(default_scenario(**SMALL_SIM))
    assert fallbacks == []


@pytest.mark.parametrize("seed", [0, 1, 2027])
@pytest.mark.parametrize("with_attack, with_spike",
                         [(False, False), (True, False), (False, True), (True, True)])
def test_thinned_small_sim_matches_at_other_seeds(seed, with_attack, with_spike, fallbacks):
    cfg = default_scenario(**dict(SMALL_SIM, seed=seed),
                           with_attack=with_attack, with_spike=with_spike)
    cfg.templates = [replace(t, rate=t.rate * 0.05) for t in cfg.templates]
    assert_same_draws(cfg)
    assert fallbacks == []


def wide_templates(hosts=120):
    """Sparse per-host templates over a fixed random wiring, as on a wide
    network: three small templates per host and a few busy server logs."""
    wire = random.Random(20210315)
    servers = tuple(f"10.20.0.{i}" for i in range(1, 13))
    templates = []
    for h in range(hosts):
        ip = f"10.21.{h // 200}.{h % 200 + 1}"
        sigs = tuple(str(s) for s in wire.sample(range(2300001, 2300061), wire.randint(1, 5)))
        templates.append(AlertTemplate(
            f"web-{ip}", "snort", wire.choice((1.0, 2.0, 3.0, 5.0)),
            (("sig_id", sigs), ("src_ip", (ip,)),
             ("dst_ip", tuple(wire.sample(servers, wire.randint(1, 3)))))))
        templates.append(AlertTemplate(
            f"dns-{ip}", "snort", wire.choice((0.5, 1.0, 2.0)),
            (("sig_id", (str(2400001 + h % 15),)), ("src_ip", (ip,)),
             ("dst_ip", servers[:2]))))
        rules = tuple(str(r) for r in wire.sample(range(5601, 5641), wire.randint(2, 4)))
        templates.append(AlertTemplate(
            f"auth-{ip}", "ossec", wire.choice((0.5, 1.0, 2.0, 3.0)),
            (("rule_id", rules), ("logfile", ("/var/log/auth.log", "/var/log/secure")),
             ("src_ip", (ip,)))))
    for j, server in enumerate(servers):
        clients = tuple(f"10.21.0.{c}" for c in wire.sample(range(1, hosts + 1), 20))
        templates.append(AlertTemplate(
            f"weblog-{server}", "ossec", wire.choice((8.0, 16.0, 32.0)),
            (("rule_id", ("31201", "31202", "31203")),
             ("logfile", (f"/var/log/app{j % 6}.log",)), ("src_ip", clients))))
    return templates


def test_wide_template_set_matches(fallbacks):
    cfg = ScenarioConfig(duration_days=6.0, training_days=2.0, origin=SMALL_ORIGIN,
                         seed=11, templates=wide_templates())
    assert_same_draws(cfg)
    assert fallbacks == []


def test_rejected_draw_falls_back_to_the_per_alert_loop(fallbacks):
    # 2**32 mod (3 * 2**30) = 2**30: a quarter of the draws from this pool
    # are rejected and redrawn
    huge = AlertTemplate("huge", "snort", 20.0,
                         (("sig_id", range(3 * 2**30)), ("src_ip", ("10.0.0.1", "10.0.0.2"))))
    small = AlertTemplate("small", "ossec", 5.0,
                          (("rule_id", ("1", "2", "3")), ("src_ip", ("10.0.0.1",))))
    cfg = ScenarioConfig(duration_days=2.0, training_days=1.0, origin=SMALL_ORIGIN,
                         seed=3, templates=[small, huge], spike=SpikeSpec(4, 3))
    assert_same_draws(cfg)
    assert len(fallbacks) == 2  # the background stream and the attack stream


# --- drawn templates ---------------------------------------------------------

FIELD_KEYS = ("sig_id", "rule_id", "src_ip", "dst_ip", "logfile", "hostname")
pool_sizes = st.integers(1, 40) | st.sampled_from([1, 2, 4, 8, 16, 32])


@st.composite
def templates(draw, name):
    keys = draw(st.lists(st.sampled_from(FIELD_KEYS), min_size=1, max_size=3, unique=True))
    fields = tuple(
        (key, tuple(f"{key}-{i}" for i in range(draw(pool_sizes)))) for key in keys
    )
    return AlertTemplate(name, draw(st.sampled_from(["snort", "ossec"])),
                         draw(st.floats(0.05, 50.0)), fields)


@st.composite
def scenarios(draw):
    background = [draw(templates(f"t{i}")) for i in range(draw(st.integers(0, 6)))]
    attack = None
    if draw(st.booleans()):
        waves = tuple(AttackWave(offset, draw(templates(f"a{offset}")), draw(st.integers(1, 30)))
                      for offset in range(draw(st.integers(1, 2))))
        attack = AttackSpec(start_window=4, waves=waves)
    spike = SpikeSpec(3, draw(st.integers(2, 4))) if draw(st.booleans()) else None
    return ScenarioConfig(duration_days=2.0, training_days=1.0, origin=SMALL_ORIGIN,
                          seed=draw(st.integers(0, 2**32)), templates=background,
                          attack=attack, spike=spike)


@settings(deadline=None, max_examples=60)
@given(scenarios())
def test_drawn_templates_match_the_per_alert_draw(cfg):
    assert_same_draws(cfg)
