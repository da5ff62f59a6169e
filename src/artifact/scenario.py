"""Synthetic multi-week alert streams: stationary background, an injected
multi-phase attack, and a volume-spike control.

The background mixes alert templates whose value pools are crafted to give
the co-occurrence graph three broad structural node classes (hub servers,
leaf workstations, bridging artifact values), so role discovery has real
structure to find. The attack inserts a small number of alerts carrying
novel signatures, rules, log files, and an external address — new nodes and
edges, negligible volume. The spike control duplicates one window's
background many times over: same nodes, same edges, only heavier weights.

All randomness flows from one seed through three independent child streams
(background / attack / spike), so removing an injection reproduces the
remaining stream exactly.
"""

from __future__ import annotations

import configparser
import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path
from typing import Iterator

import numpy as np

from artifact.ingest import AlertRecord, LAYER_BY_FIELD, WindowSpec, parse_utc, read_ini

logger = logging.getLogger(__name__)

DEFAULT_ORIGIN = datetime(2021, 3, 1, tzinfo=timezone.utc).timestamp()


class ConfigError(ValueError):
    """Scenario configuration is internally inconsistent."""


class SpanError(ConfigError):
    """An injection span overlaps a region it must not touch."""


@dataclass(frozen=True)
class AlertTemplate:
    """One background alert shape: a source, a rate, and value pools."""

    name: str
    source: str
    rate: float  # expected alerts per window
    fields: tuple[tuple[str, tuple[str, ...]], ...]  # (field key, value pool)

    def sample_fields(self, rng: np.random.Generator) -> dict[str, str]:
        return {
            key: pool[int(rng.integers(len(pool)))] for key, pool in self.fields
        }


@dataclass(frozen=True)
class AttackWave:
    """A fixed number of alerts from one template in one window."""

    window_offset: int
    template: AlertTemplate
    count: int


@dataclass(frozen=True)
class AttackSpec:
    start_window: int
    waves: tuple[AttackWave, ...]

    def windows(self) -> set[int]:
        return {self.start_window + w.window_offset for w in self.waves}

    def total_alerts(self) -> int:
        return sum(w.count for w in self.waves)


@dataclass(frozen=True)
class SpikeSpec:
    window: int
    multiplier: int = 10


@dataclass
class ScenarioConfig:
    duration_days: float = 21.0
    window_hours: float = 8.0
    training_days: float = 7.0
    origin: float = DEFAULT_ORIGIN
    seed: int = 7
    templates: list[AlertTemplate] = field(default_factory=list)
    attack: AttackSpec | None = None
    spike: SpikeSpec | None = None

    @property
    def window_length(self) -> float:
        return self.window_hours * 3600.0

    @property
    def n_windows(self) -> int:
        return int(round(self.duration_days * 24.0 / self.window_hours))

    @property
    def training_windows(self) -> int:
        return self.window_spec().training_windows

    def window_spec(self) -> WindowSpec:
        return WindowSpec(
            origin=self.origin,
            length=self.window_length,
            training_cutoff=self.origin + self.training_days * 86400.0,
        )

    def validate(self) -> None:
        if not (0 < self.duration_days < math.inf and 0 < self.window_hours < math.inf):
            raise ConfigError("durations must be finite and positive")
        if not math.isfinite(self.window_length):
            raise ConfigError("window_hours overflows in seconds")
        if not math.isfinite(self.duration_days * 86400.0 / self.window_length):
            raise ConfigError("duration_days overflows in seconds or in windows")
        if not 0 < self.training_days < self.duration_days:
            raise ConfigError("training period must fit inside the scenario")
        try:
            self.window_spec()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for t in self.templates:
            if t.rate <= 0:
                raise ConfigError(f"template {t.name!r} has nonpositive rate")
            if t.source not in ("snort", "ossec"):
                raise ConfigError(f"template {t.name!r} has unknown source")
            for key, pool in t.fields:
                if key not in LAYER_BY_FIELD:
                    raise ConfigError(
                        f"template {t.name!r} uses undeclared field {key!r}"
                    )
                if not pool:
                    raise ConfigError(f"template {t.name!r} has an empty pool")
        if self.attack is not None:
            if self.attack.start_window < self.training_windows:
                raise SpanError("attack must start after the training period")
            if max(self.attack.windows()) >= self.n_windows:
                raise SpanError("attack extends past the end of the scenario")
            for wave in self.attack.waves:
                if wave.count <= 0:
                    raise ConfigError("attack wave counts must be positive")
        if self.spike is not None:
            if self.spike.window < self.training_windows:
                raise SpanError("spike window must be after the training period")
            if self.spike.window >= self.n_windows:
                raise SpanError("spike window is past the end of the scenario")
            if self.attack is not None and self.spike.window in self.attack.windows():
                raise SpanError("spike window must contain background only")
            if self.spike.multiplier < 2:
                raise ConfigError("spike multiplier must be at least 2")


# -- generation -----------------------------------------------------------------


def _child_rngs(seed: int) -> tuple[np.random.Generator, ...]:
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(np.random.default_rng(c) for c in children)


_timestamp = attrgetter("timestamp")


def _alerts(template: AlertTemplate, count: int, start: float, length: float,
            rng: np.random.Generator) -> Iterator[AlertRecord]:
    """`count` alerts of one template, each timed uniformly over the window
    that opens at `start`."""
    for _ in range(count):
        ts = start + float(rng.uniform(0.0, length))
        yield AlertRecord(template.source, ts, template.sample_fields(rng))


def _attack_alerts(cfg: ScenarioConfig, rng: np.random.Generator) -> list[AlertRecord]:
    """The attack's alerts in draw order, wave by wave."""
    records: list[AlertRecord] = []
    if cfg.attack is not None:
        for wave in cfg.attack.waves:
            window = cfg.attack.start_window + wave.window_offset
            start = cfg.origin + window * cfg.window_length
            records.extend(_alerts(wave.template, wave.count, start, cfg.window_length, rng))
    return records


def attack_records(cfg: ScenarioConfig) -> list[AlertRecord]:
    """The injected attack alerts alone (deterministic per seed), sorted."""
    cfg.validate()
    return sorted(_attack_alerts(cfg, _child_rngs(cfg.seed)[1]), key=_timestamp)


def generate_background(cfg: ScenarioConfig) -> list[AlertRecord]:
    """Poisson-sampled background alerts, sorted by timestamp."""
    return generate_scenario(replace(cfg, attack=None, spike=None))


def generate_scenario(cfg: ScenarioConfig) -> list[AlertRecord]:
    """Background plus whatever injections the config declares, sorted by
    timestamp. The sorts are stable, so equal timestamps keep background
    before attack before spike copies, and each stream's draw order."""
    cfg.validate()
    background_rng, attack_rng, spike_rng = _child_rngs(cfg.seed)
    length = cfg.window_length
    stream: list[AlertRecord] = []
    for w in range(cfg.n_windows):
        start = cfg.origin + w * length
        for template in cfg.templates:
            count = int(background_rng.poisson(template.rate))
            stream.extend(_alerts(template, count, start, length, background_rng))
    stream += _attack_alerts(cfg, attack_rng)
    stream.sort(key=_timestamp)
    if cfg.spike is not None:
        # re-drawn copies of every alert timed in [start, start + length)
        start = cfg.origin + cfg.spike.window * length
        lo = bisect_left(stream, start, key=_timestamp)
        hi = bisect_left(stream, start + length, key=_timestamp)
        for record in stream[lo:hi]:
            for _ in range(cfg.spike.multiplier - 1):
                ts = start + float(spike_rng.uniform(0.0, length))
                stream.append(AlertRecord(record.source, ts, dict(record.fields)))
        stream.sort(key=_timestamp)
    logger.info("generated %d alerts over %d windows", len(stream), cfg.n_windows)
    return stream


# -- the default scenario ---------------------------------------------------------

SERVERS = tuple(f"10.0.0.{i}" for i in range(1, 5))
WORKSTATIONS = tuple(f"10.0.1.{i}" for i in range(1, 21))
SCANNER = ("172.16.9.9",)
ATTACKER = "203.0.113.66"

WEB_SIGS = tuple(str(s) for s in range(2000001, 2000025))        # 24
DNS_SIGS = tuple(str(s) for s in range(2100001, 2100011))        # 10
SCAN_SIGS = tuple(str(s) for s in range(2200001, 2200007))       # 6
AUTH_RULES = tuple(str(r) for r in range(5501, 5517))            # 16
WEB_RULES = tuple(str(r) for r in range(31101, 31109))           # 8
AUTH_LOGS = ("/var/log/auth.log", "/var/log/messages")
WEB_LOGS = ("/var/log/httpd/access.log", "/var/log/httpd/error.log",
            "/var/log/maillog")
SYS_LOGS = ("/var/log/cron", "/var/log/kern.log", "/var/log/daemon.log")
SYS_RULES = tuple(str(r) for r in range(2901, 2907))             # 6

ATTACK_SIGS_ACCESS = tuple(str(s) for s in range(4000001, 4000006))  # 5
ATTACK_SIG_LATERAL = ("4000006",)
ATTACK_RULES_ACCESS = tuple(str(r) for r in range(9901, 9907))       # 6
ATTACK_RULE_LATERAL = ("9907", "9908")
ATTACK_LOG_ACCESS = ("/var/log/mysql_audit.log", "/var/log/mysql_error.log")
ATTACK_LOG_LATERAL = ("/var/log/secure",)

# The network layout (which workstation talks to which servers, raises which
# signatures, at what volume) is fixed wiring, deliberately skewed so nodes
# are structurally individual; only the alert sampling varies with the seed.
_WIRING_SEED = 20210301


def default_templates() -> list[AlertTemplate]:
    import random as _random

    wire = _random.Random(_WIRING_SEED)
    templates: list[AlertTemplate] = []

    # per-workstation web browsing: distinct signature mix, server affinity,
    # and a heavy-tailed rate
    for i, ws in enumerate(WORKSTATIONS):
        sigs = tuple(sorted(wire.sample(WEB_SIGS, wire.randint(3, 8))))
        favorites = tuple(sorted(wire.sample(SERVERS, wire.randint(1, 2))))
        rate = wire.choice((120.0, 180.0, 280.0, 440.0, 680.0, 1040.0))
        templates.append(
            AlertTemplate(
                f"web-{ws}", "snort", rate,
                (("sig_id", sigs), ("src_ip", (ws,)), ("dst_ip", favorites)),
            )
        )

    # per-workstation DNS chatter toward the two resolver hosts
    for ws in WORKSTATIONS:
        sigs = tuple(sorted(wire.sample(DNS_SIGS, wire.randint(2, 4))))
        rate = wire.choice((40.0, 80.0, 140.0, 220.0))
        templates.append(
            AlertTemplate(
                f"dns-{ws}", "snort", rate,
                (("sig_id", sigs), ("src_ip", (ws,)),
                 ("dst_ip", SERVERS[2:])),
            )
        )

    # sparse peer-to-peer traffic between a few workstation pairs
    for j in range(8):
        a, b = wire.sample(WORKSTATIONS, 2)
        sig = wire.choice(WEB_SIGS)
        templates.append(
            AlertTemplate(
                f"p2p-{j}", "snort", wire.choice((32.0, 60.0, 100.0)),
                (("sig_id", (sig,)), ("src_ip", (a,)), ("dst_ip", (b,))),
            )
        )

    templates.append(
        AlertTemplate(
            "scan-noise", "snort", 1400.0,
            (("sig_id", SCAN_SIGS), ("src_ip", SCANNER),
             ("dst_ip", tuple(sorted(wire.sample(SERVERS + WORKSTATIONS, 12))))),
        )
    )

    # per-workstation host agent: its own slice of auth rules
    for i, ws in enumerate(WORKSTATIONS):
        rules = tuple(sorted(wire.sample(AUTH_RULES, wire.randint(3, 7))))
        rate = wire.choice((60.0, 100.0, 160.0, 260.0, 400.0))
        templates.append(
            AlertTemplate(
                f"auth-{ws}", "ossec", rate,
                (("rule_id", rules), ("logfile", AUTH_LOGS), ("src_ip", (ws,))),
            )
        )

    # server-side web/error logs triggered by workstation clients
    for j, logfile in enumerate(WEB_LOGS):
        rules = tuple(sorted(wire.sample(WEB_RULES, 4 + j)))
        clients = tuple(sorted(wire.sample(WORKSTATIONS, 8 + 2 * j)))
        templates.append(
            AlertTemplate(
                f"weblog-{j}", "ossec", 600.0,
                (("rule_id", rules), ("logfile", (logfile,)),
                 ("src_ip", clients)),
            )
        )

    # low-volume system chatter binding system logs to a few machines
    for j, logfile in enumerate(SYS_LOGS):
        rules = tuple(sorted(wire.sample(SYS_RULES, 3)))
        hosts = tuple(sorted(wire.sample(SERVERS + WORKSTATIONS, 5 + j)))
        templates.append(
            AlertTemplate(
                f"syslog-{j}", "ossec", 240.0,
                (("rule_id", rules), ("logfile", (logfile,)),
                 ("src_ip", hosts)),
            )
        )
    return templates


def default_attack(start_window: int = 54) -> AttackSpec:
    """Two-phase intrusion: database access from outside, then lateral
    movement from the compromised server — about 300 alerts in total."""
    initial_snort = AlertTemplate(
        "attack-sqli", "snort", 1.0,
        (("sig_id", ATTACK_SIGS_ACCESS), ("src_ip", (ATTACKER,)),
         ("dst_ip", (SERVERS[0],))),
    )
    initial_ossec = AlertTemplate(
        "attack-dbaudit", "ossec", 1.0,
        (("rule_id", ATTACK_RULES_ACCESS), ("logfile", ATTACK_LOG_ACCESS),
         ("src_ip", (ATTACKER,))),
    )
    lateral_snort = AlertTemplate(
        "attack-lateral", "snort", 1.0,
        (("sig_id", ATTACK_SIG_LATERAL), ("src_ip", (SERVERS[0],)),
         ("dst_ip", WORKSTATIONS[:6])),
    )
    lateral_ossec = AlertTemplate(
        "attack-logins", "ossec", 1.0,
        (("rule_id", ATTACK_RULE_LATERAL), ("logfile", ATTACK_LOG_LATERAL),
         ("src_ip", (SERVERS[0],))),
    )
    return AttackSpec(
        start_window=start_window,
        waves=(
            AttackWave(0, initial_snort, 90),
            AttackWave(0, initial_ossec, 70),
            AttackWave(1, lateral_snort, 80),
            AttackWave(1, lateral_ossec, 60),
        ),
    )


def default_scenario(
    seed: int = 7,
    attack_start_window: int = 54,
    spike_window: int = 31,
    spike_multiplier: int = 10,
    with_attack: bool = True,
    with_spike: bool = True,
    **overrides,
) -> ScenarioConfig:
    cfg = ScenarioConfig(
        seed=seed,
        templates=default_templates(),
        attack=default_attack(attack_start_window) if with_attack else None,
        spike=SpikeSpec(spike_window, spike_multiplier) if with_spike else None,
        **overrides,
    )
    cfg.validate()
    return cfg


# -- config file ---------------------------------------------------------------

def _yes_no(text: str) -> bool:
    """An INI boolean, as configparser reads one."""
    value = configparser.ConfigParser.BOOLEAN_STATES.get(text.lower())
    if value is None:
        raise ValueError(f"{text!r} is not a boolean")
    return value


# The INI keys `load_scenario_config` reads, and the `default_scenario`
# argument each one sets.
SCENARIO_KEYS = {
    ("scenario", "origin_utc"): ("origin", parse_utc),
    ("scenario", "duration_days"): ("duration_days", float),
    ("scenario", "window_hours"): ("window_hours", float),
    ("scenario", "training_days"): ("training_days", float),
    ("scenario", "seed"): ("seed", int),
    ("scenario", "attack_start_window"): ("attack_start_window", int),
    ("scenario", "spike_window"): ("spike_window", int),
    ("scenario", "spike_multiplier"): ("spike_multiplier", int),
    ("scenario", "with_attack"): ("with_attack", _yes_no),
    ("scenario", "with_spike"): ("with_spike", _yes_no),
}


def load_scenario_config(path: Path | str) -> ScenarioConfig:
    """Scalar knobs come from the INI file; the template mixture is the
    module's crafted default (its structure is part of the design)."""
    return default_scenario(**read_ini(path, SCENARIO_KEYS, ConfigError))
