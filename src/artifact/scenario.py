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

The stream comes back as an `ingest.Alerts` table. Each (window, template)
batch keeps its scalar `poisson` count and takes the raw 64-bit words its
alerts need in one `bit_generator.random_raw` call; the words are decoded
in numpy into exactly what numpy's per-alert `uniform` and `integers` calls
on PCG64 give: `next_double`, and the bounded integers with the buffered
32-bit half (see "generation" below). A Lemire rejection found in the
decode sends the whole scenario back through those per-alert calls.
"""

from __future__ import annotations

import configparser
import logging
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from artifact.ingest import (
    Alerts, ConfigError, FieldTuple, LAYER_BY_FIELD, WindowSpec, parse_utc, read_ini,
)

logger = logging.getLogger(__name__)

DEFAULT_ORIGIN = datetime(2021, 3, 1, tzinfo=timezone.utc).timestamp()


class SpanError(ConfigError):
    """An injection span overlaps a region it must not touch."""


@dataclass(frozen=True)
class AlertTemplate:
    """One background alert shape: a source, a rate, and value pools."""

    name: str
    source: str
    rate: float  # expected alerts per window
    fields: tuple[tuple[str, tuple[str, ...]], ...]  # (field key, value pool)


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


# The largest rate numpy's Generator.poisson accepts.
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


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

    def drawn_templates(self) -> list[AlertTemplate]:
        """The background templates, then each attack wave's."""
        waves = self.attack.waves if self.attack is not None else ()
        return [*self.templates, *(wave.template for wave in waves)]

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
            if not 0 < t.rate <= POISSON_LAM_MAX:
                raise ConfigError(
                    f"template {t.name!r} has rate {t.rate!r}; it must be positive"
                    f" and at most {POISSON_LAM_MAX!r}"
                )
        for t in self.drawn_templates():
            if t.source not in ("snort", "ossec"):
                raise ConfigError(f"template {t.name!r} has unknown source")
            for key, pool in t.fields:
                if key not in LAYER_BY_FIELD:
                    raise ConfigError(
                        f"template {t.name!r} uses undeclared field {key!r}"
                    )
                if not pool:
                    raise ConfigError(f"template {t.name!r} has an empty pool")
        # generate_scenario numbers every field-value combination in int64
        combinations = sum(
            math.prod(len(pool) for _, pool in t.fields) for t in self.drawn_templates()
        )
        if combinations >= 2**63:
            raise ConfigError("the templates have 2**63 or more field-value combinations")
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
#
# Each child stream draws its alerts in batches of one template in one window.
# An alert costs one uniform draw for its time, then one bounded integer draw
# for each field whose pool holds more than one value, in field order. The
# batch draw reproduces numpy's per-alert calls on PCG64 exactly:
#
# * `uniform(0, L)` is `L * ((w >> 11) * 2**-53)` of one 64-bit word w
#   (numpy's `next_double`);
# * `integers(n)` for n > 1 is Lemire's method over a 32-bit half: the value
#   is `(h * n) >> 32`, and the draw is rejected and redone when
#   `(h * n) mod 2**32 < 2**32 mod n` (Lemire, "Fast Random Integer Generation
#   in an Interval", ACM TOMACS 2019; numpy's `_bounded_integers`). A fresh
#   word gives its low half first and keeps its high half for the next 32-bit
#   draw, across batches, since `poisson` draws only 64-bit words;
# * `integers(1)` draws nothing.
#
# The batch takes the words it needs with `bit_generator.random_raw`, and the
# decode runs in numpy over many batches at once. A rejection shifts every
# later draw, so when the decode finds one (probability below n / 2**32 per
# draw), or a pool holds more than 2**32 values, the whole scenario is drawn
# again with numpy's per-alert calls. NEP 19 lets numpy change these streams
# between versions; tests/test_scenario_draws.py compares the two draws and
# catches such a change.

_MASK32 = np.uint64(0xFFFFFFFF)
# About this many alerts are decoded at a time, which bounds the words held
# and the decode's temporaries.
_DECODE_SLICE = 1 << 12


class _Rejected(Exception):
    """The batch draw cannot reproduce the per-alert draw."""


_Batch = tuple[int, float, int]  # (template index, window start, alert count)


class _Codebook:
    """Every (template, value index per field) combination of a scenario's
    background and attack templates as one int64 code: the template's base
    plus each field's value index times its stride."""

    def __init__(self, templates: list[AlertTemplate]) -> None:
        self.templates = templates
        self.strides: list[list[int]] = []
        bases = []
        total = 0
        for t in templates:
            bases.append(total)
            stride, strides = 1, []
            for _, pool in t.fields:
                strides.append(stride)
                stride *= len(pool)
            self.strides.append(strides)
            total += stride
        self.base = np.array(bases, dtype=np.int64)
        # The fields drawn from, in order: pools of more than one value.
        drawn = [
            [(len(pool), s) for (_, pool), s in zip(t.fields, strides) if len(pool) > 1]
            for t, strides in zip(templates, self.strides)
        ]
        self.decodable = all(n <= 2**32 for fields in drawn for n, _ in fields)
        self.k = np.array([len(fields) for fields in drawn], dtype=np.int64)
        width = int(self.k.max(initial=0))
        self.size = np.ones((len(templates), width), dtype=np.uint64)
        self.stride = np.zeros((len(templates), width), dtype=np.int64)
        for i, fields in enumerate(drawn):
            for j, (n, s) in enumerate(fields):
                self.size[i, j] = min(n, 2**32)  # a larger pool is never decoded
                self.stride[i, j] = s
        # Lemire's rejection bound, 2**32 mod n
        self.threshold = (2**32 - self.size) % self.size

    def key(self, code: int) -> tuple[str, FieldTuple]:
        i = int(np.searchsorted(self.base, code, side="right")) - 1
        t, rest = self.templates[i], code - int(self.base[i])
        return t.source, tuple(
            (key, pool[rest // stride % len(pool)])
            for (key, pool), stride in zip(t.fields, self.strides[i])
        )


def _child_rngs(seed: int) -> tuple[np.random.Generator, ...]:
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(np.random.default_rng(c) for c in children)


def _background_batches(cfg: ScenarioConfig, rng: np.random.Generator) -> Iterator[_Batch]:
    """Window by window, each template's Poisson count, drawn as it is asked for."""
    for w in range(cfg.n_windows):
        start = cfg.origin + w * cfg.window_length
        for i, template in enumerate(cfg.templates):
            yield i, start, int(rng.poisson(template.rate))


def _attack_batches(cfg: ScenarioConfig) -> Iterator[_Batch]:
    if cfg.attack is not None:
        for i, wave in enumerate(cfg.attack.waves, len(cfg.templates)):
            window = cfg.attack.start_window + wave.window_offset
            yield i, cfg.origin + window * cfg.window_length, wave.count


def _per_alert(rng: np.random.Generator, batches: Iterator[_Batch], book: _Codebook,
               length: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Times and codes in draw order, one numpy call per draw, as one chunk."""
    times: list[float] = []
    codes: list[int] = []
    for i, start, count in batches:
        pools = [(len(pool), stride)
                 for (_, pool), stride in zip(book.templates[i].fields, book.strides[i])]
        base = int(book.base[i])
        for _ in range(count):
            times.append(start + float(rng.uniform(0.0, length)))
            codes.append(base + sum(int(rng.integers(n)) * stride for n, stride in pools))
    return [(np.array(times, dtype=np.float64), np.array(codes, dtype=np.int64))]


def _columns(rng: np.random.Generator, batches: Iterator[_Batch], book: _Codebook,
             length: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Times and codes in draw order, from each batch's raw words, in chunks
    of about `_DECODE_SLICE` alerts."""
    if not book.decodable:
        raise _Rejected
    raw = rng.bit_generator.random_raw
    decoded: list[tuple[np.ndarray, np.ndarray]] = []
    rows: list[tuple[int, float, int, int, int]] = []
    words: list[np.ndarray] = []
    # `spare` is the buffered high half of the last fresh word, or -1.
    spare, offset, pending = -1, 0, 0
    for i, start, count in batches:
        if not count:
            continue
        halves = count * int(book.k[i])
        carried = spare >= 0
        fresh = max(0, (halves - carried + 1) // 2)
        rows.append((i, start, count, spare, offset))
        words.append(raw(count + fresh))
        if halves:
            # the last fresh word is the batch's last word
            spare = int(words[-1][-1] >> 32) if carried + 2 * fresh > halves else -1
        offset += count + fresh
        pending += count
        if pending >= _DECODE_SLICE:
            decoded.append(_decode(np.concatenate(words), rows, book, length))
            rows, words, offset, pending = [], [], 0, 0
    if rows:
        decoded.append(_decode(np.concatenate(words), rows, book, length))
    return decoded


def _decode(words: np.ndarray, rows: list[tuple[int, float, int, int, int]],
            book: _Codebook, length: float) -> tuple[np.ndarray, np.ndarray]:
    """Times and codes of the batches `rows` from their words.

    A row is (template, window start, alert count, buffered half or -1,
    offset of the batch's first word). Alert j of a batch that starts with
    b buffered halves and draws k halves per alert takes its uniform word
    after j earlier uniforms and ceil((j*k - b) / 2) fresh words. Its half
    g = j*k + f, for g >= b, is half (g - b) % 2 (low first) of fresh word
    q = (g - b) // 2, which is drawn right after alert (2q + b) // k's
    uniform."""
    template, start, count, spare, offset = map(np.array, zip(*rows))
    batch = np.repeat(np.arange(len(rows)), count)
    j = np.arange(len(batch)) - np.repeat(np.cumsum(count) - count, count)
    t = template[batch]
    k = book.k[t]
    carry = spare[batch]
    b = (carry >= 0).astype(np.int64)
    base = offset[batch]
    jk = j * k
    u = words[base + j + (jk - b + 1) // 2] >> np.uint64(11)
    times = start[batch] + length * (u.astype(np.float64) * 2.0**-53)
    codes = book.base[t]
    for f in range(book.size.shape[1]):
        m = k > f
        g = jk[m] + f - b[m]
        q = g // 2
        word = words[np.where(g < 0, 0, base[m] + q + (2 * q + b[m]) // k[m] + 1)]
        half = np.where(g < 0, carry[m].astype(np.uint64),
                        np.where(g % 2 == 1, word >> np.uint64(32), word & _MASK32))
        product = half * book.size[t[m], f]
        if (product & _MASK32 < book.threshold[t[m], f]).any():
            raise _Rejected
        codes[m] += (product >> np.uint64(32)).astype(np.int64) * book.stride[t[m], f]
    return times, codes


def attack_records(cfg: ScenarioConfig) -> Alerts:
    """The injected attack alerts alone (deterministic per seed), sorted."""
    return generate_scenario(replace(cfg, templates=[], spike=None))


def generate_background(cfg: ScenarioConfig) -> Alerts:
    """Poisson-sampled background alerts, sorted by timestamp."""
    return generate_scenario(replace(cfg, attack=None, spike=None))


def _draw(cfg: ScenarioConfig, book: _Codebook,
          method: Callable[..., list[tuple[np.ndarray, np.ndarray]]]
          ) -> tuple[np.ndarray, np.ndarray, np.random.Generator]:
    """Background then attack times and codes, each in draw order; the
    spike stream last."""
    background_rng, attack_rng, spike_rng = _child_rngs(cfg.seed)
    length = cfg.window_length
    chunks = [
        *method(background_rng, _background_batches(cfg, background_rng), book, length),
        *method(attack_rng, _attack_batches(cfg), book, length),
    ]
    times = np.concatenate([np.empty(0), *(t for t, _ in chunks)])
    codes = np.concatenate([np.empty(0, dtype=np.int64), *(c for _, c in chunks)])
    return times, codes, spike_rng


def generate_scenario(cfg: ScenarioConfig) -> Alerts:
    """Background plus whatever injections the config declares, sorted by
    timestamp. The sorts are stable, so equal timestamps keep background
    before attack before spike copies, and each stream's draw order."""
    cfg.validate()
    book = _Codebook(cfg.drawn_templates())
    try:
        times, codes, spike_rng = _draw(cfg, book, _columns)
    except _Rejected:
        logger.info("a bounded draw was rejected; drawing the scenario again alert by alert")
        times, codes, spike_rng = _draw(cfg, book, _per_alert)
    order = np.argsort(times, kind="stable")
    times = times[order]
    codes = codes[order]
    if cfg.spike is not None:
        # re-drawn copies of every alert timed in [start, start + length)
        length = cfg.window_length
        start = cfg.origin + cfg.spike.window * length
        lo, hi = np.searchsorted(times, [start, start + length]).tolist()
        copies = cfg.spike.multiplier - 1
        spiked = np.concatenate([
            times[lo:hi], start + spike_rng.uniform(0.0, length, size=(hi - lo) * copies)
        ])
        order = np.argsort(spiked, kind="stable")
        times = np.concatenate([times[:lo], spiked[order], times[hi:]])
        spiked_codes = np.concatenate([codes[lo:hi], np.repeat(codes[lo:hi], copies)])
        codes = np.concatenate([codes[:lo], spiked_codes[order], codes[hi:]])
    # The distinct codes by a sort: with numpy 2.4, np.unique here allocates
    # and frees a table that leaves the process several MB larger.
    ordered = np.sort(codes)
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first]
    logger.info("generated %d alerts over %d windows", len(times), cfg.n_windows)
    return Alerts(times, np.searchsorted(distinct, codes),
                  [book.key(code) for code in distinct.tolist()])


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
