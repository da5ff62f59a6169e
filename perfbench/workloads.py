"""Seeded input generators for the benchmark workloads.

Every workload is an `artifact.scenario` stream, rendered to files the CLI
reads. The same seed gives byte-identical files. Three workloads stress
different layers:

* ``paper-21d-jsonl``: the paper's 21-day scenario (24 hosts, attack at
  window 54, 10x spike at window 31) with every background rate scaled, as
  JSONL. Ingest and graph build dominate.
* ``sensors-6d-native``: the 6-day test-suite scenario rendered as a Snort
  fast log, an OSSEC ``alerts.log`` and a hostmap, so the regex parsers,
  OSSEC block splitting and the hostname fold run.
* ``widenet-6d-jsonl``: a wide network of hundreds of sparse hosts. The
  training graph is wide, so features and roles dominate.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from artifact.ingest import AlertRecord, WindowSpec, write_jsonl
from artifact.scenario import AlertTemplate, ScenarioConfig, default_scenario

ORIGIN_UTC = "2021-03-01T00:00:00Z"
WINDOW_HOURS = 8
SNORT_YEAR = 2021
# The window grid every workload is trained and scored on.
GRID = WindowSpec(
    origin=datetime.fromisoformat(ORIGIN_UTC.replace("Z", "+00:00")).timestamp(),
    length=WINDOW_HOURS * 3600.0,
)


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str               # "jsonl" or "native"
    duration_days: float
    training_days: float
    scale: float           # background rate multiplier against the base scenario
    attack_window: int | None = None
    spike_window: int | None = None
    # None: the default network with its attack and spike; else a quiet
    # network of these templates.
    templates: Callable[[], list[AlertTemplate]] | None = None

    def scenario(self, seed: int, scale: float | None = None) -> ScenarioConfig:
        factor = self.scale if scale is None else scale
        if self.templates is not None:
            cfg = ScenarioConfig(
                duration_days=self.duration_days,
                training_days=self.training_days,
                seed=seed,
                templates=self.templates(),
            )
        else:
            cfg = default_scenario(
                seed=seed,
                duration_days=self.duration_days,
                training_days=self.training_days,
                attack_start_window=self.attack_window,
                spike_window=self.spike_window,
            )
        cfg.templates = [replace(t, rate=t.rate * factor) for t in cfg.templates]
        cfg.validate()
        return cfg

    @property
    def scored_windows(self) -> int:
        """Rows `score` writes: every post-training window but the first."""
        return round((self.duration_days - self.training_days) * 24 / WINDOW_HOURS) - 1


# -- the wide network -------------------------------------------------------

WIDENET_WORKSTATIONS = 240
WIDENET_SERVERS = 12
_WIDENET_WIRING_SEED = 20210315


def widenet_templates() -> list[AlertTemplate]:
    """Sparse per-host templates over a wide, fixed wiring.

    Each workstation gets its own small signature, server and rule mix at a
    rate of a few alerts per window, so the graph is wide and most
    (window, source, fields) tuples are rare.
    """
    wire = random.Random(_WIDENET_WIRING_SEED)
    servers = tuple(f"10.20.0.{i}" for i in range(1, WIDENET_SERVERS + 1))
    workstations = tuple(
        f"10.21.{i // 200}.{i % 200 + 1}" for i in range(WIDENET_WORKSTATIONS)
    )
    web_sigs = tuple(str(s) for s in range(2300001, 2300061))
    dns_sigs = tuple(str(s) for s in range(2400001, 2400016))
    auth_rules = tuple(str(r) for r in range(5601, 5641))
    web_rules = tuple(str(r) for r in range(31201, 31213))
    auth_logs = ("/var/log/auth.log", "/var/log/secure", "/var/log/messages")
    server_logs = tuple(f"/var/log/app{j}.log" for j in range(6))

    templates: list[AlertTemplate] = []
    for ws in workstations:
        templates.append(AlertTemplate(
            f"web-{ws}", "snort", wire.choice((1.0, 2.0, 3.0, 5.0)),
            (("sig_id", tuple(sorted(wire.sample(web_sigs, wire.randint(2, 5))))),
             ("src_ip", (ws,)),
             ("dst_ip", tuple(sorted(wire.sample(servers, wire.randint(1, 3)))))),
        ))
        templates.append(AlertTemplate(
            f"dns-{ws}", "snort", wire.choice((0.5, 1.0, 2.0)),
            (("sig_id", tuple(sorted(wire.sample(dns_sigs, wire.randint(1, 3))))),
             ("src_ip", (ws,)), ("dst_ip", servers[:2])),
        ))
        templates.append(AlertTemplate(
            f"auth-{ws}", "ossec", wire.choice((0.5, 1.0, 2.0, 3.0)),
            (("rule_id", tuple(sorted(wire.sample(auth_rules, wire.randint(2, 4))))),
             ("logfile", tuple(sorted(wire.sample(auth_logs, 2)))),
             ("src_ip", (ws,))),
        ))
    for j in range(WIDENET_WORKSTATIONS // 8):
        a, b = wire.sample(workstations, 2)
        templates.append(AlertTemplate(
            f"p2p-{j}", "snort", wire.choice((0.5, 1.0)),
            (("sig_id", (wire.choice(web_sigs),)), ("src_ip", (a,)),
             ("dst_ip", (b,))),
        ))
    for j, server in enumerate(servers):
        templates.append(AlertTemplate(
            f"weblog-{server}", "ossec", wire.choice((8.0, 16.0, 32.0)),
            (("rule_id", tuple(sorted(wire.sample(web_rules, wire.randint(2, 5))))),
             ("logfile", (server_logs[j % len(server_logs)],)),
             ("src_ip", tuple(sorted(wire.sample(workstations, wire.randint(10, 30)))))),
        ))
    return templates


# Scales are set so a run fits in well under a minute. At these scales the
# spike outscores the attack on a few seeds, and a run on one of them reports
# correct: false (perfbench/README.md, "Workloads").
WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-21d-jsonl", "jsonl", 21.0, 7.0, 0.15, 54, 31),
        Workload("sensors-6d-native", "native", 6.0, 2.0, 0.5, 12, 8),
        Workload("widenet-6d-jsonl", "jsonl", 6.0, 2.0, 1.0,
                 templates=widenet_templates),
    )
}


# -- native sensor rendering ------------------------------------------------

def hostname_for(ip: str) -> str:
    return "host-" + ip.replace(".", "-")


def _utc_parts(ts: float) -> tuple[datetime, int]:
    """Whole-second UTC time and truncated microseconds. Truncation keeps a
    rendered timestamp in the window of the original one."""
    secs = math.floor(ts)
    micros = min(int((ts - secs) * 1e6), 999_999)
    return datetime.fromtimestamp(secs, tz=timezone.utc), micros


def snort_fast_line(record: AlertRecord) -> str:
    moment, micros = _utc_parts(record.timestamp)
    f = record.fields
    return (
        f"{moment:%m/%d-%H:%M:%S}.{micros:06d} [**] [1:{f['sig_id']}:1] "
        f"synthetic alert {f['sig_id']} [**] [Classification: Misc activity] "
        f"[Priority: 3] {{TCP}} {f['src_ip']}:40000 -> {f['dst_ip']}:80\n"
    )


def ossec_block(record: AlertRecord) -> str:
    moment, _ = _utc_parts(record.timestamp)
    f = record.fields
    ip = f["src_ip"]
    return (
        f"** Alert {math.floor(record.timestamp)}.{len(f['logfile'])}: - syslog,\n"
        f"{moment:%Y %b %d %H:%M:%S} ({hostname_for(ip)}) {ip}->{f['logfile']}\n"
        f"Rule: {f['rule_id']} (level 5) -> 'synthetic rule {f['rule_id']}'\n"
        f"Src IP: {ip}\n"
        f"synthetic log line for rule {f['rule_id']}\n\n"
    )


# -- writing inputs ---------------------------------------------------------

def render(workload: Workload, stream: list[AlertRecord], out_dir: Path) -> list[Path]:
    """Write the stream in the workload's format; return the files written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload.fmt == "jsonl":
        path = out_dir / "alerts.jsonl"
        write_jsonl(stream, path)
        return [path]
    snort = out_dir / "snort_fast.log"
    ossec = out_dir / "ossec_alerts.log"
    hostmap = out_dir / "hosts.map"
    hosts: set[str] = set()
    with open(snort, "w", encoding="ascii") as sfp, \
            open(ossec, "w", encoding="ascii") as ofp:
        for record in stream:
            if record.source == "snort":
                sfp.write(snort_fast_line(record))
            else:
                hosts.add(record.fields["src_ip"])
                ofp.write(ossec_block(record))
    hostmap.write_text(
        "".join(f"{hostname_for(ip)} {ip}\n" for ip in sorted(hosts)),
        encoding="ascii",
    )
    return [snort, ossec, hostmap]


def input_args(workload: Workload, files: list[Path]) -> list[str]:
    """CLI input flags for the rendered files."""
    if workload.fmt == "jsonl":
        return ["--jsonl", str(files[0])]
    snort, ossec, hostmap = files
    return ["--snort", str(snort), "--ossec", str(ossec),
            "--hostmap", str(hostmap), "--snort-year", str(SNORT_YEAR)]


def window_args(workload: Workload) -> list[str]:
    """The window grid `train` fixes; `score` reads it from the bundle."""
    return ["--window-hours", str(WINDOW_HOURS),
            "--training-days", f"{workload.training_days:g}",
            "--origin-utc", ORIGIN_UTC]


def digest(files: list[Path]) -> str:
    h = hashlib.sha256()
    for path in files:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()
