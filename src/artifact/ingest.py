"""Parsers and time windowing for IDS alert streams.

Three input formats are supported:

* Snort "fast" alert lines, e.g.::

    11/30-20:00:01.000000 [**] [1:215:3] MSG [**] [Classification: x] \
[Priority: 2] {TCP} 10.10.255.77:4444 -> 10.10.255.254:80

  The fast format omits the year, so the caller must supply one. Only the
  signature id (the middle integer of the [gid:sid:rev] triple) and the two
  IP addresses are kept; message, classification, priority, protocol and
  ports are parsed past and discarded.

* OSSEC ``alerts.log`` blocks ("** Alert <epoch>..." through a blank line).
  Kept fields: rule id, the log file from the location suffix, and the source
  IP when a "Src IP:" line is present. The hostname in the location prefix is
  carried along for :func:`normalize_record` to resolve against a host map.

* A JSONL interchange format, one record per line:
  ``{"source": ..., "ts": ..., "fields": {...}}``. Sources other than
  snort/ossec are accepted as-is so third-party IDSs can feed the pipeline.
"""

from __future__ import annotations

import json
import logging
import math
import re
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

logger = logging.getLogger(__name__)

SNORT = "snort"
OSSEC = "ossec"

# Canonical layer per field key. src/dst/agent addresses share one "ip" layer
# so the same address is the same graph vertex no matter which IDS or field
# reported it. Unknown keys become their own layer.
LAYER_BY_FIELD = {
    "src_ip": "ip",
    "dst_ip": "ip",
    "agent_ip": "ip",
    "hostname": "ip",
    "sig_id": "signature",
    "rule_id": "rule",
    "logfile": "logfile",
}


def layer_for(key: str) -> str:
    """Graph layer a field key maps to."""
    return LAYER_BY_FIELD.get(key, key)


class MalformedLineError(ValueError):
    """A Snort fast line is missing its timestamp, signature triple or IP pair."""


class MalformedBlockError(ValueError):
    """An OSSEC alert block is missing its epoch header or Rule line."""


@dataclass
class ParseStats:
    """Counters accumulated while reading and normalizing alert files."""

    lines: int = 0
    parsed: int = 0
    skipped: int = 0
    dropped_before_origin: int = 0
    unresolved_hostnames: int = 0
    hostname_collisions: int = 0


# 10000-01-01T00:00:00Z. Past it a window start has no UTC date to print.
MAX_TIMESTAMP = 253402300800.0


def valid_timestamp(ts: float) -> bool:
    """A positive epoch second before year 10000; NaN and infinities fail."""
    return 0.0 < ts < MAX_TIMESTAMP


def check_fields(fields: dict[str, str]) -> None:
    if not fields:
        raise ValueError("record has no fields")
    for key, value in fields.items():
        if not isinstance(value, str) or not value:
            raise ValueError(f"empty or non-string value for field {key!r}")


@dataclass
class AlertRecord:
    """One parsed IDS alert: source tag, UTC epoch timestamp, ordered fields."""

    source: str
    timestamp: float
    fields: dict[str, str]

    def validate(self) -> None:
        if not valid_timestamp(self.timestamp):
            raise ValueError(f"timestamp {self.timestamp!r} is not a positive finite epoch")
        check_fields(self.fields)


class KeyedAlerts:
    """Alerts as two typed columns, a float64 timestamp and the id of the
    alert's distinct (source, fields) key, plus the keys by id.

    An alert costs 16 bytes; its source and fields are stored once per
    distinct key, so memory grows with the keys rather than the alerts.
    """

    def __init__(self) -> None:
        self.times = array("d")
        self.ids = array("q")
        self.keys: list[tuple[str, dict[str, str]]] = []
        self._id_of: dict[tuple[str, tuple[tuple[str, str], ...]], int] = {}

    def __len__(self) -> int:
        return len(self.times)

    def key_id(self, source: str, fields: dict[str, str]) -> int:
        key = (source, tuple(fields.items()))
        kid = self._id_of.get(key)
        if kid is None:
            kid = self._id_of[key] = len(self.keys)
            self.keys.append((source, fields))
        return kid

    def records(self) -> list[AlertRecord]:
        """One record per alert, in reading order."""
        keys = self.keys
        return [
            AlertRecord(keys[k][0], t, dict(keys[k][1]))
            for t, k in zip(self.times, self.ids)
        ]


@dataclass
class HostMap:
    """Hostname to IPv4 mapping used to fold host-based alerts into the ip layer."""

    entries: dict[str, str] = field(default_factory=dict)

    def resolve(self, hostname: str) -> str | None:
        return self.entries.get(hostname.strip().lower())

    def __len__(self) -> int:
        return len(self.entries)


_IPV4_RE = re.compile(r"^\d{1,3}(?:\.\d{1,3}){3}$")


def _is_ipv4(text: str) -> bool:
    if not _IPV4_RE.match(text):
        return False
    return all(int(part) <= 255 for part in text.split("."))


def load_hostmap(path: str | Path) -> HostMap:
    """Load a "hostname ip" per line text file; '#' starts a comment."""
    entries: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"hostmap line needs 'hostname ip': {raw!r}")
        name, ip = parts[0].lower(), parts[1]
        if not _is_ipv4(ip):
            raise ValueError(f"hostmap value is not an IPv4 address: {raw!r}")
        if name in entries:
            raise ValueError(f"duplicate hostname in hostmap: {name!r}")
        entries[name] = ip
    return HostMap(entries)


@dataclass(frozen=True)
class WindowSpec:
    """Non-overlapping contiguous time windows: window k covers
    [origin + k*length, origin + (k+1)*length)."""

    origin: float
    length: float = 28800.0  # 8 hours
    training_cutoff: float | None = None

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("window length must be positive")
        if self.training_cutoff is None:
            object.__setattr__(self, "training_cutoff", self.origin)
        if self.training_cutoff < self.origin:
            raise ValueError("training_cutoff must be >= origin")

    def window_of(self, ts: float) -> int:
        return math.floor((ts - self.origin) / self.length)

    def span(self, index: int) -> tuple[float, float]:
        start = self.origin + index * self.length
        return start, start + self.length

    @property
    def training_windows(self) -> int:
        """Number of windows fully or partially covered by the training span."""
        return math.ceil((self.training_cutoff - self.origin) / self.length)


# --- Snort fast format ------------------------------------------------------
#
# Each format splits its parse in two: a scan per line (or block) that yields
# the timestamp and a raw key of the kept field values, and a key builder
# that checks the raw key and turns it into (source, fields). The file
# readers run the builder once per distinct raw key.

_SNORT_TS_RE = re.compile(
    r"^(\d{2})/(\d{2})(?:/(\d{2,4}))?-(\d{2}):(\d{2}):(\d{2})\.(\d{1,6})"
)
_SNORT_SIG_RE = re.compile(r"\[(\d+):(\d+):(\d+)\]")
_SNORT_ADDR_RE = re.compile(
    r"(\d{1,3}(?:\.\d{1,3}){3})(?::\d{1,5})?\s*->\s*(\d{1,3}(?:\.\d{1,3}){3})(?::\d{1,5})?"
)


def _scan_snort(line: str, year: int) -> tuple[float, tuple[str, str, str]]:
    line = line.strip()
    ts_match = _SNORT_TS_RE.match(line)
    if not ts_match:
        raise MalformedLineError("no leading timestamp")
    month, day, line_year, hh, mm, ss, frac = ts_match.groups()
    if line_year is not None:
        year = int(line_year)
        if year < 100:
            year += 2000
    micros = int(frac.ljust(6, "0"))
    try:
        moment = datetime(
            year, int(month), int(day), int(hh), int(mm), int(ss), micros,
            tzinfo=timezone.utc,
        )
    except ValueError as exc:
        raise MalformedLineError(f"invalid datetime: {exc}") from exc

    rest = line[ts_match.end():]
    sig_match = _SNORT_SIG_RE.search(rest)
    if not sig_match:
        raise MalformedLineError("no [gid:sid:rev] signature triple")
    addr_match = _SNORT_ADDR_RE.search(rest, sig_match.end())
    if not addr_match:
        raise MalformedLineError("no 'src -> dst' IP pair")
    return moment.timestamp(), (sig_match.group(2), addr_match.group(1), addr_match.group(2))


def _snort_key(raw: tuple[str, str, str]) -> tuple[str, dict[str, str]]:
    sig_id, src_ip, dst_ip = raw
    if not (_is_ipv4(src_ip) and _is_ipv4(dst_ip)):
        raise MalformedLineError("address is not a valid IPv4 dotted quad")
    return SNORT, {"sig_id": sig_id, "src_ip": src_ip, "dst_ip": dst_ip}


def parse_snort_fast(line: str, year: int) -> AlertRecord:
    """Parse one Snort fast-format alert line.

    `year` is required because the fast format usually omits it; a year
    embedded in the line (MM/DD/YY- variant) takes precedence.

    Raises MalformedLineError when the timestamp, the [gid:sid:rev] triple or
    the "src -> dst" IP pair cannot be found.
    """
    ts, raw = _scan_snort(line, year)
    source, fields = _snort_key(raw)
    return AlertRecord(source, ts, fields)


# --- OSSEC alerts.log -------------------------------------------------------

_OSSEC_HEAD_RE = re.compile(r"^\*\* Alert (\d+)\.\d+:")
_OSSEC_RULE_RE = re.compile(r"^Rule: (\d+)\b")
_OSSEC_LOCATION_RE = re.compile(
    r"^\d{4} \w{3}\s+\d{1,2} \d{2}:\d{2}:\d{2} (?P<loc>.+?)->(?P<logfile>\S+)\s*$"
)
_OSSEC_SRC_IP_RE = re.compile(r"^Src IP: (\S+)")

OssecKey = tuple[str, str, "str | None", "str | None"]  # rule, logfile, src ip, host


def _scan_ossec(lines: Iterable[str]) -> tuple[float, OssecKey]:
    epoch: float | None = None
    rule_id: str | None = None
    logfile: str | None = None
    hostname: str | None = None
    src_ip: str | None = None

    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if epoch is None:
            head = _OSSEC_HEAD_RE.match(line)
            if head:
                epoch = float(head.group(1))
                continue
        if logfile is None:
            loc = _OSSEC_LOCATION_RE.match(line)
            if loc:
                logfile = loc.group("logfile")
                where = loc.group("loc").strip()
                if where.startswith("("):
                    # remote agent form "(name) ip->logfile"
                    hostname = where[1:].split(")", 1)[0].strip()
                else:
                    hostname = where
                continue
        if rule_id is None:
            rule = _OSSEC_RULE_RE.match(line)
            if rule:
                rule_id = rule.group(1)
                continue
        if src_ip is None:
            src = _OSSEC_SRC_IP_RE.match(line)
            if src:
                value = src.group(1)
                if value and value != "(none)":
                    src_ip = value

    if epoch is None:
        raise MalformedBlockError("no '** Alert <epoch>' header")
    if not valid_timestamp(epoch):
        raise MalformedBlockError(f"epoch {epoch!r} out of range")
    if rule_id is None:
        raise MalformedBlockError("no 'Rule:' line")
    if logfile is None:
        raise MalformedBlockError("no location line with '->'")
    return epoch, (rule_id, logfile, src_ip, hostname)


def _ossec_key(raw: OssecKey) -> tuple[str, dict[str, str]]:
    rule_id, logfile, src_ip, hostname = raw
    fields: dict[str, str] = {"rule_id": rule_id, "logfile": logfile}
    if src_ip:
        fields["src_ip"] = src_ip
    if hostname:
        fields["hostname"] = hostname
    return OSSEC, fields


def parse_ossec_block(block: str) -> AlertRecord:
    """Parse one OSSEC alerts.log entry (header line through blank line).

    The returned record keeps rule_id, logfile and (when present) src_ip; the
    agent hostname from the location line rides along as a "hostname" field
    until normalize_record resolves it to an address.
    """
    ts, raw = _scan_ossec(block.splitlines())
    source, fields = _ossec_key(raw)
    return AlertRecord(source, ts, fields)


def _ossec_blocks(lines: Iterable[str]) -> Iterator[list[str]]:
    current: list[str] = []
    for line in lines:
        if line.startswith("** Alert"):
            if current:
                yield current
            current = [line]
        elif not line.strip():
            if current:
                yield current
                current = []
        elif current:
            current.append(line)
    if current:
        yield current


def iter_ossec_blocks(text: str) -> Iterator[str]:
    """Split alerts.log text into alert blocks. A block starts at a
    "** Alert" header and ends at the next header or a blank line."""
    for block in _ossec_blocks(text.splitlines()):
        yield "\n".join(block)


# --- JSONL --------------------------------------------------------------------

JsonlKey = tuple[str, ...]  # source, the n field keys, then their n values as text


def _scan_jsonl(line: str) -> tuple[float, JsonlKey]:
    payload = json.loads(line)
    fields = payload["fields"]
    if not isinstance(fields, dict):
        raise ValueError("'fields' must be an object")
    ts = float(payload["ts"])
    if not valid_timestamp(ts):
        raise ValueError(f"timestamp {ts!r} is not a positive finite epoch")
    # Values are keyed by their text: 1, 1.0 and true are equal in Python
    # but become the distinct field values "1", "1.0" and "True".
    return ts, (str(payload["source"]), *fields, *map(str, fields.values()))


def _jsonl_key(raw: JsonlKey) -> tuple[str, dict[str, str]]:
    source = raw[0].strip().lower()
    if not source:
        raise ValueError("empty source")
    n = len(raw) // 2
    fields = {key.strip().lower(): value for key, value in zip(raw[1:n + 1], raw[n + 1:])}
    check_fields(fields)
    return source, fields


def parse_jsonl_record(line: str) -> AlertRecord:
    ts, raw = _scan_jsonl(line)
    source, fields = _jsonl_key(raw)
    return AlertRecord(source, ts, fields)


def write_jsonl(records: Iterable[AlertRecord], path: str | Path) -> None:
    with open(path, "w") as fp:
        for record in records:
            fp.write(
                json.dumps(
                    {"source": record.source, "ts": record.timestamp, "fields": record.fields},
                    separators=(",", ":"),
                )
            )
            fp.write("\n")


# --- Normalization ----------------------------------------------------------

def normalize_record(
    record: AlertRecord, hostmap: HostMap | None = None, stats: ParseStats | None = None
) -> AlertRecord:
    """Canonicalize field keys and fold the hostname into the ip layer.

    An unresolvable hostname stays as the src_ip value (counted and logged,
    never fatal). A hostname that resolves to a different address than an
    existing src_ip lands in a separate agent_ip field, still in the ip
    layer. Idempotent: normalizing twice equals normalizing once.
    """
    fields = {key.strip().lower(): value for key, value in record.fields.items()}
    hostname = fields.pop("hostname", None)
    if hostname is not None:
        resolved = hostmap.resolve(hostname) if hostmap else None
        if resolved is None:
            resolved = hostname
            if stats:
                stats.unresolved_hostnames += 1
            logger.warning("unresolvable hostname %r kept as ip-layer value", hostname)
        if "src_ip" not in fields:
            fields["src_ip"] = resolved
        elif fields["src_ip"] != resolved:
            fields["agent_ip"] = resolved
            if stats:
                stats.hostname_collisions += 1
            logger.warning(
                "hostname %r resolves to %s but record already has src_ip %s",
                hostname, resolved, fields["src_ip"],
            )
    return AlertRecord(source=record.source, timestamp=record.timestamp, fields=fields)


# --- File readers -----------------------------------------------------------
#
# One pass per file, line by line. Bytes that are not UTF-8 decode to U+FFFD,
# so a damaged byte costs at most the line or block it sits in.

_INVALID = -1

# Files are read in 4 MiB blocks. Freeing a block this large also raises
# glibc's mmap threshold, so the 100-200 KB numpy temporaries of feature and
# role fitting reuse heap memory instead of being mapped, page-faulted and
# unmapped each time: with the default 8 KiB buffer, training on a 390-node
# graph took ten times the page faults and 0.5 s more system time.
_READ_BUFFER = 1 << 22


def _open_text(path: str | Path) -> TextIO:
    return open(path, encoding="utf-8", errors="replace", buffering=_READ_BUFFER)


def _read_into(
    alerts: KeyedAlerts,
    items: Iterable,
    scan: Callable,
    build: Callable,
    errors: tuple[type[Exception], ...],
    stats: ParseStats,
    what: str,
) -> None:
    """Scan each item into (timestamp, raw key) and append it to `alerts`,
    counting it as parsed or skipped. `build` checks a raw key and makes its
    (source, fields); it runs once per distinct raw key of the file."""
    key_ids: dict = {}
    add_time, add_id = alerts.times.append, alerts.ids.append
    before = len(alerts)
    count = 0
    for count, item in enumerate(items, 1):
        try:
            ts, raw = scan(item)
        except errors as exc:
            logger.debug("skipping %s (%s): %r", what, exc, str(item)[:120])
            continue
        kid = key_ids.get(raw)
        if kid is None:
            try:
                kid = alerts.key_id(*build(raw))
            except errors as exc:
                kid = _INVALID
                logger.debug("skipping every %s with fields %r (%s)", what, raw, exc)
            key_ids[raw] = kid
        if kid != _INVALID:
            add_time(ts)
            add_id(kid)
    parsed = len(alerts) - before
    stats.lines += count
    stats.parsed += parsed
    stats.skipped += count - parsed


def read_snort_file(
    path: str | Path, year: int, stats: ParseStats, alerts: KeyedAlerts | None = None
) -> KeyedAlerts:
    """Append the alerts of a Snort fast log to `alerts` (a new table when
    None) and return the table. Blank lines are not counted."""
    alerts = KeyedAlerts() if alerts is None else alerts
    with _open_text(path) as fp:
        _read_into(alerts, filter(str.strip, fp), lambda line: _scan_snort(line, year),
                   _snort_key, (MalformedLineError,), stats, "snort line")
    return alerts


def read_ossec_file(
    path: str | Path, stats: ParseStats, alerts: KeyedAlerts | None = None
) -> KeyedAlerts:
    """Append the alerts of an OSSEC alerts.log to `alerts`; one block is
    one counted line."""
    alerts = KeyedAlerts() if alerts is None else alerts
    with _open_text(path) as fp:
        _read_into(alerts, _ossec_blocks(fp), _scan_ossec, _ossec_key,
                   (MalformedBlockError,), stats, "ossec block")
    return alerts


def read_jsonl_file(
    path: str | Path, stats: ParseStats, alerts: KeyedAlerts | None = None
) -> KeyedAlerts:
    """Append the alerts of a JSONL file to `alerts`. A line that is not a
    JSON object with a source, a valid timestamp and non-empty string-able
    fields is skipped."""
    alerts = KeyedAlerts() if alerts is None else alerts
    with _open_text(path) as fp:
        _read_into(alerts, filter(str.strip, fp), _scan_jsonl, _jsonl_key,
                   (ValueError, KeyError, TypeError, OverflowError), stats, "jsonl line")
    return alerts


# --- Windowing ---------------------------------------------------------------

def window_partition(
    records: Sequence[AlertRecord],
    spec: WindowSpec,
    stats: ParseStats | None = None,
    first_index: int | None = None,
    last_index: int | None = None,
) -> list[tuple[int, list[AlertRecord]]]:
    """Assign records to windows by floor((ts - origin) / length).

    Returns (window_index, records) pairs in index order, including empty
    windows between occupied ones. Records before the origin are dropped with
    a warning count. first_index/last_index force the emitted range.
    """
    buckets: dict[int, list[AlertRecord]] = {}
    for record in records:
        index = spec.window_of(record.timestamp)
        if index < 0:
            if stats:
                stats.dropped_before_origin += 1
            logger.warning("record at %s precedes window origin; dropped", record.timestamp)
            continue
        buckets.setdefault(index, []).append(record)

    if not buckets and first_index is None and last_index is None:
        return []
    lo = first_index if first_index is not None else min(buckets)
    hi = last_index if last_index is not None else max(buckets)
    return [(k, buckets.get(k, [])) for k in range(lo, hi + 1)]


def window_slices(
    times: np.ndarray, spec: WindowSpec, stats: ParseStats | None = None
) -> list[tuple[int, int, int]]:
    """The occupied windows of time-sorted timestamps as (window, start,
    stop) slices of `times`, in window order. Timestamps before the origin
    are dropped with a warning count, as in `window_partition`."""
    index = np.floor((times - spec.origin) / spec.length).astype(np.int64)
    first = int(np.searchsorted(index, 0))
    if first:
        if stats:
            stats.dropped_before_origin += first
        logger.warning("%d records precede window origin %s; dropped", first, spec.origin)
    windows, starts = np.unique(index[first:], return_index=True)
    stops = np.append(starts[1:], len(index) - first)
    return list(zip(windows.tolist(), (starts + first).tolist(), (stops + first).tolist()))
