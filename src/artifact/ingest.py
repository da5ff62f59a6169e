"""Parsers and time windowing for IDS alert streams.

Three input formats are supported:

* Snort "fast" alert lines, e.g.::

    11/30-20:00:01.000000 [**] [1:215:3] MSG [**] [Classification: x] \
[Priority: 2] {TCP} 10.10.255.77:4444 -> 10.10.255.254:80

  The fast format omits the year, so the caller supplies the year of a
  file's first yearless date and later dates follow it over the new year; a
  year in the line (MM/DD/YY-) wins, and only a 2-digit one is read as 20YY.
  Only the signature id (the middle integer of the [gid:sid:rev] triple) and the two
  IP addresses are kept; message, classification, priority, protocol and
  ports are parsed past and discarded. The canonical line is yearless, like
  the one above, with six fraction digits and a "{PROTO} ip:port -> ip:port"
  tail.

* OSSEC ``alerts.log`` blocks ("** Alert <epoch>..." through a blank line).
  Kept fields: rule id, the log file from the location suffix, and the source
  IP when a "Src IP:" line is present. The hostname in the location prefix is
  carried along for :func:`normalize_record` to resolve against a host map.
  The canonical block is a header, a "(host) ip->logfile" location, Rule,
  Src IP, one free line and an empty line.

* A JSONL interchange format, one record per line:
  ``{"source": ..., "ts": ..., "fields": {...}}``. Sources other than
  snort/ossec are accepted as-is so third-party IDSs can feed the pipeline.
  The canonical line is the one `write_jsonl` writes: those three keys in
  that order, no space, and string field values.

Every reader takes a file 256 KiB at a time and reads a piece whose lines or
blocks are all canonical with one match, timestamps in numpy. From the first
piece that holds any other line or block to the end of the file, a per-line
scanner reads it; a line or block gives the same timestamp, key and counts
on either path.
"""

from __future__ import annotations

import calendar
import configparser
import json
import logging
import math
import re
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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


class PipelineError(ValueError):
    """Configuration, input or solver problem that should abort the run; the
    command line reports it as one `error:` line."""


class ConfigError(ValueError):
    """Scenario configuration is internally inconsistent."""


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
    training_span: int = 0  # read with a cutoff: valid timestamps before it
    dropped_before_origin: int = 0
    unresolved_hostnames: int = 0
    hostname_collisions: int = 0


# 10000-01-01T00:00:00Z. Past it a window start has no UTC date to print.
MAX_TIMESTAMP = 253402300800.0


def parse_utc(text: str) -> float:
    """Epoch seconds of an ISO-8601 time. A time without an offset is read
    as UTC, not in the machine's local zone."""
    moment = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return moment.timestamp()


def read_ini(
    path: str | Path,
    keys: dict[tuple[str, str], tuple[str, Callable[[str], object]]],
    error: type[Exception],
) -> dict[str, object]:
    """The settings an INI file sets, by field name.

    `keys` maps each (section, key) a loader reads to the field it sets and
    the function that parses its value. Sections outside the table are
    ignored, an empty value leaves its field unset, and " ;" starts an inline
    comment. An unreadable or unparsable file, one with none of the table's
    sections, an unknown key in one of them and a value its function rejects
    raise `error`, naming the file and, where there is one, the key.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    try:
        with open(path, encoding="utf-8-sig") as fp:
            parser.read_file(fp)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise error(f"{path}: cannot read config file: {' '.join(str(exc).split())}") from None
    known = {section for section, _ in keys}
    sections = [s for s in parser.sections() if s in known]
    if not sections:
        raise error(f"{path}: no [{'], ['.join(sorted(known))}] section")
    values: dict[str, object] = {}
    for section in sections:
        for key, text in parser.items(section):
            if (section, key) not in keys:
                raise error(f"{path}: [{section}] {key}: unknown key")
            name, parse = keys[section, key]
            if text:
                try:
                    values[name] = parse(text)
                except ValueError as exc:
                    raise error(f"{path}: [{section}] {key}: {exc}") from None
    return values


def valid_timestamp(ts: float | np.ndarray) -> bool | np.ndarray:
    """A positive epoch second before year 10000; NaN and infinities fail.
    Of an array, one bool per timestamp."""
    return (ts > 0.0) & (ts < MAX_TIMESTAMP)


# Field values become lines of the bundle's tab-separated registry.tsv, so
# no field key or value may hold one of these.
_TSV_BREAKS = re.compile(r"[\t\n\r]")
# Lone surrogates, the only str code points UTF-8 cannot encode; JSON "\ud800"
# escapes make them.
_SURROGATES = re.compile(r"[\ud800-\udfff]")


def check_fields(fields: dict[str, str]) -> None:
    if not fields:
        raise ValueError("record has no fields")
    for key, value in fields.items():
        if not isinstance(value, str) or not value:
            raise ValueError(f"empty or non-string value for field {key!r}")
        if _TSV_BREAKS.search(key) or _TSV_BREAKS.search(value):
            raise ValueError(f"tab or line break in field {key!r}: {value!r}")
        if _SURROGATES.search(key) or _SURROGATES.search(value):
            raise ValueError(f"field {key!r} does not encode as UTF-8: {value!r}")


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


FieldTuple = tuple[tuple[str, str], ...]  # an alert's (key, value) pairs, in order


class Alerts:
    """Alerts as two typed columns, a float64 timestamp and the id of the
    alert's key, plus the keys by id as (source, fields).

    An alert costs 16 bytes; its source and fields are stored once per key,
    so memory grows with the keys rather than the alerts. The readers append
    to `array` columns in reading order and give each distinct raw key of a
    file the next id, so equal keys may have several ids. `load_records`
    normalizes the keys and swaps in numpy columns sorted by time;
    `scenario.generate_scenario` returns numpy columns sorted by time too.
    Iterating the table yields one record per alert.
    """

    def __init__(self, times: Sequence[float] | None = None, ids: Sequence[int] | None = None,
                 keys: list[tuple[str, FieldTuple]] | None = None) -> None:
        self.times = array("d") if times is None else times
        self.ids = array("q") if ids is None else ids
        self.keys: list[tuple[str, FieldTuple]] = [] if keys is None else keys

    @classmethod
    def from_records(cls, records: Iterable[AlertRecord]) -> Alerts:
        """The table of `records` in their order, one id per distinct
        (source, fields in order)."""
        alerts = cls()
        index: dict[tuple[str, FieldTuple], int] = {}
        for record in records:
            key = (record.source, tuple(record.fields.items()))
            alerts.times.append(record.timestamp)
            alerts.ids.append(index.setdefault(key, len(index)))
        alerts.keys = list(index)
        return alerts

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[AlertRecord]:
        """One record per alert, in table order."""
        keys = self.keys
        for t, k in zip(self.times.tolist(), self.ids.tolist()):
            source, fields = keys[k]
            yield AlertRecord(source, t, dict(fields))

    def before(self, ts: float) -> int:
        """How many alerts come before `ts`; in time order they are a prefix."""
        return int(np.searchsorted(self.times, ts))

    def field_counts(self, start: int, stop: int) -> list[tuple[FieldTuple, int]]:
        """The key ids of alerts start..stop-1 as field tuples with counts, in
        the order of each id's first alert. Equal tuples of two ids come twice."""
        ids, first, counts = np.unique(
            self.ids[start:stop], return_index=True, return_counts=True
        )
        order = np.argsort(first)
        return [
            (self.keys[k][1], n)
            for k, n in zip(ids[order].tolist(), counts[order].tolist())
        ]


@dataclass
class HostMap:
    """Hostname to IPv4 mapping used to fold host-based alerts into the ip layer."""

    entries: dict[str, str] = field(default_factory=dict)

    def resolve(self, hostname: str) -> str | None:
        return self.entries.get(hostname.strip().lower())

    def __len__(self) -> int:
        return len(self.entries)


_IPV4_RE = re.compile(r"\d{1,3}(?:\.\d{1,3}){3}", re.ASCII)


def _is_ipv4(text: str) -> bool:
    if not _IPV4_RE.fullmatch(text):
        return False
    return all(int(part) <= 255 for part in text.split("."))


def load_hostmap(path: str | Path) -> HostMap:
    """Load a UTF-8 "hostname ip" per line text file; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise PipelineError(f"hostmap {path} is not UTF-8 text: {exc}") from exc
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"hostmap {path} line {lineno}"
        parts = line.split()
        if len(parts) != 2:
            raise PipelineError(f"{where} needs 'hostname ip': {raw!r}")
        name, ip = parts[0].lower(), parts[1]
        if not _is_ipv4(ip):
            raise PipelineError(f"{where}: {ip!r} is not an IPv4 address")
        if name in entries:
            raise PipelineError(f"{where} repeats hostname {name!r}")
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
        if self.training_cutoff is None:
            object.__setattr__(self, "training_cutoff", self.origin)
        if not all(map(math.isfinite, (self.origin, self.length, self.training_cutoff))):
            raise ValueError("window origin, length and training cutoff must be finite")
        if self.length <= 0:
            raise ValueError("window length must be positive")
        if self.training_cutoff < self.origin:
            raise ValueError("training_cutoff must be >= origin")
        # `window_partition` casts the window index of every valid timestamp to int64
        if max(abs(self.origin), abs(MAX_TIMESTAMP - self.origin)) / self.length >= 2.0**63:
            raise ValueError("window length is too short: window indexes overflow 64 bits")

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
# readers run the builder once per distinct raw key. A scan reads the
# timestamp first, so that a reader given a cutoff can stop there.

_SNORT_TS_RE = re.compile(
    r"^(\d{2})/(\d{2})(?:/(\d{2,4}))?-(\d{2}):(\d{2}):(\d{2})\.(\d{1,6})"
)
_SNORT_SIG_RE = re.compile(r"\[(\d+):(\d+):(\d+)\]")
_SNORT_ADDR_RE = re.compile(
    r"(\d{1,3}(?:\.\d{1,3}){3})(?::\d{1,5})?\s*->\s*(\d{1,3}(?:\.\d{1,3}){3})(?::\d{1,5})?"
)


# The ASCII characters that a "src -> dst" match can hold before its arrow:
# the digits, dots and port colons of [\d.:\s], and the ASCII that \s takes.
_ADDR_RUN = "".join(c for c in map(chr, range(128)) if re.fullmatch(r"[\d.:\s]", c))


# The canonical fast line: a yearless date, a valid time of day with six
# fraction digits, the signature triple right after "[**]", and a
# "{PROTO} src:port -> dst:port" tail that ends the line. Its groups are the
# raw key the scanner gives the line, provided the line has no other "->"
# (the scanner's address search starts at the first arrow). ASCII only:
# \d, and the time digits read at fixed offsets.
_SNORT_LINE_RE = re.compile(
    r"^\d\d/\d\d-(?:[01]\d|2[0-3]):[0-5]\d:[0-5]\d\.\d{6} \[\*\*\] \[\d+:(\d+):\d+\]"
    r".*\{\w+\} (\d{1,3}(?:\.\d{1,3}){3}):\d{1,5} -> (\d{1,3}(?:\.\d{1,3}){3}):\d{1,5}$",
    re.ASCII | re.M,
)
# The date (MMDD), second of day and microseconds of such a line, as the
# weights of the digits at each offset of its "MM/DD-HH:MM:SS.ffffff".
_SNORT_STAMP = (
    {0: 1000, 1: 100, 3: 10, 4: 1},
    {6: 36000, 7: 3600, 9: 600, 10: 60, 12: 10, 13: 1},
    {15 + k: 10 ** (5 - k) for k in range(6)},
)
# Past 2**53 microseconds (2255-06-05) int64 -> float64 rounds before the
# division does; those timestamps are divided exactly, in Python.
_EXACT_MICROS = 2**53


def _utc_day_start(year: int, month: int, day: int) -> int | None:
    """Epoch second of 00:00 UTC on a date; None when the date does not exist."""
    try:
        datetime(year, month, day)
    except (ValueError, OverflowError):
        return None
    return calendar.timegm((year, month, day, 0, 0, 0))


def _snort_year(year: int, top: int | None, month: int) -> tuple[int, int, int]:
    """The year of a yearless date in `month`, then the running year and its
    latest month after it, given the running `year` and its latest month
    `top` (None before the first yearless date).

    A month more than six before `top` starts the next year; one more than
    six after it is a late line of the year before.
    """
    if top is None:
        return year, year, month
    if month < top - 6:
        return year + 1, year + 1, month
    if month > top + 6:
        return year - 1, year, top
    return year, year, max(top, month)


class _SnortDays:
    """The midnights of one file's Snort dates, and the running year and its
    latest month that place a yearless date.

    `year` is the year of the first yearless date; later ones follow it over
    the new year by `_snort_year`. Every yearless date that exists moves the
    running year, so the block path, which asks once per run of equal dates,
    and the per-line scanner, which asks once per line, leave the same state:
    equal dates in a row always hit the cache.
    """

    def __init__(self, year: int) -> None:
        self.year = year
        self.top: int | None = None
        self.cache: dict[tuple[str, str, str | None], int | None] = {}

    def midnight(self, month: str, day: str, line_year: str | None) -> int | None:
        """Epoch second of 00:00 UTC on a line's date; None when it does not exist."""
        key = month, day, line_year
        try:
            return self.cache[key]
        except KeyError:
            pass
        if line_year is not None:
            y = int(line_year) + (2000 if len(line_year) == 2 else 0)
            midnight = _utc_day_start(y, int(month), int(day))
        else:
            y, running, latest = _snort_year(self.year, self.top, int(month))
            midnight = _utc_day_start(y, int(month), int(day))
            if midnight is not None and (running, latest) != (self.year, self.top):
                # The cached yearless dates were placed from the old state.
                self.cache.clear()
                self.year, self.top = running, latest
        self.cache[key] = midnight
        return midnight


def _snort_scanner(
    days: _SnortDays, cutoff: float | None = None
) -> Callable[[str], tuple[float, tuple[str, str, str] | None]]:
    """A scanner of one file's Snort fast lines: each line's timestamp and
    raw key, with None for the key of a line before `cutoff`.

    The timestamp comes first and without a datetime per line: each date is
    checked once, and the time of day is added to its midnight in whole
    microseconds, which is the arithmetic of `datetime.timestamp()`. A line
    before `cutoff` is not searched for its signature or addresses. Every
    line whose date exists moves the running year in `days`, parsed or not,
    so a cutoff changes no timestamp.
    """
    limit = -math.inf if cutoff is None else cutoff

    def scan(line: str) -> tuple[float, tuple[str, str, str] | None]:
        line = line.strip()
        ts_match = _SNORT_TS_RE.match(line)
        if not ts_match:
            raise MalformedLineError("no leading timestamp")
        month, day, line_year, hh, mm, ss, frac = ts_match.groups()
        midnight = days.midnight(month, day, line_year)
        if midnight is None:
            raise MalformedLineError("invalid date")
        h, m, s = int(hh), int(mm), int(ss)
        if h > 23 or m > 59 or s > 59:
            raise MalformedLineError("invalid time of day")
        micros = int(frac.ljust(6, "0"))
        ts = ((midnight + h * 3600 + m * 60 + s) * 1_000_000 + micros) / 1_000_000
        if not valid_timestamp(ts):
            raise MalformedLineError(f"timestamp {ts!r} is not a positive epoch")
        if ts < limit:
            return ts, None

        sig_match = _SNORT_SIG_RE.search(line, ts_match.end())
        if not sig_match:
            raise MalformedLineError("no [gid:sid:rev] signature triple")
        # A match holds only [\d.:\s] before its arrow, so none starts before
        # the run of those that ends at the first arrow. A non-ASCII digit or
        # space can lengthen the run; then the search starts at the signature.
        sig_end = sig_match.end()
        arrow = line.find("->", sig_end)
        if arrow < 0:
            raise MalformedLineError("no 'src -> dst' IP pair")
        start = sig_end + len(line[sig_end:arrow].rstrip(_ADDR_RUN))
        if start > sig_end and not line[start - 1].isascii():
            start = sig_end
        addr_match = _SNORT_ADDR_RE.search(line, start)
        if not addr_match:
            raise MalformedLineError("no 'src -> dst' IP pair")
        return ts, (sig_match.group(2), addr_match.group(1), addr_match.group(2))

    return scan


def _snort_times(text: str, days: _SnortDays) -> tuple[np.ndarray, np.ndarray]:
    """The timestamps of `text`'s lines, all canonical, and whether each is
    valid: its date exists and its timestamp passes `valid_timestamp`.

    The scanner's arithmetic in int64, then one float64 division, which is
    the correctly rounded quotient below `_EXACT_MICROS`. `days` is asked
    once per run of equal dates.
    """
    buf = np.frombuffer(text.encode(), dtype=np.uint8)
    starts = np.concatenate(([0], np.flatnonzero(buf[:-1] == 10) + 1))
    date, second, micros = (
        sum((buf[starts + k] - 48).astype(np.int64) * w for k, w in weights.items())
        for weights in _SNORT_STAMP
    )
    firsts = np.concatenate(([0], np.flatnonzero(np.diff(date)) + 1))
    midnights = [days.midnight(f"{d // 100:02d}", f"{d % 100:02d}", None)
                 for d in date[firsts].tolist()]
    lengths = np.diff(np.append(firsts, len(date)))
    exists = np.repeat([m is not None for m in midnights], lengths)
    total = (np.repeat([m or 0 for m in midnights], lengths) + second) * 1_000_000 + micros
    times = total / 1e6
    big = np.flatnonzero(total >= _EXACT_MICROS)
    times[big] = [t / 1_000_000 for t in total[big].tolist()]
    return times, exists & valid_timestamp(times)


def _snort_key(raw: tuple[str, str, str]) -> tuple[str, dict[str, str]]:
    sig_id, src_ip, dst_ip = raw
    if not (_is_ipv4(src_ip) and _is_ipv4(dst_ip)):
        raise MalformedLineError("address is not a valid IPv4 dotted quad")
    return SNORT, {"sig_id": sig_id, "src_ip": src_ip, "dst_ip": dst_ip}


# --- OSSEC alerts.log -------------------------------------------------------

_OSSEC_HEAD_RE = re.compile(r"^\*\* Alert (\d+)\.\d+:")
_OSSEC_RULE_RE = re.compile(r"^Rule: (\d+)\b")
_OSSEC_LOCATION_RE = re.compile(
    r"^\d{4} \w{3}\s+\d{1,2} \d{2}:\d{2}:\d{2} (?P<loc>.+?)->(?P<logfile>\S+)\s*$"
)
_OSSEC_SRC_IP_RE = re.compile(r"^Src IP: (\S+)")

# The canonical alerts.log block: a header with an epoch of at most 15
# digits, a "(host) ip->logfile" location, a Rule line, a Src IP line, one
# free line and an empty line. Hosts, logfiles and sources are printable
# ASCII that `strip` keeps, so its groups (epoch, host, logfile, rule, src)
# are what `_scan_ossec` reads from the block.
_OSSEC_BLOCK_RE = re.compile(
    r"^\*\* Alert (\d{1,15})\.\d+:.*\n"
    r"\d{4} [A-Za-z]{3} \d\d \d\d:\d\d:\d\d \(([!-'*-=?-~]+)\) [\d.]+->([!-~]+)\n"
    r"Rule: (\d+) .*\n"
    r"Src IP: ([!-'*-~]+)\n"
    r"(?!\*\* Alert).*[!-~].*\n"
    r"\n",
    re.ASCII | re.M,
)


OssecKey = tuple[str, str, "str | None", "str | None"]  # rule, logfile, src ip, host


def _scan_ossec(
    lines: Sequence[str], cutoff: float | None = None
) -> tuple[float, OssecKey | None]:
    """An OSSEC block's epoch and raw key. A block whose first line is a
    header with a valid epoch before `cutoff` is read no further and gets
    None for its raw key."""
    epoch: float | None = None
    rule_id: str | None = None
    logfile: str | None = None
    hostname: str | None = None
    src_ip: str | None = None

    head = _OSSEC_HEAD_RE.match(lines[0].strip()) if lines else None
    if head:
        epoch = float(head.group(1))
        if cutoff is not None and epoch < cutoff and valid_timestamp(epoch):
            return epoch, None
        lines = lines[1:]

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
    try:
        check_fields(fields)
    except ValueError as exc:
        raise MalformedBlockError(str(exc)) from None
    return OSSEC, fields


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


# --- JSONL --------------------------------------------------------------------

JsonlKey = tuple[str, ...]  # source, the n field keys, then their n values as text


def _scan_jsonl(line: str) -> tuple[float, JsonlKey]:
    payload = json.loads(line)
    fields = payload["fields"]
    if not isinstance(fields, dict):
        raise ValueError("'fields' must be an object")
    if isinstance(payload["ts"], bool):  # float(True) would be 1970-01-01T00:00:01
        raise ValueError("timestamp is a boolean")
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


# A JSON string as json.dumps writes it: no control character, and only
# JSON's escapes. Its first branch, a string without escapes, is the same
# strings' common case without the escape loop: `findall` took a fifth less
# time on the paper workload's file.
_JSON_STR = (r'(?:"[^"\\\x00-\x1f]*"'
             r'|"[^"\\\x00-\x1f]*(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})[^"\\\x00-\x1f]*)*")')
# The canonical JSONL line, the shape `write_jsonl` writes: a source, a JSON
# number token and fields whose keys and values are all strings, with no
# space and no other key, so the token is the "ts" json.loads keeps. Its
# groups are the source text, the token and the fields text. ASCII digits
# only, as json.loads takes them.
_JSONL_LINE_RE = re.compile(
    rf'^\{{"source":({_JSON_STR}),"ts":(-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][-+]?\d+)?),'
    rf'"fields":(\{{(?:{_JSON_STR}:{_JSON_STR}(?:,{_JSON_STR}:{_JSON_STR})*|)\}})\}}$',
    re.ASCII | re.M,
)


class _JsonlKeys(dict):
    """The raw key of each (source text, fields text) of canonical lines,
    decoded once: the key `_scan_jsonl` gives a line with those texts."""

    def __missing__(self, texts: tuple[str, str]) -> JsonlKey:
        source, fields = map(json.loads, texts)
        raw = self[texts] = (source, *fields, *fields.values())
        return raw


# Alerts `write_jsonl` takes out of the columns at a time.
_WRITE_CHUNK = 1 << 12


def write_jsonl(alerts: Alerts | Iterable[AlertRecord], path: str | Path) -> None:
    """Write one line per alert, in table order: the text that
    `json.dumps({"source": ..., "ts": ..., "fields": ...}, separators=(",", ":"))`
    gives, and a newline. Timestamps are written as floats.

    Each key's text before and after the timestamp is rendered once. A
    finite timestamp's text is `float.__repr__`, as in `json.dumps`; a chunk
    with a non-finite one takes `json.dumps` for each timestamp, which spells
    them NaN, Infinity and -Infinity.
    """
    if not isinstance(alerts, Alerts):
        alerts = Alerts.from_records(alerts)
    heads = [f'{{"source":{json.dumps(source)},"ts":' for source, _ in alerts.keys]
    tails = [
        f',"fields":{json.dumps(dict(fields), separators=(",", ":"))}}}\n'
        for _, fields in alerts.keys
    ]
    times, ids = np.asarray(alerts.times, dtype=np.float64), np.asarray(alerts.ids)
    with open(path, "w") as fp:
        for start in range(0, len(times), _WRITE_CHUNK):
            chunk = times[start:start + _WRITE_CHUNK]
            spell = float.__repr__ if np.isfinite(chunk).all() else json.dumps
            kids = ids[start:start + _WRITE_CHUNK].tolist()
            fp.writelines(map(
                "".join,
                zip(map(heads.__getitem__, kids), map(spell, chunk.tolist()),
                    map(tails.__getitem__, kids)),
            ))


# --- Normalization ----------------------------------------------------------

def normalize_record(
    fields: FieldTuple, hostmap: HostMap | None = None
) -> tuple[FieldTuple, bool, bool]:
    """Canonicalize a key's field names and fold its hostname into the ip
    layer: (fields, whether the hostname was unresolved, whether it collided).

    An unresolvable hostname stays as the src_ip value (logged, never
    fatal). A hostname that resolves to a different address than an existing
    src_ip lands in a separate agent_ip field, still in the ip layer.
    Idempotent: normalizing the fields twice equals normalizing them once.
    """
    folded = {key.strip().lower(): value for key, value in fields}
    hostname = folded.pop("hostname", None)
    unresolved = collided = False
    if hostname is not None:
        resolved = hostmap.resolve(hostname) if hostmap else None
        if resolved is None:
            resolved, unresolved = hostname, True
            logger.warning("unresolvable hostname %r kept as ip-layer value", hostname)
        if "src_ip" not in folded:
            folded["src_ip"] = resolved
        elif folded["src_ip"] != resolved:
            folded["agent_ip"], collided = resolved, True
            logger.warning(
                "hostname %r resolves to %s but record already has src_ip %s",
                hostname, resolved, folded["src_ip"],
            )
    return tuple(folded.items()), unresolved, collided


# --- File readers -----------------------------------------------------------
#
# One pass per file, one piece at a time: each piece ends after its last
# whole line (Snort, JSONL) or before its last block (OSSEC). A piece whose
# lines or blocks all have the canonical shape of their format
# (`_SNORT_LINE_RE`, `_OSSEC_BLOCK_RE`, `_JSONL_LINE_RE`) is read with one
# match: its timestamps, their validity and the cutoff in numpy, then a dict
# lookup per kept key. From the first piece that is not all canonical to the
# end of the file, the format's per-line scanner reads each line or block;
# a file that mixes shapes would otherwise pay the match and the scan on
# most of its pieces. Both paths give the same timestamps, key ids and
# counts. Bytes that are not UTF-8 decode to U+FFFD, so a damaged byte costs
# at most the line or block it sits in. A byte-order mark that starts a file
# is dropped, as are those of hostmaps and INI files.

_INVALID = -1

# Files are read through a 4 MiB buffer. Freeing a block this large also
# raises glibc's mmap threshold, so the 100-200 KB numpy temporaries of
# feature and role fitting reuse heap memory instead of being mapped,
# page-faulted and unmapped each time: with the default 8 KiB buffer,
# training on a 390-node graph took ten times the page faults and 0.5 s more
# system time.
_READ_BUFFER = 1 << 22

# Pieces are 256 KiB. The canonical path holds a piece, its bytes and its
# matches at once: with 4 MiB pieces the peak RSS of `train` and `score` on
# the sensors workload rose from 49 to 74-79 MB; with 256 KiB pieces it
# stayed at 49-51 MB, and they ran no slower.
_PIECE = 1 << 18


def _pieces(path: str | Path, cut: Callable[[str], int]) -> Iterator[str]:
    """The text of a file, read `_PIECE` characters at a time. Each piece
    ends where `cut` says in the text just read (0 for nowhere), and the
    rest is carried into the next; what is left at the end comes last. A
    line or block longer than a piece is carried as a list of parts, so it
    costs time in proportion to its length. Against an unbuffered binary
    read with its own incremental decoders, this took the same time and
    peak RSS (within 0.2 MB) on the sensors workload.
    """
    parts: list[str] = []
    with open(path, encoding="utf-8-sig", errors="replace", buffering=_READ_BUFFER) as fp:
        while text := fp.read(_PIECE):
            end = cut(text)
            if not end:
                parts.append(text)
                continue
            parts.append(text[:end])
            piece, parts = "".join(parts), [text[end:]]
            del text  # only the piece stays alive while the caller reads it
            yield piece
            del piece
    if rest := "".join(parts):
        yield rest


def _after_last_line(text: str) -> int:
    return text.rfind("\n") + 1


def _before_last_block(text: str) -> int:
    """Where `_ossec_blocks` starts afresh last in `text`, whatever came
    before it: after an empty line, or at a line that starts with "** Alert"."""
    empty = text.rfind("\n\n")
    return max(empty + 2 if empty >= 0 else 0, text.rfind("\n** Alert") + 1)


def _line_count(piece: str) -> int:
    return piece.count("\n") + (not piece.endswith("\n"))


def _lines(piece: str) -> Iterator[str]:
    return filter(str.strip, piece.split("\n"))


# A piece read as rows: each row's timestamp, whether it is valid, and a
# function from the kept rows' indices to their raw keys.
Rows = tuple[np.ndarray, np.ndarray, Callable[[list[int]], Iterable]]


def _snort_piece(piece: str, days: _SnortDays) -> Rows | None:
    keys = _SNORT_LINE_RE.findall(piece)
    # A match is a whole line with at least one arrow.
    if not len(keys) == _line_count(piece) == piece.count("->"):
        return None
    return *_snort_times(piece, days), partial(map, keys.__getitem__)


_OSSEC_RAW = itemgetter(3, 2, 4, 1)  # a block match's rule, logfile, src ip, host


def _ossec_piece(piece: str) -> Rows | None:
    blocks = _OSSEC_BLOCK_RE.findall(piece)
    # Every block starts at a header line, and each match holds one.
    if len(blocks) != piece.count("\n** Alert") + piece.startswith("** Alert"):
        return None
    times = np.array([int(block[0]) for block in blocks], dtype=np.float64)
    return times, valid_timestamp(times), lambda kept: map(
        _OSSEC_RAW, map(blocks.__getitem__, kept)
    )


_JSONL_TS, _JSONL_TEXTS = itemgetter(1), itemgetter(0, 2)  # of a line match


def _jsonl_piece(piece: str, decoded: _JsonlKeys) -> Rows | None:
    matches = _JSONL_LINE_RE.findall(piece)
    if len(matches) != _line_count(piece):
        return None
    # `float(token)` equals `float()` of the int or float json.loads makes
    # of it, and is infinite where that int would overflow or pass the
    # digit limit, which json.loads and `_scan_jsonl` reject.
    times = np.fromiter(map(float, map(_JSONL_TS, matches)), np.float64, len(matches))
    return times, valid_timestamp(times), lambda kept: map(
        decoded.__getitem__, map(_JSONL_TEXTS, map(matches.__getitem__, kept))
    )


def _read(
    path: str | Path,
    stats: ParseStats,
    alerts: Alerts | None,
    cutoff: float | None,
    *,
    cut: Callable[[str], int],
    canonical: Callable[[str], Rows | None],
    split: Callable[[str], Iterable],
    scan: Callable,
    build: Callable,
    errors: tuple[type[Exception], ...],
    what: str,
) -> Alerts:
    """Append one file's alerts to `alerts` (a new table when None), count
    its lines or blocks in `stats`, and return the table.

    `canonical` reads a piece as rows, or gives None when the piece is not
    all canonical; from then on `split` cuts each piece into the items that
    `scan` reads into rows, a NaN timestamp for an item it rejects with one
    of `errors`. A scanner may stop at a valid timestamp before `cutoff` and
    give None for the raw key. Rows with a valid timestamp at or after the
    cutoff are appended; the other valid rows are training-span lines, the
    invalid ones skips. `build` checks a raw key and makes its (source,
    fields); it runs once per distinct raw key of the file, in the order
    they first appear, and each gets the next key id.
    """
    alerts = Alerts() if alerts is None else alerts
    limit = -math.inf if cutoff is None else cutoff
    key_ids: dict = {}

    def key_id(raw) -> int:
        """The id of a raw key, or _INVALID when `build` rejects it."""
        kid = key_ids.get(raw)
        if kid is None:
            try:
                source, fields = build(raw)
                kid = len(alerts.keys)
                alerts.keys.append((source, tuple(fields.items())))
            except errors as exc:
                kid = _INVALID
                logger.debug("skipping every %s with fields %r (%s)", what, raw, exc)
            key_ids[raw] = kid
        return kid

    def scanned(piece: str) -> Rows:
        times, raws = array("d"), []
        for item in split(piece):
            try:
                ts, raw = scan(item)
            except errors as exc:
                logger.debug("skipping %s (%s): %r", what, exc, str(item)[:120])
                ts, raw = math.nan, None
            times.append(ts)
            raws.append(raw)
        times = np.frombuffer(times)
        return times, valid_timestamp(times), partial(map, raws.__getitem__)

    rows = canonical
    for piece in _pieces(path, cut):
        read = rows(piece)
        if read is None:
            rows = scanned
            read = scanned(piece)
        times, valid, raws_of = read
        kept = np.flatnonzero(valid & (times >= limit))
        raws = list(raws_of(kept.tolist()))
        kids = list(map(key_ids.get, raws))
        if None in kids:  # new keys, built in the order they first appear
            kids = [key_id(raw) if kid is None else kid for raw, kid in zip(raws, kids)]
        ids = np.array(kids, dtype=np.int64)
        good = ids != _INVALID
        alerts.times.frombytes(times[kept[good]].tobytes())
        alerts.ids.frombytes(ids[good].tobytes())
        parsed = int(np.count_nonzero(good))
        training = int(np.count_nonzero(valid)) - len(kept)
        stats.lines += len(times)
        stats.parsed += parsed
        stats.training_span += training
        stats.skipped += len(times) - parsed - training
    return alerts


def read_snort_file(
    path: str | Path,
    year: int,
    stats: ParseStats,
    alerts: Alerts | None = None,
    *,
    cutoff: float | None = None,
) -> Alerts:
    """Append the alerts of a Snort fast log to `alerts` (a new table when
    None) and return the table. Blank lines are not counted. A line with a
    valid timestamp before `cutoff` is counted in `stats.training_span` and
    read no further; so are the lines and blocks of the readers below."""
    days = _SnortDays(year)
    return _read(path, stats, alerts, cutoff, cut=_after_last_line,
                 canonical=partial(_snort_piece, days=days), split=_lines,
                 scan=_snort_scanner(days, cutoff), build=_snort_key,
                 errors=(MalformedLineError,), what="snort line")


def read_ossec_file(
    path: str | Path,
    stats: ParseStats,
    alerts: Alerts | None = None,
    *,
    cutoff: float | None = None,
) -> Alerts:
    """Append the alerts of an OSSEC alerts.log to `alerts`; one block is
    one counted line."""
    return _read(path, stats, alerts, cutoff, cut=_before_last_block, canonical=_ossec_piece,
                 split=lambda piece: _ossec_blocks(piece.split("\n")),
                 scan=partial(_scan_ossec, cutoff=cutoff), build=_ossec_key,
                 errors=(MalformedBlockError,), what="ossec block")


def read_jsonl_file(
    path: str | Path,
    stats: ParseStats,
    alerts: Alerts | None = None,
    *,
    cutoff: float | None = None,
) -> Alerts:
    """Append the alerts of a JSONL file to `alerts`. A line that is not a
    JSON object with a source, a valid timestamp and non-empty string-able
    fields is skipped."""
    return _read(path, stats, alerts, cutoff, cut=_after_last_line,
                 canonical=partial(_jsonl_piece, decoded=_JsonlKeys()), split=_lines,
                 scan=_scan_jsonl, build=_jsonl_key,
                 errors=(ValueError, KeyError, TypeError, OverflowError), what="jsonl line")


# --- Windowing ---------------------------------------------------------------

# Timestamps per step of `window_partition`, which bounds its temporaries.
_WINDOW_CHUNK = 65536


def window_partition(times: np.ndarray, spec: WindowSpec) -> list[tuple[int, int, int]]:
    """The occupied windows of time-sorted timestamps, none before the
    origin, as (window, start, stop) slices of `times`, in window order.
    The window indexes of sorted times never decrease, so a window starts
    where its index changes; they are taken a chunk at a time."""
    windows: list[int] = []
    starts: list[int] = []
    for lo in range(0, len(times), _WINDOW_CHUNK):
        index = np.floor((times[lo:lo + _WINDOW_CHUNK] - spec.origin) / spec.length).astype(np.int64)
        if not windows or index[0] != windows[-1]:
            windows.append(int(index[0]))
            starts.append(lo)
        changes = (index[1:] != index[:-1]).nonzero()[0] + 1
        windows += index[changes].tolist()
        starts += (changes + lo).tolist()
    return list(zip(windows, starts, starts[1:] + [len(times)]))
