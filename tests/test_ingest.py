"""Parser and windowing tests, checked against hand-built reference parsers."""

import ipaddress
import json
import math
import re
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SnortYears

import artifact.ingest
from artifact.ingest import (
    MAX_TIMESTAMP,
    AlertRecord,
    HostMap,
    ParseStats,
    WindowSpec,
    _JSONL_LINE_RE,
    _jsonl_key,
    _ossec_blocks,
    _scan_jsonl,
    check_fields,
    load_hostmap,
    normalize_record,
    read_jsonl_file,
    read_ini,
    read_ossec_file,
    read_snort_file,
    window_partition,
    write_jsonl,
)

YEAR = 2016


# --- reference parsers (token-based, independent of the regex implementations)

def ref_parse_snort(line: str, years: SnortYears):
    """One line's (timestamp, fields) or None; `years` places the yearless
    dates of one file, read in order."""
    tokens = line.strip().split()
    if not tokens:
        return None
    date_time = tokens[0].split("-", 1)
    if len(date_time) != 2:
        return None
    date_bits = date_time[0].split("/")
    if len(date_bits) == 3:
        month, day, yy = date_bits
        year = 2000 + int(yy) if len(yy) == 2 else int(yy)  # only YY is widened
    elif len(date_bits) == 2:
        month, day = date_bits
        year = None
    else:
        return None
    clock = date_time[1].split(".")
    if len(clock) != 2:
        return None
    try:
        hh, mm, ss = clock[0].split(":")
        if year is None:
            year = years(int(month), int(day))
        moment = datetime(
            year, int(month), int(day), int(hh), int(mm), int(ss),
            int(clock[1].ljust(6, "0")), tzinfo=timezone.utc,
        )
    except ValueError:
        return None
    if moment.timestamp() <= 0:  # at or before the epoch
        return None

    sig = None
    for tok in tokens:
        inner = tok.strip("[]")
        bits = inner.split(":")
        if tok.startswith("[") and tok.endswith("]") and len(bits) == 3 and all(
            b.isdigit() for b in bits
        ):
            sig = bits[1]
            break
    if sig is None:
        return None

    if "->" not in tokens:
        return None
    arrow = tokens.index("->")
    if arrow == 0 or arrow == len(tokens) - 1:
        return None

    def strip_port(tok):
        if ":" in tok:
            host, port = tok.rsplit(":", 1)
            if port.isdigit():
                tok = host
        try:
            ipaddress.IPv4Address(tok)
        except ValueError:
            return None
        return tok

    src = strip_port(tokens[arrow - 1])
    dst = strip_port(tokens[arrow + 1])
    if src is None or dst is None:
        return None
    return moment.timestamp(), {"sig_id": sig, "src_ip": src, "dst_ip": dst}


def ref_parse_ossec(block: str):
    epoch = None
    rule = None
    logfile = None
    hostname = None
    src_ip = None
    for line in block.splitlines():
        if line.startswith("** Alert "):
            head = line[len("** Alert "):].split(":", 1)[0]
            whole = head.split(".")[0]
            if whole.isdigit():
                epoch = int(whole)
        elif line.startswith("Rule: "):
            candidate = line[len("Rule: "):].split()[0]
            if candidate.isdigit():
                rule = candidate
        elif line.startswith("Src IP: "):
            value = line[len("Src IP: "):].strip()
            if value and value != "(none)":
                src_ip = value
        elif "->" in line and logfile is None and line[:4].isdigit():
            location, logfile = line.rsplit("->", 1)
            logfile = logfile.strip()
            place = location.split(maxsplit=4)[4]
            if place.startswith("("):
                hostname = place[1:].split(")")[0]
            else:
                hostname = place
    if epoch is None or rule is None or logfile is None:
        return None
    fields = {"rule_id": rule, "logfile": logfile}
    if src_ip:
        fields["src_ip"] = src_ip
    if hostname:
        fields["hostname"] = hostname
    return float(epoch), fields


# --- snort ------------------------------------------------------------------

def read_snort_text(tmp_path, text):
    path = tmp_path / "alert"
    path.write_text(text, encoding="utf-8")
    stats = ParseStats()
    return list(read_snort_file(path, YEAR, stats)), stats


def test_parse_snort_fast_basic(tmp_path):
    line = (
        "11/30-20:00:01.000000 [**] [1:215:3] MSG [**] "
        "{TCP} 10.10.255.77:4444 -> 10.10.255.254:80"
    )
    [rec], _ = read_snort_text(tmp_path, line)
    assert rec.source == "snort"
    assert rec.fields == {
        "sig_id": "215",
        "src_ip": "10.10.255.77",
        "dst_ip": "10.10.255.254",
    }
    expected_ts = datetime(2016, 11, 30, 20, 0, 1, tzinfo=timezone.utc).timestamp()
    assert rec.timestamp == expected_ts


def test_parse_snort_no_arrow_is_malformed(tmp_path):
    line = "11/30-20:00:03.000000 [**] [1:215:3] lacking [**] {TCP} 10.10.255.77:4444"
    records, stats = read_snort_text(tmp_path, line)
    assert records == []
    assert (stats.lines, stats.skipped) == (1, 1)


def test_parse_snort_icmp_without_ports(tmp_path):
    line = "12/01-00:00:00.000000 [**] [129:12:1] x [**] {ICMP} 10.0.0.1 -> 10.0.0.2"
    [rec], _ = read_snort_text(tmp_path, line)
    assert rec.fields["src_ip"] == "10.0.0.1"
    assert rec.fields["dst_ip"] == "10.0.0.2"


def test_snort_corpus_matches_reference(data_dir):
    path = data_dir / "snort_fast_sample.txt"
    stats = ParseStats()
    records = list(read_snort_file(path, YEAR, stats))

    lines = [l for l in path.read_text().splitlines() if l.strip()]
    years = SnortYears(YEAR)
    expected = [ref_parse_snort(l, years) for l in lines]
    good = [e for e in expected if e is not None]

    assert stats.lines == len(lines)
    assert stats.parsed + stats.skipped == stats.lines
    assert stats.parsed == len(good)
    assert [(r.timestamp, r.fields) for r in records] == good


def test_parse_snort_address_with_non_ascii_digits_is_a_counted_skip(tmp_path):
    """Arabic-Indic digits are decimal digits to `int`, not to an IPv4 address."""
    good = "11/30-20:00:01.000000 [**] [1:215:3] MSG [**] {TCP} 10.0.0.1:4444 -> 10.0.0.2:80"
    odd = good.replace("10.0.0.1", "\u0661\u0660.0.0.1")
    records, stats = read_snort_text(tmp_path, f"{odd}\n{good}\n")
    assert [r.fields["src_ip"] for r in records] == ["10.0.0.1"]
    assert (stats.lines, stats.parsed, stats.skipped) == (2, 1, 1)


@pytest.mark.parametrize("anchor, skipped", [(b"MSG", 0), (b"10.10.255.77", 1)])
def test_snort_undecodable_byte_parses_or_skips(tmp_path, data_dir, anchor, skipped):
    """A 0xff byte in the first line's message leaves it parsed; in its
    source address it makes the line a counted skip."""
    clean = (data_dir / "snort_fast_sample.txt").read_bytes()
    path = tmp_path / "alert"
    path.write_bytes(clean.replace(anchor, anchor[:2] + b"\xff" + anchor[2:], 1))
    expected, stats = ParseStats(), ParseStats()
    read_snort_file(data_dir / "snort_fast_sample.txt", YEAR, expected)
    read_snort_file(path, YEAR, stats)
    assert stats.lines == expected.lines
    assert stats.parsed == expected.parsed - skipped
    assert stats.skipped == expected.skipped + skipped


# --- ossec ------------------------------------------------------------------

OSSEC_BLOCK = """** Alert 1446578476.4335: - syslog,sshd,
2015 Nov 03 19:21:16 host1->/var/log/auth.log
Rule: 5503 (level 5) -> 'User login failed.'
Src IP: 10.10.255.77
User: root
"""


def read_ossec_text(tmp_path, text):
    path = tmp_path / "alerts.log"
    path.write_text(text)
    stats = ParseStats()
    return list(read_ossec_file(path, stats)), stats


def test_parse_ossec_block_basic(tmp_path):
    [rec], _ = read_ossec_text(tmp_path, OSSEC_BLOCK)
    assert rec.source == "ossec"
    assert rec.timestamp == 1446578476.0
    assert rec.fields == {
        "rule_id": "5503",
        "logfile": "/var/log/auth.log",
        "src_ip": "10.10.255.77",
        "hostname": "host1",
    }


def test_parse_ossec_block_without_src_ip(tmp_path):
    block = OSSEC_BLOCK.replace("Src IP: 10.10.255.77\n", "")
    [rec], _ = read_ossec_text(tmp_path, block)
    assert "src_ip" not in rec.fields


def test_parse_ossec_missing_rule_is_malformed(tmp_path):
    block = "\n".join(
        l for l in OSSEC_BLOCK.splitlines() if not l.startswith("Rule:")
    )
    records, stats = read_ossec_text(tmp_path, block)
    assert records == []
    assert (stats.lines, stats.skipped) == (1, 1)


def test_two_concatenated_blocks_split_cleanly(tmp_path):
    second = OSSEC_BLOCK.replace("1446578476.4335", "1446578999.0001")
    records, stats = read_ossec_text(tmp_path, OSSEC_BLOCK + "\n" + second)
    assert (stats.lines, stats.parsed) == (2, 2)
    assert records[0].timestamp == 1446578476.0
    assert records[1].timestamp == 1446578999.0


def test_ossec_corpus_matches_reference(data_dir):
    path = data_dir / "ossec_alerts_sample.log"
    stats = ParseStats()
    records = list(read_ossec_file(path, stats))

    blocks = ["\n".join(b) for b in _ossec_blocks(path.read_text().splitlines())]
    expected = [ref_parse_ossec(b) for b in blocks]
    good = [e for e in expected if e is not None]

    assert stats.lines == len(blocks)
    assert stats.parsed + stats.skipped == stats.lines
    assert [(r.timestamp, r.fields) for r in records] == good
    # the remote-agent form keeps the parenthesized name as the hostname
    remote = [r for r in records if r.fields.get("logfile") == "/var/log/secure"]
    assert remote and remote[0].fields["hostname"] == "web1"


@pytest.mark.parametrize("anchor", [b"User: root", b"host1->", b"Rule: 5503"])
def test_ossec_undecodable_byte_parses_or_skips(tmp_path, anchor):
    path = tmp_path / "alerts.log"
    damaged = anchor[:2] + b"\xff" + anchor[2:]
    path.write_bytes(OSSEC_BLOCK.encode().replace(anchor, damaged) + b"\n" + OSSEC_BLOCK.encode())
    stats = ParseStats()
    records = list(read_ossec_file(path, stats))
    assert stats.lines == 2
    if anchor == b"Rule: 5503":  # the block loses its Rule line
        assert (stats.parsed, stats.skipped) == (1, 1)
    else:
        assert (stats.parsed, stats.skipped) == (2, 0)
        assert records[0].fields["rule_id"] == "5503"
    if anchor == b"host1->":
        assert records[0].fields["hostname"] == "ho\ufffdst1"


# --- normalize ---------------------------------------------------------------

def test_normalize_maps_hostname_to_ip():
    hm = HostMap({"host1": "10.10.255.60"})
    fields = ((" Rule_ID ", "1"), ("logfile", "x"), ("HostName", "host1"))
    assert normalize_record(fields, hm) == (
        (("rule_id", "1"), ("logfile", "x"), ("src_ip", "10.10.255.60")), False, False
    )


def test_normalize_drops_duplicate_hostname():
    hm = HostMap({"host1": "10.10.255.60"})
    fields = (("rule_id", "1"), ("logfile", "x"), ("src_ip", "10.10.255.60"),
              ("hostname", "host1"))
    assert normalize_record(fields, hm) == (
        (("rule_id", "1"), ("logfile", "x"), ("src_ip", "10.10.255.60")), False, False
    )


def test_normalize_unresolvable_hostname_counts_warning(caplog):
    fields = (("rule_id", "1"), ("logfile", "x"), ("hostname", "ghost"))
    out, unresolved, collided = normalize_record(fields, HostMap())
    assert dict(out)["src_ip"] == "ghost"
    assert (unresolved, collided) == (True, False)
    assert "unresolvable hostname 'ghost'" in caplog.text


def test_normalize_hostname_collision_goes_to_agent_ip():
    hm = HostMap({"host1": "10.10.255.60"})
    fields = (("rule_id", "1"), ("logfile", "x"), ("src_ip", "10.0.0.9"), ("hostname", "host1"))
    out, unresolved, collided = normalize_record(fields, hm)
    assert dict(out)["src_ip"] == "10.0.0.9"
    assert dict(out)["agent_ip"] == "10.10.255.60"
    assert (unresolved, collided) == (False, True)


def test_normalize_is_idempotent():
    hm = HostMap({"host1": "10.10.255.60"})
    cases = [
        (("rule_id", "1"), ("logfile", "x"), ("hostname", "host1")),
        (("rule_id", "1"), ("logfile", "x"), ("hostname", "ghost")),
        (("sig_id", "5"), ("src_ip", "1.2.3.4"), ("dst_ip", "5.6.7.8")),
    ]
    for fields in cases:
        once, _, _ = normalize_record(fields, hm)
        assert normalize_record(once, hm) == (once, False, False)


# --- hostmap -----------------------------------------------------------------

def test_load_hostmap(tmp_path):
    path = tmp_path / "hosts.map"
    path.write_text("# comment\nHost1 10.0.0.1\nhost2 10.0.0.2  # trailing\n\n")
    hm = load_hostmap(path)
    assert hm.resolve("host1") == "10.0.0.1"
    assert hm.resolve("HOST2") == "10.0.0.2"
    assert hm.resolve("nope") is None


def test_load_hostmap_rejects_bad_ip(tmp_path):
    path = tmp_path / "hosts.map"
    path.write_text("host1 999.0.0.1\n")
    with pytest.raises(ValueError):
        load_hostmap(path)


def test_load_hostmap_rejects_duplicate(tmp_path):
    path = tmp_path / "hosts.map"
    path.write_text("host1 10.0.0.1\nHOST1 10.0.0.2\n")
    with pytest.raises(ValueError):
        load_hostmap(path)


# --- windows -----------------------------------------------------------------

def test_window_boundaries_are_half_open():
    spec = WindowSpec(origin=1000.0, length=100.0)
    assert spec.window_of(1000.0) == 0
    assert spec.window_of(1100.0) == 1
    parts = window_partition(np.array([1000.0, 1099.9, 1100.0]), spec)
    assert parts == [(0, 0, 2), (1, 2, 3)]


def test_window_partition_matches_brute_force_buckets():
    import random

    rng = random.Random(42)
    spec = WindowSpec(origin=0.0, length=100.0)
    times = sorted(rng.uniform(0, 300) for _ in range(1000))

    # brute-force oracle: test every window interval against every timestamp
    expected = {k: 0 for k in range(3)}
    for ts in times:
        for k in range(3):
            if 100.0 * k <= ts < 100.0 * (k + 1):
                expected[k] += 1

    parts = window_partition(np.array(times), spec)
    sizes = {k: stop - start for k, start, stop in parts}
    assert sizes == expected
    assert sum(sizes.values()) == 1000


def one_pass_partition(times, spec):
    """`window_partition` as one expression over every timestamp."""
    index = np.floor((times - spec.origin) / spec.length).astype(np.int64)
    windows, starts = np.unique(index, return_index=True)
    stops = np.append(starts[1:], len(index))
    return list(zip(windows.tolist(), starts.tolist(), stops.tolist()))


def edge_timestamps(origin, length, rng, count):
    """Sorted times on, just below and just above the window edges around
    an origin, and `count` more between them."""
    edges = origin + length * np.arange(-2.0, 12.0)
    spread = rng.uniform(edges[0], edges[-1], count)
    return np.sort(np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), spread,
        np.repeat(edges[3:5], 3),
    ]))


@pytest.mark.parametrize("chunk", [1, 2, 7, 65536])
@pytest.mark.parametrize("origin, length", [
    (0.0, 100.0),
    (1234.5678, 100.0 / 3.0),
    (-1e9 / 3.0, 28800.0),
    (1614556800.0 + 1.0 / 3.0, 28800.0),
])
def test_window_partition_matches_one_pass_at_window_edges(monkeypatch, chunk, origin, length):
    """Origins off the window grid and times at its edges, cut into chunks of
    every size: the same slices as one pass over all the times."""
    times = edge_timestamps(origin, length, np.random.default_rng(len(str(origin))), 150)
    spec = WindowSpec(origin=origin, length=length)
    monkeypatch.setattr(artifact.ingest, "_WINDOW_CHUNK", chunk)
    assert window_partition(times, spec) == one_pass_partition(times, spec)


def test_window_partition_matches_one_pass_across_chunks():
    rng = np.random.default_rng(23)
    spec = WindowSpec(origin=1614556800.0 + 0.25, length=28800.0)
    times = edge_timestamps(spec.origin, spec.length, rng, 3 * 65536)
    assert window_partition(times, spec) == one_pass_partition(times, spec)
    assert window_partition(times[:0], spec) == []


@settings(deadline=None)
@given(
    ts_list=st.lists(st.floats(min_value=0.0, max_value=1e5, allow_nan=False), max_size=60),
    length=st.floats(min_value=100.0, max_value=1e4),
)
def test_partition_is_exhaustive_and_disjoint(ts_list, length):
    spec = WindowSpec(origin=0.0, length=length)
    times = np.array(sorted(ts for ts in ts_list if ts > 0))
    parts = window_partition(times, spec)
    # the slices tile the timestamps, one per occupied window, in window order
    bounds = [0] + [stop for _, _, stop in parts]
    assert [start for _, start, _ in parts] == bounds[:-1]
    assert bounds[-1] == len(times)
    indices = [k for k, _, _ in parts]
    assert indices == sorted(set(indices))
    for k, start, stop in parts:
        lo, hi = spec.span(k)
        assert start < stop
        assert all(lo <= ts < hi for ts in times[start:stop].tolist())


@pytest.mark.parametrize("origin, length, cutoff", [
    (math.nan, 100.0, 0.0),
    (0.0, math.inf, 0.0),
    (0.0, 100.0, math.inf),
    (0.0, 1e-300, 0.0),
    (1e20, 1.0, 1e20),
])
def test_window_spec_rejects_a_grid_it_cannot_index(origin, length, cutoff):
    with pytest.raises(ValueError):
        WindowSpec(origin=origin, length=length, training_cutoff=cutoff)


def test_window_spec_accepts_a_short_grid_whose_indexes_fit_int64():
    length = MAX_TIMESTAMP / 2.0**62
    spec = WindowSpec(origin=0.0, length=length)
    times = np.array([1.0, MAX_TIMESTAMP * (1 - 1e-16)])
    assert [w for w, _, _ in window_partition(times, spec)] == [
        math.floor(t / length) for t in times
    ]


def test_training_windows_count():
    spec = WindowSpec(origin=0.0, length=100.0, training_cutoff=350.0)
    assert spec.training_windows == 4
    aligned = WindowSpec(origin=0.0, length=100.0, training_cutoff=300.0)
    assert aligned.training_windows == 3


# --- jsonl -------------------------------------------------------------------

def test_jsonl_round_trip(tmp_path):
    records = [
        AlertRecord("snort", 12.5, {"sig_id": "2", "src_ip": "1.1.1.1", "dst_ip": "2.2.2.2"}),
        AlertRecord("ossec", 13.0, {"rule_id": "9", "logfile": "/var/log/x"}),
        AlertRecord("bro", 14.0, {"uid": "abc", "src_ip": "3.3.3.3"}),
    ]
    path = tmp_path / "records.jsonl"
    write_jsonl(records, path)
    stats = ParseStats()
    back = list(read_jsonl_file(path, stats))
    assert back == records
    assert stats.parsed == 3 and stats.skipped == 0


awkward_text = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", " ", "\ud800", "\udfff", "é", "😀"]),
    max_size=8,
)
awkward_times = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 1e16, 1.0, 1614556800.0, math.nan, math.inf, -math.inf]
)


@settings(deadline=None, max_examples=100)
@given(
    records=st.lists(
        st.builds(AlertRecord, awkward_text, awkward_times,
                  st.dictionaries(awkward_text, awkward_text, max_size=3)),
        max_size=12,
    ),
    chunk=st.integers(1, 5),
)
def test_write_jsonl_writes_what_json_dumps_writes(records, chunk):
    # Non-finite times are spelled NaN, Infinity and -Infinity, as json.dumps
    # spells them, also in a chunk that mixes them with finite ones.
    want = "".join(
        json.dumps({"source": r.source, "ts": r.timestamp, "fields": r.fields},
                   separators=(",", ":")) + "\n"
        for r in records
    )
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(artifact.ingest, "_WRITE_CHUNK", chunk)
        path = Path(tmp) / "records.jsonl"
        write_jsonl(records, path)
        assert path.read_bytes() == want.encode("ascii")


def test_jsonl_skips_malformed_lines(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(
        '{"source":"snort","ts":5.0,"fields":{"sig_id":"1"}}\n'
        "not json at all\n"
        '{"source":"snort","ts":-1.0,"fields":{"sig_id":"1"}}\n'
        '{"source":"snort","ts":5.0,"fields":{}}\n'
        '{"source":"snort","ts":NaN,"fields":{"sig_id":"1"}}\n'
        '{"source":"snort","ts":Infinity,"fields":{"sig_id":"1"}}\n'
        '{"source":"snort","ts":-Infinity,"fields":{"sig_id":"1"}}\n'
        # float(True) is 1.0, a valid epoch second, but a boolean is no timestamp.
        '{"source":"snort","ts":true,"fields":{"sig_id":"1"}}\n'
        '{"source":"snort","ts":false,"fields":{"sig_id":"1"}}\n'
    )
    stats = ParseStats()
    records = list(read_jsonl_file(path, stats))
    assert len(records) == 1
    assert stats.parsed == 1 and stats.skipped == 8
    assert stats.parsed + stats.skipped == stats.lines


def test_jsonl_skips_fields_that_do_not_encode_as_utf8(tmp_path):
    """A JSON escape of a lone surrogate decodes to a str that UTF-8 output
    files cannot hold; an escaped surrogate pair is one valid character."""
    path = tmp_path / "records.jsonl"
    path.write_text(
        '{"source":"snort","ts":5.0,"fields":{"sig_id":"1"}}\n'
        '{"source":"snort","ts":6.0,"fields":{"sig_id":"\\ud800"}}\n'
        '{"source":"snort","ts":7.0,"fields":{"sig\\udfffid":"1"}}\n'
        '{"source":"snort","ts":8.0,"fields":{"sig_id":"\\ud83d\\ude00"}}\n'
    )
    stats = ParseStats()
    records = list(read_jsonl_file(path, stats))
    assert [r.fields["sig_id"] for r in records] == ["1", "\U0001f600"]
    assert stats.parsed == 2 and stats.skipped == 2


@pytest.mark.parametrize("key, value, message", [
    ("sig_id", "a\tb", "tab or line break"),
    ("sig\rid", "1", "tab or line break"),
    ("sig_id", "\ud800", "does not encode as UTF-8"),
    ("sig\udfffid", "1", "does not encode as UTF-8"),
    ("sig\udfffid", "1\n", "tab or line break"),  # both: the break is named
])
def test_check_fields_names_what_it_found(key, value, message):
    with pytest.raises(ValueError, match=message):
        check_fields({"rule_id": "1", key: value})


# Lines one step from a canonical one, each of which json.loads rejects, and
# canonical lines.
JSONL_NEAR_MISSES = [
    '{"source":"snort","ts":5,"fields":{"sig_id":"1}}',     # unterminated string
    '{"source":"snort","ts":5,"fields":{"sig_id":"1"}} x',  # text after the object
    '{"source":"snort","ts":5,"fields":{"sig_id":"1"}',     # unterminated object
    '{"source":"snort","ts":5,"fields":{"sig_id":"1\\"}}',   # escaped closing quote
    '{"source":"sn\\ort","ts":5,"fields":{}}',               # no such escape
    '{"source":"snort","ts":5,"fields":{"sig_id":"\\u12"}}', # short \u escape
    '{"source":"snort","ts":5,"fields":{"sig_id":"a\tb"}}',  # raw tab
    '{"source":"snort","ts":05,"fields":{}}',               # leading zero
    '{"source":"snort","ts":5.,"fields":{}}',               # no fraction digits
    '{"source":"snort","ts":5e+,"fields":{}}',              # no exponent digits
    '{"source":"snort","ts":5,"fields":{"sig_id":"1",}}',   # trailing comma
    '{"source":"snort","ts":5,"fields":{"sig_id"}}',        # key without a value
]
JSONL_CANONICAL = [
    '{"source":"snort","ts":5,"fields":{}}',
    '{"source":"snort","ts":-0.5e-3,"fields":{"sig_id":"1","src_ip":"10.0.0.1"}}',
    '{"source":"o\\"s","ts":1614556800.25,"fields":{"k\\u00e9":"a\\\\","v":"\\/"}}',
]


def _backtracking(pattern: re.Pattern) -> re.Pattern:
    """`pattern` with its possessive repeats made backtracking ones."""
    return re.compile(
        pattern.pattern.replace("*+", "*").replace("++", "+").replace("?+", "?"),
        pattern.flags,
    )


def scan_reference(line: str) -> list[AlertRecord]:
    """The record `_scan_jsonl` and `_jsonl_key` make of a line, if any."""
    try:
        ts, raw = _scan_jsonl(line)
        source, fields = _jsonl_key(raw)
    except (ValueError, KeyError, TypeError, OverflowError):
        return []
    return [AlertRecord(source, ts, fields)]


def test_jsonl_lines_near_the_canonical_shape_read_like_the_scanner(tmp_path):
    for n, line in enumerate(JSONL_NEAR_MISSES + JSONL_CANONICAL):
        path = tmp_path / f"{n}.jsonl"
        path.write_text(line + "\n")
        stats = ParseStats()
        want = scan_reference(line)
        assert list(read_jsonl_file(path, stats)) == want, line
        assert (stats.lines, stats.parsed, stats.skipped) == (1, len(want), 1 - len(want))
    assert not any(map(scan_reference, JSONL_NEAR_MISSES))
    assert scan_reference(JSONL_CANONICAL[-1])


JSONL_INSERTS = ['"', "\n", ",", ":", "}", "{", "x", "ö", "\ud800", "\r", "\t", "\\", "\\n",
                 '"a":"b"', '","', '":"', "5", "e3"]


@st.composite
def jsonl_pieces(draw):
    """Canonical lines, each with up to two texts put in at random places."""
    lines = []
    for line in draw(st.lists(st.sampled_from(JSONL_CANONICAL), min_size=1, max_size=4)):
        for text in draw(st.lists(st.sampled_from(JSONL_INSERTS), max_size=2)):
            at = draw(st.integers(0, len(line)))
            line = line[:at] + text + line[at:]
        lines.append(line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=500, deadline=None)
@given(jsonl_pieces())
def test_possessive_jsonl_pattern_finds_what_a_backtracking_one_finds(piece):
    assert _JSONL_LINE_RE.findall(piece) == _backtracking(_JSONL_LINE_RE).findall(piece)


def test_jsonl_coerces_numeric_field_values(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"source":"snort","ts":1.0,"fields":{"sig_id":215}}\n')
    [rec] = read_jsonl_file(path, ParseStats())
    assert rec.fields == {"sig_id": "215"}


# --- byte-order marks ----------------------------------------------------------
#
# Windows tools start a UTF-8 file with U+FEFF. Every input reads past it.

BOM = "\ufeff"
SNORT_LINE = ("11/30-20:00:01.000000 [**] [1:215:3] MSG [**] "
              "{TCP} 10.10.255.77:4444 -> 10.10.255.254:80\n")


def test_snort_file_with_byte_order_mark_keeps_its_first_line(tmp_path):
    records, stats = read_snort_text(tmp_path, BOM + SNORT_LINE * 2)
    assert (stats.lines, stats.parsed, stats.skipped) == (2, 2, 0)
    assert [r.fields["sig_id"] for r in records] == ["215", "215"]


def test_ossec_file_with_byte_order_mark_keeps_its_first_block(tmp_path):
    second = OSSEC_BLOCK.replace("1446578476.", "1446578477.")
    records, stats = read_ossec_text(tmp_path, BOM + OSSEC_BLOCK + "\n" + second)
    assert (stats.lines, stats.parsed, stats.skipped) == (2, 2, 0)
    assert [r.timestamp for r in records] == [1446578476.0, 1446578477.0]


def test_jsonl_file_with_byte_order_mark_keeps_its_first_line(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(BOM + "".join(
        f'{{"source":"snort","ts":{ts},"fields":{{"sig_id":"1"}}}}\n' for ts in (5.0, 6.0)
    ))
    stats = ParseStats()
    assert [r.timestamp for r in read_jsonl_file(path, stats)] == [5.0, 6.0]
    assert (stats.lines, stats.parsed, stats.skipped) == (2, 2, 0)


def test_hostmap_with_byte_order_mark_resolves_its_first_name(tmp_path):
    path = tmp_path / "hosts.map"
    path.write_text(BOM + "host1 10.0.0.1\nhost2 10.0.0.2\n")
    assert load_hostmap(path).entries == {"host1": "10.0.0.1", "host2": "10.0.0.2"}


def test_ini_with_byte_order_mark_reads_its_first_section(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BOM + "[window]\nhours = 4\n")
    keys = {("window", "hours"): ("window_hours", float)}
    assert read_ini(path, keys, ValueError) == {"window_hours": 4.0}
