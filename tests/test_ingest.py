"""Parser and windowing tests, checked against hand-built reference parsers."""

import ipaddress
import math
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from artifact.ingest import (
    AlertRecord,
    HostMap,
    MalformedBlockError,
    MalformedLineError,
    ParseStats,
    WindowSpec,
    iter_ossec_blocks,
    load_hostmap,
    normalize_record,
    parse_jsonl_record,
    parse_ossec_block,
    parse_snort_fast,
    read_jsonl_file,
    read_ossec_file,
    read_snort_file,
    window_partition,
    write_jsonl,
)

YEAR = 2016


# --- reference parsers (token-based, independent of the regex implementations)

def ref_parse_snort(line: str, year: int):
    tokens = line.strip().split()
    if not tokens:
        return None
    date_time = tokens[0].split("-", 1)
    if len(date_time) != 2:
        return None
    date_bits = date_time[0].split("/")
    if len(date_bits) == 3:
        month, day, yy = date_bits
        year = 2000 + int(yy) if int(yy) < 100 else int(yy)
    elif len(date_bits) == 2:
        month, day = date_bits
    else:
        return None
    clock = date_time[1].split(".")
    if len(clock) != 2:
        return None
    try:
        hh, mm, ss = clock[0].split(":")
        moment = datetime(
            year, int(month), int(day), int(hh), int(mm), int(ss),
            int(clock[1].ljust(6, "0")), tzinfo=timezone.utc,
        )
    except ValueError:
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

def test_parse_snort_fast_basic():
    line = (
        "11/30-20:00:01.000000 [**] [1:215:3] MSG [**] "
        "{TCP} 10.10.255.77:4444 -> 10.10.255.254:80"
    )
    rec = parse_snort_fast(line, YEAR)
    assert rec.source == "snort"
    assert rec.fields == {
        "sig_id": "215",
        "src_ip": "10.10.255.77",
        "dst_ip": "10.10.255.254",
    }
    expected_ts = datetime(2016, 11, 30, 20, 0, 1, tzinfo=timezone.utc).timestamp()
    assert rec.timestamp == expected_ts


def test_parse_snort_no_arrow_is_malformed():
    line = "11/30-20:00:03.000000 [**] [1:215:3] lacking [**] {TCP} 10.10.255.77:4444"
    with pytest.raises(MalformedLineError):
        parse_snort_fast(line, YEAR)


def test_parse_snort_icmp_without_ports():
    line = "12/01-00:00:00.000000 [**] [129:12:1] x [**] {ICMP} 10.0.0.1 -> 10.0.0.2"
    rec = parse_snort_fast(line, YEAR)
    assert rec.fields["src_ip"] == "10.0.0.1"
    assert rec.fields["dst_ip"] == "10.0.0.2"


def test_snort_corpus_matches_reference(data_dir):
    path = data_dir / "snort_fast_sample.txt"
    stats = ParseStats()
    records = read_snort_file(path, YEAR, stats).records()

    lines = [l for l in path.read_text().splitlines() if l.strip()]
    expected = [ref_parse_snort(l, YEAR) for l in lines]
    good = [e for e in expected if e is not None]

    assert stats.lines == len(lines)
    assert stats.parsed + stats.skipped == stats.lines
    assert stats.parsed == len(good)
    assert [(r.timestamp, r.fields) for r in records] == good


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


def test_parse_ossec_block_basic():
    rec = parse_ossec_block(OSSEC_BLOCK)
    assert rec.source == "ossec"
    assert rec.timestamp == 1446578476.0
    assert rec.fields == {
        "rule_id": "5503",
        "logfile": "/var/log/auth.log",
        "src_ip": "10.10.255.77",
        "hostname": "host1",
    }


def test_parse_ossec_block_without_src_ip():
    block = OSSEC_BLOCK.replace("Src IP: 10.10.255.77\n", "")
    rec = parse_ossec_block(block)
    assert "src_ip" not in rec.fields


def test_parse_ossec_missing_rule_is_malformed():
    block = "\n".join(
        l for l in OSSEC_BLOCK.splitlines() if not l.startswith("Rule:")
    )
    with pytest.raises(MalformedBlockError):
        parse_ossec_block(block)


def test_two_concatenated_blocks_split_cleanly():
    second = OSSEC_BLOCK.replace("1446578476.4335", "1446578999.0001")
    blocks = list(iter_ossec_blocks(OSSEC_BLOCK + "\n" + second))
    assert len(blocks) == 2
    records = [parse_ossec_block(b) for b in blocks]
    assert records[0].timestamp == 1446578476.0
    assert records[1].timestamp == 1446578999.0


def test_ossec_corpus_matches_reference(data_dir):
    path = data_dir / "ossec_alerts_sample.log"
    stats = ParseStats()
    records = read_ossec_file(path, stats).records()

    blocks = list(iter_ossec_blocks(path.read_text()))
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
    records = read_ossec_file(path, stats).records()
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
    rec = AlertRecord("ossec", 10.0, {"rule_id": "1", "logfile": "x", "hostname": "host1"})
    out = normalize_record(rec, hm)
    assert out.fields == {"rule_id": "1", "logfile": "x", "src_ip": "10.10.255.60"}


def test_normalize_drops_duplicate_hostname():
    hm = HostMap({"host1": "10.10.255.60"})
    rec = AlertRecord(
        "ossec", 10.0,
        {"rule_id": "1", "logfile": "x", "src_ip": "10.10.255.60", "hostname": "host1"},
    )
    out = normalize_record(rec, hm)
    assert out.fields == {"rule_id": "1", "logfile": "x", "src_ip": "10.10.255.60"}


def test_normalize_unresolvable_hostname_counts_warning():
    stats = ParseStats()
    rec = AlertRecord("ossec", 10.0, {"rule_id": "1", "logfile": "x", "hostname": "ghost"})
    out = normalize_record(rec, HostMap(), stats)
    assert out.fields["src_ip"] == "ghost"
    assert stats.unresolved_hostnames == 1


def test_normalize_hostname_collision_goes_to_agent_ip():
    stats = ParseStats()
    hm = HostMap({"host1": "10.10.255.60"})
    rec = AlertRecord(
        "ossec", 10.0,
        {"rule_id": "1", "logfile": "x", "src_ip": "10.0.0.9", "hostname": "host1"},
    )
    out = normalize_record(rec, hm, stats)
    assert out.fields["src_ip"] == "10.0.0.9"
    assert out.fields["agent_ip"] == "10.10.255.60"
    assert stats.hostname_collisions == 1


def test_normalize_is_idempotent():
    hm = HostMap({"host1": "10.10.255.60"})
    cases = [
        AlertRecord("ossec", 10.0, {"rule_id": "1", "logfile": "x", "hostname": "host1"}),
        AlertRecord("ossec", 10.0, {"rule_id": "1", "logfile": "x", "hostname": "ghost"}),
        AlertRecord("snort", 10.0, {"sig_id": "5", "src_ip": "1.2.3.4", "dst_ip": "5.6.7.8"}),
    ]
    for rec in cases:
        once = normalize_record(rec, hm)
        twice = normalize_record(once, hm)
        assert once == twice


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

def _rec(ts):
    return AlertRecord("snort", ts, {"sig_id": "1", "src_ip": "1.1.1.1", "dst_ip": "2.2.2.2"})


def test_window_boundaries_are_half_open():
    spec = WindowSpec(origin=1000.0, length=100.0)
    assert spec.window_of(1000.0) == 0
    assert spec.window_of(1100.0) == 1
    parts = window_partition([_rec(1000.0), _rec(1100.0)], spec)
    assert [(k, len(rs)) for k, rs in parts] == [(0, 1), (1, 1)]


def test_window_partition_matches_brute_force_buckets():
    import random

    rng = random.Random(42)
    spec = WindowSpec(origin=0.0, length=100.0)
    records = [_rec(rng.uniform(0, 300)) for _ in range(1000)]

    # brute-force oracle: test every window interval against every record
    expected = {k: 0 for k in range(3)}
    for r in records:
        for k in range(3):
            if 100.0 * k <= r.timestamp < 100.0 * (k + 1):
                expected[k] += 1

    parts = window_partition(records, spec)
    sizes = {k: len(rs) for k, rs in parts}
    assert sizes == expected
    assert sum(sizes.values()) == 1000


def test_window_partition_drops_pre_origin_records():
    stats = ParseStats()
    spec = WindowSpec(origin=1000.0, length=100.0)
    parts = window_partition([_rec(900.0), _rec(1050.0)], spec, stats)
    assert stats.dropped_before_origin == 1
    assert [(k, len(rs)) for k, rs in parts] == [(0, 1)]


def test_window_partition_emits_empty_gaps_and_forced_range():
    spec = WindowSpec(origin=0.0, length=10.0)
    parts = window_partition([_rec(5.0), _rec(35.0)], spec)
    assert [k for k, _ in parts] == [0, 1, 2, 3]
    assert [len(rs) for _, rs in parts] == [1, 0, 0, 1]

    forced = window_partition([_rec(5.0)], spec, first_index=0, last_index=2)
    assert [(k, len(rs)) for k, rs in forced] == [(0, 1), (1, 0), (2, 0)]


@settings(deadline=None)
@given(
    ts_list=st.lists(st.floats(min_value=0.0, max_value=1e5, allow_nan=False), max_size=60),
    length=st.floats(min_value=100.0, max_value=1e4),
)
def test_partition_is_exhaustive_and_disjoint(ts_list, length):
    spec = WindowSpec(origin=0.0, length=length)
    records = [_rec(ts) for ts in ts_list if ts > 0]
    parts = window_partition(records, spec)
    seen = [r for _, rs in parts for r in rs]
    assert len(seen) == len(records)
    indices = [k for k, _ in parts]
    assert indices == sorted(indices)
    if indices:
        assert indices == list(range(indices[0], indices[-1] + 1))
    for k, rs in parts:
        lo, hi = spec.span(k)
        for r in rs:
            assert lo <= r.timestamp < hi


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
    back = read_jsonl_file(path, stats).records()
    assert back == records
    assert stats.parsed == 3 and stats.skipped == 0


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
    )
    stats = ParseStats()
    records = read_jsonl_file(path, stats).records()
    assert len(records) == 1
    assert stats.parsed == 1 and stats.skipped == 6
    assert stats.parsed + stats.skipped == stats.lines


def test_jsonl_coerces_numeric_field_values():
    rec = parse_jsonl_record('{"source":"snort","ts":1.0,"fields":{"sig_id":215}}')
    assert rec.fields == {"sig_id": "215"}
