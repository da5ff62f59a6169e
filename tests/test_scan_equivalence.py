"""The timestamp-first readers against the per-line scanners they replaced.

Every reader reads a piece of canonical lines or blocks with one match,
timestamps in numpy, and decodes each distinct raw key once;
`read_snort_file` computes timestamps without a datetime per line and starts
its address search at the arrow, and every reader stops at the timestamp of
a line before a cutoff. The tests draw the read buffer too, so that lines
and blocks straddle pieces, and mix canonical lines and blocks with odd ones
in one piece.

The references below are the readers as they were: `_scan_jsonl` on every
JSONL line, `_scan_ossec` on every OSSEC block, and a datetime and an
unanchored address search on every Snort line. Without a cutoff the readers
must give the same timestamps, key ids, keys and `ParseStats` as the
references. The intended differences, all in Snort lines: one at or before
the epoch, or at 10000-01-01 after rounding, is skipped, as JSONL and OSSEC
already skip one; only a 2-digit year is widened to 20xx; and yearless dates
follow the year over Dec -> Jan (`conftest.SnortYears`). With a cutoff they
must keep exactly the reference's alerts at or after it, and count every
other line.
"""

import json
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SnortYears

from artifact import ingest
from artifact.ingest import (
    Alerts,
    MalformedBlockError,
    MalformedLineError,
    ParseStats,
    _SNORT_ADDR_RE,
    _SNORT_SIG_RE,
    _SNORT_TS_RE,
    _jsonl_key,
    _ossec_blocks,
    _ossec_key,
    _scan_jsonl,
    _scan_ossec,
    _snort_key,
    read_jsonl_file,
    read_ossec_file,
    read_snort_file,
    valid_timestamp,
)

T0 = 1614556800.0  # 2021-03-01T00:00:00Z
CUTOFFS = st.sampled_from([None, T0, T0 + 0.5, T0 + 1.5, T0 + 3600.0, 1e9, 3e11])
# The real piece size, and a few dozen bytes, so that lines and OSSEC blocks
# straddle the pieces the readers cut.
BUFFERS = st.sampled_from([ingest._PIECE, 23, 61])


# --- references: the scanners as they were -------------------------------------

def reference_scan_snort(line, years):
    line = line.strip()
    ts_match = _SNORT_TS_RE.match(line)
    if not ts_match:
        raise MalformedLineError("no leading timestamp")
    month, day, line_year, hh, mm, ss, frac = ts_match.groups()
    if line_year is not None:
        year = int(line_year)
        # Changed: only a 2-digit year is widened to 20xx.
        if len(line_year) == 2:
            year += 2000
    else:
        # Changed: a yearless date follows the year over Dec -> Jan.
        year = years(int(month), int(day))
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
    ts = moment.timestamp()
    # Changed: the epoch and earlier are no longer read, nor is a time of
    # 9999-12-31 that rounds to 10000-01-01.
    if not valid_timestamp(ts):
        raise MalformedLineError("timestamp at or before the epoch")
    return ts, (sig_match.group(2), addr_match.group(1), addr_match.group(2))


def reference_read(items, scan, build, errors):
    """The per-item reader loop: every item scanned in full, each distinct
    raw key built once and given the next key id."""
    alerts, stats, kids = Alerts(), ParseStats(), {}
    for item in items:
        stats.lines += 1
        try:
            ts, raw = scan(item)
        except errors:
            stats.skipped += 1
            continue
        if raw not in kids:
            try:
                source, fields = build(raw)
                kids[raw] = len(alerts.keys)
                alerts.keys.append((source, tuple(fields.items())))
            except errors:
                kids[raw] = None
        if kids[raw] is None:
            stats.skipped += 1
        else:
            stats.parsed += 1
            alerts.times.append(ts)
            alerts.ids.append(kids[raw])
    return alerts, stats


JSONL_ERRORS = (ValueError, KeyError, TypeError, OverflowError, RecursionError)
YEAR = 2021


def read_both(fmt, path, cutoff, year=YEAR):
    """(reader's alerts, its stats, reference alerts, reference stats)."""
    stats = ParseStats()
    with open(path, encoding="utf-8", errors="replace") as fp:
        if fmt == "snort":
            got = read_snort_file(path, year, stats, cutoff=cutoff)
            years = SnortYears(year)
            want = reference_read(filter(str.strip, fp), lambda l: reference_scan_snort(l, years),
                                  _snort_key, (MalformedLineError,))
        elif fmt == "ossec":
            got = read_ossec_file(path, stats, cutoff=cutoff)
            want = reference_read(_ossec_blocks(fp), _scan_ossec, _ossec_key,
                                  (MalformedBlockError,))
        else:
            got = read_jsonl_file(path, stats, cutoff=cutoff)
            want = reference_read(filter(str.strip, fp), _scan_jsonl, _jsonl_key, JSONL_ERRORS)
    return got, stats, *want


def assert_reads_like_reference(fmt, path, cutoff, year=YEAR, buffer=ingest._PIECE):
    """Read `path` both ways, the reader in pieces of `buffer` bytes, and
    compare; return the reader's stats."""
    with patch.object(ingest, "_PIECE", buffer):
        got, stats, want, want_stats = read_both(fmt, path, cutoff, year)
    assert stats.lines == stats.parsed + stats.skipped + stats.training_span
    if cutoff is None:
        assert got.times.tobytes() == want.times.tobytes()
        assert list(got.ids) == list(want.ids)
        assert got.keys == want.keys
        assert stats == want_stats
        return stats
    kept = [r for r in want if r.timestamp >= cutoff]
    assert list(got) == kept
    assert stats.lines == want_stats.lines
    assert stats.parsed == len(kept)
    # Every alert the reference read before the cutoff is a training-span line.
    assert stats.training_span >= want_stats.parsed - len(kept)
    return stats


def write_lines(root, name, lines, final_newline=True):
    path = Path(root) / name
    path.write_bytes(b"\n".join(lines) + (b"\n" if final_newline else b""))
    return path


# Each drawn line is a valid line with at most two of its parts replaced by
# an odd one, so that every odd part also meets lines that parse.

def odd_parts(odd):
    """Lists of up to two (part, value) replacements."""
    return st.lists(st.sampled_from([(part, v) for part, values in odd.items() for v in values]),
                    max_size=2)


# --- JSONL ------------------------------------------------------------------------

TS_TOKENS = st.sampled_from(["1614556800", "1614556800.5", "1614556801.25", "1614560400"]) | \
    st.sampled_from([
        "1.6145568e9", "16145568E+2", "1614556800.0e0", "-0", "0", "0.0", "-5", "1e999",
        "-1e999", "1e-999", "9" * 400, "1" + "0" * 5000, "253402300800", "253402300799.5",
        "NaN", "Infinity", '"1614556800"', "null", "true", "[1614556800]", "01", "1.", ".5",
        "+1", "1_0",
        "1\u0666\u0661\u0664\u0665\u0665\u0666\u0668\u0660\u0660",  # json takes ASCII digits
    ])
JSONL_VALID = {
    "pad": "",
    "source": "snort",
    "fields": {"sig_id": "1", "src_ip": "10.0.0.1"},
    "order": ("source", "ts", "fields"),
    "seps": (",", ":"),
    "extra": "",
}
JSONL_ODD = {
    "pad": [" ", "\t"],
    "source": ["ossec", "bro", " Snort", "", 'sn"ort', "sn\u00f6rt", 7],
    "fields": [{"ts": "1"}, {"TS": "1", "sig_id": 2}, {"sig_id": ',"ts":1614556800'},
               {"sig_id": '"ts":5'}, {"sig_id": {"ts": 5}}, {"sig_id": 1.0}, {"sig_id": True},
               {"sig_id": None}, {"sig_id": ""}, {}, [], "x", None, {"x\\y": "1"}],
    "order": [("ts", "source", "fields"), ("source", "fields", "ts"), ("fields", "ts", "source")],
    "seps": [(", ", ": "), (",", " :")],
    # A second top-level "ts" wins in json.loads.
    "extra": [',"ts":1614556900', ',"ts":"x"', ',"other":1', ',"ts":1614556800', ',"ts":0.5'],
}


def jsonl_line(odd, token):
    t = {**JSONL_VALID, **dict(odd)}
    parts = {"source": json.dumps(t["source"]), "ts": token, "fields": json.dumps(t["fields"])}
    item_sep, key_sep = t["seps"]
    body = item_sep.join(f'"{key}"{key_sep}{parts[key]}' for key in t["order"])
    return t["pad"] + "{" + body + t["extra"] + "}"


@settings(deadline=None, max_examples=200)
@given(
    templates=st.lists(odd_parts(JSONL_ODD), min_size=1, max_size=4),
    picks=st.lists(st.tuples(st.integers(0, 3), TS_TOKENS), max_size=40),
    junk=st.lists(st.sampled_from(["not json", "{", "[]", '{"source":"snort"'])),
    final_newline=st.booleans(),
    cutoff=CUTOFFS,
    buffer=BUFFERS,
)
def test_jsonl_reader_matches_per_line_decoding(templates, picks, junk, final_newline, cutoff,
                                                buffer):
    lines = [jsonl_line(templates[i % len(templates)], token) for i, token in picks] + junk
    with tempfile.TemporaryDirectory() as tmp:
        path = write_lines(tmp, "a.jsonl", [l.encode() for l in lines], final_newline)
        assert_reads_like_reference("jsonl", path, cutoff, buffer=buffer)


def test_jsonl_duplicate_ts_is_never_cut_out(tmp_path):
    """Three lines share everything but their first "ts" token. The later
    "ts" key is the one json.loads keeps, every time."""
    path = tmp_path / "a.jsonl"
    path.write_text("".join(
        '{"source":"snort","ts":%s,"fields":{"sig_id":"1"},"ts":1614556900}\n' % token
        for token in ("1614556800.5", "1614556801", "1614556999")
    ))
    stats = ParseStats()
    alerts = read_jsonl_file(path, stats)
    assert list(alerts.times) == [1614556900.0] * 3
    assert stats.parsed == 3
    assert_reads_like_reference("jsonl", path, None)
    assert_reads_like_reference("jsonl", path, 1614556850.0)


def test_jsonl_known_rest_skips_what_json_would_skip(tmp_path):
    """After a first line makes the rest known, a token json.loads rejects,
    or whose value is no valid timestamp, still makes a skip."""
    tokens = ["1614556800", "1\u0666\u0661\u0664\u0665\u0665\u0666\u0668\u0660\u0660",
              "1" + "0" * 5000, "9" * 400, "1e999", "1e-999", "-0", "0", "01", "1.", "-5"]
    path = tmp_path / "a.jsonl"
    path.write_text("".join(
        '{"source":"snort","ts":%s,"fields":{"sig_id":"1"}}\n' % token for token in tokens
    ))
    stats = assert_reads_like_reference("jsonl", path, None)
    assert (stats.parsed, stats.skipped) == (1, len(tokens) - 1)


def test_jsonl_escapes_take_the_block_path(tmp_path, scanner_calls):
    """Canonical lines whose source, keys and values hold JSON escapes and
    raw non-ASCII text read like the reference without the per-line scanner;
    a value that decodes to a tab is still a skip, and a key that decodes
    the same as another text has that text's key id."""
    path = tmp_path / "a.jsonl"
    path.write_text("".join(
        '{"source":%s,"ts":%s,"fields":{%s}}\n' % (source, T0 + i, fields)
        for i, (source, fields) in enumerate([
            (r'"sn\"ort"', r'"sig\\id":"1\/2","src_ip":"\u00f6"'),
            (r'"sn\u00f6rt"', r'"sig_id":"\u00f6","\u00f6":"a\\"'),
            (r'"snört"', r'"sig_id":"ö","ö":"a\\"'),
            ('"snort"', r'"sig_id":"\t"'),
            (r'"\/x"', r'"a\b\f\n\r":"1","b":"\ud83d\ude00"'),
            (r'"snort"', r'"sig_id":"1","sig_id":"2"'),
        ])
    ), encoding="utf-8")
    stats = assert_reads_like_reference("jsonl", path, None)
    assert scanner_calls == []
    assert (stats.parsed, stats.skipped) == (5, 1)
    alerts = read_jsonl_file(path, ParseStats())
    assert alerts.ids[1] == alerts.ids[2]
    assert alerts.keys[0] == ('sn"ort', (("sig\\id", "1/2"), ("src_ip", "ö")))


# Lines that json.loads reads as the object `write_jsonl` writes, each written
# another way, by the fields text of its object.
JSONL_SHAPES = {
    "default separators": '{"sig_id": "1", "src_ip": "10.0.0.1"}',
    "integer": '{"sig_id":215,"src_ip":"10.0.0.1"}',
    "float": '{"sig_id":2.5e3,"src_ip":"10.0.0.1"}',
    "bool": '{"sig_id":true,"src_ip":"10.0.0.1"}',
    "null": '{"sig_id":null,"src_ip":"10.0.0.1"}',
    "nested": '{"sig_id":{"a":[1,"b",{"c":[]}]},"src_ip":"10.0.0.1"}',
    "whitespace in fields": '{ "sig_id" :\t"1" ,  "src_ip":"10.0.0.1" }',
    "crlf": '{"sig_id":"1","src_ip":"10.0.0.1"}',
}


@pytest.mark.parametrize("shape", sorted(JSONL_SHAPES))
def test_jsonl_shapes_json_reads_alike_take_the_block_path(tmp_path, scanner_calls, shape):
    """Default separators, CRLF line ends, values that are not strings and
    whitespace inside the fields read like the reference without the
    per-line scanner."""
    fields = JSONL_SHAPES[shape]
    sep, colon = (", ", ": ") if shape == "default separators" else (",", ":")
    end = "\r" if shape == "crlf" else ""
    path = tmp_path / "a.jsonl"
    path.write_text("".join(
        f'{{"source"{colon}"snort"{sep}"ts"{colon}{T0 + 1800 * i}{sep}"fields"{colon}{fields}}}'
        f'{end}\n' for i in range(4)
    ))
    for cutoff in (None, T0 + 3600):
        stats = assert_reads_like_reference("jsonl", path, cutoff)
        assert scanner_calls == []
        assert stats.parsed == (4 if cutoff is None else 2)


@pytest.mark.parametrize("odd", [
    '"fields":{"sig_id":"1"},"other":{"a":"b"}',
    '"fields":{"sig_id":%s}' % ("[" * 100_000 + "]" * 100_000),
], ids=["second key with an object value", "past the recursion limit"])
def test_jsonl_text_json_rejects_leaves_its_piece_to_the_scanner(tmp_path, scanner_calls, odd):
    """A line of the canonical shape whose fields text json.loads rejects
    sends its piece to the scanner, which reads the line as json.loads reads
    it."""
    lines = [RENDERED["jsonl"][0], RENDERED["jsonl"][1].replace('"fields":{', '"fields":{"x":"y",'),
             '{"source":"snort","ts":1614556900,%s}' % odd, RENDERED["jsonl"][2]]
    path = write_lines(tmp_path, "a.jsonl", [line.encode() for line in lines])
    stats = assert_reads_like_reference("jsonl", path, None)
    assert scanner_calls == lines
    assert stats.parsed == 3 + odd.startswith('"fields":{"sig_id":"1"}')


# --- Snort fast ------------------------------------------------------------------

SNORT_VALID = {
    "pad": "", "date": "03/01", "time": "00:00:01", "frac": "5", "sig": "[1:215:3]",
    "msg": "MSG", "addr": "10.0.0.1:4444 -> 10.0.0.2:80",
}
SNORT_ODD = {
    "pad": [" ", "\t"],
    "date": ["11/30", "02/28", "02/29", "02/30", "13/01", "00/10", "12/31", "01/01",
             "01/01/1969", "01/01/1970", "12/31/1969", "03/01/21", "03/01/0000", "03/01/021",
             "03/01/0021", "02/29/2024", "02/29/2023", "12/31/9999", "\u0660\u0663/01"],
    "time": ["00:00:00", "23:59:59", "24:00:00", "12:60:00", "12:00:60", "08:15:42"],
    "frac": ["0", "000000", "999999", "123456", "1234567"],
    "sig": ["[129:12:1]", "[1:2:3] [1:4:5]", "no triple", "[1:x:3]"],
    "msg": ["scan 10.0.0.9 -> 10.0.0.8 probe", "v1.2.3 ->", "a -> b", "9:9 ->", "",
            "\u0661.\u0662.\u0663.\u0664 x", "10.0.0.1:1 ->", "7 1.2.3.4"],
    "addr": ["10.0.0.1 -> 10.0.0.2", "10.0.0.1\t->\t10.0.0.2", "10.0.0.1->10.0.0.2:1",
             "999.0.0.1 -> 10.0.0.2", "10.0.0.1:4444", "10.0.0.1 -> 10.0.0.2 -> 10.0.0.3",
             "1.2.3.4:5 - > 6.7.8.9", "10.0.0.1\u2003-> 10.0.0.2", "10.0.0.1 \u2003 -> 10.0.0.2",
             "\u0661\u0660.0.0.1 -> 10.0.0.2", "10.0.0.1:123456 -> 10.0.0.2",
             " 10.0.0.1 :80 -> 10.0.0.2", "1.2.3.4:5\x1c->\x1f6.7.8.9"],
}


def snort_line(odd):
    p = {**SNORT_VALID, **dict(odd)}
    return (f"{p['pad']}{p['date']}-{p['time']}.{p['frac']} [**] {p['sig']} {p['msg']} [**] "
            f"[Priority: 2] {{TCP}} {p['addr']}")


def canonical_snort_line(date, time="00:00:01", frac=500000, sid="215", src="10.0.0.1",
                         dst="10.0.0.2", msg="synthetic alert"):
    """A line of the shape `perfbench/workloads.py` writes, which the block
    path reads."""
    return (f"{date}-{time}.{frac:06d} [**] [1:{sid}:1] {msg} {sid} [**] "
            f"[Classification: Misc activity] [Priority: 3] {{TCP}} {src}:40000 -> {dst}:80")


# Canonical lines around T0 and each cutoff, over the new year, on dates
# that do not exist, and with an address that is no dotted quad.
CANONICAL_SNORT = st.builds(
    canonical_snort_line,
    date=st.sampled_from(["03/01", "03/01", "02/28", "12/31", "01/01", "02/29", "13/01"]),
    time=st.sampled_from(["00:00:00", "00:00:01", "01:00:00", "23:59:59"]),
    frac=st.sampled_from([0, 1, 499999, 500000, 999999]),
    sid=st.sampled_from(["215", "9"]),
    src=st.sampled_from(["10.0.0.1", "10.0.0.3", "999.0.0.1"]),
    # Non-ASCII moves the byte offsets of the lines after it.
    msg=st.sampled_from(["synthetic alert", "s\u00ffnth\u00e9tic\u2028\x85alert",
                         "{UDP} 1.2.3.4:5"]),
)
# Lines the block path must leave to the scanner, most of them a canonical
# line with one change, and blank lines, one of them a lone \x1c. A "\r"
# ends a line as "\n" does.
ODD_SNORT = (odd_parts(SNORT_ODD).map(snort_line)
             | st.sampled_from(["garbage", "", " ", "\x1c", "\t\x1c "])
             | CANONICAL_SNORT.map(lambda l: l.replace("synthetic", "a -> b"))
             | CANONICAL_SNORT.map(lambda l: l.replace("synthetic", "scan 10.0.0.9 -> 10.0.0.8"))
             | CANONICAL_SNORT.map(lambda l: l.replace("-", "/2021-", 1))
             | CANONICAL_SNORT.map(lambda l: " " + l)
             | CANONICAL_SNORT.map(lambda l: l + " ")
             | CANONICAL_SNORT.map(lambda l: l + "\r")  # "\r\n" reads as "\n"
             | CANONICAL_SNORT.map(lambda l: l.replace(" [**] [Class", "\r[**] [Class")))


@settings(deadline=None, max_examples=200)
@given(
    lines=st.lists(CANONICAL_SNORT | ODD_SNORT, max_size=40),
    year=st.sampled_from([2021, 2020, 2300, 9999, 1969]),
    cutoff=CUTOFFS,
    buffer=BUFFERS,
    final_newline=st.booleans(),
)
def test_snort_block_path_matches_datetime_scan(lines, year, cutoff, buffer, final_newline):
    """Canonical lines and odd ones in one file and one piece: the fast path
    and the scanner meet, and share the running year."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_lines(tmp, "alert", [l.encode() for l in lines], final_newline)
        stats = assert_reads_like_reference("snort", path, cutoff, year, buffer)
        # Lines end at "\n" after "\r" is read as one, not where splitlines ends them.
        text = path.read_text(encoding="utf-8")
        assert stats.lines == sum(1 for l in text.split("\n") if l.strip())


@settings(deadline=None, max_examples=200)
@given(
    lines=st.lists(odd_parts(SNORT_ODD).map(snort_line) | st.just("garbage"), max_size=30),
    year=st.sampled_from([2021, 2016, 1969, 0, 10000]),
    cutoff=CUTOFFS,
    buffer=BUFFERS,
)
def test_snort_reader_matches_datetime_scan(lines, year, cutoff, buffer):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_lines(tmp, "alert", [l.encode() for l in lines])
        assert_reads_like_reference("snort", path, cutoff, year, buffer)


@settings(deadline=None, max_examples=300)
@given(
    dates=st.lists(st.sampled_from(["01/01", "02/29", "03/15", "04/30", "05/31", "06/30",
                                    "07/04", "08/31", "09/30", "10/01", "11/30", "12/31",
                                    "13/01", "00/10"]), max_size=40),
    year=st.sampled_from([2019, 2020, 9999]),
    cutoff=CUTOFFS,
    buffer=BUFFERS,
)
def test_snort_yearless_dates_take_the_reference_years(dates, year, cutoff, buffer):
    """Valid lines whose dates wander over the calendar, so the running
    year and its latest month move in every way the day cache must follow:
    as lines the per-line scanner reads, and as canonical lines the block
    path reads."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, line in (("scanned", lambda d: snort_line([("date", d)])),
                           ("canonical", canonical_snort_line)):
            path = write_lines(tmp, name, [line(d).encode() for d in dates])
            assert_reads_like_reference("snort", path, cutoff, year, buffer)


def test_snort_epoch_arithmetic_matches_datetime(tmp_path):
    """One line every seven hours over two years, with every fraction width."""
    stamps, lines = [], []
    for hour in range(0, 2 * 366 * 24, 7):
        moment = datetime.fromtimestamp(1577836800 + hour * 3600 + hour % 60, tz=timezone.utc)
        frac = str(hour * 7919 % 1_000_000)[: 1 + hour % 6]
        lines.append(f"{moment:%m/%d/%Y-%H:%M:%S}.{frac} [**] [1:2:3] m [**] 1.2.3.4 -> 5.6.7.8")
        stamps.append(moment.replace(microsecond=int(frac.ljust(6, "0"))).timestamp())
    path = write_lines(tmp_path, "alert", [l.encode() for l in lines])
    alerts = read_snort_file(path, YEAR, ParseStats())
    assert list(alerts.times) == stamps


def test_snort_epoch_past_2255_is_exact(tmp_path):
    """Past 2**53 microseconds int64 -> float64 rounds once before the
    division rounds again; at this time of 2300-06-06 that double rounding
    is one ulp off the correctly rounded quotient. The yearless line takes
    the block path, the line with its year the scanner."""
    time, frac = "12:34:56", 345679
    total = (int(datetime(2300, 6, 6, 12, 34, 56, tzinfo=timezone.utc).timestamp()) * 10**6
             + frac)
    assert total >= 2**53 and float(total) / 1e6 != total / 10**6
    path = write_lines(tmp_path, "alert", [
        canonical_snort_line("06/06", time, frac).encode(),
        canonical_snort_line("06/06/2300", time, frac).encode(),
    ])
    stats = assert_reads_like_reference("snort", path, None, 2300)
    alerts = read_snort_file(path, 2300, ParseStats())
    assert list(alerts.times) == [total / 10**6] * 2
    assert (stats.parsed, stats.skipped) == (2, 0)


def test_snort_year_out_of_range_skips_every_yearless_line(tmp_path):
    """Only a 2-digit year is read as 20xx; a longer one before 1970 is a
    skip, whatever year the caller supplies."""
    path = write_lines(tmp_path, "alert", [
        b"03/01-00:00:01.0 [**] [1:2:3] m [**] 10.0.0.1 -> 10.0.0.2",
        b"03/01/21-00:00:01.0 [**] [1:2:3] m [**] 10.0.0.1 -> 10.0.0.2",
        b"03/01/0000-00:00:01.0 [**] [1:2:3] m [**] 10.0.0.1 -> 10.0.0.2",
        b"03/01/0021-00:00:01.0 [**] [1:2:3] m [**] 10.0.0.1 -> 10.0.0.2",
        b"03/01/021-00:00:01.0 [**] [1:2:3] m [**] 10.0.0.1 -> 10.0.0.2",
    ])
    for year, parsed in ((0, 1), (2016, 2), (10000, 1), (10 ** 20, 1)):
        stats = ParseStats()
        read_snort_file(path, year, stats)
        assert (stats.parsed, stats.skipped) == (parsed, 5 - parsed)


@pytest.mark.parametrize("cutoff", [None, datetime(2021, 1, 1, tzinfo=timezone.utc).timestamp()])
def test_yearless_snort_dates_follow_the_year_over_new_year(tmp_path, cutoff):
    """With year 2020: Dec 30, Dec 31, Jan 1 of 2021, a late Dec 31 of 2020,
    then Jan 2 of 2021. A cutoff at the new year changes no timestamp."""
    dates = ["12/30", "12/31", "01/01", "12/31", "01/02"]
    path = write_lines(tmp_path, "alert", [
        f"{d}-23:00:00.0 [**] [1:2:3] m [**] 10.0.0.1 -> 10.0.0.2".encode() for d in dates
    ])
    stats = ParseStats()
    alerts = read_snort_file(path, 2020, stats, cutoff=cutoff)
    days = [(2020, 12, 30), (2020, 12, 31), (2021, 1, 1), (2020, 12, 31), (2021, 1, 2)]
    want = [datetime(*d, 23, tzinfo=timezone.utc).timestamp() for d in days]
    if cutoff is not None:
        want = [ts for ts in want if ts >= cutoff]
    assert list(alerts.times) == want
    assert (stats.parsed, stats.training_span) == (len(want), 5 - len(want))


# --- OSSEC --------------------------------------------------------------------------

OSSEC_HEADS = st.sampled_from([
    "** Alert 1614556800.1: - syslog,", "** Alert 1614560400.22: - syslog,",
    "** Alert 999999999999.1: - x,", "** Alert 0.1: - x,", "** Alert 1614556800: - x,",
    "** Alert x",
])
OSSEC_BODIES = st.lists(st.sampled_from([
    "2021 Mar 01 00:00:00 host1->/var/log/auth.log",
    "2021 Mar 01 00:00:00 (web1) 10.0.0.5->/var/log/secure",
    "Rule: 5503 (level 5) -> 'User login failed.'",
    "Rule: 5715 (level 3) -> 'ok'",
    "Src IP: 10.0.0.9", "Src IP: (none)", "User: root",
    "  ** Alert 1614556801.5:",  # indented, so not a block start
]), max_size=5)


def canonical_ossec_block(epoch="1614556800", host="host-10-0-0-5", ip="10.0.0.5",
                          logfile="/var/log/auth.log", rule="5503",
                          free="synthetic log line for rule 5503"):
    """A block of the shape `perfbench/workloads.py` writes, which the block
    path reads, as its lines with the closing empty one."""
    return [f"** Alert {epoch}.{len(logfile)}: - syslog,",
            f"2021 Mar 01 00:00:00 ({host}) {ip}->{logfile}",
            f"Rule: {rule} (level 5) -> 'synthetic rule {rule}'",
            f"Src IP: {ip}", free, ""]


CANONICAL_OSSEC = st.builds(
    canonical_ossec_block,
    epoch=st.sampled_from(["1614556800", "1614556801", "1614560400", "0", "999999999999",
                           "999999999999999"]),
    host=st.sampled_from(["host-10-0-0-5", "web1"]),
    ip=st.sampled_from(["10.0.0.5", "10.0.0.6"]),
    rule=st.sampled_from(["5503", "5715"]),
    free=st.sampled_from(["synthetic log line", "Src IP: 10.9.9.9", " x"]),
)
# Blocks the block path must leave to `_scan_ossec`, and lines between blocks.
ODD_OSSEC = (
    st.tuples(OSSEC_HEADS, OSSEC_BODIES).map(lambda b: [b[0], *b[1], ""])
    | CANONICAL_OSSEC.map(lambda b: b[:4] + b[5:])  # no free line
    | CANONICAL_OSSEC.map(lambda b: [b[0], b[2], b[1], *b[3:]])  # Rule before location
    | CANONICAL_OSSEC.map(lambda b: [b[0].replace(".", "\u0661.", 1), *b[1:]])
    | CANONICAL_OSSEC.map(lambda b: b[:3] + ["Src IP: (none)"] + b[4:])
    | CANONICAL_OSSEC.map(lambda b: b[:1] + [b[1] + " "] + b[2:])
    | CANONICAL_OSSEC.map(lambda b: [line + "\r" for line in b])
    | st.sampled_from([["stray line"], [""], [" "], ["\x1c"], ["\r"]])
)


@settings(deadline=None, max_examples=200)
@given(blocks=st.lists(CANONICAL_OSSEC | ODD_OSSEC, max_size=14), cutoff=CUTOFFS,
       buffer=BUFFERS)
def test_ossec_block_path_matches_the_block_scan(blocks, cutoff, buffer):
    """Canonical blocks and odd ones in one file and one piece."""
    lines = [line for block in blocks for line in block]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_lines(tmp, "alerts.log", [l.encode() for l in lines])
        assert_reads_like_reference("ossec", path, cutoff, buffer=buffer)


@settings(deadline=None, max_examples=150)
@given(blocks=st.lists(st.tuples(OSSEC_HEADS, OSSEC_BODIES), max_size=12), cutoff=CUTOFFS,
       buffer=BUFFERS)
def test_ossec_reader_with_cutoff_keeps_the_later_alerts(blocks, cutoff, buffer):
    lines = [line for head, body in blocks for line in (head, *body, "")]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_lines(tmp, "alerts.log", [l.encode() for l in lines])
        assert_reads_like_reference("ossec", path, cutoff, buffer=buffer)


# --- the block path runs -------------------------------------------------------------

@pytest.fixture
def scanner_calls(monkeypatch):
    """The lines and blocks that the per-line Snort scanner, `_scan_ossec`
    and `_scan_jsonl` are called on, in order."""
    calls = []
    snort_scanner, scan_ossec, scan_jsonl = (
        ingest._snort_scanner, ingest._scan_ossec, ingest._scan_jsonl)

    def counted_snort_scanner(*args, **kwargs):
        scan = snort_scanner(*args, **kwargs)

        def counted(line):
            calls.append(line)
            return scan(line)

        return counted

    def counted_scan_ossec(lines, cutoff=None):
        calls.append(lines)
        return scan_ossec(lines, cutoff)

    def counted_scan_jsonl(line):
        calls.append(line)
        return scan_jsonl(line)

    monkeypatch.setattr(ingest, "_snort_scanner", counted_snort_scanner)
    monkeypatch.setattr(ingest, "_scan_ossec", counted_scan_ossec)
    monkeypatch.setattr(ingest, "_scan_jsonl", counted_scan_jsonl)
    return calls


RENDERED = {
    "snort": [canonical_snort_line(f"03/0{day}", f"{hour:02d}:00:00", 7919 * hour, str(hour % 5))
              for day in (1, 2) for hour in range(24)],
    "ossec": [canonical_ossec_block(str(int(T0) + 1800 * i), rule=str(5500 + i % 3))
              for i in range(48)],
    "jsonl": [json.dumps({"source": "snort", "ts": T0 + 1800 * i + i / 7,
                          "fields": {"sig_id": str(i % 5), "src_ip": "10.0.0.1"}},
                         separators=(",", ":"))
              for i in range(48)],
}
# Odd lines and blocks, each longer than the 40-character pieces below, so
# that there every piece is one line or block.
ODD = {
    "snort": ["03/02-00:00:00.5 [**] [1:2:3] m [**] 10.0.0.1 -> 10.0.0.2",
              "garbage: no Snort fast alert line at all",
              RENDERED["snort"][3].replace("synthetic", "a -> b")],
    "ossec": [["** Alert 1614556800.1: - x,", "2021 Mar 01 00:00:00 h->/l", "Rule: 1 (level 1)",
               ""],
              ["a stray line between two blocks of the log", ""],
              RENDERED["ossec"][5][:3] + ["Src IP: (none)", "x", ""]],
    "jsonl": ['{"ts":1614556800,"source":"snort","fields":{"sig_id":"1"}}',
              "garbage: no JSON object on this line at all",
              RENDERED["jsonl"][3].replace('"fields"', '"ts":1614556801,"fields"')],
}
FIRST_ODD = 20


def scanned(fmt, items):
    """What the per-line scanners are called with on these lines or blocks:
    a block without its empty line, a stray line not at all."""
    if fmt != "ossec":
        return list(items)
    return [block[:-1] for block in items if block[0].startswith("** Alert")]


@pytest.mark.parametrize("buffer", [ingest._PIECE, 40])
@pytest.mark.parametrize("fmt", ["snort", "ossec", "jsonl"])
def test_block_path_leaves_the_rest_of_a_mixed_file_to_the_scanners(
    tmp_path, scanner_calls, fmt, buffer
):
    """A file of the rendered shape never reaches the per-line scanners. In a
    mixed file, the piece that holds the first odd line or block and every
    piece after it go through them, each line or block once, in file order;
    the pieces before take the block path."""
    mixed = list(RENDERED[fmt])
    for at, odd in zip((FIRST_ODD, FIRST_ODD + 1, FIRST_ODD + 10), ODD[fmt]):
        mixed.insert(at, odd)
    first = 0 if buffer == ingest._PIECE else FIRST_ODD  # the file is one piece, or each item is
    for name, items, calls in (("rendered", RENDERED[fmt], []),
                               ("mixed", mixed, scanned(fmt, mixed[first:]))):
        lines = items if fmt != "ossec" else [line for block in items for line in block]
        path = write_lines(tmp_path, name, [l.encode() for l in lines])
        for cutoff in (None, T0 + 36000):
            scanner_calls.clear()
            assert_reads_like_reference(fmt, path, cutoff, buffer=buffer)
            assert scanner_calls == calls


# Per format: a line before the cutoff, one before it whose fields are
# malformed, one whose timestamp is invalid, and one at the cutoff.
SPAN_LINES = {
    "snort": [
        "03/01-00:00:00.0 [**] [1:2:3] m [**] 10.0.0.1 -> 10.0.0.2",
        "03/01-00:00:00.5 [**] [1:2:3] no arrow [**] 10.0.0.1",
        "01/01/1969-00:00:00.0 [**] [1:2:3] m [**] 10.0.0.1 -> 10.0.0.2",
        "03/01-00:00:01.0 [**] [1:2:3] m [**] 10.0.0.1 -> 10.0.0.2",
    ],
    "jsonl": [
        '{"source":"snort","ts":1614556800,"fields":{"sig_id":"1"}}',
        '{"source":"snort","ts":1614556800.5,"fields":{}}',
        '{"source":"snort","ts":0,"fields":{"sig_id":"1"}}',
        '{"source":"snort","ts":1614556801,"fields":{"sig_id":"1"}}',
    ],
    "ossec": [
        "** Alert 1614556800.1: - x,\n2021 Mar 01 00:00:00 h->/l\nRule: 1 (level 1)\n",
        "** Alert 1614556800.2: - x,\n2021 Mar 01 00:00:00 h->/l\n",
        "** Alert 0.1: - x,\n2021 Mar 01 00:00:00 h->/l\nRule: 1 (level 1)\n",
        "** Alert 1614556801.1: - x,\n2021 Mar 01 00:00:00 h->/l\nRule: 1 (level 1)\n",
    ],
}


@pytest.mark.parametrize("fmt", sorted(SPAN_LINES))
def test_training_span_counts_each_valid_timestamp_before_the_cutoff(tmp_path, fmt):
    """A line with a valid timestamp before the cutoff is a training-span
    line even when the rest of it is malformed; an invalid timestamp stays a
    skip."""
    path = write_lines(tmp_path, "input", [l.encode() for l in SPAN_LINES[fmt]])
    counts = {}
    for cutoff in (None, T0 + 1):
        stats = assert_reads_like_reference(fmt, path, cutoff)
        counts[cutoff] = (stats.parsed, stats.skipped, stats.training_span)
    assert counts == {None: (2, 2, 0), T0 + 1: (1, 1, 2)}


# --- damaged files ---------------------------------------------------------------------

VALID = {
    "snort": [
        b"03/01-00:00:01.000000 [**] [1:215:3] m [**] {TCP} 10.0.0.1:4444 -> 10.0.0.2:80",
        b"03/01/2021-01:00:00.5 [**] [1:9:1] n 1.2 [**] {ICMP} 10.0.0.3 -> 10.0.0.4",
        b"03/01-02:00:00.25 [**] [1:215:3] m [**] {TCP} 10.0.0.1:1 -> 10.0.0.2:2",
    ],
    "jsonl": [
        b'{"source":"snort","ts":1614556801.0,"fields":{"sig_id":"1","src_ip":"10.0.0.1"}}',
        b'{"source":"ossec","ts":1614560400,"fields":{"rule_id":"5503","logfile":"/x"}}',
        b'{"source":"snort","ts":1614563999.75,"fields":{"sig_id":"1","src_ip":"10.0.0.1"}}',
    ],
    "ossec": [
        b"** Alert 1614556801.1: - syslog,\n2021 Mar 01 00:00:01 host1->/var/log/auth.log\n"
        b"Rule: 5503 (level 5) -> 'x'\nSrc IP: 10.0.0.9\n",
        b"** Alert 1614563999.7: - syslog,\n2021 Mar 01 01:59:59 (web1) 10.0.0.5->/var/log/secure\n"
        b"Rule: 5715 (level 3) -> 'y'\n",
        "\n".join(canonical_ossec_block("1614556801")).encode(),
    ],
}
SNORT_DAMAGE = [
    (b"03/01-", b"13/01-"), (b"03/01-", b"02/30-"), (b"-00:", b"-24:"), (b"-01:00", b"-01:60"),
    (b"03/01/2021", b"03/01/0000"), (b"03/01-", b"03/01/1969-"), (b"->", b""),
    (b"03/01-", b"01/01/1970-"),
]


def damage(line, action, position, byte):
    """A line with one mutation: truncated, a byte flipped, a 0xff inserted,
    or a Snort date, time or arrow changed."""
    at = position % (len(line) + 1)
    if action == "truncate":
        return line[:at]
    if action == "flip" and line:
        at %= len(line)
        return line[:at] + bytes([line[at] ^ byte]) + line[at + 1:]
    if action == "0xff":
        return line[:at] + b"\xff" + line[at:]
    old, new = SNORT_DAMAGE[position % len(SNORT_DAMAGE)]
    return line.replace(old, new, 1)


@settings(deadline=None, max_examples=200)
@given(
    fmt=st.sampled_from(["snort", "jsonl", "ossec"]),
    picks=st.lists(
        st.tuples(
            st.integers(0, 2),
            st.sampled_from(["keep", "keep", "truncate", "flip", "0xff", "field"]),
            st.integers(0, 400),
            st.integers(1, 255),
        ),
        max_size=25,
    ),
    cutoff=CUTOFFS,
    buffer=BUFFERS,
)
def test_readers_count_every_line_of_damaged_files(fmt, picks, cutoff, buffer):
    lines = []
    for index, action, position, byte in picks:
        line = VALID[fmt][index % len(VALID[fmt])]
        lines.append(line if action == "keep" else damage(line, action, position, byte))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_lines(tmp, "input", lines)
        text = path.read_text(encoding="utf-8", errors="replace")
        for cut in (None, cutoff):
            stats = assert_reads_like_reference(fmt, path, cut, buffer=buffer)
            if fmt != "ossec":
                assert stats.lines == sum(1 for l in text.split("\n") if l.strip())
