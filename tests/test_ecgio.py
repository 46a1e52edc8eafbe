"""Record and manifest I/O: round trips, format gates, path resolution."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgauth import ecgio
from ecgauth.ecgio import (EcgRecord, ManifestEntry, read_manifest,
                           read_record, write_manifest, write_record)
from ecgauth.errors import ContractError, EcgAuthError, FormatError, ParseError


def _record(n=1024, fs=512, subject="s", session="a"):
    rng = np.random.default_rng(3)
    samples = rng.integers(-500, 500, n).astype(np.int64)
    return EcgRecord(subject_id=subject, session_id=session, fs=fs, samples=samples)


def test_read_record_parses_header_and_samples(tmp_path):
    path = tmp_path / "r.csv"
    lines = ["fs_hz,512", "subject,alice", "session,day1", "n,adc"]
    lines += [f"{i},{v}" for i, v in enumerate(range(-5, 1019))]
    path.write_text("\n".join(lines) + "\n")
    rec = read_record(path)
    assert rec.fs == 512
    assert rec.subject_id == "alice"
    assert rec.session_id == "day1"
    assert len(rec.samples) == 1024
    assert rec.samples[0] == -5 and rec.samples[-1] == 1018
    assert rec.duration_s == 2.0


def test_write_read_round_trip_fields(tmp_path):
    rec = _record()
    path = tmp_path / "r.csv"
    write_record(rec, path)
    back = read_record(path)
    assert back.subject_id == rec.subject_id
    assert back.session_id == rec.session_id
    assert back.fs == rec.fs
    assert np.array_equal(back.samples, rec.samples)


def test_round_trip_is_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_record(_record(), p1)
    write_record(read_record(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_three_sample_record_has_three_data_rows(tmp_path):
    rec = EcgRecord("s", "a", 512, np.array([1, -2, 3], dtype=np.int64))
    path = tmp_path / "r.csv"
    write_record(rec, path)
    rows = path.read_text().splitlines()
    assert rows[:4] == ["fs_hz,512", "subject,s", "session,a", "n,adc"]
    assert rows[4:] == ["0,1", "1,-2", "2,3"]


@pytest.mark.parametrize("mutate, err", [
    (lambda t: t.replace("fs_hz,", "hz,"), FormatError),
    (lambda t: t.replace("fs_hz,512", "fs_hz,abc"), FormatError),
    (lambda t: t.replace("fs_hz,512", "fs_hz,0"), FormatError),
    (lambda t: t.replace("n,adc", "n;adc"), FormatError),
    (lambda t: "fs_hz,512\nsubject,s\n", FormatError),  # truncated header
    (lambda t: t.replace("2,3", "2,x"), ParseError),
    (lambda t: t.replace("2,3", "5,3"), ParseError),  # index gap
    (lambda t: t.replace("2,3", ""), ParseError),  # blank sample row
    (lambda t: t.encode().replace(b"subject,s", b"subject,\xff"), FormatError),
    (lambda t: t.encode().replace(b"2,3", b"2,\xff3"), FormatError),  # not UTF-8
    (lambda t: t.replace("2,3", "2,99999999999999999999999").encode(), ParseError),
    (lambda t: t.replace("2,3", "2,-9223372036854775809").encode(), ParseError),
    # integers not written as str(int) writes them
    (lambda t: t.replace("fs_hz,512", "fs_hz,+512"), FormatError),
    (lambda t: t.replace("fs_hz,512", "fs_hz,0512"), FormatError),
    (lambda t: t.replace("fs_hz,512", "fs_hz,5_12"), FormatError),
    (lambda t: t.replace("\n", "\r\n"), FormatError),
    (lambda t: t.replace("0,1\n", "0,1_000\n"), ParseError),
    (lambda t: t.replace("1,-2", "+1, 7"), ParseError),
    (lambda t: t.replace("1,-2", "01,-2"), ParseError),
    (lambda t: t.replace("2,3", "2,007"), ParseError),
    (lambda t: t.replace("2,3", "2,-0"), ParseError),
    (lambda t: t.replace("2,3", "2,3 "), ParseError),
    (lambda t: t.replace("2,3", "2,\u0663"), ParseError),  # ARABIC-INDIC DIGIT THREE
    (lambda t: t.replace("2,3\n", "2,3\r\n"), ParseError),
])
def test_malformed_files_are_rejected(tmp_path, mutate, err):
    good = "fs_hz,512\nsubject,s\nsession,a\nn,adc\n0,1\n1,-2\n2,3\n"
    path = tmp_path / "bad.csv"
    bad = mutate(good)
    path.write_bytes(bad if isinstance(bad, bytes) else bad.encode())
    with pytest.raises(err):
        read_record(path)


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    head = "fs_hz,512\nsubject,s\nsession,a\nn,adc\n0,1\n"
    # "1,oops" is not an integer; the others are, but not as str(int) writes them
    for row in ("1,oops", "+1, 7", "1,1_000", "1,007", "1,-0"):
        path.write_text(head + row + "\n")
        with pytest.raises(ParseError, match="line 6"):
            read_record(path)


def test_missing_final_newline_is_accepted(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("fs_hz,512\nsubject,s\nsession,a\nn,adc\n0,1\n1,-2")
    assert read_record(path).samples.tolist() == [1, -2]


def test_samples_span_exactly_the_int64_range(tmp_path):
    path = tmp_path / "r.csv"
    head = "fs_hz,512\nsubject,s\nsession,a\nn,adc\n"
    path.write_text(head + "0,-9223372036854775808\n1,9223372036854775807\n")
    assert read_record(path).samples.tolist() == [-2**63, 2**63 - 1]
    path.write_text(head + "0,1\n1,9223372036854775808\n")
    with pytest.raises(ParseError, match="line 6: .*int64"):
        read_record(path)


def test_validate_rejects_degenerate_records(tmp_path):
    with pytest.raises(ContractError):
        EcgRecord("s", "a", 512, np.array([], dtype=np.int64)).validate()
    with pytest.raises(ContractError):
        EcgRecord("s", "a", 0, np.array([1], dtype=np.int64)).validate()
    with pytest.raises(ContractError):
        EcgRecord("s\nx", "a", 512, np.array([1], dtype=np.int64)).validate()
    with pytest.raises(ContractError):
        write_record(EcgRecord("s", "a", 512, np.array([], dtype=np.int64)),
                     tmp_path / "r.csv")


def test_write_record_requires_integer_samples(tmp_path):
    rec = EcgRecord("s", "a", 512, np.array([1.5, 2.5]))
    with pytest.raises(ContractError):
        write_record(rec, tmp_path / "r.csv")


def test_write_record_refuses_what_read_record_would_refuse(tmp_path):
    # a bool fs would be written as "True", and uint64 samples past int64
    # would be written whole; read_record refuses both, so neither is written
    path = tmp_path / "r.csv"
    with pytest.raises(ContractError, match="fs"):
        write_record(EcgRecord("s", "a", True, np.array([1], dtype=np.int64)), path)
    big = np.array([1, 2**63], dtype=np.uint64)
    with pytest.raises(ContractError, match="int64"):
        write_record(EcgRecord("s", "a", 512, big), path)
    assert not path.exists()
    # the largest uint64 samples that fit round-trip
    fits = np.array([0, 2**63 - 1], dtype=np.uint64)
    write_record(EcgRecord("s", "a", 512, fits), path)
    assert read_record(path).samples.tolist() == fits.tolist()


def _write_records(tmp_path, names):
    for name in names:
        write_record(_record(n=8), tmp_path / name)


def test_manifest_round_trip_resolves_relative_paths(tmp_path):
    _write_records(tmp_path, ["a1.csv", "a2.csv", "b1.csv"])
    rows = [
        ManifestEntry("a", "s1", "a1.csv", "enroll"),
        ManifestEntry("a", "s2", "a2.csv", "test"),
        ManifestEntry("b", "s1", "b1.csv", "population"),
    ]
    path = tmp_path / "manifest.csv"
    write_manifest(rows, path)
    back = read_manifest(path)
    assert [(e.subject_id, e.session_id, e.role) for e in back] == [
        ("a", "s1", "enroll"), ("a", "s2", "test"), ("b", "s1", "population")]
    # stored paths were relative; loaded paths are absolute and readable
    for e in back:
        assert e.path.startswith(str(tmp_path))
        read_record(e.path)


def test_write_manifest_rejects_unknown_role(tmp_path):
    with pytest.raises(ContractError):
        write_manifest([ManifestEntry("a", "s1", "a1.csv", "training")], tmp_path / "m.csv")


def test_read_manifest_rejections(tmp_path):
    _write_records(tmp_path, ["a1.csv", "a2.csv"])
    cases = {
        "empty": ("", FormatError),
        "header": ("subject,session,role,path\n", FormatError),
        "role": ("subject,session,path,role\na,s1,a1.csv,training\n", ParseError),
        "fields": ("subject,session,path,role\na,s1,a1.csv\n", ParseError),
        "dup": ("subject,session,path,role\n"
                "a,s1,a1.csv,enroll\na,s1,a2.csv,test\n", ParseError),
        "missing": ("subject,session,path,role\na,s1,gone.csv,enroll\n", ParseError),
        "not-utf8": (b"subject,session,path,role\na,s1,a1.csv,enroll\xff\n", FormatError),
    }
    for name, (text, err) in cases.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(err):
            read_manifest(path)


# -- the block parser against the row parser ------------------------------------

_HEAD = "fs_hz,512\nsubject,s\nsession,a\nn,adc\n"


@pytest.mark.parametrize("text", [_HEAD, _HEAD.rstrip("\n")])
def test_header_only_record_is_refused_at_line_5(tmp_path, text):
    # write_record refuses a record without samples, so read_record must too
    path = tmp_path / "r.csv"
    path.write_text(text)
    for read in (read_record, ecgio._read_rows):
        with pytest.raises(ParseError, match="^line 5: "):
            read(path)


def _outcome(read, path):
    """(fields of the record, None) or (None, (exception class, text))."""
    try:
        rec = read(path)
    except EcgAuthError as exc:
        return None, (type(exc), str(exc))
    return (rec.fs, rec.subject_id, rec.session_id, rec.samples.dtype.str,
            rec.samples.tolist()), None


_TOKENS = ["+1", "-0", "007", "00", "1_000", "-", "", " 1", "1 ", "1.0", "--1", "1-1",
           "0x1", "\u0663", "999999999999999999", "-999999999999999999",
           "1000000000000000000", "-1000000000000000000",  # 19 digits
           "12345678901234567890", "-12345678901234567890",  # 20 digits
           str(2**63 - 1), str(-2**63), str(2**63), str(-2**63 - 1)]
_LINES = ["", "x", ",", "1,2,3", "-1,4", "0,1", "\r", "\x00", "\u00e4"]
_BYTES = [b"\xff", b"\xc3", b"\x00", b"\r", b"\n", b",", b"-", b"0", "\u00e4".encode()]
_SUBJECTS = ["s", "\u00e4", "x y", "a\rb", "a,b", "\ufeffs"]


def _rows(values) -> list[bytes]:
    return [f"{k},{v}\n".encode() for k, v in enumerate(values)]


def _head(subject: str = "s") -> bytes:
    return f"fs_hz,512\nsubject,{subject}\nsession,a\nn,adc\n".encode()


# small values make short rows: these fill about 3 parse blocks
_LONG = [(37 * k) % 2001 - 1000 for k in range(3 * ecgio._BLOCK // 9)]


def _row_at(head: bytes, rows: list[bytes], offset: int) -> int:
    """Index of the row holding byte offset of the file (the last row if
    the file is shorter)."""
    ends = np.cumsum([len(head)] + [len(r) for r in rows])
    return min(int(np.searchsorted(ends, offset, side="right")) - 1, len(rows) - 1)


def _mutate(rows: list[bytes], k: int, kind: str, token) -> list[bytes]:
    rows = list(rows)
    if kind == "value":
        rows[k] = f"{k},{token}\n".encode()
    elif kind == "index":
        rows[k] = token.format(k=k).encode() + rows[k][rows[k].index(b","):]
    elif kind == "line":
        rows.insert(k, token.encode() + b"\n")
    elif kind == "byte":
        rows[k] = rows[k][:1] + token + rows[k][1:]
    elif kind == "crlf":
        rows[k] = rows[k][:-1] + b"\r\n"
    return rows


_CASES = ([("value", t) for t in _TOKENS] + [("line", t) for t in _LINES]
          + [("byte", t) for t in _BYTES] + [("crlf", None)]
          + [("index", t) for t in ["0{k}", "+{k}", "{k}1", " {k}", "-{k}", ""]])


def _same_outcome(path) -> bool:
    return _outcome(read_record, path) == _outcome(ecgio._read_rows, path)


@pytest.mark.parametrize("where", ["first", "last", "straddling"])
@pytest.mark.parametrize("kind, token", _CASES)
def test_block_parser_agrees_on_every_listed_fault(tmp_path, kind, token, where):
    # the same samples, or the same exception class with the same text; a
    # straddling row crosses the end of the first parse block
    head = _head()
    rows = _rows([5, -7] + _LONG if where == "straddling" else [5, -7, 12])
    k = {"first": 0, "last": len(rows) - 1,
         "straddling": _row_at(head, rows, len(head) + ecgio._BLOCK)}[where]
    path = tmp_path / "r.csv"
    path.write_bytes(head + b"".join(_mutate(rows, k, kind, token)))
    assert _same_outcome(path)


@pytest.mark.parametrize("subject", _SUBJECTS)
@pytest.mark.parametrize("tail", ["", "no-final-newline", "crlf-all"])
def test_block_parser_agrees_on_headers_and_line_ends(tmp_path, subject, tail):
    data = _head(subject) + b"".join(_rows([5, -7, 12]))
    if tail == "no-final-newline":
        data = data[:-1]
    elif tail == "crlf-all":
        data = data.replace(b"\n", b"\r\n")
    path = tmp_path / "r.csv"
    path.write_bytes(data)
    assert _same_outcome(path)


@st.composite
def _mutated_records(draw):
    """A canonical record, sometimes long enough to fill several parse
    blocks, as bytes with one random fault, often at a block edge."""
    values = draw(st.lists(st.integers(-2000, 2000) | st.integers(-2**63, 2**63 - 1),
                           min_size=1, max_size=8))
    if draw(st.booleans()):
        values += _LONG
    head = _head(draw(st.sampled_from(_SUBJECTS)))
    rows = _rows(values)
    edge = len(head) + ecgio._BLOCK * draw(st.integers(1, 2))
    k = draw(st.sampled_from([_row_at(head, rows, edge)]) | st.integers(0, len(rows) - 1))
    kind, token = draw(st.sampled_from(_CASES + [("none", None)] * 4))
    data = bytearray(head + b"".join(_mutate(rows, k, kind, token)))
    near = st.integers(0, len(data) - 1)
    if len(data) > edge:
        near |= st.integers(edge - 24, min(edge + 24, len(data) - 1))
    fault = draw(st.sampled_from(["none", "flip", "cut", "no-final-newline"]))
    if fault == "flip":
        data[draw(near)] = draw(st.integers(0, 255))
    elif fault == "cut":
        at = draw(near)
        del data[at:at + draw(st.integers(0, 40))]
    elif fault == "no-final-newline" and data.endswith(b"\n"):
        del data[-1]
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(data=_mutated_records())
def test_block_parser_reads_what_the_row_parser_reads(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("mutated") / "r.csv"
    path.write_bytes(data)
    assert _same_outcome(path)


def test_read_record_peak_memory_stays_near_its_samples(tmp_path):
    # a parse that splits the whole body at once needs several times the
    # samples' bytes; the block parser needs the samples and one block
    path = tmp_path / "r.csv"
    rng = np.random.default_rng(5)
    write_record(EcgRecord("s", "a", 512, rng.integers(-300, 1300, 600 * 512)), path)
    tracemalloc.start()
    try:
        samples = read_record(path).samples
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert samples.shape == (600 * 512,)
    assert peak <= 1.5 * samples.nbytes
