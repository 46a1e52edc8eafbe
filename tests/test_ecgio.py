"""Record and manifest I/O: round trips, format gates, path resolution."""

from __future__ import annotations

import numpy as np
import pytest

from ecgauth.ecgio import (EcgRecord, ManifestEntry, read_manifest,
                           read_record, write_manifest, write_record)
from ecgauth.errors import ContractError, FormatError, ParseError


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
