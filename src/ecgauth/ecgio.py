"""Reading and writing ECG record files and record manifests.

Record container is a line-oriented UTF-8 CSV:

    fs_hz,<int>
    subject,<id>
    session,<id>
    n,adc
    0,<int>
    1,<int>
    ...

Sample indices start at 0 and increase strictly by 1. ADC values are signed
integers; downstream math promotes to floating point at segmentation time.
Every integer must be written as str(int) writes it: no sign on a
nonnegative value, no leading zero, no "-0", no digit separator and no
surrounding space. So a record that loads writes back to the same bytes.

A manifest is a CSV with header ``subject,session,path,role``. Paths are
resolved relative to the manifest's own directory. The role says what a
record is used for:

- enroll: builds its subject's template and positive class, and is a
  negative training record for every other subject;
- population: a negative training record for every other subject only;
- test: its subject's genuine test data, and an attack on every other
  subject's model;
- intruder-pool: an attack on every other subject's model only. It is
  never trained on, never used as genuine data, and never read by enroll.

manifest_beats reads and detects a manifest's records, each once.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import ContractError, FormatError, ParseError
from .qrs import RecordBeats, record_beats

ROLES = ("enroll", "test", "intruder-pool", "population")
TRAIN_ROLES = ("enroll", "population")  # roles whose records train other subjects' models
MANIFEST_HEADER = ("subject", "session", "path", "role")
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1  # the range of a sample


@dataclass
class EcgRecord:
    """A sampled single-lead ECG with provenance metadata."""

    subject_id: str
    session_id: str
    fs: int
    samples: np.ndarray

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.fs

    def validate(self) -> None:
        if not isinstance(self.fs, int) or isinstance(self.fs, bool) or self.fs <= 0:
            raise ContractError(f"fs must be a positive integer, got {self.fs!r}")
        if len(self.samples) == 0:
            raise ContractError("record has no samples")
        for field_name, value in (("subject", self.subject_id), ("session", self.session_id)):
            if "\n" in value or "\r" in value:
                raise ContractError(f"{field_name} id contains a line break")


@contextmanager
def _utf8_text(path):
    """The file opened as UTF-8 text; FormatError on a byte that is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None


def _header_value(line: str, key: str, lineno: int) -> str:
    name, sep, value = line.rstrip("\n").partition(",")
    if not sep or name != key:
        raise FormatError(f"line {lineno}: expected '{key},<value>', got {line.rstrip()!r}")
    return value


def _read_header(lines: list[str]) -> tuple[int, str, str]:
    """fs, subject and session from the file's first 4 lines."""
    if any(line == "" for line in lines):
        raise FormatError("file truncated before the 4-line header ends")
    fs_text = _header_value(lines[0], "fs_hz", 1)
    try:
        fs = int(fs_text)
    except ValueError:
        raise FormatError(f"line 1: fs_hz value {fs_text!r} is not an integer") from None
    if fs <= 0:
        raise FormatError(f"line 1: fs_hz must be positive, got {fs}")
    if fs_text != str(fs):
        raise FormatError(f"line 1: fs_hz value {fs_text!r} is not written as {fs}")
    subject = _header_value(lines[1], "subject", 2)
    session = _header_value(lines[2], "session", 3)
    if lines[3].rstrip("\n") != "n,adc":
        raise FormatError(f"line 4: expected 'n,adc', got {lines[3].rstrip()!r}")
    return fs, subject, session


def _check_row(line: str, expected: int) -> None:
    """ParseError naming the row's fault, unless it is the canonical row
    of sample index expected that only lacks the file's final newline."""
    lineno = expected + 5
    text = line.rstrip("\n")
    if text == "":
        raise ParseError(f"line {lineno}: blank sample row")
    n_text, sep, adc_text = text.partition(",")
    if not sep:
        raise ParseError(f"line {lineno}: expected '<n>,<adc>', got {text!r}")
    try:
        n = int(n_text)
        adc = int(adc_text)
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer field in {text!r}") from None
    if not _INT64_MIN <= adc <= _INT64_MAX:
        raise ParseError(f"line {lineno}: ADC value {adc} outside the int64 range")
    if n != expected:
        raise ParseError(f"line {lineno}: sample index {n}, expected {expected}")
    if text != f"{n},{adc}":
        raise ParseError(f"line {lineno}: {text!r} is not written as '{n},{adc}'")


def _iter_rows(fh) -> Iterator[int]:
    # a row is accepted as is only when it equals the row write_record
    # writes for its value; anything else goes to _check_row
    for expected, line in enumerate(fh):
        try:
            adc = int(line.partition(",")[2])
        except ValueError:
            adc = None
        if line != f"{expected},{adc}\n" or not _INT64_MIN <= adc <= _INT64_MAX:
            _check_row(line, expected)
        yield adc


def _read_rows(path) -> EcgRecord:
    """The row-by-row parse, which names the first fault in the file."""
    with _utf8_text(path) as fh:
        fs, subject, session = _read_header([fh.readline() for _ in range(4)])
        samples = np.fromiter(_iter_rows(fh), dtype=np.int64)
    if not samples.size:
        raise ParseError("line 5: no sample rows after the header")
    return EcgRecord(subject_id=subject, session_id=session, fs=fs, samples=samples)


_BLOCK = 1 << 15  # bytes the block parser reads at a time, into one buffer
_MAX_DIGITS = 18  # a field of at most 18 digits fits int64: 10**18 - 1 < 2**63
_NL, _COMMA, _MINUS, _ZERO = b"\n,-0"
# Byte tables. A lookup runs through numpy's gather code, which the parse
# needs anyway; uint8 arithmetic and masks would page in more of numpy's
# compiled loops, about 0.2 MB of resident memory in a process.
_IS_DIGIT = np.zeros(256, dtype=bool)
_IS_DIGIT[_ZERO:_ZERO + 10] = True
_DIGIT_VALUE = np.zeros(256, dtype=np.int64)
_DIGIT_VALUE[_ZERO:_ZERO + 10] = np.arange(10)


def _field_values(a: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The integers written in the digit fields a[start:end], each 1 to
    _MAX_DIGITS digits long, by Horner's rule over right-aligned columns."""
    values = np.zeros(end.shape[0], dtype=np.int64)
    # the ',', '-' or newline in front of each field; for the first row of
    # a block, index -1: the block's last byte, a newline
    before = start - 1
    for col in range(int((end - start).max()), 0, -1):
        # a column left of its field reads the byte in front of it, worth 0
        values *= 10
        values += _DIGIT_VALUE.take(a.take(np.maximum(end - col, before)))
    return values


def _block_samples(a: np.ndarray, first: int) -> np.ndarray | None:
    """The samples of the rows that fill a (uint8, ending in a newline),
    whose first row is sample index first; None unless every row is the
    canonical 'n,adc' row with at most _MAX_DIGITS digits in each field."""
    ends = np.flatnonzero(a == _NL)
    commas = np.flatnonzero(a == _COMMA)
    minus = a == _MINUS
    n_digits = np.count_nonzero(_IS_DIGIT.take(a))
    if (commas.shape != ends.shape
            or n_digits + np.count_nonzero(minus) + 2 * ends.shape[0] != a.shape[0]):
        return None  # a byte other than a digit, ',', '-' or a newline
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    neg = minus[commas + 1]
    if np.count_nonzero(minus) != np.count_nonzero(neg):
        return None  # a '-' anywhere but right after a comma
    digits = commas + 1 + neg
    index_len = commas - starts
    adc_len = ends - digits
    # commas and newlines are sorted and equal in number, so each row holds
    # exactly its own comma when every field is 1 to _MAX_DIGITS digits
    if (min(index_len.min(), adc_len.min()) < 1
            or max(index_len.max(), adc_len.max()) > _MAX_DIGITS):
        return None
    # a field starts with 0 only when it is "0" (",0\n" is 2 bytes past its
    # comma): no leading zero and no -0
    zero = a == _ZERO
    if (index_len[zero[starts]].max(initial=1) > 1
            or (ends - commas)[zero[digits]].max(initial=2) > 2):
        return None
    index = _field_values(a, starts, commas)
    index -= np.arange(first, first + ends.shape[0])
    if index.min() or index.max():
        return None
    values = _field_values(a, digits, ends)
    values[neg] *= -1
    return values


def _read_blocks(path) -> EcgRecord | None:
    """The record, parsed a block of whole rows at a time: rows are counted
    first, then parsed into one preallocated array. None if the file holds
    anything the row parse might refuse or read differently: a header that
    is not 4 newline-ended UTF-8 lines without a carriage return, an empty
    body, a missing final newline, or a row that is not canonical."""
    with open(path, "rb") as fh:
        head = [fh.readline() for _ in range(4)]
        if any(not line.endswith(b"\n") or b"\r" in line for line in head):
            return None
        try:
            fs, subject, session = _read_header([line.decode("utf-8") for line in head])
        except (UnicodeDecodeError, FormatError):
            return None
        body = fh.tell()
        buf = bytearray(_BLOCK)
        rows = last = 0
        while n := fh.readinto(buf):
            rows += buf.count(b"\n", 0, n)
            last = buf[n - 1]
        if last != _NL:
            return None
        samples = np.empty(rows, dtype=np.int64)
        fh.seek(body)
        view = memoryview(buf)
        filled = kept = 0
        while n := fh.readinto(view[kept:]):
            size = kept + n
            end = buf.rfind(b"\n", 0, size) + 1
            if end:
                block = _block_samples(np.frombuffer(buf, dtype=np.uint8, count=end), filled)
                if block is None or filled + block.shape[0] > rows:
                    return None
                samples[filled:filled + block.shape[0]] = block
                filled += block.shape[0]
            elif size == _BLOCK:
                return None  # a row longer than the buffer
            kept = size - end
            buf[:kept] = buf[end:size]
        if kept or filled != rows:
            return None  # the file changed between the passes
    return EcgRecord(subject_id=subject, session_id=session, fs=fs, samples=samples)


def read_record(path: str | os.PathLike) -> EcgRecord:
    """Parse one record file into an EcgRecord.

    Canonical files are parsed in fixed-size blocks; any other file is
    parsed again row by row, so every error names the same line with the
    same text whichever parse meets it. A file with no sample row is
    refused with a ParseError at line 5.
    """
    record = _read_blocks(path)
    return record if record is not None else _read_rows(path)


def write_record(record: EcgRecord, path: str | os.PathLike) -> None:
    """Write the canonical CSV form; read_record inverts it byte for byte."""
    record.validate()
    samples = np.asarray(record.samples)
    if not np.issubdtype(samples.dtype, np.integer):
        raise ContractError(f"samples must be integers, got dtype {samples.dtype}")
    # read_record takes int64 samples only; uint64 is the one integer dtype
    # that reaches past them
    if samples.dtype.kind == "u" and samples.size and samples.max() > np.iinfo(np.int64).max:
        raise ContractError("samples must fit in int64")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"fs_hz,{record.fs}\n")
        fh.write(f"subject,{record.subject_id}\n")
        fh.write(f"session,{record.session_id}\n")
        fh.write("n,adc\n")
        fh.writelines(f"{n},{v}\n" for n, v in enumerate(samples.tolist()))


@dataclass(frozen=True)
class ManifestEntry:
    subject_id: str
    session_id: str
    path: str  # absolute, resolved against the manifest directory
    role: str


def read_manifest(path: str | os.PathLike) -> list[ManifestEntry]:
    """Load and validate a manifest.

    Enforces header shape, known roles, uniqueness of (subject, session)
    pairs, and that every referenced record file exists.
    """
    base = os.path.dirname(os.path.abspath(path))
    entries: list[ManifestEntry] = []
    seen: set[tuple[str, str]] = set()
    with _utf8_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError("manifest is empty") from None
        if tuple(header) != MANIFEST_HEADER:
            raise FormatError(f"manifest header must be {','.join(MANIFEST_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ParseError(f"line {lineno}: expected 4 fields, got {len(row)}")
            subject, session, rel_path, role = row
            if role not in ROLES:
                raise ParseError(f"line {lineno}: unknown role {role!r}")
            key = (subject, session)
            if key in seen:
                raise ParseError(f"line {lineno}: duplicate (subject, session) pair {key}")
            seen.add(key)
            full = rel_path if os.path.isabs(rel_path) else os.path.join(base, rel_path)
            if not os.path.isfile(full):
                raise ParseError(f"line {lineno}: record file not found: {rel_path}")
            entries.append(ManifestEntry(subject, session, full, role))
    return entries


def _read_beats(path: str) -> RecordBeats:
    return record_beats(read_record(path))


def manifest_beats(entries, run_map) -> dict:
    """RecordBeats of every distinct entry, each read and detected once.

    run_map maps a function over paths (the builtin map, or a pool's).
    Raises ContractError when the records' sample rates differ.
    """
    unique = list(dict.fromkeys(entries))
    beats = dict(zip(unique, run_map(_read_beats, [e.path for e in unique])))
    if unique:
        first = beats[unique[0]]
        for b in beats.values():
            if b.fs != first.fs:
                raise ContractError(
                    f"mixed sample rates: {b.subject_id}/{b.session_id} has fs "
                    f"{b.fs}, {first.subject_id}/{first.session_id} has fs {first.fs}")
    return beats


def write_manifest(entries: Iterable[ManifestEntry], path: str | os.PathLike) -> None:
    """Write ManifestEntry rows, paths as given (read_manifest resolves
    relative ones against the manifest's directory); ContractError on a role
    outside ROLES."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_HEADER)
        for e in entries:
            if e.role not in ROLES:
                raise ContractError(f"unknown role {e.role!r}")
            writer.writerow((e.subject_id, e.session_id, e.path, e.role))
