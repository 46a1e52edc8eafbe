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


def _read_header(fh) -> tuple[int, str, str]:
    lines = [fh.readline() for _ in range(4)]
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


def read_record(path: str | os.PathLike) -> EcgRecord:
    """Parse one record file into an EcgRecord."""
    with _utf8_text(path) as fh:
        fs, subject, session = _read_header(fh)
        samples = np.fromiter(_iter_rows(fh), dtype=np.int64)
    return EcgRecord(subject_id=subject, session_id=session, fs=fs, samples=samples)


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
