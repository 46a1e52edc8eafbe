"""Detector behavior: equivalences, truth tracking, boundaries.

Ground truth comes from the synthetic generator, whose R-center indices are
exact by construction; the detector never sees them.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.signal import lfilter

import ecgauth
from ecgauth.ecgio import EcgRecord
from ecgauth.errors import BoundaryError, ContractError
from ecgauth.qrs import (LEFT, N_WINDOW, QrsDetector, RPeak, _fir, detect_beats,
                         segment_beat)
from ecgauth.synth import SubjectMorphology, generate_record
from helpers import match_peaks

FS = 512

MORPH = SubjectMorphology(
    waves=((55.0, -0.115, 0.020), (-140.0, -0.034, 0.0065), (1150.0, 0.0, 0.0085),
           (-230.0, 0.024, 0.0075), (160.0, 0.215, 0.045)),
    hr_bpm=64.0, hr_var=0.04, rr_jitter=0.012, noise_sigma=12.0,
    wander_amp=25.0, seed=424)


def _peak_indices(record):
    return [p.index for p in detect_beats(record)]


def test_detector_finds_truth_peaks_under_noise():
    record, truth = generate_record(MORPH, 120.0, FS)
    detected = _peak_indices(record)
    matched, worst = match_peaks(truth, detected, FS, tol_s=0.010)
    assert matched >= 0.99 * len(truth)
    assert worst <= 0.010 * FS
    # no spurious detections either: every peak is near some truth index
    back, _ = match_peaks(detected, truth, FS, tol_s=0.010)
    assert back == len(detected)


def test_noise_free_record_is_detected_exactly():
    quiet = dataclasses.replace(MORPH, noise_sigma=0.0)
    record, truth = generate_record(quiet, 60.0, FS)
    detected = _peak_indices(record)
    assert len(detected) == len(truth)
    assert np.abs(np.asarray(detected) - np.asarray(truth)).max() <= 1


def test_detection_is_deterministic():
    record, _ = generate_record(MORPH, 30.0, FS)
    assert _peak_indices(record) == _peak_indices(record)


def test_chunked_feeding_matches_whole_record():
    record, _ = generate_record(MORPH, 20.0, FS)
    whole = _peak_indices(record)
    for chunk in (1, 7, 997):
        det = QrsDetector(FS)
        peaks = []
        for start in range(0, len(record.samples), chunk):
            peaks.extend(det.feed(record.samples[start : start + chunk]))
        peaks.extend(det.finish())
        assert [p.index for p in peaks] == whole


def test_fir_matches_lfilter_on_detector_taps():
    # scipy's FIR path (a == [1.0]) is the oracle; a non-integer signal makes
    # any change in summation order show up in the last bits
    det = QrsDetector(FS)
    record, _ = generate_record(MORPH, 3.0, FS)
    noise = np.random.default_rng(3).standard_normal(len(record.samples))
    for taps in [*det._stages, det._mwi_taps]:
        for x in (record.samples.astype(np.float64), noise):
            for chunk in (1, 7, 64, 997):
                ours = theirs = np.zeros(len(taps) - 1)
                for start in range(0, len(x), chunk):
                    part = x[start : start + chunk]
                    got, ours = _fir(taps, part, ours)
                    want, theirs = lfilter(taps, [1.0], part, zi=theirs)
                    assert np.array_equal(got, want)
                    assert np.array_equal(ours, theirs)


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ecgauth.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ecgauth; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_amplitude_scaling_leaves_peaks_unchanged():
    record, _ = generate_record(MORPH, 30.0, FS)
    base = _peak_indices(record)
    for k in (0.25, 4.0):
        scaled = EcgRecord(record.subject_id, record.session_id, record.fs,
                           np.rint(record.samples * k).astype(np.int64))
        assert _peak_indices(scaled) == base


def _two_bump_record(delta_s):
    n = 10 * FS
    t = np.arange(n) / FS
    x = np.zeros(n)
    for center in (5.0, 5.0 + delta_s):
        x += 1000.0 * np.exp(-((t - center) ** 2) / (2.0 * 0.0085**2))
    return EcgRecord("s", "a", FS, np.rint(x).astype(np.int64))


def test_refractory_suppresses_close_second_bump():
    # within the 0.2 s refractory the second bump must never be reported:
    # wide enough apart to form its own candidate, it is suppressed exactly
    peaks = _peak_indices(_two_bump_record(0.19))
    assert peaks == [round(5.0 * FS)]
    # so close the integrator excursions merge: still only one detection,
    # somewhere inside the bump pair
    peaks = _peak_indices(_two_bump_record(0.15))
    assert len(peaks) == 1
    assert 5.0 * FS - 26 <= peaks[0] <= 5.15 * FS + 26
    # just past the refractory both bumps are kept, at exact positions
    peaks = _peak_indices(_two_bump_record(0.21))
    assert peaks == [round(5.0 * FS), round(5.21 * FS)]


def test_detected_peaks_respect_refractory_spacing():
    record, _ = generate_record(MORPH, 60.0, FS)
    idx = np.asarray(_peak_indices(record))
    assert np.all(np.diff(idx) >= 0.2 * FS)
    assert np.all(np.diff(idx) > 0)


def test_all_zero_signal_yields_no_peaks():
    record = EcgRecord("s", "a", FS, np.zeros(5 * FS, dtype=np.int64))
    assert detect_beats(record) == []


def test_finish_flushes_record_shorter_than_seed_window():
    n = round(1.5 * FS)
    x = np.zeros(n)
    t = np.arange(n) / FS
    for center in (0.4, 1.0):
        x += 1000.0 * np.exp(-((t - center) ** 2) / (2.0 * 0.0085**2))
    det = QrsDetector(FS)
    assert det.feed(x) == []  # still inside the threshold-seeding window
    flushed = det.finish()
    assert [round(p.time_s, 1) for p in flushed] == [0.4, 1.0]
    assert det.finish() == []


def test_detector_input_contract():
    with pytest.raises(ContractError):
        QrsDetector(127)
    det = QrsDetector(FS)
    with pytest.raises(ContractError):
        det.feed(np.zeros((4, 4)))
    assert det.feed(np.zeros(0)) == []


def test_segment_beat_window_alignment():
    rng = np.random.default_rng(0)
    record = EcgRecord("s", "a", FS, rng.integers(-100, 100, 2000).astype(np.int64))
    beat = segment_beat(record, RPeak(index=1000, time_s=1000 / FS))
    assert beat.window.shape == (N_WINDOW,)
    assert beat.window.dtype == np.float64
    assert beat.window[LEFT] == record.samples[1000]
    assert np.array_equal(beat.window, record.samples[922:1178].astype(np.float64))
    assert beat.t == 1000 / FS


def test_segment_beat_boundary_errors():
    record = EcgRecord("s", "a", FS, np.arange(300, dtype=np.int64))
    with pytest.raises(BoundaryError):
        segment_beat(record, RPeak(index=50, time_s=50 / FS))
    with pytest.raises(BoundaryError):
        segment_beat(record, RPeak(index=200, time_s=200 / FS))
    segment_beat(record, RPeak(index=78, time_s=78 / FS))  # exactly enough context
