"""Detector behavior: equivalences, truth tracking, boundaries.

Ground truth comes from the synthetic generator, whose R-center indices are
exact by construction; the detector never sees them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.signal import lfilter

import ecgauth
from ecgauth import qrs
from ecgauth.ecgio import EcgRecord, read_manifest, read_record
from ecgauth.errors import BoundaryError, ContractError
from ecgauth.qrs import (LEFT, N_WINDOW, QrsDetector, RPeak, _fir, detect_beats,
                         record_beats, segment_beat)
from ecgauth.synth import SubjectMorphology, default_cohort, generate_record
from helpers import match_peaks

FS = 512

MORPH = SubjectMorphology(
    waves=((55.0, -0.115, 0.020), (-140.0, -0.034, 0.0065), (1150.0, 0.0, 0.0085),
           (-230.0, 0.024, 0.0075), (160.0, 0.215, 0.045)),
    hr_bpm=64.0, hr_var=0.04, rr_jitter=0.012, noise_sigma=12.0,
    wander_amp=25.0, seed=424)


def _peak_indices(record):
    return [p.index for p in detect_beats(record)]


def _chunked_indices(samples, chunk):
    det = QrsDetector(FS)
    peaks = []
    for start in range(0, len(samples), chunk):
        peaks.extend(det.feed(samples[start : start + chunk]))
    peaks.extend(det.finish())
    return [p.index for p in peaks]


def _sha256(indices):
    return hashlib.sha256(np.asarray(indices, dtype=np.int64).tobytes()).hexdigest()


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
    # feed works in blocks of _BLOCK samples: chunks either side of a block
    for chunk in (1, 7, 997, 4095, 4096, 4097, 10000):
        assert _chunked_indices(record.samples, chunk) == whole
    # other input layouts, in packets and as one chunk of several blocks:
    # a strided view and big-endian floats
    x = record.samples.astype(np.float64)
    assert len(x) > 2 * qrs._BLOCK
    for layout in (np.repeat(x, 2)[::2], x.astype(">f8")):
        assert _chunked_indices(layout, 64) == whole
        assert _chunked_indices(layout, len(layout)) == whole


def test_fir_matches_lfilter_on_detector_taps():
    # scipy's FIR path (a == [1.0]) is the oracle; a non-integer signal makes
    # any change in summation order show up in the last bits
    det = QrsDetector(FS)
    record, _ = generate_record(MORPH, 3.0, FS)
    noise = np.random.default_rng(3).standard_normal(len(record.samples))
    for taps in (det._bp_taps, det._mwi_taps):
        for x in (record.samples.astype(np.float64), noise):
            for chunk in (1, 7, 64, 997):
                ours = theirs = np.zeros(len(taps) - 1)
                for start in range(0, len(x), chunk):
                    part = x[start : start + chunk]
                    got, ours = _fir(taps, part, ours)
                    want, theirs = lfilter(taps, [1.0], part, zi=theirs)
                    assert np.array_equal(got, want)
                    assert np.array_equal(ours, theirs)


def test_band_pass_is_the_four_stage_cascade():
    # the stage taps at 512 Hz: two 15-sample moving sums, the high-pass
    # 82 * delay(41) - movsum(82), and the 5-point derivative
    hp = -np.ones(82)
    hp[41] += 82.0
    stages = [np.ones(15), np.ones(15), hp, np.array([2.0, 1.0, 0.0, -1.0, -2.0]) / 8.0]
    taps = QrsDetector(FS)._bp_taps
    assert len(taps) == 114
    assert np.abs(taps).sum() == 3453.0
    assert np.array_equal(taps * 8.0, np.rint(taps * 8.0))
    record, _ = generate_record(MORPH, 10.0, FS)
    rng = np.random.default_rng(6)
    for x in (record.samples.astype(np.float64),
              rng.integers(-2**20, 2**20, 5 * FS).astype(np.float64)):
        want = x
        for b in stages:
            want = lfilter(b, [1.0], want)
        for chunk in (len(x), 1, 64, 997):
            got, state = [], np.zeros(len(taps) - 1)
            for start in range(0, len(x), chunk):
                y, state = _fir(taps, x[start : start + chunk], state)
                got.append(y)
            assert np.concatenate(got).tobytes() == want.tobytes()


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


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_chunk_is_refused_before_any_state_changes(bad):
    # an accepted inf would set spk to inf, and no later beat would pass
    record, _ = generate_record(MORPH, 60.0, FS)
    x = record.samples.astype(np.float64)
    a = 20 * FS
    det = QrsDetector(FS)
    peaks = []
    for start in range(0, a, 64):
        peaks += det.feed(x[start : min(start + 64, a)])
    glitch = x[a : a + 64].copy()
    glitch[10] = bad
    with pytest.raises(ContractError):
        det.feed(glitch)
    for start in range(a, len(x), 64):
        peaks += det.feed(x[start : start + 64])
    peaks += det.finish()
    assert [p.index for p in peaks] == _peak_indices(record)


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


def test_record_beats_is_detect_then_segment(cohort3_dir):
    full = read_record(cohort3_dir / "records" / "subj01_s1.csv")
    head = dataclasses.replace(full, samples=full.samples[: 60 * FS])
    # end the record 10 samples short of the last peak's window, so that
    # peak is detected but cannot be segmented
    end = detect_beats(head)[-1].index + (N_WINDOW - LEFT) - 10
    record = dataclasses.replace(full, samples=full.samples[:end])
    peaks = detect_beats(record)
    beats = []
    for r in peaks:
        try:
            beats.append(segment_beat(record, r))
        except BoundaryError:
            pass
    assert len(beats) == len(peaks) - 1  # the boundary drop

    got = record_beats(record)
    assert (got.subject_id, got.session_id) == ("subj01", "s1")
    assert got.detected == len(peaks)
    assert got.duration_s == end / FS
    assert got.times.dtype == np.float64 and got.windows.dtype == np.float64
    assert got.times.tolist() == [b.t for b in beats]
    assert np.array_equal(got.windows, np.stack([b.window for b in beats]))


def test_record_beats_of_a_beatless_record():
    got = record_beats(EcgRecord("s", "a", FS, np.zeros(5 * FS, dtype=np.int64)))
    assert got.detected == 0
    assert got.times.shape == (0,) and got.windows.shape == (0, N_WINDOW)
    assert got.duration_s == 5.0


# -- search-back ------------------------------------------------------------
#
# The scan tests drive _scan with integrated signals of one-sample spikes on
# zeros: each spike closes its own excursion on the next sample, so it is a
# candidate at its own index with its own height. The thresholds start at
# spk 1000 and npk 0, so a spike of 1000 is a beat and one of 200 is noise.

def _scan(spikes: dict) -> list[int]:
    det = QrsDetector(FS)
    det._spk, det._npk = 1000.0, 0.0
    y = np.zeros(max(spikes) + 2)
    for i, height in spikes.items():
        y[i] = height
    det._mwi.extend(y.tolist())
    return det._scan()


def test_searchback_rr_mean_covers_the_newest_eight_intervals():
    # intervals 1500, 600, then seven of 200: the newest eight average 250
    # samples, so search-back fires past 1.66 * 250 = 415 samples; the
    # newest seven (200) would fire past 332, the newest nine (389) past 646
    beats = np.cumsum([100, 1500, 600] + [200] * 7).tolist()
    last = beats[-1]
    for gap, searched in ((400, False), (450, True)):
        spikes = dict.fromkeys(beats, 1000.0)
        spikes[last + 150] = 200.0
        spikes[last + gap] = 1000.0
        picked = [last + 150] if searched else []
        assert _scan(spikes) == beats + picked + [last + gap]


def test_searchback_sees_the_newest_256_candidates():
    # 257 noise candidates after one beat; the oldest is the largest and the
    # second oldest the next largest, and the rest are too small to be
    # eligible. The ring keeps the newest 256, so the second oldest is picked
    det = QrsDetector(FS)
    first = 100 + det._refractory + 1
    cands = [first + 2 * k for k in range(257)]
    spikes = {100: 1000.0, **dict.fromkeys(cands, 10.0), 1000: 1000.0}
    spikes[cands[0]] = 240.0
    spikes[cands[1]] = 230.0
    assert _scan(spikes) == [100, cands[1], 1000]


def test_searchback_picks_the_earliest_of_equal_candidates():
    assert _scan({100: 1000.0, 300: 200.0, 500: 200.0, 1000: 1000.0}) == [100, 300, 1000]


@pytest.mark.parametrize("offset", [0, 1])
def test_searchback_skips_candidates_inside_the_refractory(offset):
    # the first search-back (at 1000) picks 250; the second (at 1200) may
    # pick only a candidate more than one refractory period past 250
    refractory = QrsDetector(FS)._refractory
    edge = 250 + refractory + offset
    spikes = {100: 1000.0, 250: 200.0, edge: 190.0, edge + 5: 160.0,
              1000: 100.0, 1200: 1000.0}
    second = edge if offset else edge + 5
    assert _scan(spikes) == [100, 250, second, 1200]


def test_half_height_span_of_an_excursion_longer_than_the_ring():
    # an apex of 1000 at 100, then 600 until 501: the excursion ends at 501,
    # so its half-height span is [100, 500] and its candidate sits at 300,
    # although the walk (600 ms) reaches none of the span's start any more
    assert QrsDetector(FS)._walk < 400
    assert _scan({100: 1000.0, **dict.fromkeys(range(101, 501), 600.0)}) == [300]
    # inside the walk's reach the span is the same: [100, 300] centers on 200
    assert _scan({100: 1000.0, **dict.fromkeys(range(101, 301), 600.0)}) == [200]


def _attenuated_record():
    """60 s of a cohort record with every 7th QRS (+-60 ms) at 40% of its
    deviation from the median, so the detector must search back for them."""
    session = default_cohort(2, seed=0)[0].sessions[0]
    n = 60 * FS
    x = session.record.samples[:n].astype(np.float64)
    med = np.median(x)
    w = round(0.06 * FS)
    for r in [t for t in session.truth if t < n][3::7]:
        x[r - w : r + w + 1] = med + 0.4 * (x[r - w : r + w + 1] - med)
    return np.rint(x).astype(np.int64)


def _pause_record():
    """15 s of beats, a 45 s near-flat pause, then 30 s of beats at 40%."""
    record, _ = generate_record(MORPH, 90.0, FS)
    x = record.samples.astype(np.float64)
    med = np.median(x)
    a, b = 15 * FS, 60 * FS
    x[a:b] = med + np.random.default_rng(5).normal(0.0, 1.0, b - a)
    x[b:] = med + 0.4 * (x[b:] - med)
    return np.rint(x).astype(np.int64)


@pytest.mark.parametrize("make, count, digest, without", [
    (_attenuated_record, 75,
     "308e41814de4afa0361de4b88afc9486dc7dad0ee431f3450b1feec0331db3b2", 64),
    (_pause_record, 25,
     "ecb5e2a8d2fc31c95bae61d50981de72ada1d166e957e804f2e1115aa4725386", 16),
], ids=["attenuated", "pause"])
def test_searchback_records_keep_their_peaks(monkeypatch, make, count, digest, without):
    x = make()
    whole = _chunked_indices(x, len(x))
    assert (len(whole), _sha256(whole)) == (count, digest)
    for chunk in (1, 64, 997):
        assert _chunked_indices(x, chunk) == whole
    # the pinned peaks include search-back picks: without it fewer are found
    monkeypatch.setattr(qrs, "_SEARCHBACK_RR_FACTOR", float("inf"))
    assert len(_chunked_indices(x, len(x))) == without


def test_cohort_peaks_are_pinned(cohort3_dir):
    """The detector's peaks over the 3-subject seed-7 cohort, by SHA-256 of
    the int64 indices in (subject, session) order, whole and in 64-sample
    packets. Search-back picks no peak in these records; the tests above pin it."""
    entries = sorted(read_manifest(cohort3_dir / "manifest.csv"),
                     key=lambda e: (e.subject_id, e.session_id))
    whole, packets = [], []
    for e in entries:
        samples = read_record(e.path).samples
        whole += _chunked_indices(samples, len(samples))
        packets += _chunked_indices(samples, 64)
    assert len(whole) == 3885
    assert _sha256(whole) == "a31fd3315f870f9875a29b879e8b4e7b72fbfb5e51f03f47c1ad3978f6ff2e81"
    assert packets == whole


# -- bounded memory -----------------------------------------------------------
#
# The detector keeps a tail, not the stream: after every feed it holds
# fewer raw samples than three blocks, the 600 ms walk, the group delay and
# the refinement half-width, whatever has been fed, and as many integrated
# samples.

def _raw_bound(det: QrsDetector) -> int:
    return 3 * qrs._BLOCK + det._walk + math.ceil(det._delay) + det._refine


def _feed_bounded(det: QrsDetector, x: np.ndarray, chunk: int) -> list[int]:
    bound = _raw_bound(det)
    peaks = []
    for start in range(0, len(x), chunk):
        peaks += [p.index for p in det.feed(x[start : start + chunk])]
        assert len(det._raw) < bound
        assert len(det._mwi) == len(det._raw)
    return peaks


def _hour_record(cohort3_dir):
    record = read_record(cohort3_dir / "records" / "subj01_s1.csv")
    return dataclasses.replace(record, samples=np.tile(record.samples, 6))


def test_raw_tail_stays_bounded_over_an_hour_of_packets(cohort3_dir):
    record = _hour_record(cohort3_dir)
    det = QrsDetector(FS)
    peaks = _feed_bounded(det, record.samples, 64)
    assert peaks + [p.index for p in det.finish()] == _peak_indices(record)


@pytest.mark.parametrize("quiet", ["zeros", "noise"])
def test_raw_tail_stays_bounded_over_two_quiet_hours(quiet):
    # beats leave search-back candidates eligible; two hours of exact zeros
    # bring nothing new, and noise brings only noise candidates
    record, _ = generate_record(MORPH, 15.0, FS)
    n = 2 * 3600 * FS
    tail = (np.zeros(n, dtype=np.int64) if quiet == "zeros" else
            np.rint(np.random.default_rng(4).normal(0.0, 1.0, n)).astype(np.int64))
    det = QrsDetector(FS)
    peaks = _feed_bounded(det, record.samples, 4097)
    assert peaks and det._cands
    _feed_bounded(det, tail, 4097)
    if quiet == "zeros":
        # candidates still eligible had their peaks refined before the cut
        assert det._cand_peaks


def test_an_excursion_longer_than_the_tail_keeps_its_samples(monkeypatch):
    # a 17 Hz sine integrates to a level that never falls below half its
    # apex: one excursion lasting 60 s, far longer than the raw tail
    record, _ = generate_record(MORPH, 40.0, FS)
    t = np.arange(60 * FS) / FS
    burst = np.rint(300.0 * np.sin(2.0 * np.pi * 17.0 * t)).astype(np.int64)
    x = np.concatenate([record.samples[: 20 * FS], burst, record.samples[20 * FS :]])
    got = [_chunked_indices(x, chunk) for chunk in (64, len(x))]
    # the reference filters and scans the record as one block and never cuts
    monkeypatch.setattr(qrs, "_BLOCK", len(x))
    assert got == [_chunked_indices(x, len(x))] * 2


def test_record_beats_peak_memory_is_its_windows(cohort3_dir):
    # a raw buffer of the whole stream (14 MB here) or whole-record filter
    # temporaries would break the bound; the windows are the output
    record = _hour_record(cohort3_dir)
    tracemalloc.start()
    try:
        got = record_beats(record)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.windows.shape[0] > 3000
    assert peak < 2 * got.windows.nbytes + 4 * 2**20
