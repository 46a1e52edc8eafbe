"""Streaming QRS detection and beat segmentation.

The detector is the classic real-time chain: band-pass, squaring, and
moving-window integration over 150 ms, followed by dual adaptive
signal/noise peak thresholds with a 200 ms refractory period and a
half-threshold search-back when no beat arrives within 1.66 times the
running RR mean. The band-pass is one FIR: the cascaded recursive low-pass
and high-pass in their exact moving-sum form and a 5-point derivative,
folded into taps that are multiples of 1/8. All coefficients are recomputed
from the sample rate.

Every threshold is derived from running signal statistics, so scaling the
input by any positive constant leaves the detected peak set unchanged.

The detector's state has no chunk boundaries in it: each filter keeps its
last inputs, so every filtered sample is the same dot product over the same
inputs however the stream was split, and each search-back candidate keeps
the peak it was refined to when it was recorded. Any split of the same
finite samples into chunks gives the same peaks.

A detector holds a few seconds of state however long the stream runs. It
filters and scans its input _BLOCK samples at a time, so a whole record
passed as one chunk costs no more than a block of it. It keeps in standard
containers the newest 8 RR intervals and the newest 256 sub-threshold
candidates in deque rings for search-back, and one tail of the signal: the
raw samples for the +-25 ms peak refinement and the integrated samples for
the half-height walks, in two array('d') that share one start index. The
tail starts where the earliest refinement a later peak can make starts:
600 ms of the integrated signal (the longest walk) plus the chain's group
delay back, or at the apex of an excursion that has not yet fallen below
half its height, so one excursion that never falls keeps its samples until
it falls.

record_beats is the one way to turn a whole record into beats: enrollment,
verification and evaluation all take its RecordBeats.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryError, ContractError

N_WINDOW = 256
LEFT = 78  # samples preceding the R-peak inside a beat window

_REFRACTORY_S = 0.2
_SEARCHBACK_RR_FACTOR = 1.66
_SEED_S = 2.0
_REFINE_S = 0.025
_RR_RING = 8
_CAND_RING = 256
# feed filters and scans this many samples at a time, so its temporaries stay
# a few hundred kB whatever the chunk size
_BLOCK = 4096


def _fir(taps: np.ndarray, x: np.ndarray, state: np.ndarray):
    """FIR-filter one non-empty chunk; returns (output, state for the next
    chunk).

    The state is the last len(taps) - 1 inputs (zeros before the first
    chunk). Each output is the dot product of the taps with the same inputs
    whatever the split, so any split of a signal into chunks gives the
    whole-signal output bit for bit.
    """
    k = state.shape[0]
    full = np.concatenate((state, x))
    # copy the state so it does not keep the whole chunk alive
    return np.convolve(full, taps, "valid"), full[full.shape[0] - k :].copy()


@dataclass(frozen=True)
class RPeak:
    """A detected R-peak, refined to the raw-signal local maximum."""

    index: int
    time_s: float


@dataclass(frozen=True, slots=True)
class Beat:
    """Fixed-length window of N_WINDOW float samples around an R-peak at
    time t in seconds."""

    window: np.ndarray
    t: float


class QrsDetector:
    """Single-stream stateful QRS detector.

    Feed samples in chunks of any size; each call returns the R-peaks
    finalized so far. Call finish() after the last chunk (it matters for
    records shorter than the 2 s threshold-seeding window). Instances are
    independent; one instance must not be fed concurrently.

    feed works through a chunk _BLOCK samples at a time; any split of the
    same finite samples gives the same peaks, and a search-back candidate
    keeps the peak it was refined to when it was recorded. _raw and _mwi
    hold the raw and integrated samples from index _start on: under
    3 * _BLOCK samples plus 600 ms, the group delay and the refinement
    half-width, except across one excursion that has not fallen below half
    its apex (see _trim).
    """

    def __init__(self, fs: int):
        if fs < 128:
            raise ContractError(f"detector requires fs >= 128, got {fs}")
        self.fs = fs
        d = max(1, round(0.03 * fs))
        d2 = max(1, round(0.08 * fs))
        w = max(1, round(0.15 * fs))
        # band-pass taps: two cascaded moving sums (low-pass), the classic
        # high-pass written as 2*d2*delay(d2) - movsum(2*d2) to keep integer
        # coefficients, and a 5-point derivative, folded into one FIR; then
        # 150 ms integration
        hp = -np.ones(2 * d2)
        hp[d2] += 2.0 * d2
        bp = np.convolve(np.ones(d), np.ones(d))
        for taps in (hp, np.array([2.0, 1.0, 0.0, -1.0, -2.0]) / 8.0):
            bp = np.convolve(bp, taps)
        self._bp_taps = bp
        self._mwi_taps = np.ones(w)
        self._zi_bp = np.zeros(len(bp) - 1)
        self._zi_mwi = np.zeros(w - 1)
        # group delay of the linear-phase chain, used to map integrated-signal
        # peaks back to raw-signal time before the +-25 ms refinement
        self._delay = (d - 1) + d2 + 2 + (w - 1) / 2
        self._refine = max(1, round(_REFINE_S * fs))
        self._refractory = max(1, round(_REFRACTORY_S * fs))
        self._seed_n = round(_SEED_S * fs)
        # the longest half-height walk: 600 ms of the integrated signal
        self._walk = 4 * w
        # threshold-scan state: the current excursion's apex, the running
        # signal and noise peak levels, the last accepted beat, and rings of
        # recent RR intervals and sub-threshold candidates for search-back
        self._v_max = 0.0
        self._p_max = 0
        self._spk = 0.0
        self._npk = 0.0
        self._last_qrs = -1
        self._rr: deque[int] = deque(maxlen=_RR_RING)
        self._cands: deque[tuple[int, float, int | None]] = deque(maxlen=_CAND_RING)
        self._raw = array("d")
        self._mwi = array("d")
        self._start = 0
        self._seeded = False
        self._scanned = 0
        self._last_emitted = -(1 << 60)

    def _filter_chain(self, chunk: np.ndarray) -> np.ndarray:
        y, self._zi_bp = _fir(self._bp_taps, chunk, self._zi_bp)
        y, self._zi_mwi = _fir(self._mwi_taps, y * y, self._zi_mwi)
        return y

    def _scan(self) -> list[tuple[int, int | None]]:
        """Threshold-scan the integrated samples of the tail not scanned
        yet; returns the accepted (index, refined peak) pairs.

        The loop runs once per sample, so it keeps the state in locals and
        works on Python floats and ints, which are cheaper to touch than
        numpy scalars. A half-height walk is one numpy search over a view
        of _mwi; the view must be gone before the tail grows or is cut, as
        an exported array cannot be resized, so it lives only in this call.
        The deque _rr keeps the newest _RR_RING accepted RR intervals and
        the deque _cands the newest _CAND_RING sub-threshold candidates as
        (index, height, peak), both oldest first. Every peak is refined
        when its index is scanned, while its raw window is in the tail.
        """
        v_max = self._v_max
        p_max = self._p_max
        spk = self._spk
        npk = self._npk
        last_qrs = self._last_qrs
        rr = self._rr
        cands = self._cands
        refractory = self._refractory
        walk = self._walk
        start = self._start
        offset = self._scanned
        tail = np.frombuffer(self._mwi)
        new = tail[offset - start :].tolist()
        out = []
        for local, y in enumerate(new):
            n_abs = offset + local
            m = -1
            v = 0.0
            if y > v_max:
                v_max = y
                p_max = n_abs
            elif v_max > 0.0 and y < 0.5 * v_max:
                # excursion over: place the candidate at the midpoint of the
                # half-height span around the apex, which for a symmetric
                # burst is the burst center plus the integrator's group delay
                half = 0.5 * v_max
                floor_idx = n_abs - walk + 1
                if floor_idx < 0:
                    floor_idx = 0
                # walk back from the apex while samples hold half of it:
                # one past the last that does not (NaN included), or the floor
                i = p_max
                if p_max > floor_idx:
                    below = np.flatnonzero(~(tail[floor_idx - start : p_max - start] >= half))
                    i = floor_idx + int(below[-1]) + 1 if below.shape[0] else floor_idx
                # every sample since the apex held at least half of it, or
                # an earlier one would have ended the excursion
                m = (i + n_abs - 1) // 2
                v = v_max
                v_max = y
                p_max = n_abs
            if m < 0:
                continue
            if last_qrs >= 0 and m - last_qrs <= refractory:
                continue
            # running RR mean over the newest accepted intervals
            rrm = sum(rr) / len(rr) if rr else float(self.fs)
            if last_qrs >= 0 and m - last_qrs > _SEARCHBACK_RR_FACTOR * rrm:
                # the highest candidate past the refractory and above half
                # the threshold; the earliest of equal ones
                half = 0.5 * (npk + 0.25 * (spk - npk))
                bi, bv, bp = -1, 0.0, None
                for ci, cv, cp in cands:
                    if ci > last_qrs + refractory and cv > half and (bi < 0 or cv > bv):
                        bi, bv, bp = ci, cv, cp
                if bi >= 0:
                    spk = 0.25 * bv + 0.75 * spk
                    rr.append(bi - last_qrs)
                    last_qrs = bi
                    out.append((bi, bp))
                    if m - last_qrs <= refractory:
                        continue
            thr = npk + 0.25 * (spk - npk)
            if v > thr:
                spk = 0.125 * v + 0.875 * spk
                if last_qrs >= 0:
                    rr.append(m - last_qrs)
                last_qrs = m
                out.append((m, self._refine_peak(m)))
            else:
                npk = 0.125 * v + 0.875 * npk
                cands.append((m, v, self._refine_peak(m)))
        self._v_max = v_max
        self._p_max = p_max
        self._spk = spk
        self._npk = npk
        self._last_qrs = last_qrs
        self._scanned = offset + len(new)
        return out

    def _refine_peak(self, m: int) -> int | None:
        """The raw-signal maximum within +-25 ms of integrated-signal index
        m mapped back by the group delay; None when that window lies before
        the record. The group delay exceeds the half-width, so the window
        ends before m and is whole in the tail once m is scanned."""
        center = int(round(m - self._delay))
        lo = max(0, center - self._refine)
        hi = min(self._start + len(self._raw) - 1, center + self._refine)
        if hi < lo:
            return None
        s = self._start
        return lo + int(np.argmax(self._raw[lo - s : hi + 1 - s]))

    def _run_scan(self) -> list[RPeak]:
        peaks = []
        for _, refined in self._scan():
            if refined is None or refined - self._last_emitted < self._refractory:
                continue
            self._last_emitted = refined
            peaks.append(RPeak(index=refined, time_s=refined / self.fs))
        self._trim()
        return peaks

    def _trim(self) -> None:
        """Drop the tail samples no later walk or refinement can read, once
        they pass two blocks.

        A later excursion's half-height span starts no earlier than 600 ms
        (the longest walk) before the next sample, or than the current apex
        if that is older, and its peak lies inside the span, so its
        refinement window starts no earlier than that index less the group
        delay and the refinement half-width. The integrated samples are cut
        at the same index, which is before any later walk's floor. Search-
        back candidates already hold their peaks, so nothing else reads the
        cut samples.
        """
        lo = self._scanned - self._walk + 1
        if self._v_max > 0.0 and self._p_max < lo:
            lo = self._p_max
        start = math.floor(lo - self._delay) - self._refine
        if start - self._start < 2 * _BLOCK:
            return
        del self._raw[: start - self._start]
        del self._mwi[: start - self._start]
        self._start = start

    def feed(self, samples) -> list[RPeak]:
        chunk = np.asarray(samples)
        if chunk.ndim != 1:
            raise ContractError("detector accepts a 1-D sample chunk")
        # before any state changes; only bool, integer and float chunks are
        # numbers the filters take as they are, min and max propagate NaN,
        # and an integer chunk is always finite
        if chunk.dtype.kind not in "biuf":
            raise ContractError(f"detector samples must be real numbers, got dtype {chunk.dtype}")
        if chunk.dtype.kind == "f" and chunk.size and not (
                np.isfinite(chunk.min()) and np.isfinite(chunk.max())):
            raise ContractError("detector samples must be finite")
        peaks = []
        for lo in range(0, chunk.shape[0], _BLOCK):
            # C order: the raw buffer appends the block's memory as it lies
            block = np.asarray(chunk[lo : lo + _BLOCK], dtype=np.float64, order="C")
            peaks += self._feed_block(block)
        return peaks

    def _feed_block(self, block: np.ndarray) -> list[RPeak]:
        self._raw.frombytes(memoryview(block).cast("B"))
        self._mwi.frombytes(memoryview(self._filter_chain(block)).cast("B"))
        if self._seeded:
            return self._run_scan()
        if len(self._mwi) >= self._seed_n:
            return self._seed_and_scan()
        return []

    def finish(self) -> list[RPeak]:
        """Flush a record shorter than the seeding window."""
        if self._seeded or not self._mwi:
            return []
        return self._seed_and_scan()

    def _seed_and_scan(self) -> list[RPeak]:
        """Seed the thresholds from the first _SEED_S of the integrated
        samples (all of them in a shorter record), then scan them all.
        Nothing is cut before seeding, so the tail starts at index 0."""
        # a copied slice: a view of _mwi would block the scan's later cut
        seed = np.asarray(self._mwi[: self._seed_n])
        self._spk = float(seed.max())
        self._npk = float(seed.mean()) / 2.0
        self._seeded = True
        return self._run_scan()


def detect_beats(record) -> list[RPeak]:
    """Detect all R-peaks of a record, in strictly increasing index order."""
    det = QrsDetector(record.fs)
    peaks = det.feed(record.samples)
    peaks.extend(det.finish())
    return peaks


def segment_beat(record, r: RPeak) -> Beat:
    """Cut the N_WINDOW-sample window around an R-peak, as a Beat at the
    peak's time.

    Exactly LEFT samples precede the peak; window[LEFT] is the peak sample.
    Raises BoundaryError when the record does not extend far enough on
    either side, in which case callers discard the beat. record_beats cuts
    every beat of a whole record through it; a live caller cuts each beat
    once its window has arrived.
    """
    start = r.index - LEFT
    stop = r.index + (N_WINDOW - LEFT)
    if start < 0 or stop > len(record.samples):
        raise BoundaryError(f"window [{start}, {stop}) outside record of length {len(record.samples)}")
    window = np.asarray(record.samples[start:stop], dtype=np.float64)
    return Beat(window=window, t=r.time_s)


@dataclass(frozen=True)
class RecordBeats:
    """Every segmentable beat of one record, detected once.

    windows[k] is the N_WINDOW-sample window of the beat at times[k];
    detected counts every R-peak, including those too near a record end
    to segment.
    """

    subject_id: str
    session_id: str
    fs: int
    times: np.ndarray  # (B,) float64 seconds
    windows: np.ndarray  # (B, N_WINDOW) float64
    detected: int
    duration_s: float


def record_beats(record) -> RecordBeats:
    """Detect and segment a whole record; drops only boundary beats."""
    # detect_beats and segment_beat are looked up in this module's globals
    # at call time, so a caller that rebinds them here (a tracer) sees calls
    peaks = detect_beats(record)
    times = np.empty(len(peaks), dtype=np.float64)
    windows = np.empty((len(peaks), N_WINDOW), dtype=np.float64)
    k = 0
    for r in peaks:
        try:
            beat = segment_beat(record, r)
        except BoundaryError:
            continue
        times[k] = beat.t
        windows[k] = beat.window
        k += 1
    return RecordBeats(
        subject_id=record.subject_id, session_id=record.session_id,
        fs=record.fs, times=times[:k], windows=windows[:k],
        detected=len(peaks), duration_s=len(record.samples) / record.fs)
