"""Streaming QRS detection and beat segmentation.

The detector is the classic real-time chain: band-pass (cascaded recursive
low-pass and high-pass, realized in their exact moving-sum FIR form so that
chunked and whole-record processing agree bit for bit), 5-point derivative,
squaring, and moving-window integration over 150 ms, followed by dual
adaptive signal/noise peak thresholds with a 200 ms refractory period and a
half-threshold search-back when no beat arrives within 1.66 times the
running RR mean. All stage coefficients are recomputed from the sample rate.

Every threshold is derived from running signal statistics, so scaling the
input by any positive constant leaves the detected peak set unchanged.

record_beats is the one way to turn a whole record into beats: enrollment,
verification and evaluation all take its RecordBeats.
"""

from __future__ import annotations

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


def _fir(taps: np.ndarray, x: np.ndarray, state: np.ndarray):
    """FIR-filter one chunk; returns (output, state for the next chunk).

    The state is the last len(taps) - 1 samples of the previous chunk's full
    convolution, added to the head of this one. With integer-valued samples
    and taps every sum is exact, so any split of a signal into chunks gives
    the whole-signal output bit for bit.
    """
    full = np.convolve(taps, x)
    full[: state.shape[0]] += state
    # copy the state so it does not keep the whole chunk's convolution alive
    return full[: x.shape[0]], full[x.shape[0] :].copy()


@dataclass(frozen=True)
class RPeak:
    """A detected R-peak, refined to the raw-signal local maximum."""

    index: int
    time_s: float


@dataclass(frozen=True)
class Beat:
    """Fixed-length window of N_WINDOW float samples around an R-peak."""

    r: RPeak
    window: np.ndarray
    t: float


class QrsDetector:
    """Single-stream stateful QRS detector.

    Feed samples in chunks of any size; each call returns the R-peaks
    finalized so far. Call finish() after the last chunk (it matters for
    records shorter than the 2 s threshold-seeding window). Instances are
    independent; one instance must not be fed concurrently.
    """

    def __init__(self, fs: int):
        if fs < 128:
            raise ContractError(f"detector requires fs >= 128, got {fs}")
        self.fs = fs
        d = max(1, round(0.03 * fs))
        d2 = max(1, round(0.08 * fs))
        w = max(1, round(0.15 * fs))
        # stage taps: two cascaded moving sums (low-pass), the classic
        # high-pass written as 2*d2*delay(d2) - movsum(2*d2) to keep integer
        # coefficients, a 5-point derivative, then 150 ms integration
        hp = -np.ones(2 * d2)
        hp[d2] += 2.0 * d2
        self._stages = [
            np.ones(d),
            np.ones(d),
            hp,
            np.array([2.0, 1.0, 0.0, -1.0, -2.0]) / 8.0,
        ]
        self._mwi_taps = np.ones(w)
        self._zi = [np.zeros(len(b) - 1) for b in self._stages]
        self._zi_mwi = np.zeros(w - 1)
        # group delay of the linear-phase chain, used to map integrated-signal
        # peaks back to raw-signal time before the +-25 ms refinement
        self._delay = (d - 1) + d2 + 2 + (w - 1) / 2
        self._refine = max(1, round(_REFINE_S * fs))
        self._refractory = max(1, round(_REFRACTORY_S * fs))
        self._seed_n = round(_SEED_S * fs)
        # threshold-scan state: the current excursion's apex, the running
        # signal and noise peak levels, the last accepted beat, and rings of
        # recent RR intervals and sub-threshold candidates for search-back
        self._v_max = 0.0
        self._p_max = 0
        self._spk = 0.0
        self._npk = 0.0
        self._last_qrs = -1
        self._rr_ring = [0] * _RR_RING
        self._rr_count = 0
        self._cand_idx = [0] * _CAND_RING
        self._cand_val = [0.0] * _CAND_RING
        self._cand_count = 0
        self._mwi_ring = [0.0] * (4 * w)
        self._raw = np.empty(1 << 14, dtype=np.float64)
        self._n_raw = 0
        self._pending_mwi: list[np.ndarray] = []
        self._n_pending = 0
        self._seeded = False
        self._scanned = 0
        self._last_emitted = -(1 << 60)

    def _append_raw(self, chunk: np.ndarray) -> None:
        need = self._n_raw + chunk.shape[0]
        if need > self._raw.shape[0]:
            cap = self._raw.shape[0]
            while cap < need:
                cap *= 2
            grown = np.empty(cap, dtype=np.float64)
            grown[: self._n_raw] = self._raw[: self._n_raw]
            self._raw = grown
        self._raw[self._n_raw : need] = chunk
        self._n_raw = need

    def _filter_chain(self, chunk: np.ndarray) -> np.ndarray:
        y = chunk
        for i, taps in enumerate(self._stages):
            y, self._zi[i] = _fir(taps, y, self._zi[i])
        y = y * y
        y, self._zi_mwi = _fir(self._mwi_taps, y, self._zi_mwi)
        return y

    def _seed(self, mwi_prefix: np.ndarray) -> None:
        seg = mwi_prefix[: self._seed_n] if self._seed_n > 0 else mwi_prefix
        if seg.shape[0] > 0:
            self._spk = float(seg.max())
            self._npk = float(seg.mean()) / 2.0
        self._seeded = True

    def _scan(self, mwi: np.ndarray) -> list[int]:
        """Threshold-scan integrated samples; returns accepted peak indices.

        The loop runs once per sample, so it keeps the state in locals and
        works on Python floats and ints, which are cheaper to touch than
        numpy scalars. _mwi_ring keeps recent samples for half-height walks.
        """
        v_max = self._v_max
        p_max = self._p_max
        spk = self._spk
        npk = self._npk
        last_qrs = self._last_qrs
        rr_count = self._rr_count
        cand_count = self._cand_count
        rr_ring = self._rr_ring
        cand_idx = self._cand_idx
        cand_val = self._cand_val
        mwi_ring = self._mwi_ring
        refractory = self._refractory
        offset = self._scanned
        cap = len(cand_idx)
        rcap = len(mwi_ring)
        out = []
        for local, y in enumerate(mwi.tolist()):
            n_abs = offset + local
            mwi_ring[n_abs % rcap] = y
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
                floor_idx = n_abs - rcap + 1
                if floor_idx < 0:
                    floor_idx = 0
                i = p_max
                while i - 1 >= floor_idx and mwi_ring[(i - 1) % rcap] >= half:
                    i -= 1
                j = p_max
                while j + 1 <= n_abs and mwi_ring[(j + 1) % rcap] >= half:
                    j += 1
                m = (i + j) // 2
                v = v_max
                v_max = y
                p_max = n_abs
            if m < 0:
                continue
            if last_qrs >= 0 and m - last_qrs <= refractory:
                continue
            # running RR mean over the last few accepted intervals
            if rr_count > 0:
                k = rr_count if rr_count < _RR_RING else _RR_RING
                s = 0.0
                for t in range(k):
                    s += rr_ring[t]
                rrm = s / k
            else:
                rrm = float(self.fs)
            if last_qrs >= 0 and m - last_qrs > _SEARCHBACK_RR_FACTOR * rrm:
                thr = npk + 0.25 * (spk - npk)
                half = 0.5 * thr
                best_pos = -1
                best_val = 0.0
                start = cand_count - cap
                if start < 0:
                    start = 0
                for t in range(start, cand_count):
                    p = t % cap
                    if cand_idx[p] > last_qrs + refractory and cand_val[p] > half:
                        if best_pos < 0 or cand_val[p] > best_val:
                            best_pos = p
                            best_val = cand_val[p]
                if best_pos >= 0:
                    bi = cand_idx[best_pos]
                    spk = 0.25 * best_val + 0.75 * spk
                    rr_ring[rr_count % _RR_RING] = bi - last_qrs
                    rr_count += 1
                    last_qrs = bi
                    out.append(bi)
                    if m - last_qrs <= refractory:
                        continue
            thr = npk + 0.25 * (spk - npk)
            if v > thr:
                spk = 0.125 * v + 0.875 * spk
                if last_qrs >= 0:
                    rr_ring[rr_count % _RR_RING] = m - last_qrs
                    rr_count += 1
                last_qrs = m
                out.append(m)
            else:
                npk = 0.125 * v + 0.875 * npk
                p = cand_count % cap
                cand_idx[p] = m
                cand_val[p] = v
                cand_count += 1
        self._v_max = v_max
        self._p_max = p_max
        self._spk = spk
        self._npk = npk
        self._last_qrs = last_qrs
        self._rr_count = rr_count
        self._cand_count = cand_count
        self._scanned += mwi.shape[0]
        return out

    def _run_scan(self, mwi: np.ndarray) -> list[RPeak]:
        peaks = []
        for m in self._scan(mwi):
            center = int(round(m - self._delay))
            lo = max(0, center - self._refine)
            hi = min(self._n_raw - 1, center + self._refine)
            if hi < lo:
                continue
            refined = lo + int(np.argmax(self._raw[lo : hi + 1]))
            if refined - self._last_emitted < self._refractory:
                continue
            self._last_emitted = refined
            peaks.append(RPeak(index=refined, time_s=refined / self.fs))
        return peaks

    def feed(self, samples) -> list[RPeak]:
        chunk = np.asarray(samples, dtype=np.float64)
        if chunk.ndim != 1:
            raise ContractError("detector accepts a 1-D sample chunk")
        if chunk.shape[0] == 0:
            return []
        self._append_raw(chunk)
        mwi = self._filter_chain(chunk)
        if self._seeded:
            return self._run_scan(mwi)
        self._pending_mwi.append(mwi)
        self._n_pending += mwi.shape[0]
        if self._n_pending >= self._seed_n:
            pending = np.concatenate(self._pending_mwi)
            self._pending_mwi = []
            self._n_pending = 0
            self._seed(pending)
            return self._run_scan(pending)
        return []

    def finish(self) -> list[RPeak]:
        """Flush a record shorter than the seeding window."""
        if self._seeded or self._n_pending == 0:
            return []
        pending = np.concatenate(self._pending_mwi)
        self._pending_mwi = []
        self._n_pending = 0
        self._seed(pending)
        return self._run_scan(pending)


def detect_beats(record) -> list[RPeak]:
    """Detect all R-peaks of a record, in strictly increasing index order."""
    det = QrsDetector(record.fs)
    peaks = det.feed(record.samples)
    peaks.extend(det.finish())
    return peaks


def segment_beat(record, r: RPeak) -> Beat:
    """Cut the N_WINDOW-sample window around an R-peak.

    Exactly LEFT samples precede the peak; window[LEFT] is the peak sample.
    Raises BoundaryError when the record does not extend far enough on
    either side, in which case callers discard the beat.
    """
    start = r.index - LEFT
    stop = r.index + (N_WINDOW - LEFT)
    if start < 0 or stop > len(record.samples):
        raise BoundaryError(f"window [{start}, {stop}) outside record of length {len(record.samples)}")
    window = np.asarray(record.samples[start:stop], dtype=np.float64)
    return Beat(r=r, window=window, t=r.time_s)


@dataclass(frozen=True)
class RecordBeats:
    """Every segmentable beat of one record, detected once.

    windows[k] is the N_WINDOW-sample window of the beat at times[k];
    detected counts every R-peak, including those too near a record end
    to segment.
    """

    subject_id: str
    session_id: str
    times: np.ndarray  # (B,) float64 seconds
    windows: np.ndarray  # (B, N_WINDOW) float64
    detected: int
    duration_s: float


def record_beats(record) -> RecordBeats:
    """Detect and segment a whole record; drops only boundary beats."""
    # detect_beats and segment_beat are looked up in this module's globals
    # at call time, so a caller that rebinds them here (a tracer) sees calls
    peaks = detect_beats(record)
    times = []
    windows = []
    for r in peaks:
        try:
            beat = segment_beat(record, r)
        except BoundaryError:
            continue
        times.append(beat.t)
        windows.append(beat.window)
    return RecordBeats(
        subject_id=record.subject_id, session_id=record.session_id,
        times=np.asarray(times, dtype=np.float64),
        windows=(np.stack(windows) if windows
                 else np.empty((0, N_WINDOW), dtype=np.float64)),
        detected=len(peaks), duration_s=len(record.samples) / record.fs)
