"""Streaming verification: prescreen, FIFO buffer, features, login state.

Each accepted beat triggers a full feature computation over the beats seen
in the last t_avg seconds: similarity ranks from average-linkage
agglomeration, Kaiser-window weights by rank, weighted average, then the
leading M DCT coefficients. The classifier margin turns each accepted beat
into a positive or negative verification; the login state is authenticated
exactly while the last t_v seconds contain at least n positives.

State transitions are computed at their exact times: a lockout caused by a
positive verification aging out is backdated to the aging-out instant, no
matter when the next beat or clock tick arrives. The 1 Hz tick therefore
adds no quantization; it only bounds how late a transition is noticed
during beat-free stretches.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .beatmath import (DctMatrix, cluster_ranks, dct_features, kaiser_weights,
                       pearson, weighted_average)
from .enroll import PipelineParams, SubjectModel, TemplatePack
from .errors import ContractError, ZeroVarianceError
from .qrs import N_WINDOW, RecordBeats, record_beats
from .qrs import segment_beat  # noqa: F401  perfbench/tracing.py wraps this name

KIND_REJECTED = "beat_rejected_prescreen"
KIND_POSITIVE = "verified_positive"
KIND_NEGATIVE = "verified_negative"
KIND_TRANSITION = "login_transition"

STATE_LOCKED = "locked"
STATE_AUTHENTICATED = "authenticated"


@dataclass(frozen=True)
class VerificationEvent:
    t: float
    kind: str
    margin: float | None
    contributing: int


def _prescreen_window(window: np.ndarray, pack: TemplatePack) -> str | None:
    """None when the window passes; otherwise the rejection reason."""
    try:
        r = pearson(window, pack.template, y_mean=pack.mean, y_sdev=pack.sdev)
    except ZeroVarianceError:
        return "zero-variance"
    if r < pack.r_min:
        return "correlation"
    if window.min() < pack.amp_lo or window.max() > pack.amp_hi:
        return "amplitude"
    return None


def prescreen(beat, model: SubjectModel) -> tuple[bool, str | None]:
    """Template-correlation and amplitude gate for one beat."""
    reason = _prescreen_window(np.asarray(beat.window, dtype=np.float64),
                               model.pack())
    return reason is None, reason


class FeatureStream:
    """Prescreen + buffer + feature extraction, with no classifier.

    The feature sequence of a record depends only on (template pack,
    params, record), so enrollment, verification, and evaluation all share
    this path.
    """

    def __init__(self, pack: TemplatePack, params: PipelineParams):
        params.validate()
        self.pack = pack
        self.params = params
        self._dct = DctMatrix.build(n=N_WINDOW, m=params.m)
        self._times: deque[float] = deque()
        self._windows: deque[np.ndarray] = deque()
        self._last_t = -np.inf

    def process(self, window: np.ndarray, t: float):
        """Returns (reason, features, contributing); reason None = accepted."""
        if t < self._last_t:
            raise ContractError(f"beat at t={t} arrived after t={self._last_t}")
        self._last_t = t
        window = np.asarray(window, dtype=np.float64)
        if window.shape != (N_WINDOW,):
            raise ContractError(f"beat window must have {N_WINDOW} samples")
        reason = _prescreen_window(window, self.pack)
        if reason is not None:
            return reason, None, 0
        while self._times and t - self._times[0] > self.params.t_avg:
            self._times.popleft()
            self._windows.popleft()
        self._times.append(t)
        self._windows.append(window)
        stack = np.stack(self._windows)
        ranks = cluster_ranks(stack)
        weights = kaiser_weights(stack.shape[0], self.params.beta)[ranks - 1]
        avg = weighted_average(stack, weights, t=t)
        feats = dct_features(avg, self._dct)
        return None, feats, stack.shape[0]


class _LoginState:
    """Exact n-positives-in-t_v window machine.

    Only the n newest positive times matter: the state stays authenticated
    while the n-th newest is younger than t_v, so expiry instants are exact
    and independent of when advance() gets called.
    """

    def __init__(self, t_v: float, n: int):
        self.t_v = t_v
        self.n = n
        self.state = STATE_LOCKED
        self.transitions: list[tuple[float, str]] = []
        self._newest = deque(maxlen=n)

    def advance(self, now: float) -> list[tuple[float, str]]:
        emitted = []
        if self.state == STATE_AUTHENTICATED:
            expiry = self._newest[0] + self.t_v
            if expiry <= now:
                self.state = STATE_LOCKED
                self.transitions.append((expiry, STATE_LOCKED))
                emitted.append((expiry, STATE_LOCKED))
        return emitted

    def positive(self, t: float) -> list[tuple[float, str]]:
        emitted = self.advance(t)
        self._newest.append(t)
        if (self.state == STATE_LOCKED and len(self._newest) == self.n
                and self._newest[0] > t - self.t_v):
            self.state = STATE_AUTHENTICATED
            self.transitions.append((t, STATE_AUTHENTICATED))
            emitted.append((t, STATE_AUTHENTICATED))
        return emitted


@dataclass
class Timeline:
    """Login-state history of one streamed record."""

    duration_s: float
    transitions: list  # (t, new_state), alternating, initial state locked
    n_positive: int = 0
    n_negative: int = 0
    n_rejected: int = 0
    rows: list = field(default_factory=list)

    def authenticated_intervals(self) -> list[tuple[float, float]]:
        intervals = []
        state = STATE_LOCKED
        opened = 0.0
        for t, new_state in self.transitions:
            if state == STATE_LOCKED and new_state == STATE_AUTHENTICATED:
                opened = t
            elif state == STATE_AUTHENTICATED and new_state == STATE_LOCKED:
                intervals.append((opened, t))
            state = new_state
        if state == STATE_AUTHENTICATED:
            intervals.append((opened, self.duration_s))
        return intervals

    def authenticated_seconds(self, start: float = 0.0) -> float:
        total = 0.0
        for a, b in self.authenticated_intervals():
            total += max(0.0, min(b, self.duration_s) - max(a, start))
        return total

    def lockout_count(self) -> int:
        return sum(1 for _, s in self.transitions if s == STATE_LOCKED)


class VerificationPipeline:
    """One model, one stream: produces events, rows, and the Timeline."""

    def __init__(self, model: SubjectModel):
        self.model = model
        self.stream = FeatureStream(model.pack(), model.params)
        self.login = _LoginState(model.params.t_v, model.params.n)
        self.events: list[VerificationEvent] = []
        self.rows: list[tuple] = []
        self._counts = {KIND_POSITIVE: 0, KIND_NEGATIVE: 0, KIND_REJECTED: 0}

    def _transition_rows(self, transitions) -> None:
        for t, state in transitions:
            self.rows.append((t, KIND_TRANSITION, None, None, state))

    def tick(self, t: float) -> None:
        self._transition_rows(self.login.advance(t))

    def process_beat(self, beat, t: float | None = None) -> VerificationEvent:
        return self.process_window(beat.window, beat.t if t is None else t)

    def process_window(self, window: np.ndarray, t: float) -> VerificationEvent:
        reason, feats, contributing = self.stream.process(window, t)
        if reason is not None:
            kind = KIND_REJECTED
            margin = None
            self._transition_rows(self.login.advance(t))
        else:
            margin = self.model.svm.margin(feats)
            kind = KIND_POSITIVE if margin > 0.0 else KIND_NEGATIVE
            if kind == KIND_POSITIVE:
                self._transition_rows(self.login.positive(t))
            else:
                self._transition_rows(self.login.advance(t))
        self._counts[kind] += 1
        event = VerificationEvent(t=t, kind=kind, margin=margin,
                                  contributing=contributing)
        self.events.append(event)
        self.rows.append((t, kind, margin, contributing, self.login.state))
        return event

    def finish(self, duration_s: float) -> Timeline:
        self._transition_rows(self.login.advance(duration_s))
        return Timeline(duration_s=duration_s,
                        transitions=list(self.login.transitions),
                        n_positive=self._counts[KIND_POSITIVE],
                        n_negative=self._counts[KIND_NEGATIVE],
                        n_rejected=self._counts[KIND_REJECTED],
                        rows=list(self.rows))


def stream_record(model: SubjectModel, record) -> Timeline:
    """Run a whole record through the pipeline with the 1 Hz decision tick.

    At an instant where a tick and a beat coincide, the tick is applied
    first; both orders yield the same state because transitions are exact,
    but the row order in the export must be deterministic.
    """
    if record.fs != model.fs:
        raise ContractError(f"record fs {record.fs} does not match model fs {model.fs}")
    pipe = VerificationPipeline(model)
    beats = record_beats(record)
    duration = beats.duration_s
    next_tick = 1.0
    for t, window in zip(beats.times.tolist(), beats.windows):
        while next_tick <= t and next_tick <= duration:
            pipe.tick(next_tick)
            next_tick += 1.0
        pipe.process_window(window, t)
    while next_tick <= duration:
        pipe.tick(next_tick)
        next_tick += 1.0
    return pipe.finish(duration)


@dataclass(frozen=True)
class FeatureBatch:
    """Model-independent feature sequence of one record."""

    times: np.ndarray
    features: np.ndarray
    contributing: np.ndarray
    beats_detected: int
    n_rejected: int
    duration_s: float


def collect_features(beats: RecordBeats, pack: TemplatePack,
                     params: PipelineParams) -> FeatureBatch:
    """Extract the full feature sequence of a record for training/evaluation."""
    stream = FeatureStream(pack, params)
    times = []
    feats = []
    contrib = []
    n_rejected = 0
    for t, window in zip(beats.times.tolist(), beats.windows):
        reason, f, b = stream.process(window, t)
        if reason is None:
            times.append(t)
            feats.append(f)
            contrib.append(b)
        else:
            n_rejected += 1
    features = np.stack(feats) if feats else np.empty((0, params.m))
    return FeatureBatch(times=np.asarray(times), features=features,
                        contributing=np.asarray(contrib, dtype=np.int64),
                        beats_detected=beats.detected, n_rejected=n_rejected,
                        duration_s=beats.duration_s)


def replay_login(times: np.ndarray, positive: np.ndarray, duration_s: float,
                 t_v: float, n: int) -> Timeline:
    """Rebuild the exact login timeline from decision times and signs.

    Ticks are not needed here: transition instants are computed exactly,
    so replaying only the positive times gives the same Timeline as the
    full streamed run.
    """
    login = _LoginState(t_v, n)
    n_pos = 0
    for t, is_pos in zip(times, positive):
        if is_pos:
            login.positive(float(t))
            n_pos += 1
        else:
            login.advance(float(t))
    login.advance(duration_s)
    return Timeline(duration_s=duration_s, transitions=list(login.transitions),
                    n_positive=n_pos, n_negative=int(len(times) - n_pos))


def write_timeline_csv(timeline: Timeline, path: str) -> None:
    """Plot-ready export: events and login transitions in stream order."""
    with open(path, "w", newline="") as fh:
        fh.write("t_s,kind,margin,contributing,login_state\n")
        for t, kind, margin, contributing, state in timeline.rows:
            m = "" if margin is None else format(margin, ".9g")
            c = "" if contributing is None else str(contributing)
            fh.write(f"{t:.6f},{kind},{m},{c},{state}\n")
