"""Span tracing of ecgauth from outside the package.

The tracer replaces the public functions where their callers bound them
(the package uses ``from .x import y``, so a function can live under
several module attributes) and the methods on their classes with wrappers
that record one span per call: name, start, end and parent. Spans stay in
memory and are written to a CSV file when the traced run ends. Nothing in
the package itself changes, and every original is put back afterwards.

Per-layer metrics are derived from the spans afterwards. A span's self
time is its duration minus the time its child spans cover; spans are
strictly nested because the benchmark runs on one thread.
"""

from __future__ import annotations

import csv
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import ecgauth.ecgio as ecgio
import ecgauth.enroll as enroll
import ecgauth.evaluation as evaluation
import ecgauth.pipeline as pipeline
import ecgauth.qrs as qrs
import ecgauth.svm as svm
from ecgauth.errors import BoundaryError

PRESCREEN_REASONS = ("correlation", "amplitude", "zero-variance")


class Tracer:
    """Records spans and counters for one workload's traced run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.read_paths: set[str] = set()
        self.detected_records: set[tuple[str, str]] = set()
        self.missing: list[str] = []
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, on_result=None):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BoundaryError:
                if name == "qrs.segment_beat":
                    self.counts["boundary_drops"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, spans[idx][3])
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, e.g. one timed unit."""
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, self.spans[idx][3])

    def _max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def _on_read(self, args, kwargs, result) -> None:
        self.read_paths.add(os.path.abspath(args[0]))

    def _on_detect(self, args, kwargs, result) -> None:
        self.counts["detections"] += 1
        self.detected_records.add((args[0].subject_id, args[0].session_id))

    def _on_prescreen(self, args, kwargs, result) -> None:
        reason = result[0]
        self.counts["accepted" if reason is None else f"rejected.{reason}"] += 1

    def _on_ranks(self, args, kwargs, result) -> None:
        self.counts["buffer_beats"] += len(args[0])

    def _on_train(self, args, kwargs, result) -> None:
        info = result[1]
        n_rows = len(args[0])
        budget = args[3] if len(args) > 3 else kwargs.get("max_steps")
        if budget is None:
            budget = max(10000, 30 * n_rows)
        self._max("steps", float(info["steps"]))
        self._max("gap", float(info["gap"]))
        if info["steps"] >= budget:
            self.counts["budget_hits"] += 1

    # -- patching ----------------------------------------------------------

    def _targets(self):
        return [
            (ecgio, "read_record", "ecgio.read_record", self._on_read),
            (evaluation, "read_record", "ecgio.read_record", self._on_read),
            (qrs, "detect_beats", "qrs.detect_beats", self._on_detect),
            (qrs.QrsDetector, "feed", "qrs.feed", None),
            (qrs.QrsDetector, "finish", "qrs.finish", None),
            (qrs, "segment_beat", "qrs.segment_beat", None),
            (pipeline, "segment_beat", "qrs.segment_beat", None),
            (pipeline.VerificationPipeline, "process_beat",
             "pipeline.process_beat", None),
            (pipeline.FeatureStream, "process", "pipeline.feature_stream",
             self._on_prescreen),
            (pipeline, "collect_features", "pipeline.collect_features",
             self._on_detect),
            (evaluation, "collect_features", "pipeline.collect_features",
             self._on_detect),
            (evaluation, "replay_login", "pipeline.replay_login", None),
            (pipeline, "cluster_ranks", "beatmath.cluster_ranks", self._on_ranks),
            (pipeline, "kaiser_weights", "beatmath.kaiser_weights", None),
            (pipeline, "weighted_average", "beatmath.weighted_average", None),
            (pipeline, "dct_features", "beatmath.dct_features", None),
            (enroll, "train_svm", "svm.train_svm", self._on_train),
            (evaluation, "train_svm", "svm.train_svm", self._on_train),
            (svm.LinearSvm, "margin", "svm.margin", None),
            (svm.LinearSvm, "margins", "svm.margins", None),
            (evaluation, "build_template_pack", "enroll.build_template_pack", None),
            (enroll, "enroll_subject", "enroll.enroll_subject", None),
            (enroll, "save_model", "enroll.save_model", None),
            (enroll, "load_model", "enroll.load_model", None),
            (evaluation, "leave_one_out", "evaluation.leave_one_out", None),
        ]

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block. A binding the
        package no longer has is skipped and listed in ``missing``, so the
        gap shows in the output."""
        restore = []
        for owner, attr, name, hook in self._targets():
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(("id", "name", "start_s", "end_s", "parent", "workload"))
            for idx, (name, start, end, parent) in enumerate(self.spans):
                out.writerow((idx, name, repr(start), repr(end), parent,
                              self.workload))

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics named by module, as {name: (value, unit)}."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        busy: Counter = Counter()
        self_s: Counter = Counter()
        feed_calls = 0
        feed_busy = 0.0
        detect_busy = 0.0
        for idx, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            busy[name] += dur
            self_s[name] += dur - child_time[idx]
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "qrs.detect_beats":
                detect_busy += dur
            elif name in ("qrs.feed", "qrs.finish"):
                # whole-record detection inside collect_features; feeds
                # anywhere but under detect_beats are live packets
                if parent_name == "pipeline.collect_features":
                    detect_busy += dur
                elif name == "qrs.feed" and parent_name != "qrs.detect_beats":
                    feed_calls += 1
                    feed_busy += dur

        c = self.counts
        reads = calls["ecgio.read_record"]
        ranked = calls["beatmath.cluster_ranks"]
        screened = c["accepted"] + sum(c[f"rejected.{r}"] for r in PRESCREEN_REASONS)
        out = {
            "ecgio.read_record.calls": (reads, "count"),
            "ecgio.read_record.busy_s": (busy["ecgio.read_record"], "s"),
            "ecgio.reads_per_record": (
                reads / len(self.read_paths) if self.read_paths else 0.0,
                "reads/record"),
            "qrs.feed.calls": (feed_calls, "count"),
            "qrs.feed.busy_s": (feed_busy, "s"),
            "qrs.detect.busy_s": (detect_busy, "s"),
            "qrs.detections_per_record": (
                c["detections"] / len(self.detected_records)
                if self.detected_records else 0.0, "runs/record"),
            "qrs.segment_beat.calls": (calls["qrs.segment_beat"], "count"),
            "qrs.boundary_drops": (c["boundary_drops"], "count"),
            "pipeline.process_beat.self_s": (self_s["pipeline.process_beat"], "s"),
            "pipeline.feature_stream.self_s": (self_s["pipeline.feature_stream"], "s"),
            "pipeline.collect_features.calls": (
                calls["pipeline.collect_features"], "count"),
            "pipeline.collect_features.self_s": (
                self_s["pipeline.collect_features"], "s"),
            "pipeline.replay_login.busy_s": (busy["pipeline.replay_login"], "s"),
            "pipeline.prescreen.attempted": (screened, "count"),
            "pipeline.prescreen.accepted": (c["accepted"], "count"),
            "pipeline.prescreen.accept_ratio": (
                c["accepted"] / screened if screened else 0.0, "ratio"),
        }
        for reason in PRESCREEN_REASONS:
            out[f"pipeline.prescreen.rejected.{reason}"] = (
                c[f"rejected.{reason}"], "count")
        out.update({
            "beatmath.cluster_ranks.calls": (ranked, "count"),
            "beatmath.cluster_ranks.busy_s": (busy["beatmath.cluster_ranks"], "s"),
            "beatmath.cluster_ranks.mean_buffer_beats": (
                c["buffer_beats"] / ranked if ranked else 0.0, "beats"),
            "beatmath.kaiser_weights.busy_s": (busy["beatmath.kaiser_weights"], "s"),
            "beatmath.weighted_average.busy_s": (
                busy["beatmath.weighted_average"], "s"),
            "beatmath.dct_features.busy_s": (busy["beatmath.dct_features"], "s"),
            "svm.train_svm.calls": (calls["svm.train_svm"], "count"),
            "svm.train_svm.busy_s": (busy["svm.train_svm"], "s"),
            "svm.train_svm.steps_max": (self.maxima.get("steps", 0.0), "steps"),
            "svm.train_svm.gap_max": (self.maxima.get("gap", 0.0), "gap"),
            "svm.train_svm.budget_hits": (c["budget_hits"], "count"),
            "svm.margin.calls": (calls["svm.margin"], "count"),
            "svm.margin.busy_s": (busy["svm.margin"], "s"),
            "enroll.build_template_pack.busy_s": (
                busy["enroll.build_template_pack"], "s"),
            "enroll.enroll_subject.self_s": (self_s["enroll.enroll_subject"], "s"),
            "enroll.save_model.busy_s": (busy["enroll.save_model"], "s"),
            "enroll.load_model.busy_s": (busy["enroll.load_model"], "s"),
            "evaluation.leave_one_out.self_s": (
                self_s["evaluation.leave_one_out"], "s"),
        })
        return out
