"""The package names the benchmark's workloads call still resolve.

perfbench/workloads.py looks its package functions up on their modules at
call time, so a renamed or deleted name fails the benchmark run, not an
import. This reads the workloads' source and checks every such name here.
The tracer times the live path's beat math through pipeline's bindings,
so the live path must call each of them for every accepted beat.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np

import ecgauth.ecgio as ecgio
import ecgauth.enroll as enroll
import ecgauth.evaluation as evaluation
import ecgauth.pipeline as pipeline
import ecgauth.qrs as qrs
from helpers import beat_shape, make_beat, tiny_model

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
MODULES = {"ecgio": ecgio, "enroll": enroll, "evaluation": evaluation,
           "pipeline": pipeline, "qrs": qrs}


def _module_attributes() -> set[tuple[str, str]]:
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    return {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in MODULES}


def test_every_package_name_the_workloads_read_resolves():
    names = _module_attributes()
    assert names
    missing = sorted(f"{module}.{attr}" for module, attr in names
                     if not hasattr(MODULES[module], attr))
    assert not missing


def test_live_path_methods_the_workloads_call_exist():
    for cls, method in ((pipeline.VerificationPipeline, "process_beat"),
                        (pipeline.VerificationPipeline, "tick"),
                        (pipeline.VerificationPipeline, "finish"),
                        (qrs.QrsDetector, "feed")):
        assert callable(getattr(cls, method, None)), f"{cls.__name__}.{method}"


def test_live_path_calls_each_traced_beatmath_binding_once_per_accepted_beat(monkeypatch):
    # a live path that stopped calling one would read 0 in its traced metric
    names = ("cluster_ranks", "kaiser_weights", "weighted_average", "dct_features")
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(pipeline, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(pipeline, name, counted)
    pipe = pipeline.VerificationPipeline(tiny_model(template=beat_shape()))
    rng = np.random.default_rng(2)
    kinds = []
    for k in range(6):
        window = beat_shape() + rng.normal(0.0, 2.0, qrs.N_WINDOW)
        if k == 3:
            window = -window  # anticorrelated, so the prescreen rejects it
        kinds.append(pipe.process_beat(make_beat(window, 0.8 * k)))
    accepted = sum(kind != pipeline.KIND_REJECTED for kind in kinds)
    assert accepted == 5
    assert counts == dict.fromkeys(names, accepted)
