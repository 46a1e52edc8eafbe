"""The package names the benchmark's workloads call still resolve.

perfbench/workloads.py looks its package functions up on their modules at
call time, so a renamed or deleted name fails the benchmark run, not an
import. This reads the workloads' source and checks every such name here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import ecgauth.ecgio as ecgio
import ecgauth.enroll as enroll
import ecgauth.evaluation as evaluation
import ecgauth.pipeline as pipeline
import ecgauth.qrs as qrs

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
