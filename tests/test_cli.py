"""End-to-end command flows, run manifests, and exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ecgauth
import ecgauth.ecgio as ecgio
from ecgauth.cli import _parse_sweep, main
from ecgauth.ecgio import EcgRecord, read_manifest, write_manifest, write_record
from ecgauth.errors import ContractError


def _stdout_value(out: str, key: str) -> str:
    line = next(ln for ln in out.splitlines() if ln.startswith(f"{key}:"))
    return line.split(":", 1)[1].strip()


@pytest.fixture(scope="module")
def enrolled3(cohort3_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("enrolled3")
    rc = main(["enroll", "--manifest", str(cohort3_dir / "manifest.csv"),
               "--out", str(out)])
    assert rc == 0
    return out


# -- synth ---------------------------------------------------------------------

def test_synth_writes_cohort_and_run_manifest(tmp_path, capsys):
    out = tmp_path / "cohort"
    assert main(["synth", "--out", str(out), "--subjects", "2",
                 "--seed", "3"]) == 0
    run = json.loads((out / "run.json").read_text())
    assert run["command"] == "synth"
    assert run["config"] == {"subjects": 2, "seed": 3, "out": str(out)}
    assert isinstance(run["version"], str)
    assert (out / "manifest.csv").exists()
    assert sorted(p.name for p in (out / "records").glob("subj*_s*.csv")) == [
        "subj01_s1.csv", "subj01_s1_truth.csv", "subj01_s2.csv",
        "subj01_s2_truth.csv", "subj02_s1.csv", "subj02_s1_truth.csv",
        "subj02_s2.csv", "subj02_s2_truth.csv"]
    assert "wrote 2 subjects, 4 records" in capsys.readouterr().out


def test_synth_is_deterministic(tmp_path):
    for d in ("a", "b"):
        assert main(["synth", "--out", str(tmp_path / d), "--subjects", "2",
                     "--seed", "5"]) == 0
    for rel in ("manifest.csv", "records/subj02_s2.csv"):
        assert ((tmp_path / "a" / rel).read_bytes()
                == (tmp_path / "b" / rel).read_bytes())


def test_synth_rejects_single_subject(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "c"), "--subjects", "1"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_synth_rejects_negative_seed(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "c"), "--subjects", "2",
                 "--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: seed")
    assert not (tmp_path / "c").exists()


# -- enroll --------------------------------------------------------------------

def test_enroll_writes_models_and_provenance(enrolled3):
    for subject in ("subj01", "subj02", "subj03"):
        assert (enrolled3 / "models" / f"{subject}.json").exists()
    lines = (enrolled3 / "provenance.csv").read_text().splitlines()
    assert lines[0] == "subject,session,role,beats_detected,beats_surviving"
    assert len(lines) == 1 + 9  # 3 owners x (own enroll + 2 population records)
    for line in lines[1:]:
        subject, session, role, detected, surviving = line.split(",")
        assert role == "enroll" and session == "s1"
        assert 0 <= int(surviving) <= int(detected)


def test_enroll_missing_manifest_fails(tmp_path, capsys):
    assert main(["enroll", "--manifest", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


def test_enroll_rejects_bad_params(cohort3_dir, tmp_path, capsys):
    assert main(["enroll", "--manifest", str(cohort3_dir / "manifest.csv"),
                 "--out", str(tmp_path / "out"), "--r-min", "1.5"]) == 1
    assert "r_min" in capsys.readouterr().err


# -- verify --------------------------------------------------------------------

def test_verify_accepts_owner_record(enrolled3, cohort3_dir, tmp_path, capsys):
    out = tmp_path / "own"
    rc = main(["verify", "--model", str(enrolled3 / "models" / "subj01.json"),
               "--record", str(cohort3_dir / "records" / "subj01_s2.csv"),
               "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert float(_stdout_value(stdout, "authenticated_s")) > 500.0
    assert float(_stdout_value(stdout, "positive_rate")) > 0.9
    assert (out / "timeline.csv").exists()
    assert (out / "run.json").exists()


def test_verify_locks_out_known_intruder(enrolled3, cohort3_dir, tmp_path, capsys):
    out = tmp_path / "intruder"
    rc = main(["verify", "--model", str(enrolled3 / "models" / "subj01.json"),
               "--record", str(cohort3_dir / "records" / "subj02_s2.csv"),
               "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert float(_stdout_value(stdout, "authenticated_s")) == 0.0
    assert float(_stdout_value(stdout, "lockouts")) == 0


def test_verify_rejects_sample_rate_mismatch(enrolled3, tmp_path, capsys):
    slow = tmp_path / "slow.csv"
    write_record(EcgRecord("x", "s1", 256, np.zeros(256, dtype=np.int64)), slow)
    assert main(["verify", "--model", str(enrolled3 / "models" / "subj01.json"),
                 "--record", str(slow), "--out", str(tmp_path / "out")]) == 1
    assert "fs" in capsys.readouterr().err


def _model_with(path, value):
    """An edit of a model document: the field at path (a key sequence) set to
    value, or to value(old) when value is callable."""
    def edit(doc):
        *outer, last = path
        for key in outer:
            doc = doc[key]
        doc[last] = value(doc[last]) if callable(value) else value
    return edit


@pytest.mark.parametrize("body", [
    '{"format_version": 1}', "[]", "not json",
    pytest.param(_model_with(["svm", "w"], lambda w: w[:-1]), id="short-w"),
    pytest.param(_model_with(["svm", "mu"], lambda mu: mu + [0.0]), id="long-mu"),
    pytest.param(_model_with(["template"], lambda t: t[:100]), id="short-template"),
    pytest.param(_model_with(["fs"], 512.9), id="fractional-fs"),
    pytest.param(_model_with(["fs"], True), id="boolean-fs"),
    pytest.param(_model_with(["fs"], 0), id="zero-fs"),
    pytest.param(_model_with(["svm", "b"], float("inf")), id="infinite-b"),
    pytest.param(_model_with(["svm", "w"], lambda w: [float("nan")] + w[1:]), id="nan-w"),
    pytest.param(_model_with(["svm", "sigma"], lambda s: [0.0] + s[1:]), id="zero-sigma"),
    pytest.param(_model_with(["template"], lambda t: [float("inf")] + t[1:]),
                 id="infinite-template"),
    pytest.param(_model_with(["amp_lo"], float("-inf")), id="infinite-amp-lo"),
    pytest.param(_model_with(["subject_id"], ["x"]), id="list-subject-id"),
])
def test_verify_rejects_malformed_model(enrolled3, cohort3_dir, tmp_path, capsys, body):
    if callable(body):
        doc = json.loads((enrolled3 / "models" / "subj01.json").read_text())
        body(doc)
        body = json.dumps(doc)
    model = tmp_path / "model.json"
    model.write_text(body)
    assert main(["verify", "--model", str(model),
                 "--record", str(cohort3_dir / "records" / "subj01_s2.csv"),
                 "--out", str(tmp_path / "out")]) == 1
    assert "malformed model file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_RECORD_HEAD = b"fs_hz,512\nsubject,s\nsession,a\nn,adc\n"


@pytest.mark.parametrize("command, bad", [
    pytest.param("verify", _RECORD_HEAD + b"0,1\n1,\xff2\n", id="record-not-utf8"),
    pytest.param("verify", _RECORD_HEAD + b"0,1\n1,99999999999999999999999\n",
                 id="record-beyond-int64"),
    pytest.param("verify", _RECORD_HEAD, id="record-header-only"),
    pytest.param("evaluate", b"subject,session,path,role\na,s1,a1.csv,enroll\xff\n",
                 id="manifest-not-utf8"),
])
def test_malformed_text_input_is_an_error_not_a_traceback(enrolled3, tmp_path, command, bad):
    path = tmp_path / "input.csv"
    path.write_bytes(bad)
    out = tmp_path / "out"
    args = (["verify", "--model", str(enrolled3 / "models" / "subj01.json"), "--record"]
            if command == "verify" else ["evaluate", "--manifest"])
    src = os.path.dirname(os.path.dirname(os.path.abspath(ecgauth.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-m", "ecgauth.cli", *args, str(path),
                          "--out", str(out)], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 1
    assert run.stderr.startswith("error:")
    assert "Traceback" not in run.stderr
    assert not out.exists()


# -- evaluate ------------------------------------------------------------------

def test_evaluate_writes_report_and_metrics(cohort3_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = main(["evaluate", "--manifest", str(cohort3_dir / "manifest.csv"),
               "--out", str(out)])
    assert rc == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0].startswith("subject,")
    assert [ln.split(",")[0] for ln in lines[1:]] == ["subj01", "subj02", "subj03"]
    assert all(ln.split(",")[1] == "00:10" for ln in lines[1:])
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == {"genuine_lockouts_per_hour",
                            "mean_time_to_intruder_lockout_s",
                            "total_intruder_access_s"}
    assert metrics["total_intruder_access_s"] >= 0.0
    run = json.loads((out / "run.json").read_text())
    assert run["command"] == "evaluate"
    assert run["config"]["jobs"] == 1 and run["config"]["sweep"] is None
    assert run["config"]["params"]["m"] == 40
    assert "report:" in capsys.readouterr().out


@pytest.mark.parametrize("subjects", [pytest.param(None, id="missing-manifest"),
                                      pytest.param(("subj01", "subj02"), id="two-subjects")])
def test_refused_evaluate_leaves_no_output(cohort3_dir, tmp_path, capsys, subjects):
    manifest = tmp_path / "manifest.csv"  # missing unless subjects are given
    if subjects is not None:
        write_manifest([e for e in read_manifest(cohort3_dir / "manifest.csv")
                        if e.subject_id in subjects], manifest)
    out = tmp_path / "eval"
    assert main(["evaluate", "--manifest", str(manifest), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_evaluate_rejects_bad_sweep_before_running(cohort3_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = main(["evaluate", "--manifest", str(cohort3_dir / "manifest.csv"),
               "--out", str(out), "--sweep", "t_avg=6,18"])
    assert rc == 1
    assert "sweep needs both" in capsys.readouterr().err
    assert not (out / "report.csv").exists()  # refused before any work


def test_evaluate_rejects_infinite_decision_window_before_reading(
        cohort3_dir, tmp_path, capsys, monkeypatch):
    def no_read(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(ecgio, "read_record", no_read)
    out = tmp_path / "eval"
    assert main(["evaluate", "--manifest", str(cohort3_dir / "manifest.csv"),
                 "--out", str(out), "--t-v", "inf"]) == 1
    assert "t_v" in capsys.readouterr().err
    assert not out.exists()


def test_parse_sweep_grids():
    assert _parse_sweep(["t_avg=6,12,18", "m=20,40"]) == ([6.0, 12.0, 18.0], [20, 40])
    with pytest.raises(ContractError, match="bad sweep token"):
        _parse_sweep(["bogus"])
    with pytest.raises(ContractError, match="bad sweep token"):
        _parse_sweep(["horizon=6", "m=20"])
    with pytest.raises(ContractError, match="empty grid"):
        _parse_sweep(["t_avg=", "m=20"])
    with pytest.raises(ContractError, match="bad sweep value"):
        _parse_sweep(["t_avg=six", "m=20"])
    with pytest.raises(ContractError, match="needs both"):
        _parse_sweep(["m=20"])
    # a later token would silently replace the earlier grid
    with pytest.raises(ContractError, match="repeated sweep grid t_avg="):
        _parse_sweep(["t_avg=6", "m=20", "t_avg=12"])
    with pytest.raises(ContractError, match="repeated sweep grid m="):
        _parse_sweep(["t_avg=6", "m=20", "m=40"])


# -- argument handling -----------------------------------------------------------

def test_unknown_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path), "--bogus"])
    assert exc.value.code == 2


def test_missing_required_argument_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["synth"])
    assert exc.value.code == 2


@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_evaluate_refuses_jobs_below_one(cohort3_dir, tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--manifest", str(cohort3_dir / "manifest.csv"),
              "--out", str(tmp_path / "eval"), "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()
