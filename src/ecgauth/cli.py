"""Command-line entry point: synth, enroll, verify, evaluate.

Every run resolves its configuration first and writes it to run.json in the
output directory, so any result can be reproduced from run.json plus the
input files. No command reads the wall clock; the only randomness is
synth's --seed flag, which feeds the synthetic generator.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .ecgio import read_manifest, read_record
from .enroll import PipelineParams, enroll_subject, load_model
from .errors import ContractError, EcgAuthError
from .evaluation import (leave_one_out, parameter_sweep, timeline_metrics,
                         write_report_csv, write_sweep_csv)
from .pipeline import stream_record, write_timeline_csv
from .qrs import LEFT, N_WINDOW
from .synth import default_cohort, write_cohort


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-avg", type=float, default=18.0, dest="t_avg",
                   help="beat-buffer age horizon in seconds")
    p.add_argument("--m", type=int, default=40, help="number of DCT features")
    p.add_argument("--r-min", type=float, default=0.9, dest="r_min",
                   help="prescreen correlation threshold")
    p.add_argument("--t-v", type=float, default=30.0, dest="t_v",
                   help="login decision window in seconds")
    p.add_argument("--n", type=int, default=10,
                   help="positive verifications required within t_v")
    p.add_argument("--beta", type=float, default=6.0,
                   help="Kaiser weighting shape parameter")


def _params(args) -> PipelineParams:
    params = PipelineParams(t_avg=args.t_avg, m=args.m, r_min=args.r_min,
                            t_v=args.t_v, n=args.n, beta=args.beta)
    params.validate()
    return params


def _params_config(params: PipelineParams) -> dict:
    return {"t_avg": params.t_avg, "m": params.m, "r_min": params.r_min,
            "t_v": params.t_v, "n": params.n, "beta": params.beta,
            "n_window": N_WINDOW, "left": LEFT}


def _write_run_json(out_dir: str, command: str, config: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    doc = {"version": __version__, "command": command, "config": config}
    with open(os.path.join(out_dir, "run.json"), "w", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_synth(args) -> int:
    _write_run_json(args.out, "synth", {
        "subjects": args.subjects, "seed": args.seed, "out": args.out,
    })
    cohort = default_cohort(n_subjects=args.subjects, seed=args.seed)
    manifest = write_cohort(cohort, args.out)
    n_records = sum(len(s.sessions) for s in cohort)
    print(f"wrote {len(cohort)} subjects, {n_records} records")
    print(f"manifest: {manifest}")
    return 0


def cmd_enroll(args) -> int:
    params = _params(args)
    _write_run_json(args.out, "enroll", {
        "manifest": args.manifest, "out": args.out,
        "params": _params_config(params),
    })
    entries = read_manifest(args.manifest)
    subjects = sorted({e.subject_id for e in entries})
    owners = [s for s in subjects
              if any(e.subject_id == s and e.role == "enroll" for e in entries)
              and any(e.subject_id == s and e.role == "test" for e in entries)]
    if not owners:
        raise ContractError("manifest has no subject with both enroll and test sessions")
    models_dir = os.path.join(args.out, "models")
    provenance = []
    for subject in owners:
        _, rows = enroll_subject(entries, subject, params, out_dir=models_dir)
        provenance.extend(rows)
        print(f"enrolled {subject}")
    with open(os.path.join(args.out, "provenance.csv"), "w", newline="") as fh:
        fh.write("subject,session,role,beats_detected,beats_surviving\n")
        for row in provenance:
            fh.write(",".join(str(v) for v in row) + "\n")
    print(f"models: {models_dir}")
    return 0


def cmd_verify(args) -> int:
    _write_run_json(args.out, "verify", {
        "model": args.model, "record": args.record, "out": args.out,
    })
    model = load_model(args.model)
    record = read_record(args.record)
    timeline = stream_record(model, record)
    path = os.path.join(args.out, "timeline.csv")
    write_timeline_csv(timeline, path)
    decisions = timeline.n_positive + timeline.n_negative
    rate = f"{timeline.n_positive / decisions:.4f}" if decisions else "N/A"
    print(f"authenticated_s: {timeline.authenticated_seconds():.1f}")
    print(f"lockouts: {timeline.lockout_count()}")
    print(f"positive_rate: {rate}")
    print(f"timeline: {path}")
    return 0


def _parse_sweep(tokens: list[str]) -> tuple[list[float], list[int]]:
    grids: dict[str, list[str]] = {}
    for tok in tokens:
        name, sep, vals = tok.partition("=")
        if not sep or name not in ("t_avg", "m"):
            raise ContractError(f"bad sweep token {tok!r}; expected t_avg=... or m=...")
        parts = [v for v in vals.split(",") if v]
        if not parts:
            raise ContractError(f"empty grid in sweep token {tok!r}")
        grids[name] = parts
    if set(grids) != {"t_avg", "m"}:
        raise ContractError("sweep needs both t_avg=... and m=... grids")
    try:
        t_grid = [float(v) for v in grids["t_avg"]]
        m_grid = [int(v) for v in grids["m"]]
    except ValueError as exc:
        raise ContractError(f"bad sweep value: {exc}") from None
    return t_grid, m_grid


def cmd_evaluate(args) -> int:
    params = _params(args)
    # reject malformed sweep grids before the expensive evaluation runs
    sweep_grids = _parse_sweep(args.sweep) if args.sweep else None
    config = {
        "manifest": args.manifest, "out": args.out,
        "jobs": args.jobs, "params": _params_config(params),
        "sweep": args.sweep,
    }
    _write_run_json(args.out, "evaluate", config)
    entries = read_manifest(args.manifest)
    reports, cells = leave_one_out(entries, params, jobs=args.jobs)
    report_path = os.path.join(args.out, "report.csv")
    write_report_csv(reports, report_path)
    genuine = [t for cell in cells for t in cell.genuine_timelines]
    intruder = [t for cell in cells for t in cell.intruder_timelines]
    metrics = timeline_metrics(genuine, intruder)
    with open(os.path.join(args.out, "metrics.json"), "w", newline="") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"report: {report_path}")
    for key in sorted(metrics):
        value = metrics[key]
        print(f"{key}: {'N/A' if value is None else format(value, '.6g')}")
    if sweep_grids is not None:
        t_grid, m_grid = sweep_grids
        sweep_cells, best = parameter_sweep(entries, t_grid, m_grid, params,
                                            jobs=args.jobs)
        sweep_path = os.path.join(args.out, "sweep.csv")
        write_sweep_csv(sweep_cells, sweep_path)
        print(f"sweep: {sweep_path}")
        best_bar = "N/A" if best.avg_bar is None else f"{100.0 * best.avg_bar:.2f}"
        print(f"best cell: t_avg={best.t_avg:g} M={best.m} avg_bar={best_bar}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecgauth",
        description="Continuous ECG-based user verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic cohort")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--subjects", type=int, default=8)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("enroll", help="build one model per multi-session subject")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_param_flags(p)
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("verify", help="stream one record against one model")
    p.add_argument("--model", required=True)
    p.add_argument("--record", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("evaluate", help="leave-one-out evaluation over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--sweep", nargs="+", metavar="GRID",
                   help="e.g. --sweep t_avg=6,12,18 m=20,40")
    _add_param_flags(p)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EcgAuthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
