"""Command-line entry point: synth, enroll, verify, evaluate.

Every run resolves its configuration first and, once its outputs are
written, records it in run.json in the output directory, so any result can
be reproduced from run.json plus the input files. A refused run creates no
output directory and leaves no run.json. No command reads the wall clock;
the only randomness is synth's --seed flag, which feeds the synthetic
generator.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import __version__
from .ecgio import read_manifest, read_record
from .enroll import enroll_owners, load_model, owners, save_model
from .errors import ContractError, EcgAuthError
from .evaluation import evaluate, timeline_metrics, write_report_csv, write_sweep_csv
from .pipeline import PipelineParams, stream_record, write_timeline_csv
from .qrs import LEFT, N_WINDOW
from .synth import default_cohort, write_cohort

_PARAM_HELP = {
    "t_avg": "beat-buffer age horizon in seconds",
    "m": "number of DCT features",
    "r_min": "prescreen correlation threshold",
    "t_v": "login decision window in seconds",
    "n": "positive verifications required within t_v",
    "beta": "Kaiser weighting shape parameter",
}


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    """One flag per PipelineParams field, defaulting to the field's default."""
    for f in dataclasses.fields(PipelineParams):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                       default=f.default, dest=f.name, help=_PARAM_HELP[f.name])


def _params(args) -> PipelineParams:
    return PipelineParams(**{f.name: getattr(args, f.name)
                             for f in dataclasses.fields(PipelineParams)})


def _params_config(params: PipelineParams) -> dict:
    return {**dataclasses.asdict(params), "n_window": N_WINDOW, "left": LEFT}


def _write_run_json(out_dir: str, command: str, config: dict) -> None:
    """Record a finished run's configuration beside its outputs."""
    doc = {"version": __version__, "command": command, "config": config}
    with open(os.path.join(out_dir, "run.json"), "w", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_synth(args) -> int:
    config = {"subjects": args.subjects, "seed": args.seed, "out": args.out}
    cohort = default_cohort(n_subjects=args.subjects, seed=args.seed)
    manifest = write_cohort(cohort, args.out)
    _write_run_json(args.out, "synth", config)
    n_records = sum(len(s.sessions) for s in cohort)
    print(f"wrote {len(cohort)} subjects, {n_records} records")
    print(f"manifest: {manifest}")
    return 0


def cmd_enroll(args) -> int:
    params = _params(args)
    config = {"manifest": args.manifest, "out": args.out,
              "params": _params_config(params)}
    entries = read_manifest(args.manifest)
    subjects = owners(entries)
    enrolled = enroll_owners(entries, subjects, params)
    models_dir = os.path.join(args.out, "models")
    os.makedirs(models_dir, exist_ok=True)
    provenance = []
    for subject, (model, rows) in zip(subjects, enrolled):
        save_model(model, os.path.join(models_dir, f"{subject}.json"))
        provenance.extend(rows)
        print(f"enrolled {subject}")
    with open(os.path.join(args.out, "provenance.csv"), "w", newline="") as fh:
        fh.write("subject,session,role,beats_detected,beats_surviving\n")
        for row in provenance:
            fh.write(",".join(str(v) for v in row) + "\n")
    _write_run_json(args.out, "enroll", config)
    print(f"models: {models_dir}")
    return 0


def cmd_verify(args) -> int:
    config = {"model": args.model, "record": args.record, "out": args.out}
    model = load_model(args.model)
    record = read_record(args.record)
    timeline = stream_record(model, record)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "timeline.csv")
    write_timeline_csv(timeline, path)
    _write_run_json(args.out, "verify", config)
    decisions = timeline.n_positive + timeline.n_negative
    rate = f"{timeline.n_positive / decisions:.4f}" if decisions else "N/A"
    print(f"authenticated_s: {timeline.authenticated_seconds():.1f}")
    print(f"lockouts: {timeline.lockout_count()}")
    print(f"positive_rate: {rate}")
    print(f"timeline: {path}")
    return 0


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _parse_sweep(tokens: list[str]) -> tuple[list[float], list[int]]:
    grids: dict[str, list[str]] = {}
    for tok in tokens:
        name, sep, vals = tok.partition("=")
        if not sep or name not in ("t_avg", "m"):
            raise ContractError(f"bad sweep token {tok!r}; expected t_avg=... or m=...")
        if name in grids:
            raise ContractError(f"repeated sweep grid {name}= in token {tok!r}")
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
    entries = read_manifest(args.manifest)
    reports, cells, sweep = evaluate(entries, params, sweep_grids, jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
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
    if sweep is not None:
        sweep_cells, best = sweep
        sweep_path = os.path.join(args.out, "sweep.csv")
        write_sweep_csv(sweep_cells, sweep_path)
        print(f"sweep: {sweep_path}")
        best_bar = "N/A" if best.avg_bar is None else f"{100.0 * best.avg_bar:.2f}"
        print(f"best cell: t_avg={best.t_avg:g} M={best.m} avg_bar={best_bar}")
    _write_run_json(args.out, "evaluate", config)
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
    p.add_argument("--jobs", type=_jobs, default=1)
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
