"""Benchmark of ecgauth: one workload per run, results as one JSON line.

Run it from the root of an ecgauth checkout:

    python3 perfbench/run.py --workload live_verify --seed 1 --seconds 30 --trace 0

It builds the seed's input cohort once under ``.perfbench/data`` (not
timed), runs the workload on the package in ``./src``, checks every output
and prints, as the last line, ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports per-layer metrics from a traced run and writes its spans under
``.perfbench/spans``. Workloads and metrics are described in README.md
next to this file.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("live_verify", "loo_eval")
# Session length of each workload's cohort. The live stream replays the
# default cohort's full 600 s sessions; leave-one-out runs on sessions cut to
# 120 s so that a run holds several complete evaluations and reports their
# median instead of a single one.
SESSION_S = {"live_verify": 600.0, "loo_eval": 120.0}


def ensure_cohort(src: str, work: str, seed: int, session_s: float) -> str:
    """Generate the seed's cohort in a child process unless it exists."""
    data = os.path.join(work, "data", f"seed{seed}-{session_s:g}s")
    if os.path.isfile(os.path.join(data, "cohort.json")):
        return data
    partial = f"{data}.partial-{os.getpid()}"
    subprocess.run([sys.executable, os.path.join(HERE, "cohort.py"),
                    "--src", src, "--seed", str(seed), "--out", partial,
                    "--session-s", repr(session_s)],
                   check=True, timeout=600)
    os.replace(partial, data)
    return data


def git_commit(root: str) -> str | None:
    env = dict(os.environ, GIT_DIR=os.path.join(root, ".git"))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        from ecgauth import _accel
        use_numba = _accel.USE_NUMBA
    except ImportError:
        use_numba = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "ecgauth_use_numba": use_numba,
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": git_commit(root),
    }


def run_benchmark(root: str, workload: str, seed: int, seconds: float,
                  trace: bool, work: str, session_s: float | None = None,
                  stream_s: float | None = None):
    """Run one workload on the package under ``root/src``; returns its Outcome.

    ``session_s`` and ``stream_s`` override the workload's session length
    and the live stream's length, for quick checks of the benchmark."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    data = ensure_cohort(src, work, seed,
                         SESSION_S[workload] if session_s is None else session_s)
    fresh = "ecgauth" not in sys.modules
    start = perf_counter()
    import ecgauth
    import_s = perf_counter() - start if fresh else None
    if os.path.dirname(os.path.dirname(os.path.abspath(ecgauth.__file__))) != src:
        raise ImportError(f"ecgauth was imported from {ecgauth.__file__}, not {src}")
    from workloads import STREAM_S, WORKLOADS, Context

    ctx = Context(src=src, import_s=import_s, data=data, work=work, seed=seed,
                  seconds=seconds, trace=trace, stream_s=STREAM_S if stream_s is None else stream_s)
    return WORKLOADS[workload](ctx).run()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark one ecgauth workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be nonnegative")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ecgauth", "__init__.py")):
        print("error: no src/ecgauth here; run from the root of an ecgauth "
              "checkout", file=sys.stderr)
        return 2
    outcome = run_benchmark(root, args.workload, args.seed, args.seconds,
                            bool(args.trace), os.path.join(root, ".perfbench"))
    print("environment: " + json.dumps(environment(root, args.seed)))
    for note in outcome.notes:
        print(note)
    for name, failed in outcome.check_summary().items():
        print(f"check {name}: {'ok' if failed == 0 else f'{failed} failed'}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
