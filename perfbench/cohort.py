"""Write the benchmark's input cohort for one seed.

Usage: python3 perfbench/cohort.py --src SRC --seed N --out DIR [--session-s S]

Writes ecgauth's default 3-subject cohort (records, truth sidecars and
manifest) plus ``cohort.json``, which names the live stream's owner and
intruder and gives the cohort's total seconds of signal. Roles go by
heart-rate rank, not by subject id: the cohort's three heart rates are the
same set for every seed, only permuted, so the live stream carries the same
number of beats whatever the seed. ``--session-s`` below the default
cohort's 600 s cuts every session short, for quick checks of the benchmark.

The benchmark runs this in a child process so that generating the inputs
leaves no trace in the measuring process's peak memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

N_SUBJECTS = 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--session-s", type=float, default=600.0)
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    from ecgauth.synth import default_cohort, write_cohort

    cohort = default_cohort(n_subjects=N_SUBJECTS, seed=args.seed)
    cohort = [dataclasses.replace(subj, sessions=tuple(
        _cut(sess, args.session_s) for sess in subj.sessions)) for subj in cohort]
    write_cohort(cohort, args.out)
    by_rate = sorted(cohort, key=lambda s: s.morph.hr_bpm)
    info = {
        "owner": by_rate[1].subject_id,
        "intruder": by_rate[2].subject_id,
        "signal_s": sum(len(sess.record.samples) / sess.record.fs
                        for subj in cohort for sess in subj.sessions),
    }
    with open(os.path.join(args.out, "cohort.json"), "w") as fh:
        json.dump(info, fh)
    return 0


def _cut(session, seconds: float):
    n = round(seconds * session.record.fs)
    if n >= len(session.record.samples):
        return session
    record = dataclasses.replace(session.record, samples=session.record.samples[:n])
    return dataclasses.replace(session, record=record,
                               truth=[r for r in session.truth if r < n])


if __name__ == "__main__":
    sys.exit(main())
