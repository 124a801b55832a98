#!/usr/bin/env python
"""Digest smoke test of the repository benchmark (``perfbench/run.py``).

Runs every perfbench workload briefly (``--seconds 2``) at one seed and
requires, from each run:

* the closing JSON line to report ``correct: true`` and ``failed: 0``
  (every pass reproduced the run's own reference event table);
* the reference event table's ``table_digest()`` (the ``inputs ...
  reference <digest>`` line) to equal the committed digest below, so a
  change that moves any event on any workload fails here even when every
  pass agrees with itself.

A change that moves events on purpose updates :data:`REFERENCE_DIGESTS`
(and the ROADMAP's baseline table) in the same commit.  The benchmark
itself is only run, never edited.  Used by the ``perfbench-smoke`` CI
job::

    python tools/perfbench_smoke.py            # seed 2004, all workloads
    python tools/perfbench_smoke.py --seed 81  # the held-out seed

Exit code 0 iff every workload held.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RUNNER = REPO_ROOT / "perfbench" / "run.py"
WORKLOADS = ("csv_week", "replay_4w", "wide_p1024")
#: First 16 hex digits of each workload's reference ``table_digest()``.
REFERENCE_DIGESTS = {
    2004: {"csv_week": "2df702cc8f66bddb", "replay_4w": "feae28231386b31c",
           "wide_p1024": "e48eabd560a5340e"},
    81: {"csv_week": "6ff3fd8f70c5424e", "replay_4w": "a4a93163ab6dc73c",
         "wide_p1024": "d97c4e3e8fdbc06c"},
}
#: A cold csv_week run first builds its flow-record CSV (minutes).
TIMEOUT_S = 1200
_REFERENCE_LINE = re.compile(r"^inputs (\S+) seed=(\d+):.* reference (\w+)$",
                             re.MULTILINE)


def check_workload(workload: str, seed: int, seconds: float) -> list:
    """Run one workload; return its failure messages (empty when it held)."""
    process = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        return [f"exit code {process.returncode}: "
                f"{process.stderr.strip()[-2000:]}"]
    failures = []
    summary = json.loads(lines[-1])
    if summary.get("correct") is not True:
        failures.append(f"correct is {summary.get('correct')!r}")
    if summary.get("failed") != 0:
        failures.append(f"failed is {summary.get('failed')!r}")
    match = _REFERENCE_LINE.search(process.stdout)
    expected = REFERENCE_DIGESTS.get(seed, {}).get(workload)
    if match is None:
        failures.append("no 'inputs ... reference <digest>' line")
    elif expected is not None and match.group(3) != expected:
        failures.append(f"reference digest {match.group(3)}, "
                        f"expected {expected}")
    digest = match.group(3) if match else "?"
    print(f"{workload} seed={seed}: digest {digest} "
          f"(expected {expected or 'not recorded'}), "
          f"attempted {summary.get('attempted')}, "
          f"failed {summary.get('failed')}", flush=True)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable)")
    args = parser.parse_args(argv)
    failed = False
    for workload in args.workload or WORKLOADS:
        for failure in check_workload(workload, args.seed, args.seconds):
            print(f"FAIL: {workload} seed={args.seed}: {failure}")
            failed = True
    print("perfbench smoke: " + ("FAILED" if failed else "ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
