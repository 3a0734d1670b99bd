#!/usr/bin/env python3
"""Check every recorded end-to-end benchmark fingerprint.

For each (workload, size, seed) in perfbench/fingerprints.json, runs

    python3 perfbench/run.py --workload W --size S --seed N --seconds 0 \\
        --trace 1

(never with --record), which checks one untraced and one traced repetition,
and prints one row per entry: whether the simulated output fingerprint
still equals the recorded one, and how many of the run's migrations
failed. A pure host-time change must leave every row "match" with failed 0.

Usage (from the repository root):
    python3 scripts/check_fingerprints.py [--size full|small] [--seeds 1,97]

--size and --seeds restrict the sweep to a subset of the recorded entries;
the default is all of them.

Exit codes: 0 every checked entry matches with failed 0, 1 a mismatch or a
failed migration, 2 usage error or a run that did not complete.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
FINGERPRINTS = ROOT / "perfbench" / "fingerprints.json"


def entries(recorded, size, seeds):
    for key in sorted(recorded):
        workload, entry_size = key.split("/")
        if size is not None and entry_size != size:
            continue
        for seed in sorted(recorded[key], key=int):
            if seeds is None or int(seed) in seeds:
                yield workload, entry_size, int(seed), recorded[key][seed]


def check(workload, size, seed):
    """(status, failed) of one run; status is match, MISMATCH or ERROR."""
    run = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--size", size,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(run.stderr)
        return "ERROR", None
    result = json.loads(lines[-1])
    if any(line.startswith("FINGERPRINT MISMATCH") for line in lines):
        return "MISMATCH", result["failed"]
    if not any(line.startswith("fingerprint matches") for line in lines):
        return "ERROR", result["failed"]
    return ("match" if result["correct"] else "INCORRECT"), result["failed"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", choices=("full", "small"))
    ap.add_argument("--seeds", help="comma-separated seeds, e.g. 1,97")
    args = ap.parse_args()
    try:
        seeds = (None if args.seeds is None
                 else {int(s) for s in args.seeds.split(",")})
    except ValueError:
        ap.error("--seeds takes comma-separated integers")
    with open(FINGERPRINTS) as f:
        recorded = json.load(f)

    rows = list(entries(recorded, args.size, seeds))
    if not rows:
        ap.error("no recorded fingerprint matches the selection")
    print(f"{'workload':<16} {'size':<6} {'seed':>4}  {'fingerprint':<16}  "
          f"{'status':<9} failed")
    bad = errors = 0
    for workload, size, seed, fingerprint in rows:
        status, failed = check(workload, size, seed)
        print(f"{workload:<16} {size:<6} {seed:>4}  {fingerprint:<16}  "
              f"{status:<9} {'-' if failed is None else failed}", flush=True)
        if status == "ERROR":
            errors += 1
        elif status != "match" or failed != 0:
            bad += 1
    print(f"{len(rows)} entries: {len(rows) - bad - errors} ok, {bad} bad, "
          f"{errors} did not complete")
    return 2 if errors else 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
