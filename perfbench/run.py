#!/usr/bin/env python3
"""Build and run one workload of the vmig end-to-end benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|small] [--record]

Builds perfbench/ (the vmig library sources plus the vmig_perfbench program)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset, then runs vmig_perfbench for --seconds of wall time. Its
report is passed through; the last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. `correct` also requires the simulated-output
fingerprint to equal the one recorded in fingerprints.json for this
workload, size and seed, when one is recorded; --record stores it instead,
and refuses to when the run is not otherwise correct.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_roundtrip", "evac_10k", "evac_chaos_obs")
FINGERPRINTS = HERE / "fingerprints.json"


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / target / "perfbench").resolve()


def build(out_dir):
    """Configure (first run only) and build; all output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"vmig sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (out_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out_dir), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out_dir / "vmig_perfbench"


def load_json(path, default=None):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        if default is not None:
            return default
        fail(f"{path} not found")
    except json.JSONDecodeError as e:
        fail(f"{path}: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "small"))
    ap.add_argument("--record", action="store_true",
                    help="store this run's fingerprint in fingerprints.json")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")

    bench = load_json(ROOT / "BENCHMARK.json")
    wanted = bench["end_to_end" if args.trace == 0 else "per_layer"]

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        fail(f"vmig_perfbench exited with status {run.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    correct = result["correct"]
    key = f"{args.workload}/{args.size}"
    recorded = load_json(FINGERPRINTS, default={})
    expected = recorded.get(key, {}).get(str(args.seed))
    if args.record:
        if not correct or result["failed"] != 0:
            fail("not recording the fingerprint of an incorrect run")
        recorded.setdefault(key, {})[str(args.seed)] = result["fingerprint"]
        with open(FINGERPRINTS, "w") as f:
            json.dump(recorded, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"recorded fingerprint {result['fingerprint']} for {key} "
              f"seed {args.seed}")
    elif expected is not None and expected != result["fingerprint"]:
        correct = False
        print(f"FINGERPRINT MISMATCH for {key} seed {args.seed}: recorded "
              f"{expected}, got {result['fingerprint']} (the simulated "
              f"outputs changed)")
    elif expected is not None:
        print(f"fingerprint matches the recorded value for {key} "
              f"seed {args.seed}")

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"vmig_perfbench did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = got
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
