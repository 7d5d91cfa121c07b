#!/usr/bin/env python3
"""Build and run the benchmark.

    python3 perfbench/run.py --workload train|search|serve|all \
        --seed N --seconds S --trace 0|1 [--out results.jsonl]
    python3 perfbench/run.py --workload serve-capacity --seconds S

Run from the repository root. The program (perfbench/perfbench.ml) is
built from source with dune, then each workload runs in its own process,
so set-up time and peak memory belong to that workload alone. A workload
prints its metrics, a correctness verdict and, as the last line of
standard output, one JSON object. With --out, each result is also
appended to a JSONL file for compare.py. Exits non-zero without a result
when the build or a run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["train", "search", "serve"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def build():
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        [dune, "build", "--root", ROOT, "--display", "quiet", "./perfbench/perfbench.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=850,
    )
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.exit("perfbench: build failed")


def run_one(workload, seed, seconds, trace):
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # The library writes scratch files through Filename.temp_file; keep
    # them inside the checkout.
    env = dict(os.environ, TMPDIR=tmp)
    cmd = [
        EXE,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--work", WORK,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: {workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all", "serve-capacity"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="append each result as one JSON line to this file")
    args = ap.parse_args()

    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for w in workloads:
        lines, result = run_one(w, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        if args.out:
            record = {"workload": w, "seed": args.seed, "trace": args.trace, **result}
            with open(args.out, "a") as f:
                f.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
