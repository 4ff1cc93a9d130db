"""Run one workload of the ternkit benchmark and print its metrics.

    python3 perfbench/run.py --workload beta2 --seed 1 --seconds 20 --trace 0

Run from anywhere; paths resolve against this file. The workload runs in a
fresh child process (pipeline.py) with every BLAS thread variable set to 1
before numpy is imported, and ``src`` on its import path, so the library is
used straight from the source tree. ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics. Full records, span files and the determinism record go to
perfbench/out/. The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = HERE / "out"
PINNED = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
CHILD_TIMEOUT_S = 170


def git_commit() -> str | None:
    """HEAD of the repository this file sits in, or None outside a git checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ternkit" / "__init__.py").is_file():
        print(f"run.py: no ternkit sources under {src}", file=sys.stderr)
        return 2
    env = {**os.environ, **PINNED, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(OUT)]
    try:
        child = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: workload did not finish within {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return 3
    if child.returncode != 0:
        print(f"run.py: workload exited with code {child.returncode}", file=sys.stderr)
        return child.returncode if child.returncode > 0 else 1
    record = json.loads(child.stdout.strip().splitlines()[-1])
    record["environment"]["git_commit"] = git_commit()

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    got = record["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        missing = sorted({m["name"] for m in wanted} - set(got))
        extra = sorted(set(got) - {m["name"] for m in wanted})
        print(f"run.py: metrics do not match BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 4
    path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for m in wanted:
        print(f"{m['name']:<40} {got[m['name']]:>16.6g} {m['unit']}")
    for stage, ops in record["operations"].items():
        print(f"operations {stage:<29} {ops['attempted']:>10} attempted {ops['failed']:>6} failed")
    for message in record["check_failures"]:
        print(f"check failed: {message}")
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": {m["name"]: {"value": got[m["name"]], "unit": m["unit"]}
                                  for m in wanted}}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
