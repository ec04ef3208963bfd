"""krchar benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload gch-direct --seed 1 --seconds 25 --trace 0

The workload runs in a fresh single-threaded Python process that imports
``krchar`` from ``src/``, with ``KRCHAR_CACHE`` removed from its environment
and ``PYTHONHASHSEED`` pinned.  Set-up time is measured by the worker, in
short-lived processes that only import the package and build the workload's
root systems.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUN_TIMEOUT_S = 150


def bench_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "KRCHAR_CACHE"}
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0")
    return env


def run_worker(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    """Run the worker in a session of its own, so that on a timeout the
    set-up children it may have started are killed with it."""
    with subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(argv, proc.returncode, out)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "krchar", "__init__.py")):
        print(f"error: no krchar package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    env = bench_env()
    tmp_root = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        proc = run_worker(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", tmp],
            env)
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(tmp_root):
            os.rmdir(tmp_root)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    measured = result["metrics"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in measured:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("properties " + json.dumps(result["properties"], sort_keys=True))
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
