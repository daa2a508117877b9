"""summinglab suite benchmark: cold CLI processes, checked against references.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/summinglab`` must exist; the
benchmark imports the program from there and nowhere else). One run:

1. measurement: starts fresh worker processes (``worker.py``) one after
   another, each running the whole workload once, cold, for the whole
   number of workers whose length comes nearest to ``--seconds`` (at
   least one). With ``--trace 1`` untraced and traced workers alternate,
   at least one of each;
2. set-up: before each worker, and after the last until there are
   ``SETUP_SPAWNS`` in all, a fresh interpreter times the import of
   ``summinglab.cli`` plus building its parser; ``setup_s`` is their
   median. Spread over the run, the samples see the same machine the
   workers do;
3. checks every operation's report against ``references/`` (see
   ``check.py``) and that every worker of the run produced the same report
   hashes (reports are a pure function of config and seed).

The last line of stdout is the result object; the lines before it give
the environment, per-worker detail and per-operation report hashes.
End-to-end metrics (``--trace 0``) are medians over the untraced workers;
per-layer metrics (``--trace 1``) medians over the traced ones. Exit code
0 when every check passed, 1 when one failed, 2 when the checkout has no
program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402

SETUP_SPAWNS = 9
RUN_DEADLINE_S = 170.0   # the whole run, set-up included, ends before this

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import summinglab.cli\n"
    "summinglab.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _git_commit() -> str:
    try:
        # the ceiling keeps git from finding a repository above the checkout
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def measure_setup(deadline: float) -> float:
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src")],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_worker(workload: str, seed: int, trace: int, index: int, deadline: float) -> dict:
    out = OUT_DIR / f"{workload}-seed{seed}-trace{trace}-{index}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def summarize(workers: list[dict]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed, and the problems found, over all workers."""
    attempted = failed = 0
    problems = []
    hashes = {}
    for w in workers:
        for op in w["ops"]:
            attempted += 1
            mismatch = hashes.setdefault(op["name"], op["sha256"]) != op["sha256"]
            if op["problems"] or mismatch:
                failed += 1
            problems += [f"{op['name']}: {p}" for p in op["problems"]]
            if mismatch:
                problems.append(f"{op['name']}: report hash differs between workers "
                                f"of the same seed")
    return attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "summinglab" / "cli.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'summinglab'} is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)

    setup, untraced, traced = [], [], []
    start = time.monotonic()
    while True:
        setup.append(measure_setup(deadline))
        trace = 1 if args.trace and len(traced) < len(untraced) else 0
        batch = traced if trace else untraced
        batch.append(run_worker(args.workload, args.seed, trace,
                                len(untraced) + len(traced), deadline))
        # start another worker only if the run then ends nearer to --seconds
        # than it does now, so its length stays within half a worker of it
        elapsed = time.monotonic() - start
        per_worker = elapsed / (len(untraced) + len(traced))
        if elapsed + per_worker / 2 > args.seconds and (not args.trace or traced):
            break
    while len(setup) < SETUP_SPAWNS:
        setup.append(measure_setup(deadline))

    workers = untraced + traced
    attempted, failed, problems = summarize(workers)
    env = dict(workers[0]["environment"], commit=_git_commit(),
               setup_samples_s=setup, workers_untraced=len(untraced),
               workers_traced=len(traced))
    print(json.dumps({"environment": env}))
    for w in workers:
        print(json.dumps({"worker": {k: w[k] for k in ("trace", "wall_s", "cpu_s",
                                                        "peak_rss_mb", "mc_rel_stderr_median")},
                          "ops": [{k: op[k] for k in ("name", "exit", "wall_s", "sha256")}
                                  for op in w["ops"]]}))
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)

    if args.trace:
        values = {name: statistics.median(w["layers"][name] for w in traced)
                  for name in traced[0]["layers"]}
        values["trace_overhead_s"] = (statistics.median(w["wall_s"] for w in traced)
                                      - statistics.median(w["wall_s"] for w in untraced))
        units = metric_units("per_layer")
    else:
        values = {"wall_s": statistics.median(w["wall_s"] for w in untraced),
                  "cpu_s": statistics.median(w["cpu_s"] for w in untraced),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in untraced),
                  "mc_rel_stderr_median": statistics.median(
                      w["mc_rel_stderr_median"] for w in untraced)}
        units = metric_units("end_to_end")
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are not both "
                           f"measured and listed in BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running worker instead of leaving it behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        sys.exit(1)
