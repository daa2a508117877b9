"""One cold run of a workload, in the fresh interpreter that runs this file.

Imports summinglab from the checkout's ``src``, optionally installs the
tracer, runs the workload's operations one after another (a closed loop
with one client) and writes one JSON result file: wall and CPU time of the
span from the first operation to the last return, peak RSS, and per
operation its exit code, time, report hash and correctness problems. With
``--trace 1`` the result also holds the per-layer metrics, and the spans
are written next to it as JSON lines.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --out FILE
    python3 perfbench/worker.py --workload NAME --seed N --record

``--record`` stores the rows as the workload's references instead of
checking them (used once, at the default seed, when the benchmark is
defined or a change deliberately moves report values).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(BENCH_DIR))

import numpy as np  # noqa: E402

import summinglab  # noqa: E402
import summinglab.cli  # noqa: E402
import summinglab.experiments  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, operations  # noqa: E402


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, read without changing it."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": summinglab.kernels.active_backend(),
    }


def _run_op(op: dict) -> dict:
    """Run one operation; stdout/stderr are captured, exceptions recorded."""
    out, err = io.StringIO(), io.StringIO()
    code, report = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "argv" in op:
                code = summinglab.cli.main(list(op["argv"]))
            else:
                config = summinglab.experiments.ExperimentConfig.from_dict(op["config"])
                report = summinglab.experiments.run_experiment(config)
                code = 0 if report.all_pass else 1
    except Exception:  # noqa: BLE001 - the benchmark must report, not crash
        err.write(traceback.format_exc())
    return {"name": op["name"], "exit": code, "wall_s": time.perf_counter() - start,
            "stdout": out.getvalue(), "stderr": err.getvalue(), "report": report}


def _rows_and_hash(op: dict, run: dict) -> tuple[list[dict], str]:
    """Report rows and the sha256 of the timestamp-free report JSON."""
    if run["report"] is not None:
        text = run["report"].to_json(include_timestamp=False)
        return json.loads(text)["rows"], check.sha256(text)
    if op["report"] is not None:
        with open(ROOT / (op["report"] + ".json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        text = summinglab.experiments.RunReport(doc["manifest"], doc["rows"]).to_json(
            include_timestamp=False)
        return json.loads(text)["rows"], check.sha256(text)
    payload = json.loads(run["stdout"].strip().splitlines()[-1])
    row = {"kind": op["name"], "n": None, "u_recip": None, "v_recip": None,
           "verdict": "", **payload}
    return [row], check.sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="result JSON path")
    parser.add_argument("--record", action="store_true",
                        help="write the references instead of checking against them")
    args = parser.parse_args(argv)
    if args.record and args.seed != DEFAULT_SEED:
        parser.error(f"references are recorded at seed {DEFAULT_SEED}")
    if not args.record and not args.out:
        parser.error("--out is required unless --record is given")

    if Path(summinglab.__file__).resolve().parent != ROOT / "src" / "summinglab":
        print(f"summinglab was imported from {summinglab.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    ops = operations(args.workload, args.seed)
    for op in ops:
        if op["report"]:
            # a report left by an earlier run must not pass for this run's
            base = ROOT / op["report"]
            base.parent.mkdir(parents=True, exist_ok=True)
            for suffix in (".json", ".csv"):
                Path(str(base) + suffix).unlink(missing_ok=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    cpu0, wall0 = time.process_time(), time.perf_counter()
    runs = [_run_op(op) for op in ops]
    wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    references = None if args.record else check.load_references(args.workload)
    recorded = {"seed": args.seed, "ops": {}}
    results, rel_stderrs = [], []
    for op, run in zip(ops, runs):
        problems, rows, digest = [], [], None
        if run["exit"] != 0:
            tail = (run["stderr"].strip().splitlines() or ["no output"])[-1]
            problems.append(f"exit code {run['exit']}: {tail}")
        elif op["report"] is not None and run["report"] is None and \
                not Path(str(ROOT / op["report"]) + ".json").is_file():
            problems.append(f"exit code 0 but no report at {op['report']}.json")
        else:
            rows, digest = _rows_and_hash(op, run)
            rel_stderrs += [r["stderr"] / r["value"] for r in rows
                            if r.get("stderr") and r.get("value")]
            if references is not None:
                ref = references["ops"][op["name"]]
                problems += check.row_problems(rows, ref["rows"],
                                               compare_values=args.seed == references["seed"])
        recorded["ops"][op["name"]] = {"sha256": digest, "rows": rows}
        results.append({"name": op["name"], "argv": op.get("argv"), "config": op.get("config"),
                        "exit": run["exit"], "wall_s": run["wall_s"], "sha256": digest,
                        "problems": problems})

    if args.record:
        if any(r["problems"] for r in results):
            print(json.dumps(results, indent=1), file=sys.stderr)
            return 1
        with open(check.REFERENCE_DIR / f"{args.workload}.json", "w", encoding="utf-8") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
              "mc_rel_stderr_median": statistics.median(rel_stderrs) if rel_stderrs else 0.0,
              "environment": environment(), "ops": results}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["spans"] = len(tracer.spans)
        tracer.write_jsonl(str(Path(args.out).with_suffix(".spans.jsonl")))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
