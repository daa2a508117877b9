"""The benchmark's tracer still finds its hooks in the program.

``perfbench/tracing.py`` wraps functions by name and reads some arguments by
position (the family of ``summing_norm_lower``, the starts of the ascent
kernels). A renamed function or a moved argument breaks traced benchmark
runs without failing any other test, so this runs tiny versions of every
workload's commands under the tracer, in a fresh interpreter, and checks
that each per-layer metric the benchmark declares is measured.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import contextlib, io, json, sys
root, out = sys.argv[1], sys.argv[2]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import summinglab.cli, summinglab.experiments
import tracing

tracer = tracing.Tracer()
tracer.install()
commands = [
    # schatten-mc. On n = 8..32 the 2:inf lower slope sits about 0.06 above
    # the closed form 0.5 (0.1 allowed); on 4..16 it sat 0.11 above, and 64
    # samples passed or failed by the draw.
    ["thm2", "--seed", "1", "--n-grid", "8,16,32", "--pairs", "2:2,2:4,2:inf,1:2,1:inf",
     "--samples", "64", "--out", out + "/thm2"],
    ["lnorm", "--space", "l2:8", "--target", "linf:8", "--samples", "64", "--seed", "1",
     "--json"],
    # audit-ascent
    ["interp-audit", "--seed", "1", "--n-grid", "4,8,16", "--samples", "64",
     "--out", out + "/interp-audit"],
    ["thm1", "--seed", "1", "--n-grid", "4,8,12", "--pairs", "2:inf,1:1,1:2",
     "--generator", "lacunary", "--out", out + "/thm1-lacunary"],
    ["thm1", "--seed", "1", "--n-grid", "4,8,16", "--pairs", "2:inf", "--generator", "full",
     "--control", "exceed", "--out", out + "/thm1-full-exceed"],
    ["sidon", "--group", "8", "--freqs", "full", "--restarts", "4", "--steps", "20",
     "--seed", "1", "--json"],
    # the dense Schatten kernel: full grids draw bidiagonals and diagonal
    # units are sequences under the Gaussian system, so only a character
    # system's grid, complex, gathers matrices for it, at S_4 and S_inf
    ["pib", "--space", "s2:3", "--target", "s4:3", "--system", "characters", "--group", "9",
     "--seed", "1", "--json"],
    ["pib", "--space", "s2:3", "--target", "sinf:3", "--system", "characters", "--group", "9",
     "--seed", "1", "--json"],
]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in commands:
        codes.append(summinglab.cli.main(argv))
    config = summinglab.experiments.ExperimentConfig.from_dict(
        {"kind": "kp-profile", "seed": 1, "n_grid": [4], "system": {"generator": "lacunary"},
         "p_grid": [4.0, float("inf")], "output": out + "/kp-profile"})
    codes.append(0 if summinglab.experiments.run_experiment(config).all_pass else 1)
print(json.dumps({"codes": codes, "layers": tracing.layer_metrics(tracer.spans)}))
"""


def test_tracer_measures_every_declared_layer(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT), str(tmp_path)],
                          capture_output=True, text=True, cwd=str(tmp_path), env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 9
    layers = result["layers"]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    # the run harness takes the tracing overhead from traced and untraced runs
    assert set(layers) == declared - {"trace_overhead_s"}
    zero = {name for name, value in layers.items() if value == 0}
    assert zero == set()
