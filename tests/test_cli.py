"""Command-line surface: parsing, outputs, exit codes."""

import contextlib
import io
import json
import math
import shlex
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summinglab import experiments, systems
from summinglab.cli import build_parser, main
from summinglab.rng import make_rng, standard_gaussians, substream
from summinglab.systems import MC_BLOCK

README = Path(__file__).resolve().parents[1] / "README.md"


def test_limit_order_table_output(capsys):
    assert main(["limit-order", "--ideal", "gamma", "--grid", "1,2,inf"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 4  # header + 3 rows
    assert "0.5" in lines[1]


def test_limit_order_json(capsys):
    assert main(["limit-order", "--grid", "1,2,inf", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["table"] == [[0.5, 0.0, 0.0], [1.0, 0.5, 0.0], [1.0, 0.5, 0.0]]


def test_fit_command(capsys):
    assert main(["fit", "--points", "4:2,16:4,64:8", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["slope"] == pytest.approx(0.5, abs=1e-12)


def test_lnorm_command(capsys):
    rc = main(["lnorm", "--space", "l2:16", "--target", "linf:16",
               "--samples", "20000", "--seed", "7", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    ratio = doc["value"] / np.sqrt(2 * np.log(16))
    assert 0.9 <= ratio <= 1.1
    assert doc["stderr"] > 0


@pytest.mark.parametrize("samples", [2, 3])
def test_lnorm_few_samples_keep_a_stderr(capsys, samples):
    # a control fitted to few samples leaves a stderr too small (a line
    # through two points leaves none), so under MC_CONTROL_SAMPLES samples
    # no control is fitted: value and stderr are the plain estimator's from
    # the same rows, its variance over samples - 1, in the loop's float order
    assert main(["lnorm", "--space", "l2:4", "--target", "linf:4",
                 "--samples", str(samples), "--seed", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stderr"] > 0
    y = np.abs(standard_gaussians(make_rng(substream(1, 0)), (samples, 4))).max(axis=1) ** 2
    rows = np.array([np.ones(samples), y])
    sums = np.einsum("ik,jk->ij", rows, rows)
    mean = sums[0, 1] / samples
    var = (sums[1, 1] / samples - mean * mean) * (samples / (samples - 1))
    assert doc["value"] == math.sqrt(mean)
    assert doc["stderr"] == math.sqrt(var / samples) / (2.0 * doc["value"])


def test_lnorm_exact_path(capsys):
    assert main(["lnorm", "--space", "l2:16", "--target", "l2:16",
                 "--seed", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 4.0
    assert doc["cert"] == "exact"


def test_pib_command(capsys):
    rc = main(["pib", "--space", "l2:8", "--target", "l2:8",
               "--system", "gaussian", "--samples", "2000", "--seed", "3", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == pytest.approx(np.sqrt(8), rel=1e-9)


def test_kp_and_sidon_commands(capsys):
    rc = main(["kp", "--group", "8", "--freqs", "1,2", "--p", "4",
               "--restarts", "16", "--steps", "200", "--seed", "3", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert 1.0 <= doc["value"] <= 2 ** 0.25
    rc = main(["sidon", "--group", "8", "--freqs", "2", "--restarts", "8",
               "--steps", "50", "--seed", "3", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == pytest.approx(1.0, abs=1e-12)
    assert doc["upper"] == 1.0


def test_sidon_bracket_on_random_sets(capsys):
    # the ascent's lower bound never passes the sqrt(m) ceiling
    rng = np.random.default_rng(8)
    for m in (2, 3, 5, 7):
        freqs = ",".join(str(k) for k in rng.choice(16, size=m, replace=False))
        argv = ["sidon", "--group", "16", "--freqs", freqs, "--restarts", "8",
                "--steps", "50", "--seed", "3"]
        assert main([*argv, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cert"] == "lower"
        assert doc["upper"] == math.sqrt(m)
        assert 1.0 <= doc["value"] <= doc["upper"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert f"{doc['value']:.6g} <= S <= {math.sqrt(7):.6g}" in text


@pytest.mark.parametrize("group,freqs,value", [
    (8, "full", 2.8284271247461903),
    # Z_(2^40): three characters' matrix alone would take 4.92e4 GiB
    (2 ** 40, "1,2,5", 1.7320508075688772),
])
def test_kp_inf_is_sqrt_m_without_the_character_matrix(capsys, monkeypatch, group, freqs,
                                                       value):
    def touched(*args, **kwargs):
        raise AssertionError("built the character matrix")

    monkeypatch.setattr(systems, "_character_matrix", touched)
    assert main(["kp", "--group", str(group), "--freqs", freqs, "--p", "inf",
                 "--seed", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == value
    assert doc["cert"] == "lower"


def test_thm1_kp_bound_rows_are_sqrt_m_at_v_inf(capsys):
    rc = main(["thm1", "--seed", "5", "--n-grid", "4,8,12", "--pairs", "2:inf",
               "--generator", "lacunary", "--json"])
    assert rc == 0
    rows = [r for r in json.loads(capsys.readouterr().out)["rows"] if r["kind"] == "kp-bound"]
    assert [r["n"] for r in rows] == [4, 8, 12]
    for row in rows:
        assert row["value"] == math.sqrt(row["n"])


def test_thm1_command_reports(capsys, tmp_path):
    out_base = str(tmp_path / "rep")
    rc = main(["thm1", "--seed", "5", "--n-grid", "4,8,12", "--pairs", "1:1",
               "--generator", "lacunary", "--out", out_base, "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
    assert (tmp_path / "rep.json").exists()
    assert (tmp_path / "rep.csv").exists()


def test_thm2_command_csv(capsys):
    rc = main(["thm2", "--seed", "5", "--n-grid", "8,16,32",
               "--pairs", "2:2", "--samples", "2000", "--csv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("n,u_recip,v_recip")


def test_interp_audit_command(capsys):
    rc = main(["interp-audit", "--seed", "5", "--n-grid", "8,16,32",
               "--samples", "2000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_exit_code_on_failure(capsys):
    # lacunary sets grow like the Gaussian limit order, so a negative
    # control asking them to exceed it fails
    rc = main(["thm1", "--seed", "5", "--n-grid", "4,8,12,16", "--pairs", "2:inf",
               "--generator", "lacunary", "--control", "exceed"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "[FAIL] lower-fit" in out and "(violated: slack=-" in out


def test_exit_code_on_config_error(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(kind="interp-audit", seed=1,
                                    n_grid=[8, 16, 32], control="sideways")))
    assert main(["interp-audit", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_seed_is_config_error(capsys):
    assert main(["thm2", "--n-grid", "8,16,32", "--pairs", "2:2"]) == 2


def test_wrong_kind_config_rejected(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(kind="schatten-scaling", seed=1,
                                    n_grid=[8, 16, 32], pairs=[["2", "2"]])))
    assert main(["thm1", "--config", str(path)]) == 2


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_bad_space_string_is_usage_error(capsys):
    assert main(["lnorm", "--space", "x9:4", "--target", "l2:4", "--seed", "1"]) == 2


def _assert_usage_error(capsys, argv, needle):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert needle in captured.err


def _assert_argparse_error(capsys, argv, needle):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("summinglab") and needle in lines[0]


def test_kp_zero_restarts_is_usage_error(capsys):
    _assert_argparse_error(capsys, ["kp", "--group", "8", "--freqs", "1,2", "--p", "4",
                                    "--restarts", "0", "--seed", "3"],
                           "argument --restarts: must be >= 1, got 0")


def test_sidon_zero_restarts_is_usage_error(capsys):
    _assert_argparse_error(capsys, ["sidon", "--group", "8", "--freqs", "1,2,4",
                                    "--restarts", "0", "--seed", "3"],
                           "argument --restarts: must be >= 1, got 0")


def test_kp_negative_steps_is_usage_error(capsys):
    _assert_argparse_error(capsys, ["kp", "--group", "8", "--freqs", "1,2", "--p", "4",
                                    "--steps", "-3", "--seed", "3"],
                           "argument --steps: must be >= 0, got -3")


@pytest.mark.parametrize("freqs", ["1,,2", "a", "1.5"])
def test_bad_freqs_name_the_flag_and_the_input(capsys, freqs):
    _assert_usage_error(capsys, ["kp", "--group", "16", "--freqs", freqs, "--p", "4",
                                 "--seed", "1"],
                        f"error: --freqs takes 'full' or a comma list of integers, "
                        f"got '{freqs}'")


@pytest.mark.parametrize("argv,needle", [
    (["thm2", "--seed", "1", "--n-grid", "8,a,16", "--pairs", "2:2"],
     "error: --n-grid takes a comma list of integers, got '8,a,16'"),
    (["fit", "--points", "4:2,16:x"],
     "error: --points takes a comma list of n:value pairs, got '4:2,16:x'"),
    (["fit", "--points", "4:2,16"],
     "error: --points takes a comma list of n:value pairs, got '4:2,16'"),
    (["lnorm", "--space", "l2:x", "--target", "l4:4", "--seed", "1"],
     "error: --space: cannot parse space descriptor 'l2:x'"),
    (["pib", "--space", "l2:4", "--target", "lx:4", "--seed", "1"],
     "error: --target: cannot parse exponent 'x'"),
    (["kp", "--group", "16", "--p", "abc", "--seed", "1"],
     "error: --p: cannot parse exponent 'abc'"),
    (["limit-order", "--grid", "1,x"], "error: --grid: cannot parse exponent 'x'"),
    (["limit-order", "--grid", "1,2", "--v-grid", "2,4/y"],
     "error: --v-grid: cannot parse exponent '4/y'"),
], ids=["n-grid", "points-value", "points-pair", "space-dim", "target-exponent", "kp-p",
        "grid", "v-grid"])
def test_unparsable_values_name_the_flag_and_the_text(capsys, argv, needle):
    _assert_usage_error(capsys, argv, needle)


def test_lnorm_zero_samples_is_usage_error(capsys):
    _assert_argparse_error(capsys, ["lnorm", "--space", "l2:16", "--target", "linf:16",
                                    "--samples", "0", "--seed", "7"],
                           "argument --samples: must be >= 2, got 0")


def test_lnorm_negative_samples_is_usage_error(capsys):
    _assert_argparse_error(capsys, ["lnorm", "--space", "l2:16", "--target", "linf:16",
                                    "--samples", "-5", "--seed", "7"],
                           "argument --samples: must be >= 2, got -5")


@pytest.mark.parametrize("argv,needle", [
    (["lnorm", "--space", "l2:4", "--target", "l2:4", "--samples", "-5", "--seed", "1"],
     "argument --samples: must be >= 2, got -5"),
    (["pib", "--space", "s1:4", "--target", "s2:4", "--samples", "0", "--seed", "1"],
     "argument --samples: must be >= 2, got 0"),
], ids=["lnorm-closed-form", "pib-closed-form"])
def test_samples_out_of_range_is_usage_error_on_closed_forms(capsys, argv, needle):
    # the closed form never reads samples, so only the flag's own check refuses it
    _assert_argparse_error(capsys, argv, needle)


def test_out_in_missing_directory_is_config_error_before_work(capsys, monkeypatch, tmp_path):
    def run(config):
        raise AssertionError("measured before the output path was checked")

    monkeypatch.setitem(experiments.RUNNERS, "schatten-scaling", run)
    missing = tmp_path / "absent"
    _assert_usage_error(capsys, ["thm2", "--seed", "1", "--n-grid", "4,8,16", "--pairs", "2:2",
                                 "--out", str(missing / "x")],
                        f"config error: output directory {str(missing)!r} does not exist")


def test_unwritable_report_is_one_error_line(capsys, tmp_path):
    # the directory exists, but the report's .json path is a directory
    (tmp_path / "rep.json").mkdir()
    _assert_usage_error(capsys, ["thm2", "--seed", "1", "--n-grid", "4,8,16", "--pairs", "2:2",
                                 "--out", str(tmp_path / "rep")], "rep.json")


def test_zero_denominator_exponent_is_usage_error(capsys):
    _assert_usage_error(capsys, ["lnorm", "--space", "l2/0:4", "--target", "l2:4",
                                 "--seed", "1"], "denominator")


@pytest.mark.parametrize("argv,needle", [
    (["kp", "--group", "x", "--p", "4", "--seed", "1"], "invalid int value: 'x'"),
    (["kp", "--group", "8", "--p", "4", "--seed", "1", "--bogus", "1"],
     "unrecognized arguments: --bogus 1"),
    (["kp", "--group", "8", "--seed", "1"], "required: --p"),
    (["pib", "--space", "l2:4", "--target", "l2:4", "--seed", "1", "--budget", "3"],
     "unrecognized arguments: --budget 3"),
    (["interp-audit", "--seed", "1", "--n-grid", "8,16,32", "--pairs", "1:inf"],
     "unrecognized arguments: --pairs 1:inf"),
    (["thm1", "--seed", "1", "--n-grid", "4,8,12", "--pairs", "1:1", "--samples", "100"],
     "unrecognized arguments: --samples 100"),
    (["lnorm", "--space", "l2:4", "--target", "l4:4", "--samples", "100", "--seed", "1",
      "--csv"], "unrecognized arguments: --csv"),
    (["thm2", "--seed", "1", "--n-grid", "8,16,32", "--pairs", "2:2", "--json", "--csv"],
     "argument --csv: not allowed with argument --json"),
    (["lnorm", "--space", "l2:4", "--target", "l4:4", "--seed", "-1"],
     "argument --seed: must be >= 0, got -1"),
    (["sidon", "--group", "8", "--seed", "-3"], "argument --seed: must be >= 0, got -3"),
    (["kp", "--group", "0", "--p", "4", "--seed", "1"], "argument --group: must be >= 1, got 0"),
    (["pib", "--space", "l2:4", "--target", "l4:4", "--system", "characters", "--seed", "1"],
     "argument --group: required with --system characters"),
    (["lnorm", "--space", "l2:4", "--target", "l4:4", "--seed", "1", "--complex-normals"],
     "unrecognized arguments: --complex-normals"),
], ids=["bad-int", "unknown-flag", "missing-required", "removed-pib-budget",
        "interp-audit-pairs", "thm1-samples", "lnorm-csv", "json-csv", "lnorm-negative-seed",
        "sidon-negative-seed", "kp-zero-group", "pib-characters-without-group",
        "removed-complex-normals"])
def test_argparse_usage_error_is_one_line(capsys, argv, needle):
    _assert_argparse_error(capsys, argv, needle)


def test_readme_commands_parse():
    # a removed or renamed flag cannot leave a README command behind
    commands = [shlex.split(line)[1:] for line in README.read_text(encoding="utf-8").splitlines()
                if line.startswith("summinglab ")]
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_kp_huge_p_reaches_point_mass(capsys):
    # the point mass attains 16^(1/2 - 1/1000) = 3.98893; no power may overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["kp", "--group", "16", "--freqs", "full", "--p", "1000",
                   "--seed", "1", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["value"] >= 3.98


@pytest.mark.parametrize("points", ["1:1,2:2,4:inf", "1:nan,2:2,4:3"])
def test_fit_non_finite_point_is_usage_error(capsys, points):
    _assert_usage_error(capsys, ["fit", "--points", points], "finite")


def _unknown(key, owner="ExperimentConfig"):
    return f"config error: {owner}.__init__() got an unexpected keyword argument '{key}'"


@pytest.mark.parametrize("command,over,needle", [
    ("interp-audit", dict(kind="interp-audit", samples=1), "config error: samples"),
    ("thm1", dict(kind="kp-profile", p_grid=[4.0, 1.0]),
     "config error: p_grid entries must be exponents >= 2, got 1.0"),
    ("thm1", dict(kind="character-scaling", pairs=[["1", "1"]],
                  system={"generator": "lacunry"}),
     "config error: unknown generator 'lacunry'"),
    ("thm2", dict(kind="schatten-scaling", pairs=[["2", "4"]], samples=10, n_grid=[4, 4, 8]),
     "config error: the size grid must be strictly ascending"),
    ("thm2", dict(kind="schatten-scaling", pairs=[["2", "4"]], fit_tol="0.1"),
     "config error: fit_tol must be null or a finite real >= 0, got '0.1'"),
    # removed settings are unknown keys
    ("thm1", dict(kind="character-scaling", pairs=[["1", "1"]], restarts=0),
     _unknown("restarts")),
    ("thm1", dict(kind="character-scaling", pairs=[["1", "1"]], control="exceed",
                  exceed_threshold="0.2"), _unknown("exceed_threshold")),
    ("thm2", dict(kind="schatten-scaling", pairs=[["2", "4"]], complex_normals="no"),
     _unknown("complex_normals")),
    ("interp-audit", dict(kind="interp-audit", junge_constant="nan"),
     _unknown("junge_constant")),
    ("interp-audit", dict(kind="interp-audit", theta=0.5), _unknown("theta")),
    ("thm1", dict(kind="character-scaling", pairs=[["1", "1"]], steps=500),
     _unknown("steps")),
    ("thm1", dict(kind="character-scaling", pairs=[["1", "1"]],
                  system={"generator": "lacunary", "ratio": 2}),
     _unknown("ratio", "SystemSpec")),
    ("thm1", dict(kind="character-scaling", pairs=[["1", "1"]],
                  system={"generator": "lacunary", "freqs": [1, 3, 5]}),
     _unknown("freqs", "SystemSpec")),
    ("thm1", dict(kind="character-scaling", pairs=[["1", "1"]],
                  system={"generator": "explicit"}),
     "config error: unknown generator 'explicit' (choose from lacunary, full)"),
    # seed and output are checked on load, not when first used
    ("thm2", dict(kind="schatten-scaling", pairs=[["2", "4"]], seed=1.5),
     "config error: seed must be an integer >= 0, got 1.5"),
    ("thm2", dict(kind="schatten-scaling", pairs=[["2", "4"]], seed=True),
     "config error: seed must be an integer >= 0, got True"),
    ("thm2", dict(kind="schatten-scaling", pairs=[["2", "4"]], seed="x"),
     "config error: seed must be an integer >= 0, got 'x'"),
    ("thm2", dict(kind="schatten-scaling", pairs=[["2", "4"]], seed=-3),
     "config error: seed must be an integer >= 0, got -3"),
    ("thm2", dict(kind="schatten-scaling", pairs=[["2", "4"]], output=5),
     "config error: output must be null or a non-empty string, got 5"),
    ("thm2", dict(kind="schatten-scaling", pairs=[["2", "4"]], output=""),
     "config error: output must be null or a non-empty string, got ''"),
    # value types are checked on load too
    ("thm1", dict(kind="character-scaling", pairs=[["1", "1"]], system="lacunary"),
     "config error: system must be an object with a generator, got 'lacunary'"),
    ("thm1", dict(kind="character-scaling", pairs=[["1", "1"]], n_grid=[4.5, 8, 12]),
     "config error: n_grid entries must be integers >= 1, got [4.5, 8, 12]"),
    ("thm1", dict(kind="character-scaling", pairs=[["1"]]),
     "config error: bad exponent pair ['1']: a pair is a list [u, v]"),
], ids=["interp-audit-samples", "low-p-grid", "unknown-generator", "duplicate-sizes",
        "fit-tol-string", "thm1-restarts", "exceed-threshold-string",
        "complex-normals-string", "junge-constant-nan", "theta", "steps", "system-ratio",
        "system-freqs", "explicit-generator", "seed-float", "seed-bool", "seed-string",
        "seed-negative", "output-int", "output-empty", "system-string", "n-grid-float",
        "pair-one-entry"])
def test_config_budgets_checked_before_work(capsys, tmp_path, command, over, needle):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "n_grid": [4, 8, 12], **over}))
    t0 = time.perf_counter()
    _assert_usage_error(capsys, [command, "--config", str(path)], needle)
    assert time.perf_counter() - t0 < 1.0


def test_config_that_is_not_an_object_is_config_error(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    _assert_usage_error(capsys, ["thm1", "--config", str(path)],
                        "config error: a config must be a JSON object, got list")


@pytest.mark.parametrize("pairs", ["2:inf,2:x", "2"])
def test_bad_pair_is_config_error_before_work(capsys, pairs):
    t0 = time.perf_counter()
    _assert_usage_error(capsys, ["thm2", "--seed", "1", "--n-grid", "8,16,32,64",
                                 "--pairs", pairs], "config error: bad exponent pair")
    assert time.perf_counter() - t0 < 1.0


def test_missing_config_file_is_config_error(capsys, tmp_path):
    _assert_usage_error(capsys, ["thm2", "--config", str(tmp_path / "absent.json")],
                        "config error: cannot read config file")


def test_zero_samples_flag_reaches_config(capsys):
    _assert_usage_error(capsys, ["thm2", "--seed", "1", "--n-grid", "8,16,32",
                                 "--pairs", "2:inf", "--samples", "0"], "config error: samples")


def test_lnorm_huge_schatten_target_exponent(capsys):
    rc = main(["lnorm", "--space", "s2:8", "--target", "s1000:8",
               "--samples", "100", "--seed", "1", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert np.isfinite(doc["value"]) and np.isfinite(doc["stderr"])


@pytest.mark.parametrize("argv,needle", [
    # p = 3 takes the dense route (at p = 4 the set takes its sumsets)
    (["kp", "--group", "100000000", "--freqs", "1,2,3", "--p", "3", "--seed", "1"],
     "character matrix"),
    # the unit grid of S_1^20000 has 4 * 10^8 indices
    (["pib", "--space", "s1:20000", "--target", "s2:20000", "--seed", "1"],
     "candidate family"),
    # the comb's values on Z_1000000, one row of 20000 coordinates per point
    # (the unit families before it take the closed form and allocate nothing)
    (["pib", "--space", "l2:20000", "--target", "l4:20000", "--system", "characters",
      "--group", "1000000", "--freqs", "1,2,3", "--seed", "1"],
     "group-average values of shape (1000000, 20000)"),
    (["lnorm", "--space", "l2:100000000", "--target", "linf:100000000",
      "--samples", "16", "--seed", "1"], "Monte Carlo chunk"),
    # the S_3^1024 grid materializes its bidiagonal draws: one block is 2.1
    # GB, and with the chi rows, the moment rows, the traces' temporaries and
    # the block more for the SVD's copy a thread holds 514 rows of 1048576,
    # and one more for numpy's staging buffers (4.02 GiB), over the cap
    # (S_3^520 fits: test_systems' bidiagonal working set)
    (["lnorm", "--space", "s2:1024", "--target", "s3:1024", "--samples", "4096", "--seed", "1"],
     "Monte Carlo chunk working set of shape (515, 1048576)"),
], ids=["kp-character-matrix", "pib-grid-family", "pib-group-average", "lnorm-mc-chunk",
        "lnorm-gram-working-set"])
def test_config_sized_allocation_is_usage_error(capsys, argv, needle):
    # the projected size is checked against the byte cap before allocating
    _assert_usage_error(capsys, argv, needle)


def test_unit_families_on_a_large_group_run(capsys):
    # l_1 domains have no comb, and unit families of characters take the
    # modulus-one closed form: no (1000000, 20000) table of values is made
    assert main(["pib", "--space", "l1:20000", "--target", "l4:20000", "--system",
                 "characters", "--group", "1000000", "--freqs", "1,2,3", "--seed", "1"]) == 0
    assert capsys.readouterr().out == ("summing-norm lower bound l1:20000 -> l4:20000 "
                                       "[characters]: 1 (family-search[singleton])\n")


def test_diagonal_candidate_of_a_large_schatten_space_runs(capsys):
    # S_1^520 -> S_4^520: the diagonal units are 520 coefficients of l_4^520,
    # not gathered 520 x 520 matrices (a thread's working set of those would
    # be 2.07 GiB), and the grid draws bidiagonals, so the search runs
    assert main(["pib", "--space", "s1:520", "--target", "s4:520", "--samples", "4096",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("summing-norm lower bound s1:520 -> s4:520 [gaussian]: ")
    assert out.rstrip().endswith("(family-search[grid])")


def test_ascent_working_set_refused_before_the_matrix(capsys, monkeypatch):
    # 21 lacunary characters of Z_(2^22) at p = 3, the dense route: the 1.3
    # GiB matrix is under the 2 GiB cap, but with 64 restarts' trial values
    # and a row for numpy's staging buffers the ascent would hold 13.4 GiB;
    # refused by the projection alone
    def build(*args):
        raise AssertionError("built the character matrix before the working-set check")

    monkeypatch.setattr(systems, "_character_matrix", build)
    freqs = ",".join(str(2 ** k) for k in range(21))
    _assert_usage_error(capsys, ["kp", "--group", str(2 ** 22), "--freqs", freqs, "--p", "3",
                                 "--seed", "1"], "ascent working set of shape (214, 4194304)")


def test_kp_even_p_on_a_huge_group_runs(capsys, monkeypatch):
    # three characters of Z_(10^8) at p = 4: the sumsets hold 3 + 5 residues
    # and the ascent builds no character matrix, so the command runs
    def build(*args):
        raise AssertionError("built the character matrix")

    monkeypatch.setattr(systems, "_character_matrix", build)
    assert main(["kp", "--group", "100000000", "--freqs", "1,2,3", "--p", "4",
                 "--seed", "1"]) == 0
    assert capsys.readouterr().out.startswith("K_4 lower bound for 3 characters on Z_100000000: ")


def test_mc_working_set_counts_the_pool(capsys, monkeypatch):
    # one l_inf^400000 block is 0.82 GB, under the 2 GiB cap, but a thread's
    # working set, the block with its moment rows, the reduction's
    # magnitude and scaled copy and a row for numpy's staging buffers, is not: the pool narrows to one thread, and
    # that is refused before any draw
    def draw(*args, **kwargs):
        raise AssertionError("drew normals before the working-set check")

    monkeypatch.setattr(systems, "MC_WIDTH", 2)
    monkeypatch.setattr(systems, "standard_gaussians", draw)
    rows, flat = MC_BLOCK, 400000
    assert rows * flat * 8 < systems.MAX_ARRAY_BYTES
    _assert_usage_error(capsys, ["lnorm", "--space", f"l2:{flat}", "--target", f"linf:{flat}",
                                 "--samples", str(3 * rows), "--seed", "1"],
                        "Monte Carlo chunk working set of shape (770, 400000)")


def test_bidiagonal_ell_norm_runs_where_dense_blocks_would_not(capsys):
    # S_2^512 -> S_inf^512: a dense block of Gaussian matrices would be
    # 537 MB and a thread's working set 2 GiB; the full grid draws 1023 chi
    # entries a sample instead, and the command runs
    assert main(["lnorm", "--space", "s2:512", "--target", "sinf:512",
                 "--samples", "512", "--seed", "1"]) == 0
    assert capsys.readouterr().out.startswith("ell-norm s2:512 -> sinf:512: ")


def test_oversized_grid_family_is_still_refused(capsys):
    # the bidiagonal working set of S_inf^20000 fits, but the grid's 4 * 10^8
    # indices do not: refused before they are built
    _assert_usage_error(capsys, ["lnorm", "--space", "s2:20000", "--target", "sinf:20000",
                                 "--samples", "512", "--seed", "1"],
                        "candidate family of shape (400000000, 1)")


def test_mc_pool_narrows_to_the_cap_on_many_cores(capsys, monkeypatch):
    # sixteen CPUs: the pool takes what fits (here sixteen threads for the
    # sixteen blocks; the narrowing to the cap is test_systems' _mc_width
    # test) instead of refusing a command that runs on two
    monkeypatch.setattr(systems, "MC_WIDTH", 16)
    rc = main(["lnorm", "--space", "s2:64", "--target", "sinf:64",
               "--samples", "4096", "--seed", "1"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("ell-norm s2:64 -> sinf:64: ")


def test_thm2_grid_family_is_closed_form(capsys):
    # 25600 matrix units at n = 160: index rows, exact ratios sqrt(n), no product
    t0 = time.perf_counter()
    assert main(["thm2", "--seed", "1", "--n-grid", "8,16,160", "--pairs", "1:2",
                 "--samples", "10", "--json"]) == 0
    assert time.perf_counter() - t0 < 1.0
    rows = json.loads(capsys.readouterr().out)["rows"]
    lower = {row["n"]: row["value"] for row in rows if row["kind"] == "lower"}
    assert lower == pytest.approx({n: np.sqrt(n) for n in (8, 16, 160)}, rel=1e-12)


# ---------------------------------------------------------------------------
# argv properties
# ---------------------------------------------------------------------------

_EXPONENTS = (st.sampled_from(["1", "4/3", "2", "3/1", "1000", "1e300", "inf"])
              | st.floats(min_value=1.0, allow_nan=False).map(repr)
              | st.tuples(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
              .map(lambda t: f"{max(t)}/{min(t)}"))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from("ls"), n=st.integers(1, 8), v=_EXPONENTS)
def test_lnorm_every_valid_exponent_is_finite(kind, n, v):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["lnorm", "--space", f"{kind}2:{n}", "--target", f"{kind}{v}:{n}",
                   "--samples", "16", "--seed", "1", "--json"])
    assert rc == 0, err.getvalue()
    doc = json.loads(out.getvalue())
    assert np.isfinite(doc["value"])
    assert doc["stderr"] is None or np.isfinite(doc["stderr"])


@pytest.mark.parametrize("v", ["700", "1e300"])
def test_lnorm_huge_exponent_is_finite(capsys, v):
    # far above v = 4, where ||x||_v^v is no control and E|g|^v leaves the
    # float range, the one-control fit gives a finite value and stderr
    assert main(["lnorm", "--space", "l2:8", "--target", f"l{v}:8",
                 "--samples", "2000", "--seed", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert np.isfinite(doc["value"]) and doc["value"] > 0
    assert np.isfinite(doc["stderr"]) and doc["stderr"] > 0


# arbitrary text, plus near-misses of the accepted forms so parsing gets past
# its first check; dimensions stay small so any accepted input runs quickly
_TOKEN = st.text(max_size=12) | st.sampled_from(
    ["l2:4", "s2:3", "linf:4", "s4/3:3", "l1e300:2", "l2/0:4", "s0:2", "l2:-1", "full",
     "1,2", "1,1", "0,3,5", "2", "4", "1e9", "nan", "-inf", "1/2", "4:2,16:4,64:8",
     "1:1,2:2,4:inf", "1,2,inf", "2,4/3", ""])


# exponent pairs, half of them well formed, and size lists small enough that
# an accepted experiment runs in milliseconds
_PAIRS = _TOKEN | st.lists(st.sampled_from(["1", "4/3", "2", "4", "inf"]),
                           min_size=2, max_size=2).map(":".join)
_SIZES = _TOKEN | (st.lists(st.integers(-1, 4), max_size=4)
                   | st.lists(st.integers(1, 4), min_size=3, unique=True).map(sorted)).map(
    lambda sizes: ",".join(map(str, sizes)))


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["lnorm", "pib", "fit", "limit-order", "kp", "sidon",
                                "thm2", "thm1", "interp-audit"]),
       a=_TOKEN, b=_TOKEN, group=st.none() | _TOKEN | st.integers(-1, 32).map(str),
       seed=_TOKEN | st.integers(-2, 3).map(str), pairs=_PAIRS, sizes=_SIZES)
def test_arbitrary_arguments_never_escape_main(command, a, b, group, seed, pairs, sizes):
    # most values are separate argv items, so that argparse itself refuses
    # some examples: a value that looks like a flag, a --group or --seed
    # that is no int or out of range, a character system without --group
    group_flag = [] if group is None else ["--group", group]
    argv = {
        "lnorm": ["lnorm", "--space", a, f"--target={b}", "--samples", "16", "--seed", seed],
        "pib": ["pib", "--space", a, f"--target={b}", "--system", "characters", *group_flag,
                "--samples", "16", "--seed", seed],
        "fit": ["fit", "--points", a],
        "limit-order": ["limit-order", "--grid", a, f"--v-grid={b}"],
        "kp": ["kp", *group_flag, "--freqs", a, "--p", b,
               "--restarts", "2", "--steps", "5", "--seed", seed],
        "sidon": ["sidon", *group_flag, f"--freqs={a}",
                  "--restarts", "2", "--steps", "5", "--seed", seed],
        "thm2": ["thm2", "--seed", "1", "--n-grid", sizes, "--pairs", pairs,
                 "--samples", "16"],
        "thm1": ["thm1", "--seed", "1", "--n-grid", sizes, "--pairs", pairs],
        "interp-audit": ["interp-audit", "--seed", "1", "--n-grid", sizes, "--samples", "16"],
    }[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            rc = exc.code
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert len(err.getvalue().strip().splitlines()) == 1
