"""Command-line surface: parsing, outputs, exit codes."""

import contextlib
import io
import json
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summinglab.cli import main


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


def test_exit_code_on_failure(capsys, tmp_path):
    # a tiny couple constant renders the Schatten audit unsatisfiable
    cfg = dict(kind="interp-audit", seed=5, n_grid=[8, 16, 32], samples=2000,
               junge_constant=1e-3)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["interp-audit", "--config", str(path)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_exit_code_on_config_error(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(kind="interp-audit", seed=1,
                                    n_grid=[8, 16, 32], theta=2.0)))
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


def test_kp_zero_restarts_is_usage_error(capsys):
    _assert_usage_error(capsys, ["kp", "--group", "8", "--freqs", "1,2", "--p", "4",
                                 "--restarts", "0", "--seed", "3"], "restarts")


def test_sidon_zero_restarts_is_usage_error(capsys):
    _assert_usage_error(capsys, ["sidon", "--group", "8", "--freqs", "1,2,4",
                                 "--restarts", "0", "--seed", "3"], "restarts")


def test_kp_negative_steps_is_usage_error(capsys):
    _assert_usage_error(capsys, ["kp", "--group", "8", "--freqs", "1,2", "--p", "4",
                                 "--steps", "-3", "--seed", "3"], "steps")


def test_lnorm_zero_samples_is_usage_error(capsys):
    _assert_usage_error(capsys, ["lnorm", "--space", "l2:16", "--target", "linf:16",
                                 "--samples", "0", "--seed", "7"], "samples")


def test_lnorm_negative_samples_is_usage_error(capsys):
    _assert_usage_error(capsys, ["lnorm", "--space", "l2:16", "--target", "linf:16",
                                 "--samples", "-5", "--seed", "7"], "samples")


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
], ids=["bad-int", "unknown-flag", "missing-required", "removed-pib-budget",
        "interp-audit-pairs", "thm1-samples"])
def test_argparse_usage_error_is_one_line(capsys, argv, needle):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("summinglab") and needle in lines[0]


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


@pytest.mark.parametrize("command,over,needle", [
    ("thm1", dict(kind="character-scaling", pairs=[["1", "1"]], restarts=0),
     "config error: restarts"),
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
    ("thm1", dict(kind="character-scaling", pairs=[["1", "1"]], control="exceed",
                  exceed_threshold="0.2"),
     "config error: exceed_threshold must be a finite real, got '0.2'"),
    ("thm2", dict(kind="schatten-scaling", pairs=[["2", "4"]], complex_normals="no"),
     "config error: complex_normals must be true or false, got 'no'"),
    ("interp-audit", dict(kind="interp-audit", junge_constant="nan"),
     "config error: junge_constant must be a finite real > 0, got 'nan'"),
], ids=["thm1-restarts", "interp-audit-samples", "low-p-grid", "unknown-generator",
        "duplicate-sizes", "fit-tol-string", "exceed-threshold-string",
        "complex-normals-string", "junge-constant-nan"])
def test_config_budgets_checked_before_work(capsys, tmp_path, command, over, needle):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "n_grid": [4, 8, 12], **over}))
    t0 = time.perf_counter()
    _assert_usage_error(capsys, [command, "--config", str(path)], needle)
    assert time.perf_counter() - t0 < 1.0


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
    (["kp", "--group", "100000000", "--freqs", "1,2,3", "--p", "4", "--seed", "1"],
     "character matrix"),
    # the unit grid of S_1^20000 has 4 * 10^8 indices
    (["pib", "--space", "s1:20000", "--target", "s2:20000", "--seed", "1"],
     "candidate family"),
    # the singleton's values on Z_1000000, one row of 20000 coordinates per point
    (["pib", "--space", "l1:20000", "--target", "l4:20000", "--system", "characters",
      "--group", "1000000", "--freqs", "1,2,3", "--seed", "1"], "group-average values"),
    (["lnorm", "--space", "l2:100000000", "--target", "linf:100000000",
      "--samples", "16", "--seed", "1"], "Monte Carlo chunk"),
    # a 1.2 GiB chunk, but the S_4 Gram path holds three chunk-sized arrays
    (["lnorm", "--space", "s2:200", "--target", "s4:200",
      "--samples", "4096", "--seed", "1"], "Monte Carlo chunk working set"),
], ids=["kp-character-matrix", "pib-grid-family", "pib-group-average", "lnorm-mc-chunk",
        "lnorm-gram-working-set"])
def test_config_sized_allocation_is_usage_error(capsys, argv, needle):
    # the projected size is checked against the byte cap before allocating
    _assert_usage_error(capsys, argv, needle)


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
@given(command=st.sampled_from(["lnorm", "fit", "limit-order", "kp", "sidon",
                                "thm2", "thm1", "interp-audit"]),
       a=_TOKEN, b=_TOKEN, group=_TOKEN | st.integers(-1, 32).map(str),
       pairs=_PAIRS, sizes=_SIZES)
def test_arbitrary_arguments_never_escape_main(command, a, b, group, pairs, sizes):
    # most values are separate argv items, so that argparse itself refuses
    # some examples: a value that looks like a flag, a --group that is no int
    argv = {
        "lnorm": ["lnorm", "--space", a, f"--target={b}", "--samples", "16", "--seed", "1"],
        "fit": ["fit", "--points", a],
        "limit-order": ["limit-order", "--grid", a, f"--v-grid={b}"],
        "kp": ["kp", "--group", group, "--freqs", a, "--p", b,
               "--restarts", "2", "--steps", "5", "--seed", "1"],
        "sidon": ["sidon", "--group", group, f"--freqs={a}",
                  "--restarts", "2", "--steps", "5", "--seed", "1"],
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
