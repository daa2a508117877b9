"""Experiment configs, runners, reports, and reproducibility."""

import csv
import io
import json

import pytest

from summinglab import interpolation, systems
from summinglab.experiments import (ConfigError, ExperimentConfig, ROW_FIELDS,
                                    SystemSpec, run_experiment)


def _schatten_cfg(**over):
    base = dict(kind="schatten-scaling", seed=5, n_grid=(8, 16, 32),
                pairs=(("2", "2"), ("1", "2")), samples=2000)
    base.update(over)
    return ExperimentConfig.from_dict(base)


def _character_cfg(**over):
    base = dict(kind="character-scaling", seed=5, n_grid=(4, 8, 12),
                pairs=(("1", "1"),), system={"generator": "lacunary"})
    base.update(over)
    return ExperimentConfig.from_dict(base)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="nope", seed=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="schatten-scaling", seed=1, n_grid=(16, 8, 32),
                         pairs=(("2", "2"),))
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="schatten-scaling", seed=1, n_grid=(8, 16, 32))
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="schatten-scaling", seed=1, n_grid=(8, 16),
                         pairs=(("2", "2"),))
    for bad in (dict(samples=1), dict(samples=2000.5)):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="interp-audit", seed=1, n_grid=(8, 16, 32), **bad)


def test_config_output_needs_an_existing_directory(tmp_path, monkeypatch):
    with pytest.raises(ConfigError, match="output directory .* does not exist"):
        _character_cfg(output=str(tmp_path / "absent" / "report"))
    assert _character_cfg(output=str(tmp_path / "report")).output == str(tmp_path / "report")
    monkeypatch.chdir(tmp_path)  # a bare base name goes to the working directory
    assert _character_cfg(output="report").output == "report"


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "kp-profile", "seed": 1, "bogus": 2})


@pytest.mark.parametrize("data", [
    {"family_classes": ["singleton"]},
    {"search_budget": 0},
    {"convexity_tol": 0.05},
    {"system": {"generator": "lacunary", "min_group_factor": 4}},
    {"system": {"generator": "lacunary", "ratio": 1}},
], ids=["family-classes", "search-budget", "convexity-tol", "min-group-factor",
        "ratio-one"])
def test_config_rejects_removed_and_degenerate_settings(data):
    # removed settings are unknown keys (lacunary sets are powers of 2)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "kp-profile", "seed": 1, **data})


def test_config_json_roundtrip(tmp_path):
    cfg = _schatten_cfg()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.resolved()))
    loaded = ExperimentConfig.from_json(str(path))
    assert loaded == cfg


def test_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(str(path))


def test_group_size_coupling():
    lac = SystemSpec(generator="lacunary")
    assert lac.group_size(4) == 64        # needs >= 4m^2
    assert lac.group_size(8) == 256
    assert lac.group_size(16) == 65536    # needs 16 lacunary frequencies
    full = SystemSpec(generator="full")
    assert full.group_size(4) == 4        # the whole dual group
    assert full.charset(4).size == 4
    cs = lac.charset(4)
    assert cs.freqs == (1, 2, 4, 8)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def test_schatten_scaling_run():
    report = run_experiment(_schatten_cfg())
    assert report.all_pass
    kinds = {r["kind"] for r in report.rows}
    assert {"lower", "upper", "lower-fit", "upper-fit"} <= kinds
    exact_pair = [r for r in report.rows
                  if r["kind"] == "lower-fit" and r["u_recip"] == 0.5]
    assert exact_pair[0]["slope"] == pytest.approx(1.0, abs=1e-12)
    rank_one = [r for r in report.rows
                if r["kind"] == "lower-fit" and r["u_recip"] == 1.0]
    assert rank_one[0]["slope"] == pytest.approx(0.5, abs=1e-10)
    # the Hilbert-pivot bound: n for both pairs (v = 2, u <= 2), proven, no stderr
    uppers = [r for r in report.rows if r["kind"] == "upper"]
    assert [(r["n"], r["value"], r["cert"], r["stderr"]) for r in uppers] == \
        [(n, float(n), "upper", None) for n in (8, 16, 32)] * 2


def test_character_scaling_run_positive():
    report = run_experiment(_character_cfg())
    fit = [r for r in report.rows if r["kind"] == "lower-fit"][0]
    assert fit["verdict"] == "PASS"
    assert fit["slope"] == pytest.approx(0.5, abs=1e-10)
    lower_rows = [r for r in report.rows if r["kind"] == "lower"]
    # exact group averaging: certified bounds with no statistical error
    assert all(r["cert"] == "lower" and r["stderr"] is None for r in lower_rows)


def test_character_scaling_negative_control():
    cfg = ExperimentConfig.from_dict(dict(
        kind="character-scaling", seed=5, n_grid=(4, 8, 16),
        pairs=(("2", "inf"),), system={"generator": "full"}, control="exceed"))
    report = run_experiment(cfg)
    fit = [r for r in report.rows if r["kind"] == "lower-fit"][0]
    assert fit["slope"] >= 0.2
    assert fit["verdict"] == "PASS"


def test_character_scaling_convexity_row():
    cfg = ExperimentConfig.from_dict(dict(
        kind="character-scaling", seed=5, n_grid=(4, 8, 12),
        pairs=(("1", "2"), ("2", "inf"), ("4/3", "4")),
        system={"generator": "lacunary"}))
    report = run_experiment(cfg)
    conv = [r for r in report.rows if r["kind"] == "convexity"]
    assert len(conv) == 1
    assert conv[0]["verdict"] == "PASS"


def test_interp_audit_run():
    cfg = ExperimentConfig.from_dict(dict(
        kind="interp-audit", seed=5, n_grid=(8, 16, 32), samples=2000))
    report = run_experiment(cfg)
    assert report.all_pass
    audits = [r for r in report.rows if r["kind"].startswith("audit")]
    assert len(audits) == 6
    assert {r["kind"] for r in audits} == {"audit-sequence", "audit-schatten"}


def test_interp_audit_scores_candidates_on_control_samples(monkeypatch):
    # six searches: each leader's report run takes the configured samples,
    # and the three Monte Carlo candidates each search ranks take 1024
    calls = []
    integrate = systems._mc_second_moment

    def spy(space, samples, seed):
        calls.append(samples)
        return integrate(space, samples, seed)

    monkeypatch.setattr(systems, "_mc_second_moment", spy)
    run_experiment(ExperimentConfig.from_dict(dict(
        kind="interp-audit", seed=11, n_grid=(8, 16, 32), samples=20_000)))
    assert sorted(calls) == [1024] * 18 + [20_000] * 6


def test_interp_audit_fail_with_tiny_couple_constant(monkeypatch):
    monkeypatch.setattr(interpolation, "SCHATTEN_S1_S2", 1e-3)
    cfg = ExperimentConfig.from_dict(dict(
        kind="interp-audit", seed=5, n_grid=(8, 16, 32), samples=2000))
    report = run_experiment(cfg)
    schatten = [r for r in report.rows if r["kind"] == "audit-schatten"]
    assert any(r["verdict"] == "FAIL" for r in schatten)
    assert not report.all_pass
    for row in report.failures():
        assert row["slack"] < 0  # the violated inequality is visible


def test_kp_profile_run():
    # the 'full' generator means the whole dual group of Z_8
    cfg = ExperimentConfig.from_dict(dict(
        kind="kp-profile", seed=3, n_grid=(8,), p_grid=(4.0, 8.0),
        system={"generator": "full"}))
    report = run_experiment(cfg)
    assert len(report.rows) == 2
    for row, p in zip(report.rows, (4.0, 8.0)):
        assert row["u_recip"] == pytest.approx(1.0 / p)
        assert row["value"] >= 0.95 * 8 ** (0.5 - 1.0 / p)


def test_kp_profile_requires_grid():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig.from_dict(dict(
            kind="kp-profile", seed=3, n_grid=(8,))))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_reproducible_byte_for_byte():
    cfg = _character_cfg()
    a = run_experiment(cfg).to_json(include_timestamp=False)
    b = run_experiment(cfg).to_json(include_timestamp=False)
    assert a == b
    # timestamp is isolated in the manifest
    full = json.loads(run_experiment(cfg).to_json())
    assert "timestamp" in full["manifest"]
    stripped = json.loads(a)
    assert "timestamp" not in stripped["manifest"]


def test_report_seed_changes_mc_values():
    c1 = _schatten_cfg(pairs=(("2", "4"),), seed=5)
    c2 = _schatten_cfg(pairs=(("2", "4"),), seed=6)
    v1 = [r["value"] for r in run_experiment(c1).rows if r["kind"] == "lower"]
    v2 = [r["value"] for r in run_experiment(c2).rows if r["kind"] == "lower"]
    assert v1 != v2


def _rows_from_csv(text):
    # empty cells are None (verdict: ""); the other text columns stay strings
    text_fields = ("kind", "ideal", "cert", "verdict")
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        row = {}
        for k in ROW_FIELDS:
            raw = rec[k]
            if raw == "":
                row[k] = "" if k == "verdict" else None
            elif k == "n":
                row[k] = int(raw)
            else:
                row[k] = raw if k in text_fields else float(raw)
        rows.append(row)
    return rows


def test_csv_json_rows_identical():
    report = run_experiment(_schatten_cfg())
    parsed = _rows_from_csv(report.to_csv())
    assert parsed == report.rows
    header = report.to_csv().splitlines()[0]
    assert header == ",".join(ROW_FIELDS)


def test_report_files_written(tmp_path):
    cfg = _character_cfg(output=str(tmp_path / "report"))
    report = run_experiment(cfg)
    json_doc = json.loads((tmp_path / "report.json").read_text())
    assert json_doc["schema_version"] == 1
    assert json_doc["rows"] == json.loads(report.to_json())["rows"]
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert len(csv_lines) == len(report.rows) + 1


def test_manifest_contents():
    report = run_experiment(_character_cfg())
    man = report.manifest
    assert man["seed"] == 5
    assert man["tool_version"]
    assert man["backend"] == "numpy"
    assert len(man["config_hash"]) == 64
    assert man["config"]["system"]["generator"] == "lacunary"
