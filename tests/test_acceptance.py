"""Acceptance suite: one test per criterion, pinned tolerances, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines with their measured values.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import summinglab as sl
from summinglab.experiments import ExperimentConfig, run_experiment
from summinglab.systems import _mc_second_moment

TESTS_DIR = Path(__file__).resolve().parent


def _fit(ns, values):
    return sl.fit_exponent(list(zip(ns, values)))


def test_criterion_1_exact_ell_norm_hilbert():
    t0 = time.perf_counter()
    for n in (4, 16, 64):
        mapping = sl.identity_map(sl.sequence_space(2, n), sl.sequence_space(2, n))
        exact = sl.ell_norm_mc(mapping)
        assert exact.value == math.sqrt(n)  # bit-exact closed form
        mc = _mc_second_moment(mapping.codomain, 100_000, 101 + n)
        assert abs(mc.value - math.sqrt(n)) <= 0.01 * math.sqrt(n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 1: ell-norm of Hilbert identities exact and "
          f"within 1% by MC (n=4,16,64; {elapsed:.2f}s)")


def test_criterion_2_schatten_row_hilbert_domain():
    t0 = time.perf_counter()
    ns = (8, 16, 32, 64)
    slopes = {}
    for v in (2, 4, "inf"):
        ve = sl.parse_exponent(v)
        values = []
        for i, n in enumerate(ns):
            mapping = sl.identity_map(sl.schatten_space(2, n), sl.schatten_space(v, n))
            est = sl.ell_norm_mc(mapping, samples=20_000, seed=1000 + 10 * i + int(8 * ve.recip))
            values.append(est.value)
        ref = sl.schatten_gaussian_exponent(2, v)
        slope = _fit(ns, values).slope
        slopes[str(v)] = (slope, ref)
        assert abs(slope - ref) <= 0.05, f"v={v}: slope {slope} vs ref {ref}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    detail = ", ".join(f"v={k}: {s:.3f}/{r}" for k, (s, r) in slopes.items())
    print(f"\n[PASS] criterion 2: Hilbert-domain Schatten slopes within 0.05 "
          f"({detail}; {elapsed:.1f}s)")


def test_criterion_3_schatten_row_trace_class_domain():
    ns = (8, 16, 32, 64)
    values = []
    for n in ns:
        dom, cod = sl.schatten_space(1, n), sl.schatten_space(2, n)
        fam = sl.UnitFamily(dom, np.arange(n * n)[:, None])  # every matrix unit
        est = sl.summing_norm_lower(sl.identity_map(dom, cod), sl.gaussian_system(), fam)
        assert est.certainty is sl.Certainty.LOWER
        assert est.stderr is None
        assert est.value == pytest.approx(math.sqrt(n), rel=1e-12)
        values.append(est.value)
    fit = _fit(ns, values)
    assert fit.slope == pytest.approx(0.5, abs=1e-10)
    assert fit.max_rel_residual < 1e-10
    print(f"\n[PASS] criterion 3: rank-one lower bounds for trace-class to "
          f"Hilbert-Schmidt identities equal sqrt(n) (slope {fit.slope:.12f})")


def test_criterion_4_limit_order_closed_form():
    # formula-governed 9-entry table: the u >= 2 rows carry 1/v, so the
    # (u=2, v=1) entry is 1 (see the decisions ledger for the one divergent
    # tabulated entry)
    table = sl.limit_order_table("gamma", [1, 2, "inf"], [1, 2, "inf"])
    expected = np.array([[0.5, 0.0, 0.0],
                         [1.0, 0.5, 0.0],
                         [1.0, 0.5, 0.0]])
    assert np.array_equal(table, expected)
    grid = np.linspace(0.0, 1.0, 50)
    worst = 0.0
    for ru in grid:
        for rv in grid:
            u, v = sl.Exponent(ru), sl.Exponent(rv)
            diff = abs(sl.schatten_gaussian_exponent(u, v)
                       - (0.5 + sl.gaussian_limit_order(u, v)))
            worst = max(worst, diff)
    assert worst <= 1e-14
    print(f"\n[PASS] criterion 4: closed-form table reproduced; exponent "
          f"identity holds on a 50x50 grid (worst gap {worst:.2e})")


def test_criterion_5_convexity():
    rng = np.random.default_rng(2024)
    min_slack = np.inf
    for _ in range(1000):
        ru0, ru1 = rng.uniform(0.5, 1.0, size=2)
        rv0, rv1 = rng.uniform(0.0, 1.0, size=2)
        theta = rng.uniform(0.01, 0.99)
        lam = lambda ru, rv: sl.gaussian_limit_order(sl.Exponent(ru), sl.Exponent(rv))
        report = sl.limit_order_convexity_check(
            (sl.Exponent(ru0), sl.Exponent(rv0)), (sl.Exponent(ru1), sl.Exponent(rv1)),
            theta, lam(ru0, rv0), lam(ru1, rv1),
            lam((1 - theta) * ru0 + theta * ru1, (1 - theta) * rv0 + theta * rv1))
        min_slack = min(min_slack, report.slack)
        assert report.slack >= 0.0 - 1e-12
    # proof configuration: theta = 2/u' sends (1,2),(2,inf) to (u, v_u)
    u = sl.parse_exponent("4/3")
    theta = 2.0 * (1.0 - u.recip)
    u_mid = sl.interp_exponent(1, 2, theta)
    v_mid = sl.interp_exponent(2, "inf", theta)
    lam = sl.gaussian_limit_order
    report = sl.limit_order_convexity_check((1, 2), (2, "inf"), theta,
                                            lam(1, 2), lam(2, "inf"),
                                            lam(u_mid, v_mid))
    assert abs(report.slack) <= 1e-12
    print(f"\n[PASS] criterion 5: convexity slack >= 0 on 1000 random triples "
          f"(min {min_slack:.2e}); proof configuration slack {report.slack:.2e}")


def test_criterion_6_interpolation_audit():
    results = []
    for n in (8, 16, 32):
        lower = sl.summing_norm_search(
            sl.identity_map(sl.sequence_space("4/3", n), sl.sequence_space(4, n)),
            sl.gaussian_system(), samples=20_000, seed=600 + n)
        seq = sl.sequence_space
        upper0 = sl.pivot_upper(sl.identity_map(seq(1, n), seq(2, n)))
        upper1 = sl.pivot_upper(sl.identity_map(seq(2, n), seq("inf", n)))
        dtheta = sl.DThetaBound(math.sqrt(2), True, "sequence couple, endpoints <= 2")
        report = sl.interpolation_audit(lower, upper0, upper1, 0.5, dtheta)
        assert report.passed
        assert report.slack >= -3.0 * report.stderr
        results.append(f"n={n}: slack {report.slack:.3f}")
    print(f"\n[PASS] criterion 6: interpolation audits pass ({'; '.join(results)})")


def test_criterion_7_lambda_p_constants():
    cfg = sl.AscentConfig(seed=77)
    single = sl.kp_constant_lower(
        sl.CharacterSet(16, (3,)), 4, cfg)
    assert single.value == 1.0
    worst = 0.0
    for n in (8, 16):
        for p in (4, 8):
            est = sl.kp_constant_lower(sl.full_character_set(n), p, cfg)
            truth = n ** (0.5 - 1.0 / p)
            rel = abs(est.value - truth) / truth
            worst = max(worst, rel)
            assert rel <= 0.05
    rng = np.random.default_rng(7)
    for _ in range(100):
        size = int(rng.integers(1, 9))
        freqs = tuple(int(f) for f in rng.choice(64, size=size, replace=False))
        est = sl.kp_constant_lower(sl.CharacterSet(64, freqs), 2, cfg)
        assert est.value == 1.0
    print(f"\n[PASS] criterion 7: K_p singleton exact, full sets within 5% "
          f"(worst rel err {worst:.2e}), K_2 == 1 on 100 random sets")


def test_criterion_8_character_scaling_controls():
    cfg = ExperimentConfig.from_dict(dict(
        kind="character-scaling", seed=88, n_grid=(4, 8, 12, 16),
        pairs=(("2", "inf"), ("1", "1"), ("1", "2")),
        system={"generator": "lacunary"}, fit_tol=0.1))
    report = run_experiment(cfg)
    fits = {(r["u_recip"], r["v_recip"]): r for r in report.rows if r["kind"] == "lower-fit"}
    details = []
    for (ur, vr), row in fits.items():
        ref = sl.gaussian_limit_order(sl.Exponent(ur), sl.Exponent(vr))
        assert abs(row["slope"] - ref) <= 0.1
        assert row["verdict"] == "PASS"
        details.append(f"({ur:g},{vr:g}): {row['slope']:.3f}/{ref:g}")
    lower_rows = [r for r in report.rows if r["kind"] == "lower"]
    assert all(r["stderr"] is None for r in lower_rows)  # exact averaging only

    neg = ExperimentConfig.from_dict(dict(
        kind="character-scaling", seed=88, n_grid=(4, 8, 16, 32),
        pairs=(("2", "inf"),), system={"generator": "full"}, control="exceed"))
    neg_report = run_experiment(neg)
    neg_fit = [r for r in neg_report.rows if r["kind"] == "lower-fit"][0]
    assert neg_fit["slope"] >= 0.2
    assert neg_fit["verdict"] == "PASS"
    print(f"\n[PASS] criterion 8: lacunary fits match the limit order "
          f"({'; '.join(details)}); full-set control slope "
          f"{neg_fit['slope']:.3f} >= 0.2")


def test_criterion_9_reproducibility():
    documents = []
    for kind, extra in (("character-scaling",
                         dict(n_grid=(4, 8, 12), pairs=(("1", "1"),),
                              system={"generator": "lacunary"})),
                        ("schatten-scaling",
                         dict(n_grid=(8, 16, 32), pairs=(("2", "4"),), samples=2000))):
        cfg = ExperimentConfig.from_dict(dict(kind=kind, seed=99, **extra))
        a = run_experiment(cfg).to_json(include_timestamp=False)
        b = run_experiment(cfg).to_json(include_timestamp=False)
        assert a == b  # byte identical
        full = json.loads(run_experiment(cfg).to_json())
        assert "timestamp" in full["manifest"]
        documents.append(kind)
    print(f"\n[PASS] criterion 9: byte-identical JSON reports for {documents}")


def test_criterion_10_property_suites_under_a_minute():
    files = ["test_spaces.py", "test_systems.py", "test_summing.py",
             "test_interpolation.py", "test_limit_order.py"]
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *[str(TESTS_DIR / f) for f in files]],
        capture_output=True, text=True, cwd=str(TESTS_DIR.parent))
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert elapsed < 60.0
    summary = proc.stdout.strip().splitlines()[-1]
    print(f"\n[PASS] criterion 10: property suites green in {elapsed:.1f}s ({summary})")
