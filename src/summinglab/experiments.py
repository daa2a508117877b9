"""Declarative experiment runner with machine-readable reports.

Each experiment kind turns one headline scaling statement into a suite of
measurements over a size grid, fits log-log exponents, compares them to
closed-form references, and emits a report in both JSON (nested, with a
manifest echoing the fully resolved configuration) and CSV (one row per
measurement). Re-running a config with the same seed reproduces the JSON
byte for byte once the manifest timestamp is stripped.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field

from . import __version__
from .estimates import NormEstimate
from .interpolation import dtheta_lookup, interp_exponent, interpolation_audit
from .kernels import active_backend
from .limit_order import (fit_exponent, gaussian_limit_order,
                          limit_order_convexity_check,
                          schatten_gaussian_exponent)
from .rng import substream
from .spaces import (SpaceKind, identity_map, parse_exponent, schatten_space,
                     sequence_space)
from .summing import (ell_norm_mc, kp_summing_bound, pivot_upper,
                      summing_norm_search)
from .systems import (AscentConfig, CharacterSet, character_system,
                      full_character_set, gaussian_system, kp_growth_profile,
                      lacunary_character_set)

SCHEMA_VERSION = 1

EXPERIMENT_KINDS = ("schatten-scaling", "character-scaling", "interp-audit",
                    "kp-profile")

GENERATORS = ("lacunary", "full")

# slack allowed below zero in the convexity row of fitted exponents
CONVEXITY_TOL = 0.05

# interpolation point of the couple [l_1, l_2] -> [l_2, l_inf] that the
# convexity rows and the interpolation audit measure
THETA = 0.5

# fitted slope a negative control ('exceed') must reach
EXCEED_SLOPE = 0.2

ROW_FIELDS = ("n", "u_recip", "v_recip", "kind", "ideal", "value", "stderr",
              "cert", "slope", "ref_exponent", "slack", "verdict")


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


def _finite_real(value) -> bool:
    """A JSON number that is finite: an int or float, not a bool or a string."""
    return type(value) in (int, float) and math.isfinite(value)


@dataclass(frozen=True)
class SystemSpec:
    """Which character frequencies an experiment uses and how the group grows.

    The ``lacunary`` generator takes the powers of two 1, 2, ..., 2^(m-1) in
    Z_N with N the smallest power of two that holds them and N >= 4 m^2,
    which keeps aliasing harmless at desk scale. The ``full`` generator
    means the whole dual group, so there N = m.
    """

    generator: str = "lacunary"          # lacunary | full

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ConfigError(f"unknown generator {self.generator!r} "
                              f"(choose from {', '.join(GENERATORS)})")

    def group_size(self, m: int) -> int:
        if self.generator == "full":
            return m
        n = 2
        # Z_n with n a power of two holds log2(n) powers of two
        while n < 4 * m * m or n.bit_length() - 1 < m:
            if n > 1 << 40:
                raise ConfigError("group size coupling exceeds the desk-scale cap")
            n *= 2
        return n

    def charset(self, m: int) -> CharacterSet:
        n = self.group_size(m)
        if self.generator == "full":
            return full_character_set(n)
        return lacunary_character_set(n, m)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully declarative experiment description; the seed is mandatory."""

    kind: str
    seed: int
    n_grid: tuple[int, ...] = ()
    pairs: tuple[tuple[str, str], ...] = ()
    system: SystemSpec = field(default_factory=SystemSpec)
    samples: int = 20_000
    fit_tol: float | None = None
    control: str = "match"               # match | exceed
    p_grid: tuple[float, ...] = ()
    output: str | None = None

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r} "
                              f"(choose from {', '.join(EXPERIMENT_KINDS)})")
        if not isinstance(self.system, SystemSpec):
            raise ConfigError(f"system must be an object with a generator, got {self.system!r}")
        if not all(type(n) is int and n >= 1 for n in self.n_grid):
            raise ConfigError(f"n_grid entries must be integers >= 1, got {list(self.n_grid)!r}")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError("the size grid must be strictly ascending")
        if self.control not in ("match", "exceed"):
            raise ConfigError("control must be 'match' or 'exceed'")
        if not (self.fit_tol is None or (_finite_real(self.fit_tol) and self.fit_tol >= 0)):
            raise ConfigError(f"fit_tol must be null or a finite real >= 0, got {self.fit_tol!r}")
        if not (self.output is None or (type(self.output) is str and self.output)):
            raise ConfigError(f"output must be null or a non-empty string, got {self.output!r}")
        # the report is written after every measurement: refuse a path it cannot take first
        if self.output is not None and not os.path.isdir(os.path.dirname(self.output) or "."):
            raise ConfigError(f"output directory {os.path.dirname(self.output)!r} does not exist")
        if self.kind in ("schatten-scaling", "character-scaling") and not self.pairs:
            raise ConfigError("scaling experiments need exponent pairs")
        for pair in self.pairs:
            try:
                u, v = pair
                parse_exponent(u)
                parse_exponent(v)
            except (TypeError, ValueError, ArithmeticError) as exc:
                raise ConfigError(f"bad exponent pair {pair!r}: {exc}") from None
        for p in self.p_grid:
            try:
                ok = parse_exponent(p).recip <= 0.5
            except (TypeError, ValueError, ArithmeticError):
                ok = False
            if not ok:
                raise ConfigError(f"p_grid entries must be exponents >= 2, got {p!r}")
        if self.kind in ("schatten-scaling", "character-scaling", "interp-audit") \
                and len(self.n_grid) < 3:
            raise ConfigError("scaling and audit experiments need a grid of at least 3 sizes")
        # samples >= 2 so that every Monte Carlo value carries a stderr
        for name, low in (("seed", 0), ("samples", 2)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")

    def resolved(self) -> dict:
        out = asdict(self)
        out["pairs"] = [list(p) for p in self.pairs]
        return out

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"a config must be a JSON object, got {type(data).__name__}")
        data = dict(data)
        for key in ("n_grid", "p_grid", "pairs"):
            if data.get(key) is not None:
                if not isinstance(data[key], (list, tuple)):
                    raise ConfigError(f"{key} must be a list, got {data[key]!r}")
                data[key] = tuple(data[key])
        if data.get("pairs") is not None:
            for pair in data["pairs"]:
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise ConfigError(f"bad exponent pair {pair!r}: a pair is a list [u, v]")
            data["pairs"] = tuple((str(a), str(b)) for a, b in data["pairs"])
        try:
            if "system" in data and isinstance(data["system"], dict):
                data["system"] = SystemSpec(**data["system"])
            return ExperimentConfig(**data)
        except TypeError as exc:  # unknown or missing keys
            raise ConfigError(str(exc)) from None

    @staticmethod
    def from_json(path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        return ExperimentConfig.from_dict(data)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _row(**kwargs) -> dict:
    row = {k: None for k in ROW_FIELDS}
    row["verdict"] = ""
    for k, v in kwargs.items():
        if k not in row:
            raise KeyError(f"unknown row field {k}")
        row[k] = v
    return row


@dataclass
class RunReport:
    manifest: dict
    rows: list[dict]

    @property
    def all_pass(self) -> bool:
        return all(r["verdict"] != "FAIL" for r in self.rows)

    def failures(self) -> list[dict]:
        return [r for r in self.rows if r["verdict"] == "FAIL"]

    def to_json(self, include_timestamp: bool = True) -> str:
        manifest = dict(self.manifest)
        if not include_timestamp:
            manifest.pop("timestamp", None)
        doc = {"schema_version": SCHEMA_VERSION, "manifest": manifest, "rows": self.rows}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(ROW_FIELDS)
        for row in self.rows:
            writer.writerow(["" if row[k] is None else row[k] for k in ROW_FIELDS])
        return buf.getvalue()

    def write(self, base_path: str) -> tuple[str, str]:
        json_path, csv_path = base_path + ".json", base_path + ".csv"
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())
        return json_path, csv_path


def _manifest(config: ExperimentConfig) -> dict:
    resolved = config.resolved()
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return {
        "config": resolved,
        "config_hash": hashlib.sha256(blob.encode()).hexdigest(),
        "seed": config.seed,
        "tool_version": __version__,
        "backend": active_backend(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _cert(est: NormEstimate) -> str:
    return est.certainty.value


def _fit_slope(grid, values) -> float:
    return fit_exponent(list(zip(grid, values))).slope


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def run_schatten_scaling(config: ExperimentConfig) -> RunReport:
    """Scaling of the Gaussian-summing norm of Schatten identities.

    Per pair (u, v) and size n: a certified lower bound (Monte Carlo
    ell-norm for Hilbert domains, rank-one families otherwise) and the
    closed-form upper bound through the Hilbert pivot (``pivot_upper``). Fitted
    exponents of both columns are checked against the reference exponent:
    the lower fit must not exceed it and the upper fit must not fall below
    it (within tolerance); Hilbert-domain rows, where the Monte Carlo value
    is the norm itself, must match it two-sidedly.
    """
    rows = []
    task = 0
    for u_str, v_str in config.pairs:
        u, v = parse_exponent(u_str), parse_exponent(v_str)
        ref = schatten_gaussian_exponent(u, v)
        exact_path = u.is_hilbert and v.is_hilbert
        lower_vals, upper_vals = [], []
        for n in config.n_grid:
            mapping = identity_map(schatten_space(u, n), schatten_space(v, n))
            if u.is_hilbert:
                lower = ell_norm_mc(mapping, samples=config.samples,
                                    seed=substream(config.seed, task))
            else:
                lower = summing_norm_search(mapping, gaussian_system(), samples=config.samples,
                                            seed=substream(config.seed, task))
            task += 1
            upper = pivot_upper(mapping)
            lower_vals.append(lower.value)
            upper_vals.append(upper.value)
            rows.append(_row(n=n, u_recip=u.recip, v_recip=v.recip, kind="lower",
                             ideal="gamma", value=lower.value, stderr=lower.stderr,
                             cert=_cert(lower)))
            rows.append(_row(n=n, u_recip=u.recip, v_recip=v.recip, kind="upper",
                             ideal="gamma", value=upper.value, stderr=upper.stderr,
                             cert=_cert(upper)))
        tol = config.fit_tol if config.fit_tol is not None else (0.05 if exact_path else 0.1)
        slope_lo = _fit_slope(config.n_grid, lower_vals)
        slope_up = _fit_slope(config.n_grid, upper_vals)
        if u.is_hilbert:
            ok_lo = abs(slope_lo - ref) <= tol
            slack_lo = tol - abs(slope_lo - ref)
        else:
            ok_lo = slope_lo <= ref + tol
            slack_lo = ref + tol - slope_lo
        ok_up = slope_up >= ref - tol
        rows.append(_row(u_recip=u.recip, v_recip=v.recip, kind="lower-fit",
                         ideal="gamma", slope=slope_lo, ref_exponent=ref,
                         slack=slack_lo, verdict="PASS" if ok_lo else "FAIL"))
        rows.append(_row(u_recip=u.recip, v_recip=v.recip, kind="upper-fit",
                         ideal="gamma", slope=slope_up, ref_exponent=ref,
                         slack=slope_up - (ref - tol), verdict="PASS" if ok_up else "FAIL"))
    return RunReport(_manifest(config), rows)


def run_character_scaling(config: ExperimentConfig) -> RunReport:
    """Scaling of character-summing norms over structured vector families.

    For each pair (u, v) and family size m (with the group size coupled to
    m): the best exact lower bound over the configured family classes, the
    fitted exponent against the Gaussian limit order (control 'match'), or
    against a growth threshold for negative controls (control 'exceed').
    Pairs with v > 2 also record K_v * m^(1/v) consistency rows, and the
    proof-configuration convexity check runs on the fitted exponents.
    """
    rows = []
    slopes: dict[tuple[float, float], float] = {}
    task = 0
    for u_str, v_str in config.pairs:
        u, v = parse_exponent(u_str), parse_exponent(v_str)
        ref = gaussian_limit_order(u, v)
        values = []
        for m in config.n_grid:
            charset = config.system.charset(m)
            system = character_system(charset)
            mapping = identity_map(sequence_space(u, m), sequence_space(v, m))
            lower = summing_norm_search(mapping, system, samples=config.samples,
                                        seed=substream(config.seed, task))
            task += 1
            values.append(lower.value)
            rows.append(_row(n=m, u_recip=u.recip, v_recip=v.recip, kind="lower",
                             ideal="lambda", value=lower.value, stderr=lower.stderr,
                             cert=_cert(lower)))
            if v.recip < 0.5 and u.recip <= 0.5:
                # informational consistency rows (the template only covers
                # domains with u >= 2); K_inf is closed form, and at finite v
                # a reduced ascent budget keeps large-group runs fast. The
                # task counter moves at every v, so no other substream moves.
                ascent = AscentConfig(seed=substream(config.seed, task),
                                      restarts=12, steps=150)
                task += 1
                template = kp_summing_bound(charset, v, m, ascent)
                consistent = lower.value <= template.value * 1.05
                rows.append(_row(n=m, u_recip=u.recip, v_recip=v.recip, kind="kp-bound",
                                 ideal="lambda", value=template.value,
                                 cert=_cert(template),
                                 slack=template.value - lower.value,
                                 verdict="PASS" if consistent else ""))
        slope = _fit_slope(config.n_grid, values)
        slopes[(u.recip, v.recip)] = slope
        tol = config.fit_tol if config.fit_tol is not None else 0.05
        if config.control == "exceed":
            ok = slope >= EXCEED_SLOPE
            slack = slope - EXCEED_SLOPE
        else:
            ok = abs(slope - ref) <= tol
            slack = tol - abs(slope - ref)
        rows.append(_row(u_recip=u.recip, v_recip=v.recip, kind="lower-fit",
                         ideal="lambda", slope=slope, ref_exponent=ref, slack=slack,
                         verdict="PASS" if ok else "FAIL"))
    rows.extend(_convexity_rows(config, slopes))
    return RunReport(_manifest(config), rows)


def _convexity_rows(config: ExperimentConfig, slopes) -> list[dict]:
    """Convexity of fitted exponents on the proof configuration triple."""
    if config.control != "match":
        return []
    pair0, pair1 = ("1", "2"), ("2", "inf")
    key0 = (1.0, 0.5)
    key1 = (0.5, 0.0)
    if key0 not in slopes or key1 not in slopes:
        return []
    u_mid = interp_exponent("1", "2", THETA)
    v_mid = interp_exponent("2", "inf", THETA)
    key_mid = (u_mid.recip, v_mid.recip)
    if key_mid not in slopes:
        return []
    report = limit_order_convexity_check(pair0, pair1, THETA, slopes[key0],
                                         slopes[key1], slopes[key_mid],
                                         tol=CONVEXITY_TOL)
    return [_row(u_recip=u_mid.recip, v_recip=v_mid.recip, kind="convexity",
                 ideal="lambda", slope=report.lhs, ref_exponent=report.rhs,
                 slack=report.slack, verdict="PASS" if report.passed else "FAIL")]


def run_interpolation_audit(config: ExperimentConfig) -> RunReport:
    """Interpolation-inequality audits for sequence and Schatten couples.

    For the couple [X_1, X_2] -> [X_2, X_inf] at theta = THETA, the
    midpoint map gets a certified lower bound by family search and each
    endpoint the closed-form upper bound through the Hilbert pivot
    (``pivot_upper``); the audit then checks lower <= dtheta * uppers within 3 stderr.
    A closed-form convexity row for the same configuration is appended.
    """
    u_mid = interp_exponent("1", "2", THETA)
    v_mid = interp_exponent("2", "inf", THETA)
    rows = []
    task = 0
    for kind in (SpaceKind.SEQUENCE, SpaceKind.SCHATTEN):
        make = sequence_space if kind is SpaceKind.SEQUENCE else schatten_space
        dtheta = dtheta_lookup(kind, 1, 2)
        for n in config.n_grid:
            lower = summing_norm_search(identity_map(make(u_mid, n), make(v_mid, n)),
                                        gaussian_system(), samples=config.samples,
                                        seed=substream(config.seed, task))
            task += 1
            upper0 = pivot_upper(identity_map(make(1, n), make(2, n)))
            upper1 = pivot_upper(identity_map(make(2, n), make("inf", n)))
            audit = interpolation_audit(lower, upper0, upper1, THETA, dtheta)
            rows.append(_row(n=n, u_recip=u_mid.recip, v_recip=v_mid.recip,
                             kind=f"audit-{kind.value}", ideal="gamma",
                             value=lower.value, stderr=audit.stderr,
                             cert=_cert(lower), slack=audit.slack,
                             verdict="PASS" if audit.passed else "FAIL"))
    closed = limit_order_convexity_check(("1", "2"), ("2", "inf"), THETA,
                                         gaussian_limit_order(1, 2),
                                         gaussian_limit_order(2, "inf"),
                                         gaussian_limit_order(u_mid, v_mid))
    rows.append(_row(u_recip=u_mid.recip, v_recip=v_mid.recip, kind="convexity",
                     ideal="gamma", slope=closed.lhs, ref_exponent=closed.rhs,
                     slack=closed.slack, verdict="PASS" if closed.passed else "FAIL"))
    return RunReport(_manifest(config), rows)


def run_kp_profile(config: ExperimentConfig) -> RunReport:
    """Lambda(p) growth profile of the configured character set."""
    if not config.p_grid:
        raise ConfigError("the profile experiment needs a p grid")
    if len(config.n_grid) != 1:
        raise ConfigError("the profile experiment runs at a single set size")
    m = config.n_grid[0]
    charset = config.system.charset(m)
    ascent = AscentConfig(seed=config.seed)
    rows = []
    for entry in kp_growth_profile(charset, config.p_grid, ascent):
        est = entry["estimate"]
        rows.append(_row(n=m, u_recip=1.0 / entry["p"], kind="kp", ideal="lambda",
                         value=est.value, stderr=est.stderr, cert=_cert(est),
                         slack=entry["ratio"]))
    return RunReport(_manifest(config), rows)


RUNNERS = {
    "schatten-scaling": run_schatten_scaling,
    "character-scaling": run_character_scaling,
    "interp-audit": run_interpolation_audit,
    "kp-profile": run_kp_profile,
}


def run_experiment(config: ExperimentConfig) -> RunReport:
    report = RUNNERS[config.kind](config)
    if config.output:
        report.write(config.output)
    return report
