"""Command-line surface.

Thin argument parsing over the library operations and the experiment
runner. Exit codes: 0 when every verdict passes, 1 when any check fails,
2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .estimates import NormEstimate
from .experiments import (ConfigError, ExperimentConfig, RunReport,
                          SystemSpec, run_experiment)
from .limit_order import fit_exponent, limit_order_table
from .spaces import identity_map, parse_space
from .summing import SearchConfig, ell_norm_mc, summing_norm_search
from .systems import (AscentConfig, CharacterSet, cyclic_group,
                      character_system, full_character_set, gaussian_system,
                      kp_constant_lower, sidon_constant_lower)

USAGE_ERROR = 2
CHECK_FAILED = 1


def _estimate_payload(est: NormEstimate) -> dict:
    return {"value": est.value, "cert": est.certainty.value,
            "stderr": est.stderr, "method": est.method}


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _parse_charset(args) -> CharacterSet:
    group = cyclic_group(args.group)
    if args.freqs.strip().lower() == "full":
        return full_character_set(args.group)
    freqs = tuple((int(f),) for f in args.freqs.split(","))
    return CharacterSet(group, freqs)


def _cmd_lnorm(args) -> int:
    domain = parse_space(args.space)
    codomain = parse_space(args.target)
    est = ell_norm_mc(identity_map(domain, codomain), samples=args.samples,
                      seed=args.seed, complex_normals=args.complex_normals)
    _emit(args, _estimate_payload(est),
          f"ell-norm {args.space} -> {args.target}: {est.value:.6g}"
          + (f" +- {est.stderr:.2g}" if est.stderr else " (exact)"))
    return 0


def _cmd_pib(args) -> int:
    domain = parse_space(args.space)
    codomain = parse_space(args.target)
    if args.system == "gaussian":
        system = gaussian_system(args.complex_normals)
    else:
        system = character_system(_parse_charset(args))
    cfg = SearchConfig(seed=args.seed, samples=args.samples)
    est = summing_norm_search(identity_map(domain, codomain), system, cfg)
    _emit(args, _estimate_payload(est),
          f"summing-norm lower bound {args.space} -> {args.target} "
          f"[{args.system}]: {est.value:.6g}"
          + (f" +- {est.stderr:.2g}" if est.stderr else "")
          + f" ({est.method})")
    return 0


def _cmd_kp(args) -> int:
    charset = _parse_charset(args)
    cfg = AscentConfig(seed=args.seed, restarts=args.restarts, steps=args.steps)
    est = kp_constant_lower(charset, args.p, cfg)
    _emit(args, _estimate_payload(est),
          f"K_{args.p} lower bound for {charset.size} characters on Z_{args.group}: "
          f"{est.value:.6g}")
    return 0


def _cmd_sidon(args) -> int:
    charset = _parse_charset(args)
    cfg = AscentConfig(seed=args.seed, restarts=args.restarts, steps=args.steps)
    est = sidon_constant_lower(charset, cfg)
    _emit(args, _estimate_payload(est),
          f"Sidon-constant lower bound for {charset.size} characters on "
          f"Z_{args.group}: {est.value:.6g}")
    return 0


def _cmd_limit_order(args) -> int:
    grid = [g.strip() for g in args.grid.split(",")]
    v_grid = [g.strip() for g in args.v_grid.split(",")] if args.v_grid else grid
    table = limit_order_table(args.ideal, grid, v_grid)
    if args.json:
        payload = {"ideal": args.ideal, "u_grid": grid, "v_grid": v_grid,
                   "table": table.tolist()}
        print(json.dumps(payload, sort_keys=True))
        return 0
    header = "u \\ v " + " ".join(f"{v:>8}" for v in v_grid)
    print(header)
    for u, row in zip(grid, table):
        print(f"{u:>5} " + " ".join(f"{x:8.4g}" for x in row))
    return 0


def _cmd_fit(args) -> int:
    points = []
    for chunk in args.points.split(","):
        n, _, v = chunk.partition(":")
        points.append((float(n), float(v)))
    fit = fit_exponent(points)
    _emit(args, {"slope": fit.slope, "intercept": fit.intercept,
                 "max_rel_residual": fit.max_rel_residual},
          f"slope {fit.slope:.6g} (intercept {fit.intercept:.4g}, "
          f"max rel residual {fit.max_rel_residual:.2g})")
    return 0


def _experiment_config(args, kind: str) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_json(args.config)
        if config.kind != kind:
            raise ConfigError(f"config file declares kind {config.kind!r}, "
                              f"but the {kind!r} command was invoked")
        return config
    data: dict = {"kind": kind, "seed": args.seed}
    if args.seed is None:
        raise ConfigError("--seed (or --config) is required")
    if getattr(args, "n_grid", None):
        data["n_grid"] = tuple(int(x) for x in args.n_grid.split(","))
    if getattr(args, "pairs", None):
        pairs = []
        for chunk in args.pairs.split(","):
            u, _, v = chunk.partition(":")
            pairs.append((u, v))
        data["pairs"] = tuple(pairs)
    if getattr(args, "samples", None) is not None:
        data["samples"] = args.samples
    if getattr(args, "generator", None):
        data["system"] = SystemSpec(generator=args.generator)
    if getattr(args, "control", None):
        data["control"] = args.control
    if getattr(args, "out", None):
        data["output"] = args.out
    return ExperimentConfig.from_dict(data)


def _run_and_report(args, kind: str) -> int:
    config = _experiment_config(args, kind)
    report = run_experiment(config)
    if args.json:
        print(report.to_json())
    elif args.csv:
        print(report.to_csv(), end="")
    else:
        _print_summary(report)
    return 0 if report.all_pass else CHECK_FAILED


def _print_summary(report: RunReport) -> None:
    rows = report.rows
    checked = [r for r in rows if r["verdict"] in ("PASS", "FAIL")]
    for row in checked:
        label = f"{row['kind']}"
        if row["u_recip"] is not None:
            label += f" u_recip={row['u_recip']:g} v_recip={row['v_recip']:g}"
        if row["n"] is not None:
            label += f" n={row['n']}"
        detail = ""
        if row["slope"] is not None:
            detail = f" slope={row['slope']:.4g} ref={row['ref_exponent']:.4g}"
        elif row["value"] is not None:
            detail = f" value={row['value']:.6g}"
        if row["verdict"] == "FAIL":
            detail += f" (violated: slack={row['slack']:.4g} < 0)"
        print(f"[{row['verdict']}] {label}{detail}")
    n_fail = len(report.failures())
    print(f"{len(checked) - n_fail}/{len(checked)} checks passed; "
          f"{len(rows)} rows total")


class _Parser(argparse.ArgumentParser):
    """Reports usage errors on one line, like every other error; subparsers inherit it."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="summinglab",
        description="Summing-norm and scaling-exponent laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--csv", action="store_true", help="emit CSV rows")

    p = sub.add_parser("lnorm", help="Monte Carlo ell-norm of an identity map")
    p.add_argument("--space", required=True, help="domain, e.g. l2:16 or s2:8")
    p.add_argument("--target", required=True, help="codomain, e.g. linf:16")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--complex-normals", action="store_true")
    add_output_flags(p)
    p.set_defaults(func=_cmd_lnorm)

    p = sub.add_parser("pib", help="certified summing-norm lower bound by family search")
    p.add_argument("--space", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--system", choices=("gaussian", "characters"), default="gaussian")
    p.add_argument("--group", type=int, default=0, help="cyclic group order (characters)")
    p.add_argument("--freqs", default="full", help="comma list or 'full' (characters)")
    p.add_argument("--samples", type=int, default=20_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--complex-normals", action="store_true")
    add_output_flags(p)
    p.set_defaults(func=_cmd_pib)

    p = sub.add_parser("kp", help="Lambda(p) constant lower bound")
    p.add_argument("--group", type=int, required=True)
    p.add_argument("--freqs", default="full")
    p.add_argument("--p", required=True)
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--seed", type=int, required=True)
    add_output_flags(p)
    p.set_defaults(func=_cmd_kp)

    p = sub.add_parser("sidon", help="Sidon constant lower bound")
    p.add_argument("--group", type=int, required=True)
    p.add_argument("--freqs", default="full")
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--seed", type=int, required=True)
    add_output_flags(p)
    p.set_defaults(func=_cmd_sidon)

    p = sub.add_parser("limit-order", help="closed-form limit-order table")
    p.add_argument("--ideal", choices=("gamma", "pi2"), default="gamma")
    p.add_argument("--grid", required=True, help="comma list of exponents, e.g. 1,2,inf")
    p.add_argument("--v-grid", default=None)
    add_output_flags(p)
    p.set_defaults(func=_cmd_limit_order)

    p = sub.add_parser("fit", help="log-log exponent fit of n:value points")
    p.add_argument("--points", required=True, help="e.g. 4:2,16:4,64:8")
    add_output_flags(p)
    p.set_defaults(func=_cmd_fit)

    experiment_specs = (
        ("thm2", "schatten-scaling",
         "Schatten-identity scaling suite (Gaussian-summing norms)"),
        ("thm1", "character-scaling",
         "character-system scaling suite against the Gaussian limit order"),
        ("interp-audit", "interp-audit",
         "interpolation inequality audits for sequence and Schatten couples"),
    )
    for name, kind, help_text in experiment_specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--n-grid", default=None, help="comma list of sizes")
        p.add_argument("--pairs", default=None, help="e.g. 2:inf,1:2")
        p.add_argument("--samples", type=int, default=None)
        if kind == "character-scaling":
            p.add_argument("--generator", choices=("lacunary", "full"), default=None)
            p.add_argument("--control", choices=("match", "exceed"), default=None)
        p.add_argument("--out", default=None, help="report base path (.json/.csv)")
        add_output_flags(p)
        p.set_defaults(func=lambda a, k=kind: _run_and_report(a, k))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
