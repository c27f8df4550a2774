"""Command-line front end.

Parameter files are JSON with top-level blocks "physical" (dimensional
inputs) and/or "model" (dimensionless parameters). When both are present the
model block defines the dynamics and the physical block supplies conversion
scales. Every command is deterministic given the file and flags; randomized
verification draws are seeded via --seed.

Exit codes: 0 success, 2 configuration error, 3 domain termination (lambda
floor reached during simulate), 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

from . import __version__
from .equilibria import find_equilibria
from .errors import ConfigError, DegenerateSlope, NotHopfCandidate
from .model import (
    ModelParams,
    PhysicalParams,
    Scales,
    State,
    nondimensionalize,
    nullcline_f,
    nullcline_g,
    sheet_height_scale,
)
from .oracle import run_verification
from .simulator import ModelKind, Termination, integrate, sweep_mu
from .stability import classify, hopf_analysis, mu_thresholds

M_PER_KM = 1000.0


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_raw(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read parameter file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(raw) - {"physical", "model"}
    if unknown:
        raise ConfigError(f"{path}: unknown top-level keys {sorted(unknown)}")
    return raw


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text  # bare strings (e.g. family names) pass through


def _apply_overrides(raw: dict, sets: list[str]) -> dict:
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, value = item.split("=", 1)
        path = key.split(".")
        node = raw
        for part in path[:-1]:
            nxt = node.setdefault(part, {})
            if not isinstance(nxt, dict):
                raise ConfigError(f"--set path {key!r} descends through a scalar")
            node = nxt
        node[path[-1]] = _parse_value(value)
    return raw


def _load(args) -> tuple[ModelParams, Scales | None]:
    """The model that defines the dynamics, and the scales when there is a
    physical block, from --params with the --set overrides applied. A model
    block takes precedence over the parameters derived from a physical one."""
    raw = _apply_overrides(_load_raw(args.params), args.set)
    model = scales = None
    if "physical" in raw:
        model, scales = nondimensionalize(PhysicalParams.from_dict(raw["physical"]))
    if "model" in raw:
        model = ModelParams.from_dict(raw["model"])
    if model is None:
        raise ConfigError("need a 'model' or 'physical' block to define the dynamics")
    return model, scales


def _resolve_mu(args, scales: Scales | None) -> float:
    if args.mu is not None:
        if not (math.isfinite(args.mu) and args.mu > 0):
            raise ConfigError(f"--mu must be finite and positive, got {args.mu}")
        return args.mu
    return scales.mu if scales is not None else 1.0


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows: list) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)
        )
    return "\n".join(lines) + "\n"


def cmd_scales(args) -> int:
    raw = _apply_overrides(_load_raw(args.params), args.set)
    if "physical" not in raw:
        raise ConfigError("scales needs a 'physical' block")
    physical = PhysicalParams.from_dict(raw["physical"])
    model, scales = nondimensionalize(physical)
    H = sheet_height_scale(physical.tau0, physical.rho_i, physical.grav)
    if args.format == "json":
        payload = {
            "T_star_K": scales.T_star,
            "L_star_m": scales.L_star,
            "L_star_km": scales.L_star / M_PER_KM,
            "t_star_yr": scales.t_star,
            "mu": scales.mu,
            "epsilon": model.epsilon,
            "beta": model.beta,
            "H_sqrt_m": H,
            "m_rate_m_per_yr": physical.m_rate,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [
            f"T*      = {scales.T_star:.6g} K",
            f"L*      = {scales.L_star:.6g} m ({scales.L_star / M_PER_KM:.6g} km)",
            f"t*      = {scales.t_star:.6g} yr",
            f"mu      = {scales.mu:.6g}",
            f"epsilon = {model.epsilon:.6g}",
            f"beta    = {model.beta:.6g}",
            f"H       = {H:.6g} m^(1/2)",
            f"m_rate  = {physical.m_rate:.6g} m/yr",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_analyze(args) -> int:
    if args.format == "csv":
        raise ConfigError("analyze emits JSON; csv is not supported here")
    model, scales = _load(args)
    mu = _resolve_mu(args, scales)
    points = find_equilibria(model)
    if not points:
        print("warning: no equilibria in the scan range", file=sys.stderr)
    rows = []
    for cp in points:
        row = {
            "theta_c": cp.theta_c,
            "lambda_c": cp.lambda_c,
            "derivatives": {
                "f1": cp.f1,
                "f2": cp.f2,
                "f3": cp.f3,
                "g1": cp.g1,
                "g2": cp.g2,
                "xi_c": cp.xi_c,
                "xi1": cp.xi1,
                "xi2": cp.xi2,
                "xi3": cp.xi3,
            },
            "mu": mu,
            "classification": classify(cp, mu, model.alpha2, model.gamma).value,
        }
        try:
            th = mu_thresholds(cp, model.alpha2, model.gamma)
            row["thresholds"] = {
                "mu1": th.mu1,
                "mu2": th.mu2,
                "mu0": th.mu0,
                "omega0": th.omega0,
            }
        except DegenerateSlope:
            row["thresholds"] = None
        try:
            hopf = hopf_analysis(cp, model.alpha2, model.gamma)
            row["hopf"] = {
                "mu0": hopf.mu0,
                "omega0": hopf.omega0,
                "l1": hopf.l1,
                "criticality": hopf.criticality.value,
                "transversality": hopf.transversality,
            }
        except NotHopfCandidate:
            row["hopf"] = None
        rows.append(row)
    _emit(json.dumps(rows, indent=2) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    model, scales = _load(args)
    mu = _resolve_mu(args, scales)
    for name in ("theta0", "lam0", "t_end"):
        if getattr(args, name) is None:
            raise ConfigError(f"simulate needs --{name.replace('_', '-')}")
    if not (math.isfinite(args.t_end) and args.t_end > 0):
        raise ConfigError(f"--t-end must be finite and positive, got {args.t_end}")
    if args.dimensional and scales is None:
        raise ConfigError("--dimensional needs a 'physical' block for the scales")
    try:
        initial = State(theta=args.theta0, lam=args.lam0)
    except Exception as exc:
        raise ConfigError(f"bad initial state: {exc}") from exc
    kind = ModelKind(args.model)
    traj = integrate(model, mu, initial, args.t_end, model=kind)

    header = ["tau", "theta", "lambda"]
    if args.dimensional:
        header += ["t_years", "T_kelvin", "l_km"]
    if traj.regimes is not None:
        header.append("regime")
    times, thetas, lams = traj.times.tolist(), traj.thetas.tolist(), traj.lams.tolist()
    columns = [times, thetas, lams]
    if args.dimensional:
        columns += [
            [t * scales.t_star for t in times],
            [theta * scales.T_star for theta in thetas],
            [lam * scales.L_star / M_PER_KM for lam in lams],
        ]
    if traj.regimes is not None:
        columns.append(traj.regimes)
    _emit(_csv_text(header, list(zip(*columns))), args.out)
    return 3 if traj.terminated is Termination.LAMBDA_FLOOR else 0


def cmd_sweep(args) -> int:
    model, _ = _load(args)
    if args.mu_min is None or args.mu_max is None:
        raise ConfigError("sweep needs --mu-min and --mu-max")
    if not (0 < args.mu_min < args.mu_max and math.isfinite(args.mu_max)):
        raise ConfigError("need 0 < --mu-min < --mu-max, both finite")
    if args.mu_steps < 1:
        raise ConfigError(f"--mu-steps must be at least 1, got {args.mu_steps}")
    step = (args.mu_max - args.mu_min) / max(args.mu_steps - 1, 1)
    grid = [args.mu_min + i * step for i in range(args.mu_steps)]
    diagram = sweep_mu(model, grid, detect_cycles=args.cycles)
    if args.format == "json":
        payload = [
            {
                "mu": r.mu,
                "kind": r.kind.value if r.kind is not None else "degenerate",
                "period": r.period,
                "amplitude_theta": r.amplitude_theta,
                "amplitude_lambda": r.amplitude_lambda,
            }
            for r in diagram.rows
        ]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        rows = [
            [
                r.mu,
                r.kind.value if r.kind is not None else "degenerate",
                "" if r.period is None else _fmt(r.period),
                "" if r.amplitude_theta is None else _fmt(r.amplitude_theta),
                "" if r.amplitude_lambda is None else _fmt(r.amplitude_lambda),
            ]
            for r in diagram.rows
        ]
        _emit(
            _csv_text(
                ["mu", "kind", "period", "amplitude_theta", "amplitude_lambda"], rows
            ),
            args.out,
        )
    return 0


def cmd_nullclines(args) -> int:
    model, _ = _load(args)
    n = args.samples
    lo, hi = args.theta_min, args.theta_max
    if not (0 < lo < hi and n >= 2):
        raise ConfigError("need 0 < --theta-min < --theta-max and --samples >= 2")
    rows = []
    for i in range(n):
        th = lo + (hi - lo) * i / (n - 1)
        rows.append([th, float(nullcline_f(model, th, 0)), float(nullcline_g(model, th, 0))])
    if args.format == "json":
        payload = [{"theta": r[0], "f": r[1], "g": r[2]} for r in rows]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(_csv_text(["theta", "f", "g"], rows), args.out)
    return 0


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    model, scales = _load(args)
    mu = _resolve_mu(args, scales)
    report = run_verification(model, mu=mu, seed=args.seed)
    lines = []
    for check in report.checks:
        tag = "PASS" if check.passed else "FAIL"
        lines.append(f"[{tag}] {check.name}" + (f": {check.detail}" if check.detail else ""))
    lines.append(
        f"{sum(c.passed for c in report.checks)}/{len(report.checks)} checks passed"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.all_passed else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glacier-dyn",
        description="Planar temperature/ice-extent model: analysis and simulation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--params", required=True, help="JSON parameter file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry by dotted path (repeatable)",
        )
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--mu", type=float, default=None)

    p = sub.add_parser("scales", help="derived scales and dimensionless numbers")
    common(p)
    p.set_defaults(func=cmd_scales)

    p = sub.add_parser("analyze", help="equilibria, classification, Hopf data")
    common(p)
    p.set_defaults(func=cmd_analyze, format="json")

    p = sub.add_parser("simulate", help="integrate a trajectory to CSV")
    common(p)
    p.add_argument("--theta0", type=float, default=None)
    p.add_argument("--lam0", type=float, default=None)
    p.add_argument("--t-end", type=float, default=None, dest="t_end")
    p.add_argument("--model", choices=("simplified", "full"), default="simplified")
    p.add_argument("--dimensional", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="classification (and cycles) along a mu grid")
    common(p)
    p.add_argument("--mu-min", type=float, default=None, dest="mu_min")
    p.add_argument("--mu-max", type=float, default=None, dest="mu_max")
    p.add_argument("--mu-steps", type=int, default=21, dest="mu_steps")
    p.add_argument("--cycles", action="store_true", help="attempt cycle detection")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("nullclines", help="sample f and g for plotting")
    common(p)
    p.add_argument("--theta-min", type=float, default=0.5, dest="theta_min")
    p.add_argument("--theta-max", type=float, default=2.5, dest="theta_max")
    p.add_argument("--samples", type=int, default=1001)
    p.set_defaults(func=cmd_nullclines)

    p = sub.add_parser("verify", help="run the numerical cross-check suite")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="seed of the oracle draws")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The consumer (e.g. `head`) closed the pipe early; point stdout at
        # devnull so interpreter shutdown does not raise a second error.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
