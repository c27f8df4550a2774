"""Command-line front end.

Parameter files are JSON with top-level blocks "physical" (dimensional
inputs) and/or "model" (dimensionless parameters). When both are present the
model block defines the dynamics and the physical block supplies conversion
scales. Every command reads the file through `_load`, which applies the --set
overrides and validates each block into its record; a value that is not a
number is a configuration error naming its dotted key. Every command is
deterministic given the file and flags; randomized verification draws are
seeded via --seed.

Each command takes only the options it reads: --mu on analyze, simulate and
verify; --format (csv or json, written by `_write_table`) on scales, sweep
and nullclines; --seed on verify. analyze always prints JSON, simulate CSV
and verify text. A missing required option or one the command does not take
is an argparse error and exits 2.

Exit codes: 0 success, 2 configuration error or any other input the model
cannot take (every GlacierDynError, e.g. rates that overflow at the start of
simulate), 3 domain termination (lambda floor reached during simulate),
4 verification failure. Each exit 2 prints one `error:` line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import asdict

from . import __version__
from .equilibria import find_equilibria
from .errors import ConfigError, DegenerateSlope, GlacierDynError, NotHopfCandidate
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


def _load(args) -> tuple[PhysicalParams | None, ModelParams | None]:
    """The records of the physical and model blocks of --params (None where a
    block is absent) after the --set overrides. An override value is read as
    JSON, or else kept as a bare string (e.g. a family name)."""
    path = args.params
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read parameter file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    for item in args.set:
        key, eq, text = item.partition("=")
        if not eq:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        *parents, leaf = key.split(".")
        node = raw
        for part in parents:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key!r} descends through a scalar")
        try:
            node[leaf] = json.loads(text)
        except json.JSONDecodeError:
            node[leaf] = text
    unknown = set(raw) - {"physical", "model"}
    if unknown:
        raise ConfigError(f"{path}: unknown top-level keys {sorted(unknown)}")
    physical = PhysicalParams.from_dict(raw["physical"]) if "physical" in raw else None
    model = ModelParams.from_dict(raw["model"]) if "model" in raw else None
    return physical, model


def _dynamics(args) -> tuple[ModelParams, Scales | None]:
    """The model that defines the dynamics, and the scales when there is a
    physical block. A model block takes precedence over the parameters
    derived from a physical one."""
    physical, model = _load(args)
    scales = None
    if physical is not None:
        derived, scales = nondimensionalize(physical)
        if model is None:
            model = derived
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


def _cell(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".17g") if isinstance(value, float) else str(value)


def _write_table(header: list[str], rows, fmt: str, out_path: str | None):
    """Rows as CSV (None is an empty cell) or as a JSON list of objects keyed
    by the header."""
    if fmt == "json":
        text = json.dumps([dict(zip(header, row)) for row in rows], indent=2)
    else:
        lines = [",".join(header)]
        lines += [",".join(_cell(v) for v in row) for row in rows]
        text = "\n".join(lines)
    _emit(text + "\n", out_path)


def cmd_scales(args) -> int:
    physical, _ = _load(args)
    if physical is None:
        raise ConfigError("scales needs a 'physical' block")
    model, scales = nondimensionalize(physical)
    H = sheet_height_scale(physical.tau0, physical.rho_i, physical.grav)
    # (JSON key, value, text line); the km figure shares the L* line.
    quantities = [
        ("T_star_K", scales.T_star, "T*      = {:.6g} K\n"),
        ("L_star_m", scales.L_star, "L*      = {:.6g} m"),
        ("L_star_km", scales.L_star / M_PER_KM, " ({:.6g} km)\n"),
        ("t_star_yr", scales.t_star, "t*      = {:.6g} yr\n"),
        ("mu", scales.mu, "mu      = {:.6g}\n"),
        ("epsilon", model.epsilon, "epsilon = {:.6g}\n"),
        ("beta", model.beta, "beta    = {:.6g}\n"),
        ("H_sqrt_m", H, "H       = {:.6g} m^(1/2)\n"),
        ("m_rate_m_per_yr", physical.m_rate, "m_rate  = {:.6g} m/yr\n"),
    ]
    if args.format == "json":
        text = json.dumps({key: value for key, value, _ in quantities}, indent=2) + "\n"
    else:
        text = "".join(line.format(value) for _, value, line in quantities)
    _emit(text, args.out)
    return 0


def cmd_analyze(args) -> int:
    model, scales = _dynamics(args)
    mu = _resolve_mu(args, scales)
    points = find_equilibria(model)
    if not points:
        print("warning: no equilibria in the scan range", file=sys.stderr)
    rows = []
    for cp in points:
        derivatives = asdict(cp)
        del derivatives["alpha2"], derivatives["gamma"]
        row = {
            "theta_c": derivatives.pop("theta_c"),
            "lambda_c": derivatives.pop("lambda_c"),
            "derivatives": derivatives,
            "mu": mu,
            "classification": classify(cp, mu).value,
        }
        try:
            row["thresholds"] = asdict(mu_thresholds(cp))
        except DegenerateSlope:
            row["thresholds"] = None
        try:
            hopf = asdict(hopf_analysis(cp))
            row["hopf"] = {**hopf, "criticality": hopf["criticality"].value}
        except NotHopfCandidate:
            row["hopf"] = None
        rows.append(row)
    _emit(json.dumps(rows, indent=2) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    model, scales = _dynamics(args)
    mu = _resolve_mu(args, scales)
    if not (math.isfinite(args.t_end) and args.t_end > 0):
        raise ConfigError(f"--t-end must be finite and positive, got {args.t_end}")
    if args.dimensional and scales is None:
        raise ConfigError("--dimensional needs a 'physical' block for the scales")
    kind = ModelKind(args.model)
    traj = integrate(model, mu, State(theta=args.theta0, lam=args.lam0), args.t_end, model=kind)

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
    _write_table(header, zip(*columns), "csv", args.out)
    return 3 if traj.terminated is Termination.LAMBDA_FLOOR else 0


def cmd_sweep(args) -> int:
    model, _ = _dynamics(args)
    if not (0 < args.mu_min < args.mu_max and math.isfinite(args.mu_max)):
        raise ConfigError("need 0 < --mu-min < --mu-max, both finite")
    if args.mu_steps < 1:
        raise ConfigError(f"--mu-steps must be at least 1, got {args.mu_steps}")
    step = (args.mu_max - args.mu_min) / max(args.mu_steps - 1, 1)
    grid = [args.mu_min + i * step for i in range(args.mu_steps)]
    header = ["mu", "kind", "period", "amplitude_theta", "amplitude_lambda"]
    rows = [
        (
            r.mu,
            r.kind.value if r.kind is not None else "degenerate",
            r.period,
            r.amplitude_theta,
            r.amplitude_lambda,
        )
        for r in sweep_mu(model, grid, detect_cycles=args.cycles)
    ]
    _write_table(header, rows, args.format, args.out)
    return 0


def cmd_nullclines(args) -> int:
    model, _ = _dynamics(args)
    n = args.samples
    lo, hi = args.theta_min, args.theta_max
    if not (0 < lo < hi and math.isfinite(hi) and n >= 2):
        raise ConfigError(
            "need 0 < --theta-min < --theta-max, both finite, and --samples >= 2"
        )
    rows = []
    for i in range(n):
        th = lo + (hi - lo) * i / (n - 1)
        rows.append((th, float(nullcline_f(model, th, 0)), float(nullcline_g(model, th, 0))))
    _write_table(["theta", "f", "g"], rows, args.format, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    model, scales = _dynamics(args)
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

    def command(name, func, help, mu=False, fmt=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--params", required=True, help="JSON parameter file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry by dotted path (repeatable)",
        )
        p.add_argument("--out", default=None, help="output file (default stdout)")
        if mu:
            p.add_argument("--mu", type=float, default=None)
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        return p

    command("scales", cmd_scales, "derived scales and dimensionless numbers", fmt=True)
    command("analyze", cmd_analyze, "equilibria, classification, Hopf data (JSON)", mu=True)

    p = command("simulate", cmd_simulate, "integrate a trajectory to CSV", mu=True)
    p.add_argument("--theta0", type=float, required=True)
    p.add_argument("--lam0", type=float, required=True)
    p.add_argument("--t-end", type=float, required=True, dest="t_end")
    p.add_argument("--model", choices=("simplified", "full"), default="simplified")
    p.add_argument("--dimensional", action="store_true")

    p = command("sweep", cmd_sweep, "classification (and cycles) along a mu grid", fmt=True)
    p.add_argument("--mu-min", type=float, required=True, dest="mu_min")
    p.add_argument("--mu-max", type=float, required=True, dest="mu_max")
    p.add_argument("--mu-steps", type=int, default=21, dest="mu_steps")
    p.add_argument("--cycles", action="store_true", help="attempt cycle detection")

    p = command("nullclines", cmd_nullclines, "sample f and g for plotting", fmt=True)
    p.add_argument("--theta-min", type=float, default=0.5, dest="theta_min")
    p.add_argument("--theta-max", type=float, default=2.5, dest="theta_max")
    p.add_argument("--samples", type=int, default=1001)

    p = command("verify", cmd_verify, "run the numerical cross-check suite (text)", mu=True)
    p.add_argument("--seed", type=int, default=0, help="seed of the oracle draws")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            return args.func(args)
    except GlacierDynError as exc:
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
