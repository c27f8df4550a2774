"""End-to-end tests for the glacier-dyn command-line interface."""

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from glacier_dyn import (
    SigmoidFamily,
    State,
    critical_point_at,
    integrate,
    mu_thresholds,
    numeric_l1,
)
from glacier_dyn import cli
from glacier_dyn.cli import build_parser, main

from conftest import PARAMS_DIR

TABLE1 = str(PARAMS_DIR / "table1.json")
FIG2 = str(PARAMS_DIR / "fig2.json")
HOPF = str(PARAMS_DIR / "hopf_demo.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# scales
# ---------------------------------------------------------------------------


class TestScales:
    def test_table1_reference_values(self, capsys):
        code, out = run_cli(capsys, "scales", "--params", TABLE1,
                            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["T_star_K"] == pytest.approx(195.55, abs=0.01)
        assert payload["t_star_yr"] == pytest.approx(33.2e3, rel=0.01)
        assert payload["L_star_km"] == pytest.approx(2.76e4, rel=0.01)
        assert payload["epsilon"] == pytest.approx(0.1088, rel=0.01)
        assert payload["beta"] == pytest.approx(0.7875, abs=5e-4)
        assert payload["mu"] > 0

    def test_override_doubles_b_halves_temperature_scale(self, capsys):
        code, out = run_cli(capsys, "scales", "--params", TABLE1,
                            "--set", "physical.B=3.48", "--format", "json")
        assert code == 0
        assert json.loads(out)["T_star_K"] == pytest.approx(97.77, abs=0.01)

    def test_text_format_mentions_units(self, capsys):
        code, out = run_cli(capsys, "scales", "--params", TABLE1)
        assert code == 0
        assert " K" in out and " yr" in out and " m/yr" in out

    def test_empty_config_rejected(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        code, _ = run_cli(capsys, "scales", "--params", str(empty))
        assert code == 2

    @pytest.mark.parametrize("command", ["scales", "analyze", "simulate"])
    @pytest.mark.parametrize("overrides", [
        ("physical.tau0=1e-320",),  # H^2 underflows to 0
        ("physical.s=1e-200",),  # s^2 underflows to 0
        ("physical.c=1e-320",),  # m*s*c underflows to 0
        ("physical.m_rate=1e-320",),  # m*s*c underflows to 0
        ("physical.c=1e308", "physical.m_rate=1e300"),  # mu underflows to 0
        ("physical.tau0=1e300", "physical.rho_i=1e-300"),  # L*, t*, mu overflow
    ], ids=["tiny-tau0", "tiny-s", "tiny-c", "tiny-m-rate", "zero-mu", "infinite-scales"])
    def test_bad_derived_scales_exit_2(self, capsys, command, overrides):
        argv = [command, "--params", TABLE1]
        if command == "simulate":
            argv += ["--theta0", "1.3", "--lam0", "0.05", "--t-end", "1"]
        for item in overrides:
            argv += ["--set", item]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert re.fullmatch(r"error: scale \S+ = \S+ must be finite and positive\n", captured.err)


# ---------------------------------------------------------------------------
# config loading and overrides
# ---------------------------------------------------------------------------


class TestConfigErrors:
    def test_missing_file(self, capsys):
        code, _ = run_cli(capsys, "analyze", "--params", "/no/such/file.json")
        assert code == 2

    def test_invalid_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run_cli(capsys, "analyze", "--params", str(bad))
        assert code == 2

    def test_unknown_top_level_key(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bogus": {}}))
        code, _ = run_cli(capsys, "analyze", "--params", str(bad))
        assert code == 2

    def test_unknown_override_key(self, capsys):
        code, _ = run_cli(capsys, "scales", "--params", TABLE1,
                          "--set", "physical.nonsense=1")
        assert code == 2

    def test_malformed_override(self, capsys):
        code, _ = run_cli(capsys, "scales", "--params", TABLE1,
                          "--set", "physical.B")
        assert code == 2

    def test_nonpositive_mu_rejected(self, capsys):
        code, _ = run_cli(capsys, "analyze", "--params", HOPF, "--mu", "-1.0")
        assert code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


class TestAnalyze:
    def test_default_output_is_json(self, capsys):
        code, out = run_cli(capsys, "analyze", "--params", HOPF)
        assert code == 0
        rows = json.loads(out)
        assert isinstance(rows, list) and rows

    def test_derivatives_are_the_nine_nullcline_fields(self, capsys):
        # The critical point also carries alpha2 and gamma; they stay out of
        # the JSON, which keeps the parameter-free derivative record.
        code, out = run_cli(capsys, "analyze", "--params", HOPF)
        assert code == 0
        for row in json.loads(out):
            assert list(row["derivatives"]) == ["f1", "f2", "f3", "g1", "g2",
                                                "xi_c", "xi1", "xi2", "xi3"]

    def test_fig2_reports_three_rows_outer_stable(self, capsys):
        code, out = run_cli(capsys, "analyze", "--params", FIG2)
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3
        thetas = [r["theta_c"] for r in rows]
        assert thetas == sorted(thetas)
        for outer in (rows[0], rows[2]):
            assert outer["classification"] in ("stable_node", "stable_focus")
        assert rows[1]["classification"] == "saddle"

    def test_saddle_kind_independent_of_mu(self, capsys):
        for mu in ("0.2", "5.0"):
            code, out = run_cli(capsys, "analyze", "--params", FIG2,
                                "--mu", mu)
            assert code == 0
            assert json.loads(out)[1]["classification"] == "saddle"

    def test_hopf_block_present_for_admissible_point(self, capsys, hopf_cp):
        code, out = run_cli(capsys, "analyze", "--params", HOPF)
        assert code == 0
        rows = json.loads(out)
        row = rows[-1]
        assert row["theta_c"] == pytest.approx(hopf_cp.theta_c, rel=1e-12)
        assert row["hopf"] is not None
        assert row["hopf"]["mu0"] == pytest.approx(2.613349739926736, rel=1e-9)
        assert row["hopf"]["criticality"] in ("supercritical", "subcritical")
        assert row["thresholds"]["omega0"] > 0

    def test_piecewise_linear_curve_smooth_at_focus_gets_l1(self, capsys, hopf_model):
        # l1 is local: a piecewise-linear accumulation curve with no kink at
        # the focus has the three derivatives it needs there.
        code, out = run_cli(capsys, "analyze", "--params", HOPF,
                            "--set", "model.accum.family=piecewise_linear")
        assert code == 0
        row = json.loads(out)[-1]
        params = replace(
            hopf_model,
            accum=replace(hopf_model.accum, family=SigmoidFamily.PIECEWISE_LINEAR))
        cp = critical_point_at(params, row["theta_c"])
        assert row["hopf"]["criticality"] == "subcritical"
        assert row["hopf"]["l1"] == pytest.approx(145.267, rel=1e-5)
        assert row["hopf"]["l1"] == pytest.approx(numeric_l1(params, cp), rel=1e-6)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


class TestSimulate:
    def test_missing_initial_state_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--params", HOPF, "--theta0", "1.3", "--lam0", "0.05"])
        assert exc.value.code == 2
        assert "the following arguments are required: --t-end" in capsys.readouterr().err

    @pytest.mark.parametrize("t_end", ["0", "-1", "inf", "nan"])
    def test_bad_t_end_exits_2(self, capsys, t_end):
        code, _ = run_cli(capsys, "simulate", "--params", HOPF,
                          "--theta0", "1.3", "--lam0", "0.05",
                          "--t-end", t_end)
        assert code == 2

    @pytest.mark.parametrize("mu", ["inf", "nan"])
    def test_non_finite_mu_exits_2(self, capsys, mu):
        code, _ = run_cli(capsys, "simulate", "--params", HOPF, "--mu", mu,
                          "--theta0", "1.3", "--lam0", "0.05", "--t-end", "1")
        assert code == 2

    def test_table1_stiff_run_writes_few_rows(self, capsys):
        # Physical mu ~ 1.8e5 takes the Radau path; the explicit path would take
        # about 1e5 steps here, capped by stability rather than accuracy.
        code, out = run_cli(capsys, "simulate", "--params", TABLE1,
                            "--theta0", "1.1", "--lam0", "0.02",
                            "--t-end", "2")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) < 200
        assert float(rows[-1][0]) == 2.0

    def test_bad_initial_state_rejected(self, capsys):
        code, _ = run_cli(capsys, "simulate", "--params", HOPF,
                          "--theta0", "1.3", "--lam0", "-0.1",
                          "--t-end", "1.0")
        assert code == 2

    @pytest.mark.parametrize("theta0, lam0", [("inf", "0.05"), ("nan", "0.05"),
                                              ("1.3", "inf")])
    def test_non_finite_initial_state_exits_2(self, capsys, theta0, lam0):
        code, _ = run_cli(capsys, "simulate", "--params", HOPF,
                          "--theta0", theta0, "--lam0", lam0, "--t-end", "1")
        assert code == 2

    def test_equilibrium_start_constant_columns(self, capsys, hopf_cp):
        code, out = run_cli(capsys, "simulate", "--params", HOPF,
                            "--mu", "0.1",
                            "--theta0", f"{float(hopf_cp.theta_c):.17g}",
                            "--lam0", f"{float(hopf_cp.lambda_c):.17g}",
                            "--t-end", "10")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["tau", "theta", "lambda"]
        thetas = np.array([float(r[1]) for r in rows])
        lams = np.array([float(r[2]) for r in rows])
        assert float(np.max(np.abs(thetas - hopf_cp.theta_c))) <= 1e-8
        assert float(np.max(np.abs(lams - hopf_cp.lambda_c))) <= 1e-8

    def test_csv_round_trips_bit_exactly(self, capsys, hopf_model):
        code, out = run_cli(capsys, "simulate", "--params", HOPF,
                            "--mu", "1.0", "--theta0", "1.35",
                            "--lam0", "0.06", "--t-end", "5")
        assert code == 0
        _, rows = parse_csv(out)
        traj = integrate(hopf_model, 1.0, State(1.35, 0.06), 5.0)
        assert len(rows) == len(traj.times)
        for row, t, th, lm in zip(rows, traj.times, traj.thetas, traj.lams):
            assert float(row[0]) == t
            assert float(row[1]) == th
            assert float(row[2]) == lm

    def test_full_model_adds_regime_column_and_floor_exit(self, capsys):
        code, out = run_cli(capsys, "simulate", "--params", HOPF,
                            "--mu", "1.0", "--theta0", "1.6",
                            "--lam0", "0.2", "--t-end", "50",
                            "--model", "full")
        assert code == 3  # ran down to the lambda floor
        header, rows = parse_csv(out)
        assert header == ["tau", "theta", "lambda", "regime"]
        regimes = {r[3] for r in rows}
        assert regimes <= {"nucleation", "accumulating", "stagnant"}
        assert "accumulating" in regimes and "stagnant" in regimes

    def test_dimensional_columns(self, capsys):
        code, out = run_cli(capsys, "simulate", "--params", TABLE1,
                            "--theta0", "1.1", "--lam0", "0.02",
                            "--t-end", "2", "--dimensional")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["tau", "theta", "lambda", "t_years", "T_kelvin",
                          "l_km"]
        scales_code, scales_out = run_cli(capsys, "scales", "--params", TABLE1,
                                          "--format", "json")
        assert scales_code == 0
        sc = json.loads(scales_out)
        for row in rows[:: max(len(rows) // 8, 1)]:
            tau, theta = float(row[0]), float(row[1])
            assert float(row[3]) == pytest.approx(tau * sc["t_star_yr"],
                                                  rel=1e-12)
            assert float(row[4]) == pytest.approx(theta * sc["T_star_K"],
                                                  rel=1e-12)

    def test_dimensional_needs_physical_block(self, capsys):
        code, _ = run_cli(capsys, "simulate", "--params", HOPF,
                          "--theta0", "1.3", "--lam0", "0.05",
                          "--t-end", "1", "--dimensional")
        assert code == 2


# ---------------------------------------------------------------------------
# sweep / nullclines / verify
# ---------------------------------------------------------------------------


class TestSweep:
    def test_single_flip_across_onset(self, capsys, hopf_cp):
        th = mu_thresholds(hopf_cp)
        code, out = run_cli(capsys, "sweep", "--params", HOPF,
                            "--mu-min", f"{float(0.5 * th.mu0):.17g}",
                            "--mu-max", f"{float(1.5 * th.mu0):.17g}",
                            "--mu-steps", "21")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:2] == ["mu", "kind"]
        kinds = [r[1] for r in rows]
        # the symmetric grid lands a point exactly on the onset value, which
        # is honestly reported as the center type between the two foci runs
        stable_run = [k for k in kinds if k == "stable_focus"]
        center_run = [k for k in kinds if k == "hopf_center"]
        unstable_run = [k for k in kinds if k == "unstable_focus"]
        assert kinds == stable_run + center_run + unstable_run
        assert stable_run and unstable_run and len(center_run) <= 1
        last_stable = max(i for i, k in enumerate(kinds) if k == "stable_focus")
        first_unstable = kinds.index("unstable_focus")
        assert float(rows[last_stable][0]) < th.mu0
        assert th.mu0 <= float(rows[first_unstable][0]) * (1 + 1e-12)

    def test_requires_grid_bounds(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--params", HOPF, "--mu-min", "1.0"])
        assert exc.value.code == 2
        assert "the following arguments are required: --mu-max" in capsys.readouterr().err
        code, _ = run_cli(capsys, "sweep", "--params", HOPF,
                          "--mu-min", "2.0", "--mu-max", "1.0")
        assert code == 2

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_nonpositive_mu_steps_exits_2(self, capsys, steps):
        code, _ = run_cli(capsys, "sweep", "--params", HOPF, "--mu-min", "1.0",
                          "--mu-max", "2.0", "--mu-steps", steps)
        assert code == 2

    @pytest.mark.parametrize("lo, hi", [("1", "inf"), ("nan", "2"),
                                        ("1", "nan")])
    def test_non_finite_grid_bounds_exit_2(self, capsys, lo, hi):
        code, _ = run_cli(capsys, "sweep", "--params", HOPF,
                          "--mu-min", lo, "--mu-max", hi)
        assert code == 2

    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "sweep", "--params", HOPF,
                            "--mu-min", "0.5", "--mu-max", "1.0",
                            "--mu-steps", "3", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["mu"] for r in rows] == [0.5, 0.75, 1.0]
        assert all("kind" in r for r in rows)


class TestNullclines:
    def test_fig2_f_has_two_interior_extrema(self, capsys):
        code, out = run_cli(capsys, "nullclines", "--params", FIG2,
                            "--theta-min", "0.9", "--theta-max", "2.0",
                            "--samples", "801")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["theta", "f", "g"]
        f = np.array([float(r[1]) for r in rows])
        slope_sign = np.sign(np.diff(f))
        changes = np.nonzero(np.diff(slope_sign) != 0)[0]
        assert len(changes) == 2
        assert slope_sign[0] < 0 and slope_sign[-1] < 0

    def test_g_matches_library_values(self, capsys, fig2_model):
        from glacier_dyn import nullcline_g

        code, out = run_cli(capsys, "nullclines", "--params", FIG2,
                            "--samples", "11")
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            theta = float(row[0])
            assert float(row[2]) == pytest.approx(
                nullcline_g(fig2_model, theta, 0), rel=1e-15)

    def test_bad_range_rejected(self, capsys):
        code, _ = run_cli(capsys, "nullclines", "--params", FIG2,
                          "--theta-min", "2.0", "--theta-max", "1.0")
        assert code == 2

    @pytest.mark.parametrize("lo, hi", [("1", "inf"), ("1", "nan"), ("nan", "2"),
                                        ("-inf", "2")])
    def test_non_finite_range_exits_2(self, capsys, lo, hi):
        code = main(["nullclines", "--params", FIG2, f"--theta-min={lo}",
                     f"--theta-max={hi}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: need 0 < --theta-min < --theta-max, both finite")


class TestVerify:
    def test_table1_suite_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--params", TABLE1)
        assert code == 0
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_deterministic_given_seed(self, capsys):
        _, first = run_cli(capsys, "verify", "--params", HOPF,
                           "--seed", "42")
        _, second = run_cli(capsys, "verify", "--params", HOPF,
                            "--seed", "42")
        assert first == second

    def test_seed_with_tiny_small_branch_passes(self, capsys):
        # This seed draws eps = -3.34e-5, whose small lambda branch is
        # O(eps^2): about 5.3e-9.
        code, out = run_cli(capsys, "verify", "--params", HOPF,
                            "--seed", "560224129")
        assert code == 0
        assert "FAIL" not in out

    def test_negative_seed_exits_2(self, capsys):
        code = main(["verify", "--params", HOPF, "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error: --seed must be a non-negative integer, got -1" in captured.err


SIMULATE_STATE = ["--theta0", "1.3", "--lam0", "0.05", "--t-end", "1"]
SWEEP_GRID = ["--mu-min", "0.5", "--mu-max", "1.0", "--mu-steps", "2"]


UNRECOGNIZED = "unrecognized arguments: "


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--format", "csv"], UNRECOGNIZED + "--format csv"),
    (["analyze", "--seed", "5"], UNRECOGNIZED + "--seed 5"),
    (["simulate", *SIMULATE_STATE, "--seed", "5"], UNRECOGNIZED + "--seed 5"),
    (["simulate", *SIMULATE_STATE, "--format", "json"], UNRECOGNIZED + "--format json"),
    (["verify", "--format", "json"], UNRECOGNIZED + "--format json"),
    (["scales", "--mu", "5"], UNRECOGNIZED + "--mu 5"),
    # argparse reads --mu as an abbreviation of sweep's --mu-* options
    (["sweep", *SWEEP_GRID, "--mu", "5"], "ambiguous option: --mu could match"),
    (["nullclines", "--mu", "5"], UNRECOGNIZED + "--mu 5"),
], ids=["analyze-format", "analyze-seed", "simulate-seed", "simulate-format",
        "verify-format", "scales-mu", "sweep-mu", "nullclines-mu"])
def test_option_not_taken_exits_2(capsys, argv, message):
    # Each command parses only the options it reads: --seed is verify's,
    # --mu belongs to analyze, simulate and verify, --format to scales, sweep
    # and nullclines.
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--params", TABLE1, *argv[1:]])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


class RecordingNamespace(argparse.Namespace):
    """Records the attributes read once `reads` is set to a set."""

    reads = None

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


def _subparsers():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


# A valid value for every option of every command.
EVERY_OPTION = {
    "scales": ["--params", TABLE1, "--set", "physical.B=1.74", "--format", "json"],
    "analyze": ["--params", HOPF, "--set", "model.epsilon=0.11", "--mu", "1.0"],
    "simulate": ["--params", TABLE1, "--set", "physical.B=1.74", "--mu", "1.0",
                 "--theta0", "1.1", "--lam0", "0.05", "--t-end", "0.5",
                 "--model", "full", "--dimensional"],
    "sweep": ["--params", HOPF, "--set", "model.epsilon=0.11", *SWEEP_GRID,
              "--cycles", "--format", "json"],
    "nullclines": ["--params", FIG2, "--set", "model.epsilon=0.11",
                   "--theta-min", "1.0", "--theta-max", "2.0", "--samples", "3",
                   "--format", "json"],
    "verify": ["--params", HOPF, "--set", "model.epsilon=0.11", "--mu", "1.0",
               "--seed", "3"],
}


@pytest.mark.parametrize("command", sorted(EVERY_OPTION))
def test_every_parsed_option_is_read(tmp_path, command):
    dests = {a.dest for a in _subparsers()[command]._actions if a.dest != "help"}
    argv = [command, *EVERY_OPTION[command], "--out", str(tmp_path / "out")]
    given = {a.dest for a in _subparsers()[command]._actions
             if set(a.option_strings) & set(argv)}
    assert given == dests  # the table above sets every option
    args = build_parser().parse_args(argv, namespace=RecordingNamespace())
    args.reads = set()
    assert args.func(args) == 0
    assert dests - args.reads == set()


def test_readme_cli_commands_parse():
    # Every command line in README's CLI section must parse under the
    # current option surface (parsed only, nothing is run).
    readme = (PARAMS_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    lines = section.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines
                if line.startswith("glacier-dyn ")]
    assert len(commands) >= 7
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize("key", ["model.alpha1", "model.epsilon",
                                 "model.accum.center"])
def test_nan_parameter_exits_2(capsys, command, key):
    code, out = run_cli(capsys, command, "--params", HOPF, "--set", f"{key}=NaN")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("params, key", [("hopf_demo.json", "model.accum.steepness"),
                                         ("hopf_demo.json", "model.albedo.steepness"),
                                         ("table1.json", "physical.albedo.steepness")])
@pytest.mark.parametrize("value", ["1e-320", "1e-200", "1e200", "1e300"])
def test_steepness_with_unusable_cube_exits_2(capsys, params, key, value):
    # The third derivative divides by steepness**3, which under- or overflows.
    code = main(["analyze", "--params", str(PARAMS_DIR / params), "--set", f"{key}={value}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: steepness must be positive with a nonzero finite cube, got {float(value)}\n"


def _numeric_keys(block: dict, prefix: str):
    for key, value in block.items():
        if isinstance(value, dict):
            yield from _numeric_keys(value, f"{prefix}.{key}")
        elif isinstance(value, (int, float)):
            yield f"{prefix}.{key}"


def test_extreme_parameter_values_exit_with_a_documented_code(capsys, monkeypatch):
    # Every numeric parameter at values whose products under- or overflow,
    # through each command that reads it: a typed error (exit 2), or a run.
    # main runs over 400 times; the parser is built once for all of them.
    monkeypatch.setattr(cli, "build_parser", functools.cache(build_parser))
    # simulate starts at table1's cold node, which keeps its stiff runs short.
    simulate = ["simulate", "--theta0", "1.09", "--lam0", "0.0227", "--t-end", "1"]
    runs = [(HOPF, "model", [["analyze"], simulate + ["--mu", "3"]]),
            (TABLE1, "physical", [["analyze"], simulate, ["scales"]])]
    cases = [["verify", "--params", HOPF, "--set", "model.accum.limit_minus=1e-200"]]
    for path, block, commands in runs:
        with open(path, encoding="utf-8") as fh:
            keys = list(_numeric_keys(json.load(fh)[block], block))
        cases += [command + ["--params", path, "--set", f"{key}={value}"]
                  for key in keys for value in ("1e-320", "1e-200", "1e200", "1e300", "-1e300")
                  for command in commands]
    assert len(cases) > 400
    bad = []
    for argv in cases:
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - any escape is the failure
            code = repr(exc)
        err = capsys.readouterr().err
        if code not in (0, 2, 3, 4) or (code == 2 and not err.startswith("error: ")):
            bad.append(f"{argv[0]} --set {argv[-1]}: {code}")
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("params, block", [("hopf_demo.json", "model"), ("table1.json", "physical")])
@pytest.mark.parametrize("key", ["alpha2", "gamma"])
def test_subnormal_divisor_exits_2_naming_its_key(capsys, params, block, key):
    # f, f' and the thresholds divide by gamma and alpha2 and overflow.
    code = main(["analyze", "--params", str(PARAMS_DIR / params), "--set", f"{block}.{key}=1e-320"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {block}.{key} must not be subnormal, got 1e-320\n"


def test_extreme_parameter_values_print_no_nan_or_infinity(capsys, monkeypatch):
    # JSON has no NaN or Infinity: a run that exits 0 must print neither.
    monkeypatch.setattr(cli, "build_parser", functools.cache(build_parser))
    commands = [["analyze"], ["verify"], ["sweep", "--mu-min", "0.5", "--mu-max", "5",
                                          "--mu-steps", "3", "--format", "json"]]
    bad, exits = [], 0
    for path, block in ((HOPF, "model"), (TABLE1, "physical")):
        with open(path, encoding="utf-8") as fh:
            keys = list(_numeric_keys(json.load(fh)[block], block))
        for key in keys:
            for value in ("1e-320", "1e-200", "1e200", "1e300", "-1e300"):
                for command in commands:
                    argv = command + ["--params", path, "--set", f"{key}={value}"]
                    code, out = run_cli(capsys, *argv)
                    exits += code == 0
                    if code == 0 and re.search(r"NaN|Infinity", out):
                        bad.append(f"{argv[0]} --set {argv[-1]}")
    assert exits > 100
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("params, key", [("hopf_demo.json", "model.beta"),
                                         ("hopf_demo.json", "model.accum.steepness"),
                                         ("table1.json", "physical.gamma")])
@pytest.mark.parametrize("value", ["null", "true", "[0.3]", "abc"])
def test_non_number_override_exits_2(capsys, params, key, value):
    code = main(["analyze", "--params", str(PARAMS_DIR / params),
                 "--set", f"{key}={value}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key} must be a number, got ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("params, override, message", [
    ("table1.json", "physical=3", "physical: expected an object, got int"),
    ("hopf_demo.json", "model=[0.3]", "model: expected an object, got list"),
    ("hopf_demo.json", "model.albedo=3", "model.albedo: expected an object, got int"),
    ("table1.json", "bogus.x=1", "unknown top-level keys ['bogus']"),
])
def test_malformed_block_override_exits_2(capsys, params, override, message):
    code = main(["analyze", "--params", str(PARAMS_DIR / params), "--set", override])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


class TestOutput:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "scales.json"
        code, out = run_cli(capsys, "scales", "--params", TABLE1,
                            "--format", "json", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["T_star_K"] == pytest.approx(
            195.55, abs=0.01)

    def test_repeated_analyze_identical(self, capsys):
        _, first = run_cli(capsys, "analyze", "--params", HOPF)
        _, second = run_cli(capsys, "analyze", "--params", HOPF)
        assert first == second


def test_closed_form_commands_load_no_scipy(tmp_path):
    # scipy takes most of a second to import; the commands that integrate
    # nothing must not pay for it, whatever a later edit imports at top level.
    # Nor do they load the package's own steppers, glacier_dyn._solvers. ERF
    # curves evaluate arrays with math.erf, not scipy.special.erf.
    erf = ["--set", "model.albedo.family=erf", "--set", "model.accum.family=erf"]
    configs = [[TABLE1], [FIG2], [HOPF], [HOPF, *erf]]
    script = f"""
import sys
from glacier_dyn.cli import build_parser, main

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m == "glacier_dyn._solvers")

print(loaded())
out = {str(tmp_path / "out")!r}
for params in {configs!r}:
    for argv in (["analyze"], ["verify", "--seed", "0"],
                 ["sweep", "--mu-min", "0.5", "--mu-max", "5", "--mu-steps", "9"]):
        assert main(argv + ["--params", *params, "--out", out]) == 0, argv
print(loaded())
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]


def test_integrating_commands_load_no_scipy(tmp_path):
    # Both steppers and their constants are in the package: a stiff simulate
    # on table1, a non-stiff one on hopf_demo and a cycle hunt import no scipy.
    script = f"""
import sys
from glacier_dyn.cli import main
out = {str(tmp_path / "out")!r}
runs = [
    ["simulate", "--params", {TABLE1!r}, "--theta0", "1.1", "--lam0", "0.02",
     "--t-end", "0.25", "--dimensional"],
    ["simulate", "--params", {HOPF!r}, "--mu", "3.4", "--theta0", "1.432",
     "--lam0", "0.0742", "--t-end", "150"],
    ["sweep", "--params", {HOPF!r}, "--mu-min", "3.0", "--mu-max", "3.8",
     "--mu-steps", "2", "--cycles"],
]
for argv in runs:
    assert main(argv + ["--out", out]) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
