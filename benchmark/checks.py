"""Output checkers: every program output against the independent reference.

Each checker raises CheckFailed with the first discrepancy. Tolerances are
set from the agreement measured on working code (see README.md) with a
margin of five to twenty, and tight enough that the deliberate corruptions in
MUTATIONS are all rejected; run.py confirms that on every run.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import reference as R

# Trajectory rows against the reference dense output (absolute, theta and
# lambda). Stiff: worst seen 5.4e-9 (inside the initial fast transient).
# Non-stiff on the cycle: phase error grows along the run, worst seen 1.5e-6
# at tau = 300. Full model: worst seen 4.6e-9.
STIFF_TOL = 3e-8
CYCLE_TRAJ_TOL = 2e-5
FULL_TOL = 1e-7
DIM_RTOL = 1e-13  # dimensional columns are one product each
# Cycle data against the shooting reference (relative). Seen: period 1.7e-7,
# amplitudes 3.1e-6 (the program samples one lap at 2001 points).
PERIOD_RTOL = 2e-6
AMP_RTOL = 3e-5
# Closed forms. |f - g| at a bisection root is about 1e-16; a root moved by
# 1e-9 gives |f - g| of about 1e-9 |f' - g'|.
ROOT_RESIDUAL = 1e-11
ROOT_MATCH = 1e-9
FD_REL = 1e-6  # trace / discriminant / sqrt(det) relative to their scale


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def parse_argv(argv: list[str]) -> dict:
    opts: dict = {"command": argv[0], "set": [], "flags": set()}
    i = 1
    while i < len(argv):
        key = argv[i][2:].replace("-", "_")
        if key in ("dimensional", "cycles"):
            opts["flags"].add(key)
            i += 1
            continue
        if key == "set":
            opts["set"].append(argv[i + 1])
        else:
            opts[key] = argv[i + 1]
        i += 2
    return opts


def read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class Checker:
    """Checks one workload's outputs; caches references across operations."""

    def __init__(self):
        self._cycles: dict[float, object] = {}
        self._trajectories: dict[tuple, object] = {}

    def model(self, opts: dict) -> tuple[R.Model, R.Scales | None]:
        with open(opts["params"], encoding="utf-8") as fh:
            raw = json.load(fh)
        return R.load(R.apply_sets(raw, opts["set"]))

    def check(self, argv: list[str], code, text: str | None) -> None:
        opts = parse_argv(argv)
        require(code == 0, f"exit status {code!r}, expected 0")
        require(text is not None, "no output written")
        getattr(self, "_" + opts["command"])(opts, text)

    # -- simulate ---------------------------------------------------------------

    def _simulate(self, opts: dict, text: str) -> None:
        m, scales = self.model(opts)
        full = opts.get("model") == "full"
        dimensional = "dimensional" in opts["flags"]
        mu = float(opts["mu"]) if "mu" in opts else scales.mu
        header, rows = read_csv(text)
        want = ["tau", "theta", "lambda"] + (["t_years", "T_kelvin", "l_km"] if dimensional else [])
        want += ["regime"] if full else []
        require(header == want, f"header {header}, expected {want}")
        ncol = 6 if dimensional else 3
        a = np.array([r[:ncol] for r in rows], dtype=float)
        tau, th, lam = a[:, 0], a[:, 1], a[:, 2]
        y0 = [float(opts["theta0"]), float(opts["lam0"])]
        t_end = float(opts["t_end"])
        require(tau[0] == 0.0 and th[0] == y0[0] and lam[0] == y0[1], "first row is not the initial state")
        require(bool(np.all(np.diff(tau) > 0)), "tau does not increase strictly")
        require(abs(tau[-1] - t_end) <= 1e-12 * t_end, f"last tau {tau[-1]} != t_end {t_end}")
        if not full:
            require(bool(np.all((lam > 0) & (lam <= 0.25))), "lambda leaves (0, 1/4]")
        if dimensional:
            for col, expect, what in (
                (3, tau * scales.t_star, "t_years"),
                (4, th * scales.T_star, "T_kelvin"),
                (5, lam * scales.L_star / 1000.0, "l_km"),
            ):
                err = np.abs(a[:, col] - expect) / np.abs(expect).clip(1e-300)
                k = int(np.argmax(err))
                require(err[k] <= DIM_RTOL, f"{what} row {k}: relative error {err[k]:.3g}")
        key = tuple(sorted((k, str(v)) for k, v in opts.items()))
        if full:
            if key not in self._trajectories:
                self._trajectories[key] = R.full_model(m, mu, y0, t_end)
            self._rows_close(tau, th, lam, R.eval_segments(self._trajectories[key], tau), FULL_TOL)
            edge = -m.eps / 2.0
            for k, r in enumerate(rows):
                near = abs(lam[k] - edge) <= 1e-9 or abs(R.snow_line(lam[k], m.eps)) <= 1e-9
                if not near:
                    rule = R.regime(m, lam[k])
                    require(r[3] == rule, f"row {k}: regime {r[3]!r}, the rule gives {rule!r}")
            return
        stiff = mu > 1e3
        if key not in self._trajectories:
            self._trajectories[key] = (R.radau if stiff else R.dop853)(m, mu, y0, t_end)
        self._rows_close(tau, th, lam, self._trajectories[key](tau), STIFF_TOL if stiff else CYCLE_TRAJ_TOL)

    @staticmethod
    def _rows_close(tau, th, lam, ref, tol) -> None:
        err = np.maximum(np.abs(th - ref[0]), np.abs(lam - ref[1]))
        k = int(np.argmax(err))
        require(err[k] <= tol, f"row {k} (tau = {tau[k]:.6g}) is {err[k]:.3g} from the reference (tol {tol:g})")

    # -- sweep ----------------------------------------------------------------

    def _focus(self, m: R.Model) -> tuple[float, float]:
        """The equilibrium sweep_mu tracks: the first Hopf-admissible
        crossing, else the coldest."""
        eq = R.equilibria(m)
        hop = [t for t in eq if R.hopf_admissible(m, t)]
        th = hop[0] if hop else eq[0]
        return th, float(R.g_null(m, th))

    def _sweep(self, opts: dict, text: str) -> None:
        m, _ = self.model(opts)
        header, rows = read_csv(text)
        require(header == ["mu", "kind", "period", "amplitude_theta", "amplitude_lambda"], f"header {header}")
        lo, hi, n = float(opts["mu_min"]), float(opts["mu_max"]), int(opts["mu_steps"])
        step = (hi - lo) / max(n - 1, 1)
        grid = [lo + i * step for i in range(n)]
        require(len(rows) == n, f"{len(rows)} rows for a {n}-point grid")
        th, lam = self._focus(m)
        J1 = np.array(R.jac_simplified(m, 1.0)(0.0, (th, lam)))
        a, d, D = J1[0, 0], J1[1, 1], np.linalg.det(J1)
        # Window of an oscillating focus: trace zero at mu0, discriminant
        # (mu a + d)^2 - 4 mu D zero again at mu2.
        mu0 = -d / a if a > 0 else math.inf
        q = np.roots([a * a, 2 * a * d - 4 * D, d * d]) if a > 0 else []
        mu2 = max(q.real) if len(q) else math.inf
        for k, (row, mu) in enumerate(zip(rows, grid)):
            require(abs(float(row[0]) - mu) <= 1e-12 * mu, f"row {k}: mu {row[0]}, expected {mu!r}")
            kinds = R.classify_jacobian(R.fd_jacobian(m, mu, th, lam))
            require(row[1] in kinds, f"row {k} (mu = {mu:.6g}): {row[1]}, eigenvalues give {sorted(kinds)}")
            cycle = None
            if "cycles" in opts["flags"] and mu0 < mu < mu2:
                cycle = self._cycle(m, mu, th, lam)
            if cycle is None:
                require(row[2:] == ["", "", ""], f"row {k} (mu = {mu:.6g}): cycle reported where none exists")
                continue
            require(row[2] != "", f"row {k} (mu = {mu:.6g}): no cycle reported; reference period {cycle.period:.9g}")
            for got, want, tol, what in (
                (row[2], cycle.period, PERIOD_RTOL, "period"),
                (row[3], cycle.amplitude_theta, AMP_RTOL, "amplitude_theta"),
                (row[4], cycle.amplitude_lambda, AMP_RTOL, "amplitude_lambda"),
            ):
                rel = abs(float(got) / want - 1.0)
                require(rel <= tol, f"row {k} (mu = {mu:.6g}): {what} {got} vs {want:.9g} (rel {rel:.3g})")

    def _cycle(self, m, mu, th, lam):
        if mu not in self._cycles:
            if mu == R.NEAR_ONSET_MU:
                self._cycles[mu] = R.Cycle(**{k: R.load_near_onset()[k] for k in ("period", "amplitude_theta", "amplitude_lambda")})
            else:
                try:
                    self._cycles[mu] = R.shoot_cycle(m, mu, th, lam)
                except R.Escaped:
                    self._cycles[mu] = None
        return self._cycles[mu]

    # -- analyze ----------------------------------------------------------------

    def _analyze(self, opts: dict, text: str) -> None:
        m, scales = self.model(opts)
        mu = float(opts["mu"]) if "mu" in opts else scales.mu
        rows = json.loads(text)
        roots = R.equilibria(m)
        require(len(rows) == len(roots), f"{len(rows)} equilibria, the fine scan finds {len(roots)}")
        for k, (row, root) in enumerate(zip(rows, roots)):
            th, lam = row["theta_c"], row["lambda_c"]
            res = abs(float(R.f_null(m, th) - R.g_null(m, th)))
            require(res <= ROOT_RESIDUAL, f"equilibrium {k}: |f - g| = {res:.3g} at theta_c = {th!r}")
            require(abs(th - root) <= ROOT_MATCH, f"equilibrium {k}: theta_c {th!r}, scan root {root!r}")
            require(abs(lam - float(R.g_null(m, th))) <= 1e-14, f"equilibrium {k}: lambda_c != g(theta_c)")
            require(row["mu"] == mu, f"equilibrium {k}: mu {row['mu']} != {mu}")
            kinds = R.classify_jacobian(R.fd_jacobian(m, mu, th, lam))
            require(row["classification"] in kinds, f"equilibrium {k}: {row['classification']}, eigenvalues give {sorted(kinds)}")
            self._thresholds(m, k, row, th, lam)

    def _thresholds(self, m, k, row, th, lam) -> None:
        tr_det = lambda mu: _tr_det(R.fd_jacobian(m, mu, th, lam))  # noqa: E731
        hopf_ok = R.hopf_admissible(m, th)
        t = row["thresholds"]
        require(t is not None, f"equilibrium {k}: thresholds missing")
        for name in ("mu1", "mu2"):
            if t[name] is not None:
                tr, det, scale = tr_det(t[name])
                disc = tr * tr - 4.0 * det
                require(abs(disc) <= FD_REL * (tr * tr + 4 * abs(det)), f"equilibrium {k}: discriminant {disc:.3g} at {name}")
        require((t["mu0"] is not None) == hopf_ok, f"equilibrium {k}: mu0 present = {t['mu0'] is not None}, g' > f' > 0 is {hopf_ok}")
        if t["mu0"] is not None:
            tr, det, scale = tr_det(t["mu0"])
            require(abs(tr) <= FD_REL * scale, f"equilibrium {k}: trace {tr:.3g} at mu0")
            require(abs(math.sqrt(det) / t["omega0"] - 1.0) <= FD_REL, f"equilibrium {k}: sqrt(det) != omega0")
        h = row["hopf"]
        require((h is not None) == hopf_ok, f"equilibrium {k}: hopf data present = {h is not None}, g' > f' > 0 is {hopf_ok}")
        if h is not None:
            require(h["mu0"] == t["mu0"] and h["omega0"] == t["omega0"], f"equilibrium {k}: hopf/thresholds disagree")
            _, l1 = R.kuznetsov_l1(m, th, lam)
            require(math.copysign(1, l1) == math.copysign(1, h["l1"]), f"equilibrium {k}: l1 = {h['l1']:.6g}, Kuznetsov gives {l1:.6g}")
            want = "supercritical" if h["l1"] < 0 else "subcritical"
            require(h["criticality"] == want, f"equilibrium {k}: criticality {h['criticality']} with l1 = {h['l1']:.6g}")

    # -- verify -------------------------------------------------------------------

    def _verify(self, opts: dict, text: str) -> None:
        lines = text.rstrip("\n").split("\n")
        checks, summary = lines[:-1], lines[-1]
        require(len(checks) >= 3, f"only {len(checks)} checks ran")
        for line in checks:
            require(line.startswith("[PASS] "), f"verify line not PASS: {line!r}")
        require(summary == f"{len(checks)}/{len(checks)} checks passed", f"summary {summary!r}")


def _tr_det(J):
    tr = J[0, 0] + J[1, 1]
    return tr, J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0], abs(J[0, 0]) + abs(J[1, 1])


# -- deliberate corruptions the checkers must reject --------------------------


def _csv_text(header, rows) -> str:
    return "\n".join(",".join(r) for r in [header] + rows) + "\n"


def shift_row(text: str) -> str | None:
    """Give one row the state of the next row (time column kept): the row
    that moves most, relative to the tolerance, between samples."""
    header, rows = read_csv(text)
    a = np.array([r[1:3] for r in rows], dtype=float)
    k = int(np.argmax(np.abs(np.diff(a, axis=0)).max(axis=1)))
    keep = {i for i, name in enumerate(header) if name in ("tau", "t_years", "regime")}
    rows[k] = [rows[k][i] if i in keep else rows[k + 1][i] for i in range(len(header))]
    return _csv_text(header, rows)


def wrong_dimension(text: str) -> str | None:
    header, rows = read_csv(text)
    if "T_kelvin" not in header:
        return None
    k, col = len(rows) // 2, header.index("T_kelvin")
    rows[k][col] = repr(float(rows[k][col]) * (1 + 1e-9))
    return _csv_text(header, rows)


def wrong_regime(text: str) -> str | None:
    header, rows = read_csv(text)
    if "regime" not in header:
        return None
    k = len(rows) // 2
    rows[k][-1] = "nucleation" if rows[k][-1] != "nucleation" else "accumulating"
    return _csv_text(header, rows)


def period_off(text: str) -> str | None:
    header, rows = read_csv(text)
    for r in rows:
        if r[2]:
            r[2] = repr(float(r[2]) + 1e-3)
            return _csv_text(header, rows)
    return None


def flip_sweep_kind(text: str) -> str | None:
    header, rows = read_csv(text)
    k = len(rows) // 2
    rows[k][1] = "saddle" if rows[k][1] != "saddle" else "stable_node"
    return _csv_text(header, rows)


def spurious_cycle(text: str) -> str | None:
    header, rows = read_csv(text)
    for r in rows:
        if not r[2]:
            r[2:] = ["1.25", "0.001", "0.001"]
            return _csv_text(header, rows)
    return None


def move_equilibrium(text: str) -> str | None:
    rows = json.loads(text)
    rows[-1]["theta_c"] += 1e-6
    return json.dumps(rows)


def flip_classification(text: str) -> str | None:
    rows = json.loads(text)
    c = rows[0]["classification"]
    rows[0]["classification"] = "saddle" if c != "saddle" else "stable_node"
    return json.dumps(rows)


def flip_l1(text: str) -> str | None:
    rows = json.loads(text)
    for r in rows:
        if r["hopf"] is not None:
            r["hopf"]["l1"] = -r["hopf"]["l1"]
            r["hopf"]["criticality"] = "supercritical" if r["hopf"]["l1"] < 0 else "subcritical"
            return json.dumps(rows)
    return None


def failed_line(text: str) -> str | None:
    return text.replace("[PASS]", "[FAIL]", 1)


MUTATIONS = {
    "simulate": [shift_row, wrong_dimension, wrong_regime],
    "sweep": [period_off, flip_sweep_kind, spurious_cycle],
    "analyze": [move_equilibrium, flip_classification, flip_l1],
    "verify": [failed_line],
}
