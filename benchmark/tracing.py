"""Spans around the calls into each glacier_dyn layer, recorded from outside.

Tracer.install() replaces each traced public function with a timing wrapper
in every glacier_dyn module that bound it (cli imports integrate, sweep_mu,
find_equilibria, ... by name, so patching the defining module alone would
miss those calls). uninstall() puts the originals back, so untraced passes
run the program untouched. Spans stay in memory; per_layer() reduces them to
the benchmark's per-layer metrics and dump() writes them out.

A span's self time is its duration minus the time covered by its direct
child spans.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute, layer). "Class.method" patches a classmethod.
TRACED = [
    ("glacier_dyn.cli", "main", "cli"),
    ("glacier_dyn.model", "PhysicalParams.from_dict", "cli"),
    ("glacier_dyn.model", "ModelParams.from_dict", "cli"),
    ("glacier_dyn.model", "nondimensionalize", "cli"),
    ("glacier_dyn.simulator", "integrate", "simulator"),
    ("glacier_dyn.simulator", "poincare_cycle", "simulator"),
    ("glacier_dyn.simulator", "sweep_mu", "simulator"),
    ("glacier_dyn.simulator", "solve_ivp", "simulator"),
    ("glacier_dyn.equilibria", "find_equilibria", "equilibria"),
    ("glacier_dyn.stability", "classify", "stability"),
    ("glacier_dyn.stability", "mu_thresholds", "stability"),
    ("glacier_dyn.stability", "hopf_analysis", "stability"),
    ("glacier_dyn.stability", "jacobian", "stability"),
    ("glacier_dyn.oracle", "run_verification", "oracle"),
    ("glacier_dyn.oracle", "bisect_lambda_branches", "oracle"),
    ("glacier_dyn.oracle", "grid_max_lambda0", "oracle"),
    ("glacier_dyn.oracle", "fd_jacobian", "oracle"),
    ("glacier_dyn.oracle", "numeric_l1", "oracle"),
]
CONFIG = {"PhysicalParams.from_dict", "ModelParams.from_dict", "nondimensionalize"}
STABILITY = {"classify", "mu_thresholds", "hopf_analysis", "jacobian"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, layer, parent index, start, end]
        self.stack: list[int] = []
        self.counts = dict.fromkeys(
            ("solver_calls", "nfev", "njev", "steps", "events", "cycle_attempts",
             "cycles_found", "cycle_model_time", "output_bytes"), 0.0,
        )
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append([name, layer, tracer.stack[-1] if tracer.stack else -1, time.perf_counter(), 0.0])
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[idx][4] = time.perf_counter()
                tracer.stack.pop()
            tracer._count(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, args, kwargs, result):
        c = self.counts
        if name == "solve_ivp":
            c["solver_calls"] += 1
            c["nfev"] += result.nfev
            c["njev"] += result.njev
            if kwargs.get("t_eval") is None:
                c["steps"] += len(result.t) - 1
            if result.t_events is not None:
                c["events"] += sum(len(te) for te in result.t_events)
            if any(self.spans[i][0] == "poincare_cycle" for i in self.stack):
                c["cycle_model_time"] += float(result.t[-1] - result.t[0])
        elif name == "poincare_cycle":
            c["cycle_attempts"] += 1
            c["cycles_found"] += result is not None

    # -- patching -------------------------------------------------------------

    def install(self):
        mods = [m for k, m in sys.modules.items() if k == "glacier_dyn" or k.startswith("glacier_dyn.")]
        for modname, attr, layer in TRACED:
            home = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, classmethod(self._wrap(orig.__func__, attr, layer)))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(orig, attr, layer)
            for mod in mods:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- reduction ------------------------------------------------------------

    def per_layer(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, each per traced pass."""
        incl: dict[str, float] = {}
        excl: dict[str, float] = {}
        calls: dict[str, int] = {}
        child = [0.0] * len(self.spans)
        for name, _layer, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        cli_self = stab_self = 0.0
        for i, (name, layer, _parent, start, end) in enumerate(self.spans):
            dur = end - start
            incl[name] = incl.get(name, 0.0) + dur
            excl[name] = excl.get(name, 0.0) + dur - child[i]
            calls[name] = calls.get(name, 0) + 1
            if layer == "cli":
                cli_self += dur - child[i]
            if name in STABILITY:
                stab_self += dur - child[i]
        c = self.counts
        solver_s = incl.get("solve_ivp", 0.0)
        out = {
            "cli.self_s": cli_self,
            "cli.output_bytes": c["output_bytes"],
            "cli.config_s": sum(incl.get(n, 0.0) for n in CONFIG),
            "simulator.integrate_s": incl.get("integrate", 0.0),
            "simulator.integrate_calls": calls.get("integrate", 0),
            "simulator.poincare_cycle_s": incl.get("poincare_cycle", 0.0),
            "simulator.sweep_mu_s": incl.get("sweep_mu", 0.0),
            "simulator.solver_calls": c["solver_calls"],
            "simulator.nfev": c["nfev"],
            "simulator.njev": c["njev"],
            "simulator.steps": c["steps"],
            "simulator.events": c["events"],
            "simulator.cycle_attempts": c["cycle_attempts"],
            "simulator.cycles_found": c["cycles_found"],
            "equilibria.find_equilibria_s": incl.get("find_equilibria", 0.0),
            "equilibria.find_equilibria_calls": calls.get("find_equilibria", 0),
            "stability.self_s": stab_self,
            "oracle.run_verification_s": excl.get("run_verification", 0.0),
            "oracle.bisect_lambda_branches_s": incl.get("bisect_lambda_branches", 0.0),
            "oracle.grid_max_lambda0_s": incl.get("grid_max_lambda0", 0.0),
            "oracle.fd_jacobian_s": incl.get("fd_jacobian", 0.0),
            "oracle.numeric_l1_s": incl.get("numeric_l1", 0.0),
        }
        out = {k: v / passes for k, v in out.items()}
        # Ratios are not divided by the pass count.
        out["simulator.us_per_rhs"] = 1e6 * solver_s / c["nfev"] if c["nfev"] else 0.0
        out["simulator.model_time_per_cycle"] = (
            c["cycle_model_time"] / c["cycles_found"] if c["cycles_found"] else 0.0
        )
        return out

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "layer", "parent", "start_s", "end_s"],
                    "spans": self.spans,
                    "counts": self.counts,
                },
                fh,
            )
