"""glacier-dyn benchmark: one workload, one seed, one JSON line of results.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a source checkout; nothing needs installing. The
script puts src/ on the path of the processes it starts, pins BLAS/OpenMP
thread pools to one thread, and generates all load from one process:

1. five fresh processes each import glacier_dyn.cli and load the workload's
   parameter files (setup_s is their median);
2. one fresh worker process repeats the workload's operation list through
   glacier_dyn.cli.main for about --seconds (whole passes only; with
   --trace 1, untraced and traced passes alternate);
3. this process checks the first pass's outputs against the independent
   reference, requires every later pass to reproduce them byte for byte,
   and confirms that each checker rejects deliberately corrupted outputs.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The exit status is 0 when the benchmark ran, whatever the checks found, and
2 when it could not run (for example, no glacier_dyn sources next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "workload_s": "s",
    "op_p50_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.config_s": "s",
    "model.vector_field_us": "us/call",
    "simulator.integrate_s": "s",
    "simulator.integrate_calls": "count",
    "simulator.poincare_cycle_s": "s",
    "simulator.sweep_mu_s": "s",
    "simulator.solver_calls": "count",
    "simulator.nfev": "count",
    "simulator.njev": "count",
    "simulator.steps": "count",
    "simulator.events": "count",
    "simulator.us_per_rhs": "us",
    "simulator.cycle_attempts": "count",
    "simulator.cycles_found": "count",
    "simulator.model_time_per_cycle": "tau/cycle",
    "equilibria.find_equilibria_s": "s",
    "equilibria.find_equilibria_calls": "count",
    "stability.self_s": "s",
    "oracle.run_verification_s": "s",
    "oracle.bisect_lambda_branches_s": "s",
    "oracle.grid_max_lambda0_s": "s",
    "oracle.fd_jacobian_s": "s",
    "oracle.numeric_l1_s": "s",
    "trace.overhead_s": "s",
}


class CannotRun(Exception):
    pass


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _setup_seconds(files: list[str]) -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), SRC, *files],
            capture_output=True, text=True, timeout=20,
        )
        if proc.returncode != 0:
            raise CannotRun(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _run_worker(job: dict, work: str) -> dict:
    job_path = os.path.join(work, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), job_path])
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise CannotRun(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise CannotRun(f"worker exited with status {code}")
    with open(job["result"], encoding="utf-8") as fh:
        return json.load(fh)


def _check(ops, result: dict, work: str) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over every pass of every operation."""
    from checks import MUTATIONS, CheckFailed, Checker

    checker = Checker()
    passes = result["passes"] + result["traced"]
    correct, failed = True, 0
    texts = {}
    first = passes[0]
    for k, op in enumerate(ops):
        path = os.path.join(work, f"pass0-op{k}.{op.ext}")
        text = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        texts[k] = text
        try:
            checker.check(op.argv, first["codes"][k], text)
            ok = True
        except CheckFailed as exc:
            ok = False
            if op.known_fault:
                _log(f"{op.name}: fails as known ({op.known_fault}): {exc}")
            else:
                correct = False
                _log(f"{op.name}: WRONG OUTPUT: {exc}")
        for p in passes:
            same = p["codes"][k] == first["codes"][k] and p["digests"][k] == first["digests"][k]
            if not same:
                correct = False
                _log(f"{op.name}: a later pass did not reproduce the first pass's output")
            failed += (not ok) or (not same)
    # The checkers must reject deliberate corruptions of real outputs.
    rejected = applied = 0
    for k, op in enumerate(ops):
        if texts[k] is None or op.known_fault:
            continue
        for mutate in MUTATIONS[op.argv[0]]:
            bad = mutate(texts[k])
            if bad is None:
                continue
            applied += 1
            try:
                checker.check(op.argv, 0, bad)
                _log(f"{op.name}: checker ACCEPTED the corruption {mutate.__name__}")
            except CheckFailed:
                rejected += 1
    if applied == 0 or rejected != applied:
        correct = False
    _log(f"checker self-test: {rejected}/{applied} corruptions rejected")
    return correct, len(passes) * len(ops), failed


def run(args) -> dict:
    if not os.path.isfile(os.path.join(SRC, "glacier_dyn", "cli.py")):
        raise CannotRun(f"no glacier_dyn sources under {SRC}")
    if not os.path.isdir(os.path.join(ROOT, "params")):
        raise CannotRun(f"no parameter files under {ROOT}/params")
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, make_ops

    if args.workload not in WORKLOADS:
        raise CannotRun(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    ops, files = make_ops(args.workload, args.seed, ROOT)
    os.makedirs(OUT_ROOT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT_ROOT, f"{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        setup_s = _setup_seconds(files)
        job = {
            "src": SRC,
            "ops": [{"argv": op.argv, "ext": op.ext} for op in ops],
            "params_files": files,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "out_dir": work,
            "result": os.path.join(work, "result.json"),
            "trace_file": os.path.join(OUT_ROOT, f"trace-{tag}.json"),
        }
        t0 = time.perf_counter()
        result = _run_worker(job, work)
        _log(f"{args.workload}: {len(result['passes'])} untraced + {len(result['traced'])} traced passes "
             f"in {time.perf_counter() - t0:.1f} s")
        correct, attempted, failed = _check(ops, result, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        metrics = {k: {"value": result["per_layer"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        untraced = result["passes"]
        values = {
            "setup_s": setup_s,
            "workload_s": statistics.median(p["wall"] for p in untraced),
            "op_p50_s": statistics.median(t for p in untraced for t in p["op_times"]),
            "cpu_s": statistics.median(p["cpu"] for p in untraced),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    out = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT_ROOT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="glacier-dyn benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        out = run(args)
    except CannotRun as exc:
        _log(f"benchmark cannot run: {exc}")
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
