"""One workload's timed passes, in a fresh process started by run.py.

Usage (run.py passes the arguments):
    python3 worker.py <job.json>

The job file names the source directory, the operations, the run length,
whether to trace, and where to write outputs and the result. Each pass runs
every operation once through glacier_dyn.cli.main with --out pointed at a
scratch file. Outputs of the first pass are kept for checking; later passes
keep only a digest of each output, which must match the first pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time


def _digest(path: str) -> tuple[str, int]:
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data).hexdigest(), len(data)


def _one_pass(cli, ops, out_dir: str, index: int, tracer=None) -> dict:
    times, codes, digests = [], [], []
    nbytes = 0
    cpu0, t0 = time.process_time(), time.perf_counter()
    for k, op in enumerate(ops):
        out = os.path.join(out_dir, f"pass{index}-op{k}.{op['ext']}")
        start = time.perf_counter()
        try:
            code = cli.main(op["argv"] + ["--out", out])
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        codes.append(code)
        if os.path.exists(out):
            digest, size = _digest(out)
            nbytes += size
            if index > 0:
                os.remove(out)
        else:
            digest = None
        digests.append(digest)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    if tracer is not None:
        tracer.counts["output_bytes"] += nbytes
    return {"wall": wall, "cpu": cpu, "op_times": times, "codes": codes, "digests": digests}


def _vector_field_us(job) -> float:
    """Median µs per call of the public vector_field at a fixed state."""
    import glacier_dyn as gd

    with open(job["params_files"][-1], encoding="utf-8") as fh:
        raw = json.load(fh)
    if "model" in raw:
        model = gd.ModelParams.from_dict(raw["model"])
    else:
        model, _ = gd.nondimensionalize(gd.PhysicalParams.from_dict(raw["physical"]))
    state = gd.State(theta=1.43, lam=0.07)
    vf = gd.vector_field
    per_call = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(3000):
            vf(model, 3.0, state)
        per_call.append((time.perf_counter() - t0) / 3000 * 1e6)
    return statistics.median(per_call)


def main(job_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import glacier_dyn.cli as cli

    ops, out_dir, seconds = job["ops"], job["out_dir"], job["seconds"]
    passes: list[dict] = []
    traced: list[dict] = []
    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer()
    start = time.perf_counter()
    # Whole passes only (in trace mode, untraced/traced pairs). Start another
    # while it would overrun the run length by less than half its duration.
    while True:
        if tracer is None:
            passes.append(_one_pass(cli, ops, out_dir, len(passes)))
        else:
            passes.append(_one_pass(cli, ops, out_dir, len(passes) + len(traced)))
            tracer.install()
            try:
                traced.append(_one_pass(cli, ops, out_dir, len(passes) + len(traced), tracer))
            finally:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            break
    result = {
        "passes": passes,
        "traced": traced,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        layer = tracer.per_layer(len(traced))
        layer["model.vector_field_us"] = _vector_field_us(job)
        layer["trace.overhead_s"] = statistics.median(p["wall"] for p in traced) - statistics.median(
            p["wall"] for p in passes
        )
        result["per_layer"] = layer
        tracer.dump(job["trace_file"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
