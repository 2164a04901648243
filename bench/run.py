#!/usr/bin/env python3
"""circbeta benchmark: end-to-end and per-layer timing of three workloads.

    python3 bench/run.py --workload verify|curves|finite-n --seed N \
        --seconds S --trace 0|1

Load is a closed loop, one pass at a time. Each pass runs in a process forked
from this one right after `import circbeta`, so every pass starts with the
library's caches as cold as a fresh `circbeta` process has them, and its clock
starts after import. BLAS is pinned to one thread through environment
variables set here, before numpy loads.

--trace 0 prints the end-to-end metrics: set-up time (median of fresh
interpreters importing circbeta and building the CLI parser), median and
worst pass time, failed/attempted operations, and peak resident memory of a
pass process. --trace 1 alternates untraced and traced passes and prints the
per-layer metrics of the traced ones, the tracing overhead, and the
per-identity times of the untraced `verify` passes; it writes the spans of
the first traced pass to bench/out/. The metric names come from
BENCHMARK.json. The last line of standard output is the result; the line
before it is a report with the environment, every failure, and the raw
samples. An operation that raises or fails its output check counts as failed;
the run stays correct while every failure is a known defect listed in
workloads.py.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
SETUP_CODE = ("import time; t = time.perf_counter(); import circbeta; "
              "from circbeta import cli; cli.build_parser(); "
              "print(time.perf_counter() - t)")


def _import_library():
    """Import circbeta from this checkout's src/ and nowhere else."""
    if not (SRC / "circbeta" / "__init__.py").is_file():
        sys.exit(f"bench: no circbeta sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import circbeta
    if SRC.resolve() not in Path(circbeta.__file__).resolve().parents:
        sys.exit(f"bench: imported circbeta from {circbeta.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def measure_setup() -> list[float]:
    """Fresh interpreters timing `import circbeta` and `cli.build_parser()`;
    the first, untimed, writes the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def _pass(ops, traced: bool) -> dict:
    """One pass of the workload; runs in the forked child."""
    import workloads
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    outputs, op_s, errors = [], [], {}
    t_start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            outputs.append(workloads.run_op(op))
        except Exception as exc:
            outputs.append(None)
            errors[op["name"]] = f"{type(exc).__name__}: {exc}"
        op_s.append(perf_counter() - t0)
    t_end = perf_counter()
    if tracer:
        tracer.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for op, out in zip(ops, outputs):
        if op["name"] in errors:
            continue
        try:
            bad = workloads.check_op(op, out)
        except Exception as exc:
            bad = f"check raised {type(exc).__name__}: {exc}"
        if bad:
            errors[op["name"]] = bad
    result = {"traced": traced, "pass_s": t_end - t_start, "op_s": op_s,
              "rss_mb": rss_mb, "errors": errors}
    if tracer:
        result["layers"] = tracer.summary(t_start, t_end)
        result["spans"] = tracer.records(t_start)
    return result


def run_pass(ops, traced: bool) -> dict:
    """Fork, run one pass in the child, and collect its result over a pipe."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 0
        try:
            payload = json.dumps(_pass(ops, traced))
        except BaseException:
            payload = json.dumps({"crash": traceback.format_exc()})
            code = 1
        try:
            with os.fdopen(wfd, "w") as fh:
                fh.write(payload)
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    result = json.loads(data) if data else {}
    if status != 0 or "crash" in result:
        sys.exit(f"bench: pass process failed (status {status}):\n"
                 + result.get("crash", ""))
    return result


def tail(samples):
    """Worst pass. A run holds 10 to 35 passes; the highest percentile with ten
    samples beyond it would lie at or below the median, so the tail is the
    maximum."""
    return max(samples), {"percentile": 100, "samples": len(samples)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_library()
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"known: {', '.join(workloads.WORKLOADS)}")
    ops = workloads.make_inputs(args.workload, args.seed)

    setup = [] if args.trace else measure_setup()
    passes = []
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or len(passes) < 1 + args.trace:
        passes.append(run_pass(ops, traced=bool(args.trace) and len(passes) % 2 == 1))

    errors = {}
    for p in passes:
        for name, why in p["errors"].items():
            errors.setdefault(name, why)
    attempted = len(ops) * len(passes)
    failed = sum(len(p["errors"]) for p in passes)
    unexpected = sorted(set(errors) - set(workloads.KNOWN_DEFECTS))
    correct = not unexpected
    plain = [p for p in passes if not p["traced"]]
    pass_s = [p["pass_s"] for p in plain]
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": len(passes), "operations_per_pass": len(ops),
              "environment": environment(), "failures": errors,
              "unexpected_failures": unexpected,
              "known_defects": workloads.KNOWN_DEFECTS, "excluded": workloads.EXCLUDED,
              "pass_s": pass_s, "setup_s": setup}

    if args.trace:
        import tracer
        traced = [p for p in passes if p["traced"]]
        layers = tracer.median_metrics([p["layers"] for p in traced])
        # passes alternate untraced, traced: each pair ran close in time, so
        # the median pair difference is robust to drifting machine speed
        layers["trace.overhead_s"] = statistics.median(
            t["pass_s"] - u["pass_s"] for u, t in zip(passes[0::2], passes[1::2]))
        for i, op in enumerate(ops):
            if op["kind"] == "verify":
                layers[f"cli.identity.{op['identity']}_s"] = \
                    statistics.median(p["op_s"][i] for p in plain)
        for name in workloads.IDENTITIES:
            layers.setdefault(f"cli.identity.{name}_s", 0.0)
        # self times of every layer plus the time outside all spans must
        # account for each traced pass
        worst = max(abs(p["layers"]["trace.unaccounted_s"]) / p["pass_s"] for p in traced)
        report["trace_unaccounted_share"] = worst
        correct = correct and worst < 1e-3
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(trace_file, "w") as fh:    # spans of the first traced pass
            for rec in traced[0]["spans"]:
                fh.write(json.dumps(rec) + "\n")
        report["trace_file"] = str(trace_file.relative_to(ROOT))
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        value, report["pass_tail"] = tail(pass_s)
        values = {"setup_s": statistics.median(setup),
                  "pass_p50_s": statistics.median(pass_s),
                  "pass_tail_s": value,
                  "fail_ratio": failed / attempted,
                  "peak_rss_mb": max(p["rss_mb"] for p in passes)}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
