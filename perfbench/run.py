"""conecert benchmark.

    python3 perfbench/run.py --workload {corpus,lattice,separation}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``./src``. The run builds the workload's inputs from the seed, warms up on
one op, then repeats whole passes over the inputs (one client, closed loop)
until ``--seconds`` have elapsed, and checks every op's output. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-module metrics.
Details and files written are described in perfbench/README.md. The last
line of standard output is one JSON object.
"""

import os

# Pin BLAS to one thread before numpy is loaded: the programs are small and
# a second thread only adds contention.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPS = 3
TAIL_BEYOND = 10
END_TO_END = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms", "setup_s": "s"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "lattice", "separation"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = Path.cwd() / "src"
    if not (src / "conecert" / "__init__.py").is_file():
        print(f"error: no conecert sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import numpy as np

    import tracer as tracing
    import workloads
    import_s = time.perf_counter() - t0

    build = workloads.WORKLOADS[args.workload]
    inputs = OUT / "inputs" / args.workload
    inputs.mkdir(parents=True, exist_ok=True)
    rep_s = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        ops = build(np.random.default_rng(args.seed), inputs)
        ops[0].run()  # untimed warm-up: lazy imports, first-call paths
        rep_s.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(rep_s)

    order = list(range(len(ops)))
    random.Random(args.seed).shuffle(order)
    results = []  # (op index, latency s, output, error, traced)
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    deadline = start + args.seconds
    passes = 0
    # whole passes only, so every run measures the same mix of ops; a traced
    # run alternates untraced and traced passes and ends after a traced one
    while passes == 0 or time.perf_counter() < deadline or (tracer and passes % 2):
        traced = bool(tracer) and passes % 2 == 1
        if traced:
            tracer.install()
        try:
            for i in order:
                t = time.perf_counter()
                out = err = None
                try:
                    if traced:
                        out = tracer.run_op(len(results), f"op.{args.workload}", ops[i].run)
                    else:
                        out = ops[i].run()
                except Exception as exc:  # a failed op is counted, not fatal
                    err = f"{type(exc).__name__}: {exc}"
                results.append((i, time.perf_counter() - t, out, err, traced))
        finally:
            if traced:
                tracer.uninstall()
        passes += 1
    elapsed = time.perf_counter() - start

    failures = []
    for i, _, out, err, _ in results:
        reason = err
        if reason is None:
            try:
                reason = ops[i].check(out)
            except Exception as exc:  # malformed output fails the op
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"{ops[i].label}: {reason}")
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)

    lat = [r[1] for r in results if not r[4]]
    pct = workloads.TAIL_PERCENTILE[args.workload]
    beyond = int(len(lat) * (100.0 - pct) / 100.0)
    if beyond < TAIL_BEYOND:
        print(f"warning: only {beyond} samples beyond p{pct:g}", file=sys.stderr)
    detail = {
        "ops_per_s": len(lat) / (elapsed if tracer is None else sum(lat)),
        "op_ms_p50": 1e3 * statistics.median(lat),
        "op_ms_tail": 1e3 * float(np.percentile(lat, pct)),
        "setup_s": setup_s,
        "failed_frac": len(failures) / len(results),
        "samples": len(lat),
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "passes": passes,
        "ops_per_pass": len(ops),
        "elapsed_s": elapsed,
        "setup": {"import_s": import_s, "reps_s": rep_s},
        "op_ms_p50_by_label": {
            ops[i].label: 1e3 * statistics.median(r[1] for r in results if r[0] == i and not r[4])
            for i in order},
    }
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "env": _environment(np), "end_to_end": detail,
           "failures": failures}

    if tracer is None:
        metrics = {k: {"value": detail[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        traced_lat = [r[1] for r in results if r[4]]
        layer, traffic = tracing.summarize(tracer.spans, passes // 2, len(traced_lat))
        layer["trace.overhead_frac"] = sum(traced_lat) / sum(lat) - 1.0
        units = _layer_units()
        metrics = {k: {"value": layer[k], "unit": u} for k, u in units.items()}
        doc.update(per_module=layer, traffic=traffic, spans={
            "fields": ["name", "parent", "op", "t0_s", "t1_s"],
            "rows": [s[:3] + [s[3] - start, s[4] - start] for s in tracer.spans]})

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(doc, indent=1))

    print(f"env: {json.dumps(doc['env'])}")
    print(f"{args.workload}: {len(results)} ops in {passes} passes of {len(ops)}")
    print(f"  ops_per_s   {detail['ops_per_s']:.6g} 1/s")
    print(f"  op_ms_p50   {detail['op_ms_p50']:.6g} ms  (median of {len(lat)} ops)")
    print(f"  op_ms_tail  {detail['op_ms_tail']:.6g} ms  (p{pct:g}, "
          f"{beyond} of {len(lat)} ops beyond)")
    print(f"  setup_s     {setup_s:.6g} s")
    print(f"  failed_frac {detail['failed_frac']:.6g} fraction  "
          f"({len(failures)} of {len(results)} ops)")
    if tracer is not None:
        for k, v in doc["per_module"].items():
            print(f"  {k:46s} {v:.6g}")
    print(f"details: {path.relative_to(HERE.parent)}")
    print(json.dumps({"correct": not failures, "attempted": len(results),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def _layer_units() -> dict:
    """Units of the per-module metrics listed in BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _environment(np) -> dict:
    import ctypes
    import glob

    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_requested": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }
    # the OpenBLAS builds bundled with numpy and scipy, as loaded
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in glob.glob(str(libdir / "*openblas*.so*")):
            dll = ctypes.CDLL(lib)
            for suffix in ("64_", ""):
                cfg = getattr(dll, f"scipy_openblas_get_config{suffix}", None)
                nth = getattr(dll, f"scipy_openblas_get_num_threads{suffix}", None)
                if cfg is not None and nth is not None:
                    cfg.restype, nth.restype = ctypes.c_char_p, ctypes.c_int
                    env[f"{pkg.__name__}_openblas"] = cfg().decode()
                    env[f"{pkg.__name__}_openblas_threads"] = nth()
                    break
    return env


if __name__ == "__main__":
    sys.exit(main())
