"""Benchmark of limitcone's CLI pipelines, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports limitcone from the
checkout's `src/` and refuses to run without it.  One process runs the
workload's stage sequence again and again for about S seconds and reports
medians; times are in reference seconds (bench_clock.py).  With `--trace 0` the last line of standard output is a JSON object
with the end-to-end metrics; with `--trace 1` untraced and traced iterations
alternate and the JSON holds the per-layer metrics.  Every metric, the
informational ones too, is printed above it as `metric NAME VALUE UNIT`, and a
full record goes to `.perfbench_work/results/`.  The exit code is 1 when any
correctness check failed.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# gated by BENCHMARK.json; every workload reports each of them
END_TO_END = {
    "total_s": "s",
    "setup_s": "s",
    "words_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# printed and recorded, not gated: stage times (absent on workloads without
# the stage, and too short on some to gate on a shared host), wall seconds
# beside the reference seconds (bench_clock.py), failed_share (zero when all
# is well), and properties of the seed's inputs (cone_error_deg, proved_share)
INFORMATIONAL = {
    "total_wall_s": "s",
    "setup_wall_s": "s",
    "speed_factor": "ratio",
    "forge_s": "s",
    "certify_s": "s",
    "cone_s": "s",
    "limit_set_s": "s",
    "compare_s": "s",
    "failed_share": "ratio",
    "cone_error_deg": "deg",
    "proved_share": "ratio",
}

# per-layer metrics: wrapped callable -> the counters reported for it
CALLABLE_METRICS = {
    "limits.enumerate_words": ("calls", "self_s", "words"),
    "limits.estimate_cone": ("self_s", "directions_in", "directions_kept"),
    "limits.estimate_limit_set": ("self_s", "points_in", "points_kept"),
    "limits.compare_mu_lambda": ("self_s",),
    "limits.WordProduct.mu": ("calls", "self_s"),
    "limits.WordProduct.lam": ("calls", "self_s"),
    "projgeom.compound_matrix": ("calls", "self_s"),
    "projgeom.proj_distance": ("calls", "self_s"),
    "projgeom.ProjectivePoint.from_vector": ("calls",),
    "projections.product_jordan": ("calls", "self_s"),
    "cones.extreme_ray_indices": ("self_s",),
    "cones.cone_distance": ("calls",),
    "proximality.certify_matrix_eps_proximal": (
        "sampled.calls", "sampled.errors", "analytic.calls", "analytic.errors",
    ),
    "proximality.sampled_contraction_check": ("calls", "self_s", "samples"),
    "proximality.analytic_contraction_bounds": ("calls", "self_s"),
    "proximality.top_eigendata": ("calls", "self_s"),
    "schottky.forge_semigroup": ("calls", "self_s"),
    "schottky.verify_schottky": ("calls", "self_s"),
    "schottky.in_open_semigroup": ("calls", "self_s"),
}
KEEP_RATIOS = {
    "limits.estimate_cone.keep_ratio": ("directions_kept", "directions_in"),
    "limits.estimate_limit_set.keep_ratio": ("points_kept", "points_in"),
}
# the baseline attribution a traced run confirms: stage <- self time of these
ATTRIBUTION = {
    "sl2-group-limit-set": ("limit_set", ("projgeom.proj_distance", "limits.estimate_limit_set")),
    "sl4-forge-cone": ("forge", ("projgeom.compound_matrix", "projections.product_jordan")),
    "sl3-sampled-certify": ("certify", ("proximality.sampled_contraction_check",)),
}


def per_layer_units():
    from bench_trace import LAYERS

    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for key, counters in CALLABLE_METRICS.items():
        for c in counters:
            units[f"{key}.{c}"] = "s" if c == "self_s" else "count"
    units.update({name: "ratio" for name in KEEP_RATIOS})
    units["trace.overhead_share"] = "ratio"
    return units


def layer_values(tracer):
    from bench_trace import LAYERS

    out = {f"{layer}.self_s": tracer.layer_self_s(layer) for layer in LAYERS}
    for key, counters in CALLABLE_METRICS.items():
        for c in counters:
            if c == "calls":
                out[f"{key}.{c}"] = tracer.calls.get(key, 0)
            elif c == "self_s":
                out[f"{key}.{c}"] = tracer.self_s.get(key, 0.0)
            else:
                out[f"{key}.{c}"] = tracer.counts.get(f"{key}.{c}", 0)
    for name, (kept, seen) in KEEP_RATIOS.items():
        key = name.rsplit(".", 1)[0]
        n_in = out[f"{key}.{seen}"]
        # 0 when the callable did not run on this workload
        out[name] = out[f"{key}.{kept}"] / n_in if n_in else 0.0
    return out


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):  # numpy without the dict form of its config
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def setup_once(name, seed, size, workdir):
    """Time one fresh interpreter takes to import limitcone and write the inputs:
    {"wall_s": ..., "reference_s": ...}."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), name, str(seed), size, str(workdir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(name, seed, seconds, trace, size="full", work=WORK):
    """Run workload `name` for about `seconds` and return its full record."""
    import bench_workloads as bw

    if name not in bw.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(bw.WORKLOADS)}")
    sizes = bw.SIZES[size][name]
    rundir = work / f"{name}-{os.getpid()}-{time.time_ns()}"
    runs = []  # (traced, pipeline, digests, tracer)
    try:
        setup = [setup_once(name, seed, size, rundir / f"setup{i}") for i in range(SETUP_REPEATS)]
        durations = []
        start = time.perf_counter()
        while True:
            traced = bool(trace) and len(runs) % 2 == 1
            t0 = time.perf_counter()
            pipe, digests, tracer = bw.run_iteration(
                bw.WORKLOADS[name](seed, sizes), rundir / f"iter{len(runs)}", traced
            )
            durations.append(time.perf_counter() - t0)
            runs.append((traced, pipe, digests, tracer))
            # start another iteration only if it is expected to end in time
            if len(runs) >= (2 if trace else 1) and (
                time.perf_counter() - start + statistics.median(durations) > seconds
            ):
                break
        measured_s = time.perf_counter() - start
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = sum(p.attempted for _, p, _, _ in runs)
    failures = [f for _, p, _, _ in runs for f in p.failures]
    # same seed, same bytes: every iteration, traced or not, must agree
    attempted += 1
    if any(d != runs[0][2] for _, _, d, _ in runs):
        failures.append("output digests differ between iterations with the same seed")

    plain = [p for traced, p, _, _ in runs if not traced]
    metrics = {
        "total_s": statistics.median(sum(p.stage_s.values()) for p in plain),
        "total_wall_s": statistics.median(sum(p.stage_wall_s.values()) for p in plain),
        "setup_s": statistics.median(s["reference_s"] for s in setup),
        "setup_wall_s": statistics.median(s["wall_s"] for s in setup),
        # kernel speed against its reference: below 1 on a loaded host
        "speed_factor": statistics.median(p.clock.speed() for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_share": len(failures) / attempted,
    }
    for stage in bw.STAGES:
        if stage in plain[0].stage_s:
            metrics[f"{stage}_s"] = statistics.median(p.stage_s[stage] for p in plain)
    metrics["words_per_s"] = statistics.median(
        sum(p.words[s] for s in bw.WORD_STAGES)
        / sum(p.stage_s[s] for s in bw.WORD_STAGES if s in p.stage_s)
        for p in plain
    )
    for key in ("cone_error_deg", "proved_share"):
        if key in plain[0].info:
            metrics[key] = plain[0].info[key]

    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "size": size,
        "sizes": sizes,
        "seconds": seconds,
        "measured_s": measured_s,
        "iterations": len(runs),
        "environment": environment(),
        "setup_samples": setup,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
        "metrics": metrics,
        "runs": [
            {
                "traced": traced,
                "stage_s": p.stage_s,
                "stage_wall_s": p.stage_wall_s,
                "speed_samples": len(p.clock.samples),
                "words": dict(p.words),
                "info": p.info,
                "digests": digests,
            }
            for traced, p, digests, _ in runs
        ],
        "digests": runs[0][2],
    }
    tracers = [t for _, _, _, t in runs if t is not None]
    if tracers:
        layers = [layer_values(t) for t in tracers]
        per_layer = {k: statistics.median(v[k] for v in layers) for k in layers[0]}
        traced_total = statistics.median(
            sum(p.stage_s.values()) for traced, p, _, _ in runs if traced
        )
        per_layer["trace.overhead_share"] = traced_total / metrics["total_s"] - 1.0
        record["per_layer"] = per_layer
        stage, keys = ATTRIBUTION[name]
        stage_s = statistics.median(p.stage_s[stage] for traced, p, _, _ in runs if traced)
        covered = sum(per_layer[f"{k}.self_s"] for k in keys)
        record["attribution"] = {
            "stage": f"{stage}_s", "traced_stage_s": stage_s,
            "self_s_of": list(keys), "covered_s": covered, "share": covered / stage_s,
        }
    return record


def result_line(record):
    """The last output line: end-to-end metrics, or per-layer metrics with tracing."""
    if record["trace"]:
        units = per_layer_units()
        values = record["per_layer"]
    else:
        units = END_TO_END
        values = record["metrics"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def report(record, out=sys.stdout):
    print(
        f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
        f"{record['iterations']} iterations in {record['measured_s']:.1f} s",
        file=out,
    )
    print("environment " + json.dumps(record["environment"], sort_keys=True), file=out)
    print("sizes " + json.dumps(record["sizes"], sort_keys=True), file=out)
    for table in (END_TO_END, INFORMATIONAL):
        for k, unit in table.items():
            if k in record["metrics"]:
                print(f"metric {k} {record['metrics'][k]!r} {unit}", file=out)
            else:
                print(f"metric {k} absent (not measured on this workload)", file=out)
    if "per_layer" in record:
        for k, unit in per_layer_units().items():
            print(f"metric {k} {record['per_layer'][k]!r} {unit}", file=out)
        a = record["attribution"]
        print(
            f"attribution {a['stage']}: self time of {' + '.join(a['self_s_of'])} "
            f"is {a['covered_s']:.3f} s of {a['traced_stage_s']:.3f} s ({100 * a['share']:.1f} %)",
            file=out,
        )
    for f in record["failures"]:
        print(f"FAILED {f}", file=out)
    for name, digest in record["digests"].items():
        print(f"sha256 {digest} {name}", file=out)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "limitcone" / "__init__.py").is_file():
        print(f"error: no limitcone sources under {SRC}", file=sys.stderr)
        return 2
    # one process and one BLAS thread: the matrices are small, and a pinned
    # thread count keeps runs comparable across machines
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import limitcone

    if Path(limitcone.__file__).resolve().parent != SRC / "limitcone":
        print(f"error: limitcone imported from {limitcone.__file__}, not {SRC}", file=sys.stderr)
        return 2

    record = measure(args.workload, args.seed, args.seconds, args.trace)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    report(record)
    print(json.dumps(result_line(record)))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
