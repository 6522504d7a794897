"""jetlaw benchmark: four seeded workloads, end-to-end metrics, and a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline-batch --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --seed 1            # all four workloads, one row each

With ``--trace 0`` a run reports the end-to-end metrics; with ``--trace 1``
it runs the workload untraced and then traced, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from harness import ROOT, SRC, child_env, measure, percentile
from spans import LAYERS, SPAN_NAMES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

# workload -> the module whose cases(seed) builds it
WORKLOADS = {
    "pipeline-batch": "pipeline",
    "term-sweep": "sweep",
    "oracle-flux": "flux",
    "cli-session": "clisession",
}
SETUP_REPEATS = (5, 6)  # fresh interpreters before and after the timed loop

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def warm_bytecode_cache(code: str) -> None:
    """One untimed import, so the first run in a checkout measures what later runs do."""
    subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True, timeout=120)


def measure_setup(code: str, repeats: int) -> list:
    """Seconds from spawning a fresh interpreter until ``code`` (the workload's
    imports) is done and the first call could run.

    The child prints the monotonic clock once its imports are done; the
    parent read the same clock just before spawning it.
    """
    probe = f"{code}\nimport time\nprint(repr(time.monotonic()))"
    env = child_env()
    times = []
    for _ in range(repeats):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, cwd=ROOT, check=True, timeout=120,
            capture_output=True, text=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return times


def run_record(workload: str, seed: int, seconds: float, trace: int, params: dict) -> dict:
    import mpmath

    digest = hashlib.sha256()
    package = os.path.join(SRC, "jetlaw")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "params": params,
    }


def build(workload: str, seed: int):
    return importlib.import_module(WORKLOADS[workload]).cases(seed)


def latency_samples(w, m) -> tuple:
    """(samples for the percentiles, throughput, description of the samples)."""
    if w.per_case_medians:
        samples = [statistics.median(times) for times in m.case_times.values()]
        throughput = len(samples) / sum(samples) if samples else 0.0
        return samples, throughput, f"{len(samples)} case medians of {len(m.latencies)} ops"
    throughput, windows = m.windowed_throughput(w.window)
    return m.latencies, throughput, f"{len(m.latencies)} ops in {windows} windows"


def settle_heap() -> None:
    """Collect, then move every object alive now out of the collector's view.

    The input pool is much larger than what a user's process holds, and
    without this each full collection during a timed operation would scan
    it, adding pauses that depend on the benchmark rather than on jetlaw.
    """
    gc.collect()
    gc.freeze()


def clear_image_caches() -> None:
    from jetlaw import transform

    transform._spacetime_image.cache_clear()
    transform._lightcone_image.cache_clear()


def image_cache_counts() -> tuple:
    from jetlaw import transform

    infos = (transform._spacetime_image.cache_info(), transform._lightcone_image.cache_info())
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


# -- end-to-end run -----------------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float):
    w = build(workload, seed)
    # set-up probes on both sides of the loop spread them over the run, so a
    # short burst of load on the machine cannot move their median
    warm_bytecode_cache(w.setup_code)
    setup = measure_setup(w.setup_code, SETUP_REPEATS[0])
    clear_image_caches()
    settle_heap()
    m = measure(w.cases, seconds, stride=w.stride)
    setup += measure_setup(w.setup_code, SETUP_REPEATS[1])
    failures, attempted = list(m.failures), m.attempted
    if w.peak_rss is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss_mb, rss_pass = w.peak_rss()
        failures += rss_pass.failures
        attempted += rss_pass.attempted
    samples, throughput, described = latency_samples(w, m)
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "throughput_ops_s": (throughput, described),
        "latency_p50_ms": (percentile(samples, 50) * 1e3, described),
        "latency_p90_ms": (percentile(samples, 90) * 1e3, described),
        "peak_rss_mb": (rss_mb, 1),
    }
    rows = [(name, values[name][0], unit, values[name][1]) for name, unit in END_TO_END]
    rows.append(("error_rate", len(failures) / attempted, "ratio", attempted))
    return attempted, failures, rows, w.params


# -- traced run ---------------------------------------------------------------


def per_layer_spec() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    spec = []
    for name in SPAN_NAMES:
        spec += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    spec += [(f"{layer}.errors", "count") for layer in LAYERS]
    spec += [
        ("expr.arith.add_calls", "count"),
        ("expr.arith.mul_calls", "count"),
        ("expr.arith.pow_calls", "count"),
        ("expr.diff_partial.terms_in", "count"),
        ("expr.substitute.terms_in", "count"),
        ("jets.total_derivative.terms_in", "count"),
        ("expr.zero_verdict.sampled_ratio", "ratio"),
        ("expr.diff_partial.scaling", "slope"),
        ("expr.substitute.scaling", "slope"),
        ("jets.total_derivative.scaling", "slope"),
        ("jets.restricted_derivative.scaling", "slope"),
        ("jets.euler_operator.scaling", "slope"),
        ("transform.substitute_to_spacetime.scaling", "slope"),
        ("transform.image_cache.hit_ratio", "ratio"),
        ("oracle.evaluate_float_per_check", "ratio"),
        ("cli.process_overhead_s", "s"),
        ("trace.untraced_throughput_ops_s", "ops/s"),
        ("trace.traced_throughput_ops_s", "ops/s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.accounted_share", "ratio"),
    ]
    return spec


def loglog_slope(points) -> float:
    """Least-squares slope of log(seconds) against log(terms)."""
    xs = [math.log(t) for t, _ in points]
    ys = [math.log(s) for _, s in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def scaling(w, m) -> dict:
    """Slope per operation of the ladder, from the median time of each (operation, size) case."""
    out = {}
    for metric, op in w.scaling.items():
        points = [
            (c.terms, statistics.median(m.case_times[c.label]))
            for c in w.cases
            if c.label.startswith(op + "@") and c.label in m.case_times
        ]
        out[f"{metric}.scaling"] = loglog_slope(points) if len(points) >= 2 else 0.0
    return out


def traced(workload: str, seed: int, seconds: float):
    w = build(workload, seed)
    settle_heap()
    cases, stride = w.cases, w.stride
    extra = {}
    if w.in_process is not None:
        # child processes for the process overhead, then in-process for the spans
        shares = seconds / 3
        sub = measure(cases, shares, stride=stride, min_ops=0)
        cases = w.in_process().cases
        base = measure(cases, shares, stride=stride, min_ops=0)
        gaps = [
            statistics.median(sub.case_times[c.label]) - statistics.median(base.case_times[c.label])
            for c in cases
            if c.label in sub.case_times and c.label in base.case_times
        ]
        extra["cli.process_overhead_s"] = statistics.mean(gaps) if gaps else 0.0
        failures = sub.failures + base.failures
        attempted = sub.attempted + base.attempted
    else:
        shares = seconds / 2
        clear_image_caches()
        base = measure(cases, shares, stride=stride, min_ops=0)
        extra.update(scaling(w, base))
        failures, attempted = list(base.failures), base.attempted

    tracer = Tracer()
    clear_image_caches()
    hits0, misses0 = image_cache_counts()
    tracer.install(callers=[sys.modules[n] for n in WORKLOADS.values() if n in sys.modules])
    try:
        m = measure(cases, shares, stride=stride, tracer=tracer, min_ops=0)
    finally:
        tracer.uninstall()
    hits, misses = (a - b for a, b in zip(image_cache_counts(), (hits0, misses0)))
    failures += m.failures
    attempted += m.attempted

    calls = tracer.calls()
    selfs = tracer.self_seconds()
    values = {}
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = selfs.get(name, 0.0)
    for layer in LAYERS:
        values[f"{layer}.errors"] = tracer.errors.get(layer, 0)
    for counter in ("add_calls", "mul_calls", "pow_calls"):
        values[f"expr.arith.{counter}"] = tracer.arith.get(counter, 0)
    for name in ("expr.diff_partial", "expr.substitute", "jets.total_derivative"):
        values[f"{name}.terms_in"] = tracer.terms_in.get(name, 0)
    values["expr.zero_verdict.sampled_ratio"] = (
        tracer.zero_sampled / tracer.zero_tests if tracer.zero_tests else 0.0
    )
    values["transform.image_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    checks = calls.get("oracle.check_conservation", 0) + calls.get("oracle.check_characteristic_numeric", 0)
    values["oracle.evaluate_float_per_check"] = calls.get("expr.evaluate_float", 0) / checks if checks else 0.0
    # 0 where the workload cannot produce the metric (no ladder, no subprocesses)
    values.update({name: 0.0 for name, _ in per_layer_spec() if name.endswith(".scaling")})
    values["cli.process_overhead_s"] = 0.0
    values.update(extra)
    values["trace.untraced_throughput_ops_s"] = base.throughput
    values["trace.traced_throughput_ops_s"] = m.throughput
    values["trace.overhead_ratio"] = m.throughput / base.throughput if base.throughput else 0.0
    # layer self times plus the benchmark's own time (everything outside the
    # timed operations) against the traced wall time; the rest is program
    # time outside every spanned function, such as Expr arithmetic called directly
    own = m.wall_s - m.busy_s
    values["trace.accounted_share"] = (sum(selfs.values()) + own) / m.wall_s if m.wall_s else 0.0

    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{workload}-seed{seed}.json.gz"))
    rows = [(name, values[name], unit, None) for name, unit in per_layer_spec()]
    return attempted, failures, rows, w.params


# -- output ---------------------------------------------------------------------


def print_rows(rows) -> None:
    print(f"{'metric':48s} {'value':>16s} {'unit':8s} samples")
    for name, value, unit, samples in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:48s} {shown:>16s} {unit:8s} {'' if samples is None else samples}")


def run_one(args) -> int:
    measure_run = traced if args.trace else end_to_end
    attempted, failures, rows, params = measure_run(args.workload, args.seed, args.seconds)
    record = run_record(args.workload, args.seed, args.seconds, args.trace, params)
    print(f"# run record: {json.dumps(record, sort_keys=True)}")
    for label, reason in failures[:20]:
        print(f"# failed: {label}: {reason}")
    print_rows(rows)
    declared = {name for name, _ in (END_TO_END if not args.trace else per_layer_spec())}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        # a run in which every operation failed has no latencies; report 0, not NaN
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
            for name, value, unit, _ in rows
            if name in declared
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one summary row per workload."""
    summary = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        print(f"## {workload}")
        print(done.stdout, end="")
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"## {workload} exited with {done.returncode}")
            return done.returncode
        summary[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    if not args.trace:
        names = [name for name, _ in END_TO_END]
        print("## summary (samples in each workload's table above)")
        print(f"{'workload':16s} " + " ".join(f"{n:>16s}" for n in names) + f" {'error_rate':>16s}")
        for workload, res in summary.items():
            cells = " ".join(f"{res['metrics'][n]['value']:16.6g}" for n in names)
            print(f"{workload:16s} {cells} {res['failed']:>9d}/{res['attempted']:<6d}")
    print(json.dumps({"workloads": summary}))
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jetlaw", "__init__.py")):
        print(f"error: no jetlaw package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    for key in [k for k in os.environ if k.startswith("JETLAW_")]:
        del os.environ[key]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
