#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test [--seconds <s>]

Run from the repository root. The first run builds the benchmark program
(perfbench/CMakeLists.txt) into .bench_build/perfbench. Each run then
executes the workload in a fresh work directory under .bench_build/runs,
with every LIFTA_* environment variable removed (cold JIT, analysis gates
on, codegen optimizer on) and TMPDIR pointing into that directory, and
removes the directory afterwards.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 they are its per_layer metrics (layers a workload does not
exercise read 0), and the spans are written as Chrome trace-event JSON to
.bench_build/traces/<workload>-seed<n>.json. The line before it is the
run record: machine, thread counts, sample counts, load and steal share.

--self-test runs every workload twice with one seed and fails unless the
exact counters (JIT compiles, voxel-cache misses, image renders,
cell-steps, output bytes, shard digest) agree.
"""
import argparse
import fcntl
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "lifta_perfbench")
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def build():
    """Configures (once) and builds the benchmark program; serialized by a lock."""
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "rir_service.hpp")):
        die("library sources not found under %s" % os.path.join(ROOT, "src"))
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (%s)" % " ".join(cmd), 3)


def hermetic_env(work_dir):
    """The environment of a run: no LIFTA_* overrides, TMPDIR in work_dir."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LIFTA_")}
    unset = sorted(k for k in os.environ if k.startswith("LIFTA_"))
    tmp = os.path.join(work_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env, unset


def read_stat():
    with open("/proc/stat") as f:
        cpu = f.readline().split()[1:]
    vals = [int(v) for v in cpu]
    steal = vals[7] if len(vals) > 7 else 0
    return sum(vals[:8]), steal


def read_loadavg():
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def machine():
    rec = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": "unknown",
           "caches": {}}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    rec["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            d = os.path.join(base, idx)
            try:
                with open(os.path.join(d, "level")) as f:
                    level = f.read().strip()
                with open(os.path.join(d, "type")) as f:
                    kind = f.read().strip()
                with open(os.path.join(d, "size")) as f:
                    size = f.read().strip()
            except OSError:
                continue
            rec["caches"]["L%s-%s" % (level, kind.lower())] = size
    except OSError:
        pass
    try:
        # The ceiling keeps git from searching above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        rec["git_sha"] = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        rec["git_sha"] = None
    return rec


def percentile(values, p):
    """Harrell-Davis estimate of the p-th percentile: a weighted mean of
    all order statistics with Beta(p(n+1), (1-p)(n+1)) weights, here
    approximated by the normal of the same mean and variance (n >= 100).
    Unlike a single order statistic it moves smoothly when the job mix
    puts the percentile between two room kinds' latencies."""
    v = sorted(values)
    n = len(v)
    if n == 0:
        return 0.0
    q = p / 100.0
    sigma = math.sqrt(q * (1.0 - q) / (n + 2))
    scale = sigma * math.sqrt(2.0)

    def cdf(x):
        return 0.5 * (1.0 + math.erf((x - q) / scale))

    lo, total, weight = cdf(0.0), 0.0, 0.0
    for i, x in enumerate(v, start=1):
        hi = cdf(i / n)
        total += (hi - lo) * x
        weight += hi - lo
        lo = hi
    return total / weight


def run_workload(workload, seed, seconds, trace):
    """Runs the benchmark program once; returns (result dict, run record)."""
    nproc = len(os.sched_getaffinity(0))
    runs = os.path.join(BUILD_ROOT, "runs")
    work_dir = os.path.join(runs, "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    env, unset = hermetic_env(work_dir)
    result_path = os.path.join(work_dir, "result.json")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--nproc", str(nproc), "--work-dir", work_dir,
           "--result", result_path]
    trace_path = None
    if trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        trace_path = os.path.join(traces, "%s-seed%d.json" % (workload, seed))
        cmd += ["--trace-out", trace_path]
    load0, (total0, steal0) = read_loadavg(), read_stat()
    t0 = time.monotonic()
    # Its own process group, so a timeout also stops the JIT's compiler
    # processes; stdout is discarded (the result goes to a file).
    proc = subprocess.Popen(cmd, cwd=work_dir, env=env,
                            stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            die("workload %s timed out" % workload, 4)
        if code != 0:
            die("workload %s exited with %d" % (workload, code), 4)
        with open(result_path) as f:
            result = json.load(f)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    wall = time.monotonic() - t0
    total1, steal1 = read_stat()
    record = machine()
    record.update({
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "run_wall_s": round(wall, 3),
        "loadavg_1m_start": load0, "loadavg_1m_end": read_loadavg(),
        "steal_share": ((steal1 - steal0) / (total1 - total0)
                        if total1 > total0 else 0.0),
        "unset_env": unset,
        "jobs_timed": len(result["latency_ms"]),
        "setup_samples": len(result["setup_s"]),
        "counters": result["counters"],
        "failures": result["failures"],
    })
    record.update(result["record"])
    if trace_path:
        record["chrome_trace"] = os.path.relpath(trace_path, ROOT)
    return result, record


def end_to_end(result, record):
    lat = result["latency_ms"]
    n = len(lat)
    # job_p90_ms needs at least ten samples beyond the 90th percentile.
    if n < 100:
        die("only %d timed jobs; job_p90_ms needs 100" % n, 5)
    wall = result["timed_wall_s"]
    record["percentile_samples"] = {"job_p50_ms": n, "job_p90_ms": n,
                                    "beyond_p90": n - int(0.9 * n)}
    record["mcells_per_s"] = result["cell_steps"] / 1e6 / wall
    record["fail_frac"] = (result["failed"] / result["attempted"]
                           if result["attempted"] else 0.0)
    setup = sorted(result["setup_s"])
    return {
        "setup_s": setup[len(setup) // 2],
        "job_p50_ms": percentile(lat, 50),
        "job_p90_ms": percentile(lat, 90),
        "rirs_per_s": result["rirs"] / wall,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(spec, result):
    names = [m["name"] for m in spec["per_layer"]]
    unknown = set(result["layers"]) - set(names)
    if unknown:
        die("lifta_perfbench reported undeclared per-layer metrics: %s" % sorted(unknown))
    return {name: result["layers"].get(name, 0.0) for name in names}


def self_test(spec, seconds):
    ok = True
    seed = 12345
    for w in [w["name"] for w in spec["workloads"]]:
        a, _ = run_workload(w, seed, seconds, 0)
        b, _ = run_workload(w, seed, seconds, 0)
        same = a["counters"] == b["counters"]
        clean = a["failed"] == 0 and b["failed"] == 0
        ok = ok and same and clean
        print("%-18s counters %s, failures %d+%d  %s" % (
            w, "repeat" if same else "DIFFER", a["failed"], b["failed"],
            json.dumps(a["counters"], sort_keys=True)))
        if not same:
            print("  second run: %s" % json.dumps(b["counters"], sort_keys=True))
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    build()
    if args.self_test:
        return self_test(spec, args.seconds or 3)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        die("unknown workload %r (have %s)" % (args.workload, workloads))
    if args.seed is None or args.seconds is None or args.seconds <= 0:
        die("--seed and a positive --seconds are required")

    result, record = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace)
    if args.trace:
        metrics = per_layer(spec, result)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if result["latency_ms"]:
            # The traced run's own end-to-end figures, against which the
            # untraced runs show the tracing overhead.
            record["traced_job_p50_ms"] = percentile(result["latency_ms"], 50)
            record["traced_rirs_per_s"] = (result["rirs"] /
                                           result["timed_wall_s"])
    else:
        metrics = end_to_end(result, record)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print("run record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
