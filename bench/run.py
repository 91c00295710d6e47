"""Benchmark runner: time one workload of the hopftower package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload process (``worker.py``) is a
fresh interpreter that imports ``hopftower`` from ``src/`` and plays one
seeded request stream as a closed loop: one client, no threads, each request
sent only after the previous reply was checked.  A run starts a fixed number
of such processes, one after another, each after an import-only process:
``--seconds`` divided by the workload's ``pair_s``, at least
``MIN_PROCESSES``.  The count depends on ``--seconds`` alone, so faster code
gets no more samples than slower code, and a run lasts about ``--seconds``
at the commit the benchmark was defined on.

All processes of a run play the same stream, so each request is timed once
per process.  Times are taken in reference seconds (see ``worker.py``),
which cancels the host's changing speed on a shared machine; each request's
time is its median over the run's processes.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` alternates traced and untraced processes and reports the
per-layer metrics, asserts that every count repeats exactly across the
traced processes, and writes each traced process's spans to
``.bench_out/``.  The last line of stdout is one JSON object; the lines
before it print every metric by name with its unit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

MIN_PROCESSES = 3       # workload processes per untraced run
MIN_TRACED = 2          # traced processes per traced run (determinism check)
DEADLINE_S = 170.0      # no process is started or left running past this
PROCESS_TIMEOUT_S = 120.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _spawn(args, deadline):
    """Start one worker process, wait for it, and return its JSON report."""
    timeout = min(PROCESS_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--spawn-ns", str(spawn_ns)] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker %s timed out after %.0f s" % (args, timeout))
    if proc.returncode != 0:
        raise BenchError("worker %s exited %d:\n%s" % (args, proc.returncode, err.strip()))
    return json.loads(out.strip().splitlines()[-1])


def _metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def _p90(samples):
    return statistics.quantiles(samples, n=10)[8]


def _run_untraced(opts, processes, deadline):
    _spawn([], deadline)  # untimed: compiles the byte code once per checkout
    imports, procs = [], []
    for _ in range(processes):
        # an import-only process before each workload process spreads the
        # set-up samples over the whole run
        imports.append(_spawn([], deadline))
        procs.append(_spawn(["--workload", opts.workload, "--seed", str(opts.seed),
                             "--host-clock", "1"], deadline))
    setups = imports + procs
    latencies = [statistics.median(x) for x in zip(*(p["ref_latencies"] for p in procs))]
    with_checks = [statistics.median(x) for x in zip(*(
        [a + b for a, b in zip(p["ref_latencies"], p["ref_checks"])] for p in procs))]
    attempted = sum(p["attempted"] for p in procs)
    failed = sum(len(p["failures"]) for p in procs)
    values = {
        "setup_s": statistics.median(p["setup_ref_s"] for p in setups),
        "wall_s": sum(with_checks),
        "req_p50_ms": 1000.0 * statistics.median(latencies),
        "req_p90_ms": 1000.0 * _p90(latencies),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in procs),
        "ok_ratio": (attempted - failed) / attempted,
    }
    notes = ["%d workload processes of %d requests: %d latency samples, each the "
             "median of %d; %d set-up samples" % (len(procs), len(latencies), len(latencies),
                                                  len(procs), len(setups)),
             "times in reference seconds; the host ran %.2fx slower than the reference "
             "(median over processes)" % statistics.median(p["mean_slowdown"] for p in procs),
             "in plain seconds, for comparison: setup_s median %.4f; whole-process "
             "wall_s %s" % (statistics.median(p["setup_s"] for p in setups),
                            " ".join("%.3f" % p["wall_s"] for p in procs))]
    return values, attempted, failed, _failure_lines(procs), notes, True


def _failure_lines(procs):
    seen = []
    for p in procs:
        for f in p["failures"]:
            if f not in seen:
                seen.append(f)
    return seen


def _traced_values(proc):
    """Every count and time a traced process reports, by metric name."""
    values = {}
    for name, (calls, self_s) in proc["layers"].items():
        values[name + ".calls"] = calls
        values[name + ".self_s"] = self_s
    values.update(proc["sizes"])
    for name, (hits, misses, _) in proc["caches"].items():
        values["cache.%s.hit_ratio" % name] = hits / (hits + misses) if hits + misses else 0.0
    values["cache.entries_total"] = sum(c[2] for c in proc["caches"].values())
    values["trace.coverage"] = proc["root_s"] / sum(proc["latencies"])
    return values


def _is_count(name):
    return name.endswith((".calls", ".cells", ".term_pairs", ".hit_ratio",
                          "cache.entries_total"))


def _run_traced(opts, processes, deadline):
    os.makedirs(OUT_DIR, exist_ok=True)
    traced, untraced = [], []
    base = ["--workload", opts.workload, "--seed", str(opts.seed)]
    for k in range(max(MIN_TRACED, (processes + 1) // 2)):
        spans = os.path.join(OUT_DIR, "spans-%s-seed%d-%d.json" % (opts.workload, opts.seed, k))
        traced.append(_spawn(base + ["--trace", "1", "--spans", spans], deadline))
        untraced.append(_spawn(base, deadline))
    per_proc = [_traced_values(p) for p in traced]
    values = {}
    mismatches = []
    for name in per_proc[0]:
        seen = [v[name] for v in per_proc]
        if _is_count(name):
            values[name] = seen[0]
            if any(s != seen[0] for s in seen):
                mismatches.append("%s differs across traced runs: %s" % (name, seen))
        else:
            values[name] = statistics.median(seen)
    values["trace.overhead_ratio"] = (statistics.median(p["wall_s"] for p in traced)
                                      / statistics.median(p["wall_s"] for p in untraced))
    procs = traced + untraced
    attempted = sum(p["attempted"] for p in procs)
    failed = sum(len(p["failures"]) for p in procs)
    layer_self = sorted(((values[n + ".self_s"], n) for n in traced[0]["layers"]),
                        reverse=True)
    notes = ["%d traced and %d untraced processes; %d spans per traced process; "
             "spans written to %s" % (len(traced), len(untraced), traced[0]["span_count"],
                                      os.path.relpath(OUT_DIR, ROOT)),
             "top layers by self time: " + ", ".join(
                 "%s %.3f s" % (n, s) for s, n in layer_self[:3]),
             "determinism self-check: %s" % (
                 "every count repeats exactly" if not mismatches else "FAILED")]
    return (values, attempted, failed, _failure_lines(procs) + mismatches, notes,
            not mismatches)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not os.path.isfile(os.path.join(SRC, "hopftower", "__init__.py")):
            raise BenchError("no package source at %s" % SRC)
        sys.path.insert(0, SRC)
        import streams
        if opts.workload not in streams.WORKLOADS:
            raise BenchError("unknown workload %r; choose from %s"
                             % (opts.workload, ", ".join(streams.WORKLOADS)))
        processes = max(MIN_PROCESSES,
                        round(opts.seconds / streams.WORKLOADS[opts.workload].pair_s))
        end_to_end, per_layer = _metric_specs()
        run = _run_traced if opts.trace else _run_untraced
        values, attempted, failed, failures, notes, consistent = run(opts, processes, deadline)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    specs = per_layer if opts.trace else end_to_end
    missing = [s["name"] for s in specs if s["name"] not in values]
    extra = sorted(set(values) - {s["name"] for s in specs})
    print("workload %s, seed %d, trace %d" % (opts.workload, opts.seed, opts.trace))
    for line in notes:
        print("  " + line)
    for s in specs:
        if s["name"] in values:
            print("  %-48s %16.6f %s" % (s["name"], values[s["name"]], s["unit"]))
    for name in extra:
        print("  %-48s %16.6f (not listed in BENCHMARK.json)" % (name, values[name]))
    for line in failures:
        print("  FAIL " + line)
    if missing:
        print("  metrics listed in BENCHMARK.json but not measured: " + ", ".join(missing))
    metrics = {s["name"]: {"value": values.get(s["name"], 0), "unit": s["unit"]}
               for s in specs}
    correct = failed == 0 and consistent and not missing
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
