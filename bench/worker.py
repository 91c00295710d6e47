"""One workload process: import the package, play one request stream, report.

Started by ``run.py`` as a fresh interpreter, so every lru_cache table starts
empty, as it does for each ``hopftower`` command a user runs.  Prints one
JSON object on stdout.

    python3 bench/worker.py --spawn-ns NS [--workload NAME --seed N]
                            [--host-clock 0|1] [--trace 0|1] [--spans PATH]

Without ``--workload`` the process only imports the package and reports the
set-up time.  ``--spawn-ns`` is CLOCK_MONOTONIC, in nanoseconds, read by the
parent just before it started this process; set-up time runs from there
until ``import hopftower`` returns.  The package must come from the ``src/``
directory next to the benchmark's own.

**Host speed.**  On a shared machine the same Python code runs up to about 2x
slower while other tenants load the host, in phases of tens of milliseconds
to minutes.  The process therefore times a fixed calibration chunk of plain
Python work (``calibration_chunk``, which never touches the package) around
the import and, with ``--host-clock 1``, every ``SAMPLE_INTERVAL_S`` of the
stream from a SIGALRM handler, long requests included.  Each time is then
also reported in reference seconds: seconds divided by the host's slowdown
at that moment, the slowdown being the chunk's duration over ``REF_CHUNK_S``
(for set-up, divided by the slowdown to the power ``SETUP_ELASTICITY``).
The time spent in the handler is taken out of the request it interrupted.
"""

import time
from fractions import Fraction


def calibration_chunk():
    """A third of a millisecond of the work the package is made of: Fraction
    arithmetic and a dict keyed by sorted tuples.  Returns its duration."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    terms = {}
    for i in range(1, 40):
        key = tuple(sorted((i % 7, i % 5, i % 3)))
        terms[key] = terms.get(key, 0) + Fraction(i, i + 1)
        acc += Fraction(1, i) * Fraction(i + 1, i + 2)
    return time.perf_counter() - t0


IMPORT_CHUNKS = 3  # calibration chunks just before and just after the import

_before_import = [calibration_chunk() for _ in range(IMPORT_CHUNKS)]

import hopftower  # noqa: E402

_imported_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
_after_import = [calibration_chunk() for _ in range(IMPORT_CHUNKS)]

import argparse  # noqa: E402  (after the timed import on purpose)
import bisect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
REF_CHUNK_S = 0.00033      # calibration_chunk on a quiet host (see README.md)
SAMPLE_INTERVAL_S = 0.01
# Set-up time grows more slowly than the chunk when the host slows: starting
# an interpreter and loading modules is only partly bytecode.  Measured on
# the host of BASELINE.md, it grew as this power of the chunk's slowdown.
SETUP_ELASTICITY = 0.6


def _args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--host-clock", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    return ap.parse_args()


class HostClock:
    """Samples the host's speed through a stream and converts the stream's
    timestamps to reference seconds."""

    def __init__(self):
        self.at = []      # perf_counter when a sample started
        self.end = []     # perf_counter when it ended
        self.chunk = []   # the calibration chunk's duration

    def sample(self, *_):
        t = time.perf_counter()
        c = calibration_chunk()
        self.at.append(t)
        self.chunk.append(c)
        self.end.append(time.perf_counter())

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        # between samples k and k+1 the slowdown is the mean of their chunks
        self.slowdown = [(a + b) / (2 * REF_CHUNK_S) for a, b in zip(self.chunk, self.chunk[1:])]
        self.ref = [0.0]  # reference seconds up to the end of each sample
        self.raw = [0.0]  # seconds outside samples up to the end of each sample
        for k, g in enumerate(self.slowdown):
            gap = self.at[k + 1] - self.end[k]
            self.ref.append(self.ref[-1] + gap / g)
            self.raw.append(self.raw[-1] + gap)

    def clocks(self, t):
        """(reference seconds, seconds) from the stream's start to time t,
        both without the time spent in samples."""
        k = bisect.bisect_right(self.at, t) - 1
        gap = max(0.0, t - self.end[k])
        return self.ref[k] + gap / self.slowdown[k], self.raw[k] + gap


def _play(reqs, tracer):
    """Closed loop: one client, each request sent after the last reply was
    checked.  Returns (per-request (sent, replied, checked) times, failure
    labels)."""
    clock = time.perf_counter
    times = []
    failures = []
    for i, req in enumerate(reqs):
        if tracer is not None:
            tracer.request = i
            tracer.active = True
        t0 = clock()
        try:
            reply = req.call()
            error = None
        except Exception as exc:  # a request that raises is a failed request
            reply, error = None, exc
        t1 = clock()
        if tracer is not None:
            tracer.active = False
        if error is not None:
            failures.append("%s: raised %r" % (req.label, error))
            ok = True
        else:
            try:
                ok = bool(req.check(reply))
            except Exception as exc:
                failures.append("%s: check raised %r" % (req.label, exc))
                ok = True
        if not ok:
            failures.append("%s: wrong reply" % req.label)
        times.append((t0, t1, clock()))
    return times, failures


def main():
    args = _args()
    src = os.path.realpath(SRC)
    if not os.path.realpath(hopftower.__file__).startswith(src + os.sep):
        print("hopftower was imported from %s, not from %s" % (hopftower.__file__, src),
              file=sys.stderr)
        return 2
    # the chunks before the import ran inside the set-up window
    setup = (_imported_ns - args.spawn_ns) / 1e9 - sum(_before_import)
    slowdown = (statistics.median(_before_import) + statistics.median(_after_import)) / (
        2 * REF_CHUNK_S)
    result = {"setup_s": setup, "setup_ref_s": setup / slowdown ** SETUP_ELASTICITY}
    if args.workload is None:
        print(json.dumps(result))
        return 0

    import streams
    import layers

    reqs = streams.WORKLOADS[args.workload].build(args.seed)
    caches = layers.find_caches()
    for fn in caches.values():
        fn.cache_clear()  # input generation must not warm the package's caches
    tracer = host = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
    if args.host_clock:
        host = HostClock()
        host.start()
    times, failures = _play(reqs, tracer)
    if host is not None:
        host.stop()
    if tracer is not None:
        tracer.uninstall()
    result.update({
        "latencies": [t1 - t0 for t0, t1, _ in times],
        "checks": [t2 - t1 for _, t1, t2 in times],
        "wall_s": times[-1][2] - times[0][0],
        "attempted": len(reqs),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "caches": {name: [info.hits, info.misses, info.currsize]
                   for name, info in ((n, fn.cache_info()) for n, fn in caches.items())},
    })
    if host is not None:
        # every time again, without the samples, in seconds and reference seconds
        marks = [[host.clocks(t) for t in ts] for ts in times]
        result["latencies"] = [m[1][1] - m[0][1] for m in marks]
        result["checks"] = [m[2][1] - m[1][1] for m in marks]
        result["wall_s"] = marks[-1][2][1] - marks[0][0][1]
        result["ref_latencies"] = [m[1][0] - m[0][0] for m in marks]
        result["ref_checks"] = [m[2][0] - m[1][0] for m in marks]
        result["samples"] = len(host.chunk)
        result["mean_slowdown"] = result["wall_s"] / (marks[-1][2][0] - marks[0][0][0])
    if tracer is not None:
        calls, self_s, root_s = tracer.layer_totals()
        result["layers"] = {name: [calls[i], self_s[i]] for i, name in enumerate(tracer.names)}
        result["sizes"] = {tracer.size_names[i]: tracer.sizes[i] for i in tracer.size_names}
        result["span_count"] = len(tracer.span_name)
        result["root_s"] = sum(root_s.values())
        if args.spans:
            tracer.write_spans(args.spans, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
