"""Closed-loop benchmark of the hypoplactic package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the root of a checkout; the package is imported from ``src/``.
One process runs one workload as a single closed-loop caller: the next
request starts when the previous one has returned, with no threads.
Every output is checked against an expectation computed before timing
starts, and each check runs after its request's timer has stopped.

``--trace 0`` times whole passes over the seeded request list until
about ``--seconds`` of request time have run, and reports the
end-to-end metrics.  ``--trace 1`` reports the per-layer metrics
instead: one pass of every workload with benchmark-owned spans around
each call into a layer, then one pass of the chosen workload (and of
explore-components, for its operator counts) under ``cProfile``,
aggregated by the package module that defines each function.

Times are divided by the speed of the shared host, sampled between
requests with a fixed pure-Python kernel, so they read as if the kernel
took KERNEL_NOMINAL_S throughout; the stamp line keeps the raw
latencies beside them.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it stamps the run (git sha, Python, nproc, seed, request
counts per kind, input shares).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "hypoplactic"
LAYERS = ("words", "young", "quasiribbon", "operators", "graphs", "counting", "cli", "external")
SETUP_SPAWNS = 15
IMPORTTIME_SPAWNS = 5
# A run keeps starting passes while the one after would end within this
# share of --seconds, and always makes at least MIN_PASSES.
OVERRUN = 1.25
MIN_PASSES = 2
# End-to-end times are reported at the machine speed at which the
# calibration kernel takes this long (see machine_speed).
KERNEL_NOMINAL_S = 0.0004
CALIBRATE_EVERY_S = 0.05


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def null_span(name):
    return _NULL_SPAN


class _Span:
    __slots__ = ("times", "t0")

    def __init__(self, times):
        self.times = times

    def __enter__(self):
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.times.append(perf_counter() - self.t0)
        return False


def span_recorder(spans: dict):
    """Span factory appending each duration to ``spans[name]``."""
    return lambda name: _Span(spans.setdefault(name, []))


class Tally:
    """Attempted and failed requests; failures on requests marked as a
    known seed defect are counted but do not make the run incorrect."""

    def __init__(self):
        self.attempted = Counter()
        self.failed = Counter()
        self.unexpected = 0
        self.messages: list[str] = []

    def record(self, req, error):
        self.attempted[req.kind] += 1
        if error is None:
            return
        self.failed[req.kind] += 1
        if not req.known_defect:
            self.unexpected += 1
        if len(self.messages) < 10:
            tag = f"known defect ({req.known_defect})" if req.known_defect else "FAIL"
            self.messages.append(f"{tag} {req.label}: {error}")


def execute(kind, req, span):
    t0 = perf_counter()
    try:
        out = kind.call(span, *req.args)
    except Exception as exc:  # a raising request is a failure; the loop goes on
        out = exc
    return perf_counter() - t0, out


def check(kind, req, out):
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    try:
        return kind.check(req, out)
    except Exception as exc:  # malformed output can break the checker itself
        return f"output check raised {type(exc).__name__}: {exc}"


_KERNEL_WORD = tuple((i * 7919) % 97 + 1 for i in range(400))


def _kernel():
    """Fixed pure-Python work in the style of the package: bisect
    insertion, a keyed sort, dict counting and tuple slicing."""
    w = _KERNEL_WORD
    entries: list = []
    for a in w:
        entries.insert(bisect_right(entries, a), a)
    order = sorted(range(len(w)), key=w.__getitem__)
    counts: dict = {}
    for a in w:
        counts[a] = counts.get(a, 0) + 1
    return [w[:k] + (order[k],) for k in range(0, len(w), 4)]


def machine_speed():
    """Median time of three kernel runs over KERNEL_NOMINAL_S: above 1
    while the shared host runs this process slower than nominal."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times) / KERNEL_NOMINAL_S


class Calibrated:
    """Request times divided by the machine speed sampled just before and
    just after them (at least every CALIBRATE_EVERY_S of request time)."""

    def __init__(self):
        self.pending: list = []  # (request index, raw seconds) since the last sample
        self.speed = machine_speed()
        self.since = 0.0
        self.raw: list = []
        self.speeds: list = [self.speed]

    def add(self, i, seconds, samples):
        self.pending.append((i, seconds))
        self.raw.append(seconds)
        self.since += seconds
        if self.since >= CALIBRATE_EVERY_S:
            self.flush(samples)

    def flush(self, samples):
        if not self.pending:
            return
        after = machine_speed()
        speed = (self.speed + after) / 2
        for i, seconds in self.pending:
            samples[i].append(seconds / speed)
        self.pending, self.speed, self.since = [], after, 0.0
        self.speeds.append(after)


def measure(wl, reqs, seconds, tally):
    """Whole closed-loop passes until about ``seconds`` of request time.
    Returns each request's calibrated latencies, the passes made, and
    the raw latencies and speed samples behind them."""
    samples = [[] for _ in reqs]
    cal = Calibrated()
    busy = 0.0
    passes = 0
    while True:
        for i, req in enumerate(reqs):
            kind = wl.kinds[req.kind]
            dt, out = execute(kind, req, null_span)
            busy += dt
            tally.record(req, check(kind, req, out))
            cal.add(i, dt, samples)
        passes += 1
        if passes >= MIN_PASSES and busy + busy / passes > OVERRUN * seconds:
            cal.flush(samples)
            return samples, passes, cal


def span_pass(wl, reqs, tally):
    """One pass with spans on; also times each request's direct library
    call, where it has one, under the span name "direct".  Span times
    are divided by the machine speed around their request, as end-to-end
    times are; the returned pass time is raw."""
    spans = []
    total = 0.0
    before = machine_speed()
    for req in reqs:
        kind = wl.kinds[req.kind]
        sp: dict = {}
        dt, out = execute(kind, req, span_recorder(sp))
        total += dt
        tally.record(req, check(kind, req, out))
        if not isinstance(out, Exception) and kind.units:
            req.units = kind.units(out)
        if req.direct is not None:
            t0 = perf_counter()
            req.direct()
            sp["direct"] = [perf_counter() - t0]
        after = machine_speed()
        speed = (before + after) / 2
        spans.append({name: [t / speed for t in times] for name, times in sp.items()})
        before = after
    return spans, total


@lru_cache(maxsize=None)
def layer_of(filename):
    """Package module defining a profiled function, "external" for the
    standard library and builtins, None for the benchmark's own code."""
    if filename == "~":
        return "external"
    path = Path(filename).resolve()
    if path.parent == PACKAGE and path.stem in LAYERS:
        return path.stem
    return None if path.parent == HERE else "external"


def profiled_pass(wl, reqs, tally):
    """One pass under cProfile, one profiler per request kind.  Returns
    per-kind {(layer, function): [calls, self seconds]} and the time."""
    profiles: dict = {}
    total = 0.0
    for req in reqs:
        kind = wl.kinds[req.kind]
        profile = profiles.setdefault(req.kind, cProfile.Profile())
        t0 = perf_counter()
        profile.enable()
        try:
            out = kind.call(null_span, *req.args)
        except Exception as exc:  # counted as a failure below
            out = exc
        finally:
            profile.disable()
        total += perf_counter() - t0
        tally.record(req, check(kind, req, out))
    by_kind = {}
    for name, profile in profiles.items():
        profile.create_stats()
        table = by_kind[name] = {}
        for (filename, _, func), (_, calls, self_s, _, _) in profile.stats.items():
            if "_lsprof.Profiler" in func:
                continue
            layer = layer_of(filename)
            if layer is not None:
                entry = table.setdefault((layer, func), [0, 0.0])
                entry[0] += calls
                entry[1] += self_s
    return by_kind, total


def layer_breakdown(by_kind):
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for table in by_kind.values():
        for (layer, _), (n, seconds) in table.items():
            calls[layer] += n
            self_s[layer] += seconds
    total = sum(self_s.values())
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.share"] = (self_s[layer] / total, "ratio")
    return out


def _import_code(module):
    return f"import sys; sys.path.insert(0, {str(SRC)!r}); import {module}"


def measure_setup(module):
    """Median wall time of a fresh interpreter importing ``module``,
    divided by the machine speed around each spawn, after one unmeasured
    spawn that leaves the bytecode cache warm."""
    cmd = [sys.executable, "-I", "-c", _import_code(module)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    times = []
    before = machine_speed()
    for _ in range(SETUP_SPAWNS):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        seconds = perf_counter() - t0
        after = machine_speed()
        times.append(seconds / ((before + after) / 2))
        before = after
    return statistics.median(times)


def import_self_ms():
    """Self import time of each package module, from -X importtime."""
    cmd = [sys.executable, "-I", "-X", "importtime", "-c", _import_code("hypoplactic.cli")]
    per_module: dict = {}
    for _ in range(IMPORTTIME_SPAWNS):
        done = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
        for line in done.stderr.splitlines():
            fields = [f.strip() for f in line.removeprefix("import time:").split("|")]
            if len(fields) == 3 and fields[2].startswith("hypoplactic"):
                per_module.setdefault(fields[2], []).append(int(fields[0]) / 1e3)
    return {
        f"setup.import_ms.{name.rpartition('.')[2]}": (statistics.median(ms), "ms")
        for name, ms in per_module.items()
    }


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def generate(workloads, name, seed, tiny=False):
    rng = random.Random(f"{name}/{seed}")
    reqs = workloads.WORKLOADS[name].generate(rng, tiny)
    rng.shuffle(reqs)
    return reqs


def run_untraced(workloads, name, args, tally):
    wl = workloads.WORKLOADS[name]
    setup_s = measure_setup(wl.setup_module)
    reqs = generate(workloads, name, args.seed)
    for req in generate(workloads, name, args.seed, tiny=True):  # warm-up, unchecked
        execute(wl.kinds[req.kind], req, null_span)
    samples, passes, cal = measure(wl, reqs, args.seconds, tally)
    flat = sorted(t for s in samples for t in s)
    cuts = statistics.quantiles(flat, n=10, method="inclusive")
    attempted = sum(tally.attempted.values())
    failed = sum(tally.failed.values())
    metrics = {
        # Per-request medians over passes, so one stall moves no request.
        "ops_per_s": (len(reqs) / sum(statistics.median(s) for s in samples), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(flat), "ms"),
        "latency_p90_ms": (1e3 * cuts[8], "ms"),
        "success_rate": (1 - failed / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    extra = {
        "passes": passes,
        "latency_samples": len(flat),
        "error_rate": failed / attempted,
        "raw_latency_p50_ms": 1e3 * statistics.median(cal.raw),
        "raw_latency_p90_ms": 1e3 * statistics.quantiles(cal.raw, n=10, method="inclusive")[8],
        "machine_speed": statistics.quantiles(cal.speeds, n=4, method="inclusive"),
        "inputs": wl.inputs(reqs),
    }
    return metrics, extra


def run_traced(workloads, name, args, tally):
    metrics = {}
    inputs = {}
    for other, wl in workloads.WORKLOADS.items():
        reqs = generate(workloads, other, args.seed)
        spans, span_time = span_pass(wl, reqs, tally)
        metrics.update(wl.layer_metrics(reqs, spans))
        if other == name or wl.profile_metrics:
            by_kind, profiled_time = profiled_pass(wl, reqs, tally)
            if wl.profile_metrics:
                calls = {k: {key: v[0] for key, v in t.items()} for k, t in by_kind.items()}
                metrics.update(wl.profile_metrics(reqs, calls))
            if other == name:
                metrics.update(layer_breakdown(by_kind))
                metrics["trace.overhead_ratio"] = (profiled_time / span_time, "ratio")
                inputs = wl.inputs(reqs)
    metrics.update(import_self_ms())
    return metrics, {"inputs": inputs}


def selfcheck(workloads):
    """Every request kind once at tiny sizes, with its output check.
    Timings are not asserted.  Exit 1 on any failure that is not a known
    seed defect."""
    bad = 0
    for name, wl in workloads.WORKLOADS.items():
        reqs = generate(workloads, name, 0, tiny=True)
        missing = set(wl.kinds) - {r.kind for r in reqs}
        if missing:
            print(f"FAIL {name}: no tiny request of kind {sorted(missing)}")
            bad += 1
        for req in reqs:
            kind = wl.kinds[req.kind]
            _, out = execute(kind, req, null_span)
            error = check(kind, req, out)
            if error is None:
                status = "ok"
            elif req.known_defect:
                status = f"known defect ({req.known_defect})"
            else:
                status = "FAIL"
                bad += 1
            print(f"{status} {name} {req.label}" + (f": {error}" if error else ""))
    print(f"selfcheck: {'FAILED' if bad else 'passed'}")
    return 1 if bad else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every request kind once at tiny sizes and check it")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found at {PACKAGE.relative_to(ROOT)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.selfcheck:
        return selfcheck(workloads)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tally = Tally()
    runner = run_traced if args.trace else run_untraced
    metrics, extra = runner(workloads, args.workload, args, tally)
    for message in tally.messages:
        print(message, file=sys.stderr)
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "requests": dict(sorted(tally.attempted.items())),
        "failed": dict(sorted(tally.failed.items())),
        **extra,
    }
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value:.6g} {unit}")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": sum(tally.attempted.values()),
        "failed": sum(tally.failed.values()),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
