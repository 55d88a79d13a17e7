#!/usr/bin/env python3
"""Benchmark of the Air-FedGA simulator: one command, one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call builds the harness
and the `airfedga` library from source into .bench_build/ (CMake, Release)
and runs the decorator-transparency test. Each repeat of the workload then
runs in its own harness process, so peak RSS (VmHWM) and the process-wide
trace switch never leak between repeats; repeats continue while they fit
in S seconds (at least one of each kind runs).

--trace 0 measures the end-to-end metrics on untraced repeats. --trace 1
alternates traced and untraced repeats and reports the per-layer metrics:
hook and farm timings from the harness's own timers, span self times from
the traced process, and trace.overhead_s as traced minus untraced run time.

Correctness: every run's Metrics::digest() must agree across repeats and
between traced, untraced, direct and farm executions; for the default seed
the digests must also match the ones recorded below. A run that throws, is
quarantined by the farm or fails a digest check counts as failed, and any
failure makes the command exit 1 (after printing its result).

The human-readable report goes to stderr; the last line of stdout is one
JSON object with the metrics named in BENCHMARK.json. Metric definitions,
seed rules and the predicted effect of each layer are in perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "farm_out")
HARNESS = os.path.join(BUILD, "perfbench_harness")
TRANSPARENCY_TEST = os.path.join(BUILD, "perfbench_transparency_test")
DEADLINE_S = 165.0  # measuring must end well within the command's 180 s

WORKLOADS = ("cnn_airfedga", "population_churn_1m", "farm_realism")
FARM_WORKLOAD = "farm_realism"

# Combined digest (FNV-1a 64 over the newline-joined per-run digests, in
# variant and mechanism order) of each workload at DEFAULT_SEED. The GEMM
# kernels may round differently on another ISA, so these are checked on
# x86-64 only; everywhere else only the cross-run agreement is checked.
DEFAULT_SEED = 1
EXPECTED_DIGESTS = {
    "cnn_airfedga": "9bf0fa9260e6bd5a",
    "population_churn_1m": "ff44c13cf1fce2f9",
    "farm_realism": "37e64e52c8bf9c76",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fnv1a64(text):
    h = 0xCBF29CE484222325
    for byte in text.encode():
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


# ------------------------------------------------------------------ build --

def run_quiet(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        log("perfbench: %s failed (exit %d)" % (what, proc.returncode))
        sys.exit(2)
    return proc.stdout


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: no source tree next to perfbench/ (expected %s)" % os.path.join(ROOT, "src"))
        sys.exit(2)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator,
                  "cmake configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_harness",
               "perfbench_transparency_test"], "cmake build")
    out = run_quiet([TRANSPARENCY_TEST], "decorator-transparency test")
    log(out.strip().splitlines()[-1])


# ---------------------------------------------------------------- repeats --

class Repeats:
    """Harness processes of one benchmark run, with the failures they showed."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.results = []   # parsed harness outputs, in run order
        self.errors = []
        self.count = 0

    def run(self, passes, traced):
        out_dir = os.path.join(SCRATCH, "%d_%d" % (os.getpid(), self.count))
        self.count += 1
        cmd = [HARNESS, "--workload=" + self.workload, "--seed=%d" % self.seed,
               "--passes=" + passes, "--traced=%d" % int(traced), "--out-dir=" + out_dir]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            self.errors.append("harness timed out: " + " ".join(cmd))
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if proc.returncode != 0:
            self.errors.append("harness exit %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:]))
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.results.append(result)
        return result


def repeat_until(seconds, first, rest, repeats):
    """Runs the `first` round of (passes, traced) processes, then `rest`
    rounds while the next one is expected to end within `seconds`."""
    start = time.monotonic()
    kinds = first
    while True:
        round_start = time.monotonic()
        for passes, traced in kinds:
            if repeats.run(passes, traced) is None:
                return
        kinds = rest
        now = time.monotonic()
        estimate = now - round_start  # the last round's length predicts the next
        if now - start + estimate > seconds or now + estimate > repeats.deadline:
            return


# ------------------------------------------------------------ correctness --

def check_digests(repeats):
    """Counts runs whose digest disagrees with the first repeat's (or, at the
    default seed on x86-64, with the recorded digest); returns (attempted,
    failed)."""
    attempted = 0
    failed = 0
    reference = None
    for res in repeats.results:
        for pass_name in ("direct", "farm"):
            part = res.get(pass_name)
            if part is None:
                continue
            attempted += part["attempted"]
            digests = part["digests"]
            failed += digests.count("error") + part.get("failed_runs", 0)
            for err in part["errors"]:
                repeats.errors.append("%s pass: %s" % (pass_name, err))
            if reference is None:
                reference = digests
            elif digests != reference:
                bad = sum(1 for a, b in zip(digests, reference) if a != b)
                bad += abs(len(digests) - len(reference))
                failed += bad
                repeats.errors.append("%s pass: %d digest(s) differ from the first repeat"
                                      % (pass_name, bad))
    expected = EXPECTED_DIGESTS.get(repeats.workload)
    if (reference is not None and repeats.seed == DEFAULT_SEED and expected is not None
            and platform.machine() in ("x86_64", "AMD64")):
        combined = fnv1a64("\n".join(reference))
        if combined != expected:
            failed = attempted
            repeats.errors.append("combined digest %s != recorded %s for seed %d"
                                  % (combined, expected, DEFAULT_SEED))
    if reference is not None:
        log("combined digest: %s (%d runs per repeat)" % (fnv1a64("\n".join(reference)),
                                                          len(reference)))
    return attempted, min(failed, attempted)


# -------------------------------------------------------------- statistics --

def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The tail percentile and its value: p90 when at least ten samples lie
    beyond it (n >= 100), else the highest percentile that still has ten
    beyond it, i.e. the 11th largest sample (nearest rank). Capping at p90
    keeps the percentile, and so the figure, fixed while n varies between
    runs. Fewer than 21 samples give the median."""
    n = len(values)
    rank = min(math.ceil(0.9 * n), n - 10)
    if rank <= n // 2:
        return median(values), 50.0
    return sorted(values)[rank - 1], 100.0 * rank / n


def histogram_stats(hist):
    """p50 and max as the upper bound of their bucket (the last bound for
    the overflow bucket), and the exact mean."""
    bounds, counts, total = hist["bounds"], hist["counts"], hist["count"]
    if total == 0:
        return 0.0, 0.0, 0.0

    def bound(i):
        return bounds[min(i, len(bounds) - 1)]

    seen, p50 = 0, None
    for i, c in enumerate(counts):
        seen += c
        if p50 is None and 2 * seen >= total:
            p50 = bound(i)
    top = max(i for i, c in enumerate(counts) if c > 0)
    return p50, bound(top), hist["sum"] / total


# ------------------------------------------------------------ end to end --

def faster_half(rows, key):
    """The faster half (rounded up) of the repeats, ranked by `key`. On a
    shared machine other tenants slow a whole process by tens of percent:
    set-up repeated inside one process agrees within about 1%, but differs
    by up to 80% between processes. The faster half measures the code, the
    slower half mostly the neighbours."""
    return sorted(rows, key=key)[:(len(rows) + 1) // 2]


def end_to_end(repeats):
    farm = repeats.workload == FARM_WORKLOAD
    # The farm workload alternates farm and direct processes: run time,
    # throughput and memory come from run_farm, the aggregate intervals and
    # the trained-sample count (the same in every repeat, as the digests
    # agree) from the direct replay of the batch.
    direct = [r for r in repeats.results if "direct" in r]
    runs = [r for r in repeats.results if "farm" in r] if farm else direct
    if not direct or not runs:
        return {}
    samples = direct[0]["direct"]["train_samples"]
    variants = runs[0]["farm"]["variants"] if farm else 1

    def wall(r):
        return r["farm"]["run_s"] if farm else r["direct"]["runs_s"]

    kept = faster_half(runs, wall)
    run_s = [wall(r) for r in kept]
    agg = [x for r in faster_half(direct, lambda r: r["direct"]["runs_s"])
           for x in r["direct"]["agg_ms"]]
    setup = [x for r in faster_half(repeats.results, lambda r: median(r["setup_s"]))
             for x in r["setup_s"]]
    rss = [r["farm"]["rss_mib"] if farm else r["rss_mib"] for r in runs]
    agg_tail, tail_pct = tail(agg)
    n = "of the faster %d of %d processes" % (len(kept), len(runs))
    return {
        "setup_s": (median(setup), "s", "median of %d set-ups" % len(setup)),
        "run_s": (median(run_s), "s", "median " + n),
        "agg_wall_ms_p50": (median(agg), "ms", "p50 of %d aggregations" % len(agg)),
        "agg_wall_ms_tail": (agg_tail, "ms", "p%.1f of %d aggregations" % (tail_pct, len(agg))),
        "train_samples_per_s": (median([samples / w for w in run_s]), "1/s", "median " + n),
        "variants_per_hour": (median([3600.0 * variants / w for w in run_s]), "1/h", "median " + n),
        "peak_rss_mib": (max(rss), "MiB", "highest VmHWM of %d processes" % len(rss)),
    }


# -------------------------------------------------------------- per layer --

def per_layer(repeats):
    farm_workload = repeats.workload == FARM_WORKLOAD
    traced = [r for r in repeats.results if r["traced"]]
    untraced = [r for r in repeats.results if not r["traced"]]

    def med(fn, rows):
        return median([fn(r) for r in rows])

    def span(name, field="self_s"):
        return lambda r: r["spans"].get(name, {}).get(field, 0.0)

    def hook(name, field="s"):
        return lambda r: r["direct"]["hooks"][name][field]

    def engine(name):
        return lambda r: r["direct"]["engine"][name]

    def counter(name):
        return lambda r: r["direct"]["counters"].get(name, 0)

    def hooks_total(r):
        d = r["direct"]
        return d["driver_init_s"] + sum(h["s"] for h in d["hooks"].values())

    def loop_other(r):
        d = r["direct"]
        return d["runs_s"] - hooks_total(r) - d["engine"]["barrier_s"] - d["engine"]["eval_s"]

    ml_spans = ("gemm.sgemm", "conv.forward", "conv.backward", "worker.local_update")

    def ml_self(r):
        return sum(span(s)(r) for s in ml_spans)

    def warm_ratio(r):
        hits, cold = counter("pool.warm_hits")(r), counter("pool.cold_replays")(r)
        return hits / (hits + cold) if hits + cold else 0.0

    def pending(i):
        return lambda r: histogram_stats(r["direct"]["eventq_pending"])[i]

    # Run time of the traced and the untraced execution of the same work:
    # the direct runs of a single-variant workload (its untraced repeats go
    # through the farm, whose records carry each run's wall time), or the
    # whole direct replay of the farm batch.
    def traced_run_s(r):
        return r["direct"]["wall_s"] if farm_workload else r["direct"]["runs_s"]

    def untraced_run_s(r):
        return r["direct"]["wall_s"] if farm_workload else r["farm"]["records_wall_s"]

    def variant_tail(r):
        return tail(r["farm"]["variant_s"])[0]

    def outside_run(r):
        f = r["farm"]
        return f["run_s"] - f["records_wall_s"] / f["jobs"]

    # name -> (value, unit)
    T, U = traced, untraced
    m = {
        # ml
        "span.ml.self_s": (med(ml_self, T), "s"),
        "span.gemm.sgemm.self_s": (med(span("gemm.sgemm"), T), "s"),
        "span.conv.forward.self_s": (med(span("conv.forward"), T), "s"),
        "span.conv.backward.self_s": (med(span("conv.backward"), T), "s"),
        "span.worker.local_update.self_s": (med(span("worker.local_update"), T), "s"),
        "span.pool.task.self_s": (med(span("pool.task"), T), "s"),
        # fl / util lanes
        "driver.barrier_s": (med(engine("barrier_s"), T), "s"),
        "driver.barriers": (med(engine("barriers"), T), "count"),
        "driver.eval_s": (med(engine("eval_s"), T), "s"),
        "driver.evals": (med(engine("evals"), T), "count"),
        "gemm.coop_regions": (med(engine("coop_regions"), T), "count"),
        "gemm.coop_helper_tiles": (med(engine("coop_helper_tiles"), T), "count"),
        # fl hooks
        "fl.driver_init_s": (med(lambda r: r["direct"]["driver_init_s"], T), "s"),
        "fl.cohorts_s": (med(hook("cohorts"), T), "s"),
        "fl.aggregate_s": (med(hook("aggregate"), T), "s"),
        "fl.aggregate_calls": (med(hook("aggregate", "calls"), T), "count"),
        "fl.aggregate_members": (med(lambda r: r["direct"]["aggregate_members"], T), "count"),
        "fl.aggregate_time_s": (med(hook("aggregate_time"), T), "s"),
        "fl.select_s": (med(hook("select"), T), "s"),
        "fl.upload_s": (med(hook("upload"), T), "s"),
        "fl.flush_s": (med(hook("flush"), T), "s"),
        "fl.reweight_s": (med(hook("reweight"), T), "s"),
        "fl.hooks_s": (med(hooks_total, T), "s"),
        # sim
        "fl.loop_other_s": (med(loop_other, T), "s"),
        "eventq.pending_p50": (med(pending(0), T), "count"),
        "eventq.pending_max": (med(pending(1), T), "count"),
        "eventq.pending_mean": (med(pending(2), T), "count"),
        "pool.warm_hits": (med(counter("pool.warm_hits"), T), "count"),
        "pool.cold_replays": (med(counter("pool.cold_replays"), T), "count"),
        "pool.warm_ratio": (med(warm_ratio, T), "ratio"),
        "substrate.dropouts": (med(counter("substrate.dropouts"), T), "count"),
        "substrate.depleted": (med(counter("substrate.depleted"), T), "count"),
        # scenario
        "scenario.build_s": (med(lambda r: r["direct"]["build_s"], T), "s"),
        # farm (untraced repeats)
        "farm.variant_s_p50": (med(lambda r: median(r["farm"]["variant_s"]), U), "s"),
        "farm.variant_s_tail": (med(variant_tail, U), "s"),
        "farm.outside_run_s": (med(outside_run, U), "s"),
        "farm.assemble_s": (med(lambda r: r["farm"]["assemble_s"], U), "s"),
        "farm.retries": (med(lambda r: r["farm"]["retries"], U), "count"),
        "farm.quarantined": (med(lambda r: r["farm"]["quarantined"], U), "count"),
        # obs
        "trace.overhead_s": (med(traced_run_s, T) - med(untraced_run_s, U), "s"),
        "trace.dropped_events": (med(lambda r: r["dropped_events"], T), "count"),
        "trace.unattributed_s": (med(span("bench.run"), T), "s"),
    }
    return m, med(lambda r: r["direct"]["runs_s"], T)


def attribution(layer, run_s):
    """Where the traced runs' wall time (summed over Mechanism::run calls)
    went, by the harness's timers and the engine's barrier/eval clocks. ml
    spans run on the lanes (inline on the simulation thread at one lane,
    inside fl.loop_other_s), so they are shown beside the split."""
    rows = [
        ("harness-timed hooks + driver init", layer["fl.hooks_s"][0]),
        ("driver.barrier_s (sim thread waits for lanes)", layer["driver.barrier_s"][0]),
        ("driver.eval_s", layer["driver.eval_s"][0]),
        ("fl.loop_other_s (event loop, pool, substrate)", layer["fl.loop_other_s"][0]),
    ]
    log("attribution of traced Mechanism::run wall time = %.3f s:" % run_s)
    for label, value in rows:
        log("  %-48s %9.3f s  %5.1f%%" % (label, value, 100.0 * value / run_s if run_s else 0.0))
    log("  %-48s %9.3f s  %5.1f%%  (lane time)" % (
        "ml span self time (gemm, conv, local_update)", layer["span.ml.self_s"][0],
        100.0 * layer["span.ml.self_s"][0] / run_s if run_s else 0.0))
    log("  %-48s %9.3f s  (sim-thread run time outside every in-program span;"
        % ("trace.unattributed_s", layer["trace.unattributed_s"][0]))
    log("  %-48s              setup, aircomp.aggregate and substrate sampling have none)" % "")


# ------------------------------------------------------------------- main --

def load_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    end_to_end_spec, per_layer_spec = load_metric_names()
    build()
    os.makedirs(SCRATCH, exist_ok=True)

    # The deadline starts after the build: a cold build may take minutes,
    # an up-to-date one well under a second.
    repeats = Repeats(args.workload, args.seed, time.monotonic() + DEADLINE_S)
    farm = args.workload == FARM_WORKLOAD
    measure_start = time.monotonic()
    if args.trace == 0 and farm:
        first = rest = [("farm", False), ("direct", False)]
    elif args.trace == 0:
        first = rest = [("direct", False)]
    else:
        first = rest = [("direct", True), ("farm,direct" if farm else "farm", False)]
    repeat_until(args.seconds, first, rest, repeats)

    attempted, failed = check_digests(repeats)
    if args.trace == 0:
        measured = end_to_end(repeats)
        wanted = end_to_end_spec
    else:
        have_both = any(r["traced"] for r in repeats.results) and any(
            not r["traced"] for r in repeats.results)
        measured, run_s = per_layer(repeats) if have_both else ({}, 0.0)
        wanted = per_layer_spec

    log("=== %s  seed %d  trace %d  (%d processes, %.1f s) ===" % (
        args.workload, args.seed, args.trace, len(repeats.results),
        time.monotonic() - measure_start))
    for name, entry in measured.items():
        note = entry[2] if len(entry) > 2 else ""
        log("  %-34s %14.6g %-6s %s" % (name, entry[0], entry[1], note))
    log("  %-34s %14s        runs failed / attempted" % ("failed_ratio", "%d/%d" % (failed, attempted)))
    if args.trace == 1 and measured:
        attribution(measured, run_s)

    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            repeats.errors.append("metric %s was not measured" % m["name"])
            continue
        value, unit = measured[m["name"]][:2]
        if unit != m["unit"]:
            repeats.errors.append("metric %s measured in %s, BENCHMARK.json says %s"
                                  % (m["name"], unit, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for err in repeats.errors:
        log("ERROR: " + err)
    ok = failed == 0 and not repeats.errors and attempted > 0
    print(json.dumps({"correct": ok, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
