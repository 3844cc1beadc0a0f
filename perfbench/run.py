#!/usr/bin/env python3
"""Benchmark of the EUCON control period.

Builds the `perfbench` pass runner from source, runs one workload and
prints every metric with its unit, the output checks, and as the last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload medium-exp2 --seed 1 --seconds 20 --trace 0

`--trace 0` reports the end-to-end metrics from untraced loops;
`--trace 1` reports the per-layer metrics from a traced loop beside an
untraced one.  Run it from the repository root.  See NOTES.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Each workload's pass length, warm-up, set-up count and tracking gate
# live in src/workload.rs; every pass reports them back.  A run steps
# passes (one loop per process) back to back for --seconds, at least
# MIN_LOOPS of them, and reports the interquartile mean over passes of
# each pass's own figure.  A process's periods share one level, and on
# this host the levels are bimodal (~100 or ~120 us on medium-exp2), so
# a median over ~15 passes flips between the modes from run to run; the
# mean of the middle half moves with the share of each mode instead,
# and still drops passes a host burst slowed.
MIN_LOOPS = 3
# After each pass, set-up-only passes (--max-periods 0) run for this
# share of its time, at least one: a process's set-ups share one level
# (on churn-medium either ~0.22 or ~0.33 ms), so setup_s needs more
# processes than the periods do.
SETUP_SHARE = 0.1
TRACK_GATE = 0.03
# The exit code of a pass whose loop stalled (perfbench::STALL_EXIT); it
# still prints its report.
STALL_EXIT = 3
# The transport-equivalence check compares digests after this many
# periods.
EQUIV_PERIODS = 2048

# The host-speed reference (src/reference.rs), timed in a process of its
# own before and after each loop pass: the geometric mean of a compute
# kernel's and a memory kernel's times.  A run's times are scaled by
# REFERENCE_MS / (the interquartile mean of its references), i.e. to a
# host on which the reference is REFERENCE_MS, about its value on the
# host NOTES.md describes.  This host's speed drifts by 20-30% over
# minutes, and the reference follows that drift; see NOTES.md.
REFERENCE_MS = 0.75

# name, unit, and how the metric scales with host speed: +1 for a time,
# -1 for a rate, 0 for memory, which is not scaled.
END_TO_END = [
    ("setup_s", "s", 1),
    ("period_p50_us", "us", 1),
    ("period_p90_us", "us", 1),
    ("periods_per_s", "1/s", -1),
    ("rss_peak_mb", "MiB", 0),
]
# Printed with every result but not bounded.  The tail above p90: on
# shard-256, host bursts that slow the CPU for 50-100 ms hit 1.6-5.6% of
# its 10 ms periods, so its p99 flips between ~16 and ~30 ms from run to
# run; on churn-medium, p95-p98 fall on the edges between steady periods,
# model retains and model rebuilds.  track_err and miss_ratio:
# deterministic for a seed, so their spread across seeds is the inputs',
# not the host's.
TAIL = [("period_p97_us", 0.97), ("period_p99_us", 0.99), ("period_p999_us", 0.999)]
QUALITY = [("track_err", "utilization"), ("miss_ratio", "ratio")]

PER_LAYER = [
    ("sim.advance_us", "us"),
    ("sim.sample_us", "us"),
    ("sim.apply_us", "us"),
    ("sim.events", "1/period"),
    ("sim.ns_per_event", "ns"),
    ("sim.reschedules", "1/period"),
    ("sim.stale_wakeups", "count"),
    ("sim.queue_peak", "count"),
    ("control.update_us_p50", "us"),
    ("control.update_us_p99", "us"),
    ("control.prepare_s", "s"),
    ("qp.iterations", "1/period"),
    ("qp.iterations_max", "count"),
    ("qp.warm_hit_ratio", "ratio"),
    ("qp.solves", "count"),
    ("qp.cold_retries", "count"),
    ("qp.active_churn", "1/period"),
    ("model.update_us", "us"),
    ("model.rebuilds", "count"),
    ("model.incremental", "count"),
    ("admission.admitted", "count"),
    ("admission.rejected", "count"),
    ("admission.deferred", "count"),
    ("admission.departed", "count"),
    ("net.exchange_us", "us"),
    ("net.frames", "1/period"),
    ("net.bytes", "1/period"),
    ("net.decode_errors", "count"),
    ("net.dropped", "count"),
    ("loop.self_us", "us"),
    ("trace.overhead_us", "us"),
]


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def log(msg):
    print(msg, flush=True)


def build():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, stdout=sys.stderr, timeout=850)
    if done.returncode != 0:
        raise BenchError("building perfbench failed")
    exe = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(exe):
        raise BenchError(f"built binary missing at {exe}")
    return exe


def run_pass(exe, workload, seed, traced=False, max_periods=None, spans=None):
    cmd = [exe, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if max_periods is not None:
        cmd += ["--max-periods", str(max_periods)]
    if spans is not None:
        cmd += ["--spans", spans]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=150)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, STALL_EXIT) or not lines:
        raise BenchError(f"pass {' '.join(cmd[1:])} exited {done.returncode}")
    report = json.loads(lines[-1])
    if report["stalled"] != (done.returncode == STALL_EXIT):
        raise BenchError(f"pass {' '.join(cmd[1:])} exited {done.returncode} "
                         f"with stalled={report['stalled']}")
    return report


def interquartile_mean(xs):
    """Mean of the middle half: a quarter of the values (rounded down)
    dropped at each end."""
    xs = sorted(xs)
    cut = len(xs) // 4
    return statistics.fmean(xs[cut:len(xs) - cut])


def run_reference(exe):
    """(compute ms, memory ms) of one host-speed reference process."""
    done = subprocess.run([exe, "--reference"], stdout=subprocess.PIPE, text=True, timeout=60)
    if done.returncode != 0:
        raise BenchError(f"the host-speed reference exited {done.returncode}")
    r = json.loads(done.stdout)
    return r["compute_ms"], r["memory_ms"]


def checkpoints(p):
    cps = {n: d for n, d in p["checkpoints"]}
    cps[p["completed"]] = p["digest"]
    return cps


def same_prefix(a, b):
    """Digests agree on every period count both passes recorded."""
    ca, cb = checkpoints(a), checkpoints(b)
    common = set(ca) & set(cb)
    return bool(common) and all(ca[n] == cb[n] for n in common)


class Checks:
    def __init__(self):
        self.results = []

    def add(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))

    def per_pass(self, p, label):
        self.add(f"{label}: zero controller errors", p["control_errors"] == 0,
                 str(p["control_errors"]))
        self.add(f"{label}: rates finite and inside their boxes",
                 p["bad_rate_periods"] == 0 and p["bad_utilization_periods"] == 0,
                 f"{p['bad_rate_periods']} bad-rate periods")
        if "net_frames" in p:
            self.add(f"{label}: no decode errors or drops on ideal lanes",
                     p["net_decode_errors"] == 0 and p["net_dropped"] == 0,
                     f"{p['net_decode_errors']} decode errors, {p['net_dropped']} dropped")
        if p["track_gated"] and p["settled_windows"] > 0:
            self.add(f"{label}: track_err <= {TRACK_GATE}",
                     p["track_err"] <= TRACK_GATE, f"{p['track_err']:.4f}")

    def ok(self):
        return all(ok for _, ok, _ in self.results)

    def show(self):
        for name, ok, detail in self.results:
            log(f"  [{'ok' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))


def describe(p, label):
    line = (f"{label}: {p['completed']} periods ({p['timed_periods']} timed over "
            f"{p['timed_s']:.3f} s, p50 {p['period_p50_us']:.1f} us), cores {p['cores']}")
    if p["stalled"]:
        line += (f"; STALLED in period {p['stall_period']} "
                 f"(sim.stale_wakeups {p['stale_wakeups']} at the last completed period), "
                 f"{p['never_ran']} later periods never ran")
    log(line)


def end_to_end(exe, args, checks):
    passes = []
    setups = []
    references = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_LOOPS and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
        t0 = time.monotonic()
        before = run_reference(exe)
        p = run_pass(exe, args.workload, args.seed)
        references += [before, run_reference(exe)]
        describe(p, f"loop {len(passes) + 1} (host-speed reference "
                    f"{math.sqrt(before[0] * before[1]):.4g} ms before, "
                    f"{math.sqrt(references[-1][0] * references[-1][1]):.4g} ms after)")
        checks.per_pass(p, f"loop {len(passes) + 1}")
        passes.append(p)
        setups += p["setup_samples"]
        until = time.monotonic() + SETUP_SHARE * (time.monotonic() - t0)
        while True:
            setups += run_pass(exe, args.workload, args.seed, max_periods=0)["setup_samples"]
            if time.monotonic() >= until:
                break
    first = passes[0]
    for i, p in enumerate(passes[1:], start=2):
        checks.add(f"loop {i} digest equals loop 1 (same seed, same inputs)",
                   same_prefix(first, p))
    if args.workload == "poll-medium":
        local = run_pass(exe, "medium-exp2", args.seed, max_periods=EQUIV_PERIODS)
        checks.per_pass(local, "local medium-exp2")
        checks.add(f"poll-medium digest equals medium-exp2 after {EQUIV_PERIODS} periods",
                   all(checkpoints(p).get(EQUIV_PERIODS) == checkpoints(local)[EQUIV_PERIODS]
                       for p in passes))
    if not all(p["timed_periods"] for p in passes):
        raise BenchError("a loop stalled before its first timed period")

    def over_loops(key):
        return interquartile_mean([p[key] for p in passes])

    raw = {"setup_s": statistics.median(setups)}
    raw.update((k, over_loops(k)) for k, _, _ in END_TO_END[1:])
    reference_ms = interquartile_mean([math.sqrt(c * m) for c, m in references])
    scale = REFERENCE_MS / reference_ms
    metrics = {k: raw[k] * scale ** power for k, _, power in END_TO_END}
    completed = sum(p["instances"] for p in passes)
    quality = {
        "track_err": max(p["track_err"] for p in passes),
        "miss_ratio": (sum(p["miss_ratio"] * p["instances"] for p in passes) / completed
                       if completed else 0.0),
    }
    timed = [p["timed_periods"] for p in passes]
    log(f"interquartile means over {len(passes)} loops of {min(timed)}-{max(timed)} timed "
        f"periods; setup_s the median of {len(setups)} set-ups")
    log(f"host-speed reference {reference_ms:.6g} ms (interquartile means: compute "
        f"{interquartile_mean([c for c, _ in references]):.6g} ms, memory "
        f"{interquartile_mean([m for _, m in references]):.6g} ms): times scaled by "
        f"{REFERENCE_MS:g} / {reference_ms:.6g} = {scale:.6g} (raw figures in brackets)")
    for name, unit, _ in END_TO_END:
        log(f"  {name:<16} {metrics[name]:.6g} {unit} ({raw[name]:.6g})")
    for name, q in TAIL:
        beyond = int(min(timed) * (1 - q))
        if beyond >= 1:
            few = "" if beyond >= 10 else "; fewer than 10: a rough figure"
            log(f"  {name:<16} {over_loops(name):.6g} us, raw ({beyond} samples beyond it "
                f"per loop{few})")
    for name, unit in QUALITY:
        log(f"  {name:<16} {quality[name]:.6g} {unit} (deterministic for the seed)")
    return passes, {k: {"value": metrics[k], "unit": u} for k, u, _ in END_TO_END}


def per_layer(exe, args, checks):
    spans_dir = os.path.join(HERE, "out")
    # Both loops run the workload's fixed number of periods (up to the
    # same stall, if they stall), so they compare like for like.
    plain = run_pass(exe, args.workload, args.seed)
    describe(plain, "untraced")
    traced = run_pass(exe, args.workload, args.seed, traced=True,
                      spans=os.path.join(spans_dir, f"spans-{args.workload}.csv"))
    describe(traced, "traced")
    passes = [plain, traced]
    for p, label in ((plain, "untraced"), (traced, "traced")):
        checks.per_pass(p, label)
    checks.add("traced digest equals untraced digest", same_prefix(plain, traced))
    if args.workload != "churn-medium":
        checks.add("control replay bit-identical to the loop's rates",
                   traced["replay_mismatches"] == 0, f"{traced['replay_mismatches']} mismatches")
    layers = dict(traced["layers"])
    layers["trace.overhead_us"] = traced["period_p50_us"] - plain["period_p50_us"]
    layers["net.exchange_us"] = 0.0
    if args.workload == "poll-medium":
        local = run_pass(exe, "medium-exp2", args.seed, traced=True,
                         spans=os.path.join(spans_dir, "spans-poll-medium-local.csv"))
        describe(local, "traced local medium-exp2")
        checks.per_pass(local, "local medium-exp2")
        checks.add("poll-medium digest equals medium-exp2 (transport equivalence)",
                   same_prefix(traced, local))
        passes.append(local)
        layers["net.exchange_us"] = layers["loop.self_us"] - local["layers"]["loop.self_us"]
    for name, unit in PER_LAYER:
        log(f"  {name:<22} {layers[name]:.6g} {unit}")
    return passes, {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    try:
        exe = build()
        checks = Checks()
        log(f"== {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
        run = per_layer if args.trace else end_to_end
        passes, metrics = run(exe, args, checks)
        checks.show()
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    result = {
        "correct": checks.ok(),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
