//! One measured pass: build a workload's loop through the front door,
//! step it back to back on this thread for the workload's fixed number
//! of periods, and report.  A watchdog thread beside the loop turns a
//! period that never finishes into failed periods and a report.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use eucon_control::RateController;
use eucon_core::telemetry::Snapshot;
use eucon_core::{ChurnSummary, ClosedLoop};
use eucon_math::Vector;
use eucon_sim::{DeadlineStats, EngineCounters};

use crate::fold::{median, quantile, Fold};
use crate::plant::{PlantClock, TimedSimFactory};
use crate::report::Json;
use crate::workload::{Loop, Spec, Workload};

/// The exit code of a pass the watchdog ended; its report is still the
/// last line of standard output.
pub const STALL_EXIT: i32 = 3;

/// What one pass runs.
#[derive(Debug, Clone)]
pub struct PassConfig {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Step fewer periods than the workload's own count (0: only set
    /// up); the inputs still cover the whole count.
    pub max_periods: Option<usize>,
    /// Time every layer from outside (the traced run).
    pub traced: bool,
    /// Where a traced pass writes its spans (CSV).
    pub spans: Option<PathBuf>,
}

/// One recorded span.  Spans of one period share `period`; `parent` is
/// the index of the enclosing span, or -1.
#[derive(Debug, Clone, Copy)]
struct SpanRec {
    period: u64,
    name: &'static str,
    start: u64,
    end: u64,
    parent: i64,
}

/// Per-layer accumulators of the traced pass, over timed periods.
#[derive(Debug, Default)]
struct Layers {
    advance_ns: u64,
    sample_ns: u64,
    apply_ns: u64,
    /// Per-period control time (replayed update, or the loop's own
    /// `span_control_ns` under churn).
    control_ns: Vec<u64>,
    model_ns: f64,
    prepare_s: f64,
    qp_iterations: u64,
    qp_iterations_max: u64,
    qp_solves: u64,
    qp_warm: u64,
    qp_cold: u64,
    qp_active_churn: u64,
    replay_mismatches: u64,
}

impl Layers {
    /// Folds one timed period's control step.
    fn control(&mut self, ns: u64, iterations: u64, warm: u64, cold: u64, active_churn: u64) {
        self.control_ns.push(ns);
        self.qp_solves += 1;
        self.qp_iterations += iterations;
        self.qp_iterations_max = self.qp_iterations_max.max(iterations);
        self.qp_warm += warm;
        self.qp_cold += cold;
        self.qp_active_churn += active_churn;
    }
}

/// Everything a report needs; the loop thread updates it after every
/// period, and the watchdog reads it when the loop stalls.
struct State {
    cfg: PassConfig,
    spec: Spec,
    setup_s: Vec<f64>,
    /// Periods this pass steps.
    periods: usize,
    timed_start: Option<Instant>,
    last_end: Instant,
    /// On-CPU ns of the loop thread in each timed `step()` call.
    samples: Vec<u64>,
    /// Wall ns of the timed `step()` calls, summed.
    step_wall_ns: u64,
    fold: Fold,
    failed_periods: u64,
    control_errors: u64,
    counters: EngineCounters,
    counters_timed: EngineCounters,
    deadlines: DeadlineStats,
    churn: ChurnSummary,
    transport: Option<[u64; 4]>,
    transport_timed: Option<[u64; 4]>,
    layers: Option<Layers>,
    spans: Vec<SpanRec>,
}

/// Progress shared with the watchdog.
struct Shared {
    state: Mutex<State>,
    completed: AtomicU64,
    done: AtomicBool,
}

/// Runs one pass and returns its JSON report.  If a period stalls, the
/// watchdog prints the report itself and ends the process with
/// [`STALL_EXIT`]: a livelocked loop thread cannot be stopped any other
/// way.
pub fn run_pass(cfg: PassConfig) -> Result<String, String> {
    let w = Workload::generate(&cfg.workload, cfg.seed)?;
    let periods = cfg
        .max_periods
        .map_or(w.spec.periods, |n| n.min(w.spec.periods));
    let clock = Arc::new(PlantClock::new());
    let factory = cfg
        .traced
        .then(|| Arc::new(TimedSimFactory::new(Arc::clone(&clock))) as _);

    let mut setup_s = Vec::with_capacity(w.spec.setups);
    let mut lp = None;
    for _ in 0..w.spec.setups.max(1) {
        let builder = w.builder(factory.clone());
        drop(lp.take());
        let t = thread_cpu_ns();
        let built = w
            .build(builder)
            .map_err(|e| format!("building {}: {e}", w.name()))?;
        setup_s.push((thread_cpu_ns() - t) as f64 / 1e9);
        lp = Some(built);
    }
    let mut lp = lp.expect("at least one setup ran");
    let set_points = lp.inner_ref().set_points().clone();

    // The standalone controller the traced pass replays the loop's
    // inputs through (static membership only: under churn the replay
    // would have to re-run admission, so the loop's own spans are read).
    let mut layers = None;
    let mut replay: Option<Box<dyn RateController>> = None;
    if cfg.traced {
        let t = thread_cpu_ns();
        let ctrl = w
            .controller()
            .build(w.task_set(), &set_points)
            .map_err(|e| format!("building the replay controller: {e}"))?;
        let prepare_s = (thread_cpu_ns() - t) as f64 / 1e9;
        if !w.has_churn() {
            replay = Some(ctrl);
        }
        layers = Some(Layers {
            prepare_s,
            ..Layers::default()
        });
    }

    let shared = Shared {
        state: Mutex::new(State {
            spec: w.spec,
            setup_s,
            timed_start: None,
            last_end: Instant::now(),
            periods,
            samples: Vec::with_capacity(periods),
            step_wall_ns: 0,
            fold: Fold::new(set_points.as_slice()),
            failed_periods: 0,
            control_errors: 0,
            counters: EngineCounters::default(),
            counters_timed: EngineCounters::default(),
            deadlines: DeadlineStats::default(),
            churn: ChurnSummary::default(),
            transport: lp.transport(),
            transport_timed: lp.transport(),
            layers,
            spans: Vec::new(),
            cfg,
        }),
        completed: AtomicU64::new(0),
        done: AtomicBool::new(false),
    };

    let replay = replay.as_mut();
    std::thread::scope(|s| {
        let watchdog = s.spawn(|| watchdog(&shared));
        step_loop(&shared, &w, &mut lp, replay, &clock, periods);
        shared.done.store(true, Ordering::SeqCst);
        watchdog.join().expect("watchdog thread panicked");
    });
    let st = shared
        .state
        .lock()
        .expect("loop thread panicked holding the state");
    let out = report(&st, None);
    write_spans(&st)?;
    Ok(out)
}

/// CPU time the calling thread has consumed, in ns.  A step timed by it
/// excludes the time the thread spent descheduled: on a shared host that
/// lands on a few long periods and would decide their tail.
pub(crate) fn thread_cpu_ns() -> u64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (64-bit Linux layout)
    // for the whole call, and the clock id is Linux's per-thread CPU
    // clock, which the call fills in without retaining the pointer.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the per-thread CPU clock is unavailable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The task rate boxes of the plant's current membership.
fn rate_boxes(cl: &ClosedLoop) -> Vec<(f64, f64)> {
    cl.plant()
        .as_simulator()
        .expect("benchmark plants are simulator-backed")
        .task_set()
        .tasks()
        .iter()
        .map(|t| (t.rate_min(), t.rate_max()))
        .collect()
}

fn histogram_sum(snap: &Snapshot, name: &str) -> f64 {
    snap.histogram(name).map_or(0.0, |h| h.sum)
}

fn step_loop(
    shared: &Shared,
    w: &Workload,
    lp: &mut Loop,
    mut replay: Option<&mut Box<dyn RateController>>,
    clock: &PlantClock,
    periods: usize,
) {
    let (traced, spans_on) = {
        let st = shared.state.lock().expect("state lock");
        (st.cfg.traced, st.cfg.spans.is_some())
    };
    let mut boxes = rate_boxes(lp.inner_ref());
    let mut u = Vec::new();
    let mut rates = Vec::new();
    let mut received = Vec::new();
    let mut u_ctrl = Vector::zeros(w.task_set().num_processors());
    let mut prev_snapshot =
        (traced && w.has_churn()).then(|| lp.inner_ref().telemetry().snapshot());
    let warmup = w.spec.warmup.max(1) as u64;
    for k in 0..periods as u64 {
        // Periods from `warmup` on are timed; the one before it opens
        // the timed window.
        let timed = k >= warmup;
        let plant_before = clock.totals();
        let t0 = clock.now();
        let cpu0 = thread_cpu_ns();
        let step = lp.inner().step();
        let cpu1 = thread_cpu_ns();
        let t1 = clock.now();
        let control_error = step.annotations.control_error;
        u.clear();
        u.extend_from_slice(step.utilization.as_slice());
        rates.clear();
        rates.extend_from_slice(step.rates.as_slice());
        received.clear();
        if let Some(r) = &step.received {
            received.extend_from_slice(r.as_slice());
        }

        // Control, timed from outside: the same inputs through the
        // standalone controller, whose rates must match bit for bit.
        let mut replayed = None;
        if let Some(ctrl) = replay.as_mut() {
            u_ctrl.copy_from_slice(if received.is_empty() { &u } else { &received });
            let c0 = clock.now();
            let res = ctrl.update(&u_ctrl);
            let c1 = clock.now();
            let same = res.is_ok()
                && ctrl.rates().len() == rates.len()
                && ctrl
                    .rates()
                    .iter()
                    .zip(&rates)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            replayed = Some((c0, c1, same, ctrl.telemetry()));
        }

        if rates.len() != boxes.len() {
            boxes = rate_boxes(lp.inner_ref());
        }
        let cl = lp.inner_ref();
        let transport = lp.transport();
        let snapshot = prev_snapshot.as_ref().map(|_| cl.telemetry().snapshot());

        let mut st = shared.state.lock().expect("state lock");
        let mut ok = st.fold.observe(&u, &rates, &boxes) && !control_error;
        st.control_errors += u64::from(control_error);
        if let (Some(now), Some(prev)) = (transport, st.transport) {
            // Ideal lanes: any decode error or dropped frame fails the
            // period.
            ok &= now[2] == prev[2] && now[3] == prev[3];
        }
        st.failed_periods += u64::from(!ok);
        st.transport = transport;
        st.counters = cl.plant().counters();
        st.deadlines = cl.plant().deadline_stats();
        st.churn = cl.churn_summary();
        st.last_end = Instant::now();
        if k + 1 == warmup {
            st.timed_start = Some(st.last_end);
            st.counters_timed = st.counters;
            st.transport_timed = transport;
        } else if timed {
            st.samples.push(cpu1 - cpu0);
            st.step_wall_ns += t1 - t0;
        }

        if traced {
            let plant_after = clock.totals();
            if spans_on {
                let root = st.spans.len() as i64;
                st.spans.push(SpanRec {
                    period: k,
                    name: "loop.step",
                    start: t0,
                    end: t1,
                    parent: -1,
                });
                for (name, call) in [
                    ("sim.advance", &clock.advance),
                    ("sim.sample", &clock.sample),
                    ("sim.apply", &clock.apply),
                ] {
                    let (start, end) = call.last();
                    if start >= t0 {
                        st.spans.push(SpanRec {
                            period: k,
                            name,
                            start,
                            end,
                            parent: root,
                        });
                    }
                }
                if let Some((c0, c1, _, _)) = replayed {
                    st.spans.push(SpanRec {
                        period: k,
                        name: "control.update",
                        start: c0,
                        end: c1,
                        parent: -1,
                    });
                }
            }
            let layers = st.layers.as_mut().expect("traced passes carry layers");
            if let Some((_, _, same, _)) = replayed {
                layers.replay_mismatches += u64::from(!same);
            }
            if timed {
                layers.advance_ns += plant_after[0] - plant_before[0];
                layers.sample_ns += plant_after[1] - plant_before[1];
                layers.apply_ns += plant_after[2] - plant_before[2];
                if let Some((c0, c1, _, t)) = replayed {
                    layers.control(
                        c1 - c0,
                        t.qp_iterations as u64,
                        u64::from(t.warm_start),
                        u64::from(t.cold_retry),
                        t.active_churn as u64,
                    );
                }
                if let (Some(now), Some(prev)) = (&snapshot, &prev_snapshot) {
                    let d = |name: &str| histogram_sum(now, name) - histogram_sum(prev, name);
                    let c = |name: &str| {
                        now.counter(name).unwrap_or(0) - prev.counter(name).unwrap_or(0)
                    };
                    let g = |name: &str| now.gauge(name).unwrap_or(0.0) as u64;
                    layers.model_ns += d("model_update_ns");
                    layers.control(
                        d("span_control_ns") as u64,
                        g("qp_iterations"),
                        c("qp_warm_hits"),
                        c("qp_cold_retries"),
                        g("qp_active_churn"),
                    );
                }
            }
        }
        drop(st);
        if snapshot.is_some() {
            prev_snapshot = snapshot;
        }
        shared.completed.fetch_add(1, Ordering::SeqCst);
    }
}

/// Watches the loop's progress counter; a period that runs past the
/// stall limit ends the pass with the numbers gathered so far.
fn watchdog(shared: &Shared) {
    let limit = shared.state.lock().expect("state lock").spec.stall_limit;
    let poll = limit / 20;
    let mut seen = shared.completed.load(Ordering::SeqCst);
    let mut since = Instant::now();
    while !shared.done.load(Ordering::SeqCst) {
        std::thread::sleep(poll);
        let now = shared.completed.load(Ordering::SeqCst);
        if now != seen {
            seen = now;
            since = Instant::now();
        } else if since.elapsed() > limit && !shared.done.load(Ordering::SeqCst) {
            // The loop thread is inside `step()` and does not hold the
            // state lock.
            let st = shared
                .state
                .lock()
                .expect("loop thread panicked holding the state");
            let out = report(&st, Some(now));
            let spans = write_spans(&st);
            let mut stdout = std::io::stdout().lock();
            let _ = writeln!(stdout, "{out}");
            let _ = stdout.flush();
            if let Err(e) = spans {
                eprintln!("{e}");
            }
            // Ends the livelocked loop thread with the process.
            std::process::exit(STALL_EXIT);
        }
    }
}

fn write_spans(st: &State) -> Result<(), String> {
    let Some(path) = &st.cfg.spans else {
        return Ok(());
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let file =
        std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let write_all = |out: &mut std::io::BufWriter<std::fs::File>| -> std::io::Result<()> {
        writeln!(out, "id,period,name,start_ns,end_ns,parent")?;
        for (id, s) in st.spans.iter().enumerate() {
            writeln!(
                out,
                "{id},{},{},{},{},{}",
                s.period, s.name, s.start, s.end, s.parent
            )?;
        }
        out.flush()
    };
    write_all(&mut out).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Peak resident set (`VmHWM`) in MiB, from `/proc/self/status`.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn hex(x: u64) -> String {
    format!("\"{x:016x}\"")
}

/// The step-time quantiles a pass reports.
const PERIOD_QUANTILES: [(&str, f64); 5] = [
    ("period_p50_us", 0.5),
    ("period_p90_us", 0.9),
    ("period_p97_us", 0.97),
    ("period_p99_us", 0.99),
    ("period_p999_us", 0.999),
];

/// `stall` is the index (from 0) of the period that never finished.
fn report(st: &State, stall: Option<u64>) -> String {
    // Read before the report's own buffers raise the high-water mark.
    let rss_peak_mb = rss_peak_mb();
    let cfg = &st.cfg;
    let timed_periods = st.samples.len() as u64;
    let timed_s = st
        .timed_start
        .map_or(0.0, |t0| st.last_end.duration_since(t0).as_secs_f64());
    let mut sorted = st.samples.clone();
    sorted.sort_unstable();
    let periods_per_s = timed_periods as f64 / timed_s;
    let completed = st.fold.periods();

    // At a stall: the stalled period and every period after it count as
    // failed.
    let never_ran = stall.map_or(0, |_| (st.periods as u64).saturating_sub(completed + 1));
    let stalled = u64::from(stall.is_some());

    let mut j = Json::new();
    j.str("workload", st.spec.name);
    j.int("seed", cfg.seed);
    j.bool("traced", cfg.traced);
    j.int(
        "cores",
        std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
    );
    j.num("setup_s", median(&st.setup_s));
    let setups: Vec<String> = st.setup_s.iter().map(|s| format!("{s}")).collect();
    j.raw("setup_samples", format!("[{}]", setups.join(", ")));
    j.int("completed", completed);
    j.int("attempted", completed + stalled + never_ran);
    j.int("failed", st.failed_periods + stalled + never_ran);
    j.bool("stalled", stall.is_some());
    j.opt_int("stall_period", stall);
    j.int("never_ran", never_ran);
    j.int("timed_periods", timed_periods);
    j.num("timed_s", timed_s);
    for (key, q) in PERIOD_QUANTILES {
        j.num(key, quantile(&sorted, q) / 1e3);
    }
    j.num("periods_per_s", periods_per_s);
    j.num("rss_peak_mb", rss_peak_mb);
    j.num("track_err", st.fold.track_err);
    j.int("settled_windows", st.fold.settled_windows);
    j.bool("track_gated", st.spec.track_gated);
    j.num("miss_ratio", st.deadlines.miss_ratio());
    j.int("instances", st.deadlines.completed());
    j.int("control_errors", st.control_errors);
    j.int("bad_rate_periods", st.fold.bad_rate_periods);
    j.int("bad_utilization_periods", st.fold.bad_utilization_periods);
    j.raw("digest", hex(st.fold.digest()));
    let checkpoints: Vec<String> = st
        .fold
        .checkpoints()
        .iter()
        .map(|&(n, d)| format!("[{n}, {}]", hex(d)))
        .collect();
    j.raw("checkpoints", format!("[{}]", checkpoints.join(", ")));
    j.int("events", st.counters.events);
    j.int("stale_wakeups", st.counters.stale_wakeups);
    if let Some(t) = st.transport {
        j.int("net_frames", t[0]);
        j.int("net_bytes", t[1]);
        j.int("net_decode_errors", t[2]);
        j.int("net_dropped", t[3]);
    }
    if let Some(layers) = &st.layers {
        j.raw("layers", layer_metrics(st, layers));
        j.int("replay_mismatches", layers.replay_mismatches);
    }
    j.finish()
}

/// The per-layer metrics of a traced pass (per-period means over the
/// timed periods unless the name says otherwise).
fn layer_metrics(st: &State, l: &Layers) -> String {
    let periods = st.samples.len() as u64;
    let per = |x: f64| {
        if periods == 0 {
            f64::NAN
        } else {
            x / periods as f64
        }
    };
    let events = st.counters.events - st.counters_timed.events;
    let mut control = l.control_ns.clone();
    control.sort_unstable();
    let step_us = per(st.step_wall_ns as f64) / 1e3;
    let control_us = per(control.iter().sum::<u64>() as f64) / 1e3;
    let model_us = per(l.model_ns) / 1e3;
    let plant_us = per((l.advance_ns + l.sample_ns + l.apply_ns) as f64) / 1e3;
    let (frames, bytes) = match (st.transport, st.transport_timed) {
        (Some(now), Some(then)) => (
            per((now[0] - then[0]) as f64),
            per((now[1] - then[1]) as f64),
        ),
        _ => (0.0, 0.0),
    };
    let mut j = Json::new();
    j.num("sim.advance_us", per(l.advance_ns as f64) / 1e3);
    j.num("sim.sample_us", per(l.sample_ns as f64) / 1e3);
    j.num("sim.apply_us", per(l.apply_ns as f64) / 1e3);
    j.num("sim.events", per(events as f64));
    j.num(
        "sim.ns_per_event",
        if events == 0 {
            0.0
        } else {
            l.advance_ns as f64 / events as f64
        },
    );
    j.num(
        "sim.reschedules",
        per((st.counters.reschedules - st.counters_timed.reschedules) as f64),
    );
    j.int("sim.stale_wakeups", st.counters.stale_wakeups);
    j.int("sim.queue_peak", st.counters.queue_peak as u64);
    j.num("control.update_us_p50", quantile(&control, 0.5) / 1e3);
    j.num("control.update_us_p99", quantile(&control, 0.99) / 1e3);
    j.num("control.prepare_s", l.prepare_s);
    j.num("qp.iterations", per(l.qp_iterations as f64));
    j.int("qp.iterations_max", l.qp_iterations_max);
    j.num(
        "qp.warm_hit_ratio",
        if l.qp_solves == 0 {
            0.0
        } else {
            l.qp_warm as f64 / l.qp_solves as f64
        },
    );
    j.int("qp.solves", l.qp_solves);
    j.int("qp.cold_retries", l.qp_cold);
    j.num("qp.active_churn", per(l.qp_active_churn as f64));
    j.num("model.update_us", model_us);
    j.int("model.rebuilds", st.churn.model_rebuilds);
    j.int("model.incremental", st.churn.incremental_updates);
    j.int("admission.admitted", st.churn.admitted);
    j.int("admission.rejected", st.churn.rejected);
    j.int("admission.deferred", st.churn.deferred);
    j.int("admission.departed", st.churn.departed);
    j.num("net.frames", frames);
    j.num("net.bytes", bytes);
    j.int("net.decode_errors", st.transport.map_or(0, |t| t[2]));
    j.int("net.dropped", st.transport.map_or(0, |t| t[3]));
    j.num("loop.self_us", step_us - plant_us - control_us - model_us);
    j.finish()
}
