//! The traced run's view of the simulator: a `PlantFactory` that wraps
//! `SimPlant` and times each call the loop makes into it, from outside
//! the simulator crate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use eucon_core::{CoreError, Plant, PlantFactory, SimPlant};
use eucon_math::Vector;
use eucon_sim::{DeadlineStats, EngineCounters, SimConfig, Simulator};
use eucon_tasks::{ProcessorId, Task, TaskError, TaskId, TaskSet};

/// Timing of one `Plant` method: cumulative busy time plus the bounds of
/// its latest call (for spans), in ns since the clock's epoch.
///
/// The loop and the reader share one thread; the atomics only make the
/// clock `Sync`, as `PlantFactory` requires, and publish no other data,
/// so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct CallClock {
    total_ns: AtomicU64,
    last_start: AtomicU64,
    last_end: AtomicU64,
}

impl CallClock {
    fn record(&self, start: u64, end: u64) {
        self.total_ns.fetch_add(end - start, Ordering::Relaxed);
        self.last_start.store(start, Ordering::Relaxed);
        self.last_end.store(end, Ordering::Relaxed);
    }

    /// Cumulative ns spent in this method.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// `(start, end)` of the latest call, ns since the epoch.
    pub fn last(&self) -> (u64, u64) {
        (
            self.last_start.load(Ordering::Relaxed),
            self.last_end.load(Ordering::Relaxed),
        )
    }
}

/// The three timed `Plant` methods of one traced loop.
#[derive(Debug)]
pub struct PlantClock {
    epoch: Instant,
    /// `Plant::advance_to`.
    pub advance: CallClock,
    /// `Plant::sample_into`.
    pub sample: CallClock,
    /// `Plant::apply_rates`.
    pub apply: CallClock,
}

impl PlantClock {
    /// A clock whose timestamps count from now.
    pub fn new() -> Self {
        PlantClock {
            epoch: Instant::now(),
            advance: CallClock::default(),
            sample: CallClock::default(),
            apply: CallClock::default(),
        }
    }

    /// ns since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Cumulative ns in `advance_to`, `sample_into` and `apply_rates`.
    pub fn totals(&self) -> [u64; 3] {
        [
            self.advance.total_ns(),
            self.sample.total_ns(),
            self.apply.total_ns(),
        ]
    }
}

/// Builds `TimedPlant`s around the default simulator backend.
#[derive(Debug, Clone)]
pub struct TimedSimFactory {
    clock: Arc<PlantClock>,
}

impl TimedSimFactory {
    /// A factory whose plants report into `clock`.
    pub fn new(clock: Arc<PlantClock>) -> Self {
        TimedSimFactory { clock }
    }
}

impl PlantFactory for TimedSimFactory {
    fn build_plant(&self, set: &TaskSet, sim: &SimConfig) -> Result<Box<dyn Plant>, CoreError> {
        Ok(Box::new(TimedPlant {
            inner: SimPlant::build(set.clone(), sim.clone()),
            clock: Arc::clone(&self.clock),
        }))
    }

    fn label(&self) -> &'static str {
        "timed-sim"
    }
}

/// `SimPlant` with its per-period calls timed; every other method is
/// forwarded unchanged.
struct TimedPlant {
    inner: SimPlant,
    clock: Arc<PlantClock>,
}

impl Plant for TimedPlant {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn num_processors(&self) -> usize {
        self.inner.num_processors()
    }

    fn num_tasks(&self) -> usize {
        self.inner.num_tasks()
    }

    fn advance_to(&mut self, t_end: f64) {
        let start = self.clock.now();
        self.inner.advance_to(t_end);
        self.clock.advance.record(start, self.clock.now());
    }

    fn sample_into(&mut self, out: &mut Vector) {
        let start = self.clock.now();
        self.inner.sample_into(out);
        self.clock.sample.record(start, self.clock.now());
    }

    fn apply_rates(&mut self, rates: &Vector) {
        let start = self.clock.now();
        self.inner.apply_rates(rates);
        self.clock.apply.record(start, self.clock.now());
    }

    fn rates_in_force(&self) -> &[f64] {
        self.inner.rates_in_force()
    }

    fn deadline_stats(&self) -> DeadlineStats {
        self.inner.deadline_stats()
    }

    fn counters(&self) -> EngineCounters {
        self.inner.counters()
    }

    fn set_speed_override(&mut self, p: ProcessorId, factor: f64) {
        self.inner.set_speed_override(p, factor);
    }

    fn crash_processor(&mut self, p: ProcessorId) {
        self.inner.crash_processor(p);
    }

    fn recover_processor(&mut self, p: ProcessorId) {
        self.inner.recover_processor(p);
    }

    fn supports_membership(&self) -> bool {
        self.inner.supports_membership()
    }

    fn admit_task(&mut self, task: Task) -> Result<TaskId, TaskError> {
        self.inner.admit_task(task)
    }

    fn depart_task(&mut self, task: TaskId) {
        self.inner.depart_task(task);
    }

    fn is_departed(&self, task: TaskId) -> bool {
        self.inner.is_departed(task)
    }

    fn set_task_mode(&mut self, task: TaskId, exec_scale: f64) {
        self.inner.set_task_mode(task, exec_scale);
    }

    fn as_simulator(&self) -> Option<&Simulator> {
        self.inner.as_simulator()
    }
}
