//! The v0.3 unified builder: one entry point for every execution mode.
//!
//! Before v0.3, local loops, distributed loops and fleet runs each had
//! their own builder with overlapping-but-diverging surfaces
//! ([`ClosedLoopBuilder`], a distributed-loop builder, [`FleetConfig`] +
//! [`FleetLoopSpec`]).  [`LoopBuilder`] collapses them: describe the
//! experiment once, then pick the execution mode with a finisher —
//!
//! * [`LoopBuilder::local`] — the single-process loop ([`ClosedLoop`]);
//! * [`LoopBuilder::distributed`] — real transport lanes
//!   ([`DistributedLoop`]), with the [`NetConfig`] passed explicitly so
//!   the mode switch is visible at the call site;
//! * [`LoopBuilder::fleet`] — `n` replicas on the work-stealing fleet
//!   runner ([`FleetPlan`] → [`FleetReport`]).
//!
//! Options a mode cannot honour fail fast with [`CoreError::Config`]
//! (at the finisher or at [`FleetPlan::run`]) instead of being silently
//! dropped.  [`LoopBuilder`] is the only way to build a
//! [`DistributedLoop`]; the local and fleet finishers lower onto
//! [`ClosedLoopBuilder`] and [`FleetLoopSpec`], so the golden trace
//! hashes are unchanged through this facade (pinned in
//! `tests/facade_v03.rs`).

use std::sync::Arc;

use eucon_math::Vector;
use eucon_sim::{FaultPlan, SimConfig};
use eucon_tasks::TaskSet;

use crate::plant::PlantFactory;
use crate::telemetry::TelemetrySink;
use crate::{
    AdmissionPolicy, ChurnPlan, ClosedLoop, ClosedLoopBuilder, ControllerSpec, CoreError,
    DistributedLoop, FleetConfig, FleetLoopSpec, FleetReport, FleetRunner, LaneModel, NetConfig,
};

/// One builder for every execution mode; see the module docs.
///
/// # Example
///
/// ```
/// use eucon_core::{ControllerSpec, LoopBuilder, NetConfig};
/// use eucon_sim::SimConfig;
/// use eucon_tasks::workloads;
///
/// # fn main() -> Result<(), eucon_core::CoreError> {
/// // The same experiment, two execution modes:
/// let mut local = LoopBuilder::new(workloads::simple())
///     .sim_config(SimConfig::constant_etf(0.5))
///     .local()?;
/// let mut dist = LoopBuilder::new(workloads::simple())
///     .sim_config(SimConfig::constant_etf(0.5))
///     .distributed(NetConfig::channel())?;
/// // Ideal lanes are bit-identical to the single-process loop.
/// assert_eq!(
///     local.run(40).trace.steps().last().unwrap().utilization,
///     dist.run(40).trace.steps().last().unwrap().utilization,
/// );
/// # Ok(())
/// # }
/// ```
pub struct LoopBuilder {
    set: TaskSet,
    sim: SimConfig,
    controller: ControllerSpec,
    set_points: Option<Vector>,
    lanes: Option<LaneModel>,
    faults: FaultPlan,
    churn: Option<ChurnPlan>,
    admission: Option<AdmissionPolicy>,
    quantized_rates: Option<usize>,
    record_trace: Option<bool>,
    sampling_period: Option<f64>,
    telemetry_batch: Option<usize>,
    sinks: Vec<Box<dyn TelemetrySink>>,
    plant: Option<Arc<dyn PlantFactory>>,
}

impl std::fmt::Debug for LoopBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopBuilder")
            .field("controller", &self.controller)
            .field("plant", &self.plant.as_ref().map_or("sim", |p| p.label()))
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

impl LoopBuilder {
    /// Starts describing an experiment over a task set (defaults: the
    /// `etf = 1` constant-execution-time plant, the EUCON controller
    /// with SIMPLE's parameters).
    pub fn new(set: TaskSet) -> Self {
        LoopBuilder {
            set,
            sim: SimConfig::default(),
            controller: ControllerSpec::Eucon(eucon_control::MpcConfig::simple()),
            set_points: None,
            lanes: None,
            faults: FaultPlan::none(),
            churn: None,
            admission: None,
            quantized_rates: None,
            record_trace: None,
            sampling_period: None,
            telemetry_batch: None,
            sinks: Vec::new(),
            plant: None,
        }
    }

    /// Chooses the plant backend every mode senses and actuates
    /// (default: the `eucon-sim` simulator).
    ///
    /// Accepts any [`PlantFactory`] — [`crate::SimPlantFactory`] (the
    /// explicit default), a loaded [`crate::ReplayTrace`], or an
    /// `OsPlantConfig` (feature `os-plant`) driving real worker
    /// processes — and composes with every finisher:
    /// [`LoopBuilder::local`], [`LoopBuilder::distributed`] and
    /// [`LoopBuilder::fleet`].
    pub fn plant(mut self, factory: impl PlantFactory + 'static) -> Self {
        self.plant = Some(Arc::new(factory));
        self
    }

    /// Chooses the simulator configuration.
    pub fn sim_config(mut self, cfg: SimConfig) -> Self {
        self.sim = cfg;
        self
    }

    /// Chooses the controller.
    pub fn controller(mut self, spec: ControllerSpec) -> Self {
        self.controller = spec;
        self
    }

    /// Overrides the utilization set points.
    pub fn set_points(mut self, b: Vector) -> Self {
        self.set_points = Some(b);
        self
    }

    /// Applies the in-loop feedback-lane model (delay/loss).  Local
    /// mode only — in distributed mode the lanes are real, so delay and
    /// loss belong on the [`NetConfig`]
    /// (`report_lanes`/`command_lanes`), and the finisher rejects this
    /// option to keep the two from silently diverging.
    pub fn lanes(mut self, model: LaneModel) -> Self {
        self.lanes = Some(model);
        self
    }

    /// Injects faults from a scripted plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Scripts runtime membership changes (arrivals, departures, mode
    /// changes).
    pub fn churn(mut self, plan: ChurnPlan) -> Self {
        self.churn = Some(plan);
        self
    }

    /// Gates churn arrivals behind the §6.2 admission test.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Quantizes rate commands to `levels` discrete levels.
    pub fn quantized_rates(mut self, levels: usize) -> Self {
        self.quantized_rates = Some(levels);
        self
    }

    /// Turns per-period trace recording on or off.
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = Some(on);
        self
    }

    /// Overrides the sampling period (seconds).
    pub fn sampling_period(mut self, ts: f64) -> Self {
        self.sampling_period = Some(ts);
        self
    }

    /// Sets the telemetry flush batch size (rows).
    pub fn telemetry_batch(mut self, rows: usize) -> Self {
        self.telemetry_batch = Some(rows);
        self
    }

    /// Attaches a telemetry sink fed one row per sampling period (see
    /// [`ClosedLoopBuilder::telemetry_sink`]).  Local and distributed
    /// modes only — the fleet runner rejects it.
    pub fn telemetry_sink(mut self, sink: impl TelemetrySink + 'static) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Lowers the shared options onto a [`ClosedLoopBuilder`].
    fn lower(self) -> ClosedLoopBuilder {
        let mut b = ClosedLoop::builder(self.set)
            .sim_config(self.sim)
            .controller(self.controller)
            .faults(self.faults);
        if let Some(points) = self.set_points {
            b = b.set_points(points);
        }
        if let Some(model) = self.lanes {
            b = b.lanes(model);
        }
        if let Some(plan) = self.churn {
            b = b.churn(plan);
        }
        if let Some(policy) = self.admission {
            b = b.admission(policy);
        }
        if let Some(levels) = self.quantized_rates {
            b = b.quantized_rates(levels);
        }
        if let Some(on) = self.record_trace {
            b = b.record_trace(on);
        }
        if let Some(ts) = self.sampling_period {
            b = b.sampling_period(ts);
        }
        if let Some(rows) = self.telemetry_batch {
            b = b.telemetry_batch(rows);
        }
        if let Some(factory) = self.plant {
            b = b.plant(factory);
        }
        for sink in self.sinks {
            b = b.push_sink(sink);
        }
        b
    }

    /// Finishes as a single-process loop.
    ///
    /// # Errors
    ///
    /// Everything [`ClosedLoopBuilder::build`] rejects.
    pub fn local(self) -> Result<ClosedLoop, CoreError> {
        self.lower().build()
    }

    /// Finishes as a distributed loop over the given transport
    /// configuration.
    ///
    /// # Errors
    ///
    /// Everything [`ClosedLoopBuilder::build`] rejects,
    /// [`CoreError::Transport`] when the backend fails to connect (e.g.
    /// binding the loopback sockets), and [`CoreError::Config`] for
    /// out-of-domain lane parameters or when [`LoopBuilder::lanes`] was
    /// set (use `net.report_lanes` / `net.command_lanes` instead).
    pub fn distributed(mut self, net: NetConfig) -> Result<DistributedLoop, CoreError> {
        if self.lanes.take().is_some() {
            return Err(CoreError::Config(
                "in distributed mode the lanes are real: configure delay/loss on the \
                 NetConfig (report_lanes / command_lanes), not with LoopBuilder::lanes"
                    .into(),
            ));
        }
        let mut inner = self.lower().build()?;
        inner.attach_net(&net)?;
        Ok(DistributedLoop::from_inner(inner))
    }

    /// Finishes as a fleet of `n` replicas of this loop; tune and start
    /// it with the returned [`FleetPlan`].
    pub fn fleet(self, n: usize) -> FleetPlan {
        let mut unsupported = Vec::new();
        if self.lanes.is_some() {
            unsupported.push("lanes");
        }
        if !self.sinks.is_empty() {
            unsupported.push("telemetry_sink");
        }
        if self.quantized_rates.is_some() {
            unsupported.push("quantized_rates");
        }
        if self.record_trace.is_some() {
            unsupported.push("record_trace");
        }
        if self.sampling_period.is_some() {
            unsupported.push("sampling_period");
        }
        let mut spec = FleetLoopSpec::new(self.set)
            .sim_config(self.sim)
            .controller(self.controller)
            .faults(self.faults);
        if let Some(points) = self.set_points {
            spec = spec.set_points(points);
        }
        if let Some(plan) = self.churn {
            spec = spec.churn(plan);
        }
        if let Some(policy) = self.admission {
            spec = spec.admission(policy);
        }
        if let Some(factory) = self.plant {
            spec = spec.plant(factory);
        }
        FleetPlan {
            spec,
            n,
            threads: None,
            telemetry_batch: self.telemetry_batch,
            share_models: None,
            unsupported,
        }
    }
}

/// A fleet run described by [`LoopBuilder::fleet`], waiting for runtime
/// tuning and a period count.
#[derive(Debug)]
pub struct FleetPlan {
    spec: FleetLoopSpec,
    n: usize,
    threads: Option<usize>,
    telemetry_batch: Option<usize>,
    share_models: Option<bool>,
    /// Options the fleet runner cannot honour; reported at run().
    unsupported: Vec<&'static str>,
}

impl FleetPlan {
    /// Caps the worker thread count (default: available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the per-loop telemetry batch size.
    pub fn telemetry_batch(mut self, rows: usize) -> Self {
        self.telemetry_batch = Some(rows);
        self
    }

    /// Shares plant models across identical replicas.
    pub fn share_models(mut self, on: bool) -> Self {
        self.share_models = Some(on);
        self
    }

    /// Runs the fleet for `periods` sampling periods.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] when the builder carried options the fleet
    /// runner cannot honour, plus everything [`FleetRunner::run`]
    /// rejects.
    pub fn run(self, periods: usize) -> Result<FleetReport, CoreError> {
        if !self.unsupported.is_empty() {
            return Err(CoreError::Config(format!(
                "fleet mode does not support: {}",
                self.unsupported.join(", ")
            )));
        }
        let mut cfg = FleetConfig::new(periods);
        if let Some(threads) = self.threads {
            cfg = cfg.threads(threads);
        }
        if let Some(rows) = self.telemetry_batch {
            cfg = cfg.telemetry_batch(rows);
        }
        if let Some(on) = self.share_models {
            cfg = cfg.share_models(on);
        }
        FleetRunner::replicated(self.spec, self.n, cfg).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunResult;
    use eucon_control::MpcConfig;
    use eucon_tasks::workloads;

    /// FNV-1a over the bit patterns of every step's utilization vector.
    fn digest(result: &RunResult) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for step in result.trace.steps() {
            for &x in step.utilization.iter() {
                for b in x.to_bits().to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn local_finisher_matches_the_classic_builder_bitwise() {
        let mut classic = ClosedLoop::builder(workloads::simple())
            .sim_config(SimConfig::constant_etf(0.5))
            .controller(ControllerSpec::Eucon(MpcConfig::simple()))
            .build()
            .unwrap();
        let mut unified = LoopBuilder::new(workloads::simple())
            .sim_config(SimConfig::constant_etf(0.5))
            .local()
            .unwrap();
        assert_eq!(digest(&classic.run(40)), digest(&unified.run(40)));
    }

    #[test]
    fn distributed_finisher_matches_local_over_ideal_channels() {
        let mut local = LoopBuilder::new(workloads::medium())
            .sim_config(SimConfig::constant_etf(0.5))
            .controller(ControllerSpec::Eucon(MpcConfig::medium()))
            .local()
            .unwrap();
        let mut dist = LoopBuilder::new(workloads::medium())
            .sim_config(SimConfig::constant_etf(0.5))
            .controller(ControllerSpec::Eucon(MpcConfig::medium()))
            .distributed(NetConfig::channel())
            .unwrap();
        assert_eq!(digest(&local.run(30)), digest(&dist.run(30)));
    }

    #[test]
    fn fleet_finisher_runs_replicas() {
        let report = LoopBuilder::new(workloads::simple())
            .sim_config(SimConfig::constant_etf(0.5))
            .fleet(6)
            .threads(2)
            .run(20)
            .unwrap();
        assert_eq!(report.loops, 6);
    }

    #[test]
    fn distributed_rejects_the_in_loop_lane_model() {
        let err = LoopBuilder::new(workloads::simple())
            .lanes(LaneModel::lossy(0.1, 7))
            .distributed(NetConfig::channel())
            .unwrap_err();
        assert!(err.to_string().contains("report_lanes"), "{err}");
    }

    #[test]
    fn fleet_rejects_telemetry_sinks_at_run() {
        let err = LoopBuilder::new(workloads::simple())
            .telemetry_sink(crate::telemetry::RingBufferSink::new(4))
            .fleet(2)
            .run(10)
            .unwrap_err();
        assert!(err.to_string().contains("telemetry_sink"), "{err}");
    }

    #[test]
    fn fleet_rejects_unsupported_options_at_run() {
        let err = LoopBuilder::new(workloads::simple())
            .quantized_rates(8)
            .fleet(2)
            .run(10)
            .unwrap_err();
        assert!(err.to_string().contains("quantized_rates"), "{err}");
    }
}
