//! Distributed mode: the closed loop split into a controller node and
//! `m` processor nodes exchanging frames over real transport lanes.
//!
//! The paper's architecture (§4) runs the utilization monitors and rate
//! modulators *on the controlled processors* and connects them to the
//! controller through per-processor TCP connections — the feedback
//! lanes.  [`DistributedLoop`] makes that split real: every sampling
//! period each processor node sends a [`Frame::UtilizationReport`] over
//! its lane, the controller node computes new rates and answers with one
//! [`Frame::RateCommand`] per lane, and the modulators merge whatever
//! arrived into the rates in force.
//!
//! Two lane substrates ship (see `eucon-net`): bounded in-process
//! channels — the *ideal lane*, whose closed-loop traces are
//! bit-identical to the single-process [`ClosedLoop`] — and real
//! loopback TCP multiplexed on one poll engine per node.  Network
//! effects (per-lane delay and loss) go through one [`DelayLossGate`]
//! per lane and direction on either substrate, configured through the
//! same [`LaneModel`] the single-process loop uses.
//!
//! Lost or late frames never stall the loop: a lane that stays silent
//! past the receive window is marked stale, the controller reuses the
//! lane's last delivered utilization (zero before the first delivery,
//! exactly like [`LaneModel`] loss), and the watchdog is notified via
//! [`RateController::note_stale`] so a dead lane eventually trips the
//! same degraded mode as a dead monitor.
//!
//! See DESIGN.md §13 for the node topology and the frame format.
//!
//! [`Frame::UtilizationReport`]: eucon_net::Frame::UtilizationReport
//! [`Frame::RateCommand`]: eucon_net::Frame::RateCommand
//! [`RateController::note_stale`]: eucon_control::RateController::note_stale

use std::ops::{Deref, DerefMut};
use std::time::{Duration, Instant};

use eucon_math::Vector;
use eucon_net::{
    channel_pair, tcp_lane_fabric, ChannelTransport, DelayLossGate, Frame, FrameKind, PollEngine,
    TcpConfig, Transport, TransportError, TransportStats,
};

use crate::telemetry::NetPeriod;
use crate::{ClosedLoop, CoreError, LaneModel, RunResult};

/// Which transport backend carries the feedback lanes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum NetBackend {
    /// In-process bounded channels with drop-oldest backpressure — the
    /// ideal lane (bit-identical traces to the single-process loop).
    Channel {
        /// Frames each direction may queue before the oldest is evicted.
        capacity: usize,
    },
    /// Real loopback TCP over `std::net`: every lane of a node
    /// multiplexed on one [`PollEngine`] (zero-copy decode,
    /// allocation-free sends, bounded per-lane send timeouts).  A lane
    /// that breaks stays down and reads as stale.
    Tcp(TcpConfig),
}

/// Transport configuration of a [`DistributedLoop`]: the backend plus
/// the network effects layered on each direction of every lane.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The transport backend.
    pub backend: NetBackend,
    /// Delay/loss applied to utilization reports (processor → controller).
    /// Lane `p` draws losses from `seed + p`, so lanes fail independently.
    pub report_lanes: LaneModel,
    /// Delay/loss applied to rate commands (controller → processor).
    pub command_lanes: LaneModel,
    /// How long each period's exchange waits for outstanding frames
    /// before declaring the silent lanes stale.  In-process channels
    /// deliver synchronously and want [`Duration::ZERO`]; TCP needs a
    /// small window for the kernel round trip.
    pub recv_timeout: Duration,
}

impl NetConfig {
    /// Ideal in-process lanes: bounded channels, no delay, no loss, no
    /// receive window (channel delivery is synchronous).
    pub fn channel() -> Self {
        NetConfig {
            backend: NetBackend::Channel { capacity: 4 },
            report_lanes: LaneModel::ideal(),
            command_lanes: LaneModel::ideal(),
            recv_timeout: Duration::ZERO,
        }
    }

    /// Loopback-TCP lanes multiplexed on the poll engine (one readiness
    /// sweep over every lane, zero-copy decode, allocation-free sends)
    /// with a 2 ms receive window.
    pub fn tcp_poll() -> Self {
        NetConfig {
            backend: NetBackend::Tcp(TcpConfig::default()),
            report_lanes: LaneModel::ideal(),
            command_lanes: LaneModel::ideal(),
            recv_timeout: Duration::from_millis(2),
        }
    }

    /// Replaces the report-lane delay/loss model.
    pub fn report_lanes(mut self, model: LaneModel) -> Self {
        self.report_lanes = model;
        self
    }

    /// Replaces the command-lane delay/loss model.
    pub fn command_lanes(mut self, model: LaneModel) -> Self {
        self.command_lanes = model;
        self
    }

    /// Overrides the per-period receive window.
    pub fn recv_timeout(mut self, window: Duration) -> Self {
        self.recv_timeout = window;
        self
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::channel()
    }
}

/// One node's side of every lane: the substrate a period's exchange runs
/// over.  Each variant contributes only how a frame leaves and how
/// arrivals are drained.
enum Endpoints {
    /// In-process bounded channels, one endpoint per lane.
    Channel(Vec<ChannelTransport>),
    /// Every lane a token on one poll engine.
    Poll(PollEngine),
}

impl Endpoints {
    /// Sends one frame on `lane` — straight onto the lane when the
    /// direction is ideal (`gates` is empty), otherwise through the
    /// lane's gate.  Send failures surface in the endpoint stats; the
    /// lane is simply stale this period.
    fn send(
        &mut self,
        gates: &mut [DelayLossGate],
        lane: usize,
        kind: FrameKind,
        seq: u64,
        period: u64,
        values: impl ExactSizeIterator<Item = f64>,
    ) {
        match (gates.get_mut(lane), self) {
            (Some(gate), ends) => {
                if let Some(frame) = gate.offer(owned_frame(kind, seq, period, values.collect())) {
                    ends.send_frame(lane, frame);
                }
            }
            (None, Endpoints::Channel(ends)) => {
                let _ = ends[lane].send(owned_frame(kind, seq, period, values.collect()));
            }
            // Ideal TCP lanes take the allocation-free path: the values
            // are encoded straight onto the socket.
            (None, Endpoints::Poll(engine)) => {
                let _ = engine.send(lane, kind, seq, period, 0, values);
            }
        }
    }

    fn send_frame(&mut self, lane: usize, frame: Frame) {
        let _ = match self {
            Endpoints::Channel(ends) => ends[lane].send(frame),
            Endpoints::Poll(engine) => engine.send_frame(lane, &frame),
        };
    }

    /// One period of the gates' clock: every frame whose delay elapsed
    /// crosses its lane or drops on its loss draw.
    fn tick(&mut self, gates: &mut [DelayLossGate]) {
        for (lane, gate) in gates.iter_mut().enumerate() {
            gate.tick(|frame| self.send_frame(lane, frame));
        }
    }

    /// Hands every frame waiting on `lane` to `f` as `(kind, seq,
    /// period, values)`; `values` is decode scratch for the poll engine.
    fn drain(
        &mut self,
        lane: usize,
        values: &mut Vec<f64>,
        mut f: impl FnMut(FrameKind, u64, u64, &[f64]),
    ) {
        match self {
            Endpoints::Channel(ends) => {
                while let Ok(Some(frame)) = ends[lane].try_recv() {
                    f(frame.kind(), frame.seq(), frame.period(), frame.values());
                }
            }
            Endpoints::Poll(engine) => {
                // Decode errors tear the lane down inside the engine; the
                // loop sees it as a stale lane.
                let _ = engine.drain(lane, |view| {
                    values.clear();
                    values.extend(view.values());
                    f(view.kind(), view.seq(), view.period(), values);
                });
            }
        }
    }

    /// This side's counters, with a gated direction reporting its offers
    /// as sends and folding its loss draws into drops, regardless of
    /// what reached the lane.
    fn stats(&self, gates: &[DelayLossGate]) -> TransportStats {
        let mut stats = match self {
            Endpoints::Channel(ends) => ends
                .iter()
                .fold(TransportStats::default(), |agg, t| agg.merge(&t.stats())),
            Endpoints::Poll(engine) => engine.stats(),
        };
        if !gates.is_empty() {
            stats.sent = gates.iter().map(DelayLossGate::accepted).sum();
            stats.dropped += gates.iter().map(DelayLossGate::lost).sum::<u64>();
        }
        stats
    }
}

/// An owned frame, for the lanes that carry frames by value (channels
/// and delay/loss gates).
fn owned_frame(kind: FrameKind, seq: u64, period: u64, values: Vec<f64>) -> Frame {
    match kind {
        FrameKind::RateCommand => Frame::RateCommand {
            seq,
            period,
            rates: values,
        },
        _ => Frame::UtilizationReport {
            seq,
            period,
            values,
        },
    }
}

/// Builds the per-lane gates of one direction (none when the model is
/// ideal — the transparent path costs nothing).  Lane `p` draws from
/// `model.seed + p`.
fn gates(model: &LaneModel, lanes: usize) -> Vec<DelayLossGate> {
    if model.report_delay == 0 && model.loss_probability == 0.0 {
        Vec::new()
    } else {
        (0..lanes)
            .map(|p| {
                DelayLossGate::new(
                    model.report_delay,
                    model.loss_probability,
                    model.seed.wrapping_add(p as u64),
                )
            })
            .collect()
    }
}

/// The transport side of a distributed loop: one bidirectional lane per
/// processor, the per-lane freshness/stale bookkeeping, and the merge
/// scratch for partially delivered rate commands.
///
/// Owned by the loop's feedback seam, which routes phase 4 (reports) and
/// phase 6 (commands) through it.
pub(crate) struct NetRuntime {
    /// Controller-node endpoints: reports in, commands out.
    ctrl: Endpoints,
    /// Processor-node endpoints: reports out, commands in.
    proc: Endpoints,
    /// Per-lane report-direction gates (empty when ideal).
    report_gates: Vec<DelayLossGate>,
    /// Per-lane command-direction gates (empty when ideal).
    command_gates: Vec<DelayLossGate>,
    backend_name: &'static str,
    recv_timeout: Duration,
    /// Tasks whose rate modulator lives on each processor, ascending —
    /// the payload layout of that lane's [`Frame::RateCommand`].
    tasks_of: Vec<Vec<usize>>,
    report_seq: u64,
    cmd_seq: u64,
    /// Last utilization each lane delivered (zeros before the first
    /// delivery) — what a stale lane's entry falls back to.
    hold: Vector,
    /// Whether a report arrived on the lane this period.
    fresh: Vec<bool>,
    /// Newest report / command sequence seen per lane (late duplicates
    /// never roll a lane backwards).
    last_report_seq: Vec<u64>,
    last_cmd_seq: Vec<u64>,
    /// Which lanes received this period's command (drain-loop exit).
    cmd_got: Vec<bool>,
    /// When this period's report left each processor node — the start of
    /// the lane's RTT measurement.
    sent_at: Vec<Option<Instant>>,
    /// Completed report→command round trips this period, nanoseconds.
    rtt_scratch: Vec<u64>,
    /// Rates in force merged with whatever commands arrived.
    cmd_scratch: Vector,
    /// Payload scratch for frames decoded off a socket.
    values: Vec<f64>,
    /// Frames not sent this period because the lane was partitioned.
    period_partition_lost: u64,
    /// Lanes whose hold value was reused this period.
    period_stale: u64,
    /// Aggregate endpoint stats at the last observation (delta source).
    last_stats: TransportStats,
}

impl NetRuntime {
    pub(crate) fn new(
        cfg: &NetConfig,
        num_procs: usize,
        head_proc: &[usize],
    ) -> Result<NetRuntime, CoreError> {
        for (dir, model) in [
            ("report", &cfg.report_lanes),
            ("command", &cfg.command_lanes),
        ] {
            if !(0.0..1.0).contains(&model.loss_probability) {
                return Err(CoreError::Config(format!(
                    "{dir}-lane loss probability must be in [0, 1), got {}",
                    model.loss_probability
                )));
            }
        }
        let (backend_name, ctrl, proc) = match &cfg.backend {
            NetBackend::Channel { capacity } => {
                if *capacity == 0 {
                    return Err(CoreError::Config("channel lanes need capacity >= 1".into()));
                }
                let (ctrl, proc) = (0..num_procs).map(|_| channel_pair(*capacity)).unzip();
                (
                    "channel",
                    Endpoints::Channel(ctrl),
                    Endpoints::Channel(proc),
                )
            }
            NetBackend::Tcp(tcp) => {
                let fabric = tcp_lane_fabric(tcp, num_procs).map_err(TransportError::from)?;
                (
                    "tcp-poll",
                    Endpoints::Poll(fabric.ctrl),
                    Endpoints::Poll(fabric.proc),
                )
            }
        };
        let mut tasks_of = vec![Vec::new(); num_procs];
        for (t, &p) in head_proc.iter().enumerate() {
            tasks_of[p].push(t);
        }
        Ok(NetRuntime {
            ctrl,
            proc,
            report_gates: gates(&cfg.report_lanes, num_procs),
            command_gates: gates(&cfg.command_lanes, num_procs),
            backend_name,
            recv_timeout: cfg.recv_timeout,
            tasks_of,
            report_seq: 0,
            cmd_seq: 0,
            hold: Vector::zeros(num_procs),
            fresh: vec![false; num_procs],
            last_report_seq: vec![0; num_procs],
            last_cmd_seq: vec![0; num_procs],
            cmd_got: vec![false; num_procs],
            sent_at: vec![None; num_procs],
            rtt_scratch: Vec::with_capacity(num_procs),
            cmd_scratch: Vector::zeros(head_proc.len()),
            values: Vec::new(),
            period_partition_lost: 0,
            period_stale: 0,
            last_stats: TransportStats::default(),
        })
    }

    /// Registers a newly-admitted task whose rate modulator lives on
    /// processor `head`.  The task takes the next command-vector slot
    /// (slots are never recycled, so the new id is the largest and the
    /// per-lane ascending payload layout is preserved on both endpoints
    /// of the lane).
    pub(crate) fn add_task(&mut self, head: usize) {
        let t = self.cmd_scratch.len();
        self.tasks_of[head].push(t);
        self.cmd_scratch.push(0.0);
    }

    /// Phase 4 of a distributed period: each processor node sends its
    /// utilization over its lane, the controller node collects what
    /// arrives and fills silent lanes from the hold values.
    ///
    /// Returns `None` when the delivered vector is bit-identical to
    /// `u_report` (the ideal-lane common case — nothing to record),
    /// mirroring `LaneState::transmit`.
    pub(crate) fn exchange_reports(
        &mut self,
        k: usize,
        u_report: &Vector,
        partitioned: &[usize],
    ) -> Option<Vector> {
        let n = self.fresh.len();
        self.rtt_scratch.clear();
        self.period_partition_lost = 0;
        self.report_seq += 1;
        let seq = self.report_seq;
        for p in 0..n {
            self.fresh[p] = false;
            if partitioned.contains(&p) {
                self.period_partition_lost += 1;
                self.sent_at[p] = None;
                continue;
            }
            self.sent_at[p] = Some(Instant::now());
            self.proc.send(
                &mut self.report_gates,
                p,
                FrameKind::UtilizationReport,
                seq,
                k as u64,
                std::iter::once(u_report[p]),
            );
        }
        self.proc.tick(&mut self.report_gates);
        // Controller node: drain until every reachable lane delivered at
        // least one report or the receive window closes.  In-process
        // channels deliver synchronously, so the first pass suffices.
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            for p in 0..n {
                if partitioned.contains(&p) {
                    continue;
                }
                let (hold, fresh, last_seq) =
                    (&mut self.hold, &mut self.fresh, &mut self.last_report_seq);
                self.ctrl
                    .drain(p, &mut self.values, |kind, seq, _, values| {
                        // A delayed frame still counts as the delivery — the
                        // controller acts on u(k − d), exactly like the
                        // in-loop lane model.
                        if kind == FrameKind::UtilizationReport
                            && seq >= last_seq[p]
                            && !values.is_empty()
                        {
                            last_seq[p] = seq;
                            hold[p] = values[0];
                            fresh[p] = true;
                        }
                    });
            }
            let missing = (0..n).any(|p| !self.fresh[p] && !partitioned.contains(&p));
            if !missing || Instant::now() >= deadline {
                break;
            }
            std::thread::yield_now();
        }
        self.period_stale = self.fresh.iter().filter(|f| !**f).count() as u64;
        let identical = (0..n).all(|p| self.hold[p].to_bits() == u_report[p].to_bits());
        if identical {
            None
        } else {
            Some(self.hold.clone())
        }
    }

    /// Whether lane `p` delivered nothing in the last exchange (its hold
    /// value was reused).
    pub(crate) fn lane_stale(&self, p: usize) -> bool {
        !self.fresh[p]
    }

    /// Phase 6 of a distributed period: the controller node routes each
    /// processor's slice of `cmd` over its lane; the modulators merge
    /// what arrives into the rates `in_force` (a lane that delivers
    /// nothing keeps its tasks' rates unchanged).
    pub(crate) fn actuate(
        &mut self,
        k: usize,
        cmd: &Vector,
        in_force: &[f64],
        partitioned: &[usize],
    ) -> &Vector {
        let n = self.cmd_got.len();
        self.cmd_scratch.copy_from_slice(in_force);
        self.cmd_seq += 1;
        let seq = self.cmd_seq;
        for p in 0..n {
            self.cmd_got[p] = false;
            if partitioned.contains(&p) {
                self.period_partition_lost += 1;
                continue;
            }
            self.ctrl.send(
                &mut self.command_gates,
                p,
                FrameKind::RateCommand,
                seq,
                k as u64,
                self.tasks_of[p].iter().map(|&t| cmd[t]),
            );
        }
        self.ctrl.tick(&mut self.command_gates);
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            for p in 0..n {
                if partitioned.contains(&p) {
                    continue;
                }
                let tasks = &self.tasks_of[p];
                let (merged, got, last_seq) = (
                    &mut self.cmd_scratch,
                    &mut self.cmd_got,
                    &mut self.last_cmd_seq,
                );
                let (sent_at, rtt) = (&mut self.sent_at, &mut self.rtt_scratch);
                self.proc
                    .drain(p, &mut self.values, |kind, seq, period, rates| {
                        if kind != FrameKind::RateCommand || seq < last_seq[p] {
                            return;
                        }
                        last_seq[p] = seq;
                        // A command delayed past its period still takes
                        // effect when it arrives (honest lane delay).
                        if rates.len() == tasks.len() {
                            for (&t, &r) in tasks.iter().zip(rates) {
                                merged[t] = r;
                            }
                        }
                        if period == k as u64 {
                            got[p] = true;
                            if let Some(at) = sent_at[p].take() {
                                rtt.push(at.elapsed().as_nanos() as u64);
                            }
                        }
                    });
            }
            let missing = (0..n).any(|p| !self.cmd_got[p] && !partitioned.contains(&p));
            if !missing || Instant::now() >= deadline {
                break;
            }
            std::thread::yield_now();
        }
        &self.cmd_scratch
    }

    /// Aggregate stats over every endpoint of every lane (both sides, so
    /// report and command traffic are both counted once, at the sender
    /// and the receiver respectively).
    pub(crate) fn aggregate_stats(&self) -> TransportStats {
        self.ctrl
            .stats(&self.command_gates)
            .merge(&self.proc.stats(&self.report_gates))
    }

    /// Lanes whose hold value was reused in the last exchange — the
    /// health signal the control service's eviction policy watches.
    pub(crate) fn stale_lanes(&self) -> u64 {
        self.period_stale
    }

    pub(crate) fn backend_name(&self) -> &'static str {
        self.backend_name
    }

    /// This period's transport activity for the telemetry registry
    /// (per-period deltas of the cumulative endpoint stats, plus the
    /// period-local stale/partition/RTT bookkeeping).
    pub(crate) fn period_observation(&mut self) -> NetPeriod<'_> {
        let agg = self.aggregate_stats();
        let last = self.last_stats;
        self.last_stats = agg;
        NetPeriod {
            sent: agg.sent.saturating_sub(last.sent),
            received: agg.received.saturating_sub(last.received),
            lost: agg.dropped.saturating_sub(last.dropped) + self.period_partition_lost,
            reconnects: agg.reconnects.saturating_sub(last.reconnects),
            decode_errors: agg.decode_errors.saturating_sub(last.decode_errors),
            stale_reuse: self.period_stale,
            rtt_ns: &self.rtt_scratch,
        }
    }
}

impl std::fmt::Debug for NetRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetRuntime")
            .field("backend", &self.backend_name)
            .field("lanes", &self.fresh.len())
            .finish_non_exhaustive()
    }
}

/// A [`ClosedLoop`] whose feedback lanes are real transport lanes: a
/// controller node and one node per processor exchanging versioned
/// binary frames each sampling period.  Built by
/// [`crate::LoopBuilder::distributed`].
///
/// Dereferences to [`ClosedLoop`], so `step`, `run`, `telemetry` and the
/// rest of the loop API work unchanged.  Over the ideal in-process
/// backend the traces are bit-identical to the single-process loop; over
/// TCP (or with lossy/delayed lanes) the loop degrades the same way the
/// in-loop [`LaneModel`] does — stale lanes reuse the last delivered
/// value and the watchdog is told.
///
/// # Example
///
/// ```
/// use eucon_core::{ControllerSpec, LoopBuilder, NetConfig};
/// use eucon_sim::SimConfig;
/// use eucon_tasks::workloads;
///
/// # fn main() -> Result<(), eucon_core::CoreError> {
/// let mut dl = LoopBuilder::new(workloads::simple())
///     .sim_config(SimConfig::constant_etf(0.5))
///     .controller(ControllerSpec::Eucon(eucon_control::MpcConfig::simple()))
///     .distributed(NetConfig::channel())?;
/// let result = dl.run(50);
/// assert_eq!(result.control_errors, 0);
/// assert!(dl.transport_stats().sent > 0);
/// # Ok(())
/// # }
/// ```
pub struct DistributedLoop {
    inner: ClosedLoop,
}

impl DistributedLoop {
    /// Wraps a closed loop whose lanes were already attached.
    pub(crate) fn from_inner(inner: ClosedLoop) -> Self {
        DistributedLoop { inner }
    }

    /// Aggregate transport counters over every lane endpoint.
    pub fn transport_stats(&self) -> TransportStats {
        self.inner
            .transport()
            .map(NetRuntime::aggregate_stats)
            .unwrap_or_default()
    }

    /// The transport backend label (`"channel"` or `"tcp-poll"`).
    pub fn backend_name(&self) -> &'static str {
        self.inner
            .transport()
            .map_or("none", NetRuntime::backend_name)
    }

    /// Lanes whose hold value was reused in the last period.
    pub(crate) fn stale_lanes(&self) -> u64 {
        self.inner.transport().map_or(0, NetRuntime::stale_lanes)
    }

    /// Consumes the loop, returning the final result.
    pub fn into_result(self) -> RunResult {
        self.inner.into_result()
    }
}

impl Deref for DistributedLoop {
    type Target = ClosedLoop;

    fn deref(&self) -> &ClosedLoop {
        &self.inner
    }
}

impl DerefMut for DistributedLoop {
    fn deref_mut(&mut self) -> &mut ClosedLoop {
        &mut self.inner
    }
}

impl std::fmt::Debug for DistributedLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedLoop")
            .field("backend", &self.backend_name())
            .field("inner", &self.inner)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ControllerSpec, LoopBuilder};
    use eucon_control::MpcConfig;
    use eucon_sim::{FaultPlan, SimConfig};
    use eucon_tasks::workloads;

    fn simple() -> LoopBuilder {
        LoopBuilder::new(workloads::simple())
            .sim_config(SimConfig::constant_etf(0.5))
            .controller(ControllerSpec::Eucon(MpcConfig::simple()))
    }

    fn single(periods: usize) -> RunResult {
        simple().local().unwrap().run(periods)
    }

    fn channel(capacity: usize) -> NetConfig {
        NetConfig {
            backend: NetBackend::Channel { capacity },
            ..NetConfig::channel()
        }
    }

    #[test]
    fn ideal_channel_lanes_match_the_single_process_loop_bitwise() {
        let want = single(40);
        let mut dl = simple().distributed(NetConfig::channel()).unwrap();
        let got = dl.run(40);
        assert_eq!(dl.backend_name(), "channel");
        assert_eq!(got.trace, want.trace, "traces must be bit-identical");
        assert_eq!(got.control_errors, 0);
        // Every step delivered unchanged — no received vectors recorded.
        assert!(got.trace.steps().iter().all(|s| s.received.is_none()));
        // 2 lanes × (1 report + 1 command) × 40 periods.
        let stats = dl.transport_stats();
        assert_eq!(stats.sent, 160);
        assert_eq!(stats.received, 160);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn lossy_report_lanes_reuse_the_hold_value_and_count_stale() {
        let mut dl = simple()
            .distributed(NetConfig::channel().report_lanes(LaneModel::lossy(0.3, 11)))
            .unwrap();
        let result = dl.run(60);
        assert_eq!(result.control_errors, 0);
        let stats = dl.transport_stats();
        assert!(stats.dropped > 0, "30% loss must drop frames");
        let stale = result.telemetry.counter("stale_report_reuse").unwrap();
        assert!(stale > 0, "lost reports reuse the hold value");
        assert_eq!(result.telemetry.counter("frames_lost"), Some(stats.dropped));
        // Loss shows up as received vectors differing from the truth.
        assert!(result.trace.steps().iter().any(|s| s.received.is_some()));
    }

    #[test]
    fn delayed_report_lanes_shift_what_the_controller_sees() {
        let mut dl = simple()
            .distributed(channel(8).report_lanes(LaneModel::delayed(2)))
            .unwrap();
        let result = dl.run(20);
        let steps = result.trace.steps();
        // The first two periods deliver nothing: the controller saw zeros.
        for (k, step) in steps.iter().enumerate().take(2) {
            let seen = step.seen();
            assert!((0..2).all(|p| seen[p] == 0.0), "period {k} not held at 0");
        }
        // From period 2 on, the controller sees u(k − 2) bit-for-bit.
        for k in 2..20 {
            let seen = steps[k].seen();
            for p in 0..2 {
                assert_eq!(
                    seen[p].to_bits(),
                    steps[k - 2].utilization[p].to_bits(),
                    "period {k} lane {p}"
                );
            }
        }
    }

    #[test]
    fn tcp_lanes_run_the_loop_with_zero_errors() {
        let want = single(30);
        let mut dl = simple()
            // A generous window keeps the bit-exactness assertions below
            // deterministic even on a loaded CI machine.
            .distributed(NetConfig::tcp_poll().recv_timeout(Duration::from_millis(50)))
            .unwrap();
        let result = dl.run(30);
        assert_eq!(dl.backend_name(), "tcp-poll");
        assert_eq!(result.control_errors, 0);
        // Loopback TCP is fast and lossless: everything arrived, so the
        // trace is the single-process one and records no mutated
        // deliveries.
        assert_eq!(result.trace, want.trace, "poll lanes must be lossless");
        assert!(result.trace.steps().iter().all(|s| s.received.is_none()));
        let stats = dl.transport_stats();
        assert_eq!(stats.sent, 120, "2 lanes × 2 directions × 30 periods");
        assert_eq!(stats.received, 120);
        assert_eq!(stats.decode_errors, 0);
        assert!(stats.bytes_sent > 0, "real bytes crossed the wire");
        assert!(
            result.telemetry.histogram("lane_rtt_ns").unwrap().count > 0,
            "round trips were measured"
        );
    }

    #[test]
    fn partitioned_lanes_freeze_reports_and_commands() {
        let mut dl = simple()
            .faults(FaultPlan::none().partition(1, 10, 15))
            .distributed(NetConfig::channel())
            .unwrap();
        let result = dl.run(30);
        assert_eq!(result.faults.partitioned_periods, 5);
        let steps = result.trace.steps();
        assert_eq!(steps[10].annotations.partitioned, vec![1]);
        assert!(steps[9].annotations.partitioned.is_empty());
        // During the partition the controller sees lane 1's last delivery.
        let held = steps[9].utilization[1];
        for (k, step) in steps.iter().enumerate().take(15).skip(10) {
            assert_eq!(
                step.seen()[1].to_bits(),
                held.to_bits(),
                "period {k} must reuse the pre-partition report"
            );
        }
        // After it heals, fresh reports flow again.
        assert!(steps[16].received.is_none());
        assert!(
            result.telemetry.counter("stale_report_reuse").unwrap() >= 5,
            "each partitioned period reused the hold value"
        );
    }

    #[test]
    fn poll_engine_lossy_lanes_reuse_hold_values() {
        let net = NetConfig::tcp_poll()
            .recv_timeout(Duration::from_millis(20))
            .report_lanes(LaneModel::lossy(0.3, 11));
        let mut dl = simple().distributed(net).unwrap();
        let result = dl.run(60);
        assert_eq!(result.control_errors, 0);
        let stats = dl.transport_stats();
        assert!(stats.dropped > 0, "30% loss must drop frames");
        assert_eq!(stats.decode_errors, 0);
        let stale = result.telemetry.counter("stale_report_reuse").unwrap();
        assert!(stale > 0, "lost reports reuse the hold value");
        assert!(result.trace.steps().iter().any(|s| s.received.is_some()));
    }

    #[test]
    fn poll_engine_loss_draws_match_the_channel_lanes() {
        // Same seeds, same models: both substrates send through the same
        // per-lane gates, so they must drop the exact same frames and the
        // traces are bit-identical.
        let run = |net: NetConfig| {
            simple()
                .distributed(
                    net.report_lanes(LaneModel::lossy(0.25, 5))
                        .command_lanes(LaneModel::delayed(1)),
                )
                .unwrap()
                .run(40)
        };
        let channel = run(NetConfig::channel());
        let poll = run(NetConfig::tcp_poll().recv_timeout(Duration::from_millis(50)));
        assert!(channel.trace.steps().iter().any(|s| s.received.is_some()));
        assert_eq!(channel.trace, poll.trace, "substrates diverged under loss");
    }

    #[test]
    fn build_rejects_zero_capacity_and_bad_loss() {
        let err = simple().distributed(channel(0)).unwrap_err();
        assert!(matches!(err, CoreError::Config(ref m) if m.contains("capacity")));
        let err = simple()
            .distributed(NetConfig::channel().report_lanes(LaneModel {
                report_delay: 0,
                loss_probability: 1.0,
                seed: 0,
            }))
            .unwrap_err();
        assert!(matches!(err, CoreError::Config(ref m) if m.contains("loss probability")));
    }
}
