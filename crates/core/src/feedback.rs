//! The feedback path of a closed loop (the paper's §4): utilization
//! monitor → report lane → controller → command lane → rate modulator.
//!
//! [`Feedback`] is the one seam the period step talks to between
//! sensing and actuation.  It owns everything that happens on the
//! lanes: the report exchange, per-lane staleness, lane partitions, the
//! actuation-delay queue, actuation-lane drops and the command merge.
//! Two kinds of lanes sit behind it:
//!
//! * **local** — the in-loop [`LaneModel`] (delay/loss of the report
//!   vector) plus the hold that partitioned lanes fall back to;
//! * **transport** — real lanes ([`NetRuntime`]): a controller node and
//!   one node per processor exchanging frames each period.

use eucon_control::RateController;
use eucon_math::Vector;
use eucon_sim::{FaultInjector, FaultPlan};

use crate::distributed::{NetConfig, NetRuntime};
use crate::lanes::LaneState;
use crate::telemetry::NetPeriod;
use crate::trace::StepAnnotations;
use crate::{CoreError, LaneModel};

/// The lanes between the monitors/modulators and the controller.
enum Lanes {
    /// The in-loop lane model.  `hold` keeps each lane's last delivery
    /// when the fault plan partitions lanes (`None` otherwise: nothing
    /// to hold, nothing to maintain).
    Local {
        model: LaneState,
        hold: Option<Vector>,
    },
    /// Real transport lanes.
    Transport(Box<NetRuntime>),
}

/// The feedback seam of a [`crate::ClosedLoop`]; see the module docs.
pub(crate) struct Feedback {
    lanes: Lanes,
    /// One lane per processor.
    num_procs: usize,
    /// Processor hosting each task's rate modulator (its first
    /// subtask): lane faults act on commands through this map.
    head_proc: Vec<usize>,
    /// Commands in flight on a delayed actuation path (`None` = no
    /// actuation delay).
    delay: Option<CommandRing>,
    /// A command with some lanes' entries held at the rates in force
    /// (persistent scratch).
    merged: Vector,
    /// Processors whose actuation lane dropped this period (scratch).
    dropped: Vec<usize>,
}

impl Feedback {
    /// In-loop lanes under `model` for `num_procs` processors, with the
    /// partitions and actuation delay of the fault plan.
    pub(crate) fn local(
        model: LaneModel,
        faults: &FaultPlan,
        num_procs: usize,
        head_proc: Vec<usize>,
    ) -> Self {
        let num_tasks = head_proc.len();
        let delay = faults.actuation_delay_periods();
        Feedback {
            lanes: Lanes::Local {
                model: LaneState::new(model),
                hold: faults.has_partitions().then(|| Vector::zeros(num_procs)),
            },
            num_procs,
            head_proc,
            delay: (delay > 0).then(|| CommandRing::new(delay, num_tasks)),
            merged: Vector::zeros(num_tasks),
            dropped: Vec::new(),
        }
    }

    /// Replaces the in-loop lanes with real transport lanes (the loop
    /// must not have stepped).
    pub(crate) fn connect(&mut self, cfg: &NetConfig) -> Result<(), CoreError> {
        let net = NetRuntime::new(cfg, self.num_procs, &self.head_proc)?;
        self.lanes = Lanes::Transport(Box::new(net));
        Ok(())
    }

    /// The transport lanes, in distributed mode.
    pub(crate) fn transport(&self) -> Option<&NetRuntime> {
        match &self.lanes {
            Lanes::Transport(net) => Some(net),
            Lanes::Local { .. } => None,
        }
    }

    /// Routes a newly admitted task's commands to its head processor.
    pub(crate) fn add_task(&mut self, head: usize) {
        self.head_proc.push(head);
        if let Lanes::Transport(net) = &mut self.lanes {
            net.add_task(head);
        }
    }

    /// Phase 4: the report crosses the lanes.  Returns what the
    /// controller receives — `None` when that is `report` itself, bit for
    /// bit — and tells the controller which lanes went stale, so a
    /// watchdog treats them like dead monitors.
    pub(crate) fn exchange(
        &mut self,
        k: usize,
        report: &Vector,
        partitioned: &[usize],
        controller: &mut dyn RateController,
    ) -> Option<Vector> {
        match &mut self.lanes {
            Lanes::Transport(net) => {
                let delivered = net.exchange_reports(k, report, partitioned);
                for p in 0..self.num_procs {
                    if net.lane_stale(p) {
                        controller.note_stale(p);
                    }
                }
                delivered
            }
            Lanes::Local { model, hold } => {
                let mut delivered = model.transmit(report);
                if let Some(hold) = hold {
                    // A partitioned lane delivers nothing: the controller
                    // keeps the lane's last delivered value.
                    if !partitioned.is_empty() {
                        let mut v = delivered.take().unwrap_or_else(|| report.clone());
                        for &p in partitioned {
                            v[p] = hold[p];
                        }
                        delivered = Some(v);
                    }
                    let seen = delivered.as_ref().unwrap_or(report);
                    for p in 0..self.num_procs {
                        if !partitioned.contains(&p) {
                            hold[p] = seen[p];
                        }
                    }
                }
                for &p in partitioned {
                    controller.note_stale(p);
                }
                delivered
            }
        }
    }

    /// Phase 6: the command crosses the actuation path — the delay
    /// queue, actuation-lane drops, then the lanes.  Returns the rates
    /// the modulators apply, or `None` when nothing arrives this period
    /// (the rates in force stay).  Ideal local lanes hand `cmd` through
    /// by reference.
    pub(crate) fn actuate<'a>(
        &'a mut self,
        k: usize,
        cmd: &'a Vector,
        in_force: &[f64],
        injector: Option<&mut FaultInjector>,
        ann: &mut StepAnnotations,
    ) -> Option<&'a Vector> {
        let Feedback {
            lanes,
            num_procs,
            head_proc,
            delay,
            merged,
            dropped,
        } = self;
        let mut cmd = cmd;
        if let Some(ring) = delay {
            // Nothing crosses a delayed path until its pipe fills.
            cmd = ring.cycle(cmd, in_force)?;
        }
        dropped.clear();
        if let Some(inj) = injector {
            dropped.extend((0..*num_procs).filter(|&p| inj.actuation_lost(p)));
            if !dropped.is_empty() {
                ann.actuation_dropped = dropped.clone();
            }
        }
        // A dropped lane, or a partitioned local one, delivers nothing:
        // every task modulated there keeps its rate in force.  (Transport
        // lanes silence partitioned lanes themselves.)
        let local = matches!(lanes, Lanes::Local { .. });
        if !dropped.is_empty() || (local && !ann.partitioned.is_empty()) {
            merged.clone_from(cmd);
            for (t, p) in head_proc.iter().enumerate() {
                if dropped.contains(p) || (local && ann.partitioned.contains(p)) {
                    merged[t] = in_force[t];
                }
            }
            cmd = merged;
        }
        match lanes {
            Lanes::Transport(net) => Some(net.actuate(k, cmd, in_force, &ann.partitioned)),
            Lanes::Local { .. } => Some(cmd),
        }
    }

    /// This period's transport activity, in distributed mode.
    pub(crate) fn observation(&mut self) -> Option<NetPeriod<'_>> {
        match &mut self.lanes {
            Lanes::Transport(net) => Some(net.period_observation()),
            Lanes::Local { .. } => None,
        }
    }
}

/// The actuation-delay queue: a preallocated ring of `delay + 1`
/// command slots, rewritten in place every period.
struct CommandRing {
    slots: Vec<Vector>,
    /// Slot of the oldest command in flight.
    head: usize,
    /// Commands in flight.
    len: usize,
}

impl CommandRing {
    fn new(delay: usize, num_tasks: usize) -> Self {
        CommandRing {
            slots: vec![Vector::zeros(num_tasks); delay + 1],
            head: 0,
            len: 0,
        }
    }

    /// Queues this period's command and returns the one issued `delay`
    /// periods ago, if any — padded with the rates in force for tasks
    /// admitted since it was issued.
    fn cycle(&mut self, cmd: &Vector, in_force: &[f64]) -> Option<&Vector> {
        let cap = self.slots.len();
        // `clone_from`, not `copy_from`: an admission grows the command.
        self.slots[(self.head + self.len) % cap].clone_from(cmd);
        self.len += 1;
        if self.len < cap {
            return None;
        }
        let oldest = self.head;
        self.head = (self.head + 1) % cap;
        self.len -= 1;
        let out = &mut self.slots[oldest];
        while out.len() < in_force.len() {
            out.push(in_force[out.len()]);
        }
        Some(out)
    }
}
