//! The four benchmark workloads: generated inputs plus the one
//! `LoopBuilder` description each of them is driven through.

use std::sync::Arc;
use std::time::Duration;

use eucon_control::MpcConfig;
use eucon_core::{
    AdmissionPolicy, BoundaryMode, ChurnPlan, ClosedLoop, ControllerSpec, CoreError,
    DistributedLoop, LoopBuilder, NetConfig, PlantFactory, DEFAULT_SAMPLING_PERIOD,
};
use eucon_sim::{EtfProfile, ExecModel, SimConfig};
use eucon_tasks::workloads::{self, RandomWorkload};
use eucon_tasks::{TaskId, TaskSet};

/// How one workload is measured.  This table is the one place a
/// workload is sized; `run.py` reads it back from each pass's report.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Periods one pass runs (warm-up included) unless capped lower.
    /// The generated inputs cover exactly these periods, so every pass
    /// of a workload steps (and sets up) the same inputs however fast
    /// the host or the code under test is.
    pub periods: usize,
    /// Periods stepped before timing starts (discarded).
    pub warmup: usize,
    /// Timed constructions of the loop per pass; their median is
    /// `setup_s`.
    pub setups: usize,
    /// Whether the paper's tracking gate (`track_err` <= 0.03) applies:
    /// only to a static task set.
    pub track_gated: bool,
    /// A period still running after this much host time has stalled.
    pub stall_limit: Duration,
}

/// The stall limit of a MEDIUM pass: some 2,500 of its ~0.1 ms periods.
/// Every MEDIUM pass stalls (see NOTES.md) and waits this long before it
/// ends, so a short limit leaves a run more passes.
const MEDIUM_STALL: Duration = Duration::from_millis(250);

/// Every workload, in the order the notes list them.  A MEDIUM pass is
/// 2^15 periods (~3 s at ~10k periods/s), which crosses simulated time
/// 2^24 (see NOTES.md); a `shard-256` pass is 450 periods (~5 s at ~90
/// periods/s).
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "medium-exp2",
        periods: 1 << 15,
        warmup: 500,
        setups: 101,
        track_gated: true,
        stall_limit: MEDIUM_STALL,
    },
    Spec {
        name: "poll-medium",
        periods: 1 << 15,
        warmup: 500,
        setups: 21,
        track_gated: true,
        stall_limit: MEDIUM_STALL,
    },
    Spec {
        name: "churn-medium",
        periods: 1 << 15,
        warmup: 500,
        setups: 101,
        track_gated: false,
        stall_limit: MEDIUM_STALL,
    },
    Spec {
        name: "shard-256",
        periods: 450,
        warmup: 100,
        setups: 5,
        track_gated: true,
        stall_limit: Duration::from_secs(2),
    },
];

/// Experiment II's execution-time factors, one step every 100 periods.
const EXP2_ETF: [f64; 3] = [0.5, 0.9, 0.33];
const EXP2_STEP_PERIODS: usize = 100;

/// Every workload draws execution times uniformly within ±20% of the
/// mean, as paper MEDIUM does (§7.1); the seed drives these draws.
const EXEC: ExecModel = ExecModel::Uniform { half_width: 0.2 };

/// One workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// How the workload is measured.
    pub spec: Spec,
    set: TaskSet,
    sim: SimConfig,
    controller: ControllerSpec,
    churn: Option<ChurnPlan>,
    distributed: bool,
}

/// A loop built through the front door, local or distributed.
pub enum Loop {
    /// `LoopBuilder::local`.
    Local(ClosedLoop),
    /// `LoopBuilder::distributed(NetConfig::tcp_poll())`.
    Distributed(DistributedLoop),
}

impl Loop {
    /// The closed loop every mode steps.
    pub fn inner(&mut self) -> &mut ClosedLoop {
        match self {
            Loop::Local(cl) => cl,
            Loop::Distributed(dl) => dl,
        }
    }

    /// Read-only view of the closed loop.
    pub fn inner_ref(&self) -> &ClosedLoop {
        match self {
            Loop::Local(cl) => cl,
            Loop::Distributed(dl) => dl,
        }
    }

    /// `(frames, bytes, decode errors, dropped)` over every lane; `None`
    /// for a local loop.
    pub fn transport(&self) -> Option<[u64; 4]> {
        match self {
            Loop::Local(_) => None,
            Loop::Distributed(dl) => {
                let s = dl.transport_stats();
                Some([s.sent, s.bytes_sent, s.decode_errors, s.dropped])
            }
        }
    }
}

/// Vigna's SplitMix64: the benchmark's own input generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A stationary churn plan over `periods` periods: each period a clone
/// of a uniformly drawn template arrives with probability `p_arrival`,
/// and each task that arrived departs with probability `p_departure`
/// per period.  The initial tasks stay, so the extra population is a
/// birth-death process with mean `p_arrival / p_departure` and arrivals
/// balance departures in the long run.  (`ChurnPlan::poisson` departs
/// any live task, initial ones included: its population is a random
/// walk that wanders further from MEDIUM the longer a run lasts.)
fn transient_churn(
    set: &TaskSet,
    periods: usize,
    p_arrival: f64,
    p_departure: f64,
    seed: u64,
) -> ChurnPlan {
    let mut rng = SplitMix64(seed);
    let templates = set.tasks();
    let mut plan = ChurnPlan::none();
    let mut live: Vec<TaskId> = Vec::new();
    let mut next_id = set.num_tasks();
    for period in 1..periods {
        let mut i = 0;
        while i < live.len() {
            if rng.f64() < p_departure {
                plan = plan.departure(period, live.swap_remove(i));
            } else {
                i += 1;
            }
        }
        if rng.f64() < p_arrival {
            let task = templates[rng.below(templates.len())].clone();
            plan = plan.arrival(period, task);
            live.push(TaskId(next_id));
            next_id += 1;
        }
    }
    plan
}

impl Workload {
    /// Generates the inputs of workload `name` from `seed` for its
    /// `spec.periods` periods.
    pub fn generate(name: &str, seed: u64) -> Result<Workload, String> {
        let Some(&spec) = WORKLOADS.iter().find(|w| w.name == name) else {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload '{name}' (known: {})",
                known.join(", ")
            ));
        };
        let medium_exp2 = || {
            let steps: Vec<(f64, f64)> = (0..=spec.periods / EXP2_STEP_PERIODS)
                .map(|i| {
                    let start = (i * EXP2_STEP_PERIODS) as f64 * DEFAULT_SAMPLING_PERIOD;
                    (start, EXP2_ETF[i % EXP2_ETF.len()])
                })
                .collect();
            SimConfig::constant_etf(EXP2_ETF[0])
                .etf(EtfProfile::steps(&steps))
                .exec_model(EXEC)
                .seed(seed)
        };
        let w = match spec.name {
            "medium-exp2" | "poll-medium" => Workload {
                spec,
                set: workloads::medium(),
                sim: medium_exp2(),
                controller: ControllerSpec::Eucon(MpcConfig::medium()),
                churn: None,
                distributed: spec.name == "poll-medium",
            },
            "churn-medium" => {
                let set = workloads::medium();
                let churn = transient_churn(&set, spec.periods, 0.02, 0.02, seed);
                Workload {
                    spec,
                    set,
                    sim: SimConfig::constant_etf(0.9).exec_model(EXEC).seed(seed),
                    controller: ControllerSpec::Eucon(MpcConfig::medium()),
                    churn: Some(churn),
                    distributed: false,
                }
            }
            // "shard-256"
            _ => Workload {
                spec,
                set: RandomWorkload::new(256, 768)
                    .seed(21)
                    .locality(2)
                    .max_chain_len(3)
                    .generate(),
                sim: SimConfig::constant_etf(4.0).exec_model(EXEC).seed(seed),
                controller: ControllerSpec::Sharded {
                    mpc: MpcConfig::medium(),
                    shard_size: 16,
                    boundary: BoundaryMode::InProcess,
                },
                churn: None,
                distributed: false,
            },
        };
        Ok(w)
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        self.spec.name
    }

    /// The task set the loop starts from.
    pub fn task_set(&self) -> &TaskSet {
        &self.set
    }

    /// The controller description.
    pub fn controller(&self) -> &ControllerSpec {
        &self.controller
    }

    /// Whether membership churn (and so admission) runs.
    pub fn has_churn(&self) -> bool {
        self.churn.is_some()
    }

    /// The builder for this workload, trace recording off.  Cloning the
    /// inputs happens here, so callers timing `build` time only the
    /// loop's own construction.
    pub fn builder(&self, plant: Option<Arc<dyn PlantFactory>>) -> LoopBuilder {
        let mut b = LoopBuilder::new(self.set.clone())
            .sim_config(self.sim.clone())
            .controller(self.controller.clone())
            .record_trace(false);
        if let Some(plan) = &self.churn {
            b = b.churn(plan.clone()).admission(AdmissionPolicy {
                admit_threshold: 1.25,
                ..AdmissionPolicy::default()
            });
        }
        if let Some(factory) = plant {
            b = b.plant(factory);
        }
        b
    }

    /// Finishes a builder in this workload's execution mode.
    pub fn build(&self, builder: LoopBuilder) -> Result<Loop, CoreError> {
        if self.distributed {
            builder
                .distributed(NetConfig::tcp_poll())
                .map(Loop::Distributed)
        } else {
            builder.local().map(Loop::Local)
        }
    }
}
