//! Golden pins for the lane paths the four closed-loop scenarios never
//! reach: delayed and lossy in-loop lanes, lossy transport lanes in both
//! directions, and lane partitions in both loop flavours.
//!
//! Every run is MEDIUM (the golden `MediumFaultFree` plant and
//! controller) for [`GOLDEN_PERIODS`] periods, hashed with the shared
//! [`hash_result`].  The constants were captured from the loop before
//! its feedback path was collapsed into one seam; any refactor of the
//! lanes must keep them bit for bit.

mod trace_hash;

use eucon_control::MpcConfig;
use eucon_core::{ControllerSpec, LaneModel, LoopBuilder, NetConfig, RunResult};
use eucon_sim::{ExecModel, FaultPlan, SimConfig};
use eucon_tasks::workloads;
use trace_hash::{hash_result, GOLDEN_PERIODS};

const LANE_LOCAL_DELAYED: u64 = 0xa508_d815_f2d1_9e09;
const LANE_LOCAL_LOSSY: u64 = 0xd54b_7d8e_57eb_f553;
const LANE_CHANNEL_LOSSY: u64 = 0x86e0_1244_58d2_55f4;
/// A partition silences the lane in both directions the same way in
/// either loop flavour, so the two pins share one value.
const PARTITION_LOCAL: u64 = 0x6991_0fc8_503b_e62b;
const PARTITION_CHANNEL: u64 = 0x6991_0fc8_503b_e62b;

fn medium() -> LoopBuilder {
    LoopBuilder::new(workloads::medium())
        .sim_config(
            SimConfig::constant_etf(1.0)
                .exec_model(ExecModel::Uniform { half_width: 0.2 })
                .seed(1),
        )
        .controller(ControllerSpec::Eucon(MpcConfig::medium()))
}

/// Processor 2's lane is cut for periods 10..20.
fn partition() -> FaultPlan {
    FaultPlan::none().partition(2, 10, 20)
}

fn local(b: LoopBuilder) -> RunResult {
    b.local().expect("local loop").run(GOLDEN_PERIODS)
}

fn channel(b: LoopBuilder, net: NetConfig) -> RunResult {
    b.distributed(net)
        .expect("channel loop")
        .run(GOLDEN_PERIODS)
}

#[test]
fn local_delayed_lanes() {
    let r = local(medium().lanes(LaneModel::delayed(2)));
    assert!(r.trace.steps().iter().any(|s| s.received.is_some()));
    assert_eq!(hash_result(&r), LANE_LOCAL_DELAYED);
}

#[test]
fn local_lossy_lanes() {
    let r = local(medium().lanes(LaneModel::lossy(0.2, 21)));
    assert!(r.trace.steps().iter().any(|s| s.received.is_some()));
    assert_eq!(hash_result(&r), LANE_LOCAL_LOSSY);
}

#[test]
fn channel_lossy_report_and_command_lanes() {
    let net = NetConfig::channel()
        .report_lanes(LaneModel::lossy(0.2, 21))
        .command_lanes(LaneModel {
            report_delay: 1,
            loss_probability: 0.1,
            seed: 9,
        });
    let r = channel(medium(), net);
    assert!(r.telemetry.counter("frames_lost").unwrap() > 0);
    assert_eq!(hash_result(&r), LANE_CHANNEL_LOSSY);
}

#[test]
fn local_partition_window() {
    let r = local(medium().faults(partition()));
    assert_eq!(r.faults.partitioned_periods, 10);
    assert_eq!(hash_result(&r), PARTITION_LOCAL);
}

#[test]
fn channel_partition_window() {
    let r = channel(medium().faults(partition()), NetConfig::channel());
    assert_eq!(r.faults.partitioned_periods, 10);
    assert_eq!(hash_result(&r), PARTITION_CHANNEL);
}
