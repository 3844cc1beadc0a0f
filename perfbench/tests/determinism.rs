//! Determinism self-test: every workload, run twice at a short length
//! with one seed, repeats every count and its digest exactly; a second
//! seed changes the digest, so the seed reaches the program.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::{run_pass, PassConfig, WORKLOADS};

/// The counts a run must repeat exactly (the digest among them).
const COUNTS: [&str; 13] = [
    "digest",
    "checkpoints",
    "completed",
    "events",
    "sim.events",
    "sim.reschedules",
    "qp.iterations",
    "qp.iterations_max",
    "qp.solves",
    "net.frames",
    "model.rebuilds",
    "model.incremental",
    "admission.admitted",
];

/// The raw JSON value of `key` in a flat report (keys are unique, also
/// across the nested per-layer object).
fn field<'a>(report: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": ");
    let start = report
        .find(&pat)
        .unwrap_or_else(|| panic!("{key} missing from {report}"))
        + pat.len();
    let rest = &report[start..];
    let end = if rest.starts_with('[') {
        rest.find(']').expect("closed array") + 1
    } else {
        rest.find([',', '}']).expect("value ends")
    };
    &rest[..end]
}

/// Periods per workload: past the warm-up, and long enough on
/// `churn-medium` for arrivals and departures to happen.
fn periods(workload: &str) -> usize {
    match workload {
        "shard-256" => 110,
        "churn-medium" => 1500,
        _ => 600,
    }
}

fn pass(workload: &str, seed: u64, traced: bool) -> String {
    run_pass(PassConfig {
        workload: workload.to_string(),
        seed,
        max_periods: Some(periods(workload)),
        traced,
        spans: None,
    })
    .expect("pass runs")
}

#[test]
fn every_workload_repeats_its_counts_and_digest_and_sees_the_seed() {
    for w in WORKLOADS.map(|w| w.name) {
        let a = pass(w, 7, true);
        let b = pass(w, 7, true);
        for key in COUNTS {
            assert_eq!(field(&a, key), field(&b, key), "{w}: {key} did not repeat");
        }
        assert_eq!(field(&a, "replay_mismatches"), "0", "{w}: replay diverged");
        assert_eq!(field(&a, "control_errors"), "0", "{w}");
        let plain = pass(w, 7, false);
        assert_eq!(
            field(&plain, "digest"),
            field(&a, "digest"),
            "{w}: tracing changed outputs"
        );
        let other = pass(w, 8, false);
        assert_ne!(
            field(&other, "digest"),
            field(&a, "digest"),
            "{w}: seed ignored"
        );
    }
}

#[test]
fn churn_workload_exercises_membership() {
    let r = pass("churn-medium", 7, true);
    assert_ne!(field(&r, "admission.admitted"), "0");
    assert_ne!(field(&r, "admission.departed"), "0");
}

#[test]
fn poll_lanes_carry_frames_and_match_the_local_loop() {
    let poll = pass("poll-medium", 7, false);
    let local = pass("medium-exp2", 7, false);
    assert_eq!(field(&poll, "digest"), field(&local, "digest"));
    assert_ne!(field(&poll, "net_frames"), "0");
    assert_eq!(field(&poll, "net_decode_errors"), "0");
    assert_eq!(field(&poll, "net_dropped"), "0");
}

#[test]
fn unknown_workloads_are_rejected() {
    let err = run_pass(PassConfig {
        workload: "nope".into(),
        seed: 0,
        max_periods: None,
        traced: false,
        spans: None,
    })
    .unwrap_err();
    assert!(err.contains("unknown workload"), "{err}");
}
