//! Runs one benchmark pass and prints its JSON report as the last line
//! of standard output.  `run.py` beside this crate composes passes into
//! the benchmark's result.
//!
//! ```text
//! perfbench --workload medium-exp2 --seed 1 [--max-periods N] [--traced] [--spans out.csv]
//! perfbench --reference
//! ```
//!
//! A pass whose loop stalls still prints its report, and exits with
//! `perfbench::STALL_EXIT`.  `--reference` times only the host-speed
//! reference kernels and prints `{"compute_ms": ..., "memory_ms": ...}`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{reference_ms, run_pass, PassConfig};

fn parse() -> Result<PassConfig, String> {
    let mut cfg = PassConfig {
        workload: String::new(),
        seed: 0,
        max_periods: None,
        traced: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            cfg.traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = value,
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--max-periods" => cfg.max_periods = Some(value.parse().map_err(|e| bad(&e))?),
            "--spans" => cfg.spans = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    if std::env::args().skip(1).eq(["--reference"]) {
        let [compute, memory] = reference_ms();
        println!("{{\"compute_ms\": {compute}, \"memory_ms\": {memory}}}");
        return ExitCode::SUCCESS;
    }
    match parse().and_then(run_pass) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
