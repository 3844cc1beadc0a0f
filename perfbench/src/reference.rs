//! The host-speed reference: two fixed kernels that `run.py` times in a
//! process of its own before and after each loop pass.  This host's
//! speed drifts by 20–30% over minutes, most of it in how fast memory
//! beyond a core's L2 cache answers; `run.py` scales a run's times by
//! the geometric mean of the two kernels' times, so that two runs at
//! different times compare the code, not the host (see NOTES.md,
//! "Host-speed reference").

use std::hint::black_box;

use crate::fold::median;
use crate::pass::thread_cpu_ns;

/// Entries of the timed table: 256 KiB of `u64`.
const TABLE: usize = 1 << 15;
/// Entries of the buffer read between repetitions to push the table
/// out of the caches: 16 MiB of `u64`, eight times a core's L2.
const EVICT: usize = 1 << 21;
/// Reads per timed repetition.
const READS: usize = 40_000;
/// Hashes per timed repetition.
const HASHES: usize = 250_000;
/// Timed repetitions; the reference is their median.
const REPS: usize = 9;

/// Pseudo-random reads over `table`, each address depending on the value
/// read before it.
fn reads(table: &[u64]) -> u64 {
    let mut s = 7u64;
    let mut acc = 0u64;
    for _ in 0..READS {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        acc = acc.wrapping_add(table[(s as usize ^ (acc as usize & 7)) & (TABLE - 1)]);
    }
    acc
}

/// Integer hashing in registers: no memory traffic at all.
fn compute() -> u64 {
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for _ in 0..HASHES {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        acc = acc.wrapping_add(s.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7);
    }
    acc
}

/// Median ms, on the thread CPU clock the periods use, of the compute
/// kernel and of `READS` reads over a table that starts each repetition
/// outside the core's caches: `[compute, memory]`.
pub fn reference_ms() -> [f64; 2] {
    let table: Vec<u64> = (0..TABLE as u64).collect();
    let evict: Vec<u64> = (0..EVICT as u64).collect();
    let mut times = [Vec::with_capacity(REPS), Vec::with_capacity(REPS)];
    for _ in 0..REPS {
        let t0 = thread_cpu_ns();
        black_box(compute());
        let t1 = thread_cpu_ns();
        black_box(evict.iter().fold(0u64, |a, &x| a.wrapping_add(x)));
        let t2 = thread_cpu_ns();
        black_box(reads(black_box(&table)));
        let t3 = thread_cpu_ns();
        times[0].push((t1 - t0) as f64 / 1e6);
        times[1].push((t3 - t2) as f64 / 1e6);
    }
    [median(&times[0]), median(&times[1])]
}
