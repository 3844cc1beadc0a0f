//! Lane middleware: network effects composed over any lane substrate.
//!
//! [`DelayLossGate`] reimplements the closed loop's `LaneModel`
//! semantics at the transport layer, so delayed and lossy lanes are a
//! property of the *lane*, not of the loop: the distributed runtime
//! puts one gate in front of every sending endpoint, whether the lane
//! is an in-process channel or a TCP connection on a poll engine, and
//! the sharded-control boundary bus does the same for its shard lanes.
//!
//! The draw order is kept identical to the in-loop lane model — a loss
//! probability is consulted once per frame, and only at the moment the
//! frame actually crosses the lane (after its delay elapses).  With the
//! same seed, a gate and a `LaneModel` produce the same sequence of
//! loss decisions; the transport-equivalence property test pins this.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::frame::Frame;

/// The delay/loss decision core: a FIFO of in-flight frames released by
/// [`DelayLossGate::tick`], each crossing frame drawing the loss
/// probability exactly once at release time.
///
/// Knows nothing about transports — the caller supplies the delivery
/// action, and folds [`DelayLossGate::accepted`] and
/// [`DelayLossGate::lost`] into the sending endpoint's counters.
#[derive(Debug)]
pub struct DelayLossGate {
    /// Whole ticks each frame spends in flight.
    delay: usize,
    /// Per-frame drop probability in `[0, 1)`.
    loss_probability: f64,
    rng: StdRng,
    /// Frames not yet released (oldest first); length ≤ delay + 1.
    in_flight: VecDeque<Frame>,
    /// Frames dropped on a loss draw.
    lost: u64,
    /// Frames accepted for sending.
    accepted: u64,
}

impl DelayLossGate {
    /// A gate with `delay` ticks of latency and per-frame loss
    /// probability `loss_probability` drawn from `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ loss_probability < 1`.
    pub fn new(delay: usize, loss_probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&loss_probability),
            "loss probability must be in [0, 1)"
        );
        DelayLossGate {
            delay,
            loss_probability,
            rng: StdRng::seed_from_u64(seed),
            in_flight: VecDeque::new(),
            lost: 0,
            accepted: 0,
        }
    }

    /// Whether the gate is a no-op (zero delay, zero loss): offered
    /// frames should cross immediately without queuing.
    pub fn is_transparent(&self) -> bool {
        self.delay == 0 && self.loss_probability == 0.0
    }

    /// Accepts a frame.  Returns `Some(frame)` when it should cross the
    /// lane immediately (the transparent configuration); otherwise the
    /// frame is queued until its delay elapses.
    pub fn offer(&mut self, frame: Frame) -> Option<Frame> {
        self.accepted += 1;
        if self.is_transparent() {
            return Some(frame);
        }
        self.in_flight.push_back(frame);
        None
    }

    /// Advances the gate's clock by one tick: every frame whose delay has
    /// elapsed either crosses (via `deliver`) or is dropped on its loss
    /// draw.
    pub fn tick(&mut self, mut deliver: impl FnMut(Frame)) {
        while self.in_flight.len() > self.delay {
            let frame = self.in_flight.pop_front().expect("len checked");
            let dropped =
                self.loss_probability > 0.0 && self.rng.gen::<f64>() < self.loss_probability;
            if dropped {
                self.lost += 1;
            } else {
                deliver(frame);
            }
        }
    }

    /// Frames accepted for sending so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Frames dropped on a loss draw so far.
    pub fn lost(&self) -> u64 {
        self.lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(seq: u64) -> Frame {
        Frame::UtilizationReport {
            seq,
            period: seq,
            values: vec![seq as f64],
        }
    }

    /// Offers `seq` and ticks once, returning what crossed this tick.
    fn round(gate: &mut DelayLossGate, seq: u64) -> Vec<u64> {
        let mut got: Vec<u64> = gate.offer(report(seq)).iter().map(Frame::seq).collect();
        gate.tick(|f| got.push(f.seq()));
        got
    }

    #[test]
    fn zero_config_is_transparent() {
        let mut gate = DelayLossGate::new(0, 0.0, 0);
        assert!(gate.is_transparent());
        // Offered frames cross at once, before any tick.
        assert_eq!(gate.offer(report(1)).map(|f| f.seq()), Some(1));
        assert_eq!(gate.accepted(), 1);
    }

    #[test]
    fn delay_holds_frames_for_d_ticks() {
        let mut gate = DelayLossGate::new(2, 0.0, 0);
        let crossed: Vec<Vec<u64>> = (1..=4).map(|seq| round(&mut gate, seq)).collect();
        // With delay 2, frame k crosses on the tick of round k + 2.
        assert_eq!(crossed, vec![vec![], vec![], vec![1], vec![2]]);
    }

    #[test]
    fn loss_draws_follow_the_seed() {
        // Oracle: replicate the draw sequence with the same RNG.
        let p = 0.4;
        let seed = 42;
        let mut oracle = StdRng::seed_from_u64(seed);
        let mut gate = DelayLossGate::new(0, p, seed);
        let mut expected = Vec::new();
        let mut got = Vec::new();
        for seq in 0..500u64 {
            if oracle.gen::<f64>() >= p {
                expected.push(seq);
            }
            got.extend(round(&mut gate, seq));
        }
        assert_eq!(got, expected);
        assert_eq!(gate.lost(), 500 - expected.len() as u64);
        assert_eq!(gate.accepted(), 500);
    }

    #[test]
    fn no_draws_before_frames_cross() {
        // With delay 3, the first 3 ticks must not consume RNG draws.
        let p = 0.5;
        let seed = 9;
        let mut gate = DelayLossGate::new(3, p, seed);
        for seq in 0..3 {
            round(&mut gate, seq);
        }
        // The gate's RNG must still be at its initial state: the fourth
        // round releases frame 0 with the seed's *first* draw.
        let mut oracle = StdRng::seed_from_u64(seed);
        let first_draw_drops = oracle.gen::<f64>() < p;
        round(&mut gate, 3);
        assert_eq!(gate.lost(), u64::from(first_draw_drops));
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_probability_rejected() {
        let _ = DelayLossGate::new(0, 1.0, 0);
    }
}
