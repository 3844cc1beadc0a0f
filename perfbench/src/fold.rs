//! Folding each period's `TraceStep` into the run's deterministic
//! outputs: the bit digest, the tracking error and the output checks.
//! Memory stays constant however long the run is.

/// Settled-window geometry: windows of `BLOCK` periods, of which the
/// second half counts as settled (Experiment II moves the etf at every
/// block boundary, and EUCON settles within half a block).  The first
/// block is the start-up transient and is skipped.
const BLOCK: u64 = 100;
const SETTLE: u64 = 50;

/// Digests are also recorded after 2^k periods from this count on, so
/// two runs of different length compare on their common prefix.
const FIRST_CHECKPOINT: u64 = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The deterministic outputs of one run so far.
#[derive(Debug, Clone)]
pub struct Fold {
    digest: u64,
    checkpoints: Vec<(u64, u64)>,
    periods: u64,
    set_points: Vec<f64>,
    window_sum: Vec<f64>,
    /// Worst processor's |settled-window mean − set point|, worst window.
    pub track_err: f64,
    /// Settled windows folded.
    pub settled_windows: u64,
    /// Periods whose in-force rates were non-finite or outside their box.
    pub bad_rate_periods: u64,
    /// Periods with a non-finite utilization sample.
    pub bad_utilization_periods: u64,
}

impl Fold {
    /// An empty fold for a loop with these set points.
    pub fn new(set_points: &[f64]) -> Self {
        Fold {
            digest: FNV_OFFSET,
            checkpoints: Vec::with_capacity(64),
            periods: 0,
            set_points: set_points.to_vec(),
            window_sum: vec![0.0; set_points.len()],
            track_err: 0.0,
            settled_windows: 0,
            bad_rate_periods: 0,
            bad_utilization_periods: 0,
        }
    }

    fn hash(&mut self, xs: &[f64]) {
        for &x in xs {
            for b in x.to_bits().to_le_bytes() {
                self.digest ^= u64::from(b);
                self.digest = self.digest.wrapping_mul(FNV_PRIME);
            }
        }
    }

    /// Folds one period's measured utilizations `u` and in-force `rates`
    /// (a `TraceStep`'s two vectors).  `boxes[t]` is task `t`'s
    /// `(rate_min, rate_max)`.  Returns whether the period passed the
    /// per-period output checks.
    pub fn observe(&mut self, u: &[f64], rates: &[f64], boxes: &[(f64, f64)]) -> bool {
        self.hash(u);
        self.hash(rates);
        let k = self.periods;
        self.periods += 1;
        if self.periods >= FIRST_CHECKPOINT && self.periods.is_power_of_two() {
            self.checkpoints.push((self.periods, self.digest));
        }

        let u_ok = u.iter().all(|x| x.is_finite());
        let rates_ok = rates.len() == boxes.len()
            && rates
                .iter()
                .zip(boxes)
                .all(|(&r, &(lo, hi))| r.is_finite() && r >= lo && r <= hi);
        self.bad_utilization_periods += u64::from(!u_ok);
        self.bad_rate_periods += u64::from(!rates_ok);

        if k >= BLOCK && k % BLOCK >= BLOCK - SETTLE {
            for (s, &x) in self.window_sum.iter_mut().zip(u) {
                *s += x;
            }
            if k % BLOCK == BLOCK - 1 {
                self.settled_windows += 1;
                for (s, &b) in self.window_sum.iter_mut().zip(&self.set_points) {
                    self.track_err = self.track_err.max((*s / SETTLE as f64 - b).abs());
                    *s = 0.0;
                }
            }
        }
        u_ok && rates_ok
    }

    /// Periods folded.
    pub fn periods(&self) -> u64 {
        self.periods
    }

    /// FNV-1a over the f64 bits of every period's utilization and rates.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// `(periods, digest)` after each power-of-two period count.
    pub fn checkpoints(&self) -> &[(u64, u64)] {
        &self.checkpoints
    }
}

/// Linearly interpolated quantile of ascending `sorted` samples.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0] as f64,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
        }
    }
}

/// Median of unsorted samples.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_box_and_non_finite_rates_fail_the_period() {
        let mut f = Fold::new(&[0.5]);
        let boxes = [(1.0, 2.0)];
        assert!(f.observe(&[0.5], &[1.5], &boxes));
        assert!(!f.observe(&[0.5], &[2.5], &boxes));
        assert!(!f.observe(&[0.5], &[f64::NAN], &boxes));
        assert!(!f.observe(&[f64::INFINITY], &[1.5], &boxes));
        assert_eq!(f.bad_rate_periods, 2);
        assert_eq!(f.bad_utilization_periods, 1);
    }

    #[test]
    fn tracking_error_uses_settled_halves_after_the_first_block() {
        let mut f = Fold::new(&[0.5]);
        let boxes = [(0.0, 1.0)];
        for k in 0..300 {
            // Off the set point during every transient half, 0.01 high
            // while settled.
            let u = if k % 100 < 50 { 0.9 } else { 0.51 };
            f.observe(&[u], &[0.5], &boxes);
        }
        assert_eq!(f.settled_windows, 2);
        assert!((f.track_err - 0.01).abs() < 1e-12);
    }

    #[test]
    fn digest_sees_every_bit_and_checkpoints_at_powers_of_two() {
        let mut a = Fold::new(&[0.5]);
        let mut b = Fold::new(&[0.5]);
        let boxes = [(0.0, 1.0)];
        for _ in 0..128 {
            a.observe(&[0.5], &[0.5], &boxes);
            b.observe(&[0.5], &[0.5], &boxes);
        }
        assert_eq!(a.digest(), b.digest());
        b.observe(&[0.5], &[f64::from_bits(0.5f64.to_bits() + 1)], &boxes);
        a.observe(&[0.5], &[0.5], &boxes);
        assert_ne!(a.digest(), b.digest());
        let ns: Vec<u64> = a.checkpoints().iter().map(|c| c.0).collect();
        assert_eq!(ns, vec![64, 128]);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = [10, 20, 30, 40];
        assert_eq!(quantile(&s, 0.0), 10.0);
        assert_eq!(quantile(&s, 0.5), 25.0);
        assert_eq!(quantile(&s, 1.0), 40.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
