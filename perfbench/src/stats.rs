//! Sample statistics and failure accounting.
//!
//! Timings are reported as a median plus the highest tail percentile that
//! has at least [`MIN_BEYOND`] samples beyond it; a percentile with fewer
//! samples behind it is a handful of outliers, not a tail.

/// Samples a tail percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles considered, highest first.
const TAILS: [f64; 3] = [99.9, 99.0, 90.0];

/// A growable set of timing (or other) samples.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The median (mean of the two middle samples for an even count).
    pub fn median(&mut self) -> Option<f64> {
        self.sort();
        let n = self.values.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(self.values[n / 2]),
            _ => Some((self.values[n / 2 - 1] + self.values[n / 2]) / 2.0),
        }
    }

    /// The nearest-rank `p`-th percentile, with the number of samples that
    /// lie strictly beyond its rank.
    pub fn percentile(&mut self, p: f64) -> Option<(f64, usize)> {
        self.sort();
        let n = self.values.len();
        if n == 0 {
            return None;
        }
        // The epsilon keeps 99.9% of 10000 at rank 9990, not 9991.
        let rank = (p / 100.0 * n as f64 - 1e-9).ceil().max(1.0) as usize;
        let rank = rank.min(n);
        Some((self.values[rank - 1], n - rank))
    }

    /// The `p`-th percentile, only if at least [`MIN_BEYOND`] samples lie
    /// beyond it.
    pub fn reportable(&mut self, p: f64) -> Option<f64> {
        self.percentile(p)
            .filter(|&(_, beyond)| beyond >= MIN_BEYOND)
            .map(|(value, _)| value)
    }

    /// The highest of the p99.9 / p99 / p90 tails that is reportable, as
    /// `(percentile, value)`.
    pub fn tail(&mut self) -> Option<(f64, f64)> {
        TAILS
            .iter()
            .find_map(|&p| self.reportable(p).map(|value| (p, value)))
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(values: I) -> Samples {
        Samples {
            values: values.into_iter().collect(),
            sorted: false,
        }
    }
}

/// The outcome of one attempted operation, as the failure accounting sees
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// An `Err` result, an `ERR` reply, a quarantine or a rejection.
    Failed,
    /// A `BUSY` reply: failed, and retried as a new attempt.
    Busy,
}

/// Attempted and failed operation counts behind `fail_ratio`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub busy: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Failed => self.failed += 1,
            Outcome::Busy => {
                self.failed += 1;
                self.busy += 1;
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy += other.busy;
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Runs `attempt` until it stops answering [`Outcome::Busy`], recording
/// every try — a `BUSY` retry is a new attempt — and gives up after
/// `max_tries` tries.  Returns the last try's value.
pub fn retry_busy<T>(
    tally: &mut Tally,
    max_tries: usize,
    mut attempt: impl FnMut() -> (Outcome, T),
) -> (Outcome, T) {
    let mut tries = 0;
    loop {
        let (outcome, value) = attempt();
        tally.record(outcome);
        tries += 1;
        if outcome != Outcome::Busy || tries >= max_tries {
            return (outcome, value);
        }
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::new();
        // Pushed in reverse so sorting is exercised.
        for i in (1..=n).rev() {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(samples(5).median(), Some(3.0));
        assert_eq!(samples(4).median(), Some(2.5));
        assert_eq!(Samples::new().median(), None);
    }

    #[test]
    fn percentile_is_nearest_rank_with_beyond_count() {
        let mut s = samples(200);
        assert_eq!(s.percentile(90.0), Some((180.0, 20)));
        assert_eq!(s.percentile(99.0), Some((198.0, 2)));
        assert_eq!(s.percentile(100.0), Some((200.0, 0)));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 99 samples: p90 is rank 90 (9 beyond) — not reportable.
        assert_eq!(samples(99).tail(), None);
        // 100 samples: p90 is rank 90 with exactly 10 beyond.
        assert_eq!(samples(100).tail(), Some((90.0, 90.0)));
        // 999 samples: p99 is rank 990 with 9 beyond, so p90 is the tail.
        let mut s = samples(999);
        assert_eq!(s.reportable(99.0), None);
        assert_eq!(s.tail(), Some((90.0, 900.0)));
        // 1000 samples: p99 has exactly 10 beyond.
        assert_eq!(samples(1000).tail(), Some((99.0, 990.0)));
        // 10000 samples: p99.9 has exactly 10 beyond.
        assert_eq!(samples(10_000).tail(), Some((99.9, 9990.0)));
    }

    #[test]
    fn busy_retries_count_as_failed_attempts() {
        let mut tally = Tally::default();
        let mut replies = ["BUSY", "BUSY", "OK"].into_iter();
        let (outcome, reply) = retry_busy(&mut tally, 10, || {
            let reply = replies.next().unwrap();
            let outcome = if reply == "BUSY" {
                Outcome::Busy
            } else {
                Outcome::Ok
            };
            (outcome, reply)
        });
        assert_eq!((outcome, reply), (Outcome::Ok, "OK"));
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 2,
                busy: 2
            }
        );
        assert!((tally.fail_ratio() - 2.0 / 3.0).abs() < 1e-12);

        // An error is one failed attempt and is not retried.
        let (outcome, _) = retry_busy(&mut tally, 10, || (Outcome::Failed, ()));
        assert_eq!(outcome, Outcome::Failed);
        assert_eq!(tally.attempted, 4);
        assert_eq!(tally.failed, 3);

        // Retries stop at the cap.
        let mut capped = Tally::default();
        let (outcome, _) = retry_busy(&mut capped, 3, || (Outcome::Busy, ()));
        assert_eq!(outcome, Outcome::Busy);
        assert_eq!(capped.attempted, 3);
        assert_eq!(capped.fail_ratio(), 1.0);
    }

    #[test]
    fn fail_ratio_of_nothing_attempted_is_zero() {
        assert_eq!(Tally::default().fail_ratio(), 0.0);
    }
}
