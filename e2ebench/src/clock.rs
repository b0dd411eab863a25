//! The benchmark's only host-clock read.

use std::time::Instant;

/// A running stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    pub fn start() -> Stopwatch {
        // detlint::allow(D001): the benchmark exists to measure host time; no reading reaches a canonical stream
        Stopwatch(Instant::now())
    }

    /// Host seconds since `start`.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}
