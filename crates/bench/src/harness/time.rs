//! The harness's clocks.
//!
//! Wall-clock reads in `abyss-bench` live here and nowhere else (the
//! source guard enforces it), so every figure times the same way: a
//! [`Stopwatch`] for elapsed-time windows and a [`Pacer`] for open-loop
//! request pacing. Figures that hand-rolled `Instant` pairs inside their
//! measured loops (fig_service among them) moved onto these plus
//! the engine drivers' start/stop-edge accounting.

use std::time::{Duration, Instant};

/// A started wall clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start the clock now.
    pub fn start() -> Self {
        Self {
            started: Instant::now(),
        }
    }

    /// Time since the clock started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Time since the clock started, in nanoseconds.
    pub fn elapsed_ns(&self) -> u64 {
        self.elapsed().as_nanos() as u64
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// Open-loop request pacing: a fixed offered rate sliced into ticks.
///
/// Each [`Pacer::next_batch`] sleeps to the next tick boundary and
/// returns how many requests the caller should submit to stay on its
/// rate. Fractional per-tick budgets accumulate (a 3.5-request tick
/// alternates 3 and 4); when the producer falls behind — the submission
/// path itself blocked — the catch-up burst is bounded to
/// [`Pacer::MAX_CATCH_UP_TICKS`] ticks' worth so a long stall doesn't
/// turn into one giant spike that measures the backlog, not the service.
#[derive(Debug)]
pub struct Pacer {
    tick: Duration,
    per_tick: f64,
    /// Accumulated fractional budget not yet released.
    carry: f64,
    next: Instant,
}

impl Pacer {
    /// A stalled producer releases at most this many ticks of backlog in
    /// one batch.
    pub const MAX_CATCH_UP_TICKS: f64 = 4.0;

    /// Pace `rate_per_sec` requests in `tick`-sized slices, starting now.
    pub fn new(rate_per_sec: f64, tick: Duration) -> Self {
        assert!(rate_per_sec > 0.0 && tick > Duration::ZERO);
        Self {
            tick,
            per_tick: rate_per_sec * tick.as_secs_f64(),
            carry: 0.0,
            next: Instant::now() + tick,
        }
    }

    /// Sleep to the next tick boundary, then return the number of
    /// requests to submit now.
    pub fn next_batch(&mut self) -> u64 {
        let now = Instant::now();
        if let Some(wait) = self.next.checked_duration_since(now) {
            std::thread::sleep(wait);
            self.carry += self.per_tick;
        } else {
            // Behind schedule: credit the missed ticks, bounded.
            let behind = now.duration_since(self.next).as_secs_f64() / self.tick.as_secs_f64();
            let ticks = (1.0 + behind).min(Self::MAX_CATCH_UP_TICKS);
            self.carry += self.per_tick * ticks;
        }
        self.next += self.tick;
        if self.next < Instant::now() {
            // Re-anchor after a long stall so we don't burst for many
            // iterations trying to replay the past.
            self.next = Instant::now() + self.tick;
        }
        let batch = self.carry.floor();
        self.carry -= batch;
        batch as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_moves_forward() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(sw.elapsed() >= Duration::from_millis(2));
        assert!(sw.elapsed_ns() > 0);
    }

    #[test]
    fn pacer_hits_its_rate_roughly() {
        // 10k/s over 50 ms of 1 ms ticks ≈ 500 requests.
        let mut p = Pacer::new(10_000.0, Duration::from_millis(1));
        let sw = Stopwatch::start();
        let mut total = 0u64;
        while sw.elapsed() < Duration::from_millis(50) {
            total += p.next_batch();
        }
        assert!(
            (200..=1200).contains(&total),
            "paced {total} requests in 50ms at 10k/s"
        );
    }

    #[test]
    fn pacer_bounds_catch_up_bursts() {
        let mut p = Pacer::new(100_000.0, Duration::from_millis(1));
        // Simulate a long stall: sleep 50 ticks' worth.
        std::thread::sleep(Duration::from_millis(50));
        let burst = p.next_batch();
        // Unbounded catch-up would be ~5000; the cap holds it to ≤ 4 ticks.
        assert!(
            burst <= (100.0 * Pacer::MAX_CATCH_UP_TICKS) as u64 + 1,
            "burst {burst} exceeds the catch-up bound"
        );
    }

    #[test]
    fn fractional_budgets_accumulate() {
        // 1500/s at 1 ms ticks = 1.5/tick: batches alternate 1 and 2.
        let mut p = Pacer::new(1_500.0, Duration::from_millis(1));
        let batches: Vec<u64> = (0..6).map(|_| p.next_batch()).collect();
        let total: u64 = batches.iter().sum();
        assert!(
            (7..=12).contains(&total),
            "6 ticks at 1.5/tick paced {batches:?}"
        );
    }
}
