//! Distributed coordination function: binary-exponential backoff.
//!
//! All WGTT APs and clients share channel 11, so medium access is the
//! resource the multi-client experiments (Figs 17, 20) contend for. The
//! model is slotted DCF, simplified in the standard DES way:
//!
//! * a [`Backoff`] per transmitter draws uniformly from `[0, CW]` and
//!   doubles CW on failure (binary exponential backoff);
//! * the world runs the contention itself: carrier sense is its registry
//!   of transmissions on air, a station's grant is `now + DIFS + slots·σ`,
//!   and two incompatible stations that draw the same slot collide.

use crate::timing::contention_window;
use wgtt_sim::SimRng;

/// Per-station binary-exponential backoff state.
#[derive(Debug, Clone)]
pub struct Backoff {
    retries: u32,
    max_retries: u32,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            retries: 0,
            max_retries: 7,
        }
    }
}

impl Backoff {
    /// Creates a backoff with the given retry limit.
    pub fn new(max_retries: u32) -> Self {
        Backoff {
            retries: 0,
            max_retries,
        }
    }

    /// Current retry count.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// True once the retry limit is exhausted (frame should be dropped).
    pub fn exhausted(&self) -> bool {
        self.retries > self.max_retries
    }

    /// Draws a backoff in slots from the current contention window.
    pub fn draw(&self, rng: &mut SimRng) -> u32 {
        rng.range(0..=contention_window(self.retries))
    }

    /// Records a failed transmission (doubles CW up to CWmax).
    pub fn on_failure(&mut self) {
        self.retries += 1;
    }

    /// Records a success (resets CW).
    pub fn on_success(&mut self) {
        self.retries = 0;
    }

    /// Resets to the initial state (frame abandoned).
    pub fn reset(&mut self) {
        self.retries = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_draw_within_window() {
        let mut rng = SimRng::new(1);
        let mut b = Backoff::default();
        for _ in 0..200 {
            assert!(b.draw(&mut rng) <= 15);
        }
        b.on_failure();
        let max = (0..500).map(|_| b.draw(&mut rng)).max().unwrap();
        assert!(max > 15 && max <= 31, "max draw {max}");
    }

    #[test]
    fn backoff_retry_lifecycle() {
        let mut b = Backoff::new(2);
        assert!(!b.exhausted());
        b.on_failure();
        b.on_failure();
        b.on_failure();
        assert!(b.exhausted());
        b.on_success();
        assert!(!b.exhausted());
        assert_eq!(b.retries(), 0);
        b.on_failure();
        b.reset();
        assert_eq!(b.retries(), 0);
    }

    #[test]
    fn two_contenders_rarely_collide_with_big_cw() {
        // Statistical sanity: with CW=15, two contenders collide ≈ 1/16 of
        // the time.
        let mut rng = SimRng::new(7);
        let b = Backoff::default();
        let collisions = (0..4000)
            .filter(|_| b.draw(&mut rng) == b.draw(&mut rng))
            .count();
        let rate = collisions as f64 / 4000.0;
        assert!((rate - 1.0 / 16.0).abs() < 0.02, "collision rate {rate}");
    }
}
