//! The wired Ethernet backhaul.
//!
//! All APs and the controller hang off one switched gigabit LAN (paper §4).
//! For the timescales WGTT cares about — a 17–21 ms switching protocol, a
//! 30 ms retransmission timeout — what matters is per-hop latency: wire
//! serialization at 1 Gbit/s, switch store-and-forward, and host stack
//! processing jitter. The model is a per-message transit delay:
//!
//! `delay = base + wire(len) + jitter`, with `jitter ~ Exp(mean_jitter)`.
//!
//! Control messages can optionally be dropped with a configurable
//! probability to exercise the switch protocol's timeout path (the paper's
//! `stop`/`ack` loss handling, §3.1.2).

use wgtt_sim::{BackhaulImpairment, SimDuration, SimRng};

/// Outcome of one faulty backhaul transit: the message itself (possibly
/// lost, possibly held back by reordering) plus an optional duplicate copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackhaulDelivery {
    /// Delay of the original message, `None` if lost.
    pub primary: Option<SimDuration>,
    /// Delay of a duplicated copy, when the duplication fault fired.
    pub duplicate: Option<SimDuration>,
    /// Whether the reorder fault held the original back.
    pub reordered: bool,
}

/// Backhaul latency/loss model.
#[derive(Debug, Clone)]
pub struct Backhaul {
    /// Link rate, bit/s (1 GbE).
    pub rate_bps: u64,
    /// Fixed per-message latency: propagation, switch forwarding, NIC ring
    /// and kernel handoff.
    pub base_delay: SimDuration,
    /// Mean of the exponential host-processing jitter.
    pub jitter_mean: SimDuration,
    /// Probability an individual message is lost (default 0; raised in
    /// fault-injection experiments).
    pub loss_prob: f64,
    rng: SimRng,
}

impl Backhaul {
    /// Creates a backhaul with the given RNG stream.
    pub fn new(rng: SimRng) -> Self {
        Backhaul {
            rate_bps: 1_000_000_000,
            base_delay: SimDuration::from_micros(150),
            jitter_mean: SimDuration::from_micros(100),
            loss_prob: 0.0,
            rng,
        }
    }

    /// Samples the transit delay for a message of `len_bytes`, or `None` if
    /// the message is lost: [`Backhaul::transit_faulty`] with no
    /// impairment.
    pub fn transit(&mut self, len_bytes: usize) -> Option<SimDuration> {
        self.transit_faulty(len_bytes, &BackhaulImpairment::default())
            .primary
    }

    /// One backhaul transit with fault-injection impairments layered on
    /// the healthy model: `extra_loss_prob` composes independently with the
    /// base loss probability, `extra_latency` adds a fixed delay,
    /// `extra_jitter_mean` (when nonzero) adds an extra exponential jitter
    /// draw, duplication delivers the frame twice (the copy trailing by one
    /// extra jitter sample) and reordering holds the frame back by a
    /// uniform draw from `(0, reorder_window]`, so later frames can
    /// overtake it.
    ///
    /// RNG draw discipline keeps runs reproducible: the loss and jitter
    /// draws come first, then the extra-jitter draw iff
    /// `extra_jitter_mean > 0`, then the dup draws iff `dup_prob > 0` and
    /// the frame was delivered, then the reorder draws iff
    /// `reorder_prob > 0` and the frame was delivered. A no-op impairment therefore consumes exactly
    /// the healthy model's draws, so fault-capable runs with an empty
    /// schedule stay bit-for-bit reproducible against fault-free ones.
    pub fn transit_faulty(
        &mut self,
        len_bytes: usize,
        imp: &BackhaulImpairment,
    ) -> BackhaulDelivery {
        let mut out = BackhaulDelivery::default();
        // The healthy path must use `loss_prob` verbatim: recomputing it
        // through `1 - (1-p)(1-0)` perturbs the low bits and could flip a
        // knife-edge Bernoulli draw.
        let loss = if imp.extra_loss_prob > 0.0 {
            1.0 - (1.0 - self.loss_prob) * (1.0 - imp.extra_loss_prob.clamp(0.0, 1.0))
        } else {
            self.loss_prob
        };
        if self.rng.chance(loss) {
            return out; // lost before any duplication point
        }
        let wire = SimDuration::for_bits(len_bytes as u64 * 8, self.rate_bps);
        let jitter =
            SimDuration::from_secs_f64(self.rng.exponential(self.jitter_mean.as_secs_f64()));
        let extra_jitter = if imp.extra_jitter_mean > SimDuration::ZERO {
            SimDuration::from_secs_f64(self.rng.exponential(imp.extra_jitter_mean.as_secs_f64()))
        } else {
            SimDuration::ZERO
        };
        let mut delay = self.base_delay + wire + jitter + imp.extra_latency + extra_jitter;
        if imp.dup_prob > 0.0 && self.rng.chance(imp.dup_prob) {
            let trail =
                SimDuration::from_secs_f64(self.rng.exponential(self.jitter_mean.as_secs_f64()));
            out.duplicate = Some(delay + trail);
        }
        if imp.reorder_prob > 0.0 && self.rng.chance(imp.reorder_prob) {
            let window = imp.reorder_window.as_secs_f64();
            if window > 0.0 {
                delay += SimDuration::from_secs_f64(self.rng.range(0.0..window));
                out.reordered = true;
            }
        }
        out.primary = Some(delay);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bh(seed: u64) -> Backhaul {
        Backhaul::new(SimRng::new(seed))
    }

    #[test]
    fn delay_includes_base_and_wire() {
        let mut b = bh(1);
        b.jitter_mean = SimDuration::from_nanos(1); // effectively zero
        let d = b.transit(1500).unwrap();
        // 1500 B at 1 Gbit/s = 12 µs wire + 150 µs base.
        assert!(d >= SimDuration::from_micros(162));
        assert!(d < SimDuration::from_micros(170));
    }

    #[test]
    fn bigger_messages_take_longer_on_average() {
        let mut b = bh(2);
        let avg = |b: &mut Backhaul, len: usize| -> f64 {
            (0..500)
                .map(|_| b.transit(len).unwrap().as_secs_f64())
                .sum::<f64>()
                / 500.0
        };
        let small = avg(&mut b, 64);
        let large = avg(&mut b, 150_000);
        assert!(large > small + 1e-3, "{large} vs {small}");
    }

    #[test]
    fn no_loss_by_default() {
        let mut b = bh(3);
        assert!((0..1000).all(|_| b.transit(100).is_some()));
    }

    #[test]
    fn loss_probability_respected() {
        let mut b = bh(4);
        b.loss_prob = 0.3;
        let lost = (0..2000).filter(|_| b.transit(100).is_none()).count();
        let frac = lost as f64 / 2000.0;
        assert!((frac - 0.3).abs() < 0.05, "loss frac {frac}");
    }

    #[test]
    fn impairments_add_loss_and_latency() {
        let mut b = bh(8);
        b.loss_prob = 0.1;
        let extra_lat = SimDuration::from_millis(5);
        let mut lost = 0usize;
        let imp = BackhaulImpairment {
            extra_loss_prob: 0.5,
            extra_latency: extra_lat,
            ..BackhaulImpairment::default()
        };
        for _ in 0..2000 {
            match b.transit_faulty(100, &imp).primary {
                None => lost += 1,
                Some(d) => assert!(d >= extra_lat + b.base_delay),
            }
        }
        // Composed loss: 1 - 0.9*0.5 = 0.55.
        let frac = lost as f64 / 2000.0;
        assert!((frac - 0.55).abs() < 0.05, "loss frac {frac}");
    }

    #[test]
    fn noop_impairment_draws_exactly_the_healthy_model() {
        // The healthy model, written out: one loss draw, then one jitter
        // draw for a delivered frame. A no-op impairment must consume the
        // same draws and produce the same delays.
        let mut b = bh(9);
        b.loss_prob = 0.1;
        let mut rng = SimRng::new(9);
        let noop = BackhaulImpairment::default();
        for _ in 0..500 {
            let want = if rng.chance(0.1) {
                None
            } else {
                let jitter = rng.exponential(b.jitter_mean.as_secs_f64());
                Some(
                    b.base_delay
                        + SimDuration::for_bits(300 * 8, b.rate_bps)
                        + SimDuration::from_secs_f64(jitter),
                )
            };
            let d = b.transit_faulty(300, &noop);
            assert_eq!(d.primary, want);
            assert_eq!(d.duplicate, None);
            assert!(!d.reordered);
        }
    }

    #[test]
    fn duplication_rate_respected() {
        let mut b = bh(10);
        let imp = BackhaulImpairment {
            dup_prob: 0.3,
            ..BackhaulImpairment::default()
        };
        let mut dups = 0usize;
        for _ in 0..2000 {
            let d = b.transit_faulty(100, &imp);
            let p = d.primary.expect("no loss configured");
            if let Some(copy) = d.duplicate {
                assert!(copy > p, "duplicate must trail the original");
                dups += 1;
            }
        }
        let frac = dups as f64 / 2000.0;
        assert!((frac - 0.3).abs() < 0.05, "dup frac {frac}");
    }

    #[test]
    fn reordering_bounded_by_window() {
        let mut b = bh(11);
        b.jitter_mean = SimDuration::from_nanos(1); // effectively zero
        let base = b.base_delay + SimDuration::for_bits(100 * 8, b.rate_bps);
        let window = SimDuration::from_millis(2);
        let imp = BackhaulImpairment {
            reorder_prob: 1.0,
            reorder_window: window,
            ..BackhaulImpairment::default()
        };
        let mut max_seen = SimDuration::ZERO;
        for _ in 0..500 {
            let d = b.transit_faulty(100, &imp);
            assert!(d.reordered);
            let held = d.primary.unwrap();
            assert!(held >= base);
            assert!(held <= base + window + SimDuration::from_micros(1));
            max_seen = max_seen.max(held);
        }
        // The hold-back actually spreads across the window.
        assert!(max_seen > base + SimDuration::from_millis(1));
    }

    #[test]
    fn lost_frames_are_never_duplicated() {
        let mut b = bh(12);
        let imp = BackhaulImpairment {
            extra_loss_prob: 1.0,
            dup_prob: 1.0,
            reorder_prob: 1.0,
            reorder_window: SimDuration::from_millis(1),
            ..BackhaulImpairment::default()
        };
        for _ in 0..100 {
            let d = b.transit_faulty(100, &imp);
            assert_eq!(d.primary, None);
            assert_eq!(d.duplicate, None);
            assert!(!d.reordered);
        }
    }

    #[test]
    fn jitter_varies_delay() {
        let mut b = bh(6);
        let a = b.transit(100).unwrap();
        let c = b.transit(100).unwrap();
        assert_ne!(a, c);
    }
}
