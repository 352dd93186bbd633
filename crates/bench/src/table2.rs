//! Table 2 — switching accuracy at 15 mph.
//!
//! Accuracy = fraction of time the serving AP is the instantaneous-ESNR
//! oracle's choice. Paper: WGTT 90.12 % (TCP) / 91.38 % (UDP) versus
//! Enhanced 802.11r's 20.24 % / 18.72 % — the baseline only reacts once
//! the current link has already deteriorated.

use crate::common::{mean_over, save_json, seeds_for, sweep_seeds, tcp_drive, udp_drive};
use serde::Serialize;
use wgtt_core::config::Mode;

/// The accuracy table.
#[derive(Debug, Serialize)]
pub struct AccuracyTable {
    /// WGTT accuracy for TCP, percent.
    pub wgtt_tcp: f64,
    /// WGTT accuracy for UDP, percent.
    pub wgtt_udp: f64,
    /// Baseline accuracy for TCP, percent.
    pub baseline_tcp: f64,
    /// Baseline accuracy for UDP, percent.
    pub baseline_udp: f64,
}

fn accuracy(mode: Mode, tcp: bool, seeds: std::ops::Range<u64>) -> f64 {
    let results = sweep_seeds(seeds, |seed| {
        let mut s = if tcp {
            tcp_drive(mode, 15.0, seed)
        } else {
            udp_drive(mode, 15.0, seed)
        };
        s.config.oracle = true;
        s
    });
    mean_over(&results, |r| {
        r.world.clients[0]
            .metrics
            .switching_accuracy()
            .expect("oracle on, yet the client was never scored")
    }) * 100.0
}

/// Runs the accuracy experiment.
pub fn run_experiment(fast: bool) -> AccuracyTable {
    let seeds = seeds_for(fast, 3);
    AccuracyTable {
        wgtt_tcp: accuracy(Mode::Wgtt, true, seeds.clone()),
        wgtt_udp: accuracy(Mode::Wgtt, false, seeds.clone()),
        baseline_tcp: accuracy(Mode::Enhanced80211r, true, seeds.clone()),
        baseline_udp: accuracy(Mode::Enhanced80211r, false, seeds),
    }
}

/// Runs and renders Table 2.
pub fn report(fast: bool) -> String {
    let t = run_experiment(fast);
    save_json("table2_accuracy", &t);
    let table = crate::common::render_table(
        &["", "WGTT (%)", "Enhanced 802.11r (%)"],
        &[
            vec![
                "TCP".into(),
                format!("{:.2}", t.wgtt_tcp),
                format!("{:.2}", t.baseline_tcp),
            ],
            vec![
                "UDP".into(),
                format!("{:.2}", t.wgtt_udp),
                format!("{:.2}", t.baseline_udp),
            ],
        ],
    );
    format!("Table 2 — switching accuracy (paper: ≈90 % vs ≈20 %)\n{table}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wgtt_accuracy_dominates_baseline() {
        let t = run_experiment(true);
        assert!(t.wgtt_udp > 60.0, "{t:?}");
        assert!(t.wgtt_tcp > 60.0, "{t:?}");
        assert!(t.baseline_udp < 45.0, "{t:?}");
        assert!(t.baseline_tcp < 45.0, "{t:?}");
        assert!(t.wgtt_udp > t.baseline_udp + 25.0, "{t:?}");
        assert!(t.wgtt_tcp > t.baseline_tcp + 25.0, "{t:?}");
    }
}
