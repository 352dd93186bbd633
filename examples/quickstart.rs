//! Quickstart: one client drives past the eight-AP array at 15 mph pulling
//! a greedy TCP download, under WGTT and under the Enhanced 802.11r
//! baseline, on identical channel realizations.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use wgtt::core::{run, FlowSpec, Mode, Scenario, SystemConfig};

fn main() {
    let seed = 42;
    for mode in [Mode::Wgtt, Mode::Enhanced80211r] {
        let cfg = SystemConfig {
            mode,
            // Switching accuracy is scored by the measurement oracle.
            oracle: true,
            ..SystemConfig::default()
        };
        let scenario =
            Scenario::single_drive(cfg, 15.0, vec![FlowSpec::DownlinkTcp { limit: None }], seed);
        let duration = scenario.duration;
        let result = run(scenario);
        let m = &result.world.clients[0].metrics;
        let accuracy = m
            .switching_accuracy()
            .map_or("n/a".to_string(), |a| format!("{:.1}%", a * 100.0));
        println!(
            "{:<18} TCP goodput {:>6.2} Mbit/s | {:>3} AP switches | switching accuracy {:>6}",
            match mode {
                Mode::Wgtt => "WGTT",
                Mode::Enhanced80211r => "Enhanced 802.11r",
            },
            m.mean_downlink_bps(duration) / 1e6,
            m.switch_count(),
            accuracy,
        );
    }
    println!("\n(Identical seeds mean identical fading; the gap is the roaming system.)");
}
