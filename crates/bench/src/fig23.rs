//! Fig 23 — AP density.
//!
//! An irregular deployment with a sparse half (15 m spacing) and a dense
//! half (5 m spacing): WGTT's UDP throughput is higher in the dense
//! segment at every speed (more nearby APs mean better best-links and more
//! uplink diversity), and stays consistent across speeds in both.

use crate::common::{save_json, UDP_PAYLOAD};
use serde::Serialize;
use wgtt_core::config::Mode;

use wgtt_phy::geom::DeploymentConfig;
use wgtt_sim::SimDuration;

/// One (speed, segment) cell of the figure.
#[derive(Debug, Serialize)]
pub struct DensityPoint {
    /// Speed, mph.
    pub mph: f64,
    /// Goodput while in the sparse segment, Mbit/s.
    pub sparse_mbps: f64,
    /// Goodput while in the dense segment, Mbit/s.
    pub dense_mbps: f64,
}

/// Spacings: 3 gaps of 15 m (sparse, APs 0–3), then 4 gaps of 5 m (dense,
/// APs 3–7).
const SPACINGS: [f64; 7] = [15.0, 15.0, 15.0, 5.0, 5.0, 5.0, 5.0];

/// Runs the density experiment at one speed.
pub fn run_experiment(mph: f64, seed: u64) -> DensityPoint {
    let mut cfg = crate::common::config(Mode::Wgtt);
    cfg.deployment = DeploymentConfig::default();
    let dep = cfg.deployment.build_irregular(&SPACINGS);
    let sparse_range = (dep.aps[0].position.x, dep.aps[3].position.x);
    let dense_range = (dep.aps[3].position.x, dep.aps[7].position.x);
    let total_m = dep.extent().1 - dep.extent().0 + 8.0;
    let speed_mps = wgtt_phy::mph_to_mps(mph);

    // The runner builds regular arrays only; use the world API directly
    // with the irregular deployment.
    let mut world_cfg = cfg.clone();
    use wgtt_core::world::{prime_events, FlowKind, WgttWorld};
    use wgtt_net::CbrSource;
    use wgtt_phy::{ConstantSpeed, Position};
    let traj = ConstantSpeed {
        start: Position::new(dep.extent().0 - 4.0, dep.lane_near_y, 1.5),
        speed_mps,
    };
    let duration = SimDuration::from_secs_f64(total_m / speed_mps);
    world_cfg.deployment.num_aps = dep.num_aps();
    let mut world = WgttWorld::new_with_deployment(
        world_cfg,
        dep,
        vec![Box::new(traj)],
        seed,
        wgtt_sim::SimTime::ZERO + duration,
        false,
    );
    world.add_flow(
        0,
        FlowKind::DownUdp(CbrSource::new(
            crate::common::BULK_UDP_BPS,
            UDP_PAYLOAD,
            wgtt_sim::SimTime::from_millis(1),
        )),
    );
    let mut sim = wgtt_sim::Simulator::new(world);
    prime_events(&mut sim);
    sim.run_until(wgtt_sim::SimTime::ZERO + duration + wgtt_core::runner::SETTLE);
    let world = sim.into_world();

    // Split the throughput series by which segment the client was in.
    let start_x = world.clients[0].position(wgtt_sim::SimTime::ZERO).x;
    let rates = world.clients[0].metrics.downlink.rates();
    let in_seg = |t_s: f64, seg: (f64, f64)| {
        let x = start_x + speed_mps * t_s;
        x >= seg.0 && x < seg.1
    };
    let seg_mean = |seg: (f64, f64)| {
        let vals: Vec<f64> = rates
            .iter()
            .filter(|(t, _)| in_seg(t.as_secs_f64() + 0.05, seg))
            .map(|(_, v)| v / 1e6)
            .collect();
        wgtt_sim::stats::mean(&vals)
    };
    DensityPoint {
        mph,
        sparse_mbps: seg_mean(sparse_range),
        dense_mbps: seg_mean(dense_range),
    }
}

/// Runs and renders Fig 23. Speeds are independent runs, so they fan out
/// across the worker pool (the irregular-deployment runs bypass the
/// scenario runner, hence `par::map` over speeds instead of a seed sweep).
pub fn report(fast: bool) -> String {
    let speeds: &[f64] = if fast { &[15.0] } else { &[5.0, 15.0, 25.0] };
    let rows: Vec<DensityPoint> =
        crate::par::map(speeds.to_vec(), |mph, _| run_experiment(mph, 23));
    save_json("fig23_density", &rows);
    let table = crate::common::render_table(
        &["speed (mph)", "sparse (Mb/s)", "dense (Mb/s)"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.0}", r.mph),
                    format!("{:.2}", r.sparse_mbps),
                    format!("{:.2}", r.dense_mbps),
                ]
            })
            .collect::<Vec<_>>(),
    );
    format!("Fig 23 — UDP throughput, sparse (15 m) vs dense (5 m) AP segments\n{table}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_segment_outperforms_sparse() {
        let p = run_experiment(15.0, 4);
        assert!(
            p.dense_mbps > p.sparse_mbps,
            "dense {} vs sparse {}",
            p.dense_mbps,
            p.sparse_mbps
        );
        assert!(p.dense_mbps > 3.0, "{p:?}");
    }
}
