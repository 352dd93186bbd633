//! The three benchmark workloads, generated from a seed.
//!
//! Each workload is a closed loop: one simulation runs at a time and the
//! next starts when it ends. The seed is the only input; the simulator
//! receives just the generated [`Scenario`] or [`ShardedScenario`].

use wgtt_core::{ClientSpec, FlowSpec, Scenario, ShardedScenario, SystemConfig, TrajectorySpec};
use wgtt_phy::mph_to_mps;
use wgtt_sim::{FaultSchedule, SimDuration, SimTime};

/// Vehicles in the convoy.
const CONVOY_VEHICLES: usize = 3;
/// Convoy speed, mph.
const CONVOY_MPH: f64 = 5.0;
/// Gap between convoy vehicles, m.
const CONVOY_HEADWAY_M: f64 = 4.0;
/// Lead-in before the first AP, m.
const CONVOY_LEAD_M: f64 = 4.0;
/// Simulated settle time both runners add after the traffic ends.
pub const SETTLE: SimDuration = SimDuration::from_millis(500);
/// Lockstep workers for the corridor's timed runs.
pub const CORRIDOR_WORKERS: usize = 2;
/// Distance between the scenario seeds of consecutive realizations.
const REALIZATION_STRIDE: u64 = 1_000_003;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Three cars of bulk downlink UDP past the 8-AP array, no faults.
    ConvoyUdp,
    /// The same convoy with greedy TCP plus uplink UDP under every fault
    /// tier: controller failover, an AP outage, backhaul dup/reorder and
    /// CSI drops.
    CommuteTcpFaults,
    /// The 8-shard ring corridor over a lossy, duplicating seam link.
    CorridorRing,
}

/// What a workload's seed generates.
pub enum Input {
    /// One world.
    Single(Scenario),
    /// A sharded corridor.
    Sharded(ShardedScenario),
}

impl Input {
    /// Simulated seconds one run covers: the traffic plus [`SETTLE`].
    pub fn sim_s(&self) -> f64 {
        let traffic = match self {
            Input::Single(s) => s.duration,
            Input::Sharded(s) => s.duration,
        };
        (traffic + SETTLE).as_secs_f64()
    }
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::ConvoyUdp,
        Workload::CommuteTcpFaults,
        Workload::CorridorRing,
    ];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ConvoyUdp => "convoy_udp",
            Workload::CommuteTcpFaults => "commute_tcp_faults",
            Workload::CorridorRing => "corridor_ring",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed used when none is given.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::ConvoyUdp | Workload::CommuteTcpFaults => 41,
            Workload::CorridorRing => 1717,
        }
    }

    /// Channel realizations one seed generates. On the convoy a single
    /// fading realization moves goodput by up to +30% and the event count
    /// with it, so a run covers ten and its figures describe the workload
    /// rather than one draw. The corridor already averages over eight
    /// shards' realizations.
    pub fn realizations(self) -> u64 {
        match self {
            Workload::ConvoyUdp | Workload::CommuteTcpFaults => 10,
            Workload::CorridorRing => 2,
        }
    }

    /// The inputs `seed` generates, one per realization; the first is the
    /// scenario with seed `seed` itself.
    pub fn inputs(self, seed: u64) -> Vec<Input> {
        (0..self.realizations())
            .map(|k| self.input(seed.wrapping_add(k * REALIZATION_STRIDE)))
            .collect()
    }

    fn input(self, seed: u64) -> Input {
        match self {
            Workload::ConvoyUdp => Input::Single(convoy(
                seed,
                vec![FlowSpec::DownlinkUdp {
                    rate_bps: 30_000_000,
                    payload: 1472,
                }],
            )),
            Workload::CommuteTcpFaults => {
                let mut s = convoy(
                    seed,
                    vec![
                        FlowSpec::DownlinkTcp { limit: None },
                        FlowSpec::UplinkUdp {
                            rate_bps: 2_000_000,
                            payload: 1200,
                        },
                    ],
                );
                let end = SimTime::ZERO + s.duration + SimDuration::from_secs(1);
                let at = SimTime::from_secs;
                s.faults = FaultSchedule::new()
                    .with_controller_failover(at(8), at(9))
                    .with_ap_outage(3, at(14), at(16))
                    .with_duplication(SimTime::ZERO, end, 0.05)
                    .with_reordering(SimTime::ZERO, end, 0.05, SimDuration::from_millis(1))
                    .with_csi_drops(at(20), at(24), 0.30);
                Input::Single(s)
            }
            Workload::CorridorRing => {
                let mut cfg = SystemConfig::default();
                cfg.deployment.num_aps = 4;
                let mut s = ShardedScenario::ring_corridor(
                    cfg,
                    8,
                    2,
                    35.0,
                    5_000_000,
                    SimDuration::from_secs(10),
                    seed,
                );
                let end = SimTime::ZERO + s.duration + SimDuration::from_secs(1);
                let seam = FaultSchedule::new()
                    .with_migration_loss(SimTime::ZERO, end, 0.10)
                    .with_migration_dup(SimTime::ZERO, end, 0.10);
                s.shard_faults = vec![seam; s.shards];
                Input::Sharded(s)
            }
        }
    }
}

/// The convoy: vehicles in the near lane, one headway apart, driving the
/// whole array; the run lasts until the last one has passed it.
fn convoy(seed: u64, flows: Vec<FlowSpec>) -> Scenario {
    let config = SystemConfig::default();
    let (lo, hi) = config.deployment.build().extent();
    let clients = (0..CONVOY_VEHICLES)
        .map(|i| ClientSpec {
            trajectory: TrajectorySpec::DriveByOffset {
                mph: CONVOY_MPH,
                lead_in_m: CONVOY_LEAD_M,
                offset_m: i as f64 * CONVOY_HEADWAY_M,
                far_lane: false,
            },
            flows: flows.clone(),
        })
        .collect();
    let span = (hi - lo) + 2.0 * CONVOY_LEAD_M + (CONVOY_VEHICLES - 1) as f64 * CONVOY_HEADWAY_M;
    Scenario {
        config,
        clients,
        duration: SimDuration::from_secs_f64(span / mph_to_mps(CONVOY_MPH)),
        seed,
        log_deliveries: false,
        flow_start: SimDuration::from_millis(1),
        faults: FaultSchedule::default(),
    }
}
