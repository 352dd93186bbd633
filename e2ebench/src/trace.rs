//! Per-layer attribution, measured from outside the program.
//!
//! [`Timed`] wraps a [`WgttWorld`] in a [`World`] that times every call to
//! `WgttWorld::handle` and charges it, with the allocations it made, to the
//! layer its [`Ev`] variant belongs to ([`layer_of`] is the one table).
//! Because the wrapper needs its own simulator, [`build_world`] and
//! [`prime`] repeat what `wgtt_core::run` does before its loop; a traced
//! run only counts when its event count and fingerprint equal the
//! untraced run's.

use crate::alloc;
use crate::workloads::SETTLE;
use std::hint::black_box;
use std::time::{Duration, Instant};
use wgtt_core::{Ev, FlowKind, FlowSpec, Mode, Scenario, TrajectorySpec, WgttWorld};
use wgtt_net::{CbrSource, TcpConfig, TcpSender};
use wgtt_phy::geom::{Deployment, Position};
use wgtt_phy::{ConstantSpeed, Stationary, Trajectory};
use wgtt_sim::{Ctx, FaultEdge, SimTime, Simulator, World};

/// The layers handler time is charged to, in report order. `sim.engine`
/// is not here: it is the loop's wall time minus the handlers' sum.
pub const LAYERS: [&str; 8] = [
    "core.metrics",
    "mac",
    "core.selection",
    "core.switching",
    "net.dataplane",
    "net.transport",
    "core.replica",
    "other",
];

/// Index into [`LAYERS`] of the layer that handles `ev`. `mac` includes
/// the phy work nested in the radio path; the 802.11r baseline's roaming
/// events count as switching. A variant added later lands in `other`, so
/// a non-zero `other` means this table is stale.
fn layer_of(ev: &Ev) -> usize {
    match ev {
        Ev::AccuracyTick => 0,
        Ev::TxDone(_) | Ev::ContentionRound | Ev::BaForwardAtAp { .. } => 1,
        Ev::SelectionTick | Ev::CsiAtController { .. } | Ev::ProbeTick { .. } => 2,
        Ev::StopAtAp { .. }
        | Ev::StopDone { .. }
        | Ev::StartAtAp { .. }
        | Ev::StartDone { .. }
        | Ev::AckAtController { .. }
        | Ev::SwitchTimeout { .. }
        | Ev::ReattachTimeout { .. }
        | Ev::BeaconTick
        | Ev::RoamCheck { .. }
        | Ev::RoamReqArrive { .. }
        | Ev::RoamRespArrive { .. }
        | Ev::RoamComplete { .. } => 3,
        Ev::PacketAtController(_)
        | Ev::PacketAtAp { .. }
        | Ev::UplinkCopyAtController { .. }
        | Ev::PacketAtServer(_)
        | Ev::ReorderFlush { .. }
        | Ev::MigrantFlush { .. } => 4,
        Ev::UdpDownTick(_) | Ev::UplinkAppTick(_) | Ev::TcpPump(_) | Ev::TcpRtoCheck(_) => 5,
        Ev::ApCrash(_)
        | Ev::ApReboot(_)
        | Ev::ControllerCrash
        | Ev::ControllerRecover
        | Ev::ResyncAtAp { .. }
        | Ev::ResyncReplyAtController { .. }
        | Ev::ResyncDeadline { .. }
        | Ev::ReAdoptTimeout { .. }
        | Ev::JournalShip
        | Ev::JournalAtStandby { .. }
        | Ev::StandbyCheck
        | Ev::TermAnnounceAtAp { .. }
        | Ev::ZombieWake
        | Ev::ZombieDeadline => 6,
        #[allow(unreachable_patterns)]
        _ => 7,
    }
}

/// Handler time, event count and allocation calls charged to one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerStat {
    /// Summed wall time inside `WgttWorld::handle`.
    pub busy: Duration,
    /// Events handled.
    pub events: u64,
    /// Allocation calls made while handling them.
    pub allocs: u64,
}

/// A [`WgttWorld`] whose every event is timed and attributed.
struct Timed {
    /// The world being driven.
    inner: WgttWorld,
    /// One entry per [`LAYERS`] name.
    layers: [LayerStat; LAYERS.len()],
}

impl World for Timed {
    type Event = Ev;

    fn handle(&mut self, event: Ev, ctx: &mut Ctx<'_, Ev>) {
        let layer = layer_of(&event);
        let a0 = alloc::calls();
        let t0 = Instant::now();
        self.inner.handle(event, ctx);
        let busy = t0.elapsed();
        let s = &mut self.layers[layer];
        s.busy += busy;
        s.events += 1;
        s.allocs += alloc::calls() - a0;
    }
}

/// What one traced run measured.
pub struct TracedRun {
    /// The world after the run.
    pub world: WgttWorld,
    /// Per-layer handler totals.
    pub layers: [LayerStat; LAYERS.len()],
    /// Events the loop processed.
    pub events: u64,
    /// Wall time of the loop.
    pub wall: Duration,
    /// Allocation calls during the loop.
    pub allocs: u64,
}

/// Runs `s` the way `wgtt_core::run` does, with every event attributed.
pub fn traced_run(s: &Scenario) -> TracedRun {
    let mut sim = Simulator::new(Timed {
        inner: build_world(s),
        layers: Default::default(),
    });
    prime(&mut sim);
    let a0 = alloc::calls();
    let t0 = Instant::now();
    sim.run_until(SimTime::ZERO + s.duration + SETTLE);
    let wall = t0.elapsed();
    let allocs = alloc::calls() - a0;
    let events = sim.events_processed();
    let Timed { inner, layers } = sim.into_world();
    TracedRun {
        world: inner,
        layers,
        events,
        wall,
        allocs,
    }
}

/// The world `wgtt_core::run` builds for `s`, flows attached.
pub fn build_world(s: &Scenario) -> WgttWorld {
    let dep = s.config.deployment.build();
    let trajectories = s
        .clients
        .iter()
        .map(|c| trajectory(&c.trajectory, &dep))
        .collect();
    let mut world = WgttWorld::new(
        s.config.clone(),
        trajectories,
        s.seed,
        SimTime::ZERO + s.duration,
        s.log_deliveries,
    );
    world.faults = s.faults.clone();
    let start = SimTime::ZERO + s.flow_start;
    for (c, spec) in s.clients.iter().enumerate() {
        for flow in &spec.flows {
            let kind = match flow {
                FlowSpec::DownlinkUdp { rate_bps, payload } => {
                    FlowKind::DownUdp(CbrSource::new(*rate_bps, *payload, start))
                }
                FlowSpec::DownlinkTcp { limit } => {
                    let cfg = TcpConfig::default();
                    FlowKind::DownTcp(Box::new(match limit {
                        Some(n) => TcpSender::with_limit(cfg, *n),
                        None => TcpSender::new(cfg),
                    }))
                }
                FlowSpec::UplinkUdp { rate_bps, payload } => {
                    FlowKind::UpUdp(CbrSource::new(*rate_bps, *payload, start))
                }
            };
            let f = world.add_flow(c, kind);
            world.flows[f].start = start;
        }
    }
    world
}

fn trajectory(spec: &TrajectorySpec, dep: &Deployment) -> Box<dyn Trajectory> {
    match spec {
        TrajectorySpec::Stationary { x } => Box::new(Stationary {
            position: Position::new(*x, dep.lane_near_y, 1.5),
        }),
        TrajectorySpec::DriveBy { mph, lead_in_m } => {
            Box::new(ConstantSpeed::drive_by(dep, *mph, *lead_in_m))
        }
        TrajectorySpec::DriveByOffset {
            mph,
            lead_in_m,
            offset_m,
            far_lane,
        } => {
            let mut t = ConstantSpeed::drive_by(dep, *mph, *lead_in_m);
            t.start.x -= offset_m;
            if *far_lane {
                t.start.y = dep.lane_far_y;
            }
            Box::new(t)
        }
        TrajectorySpec::Opposing { mph, lead_in_m } => {
            Box::new(ConstantSpeed::drive_by_opposing(dep, *mph, *lead_in_m))
        }
    }
}

/// `wgtt_core::prime_events` for the wrapped world: the same first events
/// at the same instants, in the same order.
fn prime(sim: &mut Simulator<Timed>) {
    let w = &sim.world().inner;
    let n_clients = w.clients.len();
    let mode = w.cfg.mode;
    let edges = w.faults.edges();
    let standby = mode == Mode::Wgtt && !w.faults.controller_failovers.is_empty();
    let flows: Vec<(SimTime, Ev)> = w
        .flows
        .iter()
        .enumerate()
        .map(|(f, flow)| match &flow.kind {
            FlowKind::DownUdp(src) => (
                src.next_emit_time().unwrap_or(SimTime::from_millis(1)),
                Ev::UdpDownTick(f),
            ),
            FlowKind::UpUdp(src) => (
                src.next_emit_time().unwrap_or(SimTime::from_millis(1)),
                Ev::UplinkAppTick(f),
            ),
            FlowKind::DownTcp(_) => (SimTime::from_millis(1), Ev::TcpPump(f)),
        })
        .collect();
    sim.schedule_at(SimTime::ZERO, Ev::SelectionTick);
    sim.schedule_at(SimTime::from_micros(500), Ev::AccuracyTick);
    if mode == Mode::Enhanced80211r {
        sim.schedule_at(SimTime::ZERO, Ev::BeaconTick);
        for c in 0..n_clients {
            sim.schedule_at(SimTime::from_millis(1), Ev::RoamCheck { client: c });
        }
    }
    for c in 0..n_clients {
        sim.schedule_at(SimTime::from_micros(100), Ev::ProbeTick { client: c });
    }
    for (t, edge) in edges {
        let ev = match edge {
            FaultEdge::Crash(ap) => Ev::ApCrash(ap),
            FaultEdge::Reboot(ap) => Ev::ApReboot(ap),
            FaultEdge::ControllerCrash => Ev::ControllerCrash,
            FaultEdge::ControllerRecover => Ev::ControllerRecover,
            FaultEdge::ZombieWake => Ev::ZombieWake,
        };
        sim.schedule_at(t, ev);
    }
    if standby {
        sim.schedule_at(SimTime::from_millis(10), Ev::JournalShip);
        sim.schedule_at(SimTime::from_millis(5), Ev::StandbyCheck);
    }
    for (t, ev) in flows {
        sim.schedule_at(t, ev);
    }
}

/// Positions per AP the phy kernels are timed on.
const KERNEL_POSITIONS: usize = 512;
/// Timed passes over the inputs; the median pass is reported.
const KERNEL_PASSES: usize = 9;

/// Cost per call, in ns, of `WirelessLink::csi` and
/// `PerModel::capacity_bps` on the links of `world`'s client 0: every AP
/// × positions spaced evenly along that client's lane from 4 m before the
/// first AP to 4 m past the last, one fading instant per millisecond.
pub fn kernel_ns(world: &WgttWorld) -> (f64, f64) {
    let (lo, hi) = world.deployment.extent();
    let c = &world.clients[0];
    let origin = c.position(SimTime::ZERO);
    let speed = c.speed(SimTime::ZERO);
    let inputs: Vec<(usize, SimTime, Position)> = (0..world.links.len())
        .flat_map(|ap| {
            (0..KERNEL_POSITIONS).map(move |i| {
                let x = lo - 4.0 + (hi - lo + 8.0) * i as f64 / (KERNEL_POSITIONS - 1) as f64;
                (
                    ap,
                    SimTime::from_millis(i as u64),
                    Position::new(x, origin.y, origin.z),
                )
            })
        })
        .collect();
    let csis: Vec<_> = inputs
        .iter()
        .map(|(ap, t, pos)| world.links[*ap][0].csi(*t, pos, speed))
        .collect();
    let per = &world.cfg.per_model;
    let gi = world.cfg.gi;
    let csi_ns = median_pass(inputs.len(), || {
        for (ap, t, pos) in &inputs {
            black_box(world.links[*ap][0].csi(*t, black_box(pos), speed));
        }
    });
    let capacity_ns = median_pass(csis.len(), || {
        for csi in &csis {
            black_box(per.capacity_bps(gi, black_box(csi), 1500));
        }
    });
    (csi_ns, capacity_ns)
}

fn median_pass(calls: usize, mut pass: impl FnMut()) -> f64 {
    let mut ns: Vec<f64> = (0..KERNEL_PASSES)
        .map(|_| {
            let t0 = Instant::now();
            pass();
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[ns.len() / 2]
}
