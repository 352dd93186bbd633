//! The complete simulated network: APs, clients, controller, server,
//! radio medium, and backhaul, driven by the discrete-event engine.
//!
//! One [`WgttWorld`] instance is a full experiment: it can run in WGTT mode
//! (controller-driven millisecond switching, §3 of the paper) or Enhanced
//! 802.11r mode (the paper's §5.1 baseline) over identical channel
//! realizations, which is what makes the head-to-head comparisons fair.
//!
//! ## Radio model
//!
//! Channel access is resolved in *contention rounds*: whenever the channel
//! goes idle and stations have pending frames, each draws a backoff from
//! its contention window; the smallest draw transmits, ties collide. An AP
//! transmission is an A-MPDU + SIFS + Block ACK exchange; a client
//! transmission is a short uplink burst answered by AP acknowledgements
//! (where simultaneous AP responses can collide — the paper's §5.3.2
//! microbenchmark). Per-MPDU delivery is Bernoulli with probability from
//! the ESNR→PER model evaluated on the link's CSI at transmission time.

use crate::ap::{ApState, MPDU_RETRY_LIMIT};
use crate::client::{ClientState, DeliveryRecord};
use crate::config::{Mode, SystemConfig};
use crate::controller::{ControllerState, ResyncAction};
use crate::dedup::Deduplicator;
use crate::metrics::SystemMetrics;
use crate::replica::{JournalBatch, Replica};
use crate::runner::SETTLE;
use crate::switching::{AckOutcome, ResyncReply, SwitchMsg, TermVerdict, CONTROL_PACKET_BYTES};
use wgtt_mac::blockack::BlockAckFrame;
use wgtt_mac::timing::{
    ampdu_airtime, block_ack_airtime, difs, frame_airtime, sifs, slot, MAX_AMPDU_BYTES,
};
use wgtt_mac::{AssocState, MgmtFrame};
use wgtt_net::{
    overhead, ApId, Backhaul, CbrSource, ClientId, FlowId, Packet, PacketFactory, Payload,
    TcpReceiver, TcpSender, UdpSink,
};
use wgtt_phy::esnr::esnr_from_csi;
use wgtt_phy::geom::Deployment;
use wgtt_phy::mcs::Mcs;
use wgtt_phy::{EsnrMemo, Modulation, WirelessLink};
use wgtt_sim::{Ctx, FaultEdge, FaultSchedule, SimDuration, SimRng, SimTime, World};

mod baseline;
mod dataplane;
mod oracle;
mod radio;
mod recovery;
mod seam;
mod selection;
mod switching;
mod transport;

use radio::{AirTx, NodeKey};
use recovery::Standby;
pub use seam::{MigrantFlow, MigrantSpec, MigrationRecord, SeamEntry, SeamPayload};

/// Mean SNR floor below which frames are never received at all, dB.
pub const RANGE_FLOOR_DB: f64 = -2.0;
/// One-way latency between the traffic server and the controller
/// (paper caches content on a local server).
const SERVER_LATENCY: SimDuration = SimDuration::from_millis(1);

/// One post-reboot resync round: the controller has broadcast `Resync` and
/// is collecting AP replies. Uplink copies arriving mid-round are held so
/// they are only dedup-checked once the table is re-primed.
struct ResyncSession {
    /// Round number (guards the deadline event against later rounds).
    seq: u64,
    /// Replies expected (reachable APs at broadcast time).
    expected: usize,
    /// Replies collected so far.
    replies: Vec<ResyncReply>,
    /// Recovery instant, for the resync-latency metric.
    started_at: SimTime,
    /// Uplink copies parked until the dedup table is rebuilt.
    held_uplink: Vec<(usize, Packet)>,
}

/// A downlink traffic flow at the server.
pub enum FlowKind {
    /// Constant-bit-rate UDP toward the client.
    DownUdp(CbrSource),
    /// TCP (greedy or size-limited) toward the client (boxed: the sender's
    /// SACK scoreboard makes it much larger than the CBR variants).
    DownTcp(Box<TcpSender>),
    /// Client-sourced CBR UDP toward the server.
    UpUdp(CbrSource),
}

/// One application flow.
pub struct ServerFlow {
    /// Flow id.
    pub id: FlowId,
    /// Client endpoint (index into `clients`).
    pub client: usize,
    /// Traffic kind and state.
    pub kind: FlowKind,
    /// Sink for uplink flows (at the server).
    pub up_sink: Option<UdpSink>,
    /// Completion time of a size-limited TCP flow.
    pub completed_at: Option<SimTime>,
    /// Application start time (TCP flows wait for this; CBR sources embed
    /// their own schedule).
    pub start: SimTime,
    /// Earliest scheduled RTO check (suppresses duplicate timer events).
    rto_check_at: Option<SimTime>,
}

impl ServerFlow {
    /// The event that starts this flow (index `fidx`): its CBR source's
    /// first emission, else `fallback` (a TCP pump always starts there).
    fn first_tick(&self, fidx: usize, fallback: SimTime) -> (SimTime, Ev) {
        match &self.kind {
            FlowKind::DownUdp(src) => (
                src.next_emit_time().unwrap_or(fallback),
                Ev::UdpDownTick(fidx),
            ),
            FlowKind::UpUdp(src) => (
                src.next_emit_time().unwrap_or(fallback),
                Ev::UplinkAppTick(fidx),
            ),
            FlowKind::DownTcp(_) => (fallback, Ev::TcpPump(fidx)),
        }
    }
}

/// Events of the world. `Clone` so the backhaul duplication fault can
/// deliver the same frame twice.
#[derive(Clone)]
pub enum Ev {
    /// CBR downlink source is due.
    UdpDownTick(usize),
    /// Client-side uplink CBR source is due.
    UplinkAppTick(usize),
    /// Ask the TCP sender for more segments.
    TcpPump(usize),
    /// Retransmission-timer check for a TCP flow.
    TcpRtoCheck(usize),
    /// Downlink packet reaches the controller from the server.
    PacketAtController(Packet),
    /// A downlink packet reaches an AP through the tunnel.
    PacketAtAp { ap: usize, packet: Packet },
    /// Uplink copy reaches the controller from an AP.
    UplinkCopyAtController { from_ap: usize, packet: Packet },
    /// De-duplicated uplink packet reaches the server.
    PacketAtServer(Packet),
    /// `stop(c)` control packet arrives at the old AP.
    StopAtAp {
        ap: usize,
        client: usize,
        to_ap: usize,
        epoch: u32,
        term: u32,
    },
    /// Old AP finished processing the stop (kernel query done).
    StopDone {
        ap: usize,
        client: usize,
        to_ap: usize,
        epoch: u32,
        term: u32,
    },
    /// `start(c, k)` arrives at the new AP.
    StartAtAp {
        ap: usize,
        client: usize,
        k: u16,
        epoch: u32,
        term: u32,
    },
    /// New AP finished processing the start.
    StartDone {
        ap: usize,
        client: usize,
        k: u16,
        epoch: u32,
        term: u32,
    },
    /// `ack` arrives back at the controller.
    AckAtController {
        client: usize,
        from_ap: usize,
        epoch: u32,
        term: u32,
    },
    /// CSI report arrives at the controller.
    CsiAtController {
        ap: usize,
        client: usize,
        esnr_db: f64,
    },
    /// Forwarded Block ACK arrives at the serving AP.
    BaForwardAtAp {
        ap: usize,
        client: usize,
        ba: BlockAckFrame,
    },
    /// Resolve one DCF contention round.
    ContentionRound,
    /// A radio transmission completes.
    TxDone(u64),
    /// Switch-protocol retransmission timer.
    SwitchTimeout { client: usize },
    /// Controller evaluates AP selection.
    SelectionTick,
    /// Oracle accuracy/capacity sampling.
    AccuracyTick,
    /// Baseline: APs beacon.
    BeaconTick,
    /// Baseline: client evaluates roaming.
    RoamCheck { client: usize },
    /// Baseline: reassociation request reaches the air.
    RoamReqArrive {
        client: usize,
        target: usize,
        retries: u32,
    },
    /// Baseline: reassociation response heads back.
    RoamRespArrive {
        client: usize,
        target: usize,
        retries: u32,
    },
    /// Client keep-alive probe timer.
    ProbeTick { client: usize },
    /// Client reorder-buffer release timeout.
    ReorderFlush { client: usize },
    /// Baseline: handover downtime over — data may flow via the new AP.
    RoamComplete { client: usize, target: usize },
    /// Fault injection: an AP crashes (state wiped, radio dark).
    ApCrash(usize),
    /// Fault injection: a crashed AP comes back with blank state.
    ApReboot(usize),
    /// Retry timer for an emergency re-attach after a serving-AP death.
    ReattachTimeout { client: usize },
    /// Fault injection: the controller process crashes (soft state wiped;
    /// nothing sent, everything inbound dropped, no timers fire).
    ControllerCrash,
    /// Fault injection: the controller restarts blank and broadcasts
    /// `Resync` to every reachable AP.
    ControllerRecover,
    /// Re-inject seam datagrams deposited after a migrant's first
    /// association (outbox forwards from a later lockstep barrier). The
    /// sharding layer schedules this at the barrier instant; worlds never
    /// emit it themselves.
    MigrantFlush { client: usize },
    /// Post-reboot `Resync` broadcast arrives at an AP, stamped with the
    /// issuing controller's term (a zombie's stale term is fenced here).
    ResyncAtAp { ap: usize, term: u32 },
    /// An AP's resync reply arrives back at the controller.
    ResyncReplyAtController {
        reply: crate::switching::ResyncReply,
    },
    /// Fallback: finalize resync session `seq` with whatever replies
    /// arrived (an AP may have died between broadcast and reply).
    ResyncDeadline { seq: u64 },
    /// Local-autonomy guard: an AP that applied a `stop` while the
    /// controller was down checks whether its client was left serverless
    /// (the `start` never landed anywhere) and re-adopts it.
    ReAdoptTimeout {
        ap: usize,
        client: usize,
        epoch: u32,
    },
    /// Primary ships one journal batch to the standby (armed runs only).
    JournalShip,
    /// A journal batch arrives at the standby replica.
    JournalAtStandby { batch: JournalBatch },
    /// Standby failure-detector tick: promote on journal silence.
    StandbyCheck,
    /// Post-takeover term announcement arrives at an AP: raises its term
    /// fence and flushes degraded-mode uplink toward the new controller.
    TermAnnounceAtAp { ap: usize, term: u32 },
    /// The crashed ex-primary process un-freezes and, unaware it was
    /// superseded, tries to resume its reign with stale state.
    ZombieWake,
    /// The zombie's resync round got no takers (every AP fenced it): it
    /// concludes it was superseded and stands down.
    ZombieDeadline,
}

/// The world.
pub struct WgttWorld {
    /// Configuration.
    pub cfg: SystemConfig,
    /// AP array geometry.
    pub deployment: Deployment,
    /// `links[ap][client]`.
    pub links: Vec<Vec<WirelessLink>>,
    /// Access points.
    pub aps: Vec<ApState>,
    /// Clients.
    pub clients: Vec<ClientState>,
    /// Controller.
    pub ctrl: ControllerState,
    /// Application flows.
    pub flows: Vec<ServerFlow>,
    /// Wired backhaul model.
    pub backhaul: Backhaul,
    /// Packet IP-ident factory.
    pub factory: PacketFactory,
    /// System-wide counters.
    pub sys: SystemMetrics,
    /// Traffic stops at this time.
    pub traffic_until: SimTime,
    /// Injected fault schedule (empty by default; an empty schedule leaves
    /// every RNG stream untouched, so healthy runs stay bit-identical).
    pub faults: FaultSchedule,
    /// RNG stream reserved for fault decisions (CSI drops), forked off the
    /// root so fault draws never perturb the main `rng` sequence.
    fault_rng: SimRng,
    /// Ground truth: which APs are currently crashed.
    ap_down: Vec<bool>,
    /// Ground truth: whether the controller is currently crashed. While
    /// set, every controller handler drops its input and no controller
    /// timer has effect.
    controller_down: bool,
    /// In-progress post-reboot resync round (None outside recovery).
    resync: Option<ResyncSession>,
    /// Monotone resync round counter (guards stale deadline events).
    resync_seq: u64,
    /// Warm standby (lazily created on the first journal/detector event;
    /// stays `None` forever in unarmed runs).
    standby: Option<Standby>,
    /// When the primary crashed with a standby armed (None until then;
    /// cleared at takeover) — the takeover-latency clock.
    primary_crashed_at: Option<SimTime>,
    /// Journal batch sequence counter (1-based, see `JournalBatch::seq`).
    journal_seq: u64,
    /// Dedup keys the controller forwarded since the last journal batch
    /// (the per-batch delta; drained at each ship).
    journal_pending_keys: Vec<u64>,
    /// Term the ex-primary held when it crashed — the stale term its
    /// zombie stamps on frames at wake.
    zombie_term: u32,
    /// In-flight switches at crash time: the zombie re-drives these on
    /// wake (the split-brain hazard the term fence exists to stop).
    zombie_pending: Vec<(ClientId, crate::switching::PendingSwitch)>,
    /// Emergency re-attaches in progress, dense by client index:
    /// `Some((target AP, retries, switch epoch))` while one is pending.
    /// Index order equals the old ordered-map iteration order, so the
    /// reboot re-association scan stays deterministic.
    pending_reattach: Vec<Option<(usize, u32, u32)>>,
    /// Clients whose serving AP crashed (dense by client index, holding
    /// the crash instant) — resolved into failover-latency samples when
    /// they re-attach.
    pending_failover: Vec<Option<SimTime>>,
    /// Each client's oracle winner from the previous accuracy tick — a
    /// warm start for the ranking scan. Purely a visit-order hint: the
    /// scan's lexicographic argmax makes the result independent of it.
    last_oracle: Vec<Option<usize>>,
    /// Dense by client index: `true` once the client was retired out of
    /// this world (migrated to a neighboring shard at a lockstep barrier).
    /// All-false in unsharded runs, where every guard on it is a no-op and
    /// the engine stays bit-identical to the pre-sharding code.
    pub(crate) departed: Vec<bool>,
    /// Dense by client index: seam datagrams of a *departed* client,
    /// captured by the event guard instead of dropped. Drained by the
    /// sharding layer at the next lockstep barrier and forwarded to the
    /// client's destination shard. Always empty in unsharded runs.
    pub(crate) outbox: Vec<Vec<SeamPayload>>,
    /// Dense by client index: imported seam datagrams (already rewritten
    /// into this world's id space) waiting for the migrant's first
    /// association — re-injecting before the controller has a fan-out set
    /// would silently drop them. Flushed by the selection tick the moment
    /// the client associates, or by `Ev::MigrantFlush` for later barriers.
    /// Always empty in unsharded runs.
    pending_import: Vec<Vec<SeamPayload>>,
    rng: SimRng,
    /// Transmissions on the air, sorted by tx id (ids are monotone, so
    /// inserts append and the order never needs repair). Steady-state
    /// population is the handful of concurrent exchanges, so binary-search
    /// removal beats a tree and allocates nothing once warm.
    in_flight: Vec<(u64, AirTx)>,
    next_tx_id: u64,
    round_scheduled: bool,
    /// Livelock guard: consecutive contention rounds at one timestamp.
    rounds_at_ts: (SimTime, u32),
    /// Geometry of transmissions currently on the air, sorted by tx id:
    /// (tx id, tx position, rx position, end time, transmitter key).
    /// Id order makes every scan cross-process deterministic, same as the
    /// ordered map this replaces.
    active_geo: Vec<(
        u64,
        wgtt_phy::Position,
        wgtt_phy::Position,
        SimTime,
        NodeKey,
    )>,
    /// DCF collisions observed (stats).
    pub dcf_collisions: u64,
    /// Reusable contention-round buffers (cleared each round, capacity
    /// retained) — the round runs per-event, so per-call allocation here
    /// dominated steady-state heap traffic.
    scratch_busy: Vec<NodeKey>,
    scratch_contenders: Vec<(NodeKey, u32)>,
    scratch_active: Vec<(wgtt_phy::Position, wgtt_phy::Position, usize)>,
    #[allow(clippy::type_complexity)]
    scratch_granted: Vec<(
        NodeKey,
        u32,
        (wgtt_phy::Position, wgtt_phy::Position),
        usize,
        bool,
    )>,
}

impl WgttWorld {
    /// Builds a world: deployment geometry, per-link channel realizations,
    /// APs, clients (with trajectories), and the controller.
    pub fn new(
        cfg: SystemConfig,
        trajectories: Vec<Box<dyn wgtt_phy::Trajectory>>,
        seed: u64,
        traffic_until: SimTime,
        log_deliveries: bool,
    ) -> Self {
        let deployment = cfg.deployment.build();
        Self::new_with_deployment(
            cfg,
            deployment,
            trajectories,
            seed,
            traffic_until,
            log_deliveries,
        )
    }

    /// Like [`WgttWorld::new`] but with an explicit (possibly irregular)
    /// deployment — used by the AP-density experiment.
    pub fn new_with_deployment(
        cfg: SystemConfig,
        deployment: Deployment,
        trajectories: Vec<Box<dyn wgtt_phy::Trajectory>>,
        seed: u64,
        traffic_until: SimTime,
        log_deliveries: bool,
    ) -> Self {
        let root = SimRng::new(seed);
        let links: Vec<Vec<WirelessLink>> = deployment
            .aps
            .iter()
            .enumerate()
            .map(|(a, site)| {
                (0..trajectories.len())
                    .map(|c| {
                        let mut r = root.fork(&format!("link/{a}/{c}"));
                        WirelessLink::new(*site, cfg.link.clone(), &mut r)
                    })
                    .collect()
            })
            .collect();
        let aps = (0..deployment.aps.len())
            .map(|i| ApState::new(ApId(i as u32)))
            .collect();
        let clients: Vec<ClientState> = trajectories
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                ClientState::new(
                    ClientId(i as u32),
                    t,
                    cfg.gi,
                    SimDuration::from_millis(100),
                    log_deliveries,
                )
            })
            .collect();
        let ctrl = ControllerState::new(cfg.selection);
        let n_aps = deployment.aps.len();
        let n_clients = clients.len();
        WgttWorld {
            deployment,
            links,
            aps,
            clients,
            ctrl,
            flows: Vec::new(),
            backhaul: Backhaul::new(root.fork("backhaul")),
            factory: PacketFactory::new(),
            sys: SystemMetrics::default(),
            traffic_until,
            faults: FaultSchedule::default(),
            fault_rng: root.fork("faults"),
            ap_down: vec![false; n_aps],
            controller_down: false,
            resync: None,
            resync_seq: 0,
            standby: None,
            primary_crashed_at: None,
            journal_seq: 0,
            journal_pending_keys: Vec::new(),
            zombie_term: 0,
            zombie_pending: Vec::new(),
            pending_reattach: vec![None; n_clients],
            pending_failover: vec![None; n_clients],
            last_oracle: vec![None; n_clients],
            departed: vec![false; n_clients],
            outbox: vec![Vec::new(); n_clients],
            pending_import: vec![Vec::new(); n_clients],
            rng: root.fork("world"),
            in_flight: Vec::new(),
            next_tx_id: 0,
            round_scheduled: false,
            rounds_at_ts: (SimTime::ZERO, 0),
            active_geo: Vec::new(),
            dcf_collisions: 0,
            scratch_busy: Vec::new(),
            scratch_contenders: Vec::new(),
            scratch_active: Vec::new(),
            scratch_granted: Vec::new(),
            cfg,
        }
    }

    /// Registers a flow, returning its index.
    pub fn add_flow(&mut self, client: usize, kind: FlowKind) -> usize {
        let id = FlowId(self.flows.len() as u32);
        let up_sink = matches!(kind, FlowKind::UpUdp(_)).then(UdpSink::new);
        // Make sure the client has matching endpoint state.
        match &kind {
            FlowKind::DownTcp(_) => {
                self.clients[client].tcp_rx.insert(id, TcpReceiver::new());
            }
            FlowKind::DownUdp(_) => {
                self.clients[client].udp_sink.insert(id, UdpSink::new());
            }
            FlowKind::UpUdp(_) => {}
        }
        self.flows.push(ServerFlow {
            id,
            client,
            kind,
            up_sink,
            completed_at: None,
            start: SimTime::ZERO,
            rto_check_at: None,
        });
        self.flows.len() - 1
    }

    // ---------- helpers ----------

    fn client_pos(&self, c: usize, t: SimTime) -> wgtt_phy::Position {
        self.clients[c].position(t)
    }

    fn mean_snr(&self, ap: usize, c: usize, t: SimTime) -> f64 {
        self.links[ap][c].mean_snr_db(&self.client_pos(c, t))
    }

    fn in_radio_range(&self, ap: usize, c: usize, t: SimTime) -> bool {
        self.mean_snr(ap, c, t) >= RANGE_FLOOR_DB
    }

    fn csi(&self, ap: usize, c: usize, t: SimTime) -> wgtt_phy::Csi {
        let pos = self.client_pos(c, t);
        let speed = self.clients[c].speed(t);
        self.links[ap][c].csi(t, &pos, speed)
    }

    fn alloc_tx(&mut self, tx: AirTx) -> u64 {
        let id = self.next_tx_id;
        self.next_tx_id += 1;
        // Ids are monotone, so a push keeps the slab sorted by id.
        self.in_flight.push((id, tx));
        id
    }

    fn ensure_round(&mut self, ctx: &mut Ctx<'_, Ev>) {
        if self.round_scheduled {
            return;
        }
        let any_ap = self.aps.iter().any(|a| a.has_work());
        let any_client = self.clients.iter().any(|c| c.has_uplink_work());
        if !any_ap && !any_client {
            return;
        }
        self.round_scheduled = true;
        ctx.schedule_at(ctx.now(), Ev::ContentionRound);
    }

    fn backhaul_send(&mut self, ctx: &mut Ctx<'_, Ev>, bytes: usize, lossy: bool, ev: Ev) {
        if lossy {
            let keep = !self.rng.chance(self.cfg.control_loss_prob);
            if !keep {
                return;
            }
        }
        // Layer on any scheduled backhaul impairment; a no-op impairment
        // makes the healthy model's RNG draws.
        let imp = self.faults.backhaul_at(ctx.now());
        let delivery = self.backhaul.transit_faulty(bytes, &imp);
        if let Some(d2) = delivery.duplicate {
            self.sys.backhaul_dup_deliveries += 1;
            ctx.schedule_in(d2, ev.clone());
        }
        if delivery.reordered {
            self.sys.backhaul_reorders += 1;
        }
        if let Some(d) = delivery.primary {
            ctx.schedule_in(d, ev);
        }
    }

    /// Sends one fixed-size control packet (switch legs, resync probes,
    /// term announcements) over the backhaul, counting it.
    fn send_control(&mut self, ctx: &mut Ctx<'_, Ev>, lossy: bool, ev: Ev) {
        self.sys.control_packets += 1;
        self.backhaul_send(ctx, CONTROL_PACKET_BYTES, lossy, ev);
    }

    /// Whether `ap` can exchange backhaul messages with the controller.
    fn ap_reachable(&self, ap: usize, now: SimTime) -> bool {
        !self.ap_down[ap] && !self.faults.partitioned(ap, now)
    }

    /// Arrival of a controller-stamped frame at `ap`: `false` if the AP is
    /// unreachable, or if the term fence drops the frame as coming from a
    /// superseded controller reign (before it can touch any state).
    fn admit_control_frame(&mut self, ap: usize, now: SimTime, term: u32) -> bool {
        if !self.ap_reachable(ap, now) {
            return false;
        }
        if let TermVerdict::Stale = self.aps[ap].term_guard.on_frame(term) {
            self.sys.stale_term_dropped += 1;
            return false;
        }
        true
    }

    /// Serving AP according to the control plane.
    fn serving_of(&self, c: usize) -> Option<usize> {
        self.clients[c].serving.map(|a| a.0 as usize)
    }

    /// Whether AP `ap` and client `c` share a channel under the channel
    /// plan (§7): with a single-channel plan, always; otherwise the client
    /// is tuned to its serving AP's channel (or hears everything while
    /// scanning/unassociated).
    fn same_channel(&self, ap: usize, c: usize) -> bool {
        if self.cfg.channel_stride <= 1 {
            return true;
        }
        match self.serving_of(c) {
            Some(s) => self.cfg.channel_of(ap) == self.cfg.channel_of(s),
            None => true,
        }
    }
}

/// Seeds the initial periodic events for a freshly built world.
pub fn prime_events(sim: &mut wgtt_sim::Simulator<WgttWorld>) {
    let n_clients = sim.world().clients.len();
    let n_flows = sim.world().flows.len();
    let mode = sim.world().cfg.mode;
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
    let edges = sim.world().faults.edges();
    for (t, edge) in edges {
        match edge {
            FaultEdge::Crash(ap) => {
                sim.schedule_at(t, Ev::ApCrash(ap));
            }
            FaultEdge::Reboot(ap) => {
                sim.schedule_at(t, Ev::ApReboot(ap));
            }
            FaultEdge::ControllerCrash => {
                sim.schedule_at(t, Ev::ControllerCrash);
            }
            FaultEdge::ControllerRecover => {
                sim.schedule_at(t, Ev::ControllerRecover);
            }
            FaultEdge::ZombieWake => {
                sim.schedule_at(t, Ev::ZombieWake);
            }
        }
    }
    // Warm-standby machinery only spins up when a failover is armed: an
    // unarmed run schedules no journal or detector events at all, keeping
    // it bit-identical to the single-controller engine.
    if mode == Mode::Wgtt && !sim.world().faults.controller_failovers.is_empty() {
        sim.schedule_at(SimTime::from_millis(10), Ev::JournalShip);
        sim.schedule_at(SimTime::from_millis(5), Ev::StandbyCheck);
    }
    for f in 0..n_flows {
        let (at, ev) = sim.world().flows[f].first_tick(f, SimTime::from_millis(1));
        sim.schedule_at(at, ev);
    }
}

/// Schedules the recurring events a freshly admitted migrant needs: its
/// keep-alive probe timer (which bootstraps CSI flow and thereby its first
/// association) and one tick per flow attached at admission. The lockstep
/// barrier calls this right after [`WgttWorld::admit_migrant`]; together
/// they are the migrant-side analogue of [`prime_events`].
pub fn prime_migrant_events(sim: &mut wgtt_sim::Simulator<WgttWorld>, client: usize) {
    let now = sim.now();
    sim.schedule_at(now, Ev::ProbeTick { client });
    let flow_ticks: Vec<(SimTime, Ev)> = sim
        .world()
        .flows
        .iter()
        .enumerate()
        .filter(|(_, f)| f.client == client)
        .map(|(fidx, f)| f.first_tick(fidx, now))
        .collect();
    for (at, ev) in flow_ticks {
        sim.schedule_at(at.max(now), ev);
    }
}

impl WgttWorld {
    /// The client an event targets, if it names exactly one — the hook for
    /// the departed-client guard in [`World::handle`]. Events without a
    /// single client target (contention rounds, ticks that loop over all
    /// clients, fault edges, controller lifecycle) return `None` and guard
    /// per-client inside their handlers where needed.
    fn ev_client(&self, ev: &Ev) -> Option<usize> {
        match ev {
            Ev::UdpDownTick(f) | Ev::UplinkAppTick(f) | Ev::TcpPump(f) | Ev::TcpRtoCheck(f) => {
                Some(self.flows[*f].client)
            }
            Ev::PacketAtController(p) | Ev::PacketAtServer(p) => Some(p.client.0 as usize),
            Ev::PacketAtAp { packet, .. } | Ev::UplinkCopyAtController { packet, .. } => {
                Some(packet.client.0 as usize)
            }
            Ev::StopAtAp { client, .. }
            | Ev::StopDone { client, .. }
            | Ev::StartAtAp { client, .. }
            | Ev::StartDone { client, .. }
            | Ev::AckAtController { client, .. }
            | Ev::CsiAtController { client, .. }
            | Ev::BaForwardAtAp { client, .. }
            | Ev::SwitchTimeout { client }
            | Ev::RoamCheck { client }
            | Ev::RoamReqArrive { client, .. }
            | Ev::RoamRespArrive { client, .. }
            | Ev::ProbeTick { client }
            | Ev::ReorderFlush { client }
            | Ev::RoamComplete { client, .. }
            | Ev::ReattachTimeout { client }
            | Ev::MigrantFlush { client }
            | Ev::ReAdoptTimeout { client, .. } => Some(*client),
            _ => None,
        }
    }
}

impl World for WgttWorld {
    type Event = Ev;

    fn handle(&mut self, event: Ev, ctx: &mut Ctx<'_, Ev>) {
        // Departed-client guard: a client retired to another shard can
        // still be named by events that were already in flight when the
        // barrier retired it. Data-bearing events are captured into the
        // seam outbox so the next barrier can forward the datagram to the
        // client's destination shard; control/timer stragglers (CSI
        // reports, probe ticks, switch legs, …) are pure bookkeeping and
        // are dropped where they stand. Either way no handler ever touches
        // a retired client's wiped state. In unsharded runs `departed` is
        // all-false and this never fires.
        if let Some(c) = self.ev_client(&event) {
            if self.departed[c] {
                match event {
                    // A downlink datagram between server, controller, and
                    // AP: not yet on the air, so not yet "sent on the old
                    // link" — it belongs to the destination.
                    Ev::PacketAtController(p) => self.capture_seam(c, SeamPayload::Downlink(p)),
                    Ev::PacketAtAp { packet, .. } => {
                        self.capture_seam(c, SeamPayload::Downlink(packet))
                    }
                    // An AP→controller uplink copy: must cross the seam so
                    // the destination's dedup filter arbitrates delivery.
                    Ev::UplinkCopyAtController { packet, .. } => {
                        self.capture_seam(c, SeamPayload::UplinkCopy(packet))
                    }
                    // Already deduplicated, caught on the server hop.
                    Ev::PacketAtServer(p) => self.capture_seam(c, SeamPayload::ServerBound(p)),
                    _ => self.sys.departed_ctrl_drops += 1,
                }
                return;
            }
        }
        match event {
            Ev::UdpDownTick(f) => self.on_udp_down_tick(ctx, f),
            Ev::UplinkAppTick(f) => self.on_uplink_app_tick(ctx, f),
            Ev::TcpPump(f) => self.pump_tcp(ctx, f),
            Ev::TcpRtoCheck(f) => self.on_tcp_rto_check(ctx, f),
            Ev::PacketAtController(p) => self.on_packet_at_controller(ctx, p),
            Ev::PacketAtAp { ap, packet } => self.on_packet_at_ap(ctx, ap, packet),
            Ev::UplinkCopyAtController { from_ap, packet } => {
                self.on_uplink_copy(ctx, from_ap, packet)
            }
            Ev::PacketAtServer(p) => self.on_packet_at_server(ctx, p),
            Ev::StopAtAp {
                ap,
                client,
                to_ap,
                epoch,
                term,
            } => self.on_stop_at_ap(ctx, ap, client, to_ap, epoch, term),
            Ev::StopDone {
                ap,
                client,
                to_ap,
                epoch,
                term,
            } => self.on_stop_done(ctx, ap, client, to_ap, epoch, term),
            Ev::StartAtAp {
                ap,
                client,
                k,
                epoch,
                term,
            } => self.on_start_at_ap(ctx, ap, client, k, epoch, term),
            Ev::StartDone {
                ap,
                client,
                k,
                epoch,
                term,
            } => self.on_start_done(ctx, ap, client, k, epoch, term),
            Ev::AckAtController {
                client,
                from_ap,
                epoch,
                term: _,
            } => self.on_ack_at_controller(ctx, client, from_ap, epoch),
            Ev::CsiAtController {
                ap,
                client,
                esnr_db,
            } => self.on_csi_at_controller(ap, client, esnr_db, ctx.now()),
            Ev::BaForwardAtAp { ap, client, ba } => self.on_ba_forward_at_ap(ap, client, ba),
            Ev::ContentionRound => self.on_contention_round(ctx),
            Ev::TxDone(id) => self.on_tx_done(ctx, id),
            Ev::SwitchTimeout { client } => self.on_switch_timeout(ctx, client),
            Ev::SelectionTick => self.on_selection_tick(ctx),
            Ev::AccuracyTick => self.on_accuracy_tick(ctx),
            Ev::BeaconTick => self.on_beacon_tick(ctx),
            Ev::RoamCheck { client } => self.on_roam_check(ctx, client),
            Ev::RoamReqArrive {
                client,
                target,
                retries,
            } => self.on_roam_req(ctx, client, target, retries),
            Ev::RoamRespArrive {
                client,
                target,
                retries,
            } => self.on_roam_resp(ctx, client, target, retries),
            Ev::ProbeTick { client } => self.on_probe_tick(ctx, client),
            Ev::ReorderFlush { client } => self.on_reorder_flush(ctx, client),
            Ev::RoamComplete { client, target } => self.on_roam_complete(ctx, client, target),
            Ev::ApCrash(ap) => self.on_ap_crash(ctx, ap),
            Ev::ApReboot(ap) => self.on_ap_reboot(ctx, ap),
            Ev::ReattachTimeout { client } => self.on_reattach_timeout(ctx, client),
            Ev::ControllerCrash => self.on_controller_crash(ctx),
            Ev::ControllerRecover => self.on_controller_recover(ctx),
            Ev::MigrantFlush { client } => self.on_migrant_flush(ctx, client),
            Ev::ResyncAtAp { ap, term } => self.on_resync_at_ap(ctx, ap, term),
            Ev::ResyncReplyAtController { reply } => self.on_resync_reply_at_controller(ctx, reply),
            Ev::ResyncDeadline { seq } => self.on_resync_deadline(ctx, seq),
            Ev::ReAdoptTimeout { ap, client, epoch } => {
                self.on_readopt_timeout(ctx, ap, client, epoch)
            }
            Ev::JournalShip => self.on_journal_ship(ctx),
            Ev::JournalAtStandby { batch } => self.on_journal_at_standby(ctx, batch),
            Ev::StandbyCheck => self.on_standby_check(ctx),
            Ev::TermAnnounceAtAp { ap, term } => self.on_term_announce_at_ap(ctx, ap, term),
            Ev::ZombieWake => self.on_zombie_wake(ctx),
            Ev::ZombieDeadline => self.on_zombie_deadline(ctx),
        }
    }
}
