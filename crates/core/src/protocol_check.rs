//! Small-scope exhaustive interleaving checker for the switch control
//! plane.
//!
//! The three-step switch protocol (§3.1.2) runs over a backhaul that may
//! lose, delay, duplicate, or reorder control frames. The simulator only
//! ever samples one interleaving per seed; this module instead *enumerates*
//! every delivery schedule of one or two overlapping switches within small
//! budgets (bounded duplications, drops, and retransmission timeouts) and
//! checks safety invariants on each one — the "small scope hypothesis"
//! style of checking: protocol bugs of this shape show up in tiny
//! configurations if they exist at all.
//!
//! The checker drives the *production* control-plane state machines — the
//! real [`SwitchEngine`] and the real [`ApSwitchGuard`] — not a
//! re-implementation, so what it certifies is the code the simulator runs.
//! A [`CheckerConfig::epoch_guard`]`= false` mode bypasses the guards and
//! forges the pre-epoch controller behaviour (complete the pending switch
//! on *any* ack), replicating the engine as it existed before epochs; the
//! test suite uses it to demonstrate the checker actually catches the
//! stale-`start`/foreign-`ack` ABA family this PR fixes.
//!
//! Invariants checked on every transition / terminal state:
//!
//! * **At most one AP serving** the client at any instant.
//! * **Queue heads only move forward across generations** — a `start`
//!   from a superseded switch epoch never repositions a queue head after
//!   a newer generation has been applied ([`ViolationKind::StaleHeadWrite`]).
//! * **An epoch-N ack never completes epoch-M** — every completion's
//!   target AP must actually have applied that generation's `start`
//!   ([`ViolationKind::ForeignAck`]).
//! * **No silent wedges** — every abandoned switch surfaces an
//!   [`crate::switching::AbandonRecord`]; a quiescent run that completed
//!   all its switches ends with exactly the last target serving at the
//!   handoff index ([`ViolationKind::TerminalMismatch`]).
//! * **Epochs are monotone across controller restarts** — a switch issued
//!   after a crash/recovery must carry an epoch strictly above every
//!   generation any AP has seen, or the whole ABA family the guards kill
//!   is re-armed by the reborn controller
//!   ([`ViolationKind::EpochRegression`]).
//!
//! [`CheckerConfig::max_crashes`] adds a controller crash/recover choice
//! pair to the schedule alphabet: a crash wipes the production engine
//! (timers die, acks are eaten) while AP↔AP `start` legs keep flowing; a
//! recovery rebuilds the epoch space from the AP guards — the AP-sourced
//! resync — unless [`CheckerConfig::resync_naive`] forges the broken
//! restart-at-zero recovery, which the test suite uses to prove the
//! checker actually catches the cross-restart aliasing family.
//!
//! [`CheckerConfig::max_migrations`] adds the inter-controller handoff
//! slice — modelled as the *two-phase* protocol the sharded runner ships:
//! [`Choice::MigrateExport`] retires the client at a lockstep barrier and
//! puts an idempotent, term-stamped `NetMsg::MigPrepare` on the wire
//! (switch-epoch high-water, recently delivered uplink dedup keys,
//! undelivered downlink residue); delivering it admits the client at the
//! destination and answers with a `NetMsg::MigCommit` that releases the
//! source's retained record. Seam frames are lossy like everything else:
//! [`Choice::DropMigration`] / [`Choice::DupMigration`] spend their own
//! budgets, [`Choice::MigrateRetry`] re-sends the pending prepare
//! (re-stamped with the current term), [`Choice::MigrateAbort`] gives up
//! after the retry budget and readopts the client at the source, and
//! [`Choice::CrashDuringMigration`] bounces the source controller
//! mid-handoff — the retained record survives (it is durable), which is
//! the crash-safety claim under test. The destination must resume its
//! epoch space strictly above the record's high-water
//! ([`ViolationKind::EpochRegression`] otherwise), re-prime the
//! transferred keys so cross-seam retransmits of already-delivered
//! packets drop instead of reaching the Internet twice
//! ([`ViolationKind::CrossSeamDuplicate`]), deliver every residue
//! datagram ([`ViolationKind::LostResidue`]), and never leave both
//! incarnations live without an armed reconciliation record
//! ([`ViolationKind::SplitMigration`]). Two shims exist to prove the
//! checker sees every family: [`CheckerConfig::migration_naive`] forges
//! the no-transfer admission (record discarded at import — the
//! data-plane families), and [`CheckerConfig::migration_retention`]` =
//! false` forges the source forgetting the record the moment the prepare
//! is sent — a dropped prepare then loses the record outright (the
//! vehicle still arrives, so the destination admits it blind), and the
//! only abort available is a *blind* readopt that cannot know whether
//! the destination admitted, the split-brain the retained record
//! prevents.
//!
//! [`CheckerConfig::max_failovers`] adds the hot-standby choice pair:
//! [`Choice::FailoverToStandby`] kills the primary mid-schedule and
//! promotes a journal-fed standby under a bumped controller *term*
//! (announced to every AP as enumerable in-flight frames, so partially
//! fenced networks are explored too), and [`Choice::ZombiePrimary`]
//! re-injects the dead primary's in-flight `stop` stamped with its stale
//! term. With [`CheckerConfig::fencing`] on, AP-side term high-water
//! guards drop every zombie frame before it touches state; the
//! `fencing = false` shim demonstrates the split-brain family
//! ([`ViolationKind::SplitBrain`]) the fence exists to kill.

use crate::switching::{
    AckOutcome, ApSwitchGuard, StartVerdict, StopVerdict, SwitchEngine, SwitchMsg,
};
use wgtt_net::{ApId, ClientId};
use wgtt_sim::{SimDuration, SimTime};

/// The single client every scenario switches. The value is arbitrary but
/// deliberately non-zero so index/id mix-ups would surface.
const CLIENT: ClientId = ClientId(7);

/// Deterministic ground-truth handoff index for a switch generation —
/// stands in for "where the old AP's queue head happened to be". Distinct
/// per epoch so a stale generation's `k` is distinguishable.
fn k_of(epoch: u32) -> u16 {
    (epoch as u16) * 10
}

/// Uplink idents the source controller delivered to the Internet before
/// the barrier (the keys its dedup filter remembers and exports).
const MIG_SRC_DELIVERED: [u16; 2] = [0, 1];

/// Uplink idents the client retransmits after crossing the seam. Ident 1
/// was forwarded-but-unacked at the source — the classic cross-seam
/// duplicate unless the destination re-primes the transferred keys; ident
/// 2 was never delivered and must pass.
const MIG_RETRANSMITS: [u16; 2] = [1, 2];

/// Downlink idents stranded in the source AP's cyclic queue at the
/// barrier — the residue the record carries across the seam.
const MIG_DOWN_RESIDUE: [u16; 1] = [100];

// The checker's migration record is implicit: the epoch high-water rides
// the `MigPrepare` frame (frames stay `Copy`), and the dedup keys and
// residue are the `MIG_*` constants above — the same three pieces the
// production `MigrationRecord` carries.

/// A checker scenario: which switches run, over how hostile a network.
#[derive(Debug, Clone)]
pub struct CheckerConfig {
    /// Number of APs in the scenario.
    pub n_aps: usize,
    /// The switch sequence as `(from, to)` AP indices. The first is issued
    /// immediately; each subsequent one is issued the moment the previous
    /// resolves (completes or is abandoned), so its control frames overlap
    /// the predecessor's stragglers.
    pub switches: Vec<(usize, usize)>,
    /// APs that silently eat every control frame addressed to them
    /// (crashed: reachable only in the sense that the wire accepts the
    /// frame). Drives the abandon/no-wedge paths.
    pub dead_aps: Vec<usize>,
    /// Budget of network-duplicated deliveries per schedule.
    pub max_dups: u32,
    /// Budget of dropped frames per schedule.
    pub max_drops: u32,
    /// Budget of retransmission-timer firings per schedule. Eleven are
    /// needed to walk a switch through the full retry ladder to abandon.
    pub max_timeouts: u32,
    /// `true` runs the shipped engine (epoch-validated acks, AP-side
    /// guards). `false` replicates the pre-epoch engine: guards bypassed,
    /// any ack completes the pending switch.
    pub epoch_guard: bool,
    /// Budget of controller crash/recover cycles per schedule. Each crash
    /// wipes the engine's soft state at an arbitrary point; recovery is a
    /// separate choice, so every down-window width is enumerated.
    pub max_crashes: u32,
    /// `true` forges a broken recovery whose epoch space restarts at zero
    /// instead of resuming above the AP-reported high-water marks — the
    /// naive-resync shim the test suite uses to prove the checker sees
    /// the cross-restart aliasing family.
    pub resync_naive: bool,
    /// Budget of standby failovers per schedule. Each one kills the
    /// primary at an arbitrary point, promotes the journal-fed standby
    /// under a bumped term, and arms the zombie replay choice.
    pub max_failovers: u32,
    /// `true` runs the shipped AP-side term fences. `false` forges the
    /// fence away: zombie frames with a superseded term reach the guards,
    /// and any that mutate AP state surface as
    /// [`ViolationKind::SplitBrain`].
    pub fencing: bool,
    /// Budget of inter-controller client migrations per schedule. Each one
    /// arms an export choice once every configured switch has resolved
    /// (migrations happen at lockstep barriers, with no switch in flight);
    /// the export puts a `MigPrepare` on the wire, and delivering it
    /// admits the client at a fresh destination controller and sends the
    /// commit back.
    pub max_migrations: u32,
    /// `true` forges the pre-handoff no-transfer admission: the delivered
    /// record is discarded, the destination starts with a fresh identity —
    /// the shim the test suite uses to prove the checker catches the
    /// epoch-regression, cross-seam-duplicate, and lost-residue families.
    pub migration_naive: bool,
    /// `true` (the shipped protocol) retains the exported record at the
    /// source until the commit lands: retries re-send it, and an abort
    /// readopts the client bit-exactly with the reconciliation state
    /// armed. `false` forges the no-retention source: the record is
    /// forgotten the moment the prepare is sent, a dropped prepare loses
    /// it outright (the destination admits the arriving vehicle blind),
    /// and the only abort is a blind readopt — the shim the test suite
    /// uses to prove the checker sees [`ViolationKind::SplitMigration`].
    pub migration_retention: bool,
    /// Budget of seam-frame drops per schedule ([`Choice::DropMigration`];
    /// seam frames are exempt from the generic drop budget).
    pub max_mig_drops: u32,
    /// Budget of seam-frame duplications per schedule
    /// ([`Choice::DupMigration`]).
    pub max_mig_dups: u32,
    /// Budget of prepare re-sends per schedule ([`Choice::MigrateRetry`]);
    /// the abort choice arms only once this budget is spent, mirroring
    /// the production `max_attempts` policy.
    pub max_mig_retries: u32,
    /// Budget of mid-migration controller bounces per schedule
    /// ([`Choice::CrashDuringMigration`]).
    pub max_mig_crashes: u32,
    /// Hard cap on explored schedules (the DFS stops cleanly there).
    pub max_schedules: u64,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            n_aps: 3,
            switches: vec![(0, 1), (1, 2)],
            dead_aps: Vec::new(),
            max_dups: 1,
            max_drops: 1,
            max_timeouts: 1,
            epoch_guard: true,
            max_crashes: 0,
            resync_naive: false,
            max_failovers: 0,
            fencing: true,
            max_migrations: 0,
            migration_naive: false,
            migration_retention: true,
            max_mig_drops: 0,
            max_mig_dups: 0,
            max_mig_retries: 1,
            max_mig_crashes: 0,
            max_schedules: 1_000_000,
        }
    }
}

/// What a schedule did at one step. Traces are attached to violations so
/// a failure is replayable by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Deliver (and consume) the in-flight frame at this net index.
    Deliver(usize),
    /// Deliver a duplicate copy, leaving the original in flight.
    Duplicate(usize),
    /// Drop the in-flight frame at this net index.
    Drop(usize),
    /// Fire the controller's retransmission timer.
    Timeout,
    /// Crash the controller: soft state wiped, timers dead, inbound acks
    /// eaten until recovery. AP↔AP legs keep flowing.
    CrashController,
    /// Restart the controller and resync its epoch space from the AP
    /// guards (or naively, under [`CheckerConfig::resync_naive`]).
    RecoverController,
    /// Kill the primary and promote the journal-fed standby: term bumped,
    /// fence announcements put in flight to every AP, the orphaned
    /// in-flight switch re-driven under a fresh epoch — while the dead
    /// primary's own frames stay on the wire.
    FailoverToStandby,
    /// The dead primary's zombie wakes and re-injects its in-flight
    /// `stop`, stamped with its superseded term.
    ZombiePrimary,
    /// Lockstep barrier, source side: retire the client and put its
    /// term-stamped `MigPrepare` (epoch high-water, dedup keys, downlink
    /// residue) on the wire, retaining the record until the commit lands.
    MigrateExport,
    /// Drop the seam frame at this net index (spends the seam-drop
    /// budget; seam frames are exempt from the generic [`Choice::Drop`]).
    /// Under the no-retention shim, dropping an undelivered prepare loses
    /// the record outright — the vehicle still arrives, so the
    /// destination admits it blind.
    DropMigration(usize),
    /// Deliver a duplicate copy of the seam frame at this net index,
    /// leaving the original in flight.
    DupMigration(usize),
    /// The source's retry timer: re-send the pending prepare, re-stamped
    /// with the controller's current term.
    MigrateRetry,
    /// The retry budget is spent and the commit never landed: the source
    /// aborts the handoff and readopts the client. With retention the
    /// readopt is bit-exact and the reconciliation state stays armed;
    /// under the no-retention shim it is a blind readopt that cannot know
    /// whether the destination admitted.
    MigrateAbort,
    /// Bounce the source controller mid-handoff (crash + term-preserving
    /// restart, epoch space resynced from the AP guards). The retained
    /// migration record is durable and survives.
    CrashDuringMigration,
}

/// An invariant the protocol broke on some schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two APs believed they were serving the client at once.
    DualServing,
    /// A superseded generation's `start` repositioned a queue head after
    /// a newer generation had already been applied.
    StaleHeadWrite,
    /// A switch completed whose target AP never applied that generation's
    /// `start` — the controller was lied to about who is serving.
    ForeignAck,
    /// An abandoned switch failed to surface an abandon record, or a
    /// quiescent state still had a switch in flight with timer budget
    /// left.
    Wedge,
    /// A run that completed every switch ended with the wrong AP serving
    /// or the wrong queue head installed.
    TerminalMismatch,
    /// A switch was issued with an epoch not strictly above every
    /// generation the AP guards have seen — a controller reborn into a
    /// colliding epoch space, re-arming the cross-restart ABA family.
    EpochRegression,
    /// An AP mutated state for a frame stamped with a term below its term
    /// high-water mark — a superseded (zombie) controller steering the
    /// network after its standby took over. Structurally impossible with
    /// the term fence on; the `fencing = false` shim exists to show the
    /// checker sees it.
    SplitBrain,
    /// An uplink packet the source controller had already delivered to the
    /// Internet was delivered a second time by the destination — the
    /// migration failed to carry the dedup keys across the seam, so the
    /// client's post-handoff retransmit of a forwarded-but-unacked packet
    /// reached the server twice.
    CrossSeamDuplicate,
    /// A downlink datagram stranded in the source AP's queue at the
    /// barrier never reached the client through the destination — the
    /// migration dropped the record's residue.
    LostResidue,
    /// The run quiesced with the client live at *both* controllers and no
    /// armed reconciliation state (no retained pending record, no
    /// readopt-after-abort marker) — a two-generals outcome the retained
    /// record turns into "exactly-once ownership, or a record that will
    /// reconcile it". Only the no-retention shim can reach it.
    SplitMigration,
}

/// One invariant violation, with the schedule that produced it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// The exact schedule prefix that reached the violation.
    pub trace: Vec<Choice>,
}

/// Aggregate result of exploring a scenario.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Distinct delivery schedules explored (each DFS path is one).
    pub schedules: u64,
    /// Total invariant violations found.
    pub violation_count: u64,
    /// The first violations found (traces kept for the first
    /// [`MAX_KEPT_VIOLATIONS`]; the rest only counted).
    pub violations: Vec<Violation>,
    /// Switch completions summed over all schedules.
    pub completions: u64,
    /// Switch abandonments summed over all schedules.
    pub abandons: u64,
    /// Control frames the epoch guards rejected as stale, summed.
    pub stale_drops: u64,
    /// Duplicate `start`s answered with a bare re-ack, summed.
    pub dup_reacks: u64,
    /// Acks eaten by a crashed controller, summed over all schedules.
    pub crash_drops: u64,
    /// Frames from a superseded controller term the AP fences dropped,
    /// summed over all schedules.
    pub term_fence_drops: u64,
    /// Completed client migrations (export + import pairs), summed over
    /// all schedules.
    pub migrations: u64,
    /// Cross-seam retransmits the destination's re-primed dedup filter
    /// dropped, summed over all schedules — the transfer visibly working.
    pub seam_dedup_drops: u64,
    /// `MigPrepare` re-sends fired, summed over all schedules.
    pub seam_retries: u64,
    /// Handoffs aborted-and-readopted at the source, summed.
    pub seam_aborts: u64,
    /// Idempotence absorptions: duplicate prepares re-acked, duplicate or
    /// post-abort commits swallowed, summed over all schedules.
    pub seam_absorbed: u64,
    /// Schedules cut short by budget exhaustion with a switch still in
    /// flight (bounded exploration, not a protocol wedge).
    pub incomplete: u64,
    /// Whether the `max_schedules` cap stopped the exploration early.
    pub truncated: bool,
}

/// An in-flight control frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NetMsg {
    /// Controller → old AP.
    Stop {
        ap: usize,
        to_ap: usize,
        epoch: u32,
        term: u32,
    },
    /// Old AP → new AP.
    Start {
        ap: usize,
        k: u16,
        epoch: u32,
        term: u32,
    },
    /// New AP → controller. Deliberately un-termed: the controller is the
    /// term authority and the epoch already pins the generation.
    Ack { from_ap: usize, epoch: u32 },
    /// New controller → AP term announcement (raises the fence).
    Announce { ap: usize, term: u32 },
    /// Client → destination controller: a post-seam uplink retransmission
    /// (the dup window straddling the migration barrier).
    UplinkAtDest { ident: u16 },
    /// Destination controller → client: a transferred residue datagram
    /// being re-delivered. Rides the barrier-serialized transfer, not the
    /// lossy wire, so it is never a drop choice — dropping it would model
    /// a loss the protocol cannot see and forge `LostResidue`.
    DownAtDest { ident: u16 },
    /// Source controller → destination controller: the two-phase export.
    /// The record rides implicitly (epoch high-water inline; keys and
    /// residue are the `MIG_*` constants), `seq` makes the import
    /// idempotent, `term` lets the destination fence a superseded source.
    MigPrepare { seq: u32, epoch_max: u32, term: u32 },
    /// Destination controller → source controller: the prepare with this
    /// `seq` was applied (or absorbed); the source may release its
    /// retained record.
    MigCommit { seq: u32 },
}

/// Model of one AP's per-client soft state.
#[derive(Debug, Clone)]
struct ModelAp {
    serving: bool,
    head: Option<u16>,
    guard: ApSwitchGuard,
    /// Highest controller term this AP has witnessed — the fence.
    term_seen: u32,
    /// Epochs whose `start` this AP actually applied — the ground truth
    /// completions are checked against.
    applied: Vec<u32>,
}

/// One node of the schedule tree.
#[derive(Debug, Clone)]
struct State {
    engine: SwitchEngine,
    aps: Vec<ModelAp>,
    net: Vec<NetMsg>,
    now: SimTime,
    dups_left: u32,
    drops_left: u32,
    timeouts_left: u32,
    /// Next entry of `cfg.switches` to issue.
    next_switch: usize,
    /// Newest epoch whose `start` has been applied anywhere.
    max_applied_epoch: u32,
    /// Whether the controller is currently crashed.
    controller_down: bool,
    crashes_left: u32,
    failovers_left: u32,
    /// Frames the dead primary will re-inject if the zombie choice fires
    /// (captured at failover, stamped with the superseded term).
    zombie_frames: Vec<NetMsg>,
    /// Target AP index and epoch of the most recent completion — the
    /// ground truth the terminal head check compares against (epochs are
    /// no longer a pure function of the switch count once a crash can
    /// advance the space past the reported high-water mark).
    last_completed: Option<(usize, u32)>,
    migrations_left: u32,
    /// Next seam sequence number to allocate.
    mig_seq: u32,
    /// The retained record at the source: `(seq, epoch_max)` of the
    /// in-flight prepare, kept until the matching commit lands (the keys
    /// and residue are the `MIG_*` constants). `None` = no handoff in
    /// flight (never exported, committed, or aborted).
    mig_pending: Option<(u32, u32)>,
    /// The source aborted a handoff and readopted the client — the armed
    /// reconciliation marker: a late commit is absorbed, and the client
    /// re-exports at its next boundary pass.
    mig_aborted: bool,
    /// Whether the client is live at the source controller.
    source_active: bool,
    /// Whether the client is live at the destination controller.
    dest_active: bool,
    /// Seam sequence numbers the destination has applied — the import
    /// idempotence ledger.
    mig_applied: Vec<u32>,
    /// Highest source term the destination has seen on a prepare — its
    /// fence against a superseded source incarnation.
    mig_term_seen: u32,
    mig_retries_left: u32,
    mig_drops_left: u32,
    mig_dups_left: u32,
    mig_crashes_left: u32,
    /// Post-abort re-export allowance (the readopted client passing the
    /// boundary again); bounded so the DFS terminates.
    mig_reexports_left: u32,
    /// Whether a migration has completed (arms the terminal residue check).
    mig_done: bool,
    /// Residue idents the destination owes the client (from the record,
    /// or from the discarded record under the naive shim).
    mig_residue: Vec<u16>,
    /// Idents the destination controller's dedup filter remembers:
    /// transferred keys plus everything delivered post-seam.
    dest_seen: Vec<u16>,
    /// Residue idents actually re-delivered by the destination.
    dest_down_delivered: Vec<u16>,
    completions: u64,
    abandons: u64,
    stale_drops: u64,
    dup_reacks: u64,
    crash_drops: u64,
    term_fence_drops: u64,
    migrations: u64,
    seam_dedup_drops: u64,
    seam_retries: u64,
    seam_aborts: u64,
    seam_absorbed: u64,
    trace: Vec<Choice>,
}

impl State {
    fn initial(cfg: &CheckerConfig) -> State {
        let mut st = State {
            engine: SwitchEngine::new(),
            aps: (0..cfg.n_aps)
                .map(|_| ModelAp {
                    serving: false,
                    head: None,
                    guard: ApSwitchGuard::default(),
                    term_seen: 0,
                    applied: Vec::new(),
                })
                .collect(),
            net: Vec::new(),
            now: SimTime::ZERO,
            dups_left: cfg.max_dups,
            drops_left: cfg.max_drops,
            timeouts_left: cfg.max_timeouts,
            next_switch: 0,
            max_applied_epoch: 0,
            controller_down: false,
            crashes_left: cfg.max_crashes,
            failovers_left: cfg.max_failovers,
            zombie_frames: Vec::new(),
            last_completed: None,
            migrations_left: cfg.max_migrations,
            mig_seq: 0,
            mig_pending: None,
            mig_aborted: false,
            source_active: true,
            dest_active: false,
            mig_applied: Vec::new(),
            mig_term_seen: 0,
            mig_retries_left: cfg.max_mig_retries,
            mig_drops_left: cfg.max_mig_drops,
            mig_dups_left: cfg.max_mig_dups,
            mig_crashes_left: cfg.max_mig_crashes,
            mig_reexports_left: 1,
            mig_done: false,
            mig_residue: Vec::new(),
            dest_seen: Vec::new(),
            dest_down_delivered: Vec::new(),
            completions: 0,
            abandons: 0,
            stale_drops: 0,
            dup_reacks: 0,
            crash_drops: 0,
            term_fence_drops: 0,
            migrations: 0,
            seam_dedup_drops: 0,
            seam_retries: 0,
            seam_aborts: 0,
            seam_absorbed: 0,
            trace: Vec::new(),
        };
        if let Some(&(from, _)) = cfg.switches.first() {
            st.aps[from].serving = true;
            st.aps[from].head = Some(0);
        }
        st.issue_next(cfg)
            .expect("no AP has seen an epoch before the first issue");
        st
    }

    /// Highest switch generation any AP guard has witnessed — the floor
    /// the AP-sourced resync reports to a rebooted controller.
    fn guard_floor(&self) -> u32 {
        self.aps.iter().map(|a| a.guard.latest()).max().unwrap_or(0)
    }

    /// Issues the next configured switch, if any remain.
    fn issue_next(&mut self, cfg: &CheckerConfig) -> Result<(), ViolationKind> {
        let Some(&(from, to)) = cfg.switches.get(self.next_switch) else {
            return Ok(());
        };
        self.next_switch += 1;
        if let Some(SwitchMsg::Stop {
            to_ap, epoch, term, ..
        }) = self
            .engine
            .issue(self.now, CLIENT, ApId(from as u32), ApId(to as u32))
        {
            // Cross-restart monotonicity: an epoch at or below what some
            // AP already saw aliases a prior generation — the reborn
            // controller's frames become indistinguishable from that
            // generation's stragglers.
            if epoch <= self.guard_floor() {
                return Err(ViolationKind::EpochRegression);
            }
            self.send(
                cfg,
                NetMsg::Stop {
                    ap: from,
                    to_ap: to_ap.0 as usize,
                    epoch,
                    term,
                },
            );
        }
        Ok(())
    }

    /// Puts a frame on the wire. A frame addressed to a dead AP is eaten
    /// silently (the simulator's `ap_reachable` check) — it never becomes
    /// a schedule choice, which keeps the abandon scenarios' trees small.
    fn send(&mut self, cfg: &CheckerConfig, m: NetMsg) {
        let dest_dead = match m {
            NetMsg::Stop { ap, .. } | NetMsg::Start { ap, .. } | NetMsg::Announce { ap, .. } => {
                cfg.dead_aps.contains(&ap)
            }
            NetMsg::Ack { .. } => false, // the controller is never dead here
            // Seam legs terminate at a controller or the migrated client —
            // never a dead AP.
            NetMsg::UplinkAtDest { .. }
            | NetMsg::DownAtDest { .. }
            | NetMsg::MigPrepare { .. }
            | NetMsg::MigCommit { .. } => false,
        };
        if !dest_dead {
            self.net.push(m);
        }
    }

    /// All schedule choices available from this state, in a fixed order
    /// (the enumeration is deterministic).
    fn choices(&self, cfg: &CheckerConfig) -> Vec<Choice> {
        let mut v = Vec::new();
        // Ample-set reduction: a `DownAtDest` delivery touches only the
        // terminal-checked delivered set, so it commutes with every other
        // transition; duplicating it is a dedup no-op and dropping it is
        // already forbidden. Exploring it alone, first, is therefore
        // exhaustive over everything observable.
        for i in 0..self.net.len() {
            if matches!(self.net[i], NetMsg::DownAtDest { .. }) {
                return vec![Choice::Deliver(i)];
            }
        }
        for i in 0..self.net.len() {
            // Symmetry reduction: in-flight frames form an unordered
            // multiset, so acting on the second copy of an identical
            // frame reaches the same states as acting on the first —
            // schedule only the lowest index of each distinct frame.
            if self.net[..i].contains(&self.net[i]) {
                continue;
            }
            v.push(Choice::Deliver(i));
            let seam = matches!(
                self.net[i],
                NetMsg::MigPrepare { .. } | NetMsg::MigCommit { .. }
            );
            if seam {
                // Seam frames draw on their own fault budgets so the
                // migration slices stay small and self-contained.
                if self.mig_dups_left > 0 {
                    v.push(Choice::DupMigration(i));
                }
                if self.mig_drops_left > 0 {
                    v.push(Choice::DropMigration(i));
                }
            } else {
                if self.dups_left > 0 {
                    v.push(Choice::Duplicate(i));
                }
                if self.drops_left > 0 && !matches!(self.net[i], NetMsg::DownAtDest { .. }) {
                    v.push(Choice::Drop(i));
                }
            }
        }
        if self.timeouts_left > 0 && !self.controller_down && self.engine.in_flight(CLIENT) {
            v.push(Choice::Timeout);
        }
        if self.controller_down {
            // Recovery is always available while down (and is the only
            // way a down state quiesces, so no terminal state is crashed).
            v.push(Choice::RecoverController);
        } else if self.crashes_left > 0 {
            v.push(Choice::CrashController);
        }
        if !self.controller_down && self.failovers_left > 0 {
            v.push(Choice::FailoverToStandby);
        }
        if !self.zombie_frames.is_empty() {
            v.push(Choice::ZombiePrimary);
        }
        // Migrations happen at lockstep barriers: every configured switch
        // has resolved, the wire has drained (the barrier quiesces the
        // source shard's control plane — interleaving switch stragglers
        // with the seam is the switch slices' job, not this one's), and
        // the controller is up to serialize the export. A readopted
        // client (post-abort) re-exports once on its next boundary pass.
        if self.next_switch == cfg.switches.len()
            && !self.engine.in_flight(CLIENT)
            && self.net.is_empty()
            && !self.controller_down
            && self.source_active
            && self.mig_pending.is_none()
            && (self.migrations_left > 0 || (self.mig_aborted && self.mig_reexports_left > 0))
        {
            v.push(Choice::MigrateExport);
        }
        if let Some((seq, _)) = self.mig_pending {
            if cfg.migration_retention {
                // The retry models the timer expiring with the frame
                // lost. While a copy is still in flight, a re-send is
                // indistinguishable from a duplication — and that
                // interleaving is [`Choice::DupMigration`]'s budget.
                let prepare_in_flight = self
                    .net
                    .iter()
                    .any(|m| matches!(m, NetMsg::MigPrepare { seq: s, .. } if *s == seq));
                if !self.controller_down && self.mig_retries_left > 0 && !prepare_in_flight {
                    v.push(Choice::MigrateRetry);
                }
                // Abort only arms once the retry ladder is exhausted —
                // the production `max_attempts` policy.
                if !self.controller_down && self.mig_retries_left == 0 {
                    v.push(Choice::MigrateAbort);
                }
                if !self.controller_down && self.mig_crashes_left > 0 {
                    v.push(Choice::CrashDuringMigration);
                }
            } else if !self.source_active {
                // No-retention shim: the record is gone, so the only
                // recovery from a wedged handoff is the blind readopt.
                v.push(Choice::MigrateAbort);
            }
        }
        v
    }

    /// Applies one choice, checking transition invariants.
    fn apply(&mut self, cfg: &CheckerConfig, choice: Choice) -> Result<(), ViolationKind> {
        self.trace.push(choice);
        self.now += SimDuration::from_millis(1);
        match choice {
            Choice::Deliver(i) => {
                let m = self.net.remove(i);
                self.process(cfg, m)?;
            }
            Choice::Duplicate(i) => {
                self.dups_left -= 1;
                let m = self.net[i];
                self.process(cfg, m)?;
            }
            Choice::Drop(i) => {
                self.drops_left -= 1;
                self.net.remove(i);
            }
            Choice::Timeout => {
                self.timeouts_left -= 1;
                let p = *self
                    .engine
                    .pending(CLIENT)
                    .expect("timeout requires in-flight");
                let fire_at = p.sent_at + self.engine.timeout();
                if fire_at > self.now {
                    self.now = fire_at;
                }
                match self.engine.on_timeout(self.now, CLIENT) {
                    Some(SwitchMsg::Stop {
                        to_ap, epoch, term, ..
                    }) => {
                        let from = self
                            .engine
                            .pending(CLIENT)
                            .map(|p| p.from.0 as usize)
                            .expect("retransmission keeps the switch pending");
                        self.send(
                            cfg,
                            NetMsg::Stop {
                                ap: from,
                                to_ap: to_ap.0 as usize,
                                epoch,
                                term,
                            },
                        );
                    }
                    Some(_) => unreachable!("timeouts only retransmit stops"),
                    None => {
                        // Retry ladder exhausted: the abandon must surface.
                        if self.engine.next_unprocessed_abandon().is_none() {
                            return Err(ViolationKind::Wedge);
                        }
                        self.abandons += 1;
                        self.issue_next(cfg)?;
                    }
                }
            }
            Choice::CrashController => {
                self.crashes_left -= 1;
                self.controller_down = true;
                // The crash takes every piece of controller soft state
                // with it. A switch in flight at that instant is simply
                // forgotten — the recovered controller re-issues it (the
                // selection loop re-noticing the client), so decrement
                // the cursor before wiping the engine.
                if self.engine.in_flight(CLIENT) {
                    self.next_switch -= 1;
                }
                // The term is the one durable scalar (mirrors the
                // production `crash_wipe`): a restart-in-place resumes
                // the same reign.
                let term = self.engine.term();
                self.engine = SwitchEngine::new();
                self.engine.set_term(term);
            }
            Choice::RecoverController => {
                self.controller_down = false;
                if !cfg.resync_naive {
                    // AP-sourced resync: the epoch space resumes strictly
                    // above every generation any AP reports having seen.
                    let floor = self.guard_floor();
                    self.engine.resume_epochs_above(CLIENT, floor);
                }
                self.issue_next(cfg)?;
            }
            Choice::FailoverToStandby => {
                self.failovers_left -= 1;
                let old_term = self.engine.term();
                // The journal high-water: the standby resumes epochs
                // strictly above everything the primary ever allocated
                // (the checker models a current, un-gapped replica; the
                // lagged/gapped case degrades to the resync path, which
                // `max_crashes` slices already cover).
                let floor = self.engine.current_epoch(CLIENT);
                if let Some(p) = self.engine.pending(CLIENT).copied() {
                    // The dying primary's in-flight switch: forgotten by
                    // the new reign (re-driven below under a fresh
                    // epoch), but its zombie can replay the `stop` later.
                    self.zombie_frames.push(NetMsg::Stop {
                        ap: p.from.0 as usize,
                        to_ap: p.to.0 as usize,
                        epoch: p.epoch,
                        term: old_term,
                    });
                    self.next_switch -= 1;
                }
                self.engine = SwitchEngine::new();
                self.engine.set_term(old_term + 1);
                self.engine.resume_epochs_above(CLIENT, floor);
                // Fence announcements are ordinary in-flight frames: the
                // DFS enumerates every partially-fenced network.
                for ap in 0..cfg.n_aps {
                    self.send(
                        cfg,
                        NetMsg::Announce {
                            ap,
                            term: old_term + 1,
                        },
                    );
                }
                self.issue_next(cfg)?;
            }
            Choice::ZombiePrimary => {
                for m in std::mem::take(&mut self.zombie_frames) {
                    self.send(cfg, m);
                }
            }
            Choice::MigrateExport => {
                if self.migrations_left > 0 {
                    self.migrations_left -= 1;
                } else {
                    // A readopted client crossing the boundary again.
                    self.mig_reexports_left -= 1;
                }
                let seq = self.mig_seq;
                self.mig_seq += 1;
                // The record's epoch high-water is the engine counter
                // joined with every AP guard mark — exactly what the
                // production `retire_client` exports.
                let epoch_max = self.engine.current_epoch(CLIENT).max(self.guard_floor());
                self.source_active = false;
                self.send(
                    cfg,
                    NetMsg::MigPrepare {
                        seq,
                        epoch_max,
                        term: self.engine.term(),
                    },
                );
                // With retention the source keeps the record until the
                // commit lands; the shim forgets it the moment the frame
                // is on the wire (the pending marker survives only as
                // "the source believes the client departed"). A re-export
                // replaces the armed abort marker with the fresh record.
                self.mig_pending = Some((seq, epoch_max));
                self.mig_aborted = false;
            }
            Choice::MigrateRetry => {
                self.mig_retries_left -= 1;
                self.seam_retries += 1;
                let (seq, epoch_max) = self.mig_pending.expect("retry gated on pending");
                // Re-stamped with the *current* term: a bounced source
                // resumes its reign, a superseded one gets fenced.
                self.send(
                    cfg,
                    NetMsg::MigPrepare {
                        seq,
                        epoch_max,
                        term: self.engine.term(),
                    },
                );
            }
            Choice::MigrateAbort => {
                let (_, epoch_max) = self.mig_pending.take().expect("abort gated on pending");
                self.seam_aborts += 1;
                self.source_active = true;
                if cfg.migration_retention {
                    // Bit-exact readopt from the retained record, with the
                    // reconciliation marker armed: a late commit is
                    // absorbed, the client re-exports next pass.
                    self.mig_aborted = true;
                    self.engine.resume_epochs_above(CLIENT, epoch_max);
                }
                // The shim readopts blind: nothing is armed, and the
                // source cannot know whether the destination admitted.
            }
            Choice::CrashDuringMigration => {
                self.mig_crashes_left -= 1;
                // An atomic bounce (crash + restart-in-place): soft state
                // wiped, the durable term and the durable retained record
                // survive, the epoch space resyncs from the AP guards.
                let term = self.engine.term();
                self.engine = SwitchEngine::new();
                self.engine.set_term(term);
                self.engine.resume_epochs_above(CLIENT, self.guard_floor());
            }
            Choice::DropMigration(i) => {
                self.mig_drops_left -= 1;
                let m = self.net.remove(i);
                if !cfg.migration_retention {
                    if let NetMsg::MigPrepare { epoch_max, .. } = m {
                        if !self.dest_active {
                            // No retention and the only copy of the record
                            // just died on the wire — but the vehicle
                            // still arrives, so the destination admits it
                            // blind (no record to transfer). The dropped
                            // frame's high-water is the ground truth the
                            // epoch check still holds the admission to.
                            self.admit_at_dest(cfg, epoch_max, false)?;
                        }
                    }
                }
            }
            Choice::DupMigration(i) => {
                self.mig_dups_left -= 1;
                let m = self.net[i];
                self.process(cfg, m)?;
            }
        }
        if self.aps.iter().filter(|a| a.serving).count() > 1 {
            return Err(ViolationKind::DualServing);
        }
        Ok(())
    }

    /// Term fence at frame arrival. `Ok(true)` means the frame may
    /// proceed with a *current-or-newer* term (the fence is raised);
    /// `Ok(false)` means it was fenced off; the caller gets `stale` back
    /// to flag split-brain if a fenced-off frame would have mutated state
    /// under the `fencing = false` shim.
    fn term_fence(&mut self, cfg: &CheckerConfig, ap: usize, term: u32) -> (bool, bool) {
        if term < self.aps[ap].term_seen {
            if cfg.fencing {
                self.term_fence_drops += 1;
                return (false, true);
            }
            return (true, true);
        }
        self.aps[ap].term_seen = term;
        (true, false)
    }

    /// Admits the migrating client at the destination controller.
    /// `transfer = true` applies the record — epoch-space adoption, dedup
    /// key re-prime, residue re-delivery; `false` models blind admission
    /// (the naive shim's discarded record, or the no-retention shim's
    /// record lost on the wire). Either way the destination's first
    /// switch allocation must land strictly above the record's
    /// high-water, or the reborn client's frames alias a source
    /// generation.
    fn admit_at_dest(
        &mut self,
        cfg: &CheckerConfig,
        epoch_max: u32,
        transfer: bool,
    ) -> Result<(), ViolationKind> {
        self.dest_active = true;
        self.mig_done = true;
        self.mig_residue = MIG_DOWN_RESIDUE.to_vec();
        let mut dest = SwitchEngine::new();
        if transfer {
            dest.resume_epochs_above(CLIENT, epoch_max);
            self.dest_seen = MIG_SRC_DELIVERED.to_vec();
            for &ident in &MIG_DOWN_RESIDUE {
                self.send(cfg, NetMsg::DownAtDest { ident });
            }
        }
        if let Some(SwitchMsg::Stop { epoch, .. }) = dest.issue(self.now, CLIENT, ApId(0), ApId(1))
        {
            if epoch <= epoch_max {
                return Err(ViolationKind::EpochRegression);
            }
        }
        // The client's post-seam retransmissions (the dup window
        // straddling the barrier).
        for &ident in &MIG_RETRANSMITS {
            self.send(cfg, NetMsg::UplinkAtDest { ident });
        }
        self.migrations += 1;
        Ok(())
    }

    /// Processes a delivered frame through the production state machines.
    fn process(&mut self, cfg: &CheckerConfig, m: NetMsg) -> Result<(), ViolationKind> {
        match m {
            NetMsg::Stop {
                ap,
                to_ap,
                epoch,
                term,
            } => {
                let (proceed, stale_term) = self.term_fence(cfg, ap, term);
                if !proceed {
                    return Ok(());
                }
                let verdict = if cfg.epoch_guard {
                    self.aps[ap].guard.on_stop(epoch)
                } else {
                    StopVerdict::Process
                };
                match verdict {
                    StopVerdict::Stale => self.stale_drops += 1,
                    StopVerdict::Process => {
                        if stale_term {
                            // The shim let a superseded reign demote an
                            // AP: the zombie is steering the network.
                            return Err(ViolationKind::SplitBrain);
                        }
                        self.aps[ap].serving = false;
                        self.send(
                            cfg,
                            NetMsg::Start {
                                ap: to_ap,
                                k: k_of(epoch),
                                epoch,
                                term,
                            },
                        );
                    }
                }
            }
            NetMsg::Start { ap, k, epoch, term } => {
                let (proceed, stale_term) = self.term_fence(cfg, ap, term);
                if !proceed {
                    return Ok(());
                }
                let verdict = if cfg.epoch_guard {
                    self.aps[ap].guard.on_start(epoch)
                } else {
                    StartVerdict::Apply
                };
                match verdict {
                    StartVerdict::Stale => self.stale_drops += 1,
                    StartVerdict::DupReAck => {
                        self.dup_reacks += 1;
                        self.send(cfg, NetMsg::Ack { from_ap: ap, epoch });
                    }
                    StartVerdict::Apply => {
                        if stale_term {
                            return Err(ViolationKind::SplitBrain);
                        }
                        if epoch < self.max_applied_epoch {
                            return Err(ViolationKind::StaleHeadWrite);
                        }
                        self.max_applied_epoch = epoch;
                        self.aps[ap].head = Some(k);
                        self.aps[ap].serving = true;
                        self.aps[ap].applied.push(epoch);
                        self.send(cfg, NetMsg::Ack { from_ap: ap, epoch });
                    }
                }
            }
            NetMsg::Announce { ap, term } => {
                // Idempotent fence raise; a stale announce is a no-op
                // either way (`max`), so no violation can hide here.
                self.aps[ap].term_seen = self.aps[ap].term_seen.max(term);
            }
            NetMsg::UplinkAtDest { ident } => {
                if self.dest_seen.contains(&ident) {
                    // The transferred (or locally accumulated) dedup key
                    // catches the retransmit — dropped before the
                    // Internet sees a second copy.
                    self.seam_dedup_drops += 1;
                } else {
                    self.dest_seen.push(ident);
                    if MIG_SRC_DELIVERED.contains(&ident) {
                        // The source already handed this ident to the
                        // Internet; delivering it again is the exact
                        // duplication the key transfer exists to prevent.
                        return Err(ViolationKind::CrossSeamDuplicate);
                    }
                }
            }
            NetMsg::DownAtDest { ident } => {
                // Residue re-delivery; the client's transport-layer seq
                // dedup collapses duplicate copies.
                if !self.dest_down_delivered.contains(&ident) {
                    self.dest_down_delivered.push(ident);
                }
            }
            NetMsg::MigPrepare {
                seq,
                epoch_max,
                term,
            } => {
                if term < self.mig_term_seen {
                    // A superseded source incarnation's straggler: fenced
                    // before it touches destination state.
                    self.term_fence_drops += 1;
                    return Ok(());
                }
                self.mig_term_seen = term;
                if self.mig_applied.contains(&seq) {
                    // Idempotent re-apply (a duplicated or retried frame
                    // whose first copy landed): ack again so the source
                    // can release its record, touch nothing else.
                    self.seam_absorbed += 1;
                    self.send(cfg, NetMsg::MigCommit { seq });
                    return Ok(());
                }
                if self.dest_active {
                    // The client is already resident — an aborted handoff
                    // re-exported after the original prepare had landed.
                    // Merge monotonically: re-prime the keys, re-deposit
                    // the residue (delivery dedups), never rewind.
                    if !cfg.migration_naive {
                        for ident in MIG_SRC_DELIVERED {
                            if !self.dest_seen.contains(&ident) {
                                self.dest_seen.push(ident);
                            }
                        }
                        for &ident in &MIG_DOWN_RESIDUE {
                            self.send(cfg, NetMsg::DownAtDest { ident });
                        }
                    }
                    self.mig_applied.push(seq);
                    self.send(cfg, NetMsg::MigCommit { seq });
                    return Ok(());
                }
                self.admit_at_dest(cfg, epoch_max, !cfg.migration_naive)?;
                self.mig_applied.push(seq);
                self.send(cfg, NetMsg::MigCommit { seq });
            }
            NetMsg::MigCommit { seq } => match self.mig_pending {
                Some((pending_seq, _)) if pending_seq == seq => {
                    // Committed: the source releases its retained record.
                    // The client now lives exactly at the destination.
                    self.mig_pending = None;
                }
                _ => {
                    // A duplicate commit, or one racing an abort that
                    // already readopted the client: absorbed — the armed
                    // readopt marker stays, and the re-export's own
                    // commit covers it.
                    self.seam_absorbed += 1;
                }
            },
            NetMsg::Ack { from_ap, epoch } => {
                if self.controller_down {
                    // A dead controller reads nothing off the wire.
                    self.crash_drops += 1;
                    return Ok(());
                }
                let outcome = if cfg.epoch_guard {
                    self.engine
                        .on_ack(self.now, CLIENT, ApId(from_ap as u32), epoch)
                } else if let Some(p) = self.engine.pending(CLIENT).copied() {
                    // Pre-epoch shim: the controller trusted *any* ack to
                    // complete the switch it had pending.
                    self.engine.on_ack(self.now, CLIENT, p.to, p.epoch)
                } else {
                    AckOutcome::NoPending
                };
                match outcome {
                    AckOutcome::Completed(rec) => {
                        if !self.aps[rec.to.0 as usize].applied.contains(&rec.epoch) {
                            return Err(ViolationKind::ForeignAck);
                        }
                        self.completions += 1;
                        self.last_completed = Some((rec.to.0 as usize, rec.epoch));
                        self.issue_next(cfg)?;
                    }
                    AckOutcome::NoPending => {}
                    AckOutcome::StaleEpoch | AckOutcome::WrongSource => {
                        self.stale_drops += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks quiescent-state invariants once no choices remain.
    fn check_terminal(&self, cfg: &CheckerConfig) -> Result<(), ViolationKind> {
        if self.engine.in_flight(CLIENT) {
            // Only reachable with the timer budget exhausted (otherwise
            // `Timeout` was still a choice); bounded exploration, not a
            // wedge — the caller counts it as incomplete.
            return Ok(());
        }
        if self.mig_done {
            // Every residue datagram the record carried must have reached
            // the client through the destination.
            for ident in &self.mig_residue {
                if !self.dest_down_delivered.contains(ident) {
                    return Err(ViolationKind::LostResidue);
                }
            }
        }
        // The two-generals escape hatch: the client may be live at both
        // controllers *only* while reconciliation state is armed — a
        // retained pending record (commit still owed) or a readopt marker
        // (re-export owed). Quiescing dual-active with neither is the
        // split the retained record exists to prevent; only the
        // no-retention shim can get here.
        let armed = cfg.migration_retention && (self.mig_pending.is_some() || self.mig_aborted);
        if self.dest_active && self.source_active && !armed {
            return Err(ViolationKind::SplitMigration);
        }
        if !cfg.switches.is_empty() && self.completions == cfg.switches.len() as u64 {
            // Everything completed and every straggler drained: exactly
            // the last switch's target serves, at the handoff index of
            // the generation that actually completed it (a crash can
            // legitimately advance the epoch space past the switch
            // count, so the epoch comes from the completion record).
            let (last_to, last_epoch) = self.last_completed.expect("completions > 0");
            let (_, to) = cfg.switches[cfg.switches.len() - 1];
            if last_to != to {
                return Err(ViolationKind::TerminalMismatch);
            }
            for (i, ap) in self.aps.iter().enumerate() {
                if ap.serving != (i == to) {
                    return Err(ViolationKind::TerminalMismatch);
                }
            }
            if self.aps[to].head != Some(k_of(last_epoch)) {
                return Err(ViolationKind::TerminalMismatch);
            }
        }
        Ok(())
    }
}

/// Violation traces kept verbatim in the report; beyond this only
/// [`CheckReport::violation_count`] grows (a buggy engine violates on a
/// huge fraction of schedules — keeping every trace would dominate
/// memory).
pub const MAX_KEPT_VIOLATIONS: usize = 64;

/// Exhaustively explores every delivery schedule of `cfg`'s scenario
/// within its budgets, checking the control-plane invariants on each.
pub fn check(cfg: &CheckerConfig) -> CheckReport {
    let mut report = CheckReport::default();
    let root = State::initial(cfg);
    explore(cfg, root, &mut report);
    report
}

fn explore(cfg: &CheckerConfig, st: State, report: &mut CheckReport) {
    if report.schedules >= cfg.max_schedules {
        report.truncated = true;
        return;
    }
    let choices = st.choices(cfg);
    if choices.is_empty() {
        report.schedules += 1;
        report.completions += st.completions;
        report.abandons += st.abandons;
        report.stale_drops += st.stale_drops;
        report.dup_reacks += st.dup_reacks;
        report.crash_drops += st.crash_drops;
        report.term_fence_drops += st.term_fence_drops;
        report.migrations += st.migrations;
        report.seam_dedup_drops += st.seam_dedup_drops;
        report.seam_retries += st.seam_retries;
        report.seam_aborts += st.seam_aborts;
        report.seam_absorbed += st.seam_absorbed;
        if st.engine.in_flight(CLIENT) {
            report.incomplete += 1;
        }
        if let Err(kind) = st.check_terminal(cfg) {
            record_violation(report, kind, &st.trace);
        }
        return;
    }
    for choice in choices {
        if report.schedules >= cfg.max_schedules {
            report.truncated = true;
            return;
        }
        let mut next = st.clone();
        match next.apply(cfg, choice) {
            Ok(()) => explore(cfg, next, report),
            Err(kind) => {
                // A violated schedule still counts as explored; the
                // branch below it is not continued.
                report.schedules += 1;
                record_violation(report, kind, &next.trace);
            }
        }
    }
}

fn record_violation(report: &mut CheckReport, kind: ViolationKind, trace: &[Choice]) {
    report.violation_count += 1;
    // Past the cap, still keep the first trace of each *kind* — one
    // violation family flooding the list must not hide the others.
    if report.violations.len() < MAX_KEPT_VIOLATIONS
        || !report.violations.iter().any(|v| v.kind == kind)
    {
        report.violations.push(Violation {
            kind,
            trace: trace.to_vec(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lossless, duplicate-free single switch has exactly one schedule
    /// per message ordering and always lands cleanly.
    #[test]
    fn clean_single_switch_completes() {
        let cfg = CheckerConfig {
            switches: vec![(0, 1)],
            max_dups: 0,
            max_drops: 0,
            max_timeouts: 0,
            ..CheckerConfig::default()
        };
        let report = check(&cfg);
        assert_eq!(report.schedules, 1, "stop→start→ack is fully sequential");
        assert!(report.violations.is_empty());
        assert_eq!(report.completions, 1);
        assert_eq!(report.incomplete, 0);
    }

    /// The epoch-guarded engine survives duplication + drops + timer
    /// retransmissions across two overlapping switches: the full schedule
    /// space (hundreds of thousands of interleavings) is violation-free
    /// and both guard branches fire along the way.
    #[test]
    fn epoch_mode_clean_under_default_hostility() {
        let report = check(&CheckerConfig::default());
        assert!(
            report.violations.is_empty(),
            "epoch mode must be violation-free, got {:?}",
            report.violations.first()
        );
        assert!(!report.truncated, "the space must be covered exhaustively");
        assert!(report.schedules > 10_000);
        assert!(report.completions > 0);
        assert!(report.stale_drops > 0, "stale guard never fired");
        assert!(report.dup_reacks > 0, "duplicate-start guard never fired");
    }

    /// With the guards bypassed (the pre-epoch engine), the same scenario
    /// space contains ABA schedules the checker must find — all three
    /// failure families.
    #[test]
    fn legacy_mode_is_caught() {
        let cfg = CheckerConfig {
            epoch_guard: false,
            ..CheckerConfig::default()
        };
        let report = check(&cfg);
        assert!(
            report.violation_count > 0,
            "the checker failed to catch the pre-epoch ABA bug"
        );
        for kind in [
            ViolationKind::ForeignAck,
            ViolationKind::DualServing,
            ViolationKind::StaleHeadWrite,
        ] {
            assert!(
                report.violations.iter().any(|v| v.kind == kind),
                "expected a {kind:?} violation among {:?}",
                report.violations.iter().map(|v| v.kind).collect::<Vec<_>>()
            );
        }
    }

    /// A switch whose old AP is dead walks the full retry ladder and
    /// surfaces an abandon — never a silent wedge. With every frame to
    /// the corpse eaten on the wire the schedule is forced: eleven timer
    /// firings, one abandon record.
    #[test]
    fn dead_ap_abandons_surface() {
        let cfg = CheckerConfig {
            switches: vec![(0, 1)],
            dead_aps: vec![0],
            max_dups: 0,
            max_drops: 0,
            max_timeouts: SwitchEngine::MAX_RETRIES + 1,
            ..CheckerConfig::default()
        };
        let report = check(&cfg);
        assert!(report.violations.is_empty());
        assert_eq!(report.schedules, 1);
        assert_eq!(report.incomplete, 0, "every schedule must resolve");
        assert_eq!(report.abandons, 1);
        assert_eq!(report.completions, 0);
    }

    /// Standby failover + zombie replay under the shipped fences: the
    /// whole schedule space — every interleaving of the zombie's replayed
    /// `stop`, the fence announcements, and the new reign's re-driven
    /// switch — is violation-free, and the fence actually fires along the
    /// way.
    #[test]
    fn standby_failover_with_fencing_is_clean() {
        let cfg = CheckerConfig {
            n_aps: 2,
            switches: vec![(0, 1)],
            max_dups: 0,
            max_drops: 1,
            max_timeouts: 0,
            max_failovers: 1,
            ..CheckerConfig::default()
        };
        let report = check(&cfg);
        assert!(
            report.violations.is_empty(),
            "fenced failover must be violation-free, got {:?}",
            report.violations.first()
        );
        assert!(!report.truncated, "the space must be covered exhaustively");
        assert!(report.completions > 0);
        assert!(
            report.term_fence_drops > 0,
            "no schedule ever exercised the term fence"
        );
    }

    /// The full migration slice under the shipped transfer: a switch
    /// resolves, the client crosses the seam with its record, and every
    /// interleaving of the residue re-delivery and the straddling
    /// retransmission window is violation-free — no epoch regression, no
    /// cross-seam duplicate, no lost residue. The re-primed dedup filter
    /// demonstrably fires on the forwarded-but-unacked retransmit.
    #[test]
    fn migration_slice_is_clean() {
        let cfg = CheckerConfig {
            switches: vec![(0, 1)],
            max_migrations: 1,
            // Duplication is the hostility under test (the dup window
            // straddling the barrier); drops and timeouts are covered by
            // the switch slices and only blow up the space here.
            max_drops: 0,
            max_timeouts: 0,
            ..CheckerConfig::default()
        };
        let report = check(&cfg);
        assert!(
            report.violations.is_empty(),
            "migration transfer must be violation-free, got {:?}",
            report.violations.first()
        );
        assert!(!report.truncated, "the space must be covered exhaustively");
        assert!(report.migrations > 0, "no schedule ever migrated");
        assert!(
            report.seam_dedup_drops > 0,
            "no schedule ever exercised the transferred dedup keys"
        );
    }

    /// The naive shim admits the migrant with a fresh epoch space; its
    /// first allocation lands at or below the source's high-water, which
    /// the checker flags as the cross-seam epoch-regression family.
    #[test]
    fn naive_migration_epoch_regression_is_caught() {
        let cfg = CheckerConfig {
            switches: vec![(0, 1)],
            max_migrations: 1,
            migration_naive: true,
            ..CheckerConfig::default()
        };
        let report = check(&cfg);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.kind == ViolationKind::EpochRegression),
            "expected EpochRegression among {:?}",
            report.violations.iter().map(|v| v.kind).collect::<Vec<_>>()
        );
    }

    /// With no prior switches the naive shim's fresh epoch space happens
    /// not to regress — which exposes the two data-plane families: the
    /// un-primed destination delivers the already-delivered retransmit
    /// twice, and the discarded record's residue never arrives.
    #[test]
    fn naive_migration_loses_and_duplicates() {
        let cfg = CheckerConfig {
            switches: vec![],
            max_migrations: 1,
            migration_naive: true,
            ..CheckerConfig::default()
        };
        let report = check(&cfg);
        for kind in [
            ViolationKind::CrossSeamDuplicate,
            ViolationKind::LostResidue,
        ] {
            assert!(
                report.violations.iter().any(|v| v.kind == kind),
                "expected {kind:?} among {:?}",
                report.violations.iter().map(|v| v.kind).collect::<Vec<_>>()
            );
        }
    }

    /// The two-phase protocol under seam-specific hostility: the prepare
    /// can be dropped, duplicated, retried, aborted-and-readopted, and
    /// the source controller bounced mid-handoff — every interleaving is
    /// violation-free, and the retry, abort-readopt, and idempotent
    /// absorption paths all demonstrably fire.
    #[test]
    fn migration_fault_slice_is_clean() {
        let cfg = CheckerConfig {
            switches: vec![(0, 1)],
            max_migrations: 1,
            // Seam hostility only: the generic budgets are covered by the
            // switch slices and would just blow up the space here.
            max_dups: 0,
            max_drops: 0,
            max_timeouts: 0,
            max_mig_drops: 1,
            max_mig_dups: 1,
            max_mig_retries: 1,
            max_mig_crashes: 1,
            ..CheckerConfig::default()
        };
        let report = check(&cfg);
        assert!(
            report.violations.is_empty(),
            "two-phase migration must be violation-free, got {:?}",
            report.violations.first()
        );
        assert!(!report.truncated, "the space must be covered exhaustively");
        assert!(report.migrations > 0, "no schedule ever migrated");
        assert!(report.seam_retries > 0, "the retry path never fired");
        assert!(report.seam_aborts > 0, "the abort-readopt path never fired");
        assert!(
            report.seam_absorbed > 0,
            "the idempotent absorption path never fired"
        );
    }

    /// The no-retention shim forgets the record the moment the prepare is
    /// on the wire. Dropping that prepare then loses the record outright —
    /// the arriving vehicle is admitted blind (lost residue, un-primed
    /// dedup), and the blind abort-readopt leaves the client live at both
    /// controllers with nothing armed to reconcile them.
    #[test]
    fn no_retention_shim_is_caught() {
        let cfg = CheckerConfig {
            switches: vec![],
            max_migrations: 1,
            migration_retention: false,
            max_mig_drops: 1,
            // One generic drop so a schedule can also lose a post-seam
            // retransmit, reaching quiescence past the duplicate check.
            max_drops: 1,
            max_dups: 0,
            max_timeouts: 0,
            ..CheckerConfig::default()
        };
        let report = check(&cfg);
        for kind in [
            ViolationKind::SplitMigration,
            ViolationKind::CrossSeamDuplicate,
            ViolationKind::LostResidue,
        ] {
            assert!(
                report.violations.iter().any(|v| v.kind == kind),
                "expected {kind:?} among {:?}",
                report.violations.iter().map(|v| v.kind).collect::<Vec<_>>()
            );
        }
    }

    /// The same failover space with the term fence forged away: the
    /// zombie's stale-term frames reach the guards, and schedules where a
    /// fence announcement outran the zombie surface the split-brain
    /// family the fence exists to kill.
    #[test]
    fn unfenced_zombie_is_caught_as_split_brain() {
        let cfg = CheckerConfig {
            n_aps: 2,
            switches: vec![(0, 1)],
            max_dups: 0,
            max_drops: 1,
            max_timeouts: 0,
            max_failovers: 1,
            fencing: false,
            ..CheckerConfig::default()
        };
        let report = check(&cfg);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.kind == ViolationKind::SplitBrain),
            "expected SplitBrain among {:?}",
            report.violations.iter().map(|v| v.kind).collect::<Vec<_>>()
        );
    }
}
