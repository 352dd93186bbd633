//! Golden fingerprints: pinned constants for a handful of short runs that
//! together reach every layer of the world — radio, selection, switching,
//! the 802.11r baseline, data plane, transport, the three fault tiers,
//! the oracle and seam migration.
//!
//! The determinism suites only compare two runs of the same build, so a
//! refactor that changes behaviour consistently still passes them. These
//! constants pin behaviour across commits instead: a change that claims
//! to be behaviour-preserving must leave every one of them untouched.
//!
//! Each digest is an FNV-1a hash, streamed through `fmt::Write`, of the
//! event count, `format!("{:?}", sys)`, every client's metrics (counters,
//! association timeline, rate samples, failovers), its final serving AP,
//! the server-side flow state and the controller's switch history. The
//! sharded digest adds `ShardedRunResult::fingerprint` and the merged
//! counters. Runs are kept short so the suite is quick in debug builds.
//!
//! Every pinned run has the measurement oracle on, so its fields are
//! pinned too. `oracle_is_a_pure_observer` runs each scenario again with
//! the oracle off and proves that only the oracle's own fields and the
//! event count change.

use std::fmt::Write as _;
use wgtt_core::config::SystemConfig;
use wgtt_core::runner::{run, FlowSpec, RunResult, Scenario};
use wgtt_core::shard::{run_sharded, ShardedRunResult, ShardedScenario};
use wgtt_core::{FlowKind, WgttWorld};
use wgtt_sim::{BackhaulFault, FaultSchedule, SimDuration, SimTime};

/// FNV-1a over everything written into it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Streams one world's observable end state into `h`.
fn digest_world(h: &mut Fnv, w: &WgttWorld) {
    let _ = write!(h, "{:?}|dcf={}|", w.sys, w.dcf_collisions);
    for c in &w.clients {
        let _ = write!(h, "{:?}|{:?}|", c.serving, c.metrics);
    }
    for f in &w.flows {
        let _ = write!(h, "f{}:{}:{:?}:", f.id.0, f.client, f.completed_at);
        let _ = match &f.kind {
            FlowKind::DownUdp(s) | FlowKind::UpUdp(s) => write!(h, "{s:?}"),
            FlowKind::DownTcp(s) => write!(h, "{s:?}"),
        };
        if let Some(sink) = &f.up_sink {
            let _ = write!(
                h,
                ":{}:{}:{}:{:?}",
                sink.received(),
                sink.duplicates(),
                sink.bytes(),
                sink.last_arrival()
            );
        }
        let _ = write!(h, "|");
    }
    let _ = write!(h, "{:?}", w.ctrl.engine.history());
}

fn digest(r: &RunResult) -> u64 {
    let mut h = Fnv::new();
    let _ = write!(h, "events={}|", r.events);
    digest_world(&mut h, &r.world);
    h.0
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: golden fingerprint moved (got {got:#018x}, pinned {want:#018x})"
    );
}

fn udp_down_up() -> Vec<FlowSpec> {
    vec![
        FlowSpec::DownlinkUdp {
            rate_bps: 20_000_000,
            payload: 1472,
        },
        FlowSpec::UplinkUdp {
            rate_bps: 2_000_000,
            payload: 1200,
        },
    ]
}

/// Sets the measurement oracle on `cfg`. Every pinned run passes `true`;
/// only `oracle_is_a_pure_observer` passes `false`.
fn with_oracle(cfg: SystemConfig, oracle: bool) -> SystemConfig {
    SystemConfig { oracle, ..cfg }
}

fn drive(
    cfg: SystemConfig,
    flows: Vec<FlowSpec>,
    seed: u64,
    faults: FaultSchedule,
    oracle: bool,
) -> Scenario {
    let mut s = Scenario::single_drive(with_oracle(cfg, oracle), 25.0, flows, seed);
    s.faults = faults;
    s
}

// Recorded when this file was added, and re-recorded once when four
// unread `ClientMetrics` fields were deleted: the old code's digest with
// those fields cut out of the Debug text reproduced every new value.
// Never edit them to make a change pass.
const HEALTHY_WGTT: u64 = 0xa85e_83da_6eb4_0bb4;
const TCP_FAULTED: u64 = 0x8ac1_5195_552c_7858;
const COLD_RESTART: u64 = 0x769a_a528_cc66_57a1;
const STANDBY_ZOMBIE: u64 = 0x35b6_0dbe_9107_1c50;
const BASELINE_80211R: u64 = 0xbfd4_29d5_c2ec_e569;
const NO_FLUSH_NO_PRIORITY: u64 = 0x7399_0ff4_25ef_7116;
const CHANNEL_STRIDE_3: u64 = 0x964c_275e_8597_e778;
const SHARDED_SEAM_FAULTS: u64 = 0xa20d_2ea3_8894_6347;

/// The paper's system on a clean drive: selection, switching, Block-ACK
/// forwarding, uplink diversity and de-duplication, the oracle.
fn healthy(oracle: bool) -> Scenario {
    drive(
        SystemConfig::default(),
        udp_down_up(),
        1201,
        FaultSchedule::default(),
        oracle,
    )
}

#[test]
fn healthy_wgtt_drive() {
    let r = run(healthy(true));
    assert!(!r.world.ctrl.engine.history().is_empty(), "no switches");
    assert!(r.world.sys.uplink_duplicates > 0, "uplink dedup idle");
    check("healthy_wgtt_drive", digest(&r), HEALTHY_WGTT);
}

/// TCP over a lossy control plane, an AP outage with CSI drops (health
/// layer and emergency re-attach) and backhaul duplication/reordering.
fn tcp_faulted(oracle: bool) -> Scenario {
    let cfg = SystemConfig {
        control_loss_prob: 0.05,
        ..SystemConfig::default()
    };
    let until = SimTime::from_secs(600);
    let faults = FaultSchedule::new()
        .with_ap_outage(2, SimTime::from_millis(1500), SimTime::from_millis(3000))
        .with_csi_drops(SimTime::from_secs(1), SimTime::from_secs(4), 0.3)
        .with_duplication(SimTime::ZERO, until, 0.05)
        .with_reordering(SimTime::ZERO, until, 0.05, SimDuration::from_millis(1));
    drive(
        cfg,
        vec![FlowSpec::DownlinkTcp { limit: None }],
        1202,
        faults,
        oracle,
    )
}

#[test]
fn tcp_under_control_loss_and_faults() {
    let r = run(tcp_faulted(true));
    let s = &r.world.sys;
    assert!(s.ap_crashes >= 1, "outage never fired");
    assert!(s.emergency_reattaches >= 1, "no emergency re-attach");
    assert!(s.backhaul_dup_deliveries > 0 && s.backhaul_reorders > 0);
    check("tcp_under_control_loss_and_faults", digest(&r), TCP_FAULTED);
}

/// A cold controller restart over a lossy backhaul: resync, and a
/// repair-adopt of a client the crash left with no serving AP (the
/// pinned seed and window produce exactly that orphan).
fn cold_restart(oracle: bool) -> Scenario {
    let faults = FaultSchedule::new()
        .with_controller_crash(SimTime::from_millis(2000), SimTime::from_millis(2600))
        .with_backhaul_fault(
            SimTime::from_millis(1900),
            SimTime::from_millis(2700),
            BackhaulFault {
                extra_loss_prob: 0.3,
                extra_latency: SimDuration::ZERO,
                extra_jitter_mean: SimDuration::ZERO,
            },
        );
    drive(SystemConfig::default(), udp_down_up(), 1303, faults, oracle)
}

#[test]
fn cold_controller_restart() {
    let r = run(cold_restart(true));
    let s = &r.world.sys;
    assert_eq!(s.resyncs.len(), 1, "exactly one resync round");
    assert!(s.resync_repairs >= 1, "resync repaired nothing");
    check("cold_controller_restart", digest(&r), COLD_RESTART);
}

/// A primary crash with a warm standby: journal shipping, takeover under
/// a bumped term, and the woken zombie fenced at every AP.
fn standby_zombie(oracle: bool) -> Scenario {
    let faults = FaultSchedule::new()
        .with_controller_failover(SimTime::from_millis(2000), SimTime::from_millis(3500));
    drive(SystemConfig::default(), udp_down_up(), 908, faults, oracle)
}

#[test]
fn standby_failover_with_zombie() {
    let r = run(standby_zombie(true));
    let s = &r.world.sys;
    assert_eq!(s.standby_takeovers, 1, "standby never promoted");
    assert_eq!(s.zombie_standdowns, 1, "zombie never woke");
    assert!(s.stale_term_dropped > 0, "no frame was fenced");
    check("standby_failover_with_zombie", digest(&r), STANDBY_ZOMBIE);
}

/// The Enhanced 802.11r baseline: beacons, roaming, reassociation.
fn baseline(oracle: bool) -> Scenario {
    drive(
        SystemConfig::baseline(),
        udp_down_up(),
        1205,
        FaultSchedule::default(),
        oracle,
    )
}

#[test]
fn baseline_80211r_drive() {
    let r = run(baseline(true));
    assert!(
        r.world.clients[0].metrics.switch_count() >= 1,
        "baseline never roamed"
    );
    check("baseline_80211r_drive", digest(&r), BASELINE_80211R);
}

/// The queue-handoff and control-priority ablations together.
fn no_flush(oracle: bool) -> Scenario {
    let cfg = SystemConfig {
        flush_on_switch: false,
        control_priority: false,
        ..SystemConfig::default()
    };
    drive(cfg, udp_down_up(), 1206, FaultSchedule::default(), oracle)
}

#[test]
fn no_flush_no_priority() {
    let r = run(no_flush(true));
    assert!(!r.world.ctrl.engine.history().is_empty(), "no switches");
    check("no_flush_no_priority", digest(&r), NO_FLUSH_NO_PRIORITY);
}

/// A three-channel plan: per-channel carrier sense and listening.
fn stride_three(oracle: bool) -> Scenario {
    let cfg = SystemConfig {
        channel_stride: 3,
        ..SystemConfig::default()
    };
    drive(cfg, udp_down_up(), 1207, FaultSchedule::default(), oracle)
}

#[test]
fn channel_stride_three() {
    let r = run(stride_three(true));
    assert!(!r.world.ctrl.engine.history().is_empty(), "no switches");
    check("channel_stride_three", digest(&r), CHANNEL_STRIDE_3);
}

/// A 4-shard ring at one worker with 10 % seam loss and duplication:
/// retirement, two-phase handoff with retries, admission, import and
/// outbox forwarding.
fn sharded_ring(oracle: bool) -> ShardedScenario {
    let mut cfg = with_oracle(SystemConfig::default(), oracle);
    cfg.deployment.num_aps = 4;
    let mut s =
        ShardedScenario::ring_corridor(cfg, 4, 2, 35.0, 5_000_000, SimDuration::from_secs(6), 1214);
    let end = SimTime::ZERO + s.duration + SimDuration::from_secs(1);
    let seam = FaultSchedule::new()
        .with_migration_loss(SimTime::ZERO, end, 0.10)
        .with_migration_dup(SimTime::ZERO, end, 0.10);
    s.shard_faults = vec![seam; s.shards];
    s
}

fn sharded_digest(r: &ShardedRunResult) -> u64 {
    let mut h = Fnv::new();
    let _ = write!(h, "{}|{:?}|", r.fingerprint(), r.sys);
    for w in &r.worlds {
        digest_world(&mut h, w);
    }
    h.0
}

#[test]
fn sharded_ring_with_seam_faults() {
    let r = run_sharded(&sharded_ring(true), 1);
    assert!(r.sys.migrated_in >= 1, "ring admitted no migrants");
    assert!(r.sys.migration_retries > 0, "seam loss forced no retry");
    assert!(
        r.sys.migration_dups_dropped > 0,
        "no seam duplicate dropped"
    );
    assert!(r.sys.seam_forwarded > 0, "no late seam datagram forwarded");
    check(
        "sharded_ring_with_seam_faults",
        sharded_digest(&r),
        SHARDED_SEAM_FAULTS,
    );
}

// ---------- the oracle only observes ----------

/// Builds a golden scenario with the oracle on or off.
type Build = fn(bool) -> Scenario;

/// The seven single-drive golden scenarios, by test name.
const SINGLE_DRIVES: [(&str, Build); 7] = [
    ("healthy_wgtt_drive", healthy),
    ("tcp_under_control_loss_and_faults", tcp_faulted),
    ("cold_controller_restart", cold_restart),
    ("standby_failover_with_zombie", standby_zombie),
    ("baseline_80211r_drive", baseline),
    ("no_flush_no_priority", no_flush),
    ("channel_stride_three", stride_three),
];

/// Asserts that the oracle wrote nothing into `worlds` (run with it off).
fn assert_oracle_idle(name: &str, worlds: &[WgttWorld]) {
    for c in worlds.iter().flat_map(|w| &w.clients) {
        let m = &c.metrics;
        assert_eq!(
            (m.accuracy_total, m.accuracy_optimal, m.capacity_samples),
            (0, 0, 0),
            "{name}: oracle off, yet it scored"
        );
        assert_eq!(
            (
                m.capacity_best_bps_sum.to_bits(),
                m.capacity_loss_bps_sum.to_bits()
            ),
            (0, 0),
            "{name}: oracle off, yet it sampled capacity"
        );
    }
}

/// Zeroes the five fields only the oracle writes, leaving the system side.
fn strip_oracle(worlds: &mut [WgttWorld]) {
    for c in worlds.iter_mut().flat_map(|w| &mut w.clients) {
        let m = &mut c.metrics;
        m.accuracy_total = 0;
        m.accuracy_optimal = 0;
        m.capacity_best_bps_sum = 0.0;
        m.capacity_loss_bps_sum = 0.0;
        m.capacity_samples = 0;
    }
}

/// Every golden scenario gives a byte-identical system side with the
/// oracle on or off: the digest minus the event count and the oracle's
/// own fields. With it off those fields stay zero and the run processes
/// fewer events (the oracle's ticks).
#[test]
fn oracle_is_a_pure_observer() {
    for (name, build) in SINGLE_DRIVES {
        let mut on = run(build(true));
        let mut off = run(build(false));
        assert_oracle_idle(name, std::slice::from_ref(&off.world));
        assert!(
            off.events < on.events,
            "{name}: {} events with the oracle off, {} on",
            off.events,
            on.events
        );
        let system = |r: &mut RunResult| {
            strip_oracle(std::slice::from_mut(&mut r.world));
            let mut h = Fnv::new();
            digest_world(&mut h, &r.world);
            h.0
        };
        assert_eq!(
            system(&mut off),
            system(&mut on),
            "{name}: the oracle changed the system side"
        );
    }
    let mut on = run_sharded(&sharded_ring(true), 1);
    let mut off = run_sharded(&sharded_ring(false), 1);
    assert_oracle_idle("sharded_ring_with_seam_faults", &off.worlds);
    assert!(
        off.events < on.events,
        "sharded ring: {} events with the oracle off, {} on",
        off.events,
        on.events
    );
    for r in [&mut on, &mut off] {
        r.events = 0;
        strip_oracle(&mut r.worlds);
    }
    assert_eq!(
        sharded_digest(&off),
        sharded_digest(&on),
        "sharded ring: the oracle changed the system side"
    );
}
