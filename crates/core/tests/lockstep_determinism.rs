//! Lockstep-sharding determinism suite: the proof that intra-run
//! parallelism can never change results.
//!
//! Two layers of evidence:
//!
//! * **Worker-count invariance** — a sharded corridor exercising the
//!   failover, chaos, and controller-standby machinery (one fault family
//!   per shard) produces a byte-identical fingerprint at 1, 2, 4, and 8
//!   lockstep workers in one process. The CI `determinism` matrix re-runs
//!   the same probe in *separate processes* per worker count (fresh ASLR,
//!   fresh hasher seeds) and diffs the emitted fingerprint directories
//!   byte-for-byte.
//! * **Serial-reference pinning** — the serial engine (the default when
//!   `WGTT_WORLD_WORKERS` is absent) must stay bit-identical to the
//!   pre-sharding engine. The three fingerprints below were captured on
//!   the commit before the sharding layer landed; any drift in them means
//!   the "all-false `departed` guards are no-ops" invariant broke. They
//!   count the measurement oracle's ticks, so these probes run with it on.

use wgtt_core::config::SystemConfig;
use wgtt_core::runner::{run, FlowSpec, RunResult, Scenario};
use wgtt_core::shard::{run_sharded, ShardedScenario};
use wgtt_sim::{FaultSchedule, SimDuration, SimTime};

fn hash64(s: &str) -> u64 {
    // FNV-1a: stable across runs/processes (unlike `DefaultHasher`).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn emit_probe(name: &str, payload: &str) {
    if let Ok(dir) = std::env::var("WGTT_DETERMINISM_OUT") {
        std::fs::create_dir_all(&dir).expect("create determinism out dir");
        std::fs::write(format!("{dir}/{name}.json"), payload).expect("write determinism probe");
    }
}

// ---------- serial-reference pinning ----------

/// The pinned probes' configuration: the defaults with the oracle on,
/// as when the fingerprints were captured.
fn probe_config() -> SystemConfig {
    SystemConfig {
        oracle: true,
        ..SystemConfig::default()
    }
}

/// Pre-sharding fingerprint of the failover probe (seed 77, 15 mph,
/// AP 3 outage 1–3 s, 30 % CSI drops 2–6 s), captured on the parent
/// commit. The serial engine must keep producing exactly this.
const PRE_SHARDING_FAILOVER: &str = concat!(
    "{\"events\":129644,\"switch_history\":75,",
    "\"assoc_hash\":3314228219640614778,\"mpdu_successes\":13209,",
    "\"fault_counters\":1}"
);

/// Pre-sharding fingerprint of the chaos probe (seed 202, 25 mph, 5 %
/// duplication + 5 % reordering across the drive).
const PRE_SHARDING_CHAOS: &str = concat!(
    "{\"events\":74244,\"switch_history\":29,",
    "\"assoc_hash\":8575652357164571576,\"mpdu_successes\":8667,",
    "\"stale_control_dropped\":0,\"dup_control_dropped\":7,",
    "\"mis_switches\":0,\"backhaul_dup_deliveries\":1794,",
    "\"backhaul_reorders\":1707,\"abandoned_switches\":0,",
    "\"emergency_reattaches\":0,\"controller_crashes\":0,",
    "\"resync_replies\":0,\"resync_repairs\":0,",
    "\"controller_rx_dropped\":0,\"degraded_uplink_buffered\":0,",
    "\"degraded_uplink_dropped\":0,\"degraded_uplink_flushed\":0,",
    "\"local_readoptions\":0}"
);

/// Pre-sharding fingerprint of the controller-standby probe (seed 908,
/// 25 mph, downlink 20 Mbit/s + uplink 2 Mbit/s, primary crash at 2 s,
/// zombie wake at 3.5 s).
const PRE_SHARDING_STANDBY: &str = concat!(
    "{\"events\":80111,\"switch_history\":13,",
    "\"assoc_hash\":5114486939004529188,\"mpdu_successes\":8621,",
    "\"mis_switches\":0,\"journal_batches_shipped\":199,",
    "\"journal_batches_applied\":199,\"journal_gaps\":0,",
    "\"standby_takeovers\":1,\"takeovers_hash\":4735980162961285951,",
    "\"stale_term_dropped\":8,\"zombie_standdowns\":1,",
    "\"orphaned_control_dropped\":0,\"uplink_duplicates\":59}"
);

fn failover_fingerprint(r: &RunResult) -> String {
    let m = &r.world.clients[0].metrics;
    format!(
        concat!(
            "{{\"events\":{},\"switch_history\":{},\"assoc_hash\":{},",
            "\"mpdu_successes\":{},\"fault_counters\":{}}}"
        ),
        r.events,
        r.world.ctrl.engine.history().len(),
        hash64(&format!("{:?}", m.assoc_timeline)),
        m.mpdu_successes,
        r.world.sys.ap_crashes + r.world.sys.emergency_reattaches,
    )
}

fn chaos_fingerprint(r: &RunResult) -> String {
    let m = &r.world.clients[0].metrics;
    let s = &r.world.sys;
    format!(
        concat!(
            "{{\"events\":{},\"switch_history\":{},\"assoc_hash\":{},",
            "\"mpdu_successes\":{},\"stale_control_dropped\":{},",
            "\"dup_control_dropped\":{},\"mis_switches\":{},",
            "\"backhaul_dup_deliveries\":{},\"backhaul_reorders\":{},",
            "\"abandoned_switches\":{},\"emergency_reattaches\":{},",
            "\"controller_crashes\":{},\"resync_replies\":{},",
            "\"resync_repairs\":{},\"controller_rx_dropped\":{},",
            "\"degraded_uplink_buffered\":{},\"degraded_uplink_dropped\":{},",
            "\"degraded_uplink_flushed\":{},\"local_readoptions\":{}}}"
        ),
        r.events,
        r.world.ctrl.engine.history().len(),
        hash64(&format!("{:?}", m.assoc_timeline)),
        m.mpdu_successes,
        s.stale_control_dropped,
        s.dup_control_dropped,
        s.mis_switches,
        s.backhaul_dup_deliveries,
        s.backhaul_reorders,
        s.abandoned_switches,
        s.emergency_reattaches,
        s.controller_crashes,
        s.resync_replies,
        s.resync_repairs,
        s.controller_rx_dropped,
        s.degraded_uplink_buffered,
        s.degraded_uplink_dropped,
        s.degraded_uplink_flushed,
        s.local_readoptions,
    )
}

fn standby_fingerprint(r: &RunResult) -> String {
    let m = &r.world.clients[0].metrics;
    let s = &r.world.sys;
    format!(
        concat!(
            "{{\"events\":{},\"switch_history\":{},\"assoc_hash\":{},",
            "\"mpdu_successes\":{},\"mis_switches\":{},",
            "\"journal_batches_shipped\":{},\"journal_batches_applied\":{},",
            "\"journal_gaps\":{},\"standby_takeovers\":{},",
            "\"takeovers_hash\":{},\"stale_term_dropped\":{},",
            "\"zombie_standdowns\":{},\"orphaned_control_dropped\":{},",
            "\"uplink_duplicates\":{}}}"
        ),
        r.events,
        r.world.ctrl.engine.history().len(),
        hash64(&format!("{:?}", m.assoc_timeline)),
        m.mpdu_successes,
        s.mis_switches,
        s.journal_batches_shipped,
        s.journal_batches_applied,
        s.journal_gaps,
        s.standby_takeovers,
        hash64(&format!("{:?}", s.takeovers)),
        s.stale_term_dropped,
        s.zombie_standdowns,
        s.orphaned_control_dropped,
        s.uplink_duplicates,
    )
}

#[test]
fn serial_failover_probe_matches_pre_sharding_engine() {
    let faults = FaultSchedule::new()
        .with_ap_outage(3, SimTime::from_secs(1), SimTime::from_secs(3))
        .with_csi_drops(SimTime::from_secs(2), SimTime::from_secs(6), 0.3);
    let mut s = Scenario::single_drive(
        probe_config(),
        15.0,
        vec![FlowSpec::DownlinkUdp {
            rate_bps: 20_000_000,
            payload: 1472,
        }],
        77,
    );
    s.faults = faults;
    assert_eq!(failover_fingerprint(&run(s)), PRE_SHARDING_FAILOVER);
}

#[test]
fn serial_chaos_probe_matches_pre_sharding_engine() {
    let until = SimTime::from_secs(600);
    let faults = FaultSchedule::new()
        .with_duplication(SimTime::ZERO, until, 0.05)
        .with_reordering(SimTime::ZERO, until, 0.05, SimDuration::from_millis(1));
    let mut s = Scenario::single_drive(
        probe_config(),
        25.0,
        vec![FlowSpec::DownlinkUdp {
            rate_bps: 20_000_000,
            payload: 1472,
        }],
        202,
    );
    s.faults = faults;
    assert_eq!(chaos_fingerprint(&run(s)), PRE_SHARDING_CHAOS);
}

#[test]
fn serial_standby_probe_matches_pre_sharding_engine() {
    let faults = FaultSchedule::new()
        .with_controller_failover(SimTime::from_secs_f64(2.0), SimTime::from_secs_f64(3.5));
    let mut s = Scenario::single_drive(
        probe_config(),
        25.0,
        vec![
            FlowSpec::DownlinkUdp {
                rate_bps: 20_000_000,
                payload: 1472,
            },
            FlowSpec::UplinkUdp {
                rate_bps: 2_000_000,
                payload: 1200,
            },
        ],
        908,
    );
    s.faults = faults;
    assert_eq!(standby_fingerprint(&run(s)), PRE_SHARDING_STANDBY);
}

// ---------- worker-count invariance ----------

/// The corridor probe: four short clusters in a ring, two vehicles each,
/// with a different fault family per shard so migration interleaves with
/// every recovery mechanism the serial probes pin:
/// shard 0 — serving-AP outage + CSI drops (failover machinery),
/// shard 1 — backhaul duplication + reordering (chaos machinery),
/// shard 2 — primary crash with warm standby + zombie wake (replication),
/// shard 3 — healthy.
fn corridor() -> ShardedScenario {
    let mut cfg = SystemConfig::default();
    cfg.deployment.num_aps = 4;
    let mut s =
        ShardedScenario::ring_corridor(cfg, 4, 2, 35.0, 5_000_000, SimDuration::from_secs(8), 4242);
    let until = SimTime::from_secs(600);
    s.shard_faults = vec![
        FaultSchedule::new()
            .with_ap_outage(2, SimTime::from_secs(1), SimTime::from_secs(3))
            .with_csi_drops(SimTime::from_secs(2), SimTime::from_secs(5), 0.3),
        FaultSchedule::new()
            .with_duplication(SimTime::ZERO, until, 0.05)
            .with_reordering(SimTime::ZERO, until, 0.05, SimDuration::from_millis(1)),
        FaultSchedule::new().with_controller_failover(SimTime::from_secs(2), SimTime::from_secs(5)),
        FaultSchedule::new(),
    ];
    s
}

/// Byte-identical fingerprints at 1, 2, 4, and 8 workers — in one
/// process. 8 workers exceeds the 4 shards, exercising the worker cap.
#[test]
fn corridor_fingerprint_is_worker_count_invariant() {
    let scenario = corridor();
    let reference = run_sharded(&scenario, 1);
    // The corridor actually exercises what it claims to: vehicles cross
    // shard boundaries, and each armed fault family fires.
    assert!(!reference.migrations.is_empty(), "no boundary crossings");
    assert!(
        reference.sys.ap_crashes >= 1,
        "failover shard never faulted"
    );
    assert!(
        reference.sys.backhaul_dup_deliveries >= 1,
        "chaos shard never duplicated"
    );
    assert!(
        reference.sys.standby_takeovers >= 1,
        "standby shard never promoted"
    );
    assert!(reference.sys.migrated_in >= 1, "ring admitted no migrants");
    let want = reference.fingerprint();
    for workers in [2usize, 4, 8] {
        let got = run_sharded(&scenario, workers).fingerprint();
        assert_eq!(want, got, "workers={workers} diverged from serial");
    }
}

/// The CI matrix probe: runs the corridor at the worker count given by
/// `WGTT_WORLD_WORKERS` (default 1 — the serial reference) and emits the
/// fingerprint under a *worker-count-independent* name, so the matrix
/// job's `diff -r` across per-worker-count output directories is a
/// byte-for-byte equality check.
#[test]
fn corridor_probe_honors_worker_env() {
    let scenario = corridor();
    let workers = wgtt_sim::worker_count(scenario.shards);
    let r = run_sharded(&scenario, workers);
    emit_probe("lockstep_corridor.json", &r.fingerprint());
}
