//! Chaos tests for the epoch-stamped switch control plane.
//!
//! Two layers of evidence that duplicated/reordered control traffic can't
//! mis-switch a client:
//!
//! * the small-scope **exhaustive interleaving checker**
//!   (`wgtt_core::protocol_check`) enumerates every delivery schedule of
//!   two overlapping switches within its budgets against the *production*
//!   engine/guards — and, run in its pre-epoch shim mode, demonstrably
//!   catches the stale-`start`/foreign-`ack` ABA family this code fixes;
//! * **full-system chaos drives** with the backhaul duplicating and
//!   reordering up to 10 % of all frames (control and data) at 15–35 mph
//!   must produce zero applied mis-switches, zero abandoned switches, a
//!   still-attached client, and most of the healthy run's throughput.
//!
//! The determinism tests double as the CI `determinism` job's probes: when
//! `WGTT_DETERMINISM_OUT` is set they write their metric fingerprints as
//! JSON, and the job diffs two separate processes' output byte-for-byte.

use wgtt_core::config::SystemConfig;
use wgtt_core::protocol_check::{check, CheckerConfig, ViolationKind};
use wgtt_core::runner::{run, FlowSpec, RunResult, Scenario};
use wgtt_sim::{FaultSchedule, SimDuration, SimTime};

fn udp_flows() -> Vec<FlowSpec> {
    vec![FlowSpec::DownlinkUdp {
        rate_bps: 20_000_000,
        payload: 1472,
    }]
}

fn drive(seed: u64, mph: f64, faults: FaultSchedule) -> Scenario {
    let mut s = Scenario::single_drive(SystemConfig::default(), mph, udp_flows(), seed);
    s.faults = faults;
    s
}

/// Duplication + reordering across the whole drive (the window outlives
/// any drive duration used here).
fn chaos_schedule(dup_prob: f64, reorder_prob: f64) -> FaultSchedule {
    let until = SimTime::from_secs(600);
    FaultSchedule::new()
        .with_duplication(SimTime::ZERO, until, dup_prob)
        .with_reordering(
            SimTime::ZERO,
            until,
            reorder_prob,
            SimDuration::from_millis(1),
        )
}

fn hash64(s: &str) -> u64 {
    // FNV-1a: stable across runs/processes (unlike `DefaultHasher`).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Metric fingerprint as a JSON object — byte-identical across processes
/// iff the run was deterministic.
fn fingerprint(r: &RunResult) -> String {
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

/// Writes a determinism probe for the CI job when it asked for one.
fn emit_probe(name: &str, payload: &str) {
    if let Ok(dir) = std::env::var("WGTT_DETERMINISM_OUT") {
        std::fs::create_dir_all(&dir).expect("create determinism out dir");
        std::fs::write(format!("{dir}/{name}.json"), payload).expect("write determinism probe");
    }
}

// ---------- exhaustive interleaving checker ----------

/// The fixed engine survives every schedule in the small-scope space —
/// well past the 10k-schedule bar — with both guard branches exercised.
#[test]
fn checker_epoch_mode_enumerates_10k_schedules_cleanly() {
    let report = check(&CheckerConfig::default());
    assert!(!report.truncated, "schedule space must be fully covered");
    assert!(
        report.schedules >= 10_000,
        "only {} schedules enumerated",
        report.schedules
    );
    assert_eq!(
        report.violation_count,
        0,
        "epoch mode violated an invariant: {:?}",
        report.violations.first()
    );
    assert!(report.stale_drops > 0 && report.dup_reacks > 0);
}

/// The same checker, pointed at the pre-epoch engine behaviour (guards
/// bypassed, any ack completes the pending switch), finds the ABA — proof
/// the harness can actually see the bug class it guards against.
#[test]
fn checker_catches_pre_epoch_aba_bug() {
    let report = check(&CheckerConfig {
        epoch_guard: false,
        ..CheckerConfig::default()
    });
    assert!(report.violation_count > 0, "pre-epoch ABA not detected");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::ForeignAck),
        "expected a foreign-ack completion among the violations"
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::DualServing),
        "expected a dual-serving schedule among the violations"
    );
}

// ---------- full-system chaos drives ----------

fn assert_unharmed(res: &RunResult, label: &str) {
    let s = &res.world.sys;
    assert_eq!(s.mis_switches, 0, "{label}: applied mis-switches");
    assert_eq!(s.abandoned_switches, 0, "{label}: switch abandoned");
    assert!(
        res.world.clients[0].serving.is_some(),
        "{label}: client ended the drive wedged/detached"
    );
    assert!(res.downlink_bps(0) > 0.0, "{label}: zero throughput");
}

#[test]
fn ten_percent_dup_reorder_is_harmless_at_15mph() {
    let healthy = run(drive(131, 15.0, FaultSchedule::default()));
    let res = run(drive(131, 15.0, chaos_schedule(0.10, 0.10)));
    assert_unharmed(&healthy, "healthy");
    assert_unharmed(&res, "chaos");
    let s = &res.world.sys;
    assert!(
        s.backhaul_dup_deliveries > 0,
        "10% duplication produced no duplicate deliveries"
    );
    assert!(s.backhaul_reorders > 0, "10% reordering held no frame back");
    // Duplication can only add deliveries; the retention bound is about
    // the control plane not melting down, not about exact throughput.
    assert!(
        res.downlink_bps(0) > healthy.downlink_bps(0) * 0.8,
        "chaos drive lost too much: {:.2} vs {:.2} Mbit/s",
        res.downlink_bps(0) / 1e6,
        healthy.downlink_bps(0) / 1e6
    );
}

#[test]
fn dup_reorder_chaos_is_harmless_at_25_and_35mph() {
    for (seed, mph) in [(47u64, 25.0f64), (48, 35.0)] {
        let res = run(drive(seed, mph, chaos_schedule(0.10, 0.10)));
        assert_unharmed(&res, &format!("{mph} mph"));
        assert!(res.world.sys.backhaul_dup_deliveries > 0);
    }
}

// ---------- determinism ----------

/// The same seed and chaos schedule reproduce byte-identically in one
/// process; with `WGTT_DETERMINISM_OUT` set the fingerprint is emitted
/// for the CI job's cross-process byte diff.
#[test]
fn chaos_schedule_is_deterministic() {
    let a = run(drive(202, 25.0, chaos_schedule(0.05, 0.05)));
    let b = run(drive(202, 25.0, chaos_schedule(0.05, 0.05)));
    let fp = fingerprint(&a);
    assert_eq!(fp, fingerprint(&b), "same seed+schedule diverged");
    emit_probe("chaos_drive", &fp);
}

/// Zero-rate duplication/reordering windows must behave exactly like the
/// healthy backhaul: same RNG draw sequence, bit-identical metrics.
#[test]
fn zero_rate_windows_are_bit_identical_to_healthy() {
    let zero = FaultSchedule::new()
        .with_duplication(SimTime::ZERO, SimTime::from_secs(600), 0.0)
        .with_reordering(
            SimTime::ZERO,
            SimTime::from_secs(600),
            0.0,
            SimDuration::from_millis(1),
        );
    let healthy = run(drive(77, 25.0, FaultSchedule::default()));
    let res = run(drive(77, 25.0, zero));
    assert_eq!(fingerprint(&healthy), fingerprint(&res));
    assert_eq!(res.world.sys.backhaul_dup_deliveries, 0);
    assert_eq!(res.world.sys.backhaul_reorders, 0);
}
