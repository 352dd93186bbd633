//! Deterministic fault injection.
//!
//! A [`FaultSchedule`] is a declarative list of *when things break*: AP
//! crash/reboot windows, backhaul impairment windows (extra packet loss,
//! added latency, jitter inflation), controller-link partitions, and CSI
//! report drop windows. The schedule is pure data — it never draws random
//! numbers itself — so the same schedule replayed against the same seed
//! reproduces the identical event sequence bit for bit.
//!
//! Random *generation* of schedules (for resilience sweeps) goes through
//! [`FaultSchedule::random_outages`] with an explicit [`SimRng`], which
//! callers derive via [`SimRng::fork`] so the fault draws never perturb
//! the channel/traffic streams. An empty schedule answers every query
//! with "healthy" without consuming any randomness, which keeps
//! fault-capable builds bit-identical to fault-free ones.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// One AP outage: the AP is dead in `[from, until)` and reboots (with all
/// soft state lost) at `until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApOutage {
    /// Index of the AP that fails.
    pub ap: usize,
    /// Crash instant.
    pub from: SimTime,
    /// Reboot instant (exclusive end of the outage).
    pub until: SimTime,
}

/// Backhaul impairment window: during `[from, until)` every backhaul
/// message suffers `extra_loss_prob` additional loss, `extra_latency`
/// added fixed delay, and exponential jitter with mean
/// `extra_jitter_mean` on top of the healthy model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackhaulFault {
    /// Window start.
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Additional independent loss probability.
    pub extra_loss_prob: f64,
    /// Added fixed one-way latency.
    pub extra_latency: SimDuration,
    /// Mean of additional exponential jitter (zero = none).
    pub extra_jitter_mean: SimDuration,
}

/// Controller-link partition: the AP's radio keeps running but nothing
/// crosses the wire between it and the controller during `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// The partitioned AP.
    pub ap: usize,
    /// Window start.
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

/// Controller outage: the central controller process is dead in
/// `[from, until)` and restarts (with all soft state lost) at `until`.
/// While down it sends nothing, drops every AP report delivered to it,
/// and fires no switch timeouts; on restart it must resynchronise its
/// state from the APs before issuing new switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerOutage {
    /// Crash instant.
    pub from: SimTime,
    /// Restart instant (exclusive end of the outage).
    pub until: SimTime,
}

/// Journal-lag window: during `[from, until)` every primary→standby
/// journal batch suffers `extra` additional one-way delay on top of the
/// backhaul model (a congested replication link). Lag close to the
/// standby's takeover timeout widens the window of journal state the
/// takeover never saw — the knob the replication bench sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalLagWindow {
    /// Window start.
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Added one-way journal delivery delay.
    pub extra: SimDuration,
}

/// CSI-report drop window: each CSI report is independently discarded with
/// `drop_prob` during `[from, until)` (a flaky CSI extraction tool).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsiDropWindow {
    /// Window start.
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Per-report drop probability.
    pub drop_prob: f64,
}

/// Backhaul duplication window: during `[from, until)` each delivered
/// message is independently delivered a *second* time with probability
/// `dup_prob`, the copy trailing the original by one extra jitter sample
/// (a kernel-datapath retransmit under load, cf. bridged-AP duplication).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DupWindow {
    /// Window start.
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Per-message duplication probability.
    pub dup_prob: f64,
}

/// Backhaul reordering window: during `[from, until)` each delivered
/// message is independently held back with probability `reorder_prob` by a
/// uniform draw from `(0, window]`, letting messages sent just after it
/// overtake it — order swaps bounded by `window`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderWindow {
    /// Window start.
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Per-message reorder probability.
    pub reorder_prob: f64,
    /// Maximum extra hold-back (bounds how far order can swap).
    pub window: SimDuration,
}

/// Seam-migration fault window: during `[from, until)` each
/// inter-controller migration frame (prepare, commit, residue forward, or
/// ack) crossing the shard seam is independently affected with `prob` —
/// lost for windows in [`FaultSchedule::migration_loss`], delivered a
/// second time for windows in [`FaultSchedule::migration_dup`]. These
/// target only the controller-to-controller transfer channel, never
/// AP-to-controller traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationFaultWindow {
    /// Window start.
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Per-frame loss or duplication probability.
    pub prob: f64,
}

/// The aggregate backhaul impairment in effect at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BackhaulImpairment {
    /// Additional loss probability (windows compose independently).
    pub extra_loss_prob: f64,
    /// Added fixed latency (windows sum).
    pub extra_latency: SimDuration,
    /// Added exponential-jitter mean (windows sum).
    pub extra_jitter_mean: SimDuration,
    /// Duplication probability (windows compose independently).
    pub dup_prob: f64,
    /// Reorder probability (windows compose independently).
    pub reorder_prob: f64,
    /// Maximum reorder hold-back (windows take the max).
    pub reorder_window: SimDuration,
}

/// A crash or reboot edge, for priming simulator events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEdge {
    /// AP `.0` crashes.
    Crash(usize),
    /// AP `.0` comes back up.
    Reboot(usize),
    /// The central controller crashes.
    ControllerCrash,
    /// The central controller restarts (soft state lost).
    ControllerRecover,
    /// The crashed ex-primary wakes as a **zombie**: a warm standby took
    /// over its reign while it was down, so instead of restarting as the
    /// controller it comes back believing it still holds the old term and
    /// immediately tries to reassert itself — the split-brain scenario the
    /// AP-side term guards must fence out.
    ZombieWake,
}

/// The full fault plan for one run. Empty by default (= healthy run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    /// AP crash/reboot windows.
    pub ap_outages: Vec<ApOutage>,
    /// Backhaul impairment windows.
    pub backhaul: Vec<BackhaulFault>,
    /// Controller-link partitions.
    pub partitions: Vec<PartitionWindow>,
    /// Controller crash/restart windows.
    pub controller_crashes: Vec<ControllerOutage>,
    /// Controller failover windows: the primary crashes at `from` with a
    /// warm standby armed to take over, and wakes as a zombie at `until`.
    pub controller_failovers: Vec<ControllerOutage>,
    /// Journal replication lag windows.
    pub journal_lag: Vec<JournalLagWindow>,
    /// CSI-report drop windows.
    pub csi_drops: Vec<CsiDropWindow>,
    /// Backhaul duplication windows.
    pub duplication: Vec<DupWindow>,
    /// Backhaul reordering windows.
    pub reordering: Vec<ReorderWindow>,
    /// Seam-migration frame loss windows.
    pub migration_loss: Vec<MigrationFaultWindow>,
    /// Seam-migration frame duplication windows.
    pub migration_dup: Vec<MigrationFaultWindow>,
}

impl FaultSchedule {
    /// An empty (healthy) schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing is scheduled — the healthy fast path.
    pub fn is_empty(&self) -> bool {
        self.window_count() == 0
    }

    /// Total number of fault windows across every family. The exhaustive
    /// destructure makes adding a window family without counting it here a
    /// compile error — `is_empty` (the healthy fast path) and the storm
    /// shrinker both lean on this being complete.
    pub fn window_count(&self) -> usize {
        let Self {
            ap_outages,
            backhaul,
            partitions,
            controller_crashes,
            controller_failovers,
            journal_lag,
            csi_drops,
            duplication,
            reordering,
            migration_loss,
            migration_dup,
        } = self;
        ap_outages.len()
            + backhaul.len()
            + partitions.len()
            + controller_crashes.len()
            + controller_failovers.len()
            + journal_lag.len()
            + csi_drops.len()
            + duplication.len()
            + reordering.len()
            + migration_loss.len()
            + migration_dup.len()
    }

    /// Asserts a new `[from, until)` window is non-empty and disjoint from
    /// every existing window of the same kind on the same target. Silently
    /// stacking overlapping crash windows would make one target crash
    /// "twice" at once and fire reboot edges inside a later outage.
    fn assert_window(
        kind: &str,
        existing: impl Iterator<Item = (SimTime, SimTime)>,
        from: SimTime,
        until: SimTime,
    ) {
        assert!(from < until, "{kind} window must be non-empty");
        for (f, u) in existing {
            assert!(
                until <= f || u <= from,
                "{kind} window [{from}, {until}) overlaps existing [{f}, {u}) on the same target"
            );
        }
    }

    /// Adds an AP outage window (builder style). Panics on a zero-length
    /// window or one overlapping an existing outage of the same AP.
    pub fn with_ap_outage(mut self, ap: usize, from: SimTime, until: SimTime) -> Self {
        Self::assert_window(
            "outage",
            self.ap_outages
                .iter()
                .filter(|o| o.ap == ap)
                .map(|o| (o.from, o.until)),
            from,
            until,
        );
        self.ap_outages.push(ApOutage { ap, from, until });
        self
    }

    /// Adds a backhaul impairment window (builder style).
    pub fn with_backhaul_fault(mut self, fault: BackhaulFault) -> Self {
        assert!(
            fault.from < fault.until,
            "backhaul window must be non-empty"
        );
        self.backhaul.push(fault);
        self
    }

    /// Adds a controller-link partition window (builder style). Panics on
    /// a zero-length window or one overlapping an existing partition of
    /// the same AP.
    pub fn with_partition(mut self, ap: usize, from: SimTime, until: SimTime) -> Self {
        Self::assert_window(
            "partition",
            self.partitions
                .iter()
                .filter(|p| p.ap == ap)
                .map(|p| (p.from, p.until)),
            from,
            until,
        );
        self.partitions.push(PartitionWindow { ap, from, until });
        self
    }

    /// Adds a controller crash/restart window (builder style). Panics on a
    /// zero-length window or one overlapping an existing controller
    /// outage — there is only one controller, so its windows must be
    /// disjoint.
    pub fn with_controller_crash(mut self, from: SimTime, until: SimTime) -> Self {
        Self::assert_window(
            "controller crash",
            self.controller_crashes.iter().map(|o| (o.from, o.until)),
            from,
            until,
        );
        self.controller_crashes
            .push(ControllerOutage { from, until });
        self
    }

    /// Adds a controller **failover** window (builder style): the primary
    /// crashes at `from` with a warm standby armed to take over, and the
    /// ex-primary wakes as a zombie at `until` (it does *not* resume the
    /// controller role — the standby holds the reign by then, and the
    /// zombie's stale-term frames must be fenced by the AP term guards).
    /// Panics on a zero-length window or one overlapping any existing
    /// controller window of either kind — there is only one controller
    /// process timeline.
    pub fn with_controller_failover(mut self, from: SimTime, until: SimTime) -> Self {
        Self::assert_window(
            "controller failover",
            self.controller_crashes
                .iter()
                .chain(self.controller_failovers.iter())
                .map(|o| (o.from, o.until)),
            from,
            until,
        );
        self.controller_failovers
            .push(ControllerOutage { from, until });
        self
    }

    /// Adds a journal replication lag window (builder style).
    pub fn with_journal_lag(mut self, from: SimTime, until: SimTime, extra: SimDuration) -> Self {
        assert!(from < until, "journal lag window must be non-empty");
        assert!(extra > SimDuration::ZERO, "journal lag must be > 0");
        self.journal_lag
            .push(JournalLagWindow { from, until, extra });
        self
    }

    /// Adds a rapid crash/reboot **flapping** burst for one AP (builder
    /// style): starting at `from`, the AP cycles with period `period`,
    /// spending the first `duty` fraction of each cycle down, until the
    /// cycle start reaches `until`. Each down-phase is an ordinary
    /// [`ApOutage`], so the usual overlap validation applies against any
    /// pre-existing outages of the same AP.
    pub fn with_ap_flapping(
        mut self,
        ap: usize,
        from: SimTime,
        until: SimTime,
        period: SimDuration,
        duty: f64,
    ) -> Self {
        assert!(from < until, "flapping window must be non-empty");
        assert!(period > SimDuration::ZERO, "flapping period must be > 0");
        assert!(
            (0.0..1.0).contains(&duty) && duty > 0.0,
            "flapping duty must be in (0, 1)"
        );
        let down = SimDuration::from_secs_f64(period.as_secs_f64() * duty);
        let mut t = from;
        while t < until {
            self = self.with_ap_outage(ap, t, t + down);
            t += period;
        }
        self
    }

    /// Adds a CSI drop window (builder style).
    pub fn with_csi_drops(mut self, from: SimTime, until: SimTime, drop_prob: f64) -> Self {
        assert!(from < until, "csi window must be non-empty");
        self.csi_drops.push(CsiDropWindow {
            from,
            until,
            drop_prob,
        });
        self
    }

    /// Adds a backhaul duplication window (builder style).
    pub fn with_duplication(mut self, from: SimTime, until: SimTime, dup_prob: f64) -> Self {
        assert!(from < until, "duplication window must be non-empty");
        self.duplication.push(DupWindow {
            from,
            until,
            dup_prob,
        });
        self
    }

    /// Adds a backhaul reordering window (builder style).
    pub fn with_reordering(
        mut self,
        from: SimTime,
        until: SimTime,
        reorder_prob: f64,
        window: SimDuration,
    ) -> Self {
        assert!(from < until, "reordering window must be non-empty");
        assert!(window > SimDuration::ZERO, "reorder hold-back must be > 0");
        self.reordering.push(ReorderWindow {
            from,
            until,
            reorder_prob,
            window,
        });
        self
    }

    /// Adds a seam-migration frame **loss** window (builder style): each
    /// migration frame sent across a shard seam while the window is open
    /// is independently dropped with probability `prob`.
    pub fn with_migration_loss(mut self, from: SimTime, until: SimTime, prob: f64) -> Self {
        assert!(from < until, "migration loss window must be non-empty");
        assert!(
            (0.0..=1.0).contains(&prob) && prob > 0.0,
            "migration loss probability must be in (0, 1]"
        );
        self.migration_loss
            .push(MigrationFaultWindow { from, until, prob });
        self
    }

    /// Adds a seam-migration frame **duplication** window (builder style):
    /// each migration frame sent across a shard seam while the window is
    /// open is independently delivered a second time with probability
    /// `prob` — the retry/idempotence machinery must absorb the copy.
    pub fn with_migration_dup(mut self, from: SimTime, until: SimTime, prob: f64) -> Self {
        assert!(from < until, "migration dup window must be non-empty");
        assert!(
            (0.0..=1.0).contains(&prob) && prob > 0.0,
            "migration dup probability must be in (0, 1]"
        );
        self.migration_dup
            .push(MigrationFaultWindow { from, until, prob });
        self
    }

    /// Whether AP `ap` is dead at `t`.
    pub fn ap_down(&self, ap: usize, t: SimTime) -> bool {
        self.ap_outages
            .iter()
            .any(|o| o.ap == ap && o.from <= t && t < o.until)
    }

    /// Whether AP `ap` is cut off from the controller at `t` (either
    /// explicitly partitioned or outright dead).
    pub fn partitioned(&self, ap: usize, t: SimTime) -> bool {
        self.ap_down(ap, t)
            || self
                .partitions
                .iter()
                .any(|p| p.ap == ap && p.from <= t && t < p.until)
    }

    /// Whether the central controller is dead at `t`.
    ///
    /// Only cold crash/restart windows count: during a *failover* window
    /// the standby may already have taken over mid-window, so controller
    /// liveness there is runtime state the simulator tracks itself, not a
    /// schedule-derivable fact.
    pub fn controller_down(&self, t: SimTime) -> bool {
        self.controller_crashes
            .iter()
            .any(|o| o.from <= t && t < o.until)
    }

    /// Extra one-way journal delivery delay at `t` (windows sum).
    pub fn journal_lag_at(&self, t: SimTime) -> SimDuration {
        let mut extra = SimDuration::ZERO;
        for w in &self.journal_lag {
            if w.from <= t && t < w.until {
                extra += w.extra;
            }
        }
        extra
    }

    /// The combined backhaul impairment at `t`. Loss, duplication, and
    /// reorder probabilities compose as independent events; latency and
    /// jitter add; the reorder hold-back takes the widest window.
    pub fn backhaul_at(&self, t: SimTime) -> BackhaulImpairment {
        let mut imp = BackhaulImpairment::default();
        let mut keep = 1.0f64;
        for f in &self.backhaul {
            if f.from <= t && t < f.until {
                keep *= 1.0 - f.extra_loss_prob.clamp(0.0, 1.0);
                imp.extra_latency += f.extra_latency;
                imp.extra_jitter_mean += f.extra_jitter_mean;
            }
        }
        imp.extra_loss_prob = 1.0 - keep;
        let mut no_dup = 1.0f64;
        for w in &self.duplication {
            if w.from <= t && t < w.until {
                no_dup *= 1.0 - w.dup_prob.clamp(0.0, 1.0);
            }
        }
        imp.dup_prob = 1.0 - no_dup;
        let mut no_reorder = 1.0f64;
        for w in &self.reordering {
            if w.from <= t && t < w.until {
                no_reorder *= 1.0 - w.reorder_prob.clamp(0.0, 1.0);
                imp.reorder_window = imp.reorder_window.max(w.window);
            }
        }
        imp.reorder_prob = 1.0 - no_reorder;
        imp
    }

    /// CSI-report drop probability at `t` (independent windows compose).
    pub fn csi_drop_prob(&self, t: SimTime) -> f64 {
        let mut keep = 1.0f64;
        for w in &self.csi_drops {
            if w.from <= t && t < w.until {
                keep *= 1.0 - w.drop_prob.clamp(0.0, 1.0);
            }
        }
        1.0 - keep
    }

    /// Seam-migration frame loss probability at `t` (independent windows
    /// compose). Zero when no window is open, so fault-free seams never
    /// consume randomness.
    pub fn migration_loss_prob(&self, t: SimTime) -> f64 {
        Self::migration_prob_at(&self.migration_loss, t)
    }

    /// Seam-migration frame duplication probability at `t` (independent
    /// windows compose).
    pub fn migration_dup_prob(&self, t: SimTime) -> f64 {
        Self::migration_prob_at(&self.migration_dup, t)
    }

    fn migration_prob_at(windows: &[MigrationFaultWindow], t: SimTime) -> f64 {
        let mut keep = 1.0f64;
        for w in windows {
            if w.from <= t && t < w.until {
                keep *= 1.0 - w.prob.clamp(0.0, 1.0);
            }
        }
        1.0 - keep
    }

    /// Checks that every AP the schedule names (outages and partitions)
    /// exists in a deployment of `n_aps` APs, so a bad index is reported
    /// before the run starts instead of panicking when its window opens.
    pub fn check_aps(&self, n_aps: usize) -> Result<(), String> {
        let named = self.ap_outages.iter().map(|o| o.ap);
        match named
            .chain(self.partitions.iter().map(|p| p.ap))
            .find(|&ap| ap >= n_aps)
        {
            Some(ap) => Err(format!(
                "fault schedule names AP {ap}, but the deployment has {n_aps} APs"
            )),
            None => Ok(()),
        }
    }

    /// All crash/reboot edges in time order, for scheduling simulator
    /// events. Ties break crash-before-reboot, then by AP index with the
    /// controller ordered after every AP, so event priming is
    /// deterministic.
    pub fn edges(&self) -> Vec<(SimTime, FaultEdge)> {
        let mut edges: Vec<(SimTime, FaultEdge)> = Vec::new();
        for o in &self.ap_outages {
            edges.push((o.from, FaultEdge::Crash(o.ap)));
            edges.push((o.until, FaultEdge::Reboot(o.ap)));
        }
        for o in &self.controller_crashes {
            edges.push((o.from, FaultEdge::ControllerCrash));
            edges.push((o.until, FaultEdge::ControllerRecover));
        }
        for o in &self.controller_failovers {
            edges.push((o.from, FaultEdge::ControllerCrash));
            edges.push((o.until, FaultEdge::ZombieWake));
        }
        edges.sort_by_key(|&(t, e)| {
            (
                t,
                match e {
                    FaultEdge::Crash(ap) => (0, ap),
                    FaultEdge::ControllerCrash => (0, usize::MAX),
                    FaultEdge::Reboot(ap) => (1, ap),
                    FaultEdge::ControllerRecover => (1, usize::MAX),
                    FaultEdge::ZombieWake => (2, usize::MAX),
                },
            )
        });
        edges
    }

    /// Generates random AP outages with the given RNG: each AP
    /// independently crashes at `rate_per_s` (Poisson, approximated per
    /// candidate slot) over `[0, duration)`, staying down for a uniform
    /// draw from `outage_len`. Callers should pass a forked stream
    /// (`rng.fork("faults")`) so schedule generation never disturbs other
    /// draws.
    pub fn random_outages(
        rng: &mut SimRng,
        n_aps: usize,
        duration: SimDuration,
        rate_per_s: f64,
        outage_len: std::ops::Range<SimDuration>,
    ) -> Self {
        let mut sched = FaultSchedule::new();
        if rate_per_s <= 0.0 {
            return sched;
        }
        for ap in 0..n_aps {
            // Sample inter-crash gaps from Exp(rate); walk the timeline.
            let mut t = 0.0f64;
            let end = duration.as_secs_f64();
            loop {
                t += rng.exponential(1.0 / rate_per_s);
                if t >= end {
                    break;
                }
                let len = rng.range(outage_len.start.as_secs_f64()..outage_len.end.as_secs_f64());
                let from = SimTime::ZERO + SimDuration::from_secs_f64(t);
                let until = from + SimDuration::from_secs_f64(len);
                sched.ap_outages.push(ApOutage { ap, from, until });
                // Next crash can only happen after the reboot.
                t += len;
            }
        }
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn empty_schedule_is_healthy() {
        let s = FaultSchedule::new();
        assert!(s.is_empty());
        assert!(!s.ap_down(0, t(100)));
        assert!(!s.partitioned(3, t(100)));
        assert_eq!(s.backhaul_at(t(100)), BackhaulImpairment::default());
        assert_eq!(s.csi_drop_prob(t(100)), 0.0);
        assert!(s.edges().is_empty());
    }

    #[test]
    fn outage_window_half_open() {
        let s = FaultSchedule::new().with_ap_outage(2, t(100), t(300));
        assert!(!s.ap_down(2, t(99)));
        assert!(s.ap_down(2, t(100)));
        assert!(s.ap_down(2, t(299)));
        assert!(!s.ap_down(2, t(300)));
        assert!(!s.ap_down(1, t(150)));
        // A dead AP is also partitioned.
        assert!(s.partitioned(2, t(150)));
    }

    #[test]
    fn edges_ordered_crash_before_reboot() {
        let s = FaultSchedule::new()
            .with_ap_outage(1, t(200), t(400))
            .with_ap_outage(0, t(100), t(200));
        let e = s.edges();
        assert_eq!(
            e,
            vec![
                (t(100), FaultEdge::Crash(0)),
                (t(200), FaultEdge::Crash(1)),
                (t(200), FaultEdge::Reboot(0)),
                (t(400), FaultEdge::Reboot(1)),
            ]
        );
    }

    #[test]
    fn backhaul_windows_compose() {
        let s = FaultSchedule::new()
            .with_backhaul_fault(BackhaulFault {
                from: t(0),
                until: t(1000),
                extra_loss_prob: 0.5,
                extra_latency: SimDuration::from_millis(1),
                extra_jitter_mean: SimDuration::from_micros(200),
            })
            .with_backhaul_fault(BackhaulFault {
                from: t(500),
                until: t(1500),
                extra_loss_prob: 0.5,
                extra_latency: SimDuration::from_millis(2),
                extra_jitter_mean: SimDuration::ZERO,
            });
        let early = s.backhaul_at(t(100));
        assert!((early.extra_loss_prob - 0.5).abs() < 1e-12);
        assert_eq!(early.extra_latency, SimDuration::from_millis(1));
        let overlap = s.backhaul_at(t(700));
        assert!((overlap.extra_loss_prob - 0.75).abs() < 1e-12);
        assert_eq!(overlap.extra_latency, SimDuration::from_millis(3));
        assert_eq!(s.backhaul_at(t(2000)), BackhaulImpairment::default());
    }

    #[test]
    fn csi_drop_composes() {
        let s = FaultSchedule::new()
            .with_csi_drops(t(0), t(100), 0.2)
            .with_csi_drops(t(50), t(100), 0.5);
        assert!((s.csi_drop_prob(t(10)) - 0.2).abs() < 1e-12);
        assert!((s.csi_drop_prob(t(60)) - 0.6).abs() < 1e-12);
        assert_eq!(s.csi_drop_prob(t(100)), 0.0);
    }

    #[test]
    fn dup_and_reorder_windows_compose() {
        let s = FaultSchedule::new()
            .with_duplication(t(0), t(1000), 0.5)
            .with_duplication(t(500), t(1500), 0.5)
            .with_reordering(t(0), t(1000), 0.2, SimDuration::from_millis(1))
            .with_reordering(t(0), t(2000), 0.2, SimDuration::from_millis(3));
        assert!(!s.is_empty());
        let early = s.backhaul_at(t(100));
        assert!((early.dup_prob - 0.5).abs() < 1e-12);
        assert!((early.reorder_prob - 0.36).abs() < 1e-12);
        assert_eq!(early.reorder_window, SimDuration::from_millis(3));
        assert_ne!(early, BackhaulImpairment::default());
        let overlap = s.backhaul_at(t(700));
        assert!((overlap.dup_prob - 0.75).abs() < 1e-12);
        let late = s.backhaul_at(t(1700));
        assert_eq!(late.dup_prob, 0.0);
        assert!((late.reorder_prob - 0.2).abs() < 1e-12);
        assert_eq!(s.backhaul_at(t(3000)), BackhaulImpairment::default());
    }

    #[test]
    fn dup_only_impairment_is_not_noop() {
        let s = FaultSchedule::new().with_duplication(t(0), t(100), 0.1);
        assert_ne!(s.backhaul_at(t(50)), BackhaulImpairment::default());
        // Loss / latency / jitter stay at their healthy values.
        let imp = s.backhaul_at(t(50));
        assert_eq!(imp.extra_loss_prob, 0.0);
        assert_eq!(imp.extra_latency, SimDuration::ZERO);
        assert_eq!(imp.extra_jitter_mean, SimDuration::ZERO);
    }

    #[test]
    fn partition_does_not_imply_down() {
        let s = FaultSchedule::new().with_partition(4, t(10), t(20));
        assert!(s.partitioned(4, t(15)));
        assert!(!s.ap_down(4, t(15)));
    }

    #[test]
    fn random_outages_deterministic_per_seed() {
        let dur = SimDuration::from_secs(30);
        let len = SimDuration::from_millis(500)..SimDuration::from_secs(2);
        let a = FaultSchedule::random_outages(
            &mut SimRng::new(7).fork("faults"),
            4,
            dur,
            0.2,
            len.clone(),
        );
        let b = FaultSchedule::random_outages(
            &mut SimRng::new(7).fork("faults"),
            4,
            dur,
            0.2,
            len.clone(),
        );
        assert_eq!(a, b);
        let c = FaultSchedule::random_outages(&mut SimRng::new(8).fork("faults"), 4, dur, 0.2, len);
        assert_ne!(a, c);
        // All windows well-formed and inside a sane horizon.
        for o in &a.ap_outages {
            assert!(o.from < o.until);
            assert!(o.ap < 4);
        }
    }

    #[test]
    fn controller_crash_window_half_open() {
        let s = FaultSchedule::new().with_controller_crash(t(100), t(300));
        assert!(!s.is_empty());
        assert!(!s.controller_down(t(99)));
        assert!(s.controller_down(t(100)));
        assert!(s.controller_down(t(299)));
        assert!(!s.controller_down(t(300)));
        // A controller crash does not take any AP down or partition it.
        assert!(!s.ap_down(0, t(150)));
        assert!(!s.partitioned(0, t(150)));
    }

    #[test]
    fn controller_edges_interleave_after_ap_edges() {
        let s = FaultSchedule::new()
            .with_ap_outage(1, t(100), t(200))
            .with_controller_crash(t(100), t(400));
        let e = s.edges();
        assert_eq!(
            e,
            vec![
                (t(100), FaultEdge::Crash(1)),
                (t(100), FaultEdge::ControllerCrash),
                (t(200), FaultEdge::Reboot(1)),
                (t(400), FaultEdge::ControllerRecover),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "must be non-empty")]
    fn zero_length_controller_crash_rejected() {
        let _ = FaultSchedule::new().with_controller_crash(t(100), t(100));
    }

    #[test]
    #[should_panic(expected = "overlaps existing")]
    fn overlapping_controller_crashes_rejected() {
        let _ = FaultSchedule::new()
            .with_controller_crash(t(100), t(300))
            .with_controller_crash(t(299), t(500));
    }

    #[test]
    #[should_panic(expected = "overlaps existing")]
    fn overlapping_outages_same_ap_rejected() {
        let _ = FaultSchedule::new()
            .with_ap_outage(2, t(100), t(300))
            .with_ap_outage(2, t(200), t(400));
    }

    #[test]
    #[should_panic(expected = "overlaps existing")]
    fn overlapping_partitions_same_ap_rejected() {
        let _ = FaultSchedule::new()
            .with_partition(1, t(0), t(50))
            .with_partition(1, t(49), t(60));
    }

    #[test]
    fn adjacent_and_cross_target_windows_are_fine() {
        // Half-open windows: [100,200) then [200,300) on the same AP do
        // not overlap; identical windows on *different* APs are fine, and
        // an outage may overlap a partition (different kinds).
        let s = FaultSchedule::new()
            .with_ap_outage(0, t(100), t(200))
            .with_ap_outage(0, t(200), t(300))
            .with_ap_outage(1, t(100), t(200))
            .with_partition(0, t(150), t(250))
            .with_controller_crash(t(100), t(200))
            .with_controller_crash(t(200), t(300));
        assert!(s.ap_down(0, t(250)));
        assert!(s.controller_down(t(250)));
    }

    #[test]
    fn failover_window_edges_and_liveness() {
        let s = FaultSchedule::new().with_controller_failover(t(100), t(400));
        assert!(!s.is_empty());
        // The schedule does NOT claim the controller is down: the standby
        // may take over mid-window, so liveness is runtime state.
        assert!(!s.controller_down(t(200)));
        assert_eq!(
            s.edges(),
            vec![
                (t(100), FaultEdge::ControllerCrash),
                (t(400), FaultEdge::ZombieWake),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "overlaps existing")]
    fn failover_overlapping_cold_crash_rejected() {
        let _ = FaultSchedule::new()
            .with_controller_crash(t(100), t(300))
            .with_controller_failover(t(200), t(500));
    }

    #[test]
    fn journal_lag_windows_sum() {
        let s = FaultSchedule::new()
            .with_journal_lag(t(0), t(100), SimDuration::from_millis(5))
            .with_journal_lag(t(50), t(200), SimDuration::from_millis(20));
        assert!(!s.is_empty());
        assert_eq!(s.journal_lag_at(t(10)), SimDuration::from_millis(5));
        assert_eq!(s.journal_lag_at(t(60)), SimDuration::from_millis(25));
        assert_eq!(s.journal_lag_at(t(150)), SimDuration::from_millis(20));
        assert_eq!(s.journal_lag_at(t(500)), SimDuration::ZERO);
    }

    #[test]
    fn flapping_expands_to_disjoint_outages() {
        // 1 s of flapping at 200 ms period, 25% duty: 5 cycles, each down
        // for the first 50 ms.
        let s = FaultSchedule::new().with_ap_flapping(
            3,
            t(1000),
            t(2000),
            SimDuration::from_millis(200),
            0.25,
        );
        assert_eq!(s.ap_outages.len(), 5);
        assert!(s.ap_down(3, t(1000)));
        assert!(s.ap_down(3, t(1049)));
        assert!(!s.ap_down(3, t(1050)));
        assert!(s.ap_down(3, t(1200)));
        assert!(!s.ap_down(3, t(1999)));
        // 10 crash/reboot edges, interleaved in order.
        assert_eq!(s.edges().len(), 10);
    }

    #[test]
    #[should_panic(expected = "duty must be in")]
    fn flapping_full_duty_rejected() {
        let _ = FaultSchedule::new().with_ap_flapping(
            0,
            t(0),
            t(1000),
            SimDuration::from_millis(100),
            1.0,
        );
    }

    #[test]
    fn migration_fault_windows_compose_and_stay_seam_scoped() {
        let s = FaultSchedule::new()
            .with_migration_loss(t(0), t(1000), 0.5)
            .with_migration_loss(t(500), t(1500), 0.5)
            .with_migration_dup(t(200), t(800), 0.1);
        assert!(!s.is_empty());
        assert_eq!(s.window_count(), 3);
        // Half-open windows, independent composition in the overlap.
        assert!((s.migration_loss_prob(t(100)) - 0.5).abs() < 1e-12);
        assert!((s.migration_loss_prob(t(700)) - 0.75).abs() < 1e-12);
        assert_eq!(s.migration_loss_prob(t(1500)), 0.0);
        assert!((s.migration_dup_prob(t(500)) - 0.1).abs() < 1e-12);
        assert_eq!(s.migration_dup_prob(t(900)), 0.0);
        // Seam windows never leak into the AP/controller fault queries:
        // the backhaul, AP, and controller timelines all stay healthy.
        assert_eq!(s.backhaul_at(t(700)), BackhaulImpairment::default());
        assert!(!s.ap_down(0, t(700)));
        assert!(!s.controller_down(t(700)));
        assert!(s.edges().is_empty());
    }

    #[test]
    #[should_panic(expected = "must be non-empty")]
    fn zero_length_migration_loss_rejected() {
        let _ = FaultSchedule::new().with_migration_loss(t(100), t(100), 0.5);
    }

    #[test]
    #[should_panic(expected = "probability must be in")]
    fn out_of_range_migration_dup_rejected() {
        let _ = FaultSchedule::new().with_migration_dup(t(0), t(100), 1.5);
    }

    #[test]
    fn random_outages_zero_rate_is_empty() {
        let mut rng = SimRng::new(1);
        let s = FaultSchedule::random_outages(
            &mut rng,
            8,
            SimDuration::from_secs(10),
            0.0,
            SimDuration::from_millis(100)..SimDuration::from_millis(200),
        );
        assert!(s.is_empty());
    }
}
