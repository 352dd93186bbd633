//! Deterministic fault injection.
//!
//! A [`FaultSchedule`] is a declarative list of *when things break*: AP
//! crash/reboot windows, backhaul impairment windows (extra packet loss,
//! added latency, jitter inflation), controller-link partitions, and CSI
//! report drop windows. Every fault is one [`Window`]: a half-open
//! `[from, until)` interval carrying its family's payload. The schedule is
//! pure data — it never draws random numbers itself — so the same schedule
//! replayed against the same seed reproduces the identical event sequence
//! bit for bit.
//!
//! Random *generation* of schedules (for resilience sweeps) goes through
//! [`FaultSchedule::random_outages`] with an explicit [`SimRng`], which
//! callers derive via [`SimRng::fork`] so the fault draws never perturb
//! the channel/traffic streams. An empty schedule answers every query
//! with "healthy" without consuming any randomness, which keeps
//! fault-capable builds bit-identical to fault-free ones.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// One fault window: `what` is in effect during `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window<T> {
    /// Window start.
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// The family's payload: the target AP, a probability, a delay, …
    pub what: T,
}

impl<T> Window<T> {
    /// Whether the window is open at `t`.
    pub fn covers(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }
}

/// Backhaul impairment: while its window is open every backhaul message
/// suffers `extra_loss_prob` additional loss, `extra_latency` added fixed
/// delay, and exponential jitter with mean `extra_jitter_mean` on top of
/// the healthy model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackhaulFault {
    /// Additional independent loss probability.
    pub extra_loss_prob: f64,
    /// Added fixed one-way latency.
    pub extra_latency: SimDuration,
    /// Mean of additional exponential jitter (zero = none).
    pub extra_jitter_mean: SimDuration,
}

/// Backhaul reordering: while its window is open each delivered message is
/// independently held back with probability `prob` by a uniform draw from
/// `(0, hold]`, letting messages sent just after it overtake it — order
/// swaps bounded by `hold`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reorder {
    /// Per-message reorder probability.
    pub prob: f64,
    /// Maximum extra hold-back (bounds how far order can swap).
    pub hold: SimDuration,
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
///
/// This is the one place that lists the fault families: [`window_count`]
/// and [`remove_window`] address every window of every family by one flat
/// index (families in field order, windows in insertion order), so tools
/// such as the storm shrinker never name a family themselves.
///
/// [`window_count`]: FaultSchedule::window_count
/// [`remove_window`]: FaultSchedule::remove_window
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    /// AP crash/reboot windows, by AP: the AP is dead in `[from, until)`
    /// and reboots (with all soft state lost) at `until`.
    pub ap_outages: Vec<Window<usize>>,
    /// Backhaul impairment windows.
    pub backhaul: Vec<Window<BackhaulFault>>,
    /// Controller-link partitions, by AP: the AP's radio keeps running
    /// but nothing crosses the wire between it and the controller.
    pub partitions: Vec<Window<usize>>,
    /// Controller crash/restart windows: the controller process is dead
    /// in `[from, until)` and restarts with all soft state lost at
    /// `until`. While down it sends nothing, drops every AP report, and
    /// fires no switch timeouts; on restart it resynchronises its state
    /// from the APs before issuing new switches.
    pub controller_crashes: Vec<Window<()>>,
    /// Controller failover windows: the primary crashes at `from` with a
    /// warm standby armed to take over, and wakes as a zombie at `until`.
    pub controller_failovers: Vec<Window<()>>,
    /// Journal replication lag windows: every primary→standby journal
    /// batch suffers this much additional one-way delay (a congested
    /// replication link). Lag close to the standby's takeover timeout
    /// widens the journal state the takeover never saw.
    pub journal_lag: Vec<Window<SimDuration>>,
    /// CSI-report drop windows: each CSI report is independently
    /// discarded with this probability (a flaky CSI extraction tool).
    pub csi_drops: Vec<Window<f64>>,
    /// Backhaul duplication windows: each delivered message is
    /// independently delivered a *second* time with this probability, the
    /// copy trailing the original by one extra jitter sample.
    pub duplication: Vec<Window<f64>>,
    /// Backhaul reordering windows.
    pub reordering: Vec<Window<Reorder>>,
    /// Seam-migration frame loss windows: each inter-controller migration
    /// frame (prepare, commit, residue forward, or ack) crossing the shard
    /// seam is independently lost with this probability. Seam windows
    /// never touch AP-to-controller traffic.
    pub migration_loss: Vec<Window<f64>>,
    /// Seam-migration frame duplication windows: each seam frame is
    /// independently delivered a second time with this probability.
    pub migration_dup: Vec<Window<f64>>,
}

/// Builds a window, asserting it is non-empty.
fn window<T>(kind: &str, from: SimTime, until: SimTime, what: T) -> Window<T> {
    assert!(from < until, "{kind} window must be non-empty");
    Window { from, until, what }
}

/// Asserts `w` is disjoint from every window in `existing` (one target's
/// windows of one kind). Silently stacking overlapping crash windows would
/// make one target crash "twice" at once and fire reboot edges inside a
/// later outage.
fn assert_disjoint<'a, T: 'a>(
    kind: &str,
    existing: impl IntoIterator<Item = &'a Window<T>>,
    w: &Window<T>,
) {
    for e in existing {
        assert!(
            w.until <= e.from || e.until <= w.from,
            "{kind} window [{}, {}) overlaps existing [{}, {}) on the same target",
            w.from,
            w.until,
            e.from,
            e.until
        );
    }
}

/// Asserts `p` is a probability in `[0, 1]` (NaN is not).
fn prob(kind: &str, p: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "{kind} probability must be in [0, 1], got {p}"
    );
    p
}

/// `1 − Π(1 − p)` over the windows open at `t`, in window order:
/// independent events compose.
fn compose<T>(windows: &[Window<T>], t: SimTime, p: impl Fn(&T) -> f64) -> f64 {
    let keep = windows
        .iter()
        .filter(|w| w.covers(t))
        .fold(1.0f64, |keep, w| keep * (1.0 - p(&w.what).clamp(0.0, 1.0)));
    1.0 - keep
}

/// Removes window `*i` from `list` if it holds that many; otherwise
/// subtracts its length from `*i` so the caller can try the next family.
fn remove_at<T>(list: &mut Vec<Window<T>>, i: &mut usize) -> bool {
    if *i < list.len() {
        list.remove(*i);
        return true;
    }
    *i -= list.len();
    false
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

    /// Removes the window at flat index `i`: families in field order,
    /// windows in insertion order. Panics unless `i < window_count()`.
    /// The exhaustive destructure keeps this in step with
    /// [`window_count`](Self::window_count).
    pub fn remove_window(&mut self, i: usize) {
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
        let mut j = i;
        let removed = remove_at(ap_outages, &mut j)
            || remove_at(backhaul, &mut j)
            || remove_at(partitions, &mut j)
            || remove_at(controller_crashes, &mut j)
            || remove_at(controller_failovers, &mut j)
            || remove_at(journal_lag, &mut j)
            || remove_at(csi_drops, &mut j)
            || remove_at(duplication, &mut j)
            || remove_at(reordering, &mut j)
            || remove_at(migration_loss, &mut j)
            || remove_at(migration_dup, &mut j);
        assert!(removed, "window index {i} out of range");
    }

    /// Whether a warm standby is armed: the schedule holds a controller
    /// failover window. An unarmed run runs no replication machinery at
    /// all, keeping it bit-identical to the single-controller engine.
    pub fn standby_armed(&self) -> bool {
        !self.controller_failovers.is_empty()
    }

    /// Adds an AP outage window (builder style). Panics on a zero-length
    /// window or one overlapping an existing outage of the same AP.
    pub fn with_ap_outage(mut self, ap: usize, from: SimTime, until: SimTime) -> Self {
        let w = window("outage", from, until, ap);
        assert_disjoint(
            "outage",
            self.ap_outages.iter().filter(|o| o.what == ap),
            &w,
        );
        self.ap_outages.push(w);
        self
    }

    /// Adds a backhaul impairment window (builder style). Panics on a
    /// zero-length window or a loss probability outside `[0, 1]`.
    pub fn with_backhaul_fault(
        mut self,
        from: SimTime,
        until: SimTime,
        fault: BackhaulFault,
    ) -> Self {
        prob("backhaul loss", fault.extra_loss_prob);
        self.backhaul.push(window("backhaul", from, until, fault));
        self
    }

    /// Adds a controller-link partition window (builder style). Panics on
    /// a zero-length window or one overlapping an existing partition of
    /// the same AP.
    pub fn with_partition(mut self, ap: usize, from: SimTime, until: SimTime) -> Self {
        let w = window("partition", from, until, ap);
        assert_disjoint(
            "partition",
            self.partitions.iter().filter(|p| p.what == ap),
            &w,
        );
        self.partitions.push(w);
        self
    }

    /// Adds a controller crash/restart window (builder style). Panics on a
    /// zero-length window or one overlapping an existing controller
    /// outage — there is only one controller, so its windows must be
    /// disjoint.
    pub fn with_controller_crash(mut self, from: SimTime, until: SimTime) -> Self {
        let w = window("controller crash", from, until, ());
        assert_disjoint("controller crash", &self.controller_crashes, &w);
        self.controller_crashes.push(w);
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
        let w = window("controller failover", from, until, ());
        assert_disjoint(
            "controller failover",
            self.controller_crashes
                .iter()
                .chain(&self.controller_failovers),
            &w,
        );
        self.controller_failovers.push(w);
        self
    }

    /// Adds a journal replication lag window (builder style).
    pub fn with_journal_lag(mut self, from: SimTime, until: SimTime, extra: SimDuration) -> Self {
        assert!(extra > SimDuration::ZERO, "journal lag must be > 0");
        self.journal_lag
            .push(window("journal lag", from, until, extra));
        self
    }

    /// Adds a rapid crash/reboot **flapping** burst for one AP (builder
    /// style): starting at `from`, the AP cycles with period `period`,
    /// spending the first `duty` fraction of each cycle down, until the
    /// cycle start reaches `until`. Each down-phase is an ordinary AP
    /// outage, so the usual overlap validation applies against any
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

    /// Adds a CSI drop window (builder style). Panics on a zero-length
    /// window or a probability outside `[0, 1]`.
    pub fn with_csi_drops(mut self, from: SimTime, until: SimTime, drop_prob: f64) -> Self {
        let p = prob("csi drop", drop_prob);
        self.csi_drops.push(window("csi", from, until, p));
        self
    }

    /// Adds a backhaul duplication window (builder style). Panics on a
    /// zero-length window or a probability outside `[0, 1]`.
    pub fn with_duplication(mut self, from: SimTime, until: SimTime, dup_prob: f64) -> Self {
        let p = prob("duplication", dup_prob);
        self.duplication.push(window("duplication", from, until, p));
        self
    }

    /// Adds a backhaul reordering window (builder style). Panics on a
    /// zero-length window, a probability outside `[0, 1]`, or a zero
    /// hold-back.
    pub fn with_reordering(
        mut self,
        from: SimTime,
        until: SimTime,
        reorder_prob: f64,
        hold: SimDuration,
    ) -> Self {
        let prob = prob("reorder", reorder_prob);
        assert!(hold > SimDuration::ZERO, "reorder hold-back must be > 0");
        self.reordering
            .push(window("reordering", from, until, Reorder { prob, hold }));
        self
    }

    /// Adds a seam-migration frame **loss** window (builder style): each
    /// migration frame sent across a shard seam while the window is open
    /// is independently dropped with probability `p`.
    pub fn with_migration_loss(mut self, from: SimTime, until: SimTime, p: f64) -> Self {
        let p = prob("migration loss", p);
        assert!(p > 0.0, "migration loss probability must be in (0, 1]");
        self.migration_loss
            .push(window("migration loss", from, until, p));
        self
    }

    /// Adds a seam-migration frame **duplication** window (builder style):
    /// each migration frame sent across a shard seam while the window is
    /// open is independently delivered a second time with probability
    /// `p` — the retry/idempotence machinery must absorb the copy.
    pub fn with_migration_dup(mut self, from: SimTime, until: SimTime, p: f64) -> Self {
        let p = prob("migration dup", p);
        assert!(p > 0.0, "migration dup probability must be in (0, 1]");
        self.migration_dup
            .push(window("migration dup", from, until, p));
        self
    }

    /// Whether AP `ap` is dead at `t`.
    pub fn ap_down(&self, ap: usize, t: SimTime) -> bool {
        self.ap_outages.iter().any(|o| o.what == ap && o.covers(t))
    }

    /// Whether AP `ap` is cut off from the controller at `t` (either
    /// explicitly partitioned or outright dead).
    pub fn partitioned(&self, ap: usize, t: SimTime) -> bool {
        self.ap_down(ap, t) || self.partitions.iter().any(|p| p.what == ap && p.covers(t))
    }

    /// Whether the central controller is dead at `t`.
    ///
    /// Only cold crash/restart windows count: during a *failover* window
    /// the standby may already have taken over mid-window, so controller
    /// liveness there is runtime state the simulator tracks itself, not a
    /// schedule-derivable fact.
    pub fn controller_down(&self, t: SimTime) -> bool {
        self.controller_crashes.iter().any(|o| o.covers(t))
    }

    /// Extra one-way journal delivery delay at `t` (windows sum).
    pub fn journal_lag_at(&self, t: SimTime) -> SimDuration {
        self.journal_lag
            .iter()
            .filter(|w| w.covers(t))
            .fold(SimDuration::ZERO, |sum, w| sum + w.what)
    }

    /// The combined backhaul impairment at `t`. Loss, duplication, and
    /// reorder probabilities compose as independent events; latency and
    /// jitter add; the reorder hold-back takes the widest window.
    pub fn backhaul_at(&self, t: SimTime) -> BackhaulImpairment {
        let mut imp = BackhaulImpairment {
            extra_loss_prob: compose(&self.backhaul, t, |f| f.extra_loss_prob),
            dup_prob: compose(&self.duplication, t, |p| *p),
            reorder_prob: compose(&self.reordering, t, |r| r.prob),
            ..BackhaulImpairment::default()
        };
        for f in self.backhaul.iter().filter(|f| f.covers(t)) {
            imp.extra_latency += f.what.extra_latency;
            imp.extra_jitter_mean += f.what.extra_jitter_mean;
        }
        for r in self.reordering.iter().filter(|r| r.covers(t)) {
            imp.reorder_window = imp.reorder_window.max(r.what.hold);
        }
        imp
    }

    /// CSI-report drop probability at `t` (independent windows compose).
    pub fn csi_drop_prob(&self, t: SimTime) -> f64 {
        compose(&self.csi_drops, t, |p| *p)
    }

    /// Seam-migration frame loss probability at `t` (independent windows
    /// compose). Zero when no window is open, so fault-free seams never
    /// consume randomness.
    pub fn migration_loss_prob(&self, t: SimTime) -> f64 {
        compose(&self.migration_loss, t, |p| *p)
    }

    /// Seam-migration frame duplication probability at `t` (independent
    /// windows compose).
    pub fn migration_dup_prob(&self, t: SimTime) -> f64 {
        compose(&self.migration_dup, t, |p| *p)
    }

    /// Checks that every AP the schedule names (outages and partitions)
    /// exists in a deployment of `n_aps` APs, so a bad index is reported
    /// before the run starts instead of panicking when its window opens.
    pub fn check_aps(&self, n_aps: usize) -> Result<(), String> {
        match self
            .ap_outages
            .iter()
            .chain(&self.partitions)
            .map(|w| w.what)
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
            edges.push((o.from, FaultEdge::Crash(o.what)));
            edges.push((o.until, FaultEdge::Reboot(o.what)));
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
                sched.ap_outages.push(Window {
                    from,
                    until,
                    what: ap,
                });
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

    fn lossy(extra_loss_prob: f64, extra_latency: SimDuration) -> BackhaulFault {
        BackhaulFault {
            extra_loss_prob,
            extra_latency,
            extra_jitter_mean: SimDuration::ZERO,
        }
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
            .with_backhaul_fault(
                t(0),
                t(1000),
                BackhaulFault {
                    extra_loss_prob: 0.5,
                    extra_latency: SimDuration::from_millis(1),
                    extra_jitter_mean: SimDuration::from_micros(200),
                },
            )
            .with_backhaul_fault(t(500), t(1500), lossy(0.5, SimDuration::from_millis(2)));
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
            assert!(o.what < 4);
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

    #[test]
    fn every_family_is_counted_and_removable() {
        // One window of every family, in field order.
        let s = FaultSchedule::new()
            .with_ap_outage(0, t(0), t(10))
            .with_backhaul_fault(t(0), t(10), lossy(0.1, SimDuration::ZERO))
            .with_partition(1, t(0), t(10))
            .with_controller_crash(t(0), t(10))
            .with_controller_failover(t(20), t(30))
            .with_journal_lag(t(0), t(10), SimDuration::from_millis(1))
            .with_csi_drops(t(0), t(10), 0.1)
            .with_duplication(t(0), t(10), 0.1)
            .with_reordering(t(0), t(10), 0.1, SimDuration::from_millis(1))
            .with_migration_loss(t(0), t(10), 0.1)
            .with_migration_dup(t(0), t(10), 0.1);
        assert_eq!(s.window_count(), 11);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..11 {
            let mut c = s.clone();
            c.remove_window(i);
            assert_eq!(c.window_count(), 10);
            // Each flat index removes a different window.
            assert!(
                seen.insert(format!("{c:?}")),
                "index {i} hit a window twice"
            );
        }
        let mut c = s;
        while c.window_count() > 0 {
            c.remove_window(c.window_count() - 1);
        }
        assert!(c.is_empty());
        assert_eq!(c, FaultSchedule::new());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn remove_window_past_the_end_panics() {
        FaultSchedule::new()
            .with_csi_drops(t(0), t(10), 0.1)
            .remove_window(1);
    }

    #[test]
    fn standby_is_armed_only_by_a_failover_window() {
        assert!(!FaultSchedule::new()
            .with_controller_crash(t(0), t(10))
            .standby_armed());
        assert!(FaultSchedule::new()
            .with_controller_failover(t(0), t(10))
            .standby_armed());
    }

    #[test]
    fn zero_probability_windows_are_legal() {
        let s = FaultSchedule::new()
            .with_csi_drops(t(0), t(10), 0.0)
            .with_duplication(t(0), t(10), 0.0)
            .with_reordering(t(0), t(10), 0.0, SimDuration::from_millis(1))
            .with_backhaul_fault(t(0), t(10), lossy(0.0, SimDuration::ZERO));
        assert_eq!(s.window_count(), 4);
        assert_eq!(s.csi_drop_prob(t(5)), 0.0);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn nan_csi_drop_rejected() {
        let _ = FaultSchedule::new().with_csi_drops(t(0), t(10), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn out_of_range_csi_drop_rejected() {
        let _ = FaultSchedule::new().with_csi_drops(t(0), t(10), 1.5);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn nan_duplication_rejected() {
        let _ = FaultSchedule::new().with_duplication(t(0), t(10), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn out_of_range_duplication_rejected() {
        let _ = FaultSchedule::new().with_duplication(t(0), t(10), 1.5);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn nan_reordering_rejected() {
        let hold = SimDuration::from_millis(1);
        let _ = FaultSchedule::new().with_reordering(t(0), t(10), f64::NAN, hold);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn out_of_range_reordering_rejected() {
        let hold = SimDuration::from_millis(1);
        let _ = FaultSchedule::new().with_reordering(t(0), t(10), 1.5, hold);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn nan_backhaul_loss_rejected() {
        let f = lossy(f64::NAN, SimDuration::ZERO);
        let _ = FaultSchedule::new().with_backhaul_fault(t(0), t(10), f);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn out_of_range_backhaul_loss_rejected() {
        let f = lossy(1.5, SimDuration::ZERO);
        let _ = FaultSchedule::new().with_backhaul_fault(t(0), t(10), f);
    }
}
