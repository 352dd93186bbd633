//! Controller-side AP health tracking.
//!
//! The controller has two cheap signals about whether an AP is alive: the
//! stream of CSI reports the AP relays (a live AP near the client reports
//! every millisecond), and the fate of switch commands (a `stop`/`start`
//! that times out through the full retry ladder means some hop of the
//! exchange is gone). [`ApHealth`] tracks both in every run, but the
//! world consults staleness and blacklists an AP only when the run's fault
//! schedule is non-empty, so a fault-free run never acts on them:
//!
//! * **CSI staleness** — an AP that has reported at least once but has
//!   been silent for [`CSI_STALENESS`] is *stale*. If the serving AP is
//!   stale while other APs still report fresh CSI, the serving AP is
//!   presumed dead and the controller performs an emergency re-attach
//!   instead of addressing `stop` messages to a corpse.
//! * **Abandon blacklisting** — an AP implicated in an abandoned switch
//!   is blacklisted for [`BLACKLIST_COOLDOWN`]; the selector excludes
//!   blacklisted APs so the controller never re-wedges on a dead target.
//!   Any CSI heard from a blacklisted AP is proof of life and lifts the
//!   blacklist early.

use std::collections::HashMap;
use wgtt_net::ApId;
use wgtt_sim::{SimDuration, SimTime};

/// An AP silent this long (after having reported at least once) is
/// considered stale. Sits well above the CSI report interval (1 ms) and
/// the selection window (10 ms) so range-driven silence during normal
/// driving does not trip it before selection has already switched away.
pub const CSI_STALENESS: SimDuration = SimDuration::from_millis(120);

/// How long an abandoned-switch blacklist entry lasts without proof of
/// life.
pub const BLACKLIST_COOLDOWN: SimDuration = SimDuration::from_secs(1);

/// Per-AP liveness state at the controller.
#[derive(Debug, Default)]
pub struct ApHealth {
    /// Most recent CSI report per AP (any client).
    last_csi: HashMap<ApId, SimTime>,
    /// Blacklist expiry per AP.
    blacklisted_until: HashMap<ApId, SimTime>,
    /// Highest switch epoch implicated in an abandon per AP. An `ack` is
    /// proof of life only if its epoch is *newer* — a late ack from the
    /// abandoned (or an earlier) generation must not un-blacklist a dead
    /// AP.
    abandon_epochs: HashMap<ApId, u32>,
}

impl ApHealth {
    /// Creates a tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests a CSI report from `ap` — proof of life: clears any
    /// blacklist entry.
    pub fn on_csi(&mut self, ap: ApId, now: SimTime) {
        self.last_csi.insert(ap, now);
        self.blacklisted_until.remove(&ap);
    }

    /// Time of the last CSI report from `ap`.
    pub fn last_csi(&self, ap: ApId) -> Option<SimTime> {
        self.last_csi.get(&ap).copied()
    }

    /// Whether `ap` has gone silent past the staleness horizon. An AP
    /// never heard from is *not* stale (there is nothing to compare
    /// against — it may simply be out of range of every client).
    pub fn csi_stale(&self, ap: ApId, now: SimTime) -> bool {
        self.last_csi
            .get(&ap)
            .is_some_and(|&t| now.saturating_since(t) >= CSI_STALENESS)
    }

    /// Records that an abandoned switch of generation `epoch` implicated
    /// `ap`, and blacklists it.
    pub fn on_abandon(&mut self, ap: ApId, now: SimTime, epoch: u32) {
        let e = self.abandon_epochs.entry(ap).or_insert(0);
        *e = (*e).max(epoch);
        self.blacklisted_until.insert(ap, now + BLACKLIST_COOLDOWN);
    }

    /// Ingests a *validated* switch/re-attach completion from `ap` as
    /// potential proof of life. Only an epoch strictly newer than the
    /// newest abandon implicating the AP counts — a duplicated or
    /// reordered ack from the generation that was abandoned (or earlier)
    /// is no evidence the AP is back. Returns whether the blacklist entry
    /// was lifted.
    pub fn on_ack_proof(&mut self, ap: ApId, epoch: u32) -> bool {
        if epoch <= self.abandon_epochs.get(&ap).copied().unwrap_or(0) {
            return false;
        }
        self.blacklisted_until.remove(&ap).is_some()
    }

    /// Ingests an AP's answer to the post-reboot `Resync` broadcast as
    /// proof of life — the reply crossed the backhaul, so the AP is
    /// reachable right now. This re-arms a freshly rebuilt tracker: the
    /// staleness clock starts from the reply instead of from "never
    /// heard", and any conservative carry-over blacklist is lifted.
    pub fn on_resync_reply(&mut self, ap: ApId, now: SimTime) {
        self.on_csi(ap, now);
    }

    /// Whether `ap` is currently blacklisted.
    pub fn is_blacklisted(&self, ap: ApId, now: SimTime) -> bool {
        self.blacklisted_until.get(&ap).is_some_and(|&t| now < t)
    }

    /// All currently blacklisted APs, sorted (deterministic iteration).
    pub fn blacklisted(&self, now: SimTime) -> Vec<ApId> {
        let mut v: Vec<ApId> = self
            .blacklisted_until
            .iter()
            .filter(|(_, &t)| now < t)
            .map(|(&ap, _)| ap)
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn never_heard_is_not_stale() {
        let h = ApHealth::new();
        assert!(!h.csi_stale(ApId(0), t(10_000)));
    }

    #[test]
    fn staleness_after_silence() {
        let mut h = ApHealth::new();
        h.on_csi(ApId(0), t(100));
        assert!(!h.csi_stale(ApId(0), t(150)));
        assert!(h.csi_stale(ApId(0), t(220)));
        h.on_csi(ApId(0), t(221));
        assert!(!h.csi_stale(ApId(0), t(230)));
    }

    #[test]
    fn abandon_blacklists_until_cooldown() {
        let mut h = ApHealth::new();
        h.on_abandon(ApId(3), t(100), 1);
        assert!(h.is_blacklisted(ApId(3), t(100)));
        assert!(h.is_blacklisted(ApId(3), t(1099)));
        assert!(!h.is_blacklisted(ApId(3), t(1100)));
        assert_eq!(h.blacklisted(t(500)), vec![ApId(3)]);
        assert!(h.blacklisted(t(2000)).is_empty());
    }

    #[test]
    fn csi_is_proof_of_life() {
        let mut h = ApHealth::new();
        h.on_abandon(ApId(2), t(100), 1);
        assert!(h.is_blacklisted(ApId(2), t(200)));
        h.on_csi(ApId(2), t(300));
        assert!(!h.is_blacklisted(ApId(2), t(300)));
    }

    /// A late ack from the abandoned epoch (duplicated or reordered on
    /// the wire) must not lift the blacklist; only a strictly newer
    /// generation's completion counts as proof of life.
    #[test]
    fn stale_epoch_ack_cannot_unblacklist() {
        let mut h = ApHealth::new();
        h.on_abandon(ApId(4), t(100), 7);
        assert!(h.is_blacklisted(ApId(4), t(200)));
        assert!(!h.on_ack_proof(ApId(4), 7), "abandoned epoch is stale");
        assert!(!h.on_ack_proof(ApId(4), 3), "older epoch is stale");
        assert!(h.is_blacklisted(ApId(4), t(200)));
        assert!(h.on_ack_proof(ApId(4), 8), "newer epoch is proof of life");
        assert!(!h.is_blacklisted(ApId(4), t(200)));
        // With the blacklist clear, another stale ack is still a no-op.
        assert!(!h.on_ack_proof(ApId(4), 5));
    }
}
