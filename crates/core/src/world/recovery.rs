//! Fault tiers: AP crash and reboot, controller crash with AP-sourced
//! resync, local re-adoption while the controller is down, and the warm
//! standby (journal, takeover, zombie fencing).

use super::*;

/// How long the rebooted controller waits for resync replies before
/// finalizing with whatever arrived (covers APs that die between the
/// broadcast and their reply).
const RESYNC_DEADLINE: SimDuration = SimDuration::from_millis(50);

/// Cadence of primary→standby journal batches. The batch doubles as the
/// primary's heartbeat toward the standby.
const JOURNAL_INTERVAL: SimDuration = SimDuration::from_millis(10);

/// Standby failure-detector tick: how often it re-evaluates journal
/// silence against [`TAKEOVER_TIMEOUT`].
const STANDBY_CHECK_INTERVAL: SimDuration = SimDuration::from_millis(5);

/// Journal silence past which the standby declares the primary dead and
/// takes over. More than three journal intervals, so one delayed batch
/// never triggers a takeover on its own.
const TAKEOVER_TIMEOUT: SimDuration = SimDuration::from_millis(35);

/// The warm standby: a journal replica plus the failure-detector state
/// that decides when to promote it. Only instantiated when the fault
/// schedule arms a controller failover — unarmed runs never allocate one,
/// keeping them bit-identical to the single-controller engine.
pub(super) struct Standby {
    /// The journal-fed replica of the primary's soft state.
    replica: Replica,
    /// When the last journal batch arrived (the heartbeat clock).
    last_batch_at: SimTime,
    /// Whether this standby has already promoted itself.
    taken_over: bool,
}

impl Standby {
    fn new() -> Self {
        Standby {
            replica: Replica::new(),
            last_batch_at: SimTime::ZERO,
            taken_over: false,
        }
    }
}

impl WgttWorld {
    /// Local-autonomy re-adoption (degraded mode): fires `READOPT_GUARD`
    /// after an AP applied a `stop` with the controller down. If by then
    /// no AP anywhere serves the client — the `start` was lost and nobody
    /// can retransmit it — the stopped AP promotes itself back to serving.
    /// In the real system this is driven by the client side: a client
    /// hearing no serving AP probes its last one, which re-adopts it.
    pub(super) fn on_readopt_timeout(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        ap: usize,
        c: usize,
        epoch: u32,
    ) {
        if !self.controller_down || self.ap_down[ap] {
            // Once the controller is back, resync owns conflict repair; a
            // local re-adoption racing it could manufacture dual-serving.
            return;
        }
        let client = ClientId(c as u32);
        let orphaned = !self
            .aps
            .iter()
            .any(|a| a.client(client).is_some_and(|s| s.serving));
        if !orphaned {
            return;
        }
        let gi = self.cfg.gi;
        let st = self.aps[ap].client_mut(client, gi);
        // Only the generation that demoted us may re-adopt: a newer epoch
        // at the guard means a later switch owns this client.
        if st.guard.latest() != epoch {
            return;
        }
        st.serving = true;
        st.draining = false;
        st.drain_cyclic = false;
        self.sys.local_readoptions += 1;
        self.ensure_round(ctx);
    }

    pub(super) fn on_ap_crash(&mut self, ctx: &mut Ctx<'_, Ev>, ap: usize) {
        if self.ap_down[ap] {
            return;
        }
        self.ap_down[ap] = true;
        self.sys.ap_crashes += 1;
        // Volatile AP state is gone: NIC queues, scoreboards, associations.
        self.aps[ap] = ApState::new(ApId(ap as u32));
        let now = ctx.now();
        for c in 0..self.clients.len() {
            if self.clients[c].serving == Some(ApId(ap as u32)) {
                self.pending_failover[c].get_or_insert(now);
            }
        }
    }

    pub(super) fn on_ap_reboot(&mut self, ctx: &mut Ctx<'_, Ev>, ap: usize) {
        if !self.ap_down[ap] {
            return;
        }
        self.ap_down[ap] = false;
        self.sys.ap_reboots += 1;
        if self.cfg.mode == Mode::Wgtt {
            // The controller re-pushes the shared association state the
            // crash wiped (§4.3), so the AP is usable again immediately.
            let now = ctx.now();
            let gi = self.cfg.gi;
            for c in 0..self.clients.len() {
                if self.clients[c].serving.is_some() || self.pending_reattach[c].is_some() {
                    self.aps[ap]
                        .client_mut(ClientId(c as u32), gi)
                        .assoc
                        .install_shared_association(now);
                }
            }
        }
        self.ensure_round(ctx);
    }

    pub(super) fn on_controller_crash(&mut self, ctx: &mut Ctx<'_, Ev>) {
        if self.controller_down {
            return;
        }
        self.controller_down = true;
        self.sys.controller_crashes += 1;
        if !self.faults.controller_failovers.is_empty() {
            // A standby is armed: start the takeover-latency clock and
            // freeze what the dying process held — its term and in-flight
            // switches are exactly what the zombie replays at wake.
            self.primary_crashed_at = Some(ctx.now());
            self.zombie_term = self.ctrl.engine.term();
            self.zombie_pending = self.ctrl.engine.pending_sorted();
        }
        // The process is gone and every piece of soft state with it:
        // selectors, epoch table, dedup table, health tracker, serving
        // map. In-flight switch timers and re-attach retries die silently
        // (their events are eaten while `controller_down` is set).
        self.ctrl.crash_wipe();
        self.pending_reattach.fill(None);
        self.resync = None;
    }

    pub(super) fn on_controller_recover(&mut self, ctx: &mut Ctx<'_, Ev>) {
        if !self.controller_down {
            return;
        }
        self.controller_down = false;
        self.sys.controller_recoveries += 1;
        if self.cfg.mode != Mode::Wgtt {
            return; // the baseline keeps no controller soft state to resync
        }
        self.start_resync(ctx);
    }

    /// Broadcasts `Resync` to every reachable AP over the management
    /// channel (reliable TCP, not the lossy datagram fast path), then
    /// rebuilds state from whatever answers arrive before the deadline.
    /// Shared by the cold-restart recovery path and a takeover whose
    /// journal replica cannot be trusted (gapped or never fed).
    pub(super) fn start_resync(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        let term = self.ctrl.engine.term();
        self.resync_seq += 1;
        let seq = self.resync_seq;
        let expected = self.broadcast_control(ctx, |ap| Ev::ResyncAtAp { ap, term });
        self.resync = Some(ResyncSession {
            seq,
            expected,
            replies: Vec::new(),
            started_at: now,
            held_uplink: Vec::new(),
        });
        if expected == 0 {
            self.finish_resync(ctx);
        } else {
            ctx.schedule_in(RESYNC_DEADLINE, Ev::ResyncDeadline { seq });
        }
    }

    pub(super) fn on_resync_at_ap(&mut self, ctx: &mut Ctx<'_, Ev>, ap: usize, term: u32) {
        // Dropped if the AP died in flight or the controller crashed again;
        // the term fence runs before anything observable, so a zombie
        // ex-primary's resync neither earns a reply nor flushes held uplink.
        if self.controller_down || !self.admit_control_frame(ap, ctx.now(), term) {
            return;
        }
        let reply = self.aps[ap].resync_reply();
        // Reply size scales with what it carries: per-client protocol
        // state plus the recent-uplink-key ring.
        let bytes =
            CONTROL_PACKET_BYTES + reply.clients.len() * 16 + reply.recent_uplink_keys.len() * 8;
        self.sys.control_packets += 1;
        self.backhaul_send(ctx, bytes, false, Ev::ResyncReplyAtController { reply });
        // Degraded-mode uplink held at this AP flows again; anything that
        // is a cross-restart duplicate will be caught by the re-primed
        // dedup table (copies are parked until resync finishes).
        self.flush_held_uplink(ctx, ap);
    }

    /// Forwards the uplink `ap` held while the controller was down.
    fn flush_held_uplink(&mut self, ctx: &mut Ctx<'_, Ev>, ap: usize) {
        let held: Vec<Packet> = self.aps[ap].uplink_buffer.drain(..).collect();
        for packet in held {
            self.sys.degraded_uplink_flushed += 1;
            let wire = packet.len_bytes + overhead::TUNNEL;
            self.backhaul_send(
                ctx,
                wire,
                false,
                Ev::UplinkCopyAtController {
                    from_ap: ap,
                    packet,
                },
            );
        }
    }

    /// Sends `ev(ap)` to every AP reachable now over the reliable
    /// management channel, in AP order; returns how many were sent.
    fn broadcast_control(&mut self, ctx: &mut Ctx<'_, Ev>, ev: impl Fn(usize) -> Ev) -> usize {
        let now = ctx.now();
        let mut sent = 0;
        for ap in 0..self.aps.len() {
            if self.ap_reachable(ap, now) {
                self.send_control(ctx, false, ev(ap));
                sent += 1;
            }
        }
        sent
    }

    pub(super) fn on_resync_reply_at_controller(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        reply: ResyncReply,
    ) {
        if self.controller_down {
            self.sys.controller_rx_dropped += 1;
            return;
        }
        let Some(session) = &mut self.resync else {
            // No open round: the deadline already finalized this one, or
            // the reply answers a superseded reign's broadcast (a zombie
            // ex-primary's resync probes land here and die harmlessly).
            self.sys.orphaned_control_dropped += 1;
            return;
        };
        self.sys.resync_replies += 1;
        session.replies.push(reply);
        if session.replies.len() >= session.expected {
            self.finish_resync(ctx);
        }
    }

    pub(super) fn on_resync_deadline(&mut self, ctx: &mut Ctx<'_, Ev>, seq: u64) {
        if self
            .resync
            .as_ref()
            .is_some_and(|s| s.seq == seq && !self.controller_down)
        {
            self.finish_resync(ctx);
        }
    }

    /// Rebuilds controller state from the collected resync replies and
    /// repairs any inconsistency they reveal (dual-serving, orphaned
    /// mid-protocol clients), then releases uplink copies parked during
    /// the round.
    pub(super) fn finish_resync(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let Some(session) = self.resync.take() else {
            return;
        };
        let now = ctx.now();
        let actions = self.ctrl.apply_resync(now, &session.replies);
        for action in actions {
            match action {
                ResyncAction::Adopted { client, ap } => {
                    let c = client.0 as usize;
                    if self.clients[c].serving != Some(ap) {
                        self.clients[c].serving = Some(ap);
                        self.clients[c].metrics.record_assoc(now, Some(ap));
                    }
                    self.resolve_failover(c, now);
                }
                ResyncAction::RepairSwitch {
                    client,
                    stop,
                    adopt,
                } => {
                    // Two APs both believe they serve the client; demote
                    // the stale one with a fresh epoch-stamped switch.
                    self.sys.resync_repairs += 1;
                    self.issue_switch(ctx, client.0 as usize, stop.0 as usize, adopt.0 as usize);
                }
                ResyncAction::RepairAdopt {
                    client,
                    adopt,
                    head,
                } => {
                    // Nobody serves a client the protocol had touched: a
                    // crash-orphaned half-open switch. Send a direct
                    // fresh-epoch `start` at the queue head the chosen AP
                    // itself reported.
                    self.sys.resync_repairs += 1;
                    self.repair_adopt(ctx, client.0 as usize, adopt.0 as usize, head);
                }
            }
        }
        self.sys
            .resyncs
            .push((now, now.saturating_since(session.started_at)));
        for (from_ap, packet) in session.held_uplink {
            self.on_uplink_copy(ctx, from_ap, packet);
        }
        self.ensure_round(ctx);
    }

    /// Post-resync adoption of a serverless client: a direct fresh-epoch
    /// `start` (no `stop` leg — nobody is serving) targeting the queue
    /// head the adopting AP reported, with the usual re-attach retry
    /// timer.
    pub(super) fn repair_adopt(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize, target: usize, k: u16) {
        let client = ClientId(c as u32);
        self.ctrl.selector_mut(client).record_switch(ctx.now());
        let epoch = self.ctrl.engine.allocate_epoch(client);
        self.send_direct_start(ctx, c, target, k, epoch, 0);
    }

    /// Primary side: snapshot controller soft state into a journal batch
    /// and ship it to the standby. The batch doubles as the heartbeat, so
    /// the tick keeps rescheduling while the primary is down — silence,
    /// not absence of the timer, is what the standby detects.
    pub(super) fn on_journal_ship(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        if now < self.traffic_until + SETTLE {
            ctx.schedule_in(JOURNAL_INTERVAL, Ev::JournalShip);
        }
        if self.controller_down {
            return; // a dead primary ships nothing: this is the heartbeat gap
        }
        if self.standby.as_ref().is_some_and(|s| s.taken_over) {
            return; // the standby *is* the controller now; nobody tails it
        }
        self.journal_seq += 1;
        let (clients, pending) = self.ctrl.journal_snapshot();
        let batch = JournalBatch {
            term: self.ctrl.engine.term(),
            seq: self.journal_seq,
            clients,
            pending,
            dedup_keys: std::mem::take(&mut self.journal_pending_keys),
        };
        self.sys.journal_batches_shipped += 1;
        let bytes = batch.wire_bytes();
        // The journal rides its own replication channel: serialized by the
        // backhaul's bandwidth model but exempt from the datagram-path
        // impairments (it is TCP-like; the replica's seq numbers absorb
        // what reordering remains). Scheduled lag windows model a
        // congested or throttled replication link.
        let lag = self.faults.journal_lag_at(now);
        if let Some(d) = self.backhaul.transit(bytes) {
            ctx.schedule_in(d + lag, Ev::JournalAtStandby { batch });
        }
    }

    /// Standby side: absorb one journal batch into the replica and reset
    /// the failure-detector clock.
    pub(super) fn on_journal_at_standby(&mut self, ctx: &mut Ctx<'_, Ev>, batch: JournalBatch) {
        let now = ctx.now();
        let sb = self.standby.get_or_insert_with(Standby::new);
        if sb.taken_over {
            return; // post-takeover stragglers from the dead reign
        }
        match sb.replica.apply(&batch) {
            crate::replica::ApplyOutcome::Applied => {
                self.sys.journal_batches_applied += 1;
                sb.last_batch_at = now;
            }
            crate::replica::ApplyOutcome::AppliedAfterGap => {
                self.sys.journal_batches_applied += 1;
                self.sys.journal_gaps += 1;
                sb.last_batch_at = now;
            }
            crate::replica::ApplyOutcome::Stale => {}
        }
    }

    /// Standby failure detector: journal silence past the takeover
    /// timeout (with the primary actually down — the sim's stand-in for a
    /// lease protocol that prevents spurious promotion) promotes the
    /// replica to controller under a freshly bumped term.
    pub(super) fn on_standby_check(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        if now < self.traffic_until + SETTLE {
            ctx.schedule_in(STANDBY_CHECK_INTERVAL, Ev::StandbyCheck);
        }
        let Some(crashed_at) = self.primary_crashed_at else {
            return;
        };
        if !self.controller_down {
            return;
        }
        let sb = self.standby.get_or_insert_with(Standby::new);
        if sb.taken_over || now.saturating_since(sb.last_batch_at) <= TAKEOVER_TIMEOUT {
            return;
        }
        // Takeover. Copy what the replica holds, then promote.
        sb.taken_over = true;
        let fed = sb.replica.fed();
        let gapped = sb.replica.gapped();
        let replica_term = sb.replica.term();
        let clients = sb.replica.clients().to_vec();
        let keys = sb.replica.keys().to_vec();
        let pending = sb.replica.pending().to_vec();
        self.primary_crashed_at = None;
        self.sys.standby_takeovers += 1;
        self.sys
            .takeovers
            .push((now, now.saturating_since(crashed_at)));
        self.controller_down = false;
        // Fence first: the new reign's term exceeds anything the dead
        // primary (or its zombie) can ever stamp.
        let new_term = replica_term.max(self.zombie_term).max(1) + 1;
        self.ctrl.engine.set_term(new_term);
        if fed {
            self.ctrl.restore_from_journal(&clients, &keys);
        }
        // Announce the term to every reachable AP (reliable channel):
        // raises their fences and flushes degraded-mode uplink.
        self.broadcast_control(ctx, |ap| Ev::TermAnnounceAtAp { ap, term: new_term });
        if fed && !gapped {
            // Journal current: re-drive the in-flight switches the crash
            // orphaned, each under a fresh epoch of the new term.
            for p in pending {
                self.issue_switch(ctx, p.client.0 as usize, p.from.0 as usize, p.to.0 as usize);
            }
            self.ensure_round(ctx);
        } else {
            // Never fed, or a lost batch poisoned the dedup-key delta:
            // fall back to AP-sourced resync (term-stamped), which
            // rebuilds everything from the APs' authoritative copies.
            self.start_resync(ctx);
        }
    }

    /// A term announcement lands at an AP: raise its fence and let
    /// degraded-mode uplink held for the dead primary flow to the new one
    /// (the restored dedup table catches cross-reign duplicates).
    pub(super) fn on_term_announce_at_ap(&mut self, ctx: &mut Ctx<'_, Ev>, ap: usize, term: u32) {
        if self.admit_control_frame(ap, ctx.now(), term) {
            self.flush_held_uplink(ctx, ap);
        }
    }

    /// The ex-primary process un-freezes, unaware a standby superseded
    /// it, and resumes its reign from where it stopped: re-driving its
    /// in-flight `stop`s and broadcasting a resync — all stamped with its
    /// stale term, so every fenced AP drops them on arrival. This is the
    /// split-brain scenario; the term guards are what make it structurally
    /// harmless.
    pub(super) fn on_zombie_wake(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let term = self.zombie_term;
        let pending = std::mem::take(&mut self.zombie_pending);
        for (client, p) in pending {
            let (from, to) = (p.from.0 as usize, p.to.0 as usize);
            self.send_stop(ctx, from, client.0 as usize, to, p.epoch, term);
        }
        self.broadcast_control(ctx, |ap| Ev::ResyncAtAp { ap, term });
        // No fence ever answers: the zombie hears nothing by its resync
        // deadline and concludes it was superseded.
        ctx.schedule_in(RESYNC_DEADLINE, Ev::ZombieDeadline);
    }

    /// The zombie's resync deadline passes with zero replies (every AP
    /// fenced it): it stands down for good.
    pub(super) fn on_zombie_deadline(&mut self, _ctx: &mut Ctx<'_, Ev>) {
        self.sys.zombie_standdowns += 1;
    }
}
