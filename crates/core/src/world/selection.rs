//! AP selection: the controller's periodic selection tick, CSI intake,
//! and client keep-alive probes that keep CSI flowing (paper §3.1.1).

use super::*;

/// Controller evaluates AP selection at this cadence.
const SELECTION_TICK: SimDuration = SimDuration::from_millis(1);
/// Client sends a null (keep-alive) frame if it has been silent this
/// long, keeping CSI flowing when no uplink data exists.
const PROBE_INTERVAL: SimDuration = SimDuration::from_millis(10);

impl WgttWorld {
    pub(super) fn on_selection_tick(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        if self.controller_down {
            // A dead controller makes no decisions. Keep the tick alive
            // (it draws no RNG) so selection resumes right after recovery.
            if now < self.traffic_until + SETTLE {
                ctx.schedule_in(SELECTION_TICK, Ev::SelectionTick);
            }
            return;
        }
        if self.cfg.mode == Mode::Wgtt {
            let faulty = !self.faults.is_empty();
            for c in 0..self.clients.len() {
                if self.departed[c] {
                    continue;
                }
                let client = ClientId(c as u32);
                if self.ctrl.engine.in_flight(client) || self.pending_reattach[c].is_some() {
                    continue;
                }
                let current = self.ctrl.serving(client);
                // Health layer (fault runs only, to keep fault-free runs
                // bit-identical): a serving AP gone CSI-silent past the
                // staleness horizon is presumed dead — re-attach directly
                // instead of addressing a stop to it.
                if faulty {
                    if let Some(cur) = current {
                        if self.ctrl.health.csi_stale(cur, now) {
                            self.reattach_away_from(ctx, c, cur);
                            continue;
                        }
                    }
                }
                let excluded = if faulty {
                    self.ctrl.health.blacklisted(now)
                } else {
                    Vec::new()
                };
                let decision = self
                    .ctrl
                    .selector_mut(client)
                    .decide_excluding(now, current, &excluded);
                let Some(target) = decision else { continue };
                match current {
                    None => {
                        // First association: WGTT shares state so the client
                        // is usable at every AP instantly (§4.3).
                        let gi = self.cfg.gi;
                        for ap in 0..self.aps.len() {
                            if self.ap_down[ap] {
                                continue; // re-installed on reboot
                            }
                            self.aps[ap]
                                .client_mut(client, gi)
                                .assoc
                                .install_shared_association(now);
                        }
                        let st = self.aps[target.0 as usize].client_mut(client, gi);
                        st.serving = true;
                        self.ctrl.serving.insert(client, target);
                        self.clients[c].serving = Some(target);
                        self.clients[c].metrics.record_assoc(now, Some(target));
                        self.ctrl.selector_mut(client).record_switch(now);
                        self.resolve_failover(c, now);
                        // A migrant's imported seam residue waited for this
                        // moment: the controller now has a fan-out set, so
                        // re-injection can't silently drop.
                        self.flush_seam(ctx, c);
                        self.ensure_round(ctx);
                    }
                    Some(cur) => {
                        self.issue_switch(ctx, c, cur.0 as usize, target.0 as usize);
                    }
                }
            }
        }
        if now < self.traffic_until + SETTLE {
            ctx.schedule_in(SELECTION_TICK, Ev::SelectionTick);
        }
    }

    pub(super) fn on_csi_at_controller(&mut self, ap: usize, c: usize, esnr_db: f64, now: SimTime) {
        if self.controller_down {
            self.sys.controller_rx_dropped += 1;
            return;
        }
        self.ctrl
            .on_csi(now, ApId(ap as u32), ClientId(c as u32), esnr_db);
    }

    pub(super) fn on_probe_tick(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize) {
        let now = ctx.now();
        if now < self.traffic_until {
            let cl = &self.clients[c];
            let idle = now.saturating_since(cl.last_uplink_tx) >= PROBE_INTERVAL;
            if idle && cl.uplink_queue.is_empty() {
                let pkt =
                    self.factory
                        .make(ClientId(c as u32), FlowId(u32::MAX), 36, now, Payload::Raw);
                self.clients[c].enqueue_uplink(pkt);
                self.ensure_round(ctx);
            }
            ctx.schedule_in(PROBE_INTERVAL, Ev::ProbeTick { client: c });
        }
    }
}
