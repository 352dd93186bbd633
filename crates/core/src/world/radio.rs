//! Radio layer: DCF contention rounds, A-MPDU and uplink-burst
//! transmission and resolution, Block ACK forwarding, the client reorder
//! buffer, and CSI reports (paper §3.1.1, §3.2.1, §5.3.2).

use super::*;

/// Identifies a radio transmitter for busy-tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) enum NodeKey {
    /// An access point's radio.
    Ap(usize),
    /// A client's radio.
    Client(usize),
}

/// Uplink burst size limit (client-side aggregation of small frames).
const UPLINK_BURST: usize = 16;
/// Client uplink retry limit.
const UPLINK_RETRY_LIMIT: u32 = 7;
/// Capture margin for AP-response collisions at the client, dB.
const CAPTURE_MARGIN_DB: f64 = 8.0;
/// CCA detection window: a later AP response within this of an earlier one
/// fails to defer, µs.
const CCA_WINDOW_US: f64 = 1.0;
/// How long the client's reorder buffer waits on a hole before skipping it.
const REORDER_TIMEOUT: SimDuration = SimDuration::from_millis(50);
/// Minimum spacing of CSI reports per (AP, client) link — bounds
/// control traffic, mirrors the CSI tool's per-frame reporting at
/// realistic frame rates.
const CSI_REPORT_INTERVAL: SimDuration = SimDuration::from_millis(1);

/// A transmission in flight on the radio.
pub(super) enum AirTx {
    /// AP → client A-MPDU.
    ApAggregate {
        ap: usize,
        client: usize,
        /// `(seq, packet, retries)` of each MPDU.
        mpdus: Vec<(u16, Packet, u32)>,
        mcs: Mcs,
        collided: bool,
        start: SimTime,
    },
    /// Client → BSSID uplink burst.
    ClientBurst {
        client: usize,
        entries: Vec<crate::client::UplinkEntry>,
        mcs: Mcs,
        collided: bool,
        start: SimTime,
    },
}

impl WgttWorld {
    pub(super) fn on_contention_round(&mut self, ctx: &mut Ctx<'_, Ev>) {
        // Loan the pooled buffers to the round body; every exit path comes
        // back through here, so the capacity survives for the next round.
        let mut busy = std::mem::take(&mut self.scratch_busy);
        let mut contenders = std::mem::take(&mut self.scratch_contenders);
        let mut active = std::mem::take(&mut self.scratch_active);
        let mut granted = std::mem::take(&mut self.scratch_granted);
        busy.clear();
        contenders.clear();
        active.clear();
        granted.clear();
        self.contention_round_body(ctx, &mut busy, &mut contenders, &mut active, &mut granted);
        self.scratch_busy = busy;
        self.scratch_contenders = contenders;
        self.scratch_active = active;
        self.scratch_granted = granted;
    }

    #[allow(clippy::type_complexity)]
    pub(super) fn contention_round_body(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        busy: &mut Vec<NodeKey>,
        contenders: &mut Vec<(NodeKey, u32)>,
        active: &mut Vec<(wgtt_phy::Position, wgtt_phy::Position, usize)>,
        granted: &mut Vec<(
            NodeKey,
            u32,
            (wgtt_phy::Position, wgtt_phy::Position),
            usize,
            bool,
        )>,
    ) {
        self.round_scheduled = false;
        let now = ctx.now();
        // Livelock guard: a node that reports work but can never build a
        // transmission would otherwise reschedule rounds at this same
        // instant forever.
        if self.rounds_at_ts.0 == now {
            self.rounds_at_ts.1 += 1;
            if self.rounds_at_ts.1 > 10_000 {
                panic!(
                    "contention livelock at {now}: ap_work={:?} cl_work={:?} active={}",
                    self.aps
                        .iter()
                        .enumerate()
                        .filter(|(_, a)| a.has_work())
                        .map(|(i, a)| (
                            i,
                            a.clients_iter()
                                .map(|(c, s)| (
                                    c.0,
                                    s.serving,
                                    s.draining,
                                    s.nic_queue.len(),
                                    s.cyclic.backlog(),
                                    s.scoreboard.outstanding()
                                ))
                                .collect::<Vec<_>>()
                        ))
                        .collect::<Vec<_>>(),
                    self.clients
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| c.has_uplink_work())
                        .map(|(i, c)| (i, c.uplink_queue.len()))
                        .collect::<Vec<_>>(),
                    self.active_geo.len()
                );
            }
        } else {
            self.rounds_at_ts = (now, 0);
        }
        // Drop finished transmissions from the active registry.
        self.active_geo.retain(|&(_, _, _, end, _)| end > now);
        // Gather contenders: nodes with pending frames whose radio is not
        // already mid-transmission. The active set is a handful of entries,
        // so a linear `contains` beats hashing and allocates nothing.
        busy.extend(self.active_geo.iter().map(|&(_, _, _, _, key)| key));
        for ap in 0..self.aps.len() {
            if !self.ap_down[ap] && self.aps[ap].has_work() && !busy.contains(&NodeKey::Ap(ap)) {
                let draw = self.aps[ap].backoff.draw(&mut self.rng);
                contenders.push((NodeKey::Ap(ap), draw));
            }
        }
        for c in 0..self.clients.len() {
            if self.clients[c].has_uplink_work() && !busy.contains(&NodeKey::Client(c)) {
                let draw = self.clients[c].backoff.draw(&mut self.rng);
                contenders.push((NodeKey::Client(c), draw));
            }
        }
        if contenders.is_empty() {
            // Nothing eligible; when transmissions finish, TxDone will
            // re-arm the round.
            return;
        }
        // Spatial reuse: transmitters far enough apart (directional
        // antennas, metres-scale cells) neither carrier-sense nor interfere
        // with each other, so several may transmit concurrently — this is
        // what makes two opposing cars at opposite ends of the array cheap
        // to serve simultaneously (paper Fig 20).
        const CS_RANGE_M: f64 = 25.0;
        contenders.sort_by_key(|&(n, d)| {
            (
                d,
                match n {
                    NodeKey::Ap(i) => i,
                    NodeKey::Client(i) => 1000 + i,
                },
            )
        });
        let tx_rx_pos = |w: &WgttWorld, n: NodeKey| -> (wgtt_phy::Position, wgtt_phy::Position) {
            match n {
                NodeKey::Ap(ap) => {
                    let txp = w.deployment.aps[ap].position;
                    // Receiver: the client this AP would serve (lowest id
                    // with work — `find` on the HashMap would make the CS
                    // geometry, and hence multi-client results, depend on
                    // iteration order); fall back to the boresight patch.
                    let rx = w.aps[ap]
                        .clients_iter()
                        .filter(|(_, s)| s.has_downlink_work())
                        .min_by_key(|(c, _)| c.0)
                        .map(|(c, _)| w.client_pos(c.0 as usize, now))
                        .unwrap_or(w.deployment.aps[ap].boresight_target);
                    (txp, rx)
                }
                NodeKey::Client(c) => {
                    let txp = w.client_pos(c, now);
                    let rx = w.clients[c]
                        .serving
                        .map(|a| w.deployment.aps[a.0 as usize].position)
                        .unwrap_or(txp);
                    (txp, rx)
                }
            }
        };
        let compatible = |a: (wgtt_phy::Position, wgtt_phy::Position),
                          b: (wgtt_phy::Position, wgtt_phy::Position)| {
            a.0.distance(&b.0) > CS_RANGE_M
                && a.0.distance(&b.1) > CS_RANGE_M
                && b.0.distance(&a.1) > CS_RANGE_M
        };
        let chan_of = |w: &WgttWorld, n: NodeKey| -> usize {
            match n {
                NodeKey::Ap(ap) => w.cfg.channel_of(ap),
                NodeKey::Client(c) => w.serving_of(c).map(|s| w.cfg.channel_of(s)).unwrap_or(0),
            }
        };
        for i in 0..self.active_geo.len() {
            let (_, t, r, _, key) = self.active_geo[i];
            active.push((t, r, chan_of(self, key)));
        }
        let min_draw = contenders[0].1;
        for &(node, draw) in contenders.iter() {
            let pos = tx_rx_pos(self, node);
            let chan = chan_of(self, node);
            // A contender within carrier-sense range of an ongoing
            // same-channel transmission defers (it hears the medium busy);
            // different channels never interact.
            if !active
                .iter()
                .all(|&(t, r, ch)| ch != chan || compatible(pos, (t, r)))
            {
                continue;
            }
            if granted.is_empty() {
                granted.push((node, draw, pos, chan, false));
                continue;
            }
            let clear = granted
                .iter()
                .all(|&(_, _, gp, gch, _)| gch != chan || compatible(pos, gp));
            if clear {
                // Out of carrier-sense range (or off-channel) of everything
                // granted: transmits concurrently.
                granted.push((node, draw, pos, chan, false));
            } else if draw == min_draw {
                // Same backoff slot as an incompatible transmission:
                // classic DCF collision — both the newcomer and every
                // granted transmission it can sense are destroyed.
                for g in granted.iter_mut() {
                    if g.3 == chan && !compatible(pos, g.2) {
                        g.4 = true;
                    }
                }
                granted.push((node, draw, pos, chan, true));
                self.dcf_collisions += 1;
            }
            // Otherwise: defers, contends again next round.
        }
        if granted.is_empty() {
            // Everyone with work is inside an active transmission's CS
            // range; retry when the earliest one ends.
            if let Some(end) = self.active_geo.iter().map(|&(_, _, _, e, _)| e).min() {
                self.round_scheduled = true;
                ctx.schedule_at(end.max(now), Ev::ContentionRound);
            }
            return;
        }
        for &(node, draw, pos, _chan, collided) in granted.iter() {
            let grant = now + difs() + slot() * draw as u64;
            let started = match node {
                NodeKey::Ap(ap) => self.start_ap_tx(ctx, ap, grant, collided),
                NodeKey::Client(c) => self.start_client_tx(ctx, c, grant, collided),
            };
            if let Some((tx_id, end)) = started {
                // Tx ids are monotone: pushing keeps the registry id-sorted.
                self.active_geo.push((tx_id, pos.0, pos.1, end, node));
            }
        }
        self.ensure_round(ctx);
    }

    /// Builds and launches one AP A-MPDU. Returns the end-of-exchange time.
    pub(super) fn start_ap_tx(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        ap: usize,
        grant: SimTime,
        collided: bool,
    ) -> Option<(u64, SimTime)> {
        let client = self.aps[ap].pick_client()?;
        let c = client.0 as usize;
        let gi = self.cfg.gi;
        let now = ctx.now();
        let max_dur = SimDuration::from_millis(4);
        // Invariant: `pick_client` only returns ids present in this AP's
        // client table, and nothing runs between the two calls.
        let st = self.aps[ap]
            .client_get_mut(client)
            .expect("picked client exists");
        if st.serving || (st.draining && st.drain_cyclic) {
            self.sys.dup_data_dropped += st.refill_nic();
        }
        let mcs = st.ratectl.select(now, &mut self.rng);
        let mcs = retry_rate(mcs, st.nic_queue.front().map_or(0, |e| e.retries));
        // Build the aggregate from the NIC queue head.
        let mut mpdus: Vec<(u16, Packet, u32)> = Vec::new();
        let mut lens: Vec<usize> = Vec::new();
        let mut bytes = 0usize;
        while let Some(entry) = st.nic_queue.front() {
            if mpdus.len() >= wgtt_mac::BA_WINDOW as usize {
                break;
            }
            let wire = entry.packet.len_bytes + overhead::DOT11;
            if !mpdus.is_empty() {
                if bytes + wire > MAX_AMPDU_BYTES {
                    break;
                }
                lens.push(wire);
                if ampdu_airtime(&lens, mcs, gi) > max_dur {
                    lens.pop();
                    break;
                }
                lens.pop();
            }
            if !entry.registered && st.scoreboard.available() == 0 {
                break;
            }
            // Invariant: the `while let` guard peeked this same front.
            let mut entry = st.nic_queue.pop_front().expect("front exists");
            if !entry.registered {
                st.scoreboard.register(entry.seq);
                entry.registered = true;
            }
            entry.retries += 1;
            bytes += wire;
            lens.push(wire);
            mpdus.push((entry.seq, entry.packet, entry.retries));
        }
        if mpdus.is_empty() {
            return None;
        }
        let airtime = ampdu_airtime(&lens, mcs, gi);
        let end = grant + airtime + sifs() + block_ack_airtime();
        let tx = self.alloc_tx(AirTx::ApAggregate {
            ap,
            client: c,
            mpdus,
            mcs,
            collided,
            start: grant,
        });
        ctx.schedule_at(end, Ev::TxDone(tx));
        Some((tx, end))
    }

    /// Launches one client uplink burst.
    pub(super) fn start_client_tx(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        c: usize,
        grant: SimTime,
        collided: bool,
    ) -> Option<(u64, SimTime)> {
        let now = ctx.now();
        let cl = &mut self.clients[c];
        if cl.uplink_queue.is_empty() {
            return None;
        }
        let all_probes = cl
            .uplink_queue
            .iter()
            .take(UPLINK_BURST)
            .all(|e| matches!(e.packet.payload, Payload::Raw));
        let mcs = if cl.serving.is_none() || all_probes {
            // Probe/null frames ride the base rate (like real management
            // traffic), so every nearby AP can measure CSI from them.
            Mcs(0)
        } else {
            cl.ratectl.select(now, &mut self.rng)
        };
        let mcs = retry_rate(mcs, cl.uplink_queue.front().map_or(0, |e| e.retries));
        let count = cl.uplink_queue.len().min(UPLINK_BURST);
        let entries: Vec<crate::client::UplinkEntry> = cl.uplink_queue.drain(..count).collect();
        let lens: Vec<usize> = entries
            .iter()
            .map(|e| e.packet.len_bytes + overhead::DOT11)
            .collect();
        let airtime = if lens.len() == 1 {
            frame_airtime(lens[0], mcs, self.cfg.gi)
        } else {
            ampdu_airtime(&lens, mcs, self.cfg.gi)
        };
        cl.last_uplink_tx = grant;
        let end = grant + airtime + sifs() + block_ack_airtime();
        let tx = self.alloc_tx(AirTx::ClientBurst {
            client: c,
            entries,
            mcs,
            collided,
            start: grant,
        });
        ctx.schedule_at(end, Ev::TxDone(tx));
        Some((tx, end))
    }

    pub(super) fn on_tx_done(&mut self, ctx: &mut Ctx<'_, Ev>, tx_id: u64) {
        if let Ok(i) = self.active_geo.binary_search_by_key(&tx_id, |e| e.0) {
            self.active_geo.remove(i);
        }
        let done = self
            .in_flight
            .binary_search_by_key(&tx_id, |e| e.0)
            .ok()
            .map(|i| self.in_flight.remove(i).1);
        match done {
            Some(AirTx::ApAggregate {
                ap,
                client,
                mpdus,
                mcs,
                collided,
                start,
            }) => self.resolve_ap_tx(ctx, ap, client, mpdus, mcs, collided, start),
            Some(AirTx::ClientBurst {
                client,
                entries,
                mcs,
                collided,
                start,
            }) => self.resolve_client_tx(ctx, client, entries, mcs, collided, start),
            None => {}
        }
        self.ensure_round(ctx);
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn resolve_ap_tx(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        ap: usize,
        c: usize,
        mpdus: Vec<(u16, Packet, u32)>,
        mcs: Mcs,
        collided: bool,
        start: SimTime,
    ) {
        let gi = self.cfg.gi;
        let now = ctx.now();
        if self.ap_down[ap] {
            return; // crashed mid-transmission: the PPDU died with it
        }
        let client = ClientId(c as u32);
        let csi = self.csi(ap, c, start);
        // One snapshot serves the whole exchange — per-MPDU data draws, the
        // QPSK Block ACK, and the controller's 16-QAM report — so memoize
        // the per-modulation ESNR integrations across all of them.
        let mut esnr = EsnrMemo::new(&csi);
        let listening = self.client_listens_to(ap, c);
        let n = mpdus.len() as u64;
        self.clients[c].metrics.mpdu_attempts += n;
        let attempt_rate = mcs.data_rate_mbps(self.cfg.gi);
        for _ in 0..n {
            self.clients[c]
                .metrics
                .attempted_mpdu_rates_mbps
                .push(attempt_rate);
        }
        self.clients[c].metrics.mpdu_retransmits +=
            mpdus.iter().filter(|&&(_, _, r)| r > 1).count() as u64;

        // Per-MPDU delivery draws.
        let mut results: Vec<(u16, Packet, u32, bool)> = Vec::with_capacity(mpdus.len());
        for (seq, packet, retries) in mpdus {
            let p = if collided || !listening {
                0.0
            } else {
                self.cfg
                    .per_model
                    .success_with(&mut esnr, mcs, packet.len_bytes + overhead::DOT11)
            };
            let delivered = self.rng.chance(p);
            results.push((seq, packet, retries, delivered));
        }

        // Client-side reorder + app delivery.
        let mut any_received = false;
        let rate_mbps = mcs.data_rate_mbps(gi);
        for (seq, packet, _, delivered) in &results {
            if !*delivered {
                continue;
            }
            any_received = true;
            let is_new = self.clients[c].rx_reorder.on_mpdu(*seq);
            if is_new {
                self.clients[c].rx_buffer.insert(*seq, packet.clone());
                let m = &mut self.clients[c].metrics;
                m.mpdu_successes += 1;
                m.delivered_mpdu_rates_mbps.push(rate_mbps);
                m.rate_bin_sum.add(now, rate_mbps);
                m.rate_bin_count.add(now, 1.0);
            }
        }
        if any_received {
            self.release_reordered(ctx, c, false);
        }

        // Block ACK response (only if the client heard the PPDU at all).
        let mut ba_received = false;
        let mut ba: Option<BlockAckFrame> = None;
        if any_received {
            let frame = self.clients[c].rx_reorder.block_ack();
            ba = Some(frame);
            // BA travels client→AP on the reciprocal channel at the
            // 24 Mbit/s basic control rate (QPSK-3/4-like robustness).
            let e_qpsk = esnr.esnr_db(Modulation::Qpsk);
            let p_ba =
                self.cfg
                    .per_model
                    .success_prob(Mcs(2), e_qpsk, wgtt_mac::timing::BLOCK_ACK_BYTES);
            ba_received = self.rng.chance(p_ba);
        }

        // Every AP that decodes the client's Block ACK — serving or
        // monitor-mode neighbour — measures CSI from it (the CSI tool
        // reports every incoming frame, §3.1.1). Monitors that heard a BA
        // the serving AP missed forward it over the backhaul (§3.2.1).
        let mut overheard_by: Vec<usize> = Vec::new();
        if ba.is_some() {
            for other in 0..self.aps.len() {
                if other == ap
                    || self.ap_down[other]
                    || !self.in_radio_range(other, c, now)
                    || !self.same_channel(other, c)
                {
                    continue;
                }
                let other_csi = self.csi(other, c, start);
                // Monitors measure the QPSK BA and, on success, report the
                // 16-QAM controller metric off the same snapshot.
                let mut other_esnr = EsnrMemo::new(&other_csi);
                let e = other_esnr.esnr_db(Modulation::Qpsk);
                let p =
                    self.cfg
                        .per_model
                        .success_prob(Mcs(2), e, wgtt_mac::timing::BLOCK_ACK_BYTES);
                if self.rng.chance(p) {
                    overheard_by.push(other);
                    let report = other_esnr.esnr_db(Modulation::Qam16);
                    self.report_csi(ctx, other, c, report, now);
                }
            }
        }
        if ba_received {
            let report = esnr.esnr_db(Modulation::Qam16);
            self.report_csi(ctx, ap, c, report, now);
        }
        let Some(st) = self.aps[ap].client_get_mut(client) else {
            return; // state wiped by a crash/reboot cycle mid-flight
        };
        if ba_received {
            // Invariant: `ba_received` is only set where `ba` was built.
            let frame = ba.expect("ba exists when received");
            st.seen_bas.insert((frame.start_seq, frame.bitmap));
            let newly = st.scoreboard.on_block_ack(&frame);
            for _ in &newly {
                st.ratectl.on_tx_result(now, mcs, true);
            }
            // Anything the Block ACK (cumulatively) covers is done; the
            // rest — including previously acked sequences the frame still
            // carries — goes back for retransmission.
            let unacked: Vec<(u16, Packet, u32)> = results
                .into_iter()
                .filter(|(seq, _, _, _)| !frame.covers(*seq) && st_seq_outstanding(st, *seq))
                .map(|(seq, p, r, _)| (seq, p, r))
                .collect();
            // Rate control must see the failures too, or it pins at the
            // top rate on the optimism of acked-only feedback.
            for _ in &unacked {
                st.ratectl.on_tx_result(now, mcs, false);
            }
            self.requeue_lost(ap, c, unacked, mcs, now);
            self.aps[ap].backoff.on_success();
        } else {
            if let Some(frame) = ba {
                self.clients[c].metrics.ba_lost_at_serving += 1;
                // Block ACK forwarding: monitor-mode neighbours that
                // overheard it relay it over the backhaul (§3.2.1).
                if self.cfg.mode == Mode::Wgtt && self.cfg.ba_forwarding {
                    for other in &overheard_by {
                        if self.faults.partitioned(*other, now) {
                            continue; // monitor cut off from the backhaul
                        }
                        self.backhaul_send(
                            ctx,
                            100,
                            false,
                            Ev::BaForwardAtAp {
                                ap,
                                client: c,
                                ba: frame,
                            },
                        );
                    }
                }
            }
            let Some(st) = self.aps[ap].client_get_mut(client) else {
                return;
            };
            st.ratectl.on_tx_result(now, mcs, false);
            // Without an acknowledgement the AP must assume nothing got
            // through: the entire aggregate is retransmitted (§3.2.1's
            // cost) — unless a forwarded Block ACK arrives first and
            // prunes the NIC queue.
            let all: Vec<(u16, Packet, u32)> = results
                .into_iter()
                .map(|(seq, p, r, _)| (seq, p, r))
                .collect();
            self.requeue_lost(ap, c, all, mcs, now);
            self.aps[ap].backoff.on_failure();
        }
    }

    /// Pushes unacknowledged MPDUs back to the NIC queue front (in order)
    /// or drops them past the retry limit.
    pub(super) fn requeue_lost(
        &mut self,
        ap: usize,
        c: usize,
        unacked: Vec<(u16, Packet, u32)>,
        mcs: Mcs,
        now: SimTime,
    ) {
        let client = ClientId(c as u32);
        let Some(st) = self.aps[ap].client_get_mut(client) else {
            return;
        };
        for (seq, packet, retries) in unacked.into_iter().rev() {
            if retries > MPDU_RETRY_LIMIT {
                st.scoreboard.drop_seq(seq);
                st.ratectl.on_tx_result(now, mcs, false);
                continue;
            }
            st.nic_queue.push_front(crate::ap::NicEntry {
                packet,
                seq,
                retries,
                registered: true,
            });
        }
    }

    pub(super) fn on_ba_forward_at_ap(&mut self, ap: usize, c: usize, ba: BlockAckFrame) {
        if self.cfg.mode != Mode::Wgtt || !self.cfg.ba_forwarding || self.ap_down[ap] {
            return;
        }
        let client = ClientId(c as u32);
        let Some(st) = self.aps[ap].client_get_mut(client) else {
            return;
        };
        if !st.seen_bas.insert((ba.start_seq, ba.bitmap)) {
            return; // already applied (own reception or earlier forward)
        }
        let newly = st.scoreboard.on_block_ack(&ba);
        if newly.is_empty() {
            return;
        }
        let acked: std::collections::HashSet<u16> = newly.iter().copied().collect();
        st.nic_queue.retain(|e| !acked.contains(&e.seq));
        self.clients[c].metrics.ba_forwarded_applied += newly.len() as u64;
    }

    /// Releases in-order packets from the client's reorder buffer to the
    /// application, managing the reorder release timer. With `force`, a
    /// stale head-of-window hole is skipped first.
    pub(super) fn release_reordered(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize, force: bool) {
        let now = ctx.now();
        loop {
            if force {
                self.clients[c].rx_reorder.skip_hole();
            }
            let before = self.clients[c].rx_reorder.win_start();
            let released = self.clients[c].rx_reorder.release_in_order();
            for i in 0..released {
                let seq = wgtt_mac::seq_add(before, i as u16);
                if let Some(pkt) = self.clients[c].rx_buffer.remove(&seq) {
                    self.deliver_to_client_app(ctx, c, pkt);
                }
            }
            if !(force && released > 0) {
                break;
            }
            // After a forced skip, further holes may remain; loop once more
            // only while forcing.
            if self.clients[c].rx_buffer.is_empty() {
                break;
            }
        }
        // Manage the release timer: if frames remain buffered behind a
        // hole, arm a flush; otherwise clear it.
        if self.clients[c].rx_buffer.is_empty() {
            self.clients[c].hole_since = None;
        } else if self.clients[c].hole_since.is_none() {
            self.clients[c].hole_since = Some(now);
            ctx.schedule_in(REORDER_TIMEOUT, Ev::ReorderFlush { client: c });
        }
    }

    pub(super) fn on_reorder_flush(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize) {
        let now = ctx.now();
        match self.clients[c].hole_since {
            Some(since) if now.saturating_since(since) >= REORDER_TIMEOUT => {
                self.clients[c].hole_since = None;
                self.release_reordered(ctx, c, true);
            }
            Some(since) => {
                // Timer superseded by progress; re-arm for the remainder.
                let remain = REORDER_TIMEOUT - now.saturating_since(since);
                ctx.schedule_in(remain, Ev::ReorderFlush { client: c });
            }
            None => {}
        }
    }

    /// Whether the client decodes frames from this AP: always in WGTT
    /// (single BSSID), only from the serving AP in baseline mode.
    pub(super) fn client_listens_to(&self, ap: usize, c: usize) -> bool {
        if !self.same_channel(ap, c) {
            return false;
        }
        match self.cfg.mode {
            Mode::Wgtt => true,
            Mode::Enhanced80211r => self.serving_of(c) == Some(ap),
        }
    }

    pub(super) fn resolve_client_tx(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        c: usize,
        entries: Vec<crate::client::UplinkEntry>,
        mcs: Mcs,
        collided: bool,
        start: SimTime,
    ) {
        let now = ctx.now();
        let client = ClientId(c as u32);
        // Reception per AP.
        let mut per_ap_received: Vec<(usize, Vec<u16>)> = Vec::new();
        for ap in 0..self.aps.len() {
            if self.ap_down[ap] || !self.in_radio_range(ap, c, start) || !self.same_channel(ap, c) {
                continue;
            }
            let csi = self.csi(ap, c, start);
            // One memo per receiving AP: every uplink MPDU in the burst
            // draws against the same snapshot, and the CSI report reuses it.
            let mut esnr = EsnrMemo::new(&csi);
            let mut got = Vec::new();
            for e in &entries {
                let p = if collided {
                    0.0
                } else {
                    self.cfg.per_model.success_with(
                        &mut esnr,
                        mcs,
                        e.packet.len_bytes + overhead::DOT11,
                    )
                };
                if self.rng.chance(p) {
                    got.push(e.seq);
                }
            }
            if !got.is_empty() {
                // CSI measurement from this reception, rate-limited.
                let report = esnr.esnr_db(Modulation::Qam16);
                self.report_csi(ctx, ap, c, report, now);
                per_ap_received.push((ap, got));
            }
        }

        // Forwarding to the controller (uplink diversity).
        let serving = self.serving_of(c);
        for (ap, got) in &per_ap_received {
            let forwards = match self.cfg.mode {
                Mode::Wgtt => self.cfg.uplink_diversity || Some(*ap) == serving,
                Mode::Enhanced80211r => Some(*ap) == serving,
            };
            // Only associated APs bridge data frames.
            let associated = self.aps[*ap]
                .client(client)
                .is_some_and(|s| s.assoc.state() == AssocState::Associated);
            if !forwards || !associated || self.faults.partitioned(*ap, now) {
                continue;
            }
            // Any controller crash (or failover window) in the schedule
            // engages the degraded uplink path; with none this is the
            // exact healthy code path.
            let crash_faults = !self.faults.controller_crashes.is_empty()
                || !self.faults.controller_failovers.is_empty();
            for seq in got {
                // Invariant: `got` is a subset of the sequences of
                // `entries`, built a few lines up from the same aggregate.
                let e = entries
                    .iter()
                    .find(|e| e.seq == *seq)
                    .expect("seq from entries");
                if matches!(e.packet.payload, Payload::Raw) {
                    continue; // probes terminate at the AP
                }
                let pkt = e.packet.clone();
                let from_ap = *ap;
                if crash_faults && self.controller_down {
                    // Local autonomy: hold uplink at the AP (bounded)
                    // while the controller is down; flushed at resync.
                    let cap = self.cfg.degraded_uplink_cap;
                    if self.aps[from_ap].buffer_uplink(pkt, cap) {
                        self.sys.degraded_uplink_buffered += 1;
                    } else {
                        self.sys.degraded_uplink_dropped += 1;
                    }
                    continue;
                }
                if crash_faults {
                    // Remember forwarded keys so a rebooted controller can
                    // conservatively re-prime its dedup table.
                    self.aps[from_ap]
                        .note_forwarded_key(Deduplicator::key(pkt.client, pkt.ip_ident));
                }
                let wire = pkt.len_bytes + overhead::TUNNEL;
                self.backhaul_send(
                    ctx,
                    wire,
                    false,
                    Ev::UplinkCopyAtController {
                        from_ap,
                        packet: pkt,
                    },
                );
            }
        }

        // Acknowledgement responses and collisions (§5.3.2).
        let responders: Vec<usize> = per_ap_received
            .iter()
            .map(|&(ap, _)| ap)
            .filter(|&ap| {
                self.aps[ap]
                    .client(client)
                    .is_some_and(|s| s.assoc.state() == AssocState::Associated)
            })
            .collect();
        let mut acked_by: Option<usize> = None;
        if !responders.is_empty() {
            self.clients[c].metrics.ack_responses += 1;
            // Serving AP responds promptly; others add µs-scale backoff.
            let mut resp: Vec<(usize, f64, f64)> = responders
                .iter()
                .map(|&ap| {
                    let jitter_us = if Some(ap) == serving {
                        self.rng.range(0.0..3.0)
                    } else {
                        self.rng.range(0.0..100.0)
                    };
                    let snr_at_client = self.mean_snr(ap, c, now);
                    (ap, jitter_us, snr_at_client)
                })
                .collect();
            resp.sort_by(|a, b| a.1.total_cmp(&b.1));
            let (first_ap, first_jitter, first_snr) = resp[0];
            // Later responders defer via CCA unless within the detection
            // window; overlapping comparable-power responses collide.
            let mut collision = false;
            for &(_, jitter, snr) in &resp[1..] {
                if jitter - first_jitter < CCA_WINDOW_US
                    && (first_snr - snr).abs() < CAPTURE_MARGIN_DB
                {
                    collision = true;
                    break;
                }
            }
            if collision {
                self.clients[c].metrics.ack_collisions += 1;
            } else {
                // The client hears the first response if its own downlink
                // from that AP works at the 24 Mbit/s control rate.
                let csi = self.csi(first_ap, c, now);
                let e = esnr_from_csi(Modulation::Qpsk, &csi);
                let p = self
                    .cfg
                    .per_model
                    .success_prob(Mcs(2), e, wgtt_mac::timing::ACK_BYTES);
                if self.rng.chance(p) {
                    acked_by = Some(first_ap);
                }
            }
        }

        // Client-side retransmission bookkeeping. Reverse iteration +
        // push_front keeps the surviving entries in their original order
        // at the queue head.
        match acked_by {
            Some(ap) => {
                self.clients[c].backoff.on_success();
                let got: std::collections::HashSet<u16> = per_ap_received
                    .iter()
                    .find(|&&(a, _)| a == ap)
                    .map(|(_, g)| g.iter().copied().collect())
                    .unwrap_or_default();
                let mut successes = 0u32;
                for e in entries.into_iter().rev() {
                    if got.contains(&e.seq) {
                        successes += 1;
                    } else {
                        self.requeue_uplink(c, e);
                    }
                }
                let cl = &mut self.clients[c];
                for _ in 0..successes {
                    cl.ratectl.on_tx_result(now, mcs, true);
                }
            }
            None => {
                let cl = &mut self.clients[c];
                cl.backoff.on_failure();
                cl.ratectl.on_tx_result(now, mcs, false);
                for e in entries.into_iter().rev() {
                    self.requeue_uplink(c, e);
                }
            }
        }
    }

    /// Puts an unacknowledged uplink MPDU back at the head of the client's
    /// queue, or drops it past the retry limit. If the burst spanned a
    /// retirement barrier, the datagram crosses the seam instead of
    /// re-queueing on the wiped client.
    fn requeue_uplink(&mut self, c: usize, mut e: crate::client::UplinkEntry) {
        e.retries += 1;
        if e.retries > UPLINK_RETRY_LIMIT {
            return;
        }
        if self.departed[c] {
            self.outbox[c].push(SeamPayload::UplinkQueued(e.packet, e.retries));
        } else {
            self.clients[c].uplink_queue.push_front(e);
        }
    }

    /// Emits a rate-limited CSI report from `ap` about client `c`.
    pub(super) fn report_csi(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        ap: usize,
        c: usize,
        esnr_db: f64,
        now: SimTime,
    ) {
        if !self.ap_reachable(ap, now) {
            return;
        }
        let drop_p = self.faults.csi_drop_prob(now);
        if drop_p > 0.0 && self.fault_rng.chance(drop_p) {
            return;
        }
        let gi = self.cfg.gi;
        let st = self.aps[ap].client_mut(ClientId(c as u32), gi);
        let due = st
            .last_csi_report
            .map_or(true, |t| now.saturating_since(t) >= CSI_REPORT_INTERVAL);
        if !due {
            return;
        }
        st.last_csi_report = Some(now);
        self.backhaul_send(
            ctx,
            300,
            false,
            Ev::CsiAtController {
                ap,
                client: c,
                esnr_db,
            },
        );
    }
}

/// Multi-rate retry (ath9k-style): steps the rate down as a frame's retry
/// count climbs, so a stale Minstrel estimate cannot burn the whole retry
/// budget at an undeliverable rate.
fn retry_rate(mut mcs: Mcs, retries: u32) -> Mcs {
    for _ in 0..(retries / 2).min(4) {
        mcs = mcs.down().unwrap_or(mcs);
    }
    mcs
}

/// Whether `seq` is still outstanding (un-acked) in the scoreboard.
fn st_seq_outstanding(st: &crate::ap::ApClientState, seq: u16) -> bool {
    st.scoreboard.unacked().contains(&seq)
}

#[cfg(test)]
mod aggregation_tests {
    //! Aggregation limits of `start_ap_tx`, checked on the aggregate one
    //! contention round actually puts on the air.

    use super::*;
    use crate::ap::NicEntry;
    use wgtt_mac::BA_WINDOW;
    use wgtt_phy::Stationary;
    use wgtt_sim::Simulator;

    /// Longest aggregate `start_ap_tx` builds.
    const MAX_AIRTIME: SimDuration = SimDuration::from_millis(4);

    /// A one-client world whose AP 0 drains `queue` — packets of `len` bytes,
    /// more than one aggregate can carry — with `prefill` sequences already
    /// registered in the scoreboard.
    fn world(len: usize, queue: u16, prefill: u16) -> WgttWorld {
        let cfg = SystemConfig::default();
        let spot = cfg.deployment.build().aps[0].boresight_target;
        let mut w = WgttWorld::new(
            cfg,
            vec![Box::new(Stationary { position: spot })],
            7,
            SimTime::from_secs(1),
            false,
        );
        let gi = w.cfg.gi;
        let st = w.aps[0].client_mut(ClientId(0), gi);
        // Draining without the cyclic queue: the NIC queue is the only work.
        st.draining = true;
        for seq in 0..prefill {
            st.scoreboard.register(seq);
        }
        for seq in prefill..prefill + queue {
            let packet = w
                .factory
                .make(ClientId(0), FlowId(0), len, SimTime::ZERO, Payload::Raw);
            w.aps[0]
                .client_get_mut(ClientId(0))
                .unwrap()
                .nic_queue
                .push_back(NicEntry {
                    packet,
                    seq,
                    retries: 0,
                    registered: false,
                });
        }
        w
    }

    /// Runs one `Ev::ContentionRound` and returns the AP aggregate it
    /// launched, as `(mpdu lengths on the air, mcs)`.
    fn one_round(w: WgttWorld) -> Option<(Vec<usize>, Mcs)> {
        let mut sim = Simulator::new(w);
        sim.schedule_at(SimTime::ZERO, Ev::ContentionRound);
        assert!(sim.step());
        sim.world().in_flight.iter().find_map(|(_, tx)| match tx {
            AirTx::ApAggregate { mpdus, mcs, .. } => Some((
                mpdus
                    .iter()
                    .map(|(_, p, _)| p.len_bytes + overhead::DOT11)
                    .collect(),
                *mcs,
            )),
            AirTx::ClientBurst { .. } => None,
        })
    }

    fn assert_within_limits(lens: &[usize], mcs: Mcs, gi: wgtt_phy::GuardInterval) {
        assert!(!lens.is_empty());
        assert!(lens.len() <= BA_WINDOW as usize, "{} MPDUs", lens.len());
        if lens.len() > 1 {
            assert!(lens.iter().sum::<usize>() <= MAX_AMPDU_BYTES);
            let airtime = ampdu_airtime(lens, mcs, gi);
            assert!(airtime <= MAX_AIRTIME, "{airtime} at {mcs:?}");
        }
    }

    #[test]
    fn small_frames_fill_at_most_the_window() {
        let gi = SystemConfig::default().gi;
        let (lens, mcs) = one_round(world(100, 3 * BA_WINDOW, 0)).expect("an aggregate");
        assert_within_limits(&lens, mcs, gi);
        // Short frames stay far under the airtime cap: the window binds.
        assert_eq!(lens.len(), BA_WINDOW as usize);
    }

    #[test]
    fn full_size_frames_respect_bytes_and_airtime() {
        let gi = SystemConfig::default().gi;
        let (lens, mcs) = one_round(world(1500, 3 * BA_WINDOW, 0)).expect("an aggregate");
        assert_within_limits(&lens, mcs, gi);
        // The aggregate is as long as the airtime cap allows.
        let mut more = lens.clone();
        more.push(lens[0]);
        assert!(ampdu_airtime(&more, mcs, gi) > MAX_AIRTIME);
    }

    #[test]
    fn full_scoreboard_blocks_an_unregistered_head() {
        assert!(one_round(world(1500, 8, BA_WINDOW)).is_none());
    }
}
