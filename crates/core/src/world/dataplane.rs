//! Data plane: downlink fan-out from the controller to the APs' cyclic
//! queues, uplink de-duplication at the controller, the server, and
//! delivery into the client's transport endpoints.

use super::*;

impl WgttWorld {
    pub(super) fn on_packet_at_controller(&mut self, ctx: &mut Ctx<'_, Ev>, mut packet: Packet) {
        if self.controller_down {
            self.sys.controller_rx_dropped += 1;
            return;
        }
        let c = packet.client.0 as usize;
        let now = ctx.now();
        let targets: Vec<usize> = match self.cfg.mode {
            Mode::Wgtt => self
                .ctrl
                .fanout(now, packet.client)
                .into_iter()
                .map(|a| a.0 as usize)
                .collect(),
            Mode::Enhanced80211r => self.serving_of(c).into_iter().collect(),
        };
        if targets.is_empty() {
            // Client unreachable (pre-association or out of coverage):
            // dropped before an index is consumed, like a bridge with no
            // forwarding entry.
            return;
        }
        let idx = self.ctrl.assign_index(packet.client);
        packet.index = Some(idx);
        self.sys.downlink_copies += targets.len() as u64;
        let wire = packet.len_bytes + overhead::TUNNEL;
        for ap in targets {
            let p = packet.clone();
            self.backhaul_send(ctx, wire, false, Ev::PacketAtAp { ap, packet: p });
        }
    }

    pub(super) fn on_packet_at_ap(&mut self, ctx: &mut Ctx<'_, Ev>, ap: usize, packet: Packet) {
        if !self.ap_reachable(ap, ctx.now()) {
            return;
        }
        let client = packet.client;
        let gi = self.cfg.gi;
        let st = self.aps[ap].client_mut(client, gi);
        st.cyclic.insert(packet);
        self.ensure_round(ctx);
    }

    pub(super) fn on_uplink_copy(&mut self, ctx: &mut Ctx<'_, Ev>, from_ap: usize, packet: Packet) {
        if self.controller_down {
            self.sys.controller_rx_dropped += 1;
            return;
        }
        if let Some(session) = &mut self.resync {
            // Park until the dedup table is re-primed from the replies;
            // checking now could deliver a cross-restart duplicate. The
            // hold is bounded by the same cap as an AP's degraded-mode
            // buffer: heavy uplink during a long resync round must not
            // grow it without limit, so the oldest parked copy is dropped
            // to admit the newest (uplink diversity and client retries
            // make an individual dropped copy recoverable).
            let cap = self.cfg.degraded_uplink_cap;
            if cap == 0 {
                self.sys.resync_held_overflow += 1;
                return;
            }
            if session.held_uplink.len() >= cap {
                session.held_uplink.remove(0);
                self.sys.resync_held_overflow += 1;
            }
            session.held_uplink.push((from_ap, packet));
            return;
        }
        self.sys.uplink_copies += 1;
        let pass = if self.cfg.uplink_dedup {
            self.ctrl.dedup.check(&packet)
        } else {
            true
        };
        if !pass {
            self.sys.uplink_duplicates += 1;
            return;
        }
        if self.faults.standby_armed() {
            // Journal the forwarded key so the standby's restored dedup
            // table suppresses cross-takeover duplicates of this packet.
            self.journal_pending_keys
                .push(Deduplicator::key(packet.client, packet.ip_ident));
        }
        let latency = SERVER_LATENCY;
        ctx.schedule_in(latency, Ev::PacketAtServer(packet));
    }

    pub(super) fn on_packet_at_server(&mut self, ctx: &mut Ctx<'_, Ev>, packet: Packet) {
        let now = ctx.now();
        let fidx = packet.flow.0 as usize;
        if fidx >= self.flows.len() {
            return;
        }
        match (&mut self.flows[fidx].kind, packet.payload) {
            (FlowKind::DownTcp(sender), Payload::TcpAck { ack, sack }) => {
                let blocks: Vec<(u64, u64)> = sack.iter().flatten().copied().collect();
                sender.on_ack_sack(now, ack, &blocks);
                if sender.is_complete() && self.flows[fidx].completed_at.is_none() {
                    self.flows[fidx].completed_at = Some(now);
                }
                self.pump_tcp(ctx, fidx);
            }
            (FlowKind::UpUdp(_), Payload::Udp { seq }) => {
                if let Some(sink) = &mut self.flows[fidx].up_sink {
                    if sink.on_receive(now, seq, packet.len_bytes) {
                        let c = self.flows[fidx].client;
                        self.clients[c]
                            .metrics
                            .uplink
                            .add(now, (packet.len_bytes * 8) as f64);
                    }
                }
            }
            _ => {}
        }
    }

    pub(super) fn deliver_to_client_app(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        c: usize,
        packet: Packet,
    ) {
        let now = ctx.now();
        match packet.payload {
            Payload::Udp { seq } => {
                let payload = packet
                    .len_bytes
                    .saturating_sub(overhead::UDP + overhead::IPV4);
                let cl = &mut self.clients[c];
                if let Some(sink) = cl.udp_sink.get_mut(&packet.flow) {
                    if sink.on_receive(now, seq, payload) {
                        cl.metrics.downlink.add(now, (payload * 8) as f64);
                        cl.log_delivery(DeliveryRecord {
                            at: now,
                            flow: packet.flow,
                            seq,
                            bytes: payload,
                        });
                    }
                }
            }
            Payload::TcpData { seq, len } => {
                let cl = &mut self.clients[c];
                let Some(rx) = cl.tcp_rx.get_mut(&packet.flow) else {
                    return;
                };
                let before = rx.rcv_nxt();
                let ack = rx.on_data(seq, len as usize);
                let delivered = ack.saturating_sub(before);
                if delivered > 0 {
                    cl.metrics.downlink.add(now, (delivered * 8) as f64);
                    cl.log_delivery(DeliveryRecord {
                        at: now,
                        flow: packet.flow,
                        seq: ack,
                        bytes: delivered as usize,
                    });
                }
                // Enqueue the cumulative ACK with SACK blocks describing
                // whatever is buffered out of order.
                let blocks = cl
                    .tcp_rx
                    .get(&packet.flow)
                    .map(|r| r.sack_blocks(3))
                    .unwrap_or_default();
                let mut sack = [None; 3];
                for (i, b) in blocks.into_iter().enumerate() {
                    sack[i] = Some(b);
                }
                let ack_pkt = self.factory.make(
                    ClientId(c as u32),
                    packet.flow,
                    overhead::TCP + overhead::IPV4 + 12,
                    now,
                    Payload::TcpAck { ack, sack },
                );
                self.clients[c].enqueue_uplink(ack_pkt);
                self.ensure_round(ctx);
            }
            _ => {}
        }
    }
}
