//! Traffic sources: CBR UDP in both directions and the TCP sender's pump
//! and retransmission timer.

use super::*;

impl WgttWorld {
    pub(super) fn on_udp_down_tick(&mut self, ctx: &mut Ctx<'_, Ev>, fidx: usize) {
        let Some((due, next)) = self.cbr_due(ctx.now(), fidx) else {
            return;
        };
        for pkt in due {
            ctx.schedule_in(SERVER_LATENCY, Ev::PacketAtController(pkt));
        }
        if let Some(t) = next.filter(|&t| t < self.traffic_until) {
            ctx.schedule_at(t, Ev::UdpDownTick(fidx));
        }
    }

    pub(super) fn on_uplink_app_tick(&mut self, ctx: &mut Ctx<'_, Ev>, fidx: usize) {
        let Some((due, next)) = self.cbr_due(ctx.now(), fidx) else {
            return;
        };
        let c = self.flows[fidx].client;
        for pkt in due {
            self.clients[c].enqueue_uplink(pkt);
        }
        self.ensure_round(ctx);
        if let Some(t) = next.filter(|&t| t < self.traffic_until) {
            ctx.schedule_at(t, Ev::UplinkAppTick(fidx));
        }
    }

    /// The datagrams flow `fidx`'s CBR source owes at `now`, in sequence
    /// order, plus the source's next emission time. `None` once traffic
    /// has ended.
    fn cbr_due(&mut self, now: SimTime, fidx: usize) -> Option<(Vec<Packet>, Option<SimTime>)> {
        if now >= self.traffic_until {
            return None;
        }
        let flow = &mut self.flows[fidx];
        let src = match &mut flow.kind {
            FlowKind::DownUdp(src) | FlowKind::UpUdp(src) => src,
            FlowKind::DownTcp(_) => return None,
        };
        let client = ClientId(flow.client as u32);
        let len = src.payload_bytes + overhead::UDP + overhead::IPV4;
        let mut due = Vec::new();
        while let Some(seq) = src.emit(now) {
            let payload = Payload::Udp { seq };
            due.push(self.factory.make(client, flow.id, len, now, payload));
        }
        Some((due, src.next_emit_time()))
    }

    pub(super) fn pump_tcp(&mut self, ctx: &mut Ctx<'_, Ev>, fidx: usize) {
        let now = ctx.now();
        if now >= self.traffic_until {
            return;
        }
        // The transfer starts at its scheduled time, once the client is
        // reachable (mirrors starting the application after the Wi-Fi
        // connection is up).
        if now < self.flows[fidx].start {
            ctx.schedule_at(self.flows[fidx].start, Ev::TcpPump(fidx));
            return;
        }
        let client_idx = self.flows[fidx].client;
        if self.serving_of(client_idx).is_none() {
            ctx.schedule_in(SimDuration::from_millis(20), Ev::TcpPump(fidx));
            return;
        }
        let flow = &mut self.flows[fidx];
        let FlowKind::DownTcp(sender) = &mut flow.kind else {
            return;
        };
        let client = ClientId(flow.client as u32);
        let id = flow.id;
        let mut segs = Vec::new();
        while let Some(seg) = sender.next_segment(now) {
            segs.push(seg);
        }
        let deadline = sender.rto_deadline();
        for seg in segs {
            let pkt = self.factory.make(
                client,
                id,
                seg.len + overhead::TCP + overhead::IPV4,
                now,
                Payload::TcpData {
                    seq: seg.seq,
                    len: seg.len as u64,
                },
            );
            let latency = SERVER_LATENCY;
            ctx.schedule_in(latency, Ev::PacketAtController(pkt));
        }
        // Arm the RTO check if needed.
        if let Some(d) = deadline {
            let flow = &mut self.flows[fidx];
            let need = flow.rto_check_at.map_or(true, |at| at > d || at <= now);
            if need {
                flow.rto_check_at = Some(d);
                ctx.schedule_at(d.max(now), Ev::TcpRtoCheck(fidx));
            }
        }
    }

    pub(super) fn on_tcp_rto_check(&mut self, ctx: &mut Ctx<'_, Ev>, fidx: usize) {
        let now = ctx.now();
        {
            let flow = &mut self.flows[fidx];
            flow.rto_check_at = None;
            let FlowKind::DownTcp(sender) = &mut flow.kind else {
                return;
            };
            match sender.rto_deadline() {
                Some(d) if d <= now => {
                    sender.on_rto_check(now);
                }
                Some(d) => {
                    // Deadline moved later; re-arm.
                    flow.rto_check_at = Some(d);
                    ctx.schedule_at(d, Ev::TcpRtoCheck(fidx));
                    return;
                }
                None => return,
            }
        }
        self.pump_tcp(ctx, fidx);
    }
}
