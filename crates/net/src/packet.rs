//! Packet representation.
//!
//! The simulation tracks packets at datagram granularity: lengths, flow
//! identity, transport payload (UDP sequence or TCP segment/ack), and the
//! identifiers WGTT's mechanisms key on — the client address, the IP
//! identification field used by uplink de-duplication, and the 12-bit WGTT
//! index number assigned by the controller for cyclic-queue addressing.

use wgtt_sim::SimTime;

/// A client (station) identifier — stands in for the client's MAC/IP
/// address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

/// An AP identifier — index into the deployment's AP array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ApId(pub u32);

/// A transport flow identifier (one per application flow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}
impl std::fmt::Display for ApId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ap{}", self.0)
    }
}
impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Transport-layer payload carried by a packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Payload {
    /// A UDP datagram with a flow-level sequence number.
    Udp {
        /// Monotone per-flow sequence number.
        seq: u64,
    },
    /// A TCP data segment covering bytes `[seq, seq+len)`.
    TcpData {
        /// First byte sequence number.
        seq: u64,
        /// Segment length in bytes.
        len: u64,
    },
    /// A TCP acknowledgement: cumulative ack plus up to three SACK blocks
    /// (selective acknowledgement of out-of-order ranges, RFC 2018).
    TcpAck {
        /// Next expected byte.
        ack: u64,
        /// SACK blocks `[start, end)`, unused slots `None`.
        sack: [Option<(u64, u64)>; 3],
    },
    /// Anything else (management, probes).
    Raw,
}

/// One simulated packet.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// The client this packet is to (downlink) or from (uplink).
    pub client: ClientId,
    /// Application flow.
    pub flow: FlowId,
    /// On-the-wire length in bytes (transport payload + TCP/UDP/IP
    /// headers; link-layer overhead is added by the MAC model).
    pub len_bytes: usize,
    /// Creation timestamp (for latency accounting).
    pub created: SimTime,
    /// Transport payload.
    pub payload: Payload,
    /// IP identification field — with the source address, the uplink
    /// de-duplication key (§3.2.2 of the paper). Wraps at 2¹⁶ like the
    /// real field.
    pub ip_ident: u16,
    /// WGTT 12-bit per-client index number, assigned by the controller to
    /// downlink data packets (`None` before assignment / for uplink).
    pub index: Option<u16>,
}

/// Allocates per-client IP idents.
#[derive(Debug, Default)]
pub struct PacketFactory {
    next_ident: std::collections::HashMap<ClientId, u16>,
}

impl PacketFactory {
    /// Creates a factory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a packet carrying the next IP ident for the packet's source
    /// (client for uplink, server for downlink — we track per client either
    /// way, which is what the dedup key needs).
    pub fn make(
        &mut self,
        client: ClientId,
        flow: FlowId,
        len_bytes: usize,
        created: SimTime,
        payload: Payload,
    ) -> Packet {
        let ident = self.next_ident.entry(client).or_insert(0);
        let ip_ident = *ident;
        *ident = ident.wrapping_add(1);
        Packet {
            client,
            flow,
            len_bytes,
            created,
            payload,
            ip_ident,
            index: None,
        }
    }

    /// The IP ident the next packet sourced by `client` will carry.
    pub fn peek_ident(&self, client: ClientId) -> u16 {
        self.next_ident.get(&client).copied().unwrap_or(0)
    }

    /// Continues `client`'s IP-ident stream at `ident` — used when a
    /// client's identity migrates between worlds so its dedup-key stream
    /// stays monotone instead of restarting at 0.
    pub fn resume_ident(&mut self, client: ClientId, ident: u16) {
        self.next_ident.insert(client, ident);
    }
}

/// Typical header sizes, bytes.
pub mod overhead {
    /// IPv4 header without options.
    pub const IPV4: usize = 20;
    /// UDP header.
    pub const UDP: usize = 8;
    /// TCP header without options.
    pub const TCP: usize = 20;
    /// Ethernet II header + FCS.
    pub const ETHERNET: usize = 18;
    /// 802.11 data frame MAC header + FCS (QoS data).
    pub const DOT11: usize = 34;
    /// Controller⇄AP tunnel: the outer header that carries a packet to or
    /// from its AP over the backhaul (paper §3.1.3).
    pub const TUNNEL: usize = ETHERNET + IPV4 + UDP;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_assigns_unique_ids() {
        let mut f = PacketFactory::new();
        let a = f.make(
            ClientId(1),
            FlowId(0),
            1500,
            SimTime::ZERO,
            Payload::Udp { seq: 0 },
        );
        let b = f.make(
            ClientId(1),
            FlowId(0),
            1500,
            SimTime::ZERO,
            Payload::Udp { seq: 1 },
        );
        assert_ne!(a.ip_ident, b.ip_ident);
    }

    #[test]
    fn ip_ident_increments_per_client() {
        let mut f = PacketFactory::new();
        let mk = |f: &mut PacketFactory, c: u32| {
            f.make(ClientId(c), FlowId(0), 100, SimTime::ZERO, Payload::Raw)
                .ip_ident
        };
        assert_eq!(mk(&mut f, 1), 0);
        assert_eq!(mk(&mut f, 1), 1);
        assert_eq!(mk(&mut f, 2), 0); // separate counter per client
        assert_eq!(mk(&mut f, 1), 2);
    }

    #[test]
    fn ip_ident_wraps() {
        let mut f = PacketFactory::new();
        f.next_ident.insert(ClientId(9), u16::MAX);
        let a = f.make(ClientId(9), FlowId(0), 64, SimTime::ZERO, Payload::Raw);
        let b = f.make(ClientId(9), FlowId(0), 64, SimTime::ZERO, Payload::Raw);
        assert_eq!(a.ip_ident, u16::MAX);
        assert_eq!(b.ip_ident, 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", ClientId(3)), "c3");
        assert_eq!(format!("{}", ApId(5)), "ap5");
        assert_eq!(format!("{}", FlowId(1)), "f1");
    }

    #[test]
    fn index_starts_unset() {
        let mut f = PacketFactory::new();
        let p = f.make(
            ClientId(0),
            FlowId(0),
            1500,
            SimTime::from_millis(5),
            Payload::TcpData { seq: 0, len: 1448 },
        );
        assert_eq!(p.index, None);
        assert_eq!(p.created, SimTime::from_millis(5));
    }
}
