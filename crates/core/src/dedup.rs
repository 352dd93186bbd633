//! Uplink packet de-duplication (paper §3.2.2–3.2.3).
//!
//! Every associated AP forwards every uplink packet it hears to the
//! controller — that redundancy is WGTT's uplink diversity. Before handing
//! packets to the Internet the controller must drop the duplicate copies,
//! or TCP endpoints would see duplicated segments/ACKs and trigger spurious
//! retransmissions.
//!
//! The paper composes a 48-bit key from the source IP address (32 bits) and
//! the IP identification field (16 bits) and checks a hashset. The ident
//! field wraps every 65,536 packets, so entries must age out; we keep a
//! bounded FIFO of recent keys, which matches the real implementation's
//! behaviour (a hashset that is periodically pruned).

use std::collections::{HashSet, VecDeque};
use wgtt_net::{ClientId, Packet};

/// The controller's uplink de-duplication filter.
#[derive(Debug)]
pub struct Deduplicator {
    seen: HashSet<u64>,
    order: VecDeque<u64>,
    capacity: usize,
    duplicates: u64,
    passed: u64,
}

impl Deduplicator {
    /// Creates a filter remembering the most recent `capacity` keys.
    /// 16,384 entries comfortably outlasts any realistic reordering window
    /// while staying well below the 65,536-packet ident wrap.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Deduplicator {
            seen: HashSet::with_capacity(capacity),
            order: VecDeque::with_capacity(capacity),
            capacity,
            duplicates: 0,
            passed: 0,
        }
    }

    /// The 48-bit key: source address (client id standing in for the
    /// 32-bit IP) in the high bits, IP ident in the low 16.
    pub fn key(client: ClientId, ip_ident: u16) -> u64 {
        ((client.0 as u64) << 16) | ip_ident as u64
    }

    /// Checks a packet: `true` ⇒ first copy (forward it), `false` ⇒
    /// duplicate (drop).
    pub fn check(&mut self, packet: &Packet) -> bool {
        self.check_key(Self::key(packet.client, packet.ip_ident))
    }

    /// Key-level check (used by tests and the ARP carve-out: packets
    /// without an IP header are never deduplicated per the paper's
    /// footnote 5 — callers simply skip the filter for those).
    pub fn check_key(&mut self, key: u64) -> bool {
        if self.seen.contains(&key) {
            self.duplicates += 1;
            return false;
        }
        if self.order.len() == self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        self.seen.insert(key);
        self.order.push_back(key);
        self.passed += 1;
        true
    }

    /// Marks `key` as already-seen *without* counting it as a passed
    /// packet — the post-crash resync re-prime. APs report the keys they
    /// recently forwarded; inserting them here makes the rebuilt filter at
    /// least as strict as the lost one, so a copy whose first delivery
    /// predates the crash still drops instead of reaching the Internet
    /// twice.
    pub fn prime_key(&mut self, key: u64) {
        if self.seen.contains(&key) {
            return;
        }
        if self.order.len() == self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        self.seen.insert(key);
        self.order.push_back(key);
    }

    /// The IP idents currently remembered for `client`, oldest first.
    ///
    /// This is the dedup half of a client's migration record: the source
    /// controller exports the idents it has recently seen so the
    /// destination can [`Self::prime_key`] them under the client's new
    /// address and drop cross-seam retransmits of already-delivered
    /// packets. Iterating `order` (insertion order) keeps the export
    /// deterministic regardless of hash-set layout.
    pub fn idents_for(&self, client: ClientId) -> Vec<u16> {
        let hi = (client.0 as u64) << 16;
        self.order
            .iter()
            .filter(|&&k| k & !0xFFFF == hi)
            .map(|&k| (k & 0xFFFF) as u16)
            .collect()
    }

    /// Packets passed through (first copies).
    pub fn passed(&self) -> u64 {
        self.passed
    }

    /// Duplicate copies suppressed.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Current number of remembered keys.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no keys are remembered.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

impl Default for Deduplicator {
    fn default() -> Self {
        Self::new(16_384)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_net::{FlowId, PacketFactory, Payload};
    use wgtt_sim::SimTime;

    fn uplink(f: &mut PacketFactory, client: u32) -> Packet {
        f.make(
            ClientId(client),
            FlowId(0),
            200,
            SimTime::ZERO,
            Payload::Udp { seq: 0 },
        )
    }

    #[test]
    fn first_copy_passes_rest_drop() {
        let mut d = Deduplicator::default();
        let mut f = PacketFactory::new();
        let p = uplink(&mut f, 1);
        assert!(d.check(&p));
        // The same packet heard by two more APs.
        assert!(!d.check(&p));
        assert!(!d.check(&p));
        assert_eq!(d.passed(), 1);
        assert_eq!(d.duplicates(), 2);
    }

    #[test]
    fn distinct_packets_pass() {
        let mut d = Deduplicator::default();
        let mut f = PacketFactory::new();
        let a = uplink(&mut f, 1);
        let b = uplink(&mut f, 1); // next ip_ident
        assert!(d.check(&a));
        assert!(d.check(&b));
        assert_eq!(d.passed(), 2);
    }

    #[test]
    fn same_ident_different_clients_pass() {
        let mut d = Deduplicator::default();
        let mut f1 = PacketFactory::new();
        let mut f2 = PacketFactory::new();
        let a = uplink(&mut f1, 1);
        let b = uplink(&mut f2, 2); // same ident 0, different client
        assert_eq!(a.ip_ident, b.ip_ident);
        assert!(d.check(&a));
        assert!(d.check(&b));
    }

    #[test]
    fn key_layout() {
        let k = Deduplicator::key(ClientId(0xABCD), 0x1234);
        assert_eq!(k, 0xABCD_1234);
        // 48-bit bound: client 32 bits + ident 16 bits.
        assert!(Deduplicator::key(ClientId(u32::MAX), u16::MAX) < (1u64 << 48));
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut d = Deduplicator::new(3);
        for k in 0..3u64 {
            assert!(d.check_key(k));
        }
        assert_eq!(d.len(), 3);
        // Inserting a fourth evicts key 0.
        assert!(d.check_key(3));
        assert_eq!(d.len(), 3);
        // Key 0 was forgotten → passes again (ident wrap behaviour).
        assert!(d.check_key(0));
        // Key 2 is still remembered.
        assert!(!d.check_key(2));
    }

    #[test]
    fn ident_wraparound_survives_full_cycle() {
        // One client sends a full trip around the 16-bit ident space. With
        // the default 16,384-entry capacity, every key from the previous
        // lap has aged out by the time its ident is reused — the wrapped
        // packet must pass, not be mistaken for a months-old duplicate.
        let mut d = Deduplicator::default();
        let c = ClientId(9);
        for ident in 0..=u16::MAX {
            assert!(d.check_key(Deduplicator::key(c, ident)));
        }
        // Ident 0 again (the wrap): first copy of a *new* packet.
        assert!(d.check_key(Deduplicator::key(c, 0)));
        // A duplicate inside the retention window still drops.
        assert!(!d.check_key(Deduplicator::key(c, 0)));
        // Retention is bounded by capacity regardless of stream length.
        assert_eq!(d.len(), 16_384);
    }

    #[test]
    fn key_non_collision_for_wide_client_ids() {
        // Client ids wider than 16 bits must not alias a (client, ident)
        // pair whose ident happens to carry the overflowing bits: the key
        // shifts the full 32-bit client id clear of the 16-bit ident.
        let a = Deduplicator::key(ClientId(0x0001_0000), 0x0000);
        let b = Deduplicator::key(ClientId(0x0000_0001), 0x0000);
        assert_ne!(a, b);
        // The classic concatenation trap: 0xABCD|1234 vs 0xAB|CD12 would
        // collide under a variable-width pack; the fixed 16-bit shift keeps
        // them apart.
        assert_ne!(
            Deduplicator::key(ClientId(0xABCD), 0x1234),
            Deduplicator::key(ClientId(0xAB), 0xCD12)
        );
        // Spot-exhaustive: distinct (client, ident) pairs spanning the
        // 16-bit client boundary all produce distinct keys.
        let clients = [0u32, 1, 0xFFFF, 0x1_0000, 0x1_0001, 0xDEAD_BEEF, u32::MAX];
        let idents = [0u16, 1, 0x00FF, 0xFF00, u16::MAX];
        let mut keys = std::collections::HashSet::new();
        for &c in &clients {
            for &i in &idents {
                assert!(
                    keys.insert(Deduplicator::key(ClientId(c), i)),
                    "key collision for client {c:#x}, ident {i:#x}"
                );
            }
        }
    }

    #[test]
    fn primed_keys_drop_as_duplicates_without_counting_as_passed() {
        let mut d = Deduplicator::new(3);
        d.prime_key(7);
        d.prime_key(7); // idempotent
        assert_eq!(d.len(), 1);
        assert_eq!(d.passed(), 0);
        // The first post-restart copy of a pre-crash packet is a duplicate.
        assert!(!d.check_key(7));
        assert_eq!(d.duplicates(), 1);
        // Priming respects capacity like any insert.
        for k in [8, 9, 10] {
            d.prime_key(k);
        }
        assert_eq!(d.len(), 3);
        assert!(d.check_key(7), "evicted primed key passes again");
    }

    #[test]
    fn idents_for_exports_in_insertion_order() {
        let mut d = Deduplicator::default();
        let a = ClientId(3);
        let b = ClientId(4);
        for ident in [5u16, 2, 9] {
            assert!(d.check_key(Deduplicator::key(a, ident)));
        }
        d.prime_key(Deduplicator::key(b, 5)); // other client, same ident
        assert_eq!(d.idents_for(a), vec![5, 2, 9]);
        assert_eq!(d.idents_for(b), vec![5]);
        assert_eq!(d.idents_for(ClientId(99)), Vec::<u16>::new());
        // Eviction removes exported idents like any other key.
        let mut small = Deduplicator::new(2);
        for ident in [1u16, 2, 3] {
            assert!(small.check_key(Deduplicator::key(a, ident)));
        }
        assert_eq!(small.idents_for(a), vec![2, 3]);
    }

    #[test]
    fn empty_state() {
        let d = Deduplicator::default();
        assert!(d.is_empty());
        assert_eq!(d.passed(), 0);
        assert_eq!(d.duplicates(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = Deduplicator::new(0);
    }
}
