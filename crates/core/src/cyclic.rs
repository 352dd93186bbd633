//! The WGTT cyclic queue (paper §3.1.2, Fig 7).
//!
//! The controller assigns every downlink data packet an *m-bit index
//! number* that increments per client (`m = 12`, so indices live in
//! `0..4096` and uniqueness holds within one buffer horizon). Every AP in
//! range buffers the packet in a per-client cyclic queue slotted by index.
//! Because all candidate APs hold the same packets at the same indices, a
//! switch is just "start transmitting from index k" — no packet transfer is
//! needed at switch time.

use wgtt_net::Packet;

/// Number of index bits (`m = 12` in the paper).
pub const INDEX_BITS: u32 = 12;
/// Size of the index space and the cyclic buffer.
pub const INDEX_SPACE: u16 = 1 << INDEX_BITS;

/// Advances an index by `n`, wrapping in the 12-bit space.
#[inline]
pub fn index_add(index: u16, n: u16) -> u16 {
    (index.wrapping_add(n)) & (INDEX_SPACE - 1)
}

/// Forward distance from `from` to `to` in index space.
#[inline]
pub fn index_fwd_dist(from: u16, to: u16) -> u16 {
    (to.wrapping_sub(from)) & (INDEX_SPACE - 1)
}

/// Allocates consecutive index numbers for one client's downlink stream
/// (controller side).
#[derive(Debug, Clone, Default)]
pub struct IndexAllocator {
    next: u16,
}

impl IndexAllocator {
    /// Creates an allocator starting at index 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the next index and advances.
    pub fn allocate(&mut self) -> u16 {
        let idx = self.next;
        self.next = index_add(self.next, 1);
        idx
    }

    /// The index the next call will return.
    pub fn peek(&self) -> u16 {
        self.next
    }

    /// Repositions the allocator so the next index handed out is `next` —
    /// the post-crash resync resumes the downlink stream at the serving
    /// AP's reported queue tail instead of restarting at 0 (which would
    /// insert new packets *behind* every AP's buffered window).
    pub fn resume_at(&mut self, next: u16) {
        self.next = next & (INDEX_SPACE - 1);
    }
}

/// One client's cyclic packet buffer at one AP.
///
/// Slots are addressed by index number modulo the buffer size. The queue
/// tracks a *head* — the next index to transmit — which a switch protocol
/// `start(c, k)` message repositions.
#[derive(Debug, Clone)]
pub struct CyclicQueue {
    slots: Vec<Option<Packet>>,
    /// Next index to hand to the transmit path.
    head: u16,
    /// Highest (most recently inserted) index + 1, i.e. where the
    /// controller's stream has reached. Equal to `head` when empty.
    tail: u16,
    /// Whether any packet has been inserted yet (disambiguates the
    /// head == tail case).
    any: bool,
    /// Occupied slots within `[head, tail)` — kept incrementally so the
    /// per-contention-round backlog query is O(1).
    occupied: usize,
    /// Packets dropped by overwrite (buffer wrapped before transmission).
    overwrites: u64,
}

impl Default for CyclicQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CyclicQueue {
    /// Creates an empty queue of the full 4096-slot index space.
    pub fn new() -> Self {
        CyclicQueue {
            slots: vec![None; INDEX_SPACE as usize],
            head: 0,
            tail: 0,
            any: false,
            occupied: 0,
            overwrites: 0,
        }
    }

    /// Next index the transmit path will take.
    pub fn head(&self) -> u16 {
        self.head
    }

    /// One past the newest inserted index.
    pub fn tail(&self) -> u16 {
        self.tail
    }

    /// Number of packets between head and tail (the transmit backlog).
    pub fn backlog(&self) -> usize {
        self.occupied
    }

    /// Slow reference count of occupied slots inside `[head, tail)` —
    /// test-only invariant check for the incremental counter.
    #[doc(hidden)]
    pub fn backlog_walk(&self) -> usize {
        if !self.any {
            return 0;
        }
        let mut n = 0;
        let mut i = self.head;
        while i != self.tail {
            if self.slots[i as usize].is_some() {
                n += 1;
            }
            i = index_add(i, 1);
        }
        n
    }

    /// Count of packets lost to slot overwrites.
    pub fn overwrites(&self) -> u64 {
        self.overwrites
    }

    /// Inserts a packet at its controller-assigned index.
    ///
    /// Panics if the packet has no index (the controller must assign one
    /// before fan-out).
    pub fn insert(&mut self, packet: Packet) {
        let index = packet
            .index
            .expect("downlink packet reached AP without a WGTT index");
        debug_assert!(index < INDEX_SPACE);
        let slot = &mut self.slots[index as usize];
        if slot.is_some() {
            self.overwrites += 1;
        } else {
            self.occupied += 1;
        }
        *slot = Some(packet);
        if !self.any {
            self.any = true;
            self.head = index;
            self.tail = index_add(index, 1);
            return;
        }
        let new_tail = index_add(index, 1);
        // Cases, checked in order:
        if index_fwd_dist(self.head, index) < index_fwd_dist(self.head, self.tail) {
            // Inside the current [head, tail) window (the head may have
            // been rewound by an earlier late arrival): an in-window
            // (re)delivery, already stored in its slot.
            return;
        }
        if (1..INDEX_SPACE / 2).contains(&index_fwd_dist(self.tail, new_tail)) {
            // At or ahead of the tail: normal forward extension of the
            // stream (gaps are fine — other copies were routed elsewhere).
            self.tail = new_tail;
            // Every modular comparison in this structure is only sound
            // while the window spans less than half the index space; cap
            // it by expiring the oldest slots (they are beyond any
            // realistic transmit horizon anyway).
            if index_fwd_dist(self.head, self.tail) >= INDEX_SPACE / 2 {
                let new_head = index_add(self.tail, INDEX_SPACE / 2 + 1);
                let mut i = self.head;
                while i != new_head {
                    if self.slots[i as usize].take().is_some() {
                        self.occupied -= 1;
                        self.overwrites += 1;
                    }
                    i = index_add(i, 1);
                }
                self.head = new_head;
            }
            return;
        }
        // The index is behind the window. Disambiguate via the physical
        // invariant that the controller's stream only moves forward
        // (backhaul reordering spans microseconds — a handful of indices
        // at most):
        let behind_head = index_fwd_dist(index, self.head);
        if (1..=64).contains(&behind_head) {
            // Backhaul reordering delivered an index the head has already
            // walked past; step back a bounded distance so the late packet
            // is still transmitted (the client's reorder window absorbs
            // the resulting over-the-air reordering).
            self.head = index;
        } else {
            // The buffered window is from a previous trip around the
            // 12-bit index space — this AP sat out an epoch (out of range
            // or never serving) while the controller's allocator wrapped.
            // Everything buffered is ancient; restart cleanly at the new
            // stream position (the packet we just wrote survives).
            let keep = self.slots[index as usize].take();
            for s in &mut self.slots {
                *s = None;
            }
            self.occupied = usize::from(keep.is_some());
            self.slots[index as usize] = keep;
            self.head = index;
            self.tail = new_tail;
        }
    }

    /// Pops the packet at the head, advancing past empty slots up to the
    /// tail. Returns `None` when no backlog remains.
    pub fn pop_head(&mut self) -> Option<Packet> {
        while self.any && self.head != self.tail {
            let idx = self.head;
            self.head = index_add(self.head, 1);
            if let Some(p) = self.slots[idx as usize].take() {
                self.occupied -= 1;
                return Some(p);
            }
        }
        None
    }

    /// Peeks at the packet that [`CyclicQueue::pop_head`] would return,
    /// without consuming it.
    pub fn peek_head(&self) -> Option<&Packet> {
        if !self.any {
            return None;
        }
        let mut i = self.head;
        while i != self.tail {
            if let Some(p) = &self.slots[i as usize] {
                return Some(p);
            }
            i = index_add(i, 1);
        }
        None
    }

    /// Repositions the head to index `k` — the `start(c, k)` operation.
    /// Slots before `k` are discarded (they were already delivered or are
    /// the old AP's responsibility).
    pub fn start_from(&mut self, k: u16) {
        if !self.any {
            self.head = k;
            self.tail = k;
            return;
        }
        // If k is outside (or wraps past) the buffered window, the window
        // contents belong to another epoch of the index space: clear
        // everything.
        let in_window = index_fwd_dist(self.head, k) <= index_fwd_dist(self.head, self.tail);
        if !in_window {
            for s in &mut self.slots {
                *s = None;
            }
            self.occupied = 0;
            self.head = k;
            self.tail = k;
            return;
        }
        // Clear the delivered/abandoned prefix up to k.
        let mut i = self.head;
        while i != k {
            if self.slots[i as usize].take().is_some() {
                self.occupied -= 1;
            }
            i = index_add(i, 1);
        }
        self.head = k;
    }

    /// Discards every buffered packet for this client (e.g. on
    /// disassociation).
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.head = 0;
        self.tail = 0;
        self.any = false;
        self.occupied = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_net::{ClientId, FlowId, PacketFactory, Payload};
    use wgtt_sim::SimTime;

    fn pkt(factory: &mut PacketFactory, index: u16) -> Packet {
        let mut p = factory.make(
            ClientId(0),
            FlowId(0),
            1500,
            SimTime::ZERO,
            Payload::Udp { seq: index as u64 },
        );
        p.index = Some(index);
        p
    }

    #[test]
    fn index_arithmetic() {
        assert_eq!(index_add(4095, 1), 0);
        assert_eq!(index_add(4090, 10), 4);
        assert_eq!(index_fwd_dist(4090, 4), 10);
        assert_eq!(index_fwd_dist(0, 0), 0);
    }

    #[test]
    fn allocator_wraps() {
        let mut a = IndexAllocator::new();
        for expected in 0..INDEX_SPACE {
            assert_eq!(a.allocate(), expected);
        }
        assert_eq!(a.allocate(), 0);
        assert_eq!(a.peek(), 1);
    }

    #[test]
    fn insert_pop_in_order() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        for i in 0..5 {
            q.insert(pkt(&mut f, i));
        }
        assert_eq!(q.backlog(), 5);
        for i in 0..5 {
            let p = q.pop_head().unwrap();
            assert_eq!(p.index, Some(i));
        }
        assert!(q.pop_head().is_none());
        assert_eq!(q.backlog(), 0);
    }

    #[test]
    fn start_from_skips_delivered_prefix() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        for i in 0..10 {
            q.insert(pkt(&mut f, i));
        }
        // The switch says: AP1 already handled up to 6.
        q.start_from(7);
        assert_eq!(q.head(), 7);
        assert_eq!(q.backlog(), 3);
        assert_eq!(q.pop_head().unwrap().index, Some(7));
    }

    #[test]
    fn start_from_beyond_tail_empties() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        for i in 0..3 {
            q.insert(pkt(&mut f, i));
        }
        q.start_from(100);
        assert_eq!(q.backlog(), 0);
        assert!(q.pop_head().is_none());
        // New packets at 100+ flow normally.
        q.insert(pkt(&mut f, 100));
        assert_eq!(q.pop_head().unwrap().index, Some(100));
    }

    #[test]
    fn wraparound_delivery() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        q.start_from(4094);
        for i in [4094u16, 4095, 0, 1] {
            q.insert(pkt(&mut f, i));
        }
        assert_eq!(q.backlog(), 4);
        let got: Vec<u16> = std::iter::from_fn(|| q.pop_head().map(|p| p.index.unwrap())).collect();
        assert_eq!(got, vec![4094, 4095, 0, 1]);
    }

    #[test]
    fn late_arrival_steps_head_back() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        // Packets 0 and 2 arrive; 1 is delayed on the backhaul.
        q.insert(pkt(&mut f, 0));
        q.insert(pkt(&mut f, 2));
        assert_eq!(q.pop_head().unwrap().index, Some(0));
        assert_eq!(q.pop_head().unwrap().index, Some(2));
        // Late packet 1 arrives after the head passed it.
        q.insert(pkt(&mut f, 1));
        assert_eq!(q.pop_head().unwrap().index, Some(1));
        assert!(q.pop_head().is_none());
    }

    #[test]
    fn reordered_burst_after_rewind_stays_in_window() {
        // Regression test: 12 arrives first and is transmitted; then the
        // delayed 10 rewinds the head; then 11 lands *inside* the rewound
        // window and must not be mistaken for a new epoch.
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        q.start_from(10);
        q.insert(pkt(&mut f, 12));
        assert_eq!(q.pop_head().unwrap().index, Some(12));
        q.insert(pkt(&mut f, 10));
        q.insert(pkt(&mut f, 11));
        assert_eq!(q.pop_head().unwrap().index, Some(10));
        assert_eq!(q.pop_head().unwrap().index, Some(11));
        assert!(q.pop_head().is_none());
    }

    #[test]
    fn window_never_spans_half_the_index_space() {
        // A stream that jumps far ahead (epoch churn) must not leave a
        // window ≥ 2048 wide — modular comparisons would turn ambiguous
        // and strand packets (this exact corruption once livelocked the
        // simulator).
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        q.insert(pkt(&mut f, 0));
        q.insert(pkt(&mut f, 1900));
        q.insert(pkt(&mut f, 3900)); // would make the window 3901 wide
        assert!(index_fwd_dist(q.head(), q.tail()) < INDEX_SPACE / 2);
        // The newest content survives; the expired prefix is gone.
        let got: Vec<u16> = std::iter::from_fn(|| q.pop_head().map(|p| p.index.unwrap())).collect();
        assert!(got.contains(&3900));
        assert!(!got.contains(&0));
        assert_eq!(q.backlog(), 0);
    }

    #[test]
    fn insert_just_behind_empty_window_rewinds() {
        // Regression test for a livelock: after start_from empties the
        // window, a late copy of index k−1 must rewind the head (not be
        // stranded outside [head, tail) while inflating the backlog).
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        for i in 0..48 {
            q.insert(pkt(&mut f, i));
        }
        q.start_from(48); // empty window at 48
        q.insert(pkt(&mut f, 47));
        assert_eq!(q.backlog(), 1);
        assert_eq!(q.pop_head().unwrap().index, Some(47));
        assert_eq!(q.backlog(), 0);
    }

    #[test]
    fn far_out_of_window_index_starts_new_epoch() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        q.start_from(1000);
        q.insert(pkt(&mut f, 1000));
        assert_eq!(q.pop_head().unwrap().index, Some(1000));
        // Anything outside the window and beyond the 64-slot reorder
        // allowance can only be a later trip around the index space
        // (streams never move backwards): the queue restarts there.
        q.insert(pkt(&mut f, 901));
        assert_eq!(q.head(), 901);
        assert_eq!(q.pop_head().unwrap().index, Some(901));
    }

    #[test]
    fn epoch_wrap_resets_stale_buffer() {
        // An AP that sat out while the controller's index allocator
        // wrapped must not strand fresh packets behind a stale tail.
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        for i in 0..10 {
            q.insert(pkt(&mut f, i));
        }
        while q.pop_head().is_some() {}
        // The stream is now ~3000 indices further (appears "behind" the
        // old tail in modulo space).
        q.insert(pkt(&mut f, 3000));
        q.insert(pkt(&mut f, 3001));
        assert_eq!(q.backlog(), 2);
        assert_eq!(q.pop_head().unwrap().index, Some(3000));
        assert_eq!(q.pop_head().unwrap().index, Some(3001));
    }

    #[test]
    fn start_from_outside_window_clears_everything() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        for i in 0..10 {
            q.insert(pkt(&mut f, i));
        }
        // k far beyond the buffered window: ancient content must vanish.
        q.start_from(2500);
        assert_eq!(q.backlog(), 0);
        assert!(q.pop_head().is_none());
        q.insert(pkt(&mut f, 2500));
        assert_eq!(q.pop_head().unwrap().index, Some(2500));
    }

    #[test]
    fn overwrite_counted() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        q.insert(pkt(&mut f, 5));
        q.insert(pkt(&mut f, 5));
        assert_eq!(q.overwrites(), 1);
    }

    #[test]
    fn gaps_are_skipped() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        q.insert(pkt(&mut f, 0));
        q.insert(pkt(&mut f, 2)); // index 1 never arrives
        assert_eq!(q.pop_head().unwrap().index, Some(0));
        assert_eq!(q.pop_head().unwrap().index, Some(2));
        assert!(q.pop_head().is_none());
    }

    #[test]
    fn clear_resets() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        for i in 0..4 {
            q.insert(pkt(&mut f, i));
        }
        q.clear();
        assert_eq!(q.backlog(), 0);
        assert!(q.peek_head().is_none());
        q.insert(pkt(&mut f, 9));
        assert_eq!(q.peek_head().unwrap().index, Some(9));
    }

    #[test]
    #[should_panic]
    fn insert_without_index_panics() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        let p = f.make(ClientId(0), FlowId(0), 100, SimTime::ZERO, Payload::Raw);
        q.insert(p);
    }
}
