//! The future event list.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, E)` pairs ordered by
//! time, with a monotonically increasing sequence number breaking ties so
//! that events scheduled for the same instant pop in FIFO (insertion) order.
//! Deterministic tie-breaking is essential: the WGTT controller and APs
//! frequently schedule several actions for the same nanosecond (e.g. a
//! control packet arrival and a queue service completion), and run-to-run
//! reproducibility of every experiment depends on a stable order.
//!
//! It is a calendar/bucket queue: events live in an index-addressed slab
//! (free-list reuse, no steady state allocation), and 16-byte references to
//! them hash into a ring of time buckets (64 µs wide, ~67 ms horizon) with
//! a spill heap for far-future timers. Cancellation is O(1) — the slab slot
//! is freed and its generation bumped immediately, so a cancelled 30 ms
//! `stop` retransmission timer releases its event right away instead of
//! lingering until it would have fired.
//!
//! The unit tests keep the original `BinaryHeap` + tombstone queue as a
//! reference and demand the exact same `(time, seq)` pop order from both
//! (`reference_and_calendar_agree_under_churn`); whole runs are pinned by
//! the golden fingerprints in `wgtt-core`.

use crate::time::SimTime;
use std::collections::BinaryHeap;

/// Identifies a scheduled event so it can later be cancelled. Opaque: only
/// meaningful to the queue that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey(u64);

/// log2 of the bucket width in nanoseconds: 2^16 ns = 65.536 µs, a few
/// 802.11 slot times — fine enough that a bucket rarely holds more than a
/// handful of events, coarse enough that the ring spans the protocol's
/// 30 ms timers.
const BUCKET_BITS: u32 = 16;
/// Ring size (power of two): 1024 buckets × 65.536 µs ≈ 67 ms horizon.
/// Events beyond the horizon wait in the spill heap.
const NUM_BUCKETS: u64 = 1024;

/// A slab slot. `gen` increments every time the slot is freed, so stale
/// references (from cancelled or superseded entries still sitting in a
/// bucket) can be recognized and skipped.
struct Slot<E> {
    gen: u32,
    time: SimTime,
    seq: u64,
    event: Option<E>,
}

/// Sort key embedding `(time, seq)` — totally ordered, unique per entry.
#[inline]
fn sort_key(time: SimTime, seq: u64) -> u128 {
    ((time.as_nanos() as u128) << 64) | seq as u128
}

#[inline]
fn key_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

/// Packed slab reference: slot index in the high half, generation in the
/// low half.
#[inline]
fn pack_ref(slot: u32, gen: u32) -> u64 {
    ((slot as u64) << 32) | gen as u64
}

/// A `(sort key, slab reference)` pair as stored in buckets, the drain list
/// and the spill heap. Ordering is by key alone (keys are unique).
type Ref = (u128, u64);

/// Time-ordered future event list with stable FIFO tie-breaking and O(1)
/// cancellation: a calendar/bucket queue — see the module docs.
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    /// Free slab slots available for reuse.
    free: Vec<u32>,
    /// Ring of buckets; bucket `b` (absolute index `time >> BUCKET_BITS`)
    /// lives at `ring[b % NUM_BUCKETS]`. Holds only buckets within the
    /// horizon `[cursor, cursor + NUM_BUCKETS)`, so each ring cell maps to
    /// a single absolute bucket at any moment.
    ring: Vec<Vec<Ref>>,
    /// References (live or stale) currently in the ring.
    ring_count: usize,
    /// Spill heap for events beyond the ring horizon, min-ordered by key.
    spill: BinaryHeap<std::cmp::Reverse<Ref>>,
    /// Sorted drain list of the bucket the cursor points at.
    cur: Vec<Ref>,
    /// Drain position within `cur`.
    cur_pos: usize,
    /// Absolute bucket index currently being drained.
    cursor: u64,
    /// Live events.
    len: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            ring: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            ring_count: 0,
            spill: BinaryHeap::new(),
            cur: Vec::new(),
            cur_pos: 0,
            cursor: 0,
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `event` at `time`, returning a key usable with
    /// [`EventQueue::cancel`].
    pub fn push(&mut self, time: SimTime, event: E) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                let sl = &mut self.slots[s as usize];
                sl.time = time;
                sl.seq = seq;
                sl.event = Some(event);
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot {
                    gen: 0,
                    time,
                    seq,
                    event: Some(event),
                });
                s
            }
        };
        let gen = self.slots[slot as usize].gen;
        let r: Ref = (sort_key(time, seq), pack_ref(slot, gen));
        self.len += 1;

        let bucket = time.as_nanos() >> BUCKET_BITS;
        if bucket <= self.cursor {
            // Present bucket (or, defensively, earlier): insert into the
            // undrained tail of the current drain list, keeping it sorted.
            let ins = self.cur[self.cur_pos..].partition_point(|&(k, _)| k < r.0);
            self.cur.insert(self.cur_pos + ins, r);
        } else if bucket < self.cursor + NUM_BUCKETS {
            self.ring[(bucket % NUM_BUCKETS) as usize].push(r);
            self.ring_count += 1;
        } else {
            self.spill.push(std::cmp::Reverse(r));
        }
        EventKey(r.1)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// was still pending. O(1): the slab slot is freed (and the event
    /// dropped) immediately; the bucket reference goes stale and is skipped
    /// when its bucket drains.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        let slot = (key.0 >> 32) as usize;
        let gen = key.0 as u32;
        match self.slots.get_mut(slot) {
            Some(sl) if sl.gen == gen && sl.event.is_some() => {
                sl.event = None;
                sl.gen = sl.gen.wrapping_add(1);
                self.free.push(slot as u32);
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    #[inline]
    fn is_live(&self, packed: u64) -> bool {
        let slot = (packed >> 32) as usize;
        let gen = packed as u32;
        self.slots[slot].gen == gen
    }

    /// Positions `cur[cur_pos]` at the next live entry. Returns `false`
    /// when the queue is empty.
    fn settle(&mut self) -> bool {
        loop {
            while let Some(&(_, packed)) = self.cur.get(self.cur_pos) {
                if self.is_live(packed) {
                    return true;
                }
                self.cur_pos += 1; // stale (cancelled) reference
            }
            self.cur.clear();
            self.cur_pos = 0;
            if self.len == 0 {
                return false;
            }
            self.advance_to_next_bucket();
        }
    }

    /// Moves the cursor to the next bucket holding any reference and loads
    /// it into the drain list.
    fn advance_to_next_bucket(&mut self) {
        let spill_bucket = self
            .spill
            .peek()
            .map(|std::cmp::Reverse((k, _))| key_time(*k).as_nanos() >> BUCKET_BITS);
        let target = if self.ring_count == 0 {
            // Nothing inside the horizon: jump straight to the earliest
            // spilled bucket (it must exist — len > 0).
            spill_bucket.expect("live events but empty ring and spill")
        } else {
            // Scan forward; ring references always live in
            // (cursor, cursor + NUM_BUCKETS), so this terminates.
            let mut b = self.cursor + 1;
            loop {
                if spill_bucket == Some(b) || !self.ring[(b % NUM_BUCKETS) as usize].is_empty() {
                    break b;
                }
                b += 1;
            }
        };
        self.cursor = target;
        // Load the ring bucket: keep live references only (their slot data
        // is valid, so the embedded sort key is too).
        // Swap the cell out so the slab can be consulted while filtering;
        // swap it back to keep its retained capacity (no steady-state
        // allocation). `cur` is already empty and keeps its capacity too.
        let mut cell = std::mem::take(&mut self.ring[(target % NUM_BUCKETS) as usize]);
        self.ring_count -= cell.len();
        for &r in &cell {
            if self.is_live(r.1) {
                self.cur.push(r);
            }
        }
        cell.clear();
        self.ring[(target % NUM_BUCKETS) as usize] = cell;
        // Pull every spilled event belonging to this bucket.
        while let Some(std::cmp::Reverse((k, _))) = self.spill.peek() {
            if key_time(*k).as_nanos() >> BUCKET_BITS != target {
                break;
            }
            let std::cmp::Reverse(r) = self.spill.pop().unwrap();
            if self.is_live(r.1) {
                self.cur.push(r);
            }
        }
        self.cur.sort_unstable_by_key(|&(k, _)| k);
    }

    /// Time of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.settle() {
            Some(key_time(self.cur[self.cur_pos].0))
        } else {
            None
        }
    }

    /// Pops the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.settle() {
            return None;
        }
        let (key, packed) = self.cur[self.cur_pos];
        self.cur_pos += 1;
        let slot = (packed >> 32) as usize;
        let sl = &mut self.slots[slot];
        let event = sl.event.take().expect("settled entry must be live");
        sl.gen = sl.gen.wrapping_add(1);
        self.free.push(slot as u32);
        self.len -= 1;
        Some((key_time(key), event))
    }

    /// Number of live events still pending.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all pending events. Slab generations survive so stale keys
    /// from before the clear can never cancel later entries.
    pub fn clear(&mut self) {
        for sl in &mut self.slots {
            if sl.event.take().is_some() {
                sl.gen = sl.gen.wrapping_add(1);
            }
        }
        self.free.clear();
        self.free.extend((0..self.slots.len() as u32).rev());
        for cell in &mut self.ring {
            cell.clear();
        }
        self.ring_count = 0;
        self.spill.clear();
        self.cur.clear();
        self.cur_pos = 0;
        self.cursor = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::cmp::Ordering;
    use std::collections::HashSet;

    struct Entry<E> {
        time: SimTime,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl<E> Eq for Entry<E> {}

    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// Minimum backing size before cancel-triggered compaction kicks in — keeps
    /// tiny queues from rebuilding constantly.
    const COMPACT_FLOOR: usize = 64;

    /// The original future event list: a `BinaryHeap` with tombstone-based
    /// cancellation, kept as the reference the calendar queue is checked
    /// against. Its historical leak — `cancel` only removed the sequence
    /// number from the pending set, leaving the heap entry alive until it
    /// surfaced — is fixed by amortized compaction: when tombstones outnumber
    /// live entries the heap is rebuilt from the live entries only.
    struct LegacyEventQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        /// Sequence numbers of events currently live in the heap (pushed, not
        /// yet popped or cancelled). Cancellation removes from this set and the
        /// heap entry is dropped lazily when it surfaces or at compaction.
        pending: HashSet<u64>,
        next_seq: u64,
    }

    impl<E> LegacyEventQueue<E> {
        /// Creates an empty queue.
        fn new() -> Self {
            LegacyEventQueue {
                heap: BinaryHeap::new(),
                pending: HashSet::new(),
                next_seq: 0,
            }
        }

        /// Schedules `event` at `time`.
        fn push(&mut self, time: SimTime, event: E) -> EventKey {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { time, seq, event });
            self.pending.insert(seq);
            EventKey(seq)
        }

        /// Cancels a previously scheduled event. Returns `true` if the event was
        /// still pending (i.e. had not already popped or been cancelled).
        ///
        /// When tombstoned entries come to outnumber live ones the heap is
        /// rebuilt from the live entries, bounding memory under push/cancel
        /// churn (the long-run disarm-heavy workloads that used to leak).
        fn cancel(&mut self, key: EventKey) -> bool {
            let cancelled = self.pending.remove(&key.0);
            if cancelled
                && self.heap.len() >= COMPACT_FLOOR
                && self.heap.len() > 2 * self.pending.len()
            {
                self.compact();
            }
            cancelled
        }

        /// Drops every tombstoned entry by rebuilding the heap from live ones.
        fn compact(&mut self) {
            let pending = &self.pending;
            self.heap = std::mem::take(&mut self.heap)
                .into_iter()
                .filter(|e| pending.contains(&e.seq))
                .collect();
        }

        /// Time of the next live event, if any.
        fn peek_time(&mut self) -> Option<SimTime> {
            self.skip_cancelled();
            self.heap.peek().map(|e| e.time)
        }

        /// Pops the earliest live event.
        fn pop(&mut self) -> Option<(SimTime, E)> {
            self.skip_cancelled();
            self.heap.pop().map(|e| {
                self.pending.remove(&e.seq);
                (e.time, e.event)
            })
        }

        fn skip_cancelled(&mut self) {
            while let Some(top) = self.heap.peek() {
                if self.pending.contains(&top.seq) {
                    break;
                }
                self.heap.pop();
            }
        }

        /// Number of live events still pending.
        fn len(&self) -> usize {
            self.pending.len()
        }

        /// True when no live events remain.
        fn is_empty(&self) -> bool {
            self.pending.is_empty()
        }

        /// Entries physically held by the backing heap, live *and* tombstoned —
        /// diagnostics for the compaction bound.
        fn backing_len(&self) -> usize {
            self.heap.len()
        }

        /// Removes all pending events.
        fn clear(&mut self) {
            self.heap.clear();
            self.pending.clear();
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Runs `$body` twice, with `$q` bound to a fresh calendar queue and
    /// then to a fresh legacy heap queue: every behavioral test covers both.
    macro_rules! both {
        (|$q:ident| $body:block) => {{
            {
                let mut $q = EventQueue::new();
                $body
            }
            {
                let mut $q = LegacyEventQueue::new();
                $body
            }
        }};
    }

    #[test]
    fn pops_in_time_order() {
        both!(|q| {
            q.push(t(30), "c");
            q.push(t(10), "a");
            q.push(t(20), "b");
            assert_eq!(q.pop(), Some((t(10), "a")));
            assert_eq!(q.pop(), Some((t(20), "b")));
            assert_eq!(q.pop(), Some((t(30), "c")));
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn same_time_is_fifo() {
        both!(|q| {
            for i in 0..100 {
                q.push(t(5), i);
            }
            for i in 0..100 {
                assert_eq!(q.pop(), Some((t(5), i)));
            }
        });
    }

    #[test]
    fn cancel_removes_event() {
        both!(|q| {
            let k1 = q.push(t(1), "x");
            q.push(t(2), "y");
            assert_eq!(q.len(), 2);
            assert!(q.cancel(k1));
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop(), Some((t(2), "y")));
            assert!(q.is_empty());
        });
    }

    #[test]
    fn cancel_twice_is_noop() {
        both!(|q| {
            let k = q.push(t(1), ());
            assert!(q.cancel(k));
            assert!(!q.cancel(k));
            assert!(q.is_empty());
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn cancel_after_pop_is_noop() {
        both!(|q| {
            let k = q.push(t(1), "x");
            q.push(t(2), "y");
            assert_eq!(q.pop(), Some((t(1), "x")));
            // `k` already fired: cancelling must not disturb remaining
            // events.
            assert!(!q.cancel(k));
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop(), Some((t(2), "y")));
        });
    }

    #[test]
    fn cancel_unknown_key_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventKey(42)));
        let mut q: LegacyEventQueue<()> = LegacyEventQueue::new();
        assert!(!q.cancel(EventKey(42)));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        both!(|q| {
            let k = q.push(t(1), "gone");
            q.push(t(5), "kept");
            q.cancel(k);
            assert_eq!(q.peek_time(), Some(t(5)));
        });
    }

    #[test]
    fn clear_empties() {
        both!(|q| {
            q.push(t(1), 1);
            q.push(t(2), 2);
            q.clear();
            assert!(q.is_empty());
            assert_eq!(q.pop(), None);
            // The queue keeps working after a clear.
            q.push(t(3), 3);
            assert_eq!(q.pop(), Some((t(3), 3)));
        });
    }

    #[test]
    fn stale_key_after_clear_cannot_cancel() {
        let mut q = EventQueue::new();
        let k = q.push(t(1), 1);
        q.clear();
        let _k2 = q.push(t(2), 2);
        // The pre-clear key may map to a reused slab slot; it must not
        // cancel the new entry.
        assert!(!q.cancel(k));
        assert_eq!(q.pop(), Some((t(2), 2)));
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        both!(|q| {
            q.push(t(10), 10);
            q.push(t(5), 5);
            assert_eq!(q.pop(), Some((t(5), 5)));
            q.push(t(7), 7);
            q.push(t(6), 6);
            assert_eq!(q.pop(), Some((t(6), 6)));
            assert_eq!(q.pop(), Some((t(7), 7)));
            assert_eq!(q.pop(), Some((t(10), 10)));
        });
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        // Events far beyond the ring horizon (~67 ms) take the spill path
        // and must still pop in exact order, including ties at the same
        // nanosecond across the horizon boundary.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), "far-a");
        q.push(t(1), "near");
        q.push(SimTime::from_secs(10), "far-b");
        let far_cancel = q.push(SimTime::from_secs(5), "cancelled");
        q.push(SimTime::MAX, "sentinel");
        q.cancel(far_cancel);
        assert_eq!(q.pop(), Some((t(1), "near")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), "far-a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), "far-b")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "sentinel")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn legacy_compaction_bounds_heap_under_churn() {
        // Regression for the tombstone leak: a push/cancel churn loop (the
        // disarm-every-timer pattern of acked `stop` retransmissions) must
        // not grow the backing heap without bound.
        let mut q = LegacyEventQueue::new();
        let mut live = Vec::new();
        for i in 0..50_000u64 {
            let k = q.push(SimTime::from_micros(1_000_000 + i), i);
            if i % 10 == 0 {
                live.push(k); // 10% survive
            } else {
                q.cancel(k);
            }
        }
        assert_eq!(q.len(), live.len());
        // Without compaction the heap would hold all 50k entries. With the
        // tombstones > live sweep it stays within a small multiple of live.
        assert!(
            q.backing_len() <= 2 * q.len() + COMPACT_FLOOR,
            "backing {} vs live {}",
            q.backing_len(),
            q.len()
        );
        // And the survivors still pop correctly.
        assert_eq!(q.pop().map(|(_, v)| v), Some(0));
    }

    #[test]
    fn calendar_slab_is_bounded_under_churn() {
        // The calendar queue frees cancelled slots immediately; steady
        // push/cancel churn reuses the same handful of slab slots.
        let mut q = EventQueue::new();
        for i in 0..50_000u64 {
            let k = q.push(SimTime::from_micros(1_000_000 + i), i);
            if i % 10 != 0 {
                q.cancel(k);
            }
        }
        assert_eq!(q.len(), 5_000);
        assert!(
            q.slots.len() <= q.len() + 2,
            "slab grew to {} for {} live",
            q.slots.len(),
            q.len()
        );
    }

    #[test]
    fn reference_and_calendar_agree_under_churn() {
        // Drive both implementations through an identical randomized
        // push/cancel/pop script and demand bit-identical outputs. The
        // script covers every pattern a whole run produces: same-bucket
        // ties, bucket-edge and ring-horizon instants, the spill heap,
        // pushes at the present instant between pops, and timers cancelled
        // and re-armed at the same instant (the `stop` retransmit).
        let mut rng = SimRng::new(0xC0FFEE).fork("queue-equiv");
        let mut cal = EventQueue::new();
        let mut leg = LegacyEventQueue::new();
        let mut keys: Vec<(EventKey, EventKey, SimTime)> = Vec::new();
        let mut now = 0u64;
        for step in 0..40_000u64 {
            match rng.range(0u64..10) {
                0..=4 => {
                    let bucket = now >> BUCKET_BITS;
                    let at = match rng.range(0u64..6) {
                        0 => now + rng.range(0u64..1_000),          // same-bucket ties
                        1 => now + rng.range(0u64..10_000_000),     // within horizon
                        2 => now + rng.range(0u64..40_000_000_000), // spill path
                        3 => now,                                   // the present instant
                        // Exact bucket edges just ahead of the cursor.
                        4 => (bucket + rng.range(1u64..8)) << BUCKET_BITS,
                        // The ring horizon: the last nanosecond inside it,
                        // its first nanosecond past, and the next one.
                        _ => {
                            let edge = (bucket + NUM_BUCKETS + rng.range(0u64..2)) << BUCKET_BITS;
                            edge - 1 + rng.range(0u64..3)
                        }
                    };
                    let at = SimTime::from_nanos(at);
                    keys.push((cal.push(at, step), leg.push(at, step), at));
                }
                5..=6 => {
                    if !keys.is_empty() {
                        let i = rng.range(0u64..keys.len() as u64) as usize;
                        let (kc, kl, at) = keys.swap_remove(i);
                        let live = cal.cancel(kc);
                        assert_eq!(live, leg.cancel(kl), "step {step}");
                        if live && rng.chance(0.5) {
                            // Re-arm the cancelled timer at the same instant.
                            keys.push((cal.push(at, step), leg.push(at, step), at));
                        }
                    }
                }
                _ => {
                    assert_eq!(cal.peek_time(), leg.peek_time(), "step {step}");
                    let a = cal.pop();
                    let b = leg.pop();
                    assert_eq!(a, b, "step {step}");
                    if let Some((t, _)) = a {
                        now = t.as_nanos();
                        if rng.chance(0.3) {
                            // A handler scheduling at its own instant.
                            let at = SimTime::from_nanos(now);
                            keys.push((cal.push(at, step), leg.push(at, step), at));
                        }
                    }
                }
            }
            assert_eq!(cal.len(), leg.len(), "step {step}");
        }
        // Drain both to the end.
        loop {
            let a = cal.pop();
            let b = leg.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
