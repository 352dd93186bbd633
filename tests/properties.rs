//! Property-based tests on the core data structures and protocol
//! invariants, spanning crates through the `wgtt` facade.

use proptest::prelude::*;
use wgtt::core::cyclic::{index_add, index_fwd_dist, CyclicQueue, IndexAllocator, INDEX_SPACE};
use wgtt::core::dedup::Deduplicator;
use wgtt::mac::blockack::{seq_add, seq_fwd_dist, BlockAckFrame, RxReorder, TxScoreboard};
use wgtt::net::{ClientId, FlowId, PacketFactory, Payload, TcpConfig, TcpReceiver, TcpSender};
use wgtt::sim::stats::TimeWindow;
use wgtt::sim::{EventQueue, SimDuration, SimTime};

fn packet_with_index(f: &mut PacketFactory, index: u16) -> wgtt::net::Packet {
    let mut p = f.make(
        ClientId(0),
        FlowId(0),
        1500,
        SimTime::ZERO,
        Payload::Udp { seq: index as u64 },
    );
    p.index = Some(index % INDEX_SPACE);
    p
}

proptest! {
    /// 12-bit index arithmetic: fwd_dist inverts add.
    #[test]
    fn index_math_roundtrips(start in 0u16..4096, n in 0u16..4095) {
        let end = index_add(start, n);
        prop_assert_eq!(index_fwd_dist(start, end), n);
        prop_assert!(end < INDEX_SPACE);
    }

    /// 802.11 sequence math mirrors it.
    #[test]
    fn seq_math_roundtrips(start in 0u16..4096, n in 0u16..4095) {
        let end = seq_add(start, n);
        prop_assert_eq!(seq_fwd_dist(start, end), n);
    }

    /// The allocator never reuses an index within a buffer horizon.
    #[test]
    fn allocator_unique_within_horizon(count in 1usize..4096) {
        let mut a = IndexAllocator::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..count {
            prop_assert!(seen.insert(a.allocate()));
        }
    }

    /// Cyclic queue: whatever subset of a contiguous index stream is
    /// inserted (in any order), popping yields each inserted index exactly
    /// once, in index order from the first insert onward.
    #[test]
    fn cyclic_queue_delivers_each_once(
        start in 0u16..4096,
        mut picks in proptest::collection::vec(0u16..60, 1..40),
    ) {
        picks.sort_unstable();
        picks.dedup();
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        q.start_from(start);
        for &offset in &picks {
            q.insert(packet_with_index(&mut f, index_add(start, offset)));
        }
        let mut got = Vec::new();
        while let Some(p) = q.pop_head() {
            got.push(index_fwd_dist(start, p.index.unwrap()));
        }
        prop_assert_eq!(got, picks);
    }

    /// Under arbitrary interleavings of inserts (with stream jumps),
    /// pops, `start_from`, and `clear`, the O(1) backlog counter always
    /// equals a slow walk of the window, and the window never spans half
    /// the index space (where modular comparisons turn ambiguous). This is
    /// the invariant whose violation once livelocked the simulator.
    #[test]
    fn cyclic_queue_counter_invariant(
        ops in proptest::collection::vec((0u8..4, 0u16..4096), 1..250),
    ) {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        let mut next_idx: u16 = 0;
        for (kind, arg) in ops {
            match kind {
                0 | 3 => {
                    // Insert the next stream index, occasionally jumping.
                    if kind == 3 {
                        next_idx = index_add(next_idx, arg % 3000);
                    }
                    q.insert(packet_with_index(&mut f, next_idx));
                    next_idx = index_add(next_idx, 1);
                }
                1 => {
                    let _ = q.pop_head();
                }
                _ => q.start_from(arg),
            }
            prop_assert_eq!(q.backlog(), q.backlog_walk(), "counter drifted");
            prop_assert!(
                q.backlog() == 0 || index_fwd_dist(q.head(), q.tail()) < INDEX_SPACE / 2,
                "window spans half the index space"
            );
        }
    }

    /// `start_from(k)` discards exactly the prefix before `k`.
    #[test]
    fn cyclic_start_from_discards_prefix(k in 0u16..50) {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        for i in 0..50u16 {
            q.insert(packet_with_index(&mut f, i));
        }
        q.start_from(k);
        let first = q.pop_head().map(|p| p.index.unwrap());
        prop_assert_eq!(first, Some(k));
    }

    /// Tx scoreboard + Rx reorderer converge: under arbitrary per-MPDU
    /// loss patterns, retransmitting the unacked set eventually delivers
    /// every registered sequence exactly once.
    #[test]
    fn blockack_converges_under_loss(
        start in 0u16..4096,
        count in 1usize..64,
        loss in proptest::collection::vec(any::<bool>(), 64 * 6),
    ) {
        let mut tx = TxScoreboard::new(start);
        let mut rx = RxReorder::new(start);
        for _ in 0..count {
            tx.assign();
        }
        let mut li = 0;
        let mut rounds = 0;
        while tx.outstanding() > 0 && rounds < 200 {
            for s in tx.unacked() {
                let lost = loss.get(li).copied().unwrap_or(false);
                li += 1;
                if !lost {
                    rx.on_mpdu(s);
                }
            }
            tx.on_block_ack(&rx.block_ack());
            rx.release_in_order();
            rounds += 1;
        }
        // With the loss vector exhausted everything gets through.
        prop_assert_eq!(tx.outstanding(), 0);
        prop_assert_eq!(rx.accepted(), count as u64);
    }

    /// A Block ACK never acknowledges a sequence the receiver did not get.
    #[test]
    fn blockack_is_sound(received in proptest::collection::vec(0u16..64, 0..64)) {
        let mut rx = RxReorder::new(0);
        let mut truth = std::collections::HashSet::new();
        for s in received {
            rx.on_mpdu(s);
            truth.insert(s);
        }
        let ba: BlockAckFrame = rx.block_ack();
        for s in 0u16..64 {
            if ba.acks(s) {
                prop_assert!(truth.contains(&s), "BA acks un-received {s}");
            }
        }
    }

    /// Dedup: first copy of every distinct key passes; every repeat within
    /// capacity is suppressed — regardless of interleaving.
    #[test]
    fn dedup_exactly_once(keys in proptest::collection::vec(0u64..500, 1..2000)) {
        let mut d = Deduplicator::new(4096);
        let mut seen = std::collections::HashSet::new();
        for k in keys {
            let fresh = seen.insert(k);
            prop_assert_eq!(d.check_key(k), fresh);
        }
    }

    /// The event queue is a stable priority queue: pops are time-ordered,
    /// FIFO within a timestamp, and nothing is lost.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..50, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_millis(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated within timestamp");
            }
        }
    }

    /// The AP-selection time window never reports a stale median.
    #[test]
    fn time_window_median_is_fresh(
        samples in proptest::collection::vec((0u64..1000, -10.0f64..40.0), 1..200),
    ) {
        let mut sorted = samples.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut w = TimeWindow::new(SimDuration::from_millis(10));
        for (t, v) in &sorted {
            w.push(SimTime::from_millis(*t), *v);
        }
        let now = SimTime::from_millis(sorted.last().unwrap().0);
        w.evict(now);
        let fresh: Vec<f64> = sorted
            .iter()
            .filter(|(t, _)| now.saturating_since(SimTime::from_millis(*t)) <= SimDuration::from_millis(10))
            .map(|&(_, v)| v)
            .collect();
        prop_assert_eq!(w.len(), fresh.len());
        if let Some(m) = w.median() {
            let mut f = fresh.clone();
            f.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert_eq!(m, f[f.len() / 2]);
        }
    }

    /// TCP sender/receiver pair: under arbitrary segment loss and ack
    /// delivery, cumulative acks never exceed contiguous delivered bytes,
    /// and the sender's una never exceeds the receiver's rcv_nxt.
    #[test]
    fn tcp_invariants_under_loss(loss in proptest::collection::vec(any::<bool>(), 200)) {
        let mut snd = TcpSender::new(TcpConfig::default());
        let mut rcv = TcpReceiver::new();
        let mut now = SimTime::ZERO;
        let mut li = 0;
        for _round in 0..40 {
            let mut segs = Vec::new();
            while let Some(s) = snd.next_segment(now) {
                segs.push(s);
            }
            now += SimDuration::from_millis(10);
            let mut last_ack = None;
            for s in segs {
                let lost = loss.get(li % loss.len()).copied().unwrap_or(false);
                li += 1;
                if !lost {
                    last_ack = Some(rcv.on_data(s.seq, s.len));
                }
            }
            now += SimDuration::from_millis(10);
            if let Some(a) = last_ack {
                snd.on_ack(now, a);
            }
            snd.on_rto_check(now);
            prop_assert!(snd.snd_una() <= rcv.rcv_nxt());
        }
    }
}
