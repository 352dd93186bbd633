//! Property-based tests on the MAC substrate.

use proptest::prelude::*;
use wgtt_mac::blockack::{RxReorder, TxScoreboard};
use wgtt_mac::timing::{contention_window, frame_airtime, payload_airtime, CW_MAX, CW_MIN};
use wgtt_phy::{GuardInterval, Mcs};

proptest! {
    /// Contention window stays within [CWmin, CWmax] and is monotone in
    /// the retry count.
    #[test]
    fn cw_bounds(retries in 0u32..64) {
        let cw = contention_window(retries);
        prop_assert!((CW_MIN..=CW_MAX).contains(&cw));
        prop_assert!(contention_window(retries + 1) >= cw);
    }

    /// Airtime grows with payload size and shrinks with MCS.
    #[test]
    fn airtime_monotonicity(bytes in 100usize..60_000, extra in 1usize..5_000, mcs in 0u8..7) {
        let gi = GuardInterval::Long;
        prop_assert!(
            payload_airtime(bytes + extra, Mcs(mcs), gi) >= payload_airtime(bytes, Mcs(mcs), gi)
        );
        prop_assert!(
            payload_airtime(bytes, Mcs(mcs + 1), gi) <= payload_airtime(bytes, Mcs(mcs), gi)
        );
        prop_assert!(frame_airtime(bytes, Mcs(mcs), gi) > payload_airtime(bytes, Mcs(mcs), gi));
    }

    /// Scoreboard + reorderer with a *perfect* channel: one round delivers
    /// and acknowledges everything, whatever the start sequence and count.
    #[test]
    fn blockack_perfect_channel_one_round(start in 0u16..4096, count in 1usize..64) {
        let mut tx = TxScoreboard::new(start);
        let mut rx = RxReorder::new(start);
        let seqs: Vec<u16> = (0..count).map(|_| tx.assign()).collect();
        for &s in &seqs {
            prop_assert!(rx.on_mpdu(s));
        }
        let newly = tx.on_block_ack(&rx.block_ack());
        prop_assert_eq!(newly, seqs);
        prop_assert_eq!(tx.outstanding(), 0);
        prop_assert_eq!(rx.release_in_order(), count as u32);
    }

    /// Duplicate MPDUs are always flagged and never double-released.
    #[test]
    fn reorderer_dedups(start in 0u16..4096, count in 1usize..64) {
        let mut rx = RxReorder::new(start);
        let seqs: Vec<u16> = (0..count as u16)
            .map(|i| wgtt_mac::seq_add(start, i))
            .collect();
        for &s in &seqs {
            rx.on_mpdu(s);
        }
        for &s in &seqs {
            prop_assert!(!rx.on_mpdu(s), "duplicate {s} accepted");
        }
        prop_assert_eq!(rx.accepted(), count as u64);
        prop_assert_eq!(rx.duplicates(), count as u64);
        prop_assert_eq!(rx.release_in_order() as usize, count);
    }

    /// Dropping any subset of outstanding sequences leaves the scoreboard
    /// consistent (outstanding = assigned − dropped) and re-ackable.
    #[test]
    fn scoreboard_drop_consistency(
        count in 1usize..64,
        drop_mask in proptest::collection::vec(any::<bool>(), 64),
    ) {
        let mut tx = TxScoreboard::new(0);
        let seqs: Vec<u16> = (0..count).map(|_| tx.assign()).collect();
        let mut dropped = 0;
        for (i, &s) in seqs.iter().enumerate() {
            if drop_mask[i] {
                prop_assert!(tx.drop_seq(s));
                dropped += 1;
            }
        }
        prop_assert_eq!(tx.outstanding(), count - dropped);
        // The survivors are exactly the un-dropped ones, in order.
        let expect: Vec<u16> = seqs
            .iter()
            .enumerate()
            .filter(|(i, _)| !drop_mask[*i])
            .map(|(_, &s)| s)
            .collect();
        prop_assert_eq!(tx.unacked(), expect);
    }
}
