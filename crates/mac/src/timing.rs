//! 802.11 MAC/PHY timing and airtime computation.
//!
//! Frame aggregation exists because of the numbers in this module: a 1500 B
//! frame at 65 Mbit/s occupies ~185 µs of useful payload time but pays
//! ~100 µs of fixed overhead (DIFS + backoff + preamble + SIFS + ACK).
//! Aggregating 20 MPDUs amortizes that overhead 20×. WGTT's insistence on
//! keeping aggregation working across AP switches (§3.2 of the paper) only
//! makes sense against these constants.

use wgtt_phy::mcs::{GuardInterval, Mcs};
use wgtt_sim::SimDuration;

/// Slot time (2.4 GHz short slot), µs.
pub const SLOT_US: u64 = 9;
/// Short interframe space, µs.
pub const SIFS_US: u64 = 10;
/// DCF interframe space: SIFS + 2 slots, µs.
pub const DIFS_US: u64 = SIFS_US + 2 * SLOT_US;
/// Minimum contention window (slots) − 1; CW starts at 15.
pub const CW_MIN: u32 = 15;
/// Maximum contention window (slots) − 1.
pub const CW_MAX: u32 = 1023;
/// HT-mixed-format PHY preamble + PLCP header, µs
/// (L-STF 8 + L-LTF 8 + L-SIG 4 + HT-SIG 8 + HT-STF 4 + HT-LTF 4).
pub const HT_PREAMBLE_US: u64 = 36;
/// Legacy (non-HT) preamble for control responses, µs.
pub const LEGACY_PREAMBLE_US: u64 = 20;
/// Control-frame basic rate, bit/s (OFDM 24 Mbit/s).
pub const CONTROL_RATE_BPS: u64 = 24_000_000;
/// Block ACK frame body, bytes (compressed bitmap variant).
pub const BLOCK_ACK_BYTES: usize = 32;
/// Normal ACK frame, bytes.
pub const ACK_BYTES: usize = 14;
/// A-MPDU subframe delimiter, bytes.
pub const MPDU_DELIMITER_BYTES: usize = 4;
/// Maximum A-MPDU length, bytes.
pub const MAX_AMPDU_BYTES: usize = 65_535;
/// 802.11 sequence-number space (12 bits).
pub const SEQ_SPACE: u16 = 4096;

/// Slot duration.
pub fn slot() -> SimDuration {
    SimDuration::from_micros(SLOT_US)
}

/// SIFS duration.
pub fn sifs() -> SimDuration {
    SimDuration::from_micros(SIFS_US)
}

/// DIFS duration.
pub fn difs() -> SimDuration {
    SimDuration::from_micros(DIFS_US)
}

/// Airtime of the payload portion of an HT PPDU carrying `bytes` of MPDU
/// data at the given MCS: number of OFDM symbols × symbol time.
pub fn payload_airtime(bytes: usize, mcs: Mcs, gi: GuardInterval) -> SimDuration {
    let bits = bytes as u64 * 8 + 22; // SERVICE (16) + tail (6) bits
    let ndbps = mcs.ndbps() as u64;
    let symbols = bits.div_ceil(ndbps);
    SimDuration::from_nanos(symbols * gi.symbol_ns())
}

/// Total airtime of a single (non-aggregated) data frame transmission:
/// preamble + payload.
pub fn frame_airtime(bytes: usize, mcs: Mcs, gi: GuardInterval) -> SimDuration {
    SimDuration::from_micros(HT_PREAMBLE_US) + payload_airtime(bytes, mcs, gi)
}

/// Airtime of an A-MPDU carrying MPDUs of the given sizes (each padded with
/// its delimiter), at the given MCS.
pub fn ampdu_airtime(mpdu_bytes: &[usize], mcs: Mcs, gi: GuardInterval) -> SimDuration {
    let total: usize = mpdu_bytes.iter().map(|b| b + MPDU_DELIMITER_BYTES).sum();
    frame_airtime(total, mcs, gi)
}

/// Airtime of a Block ACK response at the basic control rate.
pub fn block_ack_airtime() -> SimDuration {
    SimDuration::from_micros(LEGACY_PREAMBLE_US)
        + SimDuration::for_bits(BLOCK_ACK_BYTES as u64 * 8, CONTROL_RATE_BPS)
}

/// Airtime of a normal ACK.
pub fn ack_airtime() -> SimDuration {
    SimDuration::from_micros(LEGACY_PREAMBLE_US)
        + SimDuration::for_bits(ACK_BYTES as u64 * 8, CONTROL_RATE_BPS)
}

/// Contention window (inclusive upper bound on the backoff draw) after
/// `retries` consecutive failures.
pub fn contention_window(retries: u32) -> u32 {
    // CW reaches CWmax after 6 doublings; clamp the shift so large retry
    // counts cannot overflow.
    (((CW_MIN + 1) << retries.min(6)) - 1).min(CW_MAX)
}

/// Full exchange time for an aggregated transmission: DIFS + backoff slots
/// + A-MPDU + SIFS + Block ACK.
pub fn ampdu_exchange_time(
    backoff_slots: u32,
    mpdu_bytes: &[usize],
    mcs: Mcs,
    gi: GuardInterval,
) -> SimDuration {
    difs()
        + slot() * backoff_slots as u64
        + ampdu_airtime(mpdu_bytes, mcs, gi)
        + sifs()
        + block_ack_airtime()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_standard() {
        assert_eq!(DIFS_US, 28);
        assert_eq!(contention_window(0), 15);
        assert_eq!(contention_window(1), 31);
        assert_eq!(contention_window(3), 127);
        assert_eq!(contention_window(10), 1023); // clamped
        assert_eq!(contention_window(30), 1023); // no overflow
    }

    #[test]
    fn payload_airtime_symbol_math() {
        // 1500 B at MCS7 LGI: (12000+22)/260 = 47 symbols → 188 µs.
        let t = payload_airtime(1500, Mcs(7), GuardInterval::Long);
        assert_eq!(t.as_micros(), 188);
        // MCS0: (12022)/26 = 463 symbols → 1852 µs.
        let t0 = payload_airtime(1500, Mcs(0), GuardInterval::Long);
        assert_eq!(t0.as_micros(), 1852);
    }

    #[test]
    fn short_gi_is_faster() {
        let long = payload_airtime(4000, Mcs(5), GuardInterval::Long);
        let short = payload_airtime(4000, Mcs(5), GuardInterval::Short);
        assert!(short < long);
        // Ratio ≈ 0.9.
        let ratio = short.as_nanos() as f64 / long.as_nanos() as f64;
        assert!((ratio - 0.9).abs() < 0.01);
    }

    #[test]
    fn aggregation_amortizes_overhead() {
        let gi = GuardInterval::Long;
        let mcs = Mcs(7);
        // 20 separate frames vs one 20-MPDU aggregate.
        let single = frame_airtime(1500, mcs, gi) + sifs() + ack_airtime() + difs();
        let separate = single * 20;
        let aggregate = ampdu_exchange_time(0, &[1500; 20], mcs, gi);
        // Per-frame overhead is ~100 µs against ~188 µs of payload at
        // MCS7: aggregation should reclaim most of it (>25% saving).
        assert!(
            aggregate.as_micros() * 4 < separate.as_micros() * 3,
            "aggregate {aggregate} vs separate {separate}"
        );
    }

    #[test]
    fn efficiency_at_high_rate_needs_aggregation() {
        // Fixed overhead per exchange: useful-time fraction for a single
        // 1500 B frame at MCS7 must be well under 80%, while a full
        // aggregate gets above 90%.
        let gi = GuardInterval::Long;
        let mcs = Mcs(7);
        let payload = payload_airtime(1500, mcs, gi).as_nanos() as f64;
        let single = ampdu_exchange_time(7, &[1500], mcs, gi).as_nanos() as f64;
        assert!(payload / single < 0.8);
        let payload42 = payload_airtime(1500 * 42, mcs, gi).as_nanos() as f64;
        let agg = ampdu_exchange_time(7, &[1500; 42], mcs, gi).as_nanos() as f64;
        assert!(payload42 / agg > 0.9, "{}", payload42 / agg);
    }

    #[test]
    fn control_frames_short() {
        assert!(block_ack_airtime() < SimDuration::from_micros(40));
        assert!(ack_airtime() < block_ack_airtime());
    }

    #[test]
    fn ampdu_includes_delimiters() {
        let bare = frame_airtime(3000, Mcs(4), GuardInterval::Long);
        let agg = ampdu_airtime(&[1500, 1500], Mcs(4), GuardInterval::Long);
        assert!(agg >= bare);
    }
}
