//! UDP flow machinery: constant-bit-rate sources and measuring sinks.
//!
//! The paper's UDP experiments all use iperf3-style CBR streams (50–90
//! Mbit/s offered load) and measure delivered throughput, loss, and
//! sequence-number progress at the client. [`CbrSource`] emits datagram
//! descriptors on a fixed schedule; [`UdpSink`] tracks sequence numbers,
//! duplicates and loss.

use wgtt_sim::{SimDuration, SimTime};

/// A constant-bit-rate datagram source.
#[derive(Debug, Clone)]
pub struct CbrSource {
    /// Payload bytes per datagram.
    pub payload_bytes: usize,
    /// Inter-packet interval.
    interval: SimDuration,
    next_seq: u64,
    next_time: SimTime,
    /// Stop emitting at this time (`SimTime::MAX` = forever).
    pub until: SimTime,
}

impl CbrSource {
    /// Creates a source offering `rate_bps` of *UDP payload* starting at
    /// `start`.
    pub fn new(rate_bps: u64, payload_bytes: usize, start: SimTime) -> Self {
        assert!(rate_bps > 0 && payload_bytes > 0);
        let interval = SimDuration::for_bits(payload_bytes as u64 * 8, rate_bps);
        CbrSource {
            payload_bytes,
            interval,
            next_seq: 0,
            next_time: start,
            until: SimTime::MAX,
        }
    }

    /// When the next datagram is due, or `None` if the source is done.
    pub fn next_emit_time(&self) -> Option<SimTime> {
        (self.next_time <= self.until).then_some(self.next_time)
    }

    /// Emits the datagram due at or before `now`. Returns its sequence
    /// number; call repeatedly until it returns `None` to catch up.
    pub fn emit(&mut self, now: SimTime) -> Option<u64> {
        if self.next_time > now || self.next_time > self.until {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.next_time += self.interval;
        Some(seq)
    }

    /// Sequence number of the next datagram to be emitted.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Continues the sequence stream at `seq` — used when a flow migrates
    /// between worlds and the destination source must not restart at 0
    /// (the sink dedups by sequence number, so a restart would alias old
    /// datagrams).
    pub fn resume_seq(&mut self, seq: u64) {
        self.next_seq = seq;
    }
}

/// Receiving-side accounting for a UDP flow.
#[derive(Debug, Clone, Default)]
pub struct UdpSink {
    /// Highest sequence seen (`None` before any arrival).
    highest_seq: Option<u64>,
    received: u64,
    duplicates: u64,
    bytes: u64,
    seen: std::collections::HashSet<u64>,
    /// Arrival time of the most recent datagram.
    last_arrival: Option<SimTime>,
}

impl UdpSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the arrival of datagram `seq` of `len_bytes` at `now`.
    /// Returns `true` if it was a new (non-duplicate) datagram.
    pub fn on_receive(&mut self, now: SimTime, seq: u64, len_bytes: usize) -> bool {
        self.last_arrival = Some(now);
        if !self.seen.insert(seq) {
            self.duplicates += 1;
            return false;
        }
        self.received += 1;
        self.bytes += len_bytes as u64;
        self.highest_seq = Some(self.highest_seq.map_or(seq, |h| h.max(seq)));
        true
    }

    /// Unique datagrams received.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Duplicate arrivals dropped.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Whether datagram `seq` has been received by this sink. Seam tests
    /// use this to detect the same datagram delivered in two worlds (each
    /// world has its own sink, so per-sink `duplicates` cannot see a
    /// cross-world double delivery).
    pub fn contains(&self, seq: u64) -> bool {
        self.seen.contains(&seq)
    }

    /// Total unique payload bytes received.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Most recent arrival time.
    pub fn last_arrival(&self) -> Option<SimTime> {
        self.last_arrival
    }

    /// Loss rate inferred from sequence gaps: `1 − received/(highest+1)`.
    pub fn loss_rate(&self) -> f64 {
        match self.highest_seq {
            None => 0.0,
            Some(h) => {
                let expected = h + 1;
                1.0 - self.received as f64 / expected as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbr_interval_matches_rate() {
        // 12 Mbit/s with 1500 B payloads → 1 ms apart.
        let s = CbrSource::new(12_000_000, 1500, SimTime::ZERO);
        assert_eq!(s.next_emit_time(), Some(SimTime::ZERO));
        let mut s = s;
        assert_eq!(s.emit(SimTime::ZERO), Some(0));
        assert_eq!(s.next_emit_time(), Some(SimTime::from_millis(1)));
    }

    #[test]
    fn cbr_catches_up_in_order() {
        let mut s = CbrSource::new(8_000_000, 1000, SimTime::ZERO);
        // At t=5 ms, 1000 B @ 8 Mbit/s = 1 ms spacing → 6 packets due
        // (t=0..5 inclusive).
        let mut seqs = Vec::new();
        while let Some(q) = s.emit(SimTime::from_millis(5)) {
            seqs.push(q);
        }
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(s.emit(SimTime::from_millis(5)), None);
    }

    #[test]
    fn cbr_stops_at_until() {
        let mut s = CbrSource::new(8_000_000, 1000, SimTime::ZERO);
        s.until = SimTime::from_millis(2);
        let mut n = 0;
        while s.emit(SimTime::from_secs(1)).is_some() {
            n += 1;
        }
        assert_eq!(n, 3); // t = 0, 1, 2 ms
        assert_eq!(s.next_emit_time(), None);
    }

    #[test]
    fn sink_counts_and_loss() {
        let mut k = UdpSink::new();
        for seq in [0u64, 1, 3, 4] {
            assert!(k.on_receive(SimTime::from_millis(seq * 10), seq, 1000));
        }
        assert_eq!(k.received(), 4);
        // Highest=4 → expected 5, got 4 → 20% loss.
        assert!((k.loss_rate() - 0.2).abs() < 1e-9);
        assert_eq!(k.bytes(), 4000);
    }

    #[test]
    fn sink_detects_duplicates() {
        let mut k = UdpSink::new();
        assert!(k.on_receive(SimTime::ZERO, 0, 1000));
        assert!(!k.on_receive(SimTime::from_millis(1), 0, 1000));
        assert_eq!(k.duplicates(), 1);
        assert_eq!(k.received(), 1);
        assert_eq!(k.bytes(), 1000);
        // Duplicates don't count toward loss.
        assert_eq!(k.loss_rate(), 0.0);
    }

    #[test]
    fn empty_sink_is_zeroes() {
        let k = UdpSink::new();
        assert_eq!(k.loss_rate(), 0.0);
        assert_eq!(k.received(), 0);
        assert_eq!(k.last_arrival(), None);
    }
}
