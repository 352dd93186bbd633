//! One wireless link: AP site ⇄ client, end to end.
//!
//! [`WirelessLink`] composes the whole physical chain — geometry, antenna
//! pattern, path loss, link budget, and a dedicated fading realization —
//! into the two queries the upper layers actually ask:
//!
//! * *what CSI would a frame observe right now?* ([`WirelessLink::csi`]),
//! * *would this frame get through?* (success probability via
//!   [`crate::error::PerModel`]).
//!
//! Reciprocity: the same channel realization serves both directions, which
//! is physically sound for TDD operation on one frequency and is exactly
//! the premise WGTT relies on — CSI measured from client *uplink* frames
//! predicts *downlink* delivery (§3.1.1 of the paper).

use crate::antenna::ParabolicAntenna;
use crate::complex::Cplx;
use crate::csi::{subcarrier_offsets_hz, Csi};
use crate::fading::{doppler_hz, FadingConfig, TappedDelayLine};
use crate::geom::{ApSite, Position};
use crate::pathloss::{LinkBudget, PathLoss};
use crate::shadowing::{ShadowingConfig, ShadowingProcess};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use wgtt_sim::{SimRng, SimTime};

/// Static configuration shared by all links in a deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Large-scale propagation model.
    pub pathloss: PathLoss,
    /// Power/noise budget.
    pub budget: LinkBudget,
    /// Fast-fading process parameters.
    pub fading: FadingConfig,
    /// AP antenna (directional in the paper's testbed).
    pub ap_antenna: ParabolicAntenna,
    /// Client antenna gain, dBi (laptop ≈ 0–2 dBi).
    pub client_antenna_dbi: f64,
    /// Optional spatially correlated shadowing (σ = 0 disables it).
    pub shadowing: ShadowingConfig,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            pathloss: PathLoss::default(),
            budget: LinkBudget::default(),
            fading: FadingConfig::default(),
            ap_antenna: ParabolicAntenna::default(),
            client_antenna_dbi: 0.0,
            shadowing: ShadowingConfig::default(),
        }
    }
}

/// Memoized large-scale SNR for one exact client position (f64 bit
/// patterns). Geometry, path loss, antenna gain, and shadowing depend only
/// on position, and the upper layers query the same position many times per
/// event (per-MPDU delivery, monitor sweeps, oracle sampling) before the
/// client moves — so a one-slot cache absorbs almost every repeat. Keying
/// on exact bits keeps the cached path bit-identical to the uncached one.
#[derive(Debug, Clone, Copy)]
struct GeoCache {
    x_bits: u64,
    y_bits: u64,
    z_bits: u64,
    snr_db: f64,
}

/// Memoized CSI snapshot for one exact `(time, position, speed)` query
/// (f64/ns bit patterns). A single transmission event asks for the same
/// snapshot several times (delivery draws, monitor sweep, rate control)
/// before the clock advances, so a one-slot cache absorbs the repeats
/// without any invalidation protocol — the [`GeoCache`] idiom extended to
/// the fading chain.
#[derive(Debug, Clone)]
struct CsiCache {
    t_ns: u64,
    x_bits: u64,
    y_bits: u64,
    z_bits: u64,
    speed_bits: u64,
    csi: Csi,
}

/// The live channel between one AP site and one client.
#[derive(Debug, Clone)]
pub struct WirelessLink {
    ap: ApSite,
    cfg: LinkConfig,
    fading: TappedDelayLine,
    shadowing: ShadowingProcess,
    subcarriers: [f64; crate::csi::NUM_SUBCARRIERS],
    /// Tap × subcarrier twiddle matrix (fixed per realization) feeding the
    /// allocation-free [`TappedDelayLine::freq_response_into`] path.
    twiddles: Vec<Cplx>,
    /// Static ceiling of any tone's SNR over the mean, in dB (see
    /// [`Self::peak_tone_headroom_db`]).
    peak_tone_headroom_db: f64,
    geo: Cell<Option<GeoCache>>,
    csi_memo: RefCell<Option<CsiCache>>,
}

impl WirelessLink {
    /// Creates a link with its own fading realization drawn from `rng`.
    ///
    /// Callers should fork `rng` per (AP, client) pair so channel
    /// realizations are independent and stable (see [`SimRng::fork`]).
    pub fn new(ap: ApSite, cfg: LinkConfig, rng: &mut SimRng) -> Self {
        let fading = TappedDelayLine::new(&cfg.fading, rng);
        let shadowing = ShadowingProcess::new(&cfg.shadowing, rng);
        let subcarriers = subcarrier_offsets_hz();
        let twiddles = fading.twiddles(&subcarriers);
        // 1 µdB of slack swamps every rounding step in the bound's
        // derivation while staying far below physical significance.
        let peak_tone_headroom_db = 20.0 * fading.peak_gain_bound().log10() + 1e-6;
        WirelessLink {
            ap,
            cfg,
            fading,
            shadowing,
            subcarriers,
            twiddles,
            peak_tone_headroom_db,
            geo: Cell::new(None),
            csi_memo: RefCell::new(None),
        }
    }

    /// Conservative dB headroom of any tone over the mean SNR: no fading
    /// realization can lift a subcarrier's SNR above
    /// `mean_snr_db + headroom` (see
    /// [`TappedDelayLine::peak_gain_bound`]). Static per link.
    pub fn peak_tone_headroom_db(&self) -> f64 {
        self.peak_tone_headroom_db
    }

    /// The AP site of this link.
    pub fn ap_site(&self) -> &ApSite {
        &self.ap
    }

    /// Large-scale (no fast fading) SNR in dB toward a client position,
    /// including the shadowing offset when enabled.
    ///
    /// Memoized for the last queried position (exact f64 bits), so repeat
    /// queries between client moves skip the geometry/path-loss/antenna
    /// chain. Bit-identical to [`Self::mean_snr_db_uncached`].
    pub fn mean_snr_db(&self, client: &Position) -> f64 {
        let (xb, yb, zb) = (client.x.to_bits(), client.y.to_bits(), client.z.to_bits());
        if let Some(c) = self.geo.get() {
            if c.x_bits == xb && c.y_bits == yb && c.z_bits == zb {
                return c.snr_db;
            }
        }
        let snr_db = self.mean_snr_db_uncached(client);
        self.geo.set(Some(GeoCache {
            x_bits: xb,
            y_bits: yb,
            z_bits: zb,
            snr_db,
        }));
        snr_db
    }

    /// [`Self::mean_snr_db`] without the position memo — the reference the
    /// cache is checked against, and the baseline for the `perf` harness.
    pub fn mean_snr_db_uncached(&self, client: &Position) -> f64 {
        let d = self.ap.distance_to(client);
        let theta = self.ap.off_boresight(client);
        let pl = self.cfg.pathloss.loss_db(d);
        self.cfg.budget.mean_snr_db(
            pl,
            self.cfg.ap_antenna.gain_dbi(theta),
            self.cfg.client_antenna_dbi,
        ) + self.shadowing.offset_db(client.x)
    }

    /// Full CSI snapshot at time `t` for a client at `client` moving at
    /// `speed_mps`.
    ///
    /// Memoized for the last exact query (time in ns, position/speed f64
    /// bits) and computed through the precomputed-twiddle fading path —
    /// both bit-identical to [`Self::csi_uncached`], locked by
    /// `csi_cache_is_bit_exact`. The fading realization draws no RNG after
    /// construction, so caching cannot perturb any draw sequence.
    pub fn csi(&self, t: SimTime, client: &Position, speed_mps: f64) -> Csi {
        let key = (
            t.as_nanos(),
            client.x.to_bits(),
            client.y.to_bits(),
            client.z.to_bits(),
            speed_mps.to_bits(),
        );
        if let Some(c) = self.csi_memo.borrow().as_ref() {
            if (c.t_ns, c.x_bits, c.y_bits, c.z_bits, c.speed_bits) == key {
                return c.csi.clone();
            }
        }
        let fd = doppler_hz(speed_mps, self.cfg.pathloss.wavelength_m());
        let mut h = [Cplx::ZERO; crate::csi::NUM_SUBCARRIERS];
        self.fading
            .freq_response_into(t.as_secs_f64(), fd, &self.twiddles, &mut h);
        let csi = Csi {
            h,
            mean_snr_db: self.mean_snr_db(client),
        };
        *self.csi_memo.borrow_mut() = Some(CsiCache {
            t_ns: key.0,
            x_bits: key.1,
            y_bits: key.2,
            z_bits: key.3,
            speed_bits: key.4,
            csi: csi.clone(),
        });
        csi
    }

    /// [`Self::csi`] without the snapshot memo or twiddle precompute — the
    /// reference path the cache is checked against, and the baseline for
    /// the `perf` harness.
    pub fn csi_uncached(&self, t: SimTime, client: &Position, speed_mps: f64) -> Csi {
        let fd = doppler_hz(speed_mps, self.cfg.pathloss.wavelength_m());
        let hv = self
            .fading
            .freq_response(t.as_secs_f64(), fd, &self.subcarriers);
        let mut h = [Cplx::ZERO; crate::csi::NUM_SUBCARRIERS];
        h.copy_from_slice(&hv);
        Csi {
            h,
            mean_snr_db: self.mean_snr_db_uncached(client),
        }
    }

    /// Carrier wavelength (for Doppler computations elsewhere).
    pub fn wavelength_m(&self) -> f64 {
        self.cfg.pathloss.wavelength_m()
    }

    /// Whether a client at `client` can carrier-sense / decode preambles
    /// from this AP at all: mean SNR above the given floor (dB). Used for
    /// "in communication range" checks.
    pub fn in_range(&self, client: &Position, floor_db: f64) -> bool {
        self.mean_snr_db(client) >= floor_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PerModel;
    use crate::esnr::controller_esnr_db;
    use crate::geom::DeploymentConfig;
    use crate::mcs::GuardInterval;

    fn testbed_links(seed: u64) -> Vec<WirelessLink> {
        let dep = DeploymentConfig::default().build();
        let root = SimRng::new(seed);
        dep.aps
            .iter()
            .enumerate()
            .map(|(i, ap)| {
                let mut r = root.fork_indexed("link", i as u64);
                WirelessLink::new(*ap, LinkConfig::default(), &mut r)
            })
            .collect()
    }

    fn road_pos(x: f64) -> Position {
        Position::new(x, 6.0, 1.5)
    }

    #[test]
    fn snr_peaks_at_boresight_patch() {
        let links = testbed_links(1);
        let ap3 = &links[3];
        let ap_x = ap3.ap_site().position.x;
        let at_patch = ap3.mean_snr_db(&road_pos(ap_x));
        let off_15m = ap3.mean_snr_db(&road_pos(ap_x + 15.0));
        let off_40m = ap3.mean_snr_db(&road_pos(ap_x + 40.0));
        assert!(at_patch > off_15m, "{at_patch} vs {off_15m}");
        assert!(off_15m > off_40m);
        assert!((24.0..34.0).contains(&at_patch), "patch SNR {at_patch}");
    }

    #[test]
    fn best_ap_changes_along_road() {
        // Walking the client down the road, the AP with the highest mean
        // SNR should progress 0,1,2,...,7 in order.
        let links = testbed_links(2);
        let mut best_seq = Vec::new();
        for step in 0..60 {
            let pos = road_pos(-2.0 + step as f64);
            let best = (0..links.len())
                .max_by(|&a, &b| {
                    links[a]
                        .mean_snr_db(&pos)
                        .partial_cmp(&links[b].mean_snr_db(&pos))
                        .unwrap()
                })
                .unwrap();
            best_seq.push(best);
        }
        // Must be non-decreasing and reach the last AP.
        assert!(best_seq.windows(2).all(|w| w[1] >= w[0]), "{best_seq:?}");
        assert_eq!(*best_seq.last().unwrap(), 7);
        assert_eq!(best_seq[0], 0);
    }

    #[test]
    fn cell_size_in_picocell_range() {
        // The contiguous stretch of road where an AP can deliver MCS7
        // frames with >90% success should be meters-scale (the paper's
        // "cell size" is 5.2 m).
        let links = testbed_links(3);
        let per = PerModel::default();
        let ap = &links[4];
        let ap_x = ap.ap_site().position.x;
        let mut cell_m = 0.0;
        for step in -300..300 {
            let x = ap_x + step as f64 * 0.1;
            let snr = ap.mean_snr_db(&road_pos(x));
            // Use mean SNR as ESNR proxy for a flat check.
            if per.success_prob(crate::mcs::Mcs(7), snr, 1500) > 0.9 {
                cell_m += 0.1;
            }
        }
        assert!(
            (2.0..12.0).contains(&cell_m),
            "top-rate cell size {cell_m} m out of picocell range"
        );
    }

    #[test]
    fn coverage_overlap_exists() {
        // At low MCS, adjacent AP coverage must overlap by several metres
        // (paper: 6–10 m).
        let links = testbed_links(4);
        let per = PerModel::default();
        let a = &links[2];
        let b = &links[3];
        let mut overlap_m = 0.0;
        for step in 0..1000 {
            let x = step as f64 * 0.1;
            let pos = road_pos(x);
            let ok = |l: &WirelessLink| {
                per.success_prob(crate::mcs::Mcs(0), l.mean_snr_db(&pos), 1500) > 0.5
            };
            if ok(a) && ok(b) {
                overlap_m += 0.1;
            }
        }
        assert!(
            (3.0..20.0).contains(&overlap_m),
            "coverage overlap {overlap_m} m"
        );
    }

    #[test]
    fn csi_is_time_varying_at_speed() {
        let links = testbed_links(5);
        let ap = &links[0];
        let pos = road_pos(0.0);
        let speed = 6.7; // 15 mph
        let e0 = controller_esnr_db(&ap.csi(SimTime::ZERO, &pos, speed));
        let mut max_delta: f64 = 0.0;
        for i in 1..50 {
            let t = SimTime::from_millis(i * 5);
            let e = controller_esnr_db(&ap.csi(t, &pos, speed));
            max_delta = max_delta.max((e - e0).abs());
        }
        assert!(max_delta > 3.0, "fading too shallow: {max_delta} dB swing");
    }

    #[test]
    fn stationary_csi_is_static() {
        let links = testbed_links(6);
        let ap = &links[0];
        let pos = road_pos(0.0);
        let a = controller_esnr_db(&ap.csi(SimTime::ZERO, &pos, 0.0));
        let b = controller_esnr_db(&ap.csi(SimTime::from_secs(5), &pos, 0.0));
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn shadowing_shifts_mean_snr() {
        let dep = DeploymentConfig::default().build();
        let mut cfg = LinkConfig::default();
        cfg.shadowing.sigma_db = 6.0;
        let mut r1 = SimRng::new(20).fork("a");
        let shadowed = WirelessLink::new(dep.aps[0], cfg, &mut r1);
        let mut r2 = SimRng::new(20).fork("a");
        let plain = WirelessLink::new(dep.aps[0], LinkConfig::default(), &mut r2);
        // Over many positions, shadowed and plain differ, with zero-mean
        // offsets.
        let mut diffs = Vec::new();
        for i in 0..200 {
            let pos = road_pos(i as f64 * 0.4);
            diffs.push(shadowed.mean_snr_db(&pos) - plain.mean_snr_db(&pos));
        }
        assert!(diffs.iter().any(|d| d.abs() > 1.0));
        let mean = wgtt_sim::stats::mean(&diffs);
        assert!(mean.abs() < 4.0, "offset mean {mean}");
    }

    #[test]
    fn geometry_cache_is_bit_exact() {
        let mut cfg = LinkConfig::default();
        cfg.shadowing.sigma_db = 4.0; // exercise the shadowing term too
        let dep = DeploymentConfig::default().build();
        let mut r = SimRng::new(31).fork("geo");
        let link = WirelessLink::new(dep.aps[2], cfg, &mut r);
        for step in 0..200 {
            let pos = road_pos(step as f64 * 0.37 - 10.0);
            let reference = link.mean_snr_db_uncached(&pos);
            // Cold, then warm: both must match the uncached value exactly.
            assert_eq!(link.mean_snr_db(&pos).to_bits(), reference.to_bits());
            assert_eq!(link.mean_snr_db(&pos).to_bits(), reference.to_bits());
            // Interleave a different position and re-query: the one-slot
            // cache must recompute, not serve the stale entry.
            let other = road_pos(step as f64 * 0.37 + 5.0);
            let other_ref = link.mean_snr_db_uncached(&other);
            assert_eq!(link.mean_snr_db(&other).to_bits(), other_ref.to_bits());
            assert_eq!(link.mean_snr_db(&pos).to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn csi_cache_is_bit_exact() {
        // The memoized, twiddle-precomputed snapshot path must match the
        // uncached reference bit-for-bit: cold, warm (cache hit), and
        // after evictions by interleaved different queries.
        let mut cfg = LinkConfig::default();
        cfg.shadowing.sigma_db = 4.0;
        let dep = DeploymentConfig::default().build();
        let mut r = SimRng::new(43).fork("csi");
        let link = WirelessLink::new(dep.aps[3], cfg, &mut r);
        let check = |t: SimTime, pos: &Position, speed: f64| {
            let reference = link.csi_uncached(t, pos, speed);
            for csi in [link.csi(t, pos, speed), link.csi(t, pos, speed)] {
                assert_eq!(csi.mean_snr_db.to_bits(), reference.mean_snr_db.to_bits());
                for (a, b) in csi.h.iter().zip(&reference.h) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits());
                    assert_eq!(a.im.to_bits(), b.im.to_bits());
                }
            }
        };
        for step in 0..100 {
            let t = SimTime::from_micros(step * 731);
            let pos = road_pos(step as f64 * 0.29 - 5.0);
            check(t, &pos, 6.7);
            // Different speed at the same instant evicts the slot; the
            // original query must then recompute identically.
            check(t, &pos, 11.2);
            check(t, &pos, 6.7);
        }
    }

    #[test]
    fn in_range_floor() {
        let links = testbed_links(7);
        let ap = &links[0];
        let ap_x = ap.ap_site().position.x;
        assert!(ap.in_range(&road_pos(ap_x), 5.0));
        assert!(!ap.in_range(&road_pos(ap_x + 300.0), 5.0));
    }

    #[test]
    fn capacity_best_ap_flips_at_ms_scale() {
        // The vehicular picocell regime (paper Fig 2): in an overlap zone
        // the instantaneous best AP (by ESNR) changes on millisecond
        // timescales due to fast fading.
        let links = testbed_links(8);
        let a = &links[2];
        let b = &links[3];
        // Stand in the overlap zone, but use vehicular Doppler.
        let pos = road_pos((a.ap_site().position.x + b.ap_site().position.x) / 2.0);
        let speed = 6.7;
        let mut flips = 0;
        let mut prev_best = 0;
        for i in 0..500 {
            let t = SimTime::from_millis(i * 2);
            let ea = controller_esnr_db(&a.csi(t, &pos, speed));
            let eb = controller_esnr_db(&b.csi(t, &pos, speed));
            let best = if ea >= eb { 0 } else { 1 };
            if i > 0 && best != prev_best {
                flips += 1;
            }
            prev_best = best;
        }
        assert!(flips > 10, "best AP flipped only {flips} times in 1 s");
    }

    #[test]
    fn mcs7_usable_fraction_near_boresight() {
        // At the cell center with fading, the link should support high MCS
        // most of the time (WGTT's Fig 16 shows ~70 Mbit/s p90 rates).
        let links = testbed_links(9);
        let per = PerModel::default();
        let ap = &links[1];
        let pos = road_pos(ap.ap_site().position.x);
        let mut ok = 0;
        let n = 400;
        for i in 0..n {
            let csi = ap.csi(SimTime::from_millis(i * 3), &pos, 6.7);
            if per.success_from_csi(crate::mcs::Mcs(7), &csi, 1500) > 0.5 {
                ok += 1;
            }
        }
        let frac = ok as f64 / n as f64;
        assert!(frac > 0.15, "MCS7 usable only {frac} of the time at center");
        // And the oracle best MCS at center is usually high.
        let csi = ap.csi(SimTime::from_millis(1), &pos, 6.7);
        assert!(per.best_mcs(GuardInterval::Short, &csi, 1500) >= crate::mcs::Mcs(3));
    }
}
