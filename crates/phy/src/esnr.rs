//! Effective SNR (Halperin et al., SIGCOMM 2010).
//!
//! Plain average SNR (RSSI) over-estimates delivery probability on a
//! frequency-selective channel: one deeply faded subcarrier ruins a frame
//! even when the average looks healthy. Effective SNR fixes this by mapping
//! each subcarrier's SNR to an uncoded bit error rate for the modulation in
//! use, averaging the *error rates*, and mapping the average back to the
//! SNR that would produce it on a flat channel:
//!
//! ```text
//! ESNR_m = BER_m⁻¹( mean_k BER_m(SNR_k) )
//! ```
//!
//! This is the metric the WGTT controller compares across APs (§3.1.1 of
//! the paper).

use crate::csi::{Csi, NUM_SUBCARRIERS};
use crate::pathloss::linear_to_db;

/// Modulation schemes used by 802.11n single-stream MCS 0–7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// Binary phase shift keying (MCS 0).
    Bpsk,
    /// Quadrature PSK (MCS 1–2).
    Qpsk,
    /// 16-point QAM (MCS 3–4).
    Qam16,
    /// 64-point QAM (MCS 5–7).
    Qam64,
}

impl Modulation {
    /// All modulations, densest last — indexable by [`Modulation::index`].
    pub const ALL: [Modulation; 4] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
    ];

    /// Bits carried per subcarrier per symbol.
    pub fn bits_per_symbol(self) -> u32 {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// Dense index into per-modulation tables (`ALL[m.index()] == m`).
    pub fn index(self) -> usize {
        match self {
            Modulation::Bpsk => 0,
            Modulation::Qpsk => 1,
            Modulation::Qam16 => 2,
            Modulation::Qam64 => 3,
        }
    }
}

/// The exponent polynomial of the A&S 7.1.26 erfc approximation:
/// `erfc(z) = t·exp(−z² + B(t))` for `z ≥ 0`, `t = 1/(1 + z/2)`.
#[inline]
fn erfc_poly(t: f64) -> f64 {
    -1.26551223
        + t * (1.00002368
            + t * (0.37409196
                + t * (0.09678418
                    + t * (-0.18628806
                        + t * (0.27886807
                            + t * (-1.13520398
                                + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277))))))))
}

/// Complementary error function.
///
/// Abramowitz & Stegun 7.1.26-based rational approximation with |ε| ≤
/// 1.5·10⁻⁷, extended to the full real line by symmetry. Accurate enough
/// for BER work, where the inputs live within a few tens of dB. The inner
/// exponential uses the deterministic [`crate::fastmath::exp`] kernel, so
/// BER values do not depend on the host libm.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let tau = t * crate::fastmath::exp(-z * z + erfc_poly(t));
    if x >= 0.0 {
        tau
    } else {
        2.0 - tau
    }
}

/// `ln erfc(z)` and its derivative for `z ≥ 0`, from the closed form of the
/// same approximation [`erfc`] uses: `ln t − z² + B(t)`.
///
/// Evaluating the logarithm analytically never under- or overflows, which
/// is what lets [`ber_inverse`] run Newton's method at BERs far below the
/// smallest subnormal of the linear-domain function.
#[inline]
fn ln_erfc_with_deriv(z: f64) -> (f64, f64) {
    let t = 1.0 / (1.0 + 0.5 * z);
    let val = crate::fastmath::ln(t) - z * z + erfc_poly(t);
    // B'(t), then chain through dt/dz = −t²/2; d(ln t)/dz = −t/2.
    let bp = 1.00002368
        + t * (2.0 * 0.37409196
            + t * (3.0 * 0.09678418
                + t * (4.0 * -0.18628806
                    + t * (5.0 * 0.27886807
                        + t * (6.0 * -1.13520398
                            + t * (7.0 * 1.48851587
                                + t * (8.0 * -0.82215223 + t * (9.0 * 0.17087277))))))));
    let deriv = -0.5 * t - 2.0 * z - 0.5 * t * t * bp;
    (val, deriv)
}

/// The Gaussian Q-function, `Q(x) = ½·erfc(x/√2)`.
#[inline]
pub fn q_func(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Uncoded bit error rate for a modulation at symbol SNR `snr` (linear).
///
/// These are the standard Gray-coded approximations used by the ESNR paper:
///
/// * BPSK:   `Q(√(2γ))`
/// * QPSK:   `Q(√γ)`
/// * 16-QAM: `¾·Q(√(γ/5))`
/// * 64-QAM: `7⁄12·Q(√(γ/21))`
pub fn ber(modulation: Modulation, snr_linear: f64) -> f64 {
    let g = snr_linear.max(0.0);
    match modulation {
        Modulation::Bpsk => q_func((2.0 * g).sqrt()),
        Modulation::Qpsk => q_func(g.sqrt()),
        Modulation::Qam16 => 0.75 * q_func((g / 5.0).sqrt()),
        Modulation::Qam64 => (7.0 / 12.0) * q_func((g / 21.0).sqrt()),
    }
}

/// `(c, k)` such that `ber(m, g) = c·Q(√(g/k))`.
#[inline]
fn q_params(modulation: Modulation) -> (f64, f64) {
    match modulation {
        Modulation::Bpsk => (1.0, 0.5),
        Modulation::Qpsk => (1.0, 1.0),
        Modulation::Qam16 => (0.75, 5.0),
        Modulation::Qam64 => (7.0 / 12.0, 21.0),
    }
}

/// Inverse of [`ber`]: the (linear) SNR at which the modulation attains the
/// given bit error rate.
///
/// Every modulation's BER is `c·Q(√(g/k))`, so inverting it is one erfc
/// inversion: solve `erfc(u) = 2·target/c` for `u = √(g/2k)`. A
/// probit-style initial guess is polished by safeguarded Newton iteration
/// on the analytic log-domain closed form of [`erfc`]'s approximation
/// (`ln_erfc_with_deriv`) — typically 4–6 evaluations where the former
/// geometric bisection needed ~46 full BER evaluations, and immune to the
/// underflow that makes the linear-domain function flat at high SNR. A
/// shrinking bracket guarantees convergence even if a Newton step misfires.
pub fn ber_inverse(modulation: Modulation, target_ber: f64) -> f64 {
    // Outside the achievable range, clamp to the search bounds.
    let (lo, hi) = (1e-9, 1e9);
    if target_ber >= ber(modulation, lo) {
        return lo;
    }
    if target_ber <= ber(modulation, hi) {
        return hi;
    }
    let (c, k) = q_params(modulation);
    // After the clamps, erfc(u) = y has its root strictly inside
    // [√(lo/2k), √(hi/2k)] — erfc evaluated analytically in the log domain
    // cannot underflow, so the bracket endpoints need no special cases.
    let ln_y = crate::fastmath::ln(2.0 * target_ber / c);
    let mut blo = (lo / (2.0 * k)).sqrt();
    let mut bhi = (hi / (2.0 * k)).sqrt();
    let mut u = if ln_y > -std::f64::consts::LN_2 {
        // y > ½ ⇒ small root: erfc(u) ≈ 1 − 2u/√π.
        0.886_226_925_452_758 * (1.0 - crate::fastmath::exp(ln_y))
    } else {
        // Asymptotic tail: ln erfc(u) ≈ −u² − ln(u√π).
        let u0 = (-ln_y).sqrt();
        (-ln_y - crate::fastmath::ln(1.772_453_850_905_516 * u0))
            .max(0.25)
            .sqrt()
    }
    .clamp(blo, bhi);
    for _ in 0..80 {
        let (f, df) = ln_erfc_with_deriv(u);
        let g = f - ln_y;
        if g > 0.0 {
            blo = u; // erfc(u) still above the target ⇒ root is to the right
        } else {
            bhi = u;
        }
        let mut next = u - g / df;
        if !(next > blo && next < bhi) {
            next = (blo * bhi).sqrt(); // safeguard: geometric bisection step
        }
        let done = (next - u).abs() <= 1e-14 * u;
        u = next;
        if done {
            break;
        }
    }
    2.0 * k * u * u
}

/// Effective SNR in dB for a modulation given per-subcarrier linear SNRs.
pub fn esnr_db(modulation: Modulation, snr_linear: &[f64]) -> f64 {
    if snr_linear.is_empty() {
        return -300.0;
    }
    let mean_ber =
        snr_linear.iter().map(|&s| ber(modulation, s)).sum::<f64>() / snr_linear.len() as f64;
    let e = linear_to_db(ber_inverse(modulation, mean_ber));
    // When every tone's BER underflows to zero the inversion saturates at
    // its search bound; physically the effective SNR can never exceed the
    // best tone.
    let max_tone = snr_linear.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    e.min(linear_to_db(max_tone))
}

/// Effective SNR in dB straight from a CSI measurement.
pub fn esnr_from_csi(modulation: Modulation, csi: &Csi) -> f64 {
    esnr_db(modulation, &csi.per_subcarrier_snr_linear())
}

/// Memoized per-modulation ESNR for **one** CSI snapshot.
///
/// The ESNR integration (56 BER evaluations plus a bisection inversion) is
/// the single hottest computation in the simulator: every MPDU delivery
/// draw, Block-ACK reception, rate-control decision, and controller CSI
/// report needs an ESNR, and one transmission queries the *same* snapshot
/// under several modulations (data MCS, QPSK control frames, the
/// controller's 16-QAM reference) — and an A-MPDU burst repeats the data-MCS
/// query once per MPDU. This memo computes the per-subcarrier SNR vector
/// once and each modulation's ESNR at most once, returning bit-identical
/// values to the corresponding [`esnr_from_csi`] calls (it delegates to the
/// same [`esnr_db`] on the same input — locked by `memo_matches_direct`).
pub struct EsnrMemo {
    snr_linear: [f64; NUM_SUBCARRIERS],
    cache: [Option<f64>; 4],
}

impl EsnrMemo {
    /// Captures the snapshot's per-subcarrier SNRs (computed once).
    pub fn new(csi: &Csi) -> Self {
        EsnrMemo {
            snr_linear: csi.per_subcarrier_snr_linear(),
            cache: [None; 4],
        }
    }

    /// The best tone's SNR in dB — an exact upper bound on
    /// [`Self::esnr_db`] for **every** modulation, since `esnr_db` clamps
    /// to it. One pass over the SNR vector, no BER work: rankers use it to
    /// skip the full integration for snapshots that cannot beat an
    /// incumbent (the comparison is bit-exact because the clamp inside
    /// `esnr_db` computes the identical fold).
    pub fn best_tone_db(&self) -> f64 {
        let max_tone = self
            .snr_linear
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        linear_to_db(max_tone)
    }

    /// The snapshot's ESNR in dB for `modulation`, computed on first use.
    pub fn esnr_db(&mut self, modulation: Modulation) -> f64 {
        let i = modulation.index();
        if let Some(v) = self.cache[i] {
            return v;
        }
        let v = esnr_db(modulation, &self.snr_linear);
        self.cache[i] = Some(v);
        v
    }
}

/// The scalar ESNR used by the WGTT controller for AP ranking.
///
/// The paper computes "the" ESNR of each reading; ranking quality is
/// insensitive to the reference modulation as long as it is applied
/// uniformly, and 16-QAM sits in the middle of the operating range, so we
/// adopt it as the reference.
pub fn controller_esnr_db(csi: &Csi) -> f64 {
    esnr_from_csi(Modulation::Qam16, csi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Cplx;
    use crate::pathloss::db_to_linear;

    #[test]
    fn erfc_reference_values() {
        // erfc(0) = 1, erfc(∞) → 0, erfc(−x) = 2 − erfc(x).
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!(erfc(5.0) < 1e-11);
        assert!((erfc(-1.0) + erfc(1.0) - 2.0).abs() < 1e-7);
        // erfc(1) ≈ 0.157299.
        assert!((erfc(1.0) - 0.157299).abs() < 1e-5);
        // erfc(0.5) ≈ 0.479500.
        assert!((erfc(0.5) - 0.4795).abs() < 1e-4);
    }

    #[test]
    fn q_func_reference() {
        // Q(0) = 0.5, Q(1.6449) ≈ 0.05.
        assert!((q_func(0.0) - 0.5).abs() < 1e-6);
        assert!((q_func(1.6449) - 0.05).abs() < 1e-4);
    }

    #[test]
    fn ber_ordering_by_modulation() {
        // At a fixed SNR, denser constellations have a higher BER.
        let g = db_to_linear(12.0);
        assert!(ber(Modulation::Bpsk, g) < ber(Modulation::Qpsk, g));
        assert!(ber(Modulation::Qpsk, g) < ber(Modulation::Qam16, g));
        assert!(ber(Modulation::Qam16, g) < ber(Modulation::Qam64, g));
    }

    #[test]
    fn ber_decreasing_in_snr() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            let mut prev = ber(m, db_to_linear(-5.0));
            for db in [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0] {
                let b = ber(m, db_to_linear(db));
                assert!(b < prev);
                prev = b;
            }
        }
    }

    #[test]
    fn ber_inverse_roundtrip() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            for db in [2.0, 8.0, 14.0, 20.0, 26.0] {
                let g = db_to_linear(db);
                let b = ber(m, g);
                if b > 1e-14 {
                    let back = ber_inverse(m, b);
                    assert!(
                        (linear_to_db(back) - db).abs() < 0.01,
                        "{m:?} {db} dB -> {} dB",
                        linear_to_db(back)
                    );
                }
            }
        }
    }

    /// The pre-Newton reference implementation: geometric bisection over
    /// the same [`ber`], kept to pin the fast inversion's accuracy.
    fn ber_inverse_bisect(modulation: Modulation, target_ber: f64) -> f64 {
        let (mut lo, mut hi) = (1e-9, 1e9);
        if target_ber >= ber(modulation, lo) {
            return lo;
        }
        if target_ber <= ber(modulation, hi) {
            return hi;
        }
        for _ in 0..200 {
            let mid = (lo * hi).sqrt();
            if ber(modulation, mid) > target_ber {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi / lo < 1.0 + 1e-12 {
                break;
            }
        }
        (lo * hi).sqrt()
    }

    #[test]
    fn newton_inverse_matches_bisection_reference() {
        for m in Modulation::ALL {
            // SNR grid from −80 to +80 dB: targets from ~c/2 down past the
            // underflow floor of the linear-domain erfc (where both sides
            // must clamp identically).
            for i in 0..=400 {
                let db = -80.0 + 0.4 * i as f64;
                let t = ber(m, db_to_linear(db));
                let got = ber_inverse(m, t);
                let want = ber_inverse_bisect(m, t);
                let rel = ((got - want) / want).abs();
                assert!(
                    rel < 1e-9,
                    "{m:?} target {t:e}: newton {got:e} vs bisect {want:e}"
                );
            }
        }
    }

    #[test]
    fn flat_channel_esnr_equals_snr() {
        let snrs = vec![db_to_linear(18.0); 56];
        let e = esnr_db(Modulation::Qam16, &snrs);
        assert!((e - 18.0).abs() < 0.05, "esnr {e}");
    }

    #[test]
    fn esnr_below_mean_on_selective_channel() {
        // 55 subcarriers at 25 dB, one at −5 dB: the mean SNR stays ≈24.9 dB
        // but ESNR must drop noticeably below it.
        let mut snrs = vec![db_to_linear(25.0); 55];
        snrs.push(db_to_linear(-5.0));
        let e = esnr_db(Modulation::Qam16, &snrs);
        assert!(e < 20.0, "esnr {e}");
        // And ESNR never exceeds the best subcarrier.
        assert!(e > -5.1);
    }

    #[test]
    fn esnr_from_csi_consistent() {
        let csi = Csi {
            h: [Cplx::ONE; 56],
            mean_snr_db: 21.0,
        };
        let e = esnr_from_csi(Modulation::Qam16, &csi);
        assert!((e - 21.0).abs() < 0.05);
        let c = controller_esnr_db(&csi);
        assert!((c - e).abs() < 1e-12);
    }

    #[test]
    fn empty_input_is_floor() {
        assert_eq!(esnr_db(Modulation::Qpsk, &[]), -300.0);
    }

    #[test]
    fn memo_matches_direct() {
        // The memo must be bit-identical to per-call esnr_from_csi — it is
        // a pure cache, not a numerical shortcut.
        let mut h = [Cplx::ZERO; 56];
        for (i, x) in h.iter_mut().enumerate() {
            let re = 0.3 + (i as f64 * 0.37).sin();
            let im = (i as f64 * 0.11).cos() * 0.8;
            *x = Cplx::new(re, im);
        }
        let csi = Csi {
            h,
            mean_snr_db: 17.3,
        };
        let mut memo = EsnrMemo::new(&csi);
        for m in Modulation::ALL {
            let direct = esnr_from_csi(m, &csi);
            // Repeated queries hit the cache and must not drift.
            assert_eq!(memo.esnr_db(m).to_bits(), direct.to_bits(), "{m:?}");
            assert_eq!(memo.esnr_db(m).to_bits(), direct.to_bits(), "{m:?}");
        }
    }

    #[test]
    fn best_tone_bounds_every_modulation() {
        let mut h = [Cplx::ZERO; 56];
        for (i, x) in h.iter_mut().enumerate() {
            *x = Cplx::new(0.2 + (i as f64 * 0.53).sin(), (i as f64 * 0.29).cos() * 1.1);
        }
        for snr in [-3.0, 8.0, 19.0, 33.0] {
            let csi = Csi {
                h,
                mean_snr_db: snr,
            };
            let mut memo = EsnrMemo::new(&csi);
            let bound = memo.best_tone_db();
            for m in Modulation::ALL {
                assert!(memo.esnr_db(m) <= bound, "{m:?} at {snr} dB");
            }
        }
    }

    #[test]
    fn modulation_index_roundtrip() {
        for (i, m) in Modulation::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
    }

    #[test]
    fn esnr_saturates_at_best_tone() {
        // BER underflow at very high SNR must not blow ESNR past the best
        // subcarrier.
        let snrs = vec![db_to_linear(34.5)];
        let e = esnr_db(Modulation::Bpsk, &snrs);
        assert!((e - 34.5).abs() < 0.01, "esnr {e}");
    }

    #[test]
    fn bits_per_symbol() {
        assert_eq!(Modulation::Bpsk.bits_per_symbol(), 1);
        assert_eq!(Modulation::Qpsk.bits_per_symbol(), 2);
        assert_eq!(Modulation::Qam16.bits_per_symbol(), 4);
        assert_eq!(Modulation::Qam64.bits_per_symbol(), 6);
    }
}
