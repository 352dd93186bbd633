//! Deterministic transcendental kernels for the physics hot path.
//!
//! The simulator's two hottest computations — the sum-of-sinusoids fading
//! evaluator and the BER/effective-SNR integration — are dominated not by
//! arithmetic but by `libm` calls (`sin`, `cos`, `exp`). Routing them
//! through in-repo kernels buys two things:
//!
//! 1. **Determinism across hosts.** `libm` results for transcendentals are
//!    not specified bit-for-bit and have changed between glibc releases.
//!    Every metric fingerprint the determinism suites pin would silently
//!    depend on the host libc; with these kernels the physics is pure Rust
//!    arithmetic and reproduces bit-identically anywhere.
//! 2. **Throughput.** One fused [`sincos`] halves the call count of the
//!    fading evaluator's `e^{jθ}` phasors, and the kernels inline into
//!    their (non-vectorized but call-free) call sites.
//!
//! The algorithms are the classical fdlibm ones (Cody–Waite argument
//! reduction, minimax polynomial kernels) with accuracy ~1 ulp for [`exp`]
//! and ~2 ulp for [`sincos`] over the argument ranges the simulator uses
//! (|x| < 2²⁰ radians; larger arguments fall back to `std`). That is far
//! tighter than any physical parameter in the model; the channel model is
//! unchanged, only its last-ulp realization differs from libm.

// The constants below are fdlibm's, kept textually faithful to the
// reference implementation: several shadow `std::f64::consts` values or
// carry more digits than f64 resolves, and rewriting them would obscure
// the provenance the kernels' accuracy argument rests on.
#![allow(clippy::approx_constant, clippy::excessive_precision)]

/// 2/π, for quadrant selection.
const INV_PIO2: f64 = 6.366_197_723_675_813_8e-1;
/// First 33 bits of π/2.
const PIO2_1: f64 = 1.570_796_326_734_125_6;
/// Second 33 bits of π/2.
const PIO2_2: f64 = 6.077_100_506_303_966e-11;
/// π/2 − PIO2_1 − PIO2_2, to full precision.
const PIO2_2T: f64 = 2.022_266_248_795_950_6e-21;

// Minimax sine kernel coefficients on [−π/4, π/4] (fdlibm k_sin).
const S1: f64 = -1.666_666_666_666_663_2e-1;
const S2: f64 = 8.333_333_333_322_489e-3;
const S3: f64 = -1.984_126_982_985_795e-4;
const S4: f64 = 2.755_731_370_707_007e-6;
const S5: f64 = -2.505_076_025_340_686_4e-8;
const S6: f64 = 1.589_690_995_211_55e-10;

// Minimax cosine kernel coefficients on [−π/4, π/4] (fdlibm k_cos).
const C1: f64 = 4.166_666_666_666_66e-2;
const C2: f64 = -1.388_888_888_887_411e-3;
const C3: f64 = 2.480_158_728_947_673e-5;
const C4: f64 = -2.755_731_435_139_066_4e-7;
const C5: f64 = 2.087_572_321_298_175e-9;
const C6: f64 = -1.135_964_755_778_819_5e-11;

/// Sine of a kernel-range argument (|r| ≲ π/4).
#[inline]
fn k_sin(r: f64) -> f64 {
    let z = r * r;
    r + r * z * (S1 + z * (S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)))))
}

/// Cosine of a kernel-range argument (|r| ≲ π/4).
#[inline]
fn k_cos(r: f64) -> f64 {
    let z = r * r;
    1.0 - 0.5 * z + z * z * (C1 + z * (C2 + z * (C3 + z * (C4 + z * (C5 + z * C6)))))
}

/// Bound of the Cody–Waite reduction: beyond it precision degrades, so
/// [`sincos`] falls back to `std` (the simulator's phases never get there).
const REDUCTION_BOUND: f64 = 1.0e6;

/// `(sin x, cos x)` with one fused argument reduction.
///
/// Accuracy ~2 ulp for |x| < `REDUCTION_BOUND`; exact `std` fallback
/// outside. NaN/∞ propagate as NaN.
#[inline]
pub fn sincos(x: f64) -> (f64, f64) {
    // Negated comparison on purpose: NaN fails `<` and takes the fallback.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(x.abs() < REDUCTION_BOUND) {
        // Huge, NaN or infinite: take libm's argument reduction.
        return (x.sin(), x.cos());
    }
    let fk = (x * INV_PIO2).round();
    // Two-stage Cody–Waite reduction: r = x − k·π/2 to ~2⁻⁷⁰ even after
    // the cancellation a 2²⁰-sized k causes.
    let t = x - fk * PIO2_1;
    let w2 = fk * PIO2_2;
    let r2 = t - w2;
    let w3 = fk * PIO2_2T - ((t - r2) - w2);
    let r = r2 - w3;
    let s = k_sin(r);
    let c = k_cos(r);
    match (fk as i64) & 3 {
        0 => (s, c),
        1 => (c, -s),
        2 => (-s, -c),
        _ => (-c, s),
    }
}

/// `sin x` via [`sincos`].
#[inline]
pub fn sin(x: f64) -> f64 {
    sincos(x).0
}

/// `cos x` via [`sincos`].
#[inline]
pub fn cos(x: f64) -> f64 {
    sincos(x).1
}

/// ln 2, split for exact reduction (fdlibm e_exp).
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// 1/ln 2.
const INV_LN2: f64 = 1.442_695_040_888_963_4;

// exp rational-kernel coefficients (fdlibm e_exp).
const P1: f64 = 1.666_666_666_666_660_2e-1;
const P2: f64 = -2.777_777_777_015_593_4e-3;
const P3: f64 = 6.613_756_321_437_934e-5;
const P4: f64 = -1.653_390_220_546_525_2e-6;
const P5: f64 = 4.138_136_797_057_238_4e-8;

/// Smallest argument with a non-zero (subnormal) result.
const EXP_UNDERFLOW: f64 = -745.133_219_101_941_2;
/// Largest argument with a finite result.
const EXP_OVERFLOW: f64 = 709.782_712_893_384;

/// `e^x`, accurate to ~1 ulp, with exact overflow/underflow saturation.
#[inline]
pub fn exp(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    if x > EXP_OVERFLOW {
        return f64::INFINITY;
    }
    if x < EXP_UNDERFLOW {
        return 0.0;
    }
    if x.abs() < 3.725_290_298_461_914e-9 {
        // |x| < 2⁻²⁸: 1 + x already rounds correctly.
        return 1.0 + x;
    }
    let fk = (x * INV_LN2).round();
    let hi = x - fk * LN2_HI;
    let lo = fk * LN2_LO;
    let r = hi - lo;
    let t = r * r;
    let c = r - t * (P1 + t * (P2 + t * (P3 + t * (P4 + t * P5))));
    let y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    scale_by_pow2(y, fk as i32)
}

// ln mantissa-series coefficients (fdlibm e_log).
const LG1: f64 = 6.666_666_666_666_735e-1;
const LG2: f64 = 3.999_999_999_940_942e-1;
const LG3: f64 = 2.857_142_874_366_239e-1;
const LG4: f64 = 2.222_219_843_214_978_4e-1;
const LG5: f64 = 1.818_357_216_161_805e-1;
const LG6: f64 = 1.531_383_769_920_937_3e-1;
const LG7: f64 = 1.479_819_860_511_658_6e-1;

/// Natural logarithm, accurate to ~1 ulp, defined down to the subnormals.
///
/// `ln 0 = −∞`, negative arguments give NaN, NaN/∞ propagate.
#[inline]
pub fn ln(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f64::NEG_INFINITY;
    }
    if x < 0.0 {
        return f64::NAN;
    }
    let mut k: i32 = 0;
    let mut x = x;
    if x < f64::MIN_POSITIVE {
        // Subnormal: renormalize exactly by 2⁵⁴.
        x *= 1.801_439_850_948_198_4e16;
        k -= 54;
    }
    let bits = x.to_bits();
    k += ((bits >> 52) as i32 & 0x7ff) - 1023;
    // Mantissa in [1, 2), then fold into [√2/2, √2) so f = m − 1 is small.
    let mut f = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
    if f > std::f64::consts::SQRT_2 {
        f *= 0.5;
        k += 1;
    }
    let kf = k as f64;
    let f = f - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t1 + t2;
    let hfsq = 0.5 * f * f;
    kf * LN2_HI - ((hfsq - (s * (hfsq + r) + kf * LN2_LO)) - f)
}

/// `y · 2^k` via exponent arithmetic, correct into the subnormal range.
#[inline]
fn scale_by_pow2(y: f64, k: i32) -> f64 {
    if k >= -1021 {
        f64::from_bits(y.to_bits().wrapping_add((k as u64) << 52))
    } else {
        // Subnormal result: scale in two hops so the intermediate stays
        // normal.
        let part = f64::from_bits(y.to_bits().wrapping_add(((k + 1000) as u64) << 52));
        part * f64::from_bits((1023u64 - 1000) << 52)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift for test point generation.
    fn xorshift(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn sincos_matches_libm_small_args() {
        let mut s = 0x9e3779b97f4a7c15u64;
        for _ in 0..20_000 {
            let x = (xorshift(&mut s) - 0.5) * 20.0;
            let (sn, cs) = sincos(x);
            assert!((sn - x.sin()).abs() < 1e-15, "sin({x})");
            assert!((cs - x.cos()).abs() < 1e-15, "cos({x})");
        }
    }

    #[test]
    fn sincos_matches_libm_fading_phase_range() {
        // Doppler phases: 2π · f_d · t reaches ~10⁵ rad over a long run.
        let mut s = 0x1234_5678_9abc_def1u64;
        for _ in 0..20_000 {
            let x = (xorshift(&mut s) - 0.5) * 4.0e5;
            let (sn, cs) = sincos(x);
            assert!(
                (sn - x.sin()).abs() < 1e-12,
                "sin({x}) = {sn} vs {}",
                x.sin()
            );
            assert!(
                (cs - x.cos()).abs() < 1e-12,
                "cos({x}) = {cs} vs {}",
                x.cos()
            );
        }
    }

    #[test]
    fn sincos_huge_and_nonfinite_fall_back() {
        for x in [1.0e7, -3.0e9, 1.0e18] {
            let (sn, cs) = sincos(x);
            assert_eq!(sn.to_bits(), x.sin().to_bits());
            assert_eq!(cs.to_bits(), x.cos().to_bits());
        }
        let (sn, cs) = sincos(f64::NAN);
        assert!(sn.is_nan() && cs.is_nan());
        let (sn, cs) = sincos(f64::INFINITY);
        assert!(sn.is_nan() && cs.is_nan());
    }

    #[test]
    fn sincos_pythagorean_identity() {
        let mut s = 0xfeed_beef_cafe_f00du64;
        for _ in 0..10_000 {
            let x = (xorshift(&mut s) - 0.5) * 1.0e5;
            let (sn, cs) = sincos(x);
            assert!((sn * sn + cs * cs - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn exp_matches_libm() {
        let mut s = 0xdead_beef_1234_5678u64;
        for _ in 0..20_000 {
            let x = (xorshift(&mut s) - 0.5) * 1400.0;
            let want = x.exp();
            let got = exp(x);
            if want == 0.0 || want.is_infinite() {
                assert_eq!(got, want, "exp({x})");
            } else {
                let rel = ((got - want) / want).abs();
                assert!(rel < 1e-14, "exp({x}) = {got} vs {want}");
            }
        }
    }

    #[test]
    fn exp_special_cases() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(f64::NEG_INFINITY), 0.0);
        assert!(exp(f64::NAN).is_nan());
        assert_eq!(exp(710.0), f64::INFINITY);
        assert_eq!(exp(-746.0), 0.0);
        // Deep in the subnormal range the kernel must still agree with libm
        // to a few ulps of the subnormal.
        for x in [-709.0, -720.0, -740.0, -745.0] {
            let want = f64::exp(x);
            let got = exp(x);
            let diff = (got - want).abs();
            assert!(
                diff <= 4.0 * f64::EPSILON * want.max(f64::MIN_POSITIVE),
                "exp({x}): {got} vs {want}"
            );
        }
    }

    #[test]
    fn ln_matches_libm() {
        let mut s = 0x0bad_cafe_dead_f00du64;
        for _ in 0..20_000 {
            // Log-uniform over ~±300 decades, the whole BER range.
            let e = (xorshift(&mut s) - 0.5) * 1380.0;
            let x = f64::exp(e);
            let want = x.ln();
            let got = ln(x);
            assert!(
                (got - want).abs() <= 2.0 * f64::EPSILON * want.abs().max(1.0),
                "ln({x:e}) = {got} vs {want}"
            );
        }
    }

    #[test]
    fn ln_subnormals_and_special_cases() {
        for x in [5e-324f64, 1e-320, 2.2e-308] {
            let want = x.ln();
            let got = ln(x);
            assert!((got - want).abs() < 1e-12 * want.abs(), "ln({x:e})");
        }
        assert_eq!(ln(1.0), 0.0);
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert!(ln(-1.0).is_nan());
        assert!(ln(f64::NAN).is_nan());
        assert_eq!(ln(f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn exp_monotone_near_one() {
        // The |x| < 2⁻²⁸ shortcut must splice monotonically into the kernel.
        let eps = 3.7e-9;
        assert!(exp(-eps) < exp(-eps / 2.0));
        assert!(exp(-eps / 2.0) < 1.0 + 1e-12);
        assert!(exp(eps / 2.0) < exp(eps));
    }
}
