//! Estimation confidence (paper §5, "Estimation confidence").
//!
//! With the fitted `(n, Γ)`, the per-sample noise is
//! `δRS_i = RS_i − R̂S_i`. Ideally `δRS ~ N(0, σ)`; in practice its mean
//! `µ` drifts away from zero when the model mismatches reality. The
//! paper treats `P(µ)` under `N(0, σ)` as the estimation confidence —
//! implemented here as the two-sided tail probability
//! `2·(1 − Φ(|µ|/σ))`, which is 1 for a perfectly centered residual and
//! decays toward 0 as the bias grows relative to the spread.

use crate::regression::RssPoint;
use locble_geom::Vec2;
use locble_rf::MIN_RANGE_M;

/// Error function (Abramowitz & Stegun 7.1.26, |error| ≤ 1.5e−7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal CDF.
pub fn phi(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// The residual `δRS = RS − R̂S` of one fused sample under a fitted
/// `(position, Γ, n)` model; the range is clamped to `MIN_RANGE_M`.
#[inline]
fn residual_db(pt: &RssPoint, position: Vec2, gamma_dbm: f64, exponent: f64) -> f64 {
    let l = Vec2::new(position.x + pt.p, position.y + pt.q)
        .norm()
        .max(MIN_RANGE_M);
    pt.rss - (gamma_dbm - 10.0 * exponent * l.log10())
}

/// Both goodness-of-fit figures of a fitted `(position, Γ, n)` from one
/// residual pass: the per-sample residuals are written to `residuals`
/// (cleared first, capacity kept, so a warm caller stays off the heap)
/// and the estimation confidence and the RMS residual (dB) fold over
/// that buffer in sample order. Degenerate inputs: fewer than 3 samples
/// have confidence 0, no samples an RMS of 0.
pub fn fit_quality(
    points: &[RssPoint],
    position: Vec2,
    gamma_dbm: f64,
    exponent: f64,
    residuals: &mut Vec<f64>,
) -> (f64, f64) {
    residuals.clear();
    residuals.extend(
        points
            .iter()
            .map(|pt| residual_db(pt, position, gamma_dbm, exponent)),
    );
    if residuals.is_empty() {
        return (0.0, 0.0);
    }
    let n = residuals.len() as f64;
    let rms = (residuals.iter().map(|r| r * r).sum::<f64>() / n).sqrt();
    if residuals.len() < 3 {
        return (0.0, rms);
    }
    let mu = residuals.iter().sum::<f64>() / n;
    let var = residuals.iter().map(|r| (r - mu) * (r - mu)).sum::<f64>() / n;
    // Physical noise floor: RSSI is quantized to 1 dB and chipset noise
    // never vanishes, so a residual spread below ~0.5 dB carries no
    // information about bias — without the floor a numerically perfect
    // fit would divide float noise by float noise.
    let sigma = var.sqrt().max(0.5);
    let confidence = (2.0 * (1.0 - phi(mu.abs() / sigma))).clamp(0.0, 1.0);
    (confidence, rms)
}

/// Computes the estimation confidence of a candidate `(position, Γ, n)`
/// against the fused samples. Returns a value in `[0, 1]`; degenerate
/// inputs (fewer than 3 samples, zero spread with bias) map to the
/// appropriate extreme. Allocates its residual buffer; the estimator's
/// refit calls [`fit_quality`] with a reused one instead.
pub fn estimation_confidence(
    points: &[RssPoint],
    position: Vec2,
    gamma_dbm: f64,
    exponent: f64,
) -> f64 {
    fit_quality(points, position, gamma_dbm, exponent, &mut Vec::new()).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // The A&S 7.1.26 approximation is accurate to ~1.5e-7.
        assert!(erf(0.0).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953222650).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!(erf(5.0) > 0.999999);
    }

    #[test]
    fn phi_reference_values() {
        assert!((phi(0.0) - 0.5).abs() < 1e-7);
        assert!((phi(1.96) - 0.975).abs() < 1e-3);
        assert!((phi(-1.96) - 0.025).abs() < 1e-3);
    }

    fn points_with_residuals(residuals: &[f64]) -> (Vec<RssPoint>, Vec2, f64, f64) {
        // Target at (3,4), Γ=−59, n=2; inject the given residuals.
        let target = Vec2::new(3.0, 4.0);
        let pts: Vec<RssPoint> = residuals
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let p = -(i as f64 * 0.5);
                let l = Vec2::new(target.x + p, target.y).norm().max(MIN_RANGE_M);
                RssPoint {
                    p,
                    q: 0.0,
                    rss: -59.0 - 20.0 * l.log10() + r,
                }
            })
            .collect();
        (pts, target, -59.0, 2.0)
    }

    #[test]
    fn perfect_fit_has_full_confidence() {
        let (pts, pos, g, n) = points_with_residuals(&[0.0; 10]);
        assert!((estimation_confidence(&pts, pos, g, n) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn centered_noise_keeps_high_confidence() {
        let r: Vec<f64> = (0..20)
            .map(|i| if i % 2 == 0 { 1.5 } else { -1.5 })
            .collect();
        let (pts, pos, g, n) = points_with_residuals(&r);
        let c = estimation_confidence(&pts, pos, g, n);
        assert!(c > 0.9, "confidence {c}");
    }

    #[test]
    fn biased_residuals_lower_confidence() {
        // Mean 3 dB bias with ±1.5 dB spread: |µ|/σ = 2 → low confidence.
        let r: Vec<f64> = (0..20)
            .map(|i| 3.0 + if i % 2 == 0 { 1.5 } else { -1.5 })
            .collect();
        let (pts, pos, g, n) = points_with_residuals(&r);
        let c = estimation_confidence(&pts, pos, g, n);
        assert!(c < 0.1, "confidence {c}");
    }

    #[test]
    fn confidence_monotone_in_bias() {
        let mut prev = 1.1;
        for bias in [0.0, 0.5, 1.0, 2.0, 4.0] {
            let r: Vec<f64> = (0..30)
                .map(|i| bias + if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect();
            let (pts, pos, g, n) = points_with_residuals(&r);
            let c = estimation_confidence(&pts, pos, g, n);
            assert!(c < prev + 1e-9, "bias {bias}: {c} vs prev {prev}");
            prev = c;
        }
    }

    #[test]
    fn too_few_samples_zero_confidence() {
        let (pts, pos, g, n) = points_with_residuals(&[0.0, 0.0]);
        assert_eq!(estimation_confidence(&pts, pos, g, n), 0.0);
    }

    #[test]
    fn constant_bias_with_zero_spread_is_near_zero() {
        // With the 0.5 dB noise floor, a 2 dB pure bias is a 4σ event.
        let (pts, pos, g, n) = points_with_residuals(&[2.0; 8]);
        assert!(estimation_confidence(&pts, pos, g, n) < 1e-3);
    }

    /// Regression: an observation taken exactly at the estimated beacon
    /// position (zero range) must clamp to `MIN_RANGE_M` instead of
    /// producing `log10(0) = -inf` residuals and a NaN confidence.
    #[test]
    fn zero_distance_observation_stays_finite() {
        let (mut pts, pos, g, n) = points_with_residuals(&[0.0; 6]);
        // Displacement that puts the observer exactly on the beacon.
        pts.push(RssPoint {
            p: -pos.x,
            q: -pos.y,
            rss: g,
        });
        let c = estimation_confidence(&pts, pos, g, n);
        assert!(c.is_finite(), "confidence must stay finite, got {c}");
        assert!((0.0..=1.0).contains(&c));
    }

    /// The one-pass form is bit-identical to the three passes it
    /// replaced: mean then variance for the confidence, recomputing each
    /// residual, and a separate pass for the RMS.
    #[test]
    fn fit_quality_matches_the_three_pass_form_bit_for_bit() {
        fn three_pass(pts: &[RssPoint], pos: Vec2, g: f64, n: f64) -> (f64, f64) {
            let residual = |pt: &RssPoint| {
                let l = Vec2::new(pos.x + pt.p, pos.y + pt.q)
                    .norm()
                    .max(MIN_RANGE_M);
                pt.rss - (g - 10.0 * n * l.log10())
            };
            let confidence = if pts.len() < 3 {
                0.0
            } else {
                let len = pts.len() as f64;
                let mu = pts.iter().map(residual).sum::<f64>() / len;
                let var = pts
                    .iter()
                    .map(|pt| {
                        let r = residual(pt);
                        (r - mu) * (r - mu)
                    })
                    .sum::<f64>()
                    / len;
                let sigma = var.sqrt().max(0.5);
                (2.0 * (1.0 - phi(mu.abs() / sigma))).clamp(0.0, 1.0)
            };
            (
                confidence,
                crate::regression::rss_residual_db(pts, pos, g, n),
            )
        }
        let mut buf = Vec::new();
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for len in 0..40 {
            let pts: Vec<RssPoint> = (0..len)
                .map(|_| RssPoint {
                    p: next() * 8.0 - 4.0,
                    q: next() * 8.0 - 4.0,
                    rss: -55.0 - next() * 35.0,
                })
                .collect();
            let pos = Vec2::new(next() * 10.0 - 5.0, next() * 10.0 - 5.0);
            let (g, n) = (-50.0 - next() * 20.0, 1.5 + next() * 2.5);
            let (c, rms) = fit_quality(&pts, pos, g, n, &mut buf);
            let (c_ref, rms_ref) = three_pass(&pts, pos, g, n);
            assert_eq!(c.to_bits(), c_ref.to_bits(), "confidence, {len} samples");
            assert_eq!(rms.to_bits(), rms_ref.to_bits(), "rms, {len} samples");
        }
    }
}
