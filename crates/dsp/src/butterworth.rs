//! Butterworth low-pass filter design and second-order-section filtering.
//!
//! LocBLE's noise filter (paper §4.2) removes fast fading from raw RSS with
//! a **6th-order Butterworth low-pass filter**. We design the filter the
//! classical way: split the analog Butterworth prototype into second-order
//! sections (plus a first-order section for odd orders) and map each to a
//! digital biquad with the bilinear transform, pre-warping the cutoff so
//! the −3 dB point lands where requested.
//!
//! The high order is what gives the paper's Fig. 4 its visible group delay;
//! the AKF in [`crate::kalman`] exists to compensate exactly that.

/// One direct-form-I biquad section: `y = (b0·x + b1·x1 + b2·x2 − a1·y1 − a2·y2)`.
#[derive(Debug, Clone)]
pub struct Biquad {
    /// Numerator coefficients (normalized so `a0 = 1`).
    pub b: [f64; 3],
    /// Denominator coefficients `[a1, a2]` (with `a0 = 1` implied).
    pub a: [f64; 2],
    x1: f64,
    x2: f64,
    y1: f64,
    y2: f64,
}

impl Biquad {
    /// Creates a section from already-normalized coefficients.
    pub fn new(b: [f64; 3], a: [f64; 2]) -> Self {
        Biquad {
            b,
            a,
            x1: 0.0,
            x2: 0.0,
            y1: 0.0,
            y2: 0.0,
        }
    }

    /// Designs a 2nd-order Butterworth low-pass stage with quality factor
    /// `q` (RBJ audio-EQ-cookbook bilinear design).
    ///
    /// # Panics
    /// Panics unless `0 < cutoff_hz < fs/2`.
    pub fn lowpass(cutoff_hz: f64, fs: f64, q: f64) -> Self {
        assert!(
            cutoff_hz > 0.0 && cutoff_hz < fs / 2.0,
            "cutoff must be in (0, fs/2): cutoff={cutoff_hz}, fs={fs}"
        );
        let w0 = 2.0 * std::f64::consts::PI * cutoff_hz / fs;
        let (sw, cw) = w0.sin_cos();
        let alpha = sw / (2.0 * q);
        let a0 = 1.0 + alpha;
        Biquad::new(
            [
                (1.0 - cw) / 2.0 / a0,
                (1.0 - cw) / a0,
                (1.0 - cw) / 2.0 / a0,
            ],
            [-2.0 * cw / a0, (1.0 - alpha) / a0],
        )
    }

    /// Designs a 1st-order low-pass stage (used for odd filter orders),
    /// expressed as a degenerate biquad.
    pub fn lowpass_first_order(cutoff_hz: f64, fs: f64) -> Self {
        assert!(
            cutoff_hz > 0.0 && cutoff_hz < fs / 2.0,
            "cutoff must be in (0, fs/2): cutoff={cutoff_hz}, fs={fs}"
        );
        // Bilinear transform of H(s) = ωc / (s + ωc) with pre-warping.
        let wc = (std::f64::consts::PI * cutoff_hz / fs).tan();
        let a0 = wc + 1.0;
        Biquad::new([wc / a0, wc / a0, 0.0], [(wc - 1.0) / a0, 0.0])
    }

    /// Processes one sample.
    pub fn step(&mut self, x: f64) -> f64 {
        let y = self.b[0] * x + self.b[1] * self.x1 + self.b[2] * self.x2
            - self.a[0] * self.y1
            - self.a[1] * self.y2;
        self.x2 = self.x1;
        self.x1 = x;
        self.y2 = self.y1;
        self.y1 = y;
        y
    }

    /// Resets the filter state to zero.
    pub fn reset(&mut self) {
        self.x1 = 0.0;
        self.x2 = 0.0;
        self.y1 = 0.0;
        self.y2 = 0.0;
    }

    /// Primes the section's delay line as if it had seen `value` forever;
    /// avoids the startup transient when filtering signals with a large DC
    /// component such as RSS around −70 dBm.
    pub fn prime(&mut self, value: f64) {
        // Steady state: x* = value, y* = value · H(1) where H(1) is DC gain.
        let dc = (self.b[0] + self.b[1] + self.b[2]) / (1.0 + self.a[0] + self.a[1]);
        self.x1 = value;
        self.x2 = value;
        self.y1 = value * dc;
        self.y2 = value * dc;
    }

    /// DC gain of the section.
    pub fn dc_gain(&self) -> f64 {
        (self.b[0] + self.b[1] + self.b[2]) / (1.0 + self.a[0] + self.a[1])
    }

    /// Magnitude response at frequency `f_hz` given sample rate `fs`.
    pub fn magnitude_at(&self, f_hz: f64, fs: f64) -> f64 {
        let w = 2.0 * std::f64::consts::PI * f_hz / fs;
        // |H(e^{jw})| via complex evaluation.
        let (re_n, im_n) = polyval_ejw(&[self.b[0], self.b[1], self.b[2]], w);
        let (re_d, im_d) = polyval_ejw(&[1.0, self.a[0], self.a[1]], w);
        ((re_n * re_n + im_n * im_n) / (re_d * re_d + im_d * im_d)).sqrt()
    }
}

/// Evaluates `Σ c_k e^{-jwk}` returning `(re, im)`.
fn polyval_ejw(coeffs: &[f64], w: f64) -> (f64, f64) {
    let mut re = 0.0;
    let mut im = 0.0;
    for (k, &c) in coeffs.iter().enumerate() {
        let phase = -(k as f64) * w;
        re += c * phase.cos();
        im += c * phase.sin();
    }
    (re, im)
}

/// A cascade of biquad sections (second-order-sections filter).
#[derive(Debug, Clone)]
pub struct SosFilter {
    sections: Vec<Biquad>,
    primed: bool,
}

impl SosFilter {
    /// Builds a cascade from sections.
    pub fn new(sections: Vec<Biquad>) -> Self {
        SosFilter {
            sections,
            primed: false,
        }
    }

    /// Number of biquad sections.
    pub fn num_sections(&self) -> usize {
        self.sections.len()
    }

    /// Processes one sample through the cascade. The first sample primes
    /// every section to its own value, suppressing the zero-state startup
    /// transient (RSS signals sit near −70 dBm, far from zero).
    pub fn step(&mut self, x: f64) -> f64 {
        if !self.primed {
            for s in &mut self.sections {
                s.prime(x);
            }
            self.primed = true;
        }
        let mut v = x;
        for s in &mut self.sections {
            v = s.step(v);
        }
        v
    }

    /// Filters a whole signal, allocating the output.
    pub fn filter(&mut self, signal: &[f64]) -> Vec<f64> {
        signal.iter().map(|&x| self.step(x)).collect()
    }

    /// Filters a whole signal into a caller-owned buffer (cleared first),
    /// reusing its capacity. Output is bit-identical to [`filter`]
    /// (same per-sample cascade).
    ///
    /// [`filter`]: Self::filter
    pub fn filter_into(&mut self, signal: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(signal.iter().map(|&x| self.step(x)));
    }

    /// Filters a buffer in place (each sample replaced by the cascade
    /// output), bit-identical to [`filter`](Self::filter) on the same
    /// input sequence.
    pub fn filter_in_place(&mut self, buf: &mut [f64]) {
        for x in buf {
            *x = self.step(*x);
        }
    }

    /// Resets all sections (and the priming flag).
    pub fn reset(&mut self) {
        for s in &mut self.sections {
            s.reset();
        }
        self.primed = false;
    }

    /// Cascade magnitude response at `f_hz`.
    pub fn magnitude_at(&self, f_hz: f64, fs: f64) -> f64 {
        self.sections
            .iter()
            .map(|s| s.magnitude_at(f_hz, fs))
            .product()
    }

    /// Cascade DC gain.
    pub fn dc_gain(&self) -> f64 {
        self.sections.iter().map(|s| s.dc_gain()).product()
    }

    /// Estimates the group delay (samples) at frequency `f_hz` by the
    /// phase-difference quotient: `−dφ/dω` evaluated numerically. This
    /// is the lag the paper's Fig. 4 shows for the 6th-order BF and the
    /// quantity the AKF exists to remove.
    pub fn group_delay_at(&self, f_hz: f64, fs: f64) -> f64 {
        let w = 2.0 * std::f64::consts::PI * f_hz / fs;
        let dw = 1e-5;
        let phase = |w: f64| -> f64 {
            let mut total = 0.0;
            for s in &self.sections {
                let (re_n, im_n) = polyval_ejw(&[s.b[0], s.b[1], s.b[2]], w);
                let (re_d, im_d) = polyval_ejw(&[1.0, s.a[0], s.a[1]], w);
                total += im_n.atan2(re_n) - im_d.atan2(re_d);
            }
            total
        };
        -(phase(w + dw) - phase(w - dw)) / (2.0 * dw)
    }
}

/// Butterworth low-pass designer.
#[derive(Debug, Clone, Copy)]
pub struct Butterworth {
    /// Filter order (≥ 1). LocBLE uses 6.
    pub order: usize,
    /// −3 dB cutoff frequency in Hz.
    pub cutoff_hz: f64,
    /// Sample rate in Hz.
    pub fs: f64,
}

impl Butterworth {
    /// The paper's BF configuration: 6th order, tuned for ~10 Hz RSS.
    /// The 1.2 Hz cutoff keeps the distance-driven RSS trend (including
    /// the sharp cusp of a close fly-by) and rejects fast fading, whose
    /// energy at walking speed sits above ~2 Hz.
    pub fn paper_default(fs: f64) -> Self {
        Butterworth {
            order: 6,
            cutoff_hz: 1.2,
            fs,
        }
    }

    /// Designs the second-order-section cascade.
    ///
    /// Even orders become `order/2` biquads whose Q factors are
    /// `1 / (2 sin θ_k)`, `θ_k = π(2k+1)/(2N)` — the standard pairing of
    /// Butterworth prototype poles. Odd orders append one first-order
    /// section.
    ///
    /// # Panics
    /// Panics when `order == 0` or the cutoff is outside `(0, fs/2)`.
    pub fn design(&self) -> SosFilter {
        let mut out = SosFilter::new(Vec::with_capacity(self.order / 2 + 1));
        self.design_into(&mut out);
        out
    }

    /// Redesigns an existing cascade in place, reusing its section
    /// storage: same coefficients as [`design`](Self::design), no
    /// allocation once the cascade has ever held `order/2 + 1` sections.
    ///
    /// # Panics
    /// Same contract as [`design`](Self::design).
    pub fn design_into(&self, out: &mut SosFilter) {
        assert!(self.order >= 1, "filter order must be >= 1");
        assert!(
            self.cutoff_hz > 0.0 && self.cutoff_hz < self.fs / 2.0,
            "cutoff must be in (0, fs/2): cutoff={}, fs={}",
            self.cutoff_hz,
            self.fs
        );
        let n = self.order;
        out.sections.clear();
        out.sections.reserve(n / 2 + 1);
        for k in 0..n / 2 {
            let theta = std::f64::consts::PI * (2.0 * k as f64 + 1.0) / (2.0 * n as f64);
            let q = 1.0 / (2.0 * theta.sin());
            out.sections
                .push(Biquad::lowpass(self.cutoff_hz, self.fs, q));
        }
        if n % 2 == 1 {
            out.sections
                .push(Biquad::lowpass_first_order(self.cutoff_hz, self.fs));
        }
        out.primed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ANF runs the allocation-free forms (`filter_into` forward,
    /// `filter_in_place` backward); both must reproduce the allocating
    /// `filter` bit for bit, including after a reset.
    #[test]
    fn filter_into_and_in_place_match_filter_bitwise() {
        let signal: Vec<f64> = (0..301)
            .map(|i| {
                let t = i as f64 * 0.1;
                -65.0 + 6.0 * (t * 0.9).sin() + 2.0 * (t * 7.3).sin() + ((i % 5) as f64 - 2.0)
            })
            .collect();
        let mut bf = Butterworth::paper_default(10.0).design();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let expected = bits(&bf.filter(&signal));
        let mut out = vec![0.0; 7];
        for _ in 0..2 {
            bf.reset();
            bf.filter_into(&signal, &mut out);
            assert_eq!(bits(&out), expected, "filter_into");
            bf.reset();
            let mut buf = signal.clone();
            bf.filter_in_place(&mut buf);
            assert_eq!(bits(&buf), expected, "filter_in_place");
        }
    }

    #[test]
    fn sixth_order_has_three_sections() {
        let f = Butterworth {
            order: 6,
            cutoff_hz: 1.0,
            fs: 10.0,
        }
        .design();
        assert_eq!(f.num_sections(), 3);
        let f5 = Butterworth {
            order: 5,
            cutoff_hz: 1.0,
            fs: 10.0,
        }
        .design();
        assert_eq!(f5.num_sections(), 3); // 2 biquads + 1 first-order
    }

    #[test]
    fn dc_gain_is_unity() {
        for order in 1..=8 {
            let f = Butterworth {
                order,
                cutoff_hz: 1.0,
                fs: 10.0,
            }
            .design();
            assert!((f.dc_gain() - 1.0).abs() < 1e-9, "order {order}");
        }
    }

    #[test]
    fn cutoff_is_minus_3db() {
        let f = Butterworth {
            order: 6,
            cutoff_hz: 1.0,
            fs: 10.0,
        }
        .design();
        let mag = f.magnitude_at(1.0, 10.0);
        let db = 20.0 * mag.log10();
        assert!((db + 3.01).abs() < 0.2, "cutoff magnitude {db} dB");
    }

    #[test]
    fn stopband_attenuation_scales_with_order() {
        // A 6th-order filter rolls off at 36 dB/octave; one octave above
        // cutoff we expect far more attenuation than a 2nd-order filter.
        let f6 = Butterworth {
            order: 6,
            cutoff_hz: 1.0,
            fs: 10.0,
        }
        .design();
        let f2 = Butterworth {
            order: 2,
            cutoff_hz: 1.0,
            fs: 10.0,
        }
        .design();
        let m6 = 20.0 * f6.magnitude_at(2.0, 10.0).log10();
        let m2 = 20.0 * f2.magnitude_at(2.0, 10.0).log10();
        assert!(m6 < -30.0, "6th order at 2fc: {m6} dB");
        assert!(m2 > m6 + 15.0, "2nd order should attenuate much less");
    }

    #[test]
    fn constant_input_passes_unchanged() {
        let mut f = Butterworth::paper_default(10.0).design();
        let out = f.filter(&vec![-70.0; 200]);
        // Priming removes the startup transient entirely.
        for &y in &out {
            assert!((y + 70.0).abs() < 1e-6, "got {y}");
        }
    }

    #[test]
    fn step_response_converges_with_delay() {
        let mut f = Butterworth::paper_default(10.0).design();
        let mut signal = vec![-80.0; 50];
        signal.extend(vec![-60.0; 250]);
        let out = f.filter(&signal);
        // Converges to the new level...
        assert!((out.last().unwrap() + 60.0).abs() < 0.05);
        // ...but with visible group delay: shortly after the step the
        // output is still far from the new level (this is the lag the AKF
        // compensates, paper Fig. 4).
        assert!(out[54] < -70.0, "expected lag, got {}", out[54]);
    }

    #[test]
    fn attenuates_high_frequency_noise() {
        let fs = 10.0;
        let mut f = Butterworth::paper_default(fs).design();
        // 3 Hz tone (fast fading) on a −70 dBm carrier level.
        let signal: Vec<f64> = (0..400)
            .map(|i| -70.0 + 5.0 * (2.0 * std::f64::consts::PI * 3.0 * i as f64 / fs).sin())
            .collect();
        let out = f.filter(&signal);
        let ripple = out[100..]
            .iter()
            .fold(0f64, |m, &y| m.max((y + 70.0).abs()));
        assert!(ripple < 0.1, "residual ripple {ripple}");
    }

    #[test]
    fn group_delay_is_positive_and_substantial() {
        // A 6th-order filter at a 1.2/10 Hz cutoff delays passband
        // signals by several samples — the Fig. 4 lag.
        let f = Butterworth::paper_default(10.0).design();
        let gd = f.group_delay_at(0.3, 10.0);
        assert!(gd > 2.0 && gd < 20.0, "group delay {gd} samples");
        // Higher order ⇒ more delay.
        let f2 = Butterworth {
            order: 2,
            cutoff_hz: 1.2,
            fs: 10.0,
        }
        .design();
        assert!(f2.group_delay_at(0.3, 10.0) < gd);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut f = Butterworth::paper_default(10.0).design();
        let a = f.filter(&[-70.0, -71.0, -69.0, -70.0]);
        f.reset();
        let b = f.filter(&[-70.0, -71.0, -69.0, -70.0]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "cutoff must be in (0, fs/2)")]
    fn rejects_cutoff_above_nyquist() {
        Butterworth {
            order: 6,
            cutoff_hz: 6.0,
            fs: 10.0,
        }
        .design();
    }

    #[test]
    fn first_order_section_magnitude() {
        let s = Biquad::lowpass_first_order(1.0, 10.0);
        assert!((s.dc_gain() - 1.0).abs() < 1e-12);
        let m = s.magnitude_at(1.0, 10.0);
        assert!((20.0 * m.log10() + 3.01).abs() < 0.2);
    }
}
