//! Adaptive noise filtering (paper §4.2).
//!
//! LocBLE passes raw RSS through the ANF: a fine-tuned 6th-order
//! Butterworth low-pass filter (smooth but laggy) whose output is fused
//! with the raw readings by an adaptive Kalman filter (AKF) to restore
//! responsiveness — paper Fig. 4. This module packages the two `locble-
//! dsp` primitives behind LocBLE's streaming interface, designing the
//! Butterworth cutoff from the observed RSS sample rate.

use locble_dsp::{AdaptiveKalman, Butterworth, SosFilter, TimeSeries};
use locble_obs::Obs;

/// The composed BF + AKF filter.
#[derive(Debug, Clone)]
pub struct AdaptiveNoiseFilter {
    bf: SosFilter,
    akf: AdaptiveKalman,
    sample_rate_hz: f64,
}

impl AdaptiveNoiseFilter {
    /// Designs the ANF for a given RSS sample rate.
    ///
    /// # Panics
    /// Panics when `sample_rate_hz` is too low to design the Butterworth
    /// stage (cutoff must sit below Nyquist).
    pub fn new(sample_rate_hz: f64) -> AdaptiveNoiseFilter {
        assert!(
            sample_rate_hz > 2.0,
            "sample rate {sample_rate_hz} Hz too low for the BF design"
        );
        // Sparse captures (weak links drop most advertisements) can push
        // the nominal 1.2 Hz cutoff past Nyquist; keep it at 40 % of the
        // actual rate in that regime.
        let mut design = Butterworth::paper_default(sample_rate_hz);
        design.cutoff_hz = design.cutoff_hz.min(0.4 * sample_rate_hz);
        let bf = design.design();
        AdaptiveNoiseFilter {
            bf,
            akf: AdaptiveKalman::paper_default(),
            sample_rate_hz,
        }
    }

    /// Designs the ANF from a timestamped series' measured rate, falling
    /// back to the paper's nominal ~9 Hz when the series is too short to
    /// estimate one.
    pub fn for_series(series: &TimeSeries) -> AdaptiveNoiseFilter {
        let rate = series.mean_rate();
        AdaptiveNoiseFilter::new(if rate > 2.0 { rate } else { 9.0 })
    }

    /// Retunes an existing filter for `series` exactly as
    /// [`for_series`](Self::for_series) would design a fresh one, but in
    /// place: the Butterworth section storage is reused and nothing
    /// happens at all when the measured rate is unchanged — the
    /// steady-state refit path of a session whose sample rate is stable.
    pub fn redesign_for_series(&mut self, series: &TimeSeries) {
        let rate = series.mean_rate();
        let rate = if rate > 2.0 { rate } else { 9.0 };
        if rate == self.sample_rate_hz {
            return;
        }
        let mut design = Butterworth::paper_default(rate);
        design.cutoff_hz = design.cutoff_hz.min(0.4 * rate);
        design.design_into(&mut self.bf);
        self.akf.reset();
        self.sample_rate_hz = rate;
    }

    /// Sample rate the filter was designed for.
    pub fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }

    /// Processes one raw RSS sample, returning the fused value.
    pub fn step(&mut self, raw: f64) -> f64 {
        let bf_out = self.bf.step(raw);
        self.akf.step(raw, bf_out)
    }

    /// Filters a whole signal.
    pub fn filter(&mut self, raw: &[f64]) -> Vec<f64> {
        raw.iter().map(|&x| self.step(x)).collect()
    }

    /// Filters a signal returning both the intermediate BF output and
    /// the fused output (for the Fig. 4 reproduction).
    pub fn filter_traced(&mut self, raw: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut bf_out = Vec::with_capacity(raw.len());
        let mut fused = Vec::with_capacity(raw.len());
        for &x in raw {
            let b = self.bf.step(x);
            bf_out.push(b);
            fused.push(self.akf.step(x, b));
        }
        (bf_out, fused)
    }

    /// Resets all filter state.
    pub fn reset(&mut self) {
        self.bf.reset();
        self.akf.reset();
    }

    /// Batch (offline) variant used by the location estimator: the
    /// Butterworth stage runs forward *and* backward (zero phase), so the
    /// smoothed RSS stays aligned with the motion timestamps — a causal
    /// BF would smear each reading ~1 s behind the observer's true
    /// position and bias the regression by roughly a walking-speed ×
    /// group-delay offset. The AKF fusion is instantaneous and applies
    /// unchanged.
    pub fn filter_zero_phase(&mut self, raw: &[f64]) -> Vec<f64> {
        let mut forward = Vec::new();
        let mut out = Vec::new();
        self.filter_zero_phase_into(raw, &mut forward, &mut out);
        out
    }

    /// [`filter_zero_phase`](Self::filter_zero_phase) into caller-owned
    /// buffers: `forward` receives the causal Butterworth pass, `out` the
    /// fused zero-phase result. Both are cleared first and their capacity
    /// reused, so a warm caller performs no heap allocation.
    pub fn filter_zero_phase_into(
        &mut self,
        raw: &[f64],
        forward: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        self.butterworth_zero_phase_into(raw, forward, out);
        for (i, &x) in raw.iter().enumerate() {
            out[i] = self.akf.step(x, out[i]);
        }
    }

    /// [`filter_zero_phase_into`](Self::filter_zero_phase_into) with
    /// diagnostics: records every AKF innovation into the
    /// `anf.innovation_abs_db` histogram and emits one
    /// `core.anf/zero_phase_filter` summary event (innovation statistics,
    /// mean adaptive boost, and the measured lag of the causal Butterworth
    /// stage that the zero-phase pass removes). With a disabled handle
    /// this is the plain zero-phase filter.
    pub fn filter_zero_phase_traced_into(
        &mut self,
        raw: &[f64],
        obs: &Obs,
        forward: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        if !obs.enabled() {
            self.filter_zero_phase_into(raw, forward, out);
            return;
        }
        self.butterworth_zero_phase_into(raw, forward, out);
        // Measure the causal lag before the in-place AKF fusion below
        // overwrites the zero-phase output.
        let lag_s = causal_lag_samples(forward, out) as f64 / self.sample_rate_hz;
        let mut sum_abs = 0.0;
        let mut max_abs: f64 = 0.0;
        let mut sum_boost = 0.0;
        for (i, &x) in raw.iter().enumerate() {
            out[i] = self.akf.step(x, out[i]);
            let innov = self.akf.last_innovation().abs();
            obs.histogram_observe("anf.innovation_abs_db", innov);
            sum_abs += innov;
            max_abs = max_abs.max(innov);
            sum_boost += self.akf.last_boost();
        }
        let n = raw.len().max(1) as f64;
        obs.event(
            "core.anf",
            "zero_phase_filter",
            &[
                ("samples", raw.len().into()),
                ("mean_abs_innovation_db", (sum_abs / n).into()),
                ("max_abs_innovation_db", max_abs.into()),
                ("mean_boost", (sum_boost / n).into()),
                ("bf_lag_s", lag_s.into()),
            ],
        );
    }

    /// Runs the Butterworth stage forward and backward into the given
    /// buffers: `forward` gets the causal pass (kept for lag
    /// diagnostics), `out` the zero-phase output. Leaves the AKF reset
    /// and ready to fuse. The backward pass runs in place over the
    /// reversed forward output, so the values match the allocating
    /// formulation bit for bit.
    fn butterworth_zero_phase_into(
        &mut self,
        raw: &[f64],
        forward: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        self.reset();
        self.bf.filter_into(raw, forward);
        self.bf.reset();
        out.clear();
        out.extend(forward.iter().rev().copied());
        self.bf.filter_in_place(out);
        out.reverse();
        self.bf.reset();
        self.akf.reset();
    }
}

/// Measures the causal Butterworth group delay empirically: the integer
/// shift (in samples) that best aligns the causal output onto the
/// time-aligned zero-phase output.
fn causal_lag_samples(forward: &[f64], zero_phase: &[f64]) -> usize {
    let n = forward.len();
    if n < 4 {
        return 0;
    }
    let max_shift = (n / 2).min(40);
    let mut best = (0usize, f64::INFINITY);
    for shift in 0..=max_shift {
        let m = n - shift;
        let err = (shift..n)
            .map(|i| {
                let d = forward[i] - zero_phase[i - shift];
                d * d
            })
            .sum::<f64>()
            / m as f64;
        if err < best.1 {
            best = (shift, err);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use locble_dsp::rmse;
    use locble_rf::randn::normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The Fig. 4 workload: a theoretical RSS staircase + noise.
    fn staircase(fs: f64, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut theory = Vec::new();
        let mut raw = Vec::new();
        for i in 0..(40.0 * fs) as usize {
            let t = i as f64 / fs;
            let level = if t < 10.0 {
                -70.0
            } else if t < 20.0 {
                -78.0
            } else if t < 30.0 {
                -73.0
            } else {
                -85.0
            };
            theory.push(level);
            raw.push(level + normal(&mut rng, 0.0, 3.0));
        }
        (theory, raw)
    }

    #[test]
    fn anf_beats_raw_and_bf_on_staircase() {
        let fs = 10.0;
        let (theory, raw) = staircase(fs, 81);
        let mut anf = AdaptiveNoiseFilter::new(fs);
        let (bf_out, fused) = anf.filter_traced(&raw);
        let e_raw = rmse(&raw, &theory);
        let e_bf = rmse(&bf_out, &theory);
        let e_anf = rmse(&fused, &theory);
        assert!(e_anf < e_raw, "ANF {e_anf:.2} vs raw {e_raw:.2}");
        assert!(e_anf < e_bf, "ANF {e_anf:.2} vs BF {e_bf:.2}");
    }

    #[test]
    fn streaming_equals_batch() {
        let (_, raw) = staircase(10.0, 82);
        let mut a = AdaptiveNoiseFilter::new(10.0);
        let batch = a.filter(&raw);
        let mut b = AdaptiveNoiseFilter::new(10.0);
        let streamed: Vec<f64> = raw.iter().map(|&x| b.step(x)).collect();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn reset_reproduces_output() {
        let (_, raw) = staircase(10.0, 83);
        let mut anf = AdaptiveNoiseFilter::new(10.0);
        let a = anf.filter(&raw);
        anf.reset();
        let b = anf.filter(&raw);
        assert_eq!(a, b);
    }

    #[test]
    fn for_series_estimates_rate() {
        let t: Vec<f64> = (0..50).map(|i| i as f64 / 8.0).collect();
        let v = vec![-70.0; 50];
        let anf = AdaptiveNoiseFilter::for_series(&TimeSeries::new(t, v));
        assert!((anf.sample_rate_hz() - 8.0).abs() < 0.2);
        // Degenerate series falls back to ~9 Hz.
        let short = TimeSeries::new(vec![0.0], vec![-70.0]);
        assert_eq!(
            AdaptiveNoiseFilter::for_series(&short).sample_rate_hz(),
            9.0
        );
    }

    #[test]
    #[should_panic(expected = "too low")]
    fn rejects_subsonic_sample_rate() {
        AdaptiveNoiseFilter::new(1.0);
    }

    #[test]
    fn traced_output_matches_untraced() {
        let (_, raw) = staircase(10.0, 84);
        let mut plain = AdaptiveNoiseFilter::new(10.0);
        let expect = plain.filter_zero_phase(&raw);
        // Noop observer takes the fast path; ring observer the traced one.
        for obs in [Obs::noop(), Obs::ring(1024)] {
            let mut anf = AdaptiveNoiseFilter::new(10.0);
            let (mut fwd, mut out) = (Vec::new(), Vec::new());
            anf.filter_zero_phase_traced_into(&raw, &obs, &mut fwd, &mut out);
            assert_eq!(out, expect);
        }
    }

    /// A session filter retuned in place must be indistinguishable from
    /// the fresh per-estimate design it replaces, including on warm
    /// (capacity-reusing) buffers.
    #[test]
    fn redesigned_filter_matches_fresh_design_bitwise() {
        let (_, raw) = staircase(10.0, 86);
        let t: Vec<f64> = (0..raw.len()).map(|i| i as f64 * 0.125).collect();
        let series = TimeSeries::new(t, raw.clone());
        let mut fresh = AdaptiveNoiseFilter::for_series(&series);
        let expect = fresh.filter_zero_phase(&raw);

        let mut reused = AdaptiveNoiseFilter::new(10.0);
        reused.filter_zero_phase(&raw); // dirty the filter state
        reused.redesign_for_series(&series);
        assert_eq!(reused.sample_rate_hz(), 8.0);
        let (mut fwd, mut out) = (Vec::new(), Vec::new());
        reused.filter_zero_phase_into(&raw, &mut fwd, &mut out);
        assert_eq!(out, expect);
        // Second pass on the now-warm buffers: still identical.
        reused.filter_zero_phase_into(&raw, &mut fwd, &mut out);
        assert_eq!(out, expect);
        // Same-rate redesign is a no-op.
        reused.redesign_for_series(&series);
        let mut again = Vec::new();
        reused.filter_zero_phase_into(&raw, &mut fwd, &mut again);
        assert_eq!(again, expect);
    }

    #[test]
    fn traced_filter_emits_innovation_diagnostics() {
        let (_, raw) = staircase(10.0, 85);
        let obs = Obs::ring(1024);
        let mut anf = AdaptiveNoiseFilter::new(10.0);
        let (mut fwd, mut out) = (Vec::new(), Vec::new());
        anf.filter_zero_phase_traced_into(&raw, &obs, &mut fwd, &mut out);

        let events = obs.events();
        let ev = events
            .iter()
            .find(|e| e.target == "core.anf" && e.name == "zero_phase_filter")
            .expect("filter summary event");
        assert_eq!(ev.field("samples").and_then(|f| f.as_f64()), Some(400.0));
        let mean = ev
            .field("mean_abs_innovation_db")
            .and_then(|f| f.as_f64())
            .expect("mean innovation recorded");
        assert!(mean > 0.0 && mean < 20.0, "mean innovation {mean}");

        let metrics = obs.metrics();
        let hist = metrics
            .histograms
            .iter()
            .find(|(name, _)| name.as_str() == "anf.innovation_abs_db")
            .map(|(_, h)| h)
            .expect("innovation histogram");
        assert_eq!(hist.count, raw.len() as u64);
    }

    #[test]
    fn causal_lag_is_zero_for_identical_series() {
        let s: Vec<f64> = (0..50).map(|i| -70.0 + (i as f64 * 0.7).sin()).collect();
        assert_eq!(causal_lag_samples(&s, &s), 0);
    }

    #[test]
    fn causal_lag_finds_a_known_shift() {
        // zero_phase[i] == forward[i + 5]: the causal output lags by 5.
        let forward: Vec<f64> = (0..80).map(|i| (i as f64 * 0.3).sin()).collect();
        let zero_phase: Vec<f64> = (0..80).map(|i| ((i + 5) as f64 * 0.3).sin()).collect();
        assert_eq!(causal_lag_samples(&forward, &zero_phase), 5);
    }
}
