//! Step detection and walking-distance estimation (paper §5.2.1).
//!
//! "Our step counter first smoothes the accelerometer data by using the
//! moving average filter, then uses a voting algorithm to detect the
//! peak, which represents the middle status of one gait cycle. … we can
//! infer step length by inspecting the step frequency."

use crate::alignment::AlignedImu;
use locble_dsp::{detect_peaks, moving_average_centered, PeakConfig};
use locble_sensors::gait::step_length_from_frequency;

/// Step-detector tuning.
#[derive(Debug, Clone, Copy)]
pub struct StepsConfig {
    /// Moving-average window, seconds.
    pub smooth_window_s: f64,
    /// Minimum vertical-acceleration peak height, m/s².
    pub min_peak_accel: f64,
    /// Refractory period between steps, seconds (humans cannot step
    /// faster than ~4 Hz).
    pub min_step_period_s: f64,
    /// Neighborhood vote radius, seconds.
    pub vote_radius_s: f64,
    /// Required fraction of lower neighbors.
    pub vote_fraction: f64,
}

impl Default for StepsConfig {
    fn default() -> Self {
        StepsConfig {
            smooth_window_s: 0.12,
            min_peak_accel: 0.8,
            min_step_period_s: 0.3,
            vote_radius_s: 0.2,
            vote_fraction: 0.7,
        }
    }
}

/// Detected steps and derived walking distance.
#[derive(Debug, Clone, PartialEq)]
pub struct StepResult {
    /// Times of detected steps, seconds.
    pub step_times: Vec<f64>,
    /// Estimated mean step frequency, Hz (0 with < 2 steps).
    pub frequency_hz: f64,
    /// Estimated step length from the frequency model, metres.
    pub step_length_m: f64,
    /// Estimated total walking distance, metres.
    pub distance_m: f64,
}

impl StepResult {
    /// Number of detected steps.
    pub fn count(&self) -> usize {
        self.step_times.len()
    }
}

/// Runs the step detector on aligned IMU data.
pub fn detect_steps(aligned: &AlignedImu, config: &StepsConfig) -> StepResult {
    let fs = aligned.sample_rate();
    if aligned.len() < 3 || fs <= 0.0 {
        return StepResult {
            step_times: Vec::new(),
            frequency_hz: 0.0,
            step_length_m: step_length_from_frequency(0.0),
            distance_m: 0.0,
        };
    }
    let window = ((config.smooth_window_s * fs).round() as usize).max(1);
    let smoothed = moving_average_centered(&aligned.vertical_accel, window);

    let peak_cfg = PeakConfig {
        min_height: config.min_peak_accel,
        min_distance: ((config.min_step_period_s * fs).round() as usize).max(1),
        vote_radius: ((config.vote_radius_s * fs).round() as usize).max(1),
        vote_fraction: config.vote_fraction,
    };
    let peaks = detect_peaks(&smoothed, &peak_cfg);
    let step_times: Vec<f64> = peaks.iter().map(|&i| aligned.t[i]).collect();

    // Step frequency from the median inter-step interval (robust to the
    // pause during the turn).
    let frequency_hz = if step_times.len() >= 2 {
        let mut intervals: Vec<f64> = step_times.windows(2).map(|w| w[1] - w[0]).collect();
        intervals.sort_by(|a, b| a.total_cmp(b));
        let median = intervals[intervals.len() / 2];
        if median > 0.0 {
            1.0 / median
        } else {
            0.0
        }
    } else {
        0.0
    };
    let step_length_m = step_length_from_frequency(frequency_hz);
    StepResult {
        distance_m: step_length_m * step_times.len() as f64,
        step_times,
        frequency_hz,
        step_length_m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::align;
    use locble_geom::Pose2;
    use locble_sensors::{simulate_walk, GaitConfig, WalkPlan, WalkSimulation};

    fn l_walk(seed: u64) -> WalkSimulation {
        let plan = WalkPlan::l_shape(Pose2::IDENTITY, 4.0, 3.0);
        simulate_walk(&plan, &GaitConfig::default(), seed)
    }

    #[test]
    fn step_count_matches_truth_within_paper_accuracy() {
        // Paper §5.2.2: "the accuracy of step-based moving distance
        // estimation is around 94.77%".
        let mut total_true = 0usize;
        let mut total_err = 0usize;
        for seed in 0..10 {
            let sim = l_walk(seed);
            let result = detect_steps(&align(&sim.imu), &StepsConfig::default());
            total_true += sim.true_step_count();
            total_err += result.count().abs_diff(sim.true_step_count());
        }
        let accuracy = 1.0 - total_err as f64 / total_true as f64;
        assert!(accuracy > 0.9, "step accuracy {accuracy:.3}");
    }

    #[test]
    fn frequency_estimate_matches_gait() {
        let sim = l_walk(3);
        let result = detect_steps(&align(&sim.imu), &StepsConfig::default());
        assert!(
            (result.frequency_hz - 1.8).abs() < 0.2,
            "freq {}",
            result.frequency_hz
        );
    }

    #[test]
    fn distance_estimate_within_ten_percent() {
        let sim = l_walk(4);
        let result = detect_steps(&align(&sim.imu), &StepsConfig::default());
        let truth = sim.distance();
        assert!(
            (result.distance_m - truth).abs() / truth < 0.12,
            "estimated {:.2} m vs true {truth:.2} m",
            result.distance_m
        );
    }

    #[test]
    fn step_times_are_ordered_and_spaced() {
        let sim = l_walk(5);
        let result = detect_steps(&align(&sim.imu), &StepsConfig::default());
        for w in result.step_times.windows(2) {
            assert!(w[1] > w[0]);
            assert!(w[1] - w[0] >= 0.3 - 1e-9, "interval {}", w[1] - w[0]);
        }
    }

    #[test]
    fn stationary_imu_has_no_steps() {
        // Standing still: gravity + noise only.
        let plan = WalkPlan::straight(Pose2::IDENTITY, 3.0);
        let cfg = GaitConfig {
            step_amplitude: 0.0, // no gait bursts
            ..GaitConfig::default()
        };
        let sim = simulate_walk(&plan, &cfg, 6);
        let result = detect_steps(&align(&sim.imu), &StepsConfig::default());
        assert!(
            result.count() <= 1,
            "found {} phantom steps",
            result.count()
        );
        assert!(result.distance_m < 1.0);
    }

    #[test]
    fn non_finite_step_times_do_not_panic() {
        // A NaN timestamp right under a gait peak makes the inter-step
        // intervals NaN; the median sort used to
        // `partial_cmp(..).expect("finite")` and panic.
        let n = 120;
        let mut t: Vec<f64> = (0..n).map(|i| i as f64 * 0.02).collect();
        let mut accel = vec![0.0; n];
        for p in [20usize, 55, 90] {
            for (off, amp) in [(0i64, 3.0), (-1, 2.0), (1, 2.0), (-2, 1.0), (2, 1.0)] {
                accel[(p as i64 + off) as usize] = amp;
            }
        }
        for ti in t.iter_mut().take(58).skip(53) {
            *ti = f64::NAN;
        }
        let aligned = crate::alignment::AlignedImu {
            turn_rate: vec![0.0; n],
            mag_heading: vec![0.0; n],
            t,
            vertical_accel: accel,
            ..Default::default()
        };
        let result = detect_steps(&aligned, &StepsConfig::default());
        assert!(result.count() >= 2, "peaks still detected");
        assert!(result.frequency_hz.is_finite());
        assert!(result.distance_m.is_finite());
    }

    #[test]
    fn empty_input_is_graceful() {
        let result = detect_steps(&align(&[]), &StepsConfig::default());
        assert_eq!(result.count(), 0);
        assert_eq!(result.distance_m, 0.0);
    }
}
