//! Phone-to-earth coordinate alignment.
//!
//! The phone's posture is unknown and arbitrary. Gravity, however, is the
//! dominant component of the accelerometer signal, so its direction in
//! the *phone* frame can be estimated as the normalized long-term mean of
//! the accelerometer — after which the vertical acceleration (what the
//! step counter needs) and the vertical turn rate (what the turn detector
//! needs) fall out as projections onto that axis. This is the "well-known
//! coordinate alignment" of paper §5.2 in its minimal, posture-agnostic
//! form.

use locble_sensors::{ImuSample, GRAVITY};

/// Earth-frame signals recovered from phone-frame IMU data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlignedImu {
    /// Sample times, seconds.
    pub t: Vec<f64>,
    /// Vertical acceleration with gravity removed, m/s² (positive up).
    pub vertical_accel: Vec<f64>,
    /// Rotation rate about the vertical axis, rad/s (counter-clockwise
    /// positive, i.e. left turns are positive).
    pub turn_rate: Vec<f64>,
    /// Magnetic heading per sample, radians.
    pub mag_heading: Vec<f64>,
    /// Estimated gravity direction in the phone frame (unit vector).
    pub gravity_dir: [f64; 3],
}

impl AlignedImu {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Mean sample rate, Hz (0 with < 2 samples).
    pub fn sample_rate(&self) -> f64 {
        if self.t.len() < 2 {
            return 0.0;
        }
        let span = self.t[self.t.len() - 1] - self.t[0];
        if span <= 0.0 {
            0.0
        } else {
            (self.t.len() - 1) as f64 / span
        }
    }
}

/// Aligns a phone-frame IMU stream to the earth frame.
///
/// Returns an empty result for an empty input.
pub fn align(imu: &[ImuSample]) -> AlignedImu {
    if imu.is_empty() {
        return AlignedImu::default();
    }
    // Gravity direction: normalized mean accelerometer vector. Walking
    // dynamics are zero-mean over a trace, so the mean is dominated by
    // gravity.
    let n = imu.len() as f64;
    let mut g = [0.0f64; 3];
    for s in imu {
        for (k, acc) in g.iter_mut().enumerate() {
            *acc += s.accel[k] / n;
        }
    }
    let norm = (g[0] * g[0] + g[1] * g[1] + g[2] * g[2]).sqrt();
    let g_dir = if norm < 1e-9 {
        [0.0, 0.0, 1.0] // degenerate: assume flat
    } else {
        [g[0] / norm, g[1] / norm, g[2] / norm]
    };

    let dot = |a: &[f64; 3], b: &[f64; 3]| a[0] * b[0] + a[1] * b[1] + a[2] * b[2];

    let mut out = AlignedImu {
        t: Vec::with_capacity(imu.len()),
        vertical_accel: Vec::with_capacity(imu.len()),
        turn_rate: Vec::with_capacity(imu.len()),
        mag_heading: Vec::with_capacity(imu.len()),
        gravity_dir: g_dir,
    };
    for s in imu {
        out.t.push(s.t);
        out.vertical_accel.push(dot(&s.accel, &g_dir) - GRAVITY);
        out.turn_rate.push(dot(&s.gyro, &g_dir));
        out.mag_heading.push(s.mag_heading);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use locble_geom::Pose2;
    use locble_sensors::{simulate_walk, GaitConfig, WalkPlan};

    fn walk() -> Vec<ImuSample> {
        let plan = WalkPlan::l_shape(Pose2::IDENTITY, 4.0, 3.0);
        simulate_walk(&plan, &GaitConfig::default(), 11).imu
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let a = align(&[]);
        assert!(a.is_empty());
        assert_eq!(a.sample_rate(), 0.0);
    }

    #[test]
    fn vertical_accel_is_zero_mean_and_oscillating() {
        let a = align(&walk());
        let mean: f64 = a.vertical_accel.iter().sum::<f64>() / a.len() as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        let max = a.vertical_accel.iter().cloned().fold(0.0, f64::max);
        assert!(max > 1.0, "step bursts should exceed 1 m/s², max {max}");
    }

    #[test]
    fn turn_rate_integrates_to_90_degrees() {
        let imu = walk();
        let a = align(&imu);
        let dt = 1.0 / 50.0;
        let total: f64 = a.turn_rate.iter().map(|r| r * dt).sum();
        assert!(
            (total - std::f64::consts::FRAC_PI_2).abs() < 0.1,
            "integrated turn {total:.3} rad"
        );
    }

    #[test]
    fn alignment_is_posture_invariant() {
        // The same walk with two very different phone postures must give
        // nearly identical vertical/turn signals.
        let plan = WalkPlan::l_shape(Pose2::IDENTITY, 4.0, 3.0);
        let c1 = GaitConfig {
            accel_noise: 0.0,
            gyro_noise: 0.0,
            amplitude_jitter: 0.0,
            phone_ypr: [0.0, 0.0, 0.0],
            ..GaitConfig::default()
        };
        let mut c2 = c1;
        c2.phone_ypr = [1.2, -0.9, 0.6];
        let a1 = align(&simulate_walk(&plan, &c1, 5).imu);
        let a2 = align(&simulate_walk(&plan, &c2, 5).imu);
        for i in (0..a1.len()).step_by(10) {
            assert!(
                (a1.vertical_accel[i] - a2.vertical_accel[i]).abs() < 0.05,
                "sample {i}: {} vs {}",
                a1.vertical_accel[i],
                a2.vertical_accel[i]
            );
            assert!((a1.turn_rate[i] - a2.turn_rate[i]).abs() < 0.05);
        }
    }

    #[test]
    fn gravity_direction_is_unit_length() {
        let a = align(&walk());
        let g = a.gravity_dir;
        let n = (g[0] * g[0] + g[1] * g[1] + g[2] * g[2]).sqrt();
        assert!((n - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sample_rate_reported() {
        let a = align(&walk());
        assert!((a.sample_rate() - 50.0).abs() < 1.0, "{}", a.sample_rate());
    }
}
