//! Pedestrian gait synthesis.
//!
//! Generates the phone-frame IMU streams a walking observer produces,
//! together with full ground truth. The model:
//!
//! * **Steps** — the walker advances at `step_length × step_frequency`;
//!   each gait cycle puts one vertical acceleration burst (fundamental +
//!   second harmonic, per-step amplitude jitter) on the accelerometer.
//!   Step length follows the linear frequency relation of [Li et al.
//!   2012] that the paper's §5.2.1 borrows ("we can infer step length by
//!   inspecting the step frequency").
//! * **Turns** — between legs the walker rotates in place with a
//!   raised-cosine angular-rate bump (what the paper's turn detector looks
//!   for in gyroscope data, §5.2.2 / Fig. 8b).
//! * **Magnetometer** — true heading plus a slowly drifting AR(1) indoor
//!   disturbance plus white noise: "known to fluctuate in indoor
//!   environments, but … accurate over a short period time".
//! * **Phone posture** — all vectors are rotated into an arbitrary phone
//!   attitude, so consumers must perform coordinate alignment to recover
//!   the earth frame (paper §5.2).

use crate::imu::{ImuSample, TurnTruth};
use crate::mat3::Mat3;
use crate::GRAVITY;
use locble_geom::{Pose2, Trajectory, Vec2};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Step length (metres) from step frequency (Hz) — the shared linear
/// model of [Li et al. 2012]: `L = 0.3 + 0.25·f`.
pub fn step_length_from_frequency(freq_hz: f64) -> f64 {
    0.3 + 0.25 * freq_hz
}

/// One straight walking leg.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkLeg {
    /// Distance to walk, metres.
    pub distance_m: f64,
}

/// A scripted walk: legs separated by in-place turns.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkPlan {
    /// Starting pose in the world frame.
    pub start: Pose2,
    /// Straight legs.
    pub legs: Vec<WalkLeg>,
    /// Signed turn angles between consecutive legs (radians,
    /// counter-clockwise positive). Must have `legs.len() − 1` entries.
    pub turn_angles: Vec<f64>,
}

impl WalkPlan {
    /// The paper's canonical measurement movement: leg 1, a 90° left
    /// turn, leg 2 (Fig. 7).
    pub fn l_shape(start: Pose2, leg1_m: f64, leg2_m: f64) -> WalkPlan {
        WalkPlan {
            start,
            legs: vec![
                WalkLeg { distance_m: leg1_m },
                WalkLeg { distance_m: leg2_m },
            ],
            turn_angles: vec![std::f64::consts::FRAC_PI_2],
        }
    }

    /// A single straight leg (used by the §9.2 straight-walk variant).
    pub fn straight(start: Pose2, distance_m: f64) -> WalkPlan {
        WalkPlan {
            start,
            legs: vec![WalkLeg { distance_m }],
            turn_angles: vec![],
        }
    }

    /// Total planned walking distance.
    pub fn total_distance(&self) -> f64 {
        self.legs.iter().map(|l| l.distance_m).sum()
    }

    /// Validates leg/turn counts and distances.
    pub fn validate(&self) -> Result<(), String> {
        if self.legs.is_empty() {
            return Err("walk plan needs at least one leg".into());
        }
        if self.turn_angles.len() + 1 != self.legs.len() {
            return Err(format!(
                "{} legs need {} turns, got {}",
                self.legs.len(),
                self.legs.len() - 1,
                self.turn_angles.len()
            ));
        }
        if self.legs.iter().any(|l| l.distance_m <= 0.0) {
            return Err("leg distances must be positive".into());
        }
        Ok(())
    }
}

/// Gait and sensor-noise parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaitConfig {
    /// IMU sample rate, Hz.
    pub sample_rate_hz: f64,
    /// Step frequency, Hz.
    pub step_frequency_hz: f64,
    /// Peak vertical acceleration per step, m/s².
    pub step_amplitude: f64,
    /// Fractional per-step amplitude jitter.
    pub amplitude_jitter: f64,
    /// Accelerometer white-noise σ, m/s².
    pub accel_noise: f64,
    /// Gyroscope white-noise σ, rad/s.
    pub gyro_noise: f64,
    /// Magnetometer heading white-noise σ, rad.
    pub heading_noise: f64,
    /// Stationary σ of the slow indoor magnetic disturbance, rad.
    pub heading_drift_sigma: f64,
    /// Time constant of the disturbance, seconds.
    pub heading_drift_tau_s: f64,
    /// Duration of an in-place turn, seconds.
    pub turn_duration_s: f64,
    /// Phone posture relative to the walker: yaw, pitch, roll (radians).
    pub phone_ypr: [f64; 3],
}

impl Default for GaitConfig {
    fn default() -> Self {
        GaitConfig {
            sample_rate_hz: 50.0,
            step_frequency_hz: 1.8,
            step_amplitude: 2.4,
            amplitude_jitter: 0.15,
            accel_noise: 0.25,
            gyro_noise: 0.02,
            heading_noise: 0.02,
            heading_drift_sigma: 0.06,
            heading_drift_tau_s: 20.0,
            turn_duration_s: 1.2,
            phone_ypr: [0.3, -0.4, 0.15],
        }
    }
}

/// The generated walk: sensor streams plus ground truth.
#[derive(Debug, Clone)]
pub struct WalkSimulation {
    /// Phone-frame IMU samples at the configured rate.
    pub imu: Vec<ImuSample>,
    /// True world-frame trajectory, sampled at the IMU rate.
    pub trajectory: Trajectory,
    /// True step times (acceleration-peak instants).
    pub true_step_times: Vec<f64>,
    /// True turns.
    pub true_turns: Vec<TurnTruth>,
    /// Walking speed used, m/s.
    pub speed_mps: f64,
}

impl WalkSimulation {
    /// Total true walked distance.
    pub fn distance(&self) -> f64 {
        self.trajectory.path_length()
    }

    /// True number of completed steps.
    pub fn true_step_count(&self) -> usize {
        self.true_step_times.len()
    }
}

/// Simulates a scripted walk.
///
/// # Panics
/// Panics on an invalid plan or non-positive rates.
pub fn simulate_walk(plan: &WalkPlan, config: &GaitConfig, seed: u64) -> WalkSimulation {
    plan.validate()
        .unwrap_or_else(|e| panic!("invalid walk plan: {e}"));
    assert!(config.sample_rate_hz > 0.0, "sample rate must be positive");
    assert!(
        config.step_frequency_hz > 0.0,
        "step frequency must be positive"
    );
    assert!(
        config.turn_duration_s > 0.0,
        "turn duration must be positive"
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let step_len = step_length_from_frequency(config.step_frequency_hz);
    let speed = step_len * config.step_frequency_hz;
    let dt = 1.0 / config.sample_rate_hz;
    let phone = Mat3::from_ypr(
        config.phone_ypr[0],
        config.phone_ypr[1],
        config.phone_ypr[2],
    );

    // Phase schedule: Walk(leg) [Turn Walk(leg)]...
    enum Phase {
        Walk { duration: f64 },
        Turn { duration: f64, angle: f64 },
    }
    let mut phases = Vec::new();
    for (i, leg) in plan.legs.iter().enumerate() {
        if i > 0 {
            phases.push(Phase::Turn {
                duration: config.turn_duration_s,
                angle: plan.turn_angles[i - 1],
            });
        }
        phases.push(Phase::Walk {
            duration: leg.distance_m / speed,
        });
    }

    let mut imu = Vec::new();
    let mut trajectory = Trajectory::new();
    let mut true_step_times = Vec::new();
    let mut true_turns = Vec::new();

    let mut t = 0.0;
    let mut pos = plan.start.position;
    let mut heading = plan.start.heading;
    let mut gait_phase: f64 = 0.0; // step cycles, fractional
    let mut drift = 0.0; // magnetic disturbance state
    let drift_rho = (-dt / config.heading_drift_tau_s).exp();
    let drift_innov = config.heading_drift_sigma * (1.0 - drift_rho * drift_rho).sqrt();
    let mut amp = config.step_amplitude;

    let emit = |t: f64,
                heading: f64,
                vert_bounce: f64,
                fwd_acc: f64,
                turn_rate: f64,
                drift: f64,
                rng: &mut StdRng| {
        // Earth-frame specific force (accelerometer convention: +g up at
        // rest).
        let ax = fwd_acc * heading.cos();
        let ay = fwd_acc * heading.sin();
        let az = GRAVITY + vert_bounce;
        let noise = |rng: &mut StdRng, s: f64| locble_rf::randn::normal(rng, 0.0, s);
        let earth_acc = [
            ax + noise(rng, config.accel_noise),
            ay + noise(rng, config.accel_noise),
            az + noise(rng, config.accel_noise),
        ];
        let earth_gyro = [
            noise(rng, config.gyro_noise),
            noise(rng, config.gyro_noise),
            turn_rate + noise(rng, config.gyro_noise),
        ];
        // Phone attitude = walker yaw ∘ posture; readings are in the
        // phone frame.
        let attitude = Mat3::rot_z(heading).mul(&phone);
        let inv = attitude.transpose();
        ImuSample {
            t,
            accel: inv.apply(earth_acc),
            gyro: inv.apply(earth_gyro),
            mag_heading: heading + drift + noise(rng, config.heading_noise),
        }
    };

    for phase in &phases {
        match *phase {
            Phase::Walk { duration } => {
                let end = t + duration;
                while t < end - 1e-9 {
                    drift =
                        drift_rho * drift + locble_rf::randn::normal(&mut rng, 0.0, drift_innov);
                    // Step-cycle bookkeeping: record the burst peak at
                    // phase 0.25 of each cycle and redraw the amplitude
                    // each new cycle.
                    let prev_phase = gait_phase;
                    gait_phase += config.step_frequency_hz * dt;
                    let prev_k = (prev_phase - 0.25).floor();
                    let new_k = (gait_phase - 0.25).floor();
                    if new_k > prev_k {
                        true_step_times.push(t);
                        amp = config.step_amplitude
                            * (1.0
                                + config.amplitude_jitter
                                    * locble_rf::randn::standard_normal(&mut rng));
                    }
                    let cyc = 2.0 * std::f64::consts::PI * gait_phase;
                    let vert = amp * cyc.sin() + 0.3 * amp * (2.0 * cyc).sin();
                    let fwd = 0.4 * amp * (cyc + 0.9).cos();

                    imu.push(emit(t, heading, vert, fwd, 0.0, drift, &mut rng));
                    trajectory.push(t, pos);
                    pos += Vec2::from_angle(heading) * (speed * dt);
                    t += dt;
                }
            }
            Phase::Turn { duration, angle } => {
                let start_t = t;
                let end = t + duration;
                while t < end - 1e-9 {
                    drift =
                        drift_rho * drift + locble_rf::randn::normal(&mut rng, 0.0, drift_innov);
                    let tau = (t - start_t) / duration;
                    // Raised-cosine rate bump integrating to `angle`.
                    let rate = angle / duration * (1.0 - (2.0 * std::f64::consts::PI * tau).cos());
                    imu.push(emit(t, heading, 0.0, 0.0, rate, drift, &mut rng));
                    trajectory.push(t, pos);
                    heading += rate * dt;
                    t += dt;
                }
                true_turns.push(TurnTruth {
                    t_start: start_t,
                    t_end: end,
                    angle,
                });
            }
        }
    }
    // Final sample at the end pose.
    imu.push(emit(t, heading, 0.0, 0.0, 0.0, drift, &mut rng));
    trajectory.push(t, pos);

    WalkSimulation {
        imu,
        trajectory,
        true_step_times,
        true_turns,
        speed_mps: speed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_walk(seed: u64) -> WalkSimulation {
        let plan = WalkPlan::l_shape(Pose2::IDENTITY, 4.0, 3.0);
        simulate_walk(&plan, &GaitConfig::default(), seed)
    }

    #[test]
    fn trajectory_ends_at_planned_corner() {
        let sim = l_walk(1);
        let end = sim.trajectory.points().last().unwrap().pos;
        // 4 m east, then 3 m north.
        assert!((end.x - 4.0).abs() < 0.15, "end.x {}", end.x);
        assert!((end.y - 3.0).abs() < 0.15, "end.y {}", end.y);
    }

    #[test]
    fn step_count_matches_distance_over_step_length() {
        let sim = l_walk(2);
        let step_len = step_length_from_frequency(1.8);
        let expected = (7.0 / step_len).floor() as usize;
        let got = sim.true_step_count();
        assert!(
            got.abs_diff(expected) <= 1,
            "expected ~{expected} steps, got {got}"
        );
    }

    #[test]
    fn turn_truth_records_90_degrees() {
        let sim = l_walk(3);
        assert_eq!(sim.true_turns.len(), 1);
        let turn = sim.true_turns[0];
        assert!((turn.angle - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!(turn.t_end > turn.t_start);
    }

    #[test]
    fn gyro_integrates_to_turn_angle() {
        let sim = l_walk(4);
        let turn = sim.true_turns[0];
        let dt = 1.0 / 50.0;
        // Project phone gyro back through the known posture is what the
        // motion tracker does; here we check the magnitude is right by
        // integrating the gyro norm (the turn is the only rotation).
        let integrated: f64 = sim
            .imu
            .iter()
            .filter(|s| s.t >= turn.t_start && s.t < turn.t_end)
            .map(|s| {
                (s.gyro[0] * s.gyro[0] + s.gyro[1] * s.gyro[1] + s.gyro[2] * s.gyro[2]).sqrt() * dt
            })
            .sum();
        assert!(
            (integrated - turn.angle).abs() < 0.12,
            "integrated {integrated:.3} vs {:.3}",
            turn.angle
        );
    }

    #[test]
    fn accel_mean_recovers_gravity_magnitude() {
        let sim = l_walk(5);
        let n = sim.imu.len() as f64;
        let mean: [f64; 3] = sim.imu.iter().fold([0.0; 3], |mut acc, s| {
            for (a, x) in acc.iter_mut().zip(s.accel) {
                *a += x / n;
            }
            acc
        });
        let norm = (mean[0] * mean[0] + mean[1] * mean[1] + mean[2] * mean[2]).sqrt();
        assert!((norm - GRAVITY).abs() < 0.35, "gravity norm {norm}");
    }

    #[test]
    fn heading_is_usable_over_short_windows() {
        // §5.2.2: magnetic heading fluctuates but is accurate short-term.
        let sim = l_walk(6);
        let first_leg: Vec<f64> = sim
            .imu
            .iter()
            .take_while(|s| s.t < 1.0)
            .map(|s| s.mag_heading)
            .collect();
        let mean = first_leg.iter().sum::<f64>() / first_leg.len() as f64;
        assert!(mean.abs() < 0.15, "first-leg heading mean {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = l_walk(7);
        let b = l_walk(7);
        assert_eq!(a.imu.len(), b.imu.len());
        assert_eq!(a.imu[100], b.imu[100]);
        assert_eq!(a.true_step_times, b.true_step_times);
    }

    #[test]
    fn straight_plan_has_no_turns() {
        let plan = WalkPlan::straight(Pose2::IDENTITY, 5.0);
        let sim = simulate_walk(&plan, &GaitConfig::default(), 8);
        assert!(sim.true_turns.is_empty());
        let end = sim.trajectory.points().last().unwrap().pos;
        assert!((end.x - 5.0).abs() < 0.15);
        assert!(end.y.abs() < 1e-9);
    }

    #[test]
    fn speed_comes_from_step_model() {
        let sim = l_walk(9);
        let expected = step_length_from_frequency(1.8) * 1.8;
        assert!((sim.speed_mps - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid walk plan")]
    fn mismatched_turn_count_rejected() {
        let plan = WalkPlan {
            start: Pose2::IDENTITY,
            legs: vec![WalkLeg { distance_m: 1.0 }, WalkLeg { distance_m: 1.0 }],
            turn_angles: vec![],
        };
        simulate_walk(&plan, &GaitConfig::default(), 0);
    }
}
