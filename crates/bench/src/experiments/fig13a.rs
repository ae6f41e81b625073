//! Fig. 13a — effect of RSS sampling frequency.
//!
//! Paper §7.6.1: original ~9 Hz iOS data re-sampled (by inserting idle
//! delay) to 8 / 6.5 / 5.5 Hz. "The medians of estimation results remain
//! stable, but in the worst case, the lower sampling rate may degrade
//! the performance."

use crate::stats::{median, percentile};
use crate::util::{default_estimator, header, parallel_map};
use locble_ble::{BeaconHardware, BeaconId, BeaconKind};
use locble_dsp::decimate_by_rate;
use locble_geom::Vec2;
use locble_motion::{track, TrackerConfig};
use locble_scenario::world::simulate_session;
use locble_scenario::{environment_by_index, plan_l_walk, BeaconSpec, SessionConfig};

/// Runs the experiment.
pub fn run() -> String {
    let mut out = header(
        "fig13a",
        "estimation error vs RSS sampling frequency",
        "medians stable from 9 down to 5.5 Hz; tails worsen at low rates",
    );
    let estimator = default_estimator();
    let cases = [
        (2usize, Vec2::new(6.8, 1.5), Vec2::new(0.8, 1.0), (3.2, 1.4)),
        (3, Vec2::new(5.8, 5.6), Vec2::new(1.0, 1.2), (3.0, 2.5)),
        (4, Vec2::new(5.5, 5.5), Vec2::new(0.9, 1.1), (3.0, 2.5)),
    ];

    // Collect full-rate sessions once; decimation reuses them — exactly
    // the paper's "re-sampling our data at a lower frequency".
    let sessions: Vec<_> = parallel_map(cases.len() * 12, |i| {
        let (env_index, target, start, legs) = cases[i % cases.len()];
        let env = environment_by_index(env_index)?;
        let beacons = [BeaconSpec {
            id: BeaconId(1),
            position: target,
            hardware: BeaconHardware::ideal(BeaconKind::Estimote),
        }];
        let plan = plan_l_walk(&env, start, legs.0, legs.1, 0.3)?;
        Some(simulate_session(
            &env,
            &beacons,
            &plan,
            &SessionConfig::paper_default(0x13A0 + i as u64 * 11),
        ))
    })
    .into_iter()
    .flatten()
    .collect();

    out.push_str("  rate (Hz)   median (m)   p90 (m)   runs\n");
    let mut medians = Vec::new();
    for rate in [9.0, 8.0, 6.5, 5.5] {
        let errors: Vec<f64> = sessions
            .iter()
            .filter_map(|session| {
                let rss = session.rss_of(BeaconId(1))?;
                let decimated = decimate_by_rate(rss, rate);
                let observer = track(&session.walk.imu, &TrackerConfig::default());
                let est = estimator.estimate_stationary(&decimated, &observer)?;
                let truth = session.truth_local(BeaconId(1))?;
                let mut err = est.position.distance(truth);
                if let Some(m) = est.mirror {
                    err = err.min(m.distance(truth));
                }
                Some(err)
            })
            .collect();
        out.push_str(&format!(
            "  {rate:>7.1}    {:>7.2}     {:>6.2}    {}\n",
            median(&errors),
            percentile(&errors, 90.0),
            errors.len()
        ));
        medians.push(median(&errors));
    }
    let spread = medians.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - medians.iter().cloned().fold(f64::INFINITY, f64::min);
    out.push_str(&format!(
        "  shape: medians stable across rates (spread {spread:.2} m < 1.0): {}\n",
        spread < 1.0
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn medians_stable_across_rates() {
        let report = super::run();
        assert!(
            crate::util::flag_is_true(&report, "medians stable across rates"),
            "{report}"
        );
    }
}
