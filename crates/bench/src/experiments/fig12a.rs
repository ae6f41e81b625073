//! Fig. 12a — estimation error vs target distance.
//!
//! Paper: outdoor parking lot, 11 test points spaced 2.8 m apart, 5
//! repetitions each. "Around 1 m accuracy within 5.6 m and <3 m accuracy
//! within an 11.2 m range. However, if the distance is over 14 m, the
//! performance degrades significantly to more than 3 m."

use crate::stats::mean;
use crate::util::{default_estimator, header, parallel_map, StationaryRun};
use locble_ble::BeaconKind;
use locble_geom::Vec2;
use locble_scenario::environment_by_index;

/// Runs the experiment.
pub fn run() -> String {
    let mut out = header(
        "fig12a",
        "error vs target distance (parking lot, 2.8 m steps, 5 reps)",
        "~1 m within 5.6 m; <3 m within 11.2 m; degrades past 14 m",
    );
    let env = environment_by_index(9).expect("parking lot");
    let start = Vec2::new(1.5, 1.5);
    let dir = Vec2::new(1.0, 0.95).normalized().expect("unit");
    let estimator = default_estimator();

    out.push_str("  distance (m)   mean error (m)   runs\n");
    let mut rows = Vec::new();
    for k in 1..=6usize {
        // 2.8 m spacing; the 16x15 m lot accommodates 6 points (the
        // paper's 11 points reach 30.8 m on a larger lot).
        let d = 2.8 * k as f64;
        let mut target = start + dir * d;
        target.x = target.x.min(env.width_m - 0.4);
        target.y = target.y.min(env.depth_m - 0.4);
        let errors: Vec<f64> = parallel_map(5, |i| {
            StationaryRun {
                env_index: 9,
                target,
                start,
                legs: (4.0, 3.0),
                kind: BeaconKind::Estimote,
                seed: 0x12A0 + k as u64 * 31 + i as u64,
            }
            .execute(&estimator)
            .map(|o| o.error_m)
        })
        .into_iter()
        .flatten()
        .collect();
        let m = mean(&errors);
        out.push_str(&format!(
            "  {d:>9.1}      {m:>9.2}       {}\n",
            errors.len()
        ));
        rows.push((d, m));
    }

    let near: Vec<f64> = rows
        .iter()
        .filter(|(d, _)| *d <= 5.7)
        .map(|(_, e)| *e)
        .collect();
    let mid: Vec<f64> = rows
        .iter()
        .filter(|(d, _)| *d <= 11.3)
        .map(|(_, e)| *e)
        .collect();
    let far: Vec<f64> = rows
        .iter()
        .filter(|(d, _)| *d > 14.0)
        .map(|(_, e)| *e)
        .collect();
    out.push_str(&format!(
        "  shape: near (≤5.6 m) mean {:.2} m < 2.0: {}\n",
        mean(&near),
        mean(&near) < 2.0
    ));
    out.push_str(&format!(
        "  shape: ≤11.2 m mean {:.2} m < 3.0: {}\n",
        mean(&mid),
        mean(&mid) < 3.0
    ));
    if !far.is_empty() {
        out.push_str(&format!(
            "  shape: >14 m degrades ({:.2} m > near): {}\n",
            mean(&far),
            mean(&far) > mean(&near)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn near_range_is_accurate() {
        let report = super::run();
        assert!(
            crate::util::flag_is_true(&report, "shape: near"),
            "{report}"
        );
    }
}
