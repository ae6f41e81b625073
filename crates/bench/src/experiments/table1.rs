//! Table 1 — accuracy across the nine evaluation environments.
//!
//! Paper (5th row of Table 1): mean accuracy with a 75 % confidence
//! interval per environment — 0.8±0.2 (meeting room) … 2.3±0.5 (labs),
//! 1.2±0.5 outdoors. Takeaways: best with LOS; stable across NLOS
//! environments; reflective stores/labs worst.

use crate::stats::{ci75_half_width, mean};
use crate::util::{default_estimator, header, parallel_map, StationaryRun};
use locble_ble::BeaconKind;
use locble_geom::Vec2;
use locble_scenario::all_environments;

/// Per-environment run geometry, matching the paper's setups: target
/// distances in the 4.4-8.9 m band, realistic blocker counts (the store
/// target sits past one rack, not two; the lab target is behind the
/// concrete wall).
pub(crate) fn run_for(env_index: usize, seed: u64) -> StationaryRun {
    let (target, start, legs) = match env_index {
        1 => (Vec2::new(4.0, 4.0), Vec2::new(1.0, 1.0), (2.5, 2.0)),
        2 => (Vec2::new(7.0, 1.8), Vec2::new(0.8, 0.6), (3.2, 1.8)),
        3 => (Vec2::new(5.8, 5.0), Vec2::new(0.9, 0.9), (2.8, 2.5)),
        4 => (Vec2::new(5.8, 5.2), Vec2::new(0.9, 0.9), (2.8, 2.5)),
        5 => (Vec2::new(6.8, 6.0), Vec2::new(1.2, 1.2), (3.2, 2.5)),
        6 => (Vec2::new(7.5, 4.6), Vec2::new(1.5, 0.8), (3.5, 1.9)),
        7 => (Vec2::new(6.5, 5.0), Vec2::new(1.5, 2.0), (2.5, 2.0)),
        8 => (Vec2::new(6.0, 7.5), Vec2::new(1.5, 1.5), (3.0, 2.5)),
        _ => (Vec2::new(8.0, 8.0), Vec2::new(3.0, 3.0), (4.0, 3.0)),
    };
    StationaryRun {
        env_index,
        target,
        start,
        legs,
        kind: BeaconKind::Estimote,
        seed,
    }
}

/// Runs the experiment.
pub fn run() -> String {
    let mut out = header(
        "table1",
        "accuracy per environment (mean ± 75% CI, metres)",
        "0.8±0.2 .. 2.3±0.5 indoor; 1.2±0.5 outdoor; LOS best, labs/store worst",
    );
    let estimator = default_estimator();
    let envs = all_environments();
    let seeds_per_env = 16u64;

    out.push_str("  # env            paper (m)    ours (m)      runs\n");
    let mut summary = Vec::new();
    for env in &envs {
        let errors: Vec<f64> = parallel_map(seeds_per_env as usize, |i| {
            run_for(env.index, 0x7AB1E + i as u64 * 13 + env.index as u64 * 131)
                .execute(&estimator)
                .map(|o| o.error_m)
        })
        .into_iter()
        .flatten()
        .collect();
        let m = mean(&errors);
        let ci = ci75_half_width(&errors);
        out.push_str(&format!(
            "  {} {:<14} {:.1} ± {:.1}    {m:>4.1} ± {ci:.1}     {}\n",
            env.index,
            env.name,
            env.paper_accuracy_m.0,
            env.paper_accuracy_m.1,
            errors.len()
        ));
        summary.push((env.index, env.name, m));
    }

    // Shape checks mirroring the paper's takeaways.
    let meeting = summary.iter().find(|s| s.0 == 1).expect("meeting room").2;
    let lab = summary.iter().find(|s| s.0 == 7).expect("labs").2;
    let indoor_mean = mean(
        &summary
            .iter()
            .filter(|s| s.0 <= 8)
            .map(|s| s.2)
            .collect::<Vec<_>>(),
    );
    out.push_str(&format!(
        "  shape: meeting room best ({meeting:.1} m) < labs ({lab:.1} m): {}\n",
        meeting < lab
    ));
    out.push_str(&format!(
        "  shape: indoor mean {indoor_mean:.1} m (paper 1.8 m) within 2x: {}\n",
        indoor_mean < 3.6
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_shape_holds() {
        let report = super::run();
        for label in ["meeting room best", "within 2x"] {
            assert!(crate::util::flag_is_true(&report, label), "{report}");
        }
    }
}
