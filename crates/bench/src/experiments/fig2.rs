//! Fig. 2 — RSS readings on different smartphones.
//!
//! Paper: three handsets (iPhone 5s, Nexus 5x, Moto Nexus 6) walk the
//! same path away from one beacon; their absolute RSSI levels differ by
//! a per-device offset but "the RSS trend shows the same pattern".
//!
//! We sample the same five distances of the paper's x-axis (0, 1.5, 3.0,
//! 4.6, 6.1 m — clamped at 0.3 m since the model diverges at contact)
//! with each handset profile and report the per-handset series, the
//! inter-device offsets, and the rank correlation of the trends.

use crate::stats::mean;
use crate::util::header;
use locble_geom::Vec2;
use locble_rf::{LinkConfig, LinkSimulator, ReceiverProfile};

const DISTANCES: [f64; 5] = [0.3, 1.5, 3.0, 4.6, 6.1];

/// Mean measured RSSI per distance for one handset.
fn series(profile: ReceiverProfile, seed: u64) -> Vec<f64> {
    DISTANCES
        .iter()
        .enumerate()
        .map(|(k, &d)| {
            let mut sim = LinkSimulator::new(LinkConfig::default(), profile, seed + k as u64);
            let vals: Vec<f64> = (0..200)
                .filter_map(|i| {
                    // Space samples far apart in time to decorrelate.
                    sim.measure(
                        i as f64 * 10.0,
                        Vec2::new(d, 0.0),
                        Vec2::ZERO,
                        &[],
                        37 + (i % 3) as u8,
                    )
                    .map(|m| m.rssi_dbm)
                })
                .collect();
            mean(&vals)
        })
        .collect()
}

/// Runs the experiment.
pub fn run() -> String {
    let mut out = header(
        "fig2",
        "RSS vs distance on three handsets",
        "device-specific offsets, same decaying trend (indoor, 0-6.1 m)",
    );
    let handsets = ReceiverProfile::fig2_handsets();
    let all: Vec<(&str, Vec<f64>)> = handsets
        .iter()
        .enumerate()
        .map(|(i, (name, profile))| (*name, series(*profile, 1000 + 100 * i as u64)))
        .collect();

    out.push_str("  distance (m):      ");
    for d in DISTANCES {
        out.push_str(&format!("{d:>8.1}"));
    }
    out.push('\n');
    for (name, s) in &all {
        out.push_str(&format!("  {name:<18} "));
        for v in s {
            out.push_str(&format!("{v:>8.1}"));
        }
        out.push('\n');
    }

    // Offsets between handsets (mean over distances).
    let base = &all[0].1;
    for (name, s) in &all[1..] {
        let offset: f64 = s.iter().zip(base).map(|(a, b)| a - b).sum::<f64>() / s.len() as f64;
        out.push_str(&format!(
            "  offset {name} vs {}: {offset:+.1} dB\n",
            all[0].0
        ));
    }

    // Trend agreement: every handset's series must be strictly decreasing.
    let monotone = all.iter().all(|(_, s)| s.windows(2).all(|w| w[1] < w[0]));
    out.push_str(&format!(
        "  all trends monotonically decreasing: {monotone}\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_reproduces_fig2_shape() {
        let report = run();
        assert!(
            crate::util::flag_is_true(&report, "monotonically decreasing"),
            "{report}"
        );
        // Device offsets of several dB must be visible.
        assert!(report.contains("offset Nexus 5x"));
    }
}
