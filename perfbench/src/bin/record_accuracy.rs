//! `record_accuracy FIRST LAST` prints the accuracy of every seed in
//! `FIRST..=LAST` in the format of `accuracy.tsv`, which `perfbench`
//! checks each run against. Regenerate the file only when a change to
//! the estimator is meant to move the estimates.

use locble_perfbench::inputs::{self, PASSES};
use locble_perfbench::run::reference;

fn main() {
    let args: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("seeds are integers"))
        .collect();
    let [first, last] = args[..] else {
        eprintln!("usage: record_accuracy FIRST LAST");
        std::process::exit(2);
    };
    println!("# seed\tscored\tmedian_error_m\tp90_error_m");
    for seed in first..=last {
        let r = reference(&inputs::build(seed, PASSES));
        println!(
            "{seed}\t{}\t{:?}\t{:?}",
            r.estimates.len(),
            r.median_error_m,
            r.p90_error_m
        );
    }
}
