//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each `figNN` / `tableN` / `secN_N` module reproduces one evaluation
//! artifact and returns a plain-text report with the same rows/series the
//! paper plots, annotated with the paper's own numbers for comparison.
//! The `harness` binary dispatches on experiment id; `harness all` runs
//! everything (see DESIGN.md §4 for the index).
//!
//! All experiments run on fixed seeds and are bit-reproducible.

pub mod experiments;
pub mod stats;
pub mod util;

/// Experiment ids in paper order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig2",
    "fig4",
    "sec4_1",
    "fig5",
    "fig8",
    "fig9",
    "fig10b",
    "table1",
    "fig11a",
    "fig11b",
    "fig12a",
    "fig12b",
    "fig13a",
    "fig13b",
    "fig14",
    "fig15",
    "sec7_8",
    "hotpath",
    "refit",
    "obs",
    "recover",
    "backends",
    "ablations",
];

/// Runs one experiment by id, returning its report.
pub fn run_experiment(id: &str) -> Option<String> {
    use experiments::*;
    let report = match id {
        "fig2" => fig2::run(),
        "fig4" => fig4::run(),
        "sec4_1" => sec4_1::run(),
        "fig5" => fig5::run(),
        "fig8" => fig8::run(),
        "fig9" => fig9::run(),
        "fig10b" => fig10b::run(),
        "table1" => table1::run(),
        "fig11a" => fig11a::run(),
        "fig11b" => fig11b::run(),
        "fig12a" => fig12a::run(),
        "fig12b" => fig12b::run(),
        "fig13a" => fig13a::run(),
        "fig13b" => fig13b::run(),
        "fig14" => fig14::run(),
        "fig15" => fig15::run(),
        "sec7_8" => sec7_8::run(),
        "hotpath" => hotpath::run(),
        "refit" => refit::run(),
        "obs" => obs::run(),
        "recover" => recover::run(),
        "backends" => backends::run(),
        "ablations" => ablations::run(),
        _ => return None,
    };
    Some(report)
}
