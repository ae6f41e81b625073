//! A seeded, end-to-end serving benchmark for the LocBLE stack.
//!
//! One run drives a long synthetic Table-1 fleet stream through the real
//! serving stack (generator → reactor → WAL → engine → ack, or through
//! the cluster front) and reports the end-to-end metrics; a traced run
//! replays the same inputs through each layer's public functions and
//! reports the per-layer metrics. See `README.md` for the workloads,
//! metrics and how to read the spans.

pub mod drive;
pub mod inputs;
pub mod output;
pub mod run;
pub mod stats;
pub mod target;
pub mod traced;
