//! Shared experiment plumbing: standard runs, parallel seed sweeps,
//! report formatting.

use locble_ble::{BeaconHardware, BeaconId, BeaconKind};
use locble_core::{Estimator, EstimatorConfig};
use locble_geom::Vec2;
use locble_scenario::world::simulate_session;
use locble_scenario::{
    environment_by_index, localize, plan_l_walk, train_default_envaware, BeaconSpec, RunOutcome,
    SessionConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Heap allocations performed by the current thread while
    /// [`CountingAlloc`] is installed (const-init: reading it never
    /// allocates, so it is safe inside the allocator itself).
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Heap allocations performed by every thread of the process while
/// [`CountingAlloc`] is installed.
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count_alloc() {
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
    PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// A [`GlobalAlloc`] wrapper around [`System`] that counts every
/// allocation (and reallocating resize), per thread and process-wide.
/// Install it per binary with `#[global_allocator]`; the zero-alloc
/// regression tests (`tests/alloc_steady.rs`) read a counter around a
/// steady-state section to prove the hot paths stay off the heap.
/// Frees are deliberately not counted: a steady-state loop that
/// allocates and frees per batch still churns the allocator.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations counted on this thread so far. Monotonic; diff two reads
/// around the section under test. Always 0 when [`CountingAlloc`] is
/// not the binary's global allocator.
pub fn alloc_count() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Allocations counted on every thread so far — what a section that
/// hands work to other threads (the engine's pooled drain) must be
/// measured with. Other threads running at the same time count too.
pub fn process_alloc_count() -> u64 {
    PROCESS_ALLOCS.load(Ordering::Relaxed)
}

/// Worker-thread count experiments should use for concurrent engines
/// (harness `--threads N`); 0 until configured.
static HARNESS_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the thread count for engine-backed experiments (the harness
/// `--threads N` flag).
pub fn set_harness_threads(threads: usize) {
    HARNESS_THREADS.store(threads, Ordering::Relaxed);
}

/// The configured engine thread count; defaults to 8 capped by the
/// machine's parallelism when `--threads` was not given.
pub fn harness_threads() -> usize {
    match HARNESS_THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map_or(4, |n| n.get())
            .min(8),
        n => n,
    }
}

/// One shared EnvAware model for the whole harness run (training the SVM
/// once instead of per experiment).
pub fn shared_envaware() -> locble_core::EnvAware {
    static MODEL: OnceLock<locble_core::EnvAware> = OnceLock::new();
    MODEL.get_or_init(|| train_default_envaware(0xE7A)).clone()
}

/// The default estimator used by every experiment unless it ablates
/// something: EnvAware + ANF, paper configuration.
pub fn default_estimator() -> Estimator {
    Estimator::with_envaware(EstimatorConfig::default(), shared_envaware())
}

/// Parameters of one stationary-target run.
#[derive(Debug, Clone, Copy)]
pub struct StationaryRun {
    /// Table-1 environment index.
    pub env_index: usize,
    /// Beacon position (world frame).
    pub target: Vec2,
    /// Walk start (world frame).
    pub start: Vec2,
    /// L legs, metres.
    pub legs: (f64, f64),
    /// Beacon hardware.
    pub kind: BeaconKind,
    /// Seed.
    pub seed: u64,
}

impl StationaryRun {
    /// Executes the run with the given estimator. `None` when the plan
    /// does not fit or the beacon goes unheard.
    pub fn execute(&self, estimator: &Estimator) -> Option<RunOutcome> {
        let env = environment_by_index(self.env_index)?;
        let beacons = [BeaconSpec {
            id: BeaconId(1),
            position: self.target,
            hardware: BeaconHardware::ideal(self.kind),
        }];
        let plan = plan_l_walk(&env, self.start, self.legs.0, self.legs.1, 0.3)?;
        let session = simulate_session(
            &env,
            &beacons,
            &plan,
            &SessionConfig::paper_default(self.seed),
        );
        localize(&session, BeaconId(1), estimator)
    }
}

/// Runs a set of independent jobs across threads (std scoped), in a
/// deterministic output order.
pub fn parallel_map<T, F>(jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let results: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let threads = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(jobs.max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                *results[i].lock().expect("result slot not poisoned") = Some(f(i));
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot not poisoned")
                .expect("every job ran")
        })
        .collect()
}

/// Formats a labeled row of a report table.
pub fn row(label: &str, value: impl std::fmt::Display) -> String {
    format!("  {label:<34} {value}\n")
}

/// `true` when the report line containing `label` ends with "true"
/// (robust to column padding).
pub fn flag_is_true(report: &str, label: &str) -> bool {
    report
        .lines()
        .any(|l| l.contains(label) && l.trim_end().ends_with("true"))
}

/// Report header with the experiment id and the paper's claim.
pub fn header(id: &str, title: &str, paper_claim: &str) -> String {
    format!("== {id}: {title} ==\npaper: {paper_claim}\n",)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_run_executes() {
        let run = StationaryRun {
            env_index: 1,
            target: Vec2::new(4.0, 4.0),
            start: Vec2::new(1.0, 1.0),
            legs: (2.5, 2.0),
            kind: BeaconKind::Estimote,
            seed: 5,
        };
        let estimator = Estimator::new(EstimatorConfig::default());
        let outcome = run.execute(&estimator).expect("run succeeds");
        assert!(outcome.error_m.is_finite());
    }

    #[test]
    fn parallel_map_preserves_order_and_coverage() {
        let out = parallel_map(64, |i| i * i);
        assert_eq!(out.len(), 64);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * i);
        }
    }

    #[test]
    fn parallel_map_zero_jobs() {
        let out: Vec<usize> = parallel_map(0, |i| i);
        assert!(out.is_empty());
    }
}
