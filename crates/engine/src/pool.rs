//! The engine's persistent worker pool.
//!
//! A pass runs one piece of work over units `0..n` (the engine's
//! shards) on the calling thread plus `h` parked helper threads. The
//! units are cut into fixed strides: of `w = h + 1` workers, worker `k`
//! (the caller is 0, helper `k` is the `k`-th spawned) runs units `k`,
//! `k + w`, `k + 2w`, ... So each unit runs exactly once per pass, on
//! one thread, and a pass with the same helper count gives every unit
//! the same thread as the last. That keeps a shard's allocations in one
//! thread's malloc arena: when workers instead claimed whichever unit
//! came next, a shard's sessions grew and died in whichever arena the
//! pass happened to give it, and a four-engine process held 14–20%
//! more memory at peak.
//!
//! Helpers are spawned on the first pass that asks for them and joined
//! when the pool drops; between passes they sleep on a condvar, so a
//! pass costs a wake-up instead of a thread spawn and join. A panic on
//! any worker is re-raised on the caller once every worker of the pass
//! has finished its stride, and the helper stays parked in the pool.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Work a [`WorkerPool`] runs, one unit at a time.
pub(crate) trait PoolWork: Send + Sync + 'static {
    /// What one pass hands every worker.
    type Pass: Clone + Send + 'static;

    /// Units in every pass.
    fn units(&self) -> usize;

    /// Runs unit `unit` of `pass`.
    fn run(&self, pass: &Self::Pass, unit: usize);
}

/// The hand-off state, guarded by [`Shared::state`].
struct State<P> {
    /// Counts passes that used helpers; a helper joins each one once.
    generation: u64,
    /// The running pass, while its helpers work.
    pass: Option<P>,
    /// Helpers the running pass uses: helpers `1..=wanted`.
    wanted: usize,
    /// Helpers that finished their stride of the running pass.
    done: usize,
    /// The first helper panic of the running pass.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct Shared<W: PoolWork> {
    work: Arc<W>,
    units: usize,
    state: Mutex<State<W::Pass>>,
    /// A new pass (or shutdown) for parked helpers.
    wake: Condvar,
    /// The last helper of the running pass finished.
    idle: Condvar,
}

impl<W: PoolWork> Shared<W> {
    fn lock(&self) -> MutexGuard<'_, State<W::Pass>> {
        self.state.lock().expect("pool state not poisoned")
    }

    /// Runs worker `worker`'s stride of `workers`.
    fn run_stride(&self, pass: &W::Pass, worker: usize, workers: usize) {
        for unit in (worker..self.units).step_by(workers) {
            self.work.run(pass, unit);
        }
    }
}

/// Helper `worker`: parks until a pass wants it, runs its stride,
/// reports back; exits on shutdown.
fn helper_loop<W: PoolWork>(shared: Arc<Shared<W>>, worker: usize) {
    let mut seen = 0;
    loop {
        let (pass, workers) = {
            let mut state = shared.lock();
            while !state.shutdown && (state.generation == seen || worker > state.wanted) {
                state = shared.wake.wait(state).expect("pool state not poisoned");
            }
            if state.shutdown {
                return;
            }
            seen = state.generation;
            let pass = state.pass.clone().expect("a wanted helper has a pass");
            (pass, state.wanted + 1)
        };
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            shared.run_stride(&pass, worker, workers)
        }));
        drop(pass);
        let mut state = shared.lock();
        state.done += 1;
        if let Err(payload) = outcome {
            state.panic.get_or_insert(payload);
        }
        if state.done == state.wanted {
            shared.idle.notify_one();
        }
    }
}

/// Up to `size` lazily spawned helper threads that join the caller in
/// running a [`PoolWork`].
pub(crate) struct WorkerPool<W: PoolWork> {
    shared: Arc<Shared<W>>,
    helpers: Vec<JoinHandle<()>>,
    size: usize,
}

impl<W: PoolWork> WorkerPool<W> {
    /// A pool of up to `size` helpers for `work`. Spawns nothing yet.
    pub(crate) fn new(work: Arc<W>, size: usize) -> WorkerPool<W> {
        WorkerPool {
            shared: Arc::new(Shared {
                units: work.units(),
                work,
                state: Mutex::new(State {
                    generation: 0,
                    pass: None,
                    wanted: 0,
                    done: 0,
                    panic: None,
                    shutdown: false,
                }),
                wake: Condvar::new(),
                idle: Condvar::new(),
            }),
            helpers: Vec::new(),
            size,
        }
    }

    /// Runs `pass` over every unit on the calling thread plus `helpers`
    /// pooled threads (capped at the pool's size; none when 0). Returns
    /// once every unit has run; the first panic on any worker is
    /// re-raised here.
    pub(crate) fn run(&mut self, pass: W::Pass, helpers: usize) {
        let helpers = helpers.min(self.size);
        if helpers == 0 {
            self.shared.run_stride(&pass, 0, 1);
            return;
        }
        let shared = &self.shared;
        if self.helpers.is_empty() {
            self.helpers = (1..=self.size)
                .map(|k| {
                    let shared = Arc::clone(shared);
                    std::thread::Builder::new()
                        .name(format!("locble-drain-{k}"))
                        .spawn(move || helper_loop(shared, k))
                        .expect("spawn pool helper")
                })
                .collect();
        }
        {
            let mut state = shared.lock();
            state.generation += 1;
            state.pass = Some(pass.clone());
            state.wanted = helpers;
            state.done = 0;
        }
        // Every parked helper checks whether the pass wants it.
        shared.wake.notify_all();
        let mine = panic::catch_unwind(AssertUnwindSafe(|| {
            shared.run_stride(&pass, 0, helpers + 1)
        }));
        let theirs = {
            let mut state = shared.lock();
            while state.done < state.wanted {
                state = shared.idle.wait(state).expect("pool state not poisoned");
            }
            state.pass = None;
            state.panic.take()
        };
        if let Err(payload) = mine {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = theirs {
            panic::resume_unwind(payload);
        }
    }
}

impl<W: PoolWork> Drop for WorkerPool<W> {
    fn drop(&mut self) {
        if self.helpers.is_empty() {
            return;
        }
        self.shared.lock().shutdown = true;
        self.shared.wake.notify_all();
        for helper in self.helpers.drain(..) {
            // Helpers catch every panic of a pass, so a join error
            // cannot hide an unreported one.
            let _ = helper.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    /// Records which threads ran each unit; unit `panic_unit` panics
    /// when a pass names it.
    struct Tally {
        runs: Vec<Mutex<Vec<ThreadId>>>,
    }

    impl PoolWork for Tally {
        type Pass = Option<usize>;

        fn units(&self) -> usize {
            self.runs.len()
        }

        fn run(&self, panic_unit: &Option<usize>, unit: usize) {
            self.runs[unit]
                .lock()
                .unwrap()
                .push(std::thread::current().id());
            assert_ne!(Some(unit), *panic_unit, "unit {unit} failed");
        }
    }

    fn tally(units: usize) -> Arc<Tally> {
        Arc::new(Tally {
            runs: (0..units).map(|_| Mutex::new(Vec::new())).collect(),
        })
    }

    #[test]
    fn every_unit_runs_once_per_pass_on_the_same_thread() {
        let work = tally(16);
        let mut pool = WorkerPool::new(Arc::clone(&work), 3);
        for _ in 0..20 {
            pool.run(None, 3);
        }
        assert_eq!(pool.helpers.len(), 3);
        let caller = std::thread::current().id();
        for (unit, runs) in work.runs.iter().enumerate() {
            let runs = runs.lock().unwrap();
            assert_eq!(runs.len(), 20, "unit {unit}");
            assert!(runs.iter().all(|&t| t == runs[0]), "unit {unit} moved");
            assert_eq!(runs[0] == caller, unit % 4 == 0, "unit {unit}");
        }
    }

    #[test]
    fn fewer_helpers_still_cover_every_unit() {
        let work = tally(7);
        let mut pool = WorkerPool::new(Arc::clone(&work), 3);
        for helpers in [3, 1, 2, 0, 5] {
            pool.run(None, helpers);
        }
        assert!(work.runs.iter().all(|r| r.lock().unwrap().len() == 5));
    }

    #[test]
    fn passes_without_helpers_spawn_nothing() {
        let work = tally(4);
        let mut pool = WorkerPool::new(Arc::clone(&work), 3);
        pool.run(None, 0);
        assert!(pool.helpers.is_empty());
        let caller = std::thread::current().id();
        assert!(work.runs.iter().all(|r| *r.lock().unwrap() == [caller]));
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_and_the_pool_keeps_serving() {
        let work = tally(8);
        let mut pool = WorkerPool::new(Arc::clone(&work), 2);
        for panic_unit in 0..8 {
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| pool.run(Some(panic_unit), 2)));
            let payload = outcome.expect_err("the failing unit's panic propagates");
            let message = payload
                .downcast_ref::<String>()
                .expect("assert_ne! panics with a String");
            assert!(message.contains(&format!("unit {panic_unit} failed")));
        }
        // A panicking worker skips the rest of its stride, as a panicking
        // scoped thread would; the next pass runs every unit again.
        let before: Vec<usize> = work.runs.iter().map(|r| r.lock().unwrap().len()).collect();
        pool.run(None, 2);
        for (runs, before) in work.runs.iter().zip(before) {
            assert_eq!(runs.lock().unwrap().len(), before + 1);
        }
    }
}
