//! The durability facade: one directory holding a WAL (`wal.log`) and
//! the latest snapshot (`snapshot.bin`), with a recovery path that
//! rebuilds an [`Engine`] bit-identical to the uninterrupted run.
//!
//! Write path (the server's ingest loop, under the engine lock):
//!
//! 1. [`SessionStore::append`] every *offered* batch **before**
//!    handing it to [`Engine::ingest`] — offered-before-ingest is the
//!    "write-ahead" in WAL: an advert the engine saw is always on disk
//!    first, so a crash between the two replays it instead of losing it.
//! 2. Checkpoint periodically and at shutdown. The snapshot records the
//!    WAL position it covers; older records become dead weight (skipped
//!    on recovery) but are never needed again. One job does the work —
//!    sync the WAL through a second handle, then stream the snapshot —
//!    from two entry points: [`SessionStore::checkpoint`] runs it inline
//!    and returns once the snapshot is durable;
//!    [`SessionStore::checkpoint_in_background`] clones the state on the
//!    caller's thread and runs the rest on a writer thread in the
//!    kernel's idle scheduling class, so a serving loop pauses only for
//!    the clone and keeps its CPUs while the job runs. At most one job
//!    is in flight: each checkpoint waits for the previous one, so
//!    snapshot positions only grow, and a failed job surfaces at the
//!    next checkpoint call (or [`SessionStore::wait_checkpoint`]).
//!    Dropping the store waits for its job.
//!
//! Recovery ordering ([`SessionStore::recover`]): read the snapshot (if
//! any) → build the engine from it ([`Engine::restore`], or a fresh
//! [`Engine::new`] without one) → stream the WAL once, tolerating a
//! torn tail: skip the first `snapshot.wal_records` records
//! (position-based skipping is the idempotence mechanism: duplicate
//! adverts carry legal equal timestamps, so replaying them would
//! double-count) and replay the rest through normal ingest in chunks of
//! `REPLAY_CHUNK` adverts → open the appender at the pass's intact
//! length. Recovery memory is the engine plus one read buffer and one chunk,
//! whatever the length of the history behind the snapshot.

use crate::snapshot::{read_snapshot, write_snapshot, SnapshotError};
use crate::wal::{scan_file, FsyncPolicy, Wal, ADVERT_RECORD_LEN};
use locble_core::Estimator;
use locble_engine::{Advert, Engine, EngineConfig, EngineState, IngestReport, RestoreError};
use locble_obs::Obs;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

/// WAL file name inside a store directory.
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// Adverts recovery replays per [`Engine::ingest_all`] call. Ingest is
/// bit-identical under any slicing, so the chunk only bounds the
/// memory a replay holds.
const REPLAY_CHUNK: usize = 4096;

/// Why recovery failed. Torn WAL tails and missing files are *not*
/// errors — they are the expected aftermath of a crash.
#[derive(Debug)]
pub enum RecoverError {
    /// A filesystem operation failed.
    Io(std::io::Error),
    /// The snapshot file exists but is damaged beyond its CRC guard.
    Snapshot(SnapshotError),
    /// The snapshot decoded but the engine rejected it (config
    /// mismatch, e.g. different shard count).
    Restore(RestoreError),
    /// The snapshot claims more WAL records than the log holds — the
    /// two files are from different sessions or the WAL was truncated
    /// below the checkpoint. Refusing beats silently replaying the
    /// wrong tail.
    WalBehindSnapshot {
        /// Intact records found in the WAL.
        wal_records: u64,
        /// Records the snapshot claims were already folded in.
        snapshot_records: u64,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "recover: {e}"),
            RecoverError::Snapshot(e) => write!(f, "recover: {e}"),
            RecoverError::Restore(e) => write!(f, "recover: {e}"),
            RecoverError::WalBehindSnapshot {
                wal_records,
                snapshot_records,
            } => write!(
                f,
                "recover: WAL has {wal_records} records but the snapshot \
                 covers {snapshot_records} — mismatched session files"
            ),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<std::io::Error> for RecoverError {
    fn from(e: std::io::Error) -> Self {
        RecoverError::Io(e)
    }
}

impl From<SnapshotError> for RecoverError {
    fn from(e: SnapshotError) -> Self {
        RecoverError::Snapshot(e)
    }
}

impl From<RestoreError> for RecoverError {
    fn from(e: RestoreError) -> Self {
        RecoverError::Restore(e)
    }
}

/// What [`SessionStore::recover`] found and did.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    /// A snapshot file was present and valid.
    pub snapshot_found: bool,
    /// Intact records in the WAL.
    pub wal_records: u64,
    /// Records replayed through ingest (the tail past the snapshot).
    pub replayed: u64,
    /// Records skipped because the snapshot already covered them.
    pub skipped: u64,
    /// The WAL ended in a torn record (tolerated, truncated on open).
    pub torn_tail: bool,
    /// Wall-clock recovery time, milliseconds.
    pub recovery_ms: f64,
    /// The folded ingest report of the replay — reconciles with the
    /// uninterrupted run's reports for the same adverts.
    pub replay: IngestReport,
}

/// An open durability directory: appendable WAL plus snapshot slot.
#[derive(Debug)]
pub struct SessionStore {
    dir: PathBuf,
    wal: Wal,
    obs: Obs,
    /// The background checkpoint in flight, if any (at most one).
    job: Option<JoinHandle<std::io::Result<u64>>>,
}

/// One checkpoint after its state has been cloned: sync the WAL records
/// the snapshot covers, then write the snapshot. The same work runs
/// inline ([`SessionStore::checkpoint`]) or on a writer thread
/// ([`SessionStore::checkpoint_in_background`]).
struct CheckpointJob {
    /// A second handle on the WAL file, so the sync needs no access to
    /// the [`Wal`] the caller keeps appending through.
    wal: File,
    path: PathBuf,
    wal_records: u64,
    state: EngineState,
    obs: Obs,
}

impl CheckpointJob {
    fn run(self) -> std::io::Result<u64> {
        // Records appended but not yet synced must be durable before
        // the snapshot claims to cover them: if the rename landed and
        // the tail didn't, recovery would skip records that never made
        // it to disk. The sync goes through a second handle on the same
        // file, so it covers every record written before the job began.
        self.wal.sync_data()?;
        let bytes = write_snapshot(&self.path, self.wal_records, &self.state)?;
        self.obs.counter_add("store.snapshots", 1);
        self.obs.gauge_set("store.snapshot_bytes", bytes as f64);
        Ok(bytes)
    }
}

impl SessionStore {
    /// Opens (creating if needed) the durability directory for a fresh
    /// session. Existing WAL records are preserved and appended after;
    /// use [`SessionStore::recover`] instead when state should be
    /// rebuilt from them.
    pub fn open(dir: &Path, policy: FsyncPolicy, obs: Obs) -> std::io::Result<SessionStore> {
        std::fs::create_dir_all(dir)?;
        let (wal, report) = Wal::open(&dir.join(WAL_FILE), policy)?;
        Ok(SessionStore::with_wal(dir, wal, report.torn_tail, obs))
    }

    /// The store around a WAL opened for appending; `torn_tail` says
    /// whether opening it cut a torn record away.
    fn with_wal(dir: &Path, wal: Wal, torn_tail: bool, obs: Obs) -> SessionStore {
        if torn_tail {
            obs.counter_add("store.torn_tails", 1);
        }
        SessionStore {
            dir: dir.to_path_buf(),
            wal,
            obs,
            job: None,
        }
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total records in the WAL (pre-existing + appended).
    pub fn wal_records(&self) -> u64 {
        self.wal.records()
    }

    /// Logs one offered batch, in offer order, before it reaches the
    /// engine. Returns the WAL record count after the append.
    pub fn append(&mut self, adverts: &[Advert]) -> std::io::Result<u64> {
        let records = self.wal.append(adverts)?;
        // Hoisted behind the enabled check so the hot append path pays
        // nothing — not even the byte arithmetic — under a noop handle.
        if self.obs.enabled() {
            self.obs
                .counter_add("store.wal_appends", adverts.len() as u64);
            self.obs.counter_add(
                "store.wal_bytes",
                (adverts.len() * ADVERT_RECORD_LEN) as u64,
            );
        }
        Ok(records)
    }

    /// Forces appended records to stable storage regardless of policy.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.wal.sync()
    }

    /// Clones the engine's state, stamped with the current WAL
    /// position, into a job that owns everything it needs.
    fn job(&self, engine: &Engine) -> std::io::Result<CheckpointJob> {
        Ok(CheckpointJob {
            wal: self.wal.sync_handle()?,
            path: self.dir.join(SNAPSHOT_FILE),
            wal_records: self.wal.records(),
            state: engine.export_state(),
            obs: self.obs.clone(),
        })
    }

    /// Snapshots the engine's current state, stamped with the current
    /// WAL position, and returns once the snapshot is durable. Call
    /// with the engine lock held (or otherwise quiesced relative to
    /// [`SessionStore::append`]) so the position and the state agree.
    /// A background checkpoint in flight is waited for first; if it
    /// failed, its error is returned once this snapshot is written.
    /// Returns the snapshot size in bytes.
    pub fn checkpoint(&mut self, engine: &Engine) -> std::io::Result<u64> {
        let previous = self.wait_checkpoint();
        let bytes = self.job(engine)?.run()?;
        previous.map(|()| bytes)
    }

    /// Starts the same checkpoint as [`SessionStore::checkpoint`], but
    /// only the state clone happens here: the WAL sync and the snapshot
    /// write run on a writer thread that yields the CPU to every other
    /// thread (`SCHED_IDLE` on Linux). A checkpoint already in flight is
    /// waited for first, so at most one runs and snapshot positions
    /// only grow; if it failed, its error is returned and no new one
    /// starts (the caller retries at its next cadence point).
    pub fn checkpoint_in_background(&mut self, engine: &Engine) -> std::io::Result<()> {
        self.wait_checkpoint()?;
        let job = self.job(engine)?;
        let handle = std::thread::Builder::new()
            .name("locble-checkpoint".into())
            .spawn(move || {
                run_on_idle_cpu();
                job.run()
            })?;
        self.job = Some(handle);
        Ok(())
    }

    /// Waits for the background checkpoint in flight, if any, and
    /// returns its outcome. Once this returns `Ok`, every snapshot
    /// started so far is durable.
    pub fn wait_checkpoint(&mut self) -> std::io::Result<()> {
        match self.job.take().map(JoinHandle::join) {
            None => Ok(()),
            Some(Ok(result)) => result.map(drop),
            Some(Err(_)) => Err(std::io::Error::other("checkpoint writer panicked")),
        }
    }

    /// Rebuilds the engine from the directory's snapshot + WAL tail and
    /// returns the store re-opened for appending. `config` and
    /// `prototype` must match the crashed session's (they are not
    /// persisted — they are code/deployment configuration, not state).
    ///
    /// The WAL is read once, as a stream: records the snapshot covers
    /// are skipped by position, the rest are replayed in chunks of
    /// `REPLAY_CHUNK` adverts, and the appender opens at the intact
    /// length that pass found. A log shorter than the snapshot's position is
    /// refused before anything is cut or appended.
    pub fn recover(
        dir: &Path,
        policy: FsyncPolicy,
        config: EngineConfig,
        prototype: Estimator,
        obs: Obs,
    ) -> Result<(SessionStore, Engine, RecoveryReport), RecoverError> {
        let started = std::time::Instant::now();
        std::fs::create_dir_all(dir)?;
        let snapshot = read_snapshot(&dir.join(SNAPSHOT_FILE))?;
        let snapshot_found = snapshot.is_some();
        let skipped = snapshot.as_ref().map_or(0, |s| s.wal_records);
        let mut engine = match snapshot {
            Some(s) => Engine::restore(config, prototype, obs.clone(), s.state)?,
            // A crash before the first checkpoint: replay the whole log
            // into a fresh engine.
            None => Engine::new(config, prototype, obs.clone()),
        };

        let path = dir.join(WAL_FILE);
        let mut replay = IngestReport::default();
        let mut chunk = Vec::with_capacity(REPLAY_CHUNK);
        let mut position = 0u64;
        let wal_report = scan_file(&path, 0, u64::MAX, |advert| {
            position += 1;
            if position <= skipped {
                return;
            }
            chunk.push(advert);
            if chunk.len() == REPLAY_CHUNK {
                replay.absorb(engine.ingest_all(&chunk));
                chunk.clear();
            }
        })?;
        if skipped > wal_report.records {
            // Nothing was replayed: every record fell below the
            // snapshot's position.
            return Err(RecoverError::WalBehindSnapshot {
                wal_records: wal_report.records,
                snapshot_records: skipped,
            });
        }
        replay.absorb(engine.ingest_all(&chunk));

        let wal = Wal::resume(&path, policy, wal_report)?;
        let store = SessionStore::with_wal(dir, wal, wal_report.torn_tail, obs.clone());
        let report = RecoveryReport {
            snapshot_found,
            wal_records: wal_report.records,
            replayed: wal_report.records - skipped,
            skipped,
            torn_tail: wal_report.torn_tail,
            recovery_ms: started.elapsed().as_secs_f64() * 1e3,
            replay,
        };
        obs.counter_add("store.recoveries", 1);
        obs.counter_add("store.replayed", report.replayed);
        obs.gauge_set("store.recovery_ms", report.recovery_ms);
        Ok((store, engine, report))
    }
}

/// Moves the calling thread into the kernel's idle scheduling class
/// (`SCHED_IDLE`): the writer then runs on CPU time the serving threads
/// leave unused, and any of them that wakes preempts it. At normal
/// priority it competed with the reactor and the engine's drain helper,
/// and round trips sent while a job ran took 3–4× as long (DESIGN.md
/// §11). Best effort: if the call is refused, the thread stays at
/// normal priority.
fn run_on_idle_cpu() {
    #[cfg(target_os = "linux")]
    {
        /// `struct sched_param`.
        #[repr(C)]
        struct SchedParam {
            sched_priority: i32,
        }
        const SCHED_IDLE: i32 = 5;
        // From the C runtime std links; declaring it here avoids a libc
        // dependency (the server's epoll wrapper does the same).
        extern "C" {
            fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        }
        // SAFETY: pid 0 names the calling thread, and `param` points at
        // a live `struct sched_param` that the call only reads.
        unsafe {
            sched_setscheduler(0, SCHED_IDLE, &SchedParam { sched_priority: 0 });
        }
    }
}

impl Drop for SessionStore {
    /// Waits for the checkpoint in flight, so a dropped store leaves no
    /// writer behind. Its outcome has nobody to go to: a failed job
    /// leaves the previous snapshot plus the WAL, which still recover.
    fn drop(&mut self) {
        let _ = self.wait_checkpoint();
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    /// The calling thread's scheduling policy, from
    /// `/proc/thread-self/stat` (field 41).
    fn policy() -> u32 {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("read stat");
        // Fields after the parenthesised name start at field 3.
        let after_name = &stat[stat.rfind(')').expect("name") + 1..];
        after_name
            .split_whitespace()
            .nth(41 - 3)
            .expect("policy field")
            .parse()
            .expect("int")
    }

    #[test]
    fn background_writer_runs_in_the_idle_class() {
        let (before, after) = std::thread::spawn(|| {
            let before = policy();
            run_on_idle_cpu();
            (before, policy())
        })
        .join()
        .expect("thread");
        assert_eq!(before, 0, "a new thread starts in SCHED_OTHER");
        assert_eq!(after, 5, "the writer moves to SCHED_IDLE");
        assert_eq!(policy(), 0, "only the calling thread moves");
    }
}
