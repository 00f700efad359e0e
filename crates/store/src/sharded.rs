//! The file-backed durable tier: N independent log shards under one root
//! directory, each writing by group commit.
//!
//! [`ShardedLogStore`] is the one store over files — the one
//! [`PersistentStore`] that writes to disk, and the one owner of the
//! root directory below; "a single log" is `shards: 1`. A shard is the
//! plain state of one log (see the module docs of `log.rs`) behind its own
//! [`Mutex`], which serialises every append behind the shard's one log
//! file; that lock (and its fsync) is the scaling ceiling of a shard. With
//! `shards: N` the key space is split across `N` shards — each with its own
//! log file and pending batch — selected by a stable
//! hash of the [`UserId`], so unrelated users never contend on the same
//! lock, batch or fsync, and recovery can replay shards concurrently
//! (reopen wall-clock is the *max* shard replay time, not the sum).
//!
//! # On-disk layout
//!
//! ```text
//! <root>/
//!   LOCK              owner's pid — taken before MANIFEST is read
//!   MANIFEST          "DYNASHARD2\nshards N\n" — written once, atomically
//!   shard-0000.log    shard 0's log, the one file it ever writes
//!   shard-0001.log
//!   …
//! ```
//!
//! Opening claims the whole root through the one `LOCK`, before the
//! manifest is read or written: torn-tail repair truncates shard files and
//! a fresh directory's manifest is written by whoever opens it first, so
//! two live owners would corrupt each other. A lock left by a process that
//! is provably dead (a crash) is broken; the lock is released on drop. Each
//! directory the open creates on the way to the root, the manifest's rename
//! and each new shard file is followed by an fsync of the directory that
//! holds it, so a machine crash cannot lose the entry. A root whose manifest has been written but
//! not yet all its shard files reads those shards as empty, and opening it
//! creates them.
//!
//! A root an older build wrote — `DYNASHARD1`, a subdirectory per shard —
//! fails the manifest's magic check and is refused as corrupt; nothing in
//! it is changed.
//!
//! The shard count is fixed at creation and persisted in `MANIFEST`;
//! reopening with a different count is refused, because the routing hash
//! would send users to shards that do not hold their records. The routing
//! function itself ([`ShardedLogStore::shard_index_of`]) is part of the
//! on-disk format and must never change.
//!
//! # Group commit and the background flusher
//!
//! Every shard writes by group commit (see the module docs of `log.rs`):
//! appends are acknowledged into the shard's in-memory batch and written as
//! one frame when the batch fills. A commit only *writes* the frame; no
//! commit fsyncs. A write becomes machine-durable at exactly one of two
//! points: an explicit [`sync`], or the background flusher, which syncs
//! each shard through a duplicated file handle *without* holding the shard
//! lock — so the write path never waits on the disk, and on a single core
//! appends overlap the flush that makes them durable. Fsync-per-append is a one-shard store with
//! `max_batch_records: 1`, no flusher, and a [`sync`] after every append.
//!
//! The bounded [`flush_interval`] caps the ack-to-durable window. Each wake
//! the flusher (a) commits the open batch of any shard that has gone a full
//! interval without committing on its own — busy shards, whose fill trigger
//! commits faster than that, never get their batch split — and (b) fsyncs a
//! shard once it has accumulated `SYNC_BYTES_THRESHOLD` (1 MiB) unsynced
//! bytes or has carried *any* unsynced bytes for `SYNC_WAKE_BOUND` (16)
//! wakes. An acknowledged append is therefore machine-durable within a
//! small constant number of intervals (at most `2 + SYNC_WAKE_BOUND`, ~90 ms
//! at the default interval) — or sooner, whenever an explicit [`sync`]
//! intervenes. Under a fast write load the
//! byte threshold fires first, so the fsync count stays proportional to
//! data volume — every fsync forces a journal commit, and a wake bound
//! tight enough to dominate under load would turn the pipelined flusher
//! into hundreds of tiny journal commits per second.
//!
//! [`Mutex`]: parking_lot::Mutex
//! [`flush_interval`]: ShardedConfig::flush_interval
//! [`sync`]: PersistentStore::sync

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};

use dynasore_types::{Error, Result, TraceEventKind, UserId, View};

use crate::log::{replay_log, RecoveryStats, Shard};
use crate::obs::StoreObs;
use crate::persistent::PersistentStore;
use crate::segment::sync_parent;

/// The lock file that claims a store directory for one owner.
const LOCK_FILE: &str = "LOCK";
/// The manifest file that pins the shard count of a directory.
const MANIFEST_FILE: &str = "MANIFEST";
/// First line of the manifest; bumped only on incompatible layout changes.
const MANIFEST_MAGIC: &str = "DYNASHARD2";

/// Unsynced bytes at which the flusher fsyncs a shard without waiting out
/// [`SYNC_WAKE_BOUND`]: batching the disk flush into ~megabyte chunks keeps
/// the fsync count proportional to data volume, not wake frequency.
const SYNC_BYTES_THRESHOLD: u64 = 1 << 20;
/// Maximum consecutive flusher wakes a shard may carry unsynced bytes before
/// it is fsynced regardless of volume — the time half of the ack-to-durable
/// bound, `(2 + SYNC_WAKE_BOUND) × flush_interval`. Loose enough (16 wakes ≈
/// 90 ms at the 5 ms default interval) that a busy shard reaches the byte
/// threshold first; a smaller durability window is a smaller
/// [`flush_interval`](ShardedConfig::flush_interval).
const SYNC_WAKE_BOUND: u32 = 16;

/// Configuration of a [`ShardedLogStore`]. Every shard runs with the same
/// values.
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of independent shards. Fixed at creation (persisted in the
    /// manifest); reopening with a different count is refused. Default 8.
    pub shards: usize,
    /// Acknowledged appends that force a shard to commit once its pending
    /// batch holds this many (see the module docs of `log.rs`). `1` commits
    /// every record before its append returns. Default 4096.
    pub max_batch_records: u32,
    /// Wake period of the background flusher, which bounds the
    /// ack-to-durable window: each wake commits the open batch of any shard
    /// that has gone a full interval without committing on its own (busy
    /// shards, whose fill trigger commits faster, never get their batch
    /// split) and fsyncs shards on the pipelined cadence described in the
    /// module documentation of `sharded.rs` — at most `2 + SYNC_WAKE_BOUND`
    /// (18) intervals from acknowledgement to machine durability. `None`
    /// disables the flusher: batches then commit only when they fill or on
    /// an explicit [`flush`]/[`sync`]/[`reread`], and nothing fsyncs behind
    /// the caller's back — the right mode for deterministic tests and
    /// simulations. Default 5 ms.
    ///
    /// [`flush`]: PersistentStore::flush
    /// [`sync`]: PersistentStore::sync
    /// [`reread`]: ShardedLogStore::reread
    pub flush_interval: Option<Duration>,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 8,
            max_batch_records: 4096,
            flush_interval: Some(Duration::from_millis(5)),
        }
    }
}

/// Per-shard and aggregate recovery measurements of a sharded open (or
/// [`reread`](ShardedLogStore::reread)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedRecoveryStats {
    /// Sums across every shard.
    pub total: RecoveryStats,
    /// One entry per shard, in shard order.
    pub per_shard: Vec<RecoveryStats>,
}

impl ShardedRecoveryStats {
    fn from_shards(per_shard: Vec<RecoveryStats>) -> Self {
        let mut total = RecoveryStats::default();
        for s in &per_shard {
            total.bytes_replayed += s.bytes_replayed;
            total.records_replayed += s.records_replayed;
            total.torn_bytes += s.torn_bytes;
        }
        ShardedRecoveryStats { total, per_shard }
    }

    /// Bytes replayed by the slowest shard — the critical path of a
    /// parallel reopen, since shards replay independently.
    pub fn max_shard_bytes_replayed(&self) -> u64 {
        self.per_shard
            .iter()
            .map(|s| s.bytes_replayed)
            .max()
            .unwrap_or(0)
    }
}

/// The background flusher: commits idle shards' pending batches and fsyncs
/// accumulated writes on a bounded interval. Stopped (and joined) on drop,
/// before the shards it borrows through the [`Arc`] can be dropped.
#[derive(Debug)]
struct Flusher {
    stop: mpsc::Sender<()>,
    handle: Option<JoinHandle<()>>,
}

/// What the flusher remembers about one shard between wakes.
struct ShardCadence {
    /// Disk bytes at the previous wake; detects shards whose fill trigger
    /// is committing on its own.
    bytes_at_last_wake: u64,
    /// Disk bytes covered by the last fsync this thread issued.
    synced_bytes: u64,
    /// Consecutive wakes this shard has carried unsynced bytes.
    unsynced_wakes: u32,
}

impl Flusher {
    fn start(
        shards: Arc<[Mutex<Shard>]>,
        interval: Duration,
        obs: Option<StoreObs>,
    ) -> Result<Flusher> {
        let (stop, wakeup) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("dynasore-flusher".into())
            .spawn(move || {
                let mut cadence: Vec<ShardCadence> = shards
                    .iter()
                    .map(|s| {
                        let bytes = s.lock().bytes_on_disk();
                        ShardCadence {
                            bytes_at_last_wake: bytes,
                            // Whatever was on disk before this instance is
                            // not ours to fsync.
                            synced_bytes: bytes,
                            unsynced_wakes: 0,
                        }
                    })
                    .collect();
                loop {
                    match wakeup.recv_timeout(interval) {
                        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => break,
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            for (i, (shard, c)) in shards.iter().zip(cadence.iter_mut()).enumerate()
                            {
                                Self::tend(shard, c, i, obs.as_ref());
                            }
                        }
                    }
                }
            })?;
        Ok(Flusher {
            stop,
            handle: Some(handle),
        })
    }

    /// One wake's work on one shard. Background errors have no caller to
    /// report to and are swallowed; nothing is lost — unsynced bytes stay
    /// counted and pending records stay pending, so the next wake retries
    /// and the next explicit flush/sync surfaces the failure.
    fn tend(
        shard: &Mutex<Shard>,
        c: &mut ShardCadence,
        shard_index: usize,
        obs: Option<&StoreObs>,
    ) {
        // A shard whose byte count moved since the last wake committed on
        // its own within the interval (the fill trigger is doing its job):
        // its open batch is younger than one interval and is left to fill —
        // forcing it out would split a busy shard's batches for no
        // durability gain. A shard that is pending *and* byte-stable for a
        // whole interval is idle and gets its batch written here.
        {
            let mut shard = shard.lock();
            if shard.bytes_on_disk() == c.bytes_at_last_wake && shard.pending_records > 0 {
                let _ = shard.commit_pending();
            }
            c.bytes_at_last_wake = shard.bytes_on_disk();
        }

        // Pipelined durability: fsync through a detached handle — the shard
        // lock is held only to flush to the OS and duplicate the log file's
        // handle, not while the disk flushes, so appends keep flowing. Sync
        // once the byte threshold accumulates (batching the flush) or once
        // any unsynced bytes have waited out the wake bound (bounding the
        // ack-to-durable window in time).
        let unsynced = c.bytes_at_last_wake.saturating_sub(c.synced_bytes);
        if unsynced == 0 {
            c.unsynced_wakes = 0;
            return;
        }
        c.unsynced_wakes += 1;
        if unsynced >= SYNC_BYTES_THRESHOLD || c.unsynced_wakes > SYNC_WAKE_BOUND {
            // The handle is duplicated after the byte count was read, so
            // the fsync covers at least `bytes_at_last_wake` bytes.
            let handle = shard.lock().active.detached_handle();
            if handle.is_ok_and(|file| file.sync_all().is_ok()) {
                c.synced_bytes = c.bytes_at_last_wake;
                c.unsynced_wakes = 0;
                if let Some(obs) = obs {
                    obs.trace(TraceEventKind::FlusherSync {
                        shard: shard_index as u32,
                        lag_bytes: unsynced,
                    });
                }
            }
        }
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The root `LOCK` file: this process's claim on a store directory,
/// removed on drop.
#[derive(Debug)]
struct DirLock(PathBuf);

impl DirLock {
    /// Claims exclusive ownership of `dir` by creating its `LOCK` file with
    /// this process's pid inside. A lock left by a process that is
    /// *provably* no longer alive (a real crash — exactly the scenario
    /// recovery exists for) is broken and re-claimed; a lock held by a live
    /// process, or one whose liveness cannot be checked, is an error.
    fn acquire(dir: &Path) -> Result<DirLock> {
        let path = dir.join(LOCK_FILE);
        for attempt in 0..2 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    let _ = write!(file, "{}", std::process::id());
                    return Ok(DirLock(path));
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists && attempt == 0 => {
                    let holder: Option<u32> = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse().ok());
                    // Only a pid we can *prove* dead is stale. The proof
                    // needs a /proc filesystem; where there is none, refuse
                    // rather than break a possibly-live lock.
                    let stale = match holder {
                        Some(pid) => {
                            pid != std::process::id()
                                && Path::new("/proc/self").exists()
                                && !Path::new(&format!("/proc/{pid}")).exists()
                        }
                        None => false,
                    };
                    if !stale {
                        return Err(Error::invalid_config(format!(
                            "store directory {} is locked by pid {}; two owners would corrupt \
                             the log — use ShardedLogStore::read_back for inspection, or \
                             delete the LOCK file if the owner is known to be gone",
                            dir.display(),
                            holder.map_or_else(|| "unknown".into(), |p| p.to_string()),
                        )));
                    }
                    // Break the dead owner's lock via rename: of several
                    // racing openers, only one rename succeeds, so nobody
                    // can delete a lock that a faster racer has already
                    // replaced.
                    let takeover = dir.join(format!("LOCK.stale.{}", std::process::id()));
                    if std::fs::rename(&path, &takeover).is_ok() {
                        let _ = std::fs::remove_file(&takeover);
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        // Second create_new also lost: another opener claimed the broken
        // lock first.
        Err(Error::invalid_config(format!(
            "store directory {} is locked by another instance that claimed it concurrently",
            dir.display()
        )))
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The file-backed durable tier: `N` independent, group-committed log
/// shards routed by a stable hash of the [`UserId`] (`shards: 1` is one log
/// over files). See the module documentation of `sharded.rs` for the layout
/// and semantics.
///
/// Implements [`PersistentStore`], so [`crate::Cluster::spawn_with_store`]
/// accepts it unchanged.
#[derive(Debug)]
pub struct ShardedLogStore {
    // Fields drop in declaration order. The flusher thread borrows the
    // shards through the Arc and is joined first; each shard commits and
    // flushes its batch as it drops; the root lock is released last.
    _flusher: Option<Flusher>,
    shards: Arc<[Mutex<Shard>]>,
    _lock: DirLock,
}

/// The log file of shard `i` under the root `dir`.
fn shard_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard-{i:04}.log"))
}

/// Creates `dir` and any missing ancestors, then fsyncs the parent of each
/// directory it created, deepest first, up to the first one that already
/// existed — so a machine crash cannot lose any entry on the new path.
fn create_dir(dir: &Path) -> Result<()> {
    let mut created = Vec::new();
    let mut level = Some(dir).filter(|d| !d.is_dir());
    while let Some(missing) = level {
        created.push(missing);
        level = missing
            .parent()
            .filter(|d| !d.as_os_str().is_empty() && !d.is_dir());
    }
    std::fs::create_dir_all(dir)?;
    for missing in created {
        sync_parent(missing)?;
    }
    Ok(())
}

/// Reads the manifest, returning the pinned shard count, or `None` when the
/// directory has no manifest yet (a fresh directory).
fn read_manifest(dir: &Path) -> Result<Option<usize>> {
    let path = dir.join(MANIFEST_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut lines = text.lines();
    let magic = lines.next().unwrap_or_default();
    if magic != MANIFEST_MAGIC {
        return Err(Error::CorruptRecord(format!(
            "{} is not a sharded-store manifest (bad magic {magic:?})",
            path.display()
        )));
    }
    let shards = lines
        .next()
        .and_then(|l| l.strip_prefix("shards "))
        .and_then(|n| n.parse::<usize>().ok())
        .filter(|&n| n >= 1);
    match shards {
        Some(n) => Ok(Some(n)),
        None => Err(Error::CorruptRecord(format!(
            "{}: malformed shard count line",
            path.display()
        ))),
    }
}

/// Atomically writes the manifest: temp file, fsync, rename, directory
/// fsync — a crash leaves either no manifest or a complete one.
fn write_manifest(dir: &Path, shards: usize) -> Result<()> {
    let tmp = dir.join("MANIFEST.tmp");
    let mut file = File::create(&tmp)?;
    write!(file, "{MANIFEST_MAGIC}\nshards {shards}\n")?;
    file.sync_all()?;
    drop(file);
    let path = dir.join(MANIFEST_FILE);
    std::fs::rename(&tmp, &path)?;
    sync_parent(&path)
}

/// The splitmix64 finalizer: a strong 64-bit mix routing users to shards.
/// Part of the on-disk format — changing it strands every existing record
/// on the wrong shard — so it must never change.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl ShardedLogStore {
    /// Opens (or creates) a sharded store rooted at `dir`.
    ///
    /// Opening first claims the directory through its root `LOCK` (see the
    /// module documentation of `sharded.rs`); use
    /// [`read_back`](ShardedLogStore::read_back) to inspect a directory
    /// another instance owns. A fresh directory then gets a manifest
    /// pinning `config.shards`; an existing one is validated against it.
    /// The shards are opened concurrently — one replay thread each — so
    /// reopen wall-clock tracks the largest shard, not the sum. A torn tail
    /// in a shard's log — the signature of a crash mid-append — is
    /// truncated away; [`recovery_stats`](ShardedLogStore::recovery_stats)
    /// reports how many bytes were replayed and how many were discarded.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for a zero shard count, batch size or flush
    /// interval, a shard-count/manifest mismatch, or a directory locked by
    /// a live instance; [`Error::CorruptRecord`] for a malformed manifest
    /// (an older build's root included) or damage in a shard a crash cannot
    /// produce (checksummed-but-malformed records, a file that is not a
    /// shard log); I/O errors.
    pub fn open(dir: impl Into<PathBuf>, config: ShardedConfig) -> Result<Self> {
        Self::open_inner(dir.into(), config, None)
    }

    /// [`open`](ShardedLogStore::open) with a flight-recorder observer
    /// attached: every shard's batch commits — and the
    /// background flusher's pipelined fsyncs, with their
    /// lag-in-bytes — emit structured trace events into `obs`. The
    /// observer's per-shard metric families are sized here, so later
    /// updates from the flusher thread never allocate.
    ///
    /// # Errors
    ///
    /// Same conditions as [`open`](ShardedLogStore::open).
    pub fn open_observed(
        dir: impl Into<PathBuf>,
        config: ShardedConfig,
        obs: StoreObs,
    ) -> Result<Self> {
        Self::open_inner(dir.into(), config, Some(obs))
    }

    fn open_inner(dir: PathBuf, config: ShardedConfig, obs: Option<StoreObs>) -> Result<Self> {
        if config.shards == 0 {
            return Err(Error::invalid_config("shard count must be at least 1"));
        }
        if config.max_batch_records == 0 {
            return Err(Error::invalid_config(
                "max_batch_records must be at least 1",
            ));
        }
        if config.flush_interval.is_some_and(|i| i.is_zero()) {
            return Err(Error::invalid_config(
                "flush_interval must be nonzero (use None to disable the flusher)",
            ));
        }
        create_dir(&dir)?;
        let lock = DirLock::acquire(&dir)?;
        match read_manifest(&dir)? {
            Some(existing) if existing != config.shards => {
                return Err(Error::invalid_config(format!(
                    "{} was created with {existing} shards, cannot reopen with {}: \
                     the routing hash would look for records on the wrong shard",
                    dir.display(),
                    config.shards
                )));
            }
            Some(_) => {}
            None => write_manifest(&dir, config.shards)?,
        }
        if let Some(obs) = &obs {
            obs.ensure_shards(config.shards);
        }

        let mut slots: Vec<Option<Result<Shard>>> = (0..config.shards).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (i, slot) in slots.iter_mut().enumerate() {
                let path = shard_path(&dir, i);
                let obs = obs.clone();
                scope.spawn(move || *slot = Some(Shard::open(path, config, obs)));
            }
        });
        let shards: Arc<[Mutex<Shard>]> = slots
            .into_iter()
            .map(|slot| {
                slot.expect("scoped replay thread fills its slot")
                    .map(Mutex::new)
            })
            .collect::<Result<_>>()?;
        let flusher = match config.flush_interval {
            Some(interval) => Some(Flusher::start(Arc::clone(&shards), interval, obs)?),
            None => None,
        };
        Ok(ShardedLogStore {
            _flusher: flusher,
            shards,
            _lock: lock,
        })
    }

    /// Non-destructively replays every shard of `dir`, one after another,
    /// into one merged index — no lock taken, no torn tail repaired,
    /// nothing created — and returns it with what the replay measured. This
    /// is the safe way to inspect a directory another instance may own
    /// (e.g. to verify after [`crate::Cluster::shutdown`] that every
    /// acknowledged write reached disk). The shard count comes from the
    /// manifest, so no configuration is needed. A shard file that does not
    /// exist yet reads as an empty shard.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptRecord`] for a missing or malformed manifest and for
    /// damage in a shard a crash cannot produce (checksummed-but-malformed
    /// records, a file that is not a shard log); I/O errors.
    pub fn read_back(
        dir: impl AsRef<Path>,
    ) -> Result<(BTreeMap<UserId, View>, ShardedRecoveryStats)> {
        let dir = dir.as_ref();
        let shards = read_manifest(dir)?.ok_or_else(|| {
            Error::CorruptRecord(format!("{}: no sharded-store manifest", dir.display()))
        })?;
        let mut index = BTreeMap::new();
        let mut per_shard = Vec::with_capacity(shards);
        for i in 0..shards {
            let (shard_index, _, stats) = replay_log(&shard_path(dir, i))?;
            // Shards partition the user space: the merge is disjoint.
            index.extend(shard_index);
            per_shard.push(stats);
        }
        Ok((index, ShardedRecoveryStats::from_shards(per_shard)))
    }

    /// The shard that owns `user`. Stable across restarts and part of the
    /// on-disk format (see `mix64`).
    pub fn shard_index_of(&self, user: UserId) -> usize {
        (mix64(u64::from(user.index())) % self.shards.len() as u64) as usize
    }

    /// The locked shard that owns `user`.
    fn shard_of(&self, user: UserId) -> MutexGuard<'_, Shard> {
        self.shards[self.shard_index_of(user)].lock()
    }

    /// Sums `f` over every shard, each read under its lock.
    fn sum(&self, f: impl Fn(&Shard) -> u64) -> u64 {
        self.shards.iter().map(|s| f(&s.lock())).sum()
    }

    /// Appends one event to `user`'s shard and returns the view's new
    /// version — the write that does not clone the view (the
    /// [`PersistentStore::append`] of this store returns it), the
    /// difference between ~100k and >1M durable appends per second once
    /// the view fills up. The append is *acknowledged* (visible to
    /// [`fetch`]) immediately; durability follows the shard's group-commit
    /// contract (see the module docs of `log.rs`).
    ///
    /// [`fetch`]: PersistentStore::fetch
    ///
    /// # Errors
    ///
    /// I/O errors from a forced batch commit, and
    /// [`Error::InvalidConfig`] for an oversized payload.
    pub fn append_version(&self, user: UserId, payload: Vec<u8>) -> Result<u64> {
        self.shard_of(user)
            .append_with(user, payload, View::version)
    }

    /// Re-replays every shard from disk concurrently (committing pending
    /// batches first) and returns the per-shard measurements — exactly what
    /// crash recovery does, so dividing the bytes replayed by the
    /// wall-clock this call takes gives real recovery bandwidth without a
    /// restart.
    ///
    /// # Errors
    ///
    /// The first shard failure.
    pub fn reread(&self) -> Result<ShardedRecoveryStats> {
        let mut slots: Vec<Option<Result<RecoveryStats>>> =
            (0..self.shards.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (shard, slot) in self.shards.iter().zip(slots.iter_mut()) {
                scope.spawn(move || *slot = Some(shard.lock().reread()));
            }
        });
        let mut per_shard = Vec::with_capacity(self.shards.len());
        for slot in slots {
            per_shard.push(slot.expect("scoped reread thread fills its slot")?);
        }
        Ok(ShardedRecoveryStats::from_shards(per_shard))
    }

    /// What the open (or last [`reread`](ShardedLogStore::reread)) replay
    /// measured, per shard and in aggregate.
    pub fn recovery_stats(&self) -> ShardedRecoveryStats {
        ShardedRecoveryStats::from_shards(self.shards.iter().map(|s| s.lock().recovery).collect())
    }

    /// Number of shards (as pinned in the manifest).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total log bytes on disk across shards (committed frames only;
    /// pending batches are not on disk yet).
    pub fn bytes_on_disk(&self) -> u64 {
        self.sum(Shard::bytes_on_disk)
    }

    /// Log files across shards: one per shard, so the shard count.
    pub fn segment_count(&self) -> usize {
        self.shards.len()
    }

    /// Live views across shards (shards partition users, so the sum is
    /// exact).
    pub fn user_count(&self) -> usize {
        self.sum(|s| s.index.len() as u64) as usize
    }

    /// Acknowledged-but-uncommitted appends across shards.
    pub fn pending_records(&self) -> u64 {
        self.sum(|s| u64::from(s.pending_records))
    }
}

impl PersistentStore for ShardedLogStore {
    fn append(&self, user: UserId, payload: Vec<u8>) -> Result<View> {
        self.shard_of(user).append_with(user, payload, View::clone)
    }

    fn fetch(&self, user: UserId) -> Result<View> {
        let mut shard = self.shard_of(user);
        shard.reads += 1;
        let view = shard.index.get(&user).cloned();
        Ok(view.unwrap_or_else(|| View::new(user)))
    }

    /// Commits every shard's pending batch and pushes it to the operating
    /// system: it now survives a process crash, but not a machine crash.
    /// Fails fast on the first shard error.
    fn flush(&self) -> Result<()> {
        self.shards
            .iter()
            .try_for_each(|shard| shard.lock().flush())
    }

    /// Commits every shard's pending batch, flushes and fsyncs: after this
    /// returns, every acknowledged write on every shard is crash-durable.
    /// Fails fast on the first shard error.
    fn sync(&self) -> Result<()> {
        self.shards.iter().try_for_each(|shard| shard.lock().sync())
    }

    /// Events appended across shards (this process; replayed history is not
    /// counted).
    fn write_count(&self) -> u64 {
        self.sum(|s| s.writes)
    }

    fn read_count(&self) -> u64 {
        self.sum(|s| s.reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dynasore-sharded-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Deterministic config for tests: no background flusher.
    fn no_flusher(shards: usize) -> ShardedConfig {
        ShardedConfig {
            shards,
            flush_interval: None,
            ..ShardedConfig::default()
        }
    }

    #[test]
    fn routing_is_stable_and_reasonably_uniform() {
        let dir = temp_dir("routing");
        let store = ShardedLogStore::open(&dir, no_flusher(8)).unwrap();
        // Stability: the documented splitmix64 finalizer, byte for byte.
        for u in [0u32, 1, 7, 1_000, u32::MAX] {
            assert_eq!(
                store.shard_index_of(UserId::new(u)),
                (mix64(u64::from(u)) % 8) as usize
            );
        }
        // Uniformity: sequential user ids must not pile onto few shards.
        let mut counts = [0usize; 8];
        for u in 0..8_000u32 {
            counts[store.shard_index_of(UserId::new(u))] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (700..=1_300).contains(&c),
                "shard {i} got {c} of 8000 sequential users"
            );
        }
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_fetch_round_trips_across_shards_and_restart() {
        let dir = temp_dir("roundtrip");
        let store = ShardedLogStore::open(&dir, no_flusher(4)).unwrap();
        for u in 0..64u32 {
            for rev in 0..3u32 {
                store
                    .append_version(UserId::new(u), format!("u{u}-r{rev}").into_bytes())
                    .unwrap();
            }
        }
        assert_eq!(store.write_count(), 192);
        assert_eq!(store.user_count(), 64);
        // Acknowledged writes are visible before any commit.
        let v = store.fetch(UserId::new(9)).unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v.latest().unwrap().payload(), b"u9-r2");
        store.sync().unwrap();
        drop(store);

        let reopened = ShardedLogStore::open(&dir, no_flusher(4)).unwrap();
        let stats = reopened.recovery_stats();
        assert_eq!(stats.per_shard.len(), 4);
        assert_eq!(stats.total.torn_bytes, 0);
        assert!(stats.total.bytes_replayed > 0);
        assert!(stats.max_shard_bytes_replayed() <= stats.total.bytes_replayed);
        for u in 0..64u32 {
            let view = reopened.fetch(UserId::new(u)).unwrap();
            assert_eq!(view.len(), 3, "user {u}");
            assert_eq!(view.version(), 3);
        }
        // Every shard holds only the users the router sends to it.
        for i in 0..4 {
            let (index, ..) = replay_log(&shard_path(&dir, i)).unwrap();
            for user in index.keys() {
                assert_eq!(
                    reopened.shard_index_of(*user),
                    i,
                    "user {user} on shard {i}"
                );
            }
        }
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every missing level of the root is created (and its parent
    /// fsynced, which no test can observe short of a machine crash).
    #[test]
    fn open_creates_every_missing_level_of_the_root() {
        let base = temp_dir("nested");
        let root = base.join("a").join("b");
        let store = ShardedLogStore::open(&root, no_flusher(2)).unwrap();
        assert!(shard_path(&root, 1).is_file());
        drop(store);
        std::fs::remove_dir_all(&base).unwrap();
    }

    /// `open` renames the manifest into place before it creates any shard
    /// file, so a crash in between leaves a root whose manifest names
    /// shards that have no file: `read_back` reads those as empty, and the
    /// next `open` creates them.
    #[test]
    fn a_missing_shard_file_reads_as_an_empty_shard() {
        let dir = temp_dir("missing-shard");
        let store = ShardedLogStore::open(&dir, no_flusher(2)).unwrap();
        for u in 0..16u32 {
            store.append_version(UserId::new(u), vec![u as u8]).unwrap();
        }
        store.sync().unwrap();
        let kept: Vec<UserId> = (0..16)
            .map(UserId::new)
            .filter(|&u| store.shard_index_of(u) == 0)
            .collect();
        drop(store);
        std::fs::remove_file(shard_path(&dir, 1)).unwrap();
        let (index, stats) = ShardedLogStore::read_back(&dir).unwrap();
        assert_eq!(index.keys().copied().collect::<Vec<_>>(), kept);
        assert_eq!(stats.per_shard[1], RecoveryStats::default());
        let reopened = ShardedLogStore::open(&dir, no_flusher(2)).unwrap();
        assert!(shard_path(&dir, 1).is_file());
        assert_eq!(reopened.user_count(), kept.len());
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_pins_the_shard_count() {
        let dir = temp_dir("manifest");
        let store = ShardedLogStore::open(&dir, no_flusher(4)).unwrap();
        store.append_version(UserId::new(1), b"x".to_vec()).unwrap();
        store.sync().unwrap();
        drop(store);
        let err = ShardedLogStore::open(&dir, no_flusher(8));
        assert!(
            matches!(err, Err(Error::InvalidConfig(_))),
            "shard-count mismatch must be refused, got {err:?}"
        );
        // The original count still opens.
        let again = ShardedLogStore::open(&dir, no_flusher(4)).unwrap();
        assert_eq!(again.shard_count(), 4);
        assert_eq!(again.fetch(UserId::new(1)).unwrap().len(), 1);
        drop(again);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Fresh opens of one directory with different shard counts race for
    /// it: whichever opens wins the directory, and the manifest it leaves
    /// must name the count it runs with — otherwise a reopen with that
    /// count is refused and its writes are stranded. Failures are
    /// collected over every round so one run reports how often it breaks.
    #[test]
    fn racing_fresh_opens_leave_the_winners_manifest() {
        const ROUNDS: usize = 50;
        const COUNTS: [usize; 4] = [1, 2, 3, 4];
        let base = temp_dir("manifest-race");
        let mut failures = Vec::new();
        for round in 0..ROUNDS {
            let dir = base.join(format!("round-{round}"));
            let barrier = std::sync::Barrier::new(COUNTS.len());
            let winners: Vec<(usize, std::result::Result<(), String>)> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = COUNTS
                        .iter()
                        .map(|&shards| {
                            let (dir, barrier) = (&dir, &barrier);
                            scope.spawn(move || {
                                barrier.wait();
                                let store = ShardedLogStore::open(dir, no_flusher(shards)).ok()?;
                                for u in 0..8u32 {
                                    store
                                        .append_version(UserId::new(u), vec![shards as u8])
                                        .unwrap();
                                }
                                store.sync().unwrap();
                                let manifest = read_manifest(dir);
                                let check = match manifest {
                                    Ok(Some(n)) if n == shards => Ok(()),
                                    other => Err(format!("manifest reads {other:?}")),
                                };
                                Some((shards, check))
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .filter_map(|h| h.join().unwrap())
                        .collect()
                });
            if winners.is_empty() {
                failures.push(format!("round {round}: every open was refused"));
            }
            for (shards, check) in winners {
                if let Err(why) = check {
                    failures.push(format!("round {round}: {shards}-shard owner: {why}"));
                }
                match ShardedLogStore::open(&dir, no_flusher(shards)) {
                    Ok(reopened) => {
                        for u in 0..8u32 {
                            let view = reopened.fetch(UserId::new(u)).unwrap();
                            if view.latest().map(|e| e.payload()) != Some(&[shards as u8][..]) {
                                failures.push(format!(
                                    "round {round}: {shards}-shard reopen lost user {u}"
                                ));
                            }
                        }
                    }
                    Err(e) => failures.push(format!("round {round}: {shards}-shard reopen: {e}")),
                }
            }
        }
        std::fs::remove_dir_all(&base).unwrap();
        assert!(
            failures.is_empty(),
            "{} of {ROUNDS} rounds broke: {failures:#?}",
            failures
                .iter()
                .map(|f| f.split(':').next().unwrap())
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        );
    }

    #[test]
    fn invalid_configs_are_refused() {
        let dir = temp_dir("invalid");
        assert!(matches!(
            ShardedLogStore::open(&dir, no_flusher(0)),
            Err(Error::InvalidConfig(_))
        ));
        let zero_interval = ShardedConfig {
            flush_interval: Some(Duration::ZERO),
            ..ShardedConfig::default()
        };
        assert!(matches!(
            ShardedLogStore::open(&dir, zero_interval),
            Err(Error::InvalidConfig(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One `LOCK`, at the root, guards the manifest and every shard: a
    /// live owner refuses a second one whatever shard count it asks for, a
    /// dead owner's lock is broken, and drop releases it.
    #[test]
    fn double_open_conflicts_on_shard_locks() {
        let dir = temp_dir("double-open");
        let store = ShardedLogStore::open(&dir, no_flusher(2)).unwrap();
        assert!(dir.join(LOCK_FILE).exists());
        for shards in [2, 3] {
            let second = ShardedLogStore::open(&dir, no_flusher(shards));
            assert!(
                matches!(second, Err(Error::InvalidConfig(_))),
                "the live root lock must refuse a second owner, got {second:?}"
            );
        }
        drop(store);
        // Dropping the first owner releases the lock.
        assert!(!dir.join(LOCK_FILE).exists());
        let third = ShardedLogStore::open(&dir, no_flusher(2)).unwrap();
        drop(third);
        // A crashed owner's lock names a dead pid and is broken on open.
        std::fs::write(dir.join(LOCK_FILE), "999999999").unwrap();
        let recovered = ShardedLogStore::open(&dir, no_flusher(2));
        assert!(recovered.is_ok(), "{recovered:?}");
        drop(recovered);
        assert!(!dir.join(LOCK_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_flusher_commits_within_the_interval() {
        let dir = temp_dir("flusher");
        let config = ShardedConfig {
            shards: 2,
            flush_interval: Some(Duration::from_millis(2)),
            ..ShardedConfig::default()
        };
        let store = ShardedLogStore::open(&dir, config).unwrap();
        for u in 0..8u32 {
            store
                .append_version(UserId::new(u), vec![u as u8; 16])
                .unwrap();
        }
        // Far below the 4096-record fill trigger, so only the flusher can
        // commit these. Poll (bounded) until the pending count drains.
        let mut drained = false;
        for _ in 0..500 {
            if store.pending_records() == 0 {
                drained = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(drained, "flusher never committed the pending batches");
        assert!(store.bytes_on_disk() > 0);
        drop(store);
        // Everything the flusher committed replays on reopen.
        let (index, stats) = ShardedLogStore::read_back(&dir).unwrap();
        assert_eq!(index.len(), 8);
        assert_eq!(stats.total.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_shard_of_single_synced_records_is_on_disk_when_sync_returns() {
        // Fsync-per-append through the tier: a one-shard store whose batches
        // hold one record, no flusher, and a sync after every append —
        // `read_back` sees every record as soon as its sync returns.
        let dir = temp_dir("single-sync");
        let config = ShardedConfig {
            shards: 1,
            max_batch_records: 1,
            flush_interval: None,
        };
        let store = ShardedLogStore::open(&dir, config).unwrap();
        for i in 0..6u32 {
            let user = UserId::new(i % 3);
            let view = store.append(user, vec![i as u8; 9]).unwrap();
            assert_eq!(store.pending_records(), 0);
            store.sync().unwrap();
            let (index, stats) = ShardedLogStore::read_back(&dir).unwrap();
            assert_eq!(index.get(&user), Some(&view), "append {i}");
            assert_eq!(stats.total.records_replayed, u64::from(i) + 1);
            assert_eq!(stats.total.torn_bytes, 0);
        }
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reread_fans_out_across_shards() {
        let dir = temp_dir("reread");
        let store = ShardedLogStore::open(&dir, no_flusher(4)).unwrap();
        for u in 0..32u32 {
            for _ in 0..4 {
                store
                    .append_version(UserId::new(u), vec![u as u8; 64])
                    .unwrap();
            }
        }
        // Reread commits every shard's pending batch, then replays each
        // shard from disk: the same views come back, one frame per shard.
        let before: Vec<View> = (0..32)
            .map(|u| store.fetch(UserId::new(u)).unwrap())
            .collect();
        let reread = store.reread().unwrap();
        assert_eq!(reread.per_shard.len(), 4);
        assert!(reread.per_shard.iter().all(|s| s.records_replayed == 1));
        assert_eq!(reread.total.torn_bytes, 0);
        assert_eq!(reread.total.bytes_replayed, store.bytes_on_disk());
        assert_eq!(store.recovery_stats(), reread);
        let after: Vec<View> = (0..32)
            .map(|u| store.fetch(UserId::new(u)).unwrap())
            .collect();
        assert_eq!(before, after);
        assert_eq!(store.user_count(), 32);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
