//! The file-backed durable tier: N independent log shards under one root
//! directory, each writing by group commit.
//!
//! [`ShardedLogStore`] is the one [`PersistentStore`] over files and the one
//! owner of the root directory below; "a single log" is `shards: 1`. A
//! shard is the plain state of one log (see the module docs of `log.rs`)
//! behind its own [`Mutex`], which serialises its appends: that lock is a
//! shard's scaling ceiling, and no fsync runs under it. A stable hash of the
//! [`UserId`] picks the shard, so unrelated users never contend on one lock,
//! batch or fsync, and a reopen replays shards concurrently (wall-clock is
//! the *max* shard replay time, not the sum).
//!
//! # On-disk layout
//!
//! ```text
//! <root>/
//!   LOCK              kernel-locked (flock); names the owner's pid
//!   MANIFEST          "DYNASHARD2\nshards N\n" — written once, atomically
//!   shard-0000.log    shard 0's log, the one file it ever writes
//!   shard-0001.log
//!   …
//! ```
//!
//! Opening claims the whole root by taking the kernel's `flock` on the one
//! `LOCK` file, before the manifest is read or written: torn-tail repair
//! truncates shard files and a fresh directory's manifest is written by
//! whoever opens it first, so two live owners would corrupt each other. The
//! kernel drops the lock when its owner exits, however it exits, so a
//! `LOCK` file a crash left behind — whatever pid it names, or none — never
//! blocks a reopen; drop removes the file. Each directory the open creates
//! on the way to the root, the manifest's rename and each new shard file is
//! followed by an fsync of the directory that holds it, so a machine crash
//! cannot lose the entry. A root whose manifest has been written but not
//! yet all its shard files reads those shards as empty, and opening it
//! creates them.
//!
//! A root an older build wrote — `DYNASHARD1`, a subdirectory per shard —
//! fails the manifest's magic check and is refused as corrupt; nothing in
//! it is changed.
//!
//! This module knows the layout of the root and nothing of the bytes inside
//! a shard file, which are `segment.rs`'s alone. A shard file is replayed
//! in two places: when its shard opens, and by
//! [`read_back`](ShardedLogStore::read_back), which reads a root without
//! opening it.
//!
//! The shard count is fixed at creation and persisted in `MANIFEST`;
//! reopening with a different count is refused, because the routing hash
//! would send users to shards that do not hold their records. The routing
//! function itself ([`ShardedLogStore::shard_index_of`]) is part of the
//! on-disk format and must never change.
//!
//! # Group commit and the one fsync routine
//!
//! A shard acknowledges appends into its in-memory batch and commits the
//! batch as one frame, in one positioned write that puts it on the OS (see
//! `log.rs`); no commit fsyncs. What a shard keeps in memory is an index of
//! positions — each user's version and where its newest entries lie in the
//! log — and no view: a fetch, and the view an append returns, is read back
//! from the shard's pending batch and file under the shard lock. A write
//! becomes machine-durable through one routine, `sync_shard`, which
//! [`sync`] and the background flusher both run: under the shard lock it
//! commits the pending batch and, if the file has grown past the shard's
//! record of what is synced, takes the file's shared handle; it fsyncs with
//! the lock released, so appends never wait on the disk; then it writes the
//! outcome back — the record advances, or the shard fail-stops. One
//! store-wide mutex orders these fsyncs, held by [`sync`] for its whole
//! pass and by the flusher for each fsync wake: no fsync starts before the
//! previous one's outcome is on its shard. Fsync-per-append is no flusher
//! and a [`sync`] after every append.
//!
//! The flusher is a timed [`sync`]: every [`flush_interval`] it commits
//! each shard's batch (on the OS within one interval), and every
//! `FSYNC_EVERY_WAKES` (16) wakes it runs `sync_shard` on every shard
//! instead (synced within 16 intervals, ~80 ms at the default).
//!
//! [`Mutex`]: parking_lot::Mutex
//! [`flush_interval`]: ShardedConfig::flush_interval
//! [`sync`]: PersistentStore::sync

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions, TryLockError};
use std::io::Write as _;
use std::os::unix::fs::MetadataExt;
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

/// The flusher fsyncs every this many wakes: the ack-to-synced bound in
/// [`flush_interval`](ShardedConfig::flush_interval)s. A smaller durability
/// window is a smaller interval.
const FSYNC_EVERY_WAKES: u32 = 16;

/// Configuration of a [`ShardedLogStore`]. Every shard runs with the same
/// values.
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of independent shards. Fixed at creation (persisted in the
    /// manifest); reopening with a different count is refused. Default 8.
    pub shards: usize,
    /// Wake period of the background flusher, a timed sync (see the module
    /// docs of `sharded.rs`). `None` disables it: batches then commit only
    /// when they fill or on an explicit [`flush`]/[`sync`], and nothing
    /// fsyncs behind the caller's back — the mode for deterministic tests
    /// and simulations. Default 5 ms.
    ///
    /// [`flush`]: PersistentStore::flush
    /// [`sync`]: PersistentStore::sync
    pub flush_interval: Option<Duration>,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 8,
            flush_interval: Some(Duration::from_millis(5)),
        }
    }
}

/// Per-shard and aggregate recovery measurements of a sharded open (or
/// [`read_back`](ShardedLogStore::read_back)).
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

/// The one way to make a shard durable (see the module docs): commit under
/// the shard lock, fsync the shared handle outside it, and write the
/// outcome back through [`Shard::synced`]. The caller holds the store's
/// fsync order, `_ordered`. Returns the bytes the fsync covered that no
/// earlier one had: `0` when nothing needed an fsync.
fn sync_shard(shard: &Mutex<Shard>, _ordered: &MutexGuard<'_, ()>) -> Result<u64> {
    let (file, len, lag_bytes) = {
        let mut shard = shard.lock();
        shard.commit_pending()?;
        let len = shard.bytes_on_disk();
        if len == shard.synced_len {
            return Ok(0);
        }
        (shard.active.handle(), len, len - shard.synced_len)
    };
    let outcome = file.sync_all().map_err(Error::from);
    shard.lock().synced(len, outcome)?;
    Ok(lag_bytes)
}

/// The background flusher: a timed sync of every shard. Its errors have no
/// caller: each is kept on its shard, whose next append, flush or sync
/// returns it. Stopped (and joined) on drop, before the shards it borrows
/// through the [`Arc`] can be dropped.
#[derive(Debug)]
struct Flusher {
    stop: mpsc::Sender<()>,
    handle: Option<JoinHandle<()>>,
}

impl Flusher {
    fn start(
        shards: &Arc<[Mutex<Shard>]>,
        fsync_order: &Arc<Mutex<()>>,
        interval: Duration,
        obs: Option<StoreObs>,
    ) -> Result<Flusher> {
        let (shards, fsync_order) = (Arc::clone(shards), Arc::clone(fsync_order));
        let (stop, wakeup) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("dynasore-flusher".into())
            .spawn(move || {
                let mut wakes = 0;
                while let Err(mpsc::RecvTimeoutError::Timeout) = wakeup.recv_timeout(interval) {
                    wakes = (wakes + 1) % FSYNC_EVERY_WAKES;
                    if wakes != 0 {
                        for shard in shards.iter() {
                            let _ = shard.lock().commit_pending();
                        }
                        continue;
                    }
                    let ordered = fsync_order.lock();
                    for (i, shard) in shards.iter().enumerate() {
                        let synced = sync_shard(shard, &ordered);
                        if let (Ok(lag_bytes @ 1..), Some(obs)) = (synced, &obs) {
                            obs.trace(TraceEventKind::FlusherSync {
                                shard: i as u32,
                                lag_bytes,
                            });
                        }
                    }
                }
            })?;
        Ok(Flusher {
            stop,
            handle: Some(handle),
        })
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

/// The root `LOCK` file, held under the kernel's `flock` for the life of
/// the store. The kernel releases the lock when its owner exits, however it
/// exits, so a lock a crash left behind never blocks a reopen. The file
/// names the owner's pid, for the refusal message; drop removes it.
#[derive(Debug)]
struct DirLock {
    path: PathBuf,
    _file: File,
}

impl DirLock {
    /// Claims exclusive ownership of `dir`: opens or creates its `LOCK`
    /// file, takes the kernel lock on it without waiting, and writes this
    /// process's pid into it. A lock held by a live owner is an error.
    fn acquire(dir: &Path) -> Result<DirLock> {
        let path = dir.join(LOCK_FILE);
        loop {
            let file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)?;
            match file.try_lock() {
                Ok(()) => {}
                Err(TryLockError::WouldBlock) => {
                    let holder = std::fs::read_to_string(&path).unwrap_or_default();
                    return Err(Error::invalid_config(format!(
                        "store directory {} is locked by pid {}; two owners would corrupt \
                         the log — use ShardedLogStore::read_back for inspection",
                        dir.display(),
                        Some(holder.trim())
                            .filter(|h| !h.is_empty())
                            .unwrap_or("unknown"),
                    )));
                }
                Err(TryLockError::Error(e)) => return Err(e.into()),
            }
            // An owner's drop unlinks `LOCK` before the kernel releases it,
            // so the file locked here may no longer be the one at `path`:
            // then another opener may already hold the new one, and the
            // claim starts over.
            let locked = file.metadata()?.ino();
            if std::fs::metadata(&path).is_ok_and(|at_path| at_path.ino() == locked) {
                file.set_len(0)?;
                write!(&file, "{}", std::process::id())?;
                return Ok(DirLock { path, _file: file });
            }
        }
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        // Unlinked while still locked; the kernel lock goes with the file.
        let _ = std::fs::remove_file(&self.path);
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
    // shards through the Arc and is joined first; each shard commits its
    // batch as it drops; the root lock is released last.
    _flusher: Option<Flusher>,
    shards: Arc<[Mutex<Shard>]>,
    /// The fsync order, held across every [`sync_shard`].
    fsync_order: Arc<Mutex<()>>,
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
    /// [`Error::InvalidConfig`] for a zero shard count or flush interval, a
    /// shard-count/manifest mismatch, or a directory locked by a live
    /// instance; [`Error::CorruptRecord`] for a malformed manifest
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
                scope.spawn(move || *slot = Some(Shard::open(&path, obs)));
            }
        });
        let shards: Arc<[Mutex<Shard>]> = slots
            .into_iter()
            .map(|slot| {
                slot.expect("scoped replay thread fills its slot")
                    .map(Mutex::new)
            })
            .collect::<Result<_>>()?;
        let fsync_order = Arc::new(Mutex::new(()));
        let flusher = match config.flush_interval {
            Some(interval) => Some(Flusher::start(&shards, &fsync_order, interval, obs)?),
            None => None,
        };
        Ok(ShardedLogStore {
            _flusher: flusher,
            shards,
            fsync_order,
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
            let (shard_index, stats) = replay_log(&shard_path(dir, i))?;
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
    /// version — the write that touches only the shard's index of
    /// positions, where [`PersistentStore::append`] reads the whole view
    /// back from the log to return it. Once views fill up that is the
    /// difference between ~3M and ~9k durable appends per second (1,000
    /// users of 128 events, 64-byte payloads, 8 shards, on a 2-vCPU
    /// container): a full view's entries lie apart in the log, one
    /// positioned read each. No payload stays resident once it returns.
    /// The append is *acknowledged* (visible to [`fetch`]) immediately;
    /// durability follows the shard's group-commit contract (see the
    /// module docs of `log.rs`).
    ///
    /// [`fetch`]: PersistentStore::fetch
    ///
    /// # Errors
    ///
    /// The shard's first I/O error (see [`sync`](PersistentStore::sync)),
    /// I/O errors from a forced batch commit, and
    /// [`Error::InvalidConfig`] for an oversized payload.
    pub fn append_version(&self, user: UserId, payload: Vec<u8>) -> Result<u64> {
        self.shard_of(user).append(user, &payload)
    }

    /// What the open replay measured, per shard and in aggregate.
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
        self.sum(|s| s.positions.len() as u64) as usize
    }

    /// Acknowledged-but-uncommitted appends across shards.
    pub fn pending_records(&self) -> u64 {
        self.sum(|s| u64::from(s.pending.records()))
    }
}

impl PersistentStore for ShardedLogStore {
    /// Appends the event, then reads the view back from the log, as
    /// [`fetch`](PersistentStore::fetch) does, under the same shard lock.
    fn append(&self, user: UserId, payload: Vec<u8>) -> Result<View> {
        let mut shard = self.shard_of(user);
        shard.append(user, &payload)?;
        shard.view(user)
    }

    /// Reads the view back from the log: its pending entries from the
    /// shard's batch, its committed ones by positioned reads of the shard's
    /// file (see the module docs of `log.rs`).
    fn fetch(&self, user: UserId) -> Result<View> {
        let mut shard = self.shard_of(user);
        shard.reads += 1;
        shard.view(user)
    }

    /// Commits every shard's pending batch, which puts it on the operating
    /// system: it now survives a process crash, but not a machine crash.
    /// Every shard is tended, failed or not; the first error is returned (a
    /// failed shard returns its first I/O error until the store is reopened).
    fn flush(&self) -> Result<()> {
        let commits = self.shards.iter().map(|s| s.lock().commit_pending());
        commits.fold(Ok(()), Result::and)
    }

    /// Runs the one fsync routine on every shard, failed or not, holding
    /// the fsync order for the whole pass and no shard lock while the disk
    /// flushes: after an `Ok`, every acknowledged write is crash-durable.
    /// Returns the first error; a shard that has failed once — here, in
    /// the flusher or in an append — returns its first I/O error until the
    /// store is reopened, so no `Ok` follows a failed write or fsync.
    fn sync(&self) -> Result<()> {
        let ordered = self.fsync_order.lock();
        let syncs = self
            .shards
            .iter()
            .map(|s| sync_shard(s, &ordered).map(drop));
        syncs.fold(Ok(()), Result::and)
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
    use super::fault_tests::FaultyFile;
    use super::*;

    pub(super) fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dynasore-sharded-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Deterministic config for tests: no background flusher.
    pub(super) fn no_flusher(shards: usize) -> ShardedConfig {
        ShardedConfig {
            shards,
            flush_interval: None,
        }
    }

    /// A flusher that wakes every millisecond.
    fn fast_flusher(shards: usize) -> ShardedConfig {
        ShardedConfig {
            shards,
            flush_interval: Some(Duration::from_millis(1)),
        }
    }

    /// Polls `done` every millisecond, for at most ten seconds.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        for _ in 0..10_000 {
            if done() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("timed out waiting until {what}");
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
    /// `LOCK` file a dead owner left does not block, and drop releases it.
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
        // A crashed owner's LOCK file names a dead pid and holds no lock.
        std::fs::write(dir.join(LOCK_FILE), "999999999").unwrap();
        let recovered = ShardedLogStore::open(&dir, no_flusher(2));
        assert!(recovered.is_ok(), "{recovered:?}");
        drop(recovered);
        assert!(!dir.join(LOCK_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Only the kernel lock claims a root, never the `LOCK` file's contents:
    /// a file a crash left behind — empty (its pid never reached the disk),
    /// naming a live pid (in any pid namespace, pid 1 is live), or naming
    /// this very process (a restarted container can get its old pid back)
    /// — is reclaimed by the next open, which writes its own pid into it.
    #[test]
    fn an_ownerless_lock_never_blocks_a_reopen() {
        let dir = temp_dir("ownerless-lock");
        drop(ShardedLogStore::open(&dir, no_flusher(2)).unwrap());
        let me = std::process::id().to_string();
        for leftover in ["", "1", me.as_str()] {
            std::fs::write(dir.join(LOCK_FILE), leftover).unwrap();
            let reopened = ShardedLogStore::open(&dir, no_flusher(2));
            assert!(reopened.is_ok(), "LOCK {leftover:?}: {reopened:?}");
            assert_eq!(
                std::fs::read_to_string(dir.join(LOCK_FILE)).unwrap(),
                me,
                "LOCK {leftover:?}: the reopen must name its owner"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_flusher_commits_within_the_interval() {
        let dir = temp_dir("flusher");
        let config = ShardedConfig {
            shards: 2,
            flush_interval: Some(Duration::from_millis(2)),
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

    /// `synced_len` is the one record of what is durable: the flusher does
    /// not fsync again what an explicit sync covered, but does fsync what
    /// no sync did.
    #[test]
    fn the_flusher_never_refsyncs_what_a_sync_covered() {
        let dir = temp_dir("one-record");
        let obs = StoreObs::default();
        let store = ShardedLogStore::open_observed(&dir, fast_flusher(1), obs.clone()).unwrap();
        let flusher_syncs = || obs.to_jsonl().matches("\"kind\":\"flusher-sync\"").count();
        // The sync lands while the flusher runs, well before its first
        // fsync wake.
        std::thread::sleep(Duration::from_millis(2));
        store
            .append_version(UserId::new(1), b"synced".to_vec())
            .unwrap();
        store.sync().unwrap();
        // Five times the flusher's fsync period and the commit before it.
        std::thread::sleep(Duration::from_millis(5 * u64::from(FSYNC_EVERY_WAKES + 2)));
        assert_eq!(flusher_syncs(), 0, "the flusher re-fsynced synced bytes");
        store
            .append_version(UserId::new(1), b"left to the flusher".to_vec())
            .unwrap();
        wait_until("the flusher fsyncs the unsynced append", || {
            flusher_syncs() == 1
        });
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The flusher's fsync fails through the shard's shared handle — a
    /// writeback error the kernel reports once, to whoever fsyncs first —
    /// and the shard keeps it: every later sync, flush and append of the
    /// shard returns it. A reopen replays what is on disk and works again.
    #[test]
    fn a_failed_flusher_fsync_fails_every_later_sync() {
        let dir = temp_dir("flusher-fsync-error");
        let store = ShardedLogStore::open(&dir, fast_flusher(2)).unwrap();
        let user_on = |shard| {
            (0..)
                .map(UserId::new)
                .find(|&u| store.shard_index_of(u) == shard)
                .unwrap()
        };
        let (hit, bystander) = (user_on(0), user_on(1));
        let file = FaultyFile::install(&store.shards[0]);
        file.fail_next_sync();
        store.append_version(hit, b"on the OS".to_vec()).unwrap();
        wait_until("the flusher fsyncs shard 0", || !file.sync_fault_pending());
        // The flusher tends the shards in order, so once it has committed a
        // write to shard 1 made after its fsync of shard 0 failed, it has
        // also recorded that fsync's outcome.
        store.append_version(bystander, b"later".to_vec()).unwrap();
        wait_until("the flusher commits shard 1", || {
            store.pending_records() == 0
        });
        let err = store.sync().unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err}");
        assert_eq!(store.flush().unwrap_err(), err);
        assert_eq!(store.append_version(hit, vec![1]).unwrap_err(), err);
        assert_eq!(
            store.sync().unwrap_err(),
            err,
            "a retried sync stays failed"
        );
        drop(store);
        let reopened = ShardedLogStore::open(&dir, no_flusher(2)).unwrap();
        assert_eq!(reopened.fetch(hit).unwrap().len(), 1);
        assert_eq!(reopened.fetch(bystander).unwrap().len(), 1);
        reopened.append_version(hit, vec![2]).unwrap();
        reopened.sync().unwrap();
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An append whose forced commit fails returns `Err`, and no `fetch`
    /// serves its event — then or after a reopen. The shard fails every
    /// later append, flush and sync with that first error.
    #[test]
    fn an_append_whose_commit_fails_is_never_visible() {
        let dir = temp_dir("failed-append");
        let config = no_flusher(1);
        let store = ShardedLogStore::open(&dir, config).unwrap();
        let u = UserId::new(5);
        let kept = store.append(u, b"kept".to_vec()).unwrap();
        store.flush().unwrap();
        FaultyFile::install(&store.shards[0]).fail_from_now_on();
        // A payload of the byte budget forces its batch to commit.
        let failed = vec![b'f'; crate::log::MAX_BATCH_BYTES];
        let err = store.append(u, failed).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err}");
        assert_eq!(store.fetch(u).unwrap(), kept, "a failed append is visible");
        assert_eq!(store.append(UserId::new(6), vec![]).unwrap_err(), err);
        assert_eq!(store.flush().unwrap_err(), err);
        assert_eq!(store.sync().unwrap_err(), err);
        drop(store);
        let reopened = ShardedLogStore::open(&dir, config).unwrap();
        assert_eq!(reopened.fetch(u).unwrap(), kept);
        reopened.sync().unwrap();
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `sync` and `flush` tend every shard and return the first error: a
    /// fail-stopped shard does not strand the acknowledged writes of the
    /// shards after it, which with the flusher off nothing else commits.
    #[test]
    fn sync_and_flush_tend_every_shard_past_a_failed_one() {
        let dir = temp_dir("tend-every-shard");
        let store = ShardedLogStore::open(&dir, no_flusher(2)).unwrap();
        let user_on = |shard| {
            (0..)
                .map(UserId::new)
                .find(|&u| store.shard_index_of(u) == shard)
                .unwrap()
        };
        let (hit, bystander) = (user_on(0), user_on(1));
        let on_disk = |user| {
            let (index, _) = ShardedLogStore::read_back(&dir).unwrap();
            index.get(&user).map_or(0, View::len)
        };
        // Shard 0 has a batch to commit, so the sync hits its fault.
        store
            .append_version(hit, b"never written".to_vec())
            .unwrap();
        FaultyFile::install(&store.shards[0]).fail_from_now_on();
        store.append_version(bystander, b"synced".to_vec()).unwrap();
        let err = store.sync().unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err}");
        assert_eq!(on_disk(bystander), 1, "sync stopped at the failed shard");
        store
            .append_version(bystander, b"flushed".to_vec())
            .unwrap();
        assert_eq!(store.flush().unwrap_err(), err);
        assert_eq!(on_disk(bystander), 2, "flush stopped at the failed shard");
        assert_eq!(on_disk(hit), 0);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Whether `thread` finishes within `bound`, polled every millisecond.
    fn finishes_within<T>(thread: &std::thread::ScopedJoinHandle<'_, T>, bound: Duration) -> bool {
        let start = std::time::Instant::now();
        while !thread.is_finished() {
            if start.elapsed() > bound {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// An explicit sync that starts while the flusher's fsync of the same
    /// shard is failing returns that failure: the store's fsyncs are
    /// ordered, so the sync's own fsync — which the kernel, reporting a
    /// writeback error once per open file, would let succeed — cannot
    /// start before the flusher's outcome is on the shard.
    #[test]
    fn a_sync_during_a_failing_flusher_fsync_returns_its_error() {
        let dir = temp_dir("ordered-fsyncs");
        let store = ShardedLogStore::open(&dir, fast_flusher(1)).unwrap();
        let file = FaultyFile::install(&store.shards[0]);
        file.fail_next_sync();
        let (parked, release) = file.park_next_sync();
        store
            .append_version(UserId::new(1), b"on the OS".to_vec())
            .unwrap();
        parked
            .recv_timeout(Duration::from_secs(10))
            .expect("the flusher parks in its fsync");
        let outcome = std::thread::scope(|scope| {
            let sync = scope.spawn(|| store.sync());
            // Room for the sync to overtake the parked fsync, if it can.
            finishes_within(&sync, Duration::from_millis(200));
            release.send(()).unwrap();
            sync.join().unwrap()
        });
        assert!(matches!(outcome, Err(Error::Io(_))), "{outcome:?}");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An explicit sync holds no shard lock while the disk flushes: an
    /// append to the shard it is fsyncing returns meanwhile.
    #[test]
    fn an_append_returns_while_a_sync_of_its_shard_fsyncs() {
        let dir = temp_dir("append-during-fsync");
        let store = ShardedLogStore::open(&dir, no_flusher(1)).unwrap();
        let u = UserId::new(2);
        store.append_version(u, b"synced".to_vec()).unwrap();
        let (parked, release) = FaultyFile::install(&store.shards[0]).park_next_sync();
        std::thread::scope(|scope| {
            let sync = scope.spawn(|| store.sync());
            parked
                .recv_timeout(Duration::from_secs(10))
                .expect("the sync parks in its fsync");
            let append = scope.spawn(|| store.append_version(u, b"meanwhile".to_vec()));
            let returned = finishes_within(&append, Duration::from_secs(10));
            release.send(()).unwrap();
            assert!(returned, "the append waited for the sync's fsync");
            assert_eq!(append.join().unwrap().unwrap(), 2);
            sync.join().unwrap().unwrap();
        });
        assert_eq!(
            store.pending_records(),
            1,
            "the sync committed only its own"
        );
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_shard_of_single_synced_records_is_on_disk_when_sync_returns() {
        // Fsync-per-append through the tier: a one-shard store with no
        // flusher and a sync after every append, which commits that append
        // as a frame of one — `read_back` sees every record as soon as its
        // sync returns.
        let dir = temp_dir("single-sync");
        let store = ShardedLogStore::open(&dir, no_flusher(1)).unwrap();
        for i in 0..6u32 {
            let user = UserId::new(i % 3);
            let view = store.append(user, vec![i as u8; 9]).unwrap();
            assert_eq!(store.pending_records(), 1);
            store.sync().unwrap();
            assert_eq!(store.pending_records(), 0);
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
        // Sync commits every shard's pending batch; reading the files back
        // gives the same views, one frame per shard.
        let before: Vec<View> = (0..32)
            .map(|u| store.fetch(UserId::new(u)).unwrap())
            .collect();
        store.sync().unwrap();
        let (index, read) = ShardedLogStore::read_back(&dir).unwrap();
        assert_eq!(read.per_shard.len(), 4);
        assert!(read.per_shard.iter().all(|s| s.records_replayed == 1));
        assert_eq!(read.total.torn_bytes, 0);
        assert_eq!(read.total.bytes_replayed, store.bytes_on_disk());
        let after: Vec<View> = (0..32).map(|u| index[&UserId::new(u)].clone()).collect();
        assert_eq!(before, after);
        assert_eq!(index.len(), 32);
        drop(store);
        let reopened = ShardedLogStore::open(&dir, no_flusher(4)).unwrap();
        assert_eq!(reopened.recovery_stats(), read);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[cfg(test)]
mod fault_tests;
