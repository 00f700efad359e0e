//! One shard of the file-backed durable tier: a log of segment files.
//!
//! [`LogStructuredStore`] is private to this crate: a
//! [`ShardedLogStore`] is made of them (a one-shard store is how the rest
//! of the workspace runs "one log over files") and is the one public store
//! over files. Every write is a framed, checksummed batch frame
//! ([`DurableRecord`]) in the active segment file, an in-memory index of
//! full views is rebuilt by *replaying the segments from disk* on open, and
//! the active segment rotates at a size threshold. `flush` pushes buffered
//! bytes to the operating system; `sync` additionally fsyncs, making
//! everything appended so far crash-durable.
//!
//! Crash semantics: a crash may truncate the log at any byte offset. On
//! open, replay accepts every whole record and stops at the first torn
//! frame (short frame, impossible length, or checksum mismatch); the torn
//! tail is physically truncated away so appends continue after the last
//! whole record. Only the *last* segment may be torn — an earlier torn
//! segment means the files were tampered with and opening fails loudly.
//!
//! # Group commit — the one write path
//!
//! An append is *acknowledged* into a bounded in-memory batch: the event is
//! encoded straight into a reusable batch frame (one copy, no intermediate
//! record value) and the in-memory index is updated
//! immediately, so `fetch` sees the new version at once. The frame is
//! written — and, with [`LogConfig::sync_on_commit`], fsynced — as **one**
//! record when the batch holds [`LogConfig::max_batch_records`] events or
//! `MAX_BATCH_BYTES` (1 MiB) of body, when the owner calls
//! [`flush`]/[`sync`]/[`commit_pending`], or when the
//! [`ShardedLogStore`] flush interval elapses. K writers therefore pay one
//! fsync instead of K. An acknowledged-but-uncommitted append can be lost
//! by a crash, and because the batch frame carries a single checksum it is
//! lost *as a unit* — replay never serves a prefix of a batch.
//!
//! Fsync-per-append is the same path with a batch of one:
//! `max_batch_records: 1, sync_on_commit: true` writes and fsyncs each
//! record before its `append` returns.
//!
//! The log holds batch frames and nothing else: the history is never
//! rewritten and no view is ever removed, so replay is "apply every event of
//! every whole frame, in file order".
//!
//! [`ShardedLogStore`]: crate::ShardedLogStore
//! [`flush`]: LogStructuredStore::flush
//! [`sync`]: LogStructuredStore::sync
//! [`commit_pending`]: LogStructuredStore::commit_pending

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use dynasore_types::{
    DurableRecord, Error, Event, Result, SimTime, TraceEventKind, UserId, View, RECORD_HEADER_BYTES,
};

use crate::obs::StoreObs;
use crate::segment::{list_segments, replay_segment, Segment};

/// Encoded batch-body bytes that force a commit, whatever the record count:
/// a batch of large payloads is written out in ~megabyte frames, far below
/// the [`dynasore_types::MAX_RECORD_BYTES`] cap at which a frame could no
/// longer be replayed.
const MAX_BATCH_BYTES: usize = 1 << 20;

/// Configuration of one shard of a
/// [`ShardedLogStore`](crate::ShardedLogStore).
#[derive(Debug, Clone, Copy)]
pub struct LogConfig {
    /// Size threshold (bytes) at which the active segment is sealed and a
    /// fresh one started. Small values exercise rotation; the default is
    /// 4 MiB.
    pub segment_max_bytes: u64,
    /// Acknowledged appends that force a commit once the pending batch holds
    /// this many (see the module docs of `log.rs`). `1` writes every record
    /// before its append returns. Default 4096.
    pub max_batch_records: u32,
    /// Whether every commit fsyncs — the group durability point: one fsync
    /// covers the whole batch. When `false` (the default), commits only
    /// reach the OS page cache and
    /// [`sync`](crate::ShardedLogStore::sync) — or the sharded store's
    /// flusher thread — is the machine-crash boundary (segment rotation
    /// always syncs the sealed file).
    pub sync_on_commit: bool,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            segment_max_bytes: 4 << 20,
            max_batch_records: 4096,
            sync_on_commit: false,
        }
    }
}

/// What rebuilding one shard's index from disk (on open or [`reread`])
/// measured — the numerator of real recovery bandwidth.
///
/// [`reread`]: crate::ShardedLogStore::reread
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Bytes read and validated (segment headers plus whole records).
    pub bytes_replayed: u64,
    /// Records applied to the index.
    pub records_replayed: u64,
    /// Trailing bytes discarded as a torn tail (nonzero only after a crash
    /// mid-append).
    pub torn_bytes: u64,
    /// Segment files replayed.
    pub segments: usize,
}

#[derive(Debug)]
struct LogInner {
    dir: PathBuf,
    config: LogConfig,
    /// The materialized state of the log: every live view, rebuilt by
    /// replaying segments on open. `BTreeMap` so the index [`read_back`]
    /// hands out iterates in a deterministic order.
    ///
    /// [`read_back`]: LogStructuredStore::read_back
    index: BTreeMap<UserId, View>,
    /// Logical clock for event timestamps; recovered as one past the newest
    /// replayed timestamp so post-recovery appends keep timestamps monotonic.
    clock: u64,
    active: Segment,
    /// Bytes of the sealed (rotated-out, fsynced) segments.
    sealed_bytes: u64,
    /// Number of sealed segments.
    sealed_segments: usize,
    next_seq: u64,
    recovery: RecoveryStats,
    /// The reusable commit frame: an open batch frame holding every
    /// acknowledged-but-uncommitted append. Empty whenever
    /// `pending_records` is 0; its capacity is retained across commits so
    /// the steady state allocates nothing.
    pending: Vec<u8>,
    /// Events acknowledged into `pending` and not yet committed.
    pending_records: u32,
    lock_path: PathBuf,
    /// Optional flight-recorder observer. `None` (the default) keeps every
    /// write path exactly the unobserved code; when set, batch commits and
    /// segment rotations emit structured trace events.
    obs: Option<StoreObs>,
}

/// One log of segment files: the shard type of
/// [`ShardedLogStore`](crate::ShardedLogStore), which is the
/// [`PersistentStore`](crate::PersistentStore) to hand a cluster. See the
/// module documentation of `log.rs` for the format and crash semantics.
#[derive(Debug)]
pub(crate) struct LogStructuredStore {
    inner: Mutex<LogInner>,
    writes: AtomicU64,
    reads: AtomicU64,
}

/// Name of the advisory lock file guarding single ownership of a store
/// directory.
const LOCK_FILE: &str = "LOCK";

/// Claims exclusive ownership of `dir` by creating its `LOCK` file with this
/// process's pid inside. A lock left by a process that is *provably* no
/// longer alive (a real crash — exactly the scenario recovery exists for)
/// is broken and re-claimed; a lock held by a live process, or one whose
/// liveness cannot be checked, is an error, because two writers would
/// corrupt each other's repairs and appends.
fn acquire_dir_lock(dir: &Path) -> Result<PathBuf> {
    let path = dir.join(LOCK_FILE);
    for attempt in 0..2 {
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut file) => {
                use std::io::Write;
                let _ = write!(file, "{}", std::process::id());
                return Ok(path);
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists && attempt == 0 => {
                let holder: Option<u32> = std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|s| s.trim().parse().ok());
                // Only a pid we can *prove* dead is stale. The proof needs a
                // /proc filesystem; where there is none, refuse rather than
                // break a possibly-live lock.
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
                // Break the dead owner's lock via rename: of several racing
                // openers, only one rename succeeds, so nobody can delete a
                // lock that a faster racer has already replaced.
                let takeover = dir.join(format!("LOCK.stale.{}", std::process::id()));
                if std::fs::rename(&path, &takeover).is_ok() {
                    let _ = std::fs::remove_file(&takeover);
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    // Second create_new also lost: another opener claimed the broken lock
    // first.
    Err(Error::invalid_config(format!(
        "store directory {} is locked by another instance that claimed it concurrently",
        dir.display()
    )))
}

/// Replays every segment of `dir` in sequence order into a fresh index.
/// Returns the index, the recovered clock, each segment's sequence number
/// and valid length, and the aggregate stats. Only the last segment may
/// carry a torn tail.
#[allow(clippy::type_complexity)]
fn replay_dir(dir: &Path) -> Result<(BTreeMap<UserId, View>, u64, Vec<(u64, u64)>, RecoveryStats)> {
    let segments = list_segments(dir)?;
    let mut index = BTreeMap::new();
    let mut clock = 0u64;
    let mut stats = RecoveryStats::default();
    let mut valid = Vec::with_capacity(segments.len());
    let last = segments.len().saturating_sub(1);
    for (i, (seq, path)) in segments.into_iter().enumerate() {
        let replay = replay_segment(&path, |events| {
            for event in events {
                clock = clock.max(event.timestamp().as_secs() + 1);
                index
                    .entry(event.author())
                    .or_insert_with(|| View::new(event.author()))
                    .push(event);
            }
        })?;
        if replay.torn_bytes > 0 && i != last {
            return Err(Error::CorruptRecord(format!(
                "{} is torn but is not the last segment; a crash only tears the tail of the log",
                path.display()
            )));
        }
        stats.bytes_replayed += replay.valid_bytes;
        stats.records_replayed += replay.records;
        stats.torn_bytes += replay.torn_bytes;
        stats.segments += 1;
        valid.push((seq, replay.valid_bytes));
    }
    Ok((index, clock, valid, stats))
}

impl LogStructuredStore {
    /// Opens the store in `dir` (created if missing), rebuilding the
    /// in-memory index by replaying every segment from disk. A torn tail in
    /// the last segment — the signature of a crash mid-append — is truncated
    /// away; [`recovery_stats`] reports how many bytes were replayed and how
    /// many were discarded.
    ///
    /// [`recovery_stats`]: LogStructuredStore::recovery_stats
    ///
    /// Opening claims exclusive ownership of the directory through its
    /// `LOCK` file: torn-tail repair physically truncates segment files, so
    /// two live owners would corrupt each other. A lock left by a dead
    /// process (a crash) is broken automatically; use
    /// [`read_back`](LogStructuredStore::read_back) to inspect a directory
    /// another instance owns.
    ///
    /// # Errors
    ///
    /// I/O errors, [`Error::InvalidConfig`] when the directory is locked by
    /// a live instance, and [`Error::CorruptRecord`] for damage a crash
    /// cannot produce (checksummed-but-malformed records, torn non-final
    /// segments, files that are not segments).
    pub fn open(dir: impl Into<PathBuf>, config: LogConfig) -> Result<Self> {
        let dir = dir.into();
        if config.max_batch_records == 0 {
            return Err(Error::invalid_config(
                "max_batch_records must be at least 1",
            ));
        }
        std::fs::create_dir_all(&dir)?;
        let lock_path = acquire_dir_lock(&dir)?;
        let opened = (|| {
            let (index, clock, segments, recovery) = replay_dir(&dir)?;
            let (active, next_seq, sealed) = match segments.split_last() {
                Some((&(seq, valid_bytes), sealed)) => {
                    (Segment::reopen(&dir, seq, valid_bytes)?, seq + 1, sealed)
                }
                None => (Segment::create(&dir, 1)?, 2, &[][..]),
            };
            Ok(LogStructuredStore {
                inner: Mutex::new(LogInner {
                    dir: dir.clone(),
                    config,
                    index,
                    clock,
                    active,
                    sealed_bytes: sealed.iter().map(|&(_, bytes)| bytes).sum(),
                    sealed_segments: sealed.len(),
                    next_seq,
                    recovery,
                    pending: Vec::new(),
                    pending_records: 0,
                    lock_path: lock_path.clone(),
                    obs: None,
                }),
                writes: AtomicU64::new(0),
                reads: AtomicU64::new(0),
            })
        })();
        if opened.is_err() {
            let _ = std::fs::remove_file(&lock_path);
        }
        opened
    }

    /// Non-destructively replays the segments of `dir` — no lock is taken,
    /// no torn tail is repaired, nothing is created — and returns the
    /// recovered state together with what the replay measured. This is the
    /// safe way to inspect a directory another instance may own (e.g. to
    /// verify after [`crate::Cluster::shutdown`] that every acknowledged
    /// write reached disk).
    ///
    /// # Errors
    ///
    /// Same conditions as [`LogStructuredStore::open`], minus the lock.
    pub fn read_back(dir: impl AsRef<Path>) -> Result<(BTreeMap<UserId, View>, RecoveryStats)> {
        let (index, _, _, stats) = replay_dir(dir.as_ref())?;
        Ok((index, stats))
    }

    /// Writes the pending batch — if any — as one batch frame and makes it
    /// as durable as the configuration promises (fsynced under
    /// [`LogConfig::sync_on_commit`], OS-buffered otherwise). The frame
    /// buffer keeps its capacity for the next batch.
    fn commit_pending_locked(inner: &mut LogInner) -> Result<()> {
        if inner.pending_records == 0 {
            return Ok(());
        }
        DurableRecord::batch_finish(&mut inner.pending, inner.pending_records)?;
        inner.active.append(&inner.pending)?;
        let records = u64::from(inner.pending_records);
        inner.pending_records = 0;
        inner.pending.clear();
        if inner.config.sync_on_commit {
            inner.active.sync()?;
        }
        if let Some(obs) = &inner.obs {
            // Fill ratio against the configured fill trigger.
            let fill_percent =
                ((records * 100) / u64::from(inner.config.max_batch_records)).min(100) as u8;
            obs.trace(TraceEventKind::GroupCommitFill {
                records,
                fill_percent,
            });
        }
        Self::maybe_rotate(inner)
    }

    /// Appends an event with `payload` to `user`'s view under one lock and
    /// returns what `ack` reads off the updated view — the body every write
    /// path shares. The event is *acknowledged* into the pending batch frame
    /// — immediately visible to [`fetch`], durable at the next commit — and
    /// the frame is committed once it is full. The payload is encoded
    /// directly from a borrow — exactly one copy, into the frame buffer —
    /// and then *moved* into the in-memory index, so the durable write path
    /// never duplicates the caller's bytes.
    ///
    /// [`fetch`]: LogStructuredStore::fetch
    ///
    /// # Errors
    ///
    /// I/O errors from a commit the append forces, and
    /// [`Error::InvalidConfig`] for a payload over the frame cap.
    fn append_with<T>(
        &self,
        user: UserId,
        payload: Vec<u8>,
        ack: impl FnOnce(&View) -> T,
    ) -> Result<T> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let timestamp = SimTime::from_secs(inner.clock);
        inner.clock += 1;
        if inner.pending_records == 0 {
            DurableRecord::batch_begin(&mut inner.pending);
        }
        if let Err(first) = DurableRecord::batch_push(&mut inner.pending, user, timestamp, &payload)
        {
            // The open batch has no room left for this entry: commit it
            // and retry in a fresh frame. A second failure means the
            // entry alone can never fit and is rejected like any
            // oversized record — with the frame (and index) untouched.
            if inner.pending_records == 0 {
                return Err(first);
            }
            Self::commit_pending_locked(inner)?;
            DurableRecord::batch_begin(&mut inner.pending);
            DurableRecord::batch_push(&mut inner.pending, user, timestamp, &payload)?;
        }
        inner.pending_records += 1;
        let view = inner.index.entry(user).or_insert_with(|| View::new(user));
        view.push(Event::new(user, timestamp, payload));
        let acked = ack(view);
        if inner.pending_records >= inner.config.max_batch_records
            || inner.pending.len() - RECORD_HEADER_BYTES >= MAX_BATCH_BYTES
        {
            Self::commit_pending_locked(inner)?;
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(acked)
    }

    /// [`append_with`](LogStructuredStore::append_with) returning a clone
    /// of the updated view.
    ///
    /// # Errors
    ///
    /// Same conditions as [`append_with`](LogStructuredStore::append_with).
    pub fn append(&self, user: UserId, payload: Vec<u8>) -> Result<View> {
        self.append_with(user, payload, View::clone)
    }

    /// [`append_with`](LogStructuredStore::append_with) returning only the
    /// new version: callers that need just the acknowledgement skip copying
    /// the whole event list on every write — the difference between ~100k
    /// and >1M durable appends per second once the view fills up.
    ///
    /// # Errors
    ///
    /// Same conditions as [`append_with`](LogStructuredStore::append_with).
    pub fn append_version(&self, user: UserId, payload: Vec<u8>) -> Result<u64> {
        self.append_with(user, payload, View::version)
    }

    /// Commits the pending batch, if any — the hook the sharded store's
    /// flush-interval thread drives so an acknowledged append never waits
    /// longer than the interval for durability.
    ///
    /// # Errors
    ///
    /// I/O errors from the segment write or fsync.
    pub fn commit_pending(&self) -> Result<()> {
        Self::commit_pending_locked(&mut self.inner.lock())
    }

    /// Events acknowledged into the pending batch and not yet committed to
    /// the active segment.
    pub fn pending_records(&self) -> u64 {
        u64::from(self.inner.lock().pending_records)
    }

    /// Fetches the current view of `user`, or an empty view if the user has
    /// never written.
    pub fn fetch(&self, user: UserId) -> View {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let inner = self.inner.lock();
        inner
            .index
            .get(&user)
            .cloned()
            .unwrap_or_else(|| View::new(user))
    }

    fn maybe_rotate(inner: &mut LogInner) -> Result<()> {
        if inner.active.len() < inner.config.segment_max_bytes {
            return Ok(());
        }
        // Seal the full segment — synced, so sealed segments are always
        // crash-clean — and start a fresh one.
        inner.active.sync()?;
        let fresh_seq = inner.next_seq;
        let fresh = Segment::create(&inner.dir, fresh_seq)?;
        inner.next_seq += 1;
        let sealed = std::mem::replace(&mut inner.active, fresh);
        inner.sealed_bytes += sealed.len();
        inner.sealed_segments += 1;
        if let Some(obs) = &inner.obs {
            obs.trace(TraceEventKind::SegmentRotated { segment: fresh_seq });
        }
        Ok(())
    }

    /// Commits the pending batch and pushes buffered appends to the
    /// operating system (they now survive a process crash, but not a
    /// machine crash).
    ///
    /// # Errors
    ///
    /// I/O errors from the flush.
    pub fn flush(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        Self::commit_pending_locked(inner)?;
        inner.active.flush()
    }

    /// Commits the pending batch, flushes and fsyncs the active segment:
    /// everything *acknowledged* so far survives a machine crash.
    ///
    /// # Errors
    ///
    /// I/O errors from the flush or fsync.
    pub fn sync(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        Self::commit_pending_locked(inner)?;
        inner.active.sync()
    }

    /// Fsyncs everything *committed* so far — without holding the store
    /// lock during the disk flush. The lock is taken only to push buffered
    /// bytes to the OS and duplicate the active segment's file handle; the
    /// fsync then runs on the duplicate, so concurrent appends keep flowing
    /// while the disk catches up. The pipelined half of group commit: the
    /// sharded store's flusher thread calls this so acknowledged batches
    /// become machine-durable on a bounded cadence that the write path
    /// never waits on.
    ///
    /// Unlike [`sync`](LogStructuredStore::sync), the open (pending) batch
    /// is *not* committed — records appended after the handle is taken may
    /// or may not be covered. Sealed segments are already fsynced at
    /// rotation, so syncing the active segment suffices.
    ///
    /// # Errors
    ///
    /// I/O errors from the flush, handle duplication, or fsync.
    pub fn sync_detached(&self) -> Result<()> {
        let file = self.inner.lock().active.detached_handle()?;
        file.sync_all()?;
        Ok(())
    }

    /// Re-reads the entire log from disk — exactly what crash recovery does
    /// — replacing the in-memory index with the replayed one, and returns
    /// what the replay measured. Dividing [`RecoveryStats::bytes_replayed`]
    /// by the wall-clock this call takes gives real recovery bandwidth.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LogStructuredStore::open`].
    pub fn reread(&self) -> Result<RecoveryStats> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        Self::commit_pending_locked(inner)?;
        inner.active.sync()?;
        let (index, clock, _, stats) = replay_dir(&inner.dir)?;
        inner.index = index;
        inner.clock = inner.clock.max(clock);
        inner.recovery = stats;
        Ok(stats)
    }

    /// What the last [`open`](LogStructuredStore::open) or
    /// [`reread`](LogStructuredStore::reread) replayed.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.inner.lock().recovery
    }

    /// Logical size of the log on disk: sealed segment bytes plus the active
    /// segment (including appends still buffered in memory, which have a
    /// reserved place in the file). Appends acknowledged into the pending
    /// batch are *not* counted until the batch commits — they have no
    /// reserved place yet.
    pub fn bytes_on_disk(&self) -> u64 {
        let inner = self.inner.lock();
        inner.sealed_bytes + inner.active.len()
    }

    /// Number of segment files (sealed plus active).
    pub fn segment_count(&self) -> usize {
        self.inner.lock().sealed_segments + 1
    }

    /// Number of live views.
    pub fn user_count(&self) -> usize {
        self.inner.lock().index.len()
    }

    /// Installs a flight-recorder observer: from now on batch commits and
    /// segment rotations emit structured trace events through it. Without an observer those paths run exactly the
    /// unobserved code.
    pub(crate) fn set_observer(&self, obs: StoreObs) {
        self.inner.lock().obs = Some(obs);
    }

    /// Number of events appended so far (this process; replayed history is
    /// not counted).
    pub fn write_count(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Number of fetches served.
    pub fn read_count(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

impl Drop for LogStructuredStore {
    fn drop(&mut self) {
        // Best-effort teardown: commit the pending batch, push buffered
        // appends to the OS (the durability guarantee still belongs to
        // sync()) and release the directory lock so the next open is not
        // mistaken for a takeover.
        let inner = self.inner.get_mut();
        let _ = Self::commit_pending_locked(inner);
        let _ = inner.active.flush();
        let _ = std::fs::remove_file(&inner.lock_path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_types::MAX_RECORD_BYTES;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dynasore-log-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Rotation is checked at each commit, so the batches are small too.
    fn tiny_segments() -> LogConfig {
        LogConfig {
            segment_max_bytes: 256,
            max_batch_records: 4,
            ..LogConfig::default()
        }
    }

    fn batches_of(max_batch_records: u32) -> LogConfig {
        LogConfig {
            max_batch_records,
            sync_on_commit: true,
            ..LogConfig::default()
        }
    }

    #[test]
    fn append_fetch_round_trips_and_survives_reopen() {
        let dir = temp_dir("reopen");
        let store = LogStructuredStore::open(&dir, LogConfig::default()).unwrap();
        let u = UserId::new(3);
        assert!(store.fetch(u).is_empty());
        let v1 = store.append(u, b"a".to_vec()).unwrap();
        let v2 = store.append(u, b"b".to_vec()).unwrap();
        assert_eq!(v1.len(), 1);
        assert_eq!(v2.len(), 2);
        assert!(v2.version() > v1.version());
        assert_eq!(store.write_count(), 2);
        store.sync().unwrap();
        drop(store);

        let reopened = LogStructuredStore::open(&dir, LogConfig::default()).unwrap();
        let fetched = reopened.fetch(u);
        assert_eq!(
            fetched, v2,
            "recovered view must be identical, version included"
        );
        let stats = reopened.recovery_stats();
        assert_eq!(
            stats.records_replayed, 1,
            "both appends were committed by one sync, as one batch frame"
        );
        assert_eq!(stats.torn_bytes, 0);
        assert!(stats.bytes_replayed > 0);
        // The recovered clock keeps timestamps monotonic.
        let v3 = reopened.append(u, b"c".to_vec()).unwrap();
        let times: Vec<u64> = v3.iter().map(|e| e.timestamp().as_secs()).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]), "times: {times:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_at_the_size_threshold() {
        let dir = temp_dir("rotate");
        let store = LogStructuredStore::open(&dir, tiny_segments()).unwrap();
        for i in 0..40u32 {
            store.append(UserId::new(i % 5), vec![i as u8; 20]).unwrap();
        }
        assert!(
            store.segment_count() > 1,
            "{} segments",
            store.segment_count()
        );
        store.sync().unwrap();
        drop(store);
        let reopened = LogStructuredStore::open(&dir, tiny_segments()).unwrap();
        assert_eq!(reopened.user_count(), 5);
        for i in 0..5u32 {
            assert_eq!(reopened.fetch(UserId::new(i)).len(), 8);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reread_reads_real_bytes() {
        let dir = temp_dir("reread");
        let store = LogStructuredStore::open(&dir, LogConfig::default()).unwrap();
        for i in 0..50u32 {
            store.append(UserId::new(i % 7), vec![i as u8; 64]).unwrap();
        }
        let stats = store.reread().unwrap();
        assert_eq!(
            stats.records_replayed, 1,
            "reread commits the 50 pending appends as one batch frame"
        );
        assert_eq!(stats.bytes_replayed, store.bytes_on_disk());
        assert_eq!(store.fetch(UserId::new(0)).len(), 8);
        assert_eq!(store.user_count(), 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsynced_buffered_appends_can_be_lost_but_synced_ones_cannot() {
        // This pins the durability contract the Cluster::shutdown fix relies
        // on: a (non-destructive) reader of the same directory sees only
        // what was flushed.
        let dir = temp_dir("durability");
        let store = LogStructuredStore::open(&dir, LogConfig::default()).unwrap();
        let u = UserId::new(0);
        store.append(u, b"buffered".to_vec()).unwrap();
        let (index, _) = LogStructuredStore::read_back(&dir).unwrap();
        assert!(
            !index.contains_key(&u),
            "buffered appends must not be visible on disk yet"
        );
        store.sync().unwrap();
        let (index, stats) = LogStructuredStore::read_back(&dir).unwrap();
        assert_eq!(index.get(&u).unwrap().len(), 1);
        assert_eq!(stats.records_replayed, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn directory_ownership_is_exclusive_and_crash_locks_are_broken() {
        let dir = temp_dir("lock");
        let store = LogStructuredStore::open(&dir, LogConfig::default()).unwrap();
        // A second live owner is refused: its repairs would corrupt ours.
        let second = LogStructuredStore::open(&dir, LogConfig::default());
        assert!(matches!(second, Err(Error::InvalidConfig(_))), "{second:?}");
        // read_back stays available for inspection.
        assert!(LogStructuredStore::read_back(&dir).is_ok());
        drop(store);
        // Dropping released the lock.
        let reopened = LogStructuredStore::open(&dir, LogConfig::default()).unwrap();
        drop(reopened);
        // A stale lock from a crashed (dead-pid) owner is broken on open.
        std::fs::write(dir.join("LOCK"), "999999999").unwrap();
        let recovered = LogStructuredStore::open(&dir, LogConfig::default());
        assert!(recovered.is_ok(), "{recovered:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_acknowledges_immediately_and_commits_on_fill() {
        let dir = temp_dir("group-fill");
        let store = LogStructuredStore::open(&dir, batches_of(8)).unwrap();
        let u = UserId::new(1);
        for i in 0..11u32 {
            let version = store.append_version(u, vec![i as u8; 10]).unwrap();
            assert_eq!(version, u64::from(i) + 1, "acks are immediate");
        }
        // 8 appends filled one batch (committed + fsynced); 3 are pending.
        assert_eq!(store.pending_records(), 3);
        assert_eq!(store.fetch(u).len(), 11, "fetch sees acknowledged appends");
        let (index, _) = LogStructuredStore::read_back(&dir).unwrap();
        assert_eq!(
            index.get(&u).unwrap().len(),
            8,
            "only the committed batch is on disk"
        );
        // sync commits the stragglers; a reopen replays all 11 with the
        // version counter intact.
        store.sync().unwrap();
        assert_eq!(store.pending_records(), 0);
        drop(store);
        let reopened = LogStructuredStore::open(&dir, batches_of(8)).unwrap();
        let view = reopened.fetch(u);
        assert_eq!(view.len(), 11);
        assert_eq!(view.version(), 11);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_batches_span_users() {
        let dir = temp_dir("group-mixed");
        let store = LogStructuredStore::open(&dir, batches_of(64)).unwrap();
        for i in 0..10u32 {
            store
                .append_version(UserId::new(i % 3), vec![i as u8; 6])
                .unwrap();
        }
        store.sync().unwrap();
        drop(store);
        // One frame carries the appends of all three users, each replayed
        // into its own view in acknowledgement order.
        let reopened = LogStructuredStore::open(&dir, batches_of(64)).unwrap();
        assert_eq!(reopened.recovery_stats().records_replayed, 1);
        let v0 = reopened.fetch(UserId::new(0));
        let payloads: Vec<u8> = v0.iter().map(|e| e.payload()[0]).collect();
        assert_eq!(payloads, [0, 3, 6, 9]);
        assert_eq!(reopened.fetch(UserId::new(1)).len(), 3);
        assert_eq!(reopened.fetch(UserId::new(2)).len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_config_is_validated() {
        let dir = temp_dir("group-validate");
        let zero = LogStructuredStore::open(&dir, batches_of(0));
        assert!(matches!(zero, Err(Error::InvalidConfig(_))), "{zero:?}");
        // A rejected config must not leave a stray LOCK behind.
        let ok = LogStructuredStore::open(&dir, batches_of(4));
        assert!(ok.is_ok(), "{ok:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_batch_of_one_with_sync_on_commit_is_on_disk_when_append_returns() {
        // Fsync-per-append as a batch of one: no flush, no sync — a reader
        // of the directory sees each record as soon as it is acknowledged.
        let dir = temp_dir("batch-of-one");
        let store = LogStructuredStore::open(&dir, batches_of(1)).unwrap();
        let u = UserId::new(4);
        for i in 0..5u8 {
            let version = store.append_version(u, vec![i; 12]).unwrap();
            assert_eq!(store.pending_records(), 0, "nothing waits for a commit");
            let (index, stats) = LogStructuredStore::read_back(&dir).unwrap();
            let on_disk = index.get(&u).expect("the record just acknowledged");
            assert_eq!(on_disk.version(), version);
            assert_eq!(on_disk.latest().unwrap().payload(), &[i; 12]);
            assert_eq!(stats.records_replayed, u64::from(i) + 1, "one frame each");
            assert_eq!(stats.torn_bytes, 0);
        }
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn byte_budget_commits_batches_and_the_frame_cap_forces_a_retry() {
        let dir = temp_dir("group-overflow");
        // The byte budget: with 300 KiB payloads the batch body crosses
        // MAX_BATCH_BYTES (1 MiB) on every fourth append, long before the
        // 4096-record trigger.
        let store = LogStructuredStore::open(&dir, LogConfig::default()).unwrap();
        let u = UserId::new(7);
        let entry = 300 << 10;
        assert!(3 * entry < MAX_BATCH_BYTES && 4 * entry >= MAX_BATCH_BYTES);
        for i in 0..9u32 {
            store.append_version(u, vec![i as u8; entry]).unwrap();
            assert_eq!(store.pending_records(), u64::from((i + 1) % 4));
        }
        store.sync().unwrap();
        let (index, stats) = LogStructuredStore::read_back(&dir).unwrap();
        assert_eq!(index.get(&u).unwrap().len(), 9);
        assert_eq!(
            stats.records_replayed, 3,
            "nine appends against the 1 MiB budget must commit as 4+4+1: {stats:?}"
        );
        drop(store);

        // The hard frame cap: an entry that cannot share the open batch
        // commits it and retries in a fresh frame, losing nothing. The
        // first entry stays below the byte budget, so only the cap can
        // intervene when the second — just under the cap itself — arrives.
        let dir2 = temp_dir("group-cap-retry");
        let store = LogStructuredStore::open(&dir2, batches_of(1024)).unwrap();
        store.append_version(u, vec![1u8; entry]).unwrap();
        assert_eq!(store.pending_records(), 1, "first entry stays pending");
        let near_cap = MAX_RECORD_BYTES - 64;
        store.append_version(u, vec![2u8; near_cap]).unwrap();
        assert_eq!(
            store.pending_records(),
            0,
            "the retried entry crossed the byte budget on its own"
        );
        let (index, stats) = LogStructuredStore::read_back(&dir2).unwrap();
        let view = index.get(&u).unwrap();
        assert_eq!(view.len(), 2);
        assert_eq!(view.latest().unwrap().payload().len(), near_cap);
        assert_eq!(stats.records_replayed, 2, "one batch frame each: {stats:?}");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn oversized_payloads_are_rejected_without_touching_the_log() {
        let dir = temp_dir("oversized");
        let store = LogStructuredStore::open(&dir, LogConfig::default()).unwrap();
        let u = UserId::new(1);
        store.append(u, b"small".to_vec()).unwrap();
        let err = store.append(u, vec![0u8; dynasore_types::MAX_RECORD_BYTES + 1]);
        assert!(matches!(err, Err(Error::InvalidConfig(_))), "{err:?}");
        // The rejected record left no bytes behind and the store still works.
        store.sync().unwrap();
        let (index, stats) = LogStructuredStore::read_back(&dir).unwrap();
        assert_eq!(stats.torn_bytes, 0);
        assert_eq!(index.get(&u).unwrap().len(), 1);
        store.append(u, b"after".to_vec()).unwrap();
        assert_eq!(store.fetch(u).len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
