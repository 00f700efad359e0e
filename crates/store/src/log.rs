//! One shard of the file-backed durable tier: a log in one file.
//!
//! A [`Shard`] is plain state — no lock of its own, no say over the
//! directory it lives in: a [`ShardedLogStore`] keeps one per shard behind
//! one mutex each, owns the root directory and its `LOCK`, and is the one
//! public store over files (a one-shard store is how the rest of the
//! workspace runs "one log over files"). Every write is a framed,
//! checksummed batch frame ([`DurableRecord`]) in the shard's one file,
//! `<root>/shard-NNNN.log`, and an in-memory index of full views is rebuilt
//! by *replaying the log from disk* on open. `flush` pushes buffered bytes
//! to the operating system; `sync` additionally fsyncs, making everything
//! appended so far crash-durable.
//!
//! Crash semantics: a crash may truncate the log at any byte offset. On
//! open, replay accepts every whole record and stops at the first torn
//! frame (short frame, impossible length, or checksum mismatch); the torn
//! tail is physically truncated away so appends continue after the last
//! whole record.
//!
//! # Group commit — the one write path
//!
//! An append is *acknowledged* into a bounded in-memory batch: the event is
//! encoded straight into a reusable batch frame (one copy, no intermediate
//! record value) and the in-memory index is updated
//! immediately, so `fetch` sees the new version at once. The frame is
//! written as **one** record when the batch holds
//! [`ShardedConfig::max_batch_records`] events or `MAX_BATCH_BYTES` (1 MiB)
//! of body, when the owner calls [`flush`]/[`sync`]/[`reread`], or when the
//! [`ShardedLogStore`] flush interval elapses. A commit only writes; a
//! write becomes machine-durable through [`sync`] or the flusher's cadence
//! (see `sharded.rs`), and one fsync covers every batch written before it,
//! so K writers pay one fsync instead of K. An acknowledged-but-uncommitted
//! append can be lost by a crash, and because the batch frame carries a
//! single checksum it is lost *as a unit* — replay never serves a prefix of
//! a batch.
//!
//! The log holds batch frames and nothing else: the history is never
//! rewritten and no view is ever removed, so replay is "apply every event of
//! every whole frame, in file order".
//!
//! [`ShardedLogStore`]: crate::ShardedLogStore
//! [`ShardedConfig::max_batch_records`]: crate::ShardedConfig::max_batch_records
//! [`flush`]: crate::PersistentStore::flush
//! [`sync`]: crate::PersistentStore::sync
//! [`reread`]: crate::ShardedLogStore::reread

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use dynasore_types::{
    DurableRecord, Event, Result, SimTime, TraceEventKind, UserId, View, RECORD_HEADER_BYTES,
};

use crate::obs::StoreObs;
use crate::segment::{replay_segment, Segment};
use crate::ShardedConfig;

/// Encoded batch-body bytes that force a commit, whatever the record count:
/// a batch of large payloads is written out in ~megabyte frames, far below
/// the [`dynasore_types::MAX_RECORD_BYTES`] cap at which a frame could no
/// longer be replayed.
const MAX_BATCH_BYTES: usize = 1 << 20;

/// What rebuilding one shard's index from disk (on open or [`reread`])
/// measured — the numerator of real recovery bandwidth.
///
/// [`reread`]: crate::ShardedLogStore::reread
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Bytes read and validated (the magic header plus whole records): the
    /// valid length of the log, to which a reopen truncates it.
    pub bytes_replayed: u64,
    /// Records applied to the index.
    pub records_replayed: u64,
    /// Trailing bytes discarded as a torn tail (nonzero only after a crash
    /// mid-append).
    pub torn_bytes: u64,
}

/// The state of one shard's log. The owning store guards each shard with a
/// mutex and reads the public-to-the-crate fields under it.
#[derive(Debug)]
pub(crate) struct Shard {
    /// The shard's log file.
    path: PathBuf,
    config: ShardedConfig,
    /// The materialized state of the log: every live view, rebuilt by
    /// replaying the log on open. `BTreeMap` so the index iterates in a
    /// deterministic order.
    pub(crate) index: BTreeMap<UserId, View>,
    /// Logical clock for event timestamps; recovered as one past the newest
    /// replayed timestamp so post-recovery appends keep timestamps monotonic.
    clock: u64,
    /// The shard's log file, open for appending.
    pub(crate) active: Segment,
    /// What the last open or [`reread`](Shard::reread) replayed.
    pub(crate) recovery: RecoveryStats,
    /// The reusable commit frame: an open batch frame holding every
    /// acknowledged-but-uncommitted append. Empty whenever
    /// `pending_records` is 0; its capacity is retained across commits so
    /// the steady state allocates nothing.
    pending: Vec<u8>,
    /// Events acknowledged into `pending` and not yet committed.
    pub(crate) pending_records: u32,
    /// Events appended by this process (replayed history is not counted).
    pub(crate) writes: u64,
    /// Fetches served.
    pub(crate) reads: u64,
    /// Optional flight-recorder observer. `None` keeps every write path
    /// exactly the unobserved code; when set, batch commits emit
    /// structured trace events.
    obs: Option<StoreObs>,
}

/// Replays the log file at `path` into a fresh index. Returns the index,
/// the recovered clock and what the replay measured. A missing file is an
/// empty log. Reads only: nothing is locked, repaired or created.
pub(crate) fn replay_log(path: &Path) -> Result<(BTreeMap<UserId, View>, u64, RecoveryStats)> {
    let mut index = BTreeMap::new();
    let mut clock = 0u64;
    let stats = replay_segment(path, |events| {
        for event in events {
            clock = clock.max(event.timestamp().as_secs() + 1);
            index
                .entry(event.author())
                .or_insert_with(|| View::new(event.author()))
                .push(event);
        }
    })?;
    Ok((index, clock, stats))
}

impl Shard {
    /// Opens the log file at `path`, in a directory the caller owns,
    /// creating it if it is missing and otherwise rebuilding the in-memory
    /// index by replaying it from disk. A torn tail — the signature of a
    /// crash mid-append — is truncated away; `recovery` reports how many
    /// bytes were replayed and how many were discarded.
    ///
    /// # Errors
    ///
    /// I/O errors and [`CorruptRecord`](dynasore_types::Error::CorruptRecord)
    /// for damage a crash cannot produce (checksummed-but-malformed records,
    /// a file that is not a shard log).
    pub(crate) fn open(
        path: PathBuf,
        config: ShardedConfig,
        obs: Option<StoreObs>,
    ) -> Result<Self> {
        let (index, clock, recovery) = replay_log(&path)?;
        let active = if path.exists() {
            Segment::reopen(&path, recovery.bytes_replayed)?
        } else {
            Segment::create(&path)?
        };
        Ok(Shard {
            path,
            config,
            index,
            clock,
            active,
            recovery,
            pending: Vec::new(),
            pending_records: 0,
            writes: 0,
            reads: 0,
            obs,
        })
    }

    /// Writes the pending batch — if any — as one batch frame into the
    /// log file, without fsyncing it. The frame buffer keeps its
    /// capacity for the next batch.
    pub(crate) fn commit_pending(&mut self) -> Result<()> {
        if self.pending_records == 0 {
            return Ok(());
        }
        DurableRecord::batch_finish(&mut self.pending, self.pending_records)?;
        self.active.append(&self.pending)?;
        let records = u64::from(self.pending_records);
        self.pending_records = 0;
        self.pending.clear();
        if let Some(obs) = &self.obs {
            // Fill ratio against the configured fill trigger.
            let fill_percent =
                ((records * 100) / u64::from(self.config.max_batch_records)).min(100) as u8;
            obs.trace(TraceEventKind::GroupCommitFill {
                records,
                fill_percent,
            });
        }
        Ok(())
    }

    /// Appends an event with `payload` to `user`'s view and returns what
    /// `ack` reads off the updated view — the body every write path
    /// shares. The event is *acknowledged* into the pending batch frame —
    /// immediately visible in the index, durable at the next commit — and
    /// the frame is committed once it is full. The payload is encoded
    /// directly from a borrow — exactly one copy, into the frame buffer —
    /// and then *moved* into the in-memory index, so the durable write path
    /// never duplicates the caller's bytes.
    ///
    /// # Errors
    ///
    /// I/O errors from a commit the append forces, and
    /// [`InvalidConfig`](dynasore_types::Error::InvalidConfig) for a payload
    /// over the frame cap.
    pub(crate) fn append_with<T>(
        &mut self,
        user: UserId,
        payload: Vec<u8>,
        ack: impl FnOnce(&View) -> T,
    ) -> Result<T> {
        let timestamp = SimTime::from_secs(self.clock);
        self.clock += 1;
        if self.pending_records == 0 {
            DurableRecord::batch_begin(&mut self.pending);
        }
        if let Err(first) = DurableRecord::batch_push(&mut self.pending, user, timestamp, &payload)
        {
            // The open batch has no room left for this entry: commit it
            // and retry in a fresh frame. A second failure means the
            // entry alone can never fit and is rejected like any
            // oversized record — with the frame (and index) untouched.
            if self.pending_records == 0 {
                return Err(first);
            }
            self.commit_pending()?;
            DurableRecord::batch_begin(&mut self.pending);
            DurableRecord::batch_push(&mut self.pending, user, timestamp, &payload)?;
        }
        self.pending_records += 1;
        let view = self.index.entry(user).or_insert_with(|| View::new(user));
        view.push(Event::new(user, timestamp, payload));
        let acked = ack(view);
        if self.pending_records >= self.config.max_batch_records
            || self.pending.len() - RECORD_HEADER_BYTES >= MAX_BATCH_BYTES
        {
            self.commit_pending()?;
        }
        self.writes += 1;
        Ok(acked)
    }

    /// Commits the pending batch and pushes buffered appends to the
    /// operating system (they now survive a process crash, but not a
    /// machine crash).
    ///
    /// # Errors
    ///
    /// I/O errors from the commit or flush.
    pub(crate) fn flush(&mut self) -> Result<()> {
        self.commit_pending()?;
        self.active.flush()
    }

    /// Commits the pending batch, flushes and fsyncs the log file:
    /// everything *acknowledged* so far survives a machine crash.
    ///
    /// # Errors
    ///
    /// I/O errors from the commit, flush or fsync.
    pub(crate) fn sync(&mut self) -> Result<()> {
        self.commit_pending()?;
        self.active.sync()
    }

    /// Re-reads the entire log from disk — exactly what crash recovery does
    /// — replacing the in-memory index with the replayed one, and returns
    /// what the replay measured.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Shard::open`].
    pub(crate) fn reread(&mut self) -> Result<RecoveryStats> {
        self.sync()?;
        let (index, clock, stats) = replay_log(&self.path)?;
        self.index = index;
        self.clock = self.clock.max(clock);
        self.recovery = stats;
        Ok(stats)
    }

    /// Logical size of the log on disk, including appends still buffered
    /// in memory, which have a reserved place in the file. Appends
    /// acknowledged into the pending batch are *not* counted until the
    /// batch commits — they have no reserved place yet.
    pub(crate) fn bytes_on_disk(&self) -> u64 {
        self.active.len()
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        // Best-effort teardown: commit the pending batch and push buffered
        // appends to the OS (the durability guarantee still belongs to
        // sync()).
        let _ = self.commit_pending();
        let _ = self.active.flush();
    }
}

#[cfg(test)]
mod tests {
    //! The shard's log mechanics — group commit, replay, the
    //! directory lock — driven through a one-shard [`ShardedLogStore`]
    //! without the background flusher.

    use super::*;
    use crate::segment::SEGMENT_MAGIC;
    use crate::{PersistentStore, ShardedLogStore};
    use dynasore_types::{Error, MAX_RECORD_BYTES};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dynasore-log-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// One shard, nothing committing behind the test's back.
    fn one_shard() -> ShardedConfig {
        ShardedConfig {
            shards: 1,
            flush_interval: None,
            ..ShardedConfig::default()
        }
    }

    fn batches_of(max_batch_records: u32) -> ShardedConfig {
        ShardedConfig {
            max_batch_records,
            ..one_shard()
        }
    }

    #[test]
    fn append_fetch_round_trips_and_survives_reopen() {
        let dir = temp_dir("reopen");
        let store = ShardedLogStore::open(&dir, one_shard()).unwrap();
        let u = UserId::new(3);
        assert!(store.fetch(u).unwrap().is_empty());
        let v1 = store.append(u, b"a".to_vec()).unwrap();
        let v2 = store.append(u, b"b".to_vec()).unwrap();
        assert_eq!(v1.len(), 1);
        assert_eq!(v2.len(), 2);
        assert!(v2.version() > v1.version());
        assert_eq!(store.write_count(), 2);
        store.sync().unwrap();
        drop(store);

        let reopened = ShardedLogStore::open(&dir, one_shard()).unwrap();
        let fetched = reopened.fetch(u).unwrap();
        assert_eq!(
            fetched, v2,
            "recovered view must be identical, version included"
        );
        let stats = reopened.recovery_stats().total;
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
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reread_reads_real_bytes() {
        let dir = temp_dir("reread");
        let store = ShardedLogStore::open(&dir, one_shard()).unwrap();
        for i in 0..50u32 {
            store.append(UserId::new(i % 7), vec![i as u8; 64]).unwrap();
        }
        let stats = store.reread().unwrap().total;
        assert_eq!(
            stats.records_replayed, 1,
            "reread commits the 50 pending appends as one batch frame"
        );
        assert_eq!(stats.bytes_replayed, store.bytes_on_disk());
        assert_eq!(store.fetch(UserId::new(0)).unwrap().len(), 8);
        assert_eq!(store.user_count(), 7);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsynced_buffered_appends_can_be_lost_but_synced_ones_cannot() {
        // This pins the durability contract the Cluster::shutdown fix relies
        // on: a (non-destructive) reader of the same directory sees only
        // what was flushed.
        let dir = temp_dir("durability");
        let store = ShardedLogStore::open(&dir, one_shard()).unwrap();
        let u = UserId::new(0);
        store.append(u, b"buffered".to_vec()).unwrap();
        let (index, _) = ShardedLogStore::read_back(&dir).unwrap();
        assert!(
            !index.contains_key(&u),
            "buffered appends must not be visible on disk yet"
        );
        store.sync().unwrap();
        let (index, stats) = ShardedLogStore::read_back(&dir).unwrap();
        assert_eq!(index.get(&u).unwrap().len(), 1);
        assert_eq!(stats.total.records_replayed, 1);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn directory_ownership_is_exclusive_and_crash_locks_are_broken() {
        let dir = temp_dir("lock");
        let store = ShardedLogStore::open(&dir, one_shard()).unwrap();
        // One LOCK, at the root.
        assert!(dir.join("LOCK").exists());
        // A second live owner is refused: its repairs would corrupt ours.
        let second = ShardedLogStore::open(&dir, one_shard());
        assert!(matches!(second, Err(Error::InvalidConfig(_))), "{second:?}");
        // read_back stays available for inspection.
        assert!(ShardedLogStore::read_back(&dir).is_ok());
        drop(store);
        // Dropping released the lock.
        assert!(!dir.join("LOCK").exists());
        let reopened = ShardedLogStore::open(&dir, one_shard()).unwrap();
        drop(reopened);
        // A stale lock from a crashed (dead-pid) owner is broken on open.
        std::fs::write(dir.join("LOCK"), "999999999").unwrap();
        let recovered = ShardedLogStore::open(&dir, one_shard());
        assert!(recovered.is_ok(), "{recovered:?}");
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_acknowledges_immediately_and_commits_on_fill() {
        let dir = temp_dir("group-fill");
        let store = ShardedLogStore::open(&dir, batches_of(8)).unwrap();
        let u = UserId::new(1);
        for i in 0..11u32 {
            let version = store.append_version(u, vec![i as u8; 10]).unwrap();
            assert_eq!(version, u64::from(i) + 1, "acks are immediate");
        }
        // 8 appends filled one batch (committed, and holding its place in
        // the segment); 3 are pending.
        assert_eq!(store.pending_records(), 3);
        assert!(store.bytes_on_disk() > SEGMENT_MAGIC.len() as u64);
        assert_eq!(
            store.fetch(u).unwrap().len(),
            11,
            "fetch sees acknowledged appends"
        );
        // sync commits the stragglers as a second frame; a reopen replays
        // all 11 with the version counter intact.
        store.sync().unwrap();
        assert_eq!(store.pending_records(), 0);
        let (index, stats) = ShardedLogStore::read_back(&dir).unwrap();
        assert_eq!(index.get(&u).unwrap().len(), 11);
        assert_eq!(
            stats.total.records_replayed, 2,
            "the filled batch, then the stragglers"
        );
        drop(store);
        let reopened = ShardedLogStore::open(&dir, batches_of(8)).unwrap();
        let view = reopened.fetch(u).unwrap();
        assert_eq!(view.len(), 11);
        assert_eq!(view.version(), 11);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_batches_span_users() {
        let dir = temp_dir("group-mixed");
        let store = ShardedLogStore::open(&dir, batches_of(64)).unwrap();
        for i in 0..10u32 {
            store
                .append_version(UserId::new(i % 3), vec![i as u8; 6])
                .unwrap();
        }
        store.sync().unwrap();
        drop(store);
        // One frame carries the appends of all three users, each replayed
        // into its own view in acknowledgement order.
        let reopened = ShardedLogStore::open(&dir, batches_of(64)).unwrap();
        assert_eq!(reopened.recovery_stats().total.records_replayed, 1);
        let v0 = reopened.fetch(UserId::new(0)).unwrap();
        let payloads: Vec<u8> = v0.iter().map(|e| e.payload()[0]).collect();
        assert_eq!(payloads, [0, 3, 6, 9]);
        assert_eq!(reopened.fetch(UserId::new(1)).unwrap().len(), 3);
        assert_eq!(reopened.fetch(UserId::new(2)).unwrap().len(), 3);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_config_is_validated() {
        let dir = temp_dir("group-validate");
        let zero = ShardedLogStore::open(&dir, batches_of(0));
        assert!(matches!(zero, Err(Error::InvalidConfig(_))), "{zero:?}");
        // A rejected config must not leave a stray LOCK behind.
        let ok = ShardedLogStore::open(&dir, batches_of(4));
        assert!(ok.is_ok(), "{ok:?}");
        drop(ok);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_batch_of_one_plus_sync_is_on_disk() {
        // Fsync-per-append as a batch of one: every append commits its own
        // frame, and the sync after it makes the frame durable — a reader
        // of the directory sees each record as soon as its sync returns.
        let dir = temp_dir("batch-of-one");
        let store = ShardedLogStore::open(&dir, batches_of(1)).unwrap();
        let u = UserId::new(4);
        for i in 0..5u8 {
            let version = store.append_version(u, vec![i; 12]).unwrap();
            assert_eq!(store.pending_records(), 0, "nothing waits for a commit");
            store.sync().unwrap();
            let (index, stats) = ShardedLogStore::read_back(&dir).unwrap();
            let on_disk = index.get(&u).expect("the record just synced");
            assert_eq!(on_disk.version(), version);
            assert_eq!(on_disk.latest().unwrap().payload(), &[i; 12]);
            assert_eq!(
                stats.total.records_replayed,
                u64::from(i) + 1,
                "one frame each"
            );
            assert_eq!(stats.total.torn_bytes, 0);
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
        let store = ShardedLogStore::open(&dir, one_shard()).unwrap();
        let u = UserId::new(7);
        let entry = 300 << 10;
        assert!(3 * entry < MAX_BATCH_BYTES && 4 * entry >= MAX_BATCH_BYTES);
        for i in 0..9u32 {
            store.append_version(u, vec![i as u8; entry]).unwrap();
            assert_eq!(store.pending_records(), u64::from((i + 1) % 4));
        }
        store.sync().unwrap();
        let (index, stats) = ShardedLogStore::read_back(&dir).unwrap();
        assert_eq!(index.get(&u).unwrap().len(), 9);
        assert_eq!(
            stats.total.records_replayed, 3,
            "nine appends against the 1 MiB budget must commit as 4+4+1: {stats:?}"
        );
        drop(store);

        // The hard frame cap: an entry that cannot share the open batch
        // commits it and retries in a fresh frame, losing nothing. The
        // first entry stays below the byte budget, so only the cap can
        // intervene when the second — just under the cap itself — arrives.
        let dir2 = temp_dir("group-cap-retry");
        let store = ShardedLogStore::open(&dir2, batches_of(1024)).unwrap();
        store.append_version(u, vec![1u8; entry]).unwrap();
        assert_eq!(store.pending_records(), 1, "first entry stays pending");
        let near_cap = MAX_RECORD_BYTES - 64;
        store.append_version(u, vec![2u8; near_cap]).unwrap();
        assert_eq!(
            store.pending_records(),
            0,
            "the retried entry crossed the byte budget on its own"
        );
        store.flush().unwrap();
        let (index, stats) = ShardedLogStore::read_back(&dir2).unwrap();
        let view = index.get(&u).unwrap();
        assert_eq!(view.len(), 2);
        assert_eq!(view.latest().unwrap().payload().len(), near_cap);
        assert_eq!(
            stats.total.records_replayed, 2,
            "one batch frame each: {stats:?}"
        );
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn oversized_payloads_are_rejected_without_touching_the_log() {
        let dir = temp_dir("oversized");
        let store = ShardedLogStore::open(&dir, one_shard()).unwrap();
        let u = UserId::new(1);
        store.append(u, b"small".to_vec()).unwrap();
        let err = store.append(u, vec![0u8; dynasore_types::MAX_RECORD_BYTES + 1]);
        assert!(matches!(err, Err(Error::InvalidConfig(_))), "{err:?}");
        // The rejected record left no bytes behind and the store still works.
        store.sync().unwrap();
        let (index, stats) = ShardedLogStore::read_back(&dir).unwrap();
        assert_eq!(stats.total.torn_bytes, 0);
        assert_eq!(index.get(&u).unwrap().len(), 1);
        store.append(u, b"after".to_vec()).unwrap();
        assert_eq!(store.fetch(u).unwrap().len(), 2);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
