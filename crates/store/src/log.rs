//! One shard of the file-backed durable tier: a log in one file.
//!
//! A [`Shard`] is plain state — no lock, no fsync and no say over its
//! directory: a [`ShardedLogStore`] keeps one per shard behind one mutex
//! each, owns the root and its `LOCK`, and fsyncs a shard's file outside
//! that mutex, reporting the outcome back through `Shard::synced` (see
//! `sharded.rs`). Every write is a checksummed batch frame (see
//! `segment.rs`) in the shard's one file, `<root>/shard-NNNN.log`, and an
//! in-memory index of *positions* is rebuilt by replaying the log from disk
//! on open: for each user, the view's version (every event ever appended)
//! and where its newest [`VIEW_CAPACITY`] entries lie in the file. The
//! index holds no event and no payload. A view is read back from the log
//! when it is asked for, the way a log-structured store with an in-memory
//! directory of offsets reads a value (Bitcask): an entry still in the
//! pending batch is decoded from the batch's buffer, a committed one by a
//! positioned read of the file, and a run of adjacent entries — a user's
//! events appended back to back — by one read.
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
//! record value) and its position is recorded before the append returns
//! `Ok`, so `fetch` sees the new version at once. The frame is written as
//! **one** record when the batch holds `MAX_BATCH_RECORDS` (4096) events or
//! `MAX_BATCH_BYTES` (1 MiB) of body, when the owner calls
//! [`flush`]/[`sync`], or at the [`ShardedLogStore`] flusher's next wake. A
//! write therefore has three states: *acknowledged* (in the batch), *on the
//! OS* (its frame committed by one positioned write, so it survives a
//! process crash) and *synced* (machine-durable, through [`sync`] or the
//! flusher). One fsync covers every batch written before it, so K writers
//! pay one fsync instead of K. An acknowledged-but-uncommitted append can be
//! lost by a crash, and because the batch frame carries a single checksum it
//! is lost *as a unit* — replay never serves a prefix of a batch.
//!
//! Fail-stop: the shard keeps its first I/O error, from a commit or an
//! fsync, and from then on every append, commit and sync returns it until
//! the store is reopened, whose replay repairs the file from what is on
//! disk. A write or fsync that failed once is never retried into an `Ok`:
//! the kernel may already have dropped the pages it could not write, and it
//! reports that only once. A position is recorded only once every commit
//! its append forced has succeeded, so no read serves a failed append.
//!
//! The log holds batch frames and nothing else: the history is never
//! rewritten and no view is ever removed, so replay is "apply every event of
//! every whole frame, in file order".
//!
//! [`ShardedLogStore`]: crate::ShardedLogStore
//! [`flush`]: crate::PersistentStore::flush
//! [`sync`]: crate::PersistentStore::sync

use std::collections::BTreeMap;
use std::path::Path;

use dynasore_types::{Error, Result, SimTime, TraceEventKind, UserId, View, VIEW_CAPACITY};

use crate::obs::StoreObs;
use crate::segment::{decode_entry, entry_len, replay_segment, Batch, Segment};

/// Acknowledged appends that force a shard to commit once its pending
/// batch holds this many.
pub(crate) const MAX_BATCH_RECORDS: u32 = 4096;

/// Encoded batch-body bytes that force a commit, whatever the record count:
/// a batch of large payloads is written out in ~megabyte frames, far below
/// the cap at which a frame could no longer be replayed.
pub(crate) const MAX_BATCH_BYTES: usize = 1 << 20;

/// What rebuilding one shard's index from disk (on open or
/// [`read_back`](crate::ShardedLogStore::read_back)) measured — the
/// numerator of real recovery bandwidth.
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

/// Where one entry lies in the shard's log file.
#[derive(Debug, Clone, Copy)]
struct Position {
    offset: u64,
    payload_len: u32,
}

/// One user's view as the log holds it: its version and where its newest
/// [`VIEW_CAPACITY`] entries lie, oldest first.
#[derive(Debug, Default)]
pub(crate) struct Positions {
    version: u64,
    entries: Vec<Position>,
}

impl Positions {
    /// Records one more event, forgetting the oldest once the view is full.
    fn push(&mut self, position: Position) {
        if self.entries.len() == VIEW_CAPACITY {
            self.entries.remove(0);
        }
        self.entries.push(position);
        self.version += 1;
    }
}

/// The state of one shard's log. The owning store guards each shard with a
/// mutex and reads the public-to-the-crate fields under it.
#[derive(Debug)]
pub(crate) struct Shard {
    /// Where every user's view lies in the log, rebuilt by replaying it on
    /// open. `BTreeMap` so the index iterates in a deterministic order.
    pub(crate) positions: BTreeMap<UserId, Positions>,
    /// Logical clock for event timestamps; recovered as one past the newest
    /// replayed timestamp so post-recovery appends keep timestamps monotonic.
    clock: u64,
    /// The shard's log file, open for appending.
    pub(crate) active: Segment,
    /// Bytes of the file the last successful fsync covered, from the length
    /// the open replayed (or the magic header of a new file). The one
    /// record of what is durable, advanced only by the store's one fsync
    /// routine (`sync_shard` in `sharded.rs`), whether an explicit sync or
    /// the flusher ran it.
    pub(crate) synced_len: u64,
    /// The shard's first I/O error, from a commit or an fsync. From then on
    /// every append, commit and sync returns it, until the store is
    /// reopened (fail-stop).
    failed: Option<Error>,
    /// What the open replayed.
    pub(crate) recovery: RecoveryStats,
    /// The reusable commit frame: every acknowledged-but-uncommitted
    /// append.
    pub(crate) pending: Batch,
    /// Events appended by this process (replayed history is not counted).
    pub(crate) writes: u64,
    /// Fetches served.
    pub(crate) reads: u64,
    /// Optional flight-recorder observer. `None` keeps every write path
    /// exactly the unobserved code; when set, batch commits emit
    /// structured trace events.
    obs: Option<StoreObs>,
}

/// Replays the log file at `path` into full views, as
/// [`read_back`](crate::ShardedLogStore::read_back) returns them, with what
/// the replay measured. A missing file is an empty log. Reads only:
/// nothing is locked, repaired or created.
pub(crate) fn replay_log(path: &Path) -> Result<(BTreeMap<UserId, View>, RecoveryStats)> {
    let mut views = BTreeMap::new();
    let stats = replay_segment(path, |entry| {
        views
            .entry(entry.user)
            .or_insert_with(|| View::new(entry.user))
            .push(entry.to_event());
    })?;
    Ok((views, stats))
}

impl Shard {
    /// Opens the log file at `path`, in a directory the caller owns,
    /// creating it if it is missing and otherwise rebuilding the in-memory
    /// index of positions by replaying it from disk. A torn tail — the
    /// signature of a crash mid-append — is truncated away; `recovery`
    /// reports how many bytes were replayed and how many were discarded.
    ///
    /// # Errors
    ///
    /// I/O errors and [`CorruptRecord`](dynasore_types::Error::CorruptRecord)
    /// for damage a crash cannot produce (checksummed-but-malformed records,
    /// a file that is not a shard log).
    pub(crate) fn open(path: &Path, obs: Option<StoreObs>) -> Result<Self> {
        let mut positions = BTreeMap::<UserId, Positions>::new();
        let mut clock = 0u64;
        let recovery = replay_segment(path, |entry| {
            clock = clock.max(entry.timestamp.as_secs() + 1);
            positions.entry(entry.user).or_default().push(Position {
                offset: entry.offset,
                payload_len: entry.payload.len() as u32,
            });
        })?;
        let active = Segment::open(path, recovery.bytes_replayed)?;
        Ok(Shard {
            positions,
            clock,
            synced_len: active.len(),
            failed: None,
            active,
            recovery,
            pending: Batch::default(),
            writes: 0,
            reads: 0,
            obs,
        })
    }

    /// Writes the pending batch — if any — as one batch frame into the
    /// log file, without fsyncing it: on success the frame is on the OS and
    /// survives a process crash. A failed write fail-stops the shard. The
    /// frame buffer keeps its capacity for the next batch.
    pub(crate) fn commit_pending(&mut self) -> Result<()> {
        self.healthy()?;
        let records = u64::from(self.pending.records());
        if records == 0 {
            return Ok(());
        }
        let written = self.active.append(self.pending.seal()?);
        self.fail_stop(written)?;
        self.pending.clear();
        if let Some(obs) = &self.obs {
            // Fill ratio against the fill trigger.
            let fill_percent = ((records * 100) / u64::from(MAX_BATCH_RECORDS)).min(100) as u8;
            obs.trace(TraceEventKind::GroupCommitFill {
                records,
                fill_percent,
            });
        }
        Ok(())
    }

    /// Appends an event with `payload` to `user`'s view and returns the
    /// view's new version. The event is *acknowledged* into the pending
    /// batch frame — its position recorded once the append returns `Ok`, on
    /// the OS at the next commit — and the frame is committed once it is
    /// full. The payload is copied exactly once, into the frame buffer, and
    /// nothing of it stays in the index.
    ///
    /// # Errors
    ///
    /// The shard's first I/O error, once it has one (see [`Shard::failed`]);
    /// I/O errors from a commit the append forces, which leave the event out
    /// of the index; and
    /// [`InvalidConfig`](dynasore_types::Error::InvalidConfig) for a payload
    /// over the frame cap.
    pub(crate) fn append(&mut self, user: UserId, payload: &[u8]) -> Result<u64> {
        self.healthy()?;
        let timestamp = SimTime::from_secs(self.clock);
        self.clock += 1;
        let at = match self.pending.push(user, timestamp, payload) {
            Ok(at) => at,
            // The open batch has no room left for this entry: commit it
            // and retry in a fresh frame. A second failure means the
            // entry alone can never fit and is rejected like any
            // oversized record — with the frame (and index) untouched.
            Err(first) if self.pending.records() == 0 => return Err(first),
            Err(_) => {
                self.commit_pending()?;
                self.pending.push(user, timestamp, payload)?
            }
        };
        // Where the pending frame will be written, whether this append
        // commits it or a later one does.
        let position = Position {
            offset: self.active.len() + at as u64,
            payload_len: payload.len() as u32,
        };
        if self.pending.records() >= MAX_BATCH_RECORDS || self.pending.body_len() >= MAX_BATCH_BYTES
        {
            self.commit_pending()?;
        }
        let positions = self.positions.entry(user).or_default();
        positions.push(position);
        self.writes += 1;
        Ok(positions.version)
    }

    /// `user`'s view, read back from the log: each run of adjacent entries
    /// in one read, from the pending batch's buffer past the committed
    /// length and from the file before it. An empty view for a user with no
    /// events.
    ///
    /// # Errors
    ///
    /// [`CorruptRecord`](dynasore_types::Error::CorruptRecord) when the
    /// bytes at a recorded position are not the entry recorded there (see
    /// `segment::decode_entry`); I/O errors from the read.
    pub(crate) fn view(&self, user: UserId) -> Result<View> {
        let Some(positions) = self.positions.get(&user) else {
            return Ok(View::new(user));
        };
        let committed = self.active.len();
        let mut events = Vec::with_capacity(positions.entries.len());
        let mut buf = Vec::new();
        let mut rest = &positions.entries[..];
        while let Some(first) = rest.first() {
            // A run: entries that follow each other byte for byte, so in one
            // frame, so wholly committed or wholly pending.
            let mut end = first.offset + entry_len(first.payload_len);
            let mut run = 1;
            while let Some(next) = rest.get(run).filter(|next| next.offset == end) {
                end += entry_len(next.payload_len);
                run += 1;
            }
            let len = (end - first.offset) as usize;
            let mut bytes = if first.offset >= committed {
                let at = (first.offset - committed) as usize;
                self.pending.bytes(at, len).ok_or_else(|| {
                    Error::CorruptRecord(format!(
                        "user {user}'s entry at offset {} is past the pending batch",
                        first.offset
                    ))
                })?
            } else {
                buf.resize(len, 0);
                self.active.read_at(&mut buf, first.offset)?;
                &buf[..]
            };
            for entry in &rest[..run] {
                let event = decode_entry(&mut bytes, entry.offset, user, entry.payload_len)?;
                events.push(event);
            }
            rest = &rest[run..];
        }
        Ok(View::with_version(user, events, positions.version))
    }

    /// Records the outcome of an fsync that covered the first `len` bytes of
    /// the file: a success advances [`synced_len`](Shard::synced_len) to
    /// `len` (the store orders its fsyncs, so outcomes arrive in order), a
    /// failure fail-stops the shard.
    pub(crate) fn synced(&mut self, len: u64, outcome: Result<()>) -> Result<()> {
        self.fail_stop(outcome)?;
        self.synced_len = len;
        Ok(())
    }

    /// `Ok` until the shard's first I/O error, then that error.
    fn healthy(&self) -> Result<()> {
        self.failed.clone().map_or(Ok(()), Err)
    }

    /// Passes `outcome` through, keeping it if it is the shard's first error.
    fn fail_stop<T>(&mut self, outcome: Result<T>) -> Result<T> {
        if let Err(e) = &outcome {
            self.failed.get_or_insert_with(|| e.clone());
        }
        outcome
    }

    /// Size of the log file: the magic header and every committed frame.
    /// Appends acknowledged into the pending batch are *not* counted until
    /// the batch commits.
    pub(crate) fn bytes_on_disk(&self) -> u64 {
        self.active.len()
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        // Best-effort teardown: commit the pending batch to the OS (the
        // durability guarantee still belongs to sync()); a failed shard
        // writes nothing more.
        let _ = self.commit_pending();
    }
}

#[cfg(test)]
mod tests {
    //! The shard's log mechanics — group commit, replay, the
    //! directory lock — driven through a one-shard [`ShardedLogStore`]
    //! without the background flusher.

    use super::*;
    use crate::segment::{MAX_RECORD_BYTES, SEGMENT_MAGIC};
    use crate::{PersistentStore, ShardedConfig, ShardedLogStore};
    use dynasore_types::Error;
    use std::path::{Path, PathBuf};

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
        store.sync().unwrap();
        let (index, stats) = ShardedLogStore::read_back(&dir).unwrap();
        assert_eq!(
            stats.total.records_replayed, 1,
            "sync commits the 50 pending appends as one batch frame"
        );
        assert_eq!(stats.total.bytes_replayed, store.bytes_on_disk());
        assert_eq!(index[&UserId::new(0)].len(), 8);
        assert_eq!(index.len(), 7);
        drop(store);
        let reopened = ShardedLogStore::open(&dir, one_shard()).unwrap();
        assert_eq!(reopened.recovery_stats(), stats);
        drop(reopened);
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
        // A LOCK file a crashed (dead-pid) owner left holds no lock.
        std::fs::write(dir.join("LOCK"), "999999999").unwrap();
        let recovered = ShardedLogStore::open(&dir, one_shard());
        assert!(recovered.is_ok(), "{recovered:?}");
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_acknowledges_immediately_and_commits_on_fill() {
        let dir = temp_dir("group-fill");
        let store = ShardedLogStore::open(&dir, one_shard()).unwrap();
        let u = UserId::new(1);
        let appends = MAX_BATCH_RECORDS + 3;
        for i in 0..appends {
            let version = store.append_version(u, vec![i as u8; 10]).unwrap();
            assert_eq!(version, u64::from(i) + 1, "acks are immediate");
        }
        // 4096 appends filled one batch (committed, and holding its place
        // in the segment); 3 are pending.
        assert_eq!(store.pending_records(), 3);
        assert!(store.bytes_on_disk() > SEGMENT_MAGIC.len() as u64);
        let view = store.fetch(u).unwrap();
        assert_eq!(view.version(), u64::from(appends), "fetch sees every ack");
        assert_eq!(view.latest().unwrap().payload(), &[(appends - 1) as u8; 10]);
        // sync commits the stragglers as a second frame; a reopen replays
        // all of them with the version counter intact.
        store.sync().unwrap();
        assert_eq!(store.pending_records(), 0);
        let (index, stats) = ShardedLogStore::read_back(&dir).unwrap();
        assert_eq!(index[&u], view);
        assert_eq!(
            stats.total.records_replayed, 2,
            "the filled batch, then the stragglers"
        );
        drop(store);
        let reopened = ShardedLogStore::open(&dir, one_shard()).unwrap();
        assert_eq!(reopened.fetch(u).unwrap(), view);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A commit is the write: the frame a full batch commits is in the file
    /// when the append that filled it returns, with no flush or sync, and
    /// the file is exactly as long as `bytes_on_disk` says.
    #[test]
    fn a_commit_reaches_the_file_when_it_commits() {
        let dir = temp_dir("commit-reaches-file");
        let store = ShardedLogStore::open(&dir, one_shard()).unwrap();
        for i in 0..MAX_BATCH_RECORDS {
            store
                .append_version(UserId::new(2), vec![i as u8; 10])
                .unwrap();
        }
        assert_eq!(store.pending_records(), 0, "the last append committed");
        let (index, stats) = ShardedLogStore::read_back(&dir).unwrap();
        assert_eq!(stats.total.records_replayed, 1);
        assert_eq!(
            index[&UserId::new(2)].version(),
            u64::from(MAX_BATCH_RECORDS)
        );
        // Magic 8 + frame header 8 + kind and count 5 + 4096 entries of 26.
        assert_eq!(store.bytes_on_disk(), 106_517);
        let file_len = std::fs::metadata(dir.join("shard-0000.log")).unwrap().len();
        assert_eq!(file_len, store.bytes_on_disk());
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Overwrites the bytes at `offset` of the one shard's log under
    /// `dir`, behind the store's back.
    fn overwrite(dir: &Path, offset: u64, bytes: &[u8]) {
        use std::os::unix::fs::FileExt;
        let log = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("shard-0000.log"));
        log.unwrap().write_all_at(bytes, offset).unwrap();
    }

    /// A fetch reads an entry from wherever it is: from the pending batch
    /// while the file does not hold it yet, and from the file once its
    /// frame is committed — without re-verifying the frame's checksum, so
    /// bytes changed behind the store's back are what it serves.
    #[test]
    fn a_fetch_reads_only_what_the_os_holds_from_the_file() {
        let dir = temp_dir("fetch-source");
        let store = ShardedLogStore::open(&dir, one_shard()).unwrap();
        let u = UserId::new(3);
        store.append(u, b"first".to_vec()).unwrap();
        store.flush().unwrap();
        let on_disk = store.bytes_on_disk();
        store.append(u, b"second".to_vec()).unwrap();
        let view = store.fetch(u).unwrap();
        assert_eq!(view.latest().unwrap().payload(), b"second");
        assert_eq!(view.version(), 2);
        assert_eq!(
            store.bytes_on_disk(),
            on_disk,
            "the fetch committed nothing"
        );
        let file_len = std::fs::metadata(dir.join("shard-0000.log")).unwrap().len();
        assert_eq!(file_len, on_disk, "the second entry is only in the batch");

        store.flush().unwrap();
        assert_eq!(store.fetch(u).unwrap(), view);
        // The committed payload is the file's last six bytes.
        overwrite(&dir, store.bytes_on_disk() - 6, b"SECOND");
        let reread = store.fetch(u).unwrap();
        assert_eq!(reread.latest().unwrap().payload(), b"SECOND");
        assert_eq!(reread.iter().next().unwrap().payload(), b"first");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The bytes at a recorded position must be the entry recorded there:
    /// an entry whose user id does not match is corruption, not someone
    /// else's event served as this user's.
    #[test]
    fn an_entry_of_another_user_is_corrupt_not_a_wrong_view() {
        let dir = temp_dir("fetch-corrupt");
        let store = ShardedLogStore::open(&dir, one_shard()).unwrap();
        let u = UserId::new(3);
        store.append(u, b"mine".to_vec()).unwrap();
        store.flush().unwrap();
        // Magic 8, frame header 8, kind and count 5: the entry's user id.
        overwrite(&dir, 21, &4u32.to_le_bytes());
        let fetched = store.fetch(u);
        assert!(
            matches!(fetched, Err(Error::CorruptRecord(_))),
            "{fetched:?}"
        );
        let appended = store.append(u, b"more".to_vec());
        assert!(
            matches!(appended, Err(Error::CorruptRecord(_))),
            "{appended:?}"
        );
        assert!(store.fetch(UserId::new(4)).unwrap().is_empty());
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_batches_span_users() {
        let dir = temp_dir("group-mixed");
        let store = ShardedLogStore::open(&dir, one_shard()).unwrap();
        for i in 0..10u32 {
            store
                .append_version(UserId::new(i % 3), vec![i as u8; 6])
                .unwrap();
        }
        store.sync().unwrap();
        drop(store);
        // One frame carries the appends of all three users, each replayed
        // into its own view in acknowledgement order.
        let reopened = ShardedLogStore::open(&dir, one_shard()).unwrap();
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
    fn a_batch_of_one_plus_sync_is_on_disk() {
        // Fsync-per-append as a batch of one: the sync after every append
        // commits it as its own frame and makes the frame durable — a
        // reader of the directory sees each record as soon as its sync
        // returns.
        let dir = temp_dir("batch-of-one");
        let store = ShardedLogStore::open(&dir, one_shard()).unwrap();
        let u = UserId::new(4);
        for i in 0..5u8 {
            let version = store.append_version(u, vec![i; 12]).unwrap();
            assert_eq!(store.pending_records(), 1, "the append waits for a commit");
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
        let store = ShardedLogStore::open(&dir2, one_shard()).unwrap();
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
        let err = store.append(u, vec![0u8; MAX_RECORD_BYTES + 1]);
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
