//! Crash-recovery and compaction properties of the file-backed persistent
//! tier.
//!
//! The central guarantee: for *any* sequence of writes/overwrites/deletes
//! and *any* byte offset a crash truncates the log at, reopening recovers
//! exactly the acknowledged prefix — every record wholly below the cut, and
//! nothing of the torn tail, which the checksummed framing detects and never
//! serves.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use dynasore::store::{LogConfig, LogStructuredStore, ShardedConfig, ShardedLogStore};
use dynasore::types::{Error, UserId};
use proptest::prelude::*;

/// A fresh directory per test case, unique across parallel tests and
/// proptest cases.
fn unique_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "dynasore-persistent-log-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One segment only, so a global byte offset addresses the whole log.
/// Nothing fsyncs behind the test's back and the fill trigger is far above
/// any op count here: a frame ends exactly where the test flushes.
fn single_segment() -> LogConfig {
    LogConfig {
        segment_max_bytes: u64::MAX,
        ..LogConfig::default()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Append(u32, Vec<u8>),
    Delete(u32),
}

/// Applies one op to the reference model (user → payload list; a view's
/// version equals the list length because capacity is never hit here).
fn apply_to_model(model: &mut BTreeMap<u32, Vec<Vec<u8>>>, op: &Op) {
    match op {
        Op::Append(user, payload) => model.entry(*user).or_default().push(payload.clone()),
        Op::Delete(user) => {
            model.remove(user);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random write/overwrite/delete sequences, crash (truncate) at an
    /// arbitrary byte offset, reopen: the recovered index equals the model
    /// map of the acknowledged prefix — the torn tail record is detected by
    /// the checksum and never served.
    #[test]
    fn crash_at_any_offset_recovers_exactly_the_acknowledged_prefix(
        raw_ops in proptest::collection::vec((0u32..100, 0u32..8), 1..120),
        cut_permille in 0u64..1_001,
    ) {
        let dir = unique_dir("crash");
        let store = LogStructuredStore::open(&dir, single_segment()).unwrap();

        // Drive the store, remembering each op and the log length (= the
        // record boundary) after it. Flushing after every op commits it as
        // a frame of its own and makes the logical length physical, so
        // truncation offsets are meaningful.
        let mut ops: Vec<(Op, u64)> = Vec::new();
        for (i, &(selector, user)) in raw_ops.iter().enumerate() {
            let u = UserId::new(user);
            let op = if selector < 75 {
                let payload = vec![(i as u8) ^ (user as u8); (selector as usize % 24) + 1];
                store.append(u, payload.clone()).unwrap();
                Op::Append(user, payload)
            } else {
                store.delete(u).unwrap();
                Op::Delete(user)
            };
            store.flush().unwrap();
            ops.push((op, store.bytes_on_disk()));
        }
        let total = store.bytes_on_disk();
        drop(store);

        // Crash: truncate the single segment at an arbitrary byte offset.
        let segment = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "log"))
            .expect("segment file");
        prop_assert_eq!(std::fs::metadata(&segment).unwrap().len(), total);
        let cut = total * cut_permille / 1_000;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&segment)
            .unwrap()
            .set_len(cut)
            .unwrap();

        // Reopen and compare against the model of the acknowledged prefix:
        // exactly the ops whose record ends at or before the cut.
        let recovered = LogStructuredStore::open(&dir, single_segment()).unwrap();
        let mut model: BTreeMap<u32, Vec<Vec<u8>>> = BTreeMap::new();
        let mut last_boundary = 0u64;
        for (op, boundary) in &ops {
            if *boundary <= cut {
                apply_to_model(&mut model, op);
                last_boundary = *boundary;
            }
        }
        for user in 0u32..8 {
            let view = recovered.fetch(UserId::new(user));
            match model.get(&user) {
                None => prop_assert!(
                    view.is_empty(),
                    "user {user} must be empty after cut {cut}/{total}"
                ),
                Some(payloads) => {
                    let got: Vec<&[u8]> = view.iter().map(|e| e.payload()).collect();
                    let want: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
                    prop_assert_eq!(got, want, "user {} after cut {}/{}", user, cut, total);
                    prop_assert_eq!(view.version(), payloads.len() as u64);
                }
            }
        }
        prop_assert_eq!(recovered.user_count(), model.len());

        // The replay accounting agrees byte for byte: everything up to the
        // last whole record was replayed, the rest was a detected torn tail.
        // (A cut inside the 8-byte segment magic leaves nothing replayable.)
        let stats = recovered.recovery_stats();
        let (expected_replayed, expected_torn) = if cut < 8 {
            (0, cut)
        } else {
            let replayed = last_boundary.max(8);
            (replayed, cut - replayed)
        };
        prop_assert_eq!(stats.bytes_replayed, expected_replayed);
        prop_assert_eq!(stats.torn_bytes, expected_torn);

        // The repaired log accepts new appends and reads them back.
        let u = UserId::new(0);
        let before = recovered.fetch(u).len();
        recovered.append(u, b"post-crash".to_vec()).unwrap();
        let after = recovered.fetch(u);
        prop_assert_eq!(after.len(), before + 1);
        prop_assert_eq!(after.latest().unwrap().payload(), b"post-crash");

        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// One huge segment per shard, no wall-clock flusher — every on-disk
/// boundary is driven (and recorded) by the test itself.
fn sharded_single_segment(shards: usize) -> ShardedConfig {
    ShardedConfig {
        shards,
        flush_interval: None,
        log: single_segment(),
    }
}

/// The single `.log` segment file of shard `i` under a sharded root.
fn shard_segment(dir: &std::path::Path, i: usize) -> PathBuf {
    std::fs::read_dir(dir.join(format!("shard-{i:04}")))
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "log"))
        .expect("shard segment file")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The sharded analogue of the crash proptest above, with group commit
    /// in play: random writes/deletes fan out over 4 shards, each shard's
    /// log is independently truncated at an arbitrary byte offset (four
    /// independent crashes of one machine), and the reopened store must
    /// equal the union of each shard's *acknowledged-and-committed* prefix.
    /// Ops are grouped into batch frames (one frame per flush), so the
    /// model is unit-at-a-time: a cut inside a frame loses that whole
    /// frame's ops — group commit's all-or-nothing promise — and never any
    /// earlier frame.
    #[test]
    fn sharded_crash_recovers_each_shards_committed_prefix(
        raw_ops in proptest::collection::vec((0u32..100, 0u32..16), 1..100),
        cut_permille in proptest::collection::vec(0u64..1_001, 4..5),
    ) {
        const SHARDS: usize = 4;
        let dir = unique_dir("sharded-crash");
        let store = ShardedLogStore::open(&dir, sharded_single_segment(SHARDS)).unwrap();

        // Per shard: completed units (ops + the frame boundary that made
        // them durable-on-truncation-safe) and the group still open.
        let mut units: Vec<Vec<(Vec<Op>, u64)>> = vec![Vec::new(); SHARDS];
        let mut open: Vec<Vec<Op>> = vec![Vec::new(); SHARDS];
        let close = |store: &ShardedLogStore, s: usize, open: &mut Vec<Vec<Op>>,
                         units: &mut Vec<Vec<(Vec<Op>, u64)>>| {
            store.shard(s).flush().unwrap();
            let group = std::mem::take(&mut open[s]);
            if !group.is_empty() {
                units[s].push((group, store.shard(s).bytes_on_disk()));
            }
        };
        for (i, &(selector, user)) in raw_ops.iter().enumerate() {
            let u = UserId::new(user);
            let s = store.shard_index_of(u);
            if selector < 75 {
                let payload = vec![(i as u8) ^ (user as u8); (selector as usize % 24) + 1];
                store.append_version(u, payload.clone()).unwrap();
                open[s].push(Op::Append(user, payload));
                // Close the frame now and then so frames carry 1..n ops.
                if selector % 5 == 0 {
                    close(&store, s, &mut open, &mut units);
                }
            } else {
                // A delete commits the open batch before its tombstone, so
                // give the batch its own unit first: the tombstone must be
                // able to tear off alone, leaving the appends applied.
                close(&store, s, &mut open, &mut units);
                store.delete(u).unwrap();
                open[s].push(Op::Delete(user));
                close(&store, s, &mut open, &mut units);
            }
        }
        for s in 0..SHARDS {
            close(&store, s, &mut open, &mut units);
        }
        let totals: Vec<u64> = (0..SHARDS).map(|s| store.shard(s).bytes_on_disk()).collect();
        drop(store);

        // Four independent crashes: truncate every shard's segment.
        let mut cuts = Vec::with_capacity(SHARDS);
        for s in 0..SHARDS {
            let segment = shard_segment(&dir, s);
            prop_assert_eq!(std::fs::metadata(&segment).unwrap().len(), totals[s]);
            let cut = totals[s] * cut_permille[s] / 1_000;
            std::fs::OpenOptions::new()
                .write(true)
                .open(&segment)
                .unwrap()
                .set_len(cut)
                .unwrap();
            cuts.push(cut);
        }

        // Model: per shard, exactly the units whose frame ends at or below
        // the cut — all of a surviving frame, none of a torn one.
        let recovered = ShardedLogStore::open(&dir, sharded_single_segment(SHARDS)).unwrap();
        let mut model: BTreeMap<u32, Vec<Vec<u8>>> = BTreeMap::new();
        let mut last_boundary = [0u64; SHARDS];
        for s in 0..SHARDS {
            for (group, boundary) in &units[s] {
                if *boundary <= cuts[s] {
                    for op in group {
                        apply_to_model(&mut model, op);
                    }
                    last_boundary[s] = *boundary;
                }
            }
        }
        for user in 0u32..16 {
            let view = recovered.fetch(UserId::new(user));
            match model.get(&user) {
                None => prop_assert!(view.is_empty(), "user {user} must be empty"),
                Some(payloads) => {
                    let got: Vec<&[u8]> = view.iter().map(|e| e.payload()).collect();
                    let want: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
                    prop_assert_eq!(got, want, "user {}", user);
                    prop_assert_eq!(view.version(), payloads.len() as u64);
                }
            }
        }
        prop_assert_eq!(recovered.user_count(), model.len());

        // Per-shard replay accounting: each shard replayed exactly up to
        // its last whole frame below its own cut.
        let stats = recovered.recovery_stats();
        for s in 0..SHARDS {
            let (expected_replayed, expected_torn) = if cuts[s] < 8 {
                (0, cuts[s])
            } else {
                let replayed = last_boundary[s].max(8);
                (replayed, cuts[s] - replayed)
            };
            prop_assert_eq!(
                stats.per_shard[s].bytes_replayed, expected_replayed,
                "shard {} replayed bytes (cut {}/{})", s, cuts[s], totals[s]
            );
            prop_assert_eq!(
                stats.per_shard[s].torn_bytes, expected_torn,
                "shard {} torn bytes", s
            );
        }

        // The repaired shards accept and serve new appends.
        let u = UserId::new(3);
        let before = recovered.fetch(u).len();
        recovered.append_version(u, b"post-crash".to_vec()).unwrap();
        prop_assert_eq!(recovered.fetch(u).len(), before + 1);

        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Group commit's two-sided contract, observed from outside: an append is
/// *acknowledged* (visible to fetch) before it is durable, and the batch it
/// rides in hits the disk as one frame — a crash loses the whole batch or
/// none of it, never a slice.
#[test]
fn unflushed_batch_is_invisible_on_disk_and_a_torn_batch_is_lost_whole() {
    let dir = unique_dir("batch-unit");
    let store = LogStructuredStore::open(&dir, single_segment()).unwrap();
    let a = UserId::new(1);
    let b = UserId::new(2);

    // Batch 1: five appends to user A, committed.
    for i in 0..5u8 {
        store.append_version(a, vec![i; 10]).unwrap();
    }
    store.flush().unwrap();
    let after_first = store.bytes_on_disk();

    // Batch 2: three appends to user B, acknowledged but NOT committed.
    for i in 0..3u8 {
        store.append_version(b, vec![0x40 | i; 10]).unwrap();
    }
    assert_eq!(store.pending_records(), 3);
    assert_eq!(store.fetch(b).len(), 3, "acks are visible immediately");

    // On disk, the pending batch does not exist at all — a crash here
    // loses all three acknowledged appends together, and nothing else.
    let (disk_index, _) = LogStructuredStore::read_back(&dir).unwrap();
    assert_eq!(disk_index.get(&a).map(|v| v.len()), Some(5));
    assert!(!disk_index.contains_key(&b), "pending batch leaked to disk");

    // Commit batch 2, then crash inside its frame: header, middle, last
    // byte — wherever the tear lands, the whole batch vanishes and batch 1
    // is untouched.
    store.flush().unwrap();
    let after_second = store.bytes_on_disk();
    assert!(after_second > after_first);
    drop(store);
    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "log"))
        .expect("segment file");
    let backup = std::fs::read(&segment).unwrap();
    for cut in [
        after_first + 1,
        (after_first + after_second) / 2,
        after_second - 1,
    ] {
        std::fs::write(&segment, &backup).unwrap();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&segment)
            .unwrap()
            .set_len(cut)
            .unwrap();
        let (index, stats) = LogStructuredStore::read_back(&dir).unwrap();
        assert_eq!(
            index.get(&a).map(|v| v.len()),
            Some(5),
            "cut {cut}: the committed batch must survive"
        );
        assert!(
            !index.contains_key(&b),
            "cut {cut}: a torn batch must be lost as a unit, not served partially"
        );
        assert_eq!(stats.bytes_replayed, after_first);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Deterministic multi-seed compaction check: content (index + values,
/// versions included) is identical before and after compaction — and after
/// a reopen that replays only the compacted segments — while total segment
/// bytes strictly shrink whenever superseded records exist.
#[test]
fn compaction_is_content_identical_and_strictly_shrinks() {
    for seed in 0u64..4 {
        let dir = unique_dir("compact");
        // Exercise rotation and multi-segment compaction: rotation is
        // checked at each commit, so the batches are small too.
        let config = LogConfig {
            segment_max_bytes: 512,
            max_batch_records: 4,
            ..LogConfig::default()
        };
        let store = LogStructuredStore::open(&dir, config).unwrap();
        let users = 6u32;
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut step = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..150 {
            let r = step();
            let user = UserId::new((r % users as u64) as u32);
            if r % 10 == 9 {
                store.delete(user).unwrap();
            } else {
                store
                    .append(user, vec![(r >> 8) as u8; (r % 20) as usize + 1])
                    .unwrap();
            }
        }

        let before: Vec<_> = (0..users).map(|u| store.fetch(UserId::new(u))).collect();
        let stats = store.compact().unwrap();
        assert!(
            stats.bytes_after < stats.bytes_before,
            "seed {seed}: superseded records must shrink the log, got {stats:?}"
        );
        let after: Vec<_> = (0..users).map(|u| store.fetch(UserId::new(u))).collect();
        assert_eq!(before, after, "seed {seed}: compaction changed the state");

        // What recovery replays from the compacted segments is the same
        // state again — versions included.
        drop(store);
        let reopened = LogStructuredStore::open(&dir, config).unwrap();
        let replayed: Vec<_> = (0..users).map(|u| reopened.fetch(UserId::new(u))).collect();
        assert_eq!(
            before, replayed,
            "seed {seed}: reopen after compaction diverged"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A compaction pass that fails mid-way must leave no orphan snapshot
/// segments behind: they carry higher sequence numbers than the still-active
/// segment, so a surviving orphan would replay *after* post-failure appends
/// on the next open and silently revert them.
#[test]
fn failed_compaction_leaves_no_orphans_and_post_failure_appends_survive() {
    let dir = unique_dir("failed-compaction");
    let store = LogStructuredStore::open(&dir, single_segment()).unwrap();
    // Small views that compaction snapshots successfully…
    for u in 0..4u32 {
        store.append(UserId::new(u), vec![u as u8; 32]).unwrap();
        store.append(UserId::new(u), vec![u as u8; 32]).unwrap();
    }
    // …and one whose snapshot exceeds the record frame cap (every single
    // event fits, their 128-event sum does not), failing the pass mid-way.
    let big = UserId::new(5);
    for i in 0..128u32 {
        store.append(big, vec![i as u8; 200 * 1024]).unwrap();
    }
    let err = store.compact();
    assert!(matches!(err, Err(Error::InvalidConfig(_))), "{err:?}");

    // The store keeps serving, and appends made after the failure are what
    // a reopen sees — the orphan snapshots, had they survived, would have
    // reverted them.
    store
        .append(UserId::new(0), b"after-failure".to_vec())
        .unwrap();
    store.sync().unwrap();
    drop(store);
    let reopened = LogStructuredStore::open(&dir, single_segment()).unwrap();
    let v0 = reopened.fetch(UserId::new(0));
    assert_eq!(v0.len(), 3);
    assert_eq!(v0.latest().unwrap().payload(), b"after-failure");
    assert_eq!(reopened.fetch(big).len(), 128);
    assert_eq!(reopened.recovery_stats().torn_bytes, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Compacting twice in a row is stable: the second pass has no superseded
/// records to drop, and the state still round-trips.
#[test]
fn recompaction_is_stable() {
    let dir = unique_dir("recompact");
    let store = LogStructuredStore::open(&dir, single_segment()).unwrap();
    for i in 0..40u32 {
        store.append(UserId::new(i % 3), vec![i as u8; 10]).unwrap();
    }
    store.compact().unwrap();
    let once: Vec<_> = (0..3).map(|u| store.fetch(UserId::new(u))).collect();
    let second = store.compact().unwrap();
    let twice: Vec<_> = (0..3).map(|u| store.fetch(UserId::new(u))).collect();
    assert_eq!(once, twice);
    // Nothing was superseded, so the log cannot shrink meaningfully — but it
    // must not grow either (the old snapshots are dropped with their
    // segments).
    assert!(second.bytes_after <= second.bytes_before);
    std::fs::remove_dir_all(&dir).unwrap();
}
