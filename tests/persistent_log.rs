//! Crash-recovery properties and the on-disk format of the file-backed
//! persistent tier.
//!
//! Every test drives `ShardedLogStore`, the one public store over files; a
//! one-shard store is one log. The central guarantee: for *any* sequence of
//! writes and overwrites (new events appended to views that already hold
//! some) and *any* byte offset a crash tears a shard's log at — truncating
//! it there or leaving garbage after it — reopening recovers exactly the
//! committed prefix — every batch frame wholly below the cut, and nothing of
//! the torn tail, which the length-and-checksum framing detects and never
//! serves. The format itself is pinned byte for byte, and the retired record
//! kinds are refused as corruption.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dynasore::store::{PersistentStore, ShardedConfig, ShardedLogStore};
use dynasore::types::{crc32, DurableRecord, Error, UserId};
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

/// A shard's log is one segment file, so a byte offset addresses its whole
/// log. No wall-clock flusher and a fill trigger far above any op count
/// here: nothing commits or fsyncs behind the test's back, so a frame ends
/// exactly where the test flushes.
fn single_segment(shards: usize) -> ShardedConfig {
    ShardedConfig {
        shards,
        flush_interval: None,
        ..ShardedConfig::default()
    }
}

/// The single `.log` segment file of shard `i` under a store's root.
fn shard_segment(dir: &Path, i: usize) -> PathBuf {
    std::fs::read_dir(dir.join(format!("shard-{i:04}")))
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "log"))
        .expect("shard segment file")
}

/// The length of a file on disk.
fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

/// A crash that tore the log at `path` at byte `cut`: the file ends there,
/// or (`garbage`) it keeps its length but every byte from the cut on never
/// reached the disk and reads back as something else — here its complement,
/// so no torn byte can match what was written by chance.
fn crash(path: &Path, cut: u64, garbage: bool) {
    if garbage {
        let mut bytes = std::fs::read(path).unwrap();
        for b in &mut bytes[cut as usize..] {
            *b = !*b;
        }
        std::fs::write(path, bytes).unwrap();
    } else {
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .unwrap()
            .set_len(cut)
            .unwrap();
    }
}

/// One acknowledged append: the user and the payload.
type Op = (u32, Vec<u8>);

/// Applies one op to the reference model (user → payload list; a view's
/// version equals the list length because capacity is never hit here).
fn apply_to_model(model: &mut BTreeMap<u32, Vec<Vec<u8>>>, (user, payload): &Op) {
    model.entry(*user).or_default().push(payload.clone());
}

/// Random writes fan out over `shards` shards, each shard's log is
/// independently torn at an arbitrary byte offset (`shards` independent
/// crashes of one machine, each truncating its log or leaving garbage after
/// the tear, see [`crash`]), and the reopened store must equal the union of
/// each shard's *acknowledged-and-committed* prefix. Ops are grouped into
/// batch frames (one frame per flush), so the model is unit-at-a-time: a cut
/// inside a frame loses that whole frame's ops — group commit's
/// all-or-nothing promise — and never any earlier frame.
fn crash_recovers_each_shards_committed_prefix(
    shards: usize,
    raw_ops: &[(usize, u32)],
    cut_permille: &[u64],
    garbage: &[bool],
) -> Result<(), TestCaseError> {
    let dir = unique_dir("sharded-crash");
    let store = ShardedLogStore::open(&dir, single_segment(shards)).unwrap();
    let segments: Vec<PathBuf> = (0..shards).map(|s| shard_segment(&dir, s)).collect();

    // Per shard: completed units (ops + the frame boundary that made them
    // safe from truncation) and the group still open. A flush commits every
    // shard's open group as one frame and makes its length physical.
    let mut units: Vec<Vec<(Vec<Op>, u64)>> = vec![Vec::new(); shards];
    let mut open: Vec<Vec<Op>> = vec![Vec::new(); shards];
    let close = |open: &mut Vec<Vec<Op>>, units: &mut Vec<Vec<(Vec<Op>, u64)>>| {
        store.flush().unwrap();
        for s in 0..shards {
            let group = std::mem::take(&mut open[s]);
            if !group.is_empty() {
                units[s].push((group, file_len(&segments[s])));
            }
        }
    };
    for (i, &(len, user)) in raw_ops.iter().enumerate() {
        let u = UserId::new(user);
        let payload = vec![(i as u8) ^ (user as u8); len];
        store.append_version(u, payload.clone()).unwrap();
        open[store.shard_index_of(u)].push((user, payload));
        // Close the frames now and then so frames carry 1..n ops.
        if len % 4 == 0 {
            close(&mut open, &mut units);
        }
    }
    close(&mut open, &mut units);
    let totals: Vec<u64> = segments.iter().map(|p| file_len(p)).collect();
    prop_assert_eq!(totals.iter().sum::<u64>(), store.bytes_on_disk());
    drop(store);

    // Independent crashes: tear every shard's segment. A garbage tail
    // starts past the segment magic, which the segment's creation wrote.
    let cuts: Vec<u64> = (0..shards)
        .map(|s| {
            let cut = totals[s] * cut_permille[s] / 1_000;
            if garbage[s] {
                cut.max(8)
            } else {
                cut
            }
        })
        .collect();
    for s in 0..shards {
        crash(&segments[s], cuts[s], garbage[s]);
    }

    // Model: per shard, exactly the units whose frame ends at or below the
    // cut — all of a surviving frame, none of a torn one.
    let recovered = ShardedLogStore::open(&dir, single_segment(shards)).unwrap();
    let mut model: BTreeMap<u32, Vec<Vec<u8>>> = BTreeMap::new();
    let mut last_boundary = vec![0u64; shards];
    for s in 0..shards {
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
        let view = recovered.fetch(UserId::new(user)).unwrap();
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

    // Per-shard replay accounting: each shard replayed exactly up to its
    // last whole frame below its own cut; the rest of the file was a
    // detected torn tail. (A cut inside the 8-byte segment magic leaves
    // nothing replayable.)
    let stats = recovered.recovery_stats();
    for s in 0..shards {
        let end = if garbage[s] { totals[s] } else { cuts[s] };
        let (expected_replayed, expected_torn) = if end < 8 {
            (0, end)
        } else {
            let replayed = last_boundary[s].max(8);
            (replayed, end - replayed)
        };
        prop_assert_eq!(
            stats.per_shard[s].bytes_replayed,
            expected_replayed,
            "shard {} replayed bytes (cut {}/{})",
            s,
            cuts[s],
            totals[s]
        );
        prop_assert_eq!(
            stats.per_shard[s].torn_bytes,
            expected_torn,
            "shard {} torn bytes",
            s
        );
    }

    // The repaired shards accept and serve new appends.
    let u = UserId::new(3);
    let before = recovered.fetch(u).unwrap().len();
    recovered.append_version(u, b"post-crash".to_vec()).unwrap();
    let after = recovered.fetch(u).unwrap();
    prop_assert_eq!(after.len(), before + 1);
    prop_assert_eq!(after.latest().unwrap().payload(), b"post-crash");

    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random write/overwrite sequences, a crash that tears every shard's
    /// log at an arbitrary byte offset, reopen: one log over files (one
    /// shard) and four shards each recover exactly their committed prefix —
    /// the torn tail frame is detected by its length or checksum and never
    /// served.
    #[test]
    fn sharded_crash_recovers_each_shards_committed_prefix(
        raw_ops in proptest::collection::vec((1usize..25, 0u32..16), 1..100),
        cut_permille in proptest::collection::vec(0u64..1_001, 4..5),
        garbage in proptest::collection::vec(proptest::bool::ANY, 4..5),
    ) {
        for shards in [1, 4] {
            crash_recovers_each_shards_committed_prefix(
                shards,
                &raw_ops,
                &cut_permille,
                &garbage,
            )?;
        }
    }
}

/// Group commit's two-sided contract, observed from outside: an append is
/// *acknowledged* (visible to fetch) before it is durable, and the batch it
/// rides in hits the disk as one frame — a crash loses the whole batch or
/// none of it, never a slice.
#[test]
fn unflushed_batch_is_invisible_on_disk_and_a_torn_batch_is_lost_whole() {
    let dir = unique_dir("batch-unit");
    let store = ShardedLogStore::open(&dir, single_segment(1)).unwrap();
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
    assert_eq!(
        store.fetch(b).unwrap().len(),
        3,
        "acks are visible immediately"
    );

    // On disk, the pending batch does not exist at all — a crash here
    // loses all three acknowledged appends together, and nothing else.
    let (disk_index, _) = ShardedLogStore::read_back(&dir).unwrap();
    assert_eq!(disk_index.get(&a).map(|v| v.len()), Some(5));
    assert!(!disk_index.contains_key(&b), "pending batch leaked to disk");

    // Commit batch 2, then crash inside its frame: header, middle, last
    // byte, truncated or followed by garbage — wherever and however the
    // tear lands, the whole batch vanishes and batch 1 is untouched.
    store.flush().unwrap();
    let after_second = store.bytes_on_disk();
    assert!(after_second > after_first);
    drop(store);
    let segment = shard_segment(&dir, 0);
    let backup = std::fs::read(&segment).unwrap();
    for cut in [
        after_first + 1,
        (after_first + after_second) / 2,
        after_second - 1,
    ] {
        for garbage in [false, true] {
            std::fs::write(&segment, &backup).unwrap();
            crash(&segment, cut, garbage);
            let (index, stats) = ShardedLogStore::read_back(&dir).unwrap();
            assert_eq!(
                index.get(&a).map(|v| v.len()),
                Some(5),
                "cut {cut} (garbage: {garbage}): the committed batch must survive"
            );
            assert!(
                !index.contains_key(&b),
                "cut {cut} (garbage: {garbage}): a torn batch must be lost as a unit, \
                 not served partially"
            );
            assert_eq!(stats.total.bytes_replayed, after_first);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Deterministic multi-seed reopen check: random appends in small batches
/// stay in each shard's one segment file, and a reopen that replays it
/// recovers the same content, versions included.
#[test]
fn random_appends_replay_to_the_same_state() {
    for seed in 0u64..4 {
        let dir = unique_dir("reopen");
        let config = ShardedConfig {
            shards: 1,
            flush_interval: None,
            max_batch_records: 4,
        };
        let store = ShardedLogStore::open(&dir, config).unwrap();
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
            store
                .append_version(user, vec![(r >> 8) as u8; (r % 20) as usize + 1])
                .unwrap();
        }
        store.sync().unwrap();
        assert_eq!(store.segment_count(), 1, "seed {seed}: a second file");

        let before: Vec<_> = (0..users)
            .map(|u| store.fetch(UserId::new(u)).unwrap())
            .collect();
        drop(store);
        let reopened = ShardedLogStore::open(&dir, config).unwrap();
        let replayed: Vec<_> = (0..users)
            .map(|u| reopened.fetch(UserId::new(u)).unwrap())
            .collect();
        assert_eq!(before, replayed, "seed {seed}: reopen diverged");
        assert_eq!(reopened.recovery_stats().total.torn_bytes, 0);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The `.log` files under a store root: (name relative to the root, length,
/// CRC-32 of the contents), in shard and then sequence order.
fn segment_files(root: &Path) -> Vec<(String, u64, u32)> {
    let mut files = Vec::new();
    let mut shards: Vec<String> = std::fs::read_dir(root)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with("shard-"))
        .collect();
    shards.sort();
    for shard in shards {
        let mut names: Vec<String> = std::fs::read_dir(root.join(&shard))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.ends_with(".log"))
            .collect();
        names.sort();
        for name in names {
            let bytes = std::fs::read(root.join(&shard).join(&name)).unwrap();
            files.push((format!("{shard}/{name}"), bytes.len() as u64, crc32(&bytes)));
        }
    }
    files
}

/// The on-disk format, byte for byte: a fixed sequence of appends on a
/// two-shard store, then a `sync`, must leave exactly one segment file per
/// shard with these lengths and CRC-32s. Older builds cut the same log into
/// several files at a size threshold; `OLDER_LAYOUT` pins what they wrote
/// for this script (from the build before the retired record kinds were
/// deleted). Split back at those files' lengths — each piece the magic
/// followed by its frames — the log reproduces every pinned row, so the
/// frames are byte-identical to what older builds wrote, and the split
/// directory still opens: to the same views, appending in its last segment.
/// A torn segment that is not the last one is refused.
#[test]
fn segment_files_keep_their_exact_bytes() {
    const GOLDEN: &[(&str, u64, u32)] = &[
        ("shard-0000/seg-0000000001.log", 719, 0x5AD31097),
        ("shard-0001/seg-0000000001.log", 590, 0xFC10D98C),
    ];
    const OLDER_LAYOUT: &[(&str, u64, u32)] = &[
        ("shard-0000/seg-0000000001.log", 261, 0x984A8E3D),
        ("shard-0000/seg-0000000002.log", 266, 0xBCCF2547),
        ("shard-0000/seg-0000000003.log", 208, 0xB1EEFFB0),
        ("shard-0000/seg-0000000004.log", 8, 0x6F769360),
        ("shard-0001/seg-0000000001.log", 261, 0xC531CD96),
        ("shard-0001/seg-0000000002.log", 266, 0xBBB06F70),
        ("shard-0001/seg-0000000003.log", 79, 0x64226A0C),
    ];
    const MAGIC: &[u8] = b"DYNASEG1";
    let config = ShardedConfig {
        shards: 2,
        flush_interval: None,
        max_batch_records: 4,
    };
    let pinned = |rows: &[(&str, u64, u32)]| -> Vec<(String, u64, u32)> {
        rows.iter()
            .map(|&(name, len, crc)| (name.to_string(), len, crc))
            .collect()
    };
    let root = unique_dir("golden");
    let dir = root.join("single");
    let store = ShardedLogStore::open(&dir, config).unwrap();
    for i in 0..40u32 {
        let user = i % 7;
        store
            .append_version(
                UserId::new(user),
                format!("event {i} of {user}").into_bytes(),
            )
            .unwrap();
    }
    store.sync().unwrap();
    drop(store);
    assert_eq!(
        segment_files(&dir),
        pinned(GOLDEN),
        "segment files (name, length, crc32)"
    );

    // Split each shard's file back at the older layout's lengths.
    let split = root.join("split");
    std::fs::create_dir_all(&split).unwrap();
    std::fs::copy(dir.join("MANIFEST"), split.join("MANIFEST")).unwrap();
    for &(single, _, _) in GOLDEN {
        let (shard, _) = single.split_once('/').unwrap();
        std::fs::create_dir_all(split.join(shard)).unwrap();
        let bytes = std::fs::read(dir.join(single)).unwrap();
        let mut offset = MAGIC.len();
        for &(name, len, _) in OLDER_LAYOUT.iter().filter(|r| r.0.starts_with(shard)) {
            let end = offset + len as usize - MAGIC.len();
            let piece = [MAGIC, &bytes[offset..end]].concat();
            std::fs::write(split.join(name), piece).unwrap();
            offset = end;
        }
        assert_eq!(offset, bytes.len(), "{shard}: the pieces cover the file");
    }
    assert_eq!(
        segment_files(&split),
        pinned(OLDER_LAYOUT),
        "split segment files (name, length, crc32)"
    );

    // The split directory opens to the same views, and an append lands in
    // its owner shard's last segment without creating a file.
    let single = ShardedLogStore::open(&dir, config).unwrap();
    let older = ShardedLogStore::open(&split, config).unwrap();
    for user in 0..7u32 {
        let u = UserId::new(user);
        assert_eq!(
            older.fetch(u).unwrap(),
            single.fetch(u).unwrap(),
            "user {user}"
        );
    }
    assert_eq!(older.segment_count(), OLDER_LAYOUT.len());
    assert_eq!(
        older.bytes_on_disk(),
        OLDER_LAYOUT.iter().map(|r| r.1).sum::<u64>()
    );
    let u = UserId::new(3);
    let shard = format!("shard-{:04}", older.shard_index_of(u));
    let &(last, last_len, _) = OLDER_LAYOUT
        .iter()
        .rfind(|r| r.0.starts_with(&shard))
        .unwrap();
    older
        .append_version(u, b"after the split".to_vec())
        .unwrap();
    older.sync().unwrap();
    drop((single, older));
    let after = segment_files(&split);
    let names = |files: &[(String, u64, u32)]| -> Vec<String> {
        files.iter().map(|f| f.0.clone()).collect()
    };
    assert_eq!(names(&after), names(&pinned(OLDER_LAYOUT)), "no new file");
    for ((name, len, _), &(_, pinned_len, _)) in after.iter().zip(OLDER_LAYOUT) {
        if name == last {
            assert!(*len > last_len, "{name}: the append is not in it");
        } else {
            assert_eq!(*len, pinned_len, "{name} changed");
        }
    }
    let (index, _) = ShardedLogStore::read_back(&split).unwrap();
    assert_eq!(index[&u].latest().unwrap().payload(), b"after the split");

    // A torn segment that is not its shard's last cannot come from a crash.
    let (torn, torn_len, _) = OLDER_LAYOUT[1];
    std::fs::OpenOptions::new()
        .write(true)
        .open(split.join(torn))
        .unwrap()
        .set_len(torn_len - 1)
        .unwrap();
    let refused = ShardedLogStore::open(&split, config);
    assert!(
        matches!(refused, Err(Error::CorruptRecord(_))),
        "{refused:?}"
    );
    assert!(
        !split.join("LOCK").exists(),
        "a refused open left its root LOCK behind"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// Kinds 1–3 (single event, snapshot, tombstone) are retired: no writer
/// emits them, so a whole, checksummed frame of one is writer corruption,
/// exactly like any other unknown kind — never a torn tail that replay would
/// silently truncate away. A directory holding one refuses to open and
/// leaves no `LOCK` behind.
#[test]
fn retired_record_kinds_are_corrupt_not_torn() {
    // Well-formed bodies in the layouts the retired kinds had.
    let entry = |body: &mut Vec<u8>| {
        body.extend_from_slice(&7u32.to_le_bytes()); // user
        body.extend_from_slice(&3u64.to_le_bytes()); // timestamp
        body.extend_from_slice(&2u32.to_le_bytes()); // payload length
        body.extend_from_slice(b"hi");
    };
    let mut event = vec![1u8];
    entry(&mut event);
    let mut snapshot = vec![2u8];
    snapshot.extend_from_slice(&7u32.to_le_bytes()); // owner
    snapshot.extend_from_slice(&1u64.to_le_bytes()); // version
    snapshot.extend_from_slice(&128u32.to_le_bytes()); // capacity
    snapshot.extend_from_slice(&1u32.to_le_bytes()); // event count
    entry(&mut snapshot);
    let mut tombstone = vec![3u8];
    tombstone.extend_from_slice(&7u32.to_le_bytes());

    for body in [event, snapshot, tombstone] {
        let kind = body[0];
        let mut frame = Vec::new();
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        let decoded = DurableRecord::decode(&frame);
        assert!(
            matches!(decoded, Err(Error::CorruptRecord(_))),
            "kind {kind}: {decoded:?}"
        );

        let dir = unique_dir("retired");
        let shard_dir = dir.join("shard-0000");
        std::fs::create_dir_all(&shard_dir).unwrap();
        let mut segment = b"DYNASEG1".to_vec();
        segment.extend_from_slice(&frame);
        std::fs::write(shard_dir.join("seg-0000000001.log"), &segment).unwrap();
        let opened = ShardedLogStore::open(&dir, single_segment(1));
        assert!(
            matches!(opened, Err(Error::CorruptRecord(_))),
            "kind {kind}: {opened:?}"
        );
        assert!(
            !dir.join("LOCK").exists(),
            "kind {kind}: a refused open left its root LOCK behind"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
