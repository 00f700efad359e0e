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
//! serves. The same holds for a writer process killed mid-run: every write
//! acknowledged before its last `sync` returned is recovered. The format
//! itself is pinned byte for byte, and the retired record kinds and the
//! roots older builds wrote are refused as corruption.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

use dynasore::store::{PersistentStore, ShardedConfig, ShardedLogStore};
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

/// A shard's log is one file, so a byte offset addresses its whole log. No wall-clock flusher and a fill trigger far above any op count
/// here: nothing commits or fsyncs behind the test's back, so a frame ends
/// exactly where the test flushes.
fn single_segment(shards: usize) -> ShardedConfig {
    ShardedConfig {
        shards,
        flush_interval: None,
    }
}

/// The log file of shard `i` under a store's root.
fn shard_segment(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard-{i:04}.log"))
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
/// (a flush after every fourth) stay in each shard's one log file, and a
/// reopen that replays it recovers the same content, versions included.
#[test]
fn random_appends_replay_to_the_same_state() {
    for seed in 0u64..4 {
        let dir = unique_dir("reopen");
        let config = single_segment(1);
        let store = ShardedLogStore::open(&dir, config).unwrap();
        let users = 6u32;
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut step = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for i in 1..=150 {
            let r = step();
            let user = UserId::new((r % users as u64) as u32);
            store
                .append_version(user, vec![(r >> 8) as u8; (r % 20) as usize + 1])
                .unwrap();
            if i % 4 == 0 {
                store.flush().unwrap();
            }
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

/// CRC-32 (IEEE 802.3, reflected), bit at a time: an independent reference
/// for the checksum the store writes, so the format pin below does not take
/// the store's word for it.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// The `.log` files under a store root: (name, length, CRC-32 of the
/// contents), in name order.
fn segment_files(root: &Path) -> Vec<(String, u64, u32)> {
    let mut names: Vec<String> = std::fs::read_dir(root)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".log"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let bytes = std::fs::read(root.join(&name)).unwrap();
            (name, bytes.len() as u64, crc32(&bytes))
        })
        .collect()
}

/// Every entry under `dir`, recursively: its path and, for a file, its
/// contents.
fn tree(dir: &Path) -> BTreeMap<PathBuf, Option<Vec<u8>>> {
    let mut entries = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            entries.extend(tree(&path));
            entries.insert(path, None);
        } else {
            let bytes = std::fs::read(&path).unwrap();
            entries.insert(path, Some(bytes));
        }
    }
    entries
}

/// Appends the 40-event script the format pin is taken on to a fresh
/// two-shard store at `dir`, in frames of four events per shard, and syncs
/// it. A shard's bytes depend only on its own appends — each shard stamps
/// its events from its own clock — so the script runs shard by shard: a
/// `flush` after each shard's fourth pending append then commits that
/// shard's frame of four, and at most the finished shard's last frame
/// besides, which no later append could have grown.
fn write_golden_script(dir: &Path) {
    let store = ShardedLogStore::open(dir, single_segment(2)).unwrap();
    for shard in 0..2 {
        let mut pending = 0;
        for i in 0..40u32 {
            let user = UserId::new(i % 7);
            if store.shard_index_of(user) != shard {
                continue;
            }
            let payload = format!("event {i} of {}", i % 7).into_bytes();
            store.append_version(user, payload).unwrap();
            pending += 1;
            if pending == 4 {
                store.flush().unwrap();
                pending = 0;
            }
        }
    }
    store.sync().unwrap();
}

/// The on-disk format, byte for byte: a fixed sequence of appends on a
/// two-shard store, then a `sync`, must leave exactly one log file per
/// shard, directly under the root, with these lengths and CRC-32s — the
/// frames older builds wrote for the same script, byte for byte.
#[test]
fn segment_files_keep_their_exact_bytes() {
    const GOLDEN: &[(&str, u64, u32)] = &[
        ("shard-0000.log", 719, 0x5AD31097),
        ("shard-0001.log", 590, 0xFC10D98C),
    ];
    let dir = unique_dir("golden");
    write_golden_script(&dir);
    let golden: Vec<(String, u64, u32)> = GOLDEN
        .iter()
        .map(|&(name, len, crc)| (name.to_string(), len, crc))
        .collect();
    assert_eq!(
        segment_files(&dir),
        golden,
        "segment files (name, length, crc32)"
    );
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(
        names,
        ["MANIFEST", "shard-0000.log", "shard-0001.log"],
        "a closed root holds the manifest and one file per shard"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A root an older build wrote — a `DYNASHARD1` manifest and a directory
/// per shard holding `seg-<seq>.log` files — is refused as corrupt by the
/// manifest's magic check, before any shard is opened: the refused open
/// leaves no `LOCK` behind and no file changed, so the root is still what
/// the older build left.
#[test]
fn older_build_roots_are_refused_untouched() {
    let current = unique_dir("older-source");
    write_golden_script(&current);
    let dir = unique_dir("older");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("MANIFEST"), "DYNASHARD1\nshards 2\n").unwrap();
    for shard in 0..2 {
        let shard_dir = dir.join(format!("shard-{shard:04}"));
        std::fs::create_dir(&shard_dir).unwrap();
        std::fs::copy(
            shard_segment(&current, shard),
            shard_dir.join("seg-0000000001.log"),
        )
        .unwrap();
    }
    let before = tree(&dir);
    let opened = ShardedLogStore::open(&dir, single_segment(2));
    assert!(matches!(opened, Err(Error::CorruptRecord(_))), "{opened:?}");
    let read = ShardedLogStore::read_back(&dir);
    assert!(matches!(read, Err(Error::CorruptRecord(_))), "{read:?}");
    assert!(
        !dir.join("LOCK").exists(),
        "a refused open left its root LOCK behind"
    );
    assert_eq!(tree(&dir), before, "a refused open changed the root");
    std::fs::remove_dir_all(&current).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Kinds 1–3 (single event, snapshot, tombstone) are retired: no writer
/// emits them, so a whole, checksummed frame of one is writer corruption,
/// exactly like any other unknown kind — never a torn tail that replay would
/// silently truncate away. A directory holding one refuses to open and
/// leaves no `LOCK` behind. (`store::segment`'s unit tests check the same
/// frames at the decoder.)
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
        let dir = unique_dir("retired");
        std::fs::create_dir_all(&dir).unwrap();
        let mut segment = b"DYNASEG1".to_vec();
        segment.extend_from_slice(&frame);
        std::fs::write(shard_segment(&dir, 0), &segment).unwrap();
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

/// Names the store root when this test binary runs as the child of
/// [`a_killed_writer_loses_no_synced_write`].
const CRASH_CHILD_ROOT: &str = "DYNASORE_CRASH_CHILD_ROOT";
/// Users the crash child writes to, round robin.
const CRASH_USERS: u64 = 16;
/// Appends the crash child makes between two syncs.
const CRASH_APPENDS_PER_SYNC: u64 = 5;

/// The crash child's `i`-th append: user `i mod CRASH_USERS`, and `i` as the
/// payload.
fn crash_op(i: u64) -> (UserId, Vec<u8>) {
    (
        UserId::new((i % CRASH_USERS) as u32),
        i.to_le_bytes().to_vec(),
    )
}

/// The crash child: a four-shard store with the default background
/// flusher, appending `crash_op(0)`, `crash_op(1)`, … and printing
/// `synced N` after each `sync()` that covered the first `N` appends. It
/// runs until it is killed; a closed stdout (the parent gone) ends it.
fn crash_child(root: &Path) {
    let config = ShardedConfig {
        shards: 4,
        ..ShardedConfig::default()
    };
    let store = ShardedLogStore::open(root, config).unwrap();
    let mut out = std::io::stdout().lock();
    for appended in (CRASH_APPENDS_PER_SYNC..).step_by(CRASH_APPENDS_PER_SYNC as usize) {
        for i in appended - CRASH_APPENDS_PER_SYNC..appended {
            let (user, payload) = crash_op(i);
            store.append_version(user, payload).unwrap();
        }
        store.sync().unwrap();
        writeln!(out, "synced {appended}").unwrap();
        out.flush().unwrap();
    }
}

/// A real process crash: this test binary re-runs itself as a writer
/// process (see [`crash_child`]), reads some of its `synced N` lines, and
/// kills it with SIGKILL — no destructor, no final flush. The reopen must
/// break the dead writer's `LOCK`, recover every append acknowledged before
/// the last sync the parent saw, and give every view back as a prefix of
/// its append order: whatever the flusher made durable after that sync,
/// nothing is reordered and no gap opens.
#[test]
fn a_killed_writer_loses_no_synced_write() {
    if let Some(root) = std::env::var_os(CRASH_CHILD_ROOT) {
        return crash_child(Path::new(&root));
    }
    let root = unique_dir("killed");
    let mut child = Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "a_killed_writer_loses_no_synced_write",
            "--nocapture",
            "--test-threads",
            "1",
        ])
        .env(CRASH_CHILD_ROOT, &root)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let (mut syncs, mut synced) = (0, 0u64);
    while syncs < 40 {
        let line = lines.next().expect("the child ended on its own").unwrap();
        // The harness may print on the same line before the first report.
        if let Some((_, n)) = line.split_once("synced ") {
            synced = n.parse().unwrap();
            syncs += 1;
        }
    }
    child.kill().unwrap();
    child.wait().unwrap();
    assert_eq!(
        std::fs::read_to_string(root.join("LOCK")).unwrap(),
        child.id().to_string(),
        "the killed writer's LOCK is left behind"
    );

    let store = ShardedLogStore::open(&root, single_segment(4)).unwrap();
    assert_eq!(
        std::fs::read_to_string(root.join("LOCK")).unwrap(),
        std::process::id().to_string(),
        "the reopen broke the dead writer's LOCK"
    );
    for user in 0..CRASH_USERS {
        let view = store.fetch(UserId::new(user as u32)).unwrap();
        let got: Vec<u64> = view
            .iter()
            .map(|e| u64::from_le_bytes(e.payload().try_into().unwrap()))
            .collect();
        let order: Vec<u64> = (user..)
            .step_by(CRASH_USERS as usize)
            .take(got.len())
            .collect();
        assert_eq!(got, order, "user {user}: not a prefix of its append order");
        let acknowledged = (user..synced).step_by(CRASH_USERS as usize).count();
        assert!(
            got.len() >= acknowledged,
            "user {user}: {} of the {acknowledged} appends synced before the kill",
            got.len()
        );
    }
    drop(store);
    std::fs::remove_dir_all(&root).unwrap();
}
