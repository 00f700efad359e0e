//! Fault injection for the file tier: a shard file that fails or parks its
//! writes and fsyncs when a test says so, and the test that fails each
//! write and fsync of a fixed script in turn.
//!
//! A test puts a [`FaultyFile`] in place of a shard's file after the store
//! has opened ([`FaultyFile::install`]). It wraps the real file, so reads
//! still see the committed bytes, and the store runs its product code
//! around it: a parked fsync parks inside the `sync_all` call that
//! `sync_shard` makes. The model covers a shard file's positioned writes
//! and fsyncs; directory fsyncs, `set_len`, the manifest's rename and the
//! root's `flock` are not behind the seam yet.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};

use super::tests::{no_flusher, temp_dir};
use super::*;
use crate::log::MAX_BATCH_BYTES;
use crate::segment::ShardFile;

/// A shard-file operation the fault model covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileOp {
    Write,
    Sync,
}

/// The operations of every [`FaultyFile`] that shares it, in the order they
/// ran.
type OpLog = Arc<Mutex<Vec<FileOp>>>;

/// What a [`FaultyFile`] is told to do wrong.
#[derive(Debug, Default)]
struct Faults {
    /// Every write and fsync fails.
    from_now_on: bool,
    /// The next fsync fails, once.
    next_sync: bool,
    /// The next fsync reports on the sender that it is parked, then waits
    /// for a message (or a hang-up) on the receiver.
    park: Option<(Sender<()>, Receiver<()>)>,
    /// The operation that makes the shared log this long fails.
    kth: Option<(OpLog, usize)>,
}

/// A shard file that passes every operation to the real one unless a fault
/// is set: then a write or fsync fails without reaching the file, and a
/// parked fsync waits before it runs.
#[derive(Debug)]
pub(super) struct FaultyFile {
    real: Arc<dyn ShardFile>,
    faults: Mutex<Faults>,
}

impl FaultyFile {
    /// Puts a faulty file, wrapping the real one, in place of `shard`'s.
    pub(super) fn install(shard: &Mutex<Shard>) -> Arc<FaultyFile> {
        let mut shard = shard.lock();
        let faulty = Arc::new(FaultyFile {
            real: shard.active.handle(),
            faults: Mutex::default(),
        });
        shard.active.file = faulty.clone();
        faulty
    }

    /// Every later write and fsync fails; reads still succeed.
    pub(super) fn fail_from_now_on(&self) {
        self.faults.lock().from_now_on = true;
    }

    /// The next fsync fails, and later ones succeed: the kernel reports a
    /// writeback error once per open file, to whoever fsyncs first.
    pub(super) fn fail_next_sync(&self) {
        self.faults.lock().next_sync = true;
    }

    /// Whether the fault [`fail_next_sync`](FaultyFile::fail_next_sync) set
    /// still waits for an fsync.
    pub(super) fn sync_fault_pending(&self) -> bool {
        self.faults.lock().next_sync
    }

    /// The next fsync parks until the test releases it. Returns a receiver
    /// that gets a message once that fsync is parked, and the sender whose
    /// message (or drop) releases it.
    pub(super) fn park_next_sync(&self) -> (Receiver<()>, Sender<()>) {
        let (parked, on_parked) = channel();
        let (release, on_release) = channel();
        self.faults.lock().park = Some((parked, on_release));
        (on_parked, release)
    }

    /// Logs every write and fsync in `log`, and fails the one that is the
    /// `k`-th (from 1) there, whichever file sharing `log` runs it.
    fn fail_kth(&self, log: &OpLog, k: usize) {
        self.faults.lock().kth = Some((Arc::clone(log), k));
    }

    /// Applies the faults set for `op`: parks it, or fails it.
    fn fault(&self, op: FileOp) -> std::io::Result<()> {
        let sync = op == FileOp::Sync;
        let (fail, park) = {
            let mut faults = self.faults.lock();
            let kth = faults.kth.as_ref().is_some_and(|(log, k)| {
                let mut log = log.lock();
                log.push(op);
                log.len() == *k
            });
            let once = sync && std::mem::take(&mut faults.next_sync);
            let park = faults.park.take_if(|_| sync);
            (faults.from_now_on || once || kth, park)
        };
        if let Some((parked, release)) = park {
            let _ = parked.send(());
            let _ = release.recv();
        }
        if fail {
            return Err(std::io::Error::other(format!("injected {op:?} fault")));
        }
        Ok(())
    }
}

impl ShardFile for FaultyFile {
    fn write_all_at(&self, bytes: &[u8], offset: u64) -> std::io::Result<()> {
        self.fault(FileOp::Write)?;
        self.real.write_all_at(bytes, offset)
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        self.real.read_exact_at(buf, offset)
    }

    fn sync_all(&self) -> std::io::Result<()> {
        self.fault(FileOp::Sync)?;
        self.real.sync_all()
    }
}

/// One step of the fault script.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A small append to the user, or (`true`) one of the byte budget,
    /// which forces its shard's batch to commit.
    Append(UserId, bool),
    Flush,
    Sync,
}

/// The fixed script: three rounds of small appends to every user, a flush,
/// more small appends and a sync. The first round's flush follows an
/// append that forces its shard's commit.
fn script(users: &[UserId]) -> Vec<Step> {
    let mut steps = Vec::new();
    for round in 0..3 {
        steps.extend(users.iter().map(|&u| Step::Append(u, false)));
        if round == 0 {
            steps.push(Step::Append(users[0], true));
        }
        steps.push(Step::Flush);
        steps.extend(users.iter().map(|&u| Step::Append(u, false)));
        steps.push(Step::Sync);
    }
    steps
}

/// The payload of step `i`: the step's number, padded to the byte budget
/// for a forcing append.
fn payload(i: usize, forcing: bool) -> Vec<u8> {
    let id = format!("{i};").into_bytes();
    let mut payload = vec![b'.'; if forcing { MAX_BATCH_BYTES } else { id.len() }];
    payload[..id.len()].copy_from_slice(&id);
    payload
}

/// The steps whose appends `view` holds, oldest first.
fn steps_in(view: &View) -> Vec<usize> {
    let step = |payload: &[u8]| {
        let id = payload.split(|&b| b == b';').next().unwrap();
        std::str::from_utf8(id).unwrap().parse().unwrap()
    };
    view.iter().map(|e| step(e.payload())).collect()
}

/// Runs the script on a fresh `shards`-shard store, with no flusher, whose
/// `k`-th shard-file write or fsync fails, and checks what the store
/// promises about it:
/// - before the fault every flush and sync returns `Ok`, and from the
///   fault on none does;
/// - the live store serves exactly the acknowledged appends, so never one
///   whose `append` returned `Err`;
/// - after a reopen, each user's view is a prefix of their acknowledged
///   appends holding every one acknowledged before the last `Ok` sync, and
///   no refused append.
///
/// Returns the operation that failed, or `None` when the script ran fewer
/// than `k`.
fn run_with_fault(shards: usize, k: usize) -> Option<FileOp> {
    let dir = temp_dir(&format!("fault-{shards}-{k}"));
    let store = ShardedLogStore::open(&dir, no_flusher(shards)).unwrap();
    let log = OpLog::default();
    for shard in store.shards.iter() {
        FaultyFile::install(shard).fail_kth(&log, k);
    }
    let mut users = Vec::new();
    for shard in 0..shards {
        let on_shard = (0..)
            .map(UserId::new)
            .filter(|&u| store.shard_index_of(u) == shard);
        users.extend(on_shard.take(2));
    }
    // The steps of each user's acknowledged appends, and of the refused ones.
    let mut acked: BTreeMap<UserId, Vec<usize>> = BTreeMap::new();
    let mut refused = Vec::new();
    let mut synced: BTreeMap<UserId, usize> = BTreeMap::new();
    for (i, step) in script(&users).into_iter().enumerate() {
        let context = format!("{shards} shards, fault at op {k}, step {i} ({step:?})");
        let outcome = match step {
            Step::Append(user, forcing) => {
                match store.append_version(user, payload(i, forcing)) {
                    Ok(_) => acked.entry(user).or_default().push(i),
                    Err(_) => refused.push(i),
                }
                None
            }
            Step::Flush => Some(store.flush()),
            Step::Sync => Some(store.sync()),
        };
        if let Some(outcome) = outcome {
            let faulted = log.lock().len() >= k;
            assert_eq!(outcome.is_err(), faulted, "{context}: {outcome:?}");
            if let (Step::Sync, Ok(())) = (step, outcome) {
                synced = acked.iter().map(|(&u, steps)| (u, steps.len())).collect();
            }
        }
        // A view changes when its user appends or its shard commits.
        let changed = match step {
            Step::Append(user, _) => vec![user],
            Step::Flush | Step::Sync => users.clone(),
        };
        for user in changed {
            let served = steps_in(&store.fetch(user).unwrap());
            let expected = acked.get(&user).map_or(&[][..], Vec::as_slice);
            assert_eq!(served, expected, "{context}: user {user}'s live view");
        }
    }
    let faulted = log.lock().get(k - 1).copied();
    drop(store);
    let reopened = ShardedLogStore::open(&dir, no_flusher(shards)).unwrap();
    for &user in &users {
        let recovered = steps_in(&reopened.fetch(user).unwrap());
        let acked = acked.get(&user).map_or(&[][..], Vec::as_slice);
        let synced = synced.get(&user).copied().unwrap_or(0);
        let context = format!(
            "{shards} shards, fault at op {k}: user {user} recovered steps {recovered:?} of \
             acknowledged {acked:?}, {synced} synced, refused {refused:?}"
        );
        assert!(acked.starts_with(&recovered), "{context}: not a prefix");
        assert!(recovered.len() >= synced, "{context}: lost a synced append");
        assert!(
            !recovered.iter().any(|i| refused.contains(i)),
            "{context}: a refused append came back"
        );
    }
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
    faulted
}

/// Fails each shard-file write and fsync of the script in turn, over one
/// and four shards, until the fault falls past the script's last operation.
#[test]
fn a_fault_at_any_write_or_fsync_breaks_no_promise() {
    for shards in [1, 4] {
        let faulted: Vec<FileOp> = (1..).map_while(|k| run_with_fault(shards, k)).collect();
        assert!(
            faulted.contains(&FileOp::Write) && faulted.contains(&FileOp::Sync),
            "{shards} shards: the script must fault writes and fsyncs, faulted {faulted:?}"
        );
    }
}
