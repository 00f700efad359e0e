//! The cache worker thread.
//!
//! Every view server of the topology is one *shard* — a `HashMap<UserId,
//! Arc<View>>` hashing the id with one multiplication: a cached view is
//! immutable, a write swaps the pointer and a hit hands out one more
//! reference — and a single worker
//! thread owns them all, indexed by `MachineId::as_usize`. A shard holds
//! what clients `Put` until they `Evict` it; a `Put` past the end of the table
//! grows it (an added rack). Brokers (which in the paper only orchestrate
//! requests) are folded into the client call path; a read ships its lookups
//! and evictions to the worker as one [`Command::GetMany`], so it pays one
//! hand-off per request, not per view.
//!
//! Commands travel over one FIFO channel, so whatever a client sent before —
//! a `Put`, an `Evict` — has been applied to *every* shard by the time the
//! worker answers that client's next lookup.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use dynasore_types::{UserId, View};

/// One lookup of a batch: the shard and user asked for, and the slot the
/// worker fills with the cached view.
pub(crate) type Lookup = (usize, UserId, Option<Arc<View>>);

/// One read's hand-off: its lookups, and the `(shard, user)` copies to
/// evict once they are answered.
pub(crate) type Batch = (Vec<Lookup>, Vec<(usize, UserId)>);

/// Commands understood by the cache worker. `usize` fields are shard indices.
#[derive(Debug)]
enum Command {
    /// Return the cached view of a user, if present.
    Get(usize, UserId, SyncSender<Option<Arc<View>>>),
    /// Fill the batch's slots, apply its evictions, send it back. With `true`
    /// a hit is a private copy: a by-value read that clones on the *calling*
    /// thread is 6 % slower (README, *Measured and parked*).
    GetMany(Batch, bool, SyncSender<Batch>),
    /// Insert or refresh the cached view of a user (newer versions win).
    Put(usize, UserId, Arc<View>),
    /// Drop the cached view of a user (replica eviction).
    Evict(usize, UserId),
    /// Return the number of cached views of every shard.
    Lens(SyncSender<Vec<usize>>),
    /// Stop the thread.
    Shutdown,
}

/// Hashes a shard's key with one multiplication (Knuth's multiplicative
/// hash, 64-bit). SipHash defends a map against keys picked to collide;
/// here every key is a replica the engine placed on the shard's server, so
/// a shard holds at most that server's capacity, whatever clients ask for.
/// The odd factor maps distinct low bits to distinct low bits, and the high
/// bits mix all of the id.
#[derive(Default)]
struct UserIdHasher(u64);

/// 2⁶⁴ divided by the golden ratio, rounded to odd.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for UserIdHasher {
    /// A `UserId` hashes through `write_u32`; other keys fold their bytes.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(byte)).wrapping_mul(GOLDEN);
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = u64::from(id).wrapping_mul(GOLDEN);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One shard: the views a server caches.
type Shard = HashMap<UserId, Arc<View>, BuildHasherDefault<UserIdHasher>>;

/// The shards as the worker holds them.
type Shards = Vec<Shard>;

fn lookup(shards: &Shards, shard: usize, user: UserId) -> Option<&Arc<View>> {
    shards.get(shard)?.get(&user)
}

fn evict(shards: &mut Shards, shard: usize, user: UserId) {
    if let Some(views) = shards.get_mut(shard) {
        views.remove(&user);
    }
}

fn run(commands: Receiver<Command>) {
    let mut shards = Shards::new();
    while let Ok(command) = commands.recv() {
        match command {
            Command::Get(shard, user, reply) => {
                let _ = reply.send(lookup(&shards, shard, user).cloned());
            }
            Command::GetMany((mut batch, evicts), detached, reply) => {
                // Every hit's count is read before any is bumped, so their
                // cache misses overlap (as in the engine's warm pass).
                let hits = batch
                    .iter()
                    .filter_map(|&(shard, user, _)| lookup(&shards, shard, user));
                std::hint::black_box(hits.map(Arc::strong_count).sum::<usize>());
                for (shard, user, slot) in &mut batch {
                    let hit = lookup(&shards, *shard, *user);
                    *slot = if detached {
                        hit.map(|view| Arc::new(View::clone(view)))
                    } else {
                        hit.cloned()
                    };
                }
                for &(shard, user) in &evicts {
                    evict(&mut shards, shard, user);
                }
                let _ = reply.send((batch, evicts));
            }
            Command::Put(shard, user, view) => {
                if shard >= shards.len() {
                    shards.resize_with(shard + 1, Shard::default);
                }
                let stale = |held: &Arc<View>| held.version() >= view.version();
                if !shards[shard].get(&user).is_some_and(stale) {
                    shards[shard].insert(user, view);
                }
            }
            Command::Evict(shard, user) => evict(&mut shards, shard, user),
            Command::Lens(reply) => {
                let _ = reply.send(shards.iter().map(HashMap::len).collect());
            }
            Command::Shutdown => break,
        }
    }
}

/// Handle to the running cache worker.
#[derive(Debug)]
pub(crate) struct CacheWorker {
    sender: Sender<Command>,
    /// The worker thread, until [`shutdown`](CacheWorker::shutdown) joins
    /// it.
    pub join: Mutex<Option<JoinHandle<()>>>,
}

impl CacheWorker {
    /// Spawns the worker; every shard starts empty.
    pub fn spawn() -> CacheWorker {
        let (sender, commands) = channel();
        let join = std::thread::Builder::new()
            .name("dynasore-cache".into())
            .spawn(move || run(commands))
            .expect("failed to spawn the cache worker thread");
        CacheWorker {
            sender,
            join: Mutex::new(Some(join)),
        }
    }

    /// Sends a command that carries a reply channel and blocks on the
    /// answer; `None` once the worker is gone.
    fn ask<T>(&self, command: impl FnOnce(SyncSender<T>) -> Command) -> Option<T> {
        let (reply, response) = sync_channel(1);
        self.sender.send(command(reply)).ok()?;
        response.recv().ok()
    }

    /// Fetches a cached view.
    pub fn get(&self, shard: usize, user: UserId) -> Option<Arc<View>> {
        self.ask(|reply| Command::Get(shard, user, reply)).flatten()
    }

    /// Looks the batch up and applies its evictions in one hand-off: it comes
    /// back in order, every slot filled — the shard's own allocation, or when
    /// `detached` a private copy — or `None` once the worker is gone.
    pub fn get_many(&self, batch: Batch, detached: bool) -> Option<Batch> {
        self.ask(|reply| Command::GetMany(batch, detached, reply))
    }

    /// Pushes a view into a shard.
    pub fn put(&self, shard: usize, user: UserId, view: Arc<View>) {
        let _ = self.sender.send(Command::Put(shard, user, view));
    }

    /// Removes a cached view.
    pub fn evict(&self, shard: usize, user: UserId) {
        let _ = self.sender.send(Command::Evict(shard, user));
    }

    /// Number of views cached on every shard a `Put` has reached.
    pub fn lens(&self) -> Vec<usize> {
        self.ask(Command::Lens).unwrap_or_default()
    }

    /// Asks the thread to stop and waits for it. Idempotent.
    pub fn shutdown(&self) {
        let _ = self.sender.send(Command::Shutdown);
        if let Some(join) = self.join.lock().take() {
            let _ = join.join();
        }
    }
}

impl Drop for CacheWorker {
    fn drop(&mut self) {
        // Destructors must not fail or block indefinitely: send errors are
        // ignored and a thread that already exited joins at once.
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_types::{Event, SimTime};

    fn view_with(user: UserId, payload: &[u8], version_bumps: u32) -> Arc<View> {
        let mut v = View::new(user);
        for i in 0..version_bumps {
            v.push(Event::new(
                user,
                SimTime::from_secs(i as u64),
                payload.to_vec(),
            ));
        }
        Arc::new(v)
    }

    #[test]
    fn get_put_evict_round_trip() {
        let worker = CacheWorker::spawn();
        let u = UserId::new(5);
        assert!(worker.get(1, u).is_none());
        assert!(worker.lens().is_empty());
        // A `Put` past the end grows the table.
        worker.put(1, u, view_with(u, b"x", 1));
        let cached = worker.get(1, u).expect("cached view");
        assert_eq!(cached.len(), 1);
        assert!(worker.get(0, u).is_none(), "shards are separate maps");
        assert_eq!(worker.lens(), [0, 1]);
        worker.evict(1, u);
        assert!(worker.get(1, u).is_none());
        assert_eq!(worker.lens(), [0, 0]);
        worker.shutdown();
    }

    #[test]
    fn stale_puts_do_not_overwrite_newer_views() {
        let worker = CacheWorker::spawn();
        let u = UserId::new(1);
        worker.put(0, u, view_with(u, b"new", 3));
        worker.put(0, u, view_with(u, b"old", 1));
        let cached = worker.get(0, u).unwrap();
        assert_eq!(cached.len(), 3);
        worker.shutdown();
    }

    #[test]
    fn hits_share_the_shards_allocation_and_a_stale_put_leaves_it_alone() {
        let worker = CacheWorker::spawn();
        let u = UserId::new(4);
        let pushed = view_with(u, b"v2", 2);
        worker.put(1, u, pushed.clone());
        // Two `get`s and a `get_many` with a repeated key: one allocation,
        // the one the `Put` carried.
        let first = worker.get(1, u).unwrap();
        assert!(Arc::ptr_eq(&first, &pushed));
        assert!(Arc::ptr_eq(&first, &worker.get(1, u).unwrap()));
        let twice = || vec![(1, u, None), (1, u, None)];
        for (_, _, hit) in worker.get_many((twice(), Vec::new()), false).unwrap().0 {
            assert!(Arc::ptr_eq(&first, &hit.unwrap()));
        }
        // Detached hits are equal copies nobody else holds.
        for (_, _, hit) in worker.get_many((twice(), Vec::new()), true).unwrap().0 {
            let copy = hit.unwrap();
            assert_eq!((&*copy, Arc::strong_count(&copy)), (&*first, 1));
        }
        // A stale or equal version does not move the pointer; a newer one is
        // a pointer swap.
        worker.put(1, u, view_with(u, b"v1", 1));
        worker.put(1, u, view_with(u, b"other v2", 2));
        assert!(Arc::ptr_eq(&first, &worker.get(1, u).unwrap()));
        let newer = view_with(u, b"v3", 3);
        worker.put(1, u, newer.clone());
        assert!(Arc::ptr_eq(&newer, &worker.get(1, u).unwrap()));
        // Shard, test and `first`/`pushed` hold the only references.
        assert_eq!(Arc::strong_count(&newer), 2);
        assert_eq!(Arc::strong_count(&first), 2);
    }

    #[test]
    fn get_many_answers_every_key_in_order() {
        let worker = CacheWorker::spawn();
        let (a, b) = (UserId::new(1), UserId::new(2));
        worker.put(0, a, view_with(a, b"a", 1));
        worker.put(2, b, view_with(b, b"b", 2));
        // Hits, a miss, a repeated key and a shard that does not exist; the
        // evictions, one of them past the end, apply after the lookups.
        let keys = [(2, b), (0, b), (0, a), (2, b), (7, a)];
        let evicts = vec![(2, b), (9, a)];
        let lookups = keys.iter().map(|&(s, u)| (s, u, None)).collect();
        let (batch, evicted) = worker.get_many((lookups, evicts.clone()), false).unwrap();
        let asked: Vec<(usize, UserId)> = batch.iter().map(|&(s, u, _)| (s, u)).collect();
        assert_eq!(asked, keys, "the batch comes back in order");
        assert_eq!(evicted, evicts, "the evictions come back unchanged");
        let owners: Vec<Option<(UserId, usize)>> = batch
            .iter()
            .map(|(_, _, v)| v.as_ref().map(|v| (v.owner(), v.len())))
            .collect();
        assert_eq!(
            owners,
            [Some((b, 2)), None, Some((a, 1)), Some((b, 2)), None]
        );
        assert_eq!(worker.lens(), [1, 0, 0]);
        assert_eq!(
            worker.get_many((Vec::new(), Vec::new()), false),
            Some((vec![], vec![]))
        );
    }

    #[test]
    fn shutdown_is_idempotent() {
        let worker = CacheWorker::spawn();
        worker.shutdown();
        worker.shutdown();
        assert!(worker.join.lock().is_none());
        assert!(worker.get(0, UserId::new(1)).is_none());
        let batch = (vec![(0, UserId::new(1), None)], vec![]);
        assert_eq!(worker.get_many(batch, true), None);
        assert!(worker.lens().is_empty());
    }
}
