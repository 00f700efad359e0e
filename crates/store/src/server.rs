//! The cache worker thread.
//!
//! Every view server of the topology is one *shard* — a plain
//! `HashMap<UserId, Arc<View>>`: a cached view is immutable, a write swaps
//! the pointer and a hit hands out one more reference — and a single worker
//! thread owns them all, indexed by `Topology::server_ordinal`. Brokers
//! (which in the paper only orchestrate requests) are folded into the client
//! call path; a read ships all its lookups to the worker as one
//! [`Command::GetMany`], so it pays one hand-off per request, not per view.
//!
//! Commands travel over one FIFO channel, so whatever a client sent before —
//! a `Put`, an `Evict`, a `Stop` — has been applied to *every* shard by the
//! time the worker answers that client's next lookup.

use std::collections::HashMap;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use dynasore_types::{UserId, View};

/// One lookup of a batch: the shard and user asked for, and the slot the
/// worker fills with the cached view.
pub(crate) type Lookup = (usize, UserId, Option<Arc<View>>);

/// Commands understood by the cache worker. `usize` fields are shard indices.
#[derive(Debug)]
enum Command {
    /// Return the cached view of a user, if present.
    Get(usize, UserId, SyncSender<Option<Arc<View>>>),
    /// Fill every slot of the batch and send it back. With `true` a hit is
    /// a private copy, made here because a by-value read that clones on the
    /// *calling* thread is 6 % slower (README, *Measured and parked*).
    GetMany(Vec<Lookup>, bool, SyncSender<Vec<Lookup>>),
    /// Insert or refresh the cached view of a user (newer versions win).
    Put(usize, UserId, Arc<View>),
    /// Drop the cached view of a user (replica eviction).
    Evict(usize, UserId),
    /// Return the number of cached views of every shard (0 when stopped).
    Lens(SyncSender<Vec<usize>>),
    /// The shard's machine died: drop its views and ignore its `Put`s.
    Stop(usize),
    /// Bring a stopped (or newly added) shard up, empty.
    Start(usize),
    /// Stop the thread.
    Shutdown,
}

/// The shards as the worker holds them; `None` is a stopped shard.
type Shards = Vec<Option<HashMap<UserId, Arc<View>>>>;

fn lookup(shards: &Shards, shard: usize, user: UserId) -> Option<&Arc<View>> {
    shards.get(shard)?.as_ref()?.get(&user)
}

fn run(mut shards: Shards, commands: Receiver<Command>) {
    while let Ok(command) = commands.recv() {
        match command {
            Command::Get(shard, user, reply) => {
                let _ = reply.send(lookup(&shards, shard, user).cloned());
            }
            Command::GetMany(mut batch, detached, reply) => {
                for (shard, user, slot) in &mut batch {
                    let hit = lookup(&shards, *shard, *user);
                    *slot = if detached {
                        hit.map(|view| Arc::new(View::clone(view)))
                    } else {
                        hit.cloned()
                    };
                }
                let _ = reply.send(batch);
            }
            Command::Put(shard, user, view) => {
                if let Some(Some(views)) = shards.get_mut(shard) {
                    let stale = |held: &Arc<View>| held.version() >= view.version();
                    if !views.get(&user).is_some_and(stale) {
                        views.insert(user, view);
                    }
                }
            }
            Command::Evict(shard, user) => {
                if let Some(Some(views)) = shards.get_mut(shard) {
                    views.remove(&user);
                }
            }
            Command::Lens(reply) => {
                let lens = shards.iter().map(|s| s.as_ref().map_or(0, HashMap::len));
                let _ = reply.send(lens.collect());
            }
            Command::Stop(shard) => {
                if let Some(slot) = shards.get_mut(shard) {
                    *slot = None;
                }
            }
            Command::Start(shard) => {
                if shard >= shards.len() {
                    shards.resize_with(shard + 1, || None);
                }
                // A running shard keeps its views: the engine counts it warm.
                shards[shard].get_or_insert_with(HashMap::new);
            }
            Command::Shutdown => break,
        }
    }
}

/// Handle to the running cache worker.
#[derive(Debug)]
pub(crate) struct CacheWorker {
    sender: Sender<Command>,
    pub join: Option<JoinHandle<()>>,
}

impl CacheWorker {
    /// Spawns the worker with `shards` running, empty shards.
    pub fn spawn(shards: usize) -> CacheWorker {
        let (sender, commands) = channel();
        let shards: Shards = (0..shards).map(|_| Some(HashMap::new())).collect();
        let join = std::thread::Builder::new()
            .name("dynasore-cache".into())
            .spawn(move || run(shards, commands))
            .expect("failed to spawn the cache worker thread");
        CacheWorker {
            sender,
            join: Some(join),
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

    /// Looks a whole batch up in one hand-off: it comes back in order with
    /// every slot filled — the shard's own allocation, or when `detached` a
    /// private copy of it — and empty once the worker is gone.
    pub fn get_many(&self, batch: Vec<Lookup>, detached: bool) -> Vec<Lookup> {
        self.ask(|reply| Command::GetMany(batch, detached, reply))
            .unwrap_or_default()
    }

    /// Pushes a view into a shard.
    pub fn put(&self, shard: usize, user: UserId, view: Arc<View>) {
        let _ = self.sender.send(Command::Put(shard, user, view));
    }

    /// Removes a cached view.
    pub fn evict(&self, shard: usize, user: UserId) {
        let _ = self.sender.send(Command::Evict(shard, user));
    }

    /// Number of views cached on every shard, stopped ones counting 0.
    pub fn lens(&self) -> Vec<usize> {
        self.ask(Command::Lens).unwrap_or_default()
    }

    /// Stops a shard: its views are gone and `Put`s to it are ignored.
    pub fn stop(&self, shard: usize) {
        let _ = self.sender.send(Command::Stop(shard));
    }

    /// Starts a stopped or new shard, empty; no-op on a running one.
    pub fn start(&self, shard: usize) {
        let _ = self.sender.send(Command::Start(shard));
    }

    /// Asks the thread to stop and waits for it. Idempotent.
    pub fn shutdown(&mut self) {
        let _ = self.sender.send(Command::Shutdown);
        if let Some(join) = self.join.take() {
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
        let mut worker = CacheWorker::spawn(2);
        let u = UserId::new(5);
        assert!(worker.get(1, u).is_none());
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
        let mut worker = CacheWorker::spawn(1);
        let u = UserId::new(1);
        worker.put(0, u, view_with(u, b"new", 3));
        worker.put(0, u, view_with(u, b"old", 1));
        let cached = worker.get(0, u).unwrap();
        assert_eq!(cached.len(), 3);
        worker.shutdown();
    }

    #[test]
    fn hits_share_the_shards_allocation_and_a_stale_put_leaves_it_alone() {
        let worker = CacheWorker::spawn(2);
        let u = UserId::new(4);
        let pushed = view_with(u, b"v2", 2);
        worker.put(1, u, pushed.clone());
        // Two `get`s and a `get_many` with a repeated key: one allocation,
        // the one the `Put` carried.
        let first = worker.get(1, u).unwrap();
        assert!(Arc::ptr_eq(&first, &pushed));
        assert!(Arc::ptr_eq(&first, &worker.get(1, u).unwrap()));
        let twice = || vec![(1, u, None), (1, u, None)];
        for (_, _, hit) in worker.get_many(twice(), false) {
            assert!(Arc::ptr_eq(&first, &hit.unwrap()));
        }
        // Detached hits are equal copies nobody else holds.
        for (_, _, hit) in worker.get_many(twice(), true) {
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
        let worker = CacheWorker::spawn(3);
        let (a, b) = (UserId::new(1), UserId::new(2));
        worker.put(0, a, view_with(a, b"a", 1));
        worker.put(2, b, view_with(b, b"b", 2));
        // Hits, a miss, a repeated key and a shard that does not exist.
        let keys = [(2, b), (0, b), (0, a), (2, b), (7, a)];
        let batch = worker.get_many(keys.iter().map(|&(s, u)| (s, u, None)).collect(), false);
        let asked: Vec<(usize, UserId)> = batch.iter().map(|&(s, u, _)| (s, u)).collect();
        assert_eq!(asked, keys, "the batch comes back in order");
        let owners: Vec<Option<(UserId, usize)>> = batch
            .iter()
            .map(|(_, _, v)| v.as_ref().map(|v| (v.owner(), v.len())))
            .collect();
        assert_eq!(
            owners,
            [Some((b, 2)), None, Some((a, 1)), Some((b, 2)), None]
        );
        assert!(worker.get_many(Vec::new(), false).is_empty());
    }

    #[test]
    fn a_stopped_shard_drops_its_views_and_ignores_puts_until_started() {
        let worker = CacheWorker::spawn(2);
        let u = UserId::new(9);
        worker.put(0, u, view_with(u, b"x", 1));
        worker.put(1, u, view_with(u, b"x", 1));
        worker.stop(0);
        assert!(worker.get(0, u).is_none());
        worker.put(0, u, view_with(u, b"late", 2));
        worker.evict(0, u);
        assert_eq!(worker.lens(), [0, 1], "the other shard is untouched");
        // It comes back empty; starting a running shard keeps its views.
        worker.start(0);
        worker.start(1);
        assert_eq!(worker.lens(), [0, 1]);
        worker.put(0, u, view_with(u, b"again", 1));
        // A shard past the end (an added rack) grows the table.
        worker.start(3);
        worker.put(3, u, view_with(u, b"new rack", 1));
        worker.put(2, u, view_with(u, b"never started", 1));
        assert_eq!(worker.lens(), [1, 1, 0, 1]);
    }

    #[test]
    fn shutdown_is_idempotent() {
        let mut worker = CacheWorker::spawn(1);
        worker.shutdown();
        worker.shutdown();
        assert!(worker.join.is_none());
        assert!(worker.get(0, UserId::new(1)).is_none());
        assert!(worker
            .get_many(vec![(0, UserId::new(1), None)], true)
            .is_empty());
        assert!(worker.lens().is_empty());
    }
}
