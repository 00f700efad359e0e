//! The cache worker thread.
//!
//! Every view server of the topology is one *shard* — a plain
//! `HashMap<UserId, View>` — and a single worker thread owns them all,
//! indexed by `Topology::server_ordinal`. Brokers (which in the paper only
//! orchestrate requests) are folded into the client call path; a read ships
//! all its lookups to the worker as one [`Command::GetMany`], so it pays one
//! hand-off per request instead of one per view.
//!
//! Commands travel over one FIFO channel, so whatever a client sent before —
//! a `Put`, an `Evict`, a `Stop` — has been applied to *every* shard by the
//! time the worker answers that client's next lookup.

use std::collections::HashMap;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::thread::JoinHandle;

use dynasore_types::{UserId, View};

/// Commands understood by the cache worker. `usize` fields are shard indices.
#[derive(Debug)]
enum Command {
    /// Return the cached view of a user, if present.
    Get(usize, UserId, SyncSender<Option<View>>),
    /// Return the cached views of a batch of `(shard, user)` keys, in order.
    GetMany(Vec<(usize, UserId)>, SyncSender<Vec<Option<View>>>),
    /// Insert or refresh the cached view of a user (newer versions win).
    Put(usize, UserId, View),
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
type Shards = Vec<Option<HashMap<UserId, View>>>;

fn lookup(shards: &Shards, shard: usize, user: UserId) -> Option<View> {
    shards.get(shard)?.as_ref()?.get(&user).cloned()
}

fn run(mut shards: Shards, commands: Receiver<Command>) {
    while let Ok(command) = commands.recv() {
        match command {
            Command::Get(shard, user, reply) => {
                let _ = reply.send(lookup(&shards, shard, user));
            }
            Command::GetMany(keys, reply) => {
                let views = keys.iter().map(|&(s, u)| lookup(&shards, s, u)).collect();
                let _ = reply.send(views);
            }
            Command::Put(shard, user, view) => {
                if let Some(Some(views)) = shards.get_mut(shard) {
                    match views.get_mut(&user) {
                        Some(existing) => existing.replace_from(&view),
                        None => {
                            views.insert(user, view);
                        }
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
    pub fn get(&self, shard: usize, user: UserId) -> Option<View> {
        self.ask(|reply| Command::Get(shard, user, reply)).flatten()
    }

    /// Fetches the cached views of `keys` in one hand-off: one entry per
    /// key, in order.
    pub fn get_many(&self, keys: &[(usize, UserId)]) -> Vec<Option<View>> {
        self.ask(|reply| Command::GetMany(keys.to_vec(), reply))
            .unwrap_or_else(|| vec![None; keys.len()])
    }

    /// Pushes a view into a shard.
    pub fn put(&self, shard: usize, user: UserId, view: View) {
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

    fn view_with(user: UserId, payload: &[u8], version_bumps: u32) -> View {
        let mut v = View::new(user);
        for i in 0..version_bumps {
            v.push(Event::new(
                user,
                SimTime::from_secs(i as u64),
                payload.to_vec(),
            ));
        }
        v
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
    fn get_many_answers_every_key_in_order() {
        let worker = CacheWorker::spawn(3);
        let (a, b) = (UserId::new(1), UserId::new(2));
        worker.put(0, a, view_with(a, b"a", 1));
        worker.put(2, b, view_with(b, b"b", 2));
        // Hits, a miss, a repeated key and a shard that does not exist.
        let keys = [(2, b), (0, b), (0, a), (2, b), (7, a)];
        let owners: Vec<Option<(UserId, usize)>> = worker
            .get_many(&keys)
            .into_iter()
            .map(|v| v.map(|v| (v.owner(), v.len())))
            .collect();
        assert_eq!(
            owners,
            [Some((b, 2)), None, Some((a, 1)), Some((b, 2)), None]
        );
        assert!(worker.get_many(&[]).is_empty());
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
        assert_eq!(worker.get_many(&[(0, UserId::new(1))]).len(), 1);
        assert!(worker.lens().is_empty());
    }
}
