//! The client-facing cluster: broker logic + placement engine + cache
//! worker + persistent store.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use dynasore_core::{DynaSoReEngine, InitialPlacement};
use dynasore_graph::SocialGraph;
use dynasore_topology::Topology;
use dynasore_types::{
    ClusterEvent, CountingSink, Error, Event, MachineId, MemoryBudget, Message, PlacementEngine,
    Result, SimTime, TraceEventKind, TrafficSink, UserId, View,
};

use crate::obs::StoreObs;
use crate::persistent::{MockPersistentStore, PersistentStore};
use crate::server::{CacheWorker, Lookup};

/// Configuration of a [`Cluster`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Extra memory percentage available for replication (30% is the
    /// paper's headline configuration).
    pub extra_memory_percent: u32,
    /// Initial placement of views on servers.
    pub placement: InitialPlacement,
    /// Read by nothing in this crate: the store makes no randomised
    /// decision of its own, and the initial placement carries its own seed
    /// (`placement`). Kept because the `benchmark/` package sets it.
    pub seed: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            extra_memory_percent: 30,
            placement: InitialPlacement::Random { seed: 0 },
            seed: 0,
        }
    }
}

/// Runtime counters of a [`Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Reads served from a cache server.
    pub cache_hits: u64,
    /// Reads that had to fall back to the persistent store.
    pub cache_misses: u64,
    /// Events appended to the persistent store.
    pub persistent_writes: u64,
    /// Fetches served by the persistent store (misses + recovery).
    pub persistent_reads: u64,
    /// Views currently cached across all servers.
    pub cached_views: usize,
    /// Messages the placement engine emitted serving reads.
    pub reads: CountingSink,
    /// Messages the placement engine emitted serving writes.
    pub writes: CountingSink,
    /// Messages the placement engine emitted absorbing cluster events
    /// ([`Cluster::apply_event`]): its persistent-tier ones are recovery.
    pub events: CountingSink,
}

/// The placement engine and, under the same lock, its message tallies: the
/// `reads`, `writes` and `events` of a [`StoreStats`] whose other fields stay 0.
#[derive(Debug)]
struct Placement {
    engine: DynaSoReEngine,
    messages: StoreStats,
}

/// What the engine reported while handling one request or cluster event:
/// the replicas it served, in order ([`TrafficSink::served`]), as lookups,
/// those it unlinked ([`TrafficSink::unlinked`]) as evictions, and its
/// messages, counted. A machine's shard is its index.
#[derive(Debug, Default)]
struct Served {
    lookups: Vec<Lookup>,
    evicts: Vec<(usize, UserId)>,
    counts: CountingSink,
}

impl TrafficSink for Served {
    fn record(&mut self, message: Message) {
        self.counts.record(message);
    }

    fn record_n(&mut self, message: Message, count: usize) {
        self.counts.record_n(message, count);
    }

    fn served(&mut self, view: UserId, server: MachineId) {
        self.lookups.push((server.as_usize(), view, None));
    }

    fn unlinked(&mut self, view: UserId, server: MachineId) {
        self.evicts.push((server.as_usize(), view));
    }
}

/// A running in-memory view store: every cache server is a shard of one
/// cache worker thread, backed by a durable tier — the in-memory
/// [`MockPersistentStore`] by default ([`Cluster::spawn`]), or any
/// [`PersistentStore`] such as the file-backed
/// [`ShardedLogStore`](crate::ShardedLogStore)
/// ([`Cluster::spawn_with_store`]).
///
/// The DynaSoRe placement engine holds the only topology and makes every
/// routing and placement decision: a read is served from, and a write pushed
/// to, exactly the replicas it reports ([`TrafficSink::served`]), and the
/// copies of those it unlinks ([`TrafficSink::unlinked`]) are evicted.
///
/// Clients talk to the worker over one FIFO channel, and a read ships all
/// its lookups and evictions as one message. The channel orders each
/// client's own commands across *all* shards: the `Put`s and `Evict`s of a
/// write are applied before that client's next read looks anything up, so a
/// client reads its own writes, and a stale `Put` (a demand-fill racing a
/// write) never replaces a newer version. Commands of different clients
/// interleave in arrival order (a fill can land after another client's
/// eviction: see [`Cluster::write`]); [`Cluster::apply_event`] excludes
/// clients altogether.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Cluster {
    /// Shares the caller's graph: a [`SocialGraph`] clone is `O(1)`, and
    /// only a mutation would copy it.
    graph: SocialGraph,
    placement: Mutex<Placement>,
    /// The cached views: shard `i` is the server with `MachineId` `i`.
    cache: CacheWorker,
    persistent: Arc<dyn PersistentStore>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    shut_down: AtomicBool,
    /// Whether the persistent tier was successfully synced
    /// during shutdown — tracked separately from `shut_down` so a retry
    /// after a failed sync actually syncs instead of returning early.
    synced: AtomicBool,
    /// Optional flight-recorder observer; `None` (the default) keeps every
    /// path exactly the unobserved code. Cluster membership events are
    /// traced through it, stamped with monotonic wall-clock time.
    obs: Option<StoreObs>,
}

impl Cluster {
    /// Spawns the cluster: builds the placement engine for `graph` over
    /// `topology` and starts the cache worker, every shard empty.
    ///
    /// # Errors
    ///
    /// As [`Cluster::spawn_with_store`].
    pub fn spawn(graph: &SocialGraph, topology: Topology, config: StoreConfig) -> Result<Self> {
        Cluster::spawn_with_store(
            graph,
            topology,
            config,
            Arc::new(MockPersistentStore::new()),
        )
    }

    /// Spawns the cluster against an explicit durable tier. Passing a shared
    /// [`ShardedLogStore`](crate::ShardedLogStore) runs the cluster over
    /// on-disk log shards: killed-and-restarted cache servers then recover
    /// views by demand-filling from state that was (or can be) re-read from
    /// real bytes, and a reopen of the same directory after
    /// [`Cluster::shutdown`] sees every acknowledged write.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the engine cannot be built: an empty
    /// graph, a topology without view servers, or a partitioning initial
    /// placement (METIS, hierarchical METIS) asked to split fewer users than
    /// there are view servers.
    pub fn spawn_with_store(
        graph: &SocialGraph,
        topology: Topology,
        config: StoreConfig,
        persistent: Arc<dyn PersistentStore>,
    ) -> Result<Self> {
        let engine = DynaSoReEngine::builder()
            .topology(topology)
            .budget(MemoryBudget::with_extra_percent(
                graph.user_count(),
                config.extra_memory_percent,
            ))
            .initial_placement(config.placement.clone())
            .build(graph)?;

        Ok(Cluster {
            cache: CacheWorker::spawn(),
            graph: graph.clone(),
            placement: Mutex::new(Placement {
                engine,
                messages: StoreStats::default(),
            }),
            persistent,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            shut_down: AtomicBool::new(false),
            synced: AtomicBool::new(false),
            obs: None,
        })
    }

    /// Installs a flight-recorder observer: cluster membership events
    /// ([`Cluster::apply_event`]) are traced through it from now on. Share
    /// the same [`StoreObs`] with
    /// [`ShardedLogStore::open_observed`](crate::ShardedLogStore::open_observed)
    /// to interleave membership changes with the durable tier's commit and
    /// flusher events on one timeline.
    pub fn set_observer(&mut self, obs: StoreObs) {
        self.obs = Some(obs);
    }

    fn now(&self) -> SimTime {
        SimTime::from_secs(self.clock.fetch_add(1, Ordering::Relaxed))
    }

    fn check_user(&self, user: UserId) -> Result<()> {
        if self.shut_down.load(Ordering::Acquire) {
            return Err(Error::ClusterShutdown);
        }
        if self.graph.contains_user(user) {
            Ok(())
        } else {
            Err(Error::UnknownUser(user))
        }
    }

    /// The paper's `Write(u)` operation: persists a new event for `user` and
    /// updates every replica of her view the engine wrote.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownUser`] if the user is not in the social
    /// graph.
    pub fn write(&self, user: UserId, payload: Vec<u8>) -> Result<()> {
        self.check_user(user)?;
        // 1. The persistent store generates the new version of the view.
        let view = Arc::new(self.persistent.append(user, payload)?);
        // 2. The write proxy updates the placement statistics and pushes the
        //    new version — one allocation, shared — to each replica it wrote (§3.3).
        let (served, unwritten) = {
            let Placement { engine, messages } = &mut *self.placement.lock();
            let mut served = Served::default();
            engine.handle_write(user, self.now(), &mut served);
            messages.writes += served.counts;
            let written = |shard: &usize| served.lookups.iter().any(|&(s, ..)| s == *shard);
            let servers = engine.topology().servers().iter();
            let shards = servers.map(|server| server.machine().as_usize());
            let unwritten: Vec<usize> = shards.filter(|shard| !written(shard)).collect();
            (served, unwritten)
        };
        for &(shard, ..) in &served.lookups {
            self.cache.put(shard, user, view.clone());
        }
        for &(shard, owner) in &served.evicts {
            self.cache.evict(shard, owner);
        }
        // The probe: a copy on a server the engine did not write is a fill
        // that landed after another client's eviction. Deleting it (≈ 20× on
        // `write_durable`) waits for fixed-work memory and the cache as the
        // placement's slab (ROADMAP items 1 and 6).
        for shard in unwritten {
            if self.cache.get(shard, user).is_some() {
                self.cache.evict(shard, user);
            }
        }
        Ok(())
    }

    /// The paper's `Read(u, L)` operation: returns the views of every user
    /// in `targets`, served from the cache and demand-filled from the
    /// persistent store on a miss.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownUser`] if `user` is not in the social graph
    /// (unknown *targets* are skipped, mirroring a cache that simply has
    /// nothing for them).
    pub fn read(&self, user: UserId, targets: &[UserId]) -> Result<Vec<View>> {
        // Hits come detached: only a demand-filled view, which its shard now
        // shares, is cloned here.
        let owned = |view| Arc::try_unwrap(view).unwrap_or_else(|shared| View::clone(&shared));
        let views = self.lookup(user, targets, true)?;
        Ok(views.into_iter().map(owned).collect())
    }

    /// The one read path: the views of `targets` as the shards (on a miss,
    /// the persistent store) hold them, or with `detached` a copy per hit.
    /// Each view is looked up where the engine read (and counted) it, and
    /// the replicas the read unlinked are evicted in the same hand-off; a
    /// miss on one of those is served but not cached.
    fn lookup(&self, user: UserId, targets: &[UserId], detached: bool) -> Result<Vec<Arc<View>>> {
        self.check_user(user)?;
        let served = {
            let Placement { engine, messages } = &mut *self.placement.lock();
            let mut served = Served::default();
            // A view read evicts about one replica to admit another (in the
            // never-ticked serving regime), so one reservation each.
            served.lookups.reserve(targets.len());
            served.evicts.reserve(targets.len());
            engine.handle_read(user, targets, self.now(), &mut served);
            messages.reads += served.counts;
            served
        };
        // No followees or only unknown targets: nothing served or unlinked.
        if served.lookups.is_empty() {
            return Ok(Vec::new());
        }

        // One hand-off for the whole read; every lookup yields one view.
        let mut views: Vec<Arc<View>> = Vec::with_capacity(served.lookups.len());
        let mut misses = 0;
        let (found, evicts) = self
            .cache
            .get_many((served.lookups, served.evicts), detached)
            .ok_or(Error::ClusterShutdown)?;
        for (shard, target, cached) in found {
            let view = match cached {
                Some(view) => view,
                // A target repeated inside one batch misses at every
                // position (a later one may be served by a replica the read
                // just created): the first one fills, the others share its
                // view and count as hits, so hits + misses is the views
                // returned.
                None => match views.iter().find(|view| view.owner() == target) {
                    Some(first) => first.clone(),
                    None => {
                        // Cache miss: demand-fill from the persistent store.
                        misses += 1;
                        let view = Arc::new(self.persistent.fetch(target)?);
                        if !evicts.contains(&(shard, target)) {
                            self.cache.put(shard, target, view.clone());
                        }
                        view
                    }
                },
            };
            views.push(view);
        }
        self.misses.fetch_add(misses, Ordering::Relaxed);
        self.hits
            .fetch_add(views.len() as u64 - misses, Ordering::Relaxed);
        Ok(views)
    }

    /// Returns `user`'s social feed: the events of all the users she
    /// follows, newest first.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownUser`] if the user is not in the social
    /// graph.
    pub fn read_feed(&self, user: UserId) -> Result<Vec<Event>> {
        self.check_user(user)?;
        let views = self.lookup(user, self.graph.followees(user), false)?;
        // Cloning an event bumps its payload's count: every payload is read
        // first, so their cache misses overlap.
        let payloads = views
            .iter()
            .flat_map(|view| view.iter())
            .map(Event::payload);
        std::hint::black_box(payloads.fold(0, |acc, p| acc ^ p.first().copied().unwrap_or(0)));
        let mut events = Vec::with_capacity(views.iter().map(|view| view.len()).sum());
        for view in &views {
            events.extend(view.iter().cloned());
        }
        events.sort_by_key(|e| std::cmp::Reverse(e.timestamp()));
        Ok(events)
    }

    /// Number of replicas the placement engine currently keeps for `user`'s
    /// view.
    pub fn replica_count(&self, user: UserId) -> usize {
        self.placement.lock().engine.replica_count(user)
    }

    /// The social graph the cluster serves.
    pub fn graph(&self) -> &SocialGraph {
        &self.graph
    }

    /// Runtime counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            persistent_writes: self.persistent.write_count(),
            persistent_reads: self.persistent.read_count(),
            cached_views: self.cache.lens().iter().sum(),
            ..self.placement.lock().messages
        }
    }

    /// Applies a [`ClusterEvent`] to the *live* store: the engine applies it
    /// ([`PlacementEngine::on_cluster_change`]) — crashed machines lose
    /// their replicas, lost masters are re-filled from the persistent tier,
    /// drained and retired machines migrate theirs first, revived and added
    /// ones join empty — and the store evicts the copies of exactly the
    /// replicas it unlinked. Reads then demand-fill the new replicas.
    /// Returns the messages the engine emitted, also added to [`StoreStats::events`].
    ///
    /// Takes `&mut self`: cluster reconfiguration is an administrative
    /// operation that excludes concurrent clients for its (short) duration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ClusterShutdown`] after [`Cluster::shutdown`], and
    /// the topology's error, unchanged, for an event it refuses (unknown
    /// machines, growth on a flat layout); nothing changes then.
    pub fn apply_event(&mut self, event: ClusterEvent) -> Result<CountingSink> {
        if self.shut_down.load(Ordering::Acquire) {
            return Err(Error::ClusterShutdown);
        }
        let mut out = Served::default();
        let Placement { engine, messages } = self.placement.get_mut();
        engine.on_cluster_change(event, &mut out)?;
        messages.events += out.counts;
        if let Some(obs) = &self.obs {
            obs.trace(TraceEventKind::ClusterChange { event });
        }
        for (shard, owner) in out.evicts {
            self.cache.evict(shard, owner);
        }
        Ok(out.counts)
    }

    /// Stops the cache worker and rejects all further requests with
    /// [`Error::ClusterShutdown`]. The persistent tier is synced — which
    /// covers its flush — *before* the worker is joined, so every write
    /// acknowledged before this call is crash-durable once it returns `Ok` —
    /// a reopen of a file-backed tier's directory sees all of them.
    /// Idempotent once it has succeeded: further calls are no-ops. After an
    /// `Err`, calling it again retries the sync (the worker is only joined
    /// once); a file-backed tier that has failed once keeps returning its
    /// first I/O error until it is reopened.
    /// Dropping the cluster without calling this joins the worker just the
    /// same; only a `shutdown` that returned `Ok` guarantees the durable
    /// sync.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from syncing the persistent tier (the worker is
    /// still joined in that case).
    pub fn shutdown(&self) -> Result<()> {
        self.shut_down.store(true, Ordering::Release);
        // Durability first: acknowledged writes must hit disk even if the
        // worker refuses to join promptly. Retried on every call until it
        // succeeds, so an `Ok` from any call is the guarantee.
        let synced = if self.synced.load(Ordering::Acquire) {
            Ok(())
        } else {
            self.persistent
                .sync()
                .map(|()| self.synced.store(true, Ordering::Release))
        };
        self.cache.shutdown();
        synced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_graph::GraphPreset;
    use dynasore_types::{MachineId, MessageClass, RackId, SubtreeId};

    fn cluster() -> (Cluster, SocialGraph) {
        let graph = SocialGraph::generate(GraphPreset::TwitterLike, 150, 3).unwrap();
        let topology = Topology::tree(2, 2, 4, 1).unwrap();
        let cluster = Cluster::spawn(&graph, topology, StoreConfig::default()).unwrap();
        (cluster, graph)
    }

    /// The engine's topology, which numbers the shards.
    fn topology(cluster: &Cluster) -> Topology {
        cluster.placement.lock().engine.topology().clone()
    }

    /// The key-set half of "cache contents == placement at quiescence":
    /// panics unless every copy a shard holds is of a replica
    /// `replica_servers` lists on that shard's machine. Returns the copies.
    fn replica_copies(cluster: &Cluster, context: &str) -> Vec<Arc<View>> {
        let mut batch = Vec::new();
        {
            let engine = &cluster.placement.lock().engine;
            for user in cluster.graph.users() {
                for machine in engine.replica_servers(user) {
                    batch.push((machine.as_usize(), user, None));
                }
            }
        }
        let held = cluster.cache.lens();
        let mut of_replicas = vec![0; held.len()];
        let mut copies = Vec::new();
        let (found, _) = cluster.cache.get_many((batch, Vec::new()), false).unwrap();
        for (shard, _, copy) in found {
            if let Some(copy) = copy {
                of_replicas[shard] += 1;
                copies.push(copy);
            }
        }
        assert_eq!(
            held, of_replicas,
            "{context}: views held vs replica copies per shard"
        );
        copies
    }

    /// Knuth's multiplicative hash: scatters a seeded step counter.
    fn scatter(n: u32) -> u32 {
        n.wrapping_mul(2_654_435_761) >> 8
    }

    /// One of the seven cluster events, aimed somewhere in (or just past)
    /// the 24 machines and 6 racks of [`cluster`]'s tree.
    fn scattered_event(pick: u32) -> ClusterEvent {
        let machine = MachineId::new(pick % 24);
        let rack = RackId::new(pick % 6);
        match pick / 24 % 7 {
            0 => ClusterEvent::MachineDown { machine },
            1 => ClusterEvent::MachineUp { machine },
            2 => ClusterEvent::DrainMachine { machine },
            3 => ClusterEvent::RackDown { rack },
            4 => ClusterEvent::RackUp { rack },
            5 => ClusterEvent::AddRack,
            _ => ClusterEvent::RemoveRack { rack },
        }
    }

    /// A durable tier whose `sync` fails once — to pin the shutdown retry
    /// contract.
    #[derive(Debug)]
    struct FlakySyncStore {
        inner: MockPersistentStore,
        fail_next_sync: AtomicBool,
        syncs: AtomicU64,
    }

    impl PersistentStore for FlakySyncStore {
        fn append(&self, user: UserId, payload: Vec<u8>) -> Result<View> {
            self.inner.append(user, payload)
        }
        fn fetch(&self, user: UserId) -> Result<View> {
            self.inner.fetch(user)
        }
        fn sync(&self) -> Result<()> {
            self.syncs.fetch_add(1, Ordering::Relaxed);
            if self.fail_next_sync.swap(false, Ordering::AcqRel) {
                Err(Error::io("injected sync failure"))
            } else {
                Ok(())
            }
        }
        fn write_count(&self) -> u64 {
            self.inner.write_count()
        }
        fn read_count(&self) -> u64 {
            self.inner.read_count()
        }
    }

    #[test]
    fn shutdown_retries_the_sync_after_a_failure_and_is_then_idempotent() {
        let graph = SocialGraph::generate(GraphPreset::TwitterLike, 60, 1).unwrap();
        let topology = Topology::tree(2, 2, 3, 1).unwrap();
        let store = Arc::new(FlakySyncStore {
            inner: MockPersistentStore::new(),
            fail_next_sync: AtomicBool::new(true),
            syncs: AtomicU64::new(0),
        });
        let cluster =
            Cluster::spawn_with_store(&graph, topology, StoreConfig::default(), store.clone())
                .unwrap();
        let user = graph.users().next().unwrap();
        cluster.write(user, b"must survive".to_vec()).unwrap();

        // First shutdown: sync fails, the error is surfaced, requests are
        // rejected from now on — and the worker is joined all the same.
        assert!(cluster.cache.join.lock().is_some());
        assert!(cluster.shutdown().is_err());
        assert!(cluster.cache.join.lock().is_none());
        assert!(matches!(
            cluster.write(user, vec![]),
            Err(Error::ClusterShutdown)
        ));

        // Retry actually re-runs the sync (it must not be swallowed by the
        // shut_down flag) and succeeds; after that, further calls are
        // no-ops.
        cluster.shutdown().unwrap();
        let syncs_after_success = store.syncs.load(Ordering::Relaxed);
        assert_eq!(syncs_after_success, 2, "retry must re-run the sync");
        cluster.shutdown().unwrap();
        assert_eq!(store.syncs.load(Ordering::Relaxed), syncs_after_success);
    }

    #[test]
    fn read_your_writes_through_a_follower() {
        let (cluster, graph) = cluster();
        // Find an author who has at least one follower.
        let author = graph
            .users()
            .find(|&u| !graph.followers(u).is_empty())
            .unwrap();
        let reader = graph.followers(author)[0];
        cluster.write(author, b"first post".to_vec()).unwrap();
        cluster.write(author, b"second post".to_vec()).unwrap();
        let feed = cluster.read_feed(reader).unwrap();
        assert!(feed.iter().any(|e| e.payload() == b"second post"));
        // Newest first.
        let author_events: Vec<&Event> = feed.iter().filter(|e| e.author() == author).collect();
        assert_eq!(author_events[0].payload(), b"second post");
        cluster.shutdown().unwrap();
    }

    #[test]
    fn misses_fill_the_cache_and_turn_into_hits() {
        let (cluster, graph) = cluster();
        let author = graph
            .users()
            .find(|&u| !graph.followers(u).is_empty())
            .unwrap();
        let reader = graph.followers(author)[0];
        // Read before any write: every fetched view is a miss.
        let _ = cluster.read(reader, &[author]).unwrap();
        let after_first = cluster.stats();
        assert!(after_first.cache_misses >= 1);
        // Reading the same view again hits the cache.
        let _ = cluster.read(reader, &[author]).unwrap();
        let after_second = cluster.stats();
        assert!(after_second.cache_hits >= 1);
        assert_eq!(after_second.cache_misses, after_first.cache_misses);
        assert!(after_second.cached_views >= 1);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn a_target_repeated_in_one_read_is_filled_once() {
        let (cluster, graph) = cluster();
        let author = graph
            .users()
            .find(|&u| !graph.followers(u).is_empty())
            .unwrap();
        let reader = graph.followers(author)[0];
        cluster.write(author, b"once".to_vec()).unwrap();
        // The write cached the view on its replicas; start from a miss.
        for shard in 0..topology(&cluster).machine_count() {
            cluster.cache.evict(shard, author);
        }
        let before = cluster.stats();
        assert_eq!(before.cached_views, 0);

        // Both positions miss inside the one batch; the view is fetched and
        // cached once and served at both, as one miss and one hit.
        let views = cluster.read(reader, &[author, author]).unwrap();
        assert_eq!(views.len(), 2);
        assert_eq!(views[0], views[1]);
        assert_eq!(views[0].latest().unwrap().payload(), b"once");
        let after = cluster.stats();
        assert_eq!(after.cache_misses, before.cache_misses + 1);
        assert_eq!(after.cache_hits, before.cache_hits + 1);
        assert_eq!(after.persistent_reads, before.persistent_reads + 1);
        assert_eq!(after.cached_views, 1);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn unknown_users_are_rejected() {
        let (cluster, _) = cluster();
        let ghost = UserId::new(9_999);
        assert!(matches!(
            cluster.write(ghost, vec![]),
            Err(Error::UnknownUser(_))
        ));
        assert!(matches!(
            cluster.read(ghost, &[]),
            Err(Error::UnknownUser(_))
        ));
        assert!(matches!(
            cluster.read_feed(ghost),
            Err(Error::UnknownUser(_))
        ));
        // Unknown targets are skipped, not errors.
        let known = UserId::new(0);
        let views = cluster.read(known, &[ghost]).unwrap();
        assert!(views.is_empty());
        cluster.shutdown().unwrap();
    }

    #[test]
    fn a_read_that_routes_nothing_returns_empty_and_counts_nothing() {
        // User 2 follows nobody; user 0 follows user 1.
        let mut graph = SocialGraph::new(3);
        graph.add_edge(UserId::new(0), UserId::new(1));
        let topology = Topology::tree(2, 2, 3, 1).unwrap();
        let cluster = Cluster::spawn(&graph, topology, StoreConfig::default()).unwrap();
        let (reader, loner, ghost) = (UserId::new(0), UserId::new(2), UserId::new(9_999));
        cluster.write(loner, b"unread".to_vec()).unwrap();
        let before = cluster.stats();
        assert!(cluster.read_feed(loner).unwrap().is_empty());
        assert!(cluster.read(reader, &[]).unwrap().is_empty());
        assert!(cluster.read(reader, &[ghost, ghost]).unwrap().is_empty());
        assert_eq!(cluster.stats(), before);
        // The same calls still answer once there is something to route.
        assert_eq!(cluster.read(reader, &[ghost, loner]).unwrap().len(), 1);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn writes_reach_every_replica() {
        let (cluster, graph) = cluster();
        let author = graph
            .users()
            .find(|&u| !graph.followers(u).is_empty())
            .unwrap();
        cluster.write(author, b"v1".to_vec()).unwrap();
        assert!(cluster.replica_count(author) >= 1);
        let stats = cluster.stats();
        assert_eq!(stats.persistent_writes, 1);
        assert!(stats.cached_views >= 1);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn shutdown_is_idempotent_and_rejects_further_requests() {
        let (mut cluster, graph) = cluster();
        let user = graph.users().next().unwrap();
        cluster.write(user, b"pre-shutdown".to_vec()).unwrap();
        cluster.shutdown().unwrap();
        cluster.shutdown().unwrap(); // Second call is a no-op.
        assert!(matches!(
            cluster.write(user, b"post".to_vec()),
            Err(Error::ClusterShutdown)
        ));
        assert!(matches!(
            cluster.read(user, &[]),
            Err(Error::ClusterShutdown)
        ));
        assert!(matches!(
            cluster.read_feed(user),
            Err(Error::ClusterShutdown)
        ));
        assert!(matches!(
            cluster.apply_event(ClusterEvent::AddRack),
            Err(Error::ClusterShutdown)
        ));
        let message = Error::ClusterShutdown.to_string();
        assert!(message.contains("shut down"), "undescriptive: {message}");
    }

    /// A cache worker that is gone answers no lookup: a read that has views
    /// to serve fails instead of answering `Ok` with nothing, and counts
    /// neither a hit nor a miss.
    #[test]
    fn reads_fail_once_the_cache_worker_is_gone() {
        let (cluster, graph) = cluster();
        let reader = graph
            .users()
            .find(|&u| !graph.followees(u).is_empty())
            .unwrap();
        let author = graph.followees(reader)[0];
        cluster.write(author, b"cached".to_vec()).unwrap();
        assert_eq!(cluster.read(reader, &[author]).unwrap().len(), 1);
        let before = cluster.stats();
        cluster.cache.shutdown();
        assert!(matches!(
            cluster.read(reader, &[author]),
            Err(Error::ClusterShutdown)
        ));
        assert!(matches!(
            cluster.read_feed(reader),
            Err(Error::ClusterShutdown)
        ));
        let after = cluster.stats();
        assert_eq!(
            (after.cache_hits, after.cache_misses),
            (before.cache_hits, before.cache_misses)
        );
        cluster.shutdown().unwrap();
    }

    #[test]
    fn dropping_without_shutdown_joins_the_worker() {
        // The drop impl must neither hang nor leak (`tests/worker_thread.rs`
        // counts the process's threads around a drop).
        for seed in 0..3 {
            let graph = SocialGraph::generate(GraphPreset::TwitterLike, 60, seed).unwrap();
            let topology = Topology::tree(2, 2, 3, 1).unwrap();
            let cluster = Cluster::spawn(&graph, topology, StoreConfig::default()).unwrap();
            let user = graph.users().next().unwrap();
            cluster.write(user, vec![seed as u8]).unwrap();
            drop(cluster);
        }
    }

    #[test]
    fn killed_machines_fall_back_to_the_persistent_store() {
        let (mut cluster, graph) = cluster();
        let author = graph
            .users()
            .find(|&u| !graph.followers(u).is_empty())
            .unwrap();
        let reader = graph.followers(author)[0];
        cluster.write(author, b"durable".to_vec()).unwrap();
        let victim = {
            let engine = &cluster.placement.lock().engine;
            engine.replica_servers(author)[0]
        };
        let change = cluster
            .apply_event(ClusterEvent::MachineDown { machine: victim })
            .unwrap();
        assert!(
            change.persistent > 0,
            "losing a master must cost persistent-tier traffic"
        );
        assert!(change.protocol >= change.persistent);
        // The data survives the crash: the read is served via the recovered
        // replica, demand-filled from the persistent store.
        let views = cluster.read(reader, &[author]).unwrap();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].latest().unwrap().payload(), b"durable");
        assert!(!cluster
            .placement
            .lock()
            .engine
            .replica_servers(author)
            .contains(&victim));
        assert_eq!(cluster.stats().events, change);

        // Restart the machine: it rejoins empty and serves again.
        cluster
            .apply_event(ClusterEvent::MachineUp { machine: victim })
            .unwrap();
        let views = cluster.read(reader, &[author]).unwrap();
        assert_eq!(views.len(), 1);
        // Unknown machines are rejected.
        assert!(cluster
            .apply_event(ClusterEvent::MachineDown {
                machine: MachineId::new(9_999)
            })
            .is_err());
        cluster.shutdown().unwrap();
    }

    /// The tallies are the engine's messages. A twin engine, built from the
    /// same inputs and fed the same calls at the cluster's clock (one second
    /// per read or write), emits into a `Vec<Message>`: the cluster's read,
    /// write and event tallies must equal the twin's class counts of the
    /// same calls, each event's returned tally its own, and every user must
    /// keep as many replicas under either.
    #[test]
    fn tallies_equal_a_twin_engines_messages() {
        const STEPS: u32 = 400;
        let graph = SocialGraph::generate(GraphPreset::TwitterLike, 150, 3).unwrap();
        let users = graph.user_count() as u32;
        let topology = Topology::tree(2, 2, 4, 1).unwrap();
        let config = StoreConfig::default();
        let mut twin = DynaSoReEngine::builder()
            .topology(topology.clone())
            .budget(MemoryBudget::with_extra_percent(
                graph.user_count(),
                config.extra_memory_percent,
            ))
            .initial_placement(config.placement.clone())
            .build(&graph)
            .unwrap();
        let mut cluster = Cluster::spawn(&graph, topology, config).unwrap();
        let count = |messages: &[Message]| {
            let of = |keep: &dyn Fn(&Message) -> bool| messages.iter().filter(|m| keep(m)).count();
            CountingSink {
                application: of(&|m| m.class == MessageClass::Application) as u64,
                protocol: of(&|m| m.class == MessageClass::Protocol) as u64,
                persistent: of(&|m| m.involves_persistent()) as u64,
            }
        };
        let (mut reads, mut writes, mut events) = Default::default();
        let mut clock = 0;
        for step in 0..STEPS {
            let pick = scatter(step);
            let user = UserId::new(pick % users);
            let followees = graph.followees(user);
            let mut out: Vec<Message> = Vec::new();
            let now = SimTime::from_secs(clock);
            match pick / users % 16 {
                0 => {
                    let event = scattered_event(pick / 16);
                    match cluster.apply_event(event) {
                        Ok(tally) => {
                            twin.on_cluster_change(event, &mut out).unwrap();
                            assert_eq!(tally, count(&out), "step {step}: {event}");
                            events += count(&out);
                        }
                        Err(_) => assert!(twin.on_cluster_change(event, &mut out).is_err()),
                    }
                    continue;
                }
                1..=4 => {
                    cluster.write(user, pick.to_le_bytes().to_vec()).unwrap();
                    twin.handle_write(user, now, &mut out);
                    writes += count(&out);
                }
                5..=8 => {
                    // Two followees, one of them twice, and a stranger.
                    let mut targets: Vec<UserId> = followees.iter().take(2).copied().collect();
                    targets.extend(followees.first());
                    targets.push(UserId::new(9_999));
                    cluster.read(user, &targets).unwrap();
                    twin.handle_read(user, &targets, now, &mut out);
                    reads += count(&out);
                }
                _ => {
                    cluster.read_feed(user).unwrap();
                    twin.handle_read(user, followees, now, &mut out);
                    reads += count(&out);
                }
            }
            clock += 1;
        }
        let stats = cluster.stats();
        assert_eq!(
            (stats.reads, stats.writes, stats.events),
            (reads, writes, events)
        );
        assert!(reads.application > 0 && writes.application > 0 && events.persistent > 0);
        for user in graph.users() {
            assert_eq!(
                cluster.replica_count(user),
                twin.replica_count(user),
                "{user}"
            );
        }
        cluster.shutdown().unwrap();
    }

    #[test]
    fn machine_down_empties_exactly_one_shard() {
        let (mut cluster, graph) = cluster();
        // Where the next read of `author` on behalf of `reader` is served.
        let route = |cluster: &Cluster, reader, author| {
            let engine = &cluster.placement.lock().engine;
            let proxy = engine.read_proxy(reader).unwrap().machine();
            engine.closest_replica(author, proxy).unwrap()
        };
        // Warm the cache through reads, remembering each pair's server.
        let pairs: Vec<(UserId, UserId)> = graph
            .users()
            .filter_map(|reader| Some((reader, *graph.followees(reader).first()?)))
            .collect();
        let mut routed = Vec::new();
        for &(reader, author) in &pairs {
            routed.push(route(&cluster, reader, author));
            cluster.read(reader, &[author]).unwrap();
        }

        let before = cluster.cache.lens();
        let victim_shard = (0..before.len()).max_by_key(|&s| before[s]).unwrap();
        assert!(before[victim_shard] > 0);
        let victim = MachineId::new(victim_shard as u32);
        cluster
            .apply_event(ClusterEvent::MachineDown { machine: victim })
            .unwrap();
        // The victim's shard empties; another loses at most the replicas
        // evicted to make room for the victim's recovered masters.
        let after = cluster.cache.lens();
        assert_eq!(after[victim_shard], 0, "the victim's shard");
        assert!(after.iter().zip(&before).all(|(now, was)| now <= was));
        assert_eq!(cluster.stats().cached_views, after.iter().sum::<usize>());
        replica_copies(&cluster, "after the crash");

        // Reads route around the victim, and one served by a shard that
        // still holds the view hits.
        let (mut still_hit, mut rerouted_off_victim) = (0, 0);
        for (&(reader, author), &was) in pairs.iter().zip(&routed) {
            let misses = cluster.stats().cache_misses;
            let now = route(&cluster, reader, author);
            let held = cluster.cache.get(now.as_usize(), author).is_some();
            cluster.read(reader, &[author]).unwrap();
            assert_ne!(now, victim);
            if was == victim {
                rerouted_off_victim += 1;
            } else if held {
                assert_eq!(cluster.stats().cache_misses, misses, "{author} at {now}");
                still_hit += 1;
            }
        }
        assert!(still_hit > 0 && rerouted_off_victim > 0);

        // `MachineUp` brings the machine back empty; what the reads then
        // cache is of replicas the engine placed, and a stale second
        // `MachineUp` evicts nothing.
        cluster
            .apply_event(ClusterEvent::MachineUp { machine: victim })
            .unwrap();
        assert_eq!(cluster.cache.lens()[victim_shard], 0);
        for &(reader, author) in &pairs {
            cluster.read(reader, &[author]).unwrap();
        }
        let warm = cluster.cache.lens();
        cluster
            .apply_event(ClusterEvent::MachineUp { machine: victim })
            .unwrap();
        assert_eq!(cluster.cache.lens(), warm);
        replica_copies(&cluster, "after the repair");
        cluster.shutdown().unwrap();
    }

    #[test]
    fn rack_failure_and_live_resize_keep_serving() {
        let (mut cluster, graph) = cluster();
        let author = graph
            .users()
            .find(|&u| !graph.followers(u).is_empty())
            .unwrap();
        let reader = graph.followers(author)[0];
        cluster
            .write(author, b"survives the rack".to_vec())
            .unwrap();
        cluster
            .apply_event(ClusterEvent::RackDown {
                rack: RackId::new(0),
            })
            .unwrap();
        let views = cluster.read(reader, &[author]).unwrap();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].latest().unwrap().payload(), b"survives the rack");

        // Grow the cluster while it runs: the new servers join empty and
        // the store keeps serving.
        let cached = cluster.cache.lens();
        cluster.apply_event(ClusterEvent::AddRack).unwrap();
        assert_eq!(cluster.cache.lens(), cached);
        cluster.write(author, b"after resize".to_vec()).unwrap();
        let feed = cluster.read_feed(reader).unwrap();
        assert!(feed.iter().any(|e| e.payload() == b"after resize"));
        replica_copies(&cluster, "after the resize");
        cluster.shutdown().unwrap();
    }

    #[test]
    fn remove_rack_retires_its_shards_and_keeps_serving() {
        let (mut cluster, graph) = cluster();
        let author = graph
            .users()
            .find(|&u| !graph.followers(u).is_empty())
            .unwrap();
        let reader = graph.followers(author)[0];
        cluster.write(author, b"before shrink".to_vec()).unwrap();

        // Decommission rack 0 while the store runs: the engine evacuates,
        // and the rack's shards empty for good.
        let rack = RackId::new(0);
        let rack_machines = topology(&cluster).machines_in_subtree(SubtreeId::Rack(0));
        cluster
            .apply_event(ClusterEvent::RemoveRack { rack })
            .unwrap();
        assert!(topology(&cluster).is_rack_retired(rack));

        // A stale repair event for the retired rack is a harmless no-op: no
        // machine revives, so none is placed a replica or caches a view.
        cluster.apply_event(ClusterEvent::RackUp { rack }).unwrap();

        // The acknowledged write survives the shrink and new writes land.
        let views = cluster.read(reader, &[author]).unwrap();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].latest().unwrap().payload(), b"before shrink");
        cluster.write(author, b"after shrink".to_vec()).unwrap();
        let feed = cluster.read_feed(reader).unwrap();
        assert!(feed.iter().any(|e| e.payload() == b"after shrink"));
        let topology = topology(&cluster);
        let lens = cluster.cache.lens();
        for machine in rack_machines {
            assert!(!topology.is_live(machine));
            assert_eq!(
                lens.get(machine.as_usize()).copied().unwrap_or(0),
                0,
                "{machine}"
            );
        }
        replica_copies(&cluster, "after the shrink");

        // Removing an already-retired rack is rejected.
        assert!(cluster
            .apply_event(ClusterEvent::RemoveRack { rack })
            .is_err());
        cluster.shutdown().unwrap();
    }

    /// "Cache contents == placement at quiescence", both halves: after any
    /// single-threaded interleaving of reads, feed reads, writes and
    /// cluster events — stale, refused and past-the-end ones included —
    /// every copy a shard holds is of a replica the engine lists on that
    /// shard's machine (checked after every step: a dead or retired machine
    /// holds no replica, so its shard holds nothing), and at the end every
    /// such copy is the persistent tier's current version, as was every
    /// answer on the way. The key sets need not be equal: a new replica is
    /// filled by the first read served from it. Memory is ample (200 %
    /// extra), so that no run of failures here leaves a view without a live
    /// server — a read skips such a target.
    #[test]
    fn every_answer_and_every_replica_copy_is_the_persistent_tiers_version() {
        const STEPS: u32 = 300;
        let graph = SocialGraph::generate(GraphPreset::TwitterLike, 60, 3).unwrap();
        let users = graph.user_count() as u32;
        let config = StoreConfig {
            extra_memory_percent: 200,
            ..StoreConfig::default()
        };
        for seed in 0..4u32 {
            let tree = Topology::tree(2, 2, 4, 1).unwrap();
            let mut cluster = Cluster::spawn(&graph, tree, config.clone()).unwrap();
            let current = |cluster: &Cluster, user| cluster.persistent.fetch(user).unwrap();
            let (mut events, mut feeds) = (0, 0);
            for step in 0..STEPS {
                let pick = scatter(seed * STEPS + step);
                let user = UserId::new(pick % users);
                let followees = graph.followees(user);
                match pick / users % 16 {
                    0 => {
                        let event = scattered_event(pick / 16);
                        let before = topology(&cluster);
                        match cluster.apply_event(event) {
                            Ok(_) => events += 1,
                            Err(_) => assert_eq!(topology(&cluster), before, "refused {event}"),
                        }
                    }
                    1..=4 => cluster.write(user, pick.to_le_bytes().to_vec()).unwrap(),
                    5..=8 => {
                        // Two followees, one of them twice, and a stranger.
                        let mut targets: Vec<UserId> = followees.iter().take(2).copied().collect();
                        targets.extend(followees.first());
                        targets.push(UserId::new(9_999));
                        let expected: Vec<View> = targets[..targets.len() - 1]
                            .iter()
                            .map(|&t| current(&cluster, t))
                            .collect();
                        assert_eq!(cluster.read(user, &targets).unwrap(), expected);
                    }
                    _ => {
                        let mut expected: Vec<Event> = Vec::new();
                        for &followee in followees {
                            expected.extend(current(&cluster, followee).iter().cloned());
                        }
                        expected.sort_by_key(|e| std::cmp::Reverse(e.timestamp()));
                        assert_eq!(cluster.read_feed(user).unwrap(), expected, "seed {seed}");
                        feeds += !expected.is_empty() as u32;
                    }
                }
                replica_copies(&cluster, &format!("seed {seed} step {step}"));
            }
            assert!(events > 0 && feeds > 0, "seed {seed}: nothing exercised");

            let copies = replica_copies(&cluster, &format!("seed {seed}"));
            for copy in &copies {
                let version = current(&cluster, copy.owner()).version();
                assert_eq!(copy.version(), version, "seed {seed}: {}", copy.owner());
            }
            assert!(!copies.is_empty(), "seed {seed}: no replica holds a copy");
            cluster.shutdown().unwrap();
        }
    }

    /// The routing policy (§3.2) decides which replica serves a read, and
    /// that server counts it: the store must serve each view from the
    /// replica the broker read *before* the engine reacted, not from
    /// wherever the reaction left the proxy and the replicas. Every target
    /// is evicted before the read, so the one shard the read fills is the
    /// one it was served from — unless the reaction unlinked that replica,
    /// and then the read fills none.
    #[test]
    fn each_view_is_served_from_the_replica_the_engine_read() {
        const STEPS: u32 = 300;
        let graph = SocialGraph::generate(GraphPreset::TwitterLike, 60, 3).unwrap();
        let users = graph.user_count() as u32;
        let config = StoreConfig {
            extra_memory_percent: 200,
            ..StoreConfig::default()
        };
        let mut unlinked = 0;
        for seed in 0..4u32 {
            let topology = Topology::tree(2, 2, 4, 1).unwrap();
            let mut cluster = Cluster::spawn(&graph, topology, config.clone()).unwrap();
            let mut filled = 0;
            for step in 0..STEPS {
                let pick = scatter(seed * STEPS + step);
                let user = UserId::new(pick % users);
                let followees = graph.followees(user);
                let feed = match pick / users % 16 {
                    0 => {
                        let _ = cluster.apply_event(scattered_event(pick / 16));
                        continue;
                    }
                    1..=4 => {
                        cluster.write(user, pick.to_le_bytes().to_vec()).unwrap();
                        continue;
                    }
                    5..=8 => false,
                    _ => true,
                };
                // Two followees, one of them twice, and a stranger; or the feed.
                let mut targets: Vec<UserId> = followees.iter().take(2).copied().collect();
                targets.extend(followees.first());
                targets.push(UserId::new(9_999));
                let targets = if feed { followees } else { &targets[..] };

                let (shards, expected) = {
                    let engine = &cluster.placement.lock().engine;
                    let proxy = engine.read_proxy(user).unwrap().machine();
                    let mut expected: Vec<(UserId, usize)> = Vec::new();
                    for &target in targets {
                        let Some(machine) = engine.closest_replica(target, proxy) else {
                            continue;
                        };
                        if expected.iter().all(|&(t, _)| t != target) {
                            expected.push((target, machine.as_usize()));
                        }
                    }
                    (engine.topology().machine_count(), expected)
                };
                for &(target, _) in &expected {
                    for shard in 0..shards {
                        cluster.cache.evict(shard, target);
                    }
                }
                if feed {
                    cluster.read_feed(user).unwrap();
                } else {
                    cluster.read(user, targets).unwrap();
                }
                for &(target, shard) in &expected {
                    let holders: Vec<usize> = (0..shards)
                        .filter(|&s| cluster.cache.get(s, target).is_some())
                        .collect();
                    // Empty exactly when the read itself unlinked the replica.
                    let replicas = cluster.placement.lock().engine.replica_servers(target);
                    let kept = replicas.contains(&MachineId::new(shard as u32));
                    let want: &[usize] = if kept { &[shard] } else { &[] };
                    assert_eq!(holders, want, "seed {seed} step {step}: {target}");
                    filled += holders.len();
                    unlinked += !kept as u32;
                }
            }
            assert!(filled > 0, "seed {seed}: nothing filled");
            cluster.shutdown().unwrap();
        }
        assert!(
            unlinked > 0,
            "no read unlinked the replica it was served from"
        );
    }

    /// The key-set invariant under two clients. Each races its demand
    /// fills against the unlinks of the other's reads and writes, so a fill
    /// can land on a shard after the engine unlinked that replica. Once
    /// both have joined and every user has written once more, no shard may
    /// hold a copy of a replica the engine does not list: today the write
    /// probe in [`Cluster::write`] sweeps such late fills, and this test is
    /// the net for closing the race by construction instead.
    #[test]
    fn racing_clients_leave_only_listed_replicas_once_every_user_writes() {
        const STEPS: u32 = 600;
        let graph = SocialGraph::generate(GraphPreset::TwitterLike, 60, 3).unwrap();
        let users = graph.user_count() as u32;
        for seed in 0..8u32 {
            let topology = Topology::tree(2, 2, 4, 1).unwrap();
            let cluster = Cluster::spawn(&graph, topology, StoreConfig::default()).unwrap();
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for client in 0..2u32 {
                    let (cluster, graph, start) = (&cluster, &graph, &start);
                    scope.spawn(move || {
                        start.wait();
                        for step in 0..STEPS {
                            let pick = scatter((seed * 2 + client) * STEPS + step);
                            let user = UserId::new(pick % users);
                            match pick / users % 8 {
                                0 | 1 => cluster.write(user, pick.to_le_bytes().to_vec()).unwrap(),
                                2..=4 => drop(cluster.read(user, graph.followees(user)).unwrap()),
                                _ => drop(cluster.read_feed(user).unwrap()),
                            }
                        }
                    });
                }
            });
            for user in graph.users() {
                cluster.write(user, b"settle".to_vec()).unwrap();
            }
            replica_copies(&cluster, &format!("seed {seed}"));
            cluster.shutdown().unwrap();
        }
    }

    #[test]
    fn concurrent_clients_make_progress() {
        let graph = SocialGraph::generate(GraphPreset::TwitterLike, 100, 9).unwrap();
        let topology = Topology::tree(2, 2, 4, 1).unwrap();
        let cluster = Cluster::spawn(&graph, topology, StoreConfig::default()).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let cluster = &cluster;
                scope.spawn(move || {
                    for i in 0..50u32 {
                        let user = UserId::new((t * 25 + i) % 100);
                        cluster.write(user, vec![t as u8, i as u8]).unwrap();
                        let _ = cluster.read_feed(user).unwrap();
                    }
                });
            }
        });
        let stats = cluster.stats();
        assert_eq!(stats.persistent_writes, 200);
        assert!(stats.cache_hits + stats.cache_misses > 0);
        cluster.shutdown().unwrap();
    }
}
