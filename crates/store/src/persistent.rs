//! The durable backing store.
//!
//! DynaSoRe "relies upon a persistent store that works independently … .
//! Updates to the data are persisted before they are written to DynaSoRe to
//! guarantee that they can be recovered in the presence of faulty DynaSoRe
//! servers" (§2.2). The [`PersistentStore`] trait is that store's interface
//! as the cluster consumes it: writes land here first, cache misses and
//! recovery reads are served from here. Two implementations ship —
//! [`MockPersistentStore`] (an in-memory map, the default for pure
//! simulations) and [`crate::ShardedLogStore`] (the file-backed tier whose
//! recovery reads real bytes: one or more group-committed log shards).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use dynasore_types::{Event, Result, SimTime, UserId, View};

/// The durable tier as a [`crate::Cluster`] consumes it (the paper's §2.2
/// system of record): every write is persisted here before the caches are
/// told, misses and recovery demand-fill from here, and
/// [`flush`](PersistentStore::flush)/[`sync`](PersistentStore::sync) are the
/// explicit durability points; the cluster's shutdown drives `sync`.
///
/// Implementations must be shareable across the cluster's client threads
/// (`Send + Sync`).
pub trait PersistentStore: Send + Sync + std::fmt::Debug {
    /// Appends an event with `payload` to `user`'s view and returns the new
    /// version of the view (the paper's write path: the persistent store
    /// generates the new version, then notifies the cache).
    ///
    /// # Errors
    ///
    /// I/O errors from durable implementations; infallible for the mock.
    fn append(&self, user: UserId, payload: Vec<u8>) -> Result<View>;

    /// Fetches the current view of `user`, or an empty view if the user has
    /// never written.
    ///
    /// # Errors
    ///
    /// I/O errors from durable implementations; infallible for the mock.
    fn fetch(&self, user: UserId) -> Result<View>;

    /// Hands every acknowledged write to the operating system: it then
    /// survives a process crash, but not a machine crash. A no-op for
    /// in-memory implementations.
    ///
    /// # Errors
    ///
    /// I/O errors from durable implementations.
    fn flush(&self) -> Result<()> {
        Ok(())
    }

    /// Makes every acknowledged write crash-durable (fsync); this covers
    /// [`flush`](PersistentStore::flush). A no-op for in-memory
    /// implementations.
    ///
    /// # Errors
    ///
    /// I/O errors from durable implementations.
    fn sync(&self) -> Result<()> {
        Ok(())
    }

    /// Number of events appended so far.
    fn write_count(&self) -> u64;

    /// Number of fetches served (cache fills and recovery reads).
    fn read_count(&self) -> u64;
}

/// An in-memory stand-in for the persistent store (the system of record).
#[derive(Debug, Default)]
pub struct MockPersistentStore {
    views: RwLock<HashMap<UserId, View>>,
    /// Logical clock used to timestamp events.
    clock: AtomicU64,
    writes: AtomicU64,
    reads: AtomicU64,
}

impl MockPersistentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MockPersistentStore::default()
    }
}

impl PersistentStore for MockPersistentStore {
    fn append(&self, user: UserId, payload: Vec<u8>) -> Result<View> {
        let mut views = self.views.write();
        // Stamped under the write lock, so a view's timestamps rise in
        // version order however many writers race for one user.
        let timestamp = SimTime::from_secs(self.clock.fetch_add(1, Ordering::Relaxed));
        let view = views.entry(user).or_insert_with(|| View::new(user));
        view.push(Event::new(user, timestamp, payload));
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(view.clone())
    }

    fn fetch(&self, user: UserId) -> Result<View> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let views = self.views.read();
        Ok(views.get(&user).cloned().unwrap_or_else(|| View::new(user)))
    }

    fn write_count(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    fn read_count(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Barrier};

    use super::*;
    use crate::{ShardedConfig, ShardedLogStore};

    #[test]
    fn append_then_fetch_round_trips() {
        let store = MockPersistentStore::new();
        let u = UserId::new(3);
        assert!(store.fetch(u).unwrap().is_empty());
        let v1 = store.append(u, b"a".to_vec()).unwrap();
        let v2 = store.append(u, b"b".to_vec()).unwrap();
        assert_eq!(v1.len(), 1);
        assert_eq!(v2.len(), 2);
        assert!(v2.version() > v1.version());
        let fetched = store.fetch(u).unwrap();
        assert_eq!(fetched.len(), 2);
        assert_eq!(fetched.latest().unwrap().payload(), b"b");
        assert_eq!(store.write_count(), 2);
        assert!(store.read_count() >= 2);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let store = MockPersistentStore::new();
        let u = UserId::new(1);
        store.append(u, vec![1]).unwrap();
        store.append(u, vec![2]).unwrap();
        let view = store.fetch(u).unwrap();
        let times: Vec<u64> = view.iter().map(|e| e.timestamp().as_secs()).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    /// Client threads of the concurrent half, each appending to every one
    /// of [`SHARED_USERS`] in turn.
    const THREADS: u32 = 4;
    const SHARED_USERS: u32 = 3;
    const APPENDS_PER_THREAD: u32 = 600;

    /// Whether `view`'s timestamps strictly increase, oldest to newest.
    fn stamped_in_order(view: &View) -> bool {
        let times: Vec<SimTime> = view.iter().map(|e| e.timestamp()).collect();
        times.windows(2).all(|w| w[0] < w[1])
    }

    /// Checks the [`PersistentStore`] contract on `store`, which must be
    /// fresh, and returns every breach found. Sequentially: a round trip,
    /// each append bumping the version by exactly one, and the counts.
    /// Concurrently, with [`THREADS`] clients appending to the same users:
    /// every version is handed out exactly once, and timestamps strictly
    /// increase within every view an append returns and a fetch reads —
    /// the order `Cluster::read_feed` sorts by.
    fn contract_breaches(store: Arc<dyn PersistentStore>) -> Vec<String> {
        let mut breaches = Vec::new();
        let mut check = |ok: bool, what: String| {
            if !ok {
                breaches.push(what);
            }
        };
        let solo = UserId::new(100);
        let empty = store.fetch(solo).unwrap();
        check(
            empty.is_empty() && empty.version() == 0 && empty.owner() == solo,
            format!("a never-written user fetches {empty:?}"),
        );
        for i in 1..=5u64 {
            let view = store.append(solo, vec![i as u8; 3]).unwrap();
            check(
                view.version() == i,
                format!("append {i} returned version {}", view.version()),
            );
            check(
                view.latest().map(|e| (e.author(), e.payload())) == Some((solo, &[i as u8; 3][..])),
                format!("append {i} returned {view:?}"),
            );
            let fetched = store.fetch(solo).unwrap();
            check(
                fetched == view,
                format!("fetch after append {i} read {fetched:?}"),
            );
        }
        check(
            store.write_count() == 5,
            format!("write_count {}", store.write_count()),
        );
        check(
            store.read_count() == 6,
            format!("read_count {}", store.read_count()),
        );

        let start = Barrier::new(THREADS as usize);
        let clients: Vec<(Vec<(UserId, u64)>, usize)> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (store, start) = (&store, &start);
                    scope.spawn(move || {
                        let (mut versions, mut out_of_order) = (Vec::new(), 0);
                        start.wait();
                        for i in 0..APPENDS_PER_THREAD {
                            let user = UserId::new(i % SHARED_USERS);
                            let view = store.append(user, vec![t as u8, i as u8]).unwrap();
                            out_of_order += usize::from(!stamped_in_order(&view));
                            versions.push((user, view.version()));
                        }
                        (versions, out_of_order)
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let total = THREADS * APPENDS_PER_THREAD;
        let out_of_order: usize = clients.iter().map(|(_, n)| n).sum();
        check(
            out_of_order == 0,
            format!(
                "{out_of_order} of {total} concurrent appends returned a view stamped out of order"
            ),
        );
        for u in 0..SHARED_USERS {
            let user = UserId::new(u);
            let mut handed: Vec<u64> = clients
                .iter()
                .flat_map(|(versions, _)| versions)
                .filter(|&&(of, _)| of == user)
                .map(|&(_, version)| version)
                .collect();
            handed.sort_unstable();
            let appended = u64::from(total / SHARED_USERS);
            check(
                handed == (1..=appended).collect::<Vec<_>>(),
                format!("{user}: the versions handed out are not 1..={appended}"),
            );
            let view = store.fetch(user).unwrap();
            check(
                view.version() == appended,
                format!("{user} fetched at version {}", view.version()),
            );
            check(
                stamped_in_order(&view),
                format!("{user}: fetched view stamped out of order"),
            );
        }
        let writes = u64::from(5 + total);
        check(
            store.write_count() == writes,
            format!("write_count {} != {writes}", store.write_count()),
        );
        let reads = 6 + u64::from(SHARED_USERS);
        check(
            store.read_count() == reads,
            format!("read_count {} != {reads}", store.read_count()),
        );
        breaches
    }

    /// Both implementations keep one contract, checked through the trait
    /// object the cluster holds.
    #[test]
    fn both_stores_keep_the_contract() {
        let dir = std::env::temp_dir().join(format!("dynasore-contract-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ShardedConfig {
            shards: 4,
            flush_interval: None,
        };
        let file_backed = Arc::new(ShardedLogStore::open(&dir, config).unwrap());
        let breaches = [
            (
                "MockPersistentStore",
                contract_breaches(Arc::new(MockPersistentStore::new())),
            ),
            ("ShardedLogStore", contract_breaches(file_backed)),
        ];
        std::fs::remove_dir_all(&dir).unwrap();
        let broken: Vec<_> = breaches.iter().filter(|(_, b)| !b.is_empty()).collect();
        assert!(broken.is_empty(), "{broken:#?}");
    }
}
