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
/// explicit durability points the cluster drives at shutdown.
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

    /// Pushes buffered writes towards the operating system. A no-op for
    /// in-memory implementations.
    ///
    /// # Errors
    ///
    /// I/O errors from durable implementations.
    fn flush(&self) -> Result<()> {
        Ok(())
    }

    /// Makes every acknowledged write crash-durable (fsync). A no-op for
    /// in-memory implementations.
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

    /// Appends an event with `payload` to `user`'s view and returns the new
    /// version of the view (the paper's write path: the persistent store
    /// generates the new version, then notifies the cache).
    pub fn append(&self, user: UserId, payload: Vec<u8>) -> View {
        let timestamp = SimTime::from_secs(self.clock.fetch_add(1, Ordering::Relaxed));
        let mut views = self.views.write();
        let view = views.entry(user).or_insert_with(|| View::new(user));
        view.push(Event::new(user, timestamp, payload));
        self.writes.fetch_add(1, Ordering::Relaxed);
        view.clone()
    }

    /// Fetches the current view of `user`, or an empty view if the user has
    /// never written.
    pub fn fetch(&self, user: UserId) -> View {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.views
            .read()
            .get(&user)
            .cloned()
            .unwrap_or_else(|| View::new(user))
    }

    /// Number of events appended so far.
    pub fn write_count(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Number of fetches served (cache fills and recovery reads).
    pub fn read_count(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

impl PersistentStore for MockPersistentStore {
    fn append(&self, user: UserId, payload: Vec<u8>) -> Result<View> {
        Ok(MockPersistentStore::append(self, user, payload))
    }

    fn fetch(&self, user: UserId) -> Result<View> {
        Ok(MockPersistentStore::fetch(self, user))
    }

    fn write_count(&self) -> u64 {
        MockPersistentStore::write_count(self)
    }

    fn read_count(&self) -> u64 {
        MockPersistentStore::read_count(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_then_fetch_round_trips() {
        let store = MockPersistentStore::new();
        let u = UserId::new(3);
        assert!(store.fetch(u).is_empty());
        let v1 = store.append(u, b"a".to_vec());
        let v2 = store.append(u, b"b".to_vec());
        assert_eq!(v1.len(), 1);
        assert_eq!(v2.len(), 2);
        assert!(v2.version() > v1.version());
        let fetched = store.fetch(u);
        assert_eq!(fetched.len(), 2);
        assert_eq!(fetched.latest().unwrap().payload(), b"b");
        assert_eq!(store.write_count(), 2);
        assert!(store.read_count() >= 2);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let store = MockPersistentStore::new();
        let u = UserId::new(1);
        store.append(u, vec![1]);
        store.append(u, vec![2]);
        let view = store.fetch(u);
        let times: Vec<u64> = view.iter().map(|e| e.timestamp().as_secs()).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }
}
