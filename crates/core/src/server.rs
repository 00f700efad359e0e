//! Per-server storage state.
//!
//! A DynaSoRe server is "an in-memory key-value store implementing a memory
//! management policy. A server has a fixed memory capacity, expressed as the
//! number of views it can store" (§3.2, *Storage management*). Alongside
//! each stored view the server keeps the replica's access statistics and an
//! admission threshold that gates the creation of new replicas on it.

use dynasore_types::{MachineId, UserId};

use crate::stats::ReplicaStats;

/// Marks an empty bucket of a [`SlotIndex`]. No view can use it as its id:
/// user ids are dense indices into per-user tables.
const EMPTY: u32 = u32::MAX;

/// The user → slab-slot index of one server: a deterministic open-addressing
/// `u32 → u32` hash map (multiplicative hashing, linear probing,
/// backward-shift deletion — so no tombstones and no rehash-on-delete).
///
/// Sized from the server's capacity, not from the user population: a server
/// holds a few dozen views out of millions of users, so a dense per-user
/// array per server would dominate the engine's memory. The table keeps its
/// load at or below one half and doubles when an insert would exceed that
/// (servers over capacity, see [`ServerState::insert`]). Nothing iterates
/// the table, so its bucket order never reaches a decision or a report.
#[derive(Debug, Clone)]
struct SlotIndex {
    /// `(key, value)` buckets; the length is a power of two.
    buckets: Vec<(u32, u32)>,
    len: usize,
}

impl SlotIndex {
    /// An empty index that holds `entries` keys without growing.
    fn with_capacity(entries: usize) -> Self {
        let buckets = (entries.max(1) * 2).next_power_of_two().max(8);
        SlotIndex {
            buckets: vec![(EMPTY, 0); buckets],
            len: 0,
        }
    }

    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    /// The bucket `key` hashes to (Fibonacci hashing: the high bits of the
    /// product are well mixed even for the sequential ids users have).
    fn home(&self, key: u32) -> usize {
        let bits = self.buckets.len().trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9) >> (32 - bits)) as usize
    }

    /// The bucket holding `key`, if present.
    fn find(&self, key: u32) -> Option<usize> {
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            match self.buckets[i].0 {
                EMPTY => return None,
                k if k == key => return Some(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn get(&self, key: u32) -> Option<u32> {
        self.find(key).map(|i| self.buckets[i].1)
    }

    /// Maps `key`, which must be absent, to `value`.
    fn insert(&mut self, key: u32, value: u32) {
        assert_ne!(key, EMPTY, "u32::MAX is not a valid view id");
        debug_assert!(self.find(key).is_none(), "key already present");
        if (self.len + 1) * 2 > self.buckets.len() {
            let doubled = vec![(EMPTY, 0); self.buckets.len() * 2];
            let old = std::mem::replace(&mut self.buckets, doubled);
            for (k, v) in old.into_iter().filter(|&(k, _)| k != EMPTY) {
                self.place(k, v);
            }
        }
        self.place(key, value);
        self.len += 1;
    }

    /// Stores an absent key in the first free bucket of its probe sequence.
    fn place(&mut self, key: u32, value: u32) {
        let mask = self.mask();
        let mut i = self.home(key);
        while self.buckets[i].0 != EMPTY {
            i = (i + 1) & mask;
        }
        self.buckets[i] = (key, value);
    }

    /// Removes `key`, returning its value. Entries that probed past the
    /// freed bucket are shifted back so every probe sequence stays gap-free.
    fn remove(&mut self, key: u32) -> Option<u32> {
        let mut hole = self.find(key)?;
        let value = self.buckets[hole].1;
        let mask = self.mask();
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let (k, v) = self.buckets[i];
            if k == EMPTY {
                break;
            }
            // `k` may move into the hole only if the hole lies on its probe
            // path, i.e. cyclically within [home(k), i).
            let home = self.home(k);
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.buckets[hole] = (k, v);
                hole = i;
            }
        }
        self.buckets[hole] = (EMPTY, 0);
        self.len -= 1;
        Some(value)
    }

    /// Forgets every key, keeping the table size.
    fn clear(&mut self) {
        self.buckets.fill((EMPTY, 0));
        self.len = 0;
    }
}

#[derive(Debug, Clone)]
struct SlotEntry {
    view: UserId,
    stats: ReplicaStats,
}

/// The storage state of one view server.
///
/// Views live in a dense slab: `slots` is indexed by a stable slot number,
/// freed slots are recycled through a free list, and a compact user → slot
/// hash index sized from the capacity makes `contains`/`stats` O(1) lookups.
/// Iteration is by slot order, which is fully determined by the (seeded,
/// deterministic) sequence of inserts and removes — so every decision
/// derived from a scan of the stored views is reproducible across runs,
/// preserving the determinism guarantee the `BTreeMap` predecessor provided.
/// Scans that pick a victim additionally tie-break by [`UserId`] so the
/// chosen view is independent of slot layout.
///
/// Steady-state operations (`contains`, `stats`, `stats_mut`, `insert` into
/// a recycled slot, `remove`) perform no heap allocation.
#[derive(Debug, Clone)]
pub struct ServerState {
    machine: MachineId,
    capacity: usize,
    window_slots: usize,
    slots: Vec<Option<SlotEntry>>,
    free: Vec<u32>,
    user_slot: SlotIndex,
    len: usize,
    admission_threshold: f64,
}

impl ServerState {
    /// Creates an empty server with room for `capacity` views, using
    /// rotating statistics windows of `window_slots` periods.
    pub fn new(machine: MachineId, capacity: usize, window_slots: usize) -> Self {
        ServerState {
            machine,
            capacity,
            window_slots,
            slots: (0..capacity).map(|_| None).collect(),
            free: (0..capacity as u32).rev().collect(),
            user_slot: SlotIndex::with_capacity(capacity),
            len: 0,
            admission_threshold: 0.0,
        }
    }

    /// The machine this server runs on.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// Maximum number of views this server can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of views currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the server stores no views.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the server has reached its capacity.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Fraction of the capacity in use.
    pub fn occupancy(&self) -> f64 {
        if self.capacity == 0 {
            1.0
        } else {
            self.len as f64 / self.capacity as f64
        }
    }

    fn slot_of(&self, view: UserId) -> Option<usize> {
        self.user_slot.get(view.index()).map(|slot| slot as usize)
    }

    /// Whether a replica of `view` is stored here.
    pub fn contains(&self, view: UserId) -> bool {
        self.slot_of(view).is_some()
    }

    /// Stores a new (empty-statistics) replica of `view`. Returns `false` if
    /// the view was already present.
    ///
    /// Capacity is *not* enforced here: the engine decides whether to evict
    /// first or to refuse the replica, because only it knows which views are
    /// safe to evict. Inserts beyond capacity grow the slab.
    pub fn insert(&mut self, view: UserId) -> bool {
        if self.contains(view) {
            return false;
        }
        let slot = match self.free.pop() {
            Some(slot) => slot as usize,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        self.slots[slot] = Some(SlotEntry {
            view,
            stats: ReplicaStats::new(self.window_slots),
        });
        self.user_slot.insert(view.index(), slot as u32);
        self.len += 1;
        true
    }

    /// Removes the replica of `view`. Returns `false` if it was not stored.
    pub fn remove(&mut self, view: UserId) -> bool {
        let Some(slot) = self.user_slot.remove(view.index()) else {
            return false;
        };
        self.slots[slot as usize] = None;
        self.free.push(slot);
        self.len -= 1;
        true
    }

    /// The statistics of the replica of `view`, if stored here.
    pub fn stats(&self, view: UserId) -> Option<&ReplicaStats> {
        self.slot_of(view)
            .and_then(|slot| self.slots[slot].as_ref())
            .map(|entry| &entry.stats)
    }

    /// Mutable statistics of the replica of `view`, if stored here.
    pub fn stats_mut(&mut self, view: UserId) -> Option<&mut ReplicaStats> {
        let slot = self.slot_of(view)?;
        self.slots[slot].as_mut().map(|entry| &mut entry.stats)
    }

    /// Iterates over the stored views and their statistics, in slot order.
    pub fn views(&self) -> impl Iterator<Item = (UserId, &ReplicaStats)> {
        self.slots
            .iter()
            .filter_map(|entry| entry.as_ref().map(|e| (e.view, &e.stats)))
    }

    /// Number of slab slots (occupied or free); the valid range for
    /// [`ServerState::view_at`].
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The view stored in slab slot `slot`, if occupied.
    pub fn view_at(&self, slot: usize) -> Option<UserId> {
        self.slots.get(slot)?.as_ref().map(|e| e.view)
    }

    /// The ids of the stored views, in slot order.
    pub fn view_ids(&self) -> Vec<UserId> {
        self.views().map(|(view, _)| view).collect()
    }

    /// Rotates the access counters of every stored replica.
    pub fn rotate_counters(&mut self) {
        for entry in self.slots.iter_mut().flatten() {
            entry.stats.rotate();
        }
    }

    /// The current admission threshold: the minimum utility a new replica
    /// must have to be admitted to this server (§3.2, *Replication of
    /// views*).
    pub fn admission_threshold(&self) -> f64 {
        self.admission_threshold
    }

    /// Sets the admission threshold directly. The engine computes it with
    /// [`admission_threshold_from_utilities`] over a reused scratch buffer.
    pub fn set_admission_threshold(&mut self, threshold: f64) {
        self.admission_threshold = threshold;
    }

    /// Drops every stored view and resets the slab to its freshly-built
    /// state (all slots free, threshold zero). Models a machine crash: the
    /// in-memory cache content is lost wholesale, while the server object
    /// survives so it can rejoin empty later.
    pub fn clear(&mut self) {
        let capacity = self.capacity;
        self.slots = (0..capacity).map(|_| None).collect();
        self.free = (0..capacity as u32).rev().collect();
        self.user_slot.clear();
        self.len = 0;
        self.admission_threshold = 0.0;
    }

    /// Updates the admission threshold from the utilities of the views
    /// currently stored: the threshold is chosen so that `fill_target` of
    /// the memory is occupied by views whose utility is above it, and 0 if
    /// less memory than that is used.
    pub fn update_admission_threshold(&mut self, mut utilities: Vec<f64>, fill_target: f64) {
        self.admission_threshold =
            admission_threshold_from_utilities(&mut utilities, self.capacity, fill_target);
    }
}

/// The admission threshold protecting `fill_target` of a `capacity`-slot
/// server, given the utilities of its stored views: the `protected`-th
/// highest finite utility, clamped to be non-negative, or 0 when fewer
/// views than that are stored. Sorts `utilities` in place (descending), so
/// callers can reuse one scratch buffer across servers.
pub fn admission_threshold_from_utilities(
    utilities: &mut [f64],
    capacity: usize,
    fill_target: f64,
) -> f64 {
    let protected = ((capacity as f64) * fill_target).floor() as usize;
    if protected == 0 || utilities.len() < protected {
        return 0.0;
    }
    utilities.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let threshold = utilities[protected - 1];
    if threshold.is_finite() {
        threshold.max(0.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_types::SubtreeId;

    fn server(cap: usize) -> ServerState {
        ServerState::new(MachineId::new(7), cap, 4)
    }

    /// Model test: the slot index agrees with `HashMap` under random
    /// insert / re-insert / remove / clear sequences, across growth, with
    /// keys drawn both densely (sequential ids, long probe runs) and from
    /// the whole `u32` range.
    #[test]
    fn slot_index_matches_hash_map_model() {
        use std::collections::HashMap;

        // A fixed seed, so the op sequence repeats exactly.
        let mut rng = proptest::TestRng::new(0xD15A_50F3);
        let mut next = move || rng.next_u64();
        for (capacity, key_space) in [(0usize, 40u64), (3, 64), (58, 300), (58, u32::MAX as u64)] {
            let mut index = SlotIndex::with_capacity(capacity);
            let mut model: HashMap<u32, u32> = HashMap::new();
            let initial_buckets = index.buckets.len();
            for step in 0..20_000 {
                let key = (next() % key_space) as u32;
                match next() % 100 {
                    0..=49 => {
                        let value = next() as u32;
                        if model.insert(key, value).is_some() {
                            index.remove(key);
                        }
                        index.insert(key, value);
                    }
                    50..=94 => {
                        assert_eq!(index.remove(key), model.remove(&key), "step {step}");
                    }
                    95..=98 => assert_eq!(index.get(key), model.get(&key).copied()),
                    _ => {
                        index.clear();
                        model.clear();
                    }
                }
                assert_eq!(index.len, model.len(), "step {step}");
                assert!(index.len * 2 <= index.buckets.len(), "load above one half");
            }
            for (&key, &value) in &model {
                assert_eq!(index.get(key), Some(value));
            }
            let stored = index.buckets.iter().filter(|b| b.0 != EMPTY).count();
            assert_eq!(stored, model.len());
            assert_eq!(index.get(EMPTY), None);
            // The small tables cannot hold their key space without growing.
            if capacity < 4 {
                assert!(index.buckets.len() > initial_buckets);
            }
        }
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = server(2);
        assert!(s.is_empty());
        assert!(s.insert(UserId::new(1)));
        assert!(!s.insert(UserId::new(1)));
        assert!(s.insert(UserId::new(2)));
        assert!(s.is_full());
        assert_eq!(s.len(), 2);
        assert!(s.contains(UserId::new(1)));
        assert!((s.occupancy() - 1.0).abs() < 1e-12);
        assert!(s.remove(UserId::new(1)));
        assert!(!s.remove(UserId::new(1)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.machine(), MachineId::new(7));
        assert_eq!(s.capacity(), 2);
        assert_eq!(s.view_ids(), vec![UserId::new(2)]);
    }

    #[test]
    fn slots_are_recycled_without_growing_the_slab() {
        let mut s = server(2);
        s.insert(UserId::new(1));
        s.insert(UserId::new(2));
        assert_eq!(s.slot_count(), 2);
        s.remove(UserId::new(1));
        // The freed slot is reused; the slab does not grow.
        assert!(s.insert(UserId::new(3)));
        assert_eq!(s.slot_count(), 2);
        assert_eq!(s.len(), 2);
        assert!(s.contains(UserId::new(3)));
        // Slot-order iteration: user 3 took user 1's old slot 0.
        assert_eq!(s.view_ids(), vec![UserId::new(3), UserId::new(2)]);
        assert_eq!(s.view_at(0), Some(UserId::new(3)));
        assert_eq!(s.view_at(1), Some(UserId::new(2)));
        assert_eq!(s.view_at(9), None);
    }

    #[test]
    fn inserts_beyond_capacity_grow_the_slab_and_the_index() {
        let mut s = server(1);
        assert!(s.insert(UserId::new(0)));
        assert!(s.is_full());
        // Over-capacity insert is allowed (the engine polices capacity).
        assert!(s.insert(UserId::new(99)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(UserId::new(99)));
        assert!(s.remove(UserId::new(99)));
        assert!(!s.contains(UserId::new(99)));
    }

    #[test]
    fn stats_are_per_view_and_rotate_together() {
        let mut s = server(4);
        s.insert(UserId::new(1));
        s.insert(UserId::new(2));
        s.stats_mut(UserId::new(1))
            .unwrap()
            .record_read(SubtreeId::Rack(0));
        s.stats_mut(UserId::new(2)).unwrap().record_write();
        assert_eq!(s.stats(UserId::new(1)).unwrap().total_reads(), 1);
        assert_eq!(s.stats(UserId::new(2)).unwrap().total_writes(), 1);
        assert!(s.stats(UserId::new(3)).is_none());
        for _ in 0..4 {
            s.rotate_counters();
        }
        assert!(s.stats(UserId::new(1)).unwrap().is_idle());
        assert!(s.stats(UserId::new(2)).unwrap().is_idle());
        assert_eq!(s.views().count(), 2);
    }

    #[test]
    fn clear_resets_to_the_freshly_built_state() {
        let mut s = server(3);
        s.insert(UserId::new(1));
        s.insert(UserId::new(2));
        s.stats_mut(UserId::new(1))
            .unwrap()
            .record_read(SubtreeId::Rack(0));
        s.set_admission_threshold(4.0);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(UserId::new(1)));
        assert!(s.stats(UserId::new(1)).is_none());
        assert_eq!(s.admission_threshold(), 0.0);
        assert_eq!(s.slot_count(), 3);
        // The slab is fully reusable after the wipe.
        assert!(s.insert(UserId::new(5)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn zero_capacity_server_reports_full_occupancy() {
        let s = server(0);
        assert!((s.occupancy() - 1.0).abs() < 1e-12);
        assert!(s.is_full());
    }

    #[test]
    fn admission_threshold_protects_the_fill_target() {
        let mut s = server(10);
        // 9 views stored with utilities 1..=9; fill target 0.9 → protect 9
        // views → threshold = 9th highest utility = 1.
        let utilities: Vec<f64> = (1..=9).map(|v| v as f64).collect();
        for i in 0..9 {
            s.insert(UserId::new(i));
        }
        s.update_admission_threshold(utilities, 0.9);
        assert!((s.admission_threshold() - 1.0).abs() < 1e-12);

        // With fewer views than the protected amount the threshold is 0.
        s.update_admission_threshold(vec![5.0, 6.0], 0.9);
        assert_eq!(s.admission_threshold(), 0.0);

        // Infinite utilities (sole replicas) never become the threshold.
        s.update_admission_threshold(vec![f64::INFINITY; 9], 0.9);
        assert_eq!(s.admission_threshold(), 0.0);

        // Negative thresholds are clamped to zero.
        s.update_admission_threshold(vec![-5.0; 9], 0.9);
        assert_eq!(s.admission_threshold(), 0.0);

        // The scratch-buffer form matches the owned form.
        let mut scratch = vec![3.0, 1.0, 2.0, 9.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(
            admission_threshold_from_utilities(&mut scratch, 10, 0.9),
            1.0
        );
        s.set_admission_threshold(2.5);
        assert_eq!(s.admission_threshold(), 2.5);
    }
}
