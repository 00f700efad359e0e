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
    /// The utility cached for this slot is out of date. (Fits the padding
    /// after `view`: the entry is 80 bytes, 72 of them the statistics'
    /// header; period counters live on the heap, only where traffic is.)
    stale: bool,
    stats: ReplicaStats,
}

/// The smallest shift that folds `slots` slab slots into at most 64 groups
/// of `1 << shift` consecutive slots.
fn group_shift(slots: usize) -> u32 {
    slots.div_ceil(64).next_power_of_two().trailing_zeros()
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
///
/// Next to each slot the slab keeps the replica's utility as the engine
/// last computed it, and each entry a mark saying that value is out of date.
/// The server knows when its own statistics move (`stats_mut`,
/// `rotate_counters`, `insert`); the engine marks the rest (the view's
/// replica set or write proxy changed) through `ServerState::mark_stale`
/// and is the only one that can recompute a utility, so it refreshes the
/// stale slots before it reads the cache (`engine/eviction.rs`). Every read
/// and write marks, so a mark touches nothing the request does not touch
/// anyway: the entry itself, and one bit per group of slots in the server
/// struct, which tells the refresh where to look without visiting every
/// entry.
#[derive(Debug, Clone)]
pub struct ServerState {
    machine: MachineId,
    capacity: usize,
    slots: Vec<Option<SlotEntry>>,
    /// The cached utility of the replica in each slot; `INFINITY` (never a
    /// victim) for free slots.
    utilities: Vec<f64>,
    /// Bit `g`: an entry among slots `g << stale_shift .. (g + 1) <<
    /// stale_shift` may be marked stale. (A clear bit means none is.)
    stale_groups: u64,
    stale_shift: u32,
    free: Vec<u32>,
    user_slot: SlotIndex,
    len: usize,
    admission_threshold: f64,
}

impl ServerState {
    /// Creates an empty server with room for `capacity` views.
    pub fn new(machine: MachineId, capacity: usize) -> Self {
        ServerState {
            machine,
            capacity,
            slots: (0..capacity).map(|_| None).collect(),
            utilities: vec![f64::INFINITY; capacity],
            stale_groups: 0,
            stale_shift: group_shift(capacity),
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

    /// The bit of `stale_groups` that covers `slot`.
    fn group_bit(&self, slot: usize) -> u64 {
        1 << (slot >> self.stale_shift)
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
                self.utilities.push(f64::INFINITY);
                let shift = group_shift(self.slots.len());
                if shift != self.stale_shift {
                    // Wider groups: any of them may hold a marked entry.
                    self.stale_shift = shift;
                    self.stale_groups = u64::MAX;
                }
                self.slots.len() - 1
            }
        };
        self.slots[slot] = Some(SlotEntry {
            view,
            stale: true,
            stats: ReplicaStats::new(),
        });
        self.stale_groups |= self.group_bit(slot);
        self.user_slot.insert(view.index(), slot as u32);
        self.len += 1;
        true
    }

    /// Removes the replica of `view`. Returns `false` if it was not stored.
    pub fn remove(&mut self, view: UserId) -> bool {
        let Some(slot) = self.user_slot.remove(view.index()) else {
            return false;
        };
        let slot = slot as usize;
        self.slots[slot] = None;
        self.utilities[slot] = f64::INFINITY;
        self.free.push(slot as u32);
        self.len -= 1;
        true
    }

    /// The statistics of the replica of `view`, if stored here.
    pub fn stats(&self, view: UserId) -> Option<&ReplicaStats> {
        self.slot_of(view)
            .and_then(|slot| self.slots[slot].as_ref())
            .map(|entry| &entry.stats)
    }

    /// Mutable statistics of the replica of `view`, if stored here. The
    /// replica's cached utility goes stale: the caller is about to change
    /// what it was computed from.
    pub fn stats_mut(&mut self, view: UserId) -> Option<&mut ReplicaStats> {
        let slot = self.slot_of(view)?;
        self.stale_groups |= self.group_bit(slot);
        let entry = self.slots[slot].as_mut()?;
        entry.stale = true;
        Some(&mut entry.stats)
    }

    /// Marks the cached utility of the replica of `view` (if stored here)
    /// out of date: something outside this server that it depends on moved —
    /// the view's replica set or its write proxy.
    pub(crate) fn mark_stale(&mut self, view: UserId) {
        self.stats_mut(view);
    }

    /// Marks every cached utility out of date.
    pub(crate) fn mark_all_stale(&mut self) {
        for entry in self.slots.iter_mut().flatten() {
            entry.stale = true;
        }
        self.stale_groups = u64::MAX;
    }

    /// A slab slot whose cached utility is out of date, if any is left.
    pub(crate) fn next_stale_slot(&mut self) -> Option<usize> {
        while self.stale_groups != 0 {
            let group = self.stale_groups.trailing_zeros() as usize;
            let start = (group << self.stale_shift).min(self.slots.len());
            let end = (start + (1 << self.stale_shift)).min(self.slots.len());
            let marked = |entry: &Option<SlotEntry>| entry.as_ref().is_some_and(|e| e.stale);
            if let Some(offset) = self.slots[start..end].iter().position(marked) {
                return Some(start + offset);
            }
            self.stale_groups &= !(1 << group);
        }
        None
    }

    /// The view stored in slab slot `slot` and its statistics.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free (free slots are never marked stale and
    /// cache an infinite utility, so no scan of the cache leads to one).
    pub(crate) fn replica_at(&self, slot: usize) -> (UserId, &ReplicaStats) {
        let entry = self.slots[slot].as_ref().expect("an occupied slot");
        (entry.view, &entry.stats)
    }

    /// Stores the freshly computed utility of the replica in `slot`.
    pub(crate) fn store_utility(&mut self, slot: usize, utility: f64) {
        self.slots[slot].as_mut().expect("an occupied slot").stale = false;
        self.utilities[slot] = utility;
    }

    fn has_stale_utilities(&self) -> bool {
        self.slots.iter().flatten().any(|entry| entry.stale)
    }

    /// The stored views and their cached utilities, in slot order. Every
    /// utility must have been refreshed.
    pub(crate) fn cached_utilities(&self) -> impl Iterator<Item = (UserId, f64)> + '_ {
        debug_assert!(!self.has_stale_utilities(), "stale utilities read");
        self.slots
            .iter()
            .zip(&self.utilities)
            .filter_map(|(entry, &utility)| entry.as_ref().map(|e| (e.view, utility)))
    }

    /// The stored views whose cached utility is below `limit`, in slot
    /// order. Every utility must have been refreshed.
    pub(crate) fn views_with_utility_below(&self, limit: f64) -> impl Iterator<Item = UserId> + '_ {
        debug_assert!(!self.has_stale_utilities(), "stale utilities read");
        // Only the (contiguous) utilities are scanned; a slot's entry is
        // touched when it matches. Free slots are infinitely useful.
        self.utilities
            .iter()
            .enumerate()
            .filter(move |&(_, &utility)| utility < limit)
            .map(|(slot, _)| self.replica_at(slot).0)
    }

    /// The stored view of the lowest finite cached utility (sole replicas
    /// are infinitely useful), ties broken by [`UserId`] so the choice is
    /// independent of slot layout. Every utility must have been refreshed.
    pub(crate) fn lowest_utility_view(&self) -> Option<UserId> {
        debug_assert!(!self.has_stale_utilities(), "stale utilities read");
        let mut lowest = f64::INFINITY;
        for &utility in &self.utilities {
            if utility < lowest {
                lowest = utility;
            }
        }
        if lowest == f64::INFINITY {
            return None;
        }
        self.utilities
            .iter()
            .enumerate()
            .filter(|&(_, &utility)| utility == lowest)
            .map(|(slot, _)| self.replica_at(slot).0)
            .min()
    }

    /// Iterates over the stored views and their statistics, in slot order.
    pub fn views(&self) -> impl Iterator<Item = (UserId, &ReplicaStats)> {
        self.slots
            .iter()
            .filter_map(|entry| entry.as_ref().map(|e| (e.view, &e.stats)))
    }

    /// The ids of the stored views, in slot order.
    pub fn view_ids(&self) -> Vec<UserId> {
        self.views().map(|(view, _)| view).collect()
    }

    /// Rotates the access counters of every stored replica. The cached
    /// utility of a replica goes stale if a period with traffic expired.
    pub fn rotate_counters(&mut self) {
        for (slot, entry) in self.slots.iter_mut().enumerate() {
            if let Some(entry) = entry {
                if entry.stats.rotate() {
                    entry.stale = true;
                    self.stale_groups |= 1 << (slot >> self.stale_shift);
                }
            }
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
        self.utilities = vec![f64::INFINITY; capacity];
        self.stale_groups = 0;
        self.stale_shift = group_shift(capacity);
        self.free = (0..capacity as u32).rev().collect();
        self.user_slot.clear();
        self.len = 0;
        self.admission_threshold = 0.0;
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
    use crate::stats::COUNTER_SLOTS;
    use dynasore_types::SubtreeId;

    fn server(cap: usize) -> ServerState {
        ServerState::new(MachineId::new(7), cap)
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
        assert_eq!(s.slots.len(), 2);
        s.remove(UserId::new(1));
        // The freed slot is reused; the slab does not grow.
        assert!(s.insert(UserId::new(3)));
        assert_eq!(s.slots.len(), 2);
        assert_eq!(s.len(), 2);
        assert!(s.contains(UserId::new(3)));
        // Slot-order iteration: user 3 took user 1's old slot 0.
        assert_eq!(s.view_ids(), vec![UserId::new(3), UserId::new(2)]);
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
        for _ in 0..COUNTER_SLOTS {
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
        assert_eq!(s.slots.len(), 3);
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
        // 9 utilities 1..=9 on a 10-slot server; fill target 0.9 → protect 9
        // views → threshold = 9th highest utility = 1.
        let mut utilities = vec![3.0, 1.0, 2.0, 9.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(
            admission_threshold_from_utilities(&mut utilities, 10, 0.9),
            1.0
        );
        // With fewer views than the protected amount the threshold is 0.
        assert_eq!(
            admission_threshold_from_utilities(&mut [5.0, 6.0], 10, 0.9),
            0.0
        );
        // Infinite utilities (sole replicas) never become the threshold.
        assert_eq!(
            admission_threshold_from_utilities(&mut [f64::INFINITY; 9], 10, 0.9),
            0.0
        );
        // Negative thresholds are clamped to zero.
        assert_eq!(
            admission_threshold_from_utilities(&mut [-5.0; 9], 10, 0.9),
            0.0
        );
        let mut s = server(10);
        s.set_admission_threshold(2.5);
        assert_eq!(s.admission_threshold(), 2.5);
    }

    /// Refreshes every stale slot with `utility(view)`, as the engine does.
    fn refresh(s: &mut ServerState, utility: impl Fn(UserId) -> f64) -> Vec<UserId> {
        let mut refreshed = Vec::new();
        while let Some(slot) = s.next_stale_slot() {
            let view = s.replica_at(slot).0;
            s.store_utility(slot, utility(view));
            refreshed.push(view);
        }
        assert!(!s.has_stale_utilities());
        refreshed
    }

    #[test]
    fn cached_utilities_go_stale_exactly_when_their_inputs_move() {
        let id = UserId::new;
        let mut s = server(4);
        for v in [5, 6, 7] {
            s.insert(id(v));
        }
        // New replicas start stale.
        assert!(s.has_stale_utilities());
        assert_eq!(
            refresh(&mut s, |v| v.index() as f64),
            vec![id(5), id(6), id(7)]
        );
        assert_eq!(
            s.cached_utilities().collect::<Vec<_>>(),
            vec![(id(5), 5.0), (id(6), 6.0), (id(7), 7.0)]
        );
        // Reading statistics keeps the cache; touching them does not.
        assert!(s.stats(id(6)).is_some());
        assert!(!s.has_stale_utilities());
        s.stats_mut(id(6)).unwrap().record_write();
        s.stats_mut(id(6)).unwrap().record_write();
        s.mark_stale(id(7));
        s.mark_stale(id(99));
        assert_eq!(refresh(&mut s, |_| 1.5), vec![id(6), id(7)]);
        // Removing a stale replica takes its mark along; the freed slot is
        // never a victim and its next tenant starts stale.
        s.mark_stale(id(5));
        s.remove(id(5));
        assert!(!s.has_stale_utilities());
        assert_eq!(s.cached_utilities().count(), 2);
        s.insert(id(8));
        assert_eq!(refresh(&mut s, |_| 0.5), vec![id(8)]);
        // A rotation reaches the replicas that lose traffic with it (view
        // 6's writes leave the 24-period window on the 24th), the engine's
        // wholesale mark every replica.
        for _ in 1..COUNTER_SLOTS {
            s.rotate_counters();
            assert!(!s.has_stale_utilities());
        }
        s.rotate_counters();
        assert_eq!(refresh(&mut s, |_| 2.0), vec![id(6)]);
        s.mark_all_stale();
        assert_eq!(refresh(&mut s, |_| 2.0).len(), 3);
        // Slab growth and a crash keep the cache in step with the slots.
        s.insert(id(1));
        s.insert(id(2));
        assert_eq!(refresh(&mut s, |_| 3.0), vec![id(1), id(2)]);
        s.mark_stale(id(2));
        s.clear();
        assert!(!s.has_stale_utilities());
        assert_eq!(s.lowest_utility_view(), None);
    }

    #[test]
    fn stale_marks_are_found_in_slabs_of_any_size() {
        let id = |v: usize| UserId::new(v as u32);
        // One slot per group, several, and slabs that outgrow their groups.
        for capacity in [1usize, 64, 65, 130, 1000] {
            let mut s = server(capacity);
            let views = capacity + 70;
            for v in 0..views {
                s.insert(id(v));
            }
            assert_eq!(refresh(&mut s, |_| 1.0).len(), views);
            let marked: Vec<UserId> = (0..views).step_by(7).map(id).collect();
            for &v in &marked {
                s.mark_stale(v);
            }
            // A marked replica that leaves takes its mark along.
            s.remove(marked[1]);
            let mut expected = marked.clone();
            expected.remove(1);
            let mut found = refresh(&mut s, |_| 2.0);
            found.sort_unstable();
            assert_eq!(found, expected, "capacity {capacity}");
            assert_eq!(s.next_stale_slot(), None);
        }
    }

    #[test]
    fn lowest_utility_view_skips_infinite_and_breaks_ties_by_id() {
        let id = UserId::new;
        let mut s = server(6);
        for v in [40, 10, 30, 20, 50] {
            s.insert(id(v));
        }
        s.remove(id(50));
        refresh(&mut s, |v| match v.index() {
            40 => -2.0,
            10 => f64::INFINITY,
            30 => -2.0,
            _ => 7.0,
        });
        // 40 sits in the earlier slot; the tie goes to the smaller id.
        assert_eq!(s.lowest_utility_view(), Some(id(30)));
        s.remove(id(30));
        assert_eq!(s.lowest_utility_view(), Some(id(40)));
        s.remove(id(40));
        assert_eq!(s.lowest_utility_view(), Some(id(20)));
        s.remove(id(20));
        // Only a sole replica is left: nothing to evict.
        assert_eq!(s.lowest_utility_view(), None);
    }
}
