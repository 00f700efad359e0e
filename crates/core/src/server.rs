//! Per-server storage state.
//!
//! A DynaSoRe server is "an in-memory key-value store implementing a memory
//! management policy. A server has a fixed memory capacity, expressed as the
//! number of views it can store" (§3.2, *Storage management*). Alongside
//! each stored view the server keeps the replica's access statistics and an
//! admission threshold that gates the creation of new replicas on it.

use dynasore_types::{MachineId, UserId};

use crate::stats::ReplicaStats;

#[derive(Debug, Clone)]
struct SlotEntry {
    /// The utility cached for this slot is out of date. (The entry is 48
    /// bytes, 40 of them the statistics' header; origins and period
    /// counters live in one allocation, only where traffic is.)
    stale: bool,
    stats: ReplicaStats,
}

// A slab slot stays 48 bytes, free or not.
const _: () = assert!(std::mem::size_of::<Option<SlotEntry>>() <= 48);

/// The smallest shift that folds `slots` slab slots into at most 64 groups
/// of `1 << shift` consecutive slots.
fn group_shift(slots: usize) -> u32 {
    slots.div_ceil(64).next_power_of_two().trailing_zeros()
}

/// The storage state of one view server.
///
/// Views live in a dense slab: `slots` is indexed by a stable slot number
/// and freed slots are recycled through a free list. The server keeps no
/// view → slot index: [`ServerState::insert`] returns the slot it used, the
/// caller remembers it (the engine stores it beside the server in the
/// view's replica list), and every other access to one replica is by slot.
/// Iteration is by slot order, which is fully determined by the (seeded,
/// deterministic) sequence of inserts and removes — so every decision
/// derived from a scan of the stored views is reproducible across runs,
/// preserving the determinism guarantee the `BTreeMap` predecessor provided.
/// Scans that pick a victim additionally tie-break by [`UserId`] so the
/// chosen view is independent of slot layout.
///
/// Steady-state operations (`stats`, `stats_mut`, `insert` into a recycled
/// slot, `remove`) are array indexing and perform no heap allocation. A
/// removed replica's statistics, emptied, are kept for the next insert
/// when their heap is small: with every server full, that is the replica
/// that evicted it, which so records its first traffic in the victim's
/// heap instead of allocating its own.
///
/// Next to each slot the slab keeps the replica's view id and its utility
/// as the engine last computed it, in two contiguous arrays that a victim
/// scan reads without touching an entry, and each entry a mark saying that
/// the utility is out of date.
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
    /// The view stored in each slot (its last tenant's for a free slot).
    views: Vec<UserId>,
    /// The cached utility of the replica in each slot; `INFINITY` (never a
    /// victim) for free slots.
    utilities: Vec<f64>,
    /// Bit `g`: an entry among slots `g << stale_shift .. (g + 1) <<
    /// stale_shift` may be marked stale. (A clear bit means none is.)
    stale_groups: u64,
    stale_shift: u32,
    free: Vec<u32>,
    len: usize,
    /// The emptied statistics of a removed replica, for the next insert.
    spare: Option<ReplicaStats>,
    admission_threshold: f64,
}

impl ServerState {
    /// Creates an empty server with room for `capacity` views.
    pub fn new(machine: MachineId, capacity: usize) -> Self {
        ServerState {
            machine,
            capacity,
            slots: (0..capacity).map(|_| None).collect(),
            views: vec![UserId::default(); capacity],
            utilities: vec![f64::INFINITY; capacity],
            stale_groups: 0,
            stale_shift: group_shift(capacity),
            free: (0..capacity as u32).rev().collect(),
            len: 0,
            spare: None,
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

    /// Stores a new (empty-statistics) replica of `view` and returns the
    /// slab slot it occupies until [`ServerState::remove`]. The caller must
    /// not store a view twice on one server, and keeps the slot: it is how
    /// every other method finds the replica.
    ///
    /// Capacity is *not* enforced here: the engine decides whether to evict
    /// first or to refuse the replica, because only it knows which views are
    /// safe to evict. Inserts beyond capacity grow the slab.
    pub fn insert(&mut self, view: UserId) -> usize {
        let slot = match self.free.pop() {
            Some(slot) => slot as usize,
            None => {
                self.slots.push(None);
                self.views.push(view);
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
            stale: true,
            stats: self.spare.take().unwrap_or_default(),
        });
        self.views[slot] = view;
        self.stale_groups |= self.group_bit(slot);
        self.len += 1;
        slot
    }

    /// Removes the replica in slab slot `slot`, freeing the slot and
    /// keeping its statistics' heap for the next insert if it is small.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub fn remove(&mut self, slot: usize) {
        let Some(entry) = self.slots[slot].take() else {
            panic!("removing a free slot");
        };
        if let Some(stats) = entry.stats.recycled() {
            self.spare = Some(stats);
        }
        self.utilities[slot] = f64::INFINITY;
        self.free.push(slot as u32);
        self.len -= 1;
    }

    /// The statistics of the replica in slab slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub fn stats(&self, slot: usize) -> &ReplicaStats {
        self.replica_at(slot).1
    }

    /// The first word of the statistics in slab slot `slot` (0 for a free
    /// slot), for a read's warm pass: unlike `stats_mut`, marks nothing stale.
    pub(crate) fn first_stats_word(&self, slot: usize) -> u32 {
        let entry = self.slots[slot].as_ref();
        entry.map_or(0, |entry| entry.stats.first_word())
    }

    /// Mutable statistics of the replica in slab slot `slot`. The replica's
    /// cached utility goes stale: the caller is about to change what it was
    /// computed from.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub fn stats_mut(&mut self, slot: usize) -> &mut ReplicaStats {
        self.stale_groups |= self.group_bit(slot);
        let entry = self.slots[slot].as_mut().expect("an occupied slot");
        entry.stale = true;
        &mut entry.stats
    }

    /// Marks the cached utility of the replica in slab slot `slot` out of
    /// date: something outside this server that it depends on moved — the
    /// view's replica set or its write proxy.
    pub(crate) fn mark_stale(&mut self, slot: usize) {
        self.stats_mut(slot);
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
        (self.views[slot], &entry.stats)
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
        let keys = self.views.iter().zip(&self.utilities);
        self.slots
            .iter()
            .zip(keys)
            .filter_map(|(entry, (&view, &utility))| entry.as_ref().map(|_| (view, utility)))
    }

    /// The stored views whose cached utility is below `limit`, in slot
    /// order. Every utility must have been refreshed.
    pub(crate) fn views_with_utility_below(&self, limit: f64) -> impl Iterator<Item = UserId> + '_ {
        debug_assert!(!self.has_stale_utilities(), "stale utilities read");
        // Free slots cache an infinite utility: the keys alone answer.
        self.utilities
            .iter()
            .zip(&self.views)
            .filter(move |&(&utility, _)| utility < limit)
            .map(|(_, &view)| view)
    }

    /// The stored view of the lowest finite cached utility (sole replicas
    /// and free slots are infinitely useful), ties broken by [`UserId`] so
    /// the choice is independent of slot layout: one pass over the
    /// contiguous `(utility, view)` keys. Every utility must have been
    /// refreshed.
    pub(crate) fn lowest_utility_view(&self) -> Option<UserId> {
        debug_assert!(!self.has_stale_utilities(), "stale utilities read");
        let mut lowest = (f64::INFINITY, UserId::default());
        for (&utility, &view) in self.utilities.iter().zip(&self.views) {
            if utility < lowest.0 || (utility == lowest.0 && view < lowest.1) {
                lowest = (utility, view);
            }
        }
        (lowest.0 < f64::INFINITY).then_some(lowest.1)
    }

    /// Iterates over the stored views and their statistics, in slot order.
    pub fn views(&self) -> impl Iterator<Item = (UserId, &ReplicaStats)> {
        self.slots
            .iter()
            .zip(&self.views)
            .filter_map(|(entry, &view)| entry.as_ref().map(|e| (view, &e.stats)))
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
        *self = ServerState::new(self.machine, self.capacity);
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

    impl ServerState {
        /// The view stored in slab slot `slot`, or `None` for a free slot.
        pub(crate) fn view_at(&self, slot: usize) -> Option<UserId> {
            self.slots.get(slot)?.as_ref().map(|_| self.views[slot])
        }
    }

    fn server(cap: usize) -> ServerState {
        ServerState::new(MachineId::new(7), cap)
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = server(2);
        assert!(s.is_empty());
        let one = s.insert(UserId::new(1));
        let two = s.insert(UserId::new(2));
        assert_ne!(one, two);
        assert!(s.is_full());
        assert_eq!(s.len(), 2);
        assert_eq!(s.view_at(one), Some(UserId::new(1)));
        assert!((s.occupancy() - 1.0).abs() < 1e-12);
        s.remove(one);
        assert_eq!(s.view_at(one), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.machine(), MachineId::new(7));
        assert_eq!(s.capacity(), 2);
        assert_eq!(s.view_ids(), vec![UserId::new(2)]);
    }

    #[test]
    #[should_panic(expected = "removing a free slot")]
    fn removing_a_free_slot_panics() {
        let mut s = server(2);
        let slot = s.insert(UserId::new(1));
        s.remove(slot);
        s.remove(slot);
    }

    #[test]
    fn slots_are_recycled_without_growing_the_slab() {
        let mut s = server(2);
        let one = s.insert(UserId::new(1));
        s.insert(UserId::new(2));
        assert_eq!(s.slots.len(), 2);
        s.remove(one);
        // The freed slot is reused; the slab does not grow.
        assert_eq!(s.insert(UserId::new(3)), one);
        assert_eq!(s.slots.len(), 2);
        assert_eq!(s.len(), 2);
        // Slot-order iteration: user 3 took user 1's old slot 0.
        assert_eq!(s.view_ids(), vec![UserId::new(3), UserId::new(2)]);
    }

    #[test]
    fn inserts_beyond_capacity_grow_the_slab() {
        let mut s = server(1);
        s.insert(UserId::new(0));
        assert!(s.is_full());
        // Over-capacity insert is allowed (the engine polices capacity).
        let extra = s.insert(UserId::new(99));
        assert_eq!(extra, 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.view_at(extra), Some(UserId::new(99)));
        s.remove(extra);
        assert_eq!(s.view_ids(), vec![UserId::new(0)]);
    }

    #[test]
    fn stats_are_per_view_and_rotate_together() {
        let mut s = server(4);
        let one = s.insert(UserId::new(1));
        let two = s.insert(UserId::new(2));
        s.stats_mut(one).record_read(SubtreeId::Rack(0));
        s.stats_mut(two).record_write();
        assert_eq!(s.stats(one).total_reads(), 1);
        assert_eq!(s.stats(two).total_writes(), 1);
        for _ in 0..COUNTER_SLOTS {
            s.rotate_counters();
        }
        assert!(s.stats(one).is_idle());
        assert!(s.stats(two).is_idle());
        assert_eq!(s.views().count(), 2);
    }

    #[test]
    fn clear_resets_to_the_freshly_built_state() {
        let mut s = server(3);
        let one = s.insert(UserId::new(1));
        s.insert(UserId::new(2));
        s.stats_mut(one).record_read(SubtreeId::Rack(0));
        s.set_admission_threshold(4.0);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.view_at(one), None);
        assert_eq!(s.admission_threshold(), 0.0);
        assert_eq!(s.slots.len(), 3);
        // The slab is fully reusable after the wipe, from the first slot.
        assert_eq!(s.insert(UserId::new(5)), 0);
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
        let slot: Vec<usize> = [5, 6, 7].map(|v| s.insert(id(v))).to_vec();
        let (five, six, seven) = (slot[0], slot[1], slot[2]);
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
        assert_eq!(s.stats(six).total_writes(), 0);
        assert!(!s.has_stale_utilities());
        s.stats_mut(six).record_write();
        s.stats_mut(six).record_write();
        s.mark_stale(seven);
        assert_eq!(refresh(&mut s, |_| 1.5), vec![id(6), id(7)]);
        // Removing a stale replica takes its mark along; the freed slot is
        // never a victim and its next tenant starts stale.
        s.mark_stale(five);
        s.remove(five);
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
        let two = s.insert(id(2));
        assert_eq!(refresh(&mut s, |_| 3.0), vec![id(1), id(2)]);
        s.mark_stale(two);
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
            let slots: Vec<usize> = (0..views).map(|v| s.insert(id(v))).collect();
            assert_eq!(refresh(&mut s, |_| 1.0).len(), views);
            let marked: Vec<usize> = (0..views).step_by(7).collect();
            for &v in &marked {
                s.mark_stale(slots[v]);
            }
            // A marked replica that leaves takes its mark along.
            s.remove(slots[marked[1]]);
            let mut expected: Vec<UserId> = marked.iter().map(|&v| id(v)).collect();
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
        let slot: Vec<usize> = [40, 10, 30, 20, 50].map(|v| s.insert(id(v))).to_vec();
        s.remove(slot[4]);
        refresh(&mut s, |v| match v.index() {
            40 => -2.0,
            10 => f64::INFINITY,
            30 => -2.0,
            _ => 7.0,
        });
        // 40 sits in the earlier slot; the tie goes to the smaller id.
        assert_eq!(s.lowest_utility_view(), Some(id(30)));
        s.remove(slot[2]);
        assert_eq!(s.lowest_utility_view(), Some(id(40)));
        s.remove(slot[0]);
        assert_eq!(s.lowest_utility_view(), Some(id(20)));
        s.remove(slot[3]);
        // Only a sole replica is left: nothing to evict.
        assert_eq!(s.lowest_utility_view(), None);
    }

    #[test]
    fn the_smallest_id_wins_a_tie_whatever_the_slot_order() {
        let id = UserId::new;
        let mut s = server(8);
        // Inserted high to low, so slot order runs against id order.
        let slot: Vec<usize> = [90, 80, 70, 60, 50, 40].map(|v| s.insert(id(v))).to_vec();
        // Two slots freed, one of them reused by a smaller id: the free
        // ones keep their last tenant's id beside an infinite utility.
        s.remove(slot[1]);
        s.remove(slot[4]);
        assert_eq!(s.insert(id(10)), slot[4]);
        refresh(&mut s, |v| match v.index() {
            90 | 60 | 40 | 10 => -1.5,
            _ => 3.0,
        });
        assert_eq!(s.lowest_utility_view(), Some(id(10)));
        // Its freed slot still holds id 10, and is never the victim.
        s.remove(slot[4]);
        assert_eq!(s.lowest_utility_view(), Some(id(40)));
        s.remove(slot[5]);
        assert_eq!(s.lowest_utility_view(), Some(id(60)));
        // Every utility infinite: sole replicas and free slots only.
        s.mark_all_stale();
        refresh(&mut s, |_| f64::INFINITY);
        assert_eq!(s.lowest_utility_view(), None);
    }

    /// The one pass against the definition — the smallest `(utility, id)`
    /// among the occupied slots of finite utility — over a seeded run of
    /// inserts, removes and refreshes whose utilities tie often.
    #[test]
    fn the_one_pass_victim_is_the_lowest_key_among_the_stored_views() {
        let mut rng = proptest::TestRng::new(0x51AB);
        let mut next = move |n: u64| rng.next_u64() % n;
        let mut s = server(24);
        let mut stored: Vec<(UserId, usize)> = Vec::new();
        for step in 0..4_000 {
            match next(4) {
                0 | 1 if stored.len() < 30 => {
                    let view = UserId::new(next(1_000) as u32);
                    if stored.iter().all(|&(v, _)| v != view) {
                        stored.push((view, s.insert(view)));
                    }
                }
                0..=2 if !stored.is_empty() => {
                    let (_, slot) = stored.swap_remove(next(stored.len() as u64) as usize);
                    s.remove(slot);
                }
                _ => {
                    for &(_, slot) in &stored {
                        if next(3) == 0 {
                            s.mark_stale(slot);
                        }
                    }
                }
            }
            let salt = next(1 << 20);
            refresh(&mut s, |v| match (u64::from(v.index()) ^ salt) % 5 {
                0 => f64::INFINITY,
                k => k as f64 - 3.0,
            });
            let expected = s
                .cached_utilities()
                .filter(|&(_, utility)| utility.is_finite())
                .map(|(view, utility)| (utility, view))
                .min_by(|a, b| a.partial_cmp(b).unwrap())
                .map(|(_, view)| view);
            assert_eq!(s.lowest_utility_view(), expected, "step {step}");
        }
    }

    #[test]
    fn an_insert_takes_over_the_heap_of_the_replica_removed_before_it() {
        let mut s = server(2);
        let old = s.insert(UserId::new(1));
        s.stats_mut(old).record_read(SubtreeId::Rack(0));
        s.stats_mut(old).record_write();
        let heap = s.stats(old).heap_bytes();
        assert!(heap > 0);
        s.remove(old);
        let new = s.insert(UserId::new(2));
        assert_eq!(s.stats(new), &ReplicaStats::new());
        assert_eq!(s.stats(new).heap_bytes(), heap);
        // There was one to take over.
        let next = s.insert(UserId::new(3));
        assert_eq!(s.stats(next).heap_bytes(), 0);
    }
}
