//! Per-replica access statistics.
//!
//! Each replica stores, alongside the view itself, how often it is read from
//! each coarse origin (the sibling racks of its own intermediate switch and
//! the other intermediate switches — see
//! [`Topology::access_origin`](dynasore_topology::Topology::access_origin))
//! and how often it is written (§3.2, *Access statistics*). These rates feed
//! the utility estimation of Algorithm 1.

use dynasore_types::SubtreeId;

/// Access statistics of one replica of one view on one server: one rotating
/// window of period counters (see
/// [`RotatingCounter`](crate::RotatingCounter) for the semantics of a single
/// ring) for the writes and one per read origin.
///
/// All rings of a replica rotate together, so they share one `current`
/// period and live in one contiguous buffer (`cells`: ring 0 counts writes,
/// ring `1 + i` the reads of `origins[i]`) instead of one heap allocation
/// per ring. The window totals sit next to the origin keys in `origins` — a
/// `Vec` sorted by [`SubtreeId`], a server observes at most a handful of
/// coarse origins — so the per-read evaluation iterates 16 bytes per origin
/// and never touches the rings. Recording a read from an already-seen
/// origin touches existing memory only; a *new* origin (a state transition,
/// not steady state) inserts a ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStats {
    window_slots: usize,
    current: usize,
    origins: Vec<(SubtreeId, u64)>,
    write_total: u64,
    cells: Vec<u64>,
}

impl ReplicaStats {
    /// Creates empty statistics using a rotating window of `window_slots`
    /// periods.
    ///
    /// # Panics
    ///
    /// Panics if `window_slots` is zero.
    pub fn new(window_slots: usize) -> Self {
        assert!(
            window_slots > 0,
            "a rotating counter needs at least one slot"
        );
        // Room for the first origin's ring too: a replica exists because it
        // is read, so that ring follows at once and would reallocate.
        let mut cells = Vec::with_capacity(2 * window_slots);
        cells.resize(window_slots, 0);
        ReplicaStats {
            window_slots,
            current: 0,
            origins: Vec::new(),
            write_total: 0,
            cells,
        }
    }

    fn origin_index(&self, origin: SubtreeId) -> Result<usize, usize> {
        self.origins.binary_search_by_key(&origin, |&(o, _)| o)
    }

    /// Where ring `ring` starts in `cells`.
    fn ring_start(&self, ring: usize) -> usize {
        ring * self.window_slots
    }

    /// Records one read arriving from `origin`.
    pub fn record_read(&mut self, origin: SubtreeId) {
        self.record_reads(origin, 1);
    }

    /// Records `count` reads arriving from `origin` in one go. Used when a
    /// newly created replica inherits the read history of the origins it
    /// takes over from the source replica.
    pub fn record_reads(&mut self, origin: SubtreeId, count: u64) {
        if count == 0 {
            return;
        }
        let i = match self.origin_index(origin) {
            Ok(i) => i,
            Err(i) => {
                self.origins.insert(i, (origin, 0));
                // Open a zeroed ring at its sorted position: grow by one
                // ring, shift the later rings up, clear the gap.
                let (start, slots, end) =
                    (self.ring_start(1 + i), self.window_slots, self.cells.len());
                self.cells.resize(end + slots, 0);
                self.cells.copy_within(start..end, start + slots);
                self.cells[start..start + slots].fill(0);
                i
            }
        };
        self.origins[i].1 += count;
        let cell = self.ring_start(1 + i) + self.current;
        self.cells[cell] += count;
    }

    /// Removes the read history of `origin` and returns how many reads it
    /// held. Used when another replica takes over serving that origin, so
    /// the source replica does not keep proposing new replicas for readers
    /// it no longer serves.
    pub fn take_origin(&mut self, origin: SubtreeId) -> u64 {
        match self.origin_index(origin) {
            Ok(i) => {
                let start = self.ring_start(1 + i);
                self.cells.drain(start..start + self.window_slots);
                self.origins.remove(i).1
            }
            Err(_) => 0,
        }
    }

    /// Records one write (replica update).
    pub fn record_write(&mut self) {
        self.cells[self.current] += 1;
        self.write_total += 1;
    }

    /// Rotates every counter to the next period. Returns whether the
    /// expired period held any traffic, i.e. whether a window total — and
    /// with it anything computed from [`reads`](ReplicaStats::reads) and
    /// [`total_writes`](ReplicaStats::total_writes) — changed.
    pub fn rotate(&mut self) -> bool {
        let slots = self.window_slots;
        self.current = (self.current + 1) % slots;
        let current = self.current;
        let expired_writes = std::mem::take(&mut self.cells[current]);
        self.write_total -= expired_writes;
        let mut changed = expired_writes > 0;
        // Expire the oldest period of every origin and, in the same pass,
        // drop origins that have gone completely quiet (compacting their
        // rings away) to keep the list small.
        let mut kept = 0;
        for i in 0..self.origins.len() {
            let start = self.ring_start(1 + i);
            let (origin, total) = self.origins[i];
            let expired = std::mem::take(&mut self.cells[start + current]);
            changed |= expired > 0;
            let total = total - expired;
            if total == 0 {
                continue;
            }
            if kept != i {
                let dest = self.ring_start(1 + kept);
                self.cells.copy_within(start..start + slots, dest);
            }
            self.origins[kept] = (origin, total);
            kept += 1;
        }
        self.origins.truncate(kept);
        self.cells.truncate(self.ring_start(1 + kept));
        changed
    }

    /// Iterates over `(origin, reads in window)` pairs with a non-zero
    /// count, in [`SubtreeId`] order.
    pub fn reads(&self) -> impl Iterator<Item = (SubtreeId, u64)> + '_ {
        self.origins.iter().copied().filter(|&(_, reads)| reads > 0)
    }

    /// Reads in the window coming from one specific origin.
    pub fn reads_from(&self, origin: SubtreeId) -> u64 {
        match self.origin_index(origin) {
            Ok(i) => self.origins[i].1,
            Err(_) => 0,
        }
    }

    /// Total reads in the window, over all origins.
    pub fn total_reads(&self) -> u64 {
        self.origins.iter().map(|&(_, reads)| reads).sum()
    }

    /// Total writes (replica updates) in the window.
    pub fn total_writes(&self) -> u64 {
        self.write_total
    }

    /// Whether the replica saw no traffic at all during the window.
    pub fn is_idle(&self) -> bool {
        self.total_reads() == 0 && self.total_writes() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_grouped_by_origin() {
        let mut s = ReplicaStats::new(4);
        s.record_read(SubtreeId::Rack(0));
        s.record_read(SubtreeId::Rack(0));
        s.record_read(SubtreeId::Intermediate(2));
        s.record_write();
        assert_eq!(s.reads_from(SubtreeId::Rack(0)), 2);
        assert_eq!(s.reads_from(SubtreeId::Intermediate(2)), 1);
        assert_eq!(s.reads_from(SubtreeId::Rack(9)), 0);
        assert_eq!(s.total_reads(), 3);
        assert_eq!(s.total_writes(), 1);
        assert!(!s.is_idle());
        let mut origins: Vec<_> = s.reads().collect();
        origins.sort();
        assert_eq!(
            origins,
            vec![(SubtreeId::Intermediate(2), 1), (SubtreeId::Rack(0), 2)]
        );
    }

    #[test]
    fn rotation_forgets_old_activity() {
        let mut s = ReplicaStats::new(2);
        s.record_read(SubtreeId::Rack(1));
        s.record_write();
        s.rotate();
        // Still within the window.
        assert_eq!(s.total_reads(), 1);
        assert_eq!(s.total_writes(), 1);
        s.rotate();
        // Both slots cleared now.
        assert_eq!(s.total_reads(), 0);
        assert_eq!(s.total_writes(), 0);
        assert!(s.is_idle());
        // Idle origins are pruned from the map.
        assert_eq!(s.reads().count(), 0);
    }

    #[test]
    fn take_origin_moves_history() {
        let mut s = ReplicaStats::new(4);
        s.record_reads(SubtreeId::Rack(3), 5);
        s.record_read(SubtreeId::Intermediate(1));
        assert_eq!(s.take_origin(SubtreeId::Rack(3)), 5);
        assert_eq!(s.take_origin(SubtreeId::Rack(3)), 0);
        assert_eq!(s.total_reads(), 1);
        // Bulk-recording zero reads is a no-op.
        s.record_reads(SubtreeId::Rack(9), 0);
        assert_eq!(s.reads_from(SubtreeId::Rack(9)), 0);
    }

    /// The flat layout must behave exactly like the representation it
    /// replaced: one independent [`RotatingCounter`] for the writes and one
    /// per origin, idle origins pruned on rotation.
    #[test]
    fn flat_rings_match_one_rotating_counter_per_origin() {
        use crate::counters::RotatingCounter;
        use std::collections::BTreeMap;

        let window = 5;
        let origins = [
            SubtreeId::Root,
            SubtreeId::Intermediate(1),
            SubtreeId::Rack(0),
            SubtreeId::Rack(7),
            SubtreeId::Machine(3),
        ];
        let mut stats = ReplicaStats::new(window);
        let mut reads: BTreeMap<SubtreeId, RotatingCounter> = BTreeMap::new();
        let mut writes = RotatingCounter::new(window);
        // A fixed seed, so the op sequence repeats exactly.
        let mut rng = proptest::TestRng::new(0x5EED);
        let mut next = move || rng.next_u64();
        for step in 0..4_000 {
            let origin = origins[(next() % origins.len() as u64) as usize];
            match next() % 10 {
                0..=4 => {
                    let count = next() % 4;
                    stats.record_reads(origin, count);
                    if count > 0 {
                        reads
                            .entry(origin)
                            .or_insert_with(|| RotatingCounter::new(window))
                            .record(count);
                    }
                }
                5 | 6 => {
                    stats.record_write();
                    writes.record(1);
                }
                7 => {
                    let expected = reads.remove(&origin).map_or(0, |c| c.total());
                    assert_eq!(stats.take_origin(origin), expected, "step {step}");
                }
                _ => {
                    let before = (stats.total_writes(), stats.reads().collect::<Vec<_>>());
                    let changed = stats.rotate();
                    let after = (stats.total_writes(), stats.reads().collect::<Vec<_>>());
                    assert_eq!(changed, before != after, "step {step}");
                    writes.rotate();
                    reads.values_mut().for_each(RotatingCounter::rotate);
                    reads.retain(|_, c| !c.is_idle());
                }
            }
            let expected: Vec<(SubtreeId, u64)> =
                reads.iter().map(|(&o, c)| (o, c.total())).collect();
            assert_eq!(stats.reads().collect::<Vec<_>>(), expected, "step {step}");
            assert_eq!(stats.total_writes(), writes.total(), "step {step}");
            assert_eq!(
                stats.reads_from(origin),
                reads.get(&origin).map_or(0, |c| c.total())
            );
            assert_eq!(stats.cells.len(), (1 + stats.origins.len()) * window);
        }
    }

    #[test]
    fn new_stats_are_idle() {
        let s = ReplicaStats::new(24);
        assert!(s.is_idle());
        assert_eq!(s.total_reads(), 0);
        assert_eq!(s.total_writes(), 0);
    }
}
