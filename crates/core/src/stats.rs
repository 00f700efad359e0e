//! Per-replica access statistics.
//!
//! Each replica stores, alongside the view itself, how often it is read from
//! each coarse origin (the sibling racks of its own intermediate switch and
//! the other intermediate switches — see
//! [`Topology::access_origin`](dynasore_topology::Topology::access_origin))
//! and how often it is written (§3.2, *Access statistics*). These rates feed
//! the utility estimation of Algorithm 1.

use dynasore_types::SubtreeId;

/// Periods in every replica's rotating access-statistics window: the paper
/// keeps 24 one-hour slots (§4.3).
pub(crate) const COUNTER_SLOTS: usize = 24;

// Every `Cell` labels its period in one byte.
const _: () = assert!(COUNTER_SLOTS >= 1 && COUNTER_SLOTS <= 1 << u8::BITS);

/// The `kind` of a cell that counts writes; read cells carry the kind of
/// their origin (see [`source_of`]).
const WRITES: u8 = 0;

/// What a read cell of `origin` carries as `(kind, index)`.
fn source_of(origin: SubtreeId) -> (u8, u32) {
    match origin {
        SubtreeId::Root => (1, 0),
        SubtreeId::Intermediate(i) => (2, i),
        SubtreeId::Rack(r) => (3, r),
        SubtreeId::Machine(m) => (4, m),
    }
}

/// One non-zero period counter: what `(kind, index)` names — the writes or
/// one read origin — was counted `count` times during the period labelled
/// `period`. Eight bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    index: u32,
    kind: u8,
    period: u8,
    count: u16,
}

impl Cell {
    fn counts(&self, source: (u8, u32)) -> bool {
        (self.kind, self.index) == source
    }
}

/// Gives back the capacity a burst left behind, so that the heap of a
/// replica follows the traffic in its window: at most four times its
/// length (or the four elements a `Vec` starts with, or that
/// [`ReplicaStats::recycled`] keeps), nothing once emptied here.
fn release_slack<T>(list: &mut Vec<T>) {
    if list.capacity() > 4 * list.len() {
        list.shrink_to(2 * list.len());
    }
}

/// Access statistics of one replica of one view on one server: the writes
/// and the reads of each origin over a rotating window of 24 periods, every
/// count behaving like its own [`RotatingCounter`](crate::RotatingCounter)
/// (the specification of a single ring), quiet origins forgotten.
///
/// The window is stored sparsely, sized by the traffic in it instead of by
/// periods × origins. The window totals sit next to the origin keys in
/// `origins` — a `Vec` sorted by [`SubtreeId`], a server observes at most a
/// handful of coarse origins — so the per-read evaluation iterates 16 bytes
/// per origin and touches nothing else. Only the *non-zero* period counters
/// exist, as `Cell`s in `cells`, oldest period first: all counters of a
/// replica rotate together and cells are only ever appended for the current
/// period, so the current period's cells are the tail (where a read finds
/// its own among at most one per origin) and an expiring period is a
/// prefix. A count that outgrows a cell continues in a further cell of the
/// same origin and period, so totals are exact. The current period's writes
/// are counted in `current_writes` and become cells when the period ends: a
/// write never searches.
///
/// Recording traffic that the current period has already seen touches
/// existing memory only; the first read of an origin in a period appends a
/// cell, a *new* origin also inserts its 16-byte key, and new statistics
/// own no heap at all (the emptied statistics of a removed replica, which
/// a server hands to the next one it stores, at most four elements per
/// list).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    origins: Vec<(SubtreeId, u64)>,
    cells: Vec<Cell>,
    write_total: u64,
    current_writes: u64,
    /// The label of the current period, in `0..COUNTER_SLOTS`.
    current: u8,
}

impl ReplicaStats {
    /// Creates empty statistics. Allocates nothing.
    pub fn new() -> Self {
        ReplicaStats::default()
    }

    fn origin_index(&self, origin: SubtreeId) -> Result<usize, usize> {
        self.origins.binary_search_by_key(&origin, |&(o, _)| o)
    }

    /// Appends `count` of `source` to the current period, in as many cells
    /// as it takes.
    fn push_cells(&mut self, (kind, index): (u8, u32), mut count: u64) {
        while count > 0 {
            let part = count.min(u64::from(u16::MAX));
            self.cells.push(Cell {
                index,
                kind,
                period: self.current,
                count: part as u16,
            });
            count -= part;
        }
    }

    /// Records one read arriving from `origin`.
    pub fn record_read(&mut self, origin: SubtreeId) {
        self.record_reads(origin, 1);
    }

    /// Records `count` reads arriving from `origin` in one go. Used when a
    /// newly created replica inherits the read history of the origins it
    /// takes over from the source replica.
    pub fn record_reads(&mut self, origin: SubtreeId, mut count: u64) {
        if count == 0 {
            return;
        }
        let i = match self.origin_index(origin) {
            Ok(i) => i,
            Err(i) => {
                self.origins.insert(i, (origin, 0));
                i
            }
        };
        self.origins[i].1 += count;
        let source = source_of(origin);
        let period = self.current;
        let open = self
            .cells
            .iter_mut()
            .rev()
            .take_while(|cell| cell.period == period)
            .find(|cell| cell.counts(source) && cell.count < u16::MAX);
        if let Some(cell) = open {
            let part = count.min(u64::from(u16::MAX - cell.count));
            cell.count += part as u16;
            count -= part;
        }
        self.push_cells(source, count);
    }

    /// Removes the read history of `origin` and returns how many reads it
    /// held. Used when another replica takes over serving that origin, so
    /// the source replica does not keep proposing new replicas for readers
    /// it no longer serves.
    pub fn take_origin(&mut self, origin: SubtreeId) -> u64 {
        let Ok(i) = self.origin_index(origin) else {
            return 0;
        };
        let source = source_of(origin);
        self.cells.retain(|cell| !cell.counts(source));
        release_slack(&mut self.cells);
        let (_, reads) = self.origins.remove(i);
        release_slack(&mut self.origins);
        reads
    }

    /// Records one write (replica update).
    pub fn record_write(&mut self) {
        self.current_writes += 1;
        self.write_total += 1;
    }

    /// Rotates every counter to the next period. Returns whether the
    /// expired period held any traffic, i.e. whether a window total — and
    /// with it anything computed from [`reads`](ReplicaStats::reads) and
    /// [`total_writes`](ReplicaStats::total_writes) — changed.
    pub fn rotate(&mut self) -> bool {
        let writes = std::mem::take(&mut self.current_writes);
        self.push_cells((WRITES, 0), writes);
        self.current = ((usize::from(self.current) + 1) % COUNTER_SLOTS) as u8;
        // The new period reuses the label of the window's oldest one.
        let current = self.current;
        let expired = self
            .cells
            .iter()
            .take_while(|cell| cell.period == current)
            .count();
        if expired == 0 {
            return false;
        }
        for cell in self.cells.drain(..expired) {
            let count = u64::from(cell.count);
            if cell.kind == WRITES {
                self.write_total -= count;
                continue;
            }
            let i = self
                .origins
                .iter()
                .position(|&(origin, _)| cell.counts(source_of(origin)))
                .expect("the origin of a cell is listed");
            self.origins[i].1 -= count;
            // An origin that has gone completely quiet is dropped, to keep
            // the list small.
            if self.origins[i].1 == 0 {
                self.origins.remove(i);
            }
        }
        release_slack(&mut self.cells);
        release_slack(&mut self.origins);
        true
    }

    /// Iterates over `(origin, reads in window)` pairs with a non-zero
    /// count, in [`SubtreeId`] order.
    pub fn reads(&self) -> impl Iterator<Item = (SubtreeId, u64)> + '_ {
        self.origins.iter().copied().filter(|&(_, reads)| reads > 0)
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

    /// Bytes of heap the statistics hold (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        self.origins.capacity() * std::mem::size_of::<(SubtreeId, u64)>()
            + self.cells.capacity() * std::mem::size_of::<Cell>()
    }

    /// These statistics emptied for another replica, equal to
    /// [`ReplicaStats::new`] but keeping their heap, or `None` when a list
    /// holds more than the four elements [`release_slack`] leaves an empty
    /// one: a replica admitted into a full server takes over the victim's
    /// allocations instead of making its own.
    pub(crate) fn recycled(mut self) -> Option<ReplicaStats> {
        if self.origins.capacity() > 4 || self.cells.capacity() > 4 {
            return None;
        }
        self.origins.clear();
        self.cells.clear();
        Some(ReplicaStats {
            origins: self.origins,
            cells: self.cells,
            ..ReplicaStats::default()
        })
    }
}

#[cfg(test)]
impl ReplicaStats {
    /// Number of stored period counters.
    pub(crate) fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Reads in the window coming from one specific origin.
    fn reads_from(&self, origin: SubtreeId) -> u64 {
        self.origin_index(origin).map_or(0, |i| self.origins[i].1)
    }

    /// Panics unless the layout is what every method relies on: no empty
    /// cell, cells ordered oldest period first, each total the sum of its
    /// cells, and no capacity beyond what [`release_slack`] leaves.
    fn assert_well_formed(&self) {
        let window = COUNTER_SLOTS;
        let age =
            |cell: &Cell| (usize::from(self.current) + window - usize::from(cell.period)) % window;
        assert!(self.cells.iter().all(|cell| cell.count > 0));
        assert!(self
            .cells
            .iter()
            .all(|cell| usize::from(cell.period) < window));
        assert!(self
            .cells
            .windows(2)
            .all(|pair| age(&pair[0]) >= age(&pair[1])));
        let sum = |source| -> u64 {
            let cells = self.cells.iter().filter(|cell| cell.counts(source));
            cells.map(|cell| u64::from(cell.count)).sum()
        };
        assert_eq!(self.write_total, sum((WRITES, 0)) + self.current_writes);
        for &(origin, reads) in &self.origins {
            assert!(reads > 0);
            assert_eq!(reads, sum(source_of(origin)), "{origin}");
        }
        assert!(self.origins.windows(2).all(|pair| pair[0].0 < pair[1].0));
        assert!(self.cells.capacity() <= (4 * self.cells.len()).max(4));
        assert!(self.origins.capacity() <= (4 * self.origins.len()).max(4));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_grouped_by_origin() {
        let mut s = ReplicaStats::new();
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
        let mut s = ReplicaStats::new();
        s.record_read(SubtreeId::Rack(1));
        s.record_write();
        // Every period of the window has a label of its own.
        for _ in 1..COUNTER_SLOTS {
            assert!(!s.rotate());
            assert_eq!((s.total_reads(), s.total_writes()), (1, 1));
        }
        // The period left the window.
        assert!(s.rotate());
        assert!(s.is_idle());
        // Idle origins are pruned from the map.
        assert_eq!(s.reads().count(), 0);
    }

    #[test]
    fn take_origin_moves_history() {
        let mut s = ReplicaStats::new();
        s.record_reads(SubtreeId::Rack(3), 5);
        s.record_read(SubtreeId::Intermediate(1));
        assert_eq!(s.take_origin(SubtreeId::Rack(3)), 5);
        assert_eq!(s.take_origin(SubtreeId::Rack(3)), 0);
        assert_eq!(s.total_reads(), 1);
        // Bulk-recording zero reads is a no-op.
        s.record_reads(SubtreeId::Rack(9), 0);
        assert_eq!(s.reads_from(SubtreeId::Rack(9)), 0);
    }

    /// The sparse window must behave exactly like the representation it
    /// stands for: one independent [`RotatingCounter`] for the writes and
    /// one per origin, idle origins pruned on rotation. One rotation in five
    /// steps wraps the window over a hundred times.
    #[test]
    fn sparse_window_matches_one_rotating_counter_per_origin() {
        use crate::counters::RotatingCounter;
        use std::collections::BTreeMap;

        let origins = [
            SubtreeId::Root,
            SubtreeId::Intermediate(1),
            SubtreeId::Rack(0),
            SubtreeId::Rack(1),
            SubtreeId::Machine(0),
        ];
        // A fixed seed, so the op sequence repeats exactly.
        let mut rng = proptest::TestRng::new(0x5EED);
        let mut next = move || rng.next_u64();
        let mut stats = ReplicaStats::new();
        let mut reads: BTreeMap<SubtreeId, RotatingCounter> = BTreeMap::new();
        let mut writes = RotatingCounter::new(COUNTER_SLOTS);
        for step in 0..16_000 {
            let origin = origins[(next() % origins.len() as u64) as usize];
            match next() % 10 {
                0..=4 => {
                    // Mostly single digits; now and then more than one
                    // cell holds.
                    let count = match next() % 8 {
                        0 => next() % (3 * u64::from(u16::MAX)),
                        _ => next() % 4,
                    };
                    stats.record_reads(origin, count);
                    if count > 0 {
                        reads
                            .entry(origin)
                            .or_insert_with(|| RotatingCounter::new(COUNTER_SLOTS))
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
            stats.assert_well_formed();
        }
    }

    /// A count wider than a cell continues in further cells: exact, and
    /// expired as one.
    #[test]
    fn counts_beyond_a_cell_spill_instead_of_wrapping() {
        let cell_max = u64::from(u16::MAX);
        let (near, far) = (SubtreeId::Rack(0), SubtreeId::Intermediate(1));
        let mut s = ReplicaStats::new();
        s.record_reads(near, 3 * cell_max + 5);
        s.record_read(far);
        assert_eq!(s.cell_count(), 5);
        s.rotate();
        // The next period tops up its own cell, not the full ones.
        s.record_reads(near, cell_max - 1);
        s.record_reads(near, 2);
        assert_eq!(s.reads_from(near), 4 * cell_max + 6);
        assert_eq!(s.total_reads(), 4 * cell_max + 7);
        s.assert_well_formed();
        for _ in 2..COUNTER_SLOTS {
            assert!(!s.rotate());
        }
        assert!(s.rotate());
        assert_eq!(s.reads().collect::<Vec<_>>(), vec![(near, cell_max + 1)]);
        assert_eq!(s.cell_count(), 2);
        assert!(s.rotate());
        assert!(s.is_idle());
        assert_eq!(s.heap_bytes(), 0);
    }

    #[test]
    fn recycled_stats_are_new_ones_that_keep_a_small_heap() {
        let mut s = ReplicaStats::new();
        s.record_reads(SubtreeId::Rack(2), 3);
        s.record_write();
        s.rotate();
        s.record_read(SubtreeId::Intermediate(1));
        let heap = s.heap_bytes();
        assert!(heap > 0);
        let recycled = s.recycled().expect("four elements per list at most");
        assert_eq!(recycled, ReplicaStats::new());
        assert_eq!(recycled.heap_bytes(), heap);
        recycled.assert_well_formed();
        // A list past four elements is not kept.
        let mut busy = ReplicaStats::new();
        for rack in 0..5 {
            busy.record_read(SubtreeId::Rack(rack));
        }
        assert_eq!(busy.recycled(), None);
    }

    #[test]
    fn new_stats_are_idle_and_own_no_heap() {
        let s = ReplicaStats::new();
        assert!(s.is_idle());
        assert_eq!(s.total_reads(), 0);
        assert_eq!(s.total_writes(), 0);
        assert_eq!(s.heap_bytes(), 0);
        assert_eq!(std::mem::size_of::<Cell>(), 8);
    }
}
