//! Per-replica access statistics.
//!
//! Each replica stores, alongside the view itself, how often it is read from
//! each coarse origin (the sibling racks of its own intermediate switch and
//! the other intermediate switches — see
//! [`Topology::access_origin`](dynasore_topology::Topology::access_origin))
//! and how often it is written (§3.2, *Access statistics*). These rates feed
//! the utility estimation of Algorithm 1.
//!
//! A replica's statistics are one 40-byte header and at most one heap
//! allocation of 4-byte words: 8 bytes per origin (its packed
//! [`SubtreeId`] and its window total) followed by 4 bytes per non-zero
//! period counter. At 100k users on the paper tree that is 73.6 bytes of
//! heap per replica (`BENCH_hotpath.json`, `stats_bytes_per_replica`),
//! and 149 bytes after the five simulated days of dynabench's `sim_replay`
//! (10k users).

use dynasore_types::SubtreeId;

/// Periods in every replica's rotating access-statistics window: the paper
/// keeps 24 one-hour slots (§4.3).
pub(crate) const COUNTER_SLOTS: usize = 24;

/// Bits of a cell that label its period.
const PERIOD_BITS: u32 = 5;
/// Bits of a cell that hold its count, below the period's.
const COUNT_BITS: u32 = 11;
/// A cell names what it counts in the bits above the period's.
const POSITION_SHIFT: u32 = PERIOD_BITS + COUNT_BITS;

const _: () = assert!(COUNTER_SLOTS >= 1 && COUNTER_SLOTS <= 1 << PERIOD_BITS);

/// The most one cell counts; a larger count continues in further cells.
const CELL_MAX: u32 = (1 << COUNT_BITS) - 1;

/// The position a cell of the writes names; origin `i` of the list is
/// position `i + 1`.
const WRITES: u32 = 0;

/// The most origins one replica lists: every position but the writes'.
const MAX_ORIGINS: usize = (1 << (u32::BITS - POSITION_SHIFT)) - 1;

/// Words of heap that statistics handed to another replica may keep
/// (see [`ReplicaStats::recycled`]).
const RECYCLED_WORDS: usize = 16;

/// Bits of a packed origin below its kind.
const KIND_SHIFT: u32 = 30;

/// `origin` as one word, ordered as [`SubtreeId`]'s `Ord`: the kind in the
/// top two bits, the index below.
///
/// # Panics
///
/// Panics if the index does not fit below the kind (2^30 and up), which no
/// topology reaches.
fn pack(origin: SubtreeId) -> u32 {
    let (kind, index) = match origin {
        SubtreeId::Root => (0, 0),
        SubtreeId::Intermediate(i) => (1, i),
        SubtreeId::Rack(r) => (2, r),
        SubtreeId::Machine(m) => (3, m),
    };
    assert!(index < 1 << KIND_SHIFT, "{origin} cannot be packed");
    kind << KIND_SHIFT | index
}

/// The origin [`pack`] made `key` from.
fn unpack(key: u32) -> SubtreeId {
    let index = key & ((1 << KIND_SHIFT) - 1);
    match key >> KIND_SHIFT {
        0 => SubtreeId::Root,
        1 => SubtreeId::Intermediate(index),
        2 => SubtreeId::Rack(index),
        _ => SubtreeId::Machine(index),
    }
}

/// One non-zero period counter, one word: the position it counts (the
/// writes or one listed origin) in the top 16 bits, the label of its period
/// in the next 5 and its count in the low 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell(u32);

impl Cell {
    fn new(position: u32, period: u8, count: u32) -> Cell {
        Cell(position << POSITION_SHIFT | u32::from(period) << COUNT_BITS | count)
    }

    fn position(self) -> u32 {
        self.0 >> POSITION_SHIFT
    }

    fn period(self) -> u8 {
        ((self.0 >> COUNT_BITS) & ((1 << PERIOD_BITS) - 1)) as u8
    }

    fn count(self) -> u32 {
        self.0 & CELL_MAX
    }
}

/// Gives back the capacity a burst left behind, so that the heap of a
/// replica follows the traffic in its window: at most four times its
/// length (or the four words a `Vec` starts with, or the
/// [`RECYCLED_WORDS`] that [`ReplicaStats::recycled`] keeps), nothing once
/// emptied here.
fn release_slack(words: &mut Vec<u32>) {
    if words.capacity() > 4 * words.len() {
        words.shrink_to(2 * words.len());
    }
}

/// Access statistics of one replica of one view on one server: the writes
/// and the reads of each origin over a rotating window of 24 periods, every
/// count behaving like its own ring of period counters (the test oracle
/// `counters::RotatingCounter`), quiet origins forgotten.
///
/// The window is stored sparsely, sized by the traffic in it instead of by
/// periods × origins, in one list of words. It starts with one
/// `[key, total]` pair per origin, sorted by key — the origin packed into a
/// word in [`SubtreeId`] order, which no `AddRack` can shift, and its
/// window total, saturating at `u32::MAX` — so the per-read evaluation
/// iterates 8 bytes per origin and touches nothing else. The *non-zero*
/// period counters follow, one `Cell` word each, oldest period first. A
/// cell names the writes (position 0) or an origin by its place in the
/// list, and cells are renumbered when an origin is inserted or removed.
/// All counters of a replica rotate together and cells are only ever
/// appended for the current period, so the current period's cells are the
/// tail (where a read finds its own among at most one per origin) and an
/// expiring period is a prefix of the cells. A count that outgrows a cell
/// continues in a further cell of the same origin and period, so the cells
/// are exact; a total saturated at `u32::MAX` is counted again from them
/// when a period expires. The current period's writes are counted in
/// `current_writes` and become cells when the period ends: a write never
/// searches.
///
/// Recording traffic that the current period has already seen touches
/// existing memory only; the first read of an origin in a period appends a
/// cell, a *new* origin also inserts its 8-byte pair, and new statistics
/// own no heap at all (the emptied statistics of a removed replica, which
/// a server hands to the next one it stores, at most 16 words).
///
/// One replica lists at most 65,535 origins (2^16 − 1 positions for them),
/// enough for a flat cluster of that many machines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// `origins` pairs of `[key, total]`, then the cells.
    words: Vec<u32>,
    write_total: u32,
    current_writes: u32,
    origins: u16,
    /// The label of the current period, in `0..COUNTER_SLOTS`.
    current: u8,
}

// The header stays what `SlotEntry` is sized by.
const _: () = assert!(std::mem::size_of::<ReplicaStats>() <= 40);

impl ReplicaStats {
    /// Creates empty statistics. Allocates nothing.
    pub fn new() -> Self {
        ReplicaStats::default()
    }

    /// The first word of the statistics' heap, 0 if they own none.
    pub(crate) fn first_word(&self) -> u32 {
        self.words.first().copied().unwrap_or(0)
    }

    /// Words the origin pairs take at the front of `words`.
    fn origin_words(&self) -> usize {
        2 * usize::from(self.origins)
    }

    /// The `[key, total]` pairs, sorted by key.
    fn origin_pairs(&self) -> &[[u32; 2]] {
        self.words[..self.origin_words()].as_chunks().0
    }

    fn cells(&self) -> impl Iterator<Item = Cell> + '_ {
        self.words[self.origin_words()..]
            .iter()
            .map(|&word| Cell(word))
    }

    fn origin_index(&self, key: u32) -> Result<usize, usize> {
        self.origin_pairs()
            .binary_search_by_key(&key, |&[key, _]| key)
    }

    /// The window total of what `position` names.
    fn total_mut(&mut self, position: u32) -> &mut u32 {
        match position {
            WRITES => &mut self.write_total,
            origin => &mut self.words[2 * (origin as usize - 1) + 1],
        }
    }

    /// Appends `count` of `position` to the current period, in as many
    /// cells as it takes.
    fn push_cells(&mut self, position: u32, mut count: u64) {
        while count > 0 {
            let part = count.min(u64::from(CELL_MAX)) as u32;
            self.words.push(Cell::new(position, self.current, part).0);
            count -= u64::from(part);
        }
    }

    /// Adds `delta` to the position of every cell past `position`, keeping
    /// the cells' names when the origin there is inserted (`1`) or removed
    /// (`u32::MAX`, a wrapping `-1`).
    fn renumber_after(&mut self, position: u32, delta: u32) {
        let start = self.origin_words();
        for word in &mut self.words[start..] {
            if Cell(*word).position() > position {
                *word = word.wrapping_add(delta << POSITION_SHIFT);
            }
        }
    }

    /// Lists `key` at index `i` of the origins with a total of zero.
    fn insert_origin(&mut self, i: usize, key: u32) {
        assert!(
            usize::from(self.origins) < MAX_ORIGINS,
            "a replica lists at most {MAX_ORIGINS} origins"
        );
        self.renumber_after(i as u32, 1);
        self.words.insert(2 * i, 0);
        self.words.insert(2 * i, key);
        self.origins += 1;
    }

    /// Unlists the origin at index `i`, whose cells are gone.
    fn remove_origin(&mut self, i: usize) {
        self.words.drain(2 * i..2 * i + 2);
        self.origins -= 1;
        self.renumber_after(i as u32 + 1, u32::MAX);
    }

    /// Records one read arriving from `origin`.
    pub fn record_read(&mut self, origin: SubtreeId) {
        self.record_reads(origin, 1);
    }

    /// Records `count` reads arriving from `origin` in one go. Used when a
    /// newly created replica inherits the read history of the origins it
    /// takes over from the source replica.
    ///
    /// # Panics
    ///
    /// Panics if `origin` would be the replica's 65,536th origin.
    pub fn record_reads(&mut self, origin: SubtreeId, mut count: u64) {
        if count == 0 {
            return;
        }
        let key = pack(origin);
        let i = self.origin_index(key).unwrap_or_else(|i| {
            self.insert_origin(i, key);
            i
        });
        let position = i as u32 + 1;
        let total = self.total_mut(position);
        *total = total.saturating_add(count.try_into().unwrap_or(u32::MAX));
        let (start, period) = (self.origin_words(), self.current);
        let open = self.words[start..]
            .iter_mut()
            .rev()
            .take_while(|word| Cell(**word).period() == period)
            .find(|word| {
                let cell = Cell(**word);
                cell.position() == position && cell.count() < CELL_MAX
            });
        if let Some(word) = open {
            let part = count.min(u64::from(CELL_MAX - Cell(*word).count())) as u32;
            *word += part;
            count -= u64::from(part);
        }
        self.push_cells(position, count);
    }

    /// Removes the read history of `origin` and returns how many reads it
    /// held. Used when another replica takes over serving that origin, so
    /// the source replica does not keep proposing new replicas for readers
    /// it no longer serves.
    pub fn take_origin(&mut self, origin: SubtreeId) -> u64 {
        let Ok(i) = self.origin_index(pack(origin)) else {
            return 0;
        };
        let reads = self.origin_pairs()[i][1];
        let (start, position) = (self.origin_words(), i as u32 + 1);
        let mut j = 0;
        self.words.retain(|&word| {
            j += 1;
            j <= start || Cell(word).position() != position
        });
        self.remove_origin(i);
        release_slack(&mut self.words);
        u64::from(reads)
    }

    /// Records one write (replica update).
    pub fn record_write(&mut self) {
        if self.current_writes == u32::MAX {
            self.push_cells(WRITES, u64::from(u32::MAX));
            self.current_writes = 0;
        }
        self.current_writes += 1;
        self.write_total = self.write_total.saturating_add(1);
    }

    /// Rotates every counter to the next period. Returns whether the
    /// expired period held any traffic, i.e. whether a window total — and
    /// with it anything computed from [`reads`](ReplicaStats::reads) and
    /// [`total_writes`](ReplicaStats::total_writes) — changed.
    pub fn rotate(&mut self) -> bool {
        let writes = std::mem::take(&mut self.current_writes);
        self.push_cells(WRITES, u64::from(writes));
        self.current = ((usize::from(self.current) + 1) % COUNTER_SLOTS) as u8;
        // The new period reuses the label of the window's oldest one.
        let current = self.current;
        let start = self.origin_words();
        let expired = self
            .cells()
            .take_while(|cell| cell.period() == current)
            .count();
        if expired == 0 {
            return false;
        }
        for j in start..start + expired {
            let cell = Cell(self.words[j]);
            let total = self.total_mut(cell.position());
            // A saturated total is counted again below.
            if *total != u32::MAX {
                *total -= cell.count();
            }
        }
        self.words.drain(start..start + expired);
        for position in 0..=u32::from(self.origins) {
            if *self.total_mut(position) == u32::MAX {
                let cells = self.cells().filter(|cell| cell.position() == position);
                let sum = cells.fold(0u32, |sum, cell| sum.saturating_add(cell.count()));
                *self.total_mut(position) = sum;
            }
        }
        // An origin that has gone completely quiet is dropped, to keep the
        // list small.
        for i in (0..usize::from(self.origins)).rev() {
            if self.origin_pairs()[i][1] == 0 {
                self.remove_origin(i);
            }
        }
        release_slack(&mut self.words);
        true
    }

    /// Iterates over `(origin, reads in window)` pairs, every count
    /// non-zero, in [`SubtreeId`] order.
    pub fn reads(&self) -> impl Iterator<Item = (SubtreeId, u64)> + '_ {
        self.origin_pairs()
            .iter()
            .map(|&[key, total]| (unpack(key), u64::from(total)))
    }

    /// Total reads in the window, over all origins.
    pub fn total_reads(&self) -> u64 {
        self.origin_pairs()
            .iter()
            .map(|&[_, total]| u64::from(total))
            .sum()
    }

    /// Total writes (replica updates) in the window.
    pub fn total_writes(&self) -> u64 {
        u64::from(self.write_total)
    }

    /// Whether the replica saw no traffic at all during the window.
    pub fn is_idle(&self) -> bool {
        self.total_reads() == 0 && self.total_writes() == 0
    }

    /// Bytes of heap the statistics hold (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u32>()
    }

    /// These statistics emptied for another replica, equal to
    /// [`ReplicaStats::new`] but keeping their heap, or `None` when it is
    /// more than [`RECYCLED_WORDS`]: a replica admitted into a full server
    /// takes over the victim's allocation instead of making its own.
    pub(crate) fn recycled(mut self) -> Option<ReplicaStats> {
        if self.words.capacity() > RECYCLED_WORDS {
            return None;
        }
        self.words.clear();
        Some(ReplicaStats {
            words: self.words,
            ..ReplicaStats::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl ReplicaStats {
        /// Number of stored period counters.
        pub(crate) fn cell_count(&self) -> usize {
            self.cells().count()
        }

        /// Reads in the window coming from one specific origin.
        fn reads_from(&self, origin: SubtreeId) -> u64 {
            let i = self.origin_index(pack(origin));
            i.map_or(0, |i| u64::from(self.origin_pairs()[i][1]))
        }

        /// Panics unless the layout is what every method relies on: no empty
        /// cell, every cell naming the writes or a listed origin, cells ordered
        /// oldest period first, each total the sum of its cells (saturated),
        /// and no capacity beyond what [`release_slack`] leaves.
        fn assert_well_formed(&self) {
            let window = COUNTER_SLOTS;
            let age = |cell: Cell| {
                (usize::from(self.current) + window - usize::from(cell.period())) % window
            };
            let cells: Vec<Cell> = self.cells().collect();
            assert!(cells.iter().all(|cell| cell.count() > 0));
            assert!(cells.iter().all(|cell| usize::from(cell.period()) < window));
            assert!(cells
                .iter()
                .all(|cell| cell.position() <= u32::from(self.origins)));
            assert!(cells.windows(2).all(|pair| age(pair[0]) >= age(pair[1])));
            let sum = |position| -> u64 {
                let cells = cells.iter().filter(|cell| cell.position() == position);
                cells.map(|cell| u64::from(cell.count())).sum()
            };
            let saturated = |sum: u64| sum.min(u64::from(u32::MAX));
            assert_eq!(
                self.total_writes(),
                saturated(sum(WRITES) + u64::from(self.current_writes))
            );
            for (i, &[key, total]) in self.origin_pairs().iter().enumerate() {
                assert!(total > 0);
                let origin = unpack(key);
                assert_eq!(pack(origin), key);
                assert_eq!(u64::from(total), saturated(sum(i as u32 + 1)), "{origin}");
            }
            let pairs = self.origin_pairs();
            assert!(pairs.windows(2).all(|pair| pair[0][0] < pair[1][0]));
            let limit = (4 * self.words.len()).max(RECYCLED_WORDS);
            assert!(self.words.capacity() <= limit);
        }
    }

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

    /// The origin `who` draws: mostly one of a flat cluster's 400 machines,
    /// else a tree's switch.
    fn drawn_origin(who: u32) -> SubtreeId {
        match who % 7 {
            0 => SubtreeId::Rack(who % 6),
            1 => SubtreeId::Intermediate(who % 6),
            2 => SubtreeId::Root,
            _ => SubtreeId::Machine(who % 400),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random reads, writes, hand-overs and rotations keep every total
        /// equal to one ring per origin, starting from 300 listed origins
        /// (more than a byte can number).
        #[test]
        fn many_origins_match_one_rotating_counter_each(
            ops in proptest::collection::vec(
                ((0u32..100, 0u32..2_800), 0..3 * u64::from(CELL_MAX)),
                1..1_500,
            )
        ) {
            use crate::counters::RotatingCounter;
            use std::collections::BTreeMap;

            let mut stats = ReplicaStats::new();
            let mut reads: BTreeMap<SubtreeId, RotatingCounter> = BTreeMap::new();
            let mut writes = RotatingCounter::new(COUNTER_SLOTS);
            let flat = (0..300).map(|m| ((0, 7 * m + 3), 1));
            for ((kind, who), count) in flat.chain(ops) {
                let origin = drawn_origin(who);
                match kind {
                    0..70 => {
                        stats.record_reads(origin, count);
                        if count > 0 {
                            reads
                                .entry(origin)
                                .or_insert_with(|| RotatingCounter::new(COUNTER_SLOTS))
                                .record(count);
                        }
                    }
                    70..90 => {
                        stats.record_write();
                        writes.record(1);
                    }
                    90..96 => {
                        let expected = reads.remove(&origin).map_or(0, |c| c.total());
                        prop_assert_eq!(stats.take_origin(origin), expected);
                    }
                    _ => {
                        stats.rotate();
                        writes.rotate();
                        reads.values_mut().for_each(RotatingCounter::rotate);
                        reads.retain(|_, c| !c.is_idle());
                    }
                }
                let expected: Vec<(SubtreeId, u64)> =
                    reads.iter().map(|(&o, c)| (o, c.total())).collect();
                prop_assert_eq!(stats.reads().collect::<Vec<_>>(), expected);
                prop_assert_eq!(stats.total_writes(), writes.total());
            }
            stats.assert_well_formed();
        }
    }

    #[test]
    fn hundreds_of_origins_keep_their_own_counts() {
        let mut s = ReplicaStats::new();
        // Inserted out of order, so every insert renumbers cells.
        for m in (0..600u32).rev() {
            s.record_reads(SubtreeId::Machine(m), u64::from(m) + 1);
        }
        s.rotate();
        for m in (0..600u32).step_by(2) {
            s.record_read(SubtreeId::Machine(m));
        }
        s.assert_well_formed();
        assert_eq!(s.reads().count(), 600);
        for (origin, reads) in s.reads() {
            let SubtreeId::Machine(m) = origin else {
                panic!("{origin}")
            };
            assert_eq!(reads, u64::from(m) + 1 + u64::from(m % 2 == 0));
        }
        assert_eq!(s.take_origin(SubtreeId::Machine(599)), 600);
        // The first period leaves the window: the odd machines go quiet.
        for _ in 1..COUNTER_SLOTS {
            s.rotate();
        }
        s.assert_well_formed();
        assert_eq!(s.reads().count(), 300);
        assert!(s.reads().all(|(_, reads)| reads == 1));
    }

    /// Window totals stop at `u32::MAX` while the cells stay exact, so the
    /// total is right again once enough traffic has expired.
    #[test]
    fn totals_saturate_and_recover_as_traffic_expires() {
        let max = u64::from(u32::MAX);
        let (near, far) = (SubtreeId::Rack(0), SubtreeId::Intermediate(1));
        let mut s = ReplicaStats::new();
        s.record_reads(near, max + 10);
        s.record_read(far);
        s.record_reads(near, 3);
        assert_eq!(s.reads_from(near), max);
        assert_eq!(s.total_reads(), max + 1);
        // Writes: a period that already counted `u32::MAX` of them.
        s.current_writes = u32::MAX;
        s.write_total = u32::MAX;
        s.record_write();
        s.record_write();
        assert_eq!(s.total_writes(), max);
        s.assert_well_formed();
        assert!(!s.rotate());
        s.record_reads(near, 5);
        s.record_write();
        assert_eq!((s.reads_from(near), s.total_writes()), (max, max));
        for _ in 2..COUNTER_SLOTS {
            assert!(!s.rotate());
        }
        // The saturated period expires: counted again from what is left.
        assert!(s.rotate());
        s.assert_well_formed();
        assert_eq!(s.reads().collect::<Vec<_>>(), vec![(near, 5)]);
        assert_eq!(s.total_writes(), 1);
        assert!(s.rotate());
        assert!(s.is_idle());
        assert_eq!(s.heap_bytes(), 0);
    }

    /// A count wider than a cell continues in further cells: exact, and
    /// expired as one.
    #[test]
    fn counts_beyond_a_cell_spill_instead_of_wrapping() {
        let cell_max = u64::from(CELL_MAX);
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
        let recycled = s.recycled().expect("a small heap");
        assert_eq!(recycled, ReplicaStats::new());
        assert_eq!(recycled.heap_bytes(), heap);
        recycled.assert_well_formed();
        // A heap past `RECYCLED_WORDS` is not kept.
        let mut busy = ReplicaStats::new();
        for rack in 0..6 {
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
        assert_eq!(std::mem::size_of::<Cell>(), 4);
    }

    #[test]
    fn packed_origins_sort_as_subtree_ids() {
        let origins = [
            SubtreeId::Root,
            SubtreeId::Intermediate(0),
            SubtreeId::Intermediate(7),
            SubtreeId::Rack(0),
            SubtreeId::Rack((1 << KIND_SHIFT) - 1),
            SubtreeId::Machine(3),
            SubtreeId::Machine(250),
        ];
        for pair in origins.windows(2) {
            assert!(pack(pair[0]) < pack(pair[1]), "{pair:?}");
        }
        for origin in origins {
            assert_eq!(unpack(pack(origin)), origin);
        }
    }
}
