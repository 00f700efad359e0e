//! Rotating access counters.
//!
//! DynaSoRe records per-view access rates with "rotating counters … Each
//! counter is associated to a time period, and servers start updating the
//! following counter at the end of the period. For example, to record the
//! accesses during one day with a rotating period of one hour, we can use 24
//! counters of 1 byte" (§3.2, *Access statistics*). A rotating window makes
//! the statistics forget old behaviour, which is what lets the system react
//! to flash events and traffic changes.
//!
//! The engine stores every replica's counters packed in one list
//! (`ReplicaStats`); this ring of one count is the specification the tests
//! hold each of those counts to, and is compiled for tests only.

/// A fixed-size ring of per-period counters.
///
/// [`record`](RotatingCounter::record) increments the current period;
/// [`rotate`](RotatingCounter::rotate) moves to the next period, clearing
/// it. [`total`](RotatingCounter::total) sums the whole window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotatingCounter {
    slots: Vec<u64>,
    current: usize,
    /// Running sum of the whole window, maintained on `record`/`rotate` so
    /// `total()` is O(1) — it is read many times per request by the utility
    /// estimation.
    total: u64,
}

impl RotatingCounter {
    /// Creates a counter with `slots` periods (the paper uses 24 one-hour
    /// slots).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "a rotating counter needs at least one slot");
        RotatingCounter {
            slots: vec![0; slots],
            current: 0,
            total: 0,
        }
    }

    /// Adds `count` accesses to the current period.
    pub fn record(&mut self, count: u64) {
        self.slots[self.current] += count;
        self.total += count;
    }

    /// Moves to the next period, clearing it.
    pub fn rotate(&mut self) {
        self.current = (self.current + 1) % self.slots.len();
        self.total -= self.slots[self.current];
        self.slots[self.current] = 0;
    }

    /// Total accesses over the whole window.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether the whole window is zero.
    pub fn is_idle(&self) -> bool {
        self.total == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_in_current_slot() {
        let mut c = RotatingCounter::new(4);
        c.record(3);
        c.record(2);
        assert_eq!(c.slots, [5, 0, 0, 0]);
        assert_eq!(c.total(), 5);
        assert!(!c.is_idle());
    }

    #[test]
    fn rotation_expires_old_slots() {
        let mut c = RotatingCounter::new(3);
        c.record(10);
        for _ in 0..2 {
            c.rotate();
            c.record(1);
        }
        // Window: [10, 1, 1]
        assert_eq!(c.total(), 12);
        c.rotate(); // wraps around, clears the slot that held 10
        assert_eq!(c.total(), 2);
        c.rotate();
        c.rotate();
        c.rotate();
        assert_eq!(c.total(), 0);
        assert!(c.is_idle());
    }

    #[test]
    fn single_slot_counter_resets_on_every_rotation() {
        let mut c = RotatingCounter::new(1);
        c.record(7);
        assert_eq!(c.total(), 7);
        c.rotate();
        assert_eq!(c.total(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        RotatingCounter::new(0);
    }
}
