//! Memory-budget arithmetic.
//!
//! The paper expresses the cluster's memory capacity relative to the minimum
//! needed to hold every view exactly once: *"Given V the set of views in the
//! system, and b the amount of memory required to store a single view, the
//! system has x% extra memory if its total memory capacity is
//! (1 + x/100) × |V| × b"* (§2.3). Server capacity is expressed as a number
//! of view slots.

use crate::{Error, Result};

/// The cluster-wide memory budget, in view slots.
///
/// # Example
///
/// ```
/// use dynasore_types::MemoryBudget;
///
/// // 10_000 views, 50% extra memory, spread over 225 servers.
/// let budget = MemoryBudget::with_extra_percent(10_000, 50);
/// assert_eq!(budget.total_slots(), 15_000);
/// let per_server = budget.slots_per_server(225).unwrap();
/// assert!(per_server * 225 >= budget.total_slots());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryBudget {
    view_count: usize,
    extra_percent: u32,
}

impl MemoryBudget {
    /// Creates a budget for `view_count` distinct views with `extra_percent`
    /// percent of additional capacity available for replication.
    pub fn with_extra_percent(view_count: usize, extra_percent: u32) -> Self {
        MemoryBudget {
            view_count,
            extra_percent,
        }
    }

    /// Creates the minimal budget: exactly one slot per view, no replication
    /// headroom (`x = 0%`).
    pub fn exact(view_count: usize) -> Self {
        MemoryBudget::with_extra_percent(view_count, 0)
    }

    /// The number of distinct views the budget accounts for.
    pub fn view_count(&self) -> usize {
        self.view_count
    }

    /// The extra-memory percentage `x`.
    pub fn extra_percent(&self) -> u32 {
        self.extra_percent
    }

    /// Total number of view slots in the cluster:
    /// `floor((1 + x/100) × |V|)`, saturating at `usize::MAX`.
    pub fn total_slots(&self) -> usize {
        self.view_count.saturating_add(self.extra_slots())
    }

    /// Number of slots available beyond one copy of every view, saturating
    /// at `usize::MAX` (the intermediate product is computed in 128 bits, so
    /// no combination of inputs can wrap).
    pub fn extra_slots(&self) -> usize {
        let raw = self.view_count as u128 * self.extra_percent as u128 / 100;
        usize::try_from(raw).unwrap_or(usize::MAX)
    }

    /// Splits the total budget evenly across `server_count` servers, rounding
    /// up so the cluster capacity is never below the budget.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `server_count` is zero, or if the
    /// resulting per-server capacity would be zero (a cluster that cannot
    /// even store one view per server is rejected, matching the paper's
    /// exclusion of the trivial under-provisioned case in §2.3).
    pub fn slots_per_server(&self, server_count: usize) -> Result<usize> {
        if server_count == 0 {
            return Err(Error::invalid_config("server_count must be positive"));
        }
        let per_server = self.total_slots().div_ceil(server_count);
        if per_server == 0 {
            return Err(Error::invalid_config(
                "memory budget is too small: zero slots per server",
            ));
        }
        Ok(per_server)
    }

    /// Average number of replicas per view this budget allows,
    /// `(1 + x/100)`, as a floating-point number.
    pub fn average_replication_factor(&self) -> f64 {
        1.0 + self.extra_percent as f64 / 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_budget_has_no_extra_slots() {
        let b = MemoryBudget::exact(500);
        assert_eq!(b.view_count(), 500);
        assert_eq!(b.extra_percent(), 0);
        assert_eq!(b.extra_slots(), 0);
        assert_eq!(b.total_slots(), 500);
        assert!((b.average_replication_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn extra_percent_rounds_down() {
        let b = MemoryBudget::with_extra_percent(1_001, 30);
        // 1001 * 0.3 = 300.3 -> 300 extra slots.
        assert_eq!(b.extra_slots(), 300);
        assert_eq!(b.total_slots(), 1_301);
    }

    #[test]
    fn paper_configurations() {
        // x = 100% doubles capacity (views can be replicated twice on
        // average), x = 200% triples it.
        let b100 = MemoryBudget::with_extra_percent(10_000, 100);
        assert_eq!(b100.total_slots(), 20_000);
        let b200 = MemoryBudget::with_extra_percent(10_000, 200);
        assert_eq!(b200.total_slots(), 30_000);
        assert!((b200.average_replication_factor() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn per_server_slots_round_up() {
        let b = MemoryBudget::with_extra_percent(1_000, 0);
        // 1000 slots over 7 servers -> ceil(142.85) = 143.
        assert_eq!(b.slots_per_server(7).unwrap(), 143);
        assert!(b.slots_per_server(7).unwrap() * 7 >= b.total_slots());
    }

    /// Why no engine can be built over a cluster too small for its views:
    /// rounding up gives every cluster room for one copy of each.
    #[test]
    fn per_server_slots_always_hold_every_view() {
        for views in [1, 2, 7, 100, 399, 400, 401, 10_007] {
            for extra in [0, 1, 30, 99, 100, 200] {
                for servers in [1, 2, 3, 16, 27, 225, 401, 20_000] {
                    let b = MemoryBudget::with_extra_percent(views, extra);
                    let per_server = b.slots_per_server(servers).unwrap();
                    assert!(
                        per_server * servers >= b.view_count(),
                        "{views} views, {extra}% extra, {servers} servers: {per_server} each"
                    );
                }
            }
        }
    }

    #[test]
    fn per_server_slots_reject_bad_configs() {
        let b = MemoryBudget::exact(10);
        assert!(b.slots_per_server(0).is_err());
        let empty = MemoryBudget::exact(0);
        assert!(empty.slots_per_server(5).is_err());
    }

    #[test]
    fn large_budget_does_not_overflow() {
        let b = MemoryBudget::with_extra_percent(usize::MAX / 4, 200);
        // Must not panic.
        let _ = b.extra_slots();
    }
}
