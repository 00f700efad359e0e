//! Serving-plane primitives: typed response status codes and monotone
//! per-user flow budgets.
//!
//! Both types live in the bottom layer because the observability tables in
//! [`crate::obs`] fold served-envelope trace events into metrics (they need
//! [`StatusCode`]) and because budgets are plain data a gossip or
//! replication layer may want to ship between processes without pulling in
//! the serving crate.
//!
//! # Flow budgets
//!
//! A [`FlowBudget`] is a pair of counters with lattice merge semantics:
//! `limit` is a *meet* (merges take the minimum — a budget can only get
//! stricter) and `spent` is a *join* (merges take the maximum — work already
//! charged is never forgotten). Merging is therefore commutative,
//! associative and idempotent: any number of replicas exchanging budgets in
//! any order converge to the same ledger, and no interleaving can un-spend a
//! charge or re-loosen a tightened limit.

/// Typed status of a served request envelope.
///
/// The mapping discipline (borrowed from harmony's 401-vs-500 rule): only a
/// genuine credential failure maps to [`StatusCode::Unauthorized`], only an
/// exhausted flow budget maps to [`StatusCode::Throttled`]; a stage that
/// fails for any internal reason — bad configuration, a poisoned lock, a
/// transform bug — must surface as [`StatusCode::Internal`] so operators
/// never chase an auth incident that is actually a deployment bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StatusCode {
    /// The request was served.
    Ok,
    /// Credential check failed (missing or invalid token).
    Unauthorized,
    /// The requested user does not exist in the social graph.
    NotFound,
    /// The caller's flow budget is exhausted. A [`FlowBudget`] is cumulative
    /// and has no epoch: `spent` never rolls over, so the caller stays
    /// throttled for good.
    Throttled,
    /// Admission control rejected the request: the cluster is over its
    /// configured load ceiling.
    Overloaded,
    /// The service is draining or shut down; the request was not attempted.
    Unavailable,
    /// A middleware stage or the backend failed internally.
    Internal,
}

impl StatusCode {
    /// Whether the envelope was served successfully.
    #[must_use]
    pub fn is_success(self) -> bool {
        self == StatusCode::Ok
    }

    /// Stable kebab-case name, used in trace JSON and metrics labels.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            StatusCode::Ok => "ok",
            StatusCode::Unauthorized => "unauthorized",
            StatusCode::NotFound => "not-found",
            StatusCode::Throttled => "throttled",
            StatusCode::Overloaded => "overloaded",
            StatusCode::Unavailable => "unavailable",
            StatusCode::Internal => "internal",
        }
    }
}

impl std::fmt::Display for StatusCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A monotone per-user flow-budget ledger.
///
/// `limit` is the cap on cumulative charged cost and only ever decreases
/// ([`FlowBudget::restrict`], merge takes the min); `spent` is cumulative
/// charged cost and only ever increases ([`FlowBudget::charge`], merge takes
/// the max). Determinism follows: the ledger's state is a pure function of
/// the *set* of charges and restrictions applied, not their order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowBudget {
    limit: u64,
    spent: u64,
}

impl FlowBudget {
    /// A fresh ledger with `limit` units of capacity and nothing spent.
    #[must_use]
    pub fn new(limit: u64) -> Self {
        FlowBudget { limit, spent: 0 }
    }

    /// The current cap on cumulative charged cost.
    #[must_use]
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Cumulative cost charged so far.
    #[must_use]
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Capacity still available: `limit - spent`, saturating at zero (a
    /// merge may pull `limit` below an already-charged `spent`).
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.limit.saturating_sub(self.spent)
    }

    /// Whether no further non-zero charge can succeed.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Attempts to charge `cost` units. Succeeds — and records the spend —
    /// only if the whole charge fits under the limit; a failed charge
    /// changes nothing, so callers reject the request *before* any engine
    /// message is produced.
    #[must_use]
    pub fn charge(&mut self, cost: u64) -> bool {
        match self.spent.checked_add(cost) {
            Some(total) if total <= self.limit => {
                self.spent = total;
                true
            }
            _ => false,
        }
    }

    /// Tightens the limit to `min(limit, new_limit)`. Limits are a meet
    /// semilattice: they can only become stricter.
    pub fn restrict(&mut self, new_limit: u64) {
        self.limit = self.limit.min(new_limit);
    }

    /// Merges a replica's ledger: `limit` takes the min (strictest cap
    /// wins), `spent` takes the max (no charge is ever forgotten).
    /// Commutative, associative and idempotent.
    pub fn merge(&mut self, other: &FlowBudget) {
        self.limit = self.limit.min(other.limit);
        self.spent = self.spent.max(other.spent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_code_names() {
        let all = [
            (StatusCode::Ok, "ok"),
            (StatusCode::Unauthorized, "unauthorized"),
            (StatusCode::NotFound, "not-found"),
            (StatusCode::Throttled, "throttled"),
            (StatusCode::Overloaded, "overloaded"),
            (StatusCode::Unavailable, "unavailable"),
            (StatusCode::Internal, "internal"),
        ];
        for (code, name) in all {
            assert_eq!(code.as_str(), name);
            assert_eq!(code.to_string(), name);
            assert_eq!(code.is_success(), code == StatusCode::Ok);
        }
    }

    #[test]
    fn charge_is_all_or_nothing() {
        let mut b = FlowBudget::new(10);
        assert!(b.charge(4));
        assert!(b.charge(6));
        assert!(b.exhausted());
        // A failed charge leaves the ledger untouched.
        assert!(!b.charge(1));
        assert_eq!(b.spent(), 10);
        assert_eq!(b.remaining(), 0);
        // Zero-cost charges still succeed at the limit.
        assert!(b.charge(0));
    }

    #[test]
    fn charge_rejects_overflowing_cost() {
        let mut b = FlowBudget::new(u64::MAX);
        assert!(b.charge(u64::MAX - 1));
        assert!(!b.charge(u64::MAX));
        assert_eq!(b.spent(), u64::MAX - 1);
    }

    #[test]
    fn merge_takes_min_limit_max_spent() {
        let mut a = FlowBudget::new(100);
        assert!(a.charge(30));
        let mut b = FlowBudget::new(50);
        assert!(b.charge(40));
        a.merge(&b);
        assert_eq!(a.limit(), 50);
        assert_eq!(a.spent(), 40);
        // Idempotent.
        let before = a;
        a.merge(&b);
        assert_eq!(a, before);
    }

    #[test]
    fn merge_can_pull_limit_below_spent() {
        let mut a = FlowBudget::new(100);
        assert!(a.charge(80));
        a.merge(&FlowBudget::new(10));
        assert_eq!(a.remaining(), 0);
        assert!(a.exhausted());
        assert!(!a.charge(1));
    }

    #[test]
    fn restrict_never_loosens() {
        let mut b = FlowBudget::new(20);
        b.restrict(50);
        assert_eq!(b.limit(), 20);
        b.restrict(5);
        assert_eq!(b.limit(), 5);
    }
}
