//! Property tests for flow-budget semantics: `spent` is monotone
//! non-decreasing and `limit` monotone non-increasing under arbitrary
//! interleavings of charges, restrictions and merges; merges converge
//! regardless of order; a throttled user's requests generate zero engine
//! messages; and a ledger shared by concurrent clients never over-admits.

use dynasore_serve::{
    Backend, FlowBudgetStage, PipelineExecutor, RequestEnvelope, ResponseBody, ResponseEnvelope,
};
use dynasore_types::{FlowBudget, StatusCode, UserId};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// One ledger operation, decoded from a `(selector, (a, b))` tuple.
fn apply(ledger: &mut FlowBudget, op: (u8, (u64, u64))) {
    let (sel, (a, b)) = op;
    match sel % 3 {
        0 => {
            let _ = ledger.charge(a % 1_000);
        }
        1 => ledger.restrict(a),
        _ => {
            let mut remote = FlowBudget::new(a);
            let _ = remote.charge(b.min(a));
            ledger.merge(&remote);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `spent` never decreases and `limit` never increases, no matter how
    /// charges, restrictions and merges interleave.
    #[test]
    fn ledger_is_monotone_under_arbitrary_operations(
        initial_limit in 0u64..10_000,
        ops in proptest::collection::vec((0u8..3, (0u64..10_000, 0u64..10_000)), 0..60),
    ) {
        let mut ledger = FlowBudget::new(initial_limit);
        let mut prev = ledger;
        for op in ops {
            apply(&mut ledger, op);
            prop_assert!(ledger.spent() >= prev.spent(),
                "spent decreased: {prev:?} -> {ledger:?}");
            prop_assert!(ledger.limit() <= prev.limit(),
                "limit increased: {prev:?} -> {ledger:?}");
            prev = ledger;
        }
    }

    /// Merging the same set of replica ledgers in any order (forward,
    /// reverse, with duplicates) converges to the same state.
    #[test]
    fn merge_is_order_independent(
        initial_limit in 0u64..10_000,
        replicas in proptest::collection::vec((0u64..10_000, 0u64..10_000), 1..20),
        rotate_by in 0usize..20,
    ) {
        let replicas: Vec<FlowBudget> = replicas
            .into_iter()
            .map(|(limit, spent)| {
                let mut b = FlowBudget::new(limit);
                let _ = b.charge(spent.min(limit));
                b
            })
            .collect();

        let merge_all = |order: &[FlowBudget]| {
            let mut acc = FlowBudget::new(initial_limit);
            for r in order {
                acc.merge(r);
            }
            acc
        };

        let forward = merge_all(&replicas);

        let mut reversed = replicas.clone();
        reversed.reverse();
        prop_assert_eq!(merge_all(&reversed), forward);

        let mut rotated = replicas.clone();
        let pivot = rotate_by % rotated.len().max(1);
        rotated.rotate_left(pivot);
        prop_assert_eq!(merge_all(&rotated), forward);

        // Idempotence: merging everything twice changes nothing.
        let mut doubled = replicas.clone();
        doubled.extend(replicas.iter().copied());
        prop_assert_eq!(merge_all(&doubled), forward);
    }
}

/// Counts every request that reaches the engine side of the pipeline.
struct CountingBackend {
    calls: Arc<AtomicU64>,
}

impl Backend for CountingBackend {
    fn handle(&self, _req: &RequestEnvelope) -> ResponseEnvelope {
        self.calls.fetch_add(1, Ordering::SeqCst);
        ResponseEnvelope::ok(ResponseBody::Empty)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Exactly `limit` unit-cost requests reach the backend; every request
    /// after exhaustion is `Throttled` and generates zero engine messages.
    #[test]
    fn throttled_requests_generate_zero_engine_messages(
        limit in 0u64..20,
        extra in 1u64..30,
    ) {
        let calls = Arc::new(AtomicU64::new(0));
        let pipeline = PipelineExecutor::new(CountingBackend {
            calls: Arc::clone(&calls),
        })
        .with_stage(Box::new(FlowBudgetStage::new(limit)));

        let user = UserId::new(1);
        let mut throttled = 0u64;
        for _ in 0..(limit + extra) {
            let resp = pipeline.execute(RequestEnvelope::write(user, vec![]));
            if resp.status == StatusCode::Throttled {
                throttled += 1;
            }
        }
        prop_assert_eq!(calls.load(Ordering::SeqCst), limit);
        prop_assert_eq!(throttled, extra);
    }
}

/// The concurrent counterpart of `throttled_requests_generate_zero_engine_messages`:
/// four clients share one pipeline and race 50 unit-cost writes each against
/// one user's ledger. Exactly `min(limit, 200)` reach the backend, every
/// other response is `Throttled`, and a bystander served from another
/// thread meanwhile (with an unlimited ledger) is never throttled.
#[test]
fn a_shared_ledger_never_over_admits() {
    const BYSTANDER_WRITES: u64 = 100;
    let (spender, bystander) = (UserId::new(1), UserId::new(2));
    for limit in [0, 1, 37, 200] {
        let calls = Arc::new(AtomicU64::new(0));
        let mut budgets = FlowBudgetStage::new(u64::MAX);
        budgets.restrict(spender, limit);
        let backend = CountingBackend {
            calls: Arc::clone(&calls),
        };
        let pipeline = PipelineExecutor::new(backend).with_stage(Box::new(budgets));
        let write = |user| {
            pipeline
                .execute(RequestEnvelope::write(user, vec![]))
                .status
        };
        let start = Barrier::new(5);
        let client = || {
            start.wait();
            [(); 50].map(|()| write(spender))
        };
        let spent: Vec<StatusCode> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..4).map(|_| scope.spawn(client)).collect();
            start.wait();
            for _ in 0..BYSTANDER_WRITES {
                assert_eq!(write(bystander), StatusCode::Ok, "limit {limit}");
            }
            clients
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect()
        });
        let admitted = spent.iter().filter(|s| s.is_success()).count() as u64;
        assert_eq!(admitted, limit.min(200), "limit {limit}");
        assert!(spent
            .iter()
            .all(|&s| s.is_success() || s == StatusCode::Throttled));
        assert_eq!(calls.load(Ordering::SeqCst), admitted + BYSTANDER_WRITES);
    }
}
