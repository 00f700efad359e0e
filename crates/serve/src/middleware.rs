//! The middleware trait and the production stages.
//!
//! A stage sees every request on the way in ([`Middleware::on_request`])
//! and every response on the way out ([`Middleware::on_response`], reverse
//! order). A stage rejects a request by returning a [`StageError`]; the
//! executor maps the error to a [`StatusCode`] through one table
//! ([`StageError::status`]) so the status class is decided by *what went
//! wrong*, never by *which stage it went wrong in*:
//!
//! * only a genuine credential failure is [`StatusCode::Unauthorized`];
//! * only an exhausted flow budget is [`StatusCode::Throttled`];
//! * only an admission-ceiling breach is [`StatusCode::Overloaded`];
//! * everything else — bad stage configuration, transform bugs — is
//!   [`StatusCode::Internal`], so a misconfigured stage can never
//!   masquerade as an auth failure.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dynasore_store::StoreObs;
use dynasore_types::{FlowBudget, StatusCode, TraceEventKind, UserId};
use parking_lot::Mutex;

use crate::envelope::{RequestEnvelope, ResponseEnvelope};

/// Why a stage rejected a request. The variant — not the stage — decides
/// the response's status class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageError {
    /// The presented credential is missing, unknown, or bound to a
    /// different user.
    Unauthorized(String),
    /// The user's flow budget cannot cover the request's cost.
    Throttled {
        /// The user whose budget is exhausted.
        user: UserId,
        /// Budget units still available (less than the request's cost).
        remaining: u64,
    },
    /// Live load is above the admission ceiling.
    Overloaded {
        /// Load observed by the admission probe.
        load: u64,
        /// Configured ceiling.
        ceiling: u64,
    },
    /// The stage itself failed: configuration, invariant or transform
    /// errors. Never reported as an auth failure.
    Internal(String),
}

impl StageError {
    /// The status class of this rejection — the single mapping table the
    /// executor uses (harmony's 401-vs-500 rule).
    #[must_use]
    pub fn status(&self) -> StatusCode {
        match self {
            StageError::Unauthorized(_) => StatusCode::Unauthorized,
            StageError::Throttled { .. } => StatusCode::Throttled,
            StageError::Overloaded { .. } => StatusCode::Overloaded,
            StageError::Internal(_) => StatusCode::Internal,
        }
    }

    /// Human-readable diagnostic carried into the response envelope.
    #[must_use]
    pub fn detail(&self) -> String {
        match self {
            StageError::Unauthorized(msg) => format!("unauthorized: {msg}"),
            StageError::Throttled { user, remaining } => {
                format!(
                    "throttled: user {} has {remaining} budget units remaining",
                    user.index()
                )
            }
            StageError::Overloaded { load, ceiling } => {
                format!("overloaded: load {load} above admission ceiling {ceiling}")
            }
            StageError::Internal(msg) => format!("internal: {msg}"),
        }
    }
}

/// One composable pipeline stage. Its hooks take `&self` and run on many
/// threads at once with no lock around them: a stage with state
/// synchronises it itself.
pub trait Middleware: Send + Sync {
    /// Stage name for diagnostics.
    fn name(&self) -> &'static str;

    /// Inspects (and may rewrite) the request on the way in; accepts it by
    /// default. Returning an error short-circuits the pipeline: the backend
    /// is never reached and the error's [`StageError::status`] becomes the
    /// response status.
    fn on_request(&self, req: &mut RequestEnvelope) -> Result<(), StageError> {
        let _ = req;
        Ok(())
    }

    /// Observes (and may rewrite) the response on the way out. Runs in
    /// reverse stage order, for every stage whose `on_request` was reached —
    /// including the rejecting stage itself.
    fn on_response(&self, req: &RequestEnvelope, resp: &mut ResponseEnvelope) {
        let _ = (req, resp);
    }
}

/// Token authentication: the envelope must carry a token registered for
/// exactly the user it claims to act for.
///
/// All three failure shapes — missing token, unknown token, token bound to
/// another user — are genuine credential failures and map to
/// [`StatusCode::Unauthorized`]. The stage has no internal failure path by
/// construction; a stage that does fail internally must return
/// [`StageError::Internal`] instead.
#[derive(Debug, Default)]
pub struct TokenAuth {
    tokens: BTreeMap<String, UserId>,
}

impl TokenAuth {
    /// A stage accepting the given `(token, user)` registrations.
    #[must_use]
    pub fn new(tokens: impl IntoIterator<Item = (String, UserId)>) -> Self {
        TokenAuth {
            tokens: tokens.into_iter().collect(),
        }
    }
}

impl Middleware for TokenAuth {
    fn name(&self) -> &'static str {
        "token-auth"
    }

    fn on_request(&self, req: &mut RequestEnvelope) -> Result<(), StageError> {
        let token = req
            .token
            .as_deref()
            .ok_or_else(|| StageError::Unauthorized("missing token".into()))?;
        match self.tokens.get(token) {
            Some(&owner) if owner == req.user => Ok(()),
            Some(_) => Err(StageError::Unauthorized(format!(
                "token not valid for user {}",
                req.user.index()
            ))),
            None => Err(StageError::Unauthorized("unknown token".into())),
        }
    }
}

/// A live load reading for the admission stage, read by many threads at once.
pub trait LoadProbe: Send + Sync {
    /// Current load in the probe's own units (the loopback server reports
    /// in-flight envelopes).
    fn current_load(&self) -> u64;
}

/// The loopback server's probe: an atomic in-flight envelope gauge shared
/// with the transport.
impl LoadProbe for Arc<AtomicU64> {
    fn current_load(&self) -> u64 {
        self.load(Ordering::SeqCst)
    }
}

/// Admission control: rejects with [`StatusCode::Overloaded`] while the
/// probe reads above the ceiling, shedding load before it queues on the
/// engine.
pub struct AdmissionControl {
    probe: Box<dyn LoadProbe>,
    ceiling: u64,
}

impl AdmissionControl {
    /// A stage admitting requests while `probe` reads at most `ceiling`.
    #[must_use]
    pub fn new(probe: Box<dyn LoadProbe>, ceiling: u64) -> Self {
        AdmissionControl { probe, ceiling }
    }
}

impl std::fmt::Debug for AdmissionControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionControl")
            .field("ceiling", &self.ceiling)
            .finish_non_exhaustive()
    }
}

impl Middleware for AdmissionControl {
    fn name(&self) -> &'static str {
        "admission-control"
    }

    fn on_request(&self, _req: &mut RequestEnvelope) -> Result<(), StageError> {
        let load = self.probe.current_load();
        if load > self.ceiling {
            return Err(StageError::Overloaded {
                load,
                ceiling: self.ceiling,
            });
        }
        Ok(())
    }
}

/// Per-user [`FlowBudget`] ledgers: every request charges its
/// [`crate::RequestOp::flow_cost`] against the caller's ledger *before* the
/// backend is reached, so a spammy user's requests are rejected with
/// [`StatusCode::Throttled`] and generate zero engine messages.
///
/// Ledgers are monotone (`spent` only grows, `limit` only shrinks) and the
/// map is ordered, so replaying the same request sequence lands in the same
/// state.
///
/// The one stage with state: its own mutex, held for the charge, keeps
/// concurrent envelopes from over-admitting.
#[derive(Debug)]
pub struct FlowBudgetStage {
    default_limit: u64,
    ledgers: Mutex<BTreeMap<UserId, FlowBudget>>,
}

impl FlowBudgetStage {
    /// A stage granting every user `default_limit` budget units.
    #[must_use]
    pub fn new(default_limit: u64) -> Self {
        FlowBudgetStage {
            default_limit,
            ledgers: Mutex::new(BTreeMap::new()),
        }
    }

    /// Tightens one user's limit to at most `limit` (limits never loosen).
    /// Called while the stage is built, before it serves.
    pub fn restrict(&mut self, user: UserId, limit: u64) {
        let default = FlowBudget::new(self.default_limit);
        let ledgers = self.ledgers.get_mut();
        ledgers.entry(user).or_insert(default).restrict(limit);
    }

    /// The user's current ledger (the untouched default if never charged).
    #[must_use]
    pub fn budget(&self, user: UserId) -> FlowBudget {
        self.ledgers
            .lock()
            .get(&user)
            .copied()
            .unwrap_or(FlowBudget::new(self.default_limit))
    }
}

impl Middleware for FlowBudgetStage {
    fn name(&self) -> &'static str {
        "flow-budget"
    }

    fn on_request(&self, req: &mut RequestEnvelope) -> Result<(), StageError> {
        let cost = req.op.flow_cost();
        let default = FlowBudget::new(self.default_limit);
        let mut ledgers = self.ledgers.lock();
        let ledger = ledgers.entry(req.user).or_insert(default);
        if ledger.charge(cost) {
            Ok(())
        } else {
            Err(StageError::Throttled {
                user: req.user,
                remaining: ledger.remaining(),
            })
        }
    }
}

/// Request tracing: emits one [`TraceEventKind::EnvelopeServed`] per
/// envelope into the shared [`StoreObs`] flight recorder, which also folds
/// it into the metrics registry behind the `/metrics` endpoint.
///
/// Install this stage *first* so its `on_response` observes every outcome,
/// including rejections by later stages.
#[derive(Debug, Clone)]
pub struct TracingStage {
    obs: StoreObs,
}

impl TracingStage {
    /// A stage recording into `obs`.
    #[must_use]
    pub fn new(obs: StoreObs) -> Self {
        TracingStage { obs }
    }
}

impl Middleware for TracingStage {
    fn name(&self) -> &'static str {
        "tracing"
    }

    fn on_response(&self, req: &RequestEnvelope, resp: &mut ResponseEnvelope) {
        self.obs.trace(TraceEventKind::EnvelopeServed {
            user: req.user,
            status: resp.status,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::RequestEnvelope;

    fn u(i: u32) -> UserId {
        UserId::new(i)
    }

    /// Satellite: the single error → status table, driven variant by
    /// variant. The status class depends only on the error kind.
    #[test]
    fn stage_error_status_table() {
        let table: Vec<(StageError, StatusCode)> = vec![
            (
                StageError::Unauthorized("missing token".into()),
                StatusCode::Unauthorized,
            ),
            (
                StageError::Throttled {
                    user: u(7),
                    remaining: 0,
                },
                StatusCode::Throttled,
            ),
            (
                StageError::Overloaded {
                    load: 10,
                    ceiling: 4,
                },
                StatusCode::Overloaded,
            ),
            (
                StageError::Internal("auth table failed to load".into()),
                StatusCode::Internal,
            ),
        ];
        for (err, expected) in table {
            assert_eq!(err.status(), expected, "error {err:?}");
            assert!(err
                .detail()
                .starts_with(expected.as_str().split('-').next().unwrap()));
        }
    }

    /// A stage whose *internal* failure mentions credentials must still
    /// surface as `Internal` — the misconfigured-auth masquerade the
    /// 401-vs-500 rule exists to prevent.
    #[test]
    fn misconfigured_stage_cannot_masquerade_as_auth_failure() {
        let err = StageError::Internal("token table unreadable".into());
        assert_eq!(err.status(), StatusCode::Internal);
        assert_ne!(err.status(), StatusCode::Unauthorized);
    }

    #[test]
    fn token_auth_accepts_only_the_bound_user() {
        let auth = TokenAuth::new([
            ("alice-token".to_string(), u(1)),
            ("bob-token".to_string(), u(2)),
        ]);

        let table: Vec<(RequestEnvelope, Option<StatusCode>)> = vec![
            // Right token, right user.
            (
                RequestEnvelope::write(u(1), vec![]).with_token("alice-token"),
                None,
            ),
            // Missing token.
            (
                RequestEnvelope::write(u(1), vec![]),
                Some(StatusCode::Unauthorized),
            ),
            // Unknown token.
            (
                RequestEnvelope::write(u(1), vec![]).with_token("nope"),
                Some(StatusCode::Unauthorized),
            ),
            // Someone else's token.
            (
                RequestEnvelope::write(u(1), vec![]).with_token("bob-token"),
                Some(StatusCode::Unauthorized),
            ),
        ];
        for (mut req, expected) in table {
            let got = auth.on_request(&mut req).err().map(|e| e.status());
            assert_eq!(got, expected, "request {req:?}");
        }
    }

    #[test]
    fn admission_control_rejects_above_ceiling() {
        let gauge = Arc::new(AtomicU64::new(0));
        let stage = AdmissionControl::new(Box::new(Arc::clone(&gauge)), 2);
        let mut req = RequestEnvelope::read_feed(u(0));
        for load in 0..=2 {
            gauge.store(load, Ordering::SeqCst);
            assert!(stage.on_request(&mut req).is_ok(), "load {load}");
        }
        gauge.store(3, Ordering::SeqCst);
        let err = stage.on_request(&mut req).unwrap_err();
        assert_eq!(err.status(), StatusCode::Overloaded);
    }

    #[test]
    fn flow_budget_stage_throttles_at_the_limit() {
        let stage = FlowBudgetStage::new(3);
        let mut write = RequestEnvelope::write(u(5), vec![]);
        for _ in 0..3 {
            assert!(stage.on_request(&mut write).is_ok());
        }
        let err = stage.on_request(&mut write).unwrap_err();
        assert_eq!(err.status(), StatusCode::Throttled);
        assert_eq!(stage.budget(u(5)).spent(), 3);
        // Another user is unaffected.
        let mut other = RequestEnvelope::write(u(6), vec![]);
        assert!(stage.on_request(&mut other).is_ok());
    }

    #[test]
    fn flow_budget_stage_restricts_monotonically() {
        let mut stage = FlowBudgetStage::new(100);
        let mut req = RequestEnvelope::write(u(1), vec![]);
        for _ in 0..60 {
            assert!(stage.on_request(&mut req).is_ok());
        }
        stage.restrict(u(1), 70);
        assert_eq!(stage.budget(u(1)).limit(), 70);
        assert_eq!(stage.budget(u(1)).spent(), 60);
        // Limits never loosen, and one below `spent` exhausts the ledger.
        stage.restrict(u(1), 90);
        assert_eq!(stage.budget(u(1)).limit(), 70);
        stage.restrict(u(1), 55);
        assert!(stage.budget(u(1)).exhausted());
        assert_eq!(
            stage.on_request(&mut req).unwrap_err().status(),
            StatusCode::Throttled
        );
    }
}
