//! The pipeline executor: stages composed around a backend.

use dynasore_types::StatusCode;

use crate::envelope::{RequestEnvelope, ResponseEnvelope};
use crate::middleware::Middleware;

/// What the pipeline fronts: anything that turns an accepted request into a
/// response. The loopback transport implements this over
/// [`dynasore_store::Cluster`]; tests implement it with counting mocks.
/// Many envelopes may be inside [`Backend::handle`] at once: a backend with
/// state synchronises it itself.
pub trait Backend: Send + Sync {
    /// Serves one request that every middleware stage accepted.
    fn handle(&self, req: &RequestEnvelope) -> ResponseEnvelope;
}

/// Runs requests through the middleware chain and the backend, for many
/// threads at once: it holds no lock.
///
/// Incoming order is installation order; outgoing order is the reverse,
/// over exactly the stages whose `on_request` ran (so an early-rejecting
/// stage still observes its own rejection, and stages after it never see
/// the envelope at all).
pub struct PipelineExecutor<B> {
    stages: Vec<Box<dyn Middleware>>,
    backend: B,
}

impl<B: Backend> PipelineExecutor<B> {
    /// An executor with no stages over `backend`.
    #[must_use]
    pub fn new(backend: B) -> Self {
        PipelineExecutor {
            stages: Vec::new(),
            backend,
        }
    }

    /// Appends a stage.
    #[must_use]
    pub fn with_stage(mut self, stage: Box<dyn Middleware>) -> Self {
        self.stages.push(stage);
        self
    }

    /// Executes one envelope end to end.
    pub fn execute(&self, mut req: RequestEnvelope) -> ResponseEnvelope {
        let mut entered = 0usize;
        let mut rejection = None;
        for stage in &self.stages {
            entered += 1;
            if let Err(err) = stage.on_request(&mut req) {
                rejection = Some(ResponseEnvelope::rejected(err.status(), err.detail()));
                break;
            }
        }
        let mut resp = match rejection {
            Some(resp) => resp,
            None => self.backend.handle(&req),
        };
        for stage in self.stages[..entered].iter().rev() {
            stage.on_response(&req, &mut resp);
        }
        resp
    }
}

impl<B> std::fmt::Debug for PipelineExecutor<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineExecutor")
            .field(
                "stages",
                &self.stages.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

/// Maps a backend [`dynasore_types::Error`] to a response status: unknown
/// users are the caller's fault ([`StatusCode::NotFound`]), a shut-down
/// cluster is a lifecycle condition ([`StatusCode::Unavailable`]), and
/// everything else — I/O, corruption, capacity — is
/// [`StatusCode::Internal`].
#[must_use]
pub fn backend_status(err: &dynasore_types::Error) -> StatusCode {
    match err {
        dynasore_types::Error::UnknownUser(_) => StatusCode::NotFound,
        dynasore_types::Error::ClusterShutdown => StatusCode::Unavailable,
        _ => StatusCode::Internal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::ResponseBody;
    use crate::middleware::{FlowBudgetStage, StageError};
    use dynasore_types::{Error, UserId};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    struct CountingBackend {
        calls: Arc<AtomicU64>,
    }

    impl Backend for CountingBackend {
        fn handle(&self, _req: &RequestEnvelope) -> ResponseEnvelope {
            self.calls.fetch_add(1, Ordering::SeqCst);
            ResponseEnvelope::ok(ResponseBody::Empty)
        }
    }

    /// A stage that fails internally on every request — the "misconfigured
    /// transform" of the satellite test.
    struct BrokenStage;

    impl Middleware for BrokenStage {
        fn name(&self) -> &'static str {
            "broken"
        }
        fn on_request(&self, _req: &mut RequestEnvelope) -> Result<(), StageError> {
            Err(StageError::Internal("stage misconfigured".into()))
        }
    }

    /// Records response statuses it observed on the way out.
    struct StatusRecorder {
        seen: Arc<AtomicU64>,
    }

    impl Middleware for StatusRecorder {
        fn name(&self) -> &'static str {
            "status-recorder"
        }
        fn on_response(&self, _req: &RequestEnvelope, _resp: &mut ResponseEnvelope) {
            self.seen.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn rejection_short_circuits_the_backend() {
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::new(AtomicU64::new(0));
        let pipeline = PipelineExecutor::new(CountingBackend {
            calls: Arc::clone(&calls),
        })
        .with_stage(Box::new(StatusRecorder {
            seen: Arc::clone(&seen),
        }))
        .with_stage(Box::new(FlowBudgetStage::new(0)))
        .with_stage(Box::new(BrokenStage));

        let resp = pipeline.execute(RequestEnvelope::write(UserId::new(1), vec![]));
        assert_eq!(resp.status, dynasore_types::StatusCode::Throttled);
        // The backend and the stage after the rejection never ran; the
        // recorder before it still observed the response.
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        assert_eq!(seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn internal_stage_failure_is_internal_not_unauthorized() {
        let calls = Arc::new(AtomicU64::new(0));
        let pipeline = PipelineExecutor::new(CountingBackend {
            calls: Arc::clone(&calls),
        })
        .with_stage(Box::new(BrokenStage));
        let resp = pipeline.execute(RequestEnvelope::write(UserId::new(1), vec![]));
        assert_eq!(resp.status, dynasore_types::StatusCode::Internal);
        assert_eq!(calls.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn accepted_requests_reach_the_backend_once() {
        let calls = Arc::new(AtomicU64::new(0));
        let pipeline = PipelineExecutor::new(CountingBackend {
            calls: Arc::clone(&calls),
        })
        .with_stage(Box::new(FlowBudgetStage::new(10)));
        let resp = pipeline.execute(RequestEnvelope::write(UserId::new(1), vec![]));
        assert!(resp.is_success());
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    /// One executor is shared by every client thread, whatever its backend.
    const _: fn() = {
        fn every_executor_is_sync<B: Backend>() {
            fn sync<T: Sync>() {}
            sync::<PipelineExecutor<B>>();
        }
        every_executor_is_sync::<CountingBackend>
    };

    /// Holds each envelope, for at most 10 s, until a second one arrived.
    #[derive(Default)]
    struct RendezvousBackend(AtomicU64);

    impl Backend for RendezvousBackend {
        fn handle(&self, _req: &RequestEnvelope) -> ResponseEnvelope {
            self.0.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.0.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            match self.0.load(Ordering::SeqCst) {
                1 => ResponseEnvelope::rejected(StatusCode::Internal, "alone in the backend"),
                _ => ResponseEnvelope::ok(ResponseBody::Empty),
            }
        }
    }

    /// The executor serialises nothing: envelopes executed from two threads
    /// are inside the backend at the same time. (Behind one lock around
    /// `execute`, the first waits out its deadline alone.)
    #[test]
    fn two_envelopes_are_inside_the_backend_at_once() {
        let pipeline = PipelineExecutor::new(RendezvousBackend::default())
            .with_stage(Box::new(FlowBudgetStage::new(10)));
        let execute = |i| pipeline.execute(RequestEnvelope::write(UserId::new(i), vec![]));
        std::thread::scope(|scope| {
            for client in [0, 1].map(|i| scope.spawn(move || execute(i).status)) {
                assert_eq!(client.join().unwrap(), StatusCode::Ok);
            }
        });
    }

    /// Satellite: the backend error → status table.
    #[test]
    fn backend_error_status_table() {
        let table: Vec<(Error, StatusCode)> = vec![
            (Error::UnknownUser(UserId::new(9)), StatusCode::NotFound),
            (Error::ClusterShutdown, StatusCode::Unavailable),
            (Error::io("disk on fire"), StatusCode::Internal),
            (Error::invalid_config("bad topology"), StatusCode::Internal),
        ];
        for (err, expected) in table {
            assert_eq!(backend_status(&err), expected, "error {err:?}");
        }
    }
}
