//! The live-store observer: a thread-safe [`FlightRecorder`] +
//! [`MetricsRegistry`] stamped with monotonic wall-clock time.
//!
//! Where the simulator's observer (`SimObs`, in `dynasore-sim`, the layer
//! above this crate) stamps events with simulated seconds and is owned by
//! one thread, a [`StoreObs`] is shared — cloned into the
//! [`ShardedLogStore`](crate::ShardedLogStore)'s shards, its background
//! flusher and the [`Cluster`](crate::Cluster) — so it wraps the recorder
//! and registry in one mutex and stamps every event with nanoseconds
//! elapsed since the observer was created. Both observers
//! fold events through the same [`MetricsRegistry::apply`] mapping, so a
//! metric means the same thing whichever side recorded it.
//!
//! Attachment is explicit and optional: nothing in the store touches an
//! observer unless one was installed, so the unobserved path stays exactly
//! the pre-observability code.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use dynasore_types::{FlightRecorder, MetricsRegistry, TraceEventKind};

/// Flight-recorder capacity of every live-store observer: the newest
/// 16,384 events (reproduction choice).
const RECORDER_CAPACITY: usize = 16_384;

#[derive(Debug)]
struct ObsInner {
    recorder: FlightRecorder,
    registry: MetricsRegistry,
}

/// A shared, thread-safe observer for the live store tier. Cheap to clone
/// (an [`Arc`]); all clones feed the same recorder and registry.
#[derive(Debug, Clone)]
pub struct StoreObs {
    origin: Instant,
    inner: Arc<Mutex<ObsInner>>,
}

impl Default for StoreObs {
    /// Creates an observer whose flight recorder keeps the newest 16,384
    /// events. The ring is allocated here, up front; recording an event
    /// later allocates nothing.
    fn default() -> Self {
        StoreObs {
            origin: Instant::now(),
            inner: Arc::new(Mutex::new(ObsInner {
                recorder: FlightRecorder::new(RECORDER_CAPACITY),
                registry: MetricsRegistry::new(),
            })),
        }
    }
}

impl StoreObs {
    /// Records one event, stamped with nanoseconds of monotonic time since
    /// this observer was created, and folds it into the registry.
    pub fn trace(&self, kind: TraceEventKind) {
        let t_ns = u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut inner = self.inner.lock();
        inner.registry.apply(kind);
        inner.recorder.record(t_ns, kind);
    }

    /// Sizes the registry's per-shard metric families. Call once when
    /// attaching the observer to a sharded store so per-shard updates from
    /// the flusher thread never allocate.
    pub fn ensure_shards(&self, shards: usize) {
        self.inner.lock().registry.ensure_shards(shards);
    }

    /// Events recorded so far (capped by the ring capacity).
    pub fn event_count(&self) -> usize {
        self.inner.lock().recorder.len()
    }

    /// Renders the timeline as JSON Lines (oldest event first).
    pub fn to_jsonl(&self) -> String {
        self.inner.lock().recorder.to_jsonl()
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.inner.lock().registry.render_prometheus()
    }

    /// A copy of the registry as it stands.
    pub fn registry(&self) -> MetricsRegistry {
        self.inner.lock().registry.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_types::{lint_prometheus, validate_jsonl, MetricId};

    #[test]
    fn clones_share_one_recorder_and_registry() {
        let obs = StoreObs::default();
        let clone = obs.clone();
        clone.trace(TraceEventKind::FlusherSync {
            shard: 3,
            lag_bytes: 512,
        });
        obs.trace(TraceEventKind::GroupCommitFill {
            records: 40,
            fill_percent: 1,
        });
        assert_eq!(obs.event_count(), 2);
        let registry = obs.inner.lock().registry.clone();
        assert_eq!(registry.get(MetricId::FlusherSyncs), 1);
        assert_eq!(registry.get(MetricId::GroupCommitRecords), 40);
        let jsonl = obs.to_jsonl();
        assert_eq!(validate_jsonl(&jsonl).unwrap(), 2);
        assert!(jsonl.contains("\"kind\":\"flusher-sync\""));
        lint_prometheus(&obs.render_prometheus()).unwrap();
    }

    #[test]
    fn timestamps_are_monotonic() {
        let obs = StoreObs::default();
        obs.trace(TraceEventKind::CacheRebuilt);
        obs.trace(TraceEventKind::CacheRebuilt);
        let events: Vec<_> = obs.inner.lock().recorder.iter().cloned().collect();
        assert!(events[0].t_ns <= events[1].t_ns);
        assert!(events[0].seq < events[1].seq);
    }
}
