//! The traced stack: the serving path assembled from its public parts so the
//! benchmark can put a span around the call into each layer.
//!
//! `TracingStage` → `AdmissionControl` → `FlowBudgetStage` over a backend
//! that spans each `Cluster` call, over a `PersistentStore` wrapper that spans
//! each durable call — the stages `LoopbackServer` installs for the default
//! `ServeConfig`. The engine cannot be injected into `Cluster`, so an engine
//! mirror, built from the same arguments and fed the identical call sequence,
//! stands in for the `core` layer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use dynasore_core::DynaSoReEngine;
use dynasore_graph::SocialGraph;
use dynasore_serve::{
    backend_status, AdmissionControl, Backend, FlowBudgetStage, PipelineExecutor, RequestEnvelope,
    RequestOp, ResponseBody, ResponseEnvelope, ServeConfig, TracingStage,
};
use dynasore_store::{Cluster, PersistentStore, StoreConfig, StoreObs, StoreStats};
use dynasore_topology::Topology;
use dynasore_types::{MemoryBudget, Message, PlacementEngine, Result, SimTime, UserId, View};

use crate::load::Op;
use crate::serving::Stack;
use crate::spans::{in_span, lock, self_times, SharedRecorder, Span};
use crate::stats::percentile;

/// Spans each durable call made on behalf of the cluster.
#[derive(Debug)]
struct SpanStore {
    inner: Arc<dyn PersistentStore>,
    rec: SharedRecorder,
}

impl PersistentStore for SpanStore {
    fn append(&self, user: UserId, payload: Vec<u8>) -> Result<View> {
        in_span(&self.rec, "durable.append", || {
            self.inner.append(user, payload)
        })
        .0
    }
    fn fetch(&self, user: UserId) -> Result<View> {
        in_span(&self.rec, "durable.fetch", || self.inner.fetch(user)).0
    }
    fn flush(&self) -> Result<()> {
        in_span(&self.rec, "durable.flush", || self.inner.flush()).0
    }
    fn sync(&self) -> Result<()> {
        in_span(&self.rec, "durable.sync", || self.inner.sync()).0
    }
    fn write_count(&self) -> u64 {
        self.inner.write_count()
    }
    fn read_count(&self) -> u64 {
        self.inner.read_count()
    }
}

/// `LoopbackServer`'s cluster backend with a span around each cluster call.
struct SpanBackend {
    cluster: Arc<RwLock<Cluster>>,
    rec: SharedRecorder,
}

impl Backend for SpanBackend {
    fn handle(&self, req: &RequestEnvelope) -> ResponseEnvelope {
        let cluster = self.cluster.read().expect("no cluster user panics");
        let result = match &req.op {
            RequestOp::Write { payload } => in_span(&self.rec, "store.write", || {
                cluster
                    .write(req.user, payload.clone())
                    .map(|()| ResponseBody::Empty)
            }),
            RequestOp::Read { targets } => in_span(&self.rec, "store.read", || {
                cluster.read(req.user, targets).map(ResponseBody::Views)
            }),
            RequestOp::ReadFeed => in_span(&self.rec, "store.read_feed", || {
                cluster.read_feed(req.user).map(ResponseBody::Feed)
            }),
        };
        match result.0 {
            Ok(body) => ResponseEnvelope::ok(body),
            Err(err) => ResponseEnvelope::rejected(backend_status(&err), err.to_string()),
        }
    }
}

/// The engine mirror: one `handle_read`/`handle_write` per cluster call, with
/// the cluster's own clock (one tick per call) and sink (a fresh
/// `Vec<Message>`), so its state and its cost are the cluster engine's.
struct Mirror {
    engine: DynaSoReEngine,
    clock: u64,
    counts: MirrorCounts,
}

/// Messages the mirror's engine emitted since the warm-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct MirrorCounts {
    pub read_msgs: u64,
    pub write_msgs: u64,
    pub proto_msgs: u64,
}

impl Mirror {
    fn apply(&mut self, op: &Op, graph: &SocialGraph) {
        let time = SimTime::from_secs(self.clock);
        self.clock += 1;
        let mut sink: Vec<Message> = Vec::new();
        match *op {
            Op::Feed(user) => {
                self.engine
                    .handle_read(user, graph.followees(user), time, &mut sink);
                self.counts.read_msgs += sink.len() as u64;
            }
            Op::Point(user, target) => {
                self.engine.handle_read(user, &[target], time, &mut sink);
                self.counts.read_msgs += sink.len() as u64;
            }
            Op::Write(user) => {
                self.engine.handle_write(user, time, &mut sink);
                self.counts.write_msgs += sink.len() as u64;
            }
        }
        let proto = sink.iter().filter(|m| !m.class.is_application()).count();
        self.counts.proto_msgs += proto as u64;
    }
}

pub struct TracedStack {
    pipeline: PipelineExecutor<SpanBackend>,
    cluster: Arc<RwLock<Cluster>>,
    inflight: Arc<AtomicU64>,
    obs: StoreObs,
    rec: SharedRecorder,
    graph: SocialGraph,
    mirror: Mirror,
}

impl TracedStack {
    pub fn spawn(
        graph: &SocialGraph,
        topology: Topology,
        config: StoreConfig,
        tier: Arc<dyn PersistentStore>,
        rec: SharedRecorder,
    ) -> Result<TracedStack> {
        let engine = DynaSoReEngine::builder()
            .topology(topology.clone())
            .budget(MemoryBudget::with_extra_percent(
                graph.user_count(),
                config.extra_memory_percent,
            ))
            .initial_placement(config.placement.clone())
            .build(graph)?;
        let tier = Arc::new(SpanStore {
            inner: tier,
            rec: Arc::clone(&rec),
        });
        let mut cluster = Cluster::spawn_with_store(graph, topology, config, tier)?;
        let obs = StoreObs::default();
        cluster.set_observer(obs.clone());
        let cluster = Arc::new(RwLock::new(cluster));
        let inflight = Arc::new(AtomicU64::new(0));
        let serve = ServeConfig::default();
        let pipeline = PipelineExecutor::new(SpanBackend {
            cluster: Arc::clone(&cluster),
            rec: Arc::clone(&rec),
        })
        .with_stage(Box::new(TracingStage::new(obs.clone())))
        .with_stage(Box::new(AdmissionControl::new(
            Box::new(Arc::clone(&inflight)),
            serve.max_inflight,
        )))
        .with_stage(Box::new(FlowBudgetStage::new(serve.default_flow_limit)));
        Ok(TracedStack {
            pipeline,
            cluster,
            inflight,
            obs,
            rec,
            graph: graph.clone(),
            mirror: Mirror {
                engine,
                clock: 0,
                counts: MirrorCounts::default(),
            },
        })
    }
}

impl Stack for TracedStack {
    fn call(&mut self, op: &Op, req: RequestEnvelope) -> (ResponseEnvelope, u64) {
        lock(&self.rec).next_request();
        self.inflight.fetch_add(1, Ordering::SeqCst);
        let (resp, latency_ns) = in_span(&self.rec, "serve.execute", || self.pipeline.execute(req));
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        // The mirror runs after the reply, outside the request's latency.
        let name = match op {
            Op::Write(_) => "core.mirror_write",
            Op::Feed(_) | Op::Point(..) => "core.mirror_read",
        };
        in_span(&self.rec, name, || self.mirror.apply(op, &self.graph));
        (resp, latency_ns)
    }

    fn store_stats(&self) -> StoreStats {
        self.cluster.read().expect("no cluster user panics").stats()
    }

    fn metrics_text(&self) -> String {
        self.obs.render_prometheus()
    }

    fn shutdown(&mut self) -> Result<()> {
        self.cluster
            .write()
            .expect("no cluster user panics")
            .shutdown()
    }

    fn mirror_report(&mut self) -> Option<MirrorReport> {
        let cluster = self.cluster.read().expect("no cluster user panics");
        let mut replicas = 0u64;
        let mut diverged = 0u64;
        for user in self.graph.users() {
            let mirrored = self.mirror.engine.replica_count(user);
            replicas += mirrored as u64;
            diverged += u64::from(mirrored != cluster.replica_count(user));
        }
        Some(MirrorReport {
            counts: self.mirror.counts,
            replicas_per_view: replicas as f64 / self.graph.user_count() as f64,
            diverged_users: diverged,
        })
    }

    fn end_warm_up(&mut self) {
        lock(&self.rec).clear();
        self.mirror.counts = MirrorCounts::default();
    }
}

/// What the engine mirror saw, and whether it still is the cluster's engine.
#[derive(Debug, Clone, Copy)]
pub struct MirrorReport {
    pub counts: MirrorCounts,
    pub replicas_per_view: f64,
    /// Users whose replica count differs between mirror and cluster; 0 or
    /// the `core.*` numbers describe some other engine.
    pub diverged_users: u64,
}

/// Wall-clock per layer over the measured spans. Timings are sums in ns at
/// nominal machine speed.
#[derive(Debug, Clone, Default)]
pub struct LayerSplit {
    /// All `serve.execute` spans: the requests' latencies.
    pub total_ns: f64,
    pub serve_self_ns: f64,
    pub store_read_ns: f64,
    pub store_write_ns: f64,
    pub durable_in_reads_ns: f64,
    pub durable_in_writes_ns: f64,
    pub mirror_read_ns: f64,
    pub mirror_write_ns: f64,
    pub append_ns: Vec<u64>,
    pub fetch_ns: Vec<u64>,
    pub spans: usize,
}

impl LayerSplit {
    /// The split over the spans of the measured requests, numbered from 1
    /// as the recorder numbers them. `speed` gives what to multiply a
    /// request's times by to bring them to nominal machine speed: one over its
    /// slice's slowdown.
    pub fn from_spans(spans: &[Span], speed: impl Fn(u64) -> f64) -> LayerSplit {
        let own = self_times(spans);
        let mut split = LayerSplit {
            spans: spans.len(),
            ..LayerSplit::default()
        };
        for (span, own_ns) in spans.iter().zip(own) {
            let speed = speed(span.req);
            let dur = span.duration_ns() as f64 * speed;
            let under_write = span.parent.is_some_and(|p| spans[p].name == "store.write");
            match span.name {
                "serve.execute" => {
                    split.total_ns += dur;
                    split.serve_self_ns += own_ns as f64 * speed;
                }
                "store.read" | "store.read_feed" => split.store_read_ns += dur,
                "store.write" => split.store_write_ns += dur,
                "core.mirror_read" => split.mirror_read_ns += dur,
                "core.mirror_write" => split.mirror_write_ns += dur,
                // Flush and sync run at shutdown, under no request.
                "durable.append" | "durable.fetch" if span.parent.is_some() => {
                    if under_write {
                        split.durable_in_writes_ns += dur;
                    } else {
                        split.durable_in_reads_ns += dur;
                    }
                    if span.name == "durable.append" {
                        split.append_ns.push(dur.round() as u64);
                    } else {
                        split.fetch_ns.push(dur.round() as u64);
                    }
                }
                _ => {}
            }
        }
        split.append_ns.sort_unstable();
        split.fetch_ns.sort_unstable();
        split
    }

    /// Time of the cluster's read calls that is neither durable nor engine:
    /// cache-server round trips, view clones, the engine lock.
    pub fn cache_ns(&self) -> f64 {
        self.store_read_ns - self.durable_in_reads_ns - self.mirror_read_ns
    }

    /// The same residual on writes: replica push and the every-server
    /// eviction probe.
    pub fn probe_ns(&self) -> f64 {
        self.store_write_ns - self.durable_in_writes_ns - self.mirror_write_ns
    }

    /// `(serve, store, core, durable)` shares of the requests' wall-clock.
    /// `store` is the residual of the cluster spans, so with well-formed
    /// spans the four sum to 1.
    pub fn shares(&self) -> [f64; 4] {
        let total = self.total_ns;
        let durable = self.durable_in_reads_ns + self.durable_in_writes_ns;
        let core = self.mirror_read_ns + self.mirror_write_ns;
        [
            self.serve_self_ns / total,
            (self.cache_ns() + self.probe_ns()) / total,
            core / total,
            durable / total,
        ]
    }

    pub fn append_p50_p99(&self) -> (f64, f64) {
        let p = |q| percentile(&self.append_ns, q).unwrap_or(0) as f64;
        (p(0.50), p(0.99))
    }

    pub fn fetch_p50(&self) -> f64 {
        percentile(&self.fetch_ns, 0.50).unwrap_or(0) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            req: 1,
            name,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn split_attributes_spans_to_layers_and_shares_sum_to_one() {
        let spans = vec![
            // A read: 100 ns, 80 in the store, 20 of those in a durable fetch.
            span("serve.execute", 0, 100, None),
            span("store.read_feed", 10, 90, Some(0)),
            span("durable.fetch", 20, 40, Some(1)),
            span("core.mirror_read", 100, 130, None),
            // A write: 200 ns, 150 in the store, 50 of those in the append.
            span("serve.execute", 200, 400, None),
            span("store.write", 220, 370, Some(4)),
            span("durable.append", 230, 280, Some(5)),
            span("core.mirror_write", 400, 410, None),
            // Shutdown: under no request, not part of the split.
            span("durable.sync", 500, 900, None),
        ];
        let split = LayerSplit::from_spans(&spans, |_| 1.0);
        assert_eq!(split.total_ns, 300.0);
        assert_eq!(split.serve_self_ns, 20.0 + 50.0);
        assert_eq!((split.store_read_ns, split.store_write_ns), (80.0, 150.0));
        assert_eq!(
            (split.durable_in_reads_ns, split.durable_in_writes_ns),
            (20.0, 50.0)
        );
        assert_eq!(split.cache_ns(), 80.0 - 20.0 - 30.0);
        assert_eq!(split.probe_ns(), 150.0 - 50.0 - 10.0);
        assert_eq!(split.append_p50_p99(), (50.0, 50.0));
        assert_eq!(split.fetch_p50(), 20.0);
        let shares = split.shares();
        assert!(
            (shares.iter().sum::<f64>() - 1.0).abs() < 1e-12,
            "{shares:?}"
        );
        assert_eq!(split.spans, 9);

        // Around a slice the machine ran twice slower, every time halves.
        let halved = LayerSplit::from_spans(&spans, |_| 0.5);
        assert_eq!((halved.total_ns, halved.serve_self_ns), (150.0, 35.0));
        assert_eq!(halved.append_p50_p99(), (25.0, 25.0));
        assert_eq!(halved.shares(), shares);
    }
}
