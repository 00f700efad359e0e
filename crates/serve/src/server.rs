//! The loopback/in-process transport: a [`LoopbackServer`] owns a live
//! [`Cluster`], fronts it with the standard pipeline, and exposes the
//! operational surface — `/healthz`, `/metrics`, graceful shutdown.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use dynasore_graph::SocialGraph;
use dynasore_store::{Cluster, PersistentStore, StoreConfig, StoreObs, StoreStats};
use dynasore_topology::Topology;
use dynasore_types::{Result, StatusCode, TraceEventKind, UserId};

use crate::envelope::{RequestEnvelope, RequestOp, ResponseBody, ResponseEnvelope};
use crate::middleware::{AdmissionControl, FlowBudgetStage, TokenAuth, TracingStage};
use crate::pipeline::{backend_status, Backend, PipelineExecutor};

/// Serving-side configuration of a [`LoopbackServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// `(token, user)` registrations for the auth stage. An empty list
    /// installs no auth stage (an open cluster); a non-empty list rejects
    /// every unregistered envelope with [`StatusCode::Unauthorized`].
    pub tokens: Vec<(String, UserId)>,
    /// Flow-budget units granted to every user.
    pub default_flow_limit: u64,
    /// Per-user limit overrides, applied as restrictions (they can only
    /// tighten the default).
    pub flow_limits: Vec<(UserId, u64)>,
    /// Admission ceiling on concurrently in-flight envelopes.
    pub max_inflight: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            tokens: Vec::new(),
            default_flow_limit: u64::MAX,
            flow_limits: Vec::new(),
            max_inflight: 1_024,
        }
    }
}

/// `/healthz` probe result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Health {
    /// Liveness: the process serves *something* (flips false only after
    /// shutdown completes).
    pub live: bool,
    /// Readiness: the pipeline accepts new envelopes (true between spawn
    /// and the start of draining).
    pub ready: bool,
}

// Lifecycle states of the server.
const STATE_READY: u8 = 0;
const STATE_DRAINING: u8 = 1;
const STATE_DOWN: u8 = 2;

/// The [`Backend`] adapter: serves accepted envelopes from the cluster.
/// Every method it calls takes `&self`, so many envelopes proceed at once;
/// graceful shutdown's drain orders [`Cluster::shutdown`] after the last.
struct ClusterBackend {
    cluster: Arc<Cluster>,
}

impl Backend for ClusterBackend {
    fn handle(&self, req: &RequestEnvelope) -> ResponseEnvelope {
        let cluster = &self.cluster;
        let result = match &req.op {
            RequestOp::Write { payload } => cluster
                .write(req.user, payload.clone())
                .map(|()| ResponseBody::Empty),
            RequestOp::Read { targets } => cluster.read(req.user, targets).map(ResponseBody::Views),
            RequestOp::ReadFeed => cluster.read_feed(req.user).map(ResponseBody::Feed),
        };
        match result {
            Ok(body) => ResponseEnvelope::ok(body),
            Err(err) => ResponseEnvelope::rejected(backend_status(&err), err.to_string()),
        }
    }
}

/// An in-process ingress over a live [`Cluster`]: the loopback equivalent
/// of a network listener. Clients call [`LoopbackServer::handle`] from any
/// thread; every envelope runs the tracing → auth → admission → flow-budget
/// pipeline before it may touch the engine.
pub struct LoopbackServer {
    cluster: Arc<Cluster>,
    pipeline: PipelineExecutor<ClusterBackend>,
    state: AtomicU8,
    inflight: Arc<AtomicU64>,
    obs: StoreObs,
}

impl LoopbackServer {
    /// Spawns a cluster with the in-memory mock persistent tier and fronts
    /// it with the standard pipeline. The server is ready (accepting
    /// envelopes, `/healthz` ready) when this returns.
    pub fn spawn(
        graph: &SocialGraph,
        topology: Topology,
        store_config: StoreConfig,
        serve_config: ServeConfig,
    ) -> Result<Self> {
        let cluster = Cluster::spawn(graph, topology, store_config)?;
        Ok(Self::over_cluster(cluster, serve_config))
    }

    /// Like [`LoopbackServer::spawn`] but over a caller-provided durable
    /// tier, so acknowledged writes survive a cold reopen of its files.
    pub fn spawn_with_store(
        graph: &SocialGraph,
        topology: Topology,
        store_config: StoreConfig,
        serve_config: ServeConfig,
        store: Arc<dyn PersistentStore>,
    ) -> Result<Self> {
        let cluster = Cluster::spawn_with_store(graph, topology, store_config, store)?;
        Ok(Self::over_cluster(cluster, serve_config))
    }

    /// Fronts an already-spawned cluster.
    pub fn over_cluster(mut cluster: Cluster, config: ServeConfig) -> Self {
        let obs = StoreObs::default();
        cluster.set_observer(obs.clone());
        let cluster = Arc::new(cluster);
        let inflight = Arc::new(AtomicU64::new(0));

        let mut budgets = FlowBudgetStage::new(config.default_flow_limit);
        for (user, limit) in config.flow_limits {
            budgets.restrict(user, limit);
        }
        // Tracing first: its on_response sees every outcome, rejections
        // from later stages included.
        let mut pipeline = PipelineExecutor::new(ClusterBackend {
            cluster: Arc::clone(&cluster),
        })
        .with_stage(Box::new(TracingStage::new(obs.clone())));
        if !config.tokens.is_empty() {
            pipeline = pipeline.with_stage(Box::new(TokenAuth::new(config.tokens)));
        }
        let pipeline = pipeline
            .with_stage(Box::new(AdmissionControl::new(
                Box::new(Arc::clone(&inflight)),
                config.max_inflight,
            )))
            .with_stage(Box::new(budgets));

        LoopbackServer {
            cluster,
            pipeline,
            state: AtomicU8::new(STATE_READY),
            inflight,
            obs,
        }
    }

    /// Serves one envelope. Many threads' envelopes run the pipeline at once
    /// (it takes no lock); the in-flight gauge feeds the admission stage and
    /// graceful shutdown's drain.
    pub fn handle(&self, req: RequestEnvelope) -> ResponseEnvelope {
        self.inflight.fetch_add(1, Ordering::SeqCst);
        let resp = if self.state.load(Ordering::SeqCst) == STATE_READY {
            self.pipeline.execute(req)
        } else {
            let resp = ResponseEnvelope::rejected(StatusCode::Unavailable, "server is draining");
            // Rejected before the pipeline — trace it here so the timeline
            // still has one event per envelope.
            self.obs.trace(TraceEventKind::EnvelopeServed {
                user: req.user,
                status: resp.status,
            });
            resp
        };
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        resp
    }

    /// `/healthz`: liveness and readiness in one probe.
    #[must_use]
    pub fn healthz(&self) -> Health {
        let state = self.state.load(Ordering::SeqCst);
        Health {
            live: state != STATE_DOWN,
            ready: state == STATE_READY,
        }
    }

    /// `/metrics`: the shared registry (pipeline and store tiers fold into
    /// the same [`StoreObs`]) plus the cluster's message tallies as they
    /// stand ([`StoreStats`]), in Prometheus text exposition format. The
    /// output passes [`dynasore_types::lint_prometheus`].
    #[must_use]
    pub fn metrics(&self) -> String {
        let mut registry = self.obs.registry();
        let stats = self.cluster.stats();
        for tally in [stats.reads, stats.writes, stats.events] {
            registry.add_messages(&tally);
        }
        registry.render_prometheus()
    }

    /// The flight-recorder timeline as JSONL (one envelope/store event per
    /// line).
    #[must_use]
    pub fn trace_jsonl(&self) -> String {
        self.obs.to_jsonl()
    }

    /// Envelopes currently inside [`LoopbackServer::handle`].
    #[must_use]
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Runtime counters of the backing cluster.
    #[must_use]
    pub fn store_stats(&self) -> StoreStats {
        self.cluster.stats()
    }

    /// Graceful shutdown: stop admitting (`/healthz` ready flips false),
    /// wait for in-flight envelopes to finish, then sync the durable
    /// tier and join the cluster's threads via [`Cluster::shutdown`].
    /// Idempotent once it has succeeded.
    pub fn shutdown(&self) -> Result<()> {
        let _ = self.state.compare_exchange(
            STATE_READY,
            STATE_DRAINING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        while self.inflight.load(Ordering::SeqCst) > 0 {
            std::thread::yield_now();
        }
        self.cluster.shutdown()?;
        self.state.store(STATE_DOWN, Ordering::SeqCst);
        Ok(())
    }
}

impl std::fmt::Debug for LoopbackServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopbackServer")
            .field("health", &self.healthz())
            .field("inflight", &self.inflight())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_graph::GraphPreset;

    fn u(i: u32) -> UserId {
        UserId::new(i)
    }

    /// Clients on many threads share one server.
    const _: () = {
        const fn sync<T: Sync>() {}
        sync::<LoopbackServer>()
    };

    fn server(config: ServeConfig) -> LoopbackServer {
        let graph = SocialGraph::generate(GraphPreset::TwitterLike, 120, 11).unwrap();
        let topology = Topology::tree(2, 2, 3, 1).unwrap();
        LoopbackServer::spawn(&graph, topology, StoreConfig::default(), config).unwrap()
    }

    #[test]
    fn auth_is_enforced_when_tokens_are_registered() {
        let srv = server(ServeConfig {
            tokens: vec![("tok-7".into(), u(7)), ("tok-ghost".into(), u(10_000))],
            ..ServeConfig::default()
        });
        let denied = srv.handle(RequestEnvelope::write(u(7), vec![]));
        assert_eq!(denied.status, StatusCode::Unauthorized);
        let ok = srv.handle(RequestEnvelope::write(u(7), vec![]).with_token("tok-7"));
        assert!(ok.is_success());
        // A user outside the graph fails with NotFound even when
        // authenticated — the backend mapping, not an auth failure.
        let missing = srv.handle(RequestEnvelope::read_feed(u(10_000)).with_token("tok-ghost"));
        assert_eq!(missing.status, StatusCode::NotFound);
        srv.shutdown().unwrap();
    }

    /// `/metrics` renders the cluster's message tallies as they stand when
    /// it is read: after a machine failure and a mixed batch of envelopes,
    /// the three message counters are the totals of `store_stats`.
    #[test]
    fn metrics_report_the_clusters_message_tallies() {
        let graph = SocialGraph::generate(GraphPreset::TwitterLike, 120, 11).unwrap();
        let topology = Topology::tree(2, 2, 3, 1).unwrap();
        let victim = topology.servers()[0].machine();
        let mut cluster = Cluster::spawn(&graph, topology, StoreConfig::default()).unwrap();
        cluster
            .apply_event(dynasore_types::ClusterEvent::MachineDown { machine: victim })
            .unwrap();
        let srv = LoopbackServer::over_cluster(cluster, ServeConfig::default());
        for i in 0..90 {
            let user = u(i % 40);
            let req = match i % 3 {
                0 => RequestEnvelope::write(user, vec![i as u8]),
                1 => RequestEnvelope::read_feed(user),
                _ => RequestEnvelope::read(user, vec![u(i % 7), u(i % 7), u(10_000)]),
            };
            assert!(srv.handle(req).is_success());
        }
        let metrics = srv.metrics();
        dynasore_types::lint_prometheus(&metrics).unwrap();
        let value = |name: &str| -> u64 {
            let line = metrics.lines().find_map(|line| line.strip_prefix(name));
            line.and_then(|rest| rest.trim().parse().ok()).unwrap()
        };
        let stats = srv.store_stats();
        let mut messages = stats.reads;
        messages += stats.writes;
        messages += stats.events;
        assert!(messages.application > 0 && messages.protocol > 0 && messages.persistent > 0);
        assert_eq!(value("dynasore_app_messages_total "), messages.application);
        assert_eq!(value("dynasore_proto_messages_total "), messages.protocol);
        assert_eq!(
            value("dynasore_recovery_messages_total "),
            messages.persistent
        );
        srv.shutdown().unwrap();
    }
}
