//! Flight-recorder observability: an alloc-free metrics registry, a bounded
//! ring buffer of structured trace events, and dependency-free exporters
//! (Prometheus text exposition, JSONL timeline).
//!
//! # Design constraints
//!
//! * **Zero cost when disabled.** Nothing in this module is consulted unless
//!   a driver explicitly attaches a registry/recorder; the simulator stores
//!   its observer as an `Option` and the disabled path is structurally
//!   identical to the pre-observability code, which is proven by
//!   byte-identical `SimReport`s in the test suite.
//! * **Alloc-free on the hot path when enabled.** [`MetricsRegistry`] is a
//!   fixed array of `u64` slots indexed by [`MetricId`] (no atomics — the
//!   simulation is single-threaded; the store wraps the registry in a lock
//!   on its own side). [`FlightRecorder`] pre-allocates its ring storage up
//!   front and every [`TraceEventKind`] is `Copy`, so recording an event is
//!   a bounds-checked array write. The counting-allocator test extends over
//!   the enabled mode.
//! * **Deterministic.** Events are stamped by the caller — simulated time in
//!   the simulator, monotonic time in the live store — and sequence numbers
//!   are assigned in call order, so same-seed simulation reruns produce
//!   identical timelines.

use crate::{ClusterEvent, CountingSink, MachineId, StatusCode, UserId};
use std::fmt::Write as _;

/// Whether a metric slot accumulates (counter) or tracks a level (gauge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count; exported with a `_total` suffix.
    Counter,
    /// A sampled level (queue delay, lag, fill ratio); set or maxed.
    Gauge,
}

macro_rules! metric_ids {
    ($( $variant:ident = ($name:literal, $kind:ident, $help:literal) ),+ $(,)?) => {
        /// Static identifier of one metric slot in a [`MetricsRegistry`].
        ///
        /// Ids are dense array indices, so updating a metric is a single
        /// array write — no hashing, no interning, no allocation.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum MetricId {
            $(
                #[doc = $help]
                $variant,
            )+
        }

        impl MetricId {
            /// Number of metric slots (the registry array length).
            pub const COUNT: usize = [$(MetricId::$variant),+].len();

            /// Every metric id, in slot order.
            pub const ALL: [MetricId; MetricId::COUNT] = [$(MetricId::$variant),+];

            /// The Prometheus metric family name (without labels).
            pub fn name(self) -> &'static str {
                match self {
                    $(MetricId::$variant => $name,)+
                }
            }

            /// One-line description used for the `# HELP` exposition line.
            pub fn help(self) -> &'static str {
                match self {
                    $(MetricId::$variant => $help,)+
                }
            }

            /// Counter or gauge (drives the `# TYPE` exposition line).
            pub fn kind(self) -> MetricKind {
                match self {
                    $(MetricId::$variant => MetricKind::$kind,)+
                }
            }
        }
    };
}

metric_ids! {
    ReplicasCreated = ("dynasore_replicas_created_total", Counter,
        "Replicas created by placement, recovery or evacuation decisions."),
    ReplicasDropped = ("dynasore_replicas_dropped_total", Counter,
        "Replicas dropped by eviction, migration or evacuation decisions."),
    ReplicasMoved = ("dynasore_replicas_moved_total", Counter,
        "Replicas migrated server-to-server (create+drop as one decision)."),
    ViewsRecovered = ("dynasore_views_recovered_total", Counter,
        "Lost masters re-created from the persistent tier."),
    ClusterEvents = ("dynasore_cluster_events_total", Counter,
        "Cluster change events applied (failures, drains, elasticity)."),
    CacheRebuilds = ("dynasore_cache_rebuilds_total", Counter,
        "Bulk rebuilds of the per-subtree candidate/threshold caches."),
    TickSamples = ("dynasore_tick_samples_total", Counter,
        "Per-tick observability samples taken by the simulator."),
    CollapseOnsets = ("dynasore_collapse_onsets_total", Counter,
        "Congestion-collapse onsets (first tick past the collapse threshold)."),
    AppMessages = ("dynasore_app_messages_total", Counter,
        "Application messages the placement engine emitted."),
    ProtoMessages = ("dynasore_proto_messages_total", Counter,
        "Protocol messages the placement engine emitted."),
    RecoveryMessages = ("dynasore_recovery_messages_total", Counter,
        "Messages the engine exchanged with the persistent tier (recovery)."),
    UnreachableReads = ("dynasore_unreachable_reads", Gauge,
        "Read targets with no live replica, cumulative engine counter."),
    TopQueueDelayNs = ("dynasore_top_queue_delay_ns", Gauge,
        "Worst queueing delay sampled at the top (core) switch."),
    InterQueueDelayNs = ("dynasore_inter_queue_delay_ns", Gauge,
        "Worst queueing delay sampled across intermediate switches."),
    RackQueueDelayNs = ("dynasore_rack_queue_delay_ns", Gauge,
        "Worst queueing delay sampled across rack switches."),
    DurableAppends = ("dynasore_durable_appends_total", Counter,
        "Events appended to the durable tier."),
    DurableSyncs = ("dynasore_durable_syncs_total", Counter,
        "Explicit sync calls on the durable tier."),
    ReplayedBytes = ("dynasore_replayed_bytes_total", Counter,
        "Bytes replayed from the durable tier during recovery."),
    GroupCommitBatches = ("dynasore_group_commit_batches_total", Counter,
        "Group-commit batches flushed to the log."),
    GroupCommitRecords = ("dynasore_group_commit_records_total", Counter,
        "Records flushed through group commit."),
    GroupCommitMaxFillPercent = ("dynasore_group_commit_max_fill_percent", Gauge,
        "Largest observed batch fill ratio, percent of max_batch_records."),
    FlusherSyncs = ("dynasore_flusher_syncs_total", Counter,
        "Background flusher fsync passes across all shards."),
    FlusherMaxLagBytes = ("dynasore_flusher_max_lag_bytes", Gauge,
        "Largest observed flusher lag (bytes appended but not yet synced)."),
    EnvelopesServed = ("dynasore_envelopes_served_total", Counter,
        "Request envelopes that completed the serving pipeline (any status)."),
    EnvelopesRejected = ("dynasore_envelopes_rejected_total", Counter,
        "Request envelopes that finished with a non-ok status."),
    AuthFailures = ("dynasore_auth_failures_total", Counter,
        "Envelopes rejected by the token-auth stage (unauthorized)."),
    ThrottledEnvelopes = ("dynasore_throttled_envelopes_total", Counter,
        "Envelopes rejected by an exhausted per-user flow budget."),
}

/// Fixed-slot counters and gauges plus per-shard metric families.
///
/// All scalar metrics live in one `[u64; MetricId::COUNT]` array; the two
/// per-shard families (`fsyncs`, `lag bytes`) live in vectors that are sized
/// once via [`MetricsRegistry::ensure_shards`] at attach time, so steady-state
/// updates never allocate. There are no atomics: single-threaded callers (the
/// simulator) update the registry directly, and multi-threaded callers (the
/// live store) guard it with their own lock.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsRegistry {
    slots: Vec<u64>,
    shard_fsyncs: Vec<u64>,
    shard_lag_bytes: Vec<u64>,
}

impl MetricsRegistry {
    /// Creates a registry with every slot at zero and no shard families.
    pub fn new() -> Self {
        MetricsRegistry {
            slots: vec![0; MetricId::COUNT],
            shard_fsyncs: Vec::new(),
            shard_lag_bytes: Vec::new(),
        }
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: MetricId) {
        self.slots[id as usize] += 1;
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: MetricId, n: u64) {
        self.slots[id as usize] += n;
    }

    /// Sets a gauge to `value`.
    #[inline]
    pub fn set(&mut self, id: MetricId, value: u64) {
        self.slots[id as usize] = value;
    }

    /// Adds a message tally to the application, protocol and recovery counters.
    pub fn add_messages(&mut self, tally: &CountingSink) {
        self.add(MetricId::AppMessages, tally.application);
        self.add(MetricId::ProtoMessages, tally.protocol);
        self.add(MetricId::RecoveryMessages, tally.persistent);
    }

    /// Raises a gauge to `value` if `value` exceeds the current level.
    #[inline]
    pub fn observe_max(&mut self, id: MetricId, value: u64) {
        let slot = &mut self.slots[id as usize];
        if value > *slot {
            *slot = value;
        }
    }

    /// Reads the current value of a metric slot.
    #[inline]
    pub fn get(&self, id: MetricId) -> u64 {
        self.slots[id as usize]
    }

    /// Sizes the per-shard families for `shards` shards (never shrinks).
    /// Call once at attach time so later per-shard updates never allocate.
    pub fn ensure_shards(&mut self, shards: usize) {
        if self.shard_fsyncs.len() < shards {
            self.shard_fsyncs.resize(shards, 0);
            self.shard_lag_bytes.resize(shards, 0);
        }
    }

    /// Number of shards the per-shard families cover.
    pub fn shard_count(&self) -> usize {
        self.shard_fsyncs.len()
    }

    /// Counts one fsync on `shard` (no-op for shards beyond
    /// [`MetricsRegistry::ensure_shards`]).
    #[inline]
    pub fn shard_fsync(&mut self, shard: usize) {
        if let Some(slot) = self.shard_fsyncs.get_mut(shard) {
            *slot += 1;
        }
    }

    /// Records the current flusher lag of `shard` in bytes and raises the
    /// cluster-wide [`MetricId::FlusherMaxLagBytes`] gauge.
    #[inline]
    pub fn set_shard_lag(&mut self, shard: usize, lag_bytes: u64) {
        if let Some(slot) = self.shard_lag_bytes.get_mut(shard) {
            *slot = lag_bytes;
        }
        self.observe_max(MetricId::FlusherMaxLagBytes, lag_bytes);
    }

    /// Per-shard fsync counts (empty until [`MetricsRegistry::ensure_shards`]).
    pub fn shard_fsyncs(&self) -> &[u64] {
        &self.shard_fsyncs
    }

    /// Per-shard lag samples in bytes.
    pub fn shard_lags(&self) -> &[u64] {
        &self.shard_lag_bytes
    }

    /// Folds another registry into this one: counters add, gauges take the
    /// maximum, shard families are element-wise merged (growing as needed).
    /// Used by benches to aggregate per-cell registries into one exposition.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for id in MetricId::ALL {
            match id.kind() {
                MetricKind::Counter => self.add(id, other.get(id)),
                MetricKind::Gauge => self.observe_max(id, other.get(id)),
            }
        }
        self.ensure_shards(other.shard_count());
        for (i, &n) in other.shard_fsyncs.iter().enumerate() {
            self.shard_fsyncs[i] += n;
        }
        for (i, &lag) in other.shard_lag_bytes.iter().enumerate() {
            if lag > self.shard_lag_bytes[i] {
                self.shard_lag_bytes[i] = lag;
            }
        }
    }

    /// Folds one trace event into the registry — the single mapping from
    /// [`TraceEventKind`]s to metric slots, shared by every observer (the
    /// simulator's and the live store's) so their registries agree on what
    /// each event means. Alloc-free: every arm is a slot update.
    pub fn apply(&mut self, kind: TraceEventKind) {
        match kind {
            TraceEventKind::ReplicaCreated { reason, .. } => {
                self.inc(MetricId::ReplicasCreated);
                if reason == ReplicaChangeReason::Recovery {
                    self.inc(MetricId::ViewsRecovered);
                }
            }
            TraceEventKind::ReplicaDropped { .. } => {
                self.inc(MetricId::ReplicasDropped);
            }
            TraceEventKind::ReplicaMoved { .. } => {
                self.inc(MetricId::ReplicasMoved);
            }
            TraceEventKind::ClusterChange { .. } => {
                self.inc(MetricId::ClusterEvents);
            }
            TraceEventKind::CacheRebuilt => {
                self.inc(MetricId::CacheRebuilds);
            }
            TraceEventKind::TickSample {
                unreachable_reads, ..
            } => {
                self.inc(MetricId::TickSamples);
                self.set(MetricId::UnreachableReads, unreachable_reads);
            }
            TraceEventKind::SwitchQueueDepth { tier, max_delay_ns } => {
                let id = match tier {
                    Tier::Top => MetricId::TopQueueDelayNs,
                    Tier::Intermediate => MetricId::InterQueueDelayNs,
                    Tier::Rack => MetricId::RackQueueDelayNs,
                };
                self.observe_max(id, max_delay_ns);
            }
            TraceEventKind::ShardLag { shard, lag_bytes } => {
                self.set_shard_lag(shard as usize, lag_bytes);
            }
            TraceEventKind::CollapseOnset { .. } => {
                self.inc(MetricId::CollapseOnsets);
            }
            TraceEventKind::GroupCommitFill {
                records,
                fill_percent,
            } => {
                self.inc(MetricId::GroupCommitBatches);
                self.add(MetricId::GroupCommitRecords, records);
                self.observe_max(MetricId::GroupCommitMaxFillPercent, u64::from(fill_percent));
            }
            TraceEventKind::FlusherSync { shard, lag_bytes } => {
                self.inc(MetricId::FlusherSyncs);
                self.shard_fsync(shard as usize);
                self.set_shard_lag(shard as usize, lag_bytes);
            }
            TraceEventKind::ReplayCompleted { bytes, .. } => {
                self.add(MetricId::ReplayedBytes, bytes);
            }
            TraceEventKind::EnvelopeServed { status, .. } => {
                self.inc(MetricId::EnvelopesServed);
                if !status.is_success() {
                    self.inc(MetricId::EnvelopesRejected);
                }
                if status == StatusCode::Unauthorized {
                    self.inc(MetricId::AuthFailures);
                }
                if status == StatusCode::Throttled {
                    self.inc(MetricId::ThrottledEnvelopes);
                }
            }
        }
    }

    /// Renders the registry in the Prometheus text exposition format: one
    /// `# HELP` / `# TYPE` pair per family followed by its samples; per-shard
    /// families carry a `shard="i"` label. Output passes
    /// [`lint_prometheus`].
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for id in MetricId::ALL {
            let type_str = match id.kind() {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
            };
            let _ = writeln!(out, "# HELP {} {}", id.name(), id.help());
            let _ = writeln!(out, "# TYPE {} {}", id.name(), type_str);
            let _ = writeln!(out, "{} {}", id.name(), self.get(id));
        }
        if !self.shard_fsyncs.is_empty() {
            let name = "dynasore_shard_fsyncs_total";
            let _ = writeln!(out, "# HELP {name} Fsync passes per durable shard.");
            let _ = writeln!(out, "# TYPE {name} counter");
            for (i, n) in self.shard_fsyncs.iter().enumerate() {
                let _ = writeln!(out, "{name}{{shard=\"{i}\"}} {n}");
            }
            let name = "dynasore_shard_lag_bytes";
            let _ = writeln!(out, "# HELP {name} Unsynced bytes per durable shard.");
            let _ = writeln!(out, "# TYPE {name} gauge");
            for (i, lag) in self.shard_lag_bytes.iter().enumerate() {
                let _ = writeln!(out, "{name}{{shard=\"{i}\"}} {lag}");
            }
        }
        out
    }
}

/// Validates a Prometheus text exposition: every sample's family must be
/// preceded by exactly one `# HELP` and one `# TYPE` line, and no two
/// samples may share the same name+labels. Returns the number of samples.
///
/// This is the format lint CI runs over `--metrics-out` artifacts; it is
/// intentionally hand-rolled (dependency-free) and checks structure, not
/// every corner of the exposition grammar.
pub fn lint_prometheus(text: &str) -> Result<usize, String> {
    let mut helped: Vec<&str> = Vec::new();
    let mut typed: Vec<&str> = Vec::new();
    let mut samples: Vec<&str> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let n = lineno + 1;
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let family = rest.split_whitespace().next().unwrap_or("");
            if family.is_empty() {
                return Err(format!("line {n}: HELP line without a family name"));
            }
            if helped.contains(&family) {
                return Err(format!("line {n}: duplicate HELP for family {family}"));
            }
            helped.push(family);
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let family = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if family.is_empty() || !matches!(kind, "counter" | "gauge" | "histogram" | "summary") {
                return Err(format!("line {n}: malformed TYPE line: {line}"));
            }
            if typed.contains(&family) {
                return Err(format!("line {n}: duplicate TYPE for family {family}"));
            }
            typed.push(family);
        } else if line.starts_with('#') {
            continue; // comment
        } else {
            let name_end = line.find(['{', ' ']).unwrap_or(line.len());
            let family = &line[..name_end];
            let series = line.rsplit_once(' ').map(|(s, _)| s).unwrap_or(line);
            if family.is_empty() {
                return Err(format!("line {n}: sample without a metric name"));
            }
            if !helped.contains(&family) {
                return Err(format!("line {n}: sample {family} has no HELP line"));
            }
            if !typed.contains(&family) {
                return Err(format!("line {n}: sample {family} has no TYPE line"));
            }
            if samples.contains(&series) {
                return Err(format!("line {n}: duplicate sample {series}"));
            }
            samples.push(series);
        }
    }
    if samples.is_empty() {
        return Err("exposition contains no samples".to_string());
    }
    Ok(samples.len())
}

/// Why a replica was created, dropped or moved — attached to every replica
/// lifecycle [`TraceEventKind`] so a timeline can separate steady-state
/// churn from failure handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaChangeReason {
    /// Access-statistics-driven placement (Algorithm 2) or utility-driven
    /// drop/migration (Algorithm 3) in steady state.
    Placement,
    /// Occupancy- or utility-driven eviction (background sweep, or making
    /// room for an incoming replica).
    Eviction,
    /// A lost master re-created from the persistent tier after a failure.
    Recovery,
    /// Graceful evacuation of a draining machine or decommissioned rack.
    Evacuation,
}

impl ReplicaChangeReason {
    /// Kebab-case string used in the JSONL timeline.
    pub fn as_str(self) -> &'static str {
        match self {
            ReplicaChangeReason::Placement => "placement",
            ReplicaChangeReason::Eviction => "eviction",
            ReplicaChangeReason::Recovery => "recovery",
            ReplicaChangeReason::Evacuation => "evacuation",
        }
    }
}

/// The three switch tiers of the network tree (§2.1). A queue-depth gauge
/// sample names the tier it refers to; its [`Display`](std::fmt::Display)
/// form (`top`, `intermediate`, `rack`) is the string used in the JSONL
/// timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tier {
    /// The core tier (top switch).
    Top,
    /// The intermediate (aggregation) tier.
    Intermediate,
    /// The edge tier (rack switches).
    Rack,
}

impl Tier {
    /// All tiers, top first.
    pub fn all() -> [Tier; 3] {
        [Tier::Top, Tier::Intermediate, Tier::Rack]
    }

    /// Dense index used by traffic accounting tables.
    pub fn index(self) -> usize {
        match self {
            Tier::Top => 0,
            Tier::Intermediate => 1,
            Tier::Rack => 2,
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Tier::Top => "top",
            Tier::Intermediate => "intermediate",
            Tier::Rack => "rack",
        })
    }
}

/// One structured flight-recorder event. All variants are `Copy` so the
/// recorder ring never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A replica of `user`'s view was created on `server`.
    ReplicaCreated {
        /// The view owner.
        user: UserId,
        /// The machine now holding the new replica.
        server: MachineId,
        /// Why the replica was created.
        reason: ReplicaChangeReason,
    },
    /// A replica of `user`'s view was dropped from `server`.
    ReplicaDropped {
        /// The view owner.
        user: UserId,
        /// The machine that held the replica.
        server: MachineId,
        /// Why the replica was dropped.
        reason: ReplicaChangeReason,
    },
    /// A replica of `user`'s view moved from `from` to `to` as one decision.
    ReplicaMoved {
        /// The view owner.
        user: UserId,
        /// The machine losing the replica.
        from: MachineId,
        /// The machine gaining the replica.
        to: MachineId,
        /// Why the replica moved.
        reason: ReplicaChangeReason,
    },
    /// A cluster change event was applied (failure, drain, elasticity).
    ClusterChange {
        /// The applied event.
        event: ClusterEvent,
    },
    /// The per-subtree candidate/threshold caches were bulk-rebuilt.
    CacheRebuilt,
    /// Per-tick simulator sample (emitted behind the sampling cadence).
    TickSample {
        /// Simulated time of the tick in seconds.
        tick_secs: u64,
        /// Cumulative unreachable read targets at this tick.
        unreachable_reads: u64,
    },
    /// Worst queueing delay currently pending across one switch tier.
    SwitchQueueDepth {
        /// Which switch tier was sampled.
        tier: Tier,
        /// Worst per-switch queueing delay in nanoseconds.
        max_delay_ns: u64,
    },
    /// Per-shard durable-tier lag sample (bytes appended but unsynced).
    ShardLag {
        /// The shard index.
        shard: u32,
        /// Unsynced bytes on this shard.
        lag_bytes: u64,
    },
    /// First tick at which switch queueing crossed the collapse threshold.
    CollapseOnset {
        /// The queueing delay that crossed the threshold, in nanoseconds.
        queue_delay_ns: u64,
    },
    /// A group-commit batch was flushed to the log.
    GroupCommitFill {
        /// Records in the batch.
        records: u64,
        /// Batch fill as a percentage of `max_batch_records`.
        fill_percent: u8,
    },
    /// The background flusher fsynced one shard.
    FlusherSync {
        /// The shard index.
        shard: u32,
        /// Lag (unsynced bytes) the fsync pass observed before syncing.
        lag_bytes: u64,
    },
    /// A replay-on-open recovery pass completed.
    ReplayCompleted {
        /// Bytes replayed.
        bytes: u64,
        /// Shards replayed.
        shards: u32,
    },
    /// The serving pipeline finished one request envelope (served or
    /// rejected — the status says which, and the metric fold splits the
    /// rejection counters by status class).
    EnvelopeServed {
        /// The user the envelope was submitted for.
        user: UserId,
        /// Final status of the envelope.
        status: StatusCode,
    },
}

impl TraceEventKind {
    /// Kebab-case discriminant name used as the `kind` field in JSONL.
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::ReplicaCreated { .. } => "replica-created",
            TraceEventKind::ReplicaDropped { .. } => "replica-dropped",
            TraceEventKind::ReplicaMoved { .. } => "replica-moved",
            TraceEventKind::ClusterChange { .. } => "cluster-change",
            TraceEventKind::CacheRebuilt => "cache-rebuilt",
            TraceEventKind::TickSample { .. } => "tick-sample",
            TraceEventKind::SwitchQueueDepth { .. } => "switch-queue-depth",
            TraceEventKind::ShardLag { .. } => "shard-lag",
            TraceEventKind::CollapseOnset { .. } => "collapse-onset",
            TraceEventKind::GroupCommitFill { .. } => "group-commit-fill",
            TraceEventKind::FlusherSync { .. } => "flusher-sync",
            TraceEventKind::ReplayCompleted { .. } => "replay-completed",
            TraceEventKind::EnvelopeServed { .. } => "envelope-served",
        }
    }
}

/// A timestamped, sequenced flight-recorder entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotone sequence number in recording order (never reused, so gaps
    /// after ring wraparound reveal how many events were overwritten).
    pub seq: u64,
    /// Timestamp in nanoseconds: simulated time in the simulator, monotonic
    /// process time in the live store.
    pub t_ns: u64,
    /// The structured payload.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Appends this event as one JSON object (no trailing newline) to `out`.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"seq\":{},\"t_ns\":{},\"kind\":\"{}\"",
            self.seq,
            self.t_ns,
            self.kind.name()
        );
        match self.kind {
            TraceEventKind::ReplicaCreated {
                user,
                server,
                reason,
            }
            | TraceEventKind::ReplicaDropped {
                user,
                server,
                reason,
            } => {
                let _ = write!(
                    out,
                    ",\"user\":{},\"server\":{},\"reason\":\"{}\"",
                    user.index(),
                    server.index(),
                    reason.as_str()
                );
            }
            TraceEventKind::ReplicaMoved {
                user,
                from,
                to,
                reason,
            } => {
                let _ = write!(
                    out,
                    ",\"user\":{},\"from\":{},\"to\":{},\"reason\":\"{}\"",
                    user.index(),
                    from.index(),
                    to.index(),
                    reason.as_str()
                );
            }
            TraceEventKind::ClusterChange { event } => {
                let _ = write!(out, ",\"event\":\"{event}\"");
            }
            TraceEventKind::CacheRebuilt => {}
            TraceEventKind::TickSample {
                tick_secs,
                unreachable_reads,
            } => {
                let _ = write!(
                    out,
                    ",\"tick_secs\":{tick_secs},\"unreachable_reads\":{unreachable_reads}"
                );
            }
            TraceEventKind::SwitchQueueDepth { tier, max_delay_ns } => {
                let _ = write!(out, ",\"tier\":\"{tier}\",\"max_delay_ns\":{max_delay_ns}");
            }
            TraceEventKind::ShardLag { shard, lag_bytes } => {
                let _ = write!(out, ",\"shard\":{shard},\"lag_bytes\":{lag_bytes}");
            }
            TraceEventKind::CollapseOnset { queue_delay_ns } => {
                let _ = write!(out, ",\"queue_delay_ns\":{queue_delay_ns}");
            }
            TraceEventKind::GroupCommitFill {
                records,
                fill_percent,
            } => {
                let _ = write!(
                    out,
                    ",\"records\":{records},\"fill_percent\":{fill_percent}"
                );
            }
            TraceEventKind::FlusherSync { shard, lag_bytes } => {
                let _ = write!(out, ",\"shard\":{shard},\"lag_bytes\":{lag_bytes}");
            }
            TraceEventKind::ReplayCompleted { bytes, shards } => {
                let _ = write!(out, ",\"bytes\":{bytes},\"shards\":{shards}");
            }
            TraceEventKind::EnvelopeServed { user, status } => {
                let _ = write!(
                    out,
                    ",\"user\":{},\"status\":\"{}\"",
                    user.index(),
                    status.as_str()
                );
            }
        }
        out.push('}');
    }
}

/// Bounded ring buffer of [`TraceEvent`]s that keeps the newest `capacity`
/// events. Storage is allocated once in [`FlightRecorder::new`]; recording
/// overwrites the oldest entry when full, so the hot path never allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecorder {
    events: Vec<TraceEvent>,
    capacity: usize,
    head: usize,
    next_seq: u64,
}

impl FlightRecorder {
    /// Creates a recorder keeping the newest `capacity` events. The full
    /// ring is allocated up front.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            events: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            next_seq: 0,
        }
    }

    /// Records one event stamped `t_ns`, overwriting the oldest entry when
    /// the ring is full. Alloc-free. With capacity 0 only the sequence
    /// counter advances.
    #[inline]
    pub fn record(&mut self, t_ns: u64, kind: TraceEventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.capacity == 0 {
            return;
        }
        let event = TraceEvent { seq, t_ns, kind };
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Number of events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Events lost to ring wraparound.
    pub fn dropped(&self) -> u64 {
        self.next_seq - self.events.len() as u64
    }

    /// Iterates the retained events oldest-first (ascending `seq`).
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let (older, newer) = if self.events.len() < self.capacity {
            (&self.events[..], &self.events[..0])
        } else {
            let (newer, older) = self.events.split_at(self.head);
            (older, newer)
        };
        older.iter().chain(newer.iter())
    }

    /// Renders the retained timeline as JSON Lines, one event per line,
    /// oldest first. Output passes [`validate_jsonl`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 80);
        for event in self.iter() {
            event.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

/// Validates a JSONL timeline dump: every non-empty line must be a JSON
/// object carrying `seq`, `t_ns` and `kind` fields. Returns the event
/// count. Hand-rolled structural check, dependency-free, used by CI.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let n = lineno + 1;
        if !line.starts_with('{') || !line.ends_with('}') {
            return Err(format!("line {n}: not a JSON object: {line}"));
        }
        for field in ["\"seq\":", "\"t_ns\":", "\"kind\":\""] {
            if !line.contains(field) {
                return Err(format!("line {n}: missing {field} field"));
            }
        }
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceEventKind) -> TraceEventKind {
        kind
    }

    #[test]
    fn registry_counters_and_gauges() {
        let mut reg = MetricsRegistry::new();
        reg.inc(MetricId::ReplicasCreated);
        reg.add(MetricId::ReplicasCreated, 2);
        assert_eq!(reg.get(MetricId::ReplicasCreated), 3);
        reg.set(MetricId::TopQueueDelayNs, 500);
        reg.observe_max(MetricId::TopQueueDelayNs, 100);
        assert_eq!(reg.get(MetricId::TopQueueDelayNs), 500);
        reg.observe_max(MetricId::TopQueueDelayNs, 900);
        assert_eq!(reg.get(MetricId::TopQueueDelayNs), 900);
    }

    #[test]
    fn registry_shard_families() {
        let mut reg = MetricsRegistry::new();
        // Updates before ensure_shards are silently dropped, never panic.
        reg.shard_fsync(3);
        reg.ensure_shards(4);
        reg.shard_fsync(3);
        reg.shard_fsync(3);
        reg.set_shard_lag(1, 4096);
        assert_eq!(reg.shard_fsyncs(), &[0, 0, 0, 2]);
        assert_eq!(reg.shard_lags(), &[0, 4096, 0, 0]);
        assert_eq!(reg.get(MetricId::FlusherMaxLagBytes), 4096);
    }

    #[test]
    fn registry_merge_adds_counters_and_maxes_gauges() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.add(MetricId::DurableAppends, 10);
        b.add(MetricId::DurableAppends, 5);
        a.set(MetricId::RackQueueDelayNs, 100);
        b.set(MetricId::RackQueueDelayNs, 300);
        b.ensure_shards(2);
        b.shard_fsync(1);
        a.merge(&b);
        assert_eq!(a.get(MetricId::DurableAppends), 15);
        assert_eq!(a.get(MetricId::RackQueueDelayNs), 300);
        assert_eq!(a.shard_fsyncs(), &[0, 1]);
    }

    #[test]
    fn prometheus_render_passes_lint() {
        let mut reg = MetricsRegistry::new();
        reg.inc(MetricId::ClusterEvents);
        reg.ensure_shards(2);
        reg.shard_fsync(0);
        reg.set_shard_lag(1, 77);
        let text = reg.render_prometheus();
        let samples = lint_prometheus(&text).expect("lint passes");
        assert_eq!(samples, MetricId::COUNT + 4);
        assert!(text.contains("dynasore_cluster_events_total 1"));
        assert!(text.contains("dynasore_shard_lag_bytes{shard=\"1\"} 77"));
    }

    #[test]
    fn prometheus_lint_rejects_malformed_input() {
        assert!(lint_prometheus("").is_err());
        // Sample without HELP/TYPE.
        assert!(lint_prometheus("foo 1\n").is_err());
        // Duplicate sample.
        let text = "# HELP foo x\n# TYPE foo counter\nfoo 1\nfoo 2\n";
        assert!(lint_prometheus(text)
            .unwrap_err()
            .contains("duplicate sample"));
        // Duplicate TYPE.
        let text = "# HELP foo x\n# TYPE foo counter\n# TYPE foo counter\nfoo 1\n";
        assert!(lint_prometheus(text)
            .unwrap_err()
            .contains("duplicate TYPE"));
        // Labelled samples with distinct labels are fine.
        let text = "# HELP foo x\n# TYPE foo counter\nfoo{s=\"0\"} 1\nfoo{s=\"1\"} 2\n";
        assert_eq!(lint_prometheus(text).unwrap(), 2);
    }

    #[test]
    fn recorder_keeps_newest_events_on_wraparound() {
        let mut rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record(
                i * 100,
                ev(TraceEventKind::CollapseOnset { queue_delay_ns: i }),
            );
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.dropped(), 6);
        let seqs: Vec<u64> = rec.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "newest 4 events retained, in order");
        let times: Vec<u64> = rec.iter().map(|e| e.t_ns).collect();
        assert_eq!(times, vec![600, 700, 800, 900]);
    }

    #[test]
    fn recorder_zero_capacity_only_counts() {
        let mut rec = FlightRecorder::new(0);
        rec.record(1, ev(TraceEventKind::CacheRebuilt));
        assert!(rec.is_empty());
        assert_eq!(rec.recorded(), 1);
    }

    #[test]
    fn jsonl_round_trip_validates() {
        let mut rec = FlightRecorder::new(16);
        rec.record(
            1_000,
            TraceEventKind::ReplicaCreated {
                user: UserId::new(7),
                server: MachineId::new(3),
                reason: ReplicaChangeReason::Placement,
            },
        );
        rec.record(
            2_000,
            TraceEventKind::ReplicaMoved {
                user: UserId::new(7),
                from: MachineId::new(3),
                to: MachineId::new(9),
                reason: ReplicaChangeReason::Evacuation,
            },
        );
        rec.record(
            3_000,
            TraceEventKind::ClusterChange {
                event: ClusterEvent::AddRack,
            },
        );
        rec.record(
            4_000,
            TraceEventKind::SwitchQueueDepth {
                tier: Tier::Rack,
                max_delay_ns: 123,
            },
        );
        let jsonl = rec.to_jsonl();
        assert_eq!(validate_jsonl(&jsonl).unwrap(), 4);
        assert!(jsonl.contains("\"kind\":\"replica-created\""));
        assert!(jsonl.contains("\"reason\":\"evacuation\""));
        assert!(jsonl.contains("\"event\":\"add-rack\""));
        assert!(jsonl.contains("\"tier\":\"rack\""));
    }

    #[test]
    fn jsonl_validation_rejects_garbage() {
        assert!(validate_jsonl("not json\n").is_err());
        assert!(validate_jsonl("{\"seq\":1}\n").is_err());
        assert_eq!(validate_jsonl("").unwrap(), 0);
    }

    #[test]
    fn metric_catalog_is_complete() {
        for id in MetricId::ALL {
            assert!(id.name().starts_with("dynasore_"), "{}", id.name());
            assert!(!id.help().is_empty());
            if id.kind() == MetricKind::Counter {
                assert!(id.name().ends_with("_total"), "{}", id.name());
            }
        }
    }
}
