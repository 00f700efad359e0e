//! The interface between the simulator and a view-placement strategy.
//!
//! These types sit in the bottom layer on purpose: the placement engines
//! (`dynasore-core`, `dynasore-baselines`) implement [`PlacementEngine`] and
//! the simulator (`dynasore-sim`, two layers above) drives it, so the trait
//! must live below both to keep the dependency DAG acyclic and strictly
//! layered.

use crate::{
    Latency, MachineId, MessageClass, RackId, Result, SimTime, SubtreeId, TraceEventKind, UserId,
};

/// A change of the cluster itself: machines failing, recovering, being
/// drained for maintenance, or capacity being added while the system runs.
///
/// The paper's design makes cache servers disposable — the durable backing
/// store can regenerate any view (§3.3) — so the interesting questions are
/// *how much recovery traffic* a failure causes and *how fast* the placement
/// re-converges. These events are scheduled in a simulation (alongside graph
/// mutations) or applied to a live store, and delivered to every
/// [`PlacementEngine`] through
/// [`PlacementEngine::on_cluster_change`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEvent {
    /// A machine crashes: its cached views and proxies are lost instantly.
    MachineDown {
        /// The failing machine.
        machine: MachineId,
    },
    /// A previously failed machine rejoins with an empty cache.
    MachineUp {
        /// The recovering machine.
        machine: MachineId,
    },
    /// A whole rack fails at once (correlated failure: shared switch or
    /// power domain).
    RackDown {
        /// The failing rack.
        rack: RackId,
    },
    /// A previously failed rack rejoins, all machines empty.
    RackUp {
        /// The recovering rack.
        rack: RackId,
    },
    /// A machine is gracefully taken out of service: its state is migrated
    /// to live machines *before* it stops, so no recovery from the
    /// persistent tier is needed.
    DrainMachine {
        /// The machine being drained.
        machine: MachineId,
    },
    /// A new rack of machines (same shape as the existing racks) is added to
    /// the cluster, growing its capacity while it serves traffic.
    AddRack,
    /// A rack is permanently decommissioned while the cluster serves
    /// traffic (elastic shrink, the reverse of [`AddRack`](Self::AddRack)).
    /// Engines evacuate every replica and master stored on the rack to the
    /// surviving machines *before* the rack disappears — the same graceful
    /// ladder as [`DrainMachine`](Self::DrainMachine) — and the rack can
    /// never rejoin: a retired rack ignores
    /// [`RackUp`](Self::RackUp)/[`MachineUp`](Self::MachineUp).
    RemoveRack {
        /// The rack being decommissioned.
        rack: RackId,
    },
}

impl std::fmt::Display for ClusterEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterEvent::MachineDown { machine } => write!(f, "machine-down {machine}"),
            ClusterEvent::MachineUp { machine } => write!(f, "machine-up {machine}"),
            ClusterEvent::RackDown { rack } => write!(f, "rack-down {rack}"),
            ClusterEvent::RackUp { rack } => write!(f, "rack-up {rack}"),
            ClusterEvent::DrainMachine { machine } => write!(f, "drain {machine}"),
            ClusterEvent::AddRack => write!(f, "add-rack"),
            ClusterEvent::RemoveRack { rack } => write!(f, "remove-rack {rack}"),
        }
    }
}

/// A [`ClusterEvent`] scheduled at a specific simulation time — the unit of
/// a failure schedule, mirroring the `TimedMutation` of graph changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedClusterEvent {
    /// When the event takes effect.
    pub time: SimTime,
    /// The event itself.
    pub event: ClusterEvent,
}

/// A timed modification of the social graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphMutation {
    /// `follower` starts following `followee`.
    AddEdge {
        /// The user adding the connection.
        follower: UserId,
        /// The user being followed.
        followee: UserId,
    },
    /// `follower` stops following `followee`.
    RemoveEdge {
        /// The user removing the connection.
        follower: UserId,
        /// The user being unfollowed.
        followee: UserId,
    },
}

/// A message exchanged between two machines of the cluster, to be charged to
/// every switch on the path between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// The sending machine.
    pub from: MachineId,
    /// The receiving machine.
    pub to: MachineId,
    /// Application (carries view data, 10 units) or protocol (control, 1
    /// unit).
    pub class: MessageClass,
}

impl Message {
    /// Creates an application message (read/write request or answer).
    pub fn application(from: MachineId, to: MachineId) -> Self {
        Message {
            from,
            to,
            class: MessageClass::Application,
        }
    }

    /// Creates a protocol message (replica management, notifications,
    /// threshold piggybacking).
    pub fn protocol(from: MachineId, to: MachineId) -> Self {
        Message {
            from,
            to,
            class: MessageClass::Protocol,
        }
    }

    /// Creates one protocol message of a view transfer from the persistent
    /// tier to `to` — the unit of recovery traffic after a cache-machine
    /// failure. The durable store attaches above the core switch, so this
    /// message crosses the top of the tree on its way down to `to`.
    pub fn persistent_fetch(to: MachineId) -> Self {
        Message {
            from: MachineId::PERSISTENT,
            to,
            class: MessageClass::Protocol,
        }
    }

    /// Whether this message involves the persistent tier (recovery or
    /// demand-fill traffic rather than cache-to-cache traffic).
    pub fn involves_persistent(&self) -> bool {
        self.from.is_persistent() || self.to.is_persistent()
    }

    /// Whether the message stays on one machine (and therefore crosses no
    /// switch).
    pub fn is_local(&self) -> bool {
        self.from == self.to
    }
}

/// Aggregate memory usage of all view servers of an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryUsage {
    /// View slots currently occupied (primary copies + replicas).
    pub used_slots: usize,
    /// Total view slots available across all servers.
    pub capacity_slots: usize,
}

impl MemoryUsage {
    /// Occupancy as a fraction in `[0, 1]` (0 when capacity is unknown).
    pub fn occupancy(&self) -> f64 {
        if self.capacity_slots == 0 {
            0.0
        } else {
            self.used_slots as f64 / self.capacity_slots as f64
        }
    }
}

/// A consumer of the messages a [`PlacementEngine`] emits.
///
/// Engines hand each message to the sink the moment it is generated, so the
/// driver can account for it inline (charge switches, count classes) without
/// the engine ever materializing a message buffer. `Vec<Message>` implements
/// the trait by pushing, for unit tests and drivers that want to inspect the
/// messages themselves.
pub trait TrafficSink {
    /// Accepts one message.
    fn record(&mut self, message: Message);

    /// Accepts `count` copies of `message` — a view transfer is
    /// [`VIEW_TRANSFER_PROTOCOL_MESSAGES`](crate::VIEW_TRANSFER_PROTOCOL_MESSAGES)
    /// of them — exactly as `count` calls to [`TrafficSink::record`] would.
    /// The default makes those calls; a sink that only counts adds `count`
    /// in one step.
    fn record_n(&mut self, message: Message, count: usize) {
        for _ in 0..count {
            self.record(message);
        }
    }

    /// Congestion feedback for the engine's placement decisions: the
    /// queueing delay currently pending at the switch that fronts `subtree`
    /// (its rack switch, intermediate switch, or the core for the whole
    /// cluster). Sinks that account messages against a time-aware
    /// [`crate::NetworkModel`] report real queue state here, letting engines
    /// steer replicas away from congested racks; the default — and every
    /// unit-count sink, `Vec<Message>` included — reports zero, which keeps
    /// placement decisions exactly as they were before the network model
    /// existed.
    fn congestion(&self, _subtree: SubtreeId) -> Latency {
        Latency::ZERO
    }

    /// Accepts one structured flight-recorder event describing a placement
    /// decision the engine just made (replica created/dropped/moved, cluster
    /// event applied, cache rebuilt). Engines emit these alongside the
    /// protocol messages of the same decision, so observability rides the
    /// existing sink plumbing with no extra parameters. The default — and
    /// every unit-count sink, `Vec<Message>` included — discards the event,
    /// which keeps the disabled-observability path zero-cost.
    fn trace(&mut self, _event: TraceEventKind) {}

    /// Reports that the replica of `view` on `server` served the request.
    /// An engine that reports (DynaSoRe's does; the baselines do not) calls
    /// it once per read target it routed, naming the replica its routing
    /// policy picked *before* it reacted to the read — the server that
    /// counted the read — and once per replica a write updated, in request
    /// order. A target it could not route (unknown user, no live replica)
    /// is not reported. A driver that moves the data itself — the live
    /// store — serves and pushes to exactly these replicas instead of
    /// routing a second time. The default discards the report.
    fn served(&mut self, _view: UserId, _server: MachineId) {}

    /// Reports that `server` no longer holds a replica of `view`. An engine
    /// that reports (DynaSoRe's does; the baselines do not) calls it every
    /// time a replica leaves a server — evicted, dropped, moved away,
    /// evacuated or lost with a crashed machine — while handling the request
    /// or cluster event it is reporting to. A replica created again on the
    /// same server later in the same call is reported as unlinked all the
    /// same. A driver that holds the data itself — the live store — evicts
    /// exactly these copies, so its cache holds no replica the engine does
    /// not list. The default discards the report.
    fn unlinked(&mut self, _view: UserId, _server: MachineId) {}
}

impl TrafficSink for Vec<Message> {
    #[inline]
    fn record(&mut self, message: Message) {
        self.push(message);
    }
}

/// The one tally of an engine's messages: how many it was handed of each
/// class, and how many of them were exchanged with the persistent tier
/// (recovery refills). The simulator, the live store and the throughput
/// benches count through it instead of buffering a `Vec<Message>` per
/// request. Owns no references, so it is `Send`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CountingSink {
    /// Application messages recorded.
    pub application: u64,
    /// Protocol messages recorded.
    pub protocol: u64,
    /// Messages of either class with the persistent tier as one endpoint.
    pub persistent: u64,
}

impl CountingSink {
    /// All messages recorded.
    pub fn total(&self) -> u64 {
        self.application + self.protocol
    }
}

impl std::ops::AddAssign for CountingSink {
    fn add_assign(&mut self, other: CountingSink) {
        self.application += other.application;
        self.protocol += other.protocol;
        self.persistent += other.persistent;
    }
}

impl TrafficSink for CountingSink {
    #[inline]
    fn record(&mut self, message: Message) {
        self.record_n(message, 1);
    }

    #[inline]
    fn record_n(&mut self, message: Message, count: usize) {
        let count = count as u64;
        let application = u64::from(message.class.is_application());
        self.application += count * application;
        self.protocol += count * (1 - application);
        self.persistent += count * u64::from(message.involves_persistent());
    }
}

/// A view-placement strategy driven by the simulator.
///
/// Implementations decide, for every request, which broker executes it and
/// which servers are contacted, and report the messages this generates.
/// Dynamic strategies (DynaSoRe, SPAR) additionally mutate their internal
/// placement state and emit protocol messages for replica creation,
/// migration, eviction and routing-table maintenance.
pub trait PlacementEngine {
    /// A short human-readable name used in reports ("random", "spar",
    /// "dynasore-from-hmetis", …).
    fn name(&self) -> &str;

    /// Executes a read request issued by `user` for the views of `targets`
    /// at simulated time `time`, reporting every generated message to `out`.
    fn handle_read(
        &mut self,
        user: UserId,
        targets: &[UserId],
        time: SimTime,
        out: &mut dyn TrafficSink,
    );

    /// Executes a write request issued by `user` at simulated time `time`,
    /// reporting every generated message to `out`.
    fn handle_write(&mut self, user: UserId, time: SimTime, out: &mut dyn TrafficSink);

    /// Periodic maintenance hook, called by the simulator at a fixed
    /// interval (hourly by default): rotate access counters, refresh
    /// admission thresholds, run eviction sweeps. Maintenance traffic goes
    /// to `out`.
    fn on_tick(&mut self, _time: SimTime, _out: &mut dyn TrafficSink) {}

    /// Notification that the social graph changed (an edge was added or
    /// removed), e.g. during a flash event. Engines that place views based
    /// on the graph structure (SPAR) react here.
    fn on_graph_change(&mut self, _mutation: GraphMutation, _out: &mut dyn TrafficSink) {}

    /// Notification that the cluster itself changed: a machine or rack
    /// failed or recovered, a machine is being drained, or capacity was
    /// added. Engines drop replicas lost to failures, re-create sole
    /// replicas from the persistent tier (reporting the recovery traffic to
    /// `out`), and absorb new capacity.
    ///
    /// The default is a no-op so custom engines keep compiling; such engines
    /// simply behave as if the cluster were static.
    ///
    /// # Errors
    ///
    /// The topology's error when it refuses the event (an unknown machine or
    /// rack, growth of a flat layout, removing a retired or the last rack);
    /// the engine has changed nothing then.
    fn on_cluster_change(
        &mut self,
        _event: ClusterEvent,
        _out: &mut dyn TrafficSink,
    ) -> Result<()> {
        Ok(())
    }

    /// Number of read targets the engine could not serve because the view
    /// had no live replica (cumulative over the engine's lifetime). Always 0
    /// for engines that never lose views — the default keeps custom engines
    /// compiling.
    fn unreachable_reads(&self) -> u64 {
        0
    }

    /// Number of replicas of `user`'s view currently stored (≥ 1 for every
    /// known user). Used by the flash-event experiment (Figure 5).
    fn replica_count(&self, user: UserId) -> usize;

    /// Aggregate memory usage across all servers.
    fn memory_usage(&self) -> MemoryUsage;
}

impl<T: PlacementEngine + ?Sized> PlacementEngine for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn handle_read(
        &mut self,
        user: UserId,
        targets: &[UserId],
        time: SimTime,
        out: &mut dyn TrafficSink,
    ) {
        (**self).handle_read(user, targets, time, out);
    }

    fn handle_write(&mut self, user: UserId, time: SimTime, out: &mut dyn TrafficSink) {
        (**self).handle_write(user, time, out);
    }

    fn on_tick(&mut self, time: SimTime, out: &mut dyn TrafficSink) {
        (**self).on_tick(time, out);
    }

    fn on_graph_change(&mut self, mutation: GraphMutation, out: &mut dyn TrafficSink) {
        (**self).on_graph_change(mutation, out);
    }

    fn on_cluster_change(&mut self, event: ClusterEvent, out: &mut dyn TrafficSink) -> Result<()> {
        (**self).on_cluster_change(event, out)
    }

    fn unreachable_reads(&self) -> u64 {
        (**self).unreachable_reads()
    }

    fn replica_count(&self, user: UserId) -> usize {
        (**self).replica_count(user)
    }

    fn memory_usage(&self) -> MemoryUsage {
        (**self).memory_usage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VIEW_TRANSFER_PROTOCOL_MESSAGES;

    #[test]
    fn message_constructors() {
        let a = MachineId::new(1);
        let b = MachineId::new(2);
        let app = Message::application(a, b);
        let proto = Message::protocol(b, a);
        assert_eq!(app.class, MessageClass::Application);
        assert_eq!(proto.class, MessageClass::Protocol);
        assert!(!app.is_local());
        assert!(Message::application(a, a).is_local());
    }

    #[test]
    fn vec_sink_collects_messages() {
        let a = MachineId::new(1);
        let b = MachineId::new(2);
        let mut out: Vec<Message> = Vec::new();
        let sink: &mut dyn TrafficSink = &mut out;
        sink.record(Message::application(a, b));
        sink.record(Message::protocol(b, a));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], Message::application(a, b));
        assert_eq!(out[1], Message::protocol(b, a));
    }

    #[test]
    fn counting_sink_counts_all_and_persistent_messages() {
        let a = MachineId::new(1);
        let b = MachineId::new(2);
        let mut sink = CountingSink::default();
        sink.record(Message::application(a, b));
        sink.record(Message::persistent_fetch(b));
        sink.record(Message::protocol(b, a));
        assert_eq!(
            (sink.application, sink.protocol, sink.persistent),
            (1, 2, 1)
        );
        assert_eq!(sink.total(), 3);
        let mut thrice = sink;
        thrice += sink;
        thrice += sink;
        assert_eq!(
            (thrice.application, thrice.protocol, thrice.persistent),
            (3, 6, 3)
        );
    }

    /// `record_n(m, n)` is `n` calls to `record(m)`, for the sink that
    /// counts in one step and for the default, which makes the calls.
    #[test]
    fn record_n_is_n_records() {
        let (a, b) = (MachineId::new(1), MachineId::new(2));
        let messages = [
            Message::application(a, b),
            Message::protocol(b, a),
            Message::persistent_fetch(b),
        ];
        for n in [0, 1, 3, VIEW_TRANSFER_PROTOCOL_MESSAGES] {
            let (mut bulk, mut one_by_one) = (CountingSink::default(), CountingSink::default());
            let (mut pushed, mut expected): (Vec<Message>, Vec<Message>) = (Vec::new(), Vec::new());
            for message in messages {
                bulk.record_n(message, n);
                pushed.record_n(message, n);
                for _ in 0..n {
                    one_by_one.record(message);
                    expected.record(message);
                }
            }
            assert_eq!(bulk, one_by_one, "{n} copies");
            assert_eq!(bulk.persistent, n as u64);
            assert_eq!(pushed, expected, "{n} copies");
        }
    }

    #[test]
    fn persistent_fetch_marks_recovery_traffic() {
        let m = MachineId::new(3);
        let fetch = Message::persistent_fetch(m);
        assert_eq!(fetch.class, MessageClass::Protocol);
        assert_eq!(fetch.from, MachineId::PERSISTENT);
        assert!(fetch.involves_persistent());
        assert!(!fetch.is_local());
        assert!(!Message::application(m, m).involves_persistent());
        assert!(MachineId::PERSISTENT.is_persistent());
        assert!(!m.is_persistent());
    }

    #[test]
    fn cluster_events_render_for_logs() {
        let m = MachineId::new(4);
        let r = RackId::new(2);
        assert_eq!(
            ClusterEvent::MachineDown { machine: m }.to_string(),
            "machine-down m4"
        );
        assert_eq!(
            ClusterEvent::MachineUp { machine: m }.to_string(),
            "machine-up m4"
        );
        assert_eq!(
            ClusterEvent::RackDown { rack: r }.to_string(),
            "rack-down rack2"
        );
        assert_eq!(
            ClusterEvent::RackUp { rack: r }.to_string(),
            "rack-up rack2"
        );
        assert_eq!(
            ClusterEvent::DrainMachine { machine: m }.to_string(),
            "drain m4"
        );
        assert_eq!(ClusterEvent::AddRack.to_string(), "add-rack");
        assert_eq!(
            ClusterEvent::RemoveRack { rack: r }.to_string(),
            "remove-rack rack2"
        );
        let timed = TimedClusterEvent {
            time: SimTime::from_secs(5),
            event: ClusterEvent::AddRack,
        };
        assert_eq!(timed, timed);
    }

    #[test]
    fn memory_usage_occupancy() {
        let m = MemoryUsage {
            used_slots: 30,
            capacity_slots: 120,
        };
        assert!((m.occupancy() - 0.25).abs() < 1e-12);
        assert_eq!(MemoryUsage::default().occupancy(), 0.0);
    }
}
