//! Events and producer-pivoted views.
//!
//! The paper treats an event as an application-specific array of bytes
//! (§1) and a view as a list of events produced by a single user, possibly
//! ordered by timestamp (§2.1). Events are assumed to have a fixed, small
//! size (e.g. 140-character tweets); heavy content lives in dedicated
//! servers, not in the cache (§3.2, *Storage management*).

use std::sync::Arc;

use crate::{SimTime, UserId};

/// Maximum number of events retained per view.
///
/// Social feeds only ever display the most recent items, so views are
/// truncated to a bounded number of events, mirroring how production caches
/// cap per-key value sizes.
pub const VIEW_CAPACITY: usize = 128;

/// A single piece of content produced by a user (status update, micro-blog,
/// picture reference, …).
///
/// The format of the payload is application specific; DynaSoRe treats it as
/// an opaque array of bytes. Events are immutable and their copies share
/// the payload: cloning an event — into a feed, or with its [`View`] for a
/// by-value read or a durable append — copies no payload bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Event {
    author: UserId,
    timestamp: SimTime,
    payload: Arc<[u8]>,
}

impl Event {
    /// Creates a new event.
    pub fn new(author: UserId, timestamp: SimTime, payload: Vec<u8>) -> Self {
        Event {
            author,
            timestamp,
            payload: payload.into(),
        }
    }

    /// The user who produced the event.
    pub fn author(&self) -> UserId {
        self.author
    }

    /// When the event was produced.
    pub fn timestamp(&self) -> SimTime {
        self.timestamp
    }

    /// The opaque application payload.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Size of the payload in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }
}

/// A producer-pivoted view: the list of events produced by one user, newest
/// last, truncated to the 128 most recent.
///
/// # Example
///
/// ```
/// use dynasore_types::{Event, SimTime, UserId, View};
///
/// let u = UserId::new(9);
/// let mut view = View::new(u);
/// for i in 0..130 {
///     view.push(Event::new(u, SimTime::from_secs(i), vec![i as u8]));
/// }
/// // The two oldest events were truncated.
/// assert_eq!(view.len(), 128);
/// assert_eq!(view.iter().next().unwrap().timestamp(), SimTime::from_secs(2));
/// assert_eq!(view.latest().unwrap().timestamp(), SimTime::from_secs(129));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    owner: UserId,
    /// Always [`VIEW_CAPACITY`]. The field stays although every view has
    /// the same capacity: without it a `View` is 40 bytes, not 48, and the
    /// smaller size measurably raised the peak resident memory of
    /// write-heavy serving through allocator fragmentation (README,
    /// *Measured and parked*).
    capacity: usize,
    events: Vec<Event>,
    /// Monotonically increasing version, bumped on every update. Mirrors the
    /// "new version fetched from the persistent store" of the paper's write
    /// path (§3.3).
    version: u64,
}

impl View {
    /// Creates an empty view.
    pub fn new(owner: UserId) -> Self {
        View {
            owner,
            capacity: VIEW_CAPACITY,
            events: Vec::new(),
            version: 0,
        }
    }

    /// A view rebuilt from stored history: `events`, oldest first, of which
    /// the newest [`VIEW_CAPACITY`] are kept, after `version` pushes in all.
    /// The version counts every event ever pushed, so a view that has
    /// pushed more than it holds has a version above its length.
    ///
    /// # Panics
    ///
    /// If `version` is below `events.len()`: a view cannot hold more
    /// events than were pushed to it.
    pub fn with_version(owner: UserId, mut events: Vec<Event>, version: u64) -> Self {
        assert!(
            version >= events.len() as u64,
            "a view of version {version} cannot hold {} events",
            events.len()
        );
        let excess = events.len().saturating_sub(VIEW_CAPACITY);
        events.drain(..excess);
        View {
            owner,
            capacity: VIEW_CAPACITY,
            events,
            version,
        }
    }

    /// The user this view belongs to.
    pub fn owner(&self) -> UserId {
        self.owner
    }

    /// The number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the view holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The maximum number of events retained: 128, for every view.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current version of the view. Starts at 0 and increases by one on
    /// every [`push`](View::push); of two copies, a replica keeps the newer.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Appends an event, evicting the oldest one if the view is full.
    pub fn push(&mut self, event: Event) {
        if self.events.len() == self.capacity {
            self.events.remove(0);
        }
        self.events.push(event);
        self.version += 1;
    }

    /// The most recent event, if any.
    pub fn latest(&self) -> Option<&Event> {
        self.events.last()
    }

    /// Iterates over events from oldest to newest.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(u: u32, t: u64) -> Event {
        Event::new(UserId::new(u), SimTime::from_secs(t), vec![t as u8])
    }

    #[test]
    fn event_accessors() {
        let e = Event::new(UserId::new(1), SimTime::from_secs(5), b"abc".to_vec());
        assert_eq!(e.author(), UserId::new(1));
        assert_eq!(e.timestamp(), SimTime::from_secs(5));
        assert_eq!(e.payload(), b"abc");
        assert_eq!(e.payload_len(), 3);
    }

    #[test]
    fn copies_of_a_view_share_their_payloads() {
        let mut view = View::new(UserId::new(1));
        view.push(Event::new(UserId::new(1), SimTime::ZERO, vec![7; 140]));
        let copy = view.clone();
        assert_eq!(copy, view);
        let payload = |v: &View| v.latest().unwrap().payload().as_ptr();
        assert_eq!(payload(&copy), payload(&view));
    }

    #[test]
    fn view_push_and_truncate() {
        let mut v = View::new(UserId::new(1));
        assert!(v.is_empty());
        for t in 0..130 {
            v.push(ev(1, t));
        }
        assert_eq!(v.len(), 128);
        assert_eq!(v.capacity(), 128);
        let ts: Vec<u64> = v.iter().map(|e| e.timestamp().as_secs()).collect();
        assert_eq!(ts, (2..130).collect::<Vec<_>>());
        assert_eq!(v.latest().unwrap().timestamp().as_secs(), 129);
        assert_eq!(v.version(), 130);
    }

    #[test]
    fn a_view_rebuilt_with_its_version_equals_the_pushed_one() {
        let mut pushed = View::new(UserId::new(1));
        for t in 0..130 {
            pushed.push(ev(1, t));
        }
        let events: Vec<Event> = (0..130).map(|t| ev(1, t)).collect();
        let rebuilt = View::with_version(UserId::new(1), events, 130);
        assert_eq!(rebuilt, pushed);
        assert_eq!(
            View::with_version(UserId::new(1), vec![], 0),
            View::new(UserId::new(1))
        );
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn a_view_cannot_hold_more_events_than_were_pushed() {
        View::with_version(UserId::new(1), vec![ev(1, 0), ev(1, 1)], 1);
    }

    #[test]
    fn default_capacity_applies() {
        let v = View::new(UserId::new(4));
        assert_eq!(v.capacity(), VIEW_CAPACITY);
    }
}
