//! The bench-side shadow model that every response is checked against.
//!
//! With one closed-loop client the store must be read-your-writes: a view
//! holds exactly the events acknowledged for its owner (capped at the view
//! capacity) and ends with the last acknowledged payload.

use std::collections::BTreeMap;

use dynasore_types::{Event, UserId, View};

/// Bytes of every payload the benchmark writes.
pub const PAYLOAD_BYTES: usize = 100;

/// A payload that carries its sequence number in its first eight bytes.
pub fn payload(seq: u64) -> Vec<u8> {
    let mut bytes = vec![seq as u8; PAYLOAD_BYTES];
    bytes[..8].copy_from_slice(&seq.to_le_bytes());
    bytes
}

fn payload_seq(bytes: &[u8]) -> Option<u64> {
    let head: [u8; 8] = bytes.get(..8)?.try_into().ok()?;
    Some(u64::from_le_bytes(head))
}

/// Per user: how many writes were acknowledged and the last one's sequence
/// number.
#[derive(Debug, Clone)]
pub struct Shadow {
    users: Vec<(u64, u64)>,
    next_seq: u64,
    /// The store's default view capacity (`View::new`), which the public
    /// API exposes only through a view.
    view_capacity: u64,
}

impl Shadow {
    pub fn new(user_count: usize) -> Self {
        Shadow {
            users: vec![(0, 0); user_count],
            next_seq: 1,
            view_capacity: View::new(UserId::new(0)).capacity() as u64,
        }
    }

    /// The next sequence number to write.
    pub fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Records an acknowledged write of `seq` by `user`.
    pub fn acknowledge(&mut self, user: UserId, seq: u64) {
        let entry = &mut self.users[user.as_usize()];
        entry.0 += 1;
        entry.1 = seq;
    }

    /// Writes acknowledged over all users.
    pub fn acknowledged(&self) -> u64 {
        self.users.iter().map(|u| u.0).sum()
    }

    /// Events `user`'s view must hold: her acknowledged writes, capped at the
    /// view capacity.
    pub fn view_len(&self, user: UserId) -> usize {
        (self.users[user.as_usize()].0).min(self.view_capacity) as usize
    }

    /// A view must belong to `owner`, have the expected length and end with
    /// the last acknowledged payload.
    pub fn check_view(&self, owner: UserId, view: &View) -> Result<(), String> {
        if view.owner() != owner {
            return Err(format!("view of {owner:?} is owned by {:?}", view.owner()));
        }
        let expected = self.view_len(owner);
        if view.len() != expected {
            return Err(format!(
                "view of {owner:?} holds {} events, expected {expected}",
                view.len()
            ));
        }
        let last = view.latest().and_then(|e| payload_seq(e.payload()));
        let expected_last = (expected > 0).then_some(self.users[owner.as_usize()].1);
        if last != expected_last {
            return Err(format!(
                "view of {owner:?} ends with payload {last:?}, expected {expected_last:?}"
            ));
        }
        Ok(())
    }

    /// A feed must hold every followee's view in full and be newest first.
    pub fn check_feed(&self, followees: &[UserId], feed: &[Event]) -> Result<(), String> {
        let expected: usize = followees.iter().map(|&f| self.view_len(f)).sum();
        if feed.len() != expected {
            return Err(format!(
                "feed holds {} events, expected {expected}",
                feed.len()
            ));
        }
        if feed.windows(2).any(|w| w[0].timestamp() < w[1].timestamp()) {
            return Err("feed is not newest first".to_string());
        }
        Ok(())
    }

    /// After a clean shutdown, the reopened data directory must hold every
    /// acknowledged write. Returns `(users checked, failures)`.
    pub fn check_read_back(&self, index: &BTreeMap<UserId, View>) -> (u64, Vec<String>) {
        let mut failures = Vec::new();
        let mut checked = 0;
        for (i, &(count, _)) in self.users.iter().enumerate() {
            if count == 0 {
                continue;
            }
            checked += 1;
            let user = UserId::new(i as u32);
            let result = match index.get(&user) {
                Some(view) => self.check_view(user, view),
                None => Err(format!("{user:?} is missing after reopen")),
            };
            failures.extend(result.err());
        }
        (checked, failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_types::SimTime;

    fn u(i: u32) -> UserId {
        UserId::new(i)
    }

    /// What the store would hold after `writes` acknowledged writes.
    fn stored_view(shadow: &mut Shadow, user: UserId, writes: u64) -> View {
        let mut view = View::new(user);
        for t in 0..writes {
            let seq = shadow.next_seq();
            view.push(Event::new(user, SimTime::from_secs(t), payload(seq)));
            shadow.acknowledge(user, seq);
        }
        view
    }

    #[test]
    fn view_length_is_capped_at_the_view_capacity() {
        let mut shadow = Shadow::new(2);
        let capacity = View::new(u(0)).capacity();
        let view = stored_view(&mut shadow, u(0), capacity as u64 + 5);
        assert_eq!(view.len(), capacity);
        assert_eq!(shadow.view_len(u(0)), capacity);
        assert_eq!(shadow.acknowledged(), capacity as u64 + 5);
        shadow.check_view(u(0), &view).unwrap();
        // A user who never wrote has an empty view.
        shadow.check_view(u(1), &View::new(u(1))).unwrap();
    }

    #[test]
    fn stale_short_and_foreign_views_fail() {
        let mut shadow = Shadow::new(2);
        let stale = stored_view(&mut shadow, u(0), 2);
        let seq = shadow.next_seq();
        shadow.acknowledge(u(0), seq);
        assert!(shadow
            .check_view(u(0), &stale)
            .unwrap_err()
            .contains("holds 2"));
        let mut wrong_last = stale.clone();
        wrong_last.push(Event::new(u(0), SimTime::from_secs(9), payload(seq + 7)));
        assert!(shadow
            .check_view(u(0), &wrong_last)
            .unwrap_err()
            .contains("ends with"));
        assert!(shadow
            .check_view(u(1), &stale)
            .unwrap_err()
            .contains("owned by"));
    }

    #[test]
    fn feed_must_be_complete_and_newest_first() {
        let mut shadow = Shadow::new(3);
        let a = stored_view(&mut shadow, u(0), 2);
        let b = stored_view(&mut shadow, u(1), 1);
        let mut feed: Vec<Event> = a.iter().chain(b.iter()).cloned().collect();
        feed.sort_by_key(|e| std::cmp::Reverse(e.timestamp()));
        shadow.check_feed(&[u(0), u(1)], &feed).unwrap();
        assert!(shadow
            .check_feed(&[u(0)], &feed)
            .unwrap_err()
            .contains("expected 2"));
        feed.reverse();
        assert!(shadow
            .check_feed(&[u(0), u(1)], &feed)
            .unwrap_err()
            .contains("newest"));
    }

    #[test]
    fn read_back_finds_missing_and_stale_users() {
        let mut shadow = Shadow::new(3);
        let a = stored_view(&mut shadow, u(0), 3);
        let b = stored_view(&mut shadow, u(2), 1);
        let mut index = BTreeMap::from([(u(0), a), (u(2), b)]);
        assert_eq!(shadow.check_read_back(&index), (2, vec![]));
        index.remove(&u(2));
        let (checked, failures) = shadow.check_read_back(&index);
        assert_eq!((checked, failures.len()), (2, 1));
        assert!(failures[0].contains("missing after reopen"));
    }
}
