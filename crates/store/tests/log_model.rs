//! A model check of the file tier's reads: random interleavings of
//! `append`, `append_version`, `flush`, `sync` and reopen, over one shard
//! and over four, against plain [`View`]s pushed the same events.
//!
//! The store keeps only where each view's entries lie in its log and reads
//! a view back on every fetch — from the pending batch's buffer or from the
//! file — so after every step the fetched view must equal the model's,
//! version included, and after a reopen also what `read_back` replays.
//! Users pass the 128 events a view holds, and some payloads come close to
//! the 1 MiB batch budget, which commits their batch on the spot. The
//! background flusher is off, so only the steps commit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use dynasore_store::{PersistentStore, ShardedConfig, ShardedLogStore};
use dynasore_types::{Event, SimTime, UserId, View};
use proptest::prelude::*;

/// Users the steps write to; user 0 takes most of the appends, so it
/// passes the 128 events its view holds.
const USERS: u32 = 4;

/// A payload just under the store's 1 MiB batch budget (`MAX_BATCH_BYTES`):
/// its batch commits once a few small entries join it.
const NEAR_BUDGET: usize = (1 << 20) - 64;

fn temp_dir() -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dynasore-log-model-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The store's views as plain pushes: each shard stamps its events from its
/// own clock, which a reopen recovers as one past the newest replayed.
struct Model {
    views: Vec<View>,
    clocks: Vec<u64>,
}

impl Model {
    fn new(shards: usize) -> Model {
        Model {
            views: (0..USERS).map(|u| View::new(UserId::new(u))).collect(),
            clocks: vec![0; shards],
        }
    }

    fn push(&mut self, store: &ShardedLogStore, user: UserId, payload: Vec<u8>) -> &View {
        let clock = &mut self.clocks[store.shard_index_of(user)];
        let event = Event::new(user, SimTime::from_secs(*clock), payload);
        *clock += 1;
        let view = &mut self.views[user.index() as usize];
        view.push(event);
        view
    }
}

/// `fetch` of every user equals the model.
fn every_fetch_matches(store: &ShardedLogStore, model: &Model) -> Result<(), TestCaseError> {
    for view in &model.views {
        prop_assert_eq!(&store.fetch(view.owner()).unwrap(), view);
    }
    Ok(())
}

/// Runs the steps `ops` decodes on a fresh `shards`-shard store.
fn run(shards: usize, ops: &[((u32, u32), u32)]) -> Result<(), TestCaseError> {
    let dir = temp_dir();
    let config = ShardedConfig {
        shards,
        flush_interval: None,
    };
    let mut store = ShardedLogStore::open(&dir, config).unwrap();
    let mut model = Model::new(shards);
    for (step, &((kind, who), size)) in ops.iter().enumerate() {
        let user = UserId::new(if who < 6 { 0 } else { who % USERS });
        let len = if size == 0 {
            NEAR_BUDGET
        } else {
            size as usize % 120
        };
        let payload = vec![step as u8; len];
        match kind {
            0..45 => {
                let view = store.append(user, payload.clone()).unwrap();
                prop_assert_eq!(
                    &view,
                    model.push(&store, user, payload),
                    "append, step {}",
                    step
                );
            }
            45..85 => {
                let version = store.append_version(user, payload.clone()).unwrap();
                let view = model.push(&store, user, payload);
                prop_assert_eq!(version, view.version(), "append_version, step {}", step);
            }
            85..92 => store.flush().unwrap(),
            92..97 => store.sync().unwrap(),
            _ => {
                drop(store);
                store = ShardedLogStore::open(&dir, config).unwrap();
                let (index, _) = ShardedLogStore::read_back(&dir).unwrap();
                for view in &model.views {
                    let replayed = index.get(&view.owner()).cloned();
                    let replayed = replayed.unwrap_or_else(|| View::new(view.owner()));
                    prop_assert_eq!(&replayed, view, "read_back after reopen, step {}", step);
                }
                every_fetch_matches(&store, &model)?;
                continue;
            }
        }
        let fetched = store.fetch(user).unwrap();
        prop_assert_eq!(
            &fetched,
            &model.views[user.index() as usize],
            "fetch, step {}",
            step
        );
        if kind >= 85 {
            every_fetch_matches(&store, &model)?;
        }
    }
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every step's view, read back from the log, is the model's.
    #[test]
    fn fetch_reads_back_the_view_the_model_pushed(
        ops in proptest::collection::vec(((0u32..100, 0u32..10), 0u32..240), 1..400),
    ) {
        for shards in [1, 4] {
            run(shards, &ops)?;
        }
    }
}
