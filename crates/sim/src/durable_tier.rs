//! Optional file-backed durable tier mirrored behind a simulation.
//!
//! Simulations count persistent-tier *messages* by default; attaching a
//! [`SimDurableTier`] with [`crate::Simulation::with_durable_tier`] makes
//! the recovery path read real bytes: every write request appends a
//! fixed-size, deterministically filled payload to a
//! [`ShardedLogStore`], and whenever a cluster event makes the engine
//! fetch lost views from the persistent store, the tier is synced once and
//! its files are read back end to end with [`ShardedLogStore::read_back`] —
//! so the run's [`DurableIoStats`] report the actual I/O volume a recovery
//! would move, next to the message-count estimate.

use std::path::PathBuf;

use dynasore_store::{PersistentStore, ShardedConfig, ShardedLogStore, ShardedRecoveryStats};
use dynasore_types::{Result, SimTime, UserId};

/// The payload size mirrored per simulated write: the paper's events are
/// tweet-sized (§3.2), so 140 bytes.
pub const SIM_EVENT_BYTES: usize = 140;

/// A file-backed store a [`crate::Simulation`] mirrors writes into and
/// replays on recovery. Payloads are synthesized deterministically from
/// the writing user and simulated time, keeping byte counts — and
/// therefore [`crate::SimReport`]s — reproducible across runs.
#[derive(Debug)]
pub struct SimDurableTier {
    store: ShardedLogStore,
    /// The store's root, which [`replay`](Self::replay) reads back.
    dir: PathBuf,
    /// Bytes appended per shard since open — tracked here, not read back
    /// from the store, so the per-tick lag samples the observer takes stay
    /// deterministic across runs.
    appended_bytes: Vec<u64>,
    /// Bytes covered by the last [`sync`](Self::sync), per shard.
    synced_bytes: Vec<u64>,
}

impl SimDurableTier {
    /// Opens (or creates) a `shards`-shard backing store in `dir`, with the
    /// background flusher off: a wall-clock flusher would commit batches at
    /// timing-dependent points, splitting the same appends into different
    /// frame counts across runs and breaking the byte-determinism the
    /// simulator's reports rely on. Batches commit only when they fill or
    /// when the simulation syncs — both deterministic.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ShardedLogStore::open`].
    pub fn open(dir: impl Into<PathBuf>, shards: usize) -> Result<Self> {
        let dir = dir.into();
        let config = ShardedConfig {
            shards,
            flush_interval: None,
        };
        Ok(SimDurableTier {
            store: ShardedLogStore::open(&dir, config)?,
            dir,
            appended_bytes: vec![0; shards],
            synced_bytes: vec![0; shards],
        })
    }

    /// Mirrors one acknowledged write request into the tier.
    pub(crate) fn append(&mut self, user: UserId, time: SimTime) -> Result<()> {
        let fill = (user.index() as u8).wrapping_add(time.as_secs() as u8);
        self.store
            .append_version(user, vec![fill; SIM_EVENT_BYTES])?;
        self.appended_bytes[self.store.shard_index_of(user)] += SIM_EVENT_BYTES as u64;
        Ok(())
    }

    /// Crash boundary: everything appended so far becomes durable.
    pub(crate) fn sync(&mut self) -> Result<()> {
        self.store.sync()?;
        self.synced_bytes.copy_from_slice(&self.appended_bytes);
        Ok(())
    }

    /// Reads every shard file back, exactly as crash recovery would,
    /// without syncing: the caller syncs first, so the files hold every
    /// append. The shards replay independently, so the recovery critical
    /// path is the largest shard, not the total.
    pub(crate) fn replay(&self) -> Result<ShardedRecoveryStats> {
        Ok(ShardedLogStore::read_back(&self.dir)?.1)
    }

    /// Per-shard flusher lag — bytes appended but not yet made durable —
    /// in shard order, sampled by the observer's tick.
    pub(crate) fn shard_lags(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.appended_bytes
            .iter()
            .zip(&self.synced_bytes)
            .map(|(&a, &s)| a.saturating_sub(s))
    }
}

/// Durable-tier I/O of one simulation run. Present in a
/// [`crate::SimReport`] only when a [`SimDurableTier`] was attached; `None`
/// keeps default runs byte-identical to tier-less ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableIoStats {
    /// Write requests mirrored into the tier.
    pub appends: u64,
    /// Recovery replays performed (one per cluster event that generated
    /// persistent-tier traffic).
    pub replays: u64,
    /// Total bytes re-read from the tier across all replays.
    pub bytes_replayed: u64,
    /// Critical-path bytes across all replays: the sum over replays of the
    /// largest shard's bytes. Shards replay concurrently on reopen, so this
    /// — not `bytes_replayed` — bounds recovery wall-clock for a sharded
    /// tier. Equal to `bytes_replayed` when the tier has one shard.
    pub critical_path_bytes: u64,
    /// Shards of the attached tier (0 when no replay happened, 1 for an
    /// unsharded tier).
    pub tier_shards: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the same appends twice, each in a fresh directory, over a tier of
    /// `shards` shards, and checks the lags, the replay and that both runs
    /// replay identical bytes.
    fn check_deterministic_replay(shards: usize) {
        let base =
            std::env::temp_dir().join(format!("dynasore-simtier-{shards}-{}", std::process::id()));
        let run = |dir: &std::path::Path| {
            let _ = std::fs::remove_dir_all(dir);
            let mut tier = SimDurableTier::open(dir, shards).unwrap();
            for i in 0..40u32 {
                tier.append(UserId::new(i % 10), SimTime::from_secs(i as u64))
                    .unwrap();
            }
            assert_eq!(tier.shard_lags().len(), shards, "one lag per shard");
            assert_eq!(tier.shard_lags().sum::<u64>(), 40 * SIM_EVENT_BYTES as u64);
            tier.sync().unwrap();
            assert!(tier.shard_lags().all(|lag| lag == 0));
            let replay = tier.replay().unwrap();
            assert_eq!(replay.total.bytes_replayed, tier.store.bytes_on_disk());
            assert_eq!(tier.store.user_count(), 10);
            for (shard, appended) in replay.per_shard.iter().zip(&tier.appended_bytes) {
                assert_eq!(
                    shard.records_replayed,
                    u64::from(*appended > 0),
                    "the sync committed each shard's appends as one batch frame"
                );
            }
            replay
        };
        let a = run(&base);
        let b = run(&base.with_extension("b"));
        assert_eq!(a, b, "{shards}-shard tier must be byte-deterministic");
        assert_eq!(a.per_shard.len(), shards);
        assert!(a.max_shard_bytes_replayed() > 0);
        assert!(a.max_shard_bytes_replayed() <= a.total.bytes_replayed);
        if shards == 1 {
            assert_eq!(a.max_shard_bytes_replayed(), a.total.bytes_replayed);
        }
        std::fs::remove_dir_all(&base).unwrap();
        std::fs::remove_dir_all(base.with_extension("b")).unwrap();
    }

    #[test]
    fn appends_are_deterministic_and_replay_reads_bytes() {
        check_deterministic_replay(1);
    }

    #[test]
    fn sharded_tier_is_deterministic_and_reports_the_critical_path() {
        check_deterministic_replay(4);
    }

    /// A replay reads the files as the last sync left them and commits or
    /// fsyncs nothing itself, so a recovery costs the simulator one sync.
    #[test]
    fn replay_neither_commits_nor_syncs() {
        let dir =
            std::env::temp_dir().join(format!("dynasore-simtier-nosync-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut tier = SimDurableTier::open(&dir, 2).unwrap();
        tier.append(UserId::new(1), SimTime::ZERO).unwrap();
        tier.sync().unwrap();
        tier.append(UserId::new(2), SimTime::from_secs(1)).unwrap();
        let replay = tier.replay().unwrap();
        assert_eq!(
            replay.total.records_replayed, 1,
            "the unsynced append stays pending"
        );
        assert_eq!(tier.store.pending_records(), 1);
        assert_eq!(tier.shard_lags().sum::<u64>(), SIM_EVENT_BYTES as u64);
        drop(tier);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
