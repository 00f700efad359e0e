//! File-backed [`DurableTier`] for simulations.
//!
//! Bridges the simulator's optional durable-tier hook
//! ([`dynasore_sim::Simulation::with_durable_tier`]) to the file-backed
//! store: every simulated write request appends a fixed-size,
//! deterministically filled payload to the on-disk log, and each recovery
//! replays the log from real bytes. The backend is a [`ShardedLogStore`]
//! whose per-shard replay stats feed the report's parallel-recovery critical
//! path.

use dynasore_sim::{DurableTier, TierReplay};
use dynasore_types::{Result, SimTime, UserId};

use crate::sharded::{ShardedConfig, ShardedLogStore};

/// The payload size mirrored per simulated write: the paper's events are
/// tweet-sized (§3.2), so 140 bytes.
pub const SIM_EVENT_BYTES: usize = 140;

/// A file-backed store driven by a simulation through the [`DurableTier`]
/// hook. Payloads are synthesized deterministically from the writing user
/// and simulated time, keeping byte counts — and therefore
/// [`dynasore_sim::SimReport`]s — reproducible across runs.
#[derive(Debug)]
pub struct SimDurableTier {
    store: ShardedLogStore,
    /// Bytes appended per shard since open — tracked here, not read back
    /// from the store, so the per-tick lag samples the observer takes stay
    /// deterministic across runs.
    appended_bytes: Vec<u64>,
    /// Bytes covered by the last [`sync`](DurableTier::sync), per shard.
    synced_bytes: Vec<u64>,
}

impl SimDurableTier {
    /// Opens (or creates) the backing store in `dir`. The
    /// [`flush_interval`](ShardedConfig::flush_interval) is forced to
    /// `None`: a wall-clock flusher would commit batches at
    /// timing-dependent points, splitting the same appends into different
    /// frame counts across runs and breaking the byte-determinism the
    /// simulator's reports rely on. Batches commit only when they fill or
    /// when the simulation syncs — both deterministic.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ShardedLogStore::open`].
    pub fn open(dir: impl Into<std::path::PathBuf>, config: ShardedConfig) -> Result<Self> {
        let config = ShardedConfig {
            flush_interval: None,
            ..config
        };
        let store = ShardedLogStore::open(dir, config)?;
        let shards = store.shard_count();
        Ok(SimDurableTier {
            store,
            appended_bytes: vec![0; shards],
            synced_bytes: vec![0; shards],
        })
    }

    /// The backing store (for inspection: bytes on disk, segment count,
    /// recovery stats…).
    pub fn store(&self) -> &ShardedLogStore {
        &self.store
    }
}

impl DurableTier for SimDurableTier {
    fn append(&mut self, user: UserId, time: SimTime) -> Result<()> {
        let fill = (user.index() as u8).wrapping_add(time.as_secs() as u8);
        self.store
            .append_version(user, vec![fill; SIM_EVENT_BYTES])?;
        self.appended_bytes[self.store.shard_index_of(user)] += SIM_EVENT_BYTES as u64;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.store.sync()?;
        self.synced_bytes.copy_from_slice(&self.appended_bytes);
        Ok(())
    }

    fn shard_lags(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(
            self.appended_bytes
                .iter()
                .zip(self.synced_bytes.iter())
                .map(|(&a, &s)| a.saturating_sub(s)),
        );
    }

    fn replay(&mut self) -> Result<TierReplay> {
        // reread() commits and syncs before replaying, so afterwards no
        // appended byte is unsynced.
        self.synced_bytes.copy_from_slice(&self.appended_bytes);
        let stats = self.store.reread()?;
        Ok(TierReplay {
            bytes_replayed: stats.total.bytes_replayed,
            shards: stats.per_shard.len(),
            max_shard_bytes: stats.max_shard_bytes_replayed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_shard() -> ShardedConfig {
        ShardedConfig {
            shards: 1,
            ..ShardedConfig::default()
        }
    }

    #[test]
    fn appends_are_deterministic_and_replay_reads_bytes() {
        let dir = std::env::temp_dir().join(format!("dynasore-simtier-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut tier = SimDurableTier::open(&dir, one_shard()).unwrap();
        for i in 0..20u32 {
            tier.append(UserId::new(i % 4), SimTime::from_secs(i as u64))
                .unwrap();
        }
        tier.sync().unwrap();
        let replay = tier.replay().unwrap();
        assert_eq!(replay.bytes_replayed, tier.store().bytes_on_disk());
        assert_eq!(replay.shards, 1);
        assert_eq!(replay.max_shard_bytes, replay.bytes_replayed);
        assert_eq!(
            tier.store().recovery_stats().total.records_replayed,
            1,
            "the sync committed all 20 appends as one batch frame"
        );
        assert_eq!(tier.store().user_count(), 4);
        // Same call sequence in a fresh directory → identical bytes.
        let dir2 = dir.with_extension("b");
        let _ = std::fs::remove_dir_all(&dir2);
        let mut tier2 = SimDurableTier::open(&dir2, one_shard()).unwrap();
        for i in 0..20u32 {
            tier2
                .append(UserId::new(i % 4), SimTime::from_secs(i as u64))
                .unwrap();
        }
        tier2.sync().unwrap();
        assert_eq!(tier2.replay().unwrap(), replay);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn sharded_tier_is_deterministic_and_reports_the_critical_path() {
        let base =
            std::env::temp_dir().join(format!("dynasore-simtier-sharded-{}", std::process::id()));
        let run = |dir: &std::path::Path| {
            let _ = std::fs::remove_dir_all(dir);
            let mut tier = SimDurableTier::open(
                dir,
                ShardedConfig {
                    shards: 4,
                    ..ShardedConfig::default()
                },
            )
            .unwrap();
            for i in 0..40u32 {
                tier.append(UserId::new(i % 10), SimTime::from_secs(i as u64))
                    .unwrap();
            }
            tier.sync().unwrap();
            tier.replay().unwrap()
        };
        let a = run(&base);
        let b = run(&base.with_extension("b"));
        assert_eq!(a, b, "sharded tier must be byte-deterministic");
        assert_eq!(a.shards, 4);
        assert!(a.max_shard_bytes <= a.bytes_replayed);
        assert!(a.max_shard_bytes > 0);
        std::fs::remove_dir_all(&base).unwrap();
        std::fs::remove_dir_all(base.with_extension("b")).unwrap();
    }
}
