//! Tiering policy.
//!
//! Production MonSTer keeps 13+ months of data queryable, and so does this
//! store: nothing ages data out. A shard has one lifecycle, hot → cold.
//! [`TierConfig`] describes when sealed shards migrate to a slower, cheaper
//! device (§IV's 13-month deployment keeps recent data on SSD and archives
//! the long tail). Nothing is downsampled: every window is aggregated from
//! the raw points when it is asked for. The actual migration lives in
//! [`crate::db::Db::tier_cold_shards`]; this module only defines the policy
//! and its report.

use monster_sim::DiskModel;

/// The archive device cold shards are priced against: the paper's HDD
/// model (§IV's deployment archives the long tail to it).
pub(crate) const COLD_DISK: DiskModel = DiskModel::HDD;

/// Tiering policy: shards older than `hot_secs` are compacted
/// into immutable segment files and re-priced with `COLD_DISK`.
///
/// Tiering is a *pricing and durability* migration, not an eviction: the
/// data stays queryable in place, but scans over tiered shards are costed
/// against `COLD_DISK` (the archive device) instead of the hot
/// [`crate::db::DbConfig::disk`] model, and the shard's contents become an
/// immutable on-disk segment so the WAL bytes covering them can be
/// reclaimed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierConfig {
    /// Age threshold in seconds: shards whose time range ends before
    /// `now - hot_secs` (rounded down to a shard boundary) are cold.
    pub hot_secs: i64,
}

impl TierConfig {
    /// Keep `days` days hot; archive the rest.
    pub fn days(days: i64) -> Self {
        assert!(days > 0);
        TierConfig { hot_secs: days * 86_400 }
    }
}

/// What one [`crate::db::Db::tier_cold_shards`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierReport {
    /// Shards newly migrated to the cold tier this pass.
    pub shards_tiered: usize,
    /// Points contained in those shards.
    pub points_tiered: usize,
    /// Total bytes of segment files written this pass.
    pub segment_bytes_written: u64,
    /// WAL segments reclaimed after the migration.
    pub wal_segments_reclaimed: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aggregation, DataPoint, Db, DbConfig, Query};
    use monster_util::EpochSecs;

    #[test]
    fn tiering_reprices_cold_shards_without_changing_answers() {
        let db = Db::new(DbConfig {
            shard_duration: 86_400,
            disk: DiskModel::SSD,
            tiering: Some(TierConfig { hot_secs: 2 * 86_400 }),
            ..DbConfig::default()
        });
        let mut batch = Vec::new();
        for i in 0..(5 * 1440) {
            batch.push(
                DataPoint::new("Power", EpochSecs::new(i * 60))
                    .tag("NodeId", "10.101.1.1")
                    .field_f64("Reading", 200.0 + (i % 100) as f64),
            );
        }
        db.write_batch(&batch).unwrap();
        let whole =
            Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(5 * 86_400))
                .aggregate(Aggregation::Mean)
                .group_by_time(3600);
        let (before, _) = db.query(&whole).unwrap();

        // Day 5, keep 2 days hot: days 1-3 go cold. No WAL → re-price
        // only, no segment files.
        let report = db.tier_cold_shards(EpochSecs::new(5 * 86_400)).unwrap();
        assert_eq!(report.shards_tiered, 3);
        assert_eq!(report.points_tiered, 3 * 1440);
        assert_eq!(report.segment_bytes_written, 0);
        assert_eq!(report.wal_segments_reclaimed, 0);
        // Idempotent.
        assert_eq!(db.tier_cold_shards(EpochSecs::new(5 * 86_400)).unwrap().shards_tiered, 0);

        // Answers are unchanged; only the price moved.
        let (after, cost) = db.query(&whole).unwrap();
        assert_eq!(before, after);
        assert!(cost.bytes_cold > 0 && cost.bytes_cold < cost.bytes, "{cost:?}");
        assert!(cost.blocks_cold > 0 && cost.blocks_cold < cost.blocks, "{cost:?}");
        // A fully-hot query reads no cold bytes; a fully-cold one reads
        // nothing but.
        let hot_q = Query::select(
            "Power",
            "Reading",
            EpochSecs::new(4 * 86_400),
            EpochSecs::new(5 * 86_400),
        );
        let (_, hot_cost) = db.query(&hot_q).unwrap();
        assert_eq!((hot_cost.bytes_cold, hot_cost.blocks_cold), (0, 0));
        let cold_q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(86_400));
        let (_, cold_cost) = db.query(&cold_q).unwrap();
        assert_eq!(cold_cost.bytes_cold, cold_cost.bytes);
        assert_eq!(cold_cost.blocks_cold, cold_cost.blocks);
        // HDD-priced history costs more simulated time than the same work
        // would on the hot SSD tier.
        let rehot = crate::QueryCost { bytes_cold: 0, blocks_cold: 0, ..cold_cost };
        assert!(db.simulate_elapsed(&cold_cost) > db.simulate_elapsed(&rehot));
    }
}
