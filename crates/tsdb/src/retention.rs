//! Retention enforcement and continuous downsampling.
//!
//! §III-C: "InfluxDB contains a variety of features that can be used to
//! calculate aggregation, roll-ups, downsampling, etc." — production
//! MonSTer relies on them to keep 13+ months of data queryable. This
//! module provides [`ContinuousQuery`], which periodically rolls a raw
//! measurement up into a downsampled one (e.g. `Power` → `Power_1h`), so
//! long-horizon queries read orders of magnitude fewer points. Retention
//! itself is [`Db::drop_shards_before`], which drops whole shards older
//! than a horizon.
//!
//! Between "hot" and "dropped" sits a third tier: [`TierConfig`] describes
//! when sealed shards migrate to a slower, cheaper device (§IV's 13-month
//! deployment keeps recent data on SSD and archives the long tail). The
//! actual migration lives in [`crate::db::Db::tier_cold_shards`]; this
//! module only defines the policy and its report.

use crate::db::Db;
use crate::point::DataPoint;
use crate::query::{Aggregation, Query};
use monster_sim::DiskModel;
use monster_util::{EpochSecs, Error, Result};

/// Tiered-retention policy: shards older than `hot_secs` are compacted
/// into immutable segment files and re-priced with `cold_disk`.
///
/// Tiering is a *pricing and durability* migration, not an eviction: the
/// data stays queryable in place, but scans over tiered shards are costed
/// against `cold_disk` (the archive device) instead of the hot
/// [`crate::db::DbConfig::disk`] model, and the shard's contents become an
/// immutable on-disk segment so the WAL bytes covering them can be
/// reclaimed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierConfig {
    /// Age threshold in seconds: shards whose time range ends before
    /// `now - hot_secs` (rounded down to a shard boundary) are cold.
    pub hot_secs: i64,
    /// Device model pricing scans over cold shards.
    pub cold_disk: DiskModel,
}

impl TierConfig {
    /// Keep `days` days hot; archive the rest to the paper's HDD model.
    pub fn days(days: i64) -> Self {
        assert!(days > 0);
        TierConfig { hot_secs: days * 86_400, cold_disk: DiskModel::HDD }
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

/// A continuous query: every `every_secs` of data time, aggregate
/// `source.field` into `target` with windows of `window_secs`.
#[derive(Debug, Clone, PartialEq)]
pub struct ContinuousQuery {
    /// Source measurement.
    pub source: String,
    /// Field to aggregate.
    pub field: String,
    /// Destination measurement (e.g. `"Power_1h"`).
    pub target: String,
    /// Aggregation function.
    pub agg: Aggregation,
    /// Downsampling window in seconds.
    pub window_secs: i64,
    /// High-water mark: everything before this has been rolled up.
    watermark: EpochSecs,
}

impl ContinuousQuery {
    /// Define a continuous query starting from `start`.
    pub fn new(
        source: impl Into<String>,
        field: impl Into<String>,
        target: impl Into<String>,
        agg: Aggregation,
        window_secs: i64,
        start: EpochSecs,
    ) -> Result<Self> {
        if window_secs <= 0 {
            return Err(Error::invalid("continuous query window must be positive"));
        }
        let source = source.into();
        let target = target.into();
        if source == target {
            return Err(Error::invalid("continuous query cannot write to its source"));
        }
        Ok(ContinuousQuery {
            source,
            field: field.into(),
            target,
            agg,
            window_secs,
            watermark: EpochSecs::new(start.as_secs().div_euclid(window_secs) * window_secs),
        })
    }

    /// Everything before this point has been rolled up.
    pub fn watermark(&self) -> EpochSecs {
        self.watermark
    }

    /// Roll up all *complete* windows between the watermark and `now`.
    /// Returns the number of downsampled points written.
    pub fn run(&mut self, db: &Db, now: EpochSecs) -> Result<usize> {
        let horizon = EpochSecs::new(now.as_secs().div_euclid(self.window_secs) * self.window_secs);
        if horizon <= self.watermark {
            return Ok(0);
        }
        let q = Query::select(&self.source, &self.field, self.watermark, horizon)
            .aggregate(self.agg)
            .group_by_time(self.window_secs);
        let (rs, _) = db.query(&q)?;
        let mut batch: Vec<DataPoint> = Vec::new();
        for series in &rs.series {
            for (t, v) in &series.points {
                let mut p = DataPoint::new(&self.target, *t);
                // Preserve the source tags so downsampled data stays
                // addressable per node/label.
                for (k, val) in &series.key.tags {
                    p = p.tag(k, val);
                }
                batch.push(p.field("Reading", v.clone()));
            }
        }
        let written = batch.len();
        db.write_batch(&batch)?;
        self.watermark = horizon;
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DbConfig, FieldValue};

    fn seeded(days: i64) -> Db {
        let db = Db::new(DbConfig { shard_duration: 86_400, ..DbConfig::default() });
        let mut batch = Vec::new();
        for i in 0..(days * 1440) {
            batch.push(
                DataPoint::new("Power", EpochSecs::new(i * 60))
                    .tag("NodeId", "10.101.1.1")
                    .tag("Label", "NodePower")
                    .field_f64("Reading", 200.0 + (i % 100) as f64),
            );
        }
        db.write_batch(&batch).unwrap();
        db
    }

    #[test]
    fn retention_drops_old_shards() {
        let db = seeded(5);
        assert_eq!(db.stats().shards, 5);
        // Keep two days before day 5.
        let dropped = db.drop_shards_before(EpochSecs::new(3 * 86_400));
        assert_eq!(dropped, 3);
        assert_eq!(db.stats().shards, 2);
        // Old data gone, recent data intact.
        let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(86_400))
            .aggregate(Aggregation::Count);
        let (rs, _) = db.query(&q).unwrap();
        assert_eq!(rs.point_count(), 0);
        let q = Query::select(
            "Power",
            "Reading",
            EpochSecs::new(4 * 86_400),
            EpochSecs::new(5 * 86_400),
        )
        .aggregate(Aggregation::Count);
        let (rs, _) = db.query(&q).unwrap();
        assert_eq!(rs.series[0].points[0].1, FieldValue::Float(1440.0));
    }

    #[test]
    fn retention_is_idempotent() {
        let db = seeded(3);
        // Keep one day before day 3.
        let horizon = EpochSecs::new(2 * 86_400);
        assert_eq!(db.drop_shards_before(horizon), 2);
        assert_eq!(db.drop_shards_before(horizon), 0);
    }

    #[test]
    fn tiering_reprices_cold_shards_without_changing_answers() {
        let db = Db::new(DbConfig {
            shard_duration: 86_400,
            disk: DiskModel::SSD,
            tiering: Some(TierConfig { hot_secs: 2 * 86_400, cold_disk: DiskModel::HDD }),
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

    #[test]
    fn continuous_query_rolls_up_complete_windows() {
        let db = seeded(1);
        let mut cq = ContinuousQuery::new(
            "Power",
            "Reading",
            "Power_1h",
            Aggregation::Max,
            3600,
            EpochSecs::new(0),
        )
        .unwrap();
        // 6.5 hours in: only 6 complete hourly windows roll up.
        let written = cq.run(&db, EpochSecs::new(6 * 3600 + 1800)).unwrap();
        assert_eq!(written, 6);
        assert_eq!(cq.watermark(), EpochSecs::new(6 * 3600));
        // Rolled-up values queryable under the target measurement, with
        // tags preserved.
        let q = Query::select("Power_1h", "Reading", EpochSecs::new(0), EpochSecs::new(86_400))
            .where_tag("NodeId", "10.101.1.1");
        let (rs, _) = db.query(&q).unwrap();
        assert_eq!(rs.point_count(), 6);
        // Hourly max of the sawtooth 200..299 is 299 once the ramp completes.
        let max_val =
            rs.series[0].points.iter().filter_map(|(_, v)| v.as_f64()).fold(f64::MIN, f64::max);
        assert_eq!(max_val, 299.0);
    }

    #[test]
    fn continuous_query_is_incremental() {
        let db = seeded(1);
        let mut cq = ContinuousQuery::new(
            "Power",
            "Reading",
            "Power_1h",
            Aggregation::Mean,
            3600,
            EpochSecs::new(0),
        )
        .unwrap();
        assert_eq!(cq.run(&db, EpochSecs::new(2 * 3600)).unwrap(), 2);
        // No new complete window: no work.
        assert_eq!(cq.run(&db, EpochSecs::new(2 * 3600 + 600)).unwrap(), 0);
        assert_eq!(cq.run(&db, EpochSecs::new(4 * 3600)).unwrap(), 2);
        let q = Query::select("Power_1h", "Reading", EpochSecs::new(0), EpochSecs::new(86_400));
        let (rs, _) = db.query(&q).unwrap();
        assert_eq!(rs.point_count(), 4);
    }

    #[test]
    fn downsampled_queries_cost_less() {
        let db = seeded(2);
        let mut cq = ContinuousQuery::new(
            "Power",
            "Reading",
            "Power_1h",
            Aggregation::Max,
            3600,
            EpochSecs::new(0),
        )
        .unwrap();
        cq.run(&db, EpochSecs::new(2 * 86_400)).unwrap();
        let raw = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(2 * 86_400))
            .aggregate(Aggregation::Max)
            .group_by_time(3600);
        let rolled =
            Query::select("Power_1h", "Reading", EpochSecs::new(0), EpochSecs::new(2 * 86_400))
                .aggregate(Aggregation::Max)
                .group_by_time(3600);
        let (rs_raw, cost_raw) = db.query(&raw).unwrap();
        let (rs_rolled, cost_rolled) = db.query(&rolled).unwrap();
        // Same answers...
        assert_eq!(rs_raw.series[0].points, rs_rolled.series[0].points);
        // ...from far fewer points.
        assert!(cost_rolled.points * 10 < cost_raw.points);
    }

    #[test]
    fn invalid_definitions_rejected() {
        assert!(
            ContinuousQuery::new("A", "f", "A", Aggregation::Max, 60, EpochSecs::new(0)).is_err()
        );
        assert!(
            ContinuousQuery::new("A", "f", "B", Aggregation::Max, 0, EpochSecs::new(0)).is_err()
        );
    }
}
