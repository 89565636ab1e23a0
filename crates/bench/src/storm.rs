//! The dashboard-storm workload mix, shared between benches.
//!
//! `dashboard_storm` (serving-layer scan reduction + byte identity) and
//! `query_observe` (flight-recorder overhead + estimator accuracy) must
//! measure the **same** request mix or their numbers don't compose: the
//! recorder-overhead gate is only meaningful against the storm the
//! serving bench established as the operational baseline. This module
//! holds that mix: the panel catalog, the deterministic subscriber
//! fleet, the sample generator that seeds and advances the db, and the
//! admission thresholds derived from it.

use monster_builder::{build_plan, estimate_plan_cost, AdmissionConfig, BuilderRequest};
use monster_tsdb::{Aggregation, DataPoint, Db, DbConfig};
use monster_util::{EpochSecs, NodeId};
use std::sync::Arc;

/// Fleet size of the storm fixture (chassis slots of 4).
pub const NODES: usize = 4;
/// Seeded history before the storm starts.
pub const HISTORY_SECS: i64 = 4 * 3600;
/// Sample cadence, seed and live.
pub const CADENCE_SECS: i64 = 10;
/// One dashboard tick: writes land, then subscribers fire.
pub const TICK_SECS: i64 = 60;
/// Concurrent dispatchers in the storm pool.
pub const STORM_WORKERS: usize = 8;

/// One dashboard panel. Sliding panels end at the current tick (their
/// URL changes every tick, so subscribers of the same panel share one
/// cache entry per tick); fixed panels are closed historical windows
/// whose URL never changes — under watermark validity they stay cached
/// across every tick's writes.
#[derive(Clone, Copy)]
pub struct Panel {
    pub window_secs: i64,
    pub interval: &'static str,
    pub aggregation: &'static str,
    /// `None` → sliding (end = now); `Some(end)` → fixed historical.
    pub fixed_end: Option<i64>,
}

/// The 16-panel catalog: 12 sliding windows crossed over window size,
/// interval, and aggregation, plus 4 closed historical windows fully
/// inside the seeded history.
pub fn catalog() -> Vec<Panel> {
    let mut panels = Vec::new();
    for window_secs in [300, 900, 1800] {
        for interval in ["1m", "5m"] {
            for aggregation in ["max", "mean"] {
                panels.push(Panel { window_secs, interval, aggregation, fixed_end: None });
            }
        }
    }
    panels.push(Panel {
        window_secs: 1800,
        interval: "5m",
        aggregation: "max",
        fixed_end: Some(1800),
    });
    panels.push(Panel {
        window_secs: 1800,
        interval: "1m",
        aggregation: "mean",
        fixed_end: Some(3600),
    });
    panels.push(Panel {
        window_secs: 900,
        interval: "5m",
        aggregation: "max",
        fixed_end: Some(7200),
    });
    panels.push(Panel {
        window_secs: 1800,
        interval: "5m",
        aggregation: "mean",
        fixed_end: Some(10800),
    });
    panels
}

impl Panel {
    pub fn range(&self, now: i64) -> (i64, i64) {
        let end = self.fixed_end.unwrap_or(now);
        (end - self.window_secs, end)
    }

    pub fn url(&self, now: i64) -> String {
        let (start, end) = self.range(now);
        format!(
            "/v1/metrics?start={}&end={}&interval={}&aggregation={}",
            rfc3339(start),
            rfc3339(end),
            self.interval,
            self.aggregation
        )
    }

    pub fn request(&self, now: i64) -> BuilderRequest {
        let (start, end) = self.range(now);
        let agg = if self.aggregation == "max" { Aggregation::Max } else { Aggregation::Mean };
        let interval = if self.interval == "1m" { 60 } else { 300 };
        BuilderRequest::new(EpochSecs::new(start), EpochSecs::new(end), interval, agg).unwrap()
    }
}

/// `1970-01-01T..Z` for epoch seconds < 86 400.
pub fn rfc3339(ts: i64) -> String {
    format!("1970-01-01T{:02}:{:02}:{:02}Z", ts / 3600, (ts % 3600) / 60, ts % 60)
}

/// SplitMix64: all per-subscriber attributes derive from this, so the
/// fleet is deterministic without a rand dependency in the hot loop.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub struct Subscriber {
    pub panel: usize,
    pub refresh_secs: i64,
    pub phase: i64,
}

/// Derive subscriber `id`'s panel, refresh cadence, and phase.
pub fn subscriber(id: u64, panels: usize) -> Subscriber {
    let h = splitmix(id);
    // Square the unit hash to skew panel popularity: a few panels take
    // most of the fleet, the tail stays warm — the dashboard reality.
    let unit = (h % 10_000) as f64 / 10_000.0;
    let panel = ((unit * unit) * panels as f64) as usize;
    let refresh_secs = [30, 45, 60][(h >> 17) as usize % 3];
    Subscriber { panel: panel.min(panels - 1), refresh_secs, phase: (h >> 33) as i64 }
}

impl Subscriber {
    /// Open-loop arrivals: how many refreshes land in [t0, t0 + TICK).
    pub fn due(&self, t0: i64) -> usize {
        let fires = |t: i64| (t + self.phase % self.refresh_secs) / self.refresh_secs;
        (fires(t0 + TICK_SECS) - fires(t0)) as usize
    }
}

/// Power/Thermal×2/UGE samples for every node at the storm cadence over
/// `[from, to)` — the seed batch and the per-tick live batch alike.
pub fn sample_batch(nodes: &[NodeId], from: i64, to: i64) -> Vec<DataPoint> {
    let mut batch = Vec::new();
    let mut ts = from;
    while ts < to {
        for (i, n) in nodes.iter().enumerate() {
            let v = 250.0 + ((ts + i as i64 * 13) % 359) as f64 * 0.25;
            batch.push(
                DataPoint::new("Power", EpochSecs::new(ts))
                    .tag("NodeId", n.bmc_addr())
                    .tag("Label", "NodePower")
                    .field_f64("Reading", v),
            );
            for label in ["CPU1 Temp", "CPU2 Temp"] {
                batch.push(
                    DataPoint::new("Thermal", EpochSecs::new(ts))
                        .tag("NodeId", n.bmc_addr())
                        .tag("Label", label)
                        .field_f64("Reading", 40.0 + (v % 17.0)),
                );
            }
            batch.push(
                DataPoint::new("UGE", EpochSecs::new(ts))
                    .tag("NodeId", n.bmc_addr())
                    .field_f64("CPUUsage", v % 36.0)
                    .field_f64("MemUsed", v % 128.0),
            );
        }
        ts += CADENCE_SECS;
    }
    batch
}

/// A db holding the storm's history, compacted, and the points that took.
/// 15-minute shards: at a 10 s cadence that is the shard sizing a real
/// deployment would pick, and it lets the cost model see the difference
/// between a 30-minute panel and a full-history scan.
pub fn seeded_db(nodes: &[NodeId]) -> (Arc<Db>, usize) {
    let config = DbConfig { shard_duration: 900, ..DbConfig::default() };
    let db = Arc::new(Db::new_in(config, &Arc::default()));
    let mut seeded = 0usize;
    for hour in 0..(HISTORY_SECS / 3600) {
        let batch = sample_batch(nodes, hour * 3600, (hour + 1) * 3600);
        seeded += batch.len();
        db.write_batch(&batch).unwrap();
    }
    db.compact();
    (db, seeded)
}

/// Admission thresholds derived from the seeded data, and the rogue
/// tenant's full-history query they are derived against: `cheap = 2x` the
/// most expensive panel's modelled cost (panels always admitted),
/// `reject = 0.6x` the rogue's (always turned away), with the gap between
/// them asserted — so the mix includes charged (non-cheap) executions.
pub fn admission(db: &Db, nodes: &[NodeId], now: i64) -> (AdmissionConfig, f64) {
    let panel_est =
        catalog().iter().map(|p| modelled_secs(db, nodes, &p.request(now))).fold(0.0f64, f64::max);
    let rogue_req =
        BuilderRequest::new(EpochSecs::new(0), EpochSecs::new(now), 60, Aggregation::Mean).unwrap();
    let rogue_est = modelled_secs(db, nodes, &rogue_req);
    let (cheap_secs, reject_secs) = (panel_est * 2.0, rogue_est * 0.6);
    assert!(
        reject_secs > cheap_secs,
        "no admission headroom: panel max {panel_est:.4}s vs rogue {rogue_est:.4}s"
    );
    (AdmissionConfig { cheap_secs, reject_secs, ..AdmissionConfig::default() }, rogue_est)
}

/// Modelled seconds for one URL's plan against the current db state.
pub fn modelled_secs(db: &Db, nodes: &[NodeId], req: &BuilderRequest) -> f64 {
    let plan = build_plan(monster_collector::SchemaVersion::Optimized, nodes, req);
    db.simulate_elapsed(&estimate_plan_cost(db, &plan)).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fleet_is_deterministic_and_skewed() {
        let panels = catalog().len();
        let a = subscriber(42, panels);
        let b = subscriber(42, panels);
        assert_eq!((a.panel, a.refresh_secs, a.phase), (b.panel, b.refresh_secs, b.phase));
        // Popularity skew: the bottom half of the panel index space takes
        // the clear majority of a 10k fleet.
        let low = (0..10_000u64).filter(|&id| subscriber(id, panels).panel < panels / 2).count();
        assert!(low > 6_000, "skew collapsed: {low}/10000 in the lower half");
        // Open-loop arrivals over an hour match the refresh cadence.
        let s = subscriber(7, panels);
        let fired: usize = (0..60).map(|t| s.due(t * TICK_SECS)).sum();
        assert_eq!(fired as i64, 3600 / s.refresh_secs);
    }

    #[test]
    fn sample_batch_covers_every_series() {
        let nodes = NodeId::enumerate(2, 4);
        let batch = sample_batch(&nodes, 0, TICK_SECS);
        // Per node per cadence step: Power + 2×Thermal + UGE.
        assert_eq!(batch.len(), nodes.len() * (TICK_SECS / CADENCE_SECS) as usize * 4);
    }
}
