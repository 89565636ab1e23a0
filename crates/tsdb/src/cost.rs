//! Query cost accounting and the simulated-time model.
//!
//! Every query returns a [`QueryCost`] describing the physical work it did:
//! index entries examined, series and blocks touched, points decoded, bytes
//! read. [`CostParams::split`] converts that work into simulated CPU and
//! I/O time against a storage device model — the mechanism behind the
//! deterministic reproduction of Figs. 10/12/14/15.
//!
//! Calibration notes (constants approximate the paper's stack — InfluxDB
//! 1.x driven by a Python middleware):
//!
//! * `per_query` dominates the ~50 s floor of Fig. 10: the original
//!   Metrics Builder issues ~13 queries × 467 nodes sequentially, each
//!   paying HTTP + parse + plan overhead against the database.
//! * `block_access_factor` derates the raw device seek for block reads:
//!   most TSM block reads hit the page cache / readahead, so the
//!   *effective* per-block latency is a small fraction of a cold seek.
//!   This is what keeps the HDD→SSD win at the paper's 1.5–2.1× instead
//!   of the raw 100× seek ratio.
//! * Scan CPU (`per_point_cpu`) is cheap; the expensive CPU is per
//!   *output* window (aggregation cursor + middleware marshalling), which
//!   lives in the builder's processing model.
//!
//! The *shape* of every figure comes from the physical counters; these
//! constants only set the scale.

use monster_sim::{DiskModel, VDuration};

/// Physical work done by a query (or a batch of queries).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueryCost {
    /// Index entries examined during planning (scales with database series
    /// cardinality — the §IV-B2 schema effect).
    pub index_entries: usize,
    /// Series actually scanned.
    pub series: usize,
    /// Discrete storage blocks read (≈ seeks on HDD).
    pub blocks: usize,
    /// Sealed blocks answered from their zone-map summary without
    /// decompression (aggregation pushdown). These cost a constant probe
    /// instead of decode CPU and contribute no I/O.
    pub blocks_summarized: usize,
    /// Points decoded and aggregated.
    pub points: usize,
    /// Encoded bytes read from storage.
    pub bytes: usize,
    /// Of `blocks`, the ones read from cold-tiered shards (priced by the
    /// cold disk model when tiering is configured).
    pub blocks_cold: usize,
    /// Of `bytes`, the ones read from cold-tiered shards.
    pub bytes_cold: usize,
    /// Shards overlapping the query range (the fan-out width available to
    /// intra-query parallel scans — see [`CostParams::scan_workers`]).
    pub shards_scanned: usize,
    /// Number of queries this cost covers.
    pub queries: usize,
}

impl QueryCost {
    /// The counters as a JSON object, one key per field. The wire shape of
    /// the cold-tier subsets matters: `blocks_cold`/`bytes_cold` are
    /// *subsets* of `blocks`/`bytes`, which is how `/debug/requests` and
    /// `?explain=true` consumers must read them.
    pub fn to_json(&self) -> monster_json::Value {
        monster_json::jobj! {
            "index_entries" => self.index_entries as i64,
            "series" => self.series as i64,
            "blocks" => self.blocks as i64,
            "blocks_summarized" => self.blocks_summarized as i64,
            "points" => self.points as i64,
            "bytes" => self.bytes as i64,
            "blocks_cold" => self.blocks_cold as i64,
            "bytes_cold" => self.bytes_cold as i64,
            "shards_scanned" => self.shards_scanned as i64,
            "queries" => self.queries as i64,
        }
    }

    /// Accumulate another cost (sequential composition).
    pub fn absorb(&mut self, other: &QueryCost) {
        self.index_entries += other.index_entries;
        self.series += other.series;
        self.blocks += other.blocks;
        self.blocks_summarized += other.blocks_summarized;
        self.points += other.points;
        self.bytes += other.bytes;
        self.blocks_cold += other.blocks_cold;
        self.bytes_cold += other.bytes_cold;
        self.shards_scanned += other.shards_scanned;
        self.queries += other.queries;
    }
}

/// Conversion constants from physical counters to simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// CPU cost to decode one stored point during a scan, seconds.
    pub per_point_cpu: f64,
    /// Fixed cost per series opened (cursor setup), seconds.
    pub per_series: f64,
    /// Cost per index entry examined during planning, seconds.
    pub per_index_entry: f64,
    /// Fixed cost per query (HTTP round-trip to the DB, parse, plan),
    /// seconds. Scaled by `amplification` because a full-size deployment
    /// issues proportionally more queries.
    pub per_query: f64,
    /// Effective fraction of the device's raw access latency charged per
    /// block read (page cache + readahead derating).
    pub block_access_factor: f64,
    /// CPU cost to probe one sealed block's zone-map summary, seconds. A
    /// summarized block pays this flat fee instead of per-point decode CPU
    /// and block I/O — the headroom the aggregation pushdown converts into
    /// query speedup.
    pub per_summary_probe: f64,
    /// Workload amplification: multiply physical counters by this factor
    /// before costing, used to model the full 467-node cluster while
    /// actually storing a scaled-down node count. 1.0 = no scaling.
    pub amplification: f64,
    /// Modelled intra-query scan parallelism: the scan-side CPU (point
    /// decode + series cursors) divides across
    /// `min(scan_workers, shards_scanned)` workers — a property of the
    /// modelled machine, not of how many threads this engine scans on
    /// (`DbConfig::scan_workers`). Planning and per-query overheads stay
    /// serial, as does I/O (single storage backend). Default 1 — the
    /// paper's stack (InfluxDB 1.x via a Python middleware) scans each
    /// query on one goroutine's worth of effective parallelism, and the
    /// Figs. 10/12/14/15 calibration assumes it.
    pub scan_workers: usize,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            per_point_cpu: 0.03e-6,
            per_series: 0.3e-3,
            per_index_entry: 0.5e-6,
            per_query: 4.5e-3,
            block_access_factor: 0.25,
            per_summary_probe: 0.2e-6,
            amplification: 1.0,
            scan_workers: 1,
        }
    }
}

impl CostParams {
    /// Scale physical counters by `amplification` (see field docs).
    pub fn with_amplification(mut self, amp: f64) -> Self {
        assert!(amp > 0.0);
        self.amplification = amp;
        self
    }

    /// Split a cost into (CPU time, I/O time) against `disk`.
    ///
    /// CPU parallelizes across query workers; I/O serializes on the single
    /// storage backend — the distinction the concurrent-query simulation
    /// (Fig. 15) depends on. Equivalent to [`CostParams::split_tiered`]
    /// with both tiers on the same device, so the historical calibration
    /// (Figs. 10/12/14/15) is unchanged when tiering is off.
    pub fn split(&self, cost: &QueryCost, disk: &DiskModel) -> (VDuration, VDuration) {
        self.split_tiered(cost, disk, disk)
    }

    /// Like [`CostParams::split`], but I/O charged against two devices:
    /// `blocks_cold`/`bytes_cold` (a subset of `blocks`/`bytes`, accounted
    /// per shard by the scan path) price against `cold`, the rest against
    /// `hot`. This is the live version of the paper's Fig. 12 / Table III
    /// media comparison: one query pays SSD rates on recent shards and HDD
    /// rates on tiered history.
    pub fn split_tiered(
        &self,
        cost: &QueryCost,
        hot: &DiskModel,
        cold: &DiskModel,
    ) -> (VDuration, VDuration) {
        let a = self.amplification;
        let hot_bytes = cost.bytes.saturating_sub(cost.bytes_cold) as f64;
        let hot_blocks = cost.blocks.saturating_sub(cost.blocks_cold) as f64;
        let transfer = hot_bytes * a / hot.read_bw + cost.bytes_cold as f64 * a / cold.read_bw;
        let accesses = (hot_blocks * hot.access_latency
            + cost.blocks_cold as f64 * cold.access_latency)
            * a
            * self.block_access_factor;
        let io = VDuration::from_secs_f64(transfer + accesses);
        // Scan-side CPU divides across the modelled intra-query workers —
        // bounded by the shard fan-out actually available to the query.
        let fanout = self.scan_workers.min(cost.shards_scanned.max(1)).max(1) as f64;
        let scan_cpu = (cost.points as f64 * a * self.per_point_cpu
            + cost.blocks_summarized as f64 * a * self.per_summary_probe
            + cost.series as f64 * a * self.per_series)
            / fanout;
        let serial_cpu = cost.index_entries as f64 * a * self.per_index_entry
            + cost.queries as f64 * a * self.per_query;
        (VDuration::from_secs_f64(scan_cpu + serial_cpu), io)
    }

    /// Simulated elapsed time for `cost` against `disk`, assuming the
    /// queries ran **sequentially** (CPU + I/O back to back).
    pub fn elapsed(&self, cost: &QueryCost, disk: &DiskModel) -> VDuration {
        let (cpu, io) = self.split(cost, disk);
        cpu + io
    }

    /// Sequential elapsed time with tiered I/O pricing (see
    /// [`CostParams::split_tiered`]).
    pub fn elapsed_tiered(&self, cost: &QueryCost, hot: &DiskModel, cold: &DiskModel) -> VDuration {
        let (cpu, io) = self.split_tiered(cost, hot, cold);
        cpu + io
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_counters() {
        let mut a = QueryCost {
            index_entries: 1,
            series: 2,
            blocks: 3,
            blocks_summarized: 7,
            points: 4,
            bytes: 5,
            shards_scanned: 1,
            queries: 1,
            ..QueryCost::default()
        };
        let b = QueryCost {
            index_entries: 10,
            series: 20,
            blocks: 30,
            blocks_summarized: 70,
            points: 40,
            bytes: 50,
            shards_scanned: 2,
            queries: 1,
            ..QueryCost::default()
        };
        a.absorb(&b);
        assert_eq!(a.points, 44);
        assert_eq!(a.queries, 2);
        assert_eq!(a.bytes, 55);
        assert_eq!(a.shards_scanned, 3);
        assert_eq!(a.blocks_summarized, 77);
    }

    #[test]
    fn scan_workers_divide_scan_cpu_only() {
        // Scan-heavy cost with a 4-shard fan-out.
        let cost = QueryCost {
            index_entries: 100,
            series: 50,
            points: 10_000_000,
            shards_scanned: 4,
            queries: 1,
            ..QueryCost::default()
        };
        let serial = CostParams::default();
        let par = CostParams { scan_workers: 4, ..CostParams::default() };
        let t1 = serial.elapsed(&cost, &DiskModel::SSD).as_secs_f64();
        let t4 = par.elapsed(&cost, &DiskModel::SSD).as_secs_f64();
        assert!(t4 < t1, "parallel scans should be cheaper: {t4} vs {t1}");
        // Speedup is bounded by the serial floor (planning + per-query).
        assert!(t1 / t4 < 4.0);
        // Fan-out is capped by the shards actually overlapped: with one
        // shard there is nothing to divide.
        let narrow = QueryCost { shards_scanned: 1, ..cost };
        assert_eq!(par.elapsed(&narrow, &DiskModel::SSD), serial.elapsed(&narrow, &DiskModel::SSD));
        // And the default (scan_workers = 1) reproduces the historical
        // single-threaded model exactly, keeping the paper bands intact.
        assert_eq!(serial.scan_workers, 1);
    }

    #[test]
    fn elapsed_monotone_in_every_counter() {
        let p = CostParams::default();
        let base = QueryCost {
            index_entries: 100,
            series: 10,
            blocks: 10,
            blocks_summarized: 10,
            points: 1000,
            bytes: 100_000,
            shards_scanned: 1,
            queries: 1,
            ..QueryCost::default()
        };
        let t0 = p.elapsed(&base, &DiskModel::SSD);
        for bump in [
            QueryCost { points: 1_000_000, ..base },
            QueryCost { bytes: 100_000_000, ..base },
            QueryCost { blocks: 100_000, ..base },
            QueryCost { blocks_summarized: 100_000_000, ..base },
            QueryCost { series: 5_000, ..base },
            QueryCost { index_entries: 1_000_000, ..base },
            QueryCost { queries: 100, ..base },
        ] {
            assert!(p.elapsed(&bump, &DiskModel::SSD) > t0);
        }
    }

    #[test]
    fn hdd_slower_than_ssd_for_identical_work() {
        let p = CostParams::default();
        // A realistically shaped plan: thousands of queries over blocky
        // storage (the per-query CPU floor keeps the device ratio in the
        // paper's Fig. 12 band rather than the raw seek ratio).
        let cost = QueryCost {
            index_entries: 100_000,
            series: 2_000,
            blocks: 5_000,
            points: 5_000_000,
            bytes: 50_000_000,
            shards_scanned: 7,
            queries: 2_000,
            ..QueryCost::default()
        };
        let hdd = p.elapsed(&cost, &DiskModel::HDD).as_secs_f64();
        let ssd = p.elapsed(&cost, &DiskModel::SSD).as_secs_f64();
        assert!(hdd > ssd);
        let r = hdd / ssd;
        assert!((1.2..4.0).contains(&r), "HDD/SSD ratio {r} out of band");
    }

    #[test]
    fn amplification_scales_all_components() {
        let p1 = CostParams::default();
        let p4 = CostParams::default().with_amplification(4.0);
        let cost = QueryCost {
            index_entries: 1000,
            series: 100,
            blocks: 100,
            blocks_summarized: 40,
            points: 100_000,
            bytes: 10_000_000,
            shards_scanned: 3,
            queries: 5,
            ..QueryCost::default()
        };
        let t1 = p1.elapsed(&cost, &DiskModel::HDD).as_secs_f64();
        let t4 = p4.elapsed(&cost, &DiskModel::HDD).as_secs_f64();
        assert!((t4 / t1 - 4.0).abs() < 0.01, "t4/t1 = {}", t4 / t1);
    }

    #[test]
    fn split_partitions_elapsed() {
        let p = CostParams::default().with_amplification(3.0);
        let cost = QueryCost {
            index_entries: 50,
            series: 10,
            blocks: 2_000,
            blocks_summarized: 500,
            points: 500_000,
            bytes: 40_000_000,
            shards_scanned: 4,
            queries: 13,
            ..QueryCost::default()
        };
        let (cpu, io) = p.split(&cost, &DiskModel::HDD);
        assert!(cpu > VDuration::ZERO && io > VDuration::ZERO);
        assert_eq!(cpu + io, p.elapsed(&cost, &DiskModel::HDD));
    }

    #[test]
    fn tiered_pricing_brackets_and_degenerates_correctly() {
        let p = CostParams::default();
        let io_heavy = QueryCost {
            blocks: 4_000,
            bytes: 80_000_000,
            shards_scanned: 4,
            queries: 1,
            ..QueryCost::default()
        };
        // All hot / all cold: split_tiered degenerates to single-device
        // pricing on the respective tier.
        let all_hot = p.elapsed_tiered(&io_heavy, &DiskModel::SSD, &DiskModel::HDD);
        assert_eq!(all_hot, p.elapsed(&io_heavy, &DiskModel::SSD));
        let all_cold =
            QueryCost { blocks_cold: io_heavy.blocks, bytes_cold: io_heavy.bytes, ..io_heavy };
        assert_eq!(
            p.elapsed_tiered(&all_cold, &DiskModel::SSD, &DiskModel::HDD),
            p.elapsed(&all_cold, &DiskModel::HDD)
        );
        // A half-cold query lands strictly between the pure-SSD and
        // pure-HDD prices — the live Fig. 12 gradient.
        let half = QueryCost {
            blocks_cold: io_heavy.blocks / 2,
            bytes_cold: io_heavy.bytes / 2,
            ..io_heavy
        };
        let mixed = p.elapsed_tiered(&half, &DiskModel::SSD, &DiskModel::HDD);
        assert!(all_hot < mixed && mixed < p.elapsed(&io_heavy, &DiskModel::HDD));
        // Same device on both tiers reproduces the untiered model exactly,
        // whatever the cold counters say — calibration is unchanged.
        assert_eq!(
            p.elapsed_tiered(&half, &DiskModel::HDD, &DiskModel::HDD),
            p.elapsed(&io_heavy, &DiskModel::HDD)
        );
    }

    #[test]
    fn summarized_blocks_cost_far_less_than_decoded_ones() {
        // The same physical data answered two ways: 1000 sealed blocks of
        // 1024 points fully decoded, vs the same blocks probed via their
        // zone maps. Pushdown should be a large win in the model.
        let p = CostParams::default();
        let decoded = QueryCost {
            index_entries: 10,
            series: 1,
            blocks: 1_000,
            points: 1_024_000,
            bytes: 10_240_000,
            shards_scanned: 1,
            queries: 1,
            ..QueryCost::default()
        };
        let summarized = QueryCost {
            index_entries: 10,
            series: 1,
            blocks_summarized: 1_000,
            shards_scanned: 1,
            queries: 1,
            ..QueryCost::default()
        };
        let full = p.elapsed(&decoded, &DiskModel::SSD).as_secs_f64();
        let push = p.elapsed(&summarized, &DiskModel::SSD).as_secs_f64();
        assert!(push < full, "summary probes must be cheaper: {push} vs {full}");
        assert!(full / push > 3.0, "expected a big modelled win, got {}", full / push);
        // The probe itself still costs something: not free, just flat.
        let free = QueryCost { blocks_summarized: 0, ..summarized };
        assert!(p.elapsed(&summarized, &DiskModel::SSD) > p.elapsed(&free, &DiskModel::SSD));
    }
}
