//! The metric names this benchmark prints, with their units. The same
//! lists, with direction and bounds, are in `BENCHMARK.json`; a test keeps
//! the two in step.

use std::collections::BTreeMap;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Reported by every workload with `--trace 0`. An *op* is the operation
/// the workload is named for: one `Monster::run_interval` on `collect467`
/// and `mixed467_collect`, one `/v1/metrics` request over the socket on
/// `dash_cold`, `dash_warm` and `mixed467_serve`.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s"),
    def("op_ms_p50", "ms"),
    def("op_ms_tail", "ms"),
    def("ops_per_s", "1/s"),
    def("cpu_ms_per_op", "ms"),
    def("kb_per_op", "KB"),
    def("peak_rss_mb", "MB"),
];

/// Reported by every workload with `--trace 1`; 0 where the workload does
/// not reach the layer.
pub const PER_LAYER: &[Def] = &[
    // Write path, per traced interval (medians unless a count).
    def("core.interval_ms", "ms"),
    def("core.interval_other_ms", "ms"),
    def("scheduler.advance_ms", "ms"),
    def("scheduler.accounting_pull_ms", "ms"),
    def("scheduler.accounting_bytes", "count"),
    def("redfish.step_ms", "ms"),
    def("redfish.sweep_ms", "ms"),
    def("redfish.sweep_requests", "count"),
    def("redfish.sweep_retries", "count"),
    def("redfish.sweep_failed", "count"),
    def("redfish.sweep_modelled_s", "s"),
    def("collector.collect_ms", "ms"),
    def("collector.self_ms", "ms"),
    def("collector.points", "count"),
    def("alert.observe_ms", "ms"),
    def("tsdb.write_batch_ms", "ms"),
    def("tsdb.write_points", "count"),
    def("tsdb.wal_overhead_ms", "ms"),
    def("tsdb.wal_bytes_per_point", "B"),
    def("tsdb.wal_segments", "count"),
    def("tsdb.encoded_bytes_per_point", "B"),
    def("tsdb.recover_ms", "ms"),
    def("tsdb.recover_points_per_s", "1/s"),
    def("tsdb.recover_records", "count"),
    def("core.recover_s", "s"),
    // Read path, per traced request.
    def("http.request_ms", "ms"),
    def("http.parse_us", "us"),
    def("http.serialize_us", "us"),
    def("http.socket_overhead_us", "us"),
    def("http.connect_us", "us"),
    def("builder.dispatch_miss_ms", "ms"),
    def("builder.dispatch_other_ms", "ms"),
    def("builder.dispatch_hit_us", "us"),
    def("builder.plan_ms", "ms"),
    def("builder.plan_queries", "count"),
    def("builder.estimate_ms", "ms"),
    def("builder.execute_ms", "ms"),
    def("builder.execute_self_ms", "ms"),
    def("builder.execute_seq_ms", "ms"),
    def("tsdb.query_ms", "ms"),
    def("tsdb.query_us_per_query", "us"),
    def("tsdb.query_points", "count"),
    def("tsdb.query_blocks_decoded", "count"),
    def("tsdb.query_blocks_summarized", "count"),
    def("tsdb.query_bytes", "count"),
    def("tsdb.query_modelled_s", "s"),
    def("json.encode_ms", "ms"),
    def("json.encode_mb_per_s", "MB/s"),
    def("json.bytes_mean", "count"),
    def("compress.deflate_ms", "ms"),
    def("compress.deflate_mb_per_s", "MB/s"),
    def("compress.ratio", "ratio"),
    def("builder.cache_hit_ratio", "ratio"),
    def("builder.cache_coalesced", "count"),
    def("builder.admission_rejected", "count"),
    def("obs.scrape_ms", "ms"),
    def("obs.scrape_bytes", "count"),
    // Validity of the breakdown itself.
    def("trace.overhead_share", "ratio"),
    def("trace.coverage_share", "ratio"),
    def("trace.spans", "count"),
];

/// Metric values of one run, keyed by a name from one of the lists above.
pub struct Report {
    defs: &'static [Def],
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Every metric of `defs` at 0, to be overwritten by what the run
    /// measures.
    pub fn new(defs: &'static [Def]) -> Report {
        Report { defs, values: defs.iter().map(|d| (d.name, 0.0)).collect() }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self.values.get_mut(name).unwrap_or_else(|| panic!("unlisted metric {name}"));
        *slot = value;
    }

    /// `(name, unit, value)` in the order of the list.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.defs.iter().map(|d| (d.name, d.unit, self.values[d.name]))
    }
}
