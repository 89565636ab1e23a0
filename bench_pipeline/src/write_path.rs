//! `collect467`: the write path alone. Back-to-back collection intervals
//! on one thread into a WAL-on deployment, then a restart. No queries, so
//! `builder`, `http`, `json` and `compress` do no work: this is the bypass
//! workload for every change to serving.

use crate::deploy::{IntervalCounts, Parts, Spec, INTERVAL_SECS};
use crate::meters::{
    cpu_seconds, dir_bytes, median, peak_rss_mb, repeat_setup, Scratch, Timed, TimedPart, Yardstick,
};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::outcome::Outcome;
use crate::spans::Recorder;
use monster_builder::{BuilderRequest, ExecMode};
use monster_core::Monster;
use monster_sim::{DiskModel, NetModel};
use monster_tsdb::{Aggregation, Db};
use std::time::Instant;

pub struct Plan {
    pub nodes: usize,
    /// Untimed intervals that end each set-up (first-touch allocation,
    /// detector warm-up, jobs placed).
    pub warmup: usize,
    /// Timed intervals.
    pub intervals: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Plan {
    /// About 9 intervals fit in a second on the 2-core box.
    pub fn for_seconds(seconds: u64) -> Plan {
        Plan {
            nodes: crate::deploy::PAPER_NODES,
            warmup: 4,
            intervals: 9 * seconds as usize,
            setup_reps: 3,
        }
    }

    /// A tenth of the intervals, each run twice (product and replay).
    pub fn traced(seconds: u64) -> Plan {
        Plan {
            intervals: (3 * seconds as usize).max(12),
            setup_reps: 1,
            ..Plan::for_seconds(seconds)
        }
    }

    fn spec(&self, seed: u64, dir: &Scratch) -> Spec {
        Spec {
            seed,
            nodes: self.nodes,
            disk: DiskModel::HDD,
            data_dir: Some(dir.path().to_path_buf()),
            horizon_intervals: self.warmup + self.intervals,
        }
    }
}

/// A fresh WAL-on deployment, warmed.
fn setup(plan: &Plan, seed: u64, label: &str, yard: &mut Yardstick) -> (Scratch, Spec, Monster) {
    let dir = Scratch::new(label);
    let spec = plan.spec(seed, &dir);
    let mut m = spec.monster();
    for _ in 0..plan.warmup {
        yard.mark();
        m.run_interval().expect("warm-up interval");
    }
    (dir, spec, m)
}

/// The last quarter hour of power and temperature, as the dashboard asks.
fn probe_query(m: &Monster, end: monster_util::EpochSecs) -> Vec<u8> {
    let req = BuilderRequest::new(end - 900, end, 300, Aggregation::Max).expect("non-empty window");
    m.builder_respond(&req, ExecMode::Sequential, &NetModel::GIGABIT_LAN)
        .expect("probe query over own schema")
        .body
}

pub fn run(plan: &Plan, seed: u64) -> Outcome {
    let mut out = Outcome::new(END_TO_END);
    let mut yard = Yardstick::new();
    let ((dir, spec, mut m), setup_s) = repeat_setup(plan.setup_reps, &mut yard, |rep, yard| {
        setup(plan, seed, &format!("collect-{rep}"), yard)
    });

    let disk_before = dir_bytes(dir.path());
    let cpu_before = cpu_seconds();
    let mut ops = Vec::with_capacity(plan.intervals);
    let mut errors = 0;
    let started = Instant::now();
    for _ in 0..plan.intervals {
        let mark = yard.mark();
        let t = Instant::now();
        let ok = m.run_interval().is_ok();
        ops.push(Timed { ms: t.elapsed().as_secs_f64() * 1e3, mark });
        errors += usize::from(!ok);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu_before;
    let peak_rss_mb = peak_rss_mb();
    out.ops(plan.intervals, errors);

    // Everything below is outside the timed part.
    m.db().wal_sync().expect("final WAL sync");
    let acknowledged = m.db().stats().points;
    let end = m.now();
    let before = probe_query(&m, end);
    let disk_after = dir_bytes(dir.path());
    drop(m);
    let t = Instant::now();
    let reopened = Monster::new(spec.config());
    let after = probe_query(&reopened, end);
    let recover_s = t.elapsed().as_secs_f64();
    let recovered = reopened.db().stats().points;
    out.check(
        recovered == acknowledged,
        format!("restart recovered {recovered} points of {acknowledged} acknowledged"),
    );
    out.check(
        before == after && !before.is_empty(),
        format!("probe query answers the same {} bytes after the restart", before.len()),
    );

    out.note(format!(
        "sizes: nodes={} warmup_intervals={} intervals={} setup_reps={} points_acknowledged={acknowledged}",
        plan.nodes, plan.warmup, plan.intervals, plan.setup_reps
    ));
    out.note(format!(
        "recover_s = {recover_s:.4} s wall (reopen until the probe query answered; not bounded)"
    ));
    let part = TimedPart {
        calibrated_ms: ops.iter().map(|op| yard.calibrate(op.ms, op.mark)).collect(),
        wall_ms: ops.iter().map(|op| op.ms).collect(),
        slowness: Yardstick::slowness_of(&yard.marks_ns[ops[0].mark..]),
        wall_s,
        cpu_s,
        sink_bytes: (disk_after - disk_before) as f64,
        peak_rss_mb,
    };
    out.end_to_end("Monster::run_interval", setup_s, &part);
    out
}

/// Fill the write-path metrics from the spans and counts of the replayed
/// intervals; returns the root span's median.
pub fn report_write_path(out: &mut Outcome, rec: &Recorder, counts: &[IntervalCounts]) -> f64 {
    let med = |name: &str| median(&rec.durations_ms(name));
    let count = |f: fn(&IntervalCounts) -> f64| median(&counts.iter().map(f).collect::<Vec<_>>());
    let root = med("core.interval");
    let r = &mut out.report;
    r.set("core.interval_ms", root);
    r.set("core.interval_other_ms", median(&rec.self_ms("core.interval")));
    r.set("scheduler.advance_ms", med("scheduler.advance"));
    r.set("scheduler.accounting_pull_ms", med("scheduler.accounting_pull"));
    r.set("scheduler.accounting_bytes", count(|c| c.accounting_bytes as f64));
    r.set("redfish.step_ms", med("redfish.step"));
    r.set("redfish.sweep_ms", med("redfish.sweep"));
    r.set("redfish.sweep_requests", count(|c| c.sweep_requests as f64));
    r.set("redfish.sweep_retries", counts.iter().map(|c| c.sweep_retries as f64).sum());
    r.set("redfish.sweep_failed", counts.iter().map(|c| c.sweep_failed as f64).sum());
    r.set("redfish.sweep_modelled_s", count(|c| c.sweep_modelled_s));
    r.set("collector.collect_ms", med("collector.collect"));
    r.set("collector.self_ms", median(&rec.self_ms("collector.collect")));
    r.set("collector.points", count(|c| c.points as f64));
    r.set("alert.observe_ms", med("alert.observe"));
    r.set("tsdb.write_batch_ms", med("tsdb.write_batch"));
    r.set("tsdb.write_points", count(|c| c.field_values as f64));
    r.set("tsdb.wal_overhead_ms", med("tsdb.write_batch") - med("tsdb.write_batch_mem"));
    root
}

/// The per-layer run: the product deployment and its replay from public
/// parts take turns, interval by interval, on twin data directories.
pub fn run_traced(plan: &Plan, seed: u64, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::new(PER_LAYER);
    let (_dir_a, spec_a, mut product) = setup(plan, seed, "collect-product", &mut Yardstick::new());
    let dir_b = Scratch::new("collect-parts");
    let spec_b = plan.spec(seed, &dir_b);
    let mut parts = Parts::new(&spec_b);
    let mut unkept = Recorder::new(Instant::now(), 0, 16 * plan.warmup);
    for k in 0..plan.warmup {
        parts.interval(&mut unkept, k as u32);
    }

    let mut untraced_ms = Vec::with_capacity(plan.intervals);
    let mut counts = Vec::with_capacity(plan.intervals);
    let mut errors = 0;
    for op in 0..plan.intervals {
        let t = Instant::now();
        errors += usize::from(product.run_interval().is_err());
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        counts.push(parts.interval(rec, op as u32));
    }
    out.ops(2 * plan.intervals, errors);
    out.check(
        product.now() == parts.now
            && product.now() - spec_a.start()
                == (plan.warmup + plan.intervals) as i64 * INTERVAL_SECS,
        "product and replay advanced the same simulated time".to_string(),
    );
    let product_points = product.db().stats().points;
    let parts_stats = parts.db.stats();
    // A BMC request that fails all its retries drops a reading on one side
    // only (the replay's sweep probe advances the fault streams), so the
    // twins may differ by a few points in a thousand, never by more.
    out.check(
        product_points.abs_diff(parts_stats.points) * 1000 <= product_points,
        format!("replay landed {} points, the product {product_points}", parts_stats.points),
    );

    // Recovery: the storage layer alone on the replay's directory, then
    // the whole deployment on the product's.
    parts.db.wal_sync().expect("final WAL sync");
    let wal = parts.db.wal_status().expect("WAL-on");
    let wal_bytes = dir_bytes(dir_b.path());
    let db_config = *parts.db.config();
    drop(parts);
    let t = Instant::now();
    let (recovered, report) = Db::recover(db_config, dir_b.path()).expect("recover");
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    out.check(
        recovered.stats().points == parts_stats.points && report.records_failed == 0,
        format!(
            "Db::recover replayed {} records, {} points",
            report.replayed_records, report.replayed_points
        ),
    );
    drop(recovered);
    product.db().wal_sync().expect("final WAL sync");
    let end = product.now();
    let before = probe_query(&product, end);
    drop(product);
    let t = Instant::now();
    let reopened = Monster::new(spec_a.config());
    let after = probe_query(&reopened, end);
    let core_recover_s = t.elapsed().as_secs_f64();
    out.check(before == after, "probe query answers the same after the restart".to_string());

    let root = report_write_path(&mut out, rec, &counts);
    let untraced = median(&untraced_ms);
    let r = &mut out.report;
    r.set("tsdb.wal_bytes_per_point", wal_bytes as f64 / parts_stats.points as f64);
    r.set("tsdb.wal_segments", wal.segments as f64);
    r.set(
        "tsdb.encoded_bytes_per_point",
        parts_stats.encoded_bytes as f64 / parts_stats.points as f64,
    );
    r.set("tsdb.recover_ms", recover_ms);
    r.set("tsdb.recover_points_per_s", report.replayed_points as f64 / (recover_ms / 1e3));
    r.set("tsdb.recover_records", report.replayed_records as f64);
    r.set("core.recover_s", core_recover_s);
    let overhead = (root - untraced) / untraced;
    let coverage = rec.coverage("core.interval");
    r.set("trace.overhead_share", overhead);
    r.set("trace.coverage_share", coverage);
    out.note(format!(
        "sizes: nodes={} warmup_intervals={} intervals={} (product and replay each)",
        plan.nodes, plan.warmup, plan.intervals
    ));
    out.check(
        overhead.abs() <= 0.10,
        format!("replayed interval p50 {root:.3} ms within 10% of Monster::run_interval p50 {untraced:.3} ms"),
    );
    out.check(
        coverage >= 0.90,
        format!("children cover {:.1}% of the interval span", coverage * 100.0),
    );
    out
}
