//! The HiperJobViz data products: Figs. 6–9.

use super::{Fixtures, Out};
use crate::fixture_workload;
use monster_analysis::histogram::UsageMatrix;
use monster_analysis::kmeans::KMeans;
use monster_analysis::radar::{fleet_normalized, RadarProfile};
use monster_analysis::served::{self, ServedNode};
use monster_analysis::timeline::build_timeline;
use monster_analysis::trend::NodeTrend;
use monster_analysis::METRIC_NAMES;
use monster_builder::{BuilderRequest, ExecMode};
use monster_core::{Monster, MonsterConfig};
use monster_redfish::bmc::BmcConfig;
use monster_scheduler::{Qmaster, QmasterConfig, WorkloadConfig, WorkloadGenerator};
use monster_tsdb::Aggregation;
use monster_util::{EpochSecs, NodeId};

/// Fig. 6 — timeline visualization of one day of job scheduling.
///
/// Prints the per-user summary the figure annotates (job count, host
/// count) plus waiting/running statistics; `examples/job_timeline.rs`
/// renders the full strip chart.
pub fn fig06(_: &Fixtures, out: &mut Out) {
    let cfg = QmasterConfig { nodes: 128, ..QmasterConfig::default() };
    let t0 = cfg.start_time;
    let t_end = t0 + 86_400;
    let mut qm = Qmaster::new(cfg);
    let mut gen = WorkloadGenerator::new(WorkloadConfig::default());
    let submitted = gen.drive(&mut qm, t0, t_end);
    qm.run_until(t_end);

    say!(out, "FIG. 6 — 1-DAY JOB SCHEDULING TIMELINE (128 nodes)\n");
    say!(out, "{submitted} jobs submitted over the day\n");
    say!(out, "{:<10} {:>6} {:>6} {:>12} {:>12}", "user", "jobs", "hosts", "mean wait", "max wait");
    for tl in build_timeline(qm.jobs(), t0, t_end) {
        let max_wait = tl.bars.iter().map(|b| b.wait_secs(t_end)).max().unwrap_or(0);
        say!(
            out,
            "{:<10} {:>6} {:>6} {:>9.1} min {:>9.1} min",
            tl.user.as_str(),
            tl.job_count(),
            tl.hosts_used,
            tl.mean_wait_secs(t_end) / 60.0,
            max_wait as f64 / 60.0,
        );
    }
    say!(out, "\npaper observations to reproduce:");
    say!(out, " - an MPI user (jieyao-like) submits few jobs spanning many hosts");
    say!(out, " - an array user (abdumal-like) submits hundreds of jobs on few hosts");
    say!(out, " - some jobs start instantly, others queue for a long time");
}

/// A fault-free deployment of `nodes` under the fixture workload after
/// `hours` of collection, and the time it started at.
fn fixture_run(nodes: usize, hours: i64) -> (Monster, EpochSecs) {
    let mut m = Monster::new(MonsterConfig {
        nodes,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        workload: Some(fixture_workload()),
        horizon_secs: hours * 3600,
        ..MonsterConfig::default()
    });
    let start = m.now();
    m.run_intervals_bulk(hours as usize * 60);
    (m, start)
}

/// The nodes of one Metrics Builder request over `[start, end)`, each
/// `window_secs` window's last reading: what Figs. 7–9 read.
fn served(m: &Monster, start: EpochSecs, end: EpochSecs, window_secs: i64) -> Vec<ServedNode> {
    let req = BuilderRequest::new(start, end, window_secs, Aggregation::Last).expect("window");
    let outcome = m.builder_query(&req, ExecMode::Sequential).expect("builder query");
    served::decode(&outcome.document).expect("a served document")
}

/// Fig. 7 — radar representations of nine-dimensional node metrics:
/// a normal node vs a critical one (high CPU temperature + CPU usage),
/// the median and the hottest node of a small busy run as it was stored.
pub fn fig07(_: &Fixtures, out: &mut Out) {
    let (m, _) = fixture_run(16, 2);
    let hottest_cpu = |row: &[f64; 9]| row[0].max(row[1]);
    let mut rows: Vec<(NodeId, [f64; 9])> = served(&m, m.now(), m.now() + 60, 60)
        .into_iter()
        .filter_map(|n| Some((n.node, n.rows.last()?.1)))
        .collect();
    rows.sort_by(|a, b| hottest_cpu(&a.1).total_cmp(&hottest_cpu(&b.1)));
    let (median, hottest) = (rows[rows.len() / 2], rows[rows.len() - 1]);

    say!(out, "FIG. 7 — RADAR PROFILES (normal vs critical)\n");
    let normal = RadarProfile::new(format!("median node {}", median.0.label()), median.1);
    let critical = RadarProfile::new(format!("hottest node {}", hottest.0.label()), hottest.1);
    for p in [&normal, &critical] {
        say!(out, "{} (critical = {}):", p.node, p.is_critical());
        for (name, (raw, norm)) in METRIC_NAMES.iter().zip(p.raw.iter().zip(p.normalized.iter())) {
            let bar = "#".repeat((norm * 40.0).round() as usize);
            say!(out, "  {name:12} {raw:9.1}  {norm:5.2} |{bar}");
        }
        say!(out, "  glyph area: {:.3}\n", p.glyph_area());
    }
    assert!(!normal.is_critical() && critical.is_critical());
    assert!([0, 1, 3, 4, 5, 6, 7, 8].iter().all(|&d| critical.raw[d] > normal.raw[d]));
    say!(out, "shape check: critical glyph dominates on every load-coupled dimension ✓");
}

/// Fig. 8 — historical status change trends for one node: metrics over a
/// 17-hour window with background bands coloured by cluster membership.
pub fn fig08(_: &Fixtures, out: &mut Out) {
    // 17 hours (the paper's 12 am..5 pm window), then one request for
    // every node's profile at 10-minute windows.
    let (m, start) = fixture_run(32, 17);
    let tracked = m.node_ids()[2]; // a busy node; label "1-3"
    let nodes = served(&m, start, m.now(), 600);
    let mut rows: Vec<&(EpochSecs, [f64; 9])> = nodes.iter().flat_map(|n| &n.rows).collect();
    rows.sort_by_key(|(t, _)| *t);
    let fleet: Vec<Vec<f64>> = rows.iter().map(|(_, row)| row.to_vec()).collect();
    let history = &nodes.iter().find(|n| n.node == tracked).expect("tracked node").rows;

    let km = KMeans::fit(&fleet, 7);
    let trend = NodeTrend::build(tracked.label(), history, &km);

    say!(out, "FIG. 8 — HISTORICAL STATUS TREND, node {}\n", tracked.label());
    say!(out, "cluster bands over the window:");
    for (start, end, cluster) in trend.bands() {
        say!(out, "  {} .. {}  group {}", start, end, cluster + 1);
    }

    // The three series the figure plots: temperature, power, CPU usage.
    for (label, dim) in [("CPU1 temperature (°C)", 0usize), ("power (W)", 7), ("CPU usage", 8)] {
        let series = trend.metric_series(dim);
        let lo = series.iter().map(|(_, v)| *v).fold(f64::MAX, f64::min);
        let hi = series.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
        say!(out, "\n{label}: {} samples, range {:.1} .. {:.1}", series.len(), lo, hi);
        // Coarse sparkline, 6 rows of 102 cols is overkill; print hourly means.
        let per_hour = series.chunks(6);
        let line: String = per_hour
            .map(|c| {
                let mean = c.iter().map(|(_, v)| *v).sum::<f64>() / c.len() as f64;
                let level = if hi > lo { ((mean - lo) / (hi - lo) * 8.0) as usize } else { 0 };
                char::from_u32(0x2581 + level.min(7) as u32).unwrap()
            })
            .collect();
        say!(out, "hourly: {line}");
    }
    say!(
        out,
        "\nbands change when the node's regime changes — the Fig. 8 behaviour ({} bands).",
        trend.bands().len()
    );
}

/// Fig. 9 — host groups (k-means, k = 7) and the per-user symmetric
/// histogram matrix of resource usage.
pub fn fig09(_: &Fixtures, out: &mut Out) {
    // Six hours of activity, then who was on which node in each 10-minute
    // window, one request a window.
    let (m, start) = fixture_run(64, 6);
    let mut matrix = UsageMatrix::new();
    let mut final_snapshot: Vec<[f64; 9]> = Vec::new();
    for step in 0..36 {
        let from = start + step * 600;
        let nodes = served(&m, from, from + 600, 600);
        let shown: Vec<(&ServedNode, [f64; 9])> =
            nodes.iter().filter_map(|n| Some((n, n.rows.last()?.1))).collect();
        let snapshot: Vec<[f64; 9]> = shown.iter().map(|&(_, row)| row).collect();
        for ((node, _), normed) in shown.iter().zip(fleet_normalized(&snapshot)) {
            for &jid in &node.jobs {
                // The API serves no job owner: the scheduler names it.
                if let Some(job) = m.qmaster().job(jid) {
                    matrix.observe(&job.spec.user, &normed);
                }
            }
        }
        final_snapshot = snapshot;
    }

    say!(out, "FIG. 9 — HOST GROUPS + PER-USER USAGE HISTOGRAMS\n");

    // Left panel: the k=7 host groups of the final snapshot.
    let data: Vec<Vec<f64>> = final_snapshot.iter().map(|r| r.to_vec()).collect();
    let km = KMeans::fit(&data, 7);
    let sizes = km.cluster_sizes();
    say!(out, "host groups (k = 7):");
    for (g, size) in sizes.iter().enumerate() {
        let bar = "#".repeat(*size);
        say!(out, "  group {}: {size:3} |{bar}", g + 1);
    }
    let biggest = sizes.iter().enumerate().max_by_key(|(_, &s)| s).unwrap().0 + 1;
    say!(out, "  → group {biggest} is the dominant (normal-status) cluster, like the paper's blue Group 7\n");

    // Right panel: users sorted by power consumption (dimension 7).
    say!(out, "per-user usage matrix, sorted by power (top 8 users):");
    say!(out, "{:<10} {:>8} {:>8} {:>8}   histogram(power)", "user", "samples", "power", "cpu1");
    for row in matrix.rows_sorted_by(7).into_iter().take(8) {
        let hist = row.histograms[7]
            .normalized()
            .iter()
            .map(|v| char::from_u32(0x2581 + (v * 7.0) as u32).unwrap())
            .collect::<String>();
        say!(
            out,
            "{:<10} {:>8} {:>8.2} {:>8.2}   {hist}",
            row.user.as_str(),
            row.samples,
            row.means[7],
            row.means[0],
        );
    }
    say!(out, "\ndimensions available for sorting: {}", METRIC_NAMES.join(", "));
}
