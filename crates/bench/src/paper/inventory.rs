//! What MonSTer collects and what collecting it costs: Tables I–IV and the
//! §III-B1 / §III-C statistics.

use super::{Fixtures, Out};
use monster_core::{Monster, MonsterConfig};
use monster_redfish::bmc::{Answer, BmcConfig};
use monster_redfish::cluster::{ClusterConfig, SimulatedCluster};
use monster_redfish::model::parse_reading;
use monster_redfish::sensors::{CPU_TEMP_LABELS, FAN_LABELS, INLET_LABEL};
use monster_redfish::{Category, NodeReading, RedfishClient};
use monster_scheduler::accounting::{bandwidth_report, job_document, node_document};
use monster_scheduler::{
    JobShape, JobSpec, Qmaster, QmasterConfig, WorkloadConfig, WorkloadGenerator,
};
use monster_sim::hosts::{table3 as hosts, STORAGE_HOST_SSD};
use monster_util::UserName;

/// Table I — selective metrics collected from BMC.
///
/// Sweeps one simulated node's four Redfish categories and prints the
/// metric inventory, verifying it matches the paper's table.
pub fn table1(_: &Fixtures, out: &mut Out) {
    let cluster = SimulatedCluster::new(ClusterConfig {
        nodes: 1,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        ..ClusterConfig::small(1, 1)
    });
    cluster.step(60.0, |_| 0.5);
    let node = cluster.node_ids()[0];

    say!(out, "TABLE I — SELECTIVE METRICS COLLECTED FROM BMC\n");
    say!(out, "{:<10} Metrics", "Category");
    say!(out, "{}", "-".repeat(60));
    for category in Category::ALL {
        let reading = loop {
            let answer = cluster.request(node, category, |a| a.map(|p| parse_reading(category, p)));
            if let Answer::Ok(reading, _) = answer.expect("node exists") {
                break reading.expect("well-formed payload");
            }
        };
        let (label, metrics) = match &reading {
            NodeReading::Manager { .. } => ("Manager", vec!["BMC Health".to_string()]),
            NodeReading::System { .. } => ("System", vec!["Host Health".to_string()]),
            NodeReading::Thermal { cpu_temps, fans, .. } => (
                "Thermal",
                vec![
                    CPU_TEMP_LABELS[..cpu_temps.len()].join(", "),
                    INLET_LABEL.to_string(),
                    format!("Fans Speed ({})", FAN_LABELS[..fans.len()].join(", ")),
                ],
            ),
            NodeReading::Power { voltages, .. } => (
                "Power",
                vec!["Power Usage".to_string(), format!("Voltages ({} rails)", voltages.len())],
            ),
        };
        for (i, metric) in metrics.iter().enumerate() {
            let cat = if i == 0 { label } else { "" };
            say!(out, "{cat:<10} {metric}");
        }
    }
    say!(
        out,
        "\nRequest-pool check: 467 nodes x {} categories = {} URLs (paper: 1868)",
        Category::ALL.len(),
        467 * Category::ALL.len()
    );
    say!(out, "Example URL: {}", Category::Thermal.url(node));
}

/// Table II — selective metrics collected from UGE.
///
/// Pulls one accounting snapshot from the simulated qmaster and prints the
/// node-level and job-level metric inventory.
pub fn table2(_: &Fixtures, out: &mut Out) {
    let cfg = QmasterConfig { nodes: 4, ..QmasterConfig::default() };
    let t0 = cfg.start_time;
    let mut qm = Qmaster::new(cfg);
    qm.submit_at(
        t0 + 1,
        JobSpec {
            user: UserName::new("jieyao"),
            name: "mpi.sh".into(),
            shape: JobShape::Parallel { nodes: 2 },
            runtime_secs: 7200,
            priority: 0,
            mem_per_slot_gib: 2.0,
        },
    );
    qm.run_until(t0 + 120);

    say!(out, "TABLE II — SELECTIVE METRICS COLLECTED FROM UGE\n");
    let node = qm.node_ids()[0];
    let report = qm.load_report(node).expect("node");
    say!(out, "Category   Metrics");
    say!(out, "{}", "-".repeat(60));
    say!(out, "CPU        CPU Usage                 = {:.2}", report.cpu_usage);
    say!(out, "Memory     Used Memory               = {:.1} GiB", report.mem_used_gib);
    say!(out, "           Free Memory               = {:.1} GiB", report.mem_free_gib());
    say!(out, "Swap       Used Swap                 = {:.1} GiB", report.swap_used_gib);
    say!(out, "           Free Swap                 = {:.1} GiB", report.swap_free_gib());
    let job = qm.running_jobs()[0];
    let doc = job_document(job, 36);
    say!(
        out,
        "Job        Job Owner                 = {}",
        doc.get("owner").unwrap().as_str().unwrap()
    );
    say!(
        out,
        "           Job Submission Time       = {}",
        doc.get("submission_time").unwrap().as_i64().unwrap()
    );
    say!(
        out,
        "           Job Start Time            = {}",
        doc.get("start_time").unwrap().as_i64().unwrap()
    );
    say!(
        out,
        "           Job Slots                 = {}",
        doc.get("slots").unwrap().as_i64().unwrap()
    );
    say!(
        out,
        "Relationship  Job List on Node       = {:?}",
        report.job_list.iter().map(|j| j.to_string()).collect::<Vec<_>>()
    );

    let nd = node_document(&report);
    say!(
        out,
        "\nFull node accounting document carries {} fields; full job document {} fields",
        nd.as_object().unwrap().len(),
        doc.as_object().unwrap().len(),
    );
}

/// Table III — host hardware specifications (the simulation's host
/// profiles, which parameterize every cost model).
pub fn table3(_: &Fixtures, out: &mut Out) {
    say!(out, "TABLE III — HOST HARDWARE SPECIFICATIONS\n");
    for host in hosts() {
        say!(out, "{}:", host.name);
        say!(out, "  CPU:     {} hardware threads", host.cores);
        say!(out, "  RAM:     {} GB", host.ram_gib);
        say!(
            out,
            "  STORAGE: {} ({:.0} MB/s read, {:.1} ms access)",
            host.disk.name,
            host.disk.read_bw / 1e6,
            host.disk.access_latency * 1e3
        );
        say!(
            out,
            "  NETWORK: {} ({:.0} Mbit/s effective, {:.1} ms RTT)\n",
            host.net.name,
            host.net.bandwidth * 8.0 / 1e6,
            host.net.rtt * 1e3
        );
    }
    say!(
        out,
        "After the §IV-B1 migration the storage host uses its SSD: {} ({:.0} MB/s).",
        STORAGE_HOST_SSD.disk.name,
        STORAGE_HOST_SSD.disk.read_bw / 1e6
    );
}

/// Table IV — network bandwidth consumed for transmission of accounting
/// information.
///
/// Paper: 298.43 KB/s total, 0.32 KB/s per node, 0.38 KB/s per job for 467
/// nodes and an average of ~400 jobs on a 60 s interval. Here the payloads
/// are real (the accounting documents the simulated ARCo serves), so the
/// bandwidth numbers are measured, not assumed.
pub fn table4(_: &Fixtures, out: &mut Out) {
    // Quanah-sized cluster under a production-density workload, advanced
    // until the running-job census sits near the paper's ~400.
    let cfg = QmasterConfig::default();
    let t0 = cfg.start_time;
    let mut qm = Qmaster::new(cfg);
    let mut gen = WorkloadGenerator::new(WorkloadConfig {
        mpi_users: 6,
        array_users: 5,
        serial_users: 140,
        submissions_per_user_day: 24.0,
        seed: 2019,
    });
    gen.drive(&mut qm, t0, t0 + 24 * 3600);
    let mut t = t0;
    for _ in 0..(24 * 60) {
        t = t + 60;
        qm.run_until(t);
        let running = qm.running_jobs().len();
        if (350..=450).contains(&running) && t - t0 > 4 * 3600 {
            break;
        }
    }
    say!(out, "(census at {}: {} running jobs)", qm.now(), qm.running_jobs().len());

    let bw = bandwidth_report(&qm, 60.0);
    say!(out, "TABLE IV — NETWORK BANDWIDTH FOR ACCOUNTING TRANSMISSION\n");
    say!(out, "nodes: {}   jobs (non-pending): {}\n", bw.nodes, bw.jobs);
    say!(out, "| Monitoring BW | Monitoring BW/Node | Monitoring BW/Job |");
    say!(out, "|---------------|--------------------|-------------------|");
    say!(
        out,
        "| {:>9.2} KB/s | {:>14.2} KB/s | {:>13.2} KB/s |",
        bw.total_kb_per_sec,
        bw.per_node_kb_per_sec,
        bw.per_job_kb_per_sec
    );
    say!(out, "\npaper:  298.43 KB/s | 0.32 KB/s | 0.38 KB/s  (467 nodes, ~400 jobs)");

    let gige_effective = monster_sim::NetModel::GIGABIT_LAN.bandwidth / 1024.0; // KB/s
    say!(
        out,
        "\nshare of 1 GbE management link: {:.3}% — \"negligible\", as §IV-A concludes",
        bw.total_kb_per_sec / gige_effective * 100.0
    );
}

/// §III-B1 collection statistics: mean Redfish request time and the full
/// asynchronous sweep makespan. Paper: 4.29 s mean, ~55 s for the 1868-URL
/// pool over 467 nodes.
pub fn collect_sweep(_: &Fixtures, out: &mut Out) {
    say!(out, "COLLECTION SWEEP — 467 nodes x 4 categories = 1868 requests\n");
    let cluster = SimulatedCluster::new(ClusterConfig::default());
    let client = RedfishClient::default();

    for sweep_no in 1..=3 {
        let sweep = client.sweep(&cluster);
        say!(
            out,
            "sweep {}: mean request {:.2} s | makespan {:.1} s | ok {}/{} | retries {}",
            sweep_no,
            sweep.mean_request_secs(),
            sweep.makespan.as_secs_f64(),
            sweep.successes(),
            sweep.results.len(),
            sweep.retries(),
        );
    }
    say!(out, "\npaper: \"a Redfish API request takes 4.29 seconds on average.");
    say!(
        out,
        "        Asynchronous request for all metrics from all nodes takes about 55 seconds.\""
    );
}

/// §III-C volume statistics: data points per interval and per day.
/// Paper: ~10 000 points per 60 s interval; ~1.4×10⁷ individual metrics
/// per day on the Quanah cluster.
pub fn volume(_: &Fixtures, out: &mut Out) {
    say!(out, "COLLECTION VOLUME — Quanah-scale deployment (467 nodes)\n");
    let mut m = Monster::new(MonsterConfig {
        nodes: 467,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        workload: Some(WorkloadConfig {
            mpi_users: 6,
            array_users: 5,
            serial_users: 80,
            submissions_per_user_day: 16.0,
            seed: 11,
        }),
        horizon_secs: 4 * 3600,
        ..MonsterConfig::default()
    });

    // Warm up two hours so the job mix is realistic, then measure.
    m.run_intervals_bulk(120);
    let before = m.db().stats().points;
    let measured = 30;
    m.run_intervals_bulk(measured);
    let after = m.db().stats().points;
    let per_interval = (after - before) / measured;

    say!(out, "measured: {per_interval} points per 60 s interval (paper: ~10,000)");
    say!(out, "extrapolated: {:.2e} points per day (paper: ~1.4e7)", per_interval as f64 * 1440.0);
    let stats = m.db().stats();
    say!(
        out,
        "\nafter {:.1} h: {} points, {} series, {} at rest",
        m.intervals_run() as f64 / 60.0,
        stats.points,
        stats.cardinality,
        monster_util::bytesize::ByteSize(stats.encoded_bytes as u64)
    );
    say!(
        out,
        "batch check: one interval ≈ {} points ≈ the paper's \"ideal batch size for InfluxDB\"",
        per_interval
    );
}
