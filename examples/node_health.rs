//! Node-health analytics: the Fig. 7/8/9 pipeline.
//!
//! Runs a loaded cluster, clusters the fleet's nine-dimensional health
//! profiles with (modified) k-means into the paper's seven host groups,
//! prints radar profiles for a normal and a hot node, and renders one
//! node's historical status trend with cluster bands.
//!
//! ```text
//! cargo run --release --example node_health
//! ```

use monster::analysis::kmeans::KMeans;
use monster::analysis::radar::RadarProfile;
use monster::analysis::trend::NodeTrend;
use monster::redfish::bmc::BmcConfig;
use monster::util::EpochSecs;
use monster::{Monster, MonsterConfig};

fn nine_metrics(m: &Monster, node: monster::util::NodeId) -> [f64; 9] {
    let s = m.cluster().sensors(node).expect("node");
    let mem =
        m.qmaster().load_report(node).map(|r| r.mem_used_gib / r.mem_total_gib).unwrap_or(0.0);
    [
        s.cpu_temps[0],
        s.cpu_temps[1],
        s.inlet,
        s.fans[0],
        s.fans[1],
        s.fans[2],
        s.fans[3],
        s.power,
        mem,
    ]
}

fn main() {
    let mut m = Monster::new(MonsterConfig {
        nodes: 64,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        ..MonsterConfig::default()
    });

    // Warm the cluster up: 3 hours of workload, collecting trends as we go.
    println!("== node health analytics (64 nodes, 3 h of workload) ==\n");
    let tracked = m.node_ids()[30]; // an arbitrary node to trend, "1-31"-ish
    let mut history: Vec<(EpochSecs, [f64; 9])> = Vec::new();
    for _ in 0..36 {
        m.run_intervals_bulk(5); // 5-minute strides
        history.push((m.now(), nine_metrics(&m, tracked)));
    }

    // Fleet snapshot → k-means with the paper's k = 7.
    let snapshot: Vec<Vec<f64>> =
        m.node_ids().iter().map(|&n| nine_metrics(&m, n).to_vec()).collect();
    let km = KMeans::fit(&snapshot, 7);
    println!("host groups (k=7, like Fig. 9):");
    let sizes = km.cluster_sizes();
    for (g, size) in sizes.iter().enumerate() {
        println!("  group {}: {:3} nodes", g + 1, size);
    }
    let largest = sizes.iter().enumerate().max_by_key(|(_, &s)| s).unwrap().0;
    println!("  → group {} is the 'blue cluster': the normal operating state\n", largest + 1);

    // Radar profiles: the coolest and hottest nodes by CPU temperature.
    let by_temp = |i: usize| snapshot[i][0].max(snapshot[i][1]);
    let coolest =
        (0..snapshot.len()).min_by(|&a, &b| by_temp(a).partial_cmp(&by_temp(b)).unwrap()).unwrap();
    let hottest =
        (0..snapshot.len()).max_by(|&a, &b| by_temp(a).partial_cmp(&by_temp(b)).unwrap()).unwrap();
    for (title, idx) in [("normal status", coolest), ("hottest node", hottest)] {
        let node = m.node_ids()[idx];
        let raw: [f64; 9] = nine_metrics(&m, node);
        let profile = RadarProfile::new(node.label(), raw);
        println!("radar: {} ({title}), critical={}", node.label(), profile.is_critical());
        for (name, (r, n)) in monster::analysis::METRIC_NAMES
            .iter()
            .zip(profile.raw.iter().zip(profile.normalized.iter()))
        {
            let bar = "#".repeat((n * 30.0) as usize);
            println!("  {name:12} {r:9.1}  |{bar}");
        }
        println!();
    }

    // Fig. 8: historical trend of the tracked node with cluster bands.
    let trend = NodeTrend::build(tracked.label(), &history, &km);
    println!("historical trend for node {} (cluster bands):", tracked.label());
    for (start, end, cluster) in trend.bands() {
        println!("  {} .. {}  group {}", start, end, cluster + 1);
    }
    let power = trend.metric_series(7);
    let max_power = power.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
    let min_power = power.iter().map(|(_, v)| *v).fold(f64::MAX, f64::min);
    println!(
        "\npower on {}: min {:.0} W, max {:.0} W over {} samples",
        tracked.label(),
        min_power,
        max_power,
        power.len()
    );
}
