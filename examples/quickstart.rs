//! Quickstart: stand up a small MonSTer deployment, collect a few
//! intervals, and query it back through the Metrics Builder.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use monster::analysis::served;
use monster::builder::{BuilderRequest, ExecMode};
use monster::redfish::bmc::BmcConfig;
use monster::tsdb::Aggregation;
use monster::{Monster, MonsterConfig};

fn main() {
    // A 16-node deployment with the default synthetic workload. The BMCs
    // keep their stochastic failure behaviour — watch the retry counters.
    let mut deployment = Monster::new(MonsterConfig {
        nodes: 16,
        bmc: BmcConfig::default(),
        ..MonsterConfig::default()
    });

    println!("== MonSTer quickstart: 16 nodes, 60 s interval ==\n");

    // Ten collection intervals through the full Redfish path.
    for summary in deployment.run_intervals(10) {
        println!(
            "interval @ {}  points={:5}  sweep={}  bmc_failures={}",
            summary.time, summary.points, summary.collection_time, summary.bmc_failures,
        );
    }

    let stats = deployment.db().stats();
    println!(
        "\nstored: {} points, {} series, {} measurements, {} raw wire bytes, {} at rest",
        stats.points,
        stats.cardinality,
        stats.measurements,
        monster::util::bytesize::ByteSize(stats.wire_bytes as u64),
        monster::util::bytesize::ByteSize(stats.encoded_bytes as u64),
    );

    // The paper's §III-D example request: a day window, 5-minute max
    // downsampling — scaled here to the 10 minutes we collected.
    let t0 = deployment.now() - 600;
    let req =
        BuilderRequest::new(t0, deployment.now(), 120, Aggregation::Max).expect("valid request");
    let outcome =
        deployment.builder_query(&req, ExecMode::Concurrent { workers: 8 }).expect("query");
    println!(
        "\nMetrics Builder: {} points in the response document, simulated query+processing {}",
        outcome.points_out,
        outcome.query_processing_time(),
    );

    // Show one node's power series — the Fig. 4 data, queried back.
    let node = deployment.node_ids()[0];
    let power = served::section(&outcome.document, &node.bmc_addr(), "power").expect("served");
    println!("\npower(max, 2m windows) for {}:", node.bmc_addr());
    for (_, t, w) in power {
        println!("  {}  {:6.1} W", monster::util::EpochSecs::new(t), w.as_f64().unwrap_or(0.0));
    }

    // And the Fig. 5 data: which jobs were on that node.
    let (rs, _) = deployment
        .db()
        .query_str(&format!(
            "SELECT JobList FROM NodeJobs WHERE NodeId='{}' AND time >= {} AND time < {}",
            node.bmc_addr(),
            t0.as_secs(),
            deployment.now().as_secs()
        ))
        .expect("job query");
    if let Some(series) = rs.series.first() {
        if let Some((t, v)) = series.points.last() {
            println!("\njobs on {} at {}: {}", node.bmc_addr(), t, v);
        }
    }
}
