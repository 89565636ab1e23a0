//! Fig. 19 — end-to-end response time with and without compression.
//! Paper: compression makes the overall response ≈2× faster even though
//! query-processing rises slightly (the compression work itself).
//!
//! The compression work is priced at what this host's codec does on one
//! core, measured here on each response as it is built: the speedup in
//! the last column exists on the wall, not only in the model.

use monster_bench::{data_start, populated};
use monster_builder::{BuilderRequest, ExecMode};
use monster_collector::SchemaVersion;
use monster_compress::{compress, Level};
use monster_sim::{DiskModel, NetModel, VDuration};
use monster_tsdb::Aggregation;
use std::time::Instant;

/// One-core compression throughput on `json`, bytes per second: the body
/// deflated a block (128 KiB) at a time, which keeps every call under the
/// codec's fan-out threshold and so on the calling thread. Best of three
/// passes.
fn one_core_bytes_per_sec(json: &[u8]) -> f64 {
    let pass = || {
        let started = Instant::now();
        for block in json.chunks(128 * 1024) {
            std::hint::black_box(compress(block, Level::default()));
        }
        started.elapsed().as_secs_f64()
    };
    json.len() as f64 / (0..3).map(|_| pass()).fold(f64::INFINITY, f64::min)
}

fn main() {
    eprintln!("populating 7 days (optimized schema, SSD)...");
    let m = populated(SchemaVersion::Optimized, DiskModel::SSD, 7, 60);
    let t0 = data_start();
    let amp = m.db().config().cost.amplification;
    let net = NetModel::CAMPUS;

    println!("FIG. 19 — RESPONSE TIME, UNCOMPRESSED vs COMPRESSED (campus consumer)\n");
    println!(
        "{:>7} {:>14} {:>14} {:>9} {:>16}",
        "hours", "plain (s)", "compressed (s)", "speedup", "deflate (MB/s)"
    );
    for h in [6i64, 24, 72, 168] {
        let req = BuilderRequest::new(t0, t0 + h * 3600, 300, Aggregation::Max).unwrap();
        let out = m.builder_query(&req, ExecMode::Concurrent { workers: 16 }).unwrap();
        let qp = out.query_processing_time();
        let json = out.document.to_string_compact();
        let packed = compress(json.as_bytes(), Level::default());
        let deflate_rate = one_core_bytes_per_sec(json.as_bytes());
        let full_raw = (json.len() as f64 * amp) as u64;
        let full_packed = (packed.len() as f64 * amp) as u64;

        let t_plain = qp + net.transfer_cost(full_raw);
        let t_comp = qp
            + VDuration::from_secs_f64(full_raw as f64 / deflate_rate)
            + net.transfer_cost(full_packed);
        println!(
            "{:>7} {:>14.2} {:>14.2} {:>8.2}x {:>16.1}",
            h,
            t_plain.as_secs_f64(),
            t_comp.as_secs_f64(),
            t_plain.as_secs_f64() / t_comp.as_secs_f64(),
            deflate_rate / 1e6
        );
    }
    println!("\ndeflate priced at the measured one-core rate of this host (last column)");
    println!("paper: ≈2x faster overall with compression on long ranges");
}
