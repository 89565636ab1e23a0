//! Ablations over the design choices DESIGN.md calls out:
//!
//! 1. **Write batch size** — the §III-C claim that ~10 000-point batches
//!    are "the ideal batch size": wall-clock ingest throughput vs batch
//!    size (per-batch overhead amortization).
//! 2. **Compression level** — mzlib level vs ratio and wall-clock cost on
//!    a representative Metrics Builder response.
//! 3. **Query shape** — one query a node (the paper's middleware) vs one
//!    fleet-wide query, in physical cost and simulated time.
//! 4. **Backfill policy** — how long a wide MPI job waits behind a stream
//!    of long serial jobs under aggressive and EASY backfill.
//!
//! The rows of the first two tables carry wall-clock rates and are measured
//! text; everything else is a function of the code.

use super::{Fixtures, Out};
use monster_compress::{compress, Level};
use monster_tsdb::{DataPoint, Db, DbConfig};
use monster_util::EpochSecs;
use std::time::Instant;

fn interval_points(n: usize) -> Vec<DataPoint> {
    (0..n)
        .map(|i| {
            DataPoint::new("Power", EpochSecs::new((i / 467) as i64 * 60))
                .tag("NodeId", format!("10.101.{}.{}", i % 117 + 1, i % 4 + 1))
                .tag("Label", "NodePower")
                .field_f64("Reading", 250.0 + (i % 40) as f64)
        })
        .collect()
}

fn ablate_batch_size(out: &mut Out) {
    say!(out, "== ablation 1: write batch size (fixed 100k points total) ==\n");
    say!(out, "{:>12} {:>12} {:>16}", "batch size", "batches", "points/s");
    let points = interval_points(100_000);
    for batch in [1usize, 10, 100, 1_000, 10_000, 100_000] {
        let db = Db::new(DbConfig::default());
        let start = Instant::now();
        for chunk in points.chunks(batch) {
            db.write_batch(chunk).unwrap();
        }
        let dt = start.elapsed().as_secs_f64();
        out.measured(format_args!(
            "{:>12} {:>12} {:>16.0}\n",
            batch,
            points.len().div_ceil(batch),
            points.len() as f64 / dt
        ));
    }
    say!(out, "\nthroughput saturates around the paper's ~10k batch — per-batch");
    say!(out, "overhead (lock + shard lookup ≈ HTTP round-trip in the original) amortizes out.\n");
}

fn ablate_compression_level(out: &mut Out) {
    say!(out, "== ablation 2: compression level (1.9 MB builder response) ==\n");
    say!(out, "{:>6} {:>10} {:>12} {:>12}", "level", "ratio", "MB/s", "bytes");
    let mut doc = String::with_capacity(2_000_000);
    doc.push('[');
    for i in 0..20_000 {
        doc.push_str(&format!(
            "{{\"time\":{},\"label\":\"NodePower\",\"value\":{}.{}}},",
            1_587_340_800 + i * 60,
            250 + i % 40,
            i % 10
        ));
    }
    doc.push(']');
    let raw = doc.as_bytes();
    for level in 1..=9u8 {
        let start = Instant::now();
        let packed = compress(raw, Level::new(level));
        let dt = start.elapsed().as_secs_f64();
        out.measured(format_args!(
            "{:>6} {:>9.1}% {:>12.1} {:>12}\n",
            level,
            packed.len() as f64 / raw.len() as f64 * 100.0,
            raw.len() as f64 / dt / 1e6,
            packed.len()
        ));
    }
    say!(out, "\nthe default (6) sits at the knee: near-best ratio at several-fold");
    say!(out, "the speed of level 9 — the same trade zlib makes.\n");
}

fn ablate_query_shape(out: &mut Out) {
    say!(out, "== ablation 3: per-node queries vs one fleet-wide query ==\n");
    // The paper's middleware issues one query per node; an alternative is
    // a single unfiltered query per measurement. Compare physical cost.
    let db = Db::new(DbConfig::default());
    let mut batch = Vec::new();
    for i in 0..1440i64 {
        for n in 0..16 {
            batch.push(
                DataPoint::new("Power", EpochSecs::new(i * 60))
                    .tag("NodeId", format!("10.101.1.{n}"))
                    .tag("Label", "NodePower")
                    .field_f64("Reading", 250.0),
            );
        }
    }
    db.write_batch(&batch).unwrap();
    use monster_tsdb::{Aggregation, Query};
    let per_node_cost = {
        let mut total = monster_tsdb::QueryCost::default();
        for n in 0..16 {
            let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(86_400))
                .aggregate(Aggregation::Max)
                .where_tag("NodeId", format!("10.101.1.{n}"))
                .group_by_time(300);
            let (_, c) = db.query(&q).unwrap();
            total.absorb(&c);
        }
        total
    };
    let fleet_cost = {
        let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(86_400))
            .aggregate(Aggregation::Max)
            .group_by_time(300);
        let (_, c) = db.query(&q).unwrap();
        c
    };
    say!(out, "{:>18} {:>10} {:>10}", "", "per-node", "fleet-wide");
    say!(out, "{:>18} {:>10} {:>10}", "queries", per_node_cost.queries, fleet_cost.queries);
    say!(
        out,
        "{:>18} {:>10} {:>10}",
        "index entries",
        per_node_cost.index_entries,
        fleet_cost.index_entries
    );
    say!(out, "{:>18} {:>10} {:>10}", "points scanned", per_node_cost.points, fleet_cost.points);
    let disk = monster_sim::DiskModel::SSD;
    let ms = |cost| {
        let (cpu, io) = db.config().cost.price(cost, &disk, &disk);
        (cpu + io).as_millis_f64()
    };
    say!(out, "{:>18} {:>9.1}ms {:>9.1}ms", "simulated time", ms(&per_node_cost), ms(&fleet_cost));
    say!(out, "\nscanning is identical; the per-node plan pays 16x the fixed query");
    say!(out, "overhead — which is exactly what the concurrent executor then hides.");
}

fn ablate_scheduling_policy(out: &mut Out) {
    use monster_scheduler::qmaster::BackfillPolicy;
    use monster_scheduler::{JobShape, JobSpec, Qmaster, QmasterConfig};
    use monster_util::UserName;

    say!(out, "\n== ablation 4: backfill policy (wide-job wait under a stream of long jobs) ==\n");
    let run = |policy: BackfillPolicy| -> (f64, usize) {
        let cfg = QmasterConfig { nodes: 4, backfill: policy, ..QmasterConfig::default() };
        let t0 = cfg.start_time;
        let mut qm = Qmaster::new(cfg);
        // Fill half the cluster, then race one 4-node MPI job against a
        // stream of 2-hour single-node jobs.
        for i in 0..2 {
            qm.submit_at(
                t0 + 1 + i,
                JobSpec {
                    user: UserName::new("filler"),
                    name: "f.sh".into(),
                    shape: JobShape::Serial { slots: 36 },
                    runtime_secs: 3600,
                    priority: 0,
                    mem_per_slot_gib: 1.0,
                },
            );
        }
        qm.submit_at(
            t0 + 10,
            JobSpec {
                user: UserName::new("mpi"),
                name: "mpi.sh".into(),
                shape: JobShape::Parallel { nodes: 4 },
                runtime_secs: 1800,
                priority: 0,
                mem_per_slot_gib: 1.0,
            },
        );
        for i in 0..8 {
            qm.submit_at(
                t0 + 20 + i,
                JobSpec {
                    user: UserName::new("stream"),
                    name: "s.sh".into(),
                    shape: JobShape::Serial { slots: 36 },
                    runtime_secs: 7200,
                    priority: 0,
                    mem_per_slot_gib: 1.0,
                },
            );
        }
        qm.run_until(t0 + 8 * 3600);
        let mpi = qm.jobs().find(|j| j.spec.user.as_str() == "mpi").unwrap();
        let wait = mpi.wait_secs(qm.now()) as f64 / 60.0;
        (wait, qm.finished_jobs().len())
    };
    say!(out, "{:>12} {:>16} {:>14}", "policy", "MPI wait (min)", "jobs finished");
    let (w, n) = run(BackfillPolicy::Aggressive);
    say!(out, "{:>12} {:>16.1} {:>14}", "aggressive", w, n);
    let (w, n) = run(BackfillPolicy::Easy);
    say!(out, "{:>12} {:>16.1} {:>14}", "EASY", w, n);
    say!(out, "\nEASY trades a little throughput for a bounded wide-job wait —");
    say!(out, "aggressive backfill starves the MPI job for hours.");
}

pub fn ablation(_: &Fixtures, out: &mut Out) {
    ablate_batch_size(out);
    ablate_compression_level(out);
    ablate_query_shape(out);
    ablate_scheduling_policy(out);
}
