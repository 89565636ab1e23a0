//! The query-path evaluation over populated deployments: Figs. 10–19.

use super::{Fixtures, Out, OH7, OS7, PH3, PH7, PS7};
use crate::{data_start, query_grid, secs, INTERVALS, RANGES_DAYS};
use monster_builder::{build_plan, exec::execute, BuilderRequest, ExecMode, QueryGroup};
use monster_collector::SchemaVersion;
use monster_compress::{compress, Level};
use monster_sim::{NetModel, VDuration};
use monster_tsdb::Aggregation;
use monster_util::bytesize::ByteSize;
use std::time::Instant;

/// Fig. 10 — query & processing time at different time intervals over
/// different time ranges, on the **original** configuration: previous
/// schema, HDD storage, sequential querying.
///
/// Paper shape: times grow with range, shrink with interval; even the best
/// case is ~50 s (Metrics Builder "is not a responsive service"), the
/// worst ~260 s.
pub fn fig10(fx: &Fixtures, out: &mut Out) {
    let m = fx.get(PH7);

    say!(out, "FIG. 10 — QUERY & PROCESSING TIME (previous schema, HDD, sequential)\n");
    say!(out, "simulated seconds at 467-node scale; rows = time range (days), cols = interval\n");
    put!(out, "{:>6}", "days");
    for &iv in &INTERVALS {
        put!(out, "{:>10}", monster_util::time::format_interval(iv));
    }
    say!(out);
    let grid = query_grid(&m, &RANGES_DAYS, &INTERVALS, ExecMode::Sequential);
    for &days in &RANGES_DAYS {
        put!(out, "{days:>6}");
        for &iv in &INTERVALS {
            let t = grid
                .iter()
                .find(|(d, i, _)| *d == days && *i == iv)
                .map(|(_, _, t)| *t)
                .expect("grid cell");
            put!(out, "{:>10}", secs(t));
        }
        say!(out);
    }
    say!(out, "\npaper: ~50 s best case, ~260 s at 7 days / 5 min; grows with range, shrinks with interval");
}

/// Fig. 11 — time consumption breakdown for querying and processing data
/// points: BMC-related queries ≈80 %, UGE ≈10 %, the rest shared
/// processing.
///
/// Methodology mirrors the paper's cProfile run: the total middleware time
/// attributable to each query group (its queries *and* the marshalling of
/// their results) is measured by executing each group's sub-plan.
pub fn fig11(fx: &Fixtures, out: &mut Out) {
    let m = fx.get(PH3);
    let t0 = data_start();
    let req = BuilderRequest::new(t0, t0 + 3 * 86_400, 300, Aggregation::Max).unwrap();
    let plan = build_plan(SchemaVersion::Previous, &m.node_ids(), &req);

    let full = execute(m.db(), &plan, ExecMode::Sequential).expect("full plan");
    let total = full.query_processing_time().as_secs_f64();

    say!(out, "FIG. 11 — TIME CONSUMPTION BREAKDOWN (3-day query, 5 m windows)\n");
    let mut accounted = 0.0;
    let mut bmc_share = 0.0;
    for group in [QueryGroup::Bmc, QueryGroup::Uge, QueryGroup::Jobs] {
        let sub: Vec<_> = plan.iter().filter(|p| p.group == group).cloned().collect();
        let part = execute(m.db(), &sub, ExecMode::Sequential).expect("sub plan");
        let t = part.query_processing_time().as_secs_f64();
        let share = t / total * 100.0;
        accounted += share;
        if group == QueryGroup::Bmc {
            bmc_share = share;
        }
        let bar = "#".repeat((share / 2.0) as usize);
        say!(out, "{:<6} {:7.1} s  {:5.1}%  |{bar}", group.name(), t, share);
    }
    let rest = (100.0 - accounted).max(0.0);
    say!(
        out,
        "other  {:7.1} s  {:5.1}%  |{}  (shared planning/merge overheads)",
        total * rest / 100.0,
        rest,
        "#".repeat((rest / 2.0) as usize)
    );
    say!(out, "\ntotal: {total:.1} s");
    say!(out, "paper: BMC ≈80%, UGE ≈10%; queries together ≈90% of total");
    assert!(bmc_share > 55.0, "BMC share collapsed: {bmc_share:.1}%");
}

/// Fig. 12 — query & processing time using HDDs vs SSDs (previous schema,
/// sequential). Paper: SSDs help, but only 1.5–2.1× — "the performance
/// gains are limited".
pub fn fig12(fx: &Fixtures, out: &mut Out) {
    let hdd = fx.get(PH7);
    let ssd = fx.get(PS7);

    say!(out, "FIG. 12 — HDD vs SSD (previous schema, sequential, 5 m windows)\n");
    say!(out, "{:>6} {:>10} {:>10} {:>9}", "days", "HDD (s)", "SSD (s)", "speedup");
    let intervals = [300i64];
    let g_hdd = query_grid(&hdd, &RANGES_DAYS, &intervals, ExecMode::Sequential);
    let g_ssd = query_grid(&ssd, &RANGES_DAYS, &intervals, ExecMode::Sequential);
    for (h, s) in g_hdd.iter().zip(&g_ssd) {
        let speedup = h.2.as_secs_f64() / s.2.as_secs_f64();
        say!(out, "{:>6} {:>10} {:>10} {:>8.2}x", h.0, secs(h.2), secs(s.2), speedup);
    }
    say!(out, "\npaper: 1.5x–2.1x — faster storage alone does not make the service responsive");
}

/// Fig. 13 — data volumes of the previous schema vs the optimized schema.
/// Paper: the optimized schema holds the same information in 28.02 % of
/// the volume (13.5 months of production data).
pub fn fig13(fx: &Fixtures, out: &mut Out) {
    let old = fx.get(PH7);
    let new = fx.get(OH7);
    let so = old.db().stats();
    let sn = new.db().stats();

    say!(out, "FIG. 13 — DATA VOLUMES: PREVIOUS vs OPTIMIZED SCHEMA (7 days, 16 nodes)\n");
    say!(out, "{:<22} {:>16} {:>16}", "", "previous", "optimized");
    say!(out, "{:<22} {:>16} {:>16}", "points", so.points, sn.points);
    say!(out, "{:<22} {:>16} {:>16}", "series cardinality", so.cardinality, sn.cardinality);
    say!(out, "{:<22} {:>16} {:>16}", "measurements", so.measurements, sn.measurements);
    say!(
        out,
        "{:<22} {:>16} {:>16}",
        "raw wire volume",
        ByteSize(so.wire_bytes as u64).to_string(),
        ByteSize(sn.wire_bytes as u64).to_string()
    );
    say!(
        out,
        "{:<22} {:>16} {:>16}",
        "at-rest volume",
        ByteSize(so.encoded_bytes as u64).to_string(),
        ByteSize(sn.encoded_bytes as u64).to_string()
    );
    say!(
        out,
        "\noptimized / previous: wire {:.2}%, at rest {:.2}%, cardinality {:.2}%",
        sn.wire_bytes as f64 / so.wire_bytes as f64 * 100.0,
        sn.encoded_bytes as f64 / so.encoded_bytes as f64 * 100.0,
        sn.cardinality as f64 / so.cardinality as f64 * 100.0,
    );
    say!(out, "paper: optimized schema = 28.02% of the previous schema's volume");
}

/// Fig. 14 — query & processing time: previous schema vs optimized schema,
/// both on SSD, sequential. Paper: 1.6–1.76× from the schema redesign.
pub fn fig14(fx: &Fixtures, out: &mut Out) {
    let old = fx.get(PS7);
    let new = fx.get(OS7);

    say!(out, "FIG. 14 — PREVIOUS vs OPTIMIZED SCHEMA (SSD, sequential, 5 m windows)\n");
    say!(out, "{:>6} {:>12} {:>12} {:>9}", "days", "old (s)", "new (s)", "speedup");
    let intervals = [300i64];
    let g_old = query_grid(&old, &RANGES_DAYS, &intervals, ExecMode::Sequential);
    let g_new = query_grid(&new, &RANGES_DAYS, &intervals, ExecMode::Sequential);
    for (o, n) in g_old.iter().zip(&g_new) {
        let speedup = o.2.as_secs_f64() / n.2.as_secs_f64();
        say!(out, "{:>6} {:>12} {:>12} {:>8.2}x", o.0, secs(o.2), secs(n.2), speedup);
    }
    say!(out, "\npaper: 1.6x–1.76x — \"database schema plays a vital role\"");
}

/// Fig. 15 — sequential vs concurrent querying (optimized schema, SSD).
/// Paper: 5.5–6.5× from issuing the per-measurement queries concurrently.
pub fn fig15(fx: &Fixtures, out: &mut Out) {
    let m = fx.get(OS7);

    say!(out, "FIG. 15 — SEQUENTIAL vs CONCURRENT QUERYING (optimized schema, SSD, 5 m windows)\n");
    say!(out, "{:>6} {:>14} {:>14} {:>9}", "days", "sequential (s)", "concurrent (s)", "speedup");
    let intervals = [300i64];
    let seq = query_grid(&m, &RANGES_DAYS, &intervals, ExecMode::Sequential);
    let con = query_grid(&m, &RANGES_DAYS, &intervals, ExecMode::Concurrent { workers: 16 });
    for (s, c) in seq.iter().zip(&con) {
        let speedup = s.2.as_secs_f64() / c.2.as_secs_f64();
        say!(out, "{:>6} {:>14} {:>14} {:>8.2}x", s.0, secs(s.2), secs(c.2), speedup);
    }
    say!(out, "\npaper: 5.5x–6.5x — \"concurrent querying is another vital technique\"");
}

/// Fig. 16 — performance achievements of the optimizations, applied
/// cumulatively. Paper: 17–25× overall; 3.78 s when querying 6 hours,
/// 12.9 s when querying 72 hours.
pub fn fig16(fx: &Fixtures, out: &mut Out) {
    let base = fx.get(PH7);
    let ssd = fx.get(PS7);
    let schema = fx.get(OS7);
    // `schema` serves both the sequential and the concurrent final config.

    let t0 = data_start();
    let hours = [6i64, 24, 72, 168];
    say!(out, "FIG. 16 — CUMULATIVE OPTIMIZATION ACHIEVEMENTS (5 m windows)\n");
    say!(
        out,
        "{:>7} {:>12} {:>10} {:>12} {:>12} {:>9}",
        "hours",
        "original",
        "+SSD",
        "+schema",
        "+concurrent",
        "overall"
    );
    for h in hours {
        let req = BuilderRequest::new(t0, t0 + h * 3600, 300, Aggregation::Max).unwrap();
        let t_base =
            base.builder_query(&req, ExecMode::Sequential).unwrap().query_processing_time();
        let t_ssd = ssd.builder_query(&req, ExecMode::Sequential).unwrap().query_processing_time();
        let t_schema =
            schema.builder_query(&req, ExecMode::Sequential).unwrap().query_processing_time();
        let t_conc = schema
            .builder_query(&req, ExecMode::Concurrent { workers: 16 })
            .unwrap()
            .query_processing_time();
        say!(
            out,
            "{:>7} {:>12} {:>10} {:>12} {:>12} {:>8.1}x",
            h,
            secs(t_base),
            secs(t_ssd),
            secs(t_schema),
            secs(t_conc),
            t_base.as_secs_f64() / t_conc.as_secs_f64()
        );
    }
    say!(
        out,
        "\npaper: 17x–25x overall; 3.78 s @ 6 h and 12.9 s @ 72 h in the final configuration"
    );
}

/// Fig. 17 — query-processing time vs transmission time for a remote
/// consumer, uncompressed. Paper: for long ranges, transmission exceeds
/// query-processing by up to 1.65×.
pub fn fig17(fx: &Fixtures, out: &mut Out) {
    let m = fx.get(OS7);
    let t0 = data_start();
    let amp = m.db().config().cost.amplification;
    let net = NetModel::CAMPUS;

    say!(out, "FIG. 17 — QUERY-PROCESSING vs TRANSMISSION (uncompressed, campus consumer)\n");
    say!(
        out,
        "{:>7} {:>14} {:>14} {:>14} {:>8}",
        "hours",
        "query+proc (s)",
        "payload (MB)",
        "transmit (s)",
        "tx share"
    );
    for h in [6i64, 24, 72, 168] {
        let req = BuilderRequest::new(t0, t0 + h * 3600, 300, Aggregation::Max).unwrap();
        let answer = m.builder_query(&req, ExecMode::Concurrent { workers: 16 }).unwrap();
        // Payload at full cluster scale: bytes grow linearly with nodes.
        let raw_bytes = answer.document.to_string_compact().len();
        let full_bytes = (raw_bytes as f64 * amp) as u64;
        let qp = answer.query_processing_time();
        let tx = net.transfer_cost(full_bytes);
        let share = tx.as_secs_f64() / (tx + qp).as_secs_f64() * 100.0;
        say!(
            out,
            "{:>7} {:>14.2} {:>14.1} {:>14.2} {:>7.1}%",
            h,
            qp.as_secs_f64(),
            full_bytes as f64 / 1e6,
            tx.as_secs_f64(),
            share
        );
    }
    say!(out, "\npaper: transmission grows past query time on long ranges (up to 1.65x longer)");
}

/// Fig. 18 — data volumes of uncompressed vs compressed responses.
/// Paper: compressed ≈5 % of uncompressed (zlib on JSON).
pub fn fig18(fx: &Fixtures, out: &mut Out) {
    let m = fx.get(OS7);
    let t0 = data_start();

    say!(out, "FIG. 18 — RESPONSE VOLUME, UNCOMPRESSED vs COMPRESSED\n");
    say!(out, "{:>7} {:>14} {:>14} {:>8}", "hours", "uncompressed", "compressed", "ratio");
    for h in [6i64, 24, 72, 168] {
        let req = BuilderRequest::new(t0, t0 + h * 3600, 300, Aggregation::Max).unwrap();
        let answer = m.builder_query(&req, ExecMode::Concurrent { workers: 16 }).unwrap();
        let json = answer.document.to_string_compact();
        let packed = compress(json.as_bytes(), Level::default());
        say!(
            out,
            "{:>7} {:>14} {:>14} {:>7.1}%",
            h,
            ByteSize(json.len() as u64).to_string(),
            ByteSize(packed.len() as u64).to_string(),
            packed.len() as f64 / json.len() as f64 * 100.0
        );
    }
    say!(out, "\npaper: compressed volume ≈5% of uncompressed");
}

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

/// Fig. 19 — end-to-end response time with and without compression.
/// Paper: compression makes the overall response ≈2× faster even though
/// query-processing rises slightly (the compression work itself).
///
/// The compression work is priced at what this host's codec does on one
/// core, measured here on each response as it is built: the speedup in
/// the last column exists on the wall, not only in the model. Every
/// column after `plain (s)` therefore moves with the host and is measured
/// text.
pub fn fig19(fx: &Fixtures, out: &mut Out) {
    let m = fx.get(OS7);
    let t0 = data_start();
    let amp = m.db().config().cost.amplification;
    let net = NetModel::CAMPUS;

    say!(out, "FIG. 19 — RESPONSE TIME, UNCOMPRESSED vs COMPRESSED (campus consumer)\n");
    say!(
        out,
        "{:>7} {:>14} {:>14} {:>9} {:>16}",
        "hours",
        "plain (s)",
        "compressed (s)",
        "speedup",
        "deflate (MB/s)"
    );
    for h in [6i64, 24, 72, 168] {
        let req = BuilderRequest::new(t0, t0 + h * 3600, 300, Aggregation::Max).unwrap();
        let answer = m.builder_query(&req, ExecMode::Concurrent { workers: 16 }).unwrap();
        let qp = answer.query_processing_time();
        let json = answer.document.to_string_compact();
        let packed = compress(json.as_bytes(), Level::default());
        let deflate_rate = one_core_bytes_per_sec(json.as_bytes());
        let full_raw = (json.len() as f64 * amp) as u64;
        let full_packed = (packed.len() as f64 * amp) as u64;

        let t_plain = qp + net.transfer_cost(full_raw);
        let t_comp = qp
            + VDuration::from_secs_f64(full_raw as f64 / deflate_rate)
            + net.transfer_cost(full_packed);
        put!(out, "{:>7} {:>14.2}", h, t_plain.as_secs_f64());
        out.measured(format_args!(
            " {:>14.2} {:>8.2}x {:>16.1}",
            t_comp.as_secs_f64(),
            t_plain.as_secs_f64() / t_comp.as_secs_f64(),
            deflate_rate / 1e6
        ));
        say!(out);
    }
    say!(out, "\ndeflate priced at the measured one-core rate of this host (last column)");
    say!(out, "paper: ≈2x faster overall with compression on long ranges");
}
