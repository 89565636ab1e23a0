//! Crash-recovery gate: kill the WAL at a matrix of byte offsets, recover
//! each image, and prove zero acknowledged batches are lost — then check
//! the live SSD→HDD tiering split (the Fig. 12 / Table III device
//! comparison, re-run as a two-tier measurement instead of a
//! whole-database device swap). Its golden is `BENCH_recovery.json`: byte, batch
//! and modelled-time counts, which are a function of the code. How long a
//! recovery takes on the wall is `bench_pipeline`'s `tsdb.recover_ms`,
//! `tsdb.recover_points_per_s` and `core.recover_s`.
//!
//! Sections:
//!
//! * **crash matrix** — one WAL-backed database is built with a durable
//!   boundary mid-log (periodic group commits, unsynced tail), then the
//!   directory is copied and killed at `0`, the durable boundary, the
//!   full extent, and seeded offsets in between. Every image must
//!   recover to a whole-batch prefix with exact point accounting;
//!   recovered prefixes must be monotone in the kill offset; and any
//!   kill at or past the durable boundary must retain every acknowledged
//!   batch.
//! * **tiering** — a 5-day fleet is tiered (2 hot days on the configured
//!   SSD, 3 cold days compacted to HDD-priced segment files). Reported:
//!   the modelled archive-query slowdown vs an untiered all-SSD twin
//!   (answers asserted bit-identical), hot-window parity, segment bytes
//!   written, WAL segments reclaimed, and that the tiered image recovers
//!   to the same answers.

use super::Outcome;
use crate::power_samples;
use monster_json::jobj;
use monster_tsdb::query::Aggregation;
use monster_tsdb::recover::{copy_dir_killed_at, wal_extent};
use monster_tsdb::{DataPoint, Db, DbConfig, Query, TierConfig, WalTuning};
use monster_util::EpochSecs;

const DAY: i64 = 86_400;

const SERIES: usize = 8;
const DAYS: i64 = 2;
const CADENCE_SECS: i64 = 30;
const KILLS: usize = 64;

/// One series-hour of samples — the uniform batch the accounting checks
/// count in.
fn hour_batch(series: usize, day: i64, hour: i64, cadence: i64) -> Vec<DataPoint> {
    let from = day * DAY + hour * 3600;
    power_samples(series, from, from + 3600, cadence)
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("monster-bench-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

pub fn run() -> Outcome {
    let config = DbConfig {
        // Small segments so the matrix crosses many sealed-segment
        // boundaries (an hour of one series is a 0.9 KB record);
        // explicit-sync-only tuning pins the ack boundary.
        wal: WalTuning {
            segment_bytes: 32 << 10,
            sync_bytes: usize::MAX,
            sync_interval: std::time::Duration::from_secs(3600),
        },
        ..DbConfig::default()
    };

    // --- build the image that will be killed ----------------------------
    let dir = scratch_dir("src");
    let (db, _) = Db::recover(config, &dir).unwrap();
    let per_batch = (3600 / CADENCE_SECS) as usize;
    let mut batches = 0usize;
    for d in 0..DAYS {
        for h in 0..24 {
            for s in 0..SERIES {
                db.write_batch(&hour_batch(s, d, h, CADENCE_SECS)).unwrap();
                batches += 1;
                if batches.is_multiple_of(5) {
                    db.wal_sync().unwrap(); // group-commit: ack every 5th batch
                }
            }
        }
    }
    let status = db.wal_status().unwrap();
    let acked = status.acked_records;
    let wal_segments = status.segments;
    let unsynced = status.unsynced_bytes as u64;
    let total_points = batches * per_batch;
    drop(db);

    let extent = wal_extent(&dir).unwrap();
    let durable = extent - unsynced;
    assert!(acked as usize <= batches && acked > 0);

    // --- the kill matrix: 0, durable boundary, extent, seeded offsets ---
    let mut offsets = vec![0u64, durable, extent];
    let mut x = 0x5EED_CAFE_u64; // fixed seed: the matrix is reproducible
    while offsets.len() < KILLS {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        offsets.push(x % (extent + 1));
    }
    offsets.sort_unstable();

    let mut prev_replayed = 0u64;
    let mut full_replayed = 0u64;
    for (i, &cut) in offsets.iter().enumerate() {
        let copy = scratch_dir(&format!("kill-{i}"));
        copy_dir_killed_at(&dir, &copy, cut).unwrap();
        let (recovered, report) = Db::recover(config, &copy).unwrap();

        // The gate: whole-batch prefix, exact accounting, monotone in the
        // offset, and nothing acknowledged lost past the durable boundary.
        assert_eq!(report.records_failed, 0, "kill at {cut}: CRC-valid records failed to parse");
        let k = report.replayed_records;
        assert_eq!(
            recovered.stats().points,
            k as usize * per_batch,
            "kill at {cut}: partial batch visible after recovery"
        );
        assert!(k >= prev_replayed, "kill at {cut}: recovered prefix shrank as the cut grew");
        prev_replayed = k;
        if cut >= durable {
            assert!(
                k >= acked,
                "kill at {cut} >= durable boundary {durable} lost acked batches: {k} < {acked}"
            );
        }
        if cut == extent {
            assert_eq!(k as usize, batches, "full image must replay every batch");
            full_replayed = k;
        }
        drop(recovered);
        std::fs::remove_dir_all(&copy).ok();
    }
    std::fs::remove_dir_all(&dir).ok();

    // --- tiering: the live SSD→HDD split (Fig. 12 / Table III) ----------
    let hot_days = 2i64;
    let cold_days = 3i64;
    let tier_dir = scratch_dir("tier");
    // Hot tier on SSD (the default `DbConfig::disk` is the paper's HDD
    // baseline), cold tier on HDD — the two devices Fig. 12 compares.
    let tiered_config = DbConfig {
        disk: monster_sim::DiskModel::SSD,
        tiering: Some(TierConfig::days(hot_days)),
        wal: WalTuning { segment_bytes: 64 << 10, ..WalTuning::default() },
        ..DbConfig::default()
    };
    let (tiered, _) = Db::recover(tiered_config, &tier_dir).unwrap();
    let untiered = Db::new(DbConfig { disk: monster_sim::DiskModel::SSD, ..DbConfig::default() }); // all-SSD twin
    for d in 0..hot_days + cold_days {
        for s in 0..SERIES {
            for h in 0..24 {
                let b = hour_batch(s, d, h, 60);
                tiered.write_batch(&b).unwrap();
                untiered.write_batch(&b).unwrap();
            }
        }
    }
    tiered.wal_sync().unwrap();
    let tier_report =
        tiered.tier_cold_shards(EpochSecs::new((hot_days + cold_days) * DAY)).unwrap();
    assert_eq!(tier_report.shards_tiered as i64, cold_days);

    let archive_q =
        Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(cold_days * DAY))
            .aggregate(Aggregation::Mean)
            .group_by_time(3600);
    let hot_q = Query::select(
        "Power",
        "Reading",
        EpochSecs::new(cold_days * DAY),
        EpochSecs::new((hot_days + cold_days) * DAY),
    )
    .aggregate(Aggregation::Mean)
    .group_by_time(3600);

    let (rs_cold_t, cost_cold_t) = tiered.query(&archive_q).unwrap();
    let (rs_cold_u, cost_cold_u) = untiered.query(&archive_q).unwrap();
    let (rs_hot_t, cost_hot_t) = tiered.query(&hot_q).unwrap();
    let (rs_hot_u, cost_hot_u) = untiered.query(&hot_q).unwrap();
    assert_eq!(rs_cold_t, rs_cold_u, "tiering changed archive answers");
    assert_eq!(rs_hot_t, rs_hot_u, "tiering changed hot answers");
    assert_eq!(cost_cold_t.bytes_cold, cost_cold_t.bytes, "archive query must be all-cold");
    assert_eq!(cost_hot_t.bytes_cold, 0, "hot query must stay on the hot tier");

    let archive_hdd = tiered.simulate_elapsed(&cost_cold_t).as_secs_f64();
    let archive_ssd = untiered.simulate_elapsed(&cost_cold_u).as_secs_f64();
    let hot_tiered = tiered.simulate_elapsed(&cost_hot_t).as_secs_f64();
    let hot_untiered = untiered.simulate_elapsed(&cost_hot_u).as_secs_f64();
    let archive_slowdown = archive_hdd / archive_ssd;
    // The paper's device gap (Fig. 12: HDD vs SSD query response) must
    // show through the tier split; identical hot-path pricing must not.
    assert!(
        archive_slowdown > 1.5,
        "archive slowdown {archive_slowdown:.2}x — HDD pricing not applied to cold shards"
    );
    assert!((hot_tiered - hot_untiered).abs() < 1e-9, "hot-tier pricing drifted");

    // Recovery from the tiered image: cold shards from segment files, hot
    // from WAL replay.
    drop(tiered);
    let (retiered, tier_rec) = Db::recover(tiered_config, &tier_dir).unwrap();
    assert_eq!(tier_rec.segment_files_loaded as i64, cold_days);
    let (rs_again, _) = retiered.query(&archive_q).unwrap();
    assert_eq!(rs_again, rs_cold_u, "tiered recovery changed archive answers");
    drop(retiered);
    std::fs::remove_dir_all(&tier_dir).ok();

    let doc = jobj! {
        "bench" => "crash_recovery",
        "workload" => jobj! {
            "series" => SERIES as i64,
            "days" => DAYS,
            "cadence_secs" => CADENCE_SECS,
            "points" => total_points as i64,
            "batches" => batches as i64,
        },
        "crash_matrix" => jobj! {
            "kills" => offsets.len() as i64,
            "wal_extent_bytes" => extent as i64,
            "wal_segments" => wal_segments as i64,
            "durable_boundary_bytes" => durable as i64,
            "acked_batches" => acked as i64,
            "lost_acked_batches" => 0,
            "full_image_replayed_batches" => full_replayed as i64,
        },
        "tiering" => jobj! {
            "hot_days" => hot_days,
            "cold_days" => cold_days,
            "shards_tiered" => tier_report.shards_tiered as i64,
            "points_tiered" => tier_report.points_tiered as i64,
            "segment_bytes_written" => tier_report.segment_bytes_written as i64,
            "wal_segments_reclaimed" => tier_report.wal_segments_reclaimed as i64,
            "archive_modelled_hdd_secs" => archive_hdd,
            "archive_modelled_ssd_secs" => archive_ssd,
            "archive_slowdown" => archive_slowdown,
            "hot_modelled_secs" => hot_tiered,
        },
    };
    Outcome { doc, walls: Vec::new() }
}
