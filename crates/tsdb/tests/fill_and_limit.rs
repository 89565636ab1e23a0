//! Behavioural tests for `fill()` and `LIMIT` — the InfluxQL conveniences
//! analysis consumers lean on when series have collection gaps (BMC
//! timeouts leave holes; see the failure-injection suite).

use monster_tsdb::query::{parse_query, Aggregation, Fill};
use monster_tsdb::{DataPoint, Db, DbConfig, FieldValue, Query};
use monster_util::EpochSecs;

/// Samples at minutes 0-4 and 10-14 of an hour, leaving a 5-window gap at
/// minutes 5-9 when grouped by 60 s.
fn gappy_db() -> Db {
    let db = Db::new(DbConfig::default());
    for m in (0..5).chain(10..15) {
        db.write(
            DataPoint::new("Power", EpochSecs::new(m * 60))
                .tag("NodeId", "10.101.1.1")
                .field_f64("Reading", 100.0 + m as f64 * 10.0),
        )
        .unwrap();
    }
    db
}

fn run(db: &Db, fill: Fill, range_end: i64) -> Vec<(i64, f64)> {
    let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(range_end))
        .aggregate(Aggregation::Max)
        .group_by_time(60)
        .fill(fill);
    let (rs, _) = db.query(&q).unwrap();
    rs.series[0].points.iter().map(|(t, v)| (t.as_secs(), v.as_f64().unwrap())).collect()
}

#[test]
fn fill_none_omits_gap_windows() {
    let db = gappy_db();
    let pts = run(&db, Fill::None, 900);
    assert_eq!(pts.len(), 10);
    assert!(pts.iter().all(|(t, _)| !(300..600).contains(t)));
}

#[test]
fn fill_zero_materializes_whole_range() {
    let db = gappy_db();
    let pts = run(&db, Fill::Zero, 1080); // 18 windows
    assert_eq!(pts.len(), 18);
    // Gap windows are zero; trailing empty windows too.
    let at = |t: i64| pts.iter().find(|(pt, _)| *pt == t).unwrap().1;
    assert_eq!(at(300), 0.0);
    assert_eq!(at(540), 0.0);
    assert_eq!(at(900), 0.0);
    assert_eq!(at(0), 100.0);
    assert_eq!(at(600), 200.0);
}

#[test]
fn fill_previous_carries_forward() {
    let db = gappy_db();
    let pts = run(&db, Fill::Previous, 1080);
    let at = |t: i64| pts.iter().find(|(pt, _)| *pt == t).unwrap().1;
    // Gap carries minute 4's value (140).
    assert_eq!(at(300), 140.0);
    assert_eq!(at(540), 140.0);
    // Trailing windows carry minute 14's value (240).
    assert_eq!(at(1020), 240.0);
    // No windows before the first sample.
    assert_eq!(pts[0].0, 0);
}

#[test]
fn fill_linear_interpolates_interior_gaps() {
    let db = gappy_db();
    let pts = run(&db, Fill::Linear, 1080);
    let at = |t: i64| pts.iter().find(|(pt, _)| *pt == t).unwrap().1;
    // Between (240,140) and (600,200): value at 300 is 140 + 60*(60/360).
    assert!((at(300) - 150.0).abs() < 1e-9);
    assert!((at(420) - 170.0).abs() < 1e-9);
    assert!((at(540) - 190.0).abs() < 1e-9);
    // Linear does not extrapolate past the last sample.
    assert_eq!(pts.last().unwrap().0, 840);
}

#[test]
fn limit_truncates_per_series() {
    let db = gappy_db();
    let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(900))
        .aggregate(Aggregation::Max)
        .group_by_time(60)
        .limit(3);
    let (rs, _) = db.query(&q).unwrap();
    assert_eq!(rs.series[0].points.len(), 3);
    assert_eq!(rs.series[0].points[0].0, EpochSecs::new(0));

    // Raw select honours LIMIT too.
    let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(900)).limit(2);
    let (rs, _) = db.query(&q).unwrap();
    assert_eq!(rs.series[0].points.len(), 2);
}

#[test]
fn parser_round_trips_fill_and_limit() {
    let text = "SELECT max(Reading) FROM Power WHERE NodeId='10.101.1.1' AND \
                time >= '2020-04-20T12:00:00Z' AND time < '2020-04-21T12:00:00Z' \
                GROUP BY time(5m) fill(previous) LIMIT 100";
    let q = parse_query(text).unwrap();
    assert_eq!(q.fill, Fill::Previous);
    assert_eq!(q.limit, Some(100));
    let q2 = parse_query(&q.to_influxql()).unwrap();
    assert_eq!(q, q2);
    // fill(0) spelling.
    let q = parse_query(
        "SELECT mean(v) FROM m WHERE time >= 0 AND time < 100 GROUP BY time(10s) fill(0)",
    )
    .unwrap();
    assert_eq!(q.fill, Fill::Zero);
}

#[test]
fn parser_rejects_bad_fill_and_limit() {
    for bad in [
        "SELECT mean(v) FROM m WHERE time >= 0 AND time < 100 GROUP BY time(10s) fill(bogus)",
        "SELECT mean(v) FROM m WHERE time >= 0 AND time < 100 GROUP BY time(10s) fill()",
        "SELECT v FROM m WHERE time >= 0 AND time < 100 LIMIT 0",
        "SELECT v FROM m WHERE time >= 0 AND time < 100 LIMIT x",
        // fill without GROUP BY is invalid.
        "SELECT mean(v) FROM m WHERE time >= 0 AND time < 100 fill(0)",
        // 4·10⁹ windows to fill, and a first window before i64::MIN.
        "SELECT max(v) FROM m WHERE time >= 0 AND time < 4000000000 GROUP BY time(1s) fill(0)",
        "SELECT max(v) FROM m WHERE time >= -9223372036854775807 AND \
         time < -9123372036854775807 GROUP BY time(100000000000000000s) fill(0)",
    ] {
        assert!(parse_query(bad).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn fill_zero_on_empty_series_returns_all_windows() {
    let db = Db::new(DbConfig::default());
    db.write(
        DataPoint::new("Power", EpochSecs::new(5000)).tag("NodeId", "n1").field_f64("Reading", 1.0),
    )
    .unwrap();
    // Query a disjoint range: series matches, but no in-range data, so the
    // series has no points at all (fill only applies once data exists —
    // InfluxDB behaves the same for fully-empty series).
    let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(300))
        .aggregate(Aggregation::Max)
        .group_by_time(60)
        .fill(Fill::Previous);
    let (rs, _) = db.query(&q).unwrap();
    assert!(rs.series.is_empty() || rs.series[0].points.is_empty());
    let _ = FieldValue::Float(0.0);
}
