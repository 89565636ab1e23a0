//! Property tests across the TSDB stack: codecs and query/aggregation
//! invariants.

use monster_tsdb::query::Aggregation;
use monster_tsdb::{DataPoint, Db, DbConfig, Query};
use monster_util::EpochSecs;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn timestamps_codec_round_trips(ts in prop::collection::vec(-4_000_000_000i64..4_000_000_000, 0..300)) {
        let enc = monster_tsdb::encode::timestamps::encode(&ts);
        prop_assert_eq!(monster_tsdb::encode::timestamps::decode(&enc, ts.len()).unwrap(), ts);
    }

    #[test]
    fn floats_codec_round_trips(vals in prop::collection::vec(any::<f64>().prop_filter("finite", |f| f.is_finite()), 0..300)) {
        let enc = monster_tsdb::encode::floats::encode(&vals);
        let dec = monster_tsdb::encode::floats::decode(&enc, vals.len()).unwrap();
        prop_assert_eq!(dec, vals);
    }

    #[test]
    fn ints_codec_round_trips(vals in prop::collection::vec(any::<i64>(), 0..300)) {
        let enc = monster_tsdb::encode::ints::encode(&vals);
        prop_assert_eq!(monster_tsdb::encode::ints::decode(&enc, vals.len()).unwrap(), vals);
    }

    #[test]
    fn strings_codec_round_trips(vals in prop::collection::vec("\\PC{0,16}", 0..100)) {
        let enc = monster_tsdb::encode::strings::encode(&vals);
        prop_assert_eq!(monster_tsdb::encode::strings::decode(&enc, vals.len()).unwrap(), vals);
    }

    /// count() over any windowing equals the number of in-range points.
    #[test]
    fn windowed_count_conserves_points(
        times in prop::collection::vec(0i64..100_000, 1..200),
        window in 1i64..5_000,
    ) {
        let db = Db::new(DbConfig::default());
        for (i, &t) in times.iter().enumerate() {
            db.write(
                DataPoint::new("m", EpochSecs::new(t))
                    .tag("n", "x")
                    .field_f64("v", i as f64),
            ).unwrap();
        }
        let q = Query::select("m", "v", EpochSecs::new(0), EpochSecs::new(100_000))
            .aggregate(Aggregation::Count)
            .group_by_time(window);
        let (rs, _) = db.query(&q).unwrap();
        let total: f64 = rs.series.iter()
            .flat_map(|s| s.points.iter())
            .filter_map(|(_, v)| v.as_f64())
            .sum();
        prop_assert_eq!(total as usize, times.len());
    }

    /// max over windows == global max; min over windows == global min.
    #[test]
    fn window_extremes_bound_global(
        pts in prop::collection::vec((0i64..50_000, -1e6f64..1e6), 1..150),
        window in 1i64..10_000,
    ) {
        let db = Db::new(DbConfig::default());
        for &(t, v) in &pts {
            db.write(
                DataPoint::new("m", EpochSecs::new(t)).tag("n", "x").field_f64("v", v),
            ).unwrap();
        }
        let run = |agg| {
            let q = Query::select("m", "v", EpochSecs::new(0), EpochSecs::new(50_000))
                .aggregate(agg)
                .group_by_time(window);
            let (rs, _) = db.query(&q).unwrap();
            rs.series[0].points.iter().filter_map(|(_, v)| v.as_f64()).collect::<Vec<f64>>()
        };
        let global_max = pts.iter().map(|(_, v)| *v).fold(f64::NEG_INFINITY, f64::max);
        let global_min = pts.iter().map(|(_, v)| *v).fold(f64::INFINITY, f64::min);
        let maxes = run(Aggregation::Max);
        let mins = run(Aggregation::Min);
        let window_max = maxes.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let window_min = mins.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert_eq!(window_max, global_max);
        prop_assert_eq!(window_min, global_min);
    }

    /// Raw select returns exactly the in-range points, sorted by time.
    #[test]
    fn raw_select_filters_range(
        times in prop::collection::vec(0i64..10_000, 1..100),
        lo in 0i64..5_000,
        len in 1i64..5_000,
    ) {
        let db = Db::new(DbConfig::default());
        for &t in &times {
            db.write(
                DataPoint::new("m", EpochSecs::new(t)).tag("n", "x").field_i64("v", t),
            ).unwrap();
        }
        let hi = lo + len;
        let q = Query::select("m", "v", EpochSecs::new(lo), EpochSecs::new(hi));
        let (rs, _) = db.query(&q).unwrap();
        let got: Vec<i64> = rs.series.first()
            .map(|s| s.points.iter().map(|(t, _)| t.as_secs()).collect())
            .unwrap_or_default();
        let mut expect: Vec<i64> = times.iter().copied().filter(|&t| t >= lo && t < hi).collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}
