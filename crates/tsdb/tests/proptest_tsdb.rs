//! Property tests across the TSDB stack: codecs, query/aggregation
//! invariants, and write sequences held to a straight-line model.

use monster_tsdb::query::Aggregation;
use monster_tsdb::{DataPoint, Db, DbConfig, FieldValue, Query, SeriesKey};
use monster_util::EpochSecs;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One point of a generated batch, before it is spelled out: which series
/// (the `Rack` tag is optional), the order its tags arrive in, and which of
/// the fields `x`, `y` (floats) and `z` (an integer) it carries, in which
/// order.
#[derive(Debug, Clone)]
struct Spec {
    measurement: u8,
    node: u8,
    label: u8,
    rack: Option<u8>,
    tag_order: usize,
    fields: u8,
    fields_reversed: bool,
}

/// What a batch does wrong, if anything: a point that names a tag key
/// twice or has no field (the batch is refused whole), or a point whose
/// first field is a string (a type conflict, unless the column is new).
#[derive(Debug, Clone, Copy)]
enum Fault {
    None,
    RepeatedTag(usize),
    Fieldless(usize),
    Conflict(usize),
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    (0u8..2, 0u8..6, 0u8..2, 0u8..3, 0usize..6, 1u8..8, any::<bool>()).prop_map(
        |(measurement, node, label, rack, tag_order, fields, fields_reversed)| Spec {
            measurement,
            node,
            label,
            rack: (rack < 2).then_some(rack),
            tag_order,
            fields,
            fields_reversed,
        },
    )
}

fn arb_fault() -> impl Strategy<Value = Fault> {
    (0u8..10, any::<usize>()).prop_map(|(kind, at)| match kind {
        0..=5 => Fault::None,
        6 => Fault::RepeatedTag(at),
        7 => Fault::Fieldless(at),
        _ => Fault::Conflict(at),
    })
}

/// `spec` spelled out at `ts`, every value a function of `ts`.
fn point_of(spec: &Spec, ts: i64) -> DataPoint {
    let mut tags = vec![
        ("NodeId".to_string(), format!("n{}", spec.node)),
        ("Label".to_string(), format!("l{}", spec.label)),
    ];
    if let Some(rack) = spec.rack {
        tags.push(("Rack".to_string(), format!("r{rack}")));
    }
    let turn = spec.tag_order % tags.len();
    tags.rotate_left(turn);
    if spec.tag_order >= 3 {
        tags.reverse();
    }
    let mut fields = Vec::new();
    for (bit, name) in ["x", "y", "z"].into_iter().enumerate() {
        if spec.fields & 1 << bit != 0 {
            let value = match name {
                "x" => FieldValue::Float(ts as f64 * 0.5),
                "y" => FieldValue::Float(-(ts as f64)),
                _ => FieldValue::Int(ts),
            };
            fields.push((name.to_string(), value));
        }
    }
    if spec.fields_reversed {
        fields.reverse();
    }
    let measurement = if spec.measurement == 0 { "m0" } else { "m1" };
    DataPoint { measurement: measurement.to_string(), tags, fields, time: EpochSecs::new(ts) }
}

/// The store as a straight line: every acknowledged value, and what
/// `stats()` should say.
#[derive(Default)]
struct Model {
    /// (series, field) → (ts, value), in acknowledgement order.
    values: BTreeMap<(SeriesKey, String), Vec<(i64, FieldValue)>>,
    series: BTreeSet<SeriesKey>,
    points: usize,
    wire_bytes: usize,
    batches: usize,
}

impl Model {
    /// What writing `batch` should do: refused whole, or every series
    /// registered and its values landed in batch order up to the first one
    /// whose column holds another type. `Err` when the batch fails.
    fn write(&mut self, batch: &[DataPoint]) -> Result<(), ()> {
        let refused = batch.iter().any(|p| {
            p.fields.is_empty()
                || p.tags
                    .iter()
                    .enumerate()
                    .any(|(i, (k, _))| p.tags[..i].iter().any(|(j, _)| j == k))
        });
        if refused {
            return Err(());
        }
        self.batches += 1;
        self.series.extend(batch.iter().map(SeriesKey::of));
        for p in batch {
            for (name, value) in &p.fields {
                let column = self.values.entry((SeriesKey::of(p), name.clone())).or_default();
                if column.first().is_some_and(|(_, v)| v.type_name() != value.type_name()) {
                    return Err(());
                }
                column.push((p.time.as_secs(), value.clone()));
                self.points += 1;
            }
        }
        self.wire_bytes += batch.iter().map(DataPoint::wire_size).sum::<usize>();
        Ok(())
    }
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batches whose identities repeat, arrive with their tags in another
    /// order, carry another subset of their fields, name new series mid-way,
    /// or are refused or conflict part-way: raw answers and `stats()` equal
    /// the model's after every batch.
    #[test]
    fn writes_match_a_straight_line_model(
        batches in prop::collection::vec(
            (prop::collection::vec(arb_spec(), 1..12), arb_fault()),
            1..12,
        ),
    ) {
        let db = Db::new(DbConfig::default());
        let mut model = Model::default();
        let mut ts = 0i64;
        for (specs, fault) in &batches {
            let mut batch: Vec<DataPoint> = specs
                .iter()
                .map(|spec| {
                    ts += 1;
                    point_of(spec, ts)
                })
                .collect();
            let n = batch.len();
            match *fault {
                Fault::None => {}
                Fault::RepeatedTag(i) => batch[i % n].tags.push(("NodeId".into(), "again".into())),
                Fault::Fieldless(i) => batch[i % n].fields.clear(),
                Fault::Conflict(i) => batch[i % n].fields[0].1 = FieldValue::Str("s".into()),
            }
            let expect = model.write(&batch);
            let got = db.write_batch(&batch).map_err(|_| ());
            prop_assert!(got == expect, "{fault:?}: {got:?} against the model's {expect:?}");

            let stats = db.stats();
            prop_assert_eq!(stats.points, model.points);
            prop_assert_eq!(stats.wire_bytes, model.wire_bytes);
            prop_assert_eq!(stats.batches, model.batches);
            prop_assert_eq!(stats.cardinality, model.series.len());
            let measurements: BTreeSet<&str> =
                model.series.iter().map(|k| k.measurement.as_str()).collect();
            prop_assert_eq!(stats.measurements, measurements.len());
        }
        for measurement in ["m0", "m1"] {
            for field in ["x", "y", "z"] {
                let q = Query::select(measurement, field, EpochSecs::new(0), EpochSecs::new(ts + 1));
                let (rs, _) = db.query(&q).unwrap();
                let got: HashMap<SeriesKey, Vec<(i64, FieldValue)>> = rs
                    .series
                    .into_iter()
                    .map(|s| {
                        let points = s.points.into_iter().map(|(t, v)| (t.as_secs(), v)).collect();
                        ((*s.key).clone(), points)
                    })
                    .collect();
                let expect: HashMap<SeriesKey, Vec<(i64, FieldValue)>> = model
                    .values
                    .iter()
                    .filter(|((key, name), values)| {
                        key.measurement == measurement && name == field && !values.is_empty()
                    })
                    .map(|((key, _), values)| (key.clone(), values.clone()))
                    .collect();
                prop_assert!(got == expect, "{measurement}.{field}: {got:?} against {expect:?}");
            }
        }
    }
}
