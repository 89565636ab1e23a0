//! Property test: every answer equals a straight-line model of the query.
//!
//! The other read-path properties hold the engine to itself (a batch to
//! single queries, pushdown to forced decode, many threads to one). This
//! one computes each answer from the written points alone: a `BTreeMap`
//! from series key to that series' `field → time → value` maps, filtered by
//! range, bucketed into epoch-aligned windows, folded, filled and cut, with
//! no engine code on the way.
//!
//! The data spans four shards with unique timestamps per series. About
//! half of it is written first and compacted into sealed blocks, the rest
//! stays in raw tails, and a few stragglers arrive last, newest first, so
//! some tails are out of time order. Queries are raw selects and
//! `max`/`min`/`count`/`first`/`last`, each with or without a `NodeId`
//! predicate, `GROUP BY time`, `fill(none|0|previous)` and `LIMIT`.
//! `sum` and `mean` are left to `pushdown_equivalence.rs`: their float
//! result depends on the order the additions run in.

use monster_tsdb::query::Aggregation;
use monster_tsdb::{DataPoint, Db, DbConfig, FieldValue, Fill, Query, ResultSet, SeriesKey};
use monster_util::EpochSecs;
use proptest::prelude::*;
use std::collections::BTreeMap;

const SHARD: i64 = 600;
const HORIZON: i64 = 4 * SHARD;
const NODES: [&str; 3] = ["n1", "n2", "n3"];

/// One generated write: which series, when, what, and in which phase it
/// lands (0 = compacted, 1 = raw tail, 2 = straggler).
#[derive(Debug, Clone)]
struct Write {
    measurement: &'static str,
    node: usize,
    label: &'static str,
    ts: i64,
    reading: f64,
    state: Option<&'static str>,
    phase: u8,
}

impl Write {
    fn point(&self) -> DataPoint {
        let p = DataPoint::new(self.measurement, EpochSecs::new(self.ts))
            .tag("NodeId", NODES[self.node])
            .tag("Label", self.label)
            .field_f64("Reading", self.reading);
        match self.state {
            Some(s) => p.field_str("State", s),
            None => p,
        }
    }
}

fn arb_write() -> impl Strategy<Value = Write> {
    (
        prop_oneof![Just("Power"), Just("Thermal")],
        0..NODES.len(),
        prop_oneof![Just("a"), Just("b")],
        0..HORIZON,
        // Eighths: exact in every encoding, with repeats and negatives.
        (-400i32..400).prop_map(|v| f64::from(v) / 8.0),
        prop_oneof![Just(None), Just(Some("ok")), Just(Some("down"))],
        prop::sample::select(vec![0u8, 0, 0, 0, 1, 1, 1, 1, 2]),
    )
        .prop_map(|(measurement, node, label, ts, reading, state, phase)| Write {
            measurement,
            node,
            label,
            ts,
            reading,
            state,
            phase,
        })
}

fn arb_query() -> impl Strategy<Value = Query> {
    (
        prop_oneof![Just("Power"), Just("Thermal"), Just("Absent")],
        prop::sample::select(vec!["Reading", "Reading", "Reading", "State", "Missing"]),
        prop_oneof![
            Just(None),
            Just(Some(Aggregation::Max)),
            Just(Some(Aggregation::Min)),
            Just(Some(Aggregation::Count)),
            Just(Some(Aggregation::First)),
            Just(Some(Aggregation::Last)),
        ],
        prop_oneof![Just(None), Just(Some("n1")), Just(Some("n3")), Just(Some("nX"))],
        prop_oneof![
            Just(None),
            Just(Some(7i64)),
            Just(Some(60)),
            Just(Some(300)),
            Just(Some(1800))
        ],
        (
            prop_oneof![Just(Fill::None), Just(Fill::Zero), Just(Fill::Previous)],
            prop::sample::select(vec![None, None, None, Some(1usize), Some(2), Some(4)]),
        ),
        (-SHARD / 2..HORIZON, 1..HORIZON + SHARD),
    )
        .prop_map(|(measurement, field, agg, node, window, (fill, limit), (start, len))| {
            let mut q = Query::select(
                measurement,
                field,
                EpochSecs::new(start),
                EpochSecs::new(start + len),
            );
            q.agg = agg;
            // GROUP BY needs an aggregation, fill() needs a GROUP BY.
            q.group_by = window.filter(|_| agg.is_some());
            q.fill = if q.group_by.is_some() { fill } else { Fill::None };
            q.limit = limit;
            if let Some(node) = node {
                q = q.where_tag("NodeId", node);
            }
            q
        })
}

/// Every series ever written (whatever its fields), each field's points by
/// time.
type Model = BTreeMap<SeriesKey, BTreeMap<&'static str, BTreeMap<i64, FieldValue>>>;

/// An answer, series by series in key order.
type Answer = Vec<(SeriesKey, Vec<(i64, FieldValue)>)>;

fn model_of(writes: &[Write]) -> Model {
    let mut model = Model::new();
    for w in writes {
        let fields = model.entry(SeriesKey::of(&w.point())).or_default();
        fields.entry("Reading").or_default().insert(w.ts, FieldValue::Float(w.reading));
        if let Some(s) = w.state {
            fields.entry("State").or_default().insert(w.ts, FieldValue::Str(s.into()));
        }
    }
    model
}

/// The answer to `q`, from the model alone.
fn model_answer(model: &Model, q: &Query) -> Answer {
    let (qs, qe) = (q.start.as_secs(), q.end.as_secs());
    let mut answer = Answer::new();
    for (key, fields) in model {
        let selected = key.measurement == q.measurement
            && q.predicates.iter().all(|(k, v)| key.tag(k) == Some(v.as_str()));
        if !selected {
            continue;
        }
        let in_range: Vec<(i64, &FieldValue)> = match fields.get(q.field.as_str()) {
            Some(points) => points.range(qs..qe).map(|(t, v)| (*t, v)).collect(),
            None => Vec::new(),
        };
        let mut points: Vec<(i64, FieldValue)> = match q.agg {
            None => in_range.into_iter().map(|(t, v)| (t, v.clone())).collect(),
            Some(agg) => {
                // Window start → the values it folds, in time order.
                let mut windows: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
                for (t, v) in in_range {
                    let x = match (v, agg) {
                        (FieldValue::Float(x), _) => *x,
                        // count counts every value; the others skip text.
                        (_, Aggregation::Count) => 0.0,
                        _ => continue,
                    };
                    let window = q.group_by.map_or(qs, |w| t.div_euclid(w) * w);
                    windows.entry(window).or_default().push(x);
                }
                let folded: BTreeMap<i64, f64> = windows
                    .into_iter()
                    .map(|(t, xs)| {
                        let x = match agg {
                            Aggregation::Max => {
                                xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                            }
                            Aggregation::Min => xs.iter().copied().fold(f64::INFINITY, f64::min),
                            Aggregation::Count => xs.len() as f64,
                            Aggregation::First => xs[0],
                            Aggregation::Last => xs[xs.len() - 1],
                            Aggregation::Sum | Aggregation::Mean => unreachable!("not generated"),
                        };
                        (t, x)
                    })
                    .collect();
                filled(&folded, q).into_iter().map(|(t, x)| (t, FieldValue::Float(x))).collect()
            }
        };
        if let Some(limit) = q.limit {
            points.truncate(limit);
        }
        if !points.is_empty() {
            answer.push((key.clone(), points));
        }
    }
    answer
}

/// `folded`'s windows under `q.fill`: every window of the range at 0 for
/// `fill(0)`, the last value carried from the first window on for
/// `fill(previous)`.
fn filled(folded: &BTreeMap<i64, f64>, q: &Query) -> Vec<(i64, f64)> {
    let present = || folded.iter().map(|(t, x)| (*t, *x)).collect();
    let Some(w) = q.group_by else { return present() };
    let last_window = (q.end.as_secs() - 1).div_euclid(w) * w;
    let (first_window, mut carried) = match q.fill {
        Fill::None => return present(),
        Fill::Zero => (q.start.as_secs().div_euclid(w) * w, None),
        Fill::Previous => match folded.first_key_value() {
            Some((t, _)) => (*t, None),
            None => return Vec::new(),
        },
        Fill::Linear => unreachable!("not generated"),
    };
    let mut out = Vec::new();
    let mut t = first_window;
    while t <= last_window {
        let x = match folded.get(&t) {
            Some(x) => *x,
            None if q.fill == Fill::Zero => 0.0,
            None => carried.expect("previous starts on a present window"),
        };
        carried = Some(x);
        out.push((t, x));
        t += w;
    }
    out
}

fn engine_answer(rs: &ResultSet) -> Answer {
    let points = |p: &[(EpochSecs, FieldValue)]| -> Vec<(i64, FieldValue)> {
        p.iter().map(|(t, v)| (t.as_secs(), v.clone())).collect()
    };
    rs.series.iter().map(|s| ((*s.key).clone(), points(&s.points))).collect()
}

/// Write `writes` in their phases: the first compacted into sealed blocks,
/// the second left raw, the stragglers last and newest first.
fn build(writes: &[Write]) -> Db {
    let db = Db::new(DbConfig { shard_duration: SHARD, ..DbConfig::default() });
    let phase = |n: u8| {
        let mut batch: Vec<&Write> = writes.iter().filter(|w| w.phase == n).collect();
        batch.sort_by_key(|w| w.ts);
        batch
    };
    let points = |batch: Vec<&Write>| batch.iter().map(|w| w.point()).collect::<Vec<_>>();
    db.write_batch(&points(phase(0))).unwrap();
    db.compact();
    db.write_batch(&points(phase(1))).unwrap();
    for w in phase(2).into_iter().rev() {
        db.write(w.point()).unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_answer_equals_the_model(
        mut writes in prop::collection::vec(arb_write(), 1..240),
        queries in prop::collection::vec(arb_query(), 1..10),
    ) {
        // One point per series and timestamp: the first write wins.
        let mut seen = std::collections::HashSet::new();
        writes.retain(|w| seen.insert((w.measurement, w.node, w.label, w.ts)));
        let db = build(&writes);
        let model = model_of(&writes);
        let batch = db.query_batch(&queries, usize::MAX);
        for (q, got) in queries.iter().zip(batch) {
            let want = model_answer(&model, q);
            let (rs, _) = got.unwrap();
            prop_assert!(engine_answer(&rs) == want, "batched: {}", q.to_influxql());
            let (rs, _) = db.query(q).unwrap();
            prop_assert!(engine_answer(&rs) == want, "alone: {}", q.to_influxql());
        }
    }
}
