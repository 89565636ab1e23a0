//! Property test: a shard's columns are the model's columns.
//!
//! A shard finds a column by its `(SeriesId, FieldId)` pair. This test
//! appends spans of random sparse pairs, several fields a series, through
//! `Shard::append_span` in random order, and keeps a model beside it: a
//! `BTreeMap` from pair to the points that landed, in append order. Spans
//! carry out-of-order timestamps and values of the wrong type (the append
//! stops there and `applied` counts the prefix); a round may end in
//! `compact()`, and one long span seals a block on its own.
//!
//! After every round each modelled column scans back exactly its points,
//! pairs never written are `None`, `column_keys()` is the model's key set,
//! `export` visits the model's points in `(SeriesId, FieldId)` order, and
//! `point_count` and `tail_points` match.

use monster_tsdb::column::BLOCK_SIZE;
use monster_tsdb::shard::Shard;
use monster_tsdb::{DecodeScratch, FieldId, FieldValue, SeriesId};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{BTreeMap, BTreeSet};

const END: i64 = 100_000;
/// Sparse series ids: far apart, a pair of neighbours, the first and one
/// past a power of two.
const SERIES: [u32; 7] = [0, 3, 4, 1_000, 4_097, 40_000, 49_999];

/// One generated span: a pair and the values appended to it.
#[derive(Debug, Clone)]
struct Span {
    series: u32,
    field: u32,
    points: Vec<(i64, FieldValue)>,
}

fn arb_value() -> impl Strategy<Value = FieldValue> {
    prop_oneof![
        (-64i32..64).prop_map(|v| FieldValue::Float(f64::from(v) / 4.0)),
        (-64i32..64).prop_map(|v| FieldValue::Float(f64::from(v))),
        (-64i64..64).prop_map(FieldValue::Int),
        prop::sample::select(vec!["ok", "down", ""]).prop_map(|s| FieldValue::Str(s.to_string())),
        any::<bool>().prop_map(FieldValue::Bool),
    ]
}

fn arb_span() -> impl Strategy<Value = Span> {
    (
        prop::sample::select(SERIES.to_vec()),
        prop::sample::select(vec![0u32, 1, 2, 5, 17]),
        0i64..END - 2_000,
        prop::collection::vec((-3i64..40, arb_value()), 1..12),
    )
        .prop_map(|(series, field, base, steps)| {
            // Mostly rising from `base`, with steps back; a value's type is
            // mostly the pair's own (chosen by its field), sometimes not.
            let mut t = base;
            let points = steps
                .into_iter()
                .enumerate()
                .map(|(i, (step, other))| {
                    t = (t + step).max(0);
                    let own = match field % 3 {
                        0 => FieldValue::Float(t as f64 / 2.0),
                        1 => FieldValue::Int(t - i as i64),
                        _ => FieldValue::Str(format!("s{}", t % 3)),
                    };
                    (t, if i % 5 == 4 { other } else { own })
                })
                .collect();
            Span { series, field, points }
        })
}

/// Rounds of spans, each round maybe ending in a compaction.
fn arb_rounds() -> impl Strategy<Value = Vec<(Vec<Span>, bool)>> {
    prop::collection::vec((prop::collection::vec(arb_span(), 0..24), any::<bool>()), 1..5)
}

fn same_type(a: &FieldValue, b: &FieldValue) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
}

/// What the shard should hold.
#[derive(Default)]
struct Model {
    columns: BTreeMap<(u32, u32), Vec<(i64, FieldValue)>>,
    /// Points in each column's raw tail.
    tails: BTreeMap<(u32, u32), usize>,
}

impl Model {
    /// Append `span`: the points up to the first of another type than the
    /// column's land; returns how many did.
    fn append(&mut self, span: &Span) -> usize {
        let key = (span.series, span.field);
        let column = self.columns.entry(key).or_default();
        let tail = self.tails.entry(key).or_default();
        let kind = column.first().map_or(&span.points[0].1, |(_, v)| v).clone();
        let mut landed = 0;
        for (t, v) in &span.points {
            if !same_type(&kind, v) {
                break;
            }
            column.push((*t, v.clone()));
            *tail += 1;
            if *tail == BLOCK_SIZE {
                *tail = 0;
            }
            landed += 1;
        }
        landed
    }

    fn check(&self, shard: &Shard, probes: &[(u32, u32)]) -> Result<(), TestCaseError> {
        let mut scratch = DecodeScratch::new();
        for (&(s, f), want) in &self.columns {
            let col = shard.column(SeriesId(s), FieldId(f));
            prop_assert!(col.is_some(), "({}, {}) is missing", s, f);
            let mut got = Vec::new();
            col.unwrap()
                .scan_with(&mut scratch, i64::MIN, i64::MAX, |t, v| got.push((t, v)))
                .unwrap();
            prop_assert!(&got == want, "({s}, {f}): {got:?} != {want:?}");
        }
        for &(s, f) in probes {
            if !self.columns.contains_key(&(s, f)) {
                prop_assert!(shard.column(SeriesId(s), FieldId(f)).is_none(), "({s}, {f})");
            }
        }
        let keys: BTreeSet<(u32, u32)> =
            shard.column_keys().into_iter().map(|(s, f)| (s.0, f.0)).collect();
        prop_assert_eq!(shard.column_keys().len(), keys.len());
        prop_assert!(keys.iter().eq(self.columns.keys()), "{keys:?}");

        let mut exported = Vec::new();
        shard.export(|s, f, t, v| exported.push(((s.0, f.0), t, v))).unwrap();
        let want: Vec<_> = self
            .columns
            .iter()
            .flat_map(|(&key, points)| points.iter().map(move |(t, v)| (key, *t, v.clone())))
            .collect();
        prop_assert!(exported == want, "export order");

        let points: usize = self.columns.values().map(Vec::len).sum();
        prop_assert_eq!(shard.point_count(), points);
        prop_assert_eq!(shard.tail_points(), self.tails.values().sum::<usize>());
        Ok(())
    }
}

fn append(shard: &mut Shard, span: &Span) -> (usize, bool) {
    let (s, f) = (SeriesId(span.series), FieldId(span.field));
    let pts: Vec<_> = span.points.iter().map(|(t, v)| (s, f, *t, v)).collect();
    let mut applied = 0;
    let ok = shard.append_span(s, f, &pts, &mut applied).is_ok();
    (applied, ok)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_column_is_the_models_column(
        rounds in arb_rounds(),
        probes in prop::collection::vec((0u32..50_000, 0u32..20), 0..16),
    ) {
        let mut shard = Shard::new(0, END);
        let mut model = Model::default();
        for (spans, compact) in &rounds {
            for span in spans {
                let landed = model.append(span);
                let (applied, ok) = append(&mut shard, span);
                prop_assert_eq!(applied, landed);
                prop_assert_eq!(ok, landed == span.points.len());
            }
            if *compact {
                shard.compact();
                model.tails.values_mut().for_each(|t| *t = 0);
            }
            let mut all = probes.clone();
            all.extend(model.columns.keys().map(|&(s, f)| (s, f + 1)));
            all.extend(model.columns.keys().map(|&(s, f)| (s + 1, f)));
            model.check(&shard, &all)?;
        }
    }
}

/// A span longer than a block seals one on its own; the checks hold
/// across the seal, a compaction and appends after both.
#[test]
fn a_long_span_seals_and_the_checks_hold() {
    let mut shard = Shard::new(0, END);
    let mut model = Model::default();
    let long = Span {
        series: 40_000,
        field: 1,
        points: (0..BLOCK_SIZE as i64 + 30).map(|t| (t * 3, FieldValue::Int(t))).collect(),
    };
    let short = Span { series: 7, field: 0, points: vec![(5, FieldValue::Float(1.5))] };
    for span in [&long, &short, &long] {
        let landed = model.append(span);
        assert_eq!(append(&mut shard, span), (landed, true));
        model.check(&shard, &[(7, 1), (40_000, 0), (0, 0)]).unwrap();
    }
    // Two seals of the long column: 60 of its points and the short one's
    // are left in tails.
    assert_eq!(shard.tail_points(), 61);
    shard.compact();
    model.tails.values_mut().for_each(|t| *t = 0);
    model.check(&shard, &[]).unwrap();
    let bad = Span {
        series: 40_000,
        field: 1,
        points: vec![(9, FieldValue::Int(1)), (8, FieldValue::Float(0.5))],
    };
    assert_eq!(model.append(&bad), 1);
    assert_eq!(append(&mut shard, &bad), (1, false));
    model.check(&shard, &[]).unwrap();
}
