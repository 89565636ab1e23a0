//! Property test: a plan's price equals a straight-line model of it.
//!
//! Admission classifies a request on `estimate_plan_cost` before anything
//! is scanned. This test computes that price from what the test itself
//! knows: the series keys it wrote, the shard starts its timestamps fall
//! in, and the point and byte totals of `Db::stats()`. Per query the model
//! counts the written keys the query selects and the shards its range
//! overlaps, prorates the totals by both fractions, and sums the queries,
//! with no engine code on the way.
//!
//! The store spans four shards; part of it is compacted into sealed
//! blocks and the rest stays in raw tails. Plans mix empty and inverted
//! ranges, an unknown measurement, field and tag value, and ranges that
//! touch no shard, one shard or several.

use monster_builder::{estimate_plan_cost, PlannedQuery, QueryGroup};
use monster_tsdb::{Aggregation, DataPoint, Db, DbConfig, Query, QueryCost};
use monster_util::{EpochSecs, NodeId};
use proptest::prelude::*;
use std::collections::BTreeSet;

const SHARD: i64 = 600;
const HORIZON: i64 = 4 * SHARD;
const BLOCK_SIZE: usize = 1024;
const NODES: [&str; 3] = ["n0", "n1", "n2"];
const LABELS: [&str; 2] = ["a", "b"];

/// One generated write: which series, when, and whether it is written
/// before the compaction.
#[derive(Debug, Clone)]
struct Write {
    measurement: &'static str,
    node: usize,
    label: Option<&'static str>,
    ts: i64,
    early: bool,
}

impl Write {
    fn tags(&self) -> Vec<(String, String)> {
        let mut tags = vec![("NodeId".to_string(), NODES[self.node].to_string())];
        if let Some(label) = self.label {
            tags.push(("Label".to_string(), label.to_string()));
        }
        tags
    }

    fn point(&self) -> DataPoint {
        let mut p = DataPoint::new(self.measurement, EpochSecs::new(self.ts));
        for (k, v) in self.tags() {
            p = p.tag(k, v);
        }
        match self.measurement {
            "UGE" => p.field_f64("CPUUsage", 0.5).field_f64("MemUsed", self.ts as f64),
            _ => p.field_f64("Reading", self.ts as f64 / 8.0),
        }
    }
}

fn arb_write() -> impl Strategy<Value = Write> {
    (
        prop_oneof![Just("Power"), Just("Thermal"), Just("UGE")],
        0..NODES.len(),
        prop_oneof![Just(None), Just(Some(LABELS[0])), Just(Some(LABELS[1]))],
        0..HORIZON,
        any::<bool>(),
    )
        .prop_map(|(measurement, node, label, ts, early)| Write {
            measurement,
            node,
            // UGE carries no label, the other two always one.
            label: if measurement == "UGE" { None } else { label.or(Some(LABELS[0])) },
            ts,
            early,
        })
}

/// Every shard gets a point of every node, so the store always has four.
fn baseline() -> Vec<Write> {
    let mut out = Vec::new();
    for shard in 0..4 {
        for node in 0..NODES.len() {
            for (measurement, label) in
                [("Power", Some("a")), ("Thermal", Some("b")), ("UGE", None)]
            {
                let ts = shard * SHARD + 7 * node as i64;
                out.push(Write { measurement, node, label, ts, early: shard < 2 });
            }
        }
    }
    out
}

fn arb_planned() -> impl Strategy<Value = PlannedQuery> {
    (
        prop_oneof![Just("Power"), Just("Thermal"), Just("UGE"), Just("Absent")],
        prop::sample::select(vec!["Reading", "CPUUsage", "Missing"]),
        prop_oneof![Just(None), Just(Some("n0")), Just(Some("n2")), Just(Some("nX"))],
        prop_oneof![Just(None), Just(Some("a")), Just(Some("b")), Just(Some("zz"))],
        any::<bool>(),
        // Starts before, inside and past the store; lengths that are
        // empty or inverted, a few seconds, one shard and all of them.
        (-SHARD..HORIZON + SHARD, prop_oneof![-SHARD..1, 1..SHARD, 1..HORIZON + SHARD]),
    )
        .prop_map(|(measurement, field, node, label, windowed, (start, len))| {
            let mut query = Query::select(
                measurement,
                field,
                EpochSecs::new(start),
                EpochSecs::new(start + len),
            );
            if windowed {
                query = query.aggregate(Aggregation::Max).group_by_time(60);
            }
            if let Some(node) = node {
                query = query.where_tag("NodeId", node);
            }
            if let Some(label) = label {
                query = query.where_tag("Label", label);
            }
            PlannedQuery {
                group: QueryGroup::Bmc,
                node: NodeId::enumerate(1, 4)[0],
                section: "power",
                label_tag: None,
                query,
            }
        })
}

/// What the store holds, from the test's side.
struct Model {
    keys: BTreeSet<(&'static str, Vec<(String, String)>)>,
    starts: BTreeSet<i64>,
    points: usize,
    bytes: usize,
}

impl Model {
    /// One query's price: selected series and overlapping shards counted,
    /// the totals prorated by both fractions.
    fn price(&self, q: &Query) -> QueryCost {
        let mut cost = QueryCost { queries: 1, ..QueryCost::default() };
        if q.end <= q.start {
            return cost;
        }
        let card = self.keys.len();
        let series = self
            .keys
            .iter()
            .filter(|(m, tags)| {
                *m == q.measurement && q.predicates.iter().all(|p| tags.iter().any(|t| t == p))
            })
            .count();
        let (qs, qe) = (q.start.as_secs(), q.end.as_secs());
        let mut overlap = 0usize;
        let mut covered = 0.0f64;
        for &start in &self.starts {
            let (lo, hi) = (qs.max(start), qe.min(start + SHARD));
            if lo < hi {
                overlap += 1;
                covered += (hi - lo) as f64 / SHARD as f64;
            }
        }
        cost.index_entries = card;
        cost.series = series;
        cost.shards_scanned = overlap;
        if series == 0 || overlap == 0 {
            return cost;
        }
        let series_frac = series as f64 / card as f64;
        let shard_frac = covered / self.starts.len() as f64;
        cost.points = (self.points as f64 * series_frac * shard_frac).ceil() as usize;
        cost.blocks = cost.points / BLOCK_SIZE + series * overlap;
        cost.bytes = (self.bytes as f64 * series_frac * shard_frac).ceil() as usize;
        cost
    }
}

fn build(writes: &[Write]) -> (Db, Model) {
    let db = Db::new(DbConfig { shard_duration: SHARD, ..DbConfig::default() });
    let early: Vec<DataPoint> = writes.iter().filter(|w| w.early).map(Write::point).collect();
    let late: Vec<DataPoint> = writes.iter().filter(|w| !w.early).map(Write::point).collect();
    db.write_batch(&early).unwrap();
    db.compact();
    db.write_batch(&late).unwrap();
    let stats = db.stats();
    let model = Model {
        keys: writes.iter().map(|w| (w.measurement, w.tags())).collect(),
        starts: writes.iter().map(|w| w.ts.div_euclid(SHARD) * SHARD).collect(),
        points: stats.points,
        bytes: stats.encoded_bytes,
    };
    assert_eq!(model.keys.len(), stats.cardinality);
    assert_eq!(model.starts.len(), stats.shards);
    (db, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_plans_price_is_the_sum_of_a_straight_line_model(
        extra in prop::collection::vec(arb_write(), 0..200),
        plans in prop::collection::vec(prop::collection::vec(arb_planned(), 0..24), 1..4),
    ) {
        let mut writes = baseline();
        writes.extend(extra);
        let (db, model) = build(&writes);
        for plan in &plans {
            let mut want = QueryCost::default();
            for pq in plan {
                want.absorb(&model.price(&pq.query));
            }
            prop_assert_eq!(estimate_plan_cost(&db, plan), want);
            // One query at a time prices the same.
            for pq in plan {
                let (one, want) = (estimate_plan_cost(&db, std::slice::from_ref(pq)), model.price(&pq.query));
                prop_assert!(one == want, "{:?}: {one:?} != {want:?}", pq.query);
            }
        }
    }
}

/// The generator reaches every branch of the model.
#[test]
fn the_plans_reach_every_branch() {
    let (db, model) = build(&baseline());
    let at = |start: i64, len: i64| {
        Query::select("Power", "Reading", EpochSecs::new(start), EpochSecs::new(start + len))
    };
    let cases = [
        (at(100, 0), 0, 0),
        (at(100, -5), 0, 0),
        (at(HORIZON, 50), 0, 3),
        (at(-SHARD, 50), 0, 3),
        (at(100, 50), 1, 3),
        (at(100, HORIZON), 4, 3),
        (at(100, 50).where_tag("NodeId", "n1"), 1, 1),
        (at(100, 50).where_tag("NodeId", "nX"), 1, 0),
        (Query::select("Absent", "Reading", EpochSecs::new(0), EpochSecs::new(50)), 1, 0),
        (Query::select("UGE", "Missing", EpochSecs::new(0), EpochSecs::new(50)), 1, 3),
    ];
    for (q, shards, series) in cases {
        let want = model.price(&q);
        assert_eq!((want.shards_scanned, want.series), (shards, series), "{q:?}");
        let pq = PlannedQuery {
            group: QueryGroup::Bmc,
            node: NodeId::enumerate(1, 4)[0],
            section: "power",
            label_tag: None,
            query: q,
        };
        assert_eq!(estimate_plan_cost(&db, std::slice::from_ref(&pq)), want);
    }
}
