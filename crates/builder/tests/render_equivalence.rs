//! The response document has one walk and two sinks; this file holds them
//! to each other and to the rule they replaced.
//!
//! `exec::render` drives either `JsonSink` (the bytes the HTTP service
//! sends) or `ValueSink` (the tree `execute` returns). For any plan and
//! any results — not node-major, nodes and sections repeated, label tags
//! colliding or missing, empty result sets, every value type, strings that
//! need every escape, non-finite floats — the streamed bytes must equal
//! the tree's `to_string_compact()`, both must report the same
//! `points_out`, and the tree must be the one nested `Object::insert` in
//! plan order builds (what the service produced when it built a tree):
//! first position, last value. The service-level test then pins the wire:
//! a `/v1/metrics` body is the library path's body, plain or compressed,
//! and a repeat shares the cached buffer.

use monster_builder::exec::{render, JsonSink, Sink, ValueSink};
use monster_builder::service::{router, ServiceConfig};
use monster_builder::{
    build_plan, encode_response, execute, BuilderRequest, PlannedQuery, QueryGroup,
};
use monster_collector::SchemaVersion;
use monster_compress::Level;
use monster_http::Request;
use monster_json::{jobj, Object, Value};
use monster_sim::NetModel;
use monster_tsdb::query::SeriesResult;
use monster_tsdb::{Aggregation, DataPoint, Db, DbConfig, FieldValue, Query, ResultSet, SeriesKey};
use monster_util::{EpochSecs, NodeId};
use proptest::prelude::*;
use std::sync::Arc;

/// Short strings over an alphabet with every escape class in it: the two
/// named characters, the five short escapes, `\u00XX` controls, DEL (not
/// escaped), multi-byte text.
fn arb_text() -> impl Strategy<Value = String> {
    let piece = prop::sample::select(vec![
        "a", "Temp", " ", "/", "\"", "\\", "\n", "\r", "\t", "\u{8}", "\u{c}", "\u{0}", "\u{1f}",
        "\u{7f}", "é", "温", "🚀",
    ]);
    prop::collection::vec(piece, 0..5).prop_map(|pieces| pieces.concat())
}

fn arb_value() -> impl Strategy<Value = FieldValue> {
    prop_oneof![
        // Raw bit patterns: NaN, the infinities, subnormals, -0.0.
        any::<f64>().prop_map(FieldValue::Float),
        (-1000.0..1000.0f64).prop_map(FieldValue::Float),
        Just(FieldValue::Float(273.0)),
        any::<i64>().prop_map(FieldValue::Int),
        any::<bool>().prop_map(FieldValue::Bool),
        arb_text().prop_map(FieldValue::Str),
    ]
}

/// A series whose `Label` and `Slot` tags are each absent or drawn from a
/// few values, so labels collide and go missing within one result set.
fn arb_series() -> impl Strategy<Value = SeriesResult> {
    let tag = || prop_oneof![Just(None), Just(Some("A")), Just(Some("B \"quoted\"\n"))];
    let points = prop::collection::vec((any::<i64>(), arb_value()), 0..4);
    (tag(), tag(), points).prop_map(|(label, slot, points)| SeriesResult {
        key: Arc::new(SeriesKey {
            measurement: "Thermal".into(),
            tags: [("Label", label), ("Slot", slot)]
                .into_iter()
                .filter_map(|(k, v)| Some((k.to_string(), v?.to_string())))
                .collect(),
        }),
        points: points.into_iter().map(|(t, v)| (EpochSecs::new(t), v)).collect(),
    })
}

/// One plan entry and its result set: any of three nodes in any order, a
/// small pool of section names (one needing escapes), flat or keyed by
/// either tag, 0–3 series.
fn arb_entry() -> impl Strategy<Value = (PlannedQuery, ResultSet)> {
    (
        0..3usize,
        prop_oneof![Just("power"), Just("thermal"), Just("jobs"), Just("odd \"key\"\t")],
        prop_oneof![Just(None), Just(Some("Label")), Just(Some("Slot")), Just(Some("Absent"))],
        prop::collection::vec(arb_series(), 0..4),
    )
        .prop_map(|(node, section, label_tag, series)| {
            let planned = PlannedQuery {
                group: QueryGroup::Bmc,
                node: NodeId::enumerate(3, 4)[node],
                section: section.to_string(),
                label_tag: label_tag.map(str::to_string),
                query: Query::select("Thermal", "Reading", EpochSecs::new(0), EpochSecs::new(60)),
            };
            (planned, ResultSet { series })
        })
}

fn points_of(series: &[&SeriesResult]) -> Value {
    let value = |v: &FieldValue| match v {
        FieldValue::Float(f) => Value::Float(*f),
        FieldValue::Int(i) => Value::Int(*i),
        FieldValue::Bool(b) => Value::Bool(*b),
        FieldValue::Str(s) => Value::Str(s.clone()),
    };
    let points = series.iter().flat_map(|s| &s.points);
    Value::Array(
        points.map(|(t, v)| jobj! { "time" => t.as_secs(), "value" => value(v) }).collect(),
    )
}

/// The document as nested `Object::insert` builds it, one query at a time
/// in plan order, and the points left in it at the end.
fn by_insertion(plan: &[PlannedQuery], results: &[ResultSet]) -> (Value, usize) {
    let mut document = Object::new();
    for (planned, rs) in plan.iter().zip(results) {
        if rs.series.is_empty() {
            continue;
        }
        let section = match &planned.label_tag {
            None => points_of(&rs.series.iter().collect::<Vec<_>>()),
            Some(tag) => {
                let mut by_label = Object::new();
                for s in &rs.series {
                    by_label.insert(s.key.tag(tag).unwrap_or("unlabeled"), points_of(&[s]));
                }
                Value::Object(by_label)
            }
        };
        let addr = planned.node.bmc_addr();
        if !document.contains_key(&addr) {
            document.insert(addr.as_str(), Object::new());
        }
        let node = document.get_mut(&addr).and_then(Value::as_object_mut).expect("just put");
        node.insert(planned.section.as_str(), section);
    }
    fn count(v: &Value) -> usize {
        match v {
            Value::Array(points) => points.len(),
            Value::Object(members) => members.iter().map(|(_, v)| count(v)).sum(),
            _ => 0,
        }
    }
    let document = Value::Object(document);
    let points = count(&document);
    (document, points)
}

proptest! {
    #[test]
    fn streamed_bytes_are_the_marshalled_tree(entries in prop::collection::vec(arb_entry(), 0..12)) {
        let (plan, results): (Vec<PlannedQuery>, Vec<ResultSet>) = entries.into_iter().unzip();

        let mut tree = ValueSink::default();
        let tree_points = render(&plan, &results, &mut tree);
        let tree = tree.finish();
        let mut bytes = JsonSink::with_capacity(0);
        let byte_points = render(&plan, &results, &mut bytes);
        let bytes = bytes.finish();

        let text = tree.to_string_compact();
        prop_assert_eq!(std::str::from_utf8(&bytes).expect("JSON is UTF-8"), text.as_str());
        prop_assert_eq!(byte_points, tree_points);

        // NaN != NaN, so the trees are compared as text too.
        let (reference, reference_points) = by_insertion(&plan, &results);
        prop_assert_eq!(text, reference.to_string_compact());
        prop_assert_eq!(tree_points, reference_points);
    }
}

/// Sixteen nodes, an hour of every measurement the optimized plan reads.
fn deployment() -> (Arc<Db>, Vec<NodeId>) {
    let db = Db::new(DbConfig::default());
    let nodes = NodeId::enumerate(16, 4);
    let mut batch = Vec::new();
    for i in 0..60i64 {
        let t = EpochSecs::new(i * 60);
        for (n, node) in nodes.iter().enumerate() {
            let addr = node.bmc_addr();
            let wobble = (i * 7 + n as i64) % 13;
            batch.push(
                DataPoint::new("Power", t)
                    .tag("NodeId", addr.as_str())
                    .tag("Label", "NodePower")
                    .field_f64("Reading", 250.0 + wobble as f64 / 3.0),
            );
            for label in ["CPU1 Temp", "CPU2 Temp", "Inlet Temp"] {
                batch.push(
                    DataPoint::new("Thermal", t)
                        .tag("NodeId", addr.as_str())
                        .tag("Label", label)
                        .field_f64("Reading", 40.0 + wobble as f64 / 7.0),
                );
            }
            batch.push(
                DataPoint::new("UGE", t)
                    .tag("NodeId", addr.as_str())
                    .field_f64("CPUUsage", wobble as f64 / 13.0)
                    .field_f64("MemUsed", 90.5),
            );
            batch.push(
                DataPoint::new("NodeJobs", t)
                    .tag("NodeId", addr.as_str())
                    .field_str("JobList", "['1001', '1002']"),
            );
        }
    }
    db.write_batch(&batch).unwrap();
    (Arc::new(db), nodes)
}

#[test]
fn the_service_sends_the_library_paths_bytes_and_shares_them_on_a_hit() {
    let (db, nodes) = deployment();
    let service = router(Arc::clone(&db), nodes.clone(), ServiceConfig::default());
    let request =
        BuilderRequest::new(EpochSecs::new(0), EpochSecs::new(3600), 300, Aggregation::Max)
            .unwrap();
    let plan = build_plan(SchemaVersion::Optimized, &nodes, &request);
    let config = ServiceConfig::default();
    let outcome = execute(&db, &plan, config.exec).unwrap();
    assert!(outcome.points_out > 16 * 12 * 5, "{} points", outcome.points_out);

    let url = "/v1/metrics?start=1970-01-01T00:00:00Z&end=1970-01-01T01:00:00Z&interval=5m";
    for compress in [false, true] {
        let library = encode_response(&outcome, compress, Level::default(), &NetModel::GIGABIT_LAN);
        let url = if compress { format!("{url}&compress=true") } else { url.to_string() };
        let miss = service.dispatch(&Request::get(&url));
        assert_eq!(miss.headers.get("X-Cache"), Some("miss"));
        assert_eq!(miss.headers.get("Content-Encoding"), compress.then_some("mz2"));
        assert_eq!(miss.body, library.body, "compress={compress}: the wire bytes");
        assert_eq!(
            miss.decoded_body().unwrap(),
            outcome.document.to_string_compact().into_bytes(),
            "compress={compress}: the document"
        );
        assert_eq!(
            miss.headers.get("X-Query-Processing-Ms").unwrap(),
            format!("{:.3}", outcome.query_processing_time().as_millis_f64()),
            "the modelled time is computed from the same points_out"
        );

        let hit = service.dispatch(&Request::get(&url));
        assert_eq!(hit.headers.get("X-Cache"), Some("hit"));
        assert!(std::ptr::eq(hit.body.as_ptr(), miss.body.as_ptr()), "a hit shares the buffer");
    }
}
