//! The response document has one walk and one writer; this file holds it
//! to the rule it replaced.
//!
//! `exec::render` writes the bytes the HTTP service sends through
//! `JsonSink`, and `execute` returns those bytes parsed. For any plan and
//! any results — not node-major, nodes and sections repeated, label tags
//! colliding or missing, empty result sets, every value type, strings that
//! need every escape, non-finite floats, times out of order and repeated —
//! the text must be the `to_string_compact()` of the tree nested
//! `Object::insert` in plan order builds from the result sets, each section
//! a time column and its values (`by_insertion` spells the shape out):
//! first position, last value, the same `points_out`. Parsed and printed again,
//! it must come back byte for byte. The service-level tests then pin the
//! wire: a `/v1/metrics` body is the library path's body, plain or
//! compressed, a repeat shares the cached buffer, and `execute`'s tree is
//! the served body parsed.

use monster_builder::exec::{render, JsonSink};
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
                section,
                label_tag,
                query: Query::select("Thermal", "Reading", EpochSecs::new(0), EpochSecs::new(60)),
            };
            (planned, ResultSet { series })
        })
}

fn value(v: &FieldValue) -> Value {
    match v {
        FieldValue::Float(f) => Value::Float(*f),
        FieldValue::Int(i) => Value::Int(*i),
        FieldValue::Bool(b) => Value::Bool(*b),
        FieldValue::Str(s) => Value::Str(s.clone()),
    }
}

/// A section: its time column and its `values`.
fn section(times: impl Iterator<Item = i64>, values: Value) -> Value {
    jobj! { "time" => Value::Array(times.map(Value::from).collect()), "values" => values }
}

/// The document as nested `Object::insert` builds it, one query at a time
/// in plan order, and the readings left in it at the end. A flat section
/// is its series' points, one after another, as a time column and a value
/// column. A labelled one keeps, by `Object::insert`, each label's first
/// position and last series; its time column is every time those series
/// hold, ascending and once each, and a label's column holds its last
/// point at each time, or `null`.
fn by_insertion(plan: &[PlannedQuery], results: &[ResultSet]) -> (Value, usize) {
    let mut document = Object::new();
    for (planned, rs) in plan.iter().zip(results) {
        if rs.series.is_empty() {
            continue;
        }
        let points: Vec<_> = rs.series.iter().flat_map(|s| &s.points).collect();
        let section = match &planned.label_tag {
            None => {
                let values = points.iter().map(|(_, v)| value(v)).collect();
                section(points.iter().map(|(t, _)| t.as_secs()), Value::Array(values))
            }
            Some(tag) => {
                let mut by_label = Object::new();
                for (i, s) in rs.series.iter().enumerate() {
                    by_label.insert(s.key.tag(tag).unwrap_or("unlabeled"), Value::from(i as i64));
                }
                let chosen = |at: &Value| &rs.series[at.as_i64().unwrap() as usize];
                let mut times: Vec<i64> = by_label
                    .iter()
                    .flat_map(|(_, at)| &chosen(at).points)
                    .map(|(t, _)| t.as_secs())
                    .collect();
                times.sort_unstable();
                times.dedup();
                let mut columns = Object::new();
                for (label, at) in by_label.iter() {
                    let last_at =
                        |t: i64| chosen(at).points.iter().rev().find(|p| p.0.as_secs() == t);
                    let column: Vec<Value> = times
                        .iter()
                        .map(|&t| last_at(t).map_or(Value::Null, |p| value(&p.1)))
                        .collect();
                    columns.insert(label, Value::Array(column));
                }
                section(times.into_iter(), Value::Object(columns))
            }
        };
        let addr = planned.node.bmc_addr();
        if !document.contains_key(&addr) {
            document.insert(addr.as_str(), Object::new());
        }
        let node = document.get_mut(&addr).and_then(Value::as_object_mut).expect("just put");
        node.insert(planned.section, section);
    }
    // What is left, counted: every value of a flat section, every non-null
    // of a label's column.
    let sections = document.iter().flat_map(|(_, node)| node.as_object().unwrap().iter());
    let readings = sections
        .map(|(_, section)| match section.get("values").unwrap() {
            Value::Object(labels) => {
                let columns = labels.iter().flat_map(|(_, c)| c.as_array().unwrap());
                columns.filter(|v| **v != Value::Null).count()
            }
            flat => flat.as_array().unwrap().len(),
        })
        .sum();
    (Value::Object(document), readings)
}

proptest! {
    #[test]
    fn streamed_bytes_are_the_marshalled_tree(entries in prop::collection::vec(arb_entry(), 0..12)) {
        let (plan, results): (Vec<PlannedQuery>, Vec<ResultSet>) = entries.into_iter().unzip();

        let mut bytes = JsonSink::with_capacity(0);
        let points = render(&plan, &results, &mut bytes);
        let bytes = bytes.finish();
        let text = std::str::from_utf8(&bytes).expect("JSON is UTF-8");

        // NaN != NaN, so the documents are compared as text.
        let (reference, reference_points) = by_insertion(&plan, &results);
        prop_assert_eq!(text, reference.to_string_compact());
        prop_assert_eq!(points, reference_points);
        // What `execute` returns reprints as the served text.
        prop_assert_eq!(monster_json::parse(text).expect("JSON").to_string_compact(), text);
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
        let (level, net) = (Level::default(), &NetModel::GIGABIT_LAN);
        let library = encode_response(&db, &plan, config.exec, compress, level, net).unwrap();
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

#[test]
fn execute_returns_the_served_document_not_a_second_rendering() {
    // One reading the text can only write as `null`, one integral float.
    let db = Db::new(DbConfig::default());
    let nodes = NodeId::enumerate(2, 4);
    let power = |node: NodeId, reading: f64| {
        DataPoint::new("Power", EpochSecs::new(0))
            .tag("NodeId", node.bmc_addr())
            .tag("Label", "NodePower")
            .field_f64("Reading", reading)
    };
    db.write_batch(&[power(nodes[0], f64::NAN), power(nodes[1], 273.0)]).unwrap();
    let db = Arc::new(db);
    let config = ServiceConfig::default();
    let request =
        BuilderRequest::new(EpochSecs::new(0), EpochSecs::new(300), 300, Aggregation::Max).unwrap();
    let plan = build_plan(SchemaVersion::Optimized, &nodes, &request);
    let document = execute(&db, &plan, config.exec).unwrap().document;

    let service = router(Arc::clone(&db), nodes, config);
    let url = "/v1/metrics?start=1970-01-01T00:00:00Z&end=1970-01-01T00:05:00Z&interval=5m";
    let reply = service.dispatch(&Request::get(url));
    let served = monster_json::parse(std::str::from_utf8(&reply.body).unwrap()).unwrap();
    assert_eq!(served.pointer("10.101.1.1/power/values/0"), Some(&Value::Null));
    assert_eq!(served.pointer("10.101.1.2/power/values/0"), Some(&Value::Float(273.0)));
    assert_eq!(document, served, "the analyses read what a dashboard is sent");
}
