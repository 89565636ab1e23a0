//! The response document has one walk and one writer, and this file holds
//! it to the document's law.
//!
//! `exec::render` writes the bytes the HTTP service sends through
//! `JsonSink`, and `execute` returns those bytes parsed. For any plan and
//! any results — not node-major, nodes and sections repeated, label tags
//! colliding or missing, empty result sets, every value type, strings that
//! need every escape, non-finite floats, times out of order and repeated —
//! what `served` reads back from the text is what [`rule`] says the plan's
//! results hold: nodes and sections in first-position order, a section's
//! last series, a label's last point at a time, non-finite readings absent.
//! `points_out` counts the rule's readings, and the text parsed and
//! printed again comes back byte for byte. The service-level tests then
//! pin the wire: a `/v1/metrics` body is the library path's body, plain or
//! compressed, a repeat shares the cached buffer, and `execute`'s tree is
//! the served body parsed.

use monster_analysis::served;
use monster_builder::exec::{render, JsonSink};
use monster_builder::service::{router, ServiceConfig};
use monster_builder::{
    build_plan, encode_response, execute, BuilderRequest, PlannedQuery, QueryGroup,
};
use monster_collector::SchemaVersion;
use monster_compress::Level;
use monster_http::Request;
use monster_json::Value;
use monster_sim::NetModel;
use monster_tsdb::query::SeriesResult;
use monster_tsdb::{Aggregation, DataPoint, Db, DbConfig, FieldValue, Query, ResultSet, SeriesKey};
use monster_util::{EpochSecs, NodeId};
use proptest::prelude::*;
use std::collections::BTreeMap;
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
    // Times from a few windows, so that they repeat within a series and
    // across series, or from anywhere.
    let window = || (0..4i64).prop_map(|w| w * 60);
    let time = prop_oneof![window(), window(), window(), any::<i64>()];
    let points = prop::collection::vec((time, arb_value()), 0..4);
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
/// either tag, windowed or not, 0–3 series.
fn arb_entry() -> impl Strategy<Value = (PlannedQuery, ResultSet)> {
    (
        0..3usize,
        prop_oneof![Just("power"), Just("thermal"), Just("jobs"), Just("odd \"key\"\t")],
        prop_oneof![Just(None), Just(Some("Label")), Just(Some("Slot")), Just(Some("Absent"))],
        any::<bool>(),
        prop::collection::vec(arb_series(), 0..4),
    )
        .prop_map(|(node, section, label_tag, windowed, series)| {
            let query = Query::select("Thermal", "Reading", EpochSecs::new(0), EpochSecs::new(240));
            let planned = PlannedQuery {
                group: QueryGroup::Bmc,
                node: NodeId::enumerate(3, 4)[node],
                section,
                label_tag,
                query: if windowed { query.group_by_time(60) } else { query },
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

/// One reading as the law states it: node key, section, label, window time
/// and the value as the text writes it.
type Reading = (String, String, Option<String>, i64, String);

type Point = (EpochSecs, FieldValue);

/// The document's rule, stated as what it says rather than how it is
/// written: its nodes, each with its sections, in first-position order, and
/// the readings (non-finite ones too) in document order. A node takes the
/// position of its first non-empty result set, and a section under it the
/// position of its first and the series of its last. A flat section's
/// readings are its series' points as they come, duplicates included; a
/// labelled one's are each label's (first position, last series) points in
/// ascending time, the last point at a time.
fn rule<'a>(
    plan: &'a [PlannedQuery],
    results: &'a [ResultSet],
) -> (Vec<(String, Vec<String>)>, Vec<Reading>) {
    let mut nodes: Vec<(String, Vec<(&str, usize)>)> = Vec::new();
    for (at, (planned, rs)) in plan.iter().zip(results).enumerate() {
        if rs.series.is_empty() {
            continue;
        }
        let addr = planned.node.bmc_addr();
        if !nodes.iter().any(|(node, _)| *node == addr) {
            nodes.push((addr.clone(), Vec::new()));
        }
        let sections = &mut nodes.iter_mut().find(|(node, _)| *node == addr).unwrap().1;
        match sections.iter_mut().find(|(name, _)| *name == planned.section) {
            Some(earlier) => earlier.1 = at,
            None => sections.push((planned.section, at)),
        }
    }
    let mut readings = Vec::new();
    for (node, sections) in &nodes {
        for &(name, at) in sections {
            let series = &results[at].series;
            let columns: Vec<(Option<&str>, Vec<&Point>)> = match plan[at].label_tag {
                None => vec![(None, series.iter().flat_map(|s| &s.points).collect())],
                Some(tag) => {
                    let mut labels: Vec<(&str, &SeriesResult)> = Vec::new();
                    for s in series {
                        let label = s.key.tag(tag).unwrap_or("unlabeled");
                        match labels.iter_mut().find(|(earlier, _)| *earlier == label) {
                            Some(earlier) => earlier.1 = s,
                            None => labels.push((label, s)),
                        }
                    }
                    let last_at = |(label, s): (&'a str, &'a SeriesResult)| {
                        let by_time: BTreeMap<i64, _> =
                            s.points.iter().map(|p| (p.0.as_secs(), p)).collect();
                        (Some(label), by_time.into_values().collect())
                    };
                    labels.into_iter().map(last_at).collect()
                }
            };
            for (label, points) in columns {
                for (t, v) in points {
                    let text = value(v).to_string_compact();
                    let label = label.map(str::to_string);
                    readings.push((node.clone(), name.to_string(), label, t.as_secs(), text));
                }
            }
        }
    }
    let keys = nodes.into_iter().map(|(node, s)| (node, s.iter().map(|s| s.0.into()).collect()));
    (keys.collect(), readings)
}

proptest! {
    /// The law of the served document, over random plans: what
    /// `served::readings` reads back from `render`'s text is the rule's
    /// readings less the non-finite ones, nodes and sections stand in
    /// first-position order after the window grid (a non-empty array, and
    /// only where a section is windowed), the text parsed and printed again
    /// is the same bytes, and `points_out` counts the rule's readings.
    #[test]
    fn the_served_document_says_what_the_rule_says(
        entries in prop::collection::vec(arb_entry(), 0..12)
    ) {
        let (plan, results): (Vec<PlannedQuery>, Vec<ResultSet>) = entries.into_iter().unzip();
        let mut sink = JsonSink::with_capacity(0);
        let points = render(&plan, &results, &mut sink);
        let bytes = sink.finish();
        let text = std::str::from_utf8(&bytes).expect("JSON is UTF-8");
        let document = monster_json::parse(text).expect("JSON");
        prop_assert_eq!(document.to_string_compact(), text);

        let (keys, rule) = rule(&plan, &results);
        prop_assert_eq!(points, rule.len());
        let mut nodes = document.as_object().unwrap().iter().peekable();
        let grid = nodes.next_if(|(key, _)| *key == "time").map(|(_, grid)| grid);
        prop_assert!(grid.is_none_or(|g| !g.as_array().unwrap().is_empty()));
        prop_assert!(grid.is_none() || plan.iter().any(|p| p.query.group_by.is_some()));
        let written: Vec<(String, Vec<String>)> = nodes
            .map(|(node, s)| (node.into(), s.as_object().unwrap().keys().map(Into::into).collect()))
            .collect();
        prop_assert_eq!(written, keys);
        let read: Vec<Reading> = served::readings(&document)
            .expect("a served document")
            .into_iter()
            .map(|(node, section, (label, t, v))| {
                (node.into(), section.into(), label.map(Into::into), t, v.to_string_compact())
            })
            .collect();
        // A non-finite reading is written `null`, which is no reading.
        let finite: Vec<Reading> = rule.into_iter().filter(|r| r.4 != "null").collect();
        prop_assert_eq!(read, finite);
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
        assert_eq!(miss.headers.get("Content-Encoding"), compress.then_some("deflate"));
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
