//! What the Metrics Builder served, as the analyses read it: [`decode`]
//! turns a `/v1/metrics` document (Fig. 5; what `monster_json::parse`
//! gives for a served body, after `monster_compress::decompress_within`
//! when it is compressed) into per-node rows of the nine [`METRIC_NAMES`]
//! dimensions and job lists, the inputs of Figs. 7–9 and `monster top`.
//! Names are the writer's: the thermal labels are [`METRIC_NAMES`]' first
//! seven, the sections those of [`SchemaVersion::Optimized`]. A document is
//! its window grid, then its nodes' sections: [`section`] spells it out.

use crate::METRIC_NAMES;
use monster_collector::SchemaVersion;
use monster_json::Value;
use monster_util::{EpochSecs, Error, JobId, NodeId, Result};
use std::collections::BTreeMap;

/// One node of a served document.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedNode {
    /// The node the document key names.
    pub node: NodeId,
    /// The windows that carry all nine dimensions, in time order: each
    /// window's start and its values in [`METRIC_NAMES`] order.
    pub rows: Vec<(EpochSecs, [f64; 9])>,
    /// The jobs in the latest point of the node's `jobs` section (none when
    /// the section is absent).
    pub jobs: Vec<JobId>,
}

/// The sections of [`SchemaVersion::Optimized`] the nine dimensions and the
/// job lists are read from: power, thermal, CPU usage and jobs, in the
/// order its table declares them.
fn sections() -> [&'static str; 4] {
    let [power, thermal, cpu_usage, _memory, jobs] = SchemaVersion::Optimized.sections() else {
        unreachable!("the optimized schema serves five sections")
    };
    [power.name, thermal.name, cpu_usage.name, jobs.name]
}

/// One reading of a served section: its label (`None` in a flat section),
/// its window's time and its value.
pub type Reading<'a> = (Option<&'a str>, i64, &'a Value);

/// The readings of section `name` of the node keyed `node` in a served
/// document, a label at a time, each in the order written. A `null` is
/// not a reading and is skipped; an absent node or section has none. This
/// is the one place the document's shape is read: a section is
/// `{"time":[t…],"values":[v…]}` (flat) or `{"time":[t…],"values":{label:[v…]}}`,
/// and one without a `time` of its own is on the document's grid, its
/// first member `"time":[t…]`, which no node address can be.
pub fn section<'a>(document: &'a Value, node: &str, name: &str) -> Result<Vec<Reading<'a>>> {
    let Some(section) = document.get(node).and_then(|n| n.get(name)) else { return Ok(Vec::new()) };
    let bad = || Error::parse(format!("section {section:?}"));
    let times = section.get("time").or(document.get("time"));
    let times = times.and_then(Value::as_array).ok_or_else(bad)?;
    let values = section.get("values").ok_or_else(bad)?;
    let columns: Vec<(Option<&str>, &Value)> = match values.as_object() {
        Some(labels) => labels.iter().map(|(label, column)| (Some(label), column)).collect(),
        None => vec![(None, values)],
    };
    let mut out = Vec::new();
    for (label, column) in columns {
        let column = column.as_array().filter(|c| c.len() == times.len()).ok_or_else(bad)?;
        for (t, v) in times.iter().zip(column) {
            let t = t.as_i64().ok_or_else(bad)?;
            if *v != Value::Null {
                out.push((label, t, v));
            }
        }
    }
    Ok(out)
}

/// Every reading of a served document with its node key and section,
/// nodes and sections in document order: the one walk of a whole document.
pub fn readings(document: &Value) -> Result<Vec<(&str, &str, Reading<'_>)>> {
    let mut out = Vec::new();
    for (node, sections) in nodes(document)? {
        let sections = sections.as_object().ok_or_else(|| Error::parse(format!("node {node}")))?;
        for (name, _) in sections.iter() {
            out.extend(section(document, node, name)?.into_iter().map(|r| (node, name, r)));
        }
    }
    Ok(out)
}

/// A document's node members: every member but the grid.
fn nodes(document: &Value) -> Result<impl Iterator<Item = (&str, &Value)>> {
    let nodes = document.as_object().ok_or_else(|| Error::parse("document is not an object"))?;
    Ok(nodes.iter().filter(|(key, _)| *key != "time"))
}

/// Decode a served document into its nodes, in document order.
pub fn decode(document: &Value) -> Result<Vec<ServedNode>> {
    let [power, thermal, cpu_usage, jobs] = sections();
    let mut out = Vec::new();
    for (key, _) in nodes(document)? {
        let node = NodeId::parse(key).ok_or_else(|| Error::parse(format!("node key {key:?}")))?;
        // Thermal's readings by label, power's and CPU usage's by section.
        let mut windows: BTreeMap<i64, [Option<f64>; 9]> = BTreeMap::new();
        for (name, flat) in [(thermal, None), (power, Some(7)), (cpu_usage, Some(8))] {
            for (label, t, v) in section(document, key, name)? {
                let label = || METRIC_NAMES[..7].iter().position(|n| Some(*n) == label);
                let Some(d) = flat.or_else(label) else { continue };
                let v = v.as_f64().ok_or_else(|| Error::parse(format!("{key}: {v:?}")))?;
                windows.entry(t).or_insert([None; 9])[d] = Some(v);
            }
        }
        let rows = windows
            .into_iter()
            .filter(|(_, w)| w.iter().all(Option::is_some))
            .map(|(t, w)| (EpochSecs::new(t), w.map(Option::unwrap_or_default)))
            .collect();
        let jobs = match section(document, key, jobs)?.into_iter().max_by_key(|&(_, t, _)| t) {
            Some((_, _, list)) => {
                job_list(list).ok_or_else(|| Error::parse(format!("{list:?}")))?
            }
            None => Vec::new(),
        };
        out.push(ServedNode { node, rows, jobs });
    }
    Ok(out)
}

/// The Fig. 5 job list, `['1291784', '1318962']`.
fn job_list(value: &Value) -> Option<Vec<JobId>> {
    let inner = value.as_str()?.strip_prefix('[')?.strip_suffix(']')?;
    inner
        .split(',')
        .filter(|id| !id.trim().is_empty())
        .map(|id| id.trim().strip_prefix('\'')?.strip_suffix('\'')?.parse().ok().map(JobId))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use monster_collector::QueryGroup;
    use monster_json::jobj;
    use monster_redfish::sensors::{CPU_TEMP_LABELS, FAN_LABELS, INLET_LABEL};

    #[test]
    fn the_nine_dimensions_are_the_names_the_writer_stores() {
        let thermal: Vec<&str> =
            CPU_TEMP_LABELS.iter().chain([&INLET_LABEL]).chain(&FAN_LABELS).copied().collect();
        assert_eq!(METRIC_NAMES[..7], thermal[..]);
        let table = SchemaVersion::Optimized.sections();
        let [power, thermal, cpu_usage, jobs] = sections();
        let section = |name| table.iter().find(|s| s.name == name).unwrap();
        assert_eq!((power, cpu_usage), ("power", "cpu_usage"));
        assert_eq!((METRIC_NAMES[7], METRIC_NAMES[8]), ("Power", "CPU Usage"));
        assert_eq!(section(power).group, QueryGroup::Bmc);
        assert_eq!(section(cpu_usage).group, QueryGroup::Uge);
        assert_eq!(section(thermal).label_tag, Some("Label"));
        assert_eq!(section(jobs).group, QueryGroup::Jobs);
    }

    /// A served section: its time column and `values`.
    fn served(times: &[i64], values: Value) -> Value {
        jobj! { "time" => Value::Array(times.iter().map(|&t| Value::from(t)).collect()), "values" => values }
    }

    fn column(values: &[Value]) -> Value {
        Value::Array(values.to_vec())
    }

    #[test]
    fn rows_are_the_windows_that_carry_all_nine() {
        let mut thermal = monster_json::Object::new();
        for (d, label) in METRIC_NAMES[..7].iter().enumerate() {
            // The second window lacks Fan 4.
            let second = if d == 6 { Value::Null } else { Value::from(9.5) };
            thermal.insert(*label, column(&[Value::from(d as f64), second]));
        }
        let flat = |a: f64, b: f64| served(&[0, 60], column(&[a.into(), b.into()]));
        let doc = jobj! {
            "10.101.1.2" => jobj! {
                "power" => flat(7.0, 8.0),
                "thermal" => served(&[0, 60], Value::Object(thermal)),
                "cpu_usage" => flat(0.5, 1.0),
                "jobs" => served(&[0, 60], column(&["['7']".into(), "['1291784', '1318962']".into()])),
            },
            "10.101.1.3" => jobj! { "jobs" => served(&[60], column(&["[]".into()])) },
        };
        let nodes = decode(&doc).unwrap();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].node, NodeId::new(1, 2));
        assert_eq!(
            nodes[0].rows,
            vec![(EpochSecs::new(0), [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 0.5])]
        );
        assert_eq!(nodes[0].jobs, vec![JobId(1291784), JobId(1318962)]);
        assert_eq!((nodes[1].rows.len(), nodes[1].jobs.len()), (0, 0));
        // A label's `null` is no reading; the rest of its column is.
        let fan4 = section(&doc, "10.101.1.2", "thermal").unwrap();
        let fan4: Vec<_> = fan4.iter().filter(|r| r.0 == Some(METRIC_NAMES[6])).collect();
        assert_eq!(fan4, [&(Some(METRIC_NAMES[6]), 0, &Value::from(6.0))]);
        // The whole document, walked once: 2 + 13 + 2 + 2 readings, then 1.
        let all = readings(&doc).unwrap();
        assert_eq!(all.len(), 20);
        assert_eq!(all[0], ("10.101.1.2", "power", (None, 0, &Value::from(7.0))));
        assert_eq!(all[19], ("10.101.1.3", "jobs", (None, 60, &Value::from("[]"))));
    }

    #[test]
    fn a_section_without_times_of_its_own_is_on_the_documents_grid() {
        let values = |v: &[f64]| jobj! { "values" => column(&v.iter().map(|&v| v.into()).collect::<Vec<_>>()) };
        let doc = jobj! {
            "time" => column(&[Value::from(0), Value::from(60)]),
            "10.101.1.1" => jobj! {
                "power" => values(&[7.0, 8.0]),
                "jobs" => served(&[60], column(&["['7']".into()])),
            },
        };
        let power = section(&doc, "10.101.1.1", "power").unwrap();
        assert_eq!(power, [(None, 0, &Value::from(7.0)), (None, 60, &Value::from(8.0))]);
        assert_eq!(section(&doc, "10.101.1.1", "jobs").unwrap()[0].1, 60);
        // The grid is no node.
        let nodes = decode(&doc).unwrap();
        assert_eq!((nodes.len(), nodes[0].jobs.clone()), (1, vec![JobId(7)]));
        assert_eq!(readings(&doc).unwrap().len(), 3);
        // Without a grid, such a section has no times to read.
        let bare = jobj! { "10.101.1.1" => jobj! { "power" => values(&[7.0, 8.0]) } };
        assert!(decode(&bare).is_err());
    }

    #[test]
    fn a_document_that_is_not_served_shape_is_an_error() {
        assert!(decode(&Value::from(1)).is_err());
        assert!(decode(&jobj! { "node" => jobj! {} }).is_err());
        assert!(decode(&jobj! { "10.101.1.1" => jobj! { "power" => 3 } }).is_err());
        let jobs = served(&[0], column(&["1, 2".into()]));
        assert!(decode(&jobj! { "10.101.1.1" => jobj! { "jobs" => jobs } }).is_err());
        // A column that does not fit its section's times.
        let power = served(&[0, 60], column(&[Value::from(1.0)]));
        assert!(decode(&jobj! { "10.101.1.1" => jobj! { "power" => power } }).is_err());
    }
}
