//! What the Metrics Builder served, as the analyses read it: [`decode`]
//! turns a `/v1/metrics` document (Fig. 5; what `monster_json::parse`
//! gives for a served body, after `monster_compress::decompress_within`
//! when it is compressed) into per-node rows of the nine [`METRIC_NAMES`]
//! dimensions and job lists, the inputs of Figs. 7–9 and `monster top`.
//! Names are the writer's: the thermal labels are [`METRIC_NAMES`]' first
//! seven, the sections those of [`SchemaVersion::Optimized`].

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

/// Decode a served document into its nodes, in document order.
pub fn decode(document: &Value) -> Result<Vec<ServedNode>> {
    let [power, thermal, cpu_usage, jobs] = sections();
    let nodes = document.as_object().ok_or_else(|| Error::parse("document is not an object"))?;
    let mut out = Vec::with_capacity(nodes.len());
    for (key, doc) in nodes.iter() {
        let node = NodeId::parse(key).ok_or_else(|| Error::parse(format!("node key {key:?}")))?;
        let labelled = doc.get(thermal);
        let sources = METRIC_NAMES[..7]
            .iter()
            .map(|label| labelled.and_then(|t| t.get(label)))
            .chain([doc.get(power), doc.get(cpu_usage)]);
        let mut windows: BTreeMap<i64, [Option<f64>; 9]> = BTreeMap::new();
        for (d, section) in sources.enumerate() {
            for (t, v) in points(section)? {
                let v = v.as_f64().ok_or_else(|| Error::parse(format!("{key}: {v:?}")))?;
                windows.entry(t).or_insert([None; 9])[d] = Some(v);
            }
        }
        let rows = windows
            .into_iter()
            .filter(|(_, w)| w.iter().all(Option::is_some))
            .map(|(t, w)| (EpochSecs::new(t), w.map(Option::unwrap_or_default)))
            .collect();
        let jobs = match points(doc.get(jobs))?.into_iter().max_by_key(|&(t, _)| t) {
            Some((_, list)) => job_list(list).ok_or_else(|| Error::parse(format!("{list:?}")))?,
            None => Vec::new(),
        };
        out.push(ServedNode { node, rows, jobs });
    }
    Ok(out)
}

/// A section's points as `(time, value)`; an absent section has none.
fn points(section: Option<&Value>) -> Result<Vec<(i64, &Value)>> {
    let Some(section) = section else { return Ok(Vec::new()) };
    let array = section.as_array().ok_or_else(|| Error::parse("section is not an array"))?;
    array
        .iter()
        .map(|p| match (p.get("time").and_then(Value::as_i64), p.get("value")) {
            (Some(t), Some(v)) => Ok((t, v)),
            _ => Err(Error::parse(format!("point {p:?}"))),
        })
        .collect()
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

    fn series(points: &[(i64, f64)]) -> Value {
        Value::Array(points.iter().map(|&(t, v)| jobj! { "time" => t, "value" => v }).collect())
    }

    #[test]
    fn rows_are_the_windows_that_carry_all_nine() {
        let mut thermal = monster_json::Object::new();
        for (d, label) in METRIC_NAMES[..7].iter().enumerate() {
            // The second window lacks Fan 4.
            let points: &[(i64, f64)] =
                if d == 6 { &[(0, 6.0)] } else { &[(0, d as f64), (60, 9.5)] };
            thermal.insert(*label, series(points));
        }
        let doc = jobj! {
            "10.101.1.2" => jobj! {
                "power" => series(&[(0, 7.0), (60, 8.0)]),
                "thermal" => Value::Object(thermal),
                "cpu_usage" => series(&[(0, 0.5), (60, 1.0)]),
                "jobs" => Value::Array(vec![
                    jobj! { "time" => 0, "value" => "['7']" },
                    jobj! { "time" => 60, "value" => "['1291784', '1318962']" },
                ]),
            },
            "10.101.1.3" => jobj! { "jobs" => Value::Array(vec![jobj! { "time" => 60, "value" => "[]" }]) },
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
    }

    #[test]
    fn a_document_that_is_not_served_shape_is_an_error() {
        assert!(decode(&Value::from(1)).is_err());
        assert!(decode(&jobj! { "node" => jobj! {} }).is_err());
        assert!(decode(&jobj! { "10.101.1.1" => jobj! { "power" => 3 } }).is_err());
        let jobs = jobj! { "time" => 0, "value" => "1, 2" };
        assert!(decode(&jobj! { "10.101.1.1" => jobj! { "jobs" => Value::Array(vec![jobs]) } })
            .is_err());
    }
}
